"""Acceptance suite: every top-level claim checked at its stated tolerance.

Each criterion prints one pass/fail line (run with -s to see them).  All
comparisons are exact; budgets are deterministic node limits.  Criteria 1-9
read their claims from one default report, which criterion 10 compares byte
for byte with the committed golden report.
"""
from pathlib import Path

import pytest

from rainbowsat import verify
from rainbowsat.saturation import sat_exact, sat_formula_oracle
from rainbowsat.graphs import cycle

GOLDEN = Path(__file__).parent / "golden" / "verify-paper.json"


@pytest.fixture(scope="module")
def report():
    return verify.run_report()


def _pick(report, name):
    (claim,) = [c for c in report["claims"] if c["claim"] == name]
    return claim


def _assert_claim(number, claim):
    failed = [c["name"] for c in claim["checks"] if c["status"] in ("fail", "indeterminate")]
    status = "PASS" if not failed else "FAIL"
    print(f"[criterion {number}] {status}: {claim['claim']}"
          + (f" failing: {', '.join(failed)}" if failed else ""))
    assert not failed, f"criterion {number} failing checks: {failed}"


def test_criterion_1_ehm_cross_check(report):
    # sat(n, K_r) equals the closed form with its unique extremal witness,
    # 3 <= r <= n <= 7, exact equality
    _assert_claim(1, _pick(report, "ehm"))


def test_criterion_2_classical_formulas(report):
    # sat(n,P4) matches the piecewise closed form for n=4..8 and sat(n,C4)
    # matches floor((3n-5)/2) for n=5..7; the n=4 C4 case is checked
    # separately below because the closed form starts at n=5
    claim = _pick(report, "classical-formulas")
    hard_failures = [c["name"] for c in claim["checks"] if c["status"] == "fail"]
    xfails = [c["name"] for c in claim["checks"] if c["status"] == "xfail"]
    status = "PASS" if not hard_failures else "FAIL"
    print(f"[criterion 2] {status}: classical formulas"
          + (f" (known gap: {', '.join(xfails)})" if xfails else ""))
    assert not hard_failures
    assert xfails == ["sat(4,C4)"]


@pytest.mark.xfail(
    strict=True,
    reason="floor((3n-5)/2) holds from n=5; exhaustive search shows sat(4,C4)=4",
)
def test_criterion_2_c4_formula_at_n4():
    assert sat_exact(4, cycle(4)).value == sat_formula_oracle("C4", 4)


def test_criterion_2_c4_true_value_at_n4():
    # the paw (triangle plus pendant edge) is the minimal C4-saturated graph
    assert sat_exact(4, cycle(4)).value == 4


def test_criterion_3_p3_equality(report):
    # sat*(n, {P3}) = sat(n, P3) for n = 3..7, exact
    _assert_claim(3, _pick(report, "p3-equality"))


def test_criterion_4_colored_wheel(report):
    # n=6..9: the colored wheel is proper, rainbow-C4-free and SATURATED with
    # 2(n-1) edges; n=10..14: every chord addition contains a chord gadget,
    # and both gadgets are UNCOLORABLE
    _assert_claim(4, _pick(report, "c4-wheel"))


def test_criterion_5_c4_degree_one_bound(report):
    # every rainbow C4-saturated graph on 5..7 vertices has at most one
    # degree-1 vertex; sat*(n,C4) lies in [n-2, 2n-2]
    _assert_claim(5, _pick(report, "c4-degree1"))


def test_criterion_6_p4_disjoint_construction(report):
    # constructions at n=16..18 are SATURATED with exactly (4n+14a)/5 edges;
    # forcing gadgets UNCOLORABLE, non-forcing components COLORABLE
    _assert_claim(6, _pick(report, "p4-construction"))


def test_criterion_7_k4_gap(report):
    # sat*(5,{K4}) > (5/4) sat(5,K4), strict, plus the degree audit
    _assert_claim(7, _pick(report, "k4-gap"))


@pytest.mark.extended
def test_criterion_7_k4_gap_extended_n6():
    claim = verify.run_report(["k4-gap"], extended=True)["claims"][0]
    _assert_claim("7-extended", claim)
    assert any(c["name"] == "n=6" for c in claim["checks"])


def test_criterion_8_ladder(report):
    # ladder level sequences for K3/K4; constructions verify SATURATED over
    # the feasible range with |E|/n bounded per pattern
    _assert_claim(8, _pick(report, "ladder"))


def test_criterion_9_engine_oracle_equivalence(report):
    # 500 seeded random graphs with <= 8 edges plus all gadgets, patterns
    # {P3,P4,C4,K3,K4}: exact agreement with the naive partition oracle
    _assert_claim(9, _pick(report, "engine-oracle"))


def test_criterion_10_determinism(report):
    # the default report is byte-identical to the committed golden report,
    # which is `rainbowsat verify-paper --json` output at the default seed
    got = verify.report_json(report) + "\n"
    same = got.encode() == GOLDEN.read_bytes()
    print(f"[criterion 10] {'PASS' if same else 'FAIL'}: report matches the golden "
          f"report ({len(got)} bytes)")
    assert same
