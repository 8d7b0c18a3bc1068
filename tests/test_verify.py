"""Status precedence in claims and reports."""
import pytest

from rainbowsat import verify
from rainbowsat.constructions import gadget


@pytest.mark.parametrize(
    "statuses, want",
    [
        (["fail", "indeterminate"], "fail"),
        (["indeterminate", "fail"], "fail"),
        (["pass", "indeterminate"], "indeterminate"),
        (["indeterminate", "xfail"], "indeterminate"),
        (["xfail", "pass"], "pass"),
        ([], "pass"),
    ],
)
def test_status_precedence(statuses, want, monkeypatch):
    claim = verify._claim("x", [{"name": str(i), "status": s} for i, s in enumerate(statuses)])
    assert claim["status"] == want

    def fake(name, status):
        return lambda config: verify._claim(name, [{"name": "only", "status": status}])

    fakes = {f"claim-{i}": fake(f"claim-{i}", s) for i, s in enumerate(statuses)}
    monkeypatch.setattr(verify, "CLAIMS", fakes)
    if not statuses:
        # a report that checked no claim must not pass, registry empty or not
        with pytest.raises(ValueError, match="^no claims selected$"):
            verify.run_report()
        return
    report = verify.run_report()
    assert [c["status"] for c in report["claims"]] == [
        "pass" if s == "xfail" else s for s in statuses
    ]
    assert report["status"] == want


def test_exhausted_budget_marks_checks_indeterminate():
    # one search node decides none of the searches, and nothing else fails
    report = verify.run_report(["c4-wheel", "p4-construction"], node_limit=1)
    checks = {
        (claim["claim"], check["name"]): check["status"]
        for claim in report["claims"] for check in claim["checks"]
    }
    assert checks["c4-wheel", "wheel(6)"] == "indeterminate"
    assert checks["c4-wheel", "gadget GA uncolorable"] == "indeterminate"
    assert checks["p4-construction", "n=16"] == "indeterminate"
    assert checks["p4-construction", "gadget star_plus_chord"] == "indeterminate"
    assert report["status"] == "indeterminate"


def test_ladder_budget_abort_is_indeterminate():
    # a one-node budget aborts the ladder's patching searches: each aborted
    # host and the growth check over the hosts are indeterminate, not a crash
    report = verify.run_report(["ladder"], node_limit=1)
    (claim,) = report["claims"]
    statuses = {check["name"]: check["status"] for check in claim["checks"]}
    assert statuses["K3 n=8"] == "indeterminate"
    assert statuses["K3 linear edge growth"] == "indeterminate"
    assert statuses["K4 linear edge growth"] == "indeterminate"
    assert "fail" not in statuses.values()
    assert claim["status"] == report["status"] == "indeterminate"


@pytest.mark.parametrize("node_limit", [0, 1])
def test_exact_claims_record_a_budget_abort_as_indeterminate(node_limit):
    # sat* and the saturated-graph scans abort on a tiny budget: each aborted
    # check carries the abort message and the claim runs on
    report = verify.run_report(["c4-degree1", "k4-gap", "p3-equality"], node_limit=node_limit)
    statuses = {claim["claim"]: claim["status"] for claim in report["claims"]}
    assert statuses["c4-degree1"] == statuses["k4-gap"] == "indeterminate"
    checks = [check for claim in report["claims"] for check in claim["checks"]]
    assert len(checks) == 3 + 1 + 5
    for check in checks:
        aborted = check.get("detail", {}).get("aborted")
        assert check["status"] == ("indeterminate" if aborted else "pass")
        assert aborted is None or aborted.startswith("budget exhausted")
    assert report["status"] == "indeterminate"


def test_repeated_claim_is_refused():
    with pytest.raises(ValueError, match="repeated claims: ehm$"):
        verify.run_report(["ehm", "p3-equality", "ehm"])


def test_empty_selection_is_refused():
    # the CLI reads an empty --only as every claim; a report that checked
    # no claim must not pass
    with pytest.raises(ValueError, match="^no claims selected$"):
        verify.run_report([])


def test_engine_oracle_claim_fails_on_a_disagreement(monkeypatch):
    # an oracle that says the opposite of the real one on every pattern
    real = verify.naive_rainbow_free_colorable_multi
    monkeypatch.setattr(verify, "naive_rainbow_free_colorable_multi",
                        lambda g, fams: {k: not v for k, v in real(g, fams).items()})
    monkeypatch.setattr(verify, "engine_oracle_cases", lambda seed: [("GA", gadget("GA").graph)])
    report = verify.run_report(["engine-oracle"])
    (check,) = report["claims"][0]["checks"]
    assert report["status"] == check["status"] == "fail"
    assert check["detail"]["mismatches"] == ["GA/C4", "GA/K3", "GA/K4", "GA/P3", "GA/P4"]
