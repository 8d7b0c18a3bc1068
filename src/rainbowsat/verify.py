"""One-shot verification suite over all desk-scale checkable claims.

Each claim function returns a dict with a status and a list of individual
checks.  Statuses: "pass", "fail", "indeterminate", and "xfail" for checks
documented to fail for a known structural reason (recorded in the check
detail); a claim passes when no check fails or is indeterminate, and a
failure outranks an indeterminate check.

Reports are deterministic: budgets are node counts, never wall-clock, all
collections are emitted in sorted order, and no timing information enters
the canonical JSON.  Two runs with identical inputs and seed produce
byte-identical reports.
"""
from __future__ import annotations

import json
import random
from itertools import combinations

from .constructions import (
    build_family_ladder,
    ehm_graph,
    gadget,
    gadget_names,
    ladder_construction,
    p4_construction,
    wheel_construction,
)
from .engine import Status, exists_embedding, find_rainbow_embedding, is_proper
from .graphs import (
    Graph,
    are_isomorphic,
    complete_graph,
    cycle,
    graph6_decode,
    graph6_encode,
    path,
    wheel,
)
from .oracle import naive_rainbow_free_colorable_multi
from .saturation import (
    RainbowSolver,
    SearchAborted,
    Verdict,
    all_rainbow_saturated,
    is_rainbow_saturated,
    sat_exact,
    sat_formula_oracle,
    sat_star_exact,
    structural_report,
)

SCHEMA_VERSION = 1
DEFAULT_NODE_LIMIT = 20_000_000
DEFAULT_SEED = 20260810


def _check(name, ok, detail=None, xfail_reason=None, indeterminate=False):
    """One check entry; ``indeterminate`` marks a check whose deciding search
    ran out of budget while nothing else about it failed."""
    status = "pass" if ok else ("xfail" if xfail_reason else "fail")
    if indeterminate:
        status = "indeterminate"
    entry = {"name": name, "status": status}
    if detail is not None:
        entry["detail"] = detail
    if not ok and xfail_reason:
        entry["reason"] = xfail_reason
    return entry


def _guarded(name, run):
    """The check ``run()`` returns, or an indeterminate one named ``name``
    when its exact computation runs out of budget."""
    try:
        return run()
    except SearchAborted as err:
        return _check(name, False, {"aborted": str(err)}, indeterminate=True)


def _saturated(name, facts, verdict, detail):
    """A host that should be saturated: ``facts`` holds when its own checked
    properties do; an exhausted budget is indeterminate only then."""
    detail["verdict"] = verdict.status.value
    return _check(name, facts and verdict.status is Verdict.SATURATED, detail,
                  indeterminate=facts and verdict.status is Verdict.INDETERMINATE)


def _status(name, res, expected, detail):
    """A colorability result that should have status ``expected``."""
    detail["status"] = res.status.value
    return _check(name, res.status is expected, detail,
                  indeterminate=res.status is Status.INDETERMINATE)


def _worst(statuses) -> str:
    """Combined status: fail beats indeterminate beats pass; xfail counts as pass."""
    worst = "pass"
    for status in statuses:
        if status == "fail":
            return "fail"
        if status == "indeterminate":
            worst = "indeterminate"
    return worst


def _claim(name, checks):
    return {"claim": name, "status": _worst(c["status"] for c in checks), "checks": checks}


# -- claims -------------------------------------------------------------------


def claim_ehm(config):
    """Exhaustive classical K_r saturation matches the closed form and its
    unique extremal graph for 3 <= r <= n <= 7."""
    checks = []
    for n in range(3, 8):
        for r in range(3, n + 1):
            res = sat_exact(n, complete_graph(r))
            want = sat_formula_oracle("EHM", n, r)
            unique = len(res.witnesses) == 1 and are_isomorphic(
                graph6_decode(res.witnesses[0]), ehm_graph(n, r)
            )
            checks.append(
                _check(
                    f"sat({n},K{r})",
                    res.value == want and unique,
                    {"computed": res.value, "formula": want, "witnesses": list(res.witnesses)},
                )
            )
    return _claim("ehm", checks)


def claim_classical_formulas(config):
    """Exhaustive sat(n,P4) and sat(n,C4) against their closed forms.

    The C4 form floor((3n-5)/2) is valid from n = 5; at n = 4 the true value
    is 4 (the paw is the unique minimal C4-saturated graph), so that check is
    expected to fail and is recorded as xfail.
    """
    checks = []
    for n in range(4, 9):
        res = sat_exact(n, path(4))
        want = sat_formula_oracle("KT_P4", n)
        checks.append(
            _check(f"sat({n},P4)", res.value == want, {"computed": res.value, "formula": want})
        )
    for n in range(4, 8):
        res = sat_exact(n, cycle(4))
        want = sat_formula_oracle("C4", n)
        checks.append(
            _check(
                f"sat({n},C4)",
                res.value == want,
                {"computed": res.value, "formula": want},
                xfail_reason=(
                    "closed form requires n >= 5; exhaustive search gives 4"
                    if n == 4
                    else None
                ),
            )
        )
    return _claim("classical-formulas", checks)


def claim_p3_equality(config):
    """Rainbow and classical saturation numbers coincide for P3 (every proper
    coloring of P3 is rainbow)."""
    def check(n):
        a = sat_star_exact(n, [path(3)], node_limit=config["node_limit"])
        b = sat_exact(n, path(3))
        return _check(f"n={n}", a.value == b.value, {"sat_star": a.value, "sat": b.value})

    return _claim("p3-equality", [_guarded(f"n={n}", lambda: check(n)) for n in range(3, 8)])


def claim_c4_wheel(config):
    """The colored wheel is rainbow C4-saturated with 2(n-1) edges for
    n = 6..9; for n = 10..14 every chord addition contains one of the two
    chord gadgets, and both gadgets admit no rainbow-C4-free coloring."""
    checks = []
    for n in range(6, 10):
        cg = wheel_construction(n)
        proper = is_proper(cg.graph, cg.coloring)
        no_rainbow = find_rainbow_embedding(cg.graph, cg.coloring, cycle(4)) is None
        verdict = is_rainbow_saturated(
            cg.graph, [cycle(4)], node_limit=config["node_limit"]
        )
        facts = proper and no_rainbow and cg.graph.edge_count == 2 * (n - 1)
        checks.append(_saturated(f"wheel({n})", facts, verdict, {
            "proper": proper,
            "rainbow_free": no_rainbow,
            "edges": cg.graph.edge_count,
        }))
    ga, gb = gadget("GA"), gadget("GB")
    solver = RainbowSolver([cycle(4)], node_limit=config["node_limit"])
    for gd in (ga, gb):
        checks.append(_status(f"gadget {gd.name} uncolorable",
                              solver.colorability(gd.graph), Status.UNCOLORABLE, {}))
    for n in range(10, 15):
        w = wheel(n)
        covered = all(
            exists_embedding(w.with_edge(u, v), ga.graph)
            or exists_embedding(w.with_edge(u, v), gb.graph)
            for u, v in w.non_edges()
        )
        checks.append(
            _check(f"wheel({n}) chords covered by gadgets", covered, {"non_edges": len(w.non_edges())})
        )
    return _claim("c4-wheel", checks)


def claim_c4_degree1(config):
    """Every rainbow C4-saturated graph on 5..7 vertices has at most one
    vertex of degree 1, and the exact minima lie in [n-2, 2n-2]."""
    def check(n):
        found, res = all_rainbow_saturated(n, [cycle(4)], node_limit=config["node_limit"])
        worst = max(
            (len(structural_report(g)["degree_one_vertices"]) for g in found), default=0
        )
        in_range = res.value is not None and n - 2 <= res.value <= 2 * n - 2
        return _check(
            f"n={n}",
            worst <= 1 and in_range,
            {
                "saturated_count": len(found),
                "max_degree_one": worst,
                "sat_star": res.value,
                "range": [n - 2, 2 * n - 2],
            },
        )

    return _claim("c4-degree1", [_guarded(f"n={n}", lambda: check(n)) for n in range(5, 8)])


def claim_p4_construction(config):
    """The K4-and-star construction is rainbow P4-saturated at n = 16, 17, 18
    with exactly (4n+14a)/5 edges; the two forcing gadgets are uncolorable
    and the three non-forcing closed components are colorable."""
    checks = []
    for n in (16, 17, 18):
        cg = p4_construction(n)
        a = (-n) % 5
        want_edges = (4 * n + 14 * a) // 5
        proper = is_proper(cg.graph, cg.coloring)
        no_rainbow = find_rainbow_embedding(cg.graph, cg.coloring, path(4)) is None
        verdict = is_rainbow_saturated(cg.graph, [path(4)], node_limit=config["node_limit"])
        facts = proper and no_rainbow and cg.graph.edge_count == want_edges
        checks.append(_saturated(f"n={n}", facts, verdict, {
            "edges": cg.graph.edge_count,
            "expected_edges": want_edges,
        }))
    solver = RainbowSolver([path(4)], node_limit=config["node_limit"])
    expectations = {
        "star_plus_chord": Status.UNCOLORABLE,
        "star_plus_tail": Status.UNCOLORABLE,
        "cherry_closed": Status.COLORABLE,
        "claw_closed": Status.COLORABLE,
        "path_closed": Status.COLORABLE,
    }
    for name in sorted(expectations):
        want = expectations[name]
        checks.append(_status(f"gadget {name}", solver.colorability(gadget(name).graph),
                              want, {"expected": want.value}))
    return _claim("p4-construction", checks)


def claim_k4_gap(config):
    """The rainbow K4 saturation number strictly exceeds 5/4 of the classical
    one at n = 5 (and n = 6 when extended), and no rainbow K4-saturated graph
    has two nonadjacent degree-2 vertices."""
    def check(n):
        found, res = all_rainbow_saturated(
            n, [complete_graph(4)], node_limit=config["node_limit"]
        )
        classical = sat_exact(n, complete_graph(4)).value
        gap_ok = res.value is not None and 4 * res.value > 5 * classical
        audit_ok = all(
            not structural_report(g, clique_order=4)["nonadjacent_low_degree_pairs"]
            for g in found
        )
        return _check(
            f"n={n}",
            gap_ok and audit_ok,
            {
                "sat_star": res.value,
                "sat": classical,
                "saturated_count": len(found),
                "audit_clean": audit_ok,
            },
        )

    ns = (5, 6) if config["extended"] else (5,)
    return _claim("k4-gap", [_guarded(f"n={n}", lambda: check(n)) for n in ns])


def claim_ladder(config):
    """Family ladders for K4 and K3 have the derived level sequences, and the
    recursive construction verifies rainbow saturated over its feasible range
    with |E|/n bounded by a fixed constant per pattern.

    The guaranteed independent-set sizes h^3+h (``guaranteed_sizes``) need
    99 vertices for K4 (past the 64-vertex graph type) and 31 for K3, so
    small n run with clamped sizes and every result is engine-verified.
    """
    checks = []
    bounds = {}  # sum of guaranteed set sizes plus one
    for r in (4, 3):
        # K_r, K_{r-1}, ..., K2: each level one clique, one vertex smaller
        lad = build_family_ladder(complete_graph(r))
        ok = lad.orders == tuple(range(r, 1, -1)) and lad.alphas == (1,) * (r - 2) and all(
            len(level) == 1 and are_isomorphic(level[0], complete_graph(r - i))
            for i, level in enumerate(lad.levels))
        checks.append(_check(f"ladder levels K{r}", ok, {"orders": list(lad.orders)}))
        bounds[f"K{r}"] = sum(lad.guaranteed_sizes) + 1

    ranges = {
        "K3": list(range(8, 15)) + [31, 32, 33],
        "K4": list(range(9, 13)),
    }
    pats = {"K3": complete_graph(3), "K4": complete_graph(4)}

    def host(name, n):
        res = ladder_construction(pats[name], n, node_limit=config["node_limit"])
        verdict = is_rainbow_saturated(res.graph, [pats[name]], node_limit=config["node_limit"])
        return _saturated(f"{name} n={n}", True, verdict, {
            "edges": res.graph.edge_count,
            "lift_sizes": res.trace["lift_sizes"],
        })

    for name in ("K3", "K4"):
        hosts = [_guarded(f"{name} n={n}", lambda: host(name, n)) for n in ranges[name]]
        checks.extend(hosts)
        # a host whose construction ran out of budget has no edge count
        ratios = [c["detail"]["edges"] / n for c, n in zip(hosts, ranges[name])
                  if "edges" in c["detail"]]
        missing = len(ratios) < len(hosts)
        grows = all(r <= bounds[name] for r in ratios)
        checks.append(
            _check(
                f"{name} linear edge growth",
                grows and not missing,
                {"max_ratio": round(max(ratios), 3) if ratios else None, "bound": bounds[name]},
                indeterminate=grows and missing,
            )
        )
    return _claim("ladder", checks)


def engine_oracle_cases(seed: int) -> list:
    """The (label, graph) cases of the engine-oracle claim: 500 random graphs
    on 4 to 8 vertices with at most 8 edges, drawn from ``seed``, then every
    gadget."""
    rng = random.Random(seed)
    cases = []
    for i in range(500):
        n = rng.randint(4, 8)
        pairs = list(combinations(range(n), 2))
        m = rng.randint(0, min(8, len(pairs)))
        cases.append((f"random-{i}", Graph(n, rng.sample(pairs, m))))
    for name in gadget_names():
        cases.append((f"gadget-{name}", gadget(name).graph))
    return cases


def claim_engine_oracle(config):
    """The engine agrees with the naive all-partitions oracle on 500 seeded
    random graphs with at most 8 edges plus every gadget, for patterns
    P3, P4, C4, K3, K4."""
    pats = {
        "C4": cycle(4),
        "K3": complete_graph(3),
        "K4": complete_graph(4),
        "P3": path(3),
        "P4": path(4),
    }
    solvers = {name: RainbowSolver([g], node_limit=config["node_limit"]) for name, g in pats.items()}
    cases = engine_oracle_cases(config["seed"])
    mismatches = []
    indeterminate = 0
    for label, g in cases:
        naive = naive_rainbow_free_colorable_multi(g, {k: [v] for k, v in pats.items()})
        for name in sorted(pats):
            res = solvers[name].colorability(g)
            if res.status is Status.INDETERMINATE:
                indeterminate += 1
                continue
            if (res.status is Status.COLORABLE) != naive[name]:
                mismatches.append(f"{label}/{name}")
    entry = _check(
        "engine vs naive oracle",
        not mismatches and not indeterminate,
        {
            "cases": len(cases),
            "patterns": sorted(pats),
            "mismatches": mismatches[:10],
        },
        indeterminate=indeterminate > 0 and not mismatches,
    )
    return _claim("engine-oracle", [entry])


CLAIMS = {
    "ehm": claim_ehm,
    "classical-formulas": claim_classical_formulas,
    "p3-equality": claim_p3_equality,
    "c4-wheel": claim_c4_wheel,
    "c4-degree1": claim_c4_degree1,
    "p4-construction": claim_p4_construction,
    "k4-gap": claim_k4_gap,
    "ladder": claim_ladder,
    "engine-oracle": claim_engine_oracle,
}


def run_report(
    only=None,
    *,
    extended: bool = False,
    node_limit: int = DEFAULT_NODE_LIMIT,
    seed: int = DEFAULT_SEED,
) -> dict:
    """Run the selected claims, every claim when ``only`` is None, and
    assemble the machine-readable report.  A selection that is empty, names
    an unknown claim or repeats one raises ValueError."""
    selection = sorted(CLAIMS) if only is None else list(only)
    if only is not None and not selection:
        raise ValueError("no claims selected")
    unknown = [name for name in selection if name not in CLAIMS]
    if unknown:
        raise ValueError(f"unknown claims: {', '.join(unknown)}; known: {', '.join(sorted(CLAIMS))}")
    repeated = sorted({name for name in selection if selection.count(name) > 1})
    if repeated:
        raise ValueError(f"repeated claims: {', '.join(repeated)}")
    config = {"extended": extended, "node_limit": node_limit, "seed": seed}
    results = [CLAIMS[name](config) for name in selection]
    return {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "extended": extended,
        "node_limit": node_limit,
        "status": _worst(r["status"] for r in results),
        "claims": results,
    }


def report_json(report: dict) -> str:
    """Canonical JSON serialization: sorted keys, no whitespace."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def render_table(report: dict) -> str:
    lines = []
    for claim in report["claims"]:
        lines.append(f"[{claim['status'].upper():>6}] {claim['claim']}")
        for c in claim["checks"]:
            mark = {"pass": "ok", "fail": "FAIL", "xfail": "xfail", "indeterminate": "??"}[c["status"]]
            detail = c.get("detail", {})
            brief = ", ".join(f"{k}={v}" for k, v in sorted(detail.items()) if not isinstance(v, list))
            lines.append(f"    {mark:>5}  {c['name']}" + (f"  ({brief})" if brief else ""))
    lines.append(f"overall: {report['status']}")
    return "\n".join(lines)
