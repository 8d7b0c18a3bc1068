"""The three benchmark workloads: inputs from a seed, the timed calls, the gate.

Each workload has three steps.  ``setup(seed)`` builds the inputs (patterns
and seeded permutations) without touching the canonical-form cache.
``run(inputs, mark)`` makes the timed library calls and returns their
outcomes; an operation that raises is recorded, not propagated.  It calls
``mark()`` at fixed points of the work (after every solver call, and after
each enumerated level, certified host, verified claim or oracle
comparison), so that every repetition splits into the same steps and
``run.py`` can time each step on its own.  ``check(outcomes)`` compares
every outcome with the pinned answers in ``expected.json`` and returns
(operations attempted, operations failed, problems).

Each repetition is kept to a few seconds, so that a run of ``--seconds``
holds a dozen or more of them: see ``run.py`` for why that steadies the
figures.

The library is reached through module attributes at call time
(``saturation.is_rainbow_saturated``, not a name bound at import), so the
tracer's rebinding sees these calls too.
"""
from __future__ import annotations

import functools
import json
import random
import traceback
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

from rainbowsat import constructions, engine, graphs, saturation, verify

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


def _permutation(rng: random.Random, n: int) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _attempt(fn, *args, **kwargs):
    """Outcome of one operation: ("ok", value) or ("raised", traceback)."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception:  # every raise counts as a failed operation
        return "raised", traceback.format_exc()


@contextmanager
def _rebound(module, name: str, make):
    """``module.name`` replaced by ``make(original)`` for the block."""
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _then(mark):
    """A rebinding that calls ``mark()`` after every call of the function."""
    def make(fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                mark()
        return marked
    return make


def _marking(mark) -> ExitStack:
    """Every solver call, and every level the enumeration yields, marks a step."""
    def each_level(levels):
        def marked(*args, **kwargs):
            for item in levels(*args, **kwargs):
                mark()  # a level is enumerated, the one before it judged
                yield item
        return marked

    stack = ExitStack()
    stack.enter_context(_rebound(saturation.RainbowSolver, "_solve", _then(mark)))
    stack.enter_context(_rebound(saturation, "enumerate_levels", each_level))
    return stack


# -- satstar-n7 -------------------------------------------------------------------

# sat*(7, C4), then sat*(7, K4) in the same process: the second enumeration
# climbs past the first one's levels, partly through the canonical-form
# cache the first one filled, and its judging starts from nothing.
SATSTAR_N = 7
SATSTAR_PATTERNS = (("C4", graphs.cycle(4)), ("K4", graphs.complete_graph(4)))


def _satstar_setup(seed: int) -> dict:
    # the enumeration is canonical, so the seed only relabels the patterns
    rng = random.Random(seed)
    return {"patterns": [engine.Pattern(h.relabel(_permutation(rng, h.n)), name)
                         for name, h in SATSTAR_PATTERNS]}


def _satstar_run(inputs: dict, mark) -> list:
    with _marking(mark):
        return [_attempt(saturation.sat_star_exact, SATSTAR_N, [pattern])
                for pattern in inputs["patterns"]]


def _satstar_check(outcomes: list) -> tuple:
    problems = []
    for (name, _), (kind, res) in zip(SATSTAR_PATTERNS, outcomes):
        if kind != "ok":
            problems.append(res)
            continue
        want = EXPECTED["satstar-n7"][name]
        got = {"value": res.value, "witnesses": sorted(res.witnesses)}
        if got != {"value": want["value"], "witnesses": sorted(want["witnesses"])}:
            problems.append(f"sat*({SATSTAR_N}, {name}): got {got}, pinned {want}")
    return len(SATSTAR_PATTERNS), len(problems), problems


# -- certify-families ---------------------------------------------------------------

# (family, pattern, n); every host has more than 12 vertices, so the solver
# keys its cache by labeled adjacency and canonical form is not reached.
# The smallest hosts of each family: larger ones (wheels of 20 and 24
# vertices, K3 ladders of 40 and 48, the K4 ladder of 16) would lengthen a
# repetition to 8 s or more, and the wheels' search nodes move with the
# seed (1.0 to 1.3 M at 20 vertices).  The P4 hosts (K4 and star unions)
# are left out: their components fall under the 12-vertex limit, so they
# spent 9 % of the workload in canonical form, which this workload bypasses.
CERTIFY_HOSTS = (
    [("wheel", "C4", 16), ("ladder", "K3", 33)]
    + [("ladder", "K4", n) for n in (13, 14)]
)


def _certify_setup(seed: int) -> dict:
    rng = random.Random(seed)
    patterns = {
        "C4": engine.Pattern(graphs.cycle(4), "C4"),
        "K3": engine.Pattern(graphs.complete_graph(3), "K3"),
        "K4": engine.Pattern(graphs.complete_graph(4), "K4"),
    }
    hosts = [
        (family, patterns[pat], n, _permutation(rng, n))
        for family, pat, n in CERTIFY_HOSTS
    ]
    return {"hosts": hosts}


def _build_host(family: str, pattern, n: int) -> graphs.Graph:
    if family == "wheel":
        return constructions.wheel_construction(n).graph
    return constructions.ladder_construction(pattern, n).graph


def _certify_one(family, pattern, n, perm):
    host = _build_host(family, pattern, n).relabel(perm)
    return host, pattern, saturation.is_rainbow_saturated(host, [pattern])


def _certify_run(inputs: dict, mark) -> list:
    outcomes = []
    with _marking(mark):
        for spec in inputs["hosts"]:
            outcomes.append(_attempt(_certify_one, *spec))
            mark()
    return outcomes


def _certify_check(outcomes: list) -> tuple:
    problems = []
    for (family, pat, n), (kind, res) in zip(CERTIFY_HOSTS, outcomes):
        label = f"{family} {pat} n={n}"
        if kind != "ok":
            problems.append(f"{label}: {res}")
            continue
        host, pattern, verdict = res
        if verdict.status is not saturation.Verdict.SATURATED:
            problems.append(f"{label}: {verdict.status.value} ({verdict.reason})")
            continue
        coloring = verdict.witness_coloring
        if not engine.is_proper(host, coloring):
            problems.append(f"{label}: witness coloring is not proper")
        elif engine.find_rainbow_embedding(host, coloring, pattern) is not None:
            problems.append(f"{label}: witness coloring has a rainbow {pat}")
    return len(CERTIFY_HOSTS), len(problems), problems


# -- verify-paper -----------------------------------------------------------------


# Every claim but engine-oracle, which alone takes 3.7 s: half of it is the
# naive oracle on the gadgets, half on 500 random graphs.  In its place the
# workload compares engine and oracle on ORACLE_GRAPHS random graphs drawn
# the way that claim draws them, from the workload seed.
VERIFY_CLAIMS = sorted(set(verify.CLAIMS) - {"engine-oracle"})
ORACLE_GRAPHS = 100
ORACLE_PATTERNS = {
    "C4": graphs.cycle(4),
    "K3": graphs.complete_graph(3),
    "K4": graphs.complete_graph(4),
    "P3": graphs.path(3),
    "P4": graphs.path(4),
}


def _verify_setup(seed: int) -> dict:
    rng = random.Random(seed)
    cases = []
    for _ in range(ORACLE_GRAPHS):
        n = rng.randint(4, 8)
        pairs = list(combinations(range(n), 2))
        cases.append(graphs.Graph(n, rng.sample(pairs, rng.randint(0, min(8, len(pairs))))))
    return {"seed": seed, "cases": cases}


def _engine_matches_oracle(g: graphs.Graph, solvers: dict) -> list:
    """Patterns on which the engine is INDETERMINATE or differs from the oracle."""
    naive = verify.naive_rainbow_free_colorable_multi(
        g, {name: [h] for name, h in ORACLE_PATTERNS.items()})
    wrong = []
    for name, solver in solvers.items():
        status = solver.colorability(g).status
        if status is engine.Status.INDETERMINATE or (status is engine.Status.COLORABLE) != naive[name]:
            wrong.append(f"{name}: engine {status.value}, oracle {naive[name]}")
    return wrong


def _verify_run(inputs: dict, mark) -> list:
    claims = verify.CLAIMS
    originals = dict(claims)
    claims.update((name, _then(mark)(claim)) for name, claim in originals.items())
    try:
        with _marking(mark):
            report = _attempt(verify.run_report, VERIFY_CLAIMS, seed=inputs["seed"])
            solvers = {name: saturation.RainbowSolver([h]) for name, h in ORACLE_PATTERNS.items()}
            compared = []
            for g in inputs["cases"]:
                compared.append(_attempt(_engine_matches_oracle, g, solvers))
                mark()
    finally:
        claims.update(originals)
    return [report, compared]


def _verify_check(outcomes: list) -> tuple:
    """One operation per pinned check, one for the overall status and one per
    engine-oracle comparison.

    Statuses are compared, not report bytes, so a schema change alone is not
    a failure; the sat(4,C4) xfail must stay xfail.
    """
    want = EXPECTED["verify-paper"]
    (kind, report), compared = outcomes
    problems = [f"engine vs oracle, random graph {i}: {wrong}"
                for i, (kind_i, wrong) in enumerate(compared)
                if kind_i != "ok" or wrong]
    failed = len(problems)
    attempted = len(want["checks"]) + 1
    if kind != "ok":
        return attempted + len(compared), failed + attempted, problems + [report]
    got = {
        (claim["claim"], check["name"]): check["status"]
        for claim in report["claims"]
        for check in claim["checks"]
    }
    for claim, name, status in want["checks"]:
        seen = got.pop((claim, name), "missing")
        if seen != status:
            problems.append(f"{claim}/{name}: {seen}, pinned {status}")
    problems.extend(f"{claim}/{name}: not pinned" for claim, name in sorted(got))
    if report["status"] != want["status"]:
        problems.append(f"overall: {report['status']}, pinned {want['status']}")
    failed += min(len(problems) - failed, attempted)
    return attempted + len(compared), failed, problems


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    run: Callable
    check: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload("satstar-n7", _satstar_setup, _satstar_run, _satstar_check),
        Workload("certify-families", _certify_setup, _certify_run, _certify_check),
        Workload("verify-paper", _verify_setup, _verify_run, _verify_check),
    )
}
