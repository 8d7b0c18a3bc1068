"""Command-line interface.

Subcommands: colorable, check, sat, satstar, construct, gadget, verify-paper.
Graphs and patterns are given as graph6 strings, as @file references to a
graph6 file, or by name (K4, P4, C4, W8, E5, K1_4, ...).

Exit codes: colorable exits 0/1/2 for COLORABLE/UNCOLORABLE/INDETERMINATE,
check and construct --verify exit 0/1/2 for SATURATED/NOT_SATURATED/
INDETERMINATE, any command whose search runs out of budget prints
"INDETERMINATE: <message>" to stderr and exits 2, verify-paper exits 0 only
if every claim passes, any usage or input error exits 64, and a closed
standard output (say, ``| head``) exits 141, as 128 + SIGPIPE would.  Each
subcommand reads only the global flags that ``READS`` lists for it and exits
64 when given any other: verify-paper is budgeted by --nodes only, so that
its report is reproducible, and sat and gadget run no colorability search.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import verify
from .constructions import (
    ehm_graph,
    gadget,
    gadget_names,
    ladder_construction,
    p4_construction,
    wheel_construction,
)
from .engine import Status
from .graphs import NAMES, Graph, graph6_decode, graph6_encode, graph_to_json, named_graph
from .saturation import (
    RainbowSolver,
    SearchAborted,
    Verdict,
    is_rainbow_saturated,
    sat_exact,
    sat_star_exact,
)

EXIT_PARSE = 64
EXIT_INDETERMINATE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE
# one exit code per verdict, for colorable, check and construct --verify
EXIT_CODES = {
    Status.COLORABLE: 0, Status.UNCOLORABLE: 1, Status.INDETERMINATE: EXIT_INDETERMINATE,
    Verdict.SATURATED: 0, Verdict.NOT_SATURATED: 1, Verdict.INDETERMINATE: EXIT_INDETERMINATE,
}


def _load_graph(token: str) -> Graph:
    if token.startswith("@"):
        with open(token[1:]) as fh:
            lines = fh.read().strip().splitlines()
        if not lines:
            raise ValueError(f"{token[1:]} holds no graph")
        token = lines[0]
    if token[:1] in NAMES and token[1:2].isdigit():
        # a name: no graph6 body character is a digit, so the generator's
        # error, a bad size say, is the one to show
        return named_graph(token)
    return graph6_decode(token)


def _load_graphs(tokens) -> list:
    return [_load_graph(t) for t in tokens]


def _emit(args, payload: dict, human: str):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _lines(g: Graph, coloring) -> str:
    """A coloring's text form: one 'u v class' line per edge of g."""
    return "\n".join(f"{u} {v} {c}" for (u, v), c in zip(g.edges, coloring))


def _limits(args):
    return {
        "node_limit": args.nodes,
        "time_limit": args.timeout if args.timeout > 0 else None,
    }


def cmd_colorable(args) -> int:
    g = _load_graph(args.graph)
    patterns = _load_graphs(args.patterns)
    solver = RainbowSolver(patterns, **_limits(args))
    res = solver.colorability(g)
    payload = {"status": res.status.value}
    human = res.status.value
    if res.witness is not None:
        payload["witness"] = {"classes": list(res.witness)}
        human += "\n" + _lines(g, res.witness)
    _emit(args, payload, human)
    return EXIT_CODES[res.status]


def cmd_check(args) -> int:
    g = _load_graph(args.graph)
    patterns = _load_graphs(args.patterns)
    verdict = is_rainbow_saturated(g, patterns, **_limits(args))
    payload = {
        "status": verdict.status.value,
        "reason": verdict.reason,
        "nonedges_checked": verdict.nonedges_checked,
        "nonedges_refuted": verdict.nonedges_refuted,
    }
    human = f"{verdict.status.value}: {verdict.reason}"
    if verdict.witness_coloring is not None:
        payload["witness_coloring"] = {"classes": list(verdict.witness_coloring)}
    if verdict.failing_edge is not None:
        payload["failing_edge"] = list(verdict.failing_edge)
        human += f" (failing edge {verdict.failing_edge})"
        if verdict.failing_coloring is not None:
            payload["failing_coloring"] = {"classes": list(verdict.failing_coloring)}
    _emit(args, payload, human)
    return EXIT_CODES[verdict.status]


def _value(res) -> str:
    return "none (no saturated graph exists)" if res.value is None else str(res.value)


def cmd_sat(args) -> int:
    h = _load_graph(args.pattern)
    res = sat_exact(args.n, h)
    _emit(args, res.to_json(), f"sat({args.n}) = {_value(res)}\nwitnesses: {' '.join(res.witnesses)}")
    return 0


def cmd_satstar(args) -> int:
    patterns = _load_graphs(args.patterns)
    res = sat_star_exact(args.n, patterns, **_limits(args))
    _emit(args, res.to_json(), f"sat*({args.n}) = {_value(res)}\nwitnesses: {' '.join(res.witnesses)}")
    return 0


# the colored constructions: kind -> (builder, the pattern their coloring keeps rainbow-free)
COLORED = {"p4": (p4_construction, "P4"), "wheel": (wheel_construction, "C4")}


def cmd_construct(args) -> int:
    coloring = None
    if args.kind == "ehm":
        if args.r is None:
            raise ValueError("construct ehm needs --r")
        g = ehm_graph(args.n, args.r)
        payload = {"graph6": graph6_encode(g), "graph": graph_to_json(g)}
        family = [named_graph(f"K{args.r}")]
    elif args.kind == "ladder":
        if args.pattern is None:
            raise ValueError("construct ladder needs --pattern")
        pattern = _load_graph(args.pattern)
        res = ladder_construction(pattern, args.n, **_limits(args))
        g = res.graph
        payload = {"graph6": graph6_encode(g), "trace": res.trace}
        family = [pattern]
    else:
        build, name = COLORED[args.kind]
        cg = build(args.n)
        g, coloring = cg.graph, cg.coloring
        payload = {"graph6": graph6_encode(g), "coloring": {"classes": list(coloring)}}
        family = [named_graph(name)]
    human = graph6_encode(g)
    if coloring is not None:
        human += "\n" + _lines(g, coloring)
    if args.verify:
        verdict = is_rainbow_saturated(g, family, **_limits(args))
        payload["verified"] = verdict.status.value
        human += f"\nverified: {verdict.status.value}"
    _emit(args, payload, human)
    return EXIT_CODES[verdict.status] if args.verify else 0


def cmd_gadget(args) -> int:
    if args.list:
        for name in gadget_names():
            print(name)
        return 0
    gd = gadget(args.name)
    payload = {
        "name": gd.name,
        "graph6": graph6_encode(gd.graph),
        "marked_edge": list(gd.marked_edge),
        "graph": graph_to_json(gd.graph),
    }
    _emit(args, payload, f"{gd.name}: {graph6_encode(gd.graph)} marked edge {gd.marked_edge}")
    return 0


def cmd_verify_paper(args) -> int:
    only = None if args.only is None else args.only.split(",")
    report = verify.run_report(
        only,
        extended=args.extended,
        node_limit=verify.DEFAULT_NODE_LIMIT if args.nodes is None else args.nodes,
        seed=args.seed,
    )
    if args.json:
        print(verify.report_json(report))
    else:
        print(verify.render_table(report))
    return 0 if report["status"] == "pass" else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_PARSE, not argparse's 2, which means INDETERMINATE."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # global flags live on a suppressed-default parent so they parse both
    # before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    common.add_argument("--timeout", type=float, default=argparse.SUPPRESS,
                        help="seconds per subsearch for colorable, check, satstar "
                        "and construct (0 disables, default 60)")
    common.add_argument("--nodes", type=int, default=argparse.SUPPRESS,
                        help="node budget per search for colorable, check, satstar, construct and "
                        f"verify-paper (default: none; verify-paper {verify.DEFAULT_NODE_LIMIT})")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for verify-paper's random graphs")

    parser = _Parser(prog="rainbowsat", description=__doc__.splitlines()[0], parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("colorable", help="decide rainbow-free colorability", parents=[common])
    p.add_argument("graph")
    p.add_argument("patterns", nargs="+")
    p.set_defaults(func=cmd_colorable)

    p = sub.add_parser("check", help="check rainbow saturation", parents=[common])
    p.add_argument("graph")
    p.add_argument("patterns", nargs="+")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sat", help="exact classical saturation number", parents=[common])
    p.add_argument("n", type=int)
    p.add_argument("pattern")
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("satstar", help="exact rainbow saturation number", parents=[common])
    p.add_argument("n", type=int)
    p.add_argument("patterns", nargs="+")
    p.set_defaults(func=cmd_satstar)

    p = sub.add_parser("construct", help="emit a saturated construction", parents=[common])
    p.add_argument("kind", choices=["ehm", "p4", "wheel", "ladder"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, help="clique order (ehm)")
    p.add_argument("--pattern", help="pattern (ladder)")
    p.add_argument("--verify", action="store_true", help="re-check saturation")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("gadget", help="emit a fixed gadget graph", parents=[common])
    one = p.add_mutually_exclusive_group(required=True)
    one.add_argument("name", nargs="?")
    one.add_argument("--list", action="store_true", help="print every gadget name")
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("verify-paper", help="run the verification suite", parents=[common])
    p.add_argument("--only", help="comma-separated claim names")
    p.add_argument("--extended", action="store_true", help="include long-running checks")
    p.set_defaults(func=cmd_verify_paper)

    return parser


_GLOBAL_DEFAULTS = {"json": False, "timeout": 60.0, "nodes": None, "seed": verify.DEFAULT_SEED}

# the global flags each subcommand reads
READS = {
    "colorable": ("json", "timeout", "nodes"),
    "check": ("json", "timeout", "nodes"),
    "sat": ("json",),
    "satstar": ("json", "timeout", "nodes"),
    "construct": ("json", "timeout", "nodes"),
    "gadget": ("json",),
    "verify-paper": ("json", "nodes", "seed"),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    unread = [flag for flag in _GLOBAL_DEFAULTS
              if hasattr(args, flag) and flag not in READS[args.command]]
    # global flags parse in either position; fill in whatever was never given
    # (argparse set_defaults would leak through the shared parent actions)
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        if unread:
            hint = ""
            if args.command == "verify-paper":
                hint = ": it is node-budgeted so that its report is reproducible; use --nodes"
            raise ValueError(f"{args.command} does not read --{unread[0]}{hint}")
        if not args.timeout >= 0:  # NaN too: it would mean no limit
            raise ValueError("timeout must be nonnegative")
        if args.nodes is not None and args.nodes < 0:
            raise ValueError("nodes must be nonnegative")
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe is met here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone; send what is left to devnull, as Python's
        # documentation advises, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except SearchAborted as exc:
        print(f"INDETERMINATE: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
