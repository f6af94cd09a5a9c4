"""Command-line front end: construct, verify, certify, search, hyper, bounds, table.

One graph per line on streams; JSON reports are newline-delimited.  Exit
codes: 0 success, 1 verification-negative, 2 usage error, 3 resource
limit.  Every error also writes a one-line JSON reason to stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import (
    DomainError,
    FatalInconsistencyError,
    Graph6Error,
    ParseError,
    VerificationError,
    _check_p,
    _need,
)
from .graph6 import decode, encode
from .search import (
    MODES,
    SearchProblem,
    _usable_cpus,
    enumerate_extremal,
    exact_sat,
    exact_semi_sat,
)
from .verify import (
    bollobas_bound,
    check_bounds,
    closure_tower_bound,
    dh_semi_bound,
    ehm_bound,
    semi_sat_lower_bound,
    semi_sat_upper_bound,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from . import constructions as cons
    from .closure import certify as certify_run
    from .hypergraphs import to_text
    from .hypersat import bollobas_extremal, greedy_complete, saturated_hypergraph, sidorenko_base

__all__ = ["main"]

# what only `construct`, `certify` and `hyper` call, so that no other
# command loads its module: name -> (module, attribute, or None for the
# module itself)
_DEFERRED = {
    "cons": (".constructions", None),
    "certify_run": (".closure", "certify"),
    "to_text": (".hypergraphs", "to_text"),
    **{name: (".hypersat", name) for name in
       ("bollobas_extremal", "greedy_complete", "saturated_hypergraph", "sidorenko_base")},
}


def _load(*names: str) -> None:
    """Import and bind here each of `names` not bound yet.  The commands
    then call the names as bound, so a wrapper set after import applies."""
    import importlib

    for name in names:
        if name not in globals():
            module, attr = _DEFERRED[name]
            value = importlib.import_module(module, __package__)
            globals()[name] = value if attr is None else getattr(value, attr)


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(name)
    return globals()[name]


class _UsageError(Exception):
    """A bad flag, environment variable or file: kind "usage", exit 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_lines(path: Optional[str]) -> list[str]:
    try:
        # as stdin reads in the default locale: non-UTF-8 bytes become surrogates
        with (contextlib.nullcontext(sys.stdin) if path in (None, "-")
              else open(path, encoding="utf-8", errors="surrogateescape")) as fh:
            return [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise _UsageError(f"cannot read {path or '-'}: {exc.strerror or exc}") from None


def _build(a, label: str, need: tuple[str, ...], build):
    """`build(a)` from a command family's table, once every flag it needs is set."""
    missing = [f"--{x}" for x in need if getattr(a, x) is None]
    if missing:
        raise DomainError(f"{label} requires {', '.join(missing)}")
    return build(a)


def _read_one_graph(path: Optional[str]):
    lines = _read_lines(path)
    if len(lines) != 1:
        raise DomainError(f"expected exactly one graph6 line, got {len(lines)}")
    return decode(lines[0])


# name -> (flags it requires, in message order; builder from the parsed
# args).  Builders look names up when called, so wrappers set later apply.
_CONSTRUCTIONS = {
    "ehm": (("n", "p"), lambda a: cons.ehm_extremal(a.n, a.p)),
    "bipartite": (("n", "t"), lambda a: cons.complete_bipartite(a.t, a.n)),
    "clique-join": (("n", "p", "t"), lambda a: cons.clique_join_bipartite(a.n, a.p, a.t)),
    "duffus-hanson": (("n",), lambda a: cons.duffus_hanson_t2(a.n)),
    "petersen": ((), lambda a: cons.petersen()),
    "split-family": (("n", "t"), lambda a: cons.split_family(a.t, a.n)),
    "f-graph": (("n", "t"), lambda a: cons.f_graph(a.n, a.t)),
    "semi-sat": (("n", "p", "t"), lambda a: cons.semi_sat(a.n, a.p, a.t)),
    "cone": ((), lambda a: cons.cone(_read_one_graph(a.input))),
    "duplicate": (("vertex",), lambda a: cons.duplicate_vertex(_read_one_graph(a.input), a.vertex)),
}


def _cmd_construct(a) -> int:
    _load("cons")
    g, layout = _build(a, a.name, *_CONSTRUCTIONS[a.name]), None
    if isinstance(g, tuple):  # split-family returns its layout too
        g, layout = g
    if a.format in ("graph6", "both"):
        print(encode(g))
    if a.format in ("json", "both"):
        payload = {"name": a.name, "graph6": encode(g), "n": g.n,
                   "edges": g.edge_count(), "min_degree": g.min_degree()}
        if layout is not None:
            payload["layout"] = layout.to_json()
        print(json.dumps(payload))
    return 0


def _verify_line(job):
    text, p, t, semi = job
    rep = check_bounds(decode(text), p, t)
    return (rep.semi_saturated if semi else rep.saturated), rep.json_line()


# seconds of `verify` lines checked in process before the rest goes to a
# pool, which costs more than it saves on a short stream of small lines
_VERIFY_QUOTA = 0.5


def _cmd_verify(a) -> int:
    # what `check_bounds` refuses of each line, refused before the first,
    # so that an empty stream is refused too
    _need("t", a.t, 0)
    _check_p(a.p)
    jobs = [(line, a.p, a.t, a.semi) for line in _read_lines(a.input)]
    results = []
    if _workers(a.threads, len(jobs)) > 1:
        # in process until the lines have taken _VERIFY_QUOTA seconds
        start = time.perf_counter()
        for job in jobs:
            if time.perf_counter() - start >= _VERIFY_QUOTA:
                break
            results.append(_verify_line(job))
    rest = jobs[len(results):]
    workers = _workers(a.threads, len(rest))
    if workers > 1:
        # about four chunks per worker: one task per line costs more in
        # pickling and queueing than a small line takes to check
        chunk = -(-len(rest) // (4 * workers))
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results += pool.map(_verify_line, rest, chunksize=chunk)
    else:
        results += map(_verify_line, rest)
    for _, payload in results:
        print(payload)
    return 0 if all(ok for ok, _ in results) else 1


def _parse_seed(spec: str, t: int) -> tuple[int, ...]:
    if spec == "t1":
        return tuple(range(t + 1))
    try:
        return tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise DomainError(f"bad --r0 {spec!r}; use '0', 't1', or comma-separated vertices")


def _cmd_certify(a) -> int:
    # what `certify` refuses of each line, refused before the first
    _need("t", a.t, 1)
    _check_p(a.p)
    seed = _parse_seed(a.r0, a.t)
    _load("certify_run")
    for line in _read_lines(a.input):
        cert = certify_run(decode(line), a.p, a.t, seed)
        print(json.dumps(cert.to_json()))
    return 0


def _budget(given, var: str, kind: type):
    """A budget flag's value, else its environment variable's, else None."""
    if given is not None:
        return given
    text = os.environ.get(var)
    try:
        return None if text is None else kind(text)
    except ValueError:
        raise _UsageError(f"{var}: invalid {kind.__name__} value: {text!r}") from None


def _cmd_search(a) -> int:
    # only the values the user set: SearchProblem's defaults fill the rest
    given = {
        "mode": a.mode, "edge_budget": a.edge_budget, "max_n": a.max_n,
        "node_budget": _budget(a.node_budget, "SATGRAPH_NODE_BUDGET", int),
        "time_budget": _budget(a.time_budget, "SATGRAPH_TIME_BUDGET", float),
    }
    problem = SearchProblem(a.n, a.p, a.t, iso_reject=not a.no_iso_reject,
                            **{k: v for k, v in given.items() if v is not None})
    solve = (enumerate_extremal if a.enumerate
             else exact_semi_sat if problem.mode == "semi" else exact_sat)
    result = solve(problem, _workers(a.threads))  # the pool caps at its task count
    payload = json.dumps(result.to_json())
    print(payload)
    if a.out:
        try:
            with open(a.out, "a") as fh:
                fh.write(payload + "\n")
        except OSError as exc:
            raise _UsageError(f"cannot write {a.out}: {exc.strerror or exc}") from None
    return 3 if result.status == "resource-limit" else 0


def _hyper_base(a):
    h, part = sidorenko_base(a.r, a.t, a.n)
    return h, {"partition": part.to_json(), "edges": h.edge_count()}


def _hyper_complete(a):
    base, part = sidorenko_base(a.r, a.t, a.n)
    h = greedy_complete(base, a.p)
    return h, {"partition": part.to_json(), "edges": h.edge_count()}


def _hyper_saturated(a):
    h = saturated_hypergraph(a.r, a.p, a.t, a.n)
    return h, {"edges": h.edge_count(), "universal": list(range(a.n - max(a.p - a.r - 1, 0), a.n))}


def _hyper_bollobas(a):
    h = bollobas_extremal(a.n, a.r, a.p)
    return h, {"edges": h.edge_count(), "core": list(range(a.p - a.r))}


# kind -> (flags it requires, in message order; builder of (hypergraph, meta))
_HYPER = {
    "base": (("r", "t", "n"), _hyper_base),
    "complete": (("r", "t", "n", "p"), _hyper_complete),
    "saturated": (("r", "t", "n", "p"), _hyper_saturated),
    "bollobas": (("r", "n", "p"), _hyper_bollobas),
}


def _cmd_hyper(a) -> int:
    _load("bollobas_extremal", "greedy_complete", "saturated_hypergraph", "sidorenko_base",
          "to_text")
    h, meta = _build(a, f"hyper {a.kind}", *_HYPER[a.kind])
    sys.stdout.write(to_text(h))
    if a.json:
        print(json.dumps(meta))
    return 0


def _frac(x: Fraction):
    return x.numerator if x.denominator == 1 else [x.numerator, x.denominator]


def _cmd_bounds(a) -> int:
    vals = {"ehm": ehm_bound(a.n, a.p)}
    out = {"n": a.n, "p": a.p}
    if a.t is not None:
        out["t"] = a.t
        vals["dh_semi"] = _frac(dh_semi_bound(a.n, a.t, a.p))
        vals["semi_sat_lower"] = _frac(semi_sat_lower_bound(a.n, a.p, a.t))
        vals["semi_sat_upper"] = semi_sat_upper_bound(a.n, a.p, a.t)
        if 1 <= a.t <= 2:
            vals["closure_tower"] = closure_tower_bound(a.n, a.p, a.t)
    if a.r is not None:
        out["r"] = a.r
        vals["bollobas"] = bollobas_bound(a.n, a.r, a.p)
    out["bounds"] = vals
    print(json.dumps(out))
    return 0


def _cmd_table(a) -> int:
    grids: dict[tuple[str, int], dict[tuple[int, int], str]] = {}
    marks = {"infeasible": "-", "resource-limit": "?"}
    for line in _read_lines(a.input):
        try:
            row = json.loads(line)
            value, prob = row["value"], row["problem"]
            mode, p, t, n = prob["mode"], prob["p"], prob["t"], prob["n"]
            ok = (type(mode) is str and {type(p), type(t), type(n)} == {int}
                  and (type(value) is int or value in marks))
        except (ValueError, KeyError, TypeError):  # JSONDecodeError is a ValueError
            ok = False
        if not ok:
            raise ParseError(f"not a search result row: {line}")
        grids.setdefault((mode, p), {})[(t, n)] = marks.get(value, str(value))
    for (mode, p), cells in sorted(grids.items()):
        ts = sorted({t for t, _ in cells})
        ns = sorted({n for _, n in cells})
        width = max(4, max(len(c) for c in cells.values()) + 1)
        print(f"mode={mode} p={p}")
        print(" t\\n |" + "".join(f"{n:>{width}}" for n in ns))
        print("-----+" + "-" * (width * len(ns)))
        for t in ts:
            line = "".join(f"{cells.get((t, n), ''):>{width}}" for n in ns)
            print(f"{t:>4} |" + line)
        print()
    return 0


def _threads(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"need at least 1, got {value}")
    return value


def _workers(threads: int, tasks: Optional[int] = None) -> int:
    """The worker processes to start for `--threads`: at most one per task
    and one per CPU this process may run on.  A pool started by fork starts
    all its workers at its first task, however few the tasks."""
    return min(threads, _usable_cpus(), threads if tasks is None else tasks)


def _add_threads(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=_threads, default=os.cpu_count() or 1,
                        help="worker processes (default: one per usable CPU)")


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="satgraph", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pc = sub.add_parser("construct", help="build a named graph and print it")
    pc.add_argument("name", choices=_CONSTRUCTIONS)
    pc.add_argument("--n", type=int, help="vertex count")
    pc.add_argument("--p", type=int, help="forbidden clique order")
    pc.add_argument("--t", type=int, help="degree parameter")
    pc.add_argument("--input", help="graph6 input for cone/duplicate (default stdin)")
    pc.add_argument("--vertex", type=int, help="vertex to duplicate")
    pc.add_argument("--format", choices=["graph6", "json", "both"], default="graph6")
    pc.set_defaults(func=_cmd_construct)

    pv = sub.add_parser("verify", help="check graph6 lines and print reports")
    pv.add_argument("--p", type=int, required=True)
    pv.add_argument("--t", type=int)
    pv.add_argument("--semi", action="store_true",
                    help="judge semi-saturation instead of saturation")
    pv.add_argument("--input", help="graph6 file (default stdin)")
    _add_threads(pv)
    pv.set_defaults(func=_cmd_verify)

    pf = sub.add_parser("certify", help="run the closure engine, print certificates")
    pf.add_argument("--p", type=int, required=True)
    pf.add_argument("--t", type=int, required=True)
    pf.add_argument("--r0", default="0",
                    help="'0' (vertex 0), 't1' (vertices 0..t), or comma list")
    pf.add_argument("--input", help="graph6 file (default stdin)")
    pf.set_defaults(func=_cmd_certify)

    ps = sub.add_parser("search", help="exact minimum edge count")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--p", type=int, required=True)
    ps.add_argument("--t", type=int, required=True)
    ps.add_argument("--mode", choices=MODES)
    ps.add_argument("--enumerate", action="store_true",
                    help="list all optimal graphs up to isomorphism (n <= 9)")
    ps.add_argument("--edge-budget", type=int)
    ps.add_argument("--node-budget", type=int, help="default $SATGRAPH_NODE_BUDGET or 10**9")
    ps.add_argument("--time-budget", type=float, help="default $SATGRAPH_TIME_BUDGET or 600 s")
    ps.add_argument("--no-iso-reject", action="store_true")
    ps.add_argument("--max-n", type=int)
    ps.add_argument("--out", help="append the result JSON to this file")
    _add_threads(ps)
    ps.set_defaults(func=_cmd_search)

    ph = sub.add_parser("hyper", help="hypergraph constructions")
    ph.add_argument("kind", choices=_HYPER)
    for flag in dict.fromkeys(f for need, _ in _HYPER.values() for f in need):
        ph.add_argument(f"--{flag}", type=int)
    ph.add_argument("--json", action="store_true", help="also print layout JSON")
    ph.set_defaults(func=_cmd_hyper)

    pb = sub.add_parser("bounds", help="evaluate the edge lower bounds")
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--p", type=int, required=True)
    pb.add_argument("--t", type=int)
    pb.add_argument("--r", type=int)
    pb.set_defaults(func=_cmd_bounds)

    pt = sub.add_parser("table", help="render a grid from search result JSON lines")
    pt.add_argument("--input", help="results file (default stdin)")
    pt.set_defaults(func=_cmd_table)

    return parser


# error class -> (stderr kind, or None for none; exit code); first match wins
_EXITS = {
    _UsageError: ("usage", 2),
    Graph6Error: ("graph6", 2),
    ParseError: ("parse", 2),
    DomainError: ("domain", 2),
    VerificationError: ("verification", 1),
    FatalInconsistencyError: ("fatal-inconsistency", 1),
    BrokenPipeError: (None, 0),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except tuple(_EXITS) as exc:
        kind, code = next(v for cls, v in _EXITS.items() if isinstance(exc, cls))
        if kind is not None:
            print(json.dumps({"error": kind, "detail": str(exc)}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
