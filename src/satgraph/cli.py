"""Command-line front end: construct, verify, certify, search, hyper, bounds, table.

One graph per line on streams; JSON reports are newline-delimited.  Exit
codes: 0 success, 1 verification-negative, 2 usage error, 3 resource
limit.  Every error also writes a one-line JSON reason to stderr.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from typing import Optional, Sequence

from . import constructions as cons
from .closure import certify as certify_run
from .errors import (
    DomainError,
    FatalInconsistencyError,
    Graph6Error,
    ParseError,
    VerificationError,
)
from .graph6 import decode, encode
from .hypergraphs import to_text
from .hypersat import (
    bollobas_extremal,
    greedy_complete,
    saturated_hypergraph,
    sidorenko_base,
)
from .search import SearchProblem, enumerate_extremal, exact_sat, exact_semi_sat
from .verify import (
    bollobas_bound,
    check_bounds,
    closure_tower_bound,
    dh_semi_bound,
    ehm_bound,
    semi_sat_lower_bound,
    semi_sat_upper_bound,
)

__all__ = ["main"]


def _err(kind: str, detail: str) -> None:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _err("usage", message)
        self.exit(2)


def _read_lines(path: Optional[str]) -> list[str]:
    if path in (None, "-"):
        return [ln.strip() for ln in sys.stdin if ln.strip()]
    with open(path) as fh:
        return [ln.strip() for ln in fh if ln.strip()]


def _need(args, label: str, *names: str) -> None:
    missing = [f"--{x}" for x in names if getattr(args, x) is None]
    if missing:
        raise DomainError(f"{label} requires {', '.join(missing)}")


def _build_construction(a):
    name = a.name
    extra = {}
    if name == "ehm":
        _need(a, name, "n", "p")
        g = cons.ehm_extremal(a.n, a.p)
    elif name == "bipartite":
        _need(a, name, "n", "t")
        g = cons.complete_bipartite(a.t, a.n)
    elif name == "clique-join":
        _need(a, name, "n", "p", "t")
        g = cons.clique_join_bipartite(a.n, a.p, a.t)
    elif name == "duffus-hanson":
        _need(a, name, "n")
        g = cons.duffus_hanson_t2(a.n)
    elif name == "petersen":
        g = cons.petersen()
    elif name == "split-family":
        _need(a, name, "n", "t")
        g, layout = cons.split_family(a.t, a.n)
        extra["layout"] = layout.to_json()
    elif name == "f-graph":
        _need(a, name, "n", "t")
        g = cons.f_graph(a.n, a.t)
    elif name == "semi-sat":
        _need(a, name, "n", "p", "t")
        g = cons.semi_sat(a.n, a.p, a.t)
    elif name == "cone":
        g = cons.cone(_read_one_graph(a.input))
    elif name == "duplicate":
        _need(a, name, "vertex")
        g = cons.duplicate_vertex(_read_one_graph(a.input), a.vertex)
    else:
        raise DomainError(f"unknown construction {name!r}")
    return g, extra


def _read_one_graph(path: Optional[str]):
    lines = _read_lines(path)
    if len(lines) != 1:
        raise DomainError(f"expected exactly one graph6 line, got {len(lines)}")
    return decode(lines[0])


def _cmd_construct(a) -> int:
    g, extra = _build_construction(a)
    if a.format in ("graph6", "both"):
        print(encode(g))
    if a.format in ("json", "both"):
        payload = {
            "name": a.name,
            "graph6": encode(g),
            "n": g.n,
            "edges": g.edge_count(),
            "min_degree": g.min_degree(),
        }
        payload.update(extra)
        print(json.dumps(payload))
    return 0


def _verify_line(job):
    text, p, t, semi = job
    rep = check_bounds(decode(text), p, t)
    ok = rep.semi_saturated if semi else rep.saturated
    return ok, json.dumps(rep.to_json())


def _cmd_verify(a) -> int:
    jobs = [(line, a.p, a.t, a.semi) for line in _read_lines(a.input)]
    if a.threads > 1 and len(jobs) > 1:
        # about four chunks per worker: one task per line costs more in
        # pickling and queueing than a small line takes to check
        chunk = -(-len(jobs) // (4 * a.threads))
        with ProcessPoolExecutor(max_workers=a.threads) as pool:
            results = list(pool.map(_verify_line, jobs, chunksize=chunk))
    else:
        results = [_verify_line(job) for job in jobs]
    failed = False
    for ok, payload in results:
        print(payload)
        failed = failed or not ok
    return 1 if failed else 0


def _parse_seed(spec: str, t: int) -> tuple[int, ...]:
    if spec == "0":
        return (0,)
    if spec == "t1":
        return tuple(range(t + 1))
    try:
        return tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise DomainError(f"bad --r0 {spec!r}; use '0', 't1', or comma-separated vertices")


def _cmd_certify(a) -> int:
    seed = _parse_seed(a.r0, a.t)
    for line in _read_lines(a.input):
        cert = certify_run(decode(line), a.p, a.t, seed)
        print(json.dumps(cert.to_json()))
    return 0


def _cmd_search(a) -> int:
    problem = SearchProblem(
        n=a.n, p=a.p, t=a.t, mode=a.mode,
        edge_budget=a.edge_budget,
        node_budget=a.node_budget,
        time_budget=a.time_budget,
        iso_reject=not a.no_iso_reject,
        max_n=a.max_n,
    )
    if a.enumerate:
        result = enumerate_extremal(problem)
    elif a.mode == "semi":
        result = exact_semi_sat(problem)
    else:
        result = exact_sat(problem)
    payload = json.dumps(result.to_json())
    print(payload)
    if a.out:
        with open(a.out, "a") as fh:
            fh.write(payload + "\n")
    return 3 if result.status == "resource-limit" else 0


def _cmd_hyper(a) -> int:
    label = f"hyper {a.kind}"
    if a.kind == "base":
        _need(a, label, "r", "t", "n")
        h, part = sidorenko_base(a.r, a.t, a.n)
        meta = {"partition": part.to_json(), "edges": h.edge_count()}
    elif a.kind == "complete":
        _need(a, label, "r", "t", "n", "p")
        base, part = sidorenko_base(a.r, a.t, a.n)
        h = greedy_complete(base, a.p)
        meta = {"partition": part.to_json(), "edges": h.edge_count()}
    elif a.kind == "saturated":
        _need(a, label, "r", "t", "n", "p")
        h = saturated_hypergraph(a.r, a.p, a.t, a.n)
        meta = {
            "edges": h.edge_count(),
            "universal": list(range(a.n - max(a.p - a.r - 1, 0), a.n)),
        }
    elif a.kind == "bollobas":
        _need(a, label, "r", "n", "p")
        h = bollobas_extremal(a.n, a.r, a.p)
        meta = {"edges": h.edge_count(), "core": list(range(a.p - a.r))}
    else:
        raise DomainError(f"unknown hyper kind {a.kind!r}")
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
    rows = [json.loads(line) for line in _read_lines(a.input)]
    grids: dict[tuple[str, int], dict[tuple[int, int], str]] = {}
    for row in rows:
        prob = row["problem"]
        value = row["value"]
        cell = {"infeasible": "-", "resource-limit": "?"}.get(value, str(value))
        grids.setdefault((prob["mode"], prob["p"]), {})[(prob["t"], prob["n"])] = cell
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="satgraph", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    pc = sub.add_parser("construct", help="build a named graph and print it")
    pc.add_argument("name", choices=[
        "ehm", "bipartite", "clique-join", "duffus-hanson", "petersen",
        "split-family", "f-graph", "semi-sat", "cone", "duplicate",
    ])
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
    pv.add_argument("--threads", type=int, default=os.cpu_count() or 1)
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
    ps.add_argument("--mode", choices=["sat", "sat-exact", "semi"], default="sat")
    ps.add_argument("--enumerate", action="store_true",
                    help="list all optimal graphs up to isomorphism (n <= 9)")
    ps.add_argument("--edge-budget", type=int)
    ps.add_argument("--node-budget", type=int,
                    default=int(os.environ.get("SATGRAPH_NODE_BUDGET", 10**9)))
    ps.add_argument("--time-budget", type=float,
                    default=float(os.environ.get("SATGRAPH_TIME_BUDGET", 600.0)))
    ps.add_argument("--no-iso-reject", action="store_true")
    ps.add_argument("--max-n", type=int, default=10)
    ps.add_argument("--out", help="append the result JSON to this file")
    ps.set_defaults(func=_cmd_search)

    ph = sub.add_parser("hyper", help="hypergraph constructions")
    ph.add_argument("kind", choices=["base", "complete", "saturated", "bollobas"])
    ph.add_argument("--r", type=int)
    ph.add_argument("--p", type=int)
    ph.add_argument("--t", type=int)
    ph.add_argument("--n", type=int)
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Graph6Error as exc:
        _err("graph6", str(exc))
        return 2
    except ParseError as exc:
        _err("parse", str(exc))
        return 2
    except DomainError as exc:
        _err("domain", str(exc))
        return 2
    except VerificationError as exc:
        _err("verification", str(exc))
        return 1
    except FatalInconsistencyError as exc:
        _err("fatal-inconsistency", str(exc))
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
