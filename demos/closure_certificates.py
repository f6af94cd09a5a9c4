"""Closure-engine walkthrough: grow a seed set until no vertex outside its
closure is light, then read off the edge lower bound t(n - |R*|).

Each refinement step is printed as recorded in the certificate: the bad
vertices, the antichain of their neighbourhood traces inside the seed, the
chosen representatives, and the vertices pulled in.  At the end
`verify_certificate` replays the certificate; it re-runs the engine's own
`refine`, so it is a consistency check, not an independent one.  The
independent check re-derives every step from the definitions alone:
`certificate_problem` in tests/oracles.py.

Run:  python3 demos/closure_certificates.py
"""
from __future__ import annotations

from satgraph.closure import certify, lym_check, verify_certificate
from satgraph.constructions import (
    clique_join_bipartite,
    complete_bipartite,
    duffus_hanson_t2,
    petersen,
    split_family,
)


def walk(name: str, g, p: int, t: int) -> None:
    cert = certify(g, p, t)
    print(f"{name}: n={g.n}, e={g.edge_count()}, p={p}, t={t}")
    for i, rec in enumerate(cert.steps, start=1):
        lym = lym_check([frozenset(tr) for tr in rec.traces], len(rec.r_before))
        print(f"  step {i}: |R|={len(rec.r_before)}  bad={len(rec.bad)}"
              f"  traces={list(map(list, rec.traces))}"
              f"  lym_sum={lym.lym_sum}  pulled xs={list(rec.xs)}"
              f"  -> |R'|={len(rec.r_after)}")
    print(f"  stabilized after {cert.iterations} steps (limit {2 * t * t});"
          f" R* has {len(cert.r_star)} vertices")
    print(f"  bound t(n - |R*|) = {cert.bound} <= e(G) = {cert.edges};"
          f" replay: {verify_certificate(cert, g)}\n")


def main() -> None:
    walk("complete_bipartite(3, 30)", complete_bipartite(3, 30), 3, 3)
    walk("petersen()", petersen(), 3, 3)
    walk("split_family(4, 20)", split_family(4, 20)[0], 3, 4)
    walk("clique_join_bipartite(12, 4, 3)", clique_join_bipartite(12, 4, 3), 4, 3)
    walk("duffus_hanson_t2(9)", duffus_hanson_t2(9), 3, 2)


if __name__ == "__main__":
    main()
