"""Workload definitions: the CLI calls each workload makes, the inputs a
seed generates for them, and the answers frozen for checking.

A call is a dict with the stage it belongs to, its argv, the text it reads
on stdin, the number of checked operations it makes, and what the check
needs to know.  Only ``generate`` imports the package (for the named
constructions), so its cost lands in set-up time.
"""
from __future__ import annotations

import random

import oracle

WORKLOADS = ("search-deepening", "search-single-level", "stream")
SIZES = ("full", "small")

# (argv, value, witness) per workload and size.  The values and witnesses
# are the proven optima; a faster search must reproduce them exactly.
SEARCH = {
    ("search-deepening", "full"): (["search", "--n", "9", "--p", "3", "--t", "2"], 13, "H???Nv{"),
    ("search-deepening", "small"): (["search", "--n", "7", "--p", "3", "--t", "2"], 9, "F?Fn_"),
    ("search-single-level", "full"): (
        ["search", "--n", "10", "--p", "4", "--t", "5", "--mode", "semi"], 25, "IBYlmZR}?"),
    ("search-single-level", "small"): (
        ["search", "--n", "8", "--p", "4", "--t", "5", "--mode", "semi"], 20, "GFznno"),
}

# Stage (a): random small graphs, judged for K_3-saturation as geng output would be.
SMALL_P, SMALL_T = 3, 2
SMALL_N = (7, 11)
SMALL_LINES = {"full": 10_000, "small": 200}
# Share of small lines drawn as maximal triangle-free graphs (positives).
SMALL_POSITIVE_SHARE = 0.02

# Stages (b) and (c): saturated constructions as (builder, args, p, t).
# Fixed sizes keep the cost of a run independent of the seed; the seed
# only relabels the vertices.
LARGE = {
    "full": [
        ("duffus_hanson_t2", (400,), 3, 2),
        ("complete_bipartite", (2, 350), 3, 2),
        ("complete_bipartite", (3, 400), 3, 3),
        ("split_family", (4, 300), 3, 4),
        ("split_family", (5, 200), 3, 5),
        ("ehm_extremal", (400, 4), 4, 2),
        ("cone_duffus_hanson", (250,), 4, 3),
        ("clique_join_bipartite", (300, 4, 5), 4, 5),
        ("ehm_extremal", (300, 5), 5, 3),
        ("clique_join_bipartite", (200, 5, 6), 5, 6),
    ],
    "small": [
        ("duffus_hanson_t2", (40,), 3, 2),
        ("clique_join_bipartite", (30, 4, 5), 4, 5),
    ],
}

# Stage (d): `hyper saturated` points (r, p, t, n) and their edge counts,
# frozen from the construction as first committed.
HYPER = {
    (2, 3, 2, 60): 116,
    (2, 3, 3, 40): 111,
    (2, 3, 4, 60): 224,
    (2, 4, 5, 40): 179,
    (3, 4, 2, 12): 98,
    (3, 4, 2, 16): 194,
    (3, 4, 2, 20): 322,
    (3, 4, 2, 22): 398,
    (3, 4, 3, 16): 264,
    (3, 4, 3, 20): 450,
    (3, 4, 4, 16): 312,
    (3, 4, 5, 20): 625,
    (3, 5, 2, 20): 324,
    (3, 5, 3, 16): 272,
    (3, 5, 4, 20): 570,
    (3, 6, 4, 16): 338,
    (4, 5, 2, 13): 380,
    (4, 5, 2, 16): 814,
    (4, 5, 2, 17): 1010,
    (4, 5, 3, 14): 629,
    (4, 5, 3, 16): 1063,
    (4, 6, 2, 16): 819,
    (4, 6, 3, 14): 666,
    (5, 6, 2, 12): 526,
    (5, 6, 2, 14): 1196,
}
HYPER_POINTS = {"full": sorted(HYPER), "small": [(3, 4, 2, 12), (2, 3, 3, 40), (4, 5, 2, 13)]}


def _random_small(rng: random.Random) -> str:
    n = rng.randint(*SMALL_N)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if rng.random() >= SMALL_POSITIVE_SHARE:
        q = rng.uniform(0.2, 0.6)
        return oracle.encode(n, [e for e in pairs if rng.random() < q])
    # random greedy triangle-free process: ends maximal triangle-free
    rng.shuffle(pairs)
    nbrs = [set() for _ in range(n)]
    for u, v in pairs:
        if not nbrs[u] & nbrs[v]:
            nbrs[u].add(v)
            nbrs[v].add(u)
    return oracle.encode(n, [(u, v) for u in range(n) for v in nbrs[u] if u < v])


def _construction(name: str, args: tuple):
    from satgraph import constructions as cons

    if name == "cone_duffus_hanson":
        return cons.cone(cons.duffus_hanson_t2(*args))
    g = getattr(cons, name)(*args)
    return g[0] if isinstance(g, tuple) else g


def _relabelled(g, rng: random.Random) -> str:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return oracle.encode(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _stream_calls(seed: int, size: str, threads: int | None) -> tuple[list[dict], dict]:
    rng = random.Random(seed)
    small = [_random_small(rng) for _ in range(SMALL_LINES[size])]
    pin = [] if threads is None else ["--threads", str(threads)]
    calls = [{
        "stage": "verify_small",
        "argv": ["verify", "--p", str(SMALL_P), "--t", str(SMALL_T)] + pin,
        "stdin": "".join(line + "\n" for line in small),
        "ops": len(small),
        "lines": small,
        "p": SMALL_P,
    }]
    groups: dict[tuple[int, int], list[str]] = {}
    large_n = []
    for name, args, p, t in LARGE[size]:
        g = _construction(name, args)
        large_n.append(g.n)
        groups.setdefault((p, t), []).append(_relabelled(g, rng))
    for stage, cmd in (("verify_large", "verify"), ("certify", "certify")):
        for (p, t), lines in groups.items():
            argv = [cmd, "--p", str(p), "--t", str(t)] + (pin if cmd == "verify" else [])
            calls.append({
                "stage": stage, "argv": argv,
                "stdin": "".join(line + "\n" for line in lines),
                "ops": len(lines), "lines": lines, "p": p,
            })
    points = list(HYPER_POINTS[size])
    rng.shuffle(points)
    for point in points:
        r, p, t, n = point
        calls.append({
            "stage": "hyper",
            "argv": ["hyper", "saturated", "--r", str(r), "--p", str(p),
                     "--t", str(t), "--n", str(n), "--json"],
            "stdin": "", "ops": 1, "point": list(point),
        })
    sizes = {
        "small_lines": len(small),
        "small_n": list(SMALL_N),
        "large_n": large_n,
        "hyper_points": len(points),
    }
    return calls, sizes


def generate(workload: str, seed: int, size: str, threads: int | None = None) -> tuple[list[dict], dict]:
    """The calls of one repetition and a summary of their input sizes.

    `threads` pins `verify --threads`; None leaves the CLI default.
    """
    if workload == "stream":
        return _stream_calls(seed, size, threads)
    argv, _, _ = SEARCH[(workload, size)]
    return [{"stage": "search", "argv": list(argv), "stdin": "", "ops": 1}], {"argv": argv}
