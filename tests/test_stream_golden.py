"""Byte-for-byte pins of the stream commands: `verify`, `certify` and
`hyper saturated --json`.

The inputs are seeded here and written by this module's own graph6
encoder, so the pins do not move with the package's codec.  Each stage's
digest is sha256 over the (exit code, stdout, stderr) of its calls, in
order; a change to any byte of any report, certificate, hypergraph or
error message moves it.  The digests were recorded on the code as it
stood before the per-line costs of these commands were cut.
"""
from __future__ import annotations

import hashlib
import os
import random
from itertools import combinations

import pytest

from satgraph import constructions as cons

from test_cli import run


def _g6(n: int, edges) -> str:
    """graph6 of an n-vertex graph given as (u, v) pairs."""
    es = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(j, k) in es for k in range(1, n) for j in range(k)]
    bits += [False] * (-len(bits) % 6)
    head = [n] if n <= 62 else [63, n >> 12, n >> 6 & 63, n & 63]
    vals = head + [sum(b << (5 - i) for i, b in enumerate(bits[s:s + 6]))
                   for s in range(0, len(bits), 6)]
    return "".join(chr(63 + v) for v in vals)


def _random_small(rng: random.Random) -> str:
    """A 7-11-vertex line: mostly random density, sometimes a maximal
    triangle-free graph from the random greedy process."""
    n = rng.randint(7, 11)
    pairs = list(combinations(range(n), 2))
    if rng.random() < 0.9:
        q = rng.uniform(0.2, 0.6)
        return _g6(n, [e for e in pairs if rng.random() < q])
    rng.shuffle(pairs)
    nbrs = [set() for _ in range(n)]
    for u, v in pairs:
        if not nbrs[u] & nbrs[v]:
            nbrs[u].add(v)
            nbrs[v].add(u)
    return _g6(n, [(u, v) for u in range(n) for v in nbrs[u] if u < v])


def _relabelled(g, rng: random.Random) -> str:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return _g6(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _corrupt(line: str, rng: random.Random) -> str:
    """A malformed variant: a character out of range, a padding bit set,
    a character dropped or added."""
    i = rng.randrange(len(line))
    kind = rng.randrange(4)
    if kind == 0:
        return line[:i] + rng.choice("\x01 >~\x7fé") + line[i + 1:]
    if kind == 1:
        return line[:-1] + chr(63 + (ord(line[-1]) - 63 | 1))
    if kind == 2:
        return line[:i] + line[i + 1:]
    return line + rng.choice("?~")


# (p, t, builder) per relabelled construction, small and full size
_LARGE = {
    "small": [
        (3, 2, lambda: cons.duffus_hanson_t2(40)),
        (3, 3, lambda: cons.complete_bipartite(3, 70)),
        (3, 4, lambda: cons.split_family(4, 36)[0]),
        (4, 3, lambda: cons.cone(cons.duffus_hanson_t2(25))),
        (4, 5, lambda: cons.clique_join_bipartite(30, 4, 5)),
        (5, 3, lambda: cons.ehm_extremal(30, 5)),
    ],
    "full": [
        (3, 2, lambda: cons.duffus_hanson_t2(400)),
        (3, 2, lambda: cons.complete_bipartite(2, 350)),
        (3, 3, lambda: cons.complete_bipartite(3, 400)),
        (3, 4, lambda: cons.split_family(4, 300)[0]),
        (3, 5, lambda: cons.split_family(5, 200)[0]),
        (4, 2, lambda: cons.ehm_extremal(400, 4)),
        (4, 3, lambda: cons.cone(cons.duffus_hanson_t2(250))),
        (4, 5, lambda: cons.clique_join_bipartite(300, 4, 5)),
        (5, 3, lambda: cons.ehm_extremal(300, 5)),
        (5, 6, lambda: cons.clique_join_bipartite(200, 5, 6)),
    ],
}

# `hyper saturated` points (r, p, t, n)
_HYPER = {
    "small": [(2, 3, 2, 30), (2, 4, 5, 20), (3, 4, 2, 12), (3, 5, 3, 12), (4, 5, 2, 11)],
    "full": [
        (2, 3, 2, 60), (2, 3, 3, 40), (2, 3, 4, 60), (2, 4, 5, 40), (3, 4, 2, 12),
        (3, 4, 2, 16), (3, 4, 2, 20), (3, 4, 2, 22), (3, 4, 3, 16), (3, 4, 3, 20),
        (3, 4, 4, 16), (3, 4, 5, 20), (3, 5, 2, 20), (3, 5, 3, 16), (3, 5, 4, 20),
        (3, 6, 4, 16), (4, 5, 2, 13), (4, 5, 2, 16), (4, 5, 2, 17), (4, 5, 3, 14),
        (4, 5, 3, 16), (4, 6, 2, 16), (4, 6, 3, 14), (5, 6, 2, 12), (5, 6, 2, 14),
    ],
}


def _calls(seed: int, size: str, small_lines: int) -> dict[str, list[tuple[list[str], str]]]:
    """Stage -> the (argv, stdin) of its calls."""
    rng = random.Random(seed)
    small = [_random_small(rng) for _ in range(small_lines)]
    # the header form and a line ending are read as the plain line
    small[1] = ">>graph6<<" + small[1]
    small[2] += "\r"
    text = "".join(line + "\n" for line in small)
    one = ["--threads", "1"]
    stages: dict[str, list[tuple[list[str], str]]] = {
        "verify_small": [
            (["verify", "--p", "3", "--t", "2"] + one, text),
            (["verify", "--p", "4", "--t", "3", "--semi"] + one, text),
            (["verify", "--p", "3"] + one, text),
        ],
    }
    groups: dict[tuple[int, int], list[str]] = {}
    for p, t, build in _LARGE[size]:
        groups.setdefault((p, t), []).append(_relabelled(build(), rng))
    # a long-form line under the header: its subject is the plain re-encoding
    line = groups[(3, 3)][0]
    groups[(3, 3)][0] = ">>graph6<<" + line
    stages["verify_large"] = [
        (["verify", "--p", str(p), "--t", str(t)] + one, "".join(x + "\n" for x in lines))
        for (p, t), lines in groups.items()]
    stages["certify"] = [
        (["certify", "--p", str(p), "--t", str(t)], "".join(x + "\n" for x in lines))
        for (p, t), lines in groups.items()]
    stages["certify"] += [
        (["certify", "--p", "3", "--t", "2", "--r0", "t1"], line + "\n" + small[0] + "\n"),
        (["certify", "--p", "3", "--t", "2"], small[3] + "\n"),
    ]
    stages["hyper"] = [
        (["hyper", "saturated", "--r", str(r), "--p", str(p), "--t", str(t),
          "--n", str(n), "--json"], "")
        for r, p, t, n in _HYPER[size]]
    stages["errors"] = [
        (["verify", "--p", "3", "--t", "2"] + one, _corrupt(rng.choice(small[3:]), rng) + "\n")
        for _ in range(40)]
    stages["errors"] += [
        (["verify", "--p", "3", "--t", "2"] + one, _corrupt(x, rng) + "\n")
        for x in groups[(4, 3)] + groups[(3, 2)]]
    stages["errors"] += [
        (["verify", "--p", "3"] + one, x + "\n")
        for x in (">>graph6<<", "~?", "~~??????", "~??~" + "?" * 9, "~?@~" + "~" * 53, "?", "@")]
    return stages


def _digests(seed: int, size: str, small_lines: int) -> dict[str, str]:
    out = {}
    for stage, calls in _calls(seed, size, small_lines).items():
        sha = hashlib.sha256()
        for argv, stdin in calls:
            code, stdout, stderr = run(argv, stdin=stdin)
            sha.update(f"{code}\0{stdout}\0{stderr}\0".encode("utf-8", "surrogateescape"))
        out[stage] = sha.hexdigest()[:32]
    return out


def test_stream_outputs_are_pinned():
    assert _digests(1, "small", 300) == {
        "verify_small": "b5acd92b95756df3b53a13de1ab92868",
        "verify_large": "5a8d98a8edc01a7ccc7e889b9c5f01d1",
        "certify": "e709539b5603b1c10ecceb3bc6eaa122",
        "hyper": "0045db2c38f3a66b06febdcde766c2ec",
        "errors": "52f26edc6f294511f01ce55b37828db4",
    }


@pytest.mark.skipif(
    not os.environ.get("SATGRAPH_LONG_TESTS"),
    reason="the full-size stream, about 4 s; set SATGRAPH_LONG_TESTS=1",
)
def test_full_stream_outputs_are_pinned():
    assert _digests(2, "full", 10_000) == {
        "verify_small": "5c97dceedc0eb7cabec7bb954ddb9b1c",
        "verify_large": "1e38ee9f98abeb50bcf78492a2539a9a",
        "certify": "227a9a6377b4618a1a09e823dae2b01c",
        "hyper": "288b9858614e981dfaf5784a1486bf78",
        "errors": "205958183be85ee7128a2f0500d61919",
    }
