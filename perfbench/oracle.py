"""Reference graph6 codec and a definitional saturation checker.

Shares no code with the package it judges: it neither imports
``satgraph.graph6`` nor ``satgraph.verify``.  The decoder and the checker
are written for the small graphs of the stream workload (n <= 62, so a
one-byte header); the encoder also writes the large inputs.
"""
from __future__ import annotations

from itertools import combinations


def encode(n: int, edges) -> str:
    """graph6 of an n-vertex graph (n < 2**18) given as (u, v) pairs."""
    if not 0 <= n < 1 << 18:
        raise ValueError(f"graph6 needs 0 <= n < 2**18, got {n}")
    es = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [1 if (j, k) in es else 0 for k in range(1, n) for j in range(k)]
    bits += [0] * (-len(bits) % 6)
    if n <= 62:
        chars = [chr(63 + n)]
    else:
        chars = ["~"] + [chr(63 + (n >> s & 63)) for s in (12, 6, 0)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i:i + 6]:
            val = val << 1 | b
        chars.append(chr(63 + val))
    return "".join(chars)


def decode(text: str) -> tuple[int, set[tuple[int, int]]]:
    """(n, edge set) of a one-byte-header graph6 line."""
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"reference decoder handles n <= 62, got {text!r}")
    bits = []
    for ch in text[1:]:
        val = ord(ch) - 63
        bits.extend(val >> s & 1 for s in range(5, -1, -1))
    pairs = [(j, k) for k in range(1, n) for j in range(k)]
    if len(text) - 1 != (len(pairs) + 5) // 6:
        raise ValueError(f"graph6 length does not match n = {n}: {text!r}")
    return n, {pair for pair, bit in zip(pairs, bits) if bit}


def is_saturated(n: int, edges: set[tuple[int, int]], p: int) -> bool:
    """K_p-free, and adding any missing edge completes a K_p: checked
    straight from the definition by enumerating vertex subsets."""
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)

    def clique(vs) -> bool:
        return all(b in nbrs[a] for a, b in combinations(vs, 2))

    if any(clique(vs) for vs in combinations(range(n), p)):
        return False
    for u, v in combinations(range(n), 2):
        if v in nbrs[u]:
            continue
        common = sorted(nbrs[u] & nbrs[v])
        if not any(clique(vs) for vs in combinations(common, p - 2)):
            return False
    return True
