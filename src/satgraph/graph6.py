"""Bit-exact graph6 encoding and decoding, and the triangle layout it uses.

graph6 is the line-oriented interchange format used by exhaustive graph
generation tools: a length header followed by the upper triangle of the
adjacency matrix in column order, six bits per printable character
(values 63..126).  Supported range here is 0 <= n < 2**18.

Only `triangle_bits` and `triangle_masks` know the layout: pair (j, k),
j < k, is bit C(k,2)+j, so column k is vertex k's mask below k shifted by
C(k,2).  `canon` packs the same bit string, read most-significant-first.
"""
from __future__ import annotations

from typing import Sequence

from .errors import DomainError, Graph6Error
from .graphs import Graph, iter_bits

__all__ = ["encode", "decode", "triangle_bits", "triangle_masks", "Graph6Error"]

_HEADER = ">>graph6<<"
_CHAR = {format(v, "06b"): chr(63 + v) for v in range(64)}
_BITS = {c: b for b, c in _CHAR.items()}


def triangle_bits(adj: Sequence[int], width: int) -> str:
    """The upper triangle of the adjacency masks `adj` as a '0'/'1' string
    in pair order, zero-padded to `width` >= C(n,2) characters."""
    t = 0
    for k in range(1, len(adj)):
        t |= (adj[k] & ((1 << k) - 1)) << (k * (k - 1) // 2)
    # the extra top bit fixes the width, also at width 0; [:0:-1] drops it
    return format(t | 1 << width, "b")[:0:-1]


def triangle_masks(n: int, bits: str) -> list[int]:
    """Adjacency masks from a pair-order '0'/'1' string; characters past
    C(n,2) are ignored."""
    t = int(bits[::-1] or "0", 2)
    masks = [0] * n
    for k in range(1, n):
        masks[k] = t >> (k * (k - 1) // 2) & ((1 << k) - 1)
        for j in iter_bits(masks[k]):
            masks[j] |= 1 << k
    return masks


def encode(g: Graph) -> str:
    """Encode a graph as a graph6 string (no trailing newline)."""
    n = g.n
    if n >= 1 << 18:
        raise DomainError(f"graph6 encoding supported for n < 2**18, got {n}")
    npairs = n * (n - 1) // 2
    prefix, head = ("", format(n, "06b")) if n <= 62 else ("~", format(n, "018b"))
    bits = head + triangle_bits(g.masks(), npairs + -npairs % 6)
    return prefix + "".join([_CHAR[bits[i:i + 6]] for i in range(0, len(bits), 6)])


def _bits(s: str, lo: int, hi: int, base: int) -> str:
    """The six bits of each character of s[lo:hi], in order."""
    try:
        return "".join([_BITS[c] for c in s[lo:hi]])
    except KeyError:
        i = next(i for i in range(lo, hi) if s[i] not in _BITS)
        raise Graph6Error(f"character {s[i]!r} outside graph6 range", base + i) from None


def decode(text: str) -> Graph:
    """Decode one graph6 line.  Errors carry the byte offset of the fault."""
    s = text.rstrip("\r\n")
    base = len(_HEADER) if s.startswith(_HEADER) else 0
    s = s[base:]
    if not s:
        raise Graph6Error("empty graph6 input", base)
    lo, body = (1, 4) if s[0] == "~" else (0, 1)
    if lo:
        if s[1:2] == "~":
            raise Graph6Error("n >= 2**18 not supported", base)
        if len(s) < 4:
            raise Graph6Error("truncated vertex-count header", base + len(s))
    n = int(_bits(s, lo, body, base), 2)

    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    have = len(s) - body
    if have < need:
        raise Graph6Error(f"truncated: need {need} data characters, got {have}", base + len(s))
    if have > need:
        raise Graph6Error(f"trailing data beyond {need} data characters", base + body + need)
    bits = _bits(s, body, len(s), base)
    # padding, fewer than six bits, lies in the last character
    if "1" in bits[npairs:]:
        raise Graph6Error("nonzero padding bits", base + len(s) - 1)
    return Graph._unchecked(n, triangle_masks(n, bits))
