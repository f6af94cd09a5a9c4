"""Bit-exact graph6 encoding and decoding, and the triangle layout it uses.

graph6 is the line-oriented interchange format used by exhaustive graph
generation tools: a length header followed by the upper triangle of the
adjacency matrix in column order, six bits per printable character
(values 63..126).  Supported range here is 0 <= n < 2**18.

Only `triangle_bits` and `triangle_masks` know the layout: pair (j, k),
j < k, is bit C(k,2)+j of one integer, so column k is vertex k's mask
below k shifted by C(k,2).  `canon` packs the same pairs, read
most-significant-first.  Data characters are base64 in another alphabet:
`binascii` packs them, and reversing each byte's bits gives that integer.
`decode` keeps on the graph a line that is already in `encode`'s form
(the short size form exactly when n <= 62), and `encode` returns it.
"""
from __future__ import annotations

from binascii import a2b_base64, b2a_base64
from typing import Sequence

from .errors import DomainError, Graph6Error
from .graphs import Graph

__all__ = ["encode", "decode", "triangle_bits", "triangle_masks", "Graph6Error"]

_HEADER = ">>graph6<<"
_G6 = bytes(range(63, 127))
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_B64, _FROM_B64 = bytes.maketrans(_G6, _B64), bytes.maketrans(_B64, _G6)
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def triangle_bits(adj: Sequence[int]) -> int:
    """The upper triangle of the adjacency masks `adj` as one pair-order integer."""
    t = 0
    for k in range(len(adj) - 1, 0, -1):
        t = t << k | adj[k] & ((1 << k) - 1)
    return t


def triangle_masks(n: int, t: int) -> list[int]:
    """Adjacency masks from a pair-order integer; bits past C(n,2) are ignored."""
    masks = [0] * n
    for k in range(1, n):
        col = t & ((1 << k) - 1)
        t >>= k
        masks[k] = col
        bit = 1 << k
        while col:
            low = col & -col
            masks[low.bit_length() - 1] |= bit
            col ^= low
    return masks


def encode(g: Graph) -> str:
    """Encode a graph as a graph6 string (no trailing newline)."""
    if g._g6 is not None:
        return g._g6
    n = g.n
    if n >= 1 << 18:
        raise DomainError(f"graph6 encoding supported for n < 2**18, got {n}")
    size = (n * (n - 1) // 2 + 5) // 6
    raw = triangle_bits(g.masks()).to_bytes((6 * size + 7) // 8, "little").translate(_REVERSED)
    head = chr(63 + n) if n <= 62 else "~" + "".join([chr(63 + (n >> s & 63)) for s in (12, 6, 0)])
    return head + b2a_base64(raw, newline=False)[:size].translate(_FROM_B64).decode()


def _chars(s: str, lo: int, hi: int, base: int) -> bytes:
    """s[lo:hi] as bytes, each checked to be a graph6 character."""
    b = s[lo:hi].encode("utf-8", "surrogatepass")  # past ASCII: bytes >= 128
    if b.translate(None, _G6):
        i = next(i for i in range(lo, hi) if not "?" <= s[i] <= "~")
        raise Graph6Error(f"character {s[i]!r} outside graph6 range", base + i)
    return b


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
    n = 0
    for c in _chars(s, lo, body, base):
        n = n << 6 | c - 63

    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    have = len(s) - body
    if have < need:
        raise Graph6Error(f"truncated: need {need} data characters, got {have}", base + len(s))
    if have > need:
        raise Graph6Error(f"trailing data beyond {need} data characters", base + body + need)
    data = _chars(s, body, len(s), base).translate(_TO_B64) + b"A" * (-need % 4)
    t = int.from_bytes(a2b_base64(data).translate(_REVERSED), "little")
    # padding, fewer than six bits, lies in the last character
    if t >> npairs:
        raise Graph6Error("nonzero padding bits", base + len(s) - 1)
    # with the size in its short form exactly when n <= 62, s is `encode`'s line
    return Graph._unchecked(n, triangle_masks(n, t), s if bool(lo) == (n > 62) else None)
