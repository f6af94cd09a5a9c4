"""Tests for the graph6 encoder and decoder."""
from __future__ import annotations

import random
import tracemalloc
from itertools import combinations

import pytest

from hypothesis import given, strategies as st

from satgraph.errors import Graph6Error
from satgraph.graph6 import decode, encode
from satgraph.graphs import Graph

from test_graphs import graphs

networkx = pytest.importorskip("networkx")


def test_known_encodings():
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert encode(c5) == "Dhc"
    assert encode(Graph(4, combinations(range(4), 2))) == "C~"
    assert encode(Graph(0)) == "?"
    assert encode(Graph(1)) == "@"
    assert encode(Graph(2, [(0, 1)])) == "A_"


def test_known_decodings():
    g = decode("DUW")
    assert g.n == 5 and g.edge_count() == 5
    assert sorted(g.degree(v) for v in range(5)) == [2, 2, 2, 2, 2]
    assert decode("C~").edge_count() == 6
    assert decode("?").n == 0


def test_decode_accepts_header_prefix():
    assert decode(">>graph6<<Dhc") == decode("Dhc")


def test_decode_errors_carry_offsets():
    cases = [
        ("", "empty graph6 input", 0),
        ("D?", "truncated: need 2 data characters, got 1", 2),
        ("D~\x01", "character '\\x01' outside graph6 range", 2),
        ("~?", "truncated vertex-count header", 2),
        ("D??x", "trailing data beyond 2 data characters", 3),
        ("Dhd", "nonzero padding bits", 2),
        ("Dhe", "nonzero padding bits", 2),
        ("~~??????", "n >= 2**18 not supported", 0),
        ("~??~" + "?" * 9, "truncated: need 326 data characters, got 9", 13),
    ]
    for text, fragment, offset in cases:
        with pytest.raises(Graph6Error) as err:
            decode(text)
        assert fragment in str(err.value)
        assert err.value.offset == offset


def test_large_n_round_trip():
    g = Graph(70, [(i, (i + 1) % 70) for i in range(70)])
    assert decode(encode(g)) == g


def test_encode_of_a_decoded_line_is_the_fresh_encoding():
    # `decode` keeps a line already in `encode`'s form; any other spelling
    # of the same graph encodes afresh
    rng = random.Random(3)
    for n in (0, 1, 5, 11, 62, 63, 64, 100):
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])
        text = encode(g)
        size = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
        long = size + text[1 if n <= 62 else 4:]
        for line in (text, ">>graph6<<" + text, long, ">>graph6<<" + long, text + "\r\n"):
            h = decode(line)
            assert h == g
            assert encode(h) == encode(Graph.from_masks(h.n, h.masks())) == text


@given(graphs(max_n=8))
def test_round_trip(g):
    assert decode(encode(g)) == g


@given(graphs(max_n=7))
def test_matches_networkx(g):
    text = encode(g)
    h = networkx.from_graph6_bytes(text.encode())
    assert set(h.nodes) == set(range(g.n))
    assert {tuple(sorted(e)) for e in h.edges} == set(g.edges())
    nxg = networkx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    assert networkx.to_graph6_bytes(nxg, header=False).strip().decode() == text


@pytest.mark.parametrize("n", [63, 70, 200])
def test_long_form_matches_networkx(n):
    rng = networkx.utils.create_random_state(n)
    for density in (0.0, 0.1, 0.5, 1.0):
        nxg = networkx.gnp_random_graph(n, density, seed=rng)
        g = Graph(n, nxg.edges)
        text = networkx.to_graph6_bytes(nxg, header=False).strip()
        assert text[:1] == b"~"
        assert encode(g).encode() == text
        assert set(decode(text.decode()).edges()) == {tuple(sorted(e)) for e in nxg.edges}


def test_codec_memory_at_400_vertices():
    # the '0'/'1'-string codec peaked at 201 kB (encode) and 188 kB (decode)
    # on this graph; the integer codec stays under half of that
    rng = random.Random(1)
    g = Graph(400, [(u, v) for u, v in combinations(range(400), 2) if rng.random() < 0.5])
    text = encode(g)
    peaks = []
    tracemalloc.start()
    try:
        for call, arg in ((encode, g), (decode, text)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            call(arg)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[0] < 100_000 and peaks[1] < 94_000, peaks
