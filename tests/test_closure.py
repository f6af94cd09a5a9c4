"""Tests for the seed-closure engine, its certificates, and the LYM checker."""
from __future__ import annotations

import hashlib
import importlib
import json
import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from satgraph.closure import (
    Certificate,
    bad_vertices,
    certify,
    closure,
    control,
    lym_check,
    make_state,
    refine,
    trace_antichain,
    verify_certificate,
    weight,
)
from satgraph.constructions import (
    clique_join_bipartite,
    complete_bipartite,
    duffus_hanson_t2,
    ehm_extremal,
    petersen,
    split_family,
)
from satgraph.errors import DomainError, IntegrityError, ParseError, VerificationError
from satgraph.graph6 import decode, encode
from satgraph.graphs import Graph

from oracles import all_graphs, brute_is_saturated, certificate_problem, clique_saturated
from test_graphs import graphs


def test_closure_fixpoint():
    g = complete_bipartite(3, 30)
    assert closure(g, 3, [0]) == frozenset({0})
    assert closure(g, 3, [0, 1, 2]) == frozenset(range(30))
    assert closure(g, 1, [0]) == frozenset(range(30))
    assert closure(g, 3, []) == frozenset()


@given(graphs(max_n=7), st.integers(min_value=1, max_value=3))
def test_closure_is_monotone_and_idempotent(g, t):
    seeds = list(range(0, g.n, 2))
    small = closure(g, t, seeds[:1])
    big = closure(g, t, seeds)
    assert small <= big
    assert closure(g, t, big) == big
    assert set(seeds) <= big


def test_weight_and_control_on_split_bipartite_state():
    state = make_state(complete_bipartite(2, 6), 3, [0])
    assert sorted(state.r) == [0]
    assert sorted(state.rbar) == [0]
    assert sorted(state.y) == [1, 2, 3, 4, 5]
    assert weight(state, 1) == 12
    assert weight(state, 2) == 9
    assert bad_vertices(state) == (1, 2, 3, 4, 5)
    assert control(state, 2) == 6
    antichain, reps = trace_antichain(state)
    assert antichain == (frozenset({0}),)
    assert reps == (2,)


def test_refine_grows_seed_and_raises_control():
    state = make_state(complete_bipartite(2, 6), 3, [0])
    before = {v: control(state, v) for v in state.y}
    nxt, record = refine(state)
    assert record.r_before == (0,)
    assert record.reps == (2,)
    assert record.xs == (1,)
    assert record.r_after == (0, 1)
    assert sorted(nxt.r) == [0, 1]
    for v in bad_vertices(nxt):
        assert control(nxt, v) >= before[v] + 1


def test_refine_rejects_seed_with_no_outside_neighbor():
    state = make_state(complete_bipartite(1, 6), 2, [0])
    with pytest.raises(IntegrityError):
        refine(state)
    stuck = refine(make_state(complete_bipartite(2, 6), 3, [0]))[0]
    with pytest.raises(IntegrityError):
        refine(stuck)


def test_trace_antichain_needs_a_bad_vertex():
    state = make_state(complete_bipartite(3, 30), 3, list(range(30)))
    with pytest.raises(DomainError):
        trace_antichain(state)


CERTIFICATE_GOLDENS = [
    (complete_bipartite(3, 30), 3, 3, 2, (0, 1, 2), 81, 81),
    (petersen(), 3, 3, 4, (0, 2, 3, 4, 5, 6, 7), 9, 15),
    (split_family(4, 20)[0], 3, 4, 7,
     (0, 1, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15), 24, 52),
    (clique_join_bipartite(12, 4, 3), 4, 3, 2, (0, 1, 2), 27, 29),
    (duffus_hanson_t2(9), 3, 2, 2, (0, 1, 3), 12, 13),
]


def test_certificates_golden_runs():
    for g, p, t, iters, r_star, bound, edges in CERTIFICATE_GOLDENS:
        cert = certify(g, p, t)
        assert cert.iterations == iters
        assert cert.r_star == r_star
        assert cert.bound == bound == t * (g.n - len(r_star))
        assert cert.edges == edges == g.edge_count()
        assert cert.bound <= cert.edges
        assert cert.iterations <= 2 * t * t
        assert cert.verified
        assert len(cert.steps) == iters
        assert verify_certificate(cert, g)


def test_certificate_seed_already_closed():
    cert = certify(complete_bipartite(3, 30), 3, 3, r0=(0, 1, 2))
    assert cert.iterations == 0
    assert cert.steps == ()
    assert cert.r_star == (0, 1, 2)
    assert cert.bound == 81
    assert cert.verified


def test_certificate_steps_have_increasing_seeds():
    cert = certify(petersen(), 3, 3)
    seeds = [cert.r0] + [s.r_after for s in cert.steps]
    for a, b in zip(seeds, seeds[1:]):
        assert set(a) < set(b)
    assert set(cert.steps[-1].r_after) <= set(cert.r_star)


def test_certify_rejects_bad_inputs():
    with pytest.raises(VerificationError):
        certify(ehm_extremal(7, 3), 3, 2)
    broken = ehm_extremal(8, 4).with_edge(6, 7)
    with pytest.raises(VerificationError):
        certify(broken, 4, 2)
    with pytest.raises(DomainError):
        certify(duffus_hanson_t2(9), 3, 0)


def test_certify_checks_p_before_the_graph():
    # the five-cycle has minimum degree 2, below t = 3, but p = 2 is the
    # first thing wrong with the call
    with pytest.raises(DomainError, match="clique order must be >= 3, got 2"):
        certify(decode("Dhc"), 2, 3)


def test_certificate_json_round_trip():
    cert = certify(duffus_hanson_t2(9), 3, 2)
    data = cert.to_json()
    assert list(data) == [
        "graph6", "p", "t", "r0", "steps", "r_star",
        "iterations", "bound", "edges", "verified",
    ]
    again = Certificate.from_json(data)
    assert again == cert
    assert verify_certificate(again)


def test_verify_certificate_rejects_tampering():
    cert = certify(petersen(), 3, 3)
    data = cert.to_json()
    data["bound"] = data["bound"] - 1
    assert not verify_certificate(Certificate.from_json(data))
    data = cert.to_json()
    data["r_star"] = data["r_star"][:-1]
    assert not verify_certificate(Certificate.from_json(data))
    data = cert.to_json()
    data["steps"][0]["xs"] = [9]
    assert not verify_certificate(Certificate.from_json(data))


def test_verify_certificate_reads_false_on_wrong_typed_fields():
    good = json.loads(json.dumps(certify(petersen(), 3, 3).to_json()))
    assert verify_certificate(Certificate.from_json(good))
    wrong = ["3", "ab", "Dhc", "?", "", 1.5, None, True, False, [], [1], ["a"], [[0]],
             {}, {"a": 1}, -1, 0, 2, 10**6]
    for key in good:
        for value in wrong:
            if value == good[key] and type(value) is type(good[key]):
                continue
            if key == "verified" and type(value) is bool:
                continue  # the replay sets this flag; it does not read it
            try:
                cert = Certificate.from_json(dict(good, **{key: value}))
            except ParseError:
                continue
            assert verify_certificate(cert) is False, (key, value)


def test_verify_certificate_checks_the_graph_it_is_given():
    cert = certify(petersen(), 3, 3)
    assert verify_certificate(cert, petersen())
    # the same graph under graph6's optional header still names it
    assert verify_certificate(replace(cert, graph6=">>graph6<<" + cert.graph6), petersen())
    for other in ["Dhc", "D~\x01", ""]:
        assert verify_certificate(replace(cert, graph6=other), petersen()) is False
        assert verify_certificate(replace(cert, graph6=other)) is False
    assert verify_certificate(cert, duffus_hanson_t2(10)) is False


def test_certificate_json_is_pinned():
    cert = certify(petersen(), 3, 3)
    assert list(cert.to_json()["steps"][0]) == [
        "r_before", "bad", "traces", "reps", "xs", "r_after",
    ]
    for cert, digest in [
        (cert, "92b2fd05514b0b2fb0fe01114f644cdee751dc7f99ff868ef76ed02799b009ea"),
        (certify(duffus_hanson_t2(9), 3, 2),
         "9030841eebf59c3537c4a1b7c0d9cead5f2b6a63f4916a6a19c3410d5e949b70"),
    ]:
        text = json.dumps(cert.to_json())
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert Certificate.from_json(json.loads(text)) == cert


def test_malformed_certificate_json_raises_parse_error():
    cert = certify(petersen(), 3, 3)
    good = json.loads(json.dumps(cert.to_json()))
    extra = dict(good, note="ignored")
    extra["steps"] = [dict(s, note="ignored") for s in good["steps"]]
    assert Certificate.from_json(extra) == cert
    data = dict(good)
    del data["r_star"]
    with pytest.raises(ParseError, match="r_star"):
        Certificate.from_json(data)
    data = json.loads(json.dumps(good))
    del data["steps"][0]["xs"]
    with pytest.raises(ParseError, match="xs"):
        Certificate.from_json(data)
    for bad_step in ([1, 2], 7, "xs", None):
        data = json.loads(json.dumps(good))
        data["steps"][0] = bad_step
        with pytest.raises(ParseError):
            Certificate.from_json(data)
    for not_object in ([good], None, 3):
        with pytest.raises(ParseError):
            Certificate.from_json(not_object)
    with pytest.raises(ParseError):
        Certificate.from_json(dict(good, steps=7))


def test_lym_check_known_families():
    res = lym_check([{0}, {1}, {2}], 5)
    assert res.antichain and res.size_ok
    assert res.lym_sum == Fraction(3, 5)
    res = lym_check([set(), {1}], 5)
    assert not res.antichain
    assert res.lym_sum == Fraction(6, 5)
    res = lym_check([{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}], 4)
    assert res.antichain and res.lym_sum == 1
    res = lym_check([{0}, {0}, {0}], 2)
    assert not res.antichain and not res.size_ok
    with pytest.raises(DomainError):
        lym_check([{0, 1, 2}], 2)


@given(
    st.integers(min_value=2, max_value=8).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(
                st.sets(st.integers(min_value=0, max_value=m - 1), max_size=m),
                max_size=6,
            ),
        )
    )
)
def test_lym_sum_of_antichain_is_at_most_one(case):
    m, family = case
    dedup = list({frozenset(a) for a in family})
    res = lym_check(dedup, m)
    if res.antichain:
        assert res.lym_sum <= 1


def _maximal_triangle_free(rng, n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    g = Graph(n)
    for u, v in pairs:
        if not g.adj_mask(u) & g.adj_mask(v):
            g = g.with_edge(u, v)
    return g


def test_definitional_checker_accepts_engine_certificates():
    rng = random.Random(5)
    cases = [(g, p, t) for g, p, t, *_ in CERTIFICATE_GOLDENS]
    cases += [(_maximal_triangle_free(rng, rng.randint(5, 12)), 3, t)
              for _ in range(20) for t in (1, 2, 3)]
    accepted = 0
    for g, p, t in cases:
        for seed in (None, (0,), tuple(range(min(t + 1, g.n))), (g.n - 1,)):
            try:
                cert = certify(g, p, t, seed)
            except VerificationError:
                continue
            data = json.loads(json.dumps(cert.to_json()))
            assert certificate_problem(data, g) is None, (encode(g), p, t, seed)
            assert certificate_problem(cert.to_json(), g) is None
            assert cert.verified
            accepted += 1
    assert accepted >= 60


def test_checker_saturation_agrees_with_brute_force():
    for n in range(1, 6):
        for g in all_graphs(n):
            for p in (3, 4):
                assert clique_saturated(g, p) == brute_is_saturated(g, p), (encode(g), p)


def _single_field_mutations(data: dict, n: int):
    """(label, JSON) for every single-field change of a certificate: each
    top-level int moved by one; one element of r0, r_star and each step
    field changed, dropped or added; a step dropped or repeated; graph6
    naming another graph or none.  `verified` and re-encodings of the same
    graph are left out: neither changes what the certificate claims."""
    def absent(xs):
        return min(set(range(n + 1)) - set(xs))

    def variants(xs, nested):
        for i in {0, len(xs) - 1} if xs else ():
            new = xs[i] + [absent(xs[i])] if nested else absent(xs)
            yield f"[{i}] changed", xs[:i] + [new] + xs[i + 1:]
            yield f"[{i}] dropped", xs[:i] + xs[i + 1:]
        yield "added", xs + [[absent([])] if nested else absent(xs)]

    def copy():
        return json.loads(json.dumps(data))

    for key in ("p", "t", "iterations", "bound", "edges"):
        for delta in (-1, 1):
            yield f"{key}{delta:+d}", dict(copy(), **{key: data[key] + delta})
    for key in ("r0", "r_star"):
        for label, value in variants(data[key], False):
            yield f"{key} {label}", dict(copy(), **{key: value})
    for i, step in enumerate(data["steps"]):
        for key in step:
            for label, value in variants(step[key], key == "traces"):
                mutant = copy()
                mutant["steps"][i][key] = value
                yield f"steps[{i}].{key} {label}", mutant
    if data["steps"]:
        yield "step dropped", dict(copy(), steps=data["steps"][:-1])
        yield "step repeated", dict(copy(), steps=data["steps"] + data["steps"][-1:])
    g = decode(data["graph6"])
    u, v = next(iter(g.edges()))
    for other in (encode(g.without_edge(u, v)), data["graph6"][:-1], "Dhc"):
        yield "graph6 " + other[:8], dict(copy(), graph6=other)


def test_every_single_field_mutation_is_rejected():
    for g, p, t, *_ in CERTIFICATE_GOLDENS:
        good = json.loads(json.dumps(certify(g, p, t).to_json()))
        assert certificate_problem(good, g) is None
        mutants = list(_single_field_mutations(good, g.n))
        assert len(mutants) >= 40
        for label, data in mutants:
            assert data != good, label
            assert certificate_problem(data, g) is not None, label
            cert = Certificate.from_json(data)
            assert verify_certificate(cert, g) is False, label
            assert verify_certificate(cert) is False, label


def test_closure_refuses_negative_seed_as_out_of_range():
    g = petersen()
    for seed in ([-1], [0, 10]):
        with pytest.raises(DomainError, match="seed out of range"):
            closure(g, 2, seed)
        with pytest.raises(DomainError, match="seed out of range"):
            make_state(g, 2, seed)
    with pytest.raises(DomainError, match="need t >= 1"):
        closure(g, 0, [-1])


def test_state_holds_masks_and_computes_its_bad_set_once(monkeypatch):
    engine = importlib.import_module("satgraph.closure")
    state = make_state(complete_bipartite(2, 6), 3, [0])
    assert (state.r_mask, state.rbar_mask, state.y_mask) == (0b1, 0b1, 0b111110)
    assert [f.name for f in fields(state)] == ["graph", "t", "r_mask", "rbar_mask", "y_mask"]
    calls = []
    real = engine.weight
    monkeypatch.setattr(engine, "weight", lambda s, v: calls.append(v) or real(s, v))
    assert bad_vertices(state) == bad_vertices(state) == (1, 2, 3, 4, 5)
    trace_antichain(state)
    nxt, record = refine(state)
    assert record.bad == (1, 2, 3, 4, 5)
    bad_vertices(nxt)
    assert len(calls) == len(state.y) + len(nxt.y)


def test_certify_checks_saturation_once(monkeypatch):
    # a precondition of the engine; the closing replay takes it as known,
    # while `verify_certificate` alone still makes it
    engine = importlib.import_module("satgraph.closure")
    calls = []
    real = engine.is_saturated
    monkeypatch.setattr(engine, "is_saturated", lambda g, p: calls.append(p) or real(g, p))
    for g, p, t, *_ in CERTIFICATE_GOLDENS:
        calls.clear()
        cert = certify(g, p, t)
        assert cert.verified and calls == [p]
        assert verify_certificate(cert) and verify_certificate(cert, g) and calls == [p] * 3
