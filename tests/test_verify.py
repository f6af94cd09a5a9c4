"""Tests for saturation checkers, bound evaluators, and reports."""
from __future__ import annotations

import gc
import json
import math
import random
import subprocess
import sys
import types
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from satgraph.constructions import (
    clique_join_bipartite,
    cone,
    complete_bipartite,
    duffus_hanson_t2,
    ehm_extremal,
    petersen,
    semi_sat,
)
from satgraph.errors import DomainError, FatalInconsistencyError
from satgraph.graphs import Graph
from satgraph.hypergraphs import Hypergraph
from satgraph.hypersat import bollobas_extremal
import satgraph.verify as verify
from satgraph.verify import (
    bollobas_bound,
    check_bounds,
    closure_tower_bound,
    closure_tower_term,
    dh_mixed_bound,
    dh_semi_bound,
    ehm_bound,
    has_conical_vertex,
    is_kp_free,
    is_r_saturated,
    is_saturated,
    is_semi_saturated,
    non_saturating_pair,
    non_saturating_r_set,
    semi_sat_lower_bound,
    semi_sat_upper_bound,
)

from oracles import (
    brute_is_saturated,
    brute_is_semi_saturated,
    brute_non_saturating_pair,
)
from test_graphs import graphs


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def test_is_saturated_known_cases():
    assert is_saturated(cycle(5), 3)
    assert not is_saturated(cycle(6), 3)
    assert is_saturated(complete_bipartite(2, 6), 3)
    assert not is_saturated(petersen(), 4)
    assert is_saturated(ehm_extremal(8, 5), 5)


def test_vacuous_cases_on_complete_graphs():
    k4 = Graph(4, combinations(range(4), 2))
    assert is_saturated(k4, 5)
    assert not is_saturated(k4, 4)
    assert is_semi_saturated(k4, 5)
    assert is_semi_saturated(k4, 4)


def test_is_semi_saturated_known_cases():
    assert is_semi_saturated(semi_sat(10, 4, 3), 4)
    assert is_semi_saturated(path(3), 3)
    assert not is_semi_saturated(path(4), 3)
    assert not is_kp_free(semi_sat(10, 4, 3), 4)


def test_non_saturating_pair_is_lexicographic_least():
    assert non_saturating_pair(cycle(6), 3) == (0, 3)
    assert non_saturating_pair(cycle(5), 3) is None
    assert non_saturating_pair(path(4), 3) == (0, 3)


def test_r_saturation():
    assert is_r_saturated(bollobas_extremal(8, 3, 5), 5)
    almost = Hypergraph(
        3, 5, [e for e in combinations(range(5), 3) if e != (2, 3, 4)]
    )
    assert is_r_saturated(almost, 5)
    empty = Hypergraph(3, 5)
    assert not is_r_saturated(empty, 4)
    assert non_saturating_r_set(empty, 4) == (0, 1, 2)
    complete = Hypergraph(3, 5, combinations(range(5), 3))
    assert not is_r_saturated(complete, 5)


def test_has_conical_vertex():
    assert has_conical_vertex(cone(cycle(5)))
    assert not has_conical_vertex(petersen())
    assert has_conical_vertex(Graph(1))


def test_low_degree_saturated_graphs_have_conical_vertex():
    for g, p in [
        (ehm_extremal(8, 4), 4),
        (ehm_extremal(9, 5), 5),
        (cone(cycle(5)), 4),
        (ehm_extremal(7, 3), 3),
    ]:
        assert is_saturated(g, p)
        assert g.min_degree() < 2 * (p - 2)
        assert has_conical_vertex(g)


def test_bound_values():
    assert ehm_bound(7, 4) == 11
    assert ehm_bound(16, 3) == 15
    assert dh_semi_bound(10, 3, 4) == 17
    assert dh_semi_bound(12, 2, 3) == Fraction(31, 2)
    assert dh_mixed_bound(10, 4, 3) == 17
    assert dh_mixed_bound(12, 3, 2) == Fraction(31, 2)
    assert bollobas_bound(8, 3, 5) == 36
    assert bollobas_bound(6, 3, 4) == 10
    assert semi_sat_lower_bound(10, 4, 3) == 17
    assert semi_sat_upper_bound(10, 4, 3) == 21
    assert closure_tower_bound(10, 3, 1) == 8


def test_tower_term_exact_arbitrary_precision():
    assert closure_tower_term(1) == 2
    assert closure_tower_term(2) == 2 * 3**256
    assert closure_tower_term(2).bit_length() > 256


def test_tower_term_at_three():
    # 3 * 4^(3^18): 2 + 2 * 3^18 bits, and its residue by powering mod q
    term = closure_tower_term(3)
    assert term.bit_length() == 774_840_980
    q = 1_000_000_007  # a prime below 2**30, one digit of an int: a fast remainder
    assert term % q == 3 * pow(4, 3**18, q) % q


def test_semi_sandwich_golden_triples():
    for n, p, t in [(10, 4, 3), (12, 3, 2), (16, 5, 4)]:
        e = semi_sat(n, p, t).edge_count()
        assert dh_semi_bound(n, t, p) <= e
        assert semi_sat_lower_bound(n, p, t) <= e
        assert e == semi_sat_upper_bound(n, p, t)


def test_check_bounds_report_schema():
    rep = check_bounds(cycle(5), 3, 2)
    out = rep.to_json()
    assert set(out) == {
        "subject", "n", "p", "t", "edges", "min_degree",
        "kp_free", "saturated", "semi_saturated", "bounds", "witness",
    }
    assert out["subject"] == "Dhc"
    assert out["saturated"] and out["semi_saturated"] and out["kp_free"]
    assert out["witness"] is None
    names = [b["name"] for b in out["bounds"]]
    assert names == ["ehm", "dh_semi", "closure_tower"]
    assert all(b["satisfied"] for b in out["bounds"])
    assert all(
        set(b) == {"name", "value_num", "value_den", "satisfied"}
        for b in out["bounds"]
    )


def test_check_bounds_false_flags_carry_witnesses():
    rep = check_bounds(cycle(6), 3, 2)
    assert not rep.saturated
    assert rep.to_json()["witness"] == {"kind": "non_edge", "vertices": [0, 3]}
    k4 = Graph(4, combinations(range(4), 2))
    rep = check_bounds(k4, 4, None)
    assert not rep.kp_free
    assert rep.to_json()["witness"] == {"kind": "clique", "vertices": [0, 1, 2, 3]}


def test_check_bounds_on_hypergraph():
    rep = check_bounds(bollobas_extremal(8, 3, 5), 5)
    out = rep.to_json()
    assert out["subject"] == "hg:r3:n8:m36:fd033fc2fec4f746"
    assert out["saturated"]
    assert out["edges"] == 36
    assert out["bounds"] == [
        {"name": "bollobas", "value_num": 36, "value_den": 1, "satisfied": True}
    ]


def test_negative_degree_is_a_domain_error():
    for call in (lambda: dh_semi_bound(5, -1, 3), lambda: dh_mixed_bound(5, 3, -1),
                 lambda: semi_sat_lower_bound(5, 3, -2), lambda: semi_sat_upper_bound(5, 3, -2),
                 lambda: check_bounds(cycle(5), 3, -1),
                 lambda: check_bounds(bollobas_extremal(8, 3, 5), 5, -1)):
        with pytest.raises(DomainError):
            call()
    # t = 0 is a degree like any other; below p - 2 the upper bound counts
    # semi_sat at p - 2, the minimum K_p-saturated graph
    assert dh_semi_bound(5, 0, 3) == 2 and semi_sat_upper_bound(5, 3, 0) == 4 == ehm_bound(5, 3)
    assert check_bounds(cycle(5), 3, 0).t == 0


def test_check_bounds_flags_violated_lower_bound_as_fatal(monkeypatch):
    monkeypatch.setattr(verify, "ehm_bound", lambda n, p: 10**6)
    with pytest.raises(FatalInconsistencyError) as err:
        check_bounds(cycle(5), 3, 2)
    assert err.value.report is not None


def test_bounds_table_calls_an_evaluator_replaced_after_its_rows(monkeypatch):
    # the rows of every case are in the table before any evaluator is
    # replaced; a table keyed by (n, p, t, min degree) alone would serve
    # them and miss each violation
    k4 = Graph(4, combinations(range(4), 2))
    cases = [("ehm_bound", cycle(5), 2), ("dh_semi_bound", k4, 2), ("dh_mixed_bound", k4, 1),
             ("dh_mixed_bound", cycle(5), 1), ("closure_tower_bound", cycle(5), 2)]
    for _, g, t in cases:
        check_bounds(g, 3, t)
    for name, g, t in cases:
        with monkeypatch.context() as m:
            m.setattr(verify, name, lambda *args: 10**6)
            with pytest.raises(FatalInconsistencyError, match=name.replace("_bound", "")):
                check_bounds(g, 3, t)
        check_bounds(g, 3, t)


def test_bound_rows_are_dropped_at_their_cap(monkeypatch):
    # the table of bound rows empties when it holds 1,024, so a stream of
    # ever new (n, t, min degree) keeps it small; a row dropped is made
    # again, the same
    monkeypatch.setattr(verify, "_ROWS", {})
    g = cycle(5)
    reports = [check_bounds(g, 3, t) for t in range(1_100)]
    assert len(verify._ROWS) == 1_100 - 1_024
    assert [check_bounds(g, 3, t) for t in range(1_100)] == reports


def test_check_bounds_report_keys_and_bound_names():
    out = check_bounds(petersen(), 3, 3).to_json()
    assert list(out) == [
        "subject", "n", "p", "t", "edges", "min_degree",
        "kp_free", "saturated", "semi_saturated", "bounds", "witness",
    ]
    dh9 = duffus_hanson_t2(9)
    for g, t, names in [
        (dh9, 2, ["ehm", "dh_semi", "dh_mixed", "closure_tower"]),
        (dh9, 3, ["ehm", "dh_semi"]),
        (dh9, None, ["ehm", "dh_semi"]),
        (complete_bipartite(3, 30), 3, ["ehm", "dh_semi", "dh_mixed"]),
    ]:
        assert [b.name for b in check_bounds(g, 3, t).bounds] == names


def test_semi_saturated_subject_is_held_only_to_semi_bounds(monkeypatch):
    k4 = Graph(4, combinations(range(4), 2))
    assert check_bounds(k4, 3, 2).semi_saturated and not is_saturated(k4, 3)
    monkeypatch.setattr(verify, "closure_tower_bound", lambda n, p, t: 10**6)
    rep = check_bounds(k4, 3, 2)
    assert [b.satisfied for b in rep.bounds if b.name == "closure_tower"] == [False]
    monkeypatch.setattr(verify, "dh_semi_bound", lambda n, delta, p: 10**6)
    with pytest.raises(FatalInconsistencyError):
        check_bounds(k4, 3, 2)


def test_closure_tower_term_refuses_t4_at_once():
    # in a child process under a memory cap, so building the term by
    # mistake cannot take down the test run
    code = (
        "import resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from satgraph.errors import DomainError\n"
        "from satgraph.verify import closure_tower_bound, closure_tower_term\n"
        "for call in (lambda: closure_tower_term(4), lambda: closure_tower_bound(40, 3, 4)):\n"
        "    start = time.perf_counter()\n"
        "    try:\n"
        "        call()\n"
        "    except DomainError:\n"
        "        print(time.perf_counter() - start)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    times = [float(x) for x in out.stdout.split()]
    assert len(times) == 2 and max(times) < 1.0
    with pytest.raises(DomainError):
        closure_tower_term(0)


def brute_alpha(g: Graph) -> int:
    best = 0
    for k in range(g.n, 0, -1):
        for sub in combinations(range(g.n), k):
            if all(not g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return k
    return best


@given(graphs(max_n=9))
def test_edges_at_least_alpha_times_min_degree(g):
    assert g.edge_count() >= brute_alpha(g) * g.min_degree() if g.n else True


@given(graphs(max_n=6), st.integers(min_value=3, max_value=5))
def test_checkers_match_definitional_brute_force(g, p):
    assert is_saturated(g, p) == brute_is_saturated(g, p)
    assert is_semi_saturated(g, p) == brute_is_semi_saturated(g, p)
    if is_saturated(g, p):
        assert is_semi_saturated(g, p)
        assert is_kp_free(g, p)


@settings(max_examples=400)  # p = 3 takes the neighbourhood unions, p >= 4 the search
@given(graphs(max_n=9), st.integers(min_value=3, max_value=6))
def test_non_saturating_pair_matches_oracle(g, p):
    pair = non_saturating_pair(g, p)
    assert pair == brute_non_saturating_pair(g, p)


@pytest.mark.parametrize("g, p", [
    (duffus_hanson_t2(40), 3),
    (complete_bipartite(3, 30), 3),
    (ehm_extremal(30, 5), 5),
    (clique_join_bipartite(30, 5, 6), 5),
], ids=["duffus-hanson", "bipartite", "ehm", "clique-join"])
def test_non_saturating_pair_on_constructions_with_an_edge_deleted(g, p):
    edges = list(g.edges())
    variants = [g] + [Graph(g.n, [f for f in edges if f != e]) for e in edges[:10]]
    for h in variants:
        pair = non_saturating_pair(h, p)
        assert pair == brute_non_saturating_pair(h, p)
    assert non_saturating_pair(g, p) is None


def test_saturated_constructions_meet_lower_bounds():
    samples = [
        (ehm_extremal(9, 4), 4, 2),
        (complete_bipartite(3, 8), 3, 3),
        (duffus_hanson_t2(9), 3, 2),
        (petersen(), 3, 3),
    ]
    for g, p, t in samples:
        e = g.edge_count()
        assert e >= ehm_bound(g.n, p)
        assert e >= closure_tower_bound(g.n, p, t)
        assert e >= dh_semi_bound(g.n, g.min_degree(), p)


def test_bounds_match_their_docstring_formulas():
    # plain Fraction transcriptions, one per docstring, at every degree
    F = Fraction

    def c2(x):
        return F(x) * (x - 1) / 2

    for p in range(3, 9):
        for n in range(1, 61):
            ehm = ehm_bound(n, p)
            assert type(ehm) is int and ehm == n * (p - 2) - c2(p - 1)
            for d in range(n):
                want = F(n - d - 1) * (d + p - 2) / 2 + d - c2(p - 2)
                for got in (dh_semi_bound(n, d, p), dh_mixed_bound(n, p, d),
                            semi_sat_lower_bound(n, p, d)):
                    assert type(got) is Fraction and got == want
                s = max(d, p - 2)
                upper = semi_sat_upper_bound(n, p, d)
                assert type(upper) is int
                assert upper == math.ceil(F(s + p - 2) * (n - (p - 2)) / 2) + c2(p - 2)
            for t in (1, 2):
                tower = closure_tower_bound(n, p, t)
                assert type(tower) is int and tower == t * n - t * (t + 1) ** (t ** (2 * t * t))


def _reachable_ints(root: dict):
    """Bit lengths of the ints reachable from a module's namespace, not
    passing through other modules or classes."""
    namespaces = {id(vars(m)) for m in list(sys.modules.values()) if m is not None}
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if type(obj) is int:
            yield obj.bit_length()
        elif not isinstance(obj, (type, types.ModuleType)) and (
                obj is root or id(obj) not in namespaces):
            stack.extend(gc.get_referents(obj))


def test_tower_term_at_three_is_not_kept():
    assert closure_tower_bound(40, 3, 3) < 0
    assert closure_tower_term(3).bit_length() == 774_840_980
    assert max(_reachable_ints(vars(verify))) < 1_000


def test_report_json_line_matches_json_dumps():
    # the report's JSON as a dict of its fields, as json.dumps writes it
    def dumped(rep):
        bounds = [{"name": b.name, "value_num": b.value.numerator,
                   "value_den": b.value.denominator, "satisfied": b.satisfied}
                  for b in rep.bounds]
        return json.dumps(dict(rep._asdict(), bounds=bounds))

    rng = random.Random(5)
    subjects = [bollobas_extremal(8, 3, 5), bollobas_extremal(7, 4, 6), cycle(5), petersen(),
                Graph(2), Graph(0)]
    for _ in range(200):
        n = rng.randint(1, 12)
        subjects.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5]))
    seen = set()
    for g in subjects:
        for p, t in ((3, None), (3, 0), (3, 1), (3, 2), (4, 3)):
            if isinstance(g, Hypergraph) and p <= g.r:
                continue
            rep = check_bounds(g, p, t)
            assert rep.json_line() == dumped(rep)
            assert rep.to_json() == json.loads(dumped(rep))
            seen.update(b.value.denominator for b in rep.bounds)
            seen.add("\\" in rep.subject)
            seen.add(None if rep.witness is None else rep.witness["kind"])
    assert {1, 2, True, None, "clique", "non_edge"} <= seen
