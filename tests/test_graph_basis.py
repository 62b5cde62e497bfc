import itertools
import math
import random
from collections import deque
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qal.graph_basis as gb
from qal.exact_core import Generator, SparseMatrix
from qal.graph_basis import (
    Forest,
    OrderedTwoStepPartition,
    WedgeMonomial,
    confluence_check,
    coproduct_table_check,
    enumerate_chain_gangs,
    enumerate_down,
    enumerate_up,
    enumerate_updown,
    lah,
    lah_by_enumeration,
    lex_normal_form,
    ordered_two_step_partitions,
    parse_wedge_word,
    prune_normal_form,
    random_loopfree_monomial,
    random_relation_multiple,
    set_partitions,
    stirling1,
    stirling2,
)
from qal.report import VerificationReport

G = Generator


def mono(text):
    m, sign = parse_wedge_word(text)
    assert m is not None and sign == 1
    return m


def combo(*pairs):
    """Expected combination from written (possibly unsorted) wedge words."""
    out = {}
    for text, c in pairs:
        m, sign = parse_wedge_word(text)
        out[m] = out.get(m, Fraction(0)) + Fraction(c) * sign
    return {m: c for m, c in out.items() if c}


# -- canonical form ------------------------------------------------------------

def test_canonicalization_sign():
    m, sign = parse_wedge_word("2>3,1>2")
    assert m == mono("1>2,2>3") and sign == -1
    m, sign = parse_wedge_word("1>2,1>2")
    assert m is None and sign == 0
    assert parse_wedge_word("") == (WedgeMonomial(()), 1)
    with pytest.raises(ValueError):
        WedgeMonomial((G(2, 3), G(1, 2)))


def test_monomial_string_round_trip():
    m = mono("1>2,2>3,4>1")
    assert parse_wedge_word(str(m)) == (m, 1)


# -- forests and defect ----------------------------------------------------------

def test_defect_examples():
    assert Forest(3, [G(1, 2), G(2, 3)]).defect() == 0
    assert Forest(3, [G(1, 2), G(1, 3)]).defect() == 1       # V-join
    assert Forest(3, [G(1, 3), G(2, 3)]).defect() == 1       # A-join
    assert Forest(4, [G(1, 2), G(3, 4)]).defect() == 0       # two chains
    assert Forest(4, []).defect() == 0


def test_defect_rejects_loops():
    with pytest.raises(ValueError):
        Forest(3, [G(1, 2), G(2, 3), G(3, 1)]).defect()


def test_defect_zero_iff_chain_gang():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 6)
        m = random_loopfree_monomial(rng, n)
        f = m.forest(n)
        assert (f.defect() == 0) == f.is_chain_gang()


def test_forest_predicates():
    assert Forest(3, [G(2, 1), G(3, 1)]).is_down_forest()   # tuft
    assert not Forest(3, [G(3, 2), G(2, 1)]).is_down_forest()  # down chain
    assert not Forest(3, [G(3, 1), G(3, 2)]).is_down_forest()  # down V-join
    assert Forest(3, [G(1, 2), G(1, 3)]).is_up_forest()     # up V-join fine
    assert Forest(3, [G(1, 2), G(2, 3)]).is_up_forest()     # up chain fine
    assert not Forest(3, [G(1, 3), G(2, 3)]).is_up_forest()  # up A-join
    assert not Forest(2, [G(1, 2), G(2, 1)]).is_forest()


def test_dot_export():
    dot = Forest(3, [G(1, 2)]).to_dot()
    assert dot.startswith("digraph") and "1 -> 2;" in dot and "3;" in dot


# -- pruning -------------------------------------------------------------------

def test_prune_v_join():
    got = prune_normal_form(mono("1>2,1>3"))
    assert got == combo(("1>2,2>3", 1), ("1>3,3>2", -1))


def test_prune_two_loop_is_zero():
    assert prune_normal_form((G(1, 2), G(2, 1))) == {}


def test_prune_fixes_chain_gangs():
    for n, k in [(4, 2), (5, 3)]:
        for m in enumerate_chain_gangs(n, k):
            assert prune_normal_form(m) == {m: Fraction(1)}


def test_prune_kills_loops():
    assert prune_normal_form((G(1, 2), G(2, 3), G(3, 1))) == {}
    assert prune_normal_form((G(1, 2), G(2, 3), G(3, 4), G(4, 1))) == {}
    assert prune_normal_form((G(1, 2), G(3, 2), G(3, 4), G(1, 4))) == {}
    # loop plus a tail
    assert prune_normal_form((G(1, 2), G(2, 3), G(3, 1), G(4, 1))) == {}


def test_prune_output_is_chain_gang_basis():
    rng = random.Random(3)
    for _ in range(80):
        m = random_loopfree_monomial(rng, 6)
        nf = prune_normal_form(m)
        for t in nf:
            assert t.forest(6).is_chain_gang()


def test_prune_idempotent_and_linear():
    rng = random.Random(4)
    for _ in range(40):
        a = random_loopfree_monomial(rng, 5)
        b = random_loopfree_monomial(rng, 5)
        nf_a, nf_b = prune_normal_form(a), prune_normal_form(b)
        again = prune_normal_form(nf_a)
        assert again == nf_a
        lin = {}
        for m, c in nf_a.items():
            lin[m] = lin.get(m, Fraction(0)) + 2 * c
        for m, c in nf_b.items():
            lin[m] = lin.get(m, Fraction(0)) - 3 * c
        lin = {m: c for m, c in lin.items() if c}
        comb = {a: Fraction(2)}
        comb[b] = comb.get(b, Fraction(0)) - 3
        assert prune_normal_form(comb) == lin


def test_overlap_case_x():
    got = prune_normal_form(mono("1>2,1>3,1>4"))
    assert got == combo(
        ("1>2,2>4,4>3", -1), ("1>2,2>3,3>4", 1), ("1>4,4>2,2>3", 1),
        ("1>3,3>4,4>2", 1), ("1>3,3>2,2>4", -1), ("1>4,4>3,3>2", -1))


def test_overlap_case_y():
    got = prune_normal_form(mono("1>4,2>4,3>4"))
    assert got == combo(
        ("1>2,2>3,3>4", 1), ("1>3,3>2,2>4", -1), ("3>1,1>2,2>4", 1),
        ("2>1,1>3,3>4", -1), ("2>3,3>1,1>4", 1), ("3>2,2>1,1>4", -1))


def test_overlap_case_z():
    got = prune_normal_form((G(1, 2), G(3, 2), G(3, 4)))
    assert got == combo(
        ("1>3,3>2,2>4", 1), ("1>3,3>4,4>2", -1), ("3>1,1>2,2>4", -1),
        ("3>1,1>4,4>2", 1), ("3>4,4>1,1>2", -1))


# -- lex rewriting ----------------------------------------------------------------

def test_lex_rule_one():
    got = lex_normal_form(mono("1>3,2>3"))
    assert got == combo(("1>2,2>3", 1), ("2>1,1>3", -1))


def test_lex_fixes_updown_monomials():
    for n, k in [(4, 2), (4, 3), (5, 2)]:
        for m in enumerate_updown(n, k):
            assert lex_normal_form(m) == {m: Fraction(1)}


def test_lex_wedge_square_is_zero():
    assert lex_normal_form((G(1, 2), G(1, 2))) == {}
    assert lex_normal_form((G(1, 2), G(2, 1))) == {}


def test_lex_output_is_updown_basis():
    rng = random.Random(8)
    for _ in range(60):
        m = random_loopfree_monomial(rng, 5)
        for t in lex_normal_form(m):
            assert t.forest(5).is_updown_forest()


def test_lex_idempotent_and_linear():
    rng = random.Random(9)
    for _ in range(40):
        a = random_loopfree_monomial(rng, 5)
        b = random_loopfree_monomial(rng, 5)
        nf = lex_normal_form(a)
        assert lex_normal_form(nf) == nf
        comb = {a: Fraction(3)}
        comb[b] = comb.get(b, Fraction(0)) + Fraction(1, 2)
        lin = {}
        for m, c in lex_normal_form(a).items():
            lin[m] = lin.get(m, Fraction(0)) + 3 * c
        for m, c in lex_normal_form(b).items():
            lin[m] = lin.get(m, Fraction(0)) + Fraction(1, 2) * c
        assert lex_normal_form(comb) == {m: c for m, c in lin.items() if c}


def test_lex_and_prune_agree_through_change_of_basis():
    # reducing the prune normal form with lex matches reducing directly
    rng = random.Random(10)
    for _ in range(30):
        m = random_loopfree_monomial(rng, 5)
        assert lex_normal_form(prune_normal_form(m)) == lex_normal_form(m)


# -- enumeration -------------------------------------------------------------------

def test_set_partitions_counts():
    assert sum(1 for _ in set_partitions(list(range(1, 5)))) == 15  # Bell(4)
    assert sum(1 for _ in set_partitions(list(range(1, 5)), 2)) == 7


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(0, 4)])
def test_chain_gang_count_is_lah(n, k):
    assert len(enumerate_chain_gangs(n, k)) == lah_by_enumeration(n, n - k)


def test_chain_gang_examples():
    assert len(enumerate_chain_gangs(3, 2)) == 6
    assert len(enumerate_chain_gangs(4, 2)) == 36
    assert enumerate_chain_gangs(3, 3) == []
    assert enumerate_chain_gangs(5, 0) == [WedgeMonomial(())]


def test_chain_gang_enumeration_matches_predicate():
    for n, k in [(4, 2), (4, 3)]:
        gens = [G(i, j) for i, j in itertools.permutations(range(1, n + 1), 2)]
        scan = sorted(
            WedgeMonomial(tuple(sorted(edges)))
            for edges in itertools.combinations(gens, k)
            if Forest(n, edges).is_forest()
            and Forest(n, edges).is_chain_gang())
        assert scan == enumerate_chain_gangs(n, k)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(0, 4)])
def test_updown_count_is_lah(n, k):
    assert len(enumerate_updown(n, k)) == lah_by_enumeration(n, n - k)


def test_updown_examples():
    assert len(enumerate_updown(4, 1)) == 12
    assert len(enumerate_updown(4, 3)) == 24 == len(enumerate_chain_gangs(4, 3))


def test_updown_enumeration_matches_nine_exclusions():
    for n, k in [(4, 2), (4, 3)]:
        gens = [G(i, j) for i, j in itertools.permutations(range(1, n + 1), 2)]
        scan = sorted(
            WedgeMonomial(tuple(sorted(edges)))
            for edges in itertools.combinations(gens, k)
            if Forest(n, edges).is_updown_forest())
        assert scan == enumerate_updown(n, k)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(0, 4)])
def test_down_and_up_counts_are_stirling(n, k):
    expect_down = stirling2(n, n - k) if n - k >= 0 else 0
    expect_up = stirling1(n, n - k) if n - k >= 0 else 0
    assert len(enumerate_down(n, k)) == expect_down
    assert len(enumerate_up(n, k)) == expect_up


def test_down_up_enumerations_match_predicates():
    n = 4
    gens = [G(i, j) for i, j in itertools.permutations(range(1, n + 1), 2)]
    for k in (1, 2, 3):
        down = sorted(WedgeMonomial(tuple(sorted(e)))
                      for e in itertools.combinations(gens, k)
                      if Forest(n, e).is_down_forest())
        up = sorted(WedgeMonomial(tuple(sorted(e)))
                    for e in itertools.combinations(gens, k)
                    if Forest(n, e).is_up_forest())
        assert down == enumerate_down(n, k)
        assert up == enumerate_up(n, k)


def test_updown_monomials_are_up_plus_down_parts():
    for m in enumerate_updown(5, 3):
        up = [e for e in m.edges if e.i < e.j]
        down = [e for e in m.edges if e.i > e.j]
        assert Forest(5, up).is_up_forest()
        assert Forest(5, down).is_down_forest()


def test_two_step_partition_validation():
    with pytest.raises(ValueError):
        OrderedTwoStepPartition(cycles=((2, 1),), groups=((1,),))
    with pytest.raises(ValueError):
        OrderedTwoStepPartition(cycles=((1, 2),), groups=((2,),))
    p = OrderedTwoStepPartition(cycles=((1, 3), (2,)), groups=((1, 2),))
    assert p.edge_count == 2
    assert p.monomial() == mono("1>3,2>1")


def test_two_step_partitions_biject_with_monomials():
    for n, k in [(4, 2), (5, 3)]:
        parts = list(ordered_two_step_partitions(n, k))
        monos = [p.monomial() for p in parts]
        assert len(set(monos)) == len(monos) == lah_by_enumeration(n, n - k)


# -- Lah / Stirling ------------------------------------------------------------------

def test_diagonal_values():
    for n in range(0, 6):
        assert lah(n, n) == stirling1(n, n) == stirling2(n, n) == 1


def test_lah_36():
    assert lah(4, 2) == 36
    assert lah_by_enumeration(4, 2) == 36


def test_lah_stirling_identity_example():
    # s(4,2) S(2,2) + s(4,3) S(3,2) + s(4,4) S(4,2) = 11 + 6*3 + 7
    assert stirling1(4, 2) == 11 and stirling2(3, 2) == 3 and stirling2(4, 2) == 7
    assert sum(stirling1(4, l) * stirling2(l, 2) for l in range(5)) == 36


@pytest.mark.parametrize("n", range(0, 9))
def test_lah_recurrence_matches_enumeration(n):
    for k in range(0, n + 1):
        assert lah(n, k) == lah_by_enumeration(n, k)


@lru_cache(maxsize=None)
def _recursive_lah(n, k):
    if n == 0 or k == 0:
        return 1 if n == k else 0
    return _recursive_lah(n - 1, k - 1) + (n + k - 1) * _recursive_lah(n - 1, k)


@lru_cache(maxsize=None)
def _recursive_stirling1(n, k):
    if n == 0 or k == 0:
        return 1 if n == k else 0
    return _recursive_stirling1(n - 1, k - 1) + (n - 1) * _recursive_stirling1(n - 1, k)


@lru_cache(maxsize=None)
def _recursive_stirling2(n, k):
    if n == 0 or k == 0:
        return 1 if n == k else 0
    return _recursive_stirling2(n - 1, k - 1) + k * _recursive_stirling2(n - 1, k)


def test_row_recurrences_match_former_recursions():
    # oracles: the former recursive definitions, one call per (n, k)
    for n in range(0, 31):
        for k in range(0, 33):
            assert lah(n, k) == _recursive_lah(n, k)
            assert stirling1(n, k) == _recursive_stirling1(n, k)
            assert stirling2(n, k) == _recursive_stirling2(n, k)
    for f in (lah, stirling1, stirling2):
        with pytest.raises(ValueError):
            f(-1, 0)
        with pytest.raises(ValueError):
            f(3, -1)


def test_row_recurrences_pass_the_recursion_limit():
    assert lah(1200, 1200) == stirling1(1200, 1200) == stirling2(1200, 1200) == 1
    assert lah(1200, 1199) == 1200 * 1199
    assert stirling1(1200, 1) == math.factorial(1199)
    assert stirling2(1200, 2) == 2 ** 1199 - 1


def _recursive_set_partitions(items, lo, hi):
    """Oracle: the former recursive enumeration."""
    if not items:
        if lo <= 0 <= hi:
            yield []
        return
    first, rest = items[0], items[1:]
    for part in _recursive_set_partitions(rest, lo - 1, hi):
        if len(part) < hi:
            yield [[first]] + part
        if len(part) >= lo:
            for t in range(len(part)):
                yield part[:t] + [[first] + part[t]] + part[t + 1:]


def test_set_partitions_match_former_recursion():
    for n in range(0, 8):
        items = list(range(1, n + 1))
        for lo in range(-1, n + 2):
            for hi in range(-1, n + 2):
                assert list(gb._set_partitions(items, lo, hi)) == \
                    list(_recursive_set_partitions(items, lo, hi))


@pytest.mark.parametrize("n, edges", [(0, None), (1, 0), (5, None), (6, 3),
                                      (7, 4), (7, 6)])
def test_two_step_partitions_build_each_minima_partition_once(n, edges,
                                                             monkeypatch):
    # the former build, one minima enumeration per set partition, in order
    lo, hi = (0, n) if edges is None else (n - edges, n - edges)
    former = [(part, list(_recursive_set_partitions(sorted(map(min, part)),
                                                    lo, hi)))
              for part in _recursive_set_partitions(list(range(1, n + 1)),
                                                    lo, n)]
    calls = []
    set_partitions = gb._set_partitions

    def spy(items, lo, hi):
        calls.append(tuple(items))
        return set_partitions(items, lo, hi)

    monkeypatch.setattr(gb, "_set_partitions", spy)
    assert list(gb._two_step_partitions(n, edges)) == former
    minima = calls[1:]  # after the set partitions of [n]
    assert len(minima) == len(set(minima)) <= 2 ** max(n - 1, 0)


def test_set_partitions_pass_the_recursion_limit():
    items = list(range(1, 1201))
    assert list(set_partitions(items, 1200)) == [[[x] for x in items]]
    assert list(set_partitions(items, 1)) == [[items]]


# -- randomized verification suites ---------------------------------------------------

def test_confluence_check_passes():
    rep = confluence_check(5, trials=50, seed=123)
    assert rep.passed
    assert rep.actual["cases"] == {"X": True, "Y": True, "Z": True}


def test_confluence_check_deterministic():
    a = confluence_check(4, trials=20, seed=9)
    b = confluence_check(4, trials=20, seed=9)
    assert a.to_json() == b.to_json()


def test_multiplicativity_of_defect():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(4, 7)
        join_term, others = random_relation_multiple(rng, n)
        d = join_term.defect()
        for o in others:
            assert d > o.defect()


def test_coproduct_table_passes():
    rep = coproduct_table_check(4)
    assert rep.passed
    assert rep.params["formulas"] == 14
    assert rep.payload["instances"] == 14 * 24


def test_coproduct_specific_rows():
    # chain (x) a following edge appends to the chain
    assert prune_normal_form((G(1, 2), G(2, 3), G(3, 4))) == \
        combo(("1>2,2>3,3>4", 1))
    # chain (x) an edge into its head rotates to the front
    assert prune_normal_form((G(1, 2), G(2, 3), G(4, 1))) == \
        combo(("4>1,1>2,2>3", 1))


@pytest.mark.parametrize("n", [3, 4])
def test_change_of_basis_is_invertible(n):
    for k in (1, 2, 3):
        cg = enumerate_chain_gangs(n, k)
        ud = enumerate_updown(n, k)
        assert len(cg) == len(ud)
        index = {m: t for t, m in enumerate(ud)}
        rows = []
        for m in cg:
            nf = lex_normal_form(m)
            assert set(nf) <= set(index)
            rows.append({index[t]: c for t, c in nf.items()})
        mat = SparseMatrix(rows, columns=list(range(len(ud))))
        assert mat.rank() == len(rows) == len(ud)


def test_tiny_n_enumerations_return_unit_only():
    unit = WedgeMonomial(())
    assert enumerate_chain_gangs(0, 0) == [unit]
    assert enumerate_chain_gangs(1, 0) == [unit]
    assert enumerate_chain_gangs(1, 1) == []
    assert enumerate_updown(1, 0) == [unit]
    assert enumerate_down(1, 0) == [unit]
    assert enumerate_up(1, 0) == [unit]


def test_lex_kills_loops():
    assert lex_normal_form((G(1, 2), G(2, 3), G(3, 1))) == {}
    assert lex_normal_form((G(1, 2), G(2, 3), G(3, 4), G(4, 1))) == {}


# -- the rewriting driver against the former per-system loops ------------------
#
# Test-local copies of the two stack loops the driver replaced, with the
# helpers it changed (canonicalization and signs, the join search, its key and
# its application, the lex rule table built per call, and the loop handling:
# the shortest-cycle search, the opposite-pair test and the chain un-prune
# rule).  Results must agree term by term and in the order the result dicts
# are built.

def _old_canonical(edges):
    edges = tuple(G(*e) for e in edges)
    if len(set(edges)) != len(edges):
        return None, 0
    order = sorted(range(len(edges)), key=lambda t: edges[t])
    inv = sum(1 for a in range(len(order)) for b in range(a + 1, len(order))
              if order[a] > order[b])
    return tuple(edges[t] for t in order), (-1 if inv % 2 else 1)


def _old_extract_sign(mono, first, second):
    rest = [t for t in range(len(mono)) if t != first and t != second]
    order = [first, second] + rest
    inv = sum(1 for a in range(len(order)) for b in range(a + 1, len(order))
              if order[a] > order[b])
    return -1 if inv % 2 else 1


def _old_find_joins(mono):
    out = []
    for p in range(len(mono)):
        for q in range(p + 1, len(mono)):
            if mono[p].i == mono[q].i:
                out.append(("V", p, q))
            if mono[p].j == mono[q].j:
                out.append(("A", p, q))
    return out


def _old_join_key(mono, move):
    kind, p, q = move
    a, b = mono[p], mono[q]
    return (tuple(sorted({a.i, a.j, b.i, b.j})), kind, a, b)


def _old_apply_join(mono, coeff, move):
    kind, p, q = move
    a, b = mono[p], mono[q]
    rest = tuple(mono[t] for t in range(len(mono)) if t != p and t != q)
    s = _old_extract_sign(mono, p, q) * coeff
    if kind == "V":
        i, j = a
        k = b.j
        return [((G(i, j), G(j, k)) + rest, s), ((G(i, k), G(k, j)) + rest, -s)]
    i, k = a
    j = b.i
    return [((G(i, j), G(j, k)) + rest, s), ((G(j, i), G(i, k)) + rest, -s)]


def _old_apply_chain_unprune(mono, coeff, p, q):
    a, b = mono[p].i, mono[p].j
    c = mono[q].j
    rest = tuple(mono[t] for t in range(len(mono)) if t != p and t != q)
    s = _old_extract_sign(mono, p, q) * coeff
    return [((G(a, c), G(b, c)) + rest, s), ((G(b, a), G(a, c)) + rest, s)]


def _old_shortest_cycle(mono):
    """Edge positions of a shortest undirected cycle, or None if acyclic."""
    adj = {}
    for pos, e in enumerate(mono):
        adj.setdefault(e.i, []).append((e.j, pos))
        adj.setdefault(e.j, []).append((e.i, pos))
    best = None
    for root in sorted(adj):
        dist = {root: 0}
        parent = {root: (None, None)}
        dq = deque([root])
        while dq:
            u = dq.popleft()
            for v, pos in sorted(adj[u]):
                if parent[u][1] == pos:
                    continue
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = (u, pos)
                    dq.append(v)
                else:
                    pu, pv = u, v
                    path_u = []
                    path_v = []
                    while pu != pv:
                        if dist[pu] >= dist[pv]:
                            path_u.append(parent[pu][1])
                            pu = parent[pu][0]
                        else:
                            path_v.append(parent[pv][1])
                            pv = parent[pv][0]
                    cyc = path_u + [pos] + path_v
                    if len(cyc) >= 3 and (best is None or len(cyc) < len(best)):
                        best = cyc
    return best


def _old_has_opposite_pair(mono):
    s = set(mono)
    return any(G(e.j, e.i) in s for e in mono)


def _old_initial_stack(m):
    if isinstance(m, WedgeMonomial):
        return [(m.edges, Fraction(1))]
    if isinstance(m, dict):
        return [(mono.edges, Fraction(c)) for mono, c in m.items()]
    mono, sign = _old_canonical(m)
    return [] if mono is None else [(mono, Fraction(sign))]


def _old_prune_normal_form(m, strategy=None):
    stack = _old_initial_stack(m)
    result = {}
    while stack:
        raw, coeff = stack.pop()
        mono, sign = _old_canonical(raw)
        if mono is None:
            continue
        coeff = coeff * sign
        if _old_has_opposite_pair(mono):
            continue
        cycle = _old_shortest_cycle(mono)
        if cycle is not None:
            on = set(cycle)
            joins = [mv for mv in _old_find_joins(mono)
                     if mv[1] in on and mv[2] in on]
            if joins:
                move = min(joins, key=lambda mv: _old_join_key(mono, mv))
                stack.extend(_old_apply_join(mono, coeff, move))
                continue
            chain = min(((p, q) for p in cycle for q in cycle
                         if p != q and mono[p].j == mono[q].i),
                        key=lambda pq: (mono[pq[0]], mono[pq[1]]))
            stack.extend(_old_apply_chain_unprune(mono, coeff, *chain))
            continue
        joins = _old_find_joins(mono)
        if not joins:
            gb._combine(result, WedgeMonomial(mono), coeff)
            continue
        if strategy is None:
            move = min(joins, key=lambda mv: _old_join_key(mono, mv))
        else:
            move = strategy(mono, joins)
        stack.extend(_old_apply_join(mono, coeff, move))
    return result


def _old_lex_rewrite(a, b):
    if (a.j, a.i) == tuple(b):
        return []
    verts = sorted({a.i, a.j, b.i, b.j})
    if len(verts) != 3:
        return None
    i, j, k = verts
    table = {
        frozenset({G(i, k), G(j, k)}): (
            (G(i, k), G(j, k)),
            [((G(i, j), G(j, k)), 1), ((G(j, i), G(i, k)), -1)]),
        frozenset({G(k, j), G(j, i)}): (
            (G(k, j), G(j, i)),
            [((G(j, i), G(i, k)), 1), ((G(j, i), G(j, k)), -1),
             ((G(j, i), G(k, i)), -1)]),
        frozenset({G(k, i), G(k, j)}): (
            (G(k, i), G(k, j)),
            [((G(k, i), G(i, j)), 1), ((G(j, i), G(i, k)), -1),
             ((G(j, i), G(j, k)), 1), ((G(j, i), G(k, i)), 1)]),
        frozenset({G(i, k), G(k, j)}): (
            (G(i, k), G(k, j)),
            [((G(i, j), G(j, k)), 1), ((G(i, j), G(i, k)), -1)]),
        frozenset({G(j, k), G(k, i)}): (
            (G(j, k), G(k, i)),
            [((G(j, i), G(i, k)), 1), ((G(j, i), G(j, k)), -1)]),
        frozenset({G(i, j), G(k, j)}): (
            (G(i, j), G(k, j)),
            [((G(i, j), G(j, k)), 1), ((G(i, j), G(i, k)), -1),
             ((G(k, i), G(i, j)), -1)]),
    }
    return table.get(frozenset({a, b}))


def _old_lex_normal_form(m):
    stack = _old_initial_stack(m)
    result = {}
    while stack:
        raw, coeff = stack.pop()
        mono, sign = _old_canonical(raw)
        if mono is None:
            continue
        coeff = coeff * sign
        hit = None
        for p in range(len(mono)):
            for q in range(p + 1, len(mono)):
                rw = _old_lex_rewrite(mono[p], mono[q])
                if rw is not None:
                    hit = (p, q, rw)
                    break
            if hit:
                break
        if hit is None:
            gb._combine(result, WedgeMonomial(mono), coeff)
            continue
        p, q, rw = hit
        if rw == []:
            continue
        lhs_order, rhs = rw
        rest = tuple(mono[t] for t in range(len(mono)) if t != p and t != q)
        s = _old_extract_sign(mono, p, q) * coeff
        if (mono[p], mono[q]) != lhs_order:
            s = -s
        for pair, pc in rhs:
            stack.append((pair + rest, s * pc))
    return result


@st.composite
def wedge_inputs(draw):
    """A raw factor word on n <= 6 strands (loops, opposite pairs and
    repeats allowed) and a combination of its monomial with up to two more,
    under non-unit rational coefficients."""
    n = draw(st.integers(2, 6))
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(
        lambda e: e[0] != e[1])
    words = draw(st.lists(st.lists(pair, max_size=5), min_size=1, max_size=3))
    coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(
        lambda c: c not in (0, 1, -1))
    element = {}
    for word in words:
        mono, _ = WedgeMonomial.from_factors(word)
        if mono is not None:
            element[mono] = draw(coeffs)
    return words[0], element


def _picker(seed):
    rng = random.Random(seed)
    return lambda mono, joins: joins[rng.randrange(len(joins))]


@settings(max_examples=150, deadline=None)
@given(wedge_inputs(), st.integers(0, 2**16))
def test_driver_matches_former_loops(inputs, seed):
    word, element = inputs
    for m in (word, element):
        for new, old in ((prune_normal_form(m), _old_prune_normal_form(m)),
                         (prune_normal_form(m, _picker(seed)),
                          _old_prune_normal_form(m, _picker(seed))),
                         (lex_normal_form(m), _old_lex_normal_form(m))):
            assert list(new.items()) == list(old.items())


@pytest.mark.parametrize("reduce, system", [
    (prune_normal_form, "pruning"), (lex_normal_form, "lex rewriting")])
def test_rewrite_step_bound(monkeypatch, reduce, system):
    m = mono("1>4,2>4,3>4")  # overlap Y: several steps in either system
    want = reduce(m)
    monkeypatch.setattr(gb, "REWRITE_STEP_BOUND", 3)
    with pytest.raises(RuntimeError,
                       match=f"^{system} did not terminate within 3 steps$"):
        reduce(m)
    monkeypatch.undo()
    assert reduce(m) == want


def test_rewrite_bound_counts_pushed_terms(monkeypatch):
    returned = []

    def faulty_step(mono, coeff):  # never normal, four successors each time
        successors = [(mono, coeff)] * 4
        returned.extend(successors)
        return successors

    monkeypatch.setattr(gb, "REWRITE_STEP_BOUND", 20)
    with pytest.raises(RuntimeError,
                       match="^faulty did not terminate within 20 steps$"):
        gb._rewrite(mono("1>2"), faulty_step, "faulty")
    assert 1 + len(returned) <= 20 + 4  # the input term plus one last step


# -- loops are zero on entry, and the rules keep forests -------------------------

def _forest_checked(step):
    """`step`, asserting that it is given a forest and makes only forests."""
    def checked(edges, coeff):
        assert gb._acyclic(edges), edges
        successors = step(edges, coeff)
        for succ, _ in successors or ():
            assert gb._acyclic(succ), (edges, succ)
        return successors
    return checked


def test_steps_see_and_make_forests_only():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(2, 7)
        word = [rng.sample(range(1, n + 1), 2) for _ in range(rng.randint(1, n))]
        forest = random_loopfree_monomial(rng, n)
        picker = _picker(rng.random())
        for m in (word, forest):
            for strategy in (None, picker):
                step = _forest_checked(
                    lambda e, c: gb._prune_step(e, c, strategy))
                assert gb._rewrite(m, step, "pruning") == prune_normal_form(m)
            assert gb._rewrite(m, _forest_checked(gb._lex_step),
                               "lex rewriting") == lex_normal_form(m)


def _loops(rng):
    """Directed cycles of length 2..30, cycles of mixed orientation, and
    cycles with trees hanging off them, as raw words on vertices from 1."""
    def relabel(edges, shuffle=True):
        labels = list(range(1, 2 * len(edges) + 2))
        if shuffle:
            rng.shuffle(labels)
        word = [(labels[a], labels[b]) for a, b in edges]
        if shuffle:
            rng.shuffle(word)
        return word

    for length in range(2, 31):
        cycle = [(t, (t + 1) % length) for t in range(length)]
        yield relabel(cycle, shuffle=False)
        yield relabel(cycle)
    for _ in range(40):
        length = rng.randint(3, 12)
        cycle = [(t, (t + 1) % length) if rng.random() < 0.5
                 else ((t + 1) % length, t) for t in range(length)]
        yield relabel(cycle)
        tails = []
        for v in range(length, length + rng.randint(1, 6)):
            u = rng.randrange(v)
            tails.append((u, v) if rng.random() < 0.5 else (v, u))
        yield relabel(cycle + tails)


@pytest.mark.parametrize("reduce", [prune_normal_form, lex_normal_form])
def test_loops_reduce_to_zero_without_a_step(monkeypatch, reduce):
    monkeypatch.setattr(gb, "REWRITE_STEP_BOUND", 1)
    rng = random.Random(5)
    for word in _loops(rng):
        assert not gb._acyclic(tuple(G(*e) for e in word))
        assert reduce(word) == {}
        loop, _ = WedgeMonomial.from_factors(word)
        assert reduce({loop: Fraction(-3, 2)}) == {}


@st.composite
def replacements(draw):
    """A canonical monomial on n <= 6 strands, positions p < q in it, and a
    replacement pair (x, y) that may repeat a factor or itself."""
    n = draw(st.integers(2, 6))
    edge = st.tuples(st.integers(1, n), st.integers(1, n)).filter(
        lambda e: e[0] != e[1]).map(lambda e: G(*e))
    edges = tuple(sorted(draw(st.sets(edge, min_size=2, max_size=7))))
    p = draw(st.integers(0, len(edges) - 2))
    q = draw(st.integers(p + 1, len(edges) - 1))
    factor = st.sampled_from(edges)
    x = draw(st.one_of(edge, factor))
    y = draw(st.one_of(edge, factor, st.just(x)))
    return edges, p, q, (x, y)


@settings(max_examples=300, deadline=None)
@given(replacements(), st.integers(-3, 3).filter(bool))
def test_replace_pair_matches_sort_and_sign(case, c):
    edges, p, q, (x, y) = case
    assert (-1) ** (p + q - 1) == _old_extract_sign(edges, p, q)
    rest = tuple(e for t, e in enumerate(edges) if t != p and t != q)
    canon, sign = gb._canonical((x, y) + rest)
    want = [] if canon is None else \
        [(canon, _old_extract_sign(edges, p, q) * sign * 5 * c)]
    assert gb._replace_pair(edges, 5, p, q, [((x, y), c)]) == want


@settings(max_examples=100, deadline=None)
@given(wedge_inputs())
def test_normal_form_coefficients_are_fractions(inputs):
    word, element = inputs
    integral = {m: 3 for m in element}
    for m in (word, element, integral, *element):
        for nf in (prune_normal_form(m), lex_normal_form(m)):
            assert all(type(c) is Fraction for c in nf.values())


@pytest.mark.parametrize("n", range(0, 7))
def test_two_step_partitions_at_fixed_edge_count(n):
    full = list(ordered_two_step_partitions(n))
    for k in range(-1, n + 2):
        fixed = list(ordered_two_step_partitions(n, k))
        assert fixed == [p for p in full if p.edge_count == k]
        assert len(fixed) == (lah(n, n - k) if 0 <= k <= n else 0)


# -- vertex-rank patterns ----------------------------------------------------------

@pytest.mark.parametrize("reduce", [prune_normal_form, lex_normal_form])
def test_normal_forms_commute_with_order_preserving_relabeling(reduce):
    rng = random.Random(16)
    for _ in range(40):
        m = random_loopfree_monomial(rng, 7, rng.randint(1, 5))
        labels = [0] + sorted(rng.sample(range(1, 13), 7))  # v -> labels[v]

        def rho(t):  # the constructor checks that rho keeps canonical order
            return WedgeMonomial(tuple(G(labels[e.i], labels[e.j])
                                       for e in t.edges))

        assert reduce(rho(m)) == {rho(t): c for t, c in reduce(m).items()}


def _old_coproduct_table_check(n):
    """Oracle: the former check, which reduced the formulas on every 4-tuple."""
    failures = []
    instances = 0
    for (i, j, k, l) in itertools.permutations(range(1, n + 1), 4):
        env = {"i": i, "j": j, "k": k, "l": l}
        for shape, tensor, rhs in gb._COPRODUCT_ROWS:
            if shape == "chain":
                left = (G(i, j), G(j, k))
            else:
                left = (G(i, j), G(k, l))
            g = G(env[tensor[0]], env[tensor[1]])
            got = prune_normal_form(left + (g,))
            want = {}
            for pattern, c in rhs:
                m, sign = WedgeMonomial.from_factors(
                    [G(env[a], env[b]) for a, b in pattern.split(",")])
                gb._combine(want, m, Fraction(c * sign))
            instances += 1
            if got != want:
                failures.append({"tuple": (i, j, k, l), "shape": shape,
                                 "tensor": tensor})
    return VerificationReport(
        check="coproduct-table",
        params={"n": n, "formulas": len(gb._COPRODUCT_ROWS)},
        expected={"failures": 0},
        actual={"failures": len(failures)},
        payload={"instances": instances, "failing": failures},
    )


@pytest.mark.parametrize("flip", [None, (0, 1), (8, 3), (13, 2)])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_coproduct_patterns_match_every_tuple(monkeypatch, n, flip):
    if flip is not None:  # one coefficient of one row flipped
        row, term = flip
        rows = [(shape, tensor, list(rhs))
                for shape, tensor, rhs in gb._COPRODUCT_ROWS]
        word, c = rows[row][2][term]
        rows[row][2][term] = (word, -c)
        monkeypatch.setattr(gb, "_COPRODUCT_ROWS", rows)
    new, old = coproduct_table_check(n), _old_coproduct_table_check(n)
    assert new.to_json() == old.to_json()
    assert new.payload["failing"] == old.payload["failing"]
    assert new.passed == (flip is None)
    assert new.payload["instances"] == 14 * math.perm(n, 4)


def test_coproduct_reduces_the_24_orders_only(monkeypatch):
    reduced = []

    def counted(m):
        reduced.append(m)
        return prune_normal_form(m)

    monkeypatch.setattr(gb, "prune_normal_form", counted)
    assert coproduct_table_check(8).passed
    assert len(reduced) == 14 * 24


def _old_listings(n, k):
    """Oracle: the former direct enumerations over every partition of [n]."""
    items = list(range(1, n + 1))
    chain_gangs = set()
    for part in set_partitions(items, n - k):
        options = [list(itertools.permutations(block)) for block in part]
        for combo in itertools.product(*options):
            edges = [G(c[t], c[t + 1]) for c in combo for t in range(len(c) - 1)]
            chain_gangs.add(WedgeMonomial(tuple(sorted(edges))))
    points = tuple((v,) for v in items)
    listings = {
        "chain-gangs": chain_gangs,
        "updown": {p.monomial() for p in ordered_two_step_partitions(n, k)},
        "down": [OrderedTwoStepPartition(points, tuple(map(tuple, part))).monomial()
                 for part in set_partitions(items, n - k)],
        "up": [OrderedTwoStepPartition(cycles, tuple((c[0],) for c in cycles)).monomial()
               for part in set_partitions(items, n - k)
               for cycles in gb._cycle_orders(part)],
    }
    return {kind: sorted(m.edges for m in monos) for kind, monos in listings.items()}


_LISTINGS = {"chain-gangs": enumerate_chain_gangs, "updown": enumerate_updown,
             "down": enumerate_down, "up": enumerate_up}


@pytest.mark.parametrize("n", range(0, 9))
def test_listings_match_direct_enumeration(n):
    # every degree for n <= 7; at n = 8 the degrees k <= 3, where n > 2k
    for k in range(0, (n if n < 8 else 3) + 1):
        for kind, want in _old_listings(n, k).items():
            got = _LISTINGS[kind](n, k)
            assert [m.edges for m in got] == want, (kind, n, k)
            assert all(type(m) is WedgeMonomial for m in got)


@pytest.mark.parametrize("kind", sorted(_LISTINGS))
@pytest.mark.parametrize("n, k", [(7, 3), (6, 3), (7, 4), (3, 5), (4, 0), (0, 0)])
def test_listing_builds_only_full_support_shapes(kind, n, k, monkeypatch):
    asked, built = [], []
    listing, wedge = gb._listing, gb._wedge

    def spy(n, k, shapes):
        def checked(v):
            asked.append(v)
            on_v = list(shapes(v))
            for edges in on_v:
                assert len(edges) == k and list(edges) == sorted(set(edges))
                assert {x for e in edges for x in e} == set(range(1, v + 1))
            return iter(on_v)
        return listing(n, k, checked)

    monkeypatch.setattr(gb, "_listing", spy)
    monkeypatch.setattr(gb, "_wedge", lambda edges: built.append(edges) or wedge(edges))
    got = _LISTINGS[kind](n, k)
    assert asked == list(range(min(n, 2 * k) + 1))
    assert len(built) == len(got)


@pytest.mark.parametrize("n, k", [(6, 3), (7, 4)])
def test_updown_builds_each_up_tree_once_per_set_partition(n, k, monkeypatch):
    # one Up tree per cyclic order of each block of each set partition of
    # [v] that carries a full-support forest; 16,354 calls at (7, 4) when
    # every minima partition rebuilt them, against 3,888
    parts = {frozenset(frozenset(c) for c in p.cycles)
             for v in range(min(n, 2 * k) + 1)
             for p in ordered_two_step_partitions(v, k)
             if {x for e in p.monomial().edges for x in e} == set(range(1, v + 1))}
    want = sum(math.factorial(len(b) - 1) for part in parts for b in part)
    calls = []
    up_tree = gb._up_tree_edges
    monkeypatch.setattr(gb, "_up_tree_edges", lambda c: calls.append(c) or up_tree(c))
    enumerate_updown(n, k)
    assert len(calls) == want
