import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qal.exact_core as exact_core
from qal.exact_core import (
    AmbientMismatchError,
    FreeElement,
    Generator,
    SparseMatrix,
    all_generators,
    commutator,
    gen,
    parse_token,
    shift_expand,
    span_membership,
    word_key,
)

R12 = Generator(1, 2)
R21 = Generator(2, 1)
R13 = Generator(1, 3)
R23 = Generator(2, 3)
R34 = Generator(3, 4)


def fe(n, *terms):
    return FreeElement(n, {tuple(w): Fraction(c) for w, c in terms})


# -- generators and words ----------------------------------------------------

def test_generator_validation():
    assert gen(1, 2, n=4) == (1, 2)
    with pytest.raises(ValueError):
        gen(2, 2)
    with pytest.raises(ValueError):
        gen(0, 1)
    with pytest.raises(ValueError):
        gen(1, 5, n=4)
    assert parse_token("r10_2") == Generator(10, 2)
    assert Generator(3, 4).token() == "r3_4"


@pytest.mark.parametrize("tok", ["r1_2_3", "r 1_2", "r+1_2", "r1_ 2",
                                 "r\u0661_2", "r1_2\n", "r_2", "12", "s1_2"])
def test_parse_token_rejects_malformed_tokens(tok):
    with pytest.raises(ValueError, match="bad generator token"):
        parse_token(tok)


def test_word_order_is_degree_then_lex():
    words = [(R12, R12), (), (R34,), (R12,), (R21,)]
    assert sorted(words, key=word_key) == [
        (), (R12,), (R21,), (R34,), (R12, R12)]


def test_all_generators_count():
    assert len(all_generators(4)) == 12
    assert all_generators(2) == [Generator(1, 2), Generator(2, 1)]


# -- free algebra ------------------------------------------------------------

def test_monomial_concatenation():
    a = FreeElement.generator(4, 1, 2)
    b = FreeElement.generator(4, 3, 4)
    assert (a * b).terms() == {(R12, R34): Fraction(1)}


def test_unit_is_identity():
    one = FreeElement.one(4)
    x = fe(4, ((R12, R34), 2), ((R21,), -3), ((), 5))
    assert one * x == x
    assert x * one == x


def test_distributivity_example():
    # (r12 - r21)(r12 + r21) expands with all four signed words
    a = fe(3, ((R12,), 1), ((R21,), -1))
    b = fe(3, ((R12,), 1), ((R21,), 1))
    assert (a * b).terms() == {
        (R12, R12): Fraction(1), (R12, R21): Fraction(1),
        (R21, R12): Fraction(-1), (R21, R21): Fraction(-1)}


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        FreeElement.generator(3, 1, 2) * FreeElement.generator(4, 1, 2)
    with pytest.raises(AmbientMismatchError):
        FreeElement.one(3) + FreeElement.one(4)


def test_zero_coefficients_dropped():
    e = fe(3, ((R12,), 1)) - fe(3, ((R12,), 1))
    assert not e
    assert e.terms() == {}
    assert e.degree() == -1


def test_homogeneous_parts():
    x = fe(4, ((), 1), ((R12,), 2), ((R12, R34), 3))
    assert x.homogeneous_part(1).terms() == {(R12,): Fraction(2)}
    assert x.truncate(1).terms() == {(): Fraction(1), (R12,): Fraction(2)}
    assert not x.is_homogeneous()
    assert x.homogeneous_part(2).is_homogeneous(2)


def test_json_round_trip():
    x = fe(4, ((R12, R34), Fraction(3, 2)), ((R21,), -1))
    data = x.to_json()
    assert {"word": ["r1_2", "r3_4"], "coeff": "3/2"} in data["terms"]
    assert FreeElement.from_json(4, data) == x
    decimal = {"terms": [{"word": ["r1_2"], "coeff": "0.1"}]}
    assert FreeElement.from_json(2, decimal) == fe(2, ((R12,), Fraction(1, 10)))


gens3 = all_generators(3)


@st.composite
def free_elements(draw, n=3, max_len=3, max_terms=4):
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        length = draw(st.integers(0, max_len))
        word = tuple(draw(st.sampled_from(gens3)) for _ in range(length))
        terms.append((word, draw(st.integers(-4, 4))))
    return FreeElement(n, terms)


@settings(max_examples=60, deadline=None)
@given(free_elements(), free_elements(), free_elements())
def test_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=40, deadline=None)
@given(free_elements())
def test_multiplication_unital(a):
    one = FreeElement.one(3)
    assert one * a == a == a * one


# -- shift expansion ---------------------------------------------------------

def test_shift_expand_commutator_truncation():
    # R12 R34 - R34 R12 expands to the bare commutator of the shifted symbols
    c = commutator(FreeElement.generator(4, 1, 2), FreeElement.generator(4, 3, 4))
    assert shift_expand(c, 2) == c
    assert shift_expand(c, 1) == FreeElement.zero(4)


def test_shift_expand_eight_term_relation():
    # R12 R13 R23 - R23 R13 R12, expanded to degree 3, keeps the two cubic
    # words plus the six quadratic commutator words
    y = fe(3, ((R12, R13, R23), 1), ((R23, R13, R12), -1))
    got = shift_expand(y, 3)
    expect = fe(
        3,
        ((R12, R13, R23), 1), ((R23, R13, R12), -1),
        ((R12, R13), 1), ((R12, R23), 1), ((R13, R23), 1),
        ((R23, R13), -1), ((R23, R12), -1), ((R13, R12), -1))
    assert got == expect


def test_shift_expand_unit_fixed_point():
    one = FreeElement.one(3)
    assert shift_expand(one, 0) == one
    assert shift_expand(one, 5) == one


@settings(max_examples=40, deadline=None)
@given(free_elements(max_len=2, max_terms=3),
       free_elements(max_len=2, max_terms=3),
       st.integers(0, 3))
def test_shift_expand_is_multiplicative_up_to_truncation(p, q, d):
    lhs = shift_expand(p * q, d)
    rhs = (shift_expand(p, d) * shift_expand(q, d)).truncate(d)
    assert lhs == rhs


# -- sparse linear algebra ---------------------------------------------------

def test_nullspace_rank_one():
    m = SparseMatrix([{0: 1, 1: 1}, {0: 2, 1: 2}])
    assert m.rank() == 1
    assert m.nullspace() == [{0: Fraction(1), 1: Fraction(-1)}]


def test_nullspace_identity_empty():
    m = SparseMatrix([{0: 1}, {1: 1}, {2: 1}])
    assert m.rank() == 3
    assert m.nullspace() == []


def test_nullspace_vectors_are_exact_kernel_elements():
    rng = random.Random(42)
    for _ in range(25):
        rows = [{c: rng.randint(-3, 3) for c in rng.sample(range(6), rng.randint(1, 4))}
                for _ in range(rng.randint(1, 7))]
        rows = [{c: v for c, v in r.items() if v} for r in rows]
        rows = [r for r in rows if r]
        if not rows:
            continue
        m = SparseMatrix(rows, columns=list(range(6)))
        rank = m.rank()
        cached = {pc: dict(row) for pc, row in m._ensure_echelon().pivots.items()}
        kernel = m.nullspace()
        # the kernel is read off a copy: the cached echelon is untouched
        assert m._ensure_echelon().pivots == cached and m.rank() == rank
        # rank-nullity, exact
        assert rank + len(kernel) == 6
        for x in kernel:
            for row in rows:
                assert sum(Fraction(v) * x.get(c, 0) for c, v in row.items()) == 0


def _dense_nullspace(m):
    """Oracle: nullspace() with the O(free x pivots) back-substitution that
    solves every pivot row, in descending pivot order, for each free column."""
    ech = m._ensure_echelon()
    kernel = []
    for f in range(len(m.columns)):
        if f in ech.pivots:
            continue
        x = {f: Fraction(1)}
        for pc in sorted(ech.pivots, reverse=True):
            row = ech.pivots[pc]
            s = sum((v * x[c] for c, v in row.items() if c != pc and c in x),
                    Fraction(0))
            if s:
                x[pc] = -s / row[pc]
        den = 1
        for v in x.values():
            den = den * v.denominator // gcd(den, v.denominator)
        ix = {c: int(v * den) for c, v in x.items() if v}
        g = 0
        for v in ix.values():
            g = gcd(g, v)
        sign = -1 if ix[min(ix)] < 0 else 1
        kernel.append({m.columns[c]: Fraction(sign * v, g)
                       for c, v in sorted(ix.items())})
    return kernel


@st.composite
def sparse_int_matrices(draw):
    ncols = draw(st.integers(1, 9))
    rows = draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), st.integers(-4, 4),
                        max_size=4),
        max_size=8))
    return SparseMatrix(rows, columns=list(range(ncols)))


@settings(max_examples=300, deadline=None)
@given(sparse_int_matrices())
def test_nullspace_matches_dense_back_substitution(m):
    kernel = m.nullspace()
    assert kernel == _dense_nullspace(m)
    assert m.rank() + len(kernel) == len(m.columns)
    for x in kernel:
        for row in m.rows:
            assert sum(v * x.get(c, 0) for c, v in row.items()) == 0


class _ScaleAlwaysEchelon(exact_core._Echelon):
    """Oracle: the echelon whose reduce scales the whole row by the pivot
    entry at every step, with no exact-quotient shortcut."""

    def reduce(self, row):
        row = dict(row)
        while row:
            c = min(row)
            p = self.pivots.get(c)
            if p is None:
                return row, c
            a, b = p[c], row[c]
            new = {col: a * v for col, v in row.items()}
            for col, v in p.items():
                w = new.get(col, 0) - b * v
                if w:
                    new[col] = w
                elif col in new:
                    del new[col]
            row = new
        return row, None


@settings(max_examples=300, deadline=None)
@given(sparse_int_matrices(),
       st.dictionaries(st.integers(0, 9), st.integers(-4, 4), max_size=4))
def test_quotient_step_matches_scale_always_reduce(m, v):
    with mock.patch.object(exact_core, "_Echelon", _ScaleAlwaysEchelon):
        oracle = SparseMatrix(m.rows, columns=m.columns)
        oracle_kernel = oracle.nullspace()
        oracle_member = span_membership(v, m.rows)
    ech, ref = m._ensure_echelon(), oracle._ensure_echelon()
    assert type(ech) is exact_core._Echelon
    assert ech.pivots.keys() == ref.pivots.keys()
    for pc, row in ech.pivots.items():
        other = ref.pivots[pc]
        assert row.keys() == other.keys()
        assert all(row[c] * other[pc] == other[c] * row[pc] for c in row)
    assert m.nullspace() == oracle_kernel
    assert span_membership(v, m.rows) == oracle_member


def test_from_columns_orientation():
    cols = {"a": {"w1": 1, "w2": 2}, "b": {"w1": -1, "w2": -2}}
    m = SparseMatrix.from_columns(cols)
    assert m.shape == (2, 2)
    assert m.nullspace() == [{"a": Fraction(1), "b": Fraction(1)}]


def test_span_membership_decomposition():
    b1 = {0: 1, 1: 2}
    b2 = {1: 1, 2: -1}
    v = {0: 1, 1: 4, 2: -2}  # b1 + 2 b2
    assert span_membership(v, [b1, b2]) == [Fraction(1), Fraction(2)]
    assert span_membership({}, [b1, b2]) == [Fraction(0), Fraction(0)]
    assert span_membership({2: 1}, [b1]) is None


def test_span_membership_reconstructs_exactly():
    rng = random.Random(5)
    for _ in range(20):
        basis = [{c: rng.randint(-3, 3) for c in range(5)} for _ in range(3)]
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
        v = {}
        for cf, b in zip(coeffs, basis):
            for c, x in b.items():
                v[c] = v.get(c, Fraction(0)) + cf * x
        v = {c: x for c, x in v.items() if x}
        got = span_membership(v, basis)
        assert got is not None
        recon = {}
        for cf, b in zip(got, basis):
            for c, x in b.items():
                recon[c] = recon.get(c, Fraction(0)) + cf * x
        assert {c: x for c, x in recon.items() if x} == v


def test_in_row_span():
    m = SparseMatrix([{0: 1, 1: 1}, {1: 1, 2: 1}])
    assert m.in_row_span({0: 1, 2: -1})       # row1 - row2
    assert not m.in_row_span({0: 1})
    assert not m.in_row_span({3: 1})          # outside the column space


def test_nullspace_deterministic():
    rows = [{0: 1, 2: 3}, {1: 2, 2: -1}, {0: 2, 1: 4, 2: 4}]
    a = SparseMatrix(rows, columns=[0, 1, 2]).nullspace()
    b = SparseMatrix(list(reversed(rows)), columns=[0, 1, 2]).nullspace()
    assert a == b


def test_terms_iterate_in_canonical_order():
    x = fe(4, ((R12, R34), 1), ((), 5), ((R34,), 2), ((R12,), 3))
    assert list(x.terms()) == sorted(x.terms(), key=word_key)


def _nonzero(row):
    return {c: v for c, v in row.items() if v}


@settings(max_examples=300, deadline=None)
@given(sparse_int_matrices())
def test_back_reduce_clears_pivot_columns_and_keeps_the_span(m):
    ech = exact_core._Echelon()
    ech.pivots = {pc: dict(row) for pc, row in m._ensure_echelon().pivots.items()}
    ech.back_reduce()
    # the rows with a repeat and a dependent one, given to the constructor or
    # inserted one at a time in the given order: same pivots and reduced rows
    rows = [row for row in map(_nonzero, m.rows) if row]
    if rows:
        a, b = rows[0], rows[-1]
        rows += [a, _nonzero({c: 2 * a.get(c, 0) - b.get(c, 0) for c in a | b})]
    rows = [row for row in rows if row]
    one_by_one = exact_core._Echelon()
    for row in rows:
        one_by_one.insert(row)
    together = exact_core._Echelon(rows)
    one_by_one.back_reduce()
    together.back_reduce()
    assert together.pivots == one_by_one.pivots == ech.pivots
    assert ech.pivots.keys() == m._ensure_echelon().pivots.keys()
    for pc, row in ech.pivots.items():
        assert min(row) == pc and row[pc] > 0
        assert not any(c in ech.pivots for c in row if c != pc)
        g = 0
        for v in row.values():
            g = gcd(g, v)
        assert g == 1
        assert m.in_row_span(row)      # distinct pivots: the spans are equal


def _fraction_int_row(vec, label_index=None):
    """Oracle: every entry made a Fraction, scaled by the lcm of their
    denominators."""
    den = 1
    pairs = []
    for lab, c in vec.items():
        c = Fraction(c)
        if c:
            pairs.append((lab if label_index is None else label_index[lab], c))
            den = den * c.denominator // gcd(den, c.denominator)
    return den, {t: int(c * den) for t, c in pairs}


_entries = st.one_of(
    st.integers(-50, 50),
    st.fractions(-20, 20, max_denominator=12),
    st.integers(-20, 20).map(Fraction),
    st.sampled_from([0, Fraction(0)]))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text("abcdef", min_size=1, max_size=3), _entries,
                       max_size=8),
       st.booleans())
def test_int_row_matches_fraction_scaling(vec, indexed):
    index = {lab: 7 * t for t, lab in enumerate(sorted(vec))} if indexed else None
    den, row = exact_core._int_row(vec, index)
    assert (den, row) == _fraction_int_row(vec, index)
    assert all(type(v) is int for v in row.values())


def test_exact_keeps_integral_values_as_ints():
    for c, want in ((3, 3), (Fraction(6, 2), 3), ("-4", -4), (True, 1),
                    (Fraction(1, 2), Fraction(1, 2)), ("-9/2", Fraction(-9, 2))):
        got = exact_core._exact(c)
        assert got == want and type(got) is type(want)
