import hashlib
import io
import itertools
import math
from fractions import Fraction
from math import gcd

import pytest

from qal.cli import run
from qal.exact_core import FreeElement, Generator, SparseMatrix, span_membership
from qal.graph_basis import lah_by_enumeration, stirling1, stirling2
import qal.pvb_family as pvb_family
from qal.pvb_family import (
    AlgebraFamily,
    Family,
    RelatorSymbol,
    load,
    presentation,
    psi_image_check,
    quadratic_relators,
    relator_symbols,
)
from qal.report import VerificationReport

from tests.oracles import group_image, shift_expand

R = Generator


def pvb(n):
    return AlgebraFamily(Family.PVB, n)


def y_relator(n, i, j, k):
    """The quadratic relator y_ijk, through its symbol."""
    return RelatorSymbol.y(i, j, k).quad_image(n)


def c_relator(n, ij, kl):
    """The quadratic relator [r_ij, r_kl] for any order of the two pairs,
    through the canonical C symbol and its sign."""
    sym, sign = RelatorSymbol.c(ij, kl)
    return sign * sym.quad_image(n)


# -- family / symbols ---------------------------------------------------------

def test_generator_counts():
    assert len(pvb(4).generators) == 4 * 3
    assert len(AlgebraFamily.parse("pfb", 4).generators) == 6
    assert len(AlgebraFamily.parse("pb", 4).generators) == 6
    for fam in Family:
        for n in range(2, 7):
            f = AlgebraFamily(fam, n)
            assert f.dim_v == len(f.generators)
    with pytest.raises(ValueError):
        AlgebraFamily(Family.PVB, 1)


def test_relator_symbol_canonicalization():
    s, sign = RelatorSymbol.c((1, 2), (3, 4))
    assert sign == 1 and s.indices == ((1, 2), (3, 4))
    s2, sign2 = RelatorSymbol.c((3, 4), (1, 2))
    assert sign2 == -1 and s2 == s
    assert str(s) == "C_12^34"
    assert str(RelatorSymbol.y(1, 2, 3)) == "Y_123"
    with pytest.raises(ValueError):
        RelatorSymbol.y(1, 1, 2)
    with pytest.raises(ValueError):
        RelatorSymbol.c((1, 2), (2, 3))


def test_relator_symbol_text_and_order_are_pinned():
    y, c = RelatorSymbol.y(1, 2, 3), RelatorSymbol.c((1, 2), (3, 4))[0]
    assert (str(y), repr(y)) == (
        "Y_123", "RelatorSymbol(kind='Y', indices=(1, 2, 3))")
    assert (str(c), repr(c)) == (
        "C_12^34", "RelatorSymbol(kind='C', indices=((1, 2), (3, 4)))")
    # every C symbol before every Y symbol, each in lexicographic order
    names = [str(s) for s in relator_symbols(5)]
    assert len(names) == 120
    assert names[:8] == ["C_12^34", "C_12^35", "C_12^43", "C_12^45",
                         "C_12^53", "C_12^54", "C_13^24", "C_13^25"]
    assert names[-3:] == ["Y_541", "Y_542", "Y_543"]
    assert hashlib.sha256(" ".join(names).encode()).hexdigest() == \
        "9888c327548c89d99c90f125e8aff50a1b64c97d61d40c767e7aaabc58c9aa41"
    assert relator_symbols(5) == sorted(relator_symbols(5), key=str)


def test_symbol_count():
    # ordered triples plus unordered pairs of disjoint ordered pairs
    assert len(relator_symbols(3)) == 6
    assert len(relator_symbols(4)) == 24 + 12
    assert len(relator_symbols(2)) == 0


# -- group-level relators ------------------------------------------------------

def test_group_relator_y():
    img = group_image(RelatorSymbol.y(1, 2, 3), 4)
    assert img.terms() == {
        (R(1, 2), R(1, 3), R(2, 3)): Fraction(1),
        (R(2, 3), R(1, 3), R(1, 2)): Fraction(-1)}


def test_group_relator_c():
    sym, _ = RelatorSymbol.c((1, 2), (3, 4))
    img = group_image(sym, 4)
    assert img.terms() == {
        (R(1, 2), R(3, 4)): Fraction(1), (R(3, 4), R(1, 2)): Fraction(-1)}


def test_shift_expansion_recovers_quadratic_relators():
    for n in range(3, 7):
        for sym in relator_symbols(n):
            img = group_image(sym, n)
            assert shift_expand(img, 2) == sym.quad_image(n)
            # no constant or linear part survives
            assert shift_expand(img, 1) == FreeElement.zero(n)


def test_shift_y123_lowest_part_is_quadratic_relator():
    img = group_image(RelatorSymbol.y(1, 2, 3), 3)
    assert shift_expand(img, 2) == y_relator(3, 1, 2, 3)


# -- quadratic relator lists ---------------------------------------------------

def test_pvb_relator_counts():
    assert quadratic_relators(pvb(2)) == []
    assert len(quadratic_relators(pvb(3))) == 6
    rels4 = quadratic_relators(pvb(4))
    assert len(rels4) == 36
    ys = [r for r in rels4 if len(r) == 6]
    cs = [r for r in rels4 if len(r) == 2]
    assert len(ys) == 24 and len(cs) == 12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_pvb_relators_independent_with_lah_count(n):
    rels = quadratic_relators(pvb(n))
    assert len(rels) == lah_by_enumeration(n, n - 2)
    assert SparseMatrix([r.terms() for r in rels]).rank() == len(rels)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pfb_relator_count_is_stirling(n):
    # the dual of the descending family is indexed by Down forests
    rels = quadratic_relators(AlgebraFamily(Family.PFB, n))
    assert len(rels) == stirling2(n, n - 2)
    assert SparseMatrix([r.terms() for r in rels]).rank() == len(rels)
    gens = set(AlgebraFamily(Family.PFB, n).generators)
    for r in rels:
        for w in r.terms():
            assert set(w) <= gens


def _normalize_primitive(rel):
    """Oracle: a relator scaled to primitive integer coefficients with a
    positive leading term, through Fractions."""
    den = 1
    for c in rel.terms().values():
        den = den * c.denominator // gcd(den, c.denominator)
    ints = {w: int(c * den) for w, c in rel.items()}
    g = 0
    for v in ints.values():
        g = gcd(g, v)
    s = -1 if next(iter(ints.values())) < 0 else 1
    return FreeElement(rel.n, {w: Fraction(s * v, g) for w, v in ints.items()})


def _substitute_descending(rel):
    """Oracle: r_ji -> -r_ij for i < j, one word at a time."""
    terms = {}
    for w, c in rel.items():
        sign = (-1) ** sum(g.i > g.j for g in w)
        word = tuple(R(min(g), max(g)) for g in w)
        terms[word] = terms.get(word, Fraction(0)) + sign * c
    return FreeElement(rel.n, terms)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_pfb_relators_are_the_primitive_descending_images(n):
    seen = {}
    for s in relator_symbols(n):
        img = _substitute_descending(s.quad_image(n))
        if img:
            img = _normalize_primitive(img)
            seen[frozenset(img.items())] = img
    expected = sorted(seen.values(), key=lambda r: sorted(r.terms()))
    got = quadratic_relators(AlgebraFamily(Family.PFB, n))
    assert [list(r.items()) for r in got] == [list(r.items()) for r in expected]
    # the blocks of [3] and [4] renamed, against substituting into every
    # relator of [n]
    whole = pvb_family._descending_relators(relator_symbols(n), n)
    assert [list(r.items()) for r in got] == [list(r.items()) for r in whole]


# -- relators written directly, against the commutator construction ---------

def _commutator_y(n, i, j, k):
    """Oracle: y_ijk as a sum of FreeElement commutators."""
    r = FreeElement.generator
    rij, rik, rjk = r(n, i, j), r(n, i, k), r(n, j, k)
    return ((rij * rik - rik * rij) + (rij * rjk - rjk * rij)
            + (rik * rjk - rjk * rik))


def _commutator_c(n, ij, kl):
    """Oracle: c_ij^kl as one FreeElement commutator."""
    a, b = FreeElement.generator(n, *ij), FreeElement.generator(n, *kl)
    return a * b - b * a


def _commutator_group_image(sym, n):
    """Oracle: the group relator W1 - W2 as a difference of monomials."""
    if sym.kind == "Y":
        i, j, k = sym.indices
        w1, w2 = ((i, j), (i, k), (j, k)), ((j, k), (i, k), (i, j))
    else:
        w1, w2 = sym.indices, sym.indices[::-1]
    return FreeElement.monomial(n, w1) - FreeElement.monomial(n, w2)


def _pb_recipes(n, per_triple):
    """Oracle: the pb relators on [n] as (x, ys), the commutator of a_x with
    the sum of the a_y: per triple i < j < k the first `per_triple` of
    [a_ij, a_ik + a_jk], [a_ik, a_ij + a_jk] and [a_jk, a_ij + a_ik], and
    [a_ij, a_kl] for each two disjoint pairs, sorted by the relator's words."""
    recipes = []
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        recipes += [((i, j), ((i, k), (j, k))), ((i, k), ((i, j), (j, k))),
                    ((j, k), ((i, j), (i, k)))][:per_triple]
    for ij, kl in itertools.combinations(
            itertools.combinations(range(1, n + 1), 2), 2):
        if len({*ij, *kl}) == 4:
            recipes.append((ij, (kl,)))
    return sorted(recipes,
                  key=lambda recipe: sorted(_pb_commutator(n, recipe).terms()))


def _pb_commutator(n, recipe, letter=FreeElement.generator):
    """Oracle: a `_pb_recipes` relator with each a_ij written letter(n, i, j)."""
    x, ys = recipe
    a, b = letter(n, *x), sum((letter(n, *y) for y in ys), FreeElement.zero(n))
    return a * b - b * a


def _commutator_relators(fam, per_triple=2):
    """Oracle: `quadratic_relators` of the whole family on [n], every
    relator built from commutators, pfb normalized through Fractions, pb
    with `per_triple` relators per triple, sorted by words."""
    n = fam.n

    def quad(sym):
        if sym.kind == "Y":
            return _commutator_y(n, *sym.indices)
        return _commutator_c(n, *sym.indices)

    if fam.family is Family.PB:
        return [_pb_commutator(n, r) for r in _pb_recipes(n, per_triple)]
    if fam.family is Family.PVB:
        rels = [quad(s) for s in relator_symbols(n)]
    else:
        seen = {}
        for s in relator_symbols(n):
            img = _substitute_descending(quad(s))
            if img:
                img = _normalize_primitive(img)
                seen[frozenset(img.items())] = img
        rels = seen.values()
    return sorted(rels, key=lambda r: sorted(r.terms()))


def _same_terms(a, b):
    """Equal terms in the same order, every coefficient a Fraction."""
    return (list(a.items()) == list(b.items())
            and all(type(c) is Fraction for _, c in a.items()))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_relators_written_directly_match_commutators(n):
    for i, j, k in itertools.permutations(range(1, n + 1), 3):
        assert _same_terms(y_relator(n, i, j, k), _commutator_y(n, i, j, k))
    for ij, kl in itertools.permutations(
            itertools.permutations(range(1, n + 1), 2), 2):
        if len({*ij, *kl}) == 4:
            assert _same_terms(c_relator(n, ij, kl), _commutator_c(n, ij, kl))
    for sym in relator_symbols(n):
        assert _same_terms(group_image(sym, n), _commutator_group_image(sym, n))


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("n", range(2, 9))
def test_quadratic_relators_match_commutators(family, n):
    fam = AlgebraFamily(family, n)
    got, want = quadratic_relators(fam), _commutator_relators(fam)
    assert len(got) == len(want)
    assert all(_same_terms(a, b) for a, b in zip(got, want))
    if family is Family.PB:
        got = [copy for copy, _ in pvb_family._block_copies(n, family, 3)]
        want = _commutator_relators(fam, per_triple=3)
        assert len(got) == len(want)
        assert all(_same_terms(a, b) for a, b in zip(got, want))


def test_quadratic_relators_list_symbols_on_blocks_only(monkeypatch):
    # every family on [n] is its blocks of [3] and [4] renamed
    calls = []
    real = pvb_family.relator_symbols
    monkeypatch.setattr(pvb_family, "relator_symbols",
                        lambda n: calls.append(n) or real(n))
    n = 12
    for family, count in (
            (Family.PVB, math.perm(n, 3) + math.perm(n, 4) // 2),
            (Family.PFB, math.comb(n, 3) + 3 * math.comb(n, 4)),
            (Family.PB, 2 * math.comb(n, 3) + 3 * math.comb(n, 4))):
        assert len(quadratic_relators(AlgebraFamily(family, n))) == count
    assert calls and max(calls) <= 4


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pb_relator_count_is_stirling1(n):
    rels = quadratic_relators(AlgebraFamily(Family.PB, n))
    assert len(rels) == stirling1(n, n - 2)
    assert SparseMatrix([r.terms() for r in rels]).rank() == len(rels)


def test_presentations_construct():
    for fam in ("pvb", "pfb", "pb"):
        p = presentation(AlgebraFamily.parse(fam, 4))
        assert p.dim_r == len(quadratic_relators(AlgebraFamily.parse(fam, 4)))


def test_load_presentation_family_shorthand():
    fam = load({"family": "pvb", "n": 3})
    assert fam == AlgebraFamily.parse("pvb", 3)
    p = presentation(fam)
    assert p.dim_v == 6 and p.dim_r == 6
    q = load(p.to_json())
    assert q.relations == p.relations


@pytest.mark.parametrize("data, message", [
    ({"family": "pvb"}, "missing field 'n'"),
    ({"family": "pvb", "n": 4.5}, "field 'n' must be an integer, got 4.5"),
    ({"family": "pvb", "n": True}, "field 'n' must be an integer, got True"),
    ([1, 2], "expected a JSON object, got list"),
])
def test_load_presentation_rejects_malformed_input(data, message):
    with pytest.raises(ValueError) as info:
        load(data)
    assert str(info.value) == message


def test_span_membership_of_single_relator():
    # y_123 decomposes over the pvb_4 relator list with a unit coefficient
    rels = quadratic_relators(pvb(4))
    target = y_relator(4, 1, 2, 3)
    coeffs = span_membership(target.terms(), [r.terms() for r in rels])
    assert coeffs is not None
    hits = {t: c for t, c in enumerate(coeffs) if c}
    assert list(hits.values()) == [Fraction(1)]
    (idx,) = hits
    assert rels[idx] == target


# -- the psi comparison map ----------------------------------------------------

def test_psi_generator_image():
    money = FreeElement.generator(4, 1, 2) + FreeElement.generator(4, 2, 1)
    # a_12 -> r_12 + r_21 is the definition; sanity-check the expansion shape
    assert money.terms() == {
        (R(1, 2),): Fraction(1), (R(2, 1),): Fraction(1)}


def test_psi_disjoint_commutator_is_sum_of_four_c_relators():
    n = 4
    rels = quadratic_relators(pvb(n))
    a12 = FreeElement.generator(n, 1, 2) + FreeElement.generator(n, 2, 1)
    a34 = FreeElement.generator(n, 3, 4) + FreeElement.generator(n, 4, 3)
    img = a12 * a34 - a34 * a12
    coeffs = span_membership(img.terms(), [r.terms() for r in rels])
    assert coeffs is not None
    hits = {rels[t]: c for t, c in enumerate(coeffs) if c}
    expect = {
        c_relator(n, (1, 2), (3, 4)): Fraction(1),
        c_relator(n, (1, 2), (4, 3)): Fraction(1),
        c_relator(n, (2, 1), (3, 4)): Fraction(1),
        c_relator(n, (2, 1), (4, 3)): Fraction(1),
    }
    assert hits == expect


def _psi_letter(n, i, j):
    """Oracle: a_ij -> r_ij + r_ji."""
    return FreeElement.generator(n, i, j) + FreeElement.generator(n, j, i)


@pytest.mark.parametrize("n", range(3, 9))
def test_psi_images_match_commutators(n):
    """The pb relators, all three per triple, with a_ij -> r_ij + r_ji
    substituted, against the commutators of the substituted letters."""
    want = [_pb_commutator(n, r, _psi_letter) for r in _pb_recipes(n, 3)]
    got = [pvb_family._substitute(rel, pvb_family._psi)
           for rel, _ in pvb_family._block_copies(n, Family.PB, 3)]
    assert len(got) == len(want)
    assert all(_same_terms(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_psi_image_check_passes(n):
    rep = psi_image_check(n)
    assert rep.passed
    assert rep.payload["failing_indices"] == []


def _whole_family_psi_check(n, keep=lambda sym: True, pb=_pb_commutator):
    """Oracle: the psi check on the whole family, the psi image of every pb
    relator, `pb(n, recipe, letter)` for each of `_pb_recipes(n, 3)`,
    against the span of every pvb relator whose symbol `keep` admits."""
    rels = [sym.quad_image(n) for sym in relator_symbols(n) if keep(sym)]
    span = SparseMatrix([r.terms() for r in rels])
    images = [pb(n, r, _psi_letter) for r in _pb_recipes(n, 3)]
    failing = [t for t, img in enumerate(images)
               if not span.in_row_span(img.terms())]
    return VerificationReport(
        check="psi-compatibility", params={"n": n},
        expected={"members": len(images)},
        actual={"members": len(images) - len(failing)},
        payload={"pb_relators": len(images), "failing_indices": failing})


@pytest.mark.parametrize("n", range(3, 9))
def test_psi_blocks_match_the_whole_family_check(n):
    rep = psi_image_check(n)
    assert rep == _whole_family_psi_check(n)
    assert rep.to_json() == _whole_family_psi_check(n).to_json()
    assert rep.passed


def test_psi_image_check_sees_a_missing_relator(monkeypatch):
    # without y_123 the block of [3] is too small, so every triple's
    # images of that pattern fail, listed in the sorted order of the pb
    # relators with three per triple
    dropped = RelatorSymbol.y(1, 2, 3)
    block = pvb_family._pvb_block
    monkeypatch.setattr(pvb_family, "_pvb_block", lambda s: {
        sym: rel for sym, rel in block(s).items() if sym != dropped})
    for n in (4, 5):
        rep = psi_image_check(n)
        assert not rep.passed
        assert rep.payload["failing_indices"] != []
        oracle = _whole_family_psi_check(n, keep=lambda sym: (
            sym.kind != "Y" or list(sym.indices) != sorted(sym.indices)))
        assert rep.payload == oracle.payload
        assert rep.actual == {"members": oracle.actual["members"],
                              "failures": {
                                  "not_in_span": oracle.payload["failing_indices"],
                                  "not_equivariant": [3]}}
        # the report, and so both output formats, name them
        failing = oracle.payload["failing_indices"]
        assert rep.failures["not_in_span"] == {"count": len(failing),
                                               "first": failing[:5]}


def _flipped_pb_commutator(n, recipe, letter):
    """Oracle: `_pb_commutator`, with the sign of the word a_ij a_ik of
    each [a_ij, a_ik + a_jk] flipped."""
    rel = _pb_commutator(n, recipe, letter)
    x, ys = recipe
    if len(ys) == 2 and (ys[0][0], ys[1][0]) == x:
        rel = rel - 2 * letter(n, *x) * letter(n, *ys[0])
    return rel


def test_psi_image_check_sees_a_sign_flipped_block_relator(monkeypatch):
    # flipping one word of [a_12, a_13 + a_23] keeps its words, so its
    # copies keep their places, and each copy's psi image leaves the span
    real = pvb_family._block_relators

    def flipped(family, s, per_triple=2):
        rels = real(family, s, per_triple)
        if family is Family.PB and s == 3:
            rels[0] = rels[0] - 2 * FreeElement.monomial(3, [(1, 2), (1, 3)])
        return rels

    monkeypatch.setattr(pvb_family, "_block_relators", flipped)
    for n in (3, 4, 5):
        rep = psi_image_check(n)
        oracle = _whole_family_psi_check(n, pb=_flipped_pb_commutator)
        assert not rep.passed
        assert len(rep.payload["failing_indices"]) == math.comb(n, 3)
        assert rep.payload == oracle.payload
        assert rep.actual["members"] == oracle.actual["members"]
        out = io.StringIO()
        assert run(["verify", "psi", "--n", str(n)], out=out) == 1
        assert out.getvalue().startswith("[FAIL] ")


def test_psi_image_check_rejects_small_n():
    with pytest.raises(ValueError):
        psi_image_check(2)
