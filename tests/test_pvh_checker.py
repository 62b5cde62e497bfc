import io
import itertools
import math
from fractions import Fraction

import pytest

import qal.pvb_family as pvb_family
import qal.pvh_checker as pvh_checker
import qal.quad_algebra as quad_algebra
from qal.cli import run
from qal.exact_core import AmbientMismatchError, FreeElement, Generator, SparseMatrix
from qal.graph_basis import enumerate_chain_gangs, lah, lah_by_enumeration, parse_wedge_word
from qal.pvb_family import (
    AlgebraFamily,
    Family,
    RelatorSymbol,
    quadratic_relators,
    relator_symbols,
)
from qal.pvh_checker import (
    InfinitesimalSyzygy,
    NotASyzygyError,
    SyzygyElement,
    _project,
    c_commutation_syzygy,
    degree2_report,
    delta_K,
    delta_a_columns,
    infinitesimal_from_dual,
    kernel_deg3,
    project_to_infinitesimal,
    pvh_report,
    trivial_syzygies,
    y_commutation_syzygy,
    zamolodchikov,
)
from qal.pvb_family import presentation
from qal.quad_algebra import SizeBudgetError, _apply_columns, deg3_intersection
from qal.report import VerificationReport

G = Generator


def pvb(n):
    return AlgebraFamily(Family.PVB, n)


# -- the relator module -------------------------------------------------------

def test_delta_k_of_bare_symbol():
    s = SyzygyElement(4, {((), RelatorSymbol.y(1, 2, 3), ()): Fraction(1)})
    assert delta_K(s).terms() == {
        (G(1, 2), G(1, 3), G(2, 3)): Fraction(1),
        (G(2, 3), G(1, 3), G(1, 2)): Fraction(-1)}


def test_delta_k_of_zero():
    assert delta_K(SyzygyElement(4)) == FreeElement.zero(4)


def test_delta_k_is_module_map():
    sym = RelatorSymbol.y(1, 2, 3)
    s = SyzygyElement(4, {((G(3, 4),), sym, (G(1, 4), G(1, 4))): Fraction(2)})
    img = delta_K(s)
    left = FreeElement.generator(4, 3, 4)
    right = FreeElement.generator(4, 1, 4) * FreeElement.generator(4, 1, 4)
    assert img == 2 * left * sym.group_image(4) * right


def test_syzygy_element_arithmetic():
    sym = RelatorSymbol.y(1, 2, 3)
    a = SyzygyElement(4, {((), sym, ()): Fraction(1)})
    assert (a + (-1) * a) == SyzygyElement(4)
    assert a - a == SyzygyElement(4)
    assert len(2 * a) == 1
    with pytest.raises(AmbientMismatchError):
        a + SyzygyElement(5, {((), sym, ()): 1})
    same = SyzygyElement(4, [(((), (sym, -1), ()), -1)])
    assert same == a and hash(same) == hash(a)


def test_syzygy_element_reads_a_bare_symbol():
    # the term test_block_sees_a_candidate_that_is_no_syzygy builds
    sym = RelatorSymbol.y(1, 2, 3)
    bare = SyzygyElement(4, {((G(3, 4),), sym, ()): 1})
    assert bare.terms() == {((G(3, 4),), sym, ()): 1}
    (key, c), = bare.items()
    assert type(key[1]) is RelatorSymbol and type(c) is int
    assert SyzygyElement(4, {((G(3, 4),), (sym, 1), ()): 1}) == bare


def test_syzygy_element_applies_the_sign_of_a_symbol_pair():
    # C_34^12 = -C_12^34, and the (symbol, sign) pair carries the minus
    pair = RelatorSymbol.c((3, 4), (1, 2))
    c1234 = RelatorSymbol.c((1, 2), (3, 4))[0]
    syz = SyzygyElement(5, [(((), pair, ((1, 5),)), 2),
                            ((((2, 5),), c1234, ()), Fraction(1, 2))])
    assert syz.terms() == {((), c1234, (G(1, 5),)): -2,
                           ((G(2, 5),), c1234, ()): Fraction(1, 2)}
    assert all(type(sym) is RelatorSymbol for _, sym, _ in syz.terms())


# -- Zamolodchikov ------------------------------------------------------------

def test_zamolodchikov_has_fourteen_terms():
    z = zamolodchikov(1, 2, 3, 4)
    assert len(z) == 14
    signs = sorted(z.terms().values())
    assert signs == [Fraction(-1)] * 7 + [Fraction(1)] * 7


def test_zamolodchikov_rejects_repeats():
    with pytest.raises(ValueError):
        zamolodchikov(1, 2, 2, 4)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_zamolodchikov_is_exact_syzygy(n):
    for tup in itertools.permutations(range(1, n + 1), 4):
        assert delta_K(zamolodchikov(*tup, n=n)) == FreeElement.zero(n)


# -- commutation syzygies -----------------------------------------------------

def test_y_commutation_syzygy_exact():
    s = y_commutation_syzygy(1, 2, 3, 4, 5)
    assert delta_K(s) == FreeElement.zero(5)


def test_c_commutation_syzygy_exact():
    s = c_commutation_syzygy((1, 2), (3, 4), (5, 6))
    assert delta_K(s) == FreeElement.zero(6)


def _y_commutation_table(i, j, k, s, t, n):
    """The y-commutation syzygy written out term by term."""
    Y, st = RelatorSymbol.y(i, j, k), (s, t)

    def C(ab):
        return RelatorSymbol.c(ab, st)

    return SyzygyElement(n, [
        (((), Y, (st,)), 1),
        (((st,), Y, ()), -1),
        ((((i, j), (i, k)), C((j, k)), ()), -1),
        ((((i, j),), C((i, k)), ((j, k),)), -1),
        (((), C((i, j)), ((i, k), (j, k))), -1),
        ((((j, k), (i, k)), C((i, j)), ()), 1),
        ((((j, k),), C((i, k)), ((i, j),)), 1),
        (((), C((j, k)), ((i, k), (i, j))), 1),
    ])


def _c_commutation_table(ij, kl, st, n):
    """The c-commutation syzygy written out term by term; the pairs ij, kl
    may come in either order."""
    C = RelatorSymbol.c
    return SyzygyElement(n, [
        (((), C(ij, kl), (st,)), 1),
        (((st,), C(ij, kl), ()), -1),
        (((ij,), C(kl, st), ()), -1),
        (((), C(ij, st), (kl,)), -1),
        (((kl,), C(ij, st), ()), 1),
        (((), C(kl, st), (ij,)), 1),
    ])


def test_derived_commutation_syzygies_match_the_written_tables():
    """An independent witness of `commutation_syzygy`: on [7], every
    y-commutation (ordered 5-tuple) and c-commutation syzygy (ordered
    6-tuple, so C's pairs come in both orders) equals its term table, in the
    same order."""
    for t in itertools.permutations(range(1, 8), 5):
        assert list(y_commutation_syzygy(*t, n=7).items()) == \
            list(_y_commutation_table(*t, 7).items()), t
    for t in itertools.permutations(range(1, 8), 6):
        ij, kl, st = t[:2], t[2:4], t[4:]
        assert list(c_commutation_syzygy(ij, kl, st, n=7).items()) == \
            list(_c_commutation_table(ij, kl, st, 7).items()), t


@pytest.mark.parametrize("x, st", [
    (RelatorSymbol.y(1, 2, 3), (3, 4)),
    (RelatorSymbol.y(1, 2, 3), (4, 1)),
    (RelatorSymbol.c((1, 2), (3, 4)), (4, 5)),
    (RelatorSymbol.c((3, 4), (1, 2)), (5, 2)),
])
def test_commutation_syzygy_needs_far_strands(x, st):
    with pytest.raises(ValueError, match="meets the strands"):
        pvh_checker.commutation_syzygy(x, st)


def test_commutation_syzygy_takes_a_signed_symbol():
    x = RelatorSymbol.c((3, 4), (1, 2))
    assert x[1] == -1
    assert pvh_checker.commutation_syzygy(x, (5, 6)) == \
        -pvh_checker.commutation_syzygy(x[0], (5, 6))


@pytest.mark.parametrize("text", ["1>2,1>3,3>4", "1>3,2>3,4>5", "1>2,2>3,3>1",
                                  "1>2,2>1,3>4", "1>2,2>3,3>2", "1>2,3>4"])
def test_lift_refuses_a_monomial_that_is_no_degree3_chain_gang(text):
    mono, _ = parse_wedge_word(text)
    with pytest.raises(ValueError, match="not a degree-3 chain gang"):
        pvh_checker._lift(mono, 5)


def test_bare_commutator_is_not_a_syzygy():
    # Y_123 (R_45 - 1) - (R_45 - 1) Y_123 alone is NOT killed by delta_K;
    # the C-symbol corrections are required
    sym = RelatorSymbol.y(1, 2, 3)
    st = (G(4, 5),)
    s = SyzygyElement(5, {
        ((), sym, st): Fraction(1), ((), sym, ()): Fraction(-1),
        (st, sym, ()): Fraction(-1)})
    s = s + SyzygyElement(5, {((), sym, ()): Fraction(1)})
    assert delta_K(s) != FreeElement.zero(5)
    with pytest.raises(NotASyzygyError):
        project_to_infinitesimal(s)


def test_projection_keeps_its_delta_k_check():
    # g h Y - h g Y projects to zero in both degrees, so adding it leaves the
    # projection of a syzygy unchanged; only delta_K tells it apart
    z = zamolodchikov(1, 2, 3, 4)
    y = RelatorSymbol.y(1, 2, 3)
    g, h = G(1, 4), G(2, 4)
    bad = z + SyzygyElement(4, {((g, h), y, ()): 1, ((h, g), y, ()): -1})
    assert project_to_infinitesimal(z).as_vector()
    assert delta_K(bad) != FreeElement.zero(4)
    with pytest.raises(NotASyzygyError):
        project_to_infinitesimal(bad)


def test_trivial_syzygy_counts():
    assert len(trivial_syzygies(4)) == 0
    assert len(trivial_syzygies(5)) == 120      # ordered triple x ordered pair
    # n=6 adds the c-type: 180 canonical C symbols x 2 ordered leftover pairs
    assert len(trivial_syzygies(6)) == 720 + 360


def test_trivial_syzygies_are_exact():
    for s in trivial_syzygies(5):
        assert delta_K(s) == FreeElement.zero(5)


# -- projection ---------------------------------------------------------------

def test_project_zero():
    inf = project_to_infinitesimal(SyzygyElement(4))
    assert inf.right == {} and inf.left == {}


def test_projection_kernel_condition():
    for tup in [(1, 2, 3, 4), (2, 4, 1, 3)]:
        inf = project_to_infinitesimal(zamolodchikov(*tup))
        assert inf.kernel_condition_holds()


def test_y_commutation_projection_shape():
    s = y_commutation_syzygy(1, 2, 3, 4, 5)
    inf = project_to_infinitesimal(s)
    sym = RelatorSymbol.y(1, 2, 3)
    st = G(4, 5)
    # the Y-coordinates carry exactly y_123 (x) r_45 - r_45 (x) y_123 ...
    assert inf.right[(sym, st)] == 1
    assert inf.left[(st, sym)] == -1
    # ... and the C corrections survive into the projection
    assert any(key[0].kind == "C" for key in inf.right)
    assert inf.kernel_condition_holds()


RIJKL_RIGHT = [
    # (symbol kind, indices), [(generator, coefficient), ...] with the outer
    # sign folded in; transcription of the 7-term catalogue for i<j<k<l
    ("Y", (1, 2, 3), [((1, 4), 1), ((2, 4), 1), ((3, 4), 1)]),
    ("Y", (1, 2, 4), [((1, 3), -1), ((2, 3), -1), ((3, 4), 1)]),
    ("Y", (1, 3, 4), [((1, 2), 1), ((2, 3), -1), ((2, 4), -1)]),
    ("Y", (2, 3, 4), [((1, 2), 1), ((1, 3), 1), ((1, 4), 1)]),
    ("C", ((1, 2), (3, 4)), [((1, 3), -1), ((1, 4), -1), ((2, 3), -1), ((2, 4), -1)]),
    ("C", ((1, 3), (2, 4)), [((1, 2), 1), ((1, 4), 1), ((2, 3), -1), ((3, 4), 1)]),
    ("C", ((1, 4), (2, 3)), [((1, 2), -1), ((1, 3), -1), ((2, 4), 1), ((3, 4), 1)]),
]


def test_four_chain_matches_catalogued_seven_terms():
    inf = infinitesimal_from_dual(parse_wedge_word("1>2,2>3,3>4")[0], 4)
    expect_right = {}
    for kind, idx, gens in RIJKL_RIGHT:
        sym = RelatorSymbol(kind, idx)
        for g, c in gens:
            expect_right[(sym, G(*g))] = Fraction(c)
    assert inf.right == expect_right
    assert inf.left == {(g, sym): -c for (sym, g), c in expect_right.items()}
    assert inf.kernel_condition_holds()


def _add(right, sym_sign, g, c):
    sym, sign = sym_sign
    key = (sym, G(*g))
    right[key] = right.get(key, 0) + sign * c


def _four_chain_formula(i, j, k, l):
    """RIJKL_RIGHT with the strands 1, 2, 3, 4 renamed i, j, k, l."""
    sigma = {1: i, 2: j, 3: k, 4: l}
    right = {}
    for kind, idx, gens in RIJKL_RIGHT:
        for (a, b), c in gens:
            _add(right, RelatorSymbol(kind, idx).relabel(sigma),
                 (sigma[a], sigma[b]), c)
    return right


def _three_chain_edge_formula(i, j, k, s, t):
    """Y_ijk (x) r_st, corrected by -C_ab^st (x) r_cd for each word
    r_ab r_cd of y_ijk."""
    right = {}
    _add(right, (RelatorSymbol.y(i, j, k), 1), (s, t), 1)
    ij, ik, jk = (i, j), (i, k), (j, k)
    for ab, cd, c in ((ij, ik, 1), (ik, ij, -1), (ij, jk, 1), (jk, ij, -1),
                      (ik, jk, 1), (jk, ik, -1)):
        _add(right, RelatorSymbol.c(ab, (s, t)), cd, -c)
    return right


def _three_edge_formula(e1, e2, e3):
    """C_e1^e2 (x) e3 - C_e1^e3 (x) e2 + C_e2^e3 (x) e1, edges in order."""
    right = {}
    for (a, b), g, c in (((e1, e2), e3, 1), ((e1, e3), e2, -1),
                         ((e2, e3), e1, 1)):
        _add(right, RelatorSymbol.c(a, b), g, c)
    return right


def _written_catalogue(n):
    """(written wedge word, right part) for every chain gang of degree 3 on
    [n], from the catalogue formulas stated for the factors in chain order."""
    for i, j, k, l in itertools.permutations(range(1, n + 1), 4):
        yield f"{i}>{j},{j}>{k},{k}>{l}", _four_chain_formula(i, j, k, l)
    for i, j, k, s, t in itertools.permutations(range(1, n + 1), 5):
        yield f"{i}>{j},{j}>{k},{s}>{t}", \
            _three_chain_edge_formula(i, j, k, s, t)
    pairs = itertools.permutations(range(1, n + 1), 2)
    for edges in itertools.combinations(pairs, 3):
        if len({x for e in edges for x in e}) == 6:
            yield ",".join(f"{a}>{b}" for a, b in edges), \
                _three_edge_formula(*edges)


@pytest.mark.parametrize("n", [5, 6])
def test_dual_catalogue_matches_written_formulas(n):
    """An independent witness of `infinitesimal_from_dual`: the catalogue
    formulas written out here, under the parity of sorting the written
    factors, equal the projections of the lifted global syzygies."""
    seen = set()
    for text, right in _written_catalogue(n):
        mono, sign = parse_wedge_word(text)
        want = InfinitesimalSyzygy(
            n, {key: sign * c for key, c in right.items()},
            {(g, sym): -sign * c for (sym, g), c in right.items()})
        assert infinitesimal_from_dual(mono, n) == want, text
        seen.add(mono)
    assert seen == set(enumerate_chain_gangs(n, 3))
    assert len(seen) == lah(n, n - 3)


@pytest.mark.parametrize("n", [4, 5])
def test_zam_projection_equals_dual_four_chain(n):
    for (i, j, k, l) in itertools.permutations(range(1, n + 1), 4):
        z = project_to_infinitesimal(zamolodchikov(i, j, k, l, n=n))
        chain, sign = parse_wedge_word(f"{i}>{j},{j}>{k},{k}>{l}")
        d = infinitesimal_from_dual(chain, n)
        if sign < 0:
            d = InfinitesimalSyzygy(
                n, {k2: -c for k2, c in d.right.items()},
                {k2: -c for k2, c in d.left.items()})
        assert z == d


def test_dual_disconnected_shapes():
    inf = infinitesimal_from_dual(parse_wedge_word("1>2,2>3,4>5")[0], 5)
    assert inf.right[(RelatorSymbol.y(1, 2, 3), G(4, 5))] == 1
    assert inf.kernel_condition_holds()
    inf = infinitesimal_from_dual(parse_wedge_word("1>2,3>4,5>6")[0], 6)
    sym12_34 = RelatorSymbol.c((1, 2), (3, 4))[0]
    assert inf.right[(sym12_34, G(5, 6))] == 1
    assert inf.kernel_condition_holds()


def test_dual_map_reduces_non_basis_input():
    # a V-join monomial: apply the map to its pruning
    w, _ = parse_wedge_word("1>2,1>3,3>4")
    inf = infinitesimal_from_dual(w, 4)
    assert inf.kernel_condition_holds()
    assert infinitesimal_from_dual(parse_wedge_word("1>2,2>1,3>4")[0], 4) == \
        InfinitesimalSyzygy(4)


def test_right_part_lies_in_deg3_intersection():
    inter = deg3_intersection(presentation(pvb(4)))
    m = SparseMatrix([v.terms() for v in inter])
    cols = delta_a_columns(4)
    for text in ("1>2,2>3,3>4", "2>1,1>4,4>3"):
        inf = infinitesimal_from_dual(parse_wedge_word(text)[0], 4)
        right = {("R", sym, g): c for (sym, g), c in inf.right.items()}
        image = _apply_columns(cols, right)
        assert image and m.in_row_span(image)


# -- the kernel ----------------------------------------------------------------

def test_kernel_dimensions():
    assert kernel_deg3(pvb(3)) == []
    k4 = kernel_deg3(pvb(4))
    assert len(k4) == lah_by_enumeration(4, 1) == 24
    assert len(k4) == len(enumerate_chain_gangs(4, 3))


def test_kernel_vectors_are_exact():
    cols = delta_a_columns(4)
    for vec in kernel_deg3(pvb(4)):
        img = {}
        for lab, c in vec.items():
            for w, cw in cols[lab].items():
                img[w] = img.get(w, Fraction(0)) + c * cw
        assert not any(img.values())


def _old_delta_a_columns(n):
    """Oracle: the former column build of delta_A."""
    cols = {}
    gens = [G(i, j) for i, j in itertools.permutations(range(1, n + 1), 2)]
    for sym in relator_symbols(n):
        img = sym.quad_image(n).terms()
        for g in gens:
            cols[("R", sym, g)] = {w + (g,): c for w, c in img.items()}
            cols[("L", g, sym)] = {(g,) + w: c for w, c in img.items()}
    return cols


@pytest.mark.parametrize("n", [3, 4, 5])
def test_delta_a_columns_match_former_build(n):
    def ordered(cols):
        return [(lab, list(col.items())) for lab, col in cols.items()]

    assert ordered(delta_a_columns(n)) == ordered(_old_delta_a_columns(n))


def test_kernel_condition_sees_a_changed_coefficient():
    inf = infinitesimal_from_dual(parse_wedge_word("1>2,2>3,3>4")[0], 4)
    assert inf.kernel_condition_holds()
    key = next(iter(inf.right))
    broken = InfinitesimalSyzygy(4, {**inf.right, key: inf.right[key] + 1},
                                 inf.left)
    assert not broken.kernel_condition_holds()


def test_kernel_requires_pvb():
    with pytest.raises(ValueError):
        kernel_deg3(AlgebraFamily(Family.PFB, 4))


def test_degree3_kernels_are_budgeted_before_anything_is_built(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("built before the budget check")

    monkeypatch.setattr(pvh_checker, "quadratic_relators", no_build)
    monkeypatch.setattr(pvh_checker, "delta_a_columns", no_build)
    with pytest.raises(SizeBudgetError) as exc:
        kernel_deg3(pvb(5), budget=20 ** 3 - 1)
    assert exc.value.dimension == 20 ** 3
    monkeypatch.setattr(quad_algebra, "_deg3_columns", no_build)
    with pytest.raises(SizeBudgetError) as exc:
        deg3_intersection(presentation(pvb(4)), budget=12 ** 3 - 1)
    assert exc.value.dimension == 12 ** 3


def test_dual_basis_images_span_kernel():
    n = 4
    monos = enumerate_chain_gangs(n, 3)
    vecs = [infinitesimal_from_dual(m, n).as_vector() for m in monos]
    label_order = sorted(delta_a_columns(n))
    mat = SparseMatrix(vecs, columns=label_order)
    assert mat.rank() == len(monos) == 24
    for kv in kernel_deg3(pvb(n)):
        assert mat.in_row_span(kv)


# -- reports --------------------------------------------------------------------

def test_pvh_report_pvb3_vacuous():
    rep = pvh_report(pvb(3))
    assert rep.passed
    assert rep.summary["degree3"]["kernel_dim"] == 0
    assert rep.summary["degree2"]["relators"] == 6


def test_pvh_report_pvb4():
    rep = pvh_report(pvb(4))
    assert rep.passed
    assert rep.summary["degree2"] == {"relators": 36, "rank": 36, "pass": True}
    d3 = rep.summary["degree3"]
    assert d3["kernel_dim"] == d3["image_rank"] == 24
    assert rep.to_json()["verdict"] == "PASS"


def test_pvh_report_pfb_corollary():
    rep = pvh_report(AlgebraFamily(Family.PFB, 4))
    assert rep.passed
    assert "corollary" in rep.summary["degree3"]


def test_pvh_report_rejects_pb():
    with pytest.raises(ValueError):
        pvh_report(AlgebraFamily(Family.PB, 4))


def test_degree2_report_generic_presentation():
    rep = degree2_report(presentation(pvb(3)))
    assert rep.passed and rep.actual == {"rank": 6}


@pytest.mark.slow
def test_pvh_report_pvb6_exercises_c_type_syzygies():
    # first strand count where c-type commutation syzygies enter the span
    rep = pvh_report(pvb(6))
    assert rep.passed
    d3 = rep.summary["degree3"]
    assert d3["kernel_dim"] == d3["image_rank"] == lah_by_enumeration(6, 3)
    assert d3["candidates"] == 360 + 720 + 360


# -- the block certificate ------------------------------------------------------


def _monolithic_pvh_report(fam):
    """Oracle: the former single-matrix degree-3 path of pvh_report (exact
    nullspace of all of delta_A, kernel inclusion, image rank, and every
    kernel basis vector in the span of the projections)."""
    n = fam.n
    rels = quadratic_relators(fam)
    d2_rank = SparseMatrix([r.terms() for r in rels]).rank() if rels else 0
    degree2 = {"relators": len(rels), "rank": d2_rank,
               "pass": d2_rank == len(rels)}
    cols = delta_a_columns(n)
    kernel = SparseMatrix.from_columns(cols).nullspace()
    candidates = [(f"zam{t}", zamolodchikov(*t, n=n))
                  for t in itertools.permutations(range(1, n + 1), 4)]
    candidates += [(f"comm{t}", s) for t, s in enumerate(trivial_syzygies(n))]
    failures = {}
    vectors = []
    for name, syz in candidates:
        if delta_K(syz):
            failures.setdefault("delta_k_nonzero", []).append(name)
            continue
        vec = _project(syz).as_vector()
        if _apply_columns(cols, vec):
            failures.setdefault("not_in_kernel", []).append(name)
        vectors.append(vec)
    image = SparseMatrix(vectors, columns=sorted(cols))
    image_rank = image.rank()
    uncovered = sum(1 for kv in kernel if not image.in_row_span(kv))
    if uncovered:
        failures["kernel_vectors_uncovered"] = uncovered
    degree3 = {"kernel_dim": len(kernel), "image_rank": image_rank,
               "candidates": len(candidates),
               "pass": not failures and image_rank == len(kernel)}
    return VerificationReport(
        check="pvh", params={"family": "pvb", "n": n},
        expected={"degree2_rank": len(rels), "image_rank": len(kernel),
                  "failures": {}},
        actual={"degree2_rank": d2_rank, "image_rank": image_rank,
                "failures": failures},
        payload={"degree3_candidates": len(candidates)},
        summary={"family": "pvb", "n": n, "degree2": degree2,
                 "degree3": degree3})


def _assert_matches_monolithic(n):
    rep, old = pvh_report(pvb(n)), _monolithic_pvh_report(pvb(n))
    for key in ("kernel_dim", "image_rank", "candidates"):
        assert rep.summary["degree3"][key] == old.summary["degree3"][key]
    assert rep.to_json() == old.to_json()
    assert rep == old
    assert rep.passed


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_block_report_matches_monolithic(n):
    _assert_matches_monolithic(n)


@pytest.mark.slow
def test_block_report_matches_monolithic_n7():
    _assert_matches_monolithic(7)


def _closed_form_candidates(n):
    p = math.perm
    return p(n, 4) + p(n, 3) * p(n - 3, 2) + p(n, 2) * p(n - 2, 2) // 2 * p(n - 4, 2)


#: per support size s: single-support columns, kernel dim, candidates
_BLOCKS = {3: (72, 0, 0), 4: (576, 24, 24), 5: (1200, 120, 120),
           6: (720, 120, 360)}


@pytest.mark.parametrize("s", sorted(_BLOCKS))
def test_blocks_by_support_size(s):
    columns, kernel_dim, candidates = _BLOCKS[s]
    cols = pvh_checker._block_columns(s)
    assert len(cols) == columns
    assert pvh_checker._certify_block(s) == (
        {"kernel_dim": kernel_dim, "image_rank": kernel_dim,
         "candidates": candidates}, {})
    # the rank of the columns is that of the transposed matrix
    assert kernel_dim == columns - SparseMatrix.from_columns(cols).rank()


def test_pvh_transposes_no_block(monkeypatch):
    def no_transpose(cols):
        raise AssertionError("a block was ranked by its rows")

    monkeypatch.setattr(SparseMatrix, "from_columns", no_transpose)
    assert pvh_report(pvb(6)).passed


def test_block_sums_are_lah_numbers_and_closed_form_counts():
    for n in range(4, 13):
        blocks = range(3, min(n, 6) + 1)
        assert sum(math.comb(n, s) * _BLOCKS[s][1] for s in blocks) == \
            lah(n, n - 3)
        assert sum(math.comb(n, s) * _BLOCKS[s][2] for s in blocks) == \
            _closed_form_candidates(n)


def test_block_sees_a_column_word_of_another_support(monkeypatch):
    real = pvh_checker._deg3_columns

    def leaky(relators, generators):
        cols = real(relators, generators)
        next(iter(cols.values()))[(G(1, 2), G(2, 1), G(1, 2))] = Fraction(1)
        return cols

    monkeypatch.setattr(pvh_checker, "_deg3_columns", leaky)
    rep = pvh_report(pvb(4))
    assert not rep.passed
    assert rep.actual["failures"]["mixed_support"]


def _flip_y213(monkeypatch):
    """Negate the quadratic image of Y_213 alone."""
    real = RelatorSymbol.quad_image
    flipped = RelatorSymbol.y(2, 1, 3)

    def quad_image(self, n):
        img = real(self, n)
        return -img if self == flipped else img

    monkeypatch.setattr(RelatorSymbol, "quad_image", quad_image)


def test_block_sees_a_relator_sign_flipped_under_relabeling(monkeypatch):
    # negating one relator changes no rank, and the support-3 block has no
    # candidates: only the relabeling check sees it there
    _flip_y213(monkeypatch)
    assert pvh_checker._certify_block(3)[0] == {
        "kernel_dim": 0, "image_rank": 0, "candidates": 0}
    rep = pvh_report(pvb(4))
    assert not rep.passed
    assert rep.actual["failures"]["not_equivariant"] == [3, 4]


def test_block_sees_a_missing_relabeled_candidate(monkeypatch):
    # each c-commutation projection occurs three times up to sign, so the
    # rank stays 120 without the first one; only the count tells
    real = pvh_checker._block_candidates
    monkeypatch.setattr(pvh_checker, "_block_candidates",
                        lambda s: real(s)[1:] if s == 6 else real(s))
    rep = pvh_report(pvb(6))
    d3 = rep.summary["degree3"]
    assert d3["kernel_dim"] == d3["image_rank"] == 1200
    assert not rep.passed
    assert rep.actual["failures"] == {"not_equivariant": [6]}


def test_block_sees_a_candidate_outside_the_kernel(monkeypatch):
    # a delta_K-zero element whose projection misses ker delta_A: bump one
    # coefficient of the first Zamolodchikov projection
    real = pvh_checker._project

    def bumped(syz):
        inf = real(syz)
        if syz == zamolodchikov(1, 2, 3, 4):
            key = next(iter(inf.right))
            inf.right[key] += 1
        return inf

    monkeypatch.setattr(pvh_checker, "_project", bumped)
    rep = pvh_report(pvb(4))
    assert not rep.passed
    assert rep.actual["failures"]["not_in_kernel"] == ["zam(1, 2, 3, 4)"]


def test_block_sees_a_candidate_off_the_block_columns(monkeypatch):
    # Y_123 (x) r1_2 has support [3], so it is no column of the block of [4]
    real = pvh_checker._project

    def widened(syz):
        inf = real(syz)
        if syz == zamolodchikov(1, 2, 3, 4):
            inf.right[RelatorSymbol.y(1, 2, 3), G(1, 2)] = 1
        return inf

    monkeypatch.setattr(pvh_checker, "_project", widened)
    rep = pvh_report(pvb(4))
    assert not rep.passed
    assert rep.actual["failures"]["not_in_kernel"] == ["zam(1, 2, 3, 4)"]


def test_block_sees_a_candidate_that_is_no_syzygy(monkeypatch):
    real = pvh_checker._block_candidates
    sym = RelatorSymbol.y(1, 2, 3)
    bare = SyzygyElement(4, {((G(3, 4),), sym, ()): 1})
    monkeypatch.setattr(pvh_checker, "_block_candidates",
                        lambda s: real(s) + [("bare", bare)] * (s == 4))
    rep = pvh_report(pvb(4))
    assert not rep.passed
    assert rep.actual["failures"] == {"delta_k_nonzero": ["bare"]}


def _equivariant(cols, vectors):
    """`_block_equivariant` on the `_numbered` block of label-keyed columns
    and vectors."""
    block = pvb_family._numbered(cols)
    lab_no = block[0]
    return pvb_family._block_equivariant(
        4, block, [{lab_no[lab]: c for lab, c in v.items()} for v in vectors])


def test_block_equivariance_sees_a_sign_flip_in_one_column():
    cols = pvh_checker._block_columns(4)
    vectors = [_project(c).as_vector()
               for _, c in pvh_checker._block_candidates(4)]
    assert _equivariant(cols, vectors)
    lab = next(iter(cols))
    flipped = {**cols, lab: {w: -c for w, c in cols[lab].items()}}
    assert not _equivariant(flipped, vectors)
    negated = [{k: -c for k, c in vectors[0].items()}] + vectors[1:]
    assert _equivariant(cols, negated)  # up to sign


def _flip_two_columns(cols, vectors):
    labs = list(cols)[:2]
    return {**cols, **{lab: {w: -c for w, c in cols[lab].items()}
                       for lab in labs}}, vectors


def _drop_a_column(cols, vectors):
    lab = next(lab for lab in cols if all(lab not in v for v in vectors))
    return {k: col for k, col in cols.items() if k != lab}, vectors


def _add_a_word_renamed_into_no_column(cols, vectors):
    # (1 2) renames r1_2 r1_2 r1_2 to r2_1 r2_1 r2_1, a word of no column
    assert all((G(2, 1),) * 3 not in col for col in cols.values())
    lab = next(iter(cols))
    return {**cols, lab: {**cols[lab], (G(1, 2),) * 3: 1}}, vectors


def _double_a_vector(cols, vectors):
    return cols, vectors + vectors[:1]


@pytest.mark.parametrize("fault", [_flip_two_columns, _drop_a_column,
                                   _add_a_word_renamed_into_no_column,
                                   _double_a_vector])
def test_block_equivariance_sees_a_fault(fault):
    cols = pvh_checker._block_columns(4)
    vectors = [_project(c).as_vector()
               for _, c in pvh_checker._block_candidates(4)]
    assert not _equivariant(*fault(cols, vectors))


def test_relabel_canonicalizes_c_symbols():
    sigma = {1: 3, 2: 4, 3: 1, 4: 2}
    assert RelatorSymbol.c((1, 2), (3, 4))[0].relabel(sigma) == \
        RelatorSymbol.c((3, 4), (1, 2))
    assert RelatorSymbol.y(1, 2, 3).relabel(sigma) == \
        (RelatorSymbol.y(3, 4, 1), 1)
    assert RelatorSymbol.c((1, 2), (3, 4))[0].strands == {1, 2, 3, 4}


# -- degree 2 by support block ------------------------------------------------

#: per family: (relators, rank) of the degree-2 blocks of support [3] and [4]
_DEGREE2_BLOCKS = {Family.PVB: {3: (6, 6), 4: (12, 12)},
                   Family.PFB: {3: (1, 1), 4: (3, 3)},
                   Family.PB: {3: (2, 2), 4: (3, 3)}}


@pytest.mark.parametrize("family", sorted(_DEGREE2_BLOCKS))
def test_degree2_blocks_sum_to_the_full_relator_list(family):
    for s, (relators, rank) in _DEGREE2_BLOCKS[family].items():
        assert pvb_family._degree2_block(family, s) == (
            {"relators": relators, "rank": rank}, {})
    for n in range(2, 9):
        fam = AlgebraFamily(family, n)
        rels = quadratic_relators(fam)
        full = len(rels), SparseMatrix([r.terms() for r in rels]).rank()
        assert tuple(sum(math.comb(n, s) * block[t] for s, block
                         in _DEGREE2_BLOCKS[family].items() if s <= n)
                     for t in (0, 1)) == full
        rep = degree2_report(fam)
        assert (rep.expected, rep.actual) == ({"rank": full[0]},
                                              {"rank": full[1]})
        assert rep == degree2_report(presentation(fam))
        if family is not Family.PB:
            d2 = pvh_report(fam).summary["degree2"]
            assert (d2["relators"], d2["rank"], d2["pass"]) == (*full, True)


def test_pvh_report_builds_no_family_relator_list(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"a family list was built for {args}")

    def small(build):
        def guarded(n, *args):
            assert n <= 6, f"{build.__name__}({n}) was called"
            return build(n, *args)
        return guarded

    for module in (pvh_checker, pvb_family):
        monkeypatch.setattr(module, "quadratic_relators", refuse)
    monkeypatch.setattr(pvb_family, "presentation", refuse)
    # the blocks list symbols on [s] only, and renamed copies only on failure
    monkeypatch.setattr(pvb_family, "relator_symbols",
                        small(pvb_family.relator_symbols))
    monkeypatch.setattr(pvb_family, "_block_copies",
                        small(pvb_family._block_copies))
    n = 12
    for family, relators in ((Family.PVB, math.perm(n, 3) + math.perm(n, 4) // 2),
                             (Family.PFB, math.comb(n, 3) + 3 * math.comb(n, 4))):
        rep = pvh_report(AlgebraFamily(family, n))
        assert rep.passed
        assert rep.summary["degree2"] == {"relators": relators,
                                          "rank": relators, "pass": True}
    for argv in (["psi"], *(["degree2", "--family", f.value]
                            for f in sorted(_DEGREE2_BLOCKS))):
        out = io.StringIO()
        assert run(["verify", *argv, "--n", str(n)], out=out) == 0
        assert out.getvalue().startswith("[PASS] ")


@pytest.mark.parametrize("family", [Family.PFB, Family.PVB])
def test_degree2_block_sees_a_relator_sign_flipped_under_relabeling(
        monkeypatch, family):
    # the flip changes no rank (and no pfb relator, which is made
    # primitive): only the relabeling check of the pvb block sees it
    _flip_y213(monkeypatch)
    rep = pvh_report(AlgebraFamily(family, 4))
    d2 = rep.summary["degree2"]
    assert d2["relators"] == d2["rank"] and not d2["pass"]
    assert not rep.passed
    assert rep.actual["failures"]["degree2"] == {"not_equivariant": [3]}


@pytest.mark.parametrize("family", sorted(_DEGREE2_BLOCKS))
def test_degree2_report_sees_a_relator_sign_flipped_under_relabeling(
        monkeypatch, family):
    # pb's block is checked through its psi images over the pvb block
    _flip_y213(monkeypatch)
    rep = degree2_report(AlgebraFamily(family, 4))
    assert not rep.passed
    assert rep.actual == {"rank": rep.expected["rank"],
                          "failures": {"not_equivariant": [3]}}


# -- integer coefficients on the block path -----------------------------------

@pytest.mark.parametrize("s", sorted(_BLOCKS))
def test_block_path_coefficients_are_ints(s):
    cols = pvh_checker._block_columns(s)
    assert all(type(c) is int for col in cols.values() for c in col.values())
    for _, syz in pvh_checker._block_candidates(s):
        assert all(type(c) is int for _, c in syz.items())
        vec = _project(syz).as_vector()
        assert vec and all(type(c) is int for c in vec.values())


def _group_words(sym):
    """Oracle: the two words of delta_K(sym) with their signs."""
    if sym.kind == "Y":
        i, j, k = sym.indices
        w = (G(i, j), G(i, k), G(j, k))
    else:
        w = tuple(G(*ij) for ij in sym.indices)
    return [(w, 1), (w[::-1], -1)]


def _fraction_delta_K(terms):
    out = {}
    for (lw, sym, rw), c in terms:
        for w, sign in _group_words(sym):
            key = lw + w + rw
            out[key] = out.get(key, Fraction(0)) + sign * Fraction(c)
    return {w: c for w, c in out.items() if c}


def _fraction_project(terms):
    right, left = {}, {}
    for (lw, sym, rw), c in terms:
        for g in rw:
            right[sym, g] = right.get((sym, g), Fraction(0)) + Fraction(c)
        for g in lw:
            left[g, sym] = left.get((g, sym), Fraction(0)) + Fraction(c)
    return ({k: c for k, c in right.items() if c},
            {k: c for k, c in left.items() if c})


def _fraction_apply(cols, vec):
    img = {}
    for lab, c in vec.items():
        for w, cw in cols[lab].items():
            img[w] = img.get(w, Fraction(0)) + Fraction(c) * Fraction(cw)
    return {w: c for w, c in img.items() if c}


def test_rational_syzygy_stays_exact():
    # 1/2 zam_1234 + 3/2 ycomm_12345 and the same plus two bare terms, each
    # checked against Fraction-only oracles fed the raw weighted terms
    half, three_halves = Fraction(1, 2), Fraction(3, 2)
    terms = ([(k, half * c) for k, c in zamolodchikov(1, 2, 3, 4, n=5).items()]
             + [(k, three_halves * c)
                for k, c in y_commutation_syzygy(1, 2, 3, 4, 5).items()])
    syz = half * zamolodchikov(1, 2, 3, 4, n=5) \
        + three_halves * y_commutation_syzygy(1, 2, 3, 4, 5)
    extra = [(((G(3, 4),), RelatorSymbol.y(1, 2, 3), (G(1, 5),)), half),
             (((G(1, 2),), RelatorSymbol.y(3, 4, 5), ()), three_halves)]
    bent = syz + SyzygyElement(5, extra)
    assert delta_K(syz) == FreeElement.zero(5)
    assert delta_K(bent).terms() == _fraction_delta_K(terms + extra) != {}

    inf = _project(syz)
    assert (inf.right, inf.left) == _fraction_project(terms)
    values = [*inf.right.values(), *inf.left.values()]
    assert values and all(type(c) is Fraction for c in values)

    cols = delta_a_columns(5)
    vec = inf.as_vector()
    assert _apply_columns(cols, vec) == {}
    r_side = {lab: c for lab, c in vec.items() if lab[0] == "R"}
    img = _apply_columns(cols, r_side)
    assert img == _fraction_apply(cols, r_side) != {}
    assert all(type(c) is Fraction for c in img.values())
