"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass line once its assertions succeed (visible
with `pytest -s` or in captured output); a pytest failure is the fail line.
Stated runtime ceilings are asserted against the wall clock.
"""

import itertools
import time
from fractions import Fraction

import pytest

from qal.exact_core import FreeElement, SparseMatrix
from qal.graph_basis import (
    confluence_check,
    coproduct_table_check,
    enumerate_chain_gangs,
    enumerate_updown,
    lah,
    lah_by_enumeration,
    lex_normal_form,
    parse_wedge_word,
    random_relation_multiple,
    stirling1,
    stirling2,
)
from qal.pvb_family import (AlgebraFamily, Family, dual_tilde_delta, presentation,
                            psi_image_check)
from qal.pvh_checker import (
    InfinitesimalSyzygy,
    delta_K,
    infinitesimal_from_dual,
    project_to_infinitesimal,
    pvh_report,
    zamolodchikov,
)
from qal.quad_algebra import (
    PositionSubspace,
    annihilator,
    graded_dim,
    koszul_euler_check,
)

import random


def pvb(n):
    return AlgebraFamily(Family.PVB, n)


class _Clock:
    def __init__(self, criterion, limit_s):
        self.criterion = criterion
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            assert elapsed < self.limit, \
                f"criterion {self.criterion} exceeded {self.limit}s ({elapsed:.1f}s)"
            print(f"[PASS] criterion {self.criterion} ({elapsed:.2f}s)")
        return False


def test_c01_lah_dimension_law():
    with _Clock("1: Lah dimension law", 30):
        for n in range(3, 7):
            for k in range(0, 4):
                expect = lah_by_enumeration(n, n - k)
                assert len(enumerate_chain_gangs(n, k)) == expect


@pytest.mark.parametrize("n", [3, 4])
def test_c02_basis_certification_by_linear_algebra(n):
    with _Clock(f"2: basis certification n={n}", 120):
        dual = annihilator(presentation(pvb(n)))
        for k in range(0, 4):
            monos = enumerate_chain_gangs(n, k)
            dim = graded_dim(dual, k)
            assert len(monos) == dim == lah_by_enumeration(n, n - k)
            # independence inside the degree-k component of the dual:
            # the monomials' tensor words must be independent modulo the
            # relation blocks
            words = [{tuple(m.edges): Fraction(1)} for m in monos]
            if k < 2:
                assert SparseMatrix(words).rank() == len(monos) if monos else True
                continue
            blocks = []
            for i in range(0, k - 1):
                blocks.extend(PositionSubspace(dual, k, i).vectors())
            base_rank = SparseMatrix(blocks).rank()
            total_rank = SparseMatrix(blocks + words).rank()
            assert total_rank == base_rank + len(monos)


def test_c03_lah_stirling_identity():
    with _Clock("3: Lah-Stirling identity", 10):
        for n in range(0, 9):
            for k in range(0, n + 1):
                by_enum = lah_by_enumeration(n, k)
                assert by_enum == lah(n, k)
                assert by_enum == sum(
                    stirling1(n, l) * stirling2(l, k) for l in range(0, n + 1))


def test_c04_updown_basis():
    with _Clock("4: Up-Down basis", 60):
        for n in range(2, 7):
            for k in range(0, 4):
                assert len(enumerate_updown(n, k)) == lah_by_enumeration(n, n - k)
        n = 4
        for k in range(1, 4):
            cg = enumerate_chain_gangs(n, k)
            ud = enumerate_updown(n, k)
            index = {m: t for t, m in enumerate(ud)}
            rows = []
            for m in cg:
                nf = lex_normal_form(m)
                assert set(nf) <= set(index)
                rows.append({index[t]: c for t, c in nf.items()})
            square = SparseMatrix(rows, columns=list(range(len(ud))))
            assert square.rank() == len(rows) == len(ud)


def test_c05_relator_map():
    with _Clock("5: relator catalogue map", 10):
        n = 4
        monos = enumerate_chain_gangs(n, 2)
        assert len(monos) == 36
        images = []
        for m in monos:
            e1, e2 = m.edges
            img = dual_tilde_delta(m, n)
            if e1.j == e2.i:
                i, j, k = e1.i, e1.j, e2.j
            elif e2.j == e1.i:
                i, j, k = e2.i, e2.j, e1.j
            else:
                i, j, k = None, None, None
            if i is not None:
                # y_ijk = [r_ij, r_ik] + [r_ij, r_jk] + [r_ik, r_jk]
                r = lambda a, b: FreeElement.generator(n, a, b)
                y = (r(i, j) * r(i, k) - r(i, k) * r(i, j)
                     + r(i, j) * r(j, k) - r(j, k) * r(i, j)
                     + r(i, k) * r(j, k) - r(j, k) * r(i, k))
                assert img == y
            else:
                r = FreeElement.generator
                assert img == r(n, *e1) * r(n, *e2) - r(n, *e2) * r(n, *e1)
            images.append(img.terms())
        assert SparseMatrix(images).rank() == 36


def test_c06_coproduct_table():
    with _Clock("6: co-product table", 10):
        rep = coproduct_table_check(4)
        assert rep.passed
        assert rep.params["formulas"] == 14


@pytest.mark.parametrize("n", [4, 5])
def test_c07_zamolodchikov_exactness(n):
    with _Clock(f"7: Zamolodchikov exactness n={n}", 30):
        for tup in itertools.permutations(range(1, n + 1), 4):
            z = zamolodchikov(*tup, n=n)
            assert len(z) == 14
            assert delta_K(z) == FreeElement.zero(n)


@pytest.mark.parametrize("n,kernel_dim", [(4, 24), (5, 240)])
def test_c08_degree3_surjectivity(n, kernel_dim):
    with _Clock(f"8: degree-3 surjectivity n={n}", 300):
        assert lah_by_enumeration(n, n - 3) == kernel_dim
        rep = pvh_report(pvb(n))
        assert rep.passed
        d3 = rep.summary["degree3"]
        assert d3["kernel_dim"] == d3["image_rank"] == kernel_dim
        # each projected tetrahedron equals the dual image of its 4-chain
        for tup in itertools.permutations(range(1, n + 1), 4):
            i, j, k, l = tup
            z = project_to_infinitesimal(zamolodchikov(*tup, n=n))
            chain, sign = parse_wedge_word(f"{i}>{j},{j}>{k},{k}>{l}")
            d = infinitesimal_from_dual(chain, n)
            if sign < 0:
                d = InfinitesimalSyzygy(
                    n, {key: -c for key, c in d.right.items()},
                    {key: -c for key, c in d.left.items()})
            assert z == d


def test_c09_confluence():
    with _Clock("9: confluence", 60):
        rep = confluence_check(5, trials=200, seed=20120901)
        assert rep.passed
        assert rep.actual["cases"] == {"X": True, "Y": True, "Z": True}
        assert rep.actual["mismatches"] == 0


def test_c10_defect_multiplicativity():
    with _Clock("10: defect multiplicativity", 30):
        rng = random.Random(20120902)
        for _ in range(500):
            n = rng.randint(4, 7)
            join_term, others = random_relation_multiple(rng, n)
            d = join_term.defect()
            for o in others:
                assert d > o.defect()


def test_c11_koszul_euler():
    with _Clock("11: Koszul Euler check", 120):
        rep3 = koszul_euler_check(presentation(pvb(3)), 4)
        assert rep3.passed
        assert rep3.actual == {1: 0, 2: 0, 3: 0, 4: 0}
        rep2 = koszul_euler_check(presentation(pvb(2)), 3)
        assert rep2.passed


def test_c12_psi_compatibility():
    with _Clock("12: psi compatibility", 10):
        rep = psi_image_check(4)
        assert rep.passed
