"""Quadratic presentations, quadratic duals, and graded dimension counts.

A quadratic presentation is a generator list (a basis of V) together with a
linearly independent list of homogeneous degree-2 relations spanning
R inside V (x) V.  The quadratic algebra is TV/<R> and its dual is
TV*/<R-perp>; both graded dimensions are computed by exact rank, one
degree after the other on integer rows, each degree in the quotient
A^m = (A^(m-1) (x) V) / image(A^(m-2) (x) R) over the standard words of
the degree before (see `graded_dims`).
"""

from __future__ import annotations

import contextlib
import itertools
import sys
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from math import lcm

from .exact_core import (
    FreeElement,
    Generator,
    SparseMatrix,
    _Echelon,
    _exact,
    _int_row,
    _strip_content,
    json_field,
    parse_token,
)
from .report import VerificationReport

#: Largest tensor-space dimension a single computation may touch by default.
DEFAULT_BUDGET = 200_000


@contextlib.contextmanager
def _int_digits_unlimited():
    """Lift Python's limit on the digits of an int written as a string while
    qal writes integers it computed itself (Lah numbers or budget counts);
    the limit is restored afterwards, so input is still parsed under it.
    Pythons without the limit have no setter."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    limit = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


class SizeBudgetError(RuntimeError):
    """A computation would exceed its budget: `what`, with the count written
    in full in its {}, exceeds it."""

    def __init__(self, dimension: int, budget: int,
                 what: str = "tensor space of dimension {}"):
        self.dimension = dimension
        self.budget = budget
        with _int_digits_unlimited():
            super().__init__(f"{what.format(dimension)} exceeds budget {budget}")


def _check_budget(dim: int, budget: int,
                  what: str = "tensor space of dimension {}"):
    if dim > budget:
        raise SizeBudgetError(dim, budget, what)


class QuadraticPresentation:
    """A finite quadratic presentation: V-basis plus degree-2 relations.

    The relation list must be homogeneous of word-length 2 and linearly
    independent; both are enforced at construction.
    """

    def __init__(self, n: int, generators: Sequence[Generator],
                 relations: Sequence[FreeElement]):
        self.n = n
        self.generators = [Generator(*g) for g in generators]
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generators")
        gset = set(self.generators)
        for r in relations:
            if r.n != n:
                raise ValueError("relation over wrong ambient n")
            if not r or not r.is_homogeneous(2):
                raise ValueError(f"relation not homogeneous of degree 2: {r!r}")
            for w in r.terms():
                if w[0] not in gset or w[1] not in gset:
                    raise ValueError(f"relation uses generator outside V: {w}")
        self.relations = list(relations)
        if relations:
            m = SparseMatrix([r.terms() for r in relations])
            if m.rank() != len(self.relations):
                raise ValueError("relation list is linearly dependent")

    @property
    def dim_v(self) -> int:
        return len(self.generators)

    @property
    def dim_r(self) -> int:
        return len(self.relations)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "generators": [g.token() for g in self.generators],
            "relations": [r.to_json() for r in self.relations],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "QuadraticPresentation":
        """Inverse of `to_json`; a missing or ill-typed field raises
        ValueError naming it."""
        n = json_field(data, "n", int)
        gens = [parse_token(t)
                for t in json_field(data, "generators", list, str)]
        rels = [FreeElement.from_json(n, r)
                for r in json_field(data, "relations", list, Mapping)]
        return cls(n, gens, rels)

    def __repr__(self) -> str:
        return (f"QuadraticPresentation(n={self.n}, dim V={self.dim_v}, "
                f"dim R={self.dim_r})")


class DualPresentation(QuadraticPresentation):
    """The quadratic dual: same-shape presentation on dual generators.

    Relations span the annihilator of the primal relation space, so
    dim R + dim R-perp = (dim V)^2; checked at construction.
    """

    def __init__(self, primal: QuadraticPresentation,
                 relations: Sequence[FreeElement]):
        super().__init__(primal.n, primal.generators, relations)
        self.primal = primal
        if primal.dim_r + self.dim_r != primal.dim_v ** 2:
            raise ValueError("annihilator has wrong dimension")


@dataclass(frozen=True)
class PositionSubspace:
    """The subspace V^(x)i (x) R (x) V^(x)(m-i-2) inside V^(x)m."""

    presentation: QuadraticPresentation
    m: int
    i: int

    def __post_init__(self):
        if not (0 <= self.i <= self.m - 2):
            raise ValueError(f"position {self.i} invalid for degree {self.m}")

    def vectors(self) -> Iterable[dict]:
        """Spanning basis vectors, keyed by word labels of V^(x)m."""
        gens = self.presentation.generators
        for left in itertools.product(gens, repeat=self.i):
            for right in itertools.product(gens, repeat=self.m - self.i - 2):
                for rel in self.presentation.relations:
                    yield {left + w + right: c for w, c in rel.items()}

    @property
    def dimension(self) -> int:
        # relations are independent, so the listed vectors are a basis
        nv = self.presentation.dim_v
        return self.presentation.dim_r * nv ** (self.m - 2)


def annihilator(p: QuadraticPresentation) -> DualPresentation:
    """The dual presentation: relations spanning R-perp in V* (x) V*.

    The dual generators reuse the primal generator labels (we write r_ij for
    the dual of r_ij throughout).
    """
    m = SparseMatrix([r.terms() for r in p.relations],
                     columns=list(itertools.product(p.generators, repeat=2)))
    return DualPresentation(p, [FreeElement(p.n, vec)
                                for vec in m.nullspace()])


def check_degree_budget(dim_v: int, max_degree: int,
                        budget: int = DEFAULT_BUDGET) -> None:
    """Raise SizeBudgetError for the first degree 2..max_degree whose tensor
    space V^(x)m exceeds the budget (degrees 0 and 1 need no rank)."""
    for m in range(2, max_degree + 1):
        _check_budget(dim_v ** m, budget)


def graded_dims(p: QuadraticPresentation, max_degree: int,
                budget: int = DEFAULT_BUDGET) -> list[int]:
    """[dim A^0, ..., dim A^max_degree] for A = TV/<R>, in one pass.

    The degree-m relation space is I_m = I_(m-1) (x) V + V^(x)(m-2) (x) R,
    so A^m = (A^(m-1) (x) V) / image(V^(x)(m-2) (x) R).  The image of
    u (x) r = sum r_ab u a (x) b depends only on the class of u in A^(m-2),
    so degree m eliminates one row per (relation, standard word s of degree
    m-2), sum r_ab [s a] (x) b, in a_(m-1) * dim V columns numbered
    t * dim V + b.  The standard words of degree m are the non-pivot columns;
    the product [s b] of a standard word of degree m-1 by a generator is
    read off the back-reduced echelon: a non-pivot column is itself, and a
    pivot column c with row p_c e_c + sum v_f e_f is -sum (v_f / p_c) e_f,
    kept as integers over the one denominator p_c.  The last degree needs the
    rank only.  If A^(m-1) = 0 then so is A^m.  Every degree is checked
    against the budget before any elimination.
    """
    if max_degree < 0:
        raise ValueError("degree must be >= 0")
    nv = p.dim_v
    check_degree_budget(nv, max_degree, budget)
    index = {g: t for t, g in enumerate(p.generators)}
    pair_index = {(a, b): index[a] * nv + index[b]
                  for a in p.generators for b in p.generators}
    rels = []  # each relation as {a: [(b, r_ab), ...]}
    for rel in p.relations:
        by_first: dict[int, list] = {}
        for k, v in _strip_content(_int_row(rel.items(), pair_index)[1]).items():
            by_first.setdefault(k // nv, []).append((k % nv, v))
        rels.append(by_first)
    dims = [1, nv][:max_degree + 1]
    # mult[s * nv + a] = (den, {t: num}): [s a] = sum (num / den) e_t over the
    # standard words t of the degree just reached
    mult = [(1, {a: 1}) for a in range(nv)]
    for m in range(2, max_degree + 1):
        if dims[-1] == 0:
            dims.append(0)
            continue
        rows = []
        for rel in rels:
            for s in range(dims[-2]):
                parts = [(mult[s * nv + a], terms) for a, terms in rel.items()]
                common = lcm(*(den for (den, _), _ in parts))
                row: dict[int, int] = {}
                for (den, img), terms in parts:
                    for b, r in terms:
                        k = common // den * r
                        for t, num in img.items():
                            col = t * nv + b
                            v = row.get(col, 0) + k * num
                            if v:
                                row[col] = v
                            else:
                                del row[col]
                if row:
                    rows.append(_strip_content(row))
        # leading column descending, shortest first: most rows then enter
        # the echelon as new pivots, with little reduction and fill-in
        rows.sort(key=lambda row: (-min(row), len(row)))
        ech = _Echelon()
        for row in rows:
            ech.insert(row)
        ncols = dims[-1] * nv
        dims.append(ncols - ech.rank)
        if m < max_degree:
            ech.back_reduce()
            free = (col for col in range(ncols) if col not in ech.pivots)
            std = {col: t for t, col in enumerate(free)}
            mult = []
            for col in range(ncols):
                row = ech.pivots.get(col)
                if row is None:
                    mult.append((1, {std[col]: 1}))
                else:
                    mult.append((row[col], {std[f]: -v for f, v in row.items()
                                            if f != col}))
    return dims


def relation_blocks_rank(p: QuadraticPresentation, m: int,
                         budget: int = DEFAULT_BUDGET) -> int:
    """Exact rank of sum over i of the position subspaces inside V^(x)m."""
    _check_budget(p.dim_v ** m, budget)
    if m < 2:
        return 0
    return p.dim_v ** m - graded_dims(p, m, budget)[m]


def graded_dim(p: QuadraticPresentation, m: int,
               budget: int = DEFAULT_BUDGET) -> int:
    """dim A^m for A = TV/<R>, by exact rank of the degree-m relation space."""
    if m >= 2:  # name degree m itself when it is over budget
        _check_budget(p.dim_v ** m, budget)
    return graded_dims(p, m, budget)[m]


def _deg3_columns(relators: Mapping, generators: Iterable[Generator]) -> dict:
    """Columns of the degree-3 map R (x) V  (+)  V (x) R  ->  V^(x)3.

    `relators` maps a label to the V (x) V image of a relator.  The column
    ("R", label, g) is that image tensored by g on the right and
    ("L", g, label) the image tensored by g on the left, both with a plus
    sign (the delta_A convention), so the R side of a kernel vector spans
    R (x) V  intersect  V (x) R.  Integral entries are ints.
    """
    cols: dict = {}
    for lab, img in relators.items():
        img = [(w, _exact(c)) for w, c in img.items()]
        for g in generators:
            cols[("R", lab, g)] = {w + (g,): c for w, c in img}
            cols[("L", g, lab)] = {(g,) + w: c for w, c in img}
    return cols


def _apply_columns(cols: Mapping, vec: Mapping) -> dict:
    """The image of a vector in column coordinates, zero terms dropped;
    integer columns and vectors give integer values."""
    img: dict = {}
    for lab, c in vec.items():
        for w, cw in cols[lab].items():
            v = img.get(w, 0) + c * cw
            if v:
                img[w] = v
            elif w in img:
                del img[w]
    return img


def deg3_intersection(p: QuadraticPresentation,
                      budget: int = DEFAULT_BUDGET) -> list[FreeElement]:
    """Exact basis of R (x) V  intersect  V (x) R inside V^(x)3.

    Read off the R side of the kernel of the degree-3 map; the dimension
    equals dim of the dual algebra in degree 3.  V^(x)3 is checked against
    the budget before the map is built.
    """
    _check_budget(p.dim_v ** 3, budget)
    cols = _deg3_columns(dict(enumerate(p.relations)), p.generators)
    return [FreeElement(p.n, _apply_columns(
                cols, {lab: c for lab, c in vec.items() if lab[0] == "R"}))
            for vec in SparseMatrix.from_columns(cols).nullspace()]


def koszul_euler_check(p: QuadraticPresentation, max_degree: int,
                       budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Alternating-sum test on graded dimensions of A and its dual.

    For a Koszul algebra the Hilbert series satisfy h_dual(-t) h(t) = 1, so
    every residual sum_k (-1)^k dim A-dual^k dim A^(m-k) with 1 <= m <= D must
    vanish.  This is a necessary condition; the quadratic Groebner basis of
    the graph-basis module is the actual Koszulness certificate.
    """
    dual = annihilator(p)
    a = graded_dims(p, max_degree, budget)
    b = graded_dims(dual, max_degree, budget)
    residuals = {}
    for m in range(1, max_degree + 1):
        residuals[m] = sum((-1) ** k * b[k] * a[m - k] for k in range(m + 1))
    return VerificationReport(
        check="koszul-euler",
        params={"n": p.n, "dim_v": p.dim_v, "max_degree": max_degree},
        expected={m: 0 for m in residuals},
        actual=residuals,
        payload={"primal_dims": a, "dual_dims": b},
    )
