"""The quadraticity criterion engine for the pvb family.

Global syzygies are elements of the free relator module (rational
combinations of left-word / relator-symbol / right-word triples over the
group generators) killed by the evaluation map delta_K.  Projecting a global
syzygy to its lowest shifted degree lands in the kernel of the graded map
delta_A on QY (x) V  (+)  V (x) QY; the criterion holds in degree 3 when
those projections span the whole kernel.

The nontrivial degree-3 syzygies come from the Zamolodchikov tetrahedron
element, one per ordered 4-tuple of strands; the remaining kernel is covered
by commutation syzygies of relators with far-away generators.  The bare
commutator of a relator with a generator is not a syzygy; its C-symbol
corrections, one per letter of the relator's group words, are derived from
those words (`commutation_syzygy`) and survive into the projection.

Coefficients are exact and stay plain ints while they are integral (every
relator, syzygy and delta_A column has entries +-1), from the syzygies
through delta_K and the projection to the block columns, numbered once and
ranked as columns; a rational coefficient stays an exact Fraction.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from .exact_core import (FreeElement, Generator, SparseMatrix, Word, _Echelon,
                         _exact, _SparseTerms, all_generators)
from .pvb_family import (AlgebraFamily, Family, RelatorSymbol,
                         _block_failures, _degree2_block, _numbered,
                         quadratic_relators, relator_symbols)
from .quad_algebra import (DEFAULT_BUDGET, _apply_columns, _check_budget,
                           _deg3_columns, _sum_blocks, check_degree_budget)
from .report import VerificationReport

#: coordinates of the degree-3 relator-module component:
#: ("R", sym, g) spans QY (x) V, ("L", g, sym) spans V (x) QY.
R3Label = tuple

SyzygyTerm = tuple[Word, RelatorSymbol, Word]


class NotASyzygyError(ValueError):
    """The element is not killed by delta_K (or is not in filtration >= 3)."""


def _as_word(seq) -> Word:
    return tuple(Generator(*g) for g in seq)


class SyzygyElement(_SparseTerms):
    """Rational combination of (left word, relator symbol, right word)
    triples; an element of the free relator module over the group ring.
    A term's symbol may be given as a (symbol, sign) pair, whose sign then
    multiplies the coefficient.  Integral coefficients are kept as ints."""

    __slots__ = ()
    _scalar = staticmethod(_exact)

    def __init__(self, n: int, terms: Mapping[SyzygyTerm, Fraction] | Iterable = ()):
        self.n = n
        d: dict[SyzygyTerm, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for (lw, sym, rw), c in items:
            sym, sign = sym if type(sym) is tuple else (sym, 1)
            key = (_as_word(lw), sym, _as_word(rw))
            d[key] = d.get(key, 0) + sign * _exact(c)
        self._terms = {k: _exact(c) for k, c in sorted(d.items()) if c}

    def __repr__(self):
        bits = []
        for (lw, sym, rw), c in self._terms.items():
            l = ".".join(g.token().upper() for g in lw)
            r = ".".join(g.token().upper() for g in rw)
            bits.append(f"{c}*({l}|{sym}|{r})")
        return " + ".join(bits) or "0"


def delta_K(s: SyzygyElement, n: int | None = None) -> FreeElement:
    """Evaluate symbols to group relators: sum of left * relator * right,
    over the (word, +-1) terms of each symbol, zero sums dropped as they
    occur."""
    out: dict[Word, Fraction] = {}
    for (lw, sym, rw), c in s.items():
        for w, sign in sym.group_terms():
            key = lw + w + rw
            v = out.get(key, 0) + sign * c
            if v:
                out[key] = v
            else:
                del out[key]
    return FreeElement(n if n is not None else s.n, out)


def zamolodchikov(i: int, j: int, k: int, l: int, n: int | None = None
                  ) -> SyzygyElement:
    """The 14-term tetrahedron syzygy for the ordered strand 4-tuple.

    Seven positive and seven negative terms, transcribed from the telescoping
    walk around the tetrahedron; delta_K of the result is identically 0.
    """
    if len({i, j, k, l}) != 4:
        raise ValueError(f"indices must be distinct: {(i, j, k, l)}")
    nn = n if n is not None else max(i, j, k, l)
    Y, C = RelatorSymbol.y, RelatorSymbol.c
    return SyzygyElement(nn, [
        (((), Y(j, k, l), ((i, l), (i, k), (i, j))), 1),
        ((((j, k), (j, l)), Y(i, k, l), ((i, j),)), 1),
        ((((j, k), (j, l), (i, k), (i, l)), C((i, j), (k, l)), ()), 1),
        ((((j, k),), C((i, k), (j, l)), ((i, l), (i, j), (k, l))), 1),
        ((((j, k), (i, k)), Y(i, j, l), ((k, l),)), 1),
        (((), Y(i, j, k), ((i, l), (j, l), (k, l))), 1),
        ((((i, j), (i, k)), C((i, l), (j, k)), ((j, l), (k, l))), 1),
        ((((i, j), (i, k), (i, l)), Y(j, k, l), ()), -1),
        ((((i, j),), Y(i, k, l), ((j, l), (j, k))), -1),
        (((), C((i, j), (k, l)), ((i, l), (i, k), (j, l), (j, k))), -1),
        ((((k, l), (i, j), (i, l)), C((i, k), (j, l)), ((j, k),)), -1),
        ((((k, l),), Y(i, j, l), ((i, k), (j, k))), -1),
        ((((k, l), (j, l), (i, l)), Y(i, j, k), ()), -1),
        ((((k, l), (j, l)), C((i, l), (j, k)), ((i, k), (i, j))), -1),
    ])


def commutation_syzygy(x, st, n: int | None = None) -> SyzygyElement:
    """Exact global syzygy expressing that the relator X commutes with r_st.

    x is a symbol X or a (symbol, sign) pair, st two strands X misses.  Each
    letter a of a group word w of X passes R_st through one C relator,
    w R - R w = sum over a of (w before a)(a R - R a)(w after a), so [X, R_st]
    less these corrections, read off X's own words, is delta_K-zero.
    """
    sym, sign = x if type(x) is tuple else (x, 1)
    st = tuple(st)
    if not sym.strands.isdisjoint(st):
        raise ValueError(f"r_{st} meets the strands of {sym}")
    nn = n if n is not None else max(*sym.strands, *st)
    return SyzygyElement(nn, [
        (((), sym, (st,)), sign), (((st,), sym, ()), -sign),
        *(((w[:p], RelatorSymbol.c(a, st), w[p + 1:]), -sign * sigma)
          for w, sigma in sym.group_terms() for p, a in enumerate(w))])


def y_commutation_syzygy(i: int, j: int, k: int, s: int, t: int,
                         n: int | None = None) -> SyzygyElement:
    """Exact global syzygy expressing that y_ijk commutes with r_st."""
    return commutation_syzygy(RelatorSymbol.y(i, j, k), (s, t), n)


def c_commutation_syzygy(ij, kl, st, n: int | None = None) -> SyzygyElement:
    """Exact global syzygy expressing that c_ij^kl commutes with r_st."""
    return commutation_syzygy(RelatorSymbol.c(ij, kl), st, n)


def _commutation_syzygies(n: int, size: int) -> list[SyzygyElement]:
    """The commutation syzygies on `size` distinct strands of [n]: y-type for
    5 (an ordered triple, then a pair), c-type for 6 (two ordered pairs in
    increasing order, then a pair)."""
    tuples = itertools.permutations(range(1, n + 1), size)
    if size == 5:
        return [y_commutation_syzygy(*t, n=n) for t in tuples]
    return [c_commutation_syzygy(t[:2], t[2:4], t[4:], n=n)
            for t in tuples if t[:2] < t[2:4]]


def trivial_syzygies(n: int) -> list[SyzygyElement]:
    """All commutation syzygies on [n]: y-type needs 5 strands, c-type 6."""
    return _commutation_syzygies(n, 5) + _commutation_syzygies(n, 6)


@dataclass
class InfinitesimalSyzygy:
    """A degree-3 kernel element of delta_A, in relator-symbol coordinates.

    `right` holds the QY (x) V component, `left` the V (x) QY component; the
    sign convention puts the -1 of the direct-sum splitting on the left part,
    so that the tensor images satisfy right + left = 0 in V^(x)3.
    Integral coefficients are kept as ints.
    """

    n: int
    right: dict[tuple[RelatorSymbol, Generator], Fraction] = field(default_factory=dict)
    left: dict[tuple[Generator, RelatorSymbol], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        self.right = {k: _exact(c) for k, c in self.right.items() if c}
        self.left = {k: _exact(c) for k, c in self.left.items() if c}

    def as_vector(self) -> dict[R3Label, Fraction]:
        v: dict[R3Label, Fraction] = {}
        for (sym, g), c in self.right.items():
            v[("R", sym, g)] = c
        for (g, sym), c in self.left.items():
            v[("L", g, sym)] = c
        return v


def project_to_infinitesimal(s: SyzygyElement) -> InfinitesimalSyzygy:
    """Shift-expand the cofactor words and keep the total-degree-3 part.

    Requires delta_K(s) = 0 (verified); a group word contributes its constant
    part 1 and its linear part (the sum of its letters), so the projection
    reads off symbol (x) letter coefficients on both sides.
    """
    if delta_K(s):
        raise NotASyzygyError("delta_K of the element is nonzero")
    return _project(s)


def _project(s: SyzygyElement) -> InfinitesimalSyzygy:
    """project_to_infinitesimal for an element already known to be
    delta_K-zero."""
    right: dict = {}
    left: dict = {}
    bare: dict = {}
    for (lw, sym, rw), c in s.items():
        bare[sym] = bare.get(sym, 0) + c
        for g in rw:
            key = (sym, g)
            right[key] = right.get(key, 0) + c
        for g in lw:
            key = (g, sym)
            left[key] = left.get(key, 0) + c
    if any(bare.values()):
        raise NotASyzygyError("element has a nonzero degree-2 component")
    return InfinitesimalSyzygy(s.n, right, left)


# ---------------------------------------------------------------------------
# the degree-3 kernel and the criterion report
# ---------------------------------------------------------------------------


def delta_a_columns(n: int) -> dict[R3Label, dict[Word, Fraction]]:
    """Columns of delta_A on QY (x) V (+) V (x) QY, keyed by R3 labels."""
    return _deg3_columns({s: s.quad_image(n) for s in relator_symbols(n)},
                         all_generators(n))


def kernel_deg3(fam: AlgebraFamily, budget: int = DEFAULT_BUDGET
                ) -> list[dict[R3Label, Fraction]]:
    """Exact basis of ker delta_A in degree 3 for pvb_n.

    V^(x)3 is checked against the budget before any relator is built, and
    degree-2 independence of the relators is verified; the kernel is the
    nullspace of the assembled column map, with dimension L(n, n-3).
    """
    if fam.family is not Family.PVB:
        raise ValueError("degree-3 kernel is computed for the pvb family")
    _check_budget(fam.dim_v ** 3, budget)
    rels = quadratic_relators(fam)
    if SparseMatrix([r.terms() for r in rels]).rank() != len(rels):
        raise RuntimeError("degree-2 relators unexpectedly dependent")
    return SparseMatrix.from_columns(delta_a_columns(fam.n)).nullspace()


def degree2_report(p, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Degree-2 criterion: the relation list is linearly independent.  A
    presentation's relations were ranked at construction, which refuses a
    dependent list; a family's are certified by support block once V (x) V
    is within the budget, a failed block check listed under "failures"."""
    if isinstance(p, AlgebraFamily):
        check_degree_budget(p.dim_v, 2, budget)
        totals, failures = _sum_blocks(
            p.n, (3, 4), lambda s: _degree2_block(p.family, s))
        relators, rank = totals["relators"], totals["rank"]
    else:
        relators = rank = p.dim_r
        failures = {}
    return VerificationReport(
        check="pvh-degree2",
        params={"n": p.n, "dim_v": p.dim_v},
        expected={"rank": relators},
        actual={"rank": rank, **({"failures": failures} if failures else {})},
        payload={"relators": relators},
    )


def _block_columns(s: int) -> dict[R3Label, dict[Word, Fraction]]:
    """The delta_A columns whose vertex support is exactly [s]: a relator
    symbol paired with every generator that touches the strands it misses."""
    full = frozenset(range(1, s + 1))
    gens = all_generators(s)
    cols: dict = {}
    for sym in relator_symbols(s):
        rest = full - sym.strands
        near = [g for g in gens if rest <= {g.i, g.j}]
        if near:
            cols.update(_deg3_columns({sym: sym.quad_image(s)}, near))
    return cols


def _block_candidates(s: int) -> list[tuple[str, SyzygyElement]]:
    """The named candidate syzygies whose vertex support is exactly [s]."""
    if s == 4:
        return [(f"zam{t}", zamolodchikov(*t, n=4))
                for t in itertools.permutations(range(1, 5))]
    if s in (5, 6):
        return [(f"comm{s}.{t}", syz)
                for t, syz in enumerate(_commutation_syzygies(s, s))]
    return []


def _certify_block(s: int) -> tuple[dict, dict]:
    """Rank-only degree-3 certificate on the block of support [s].

    Returns its kernel dim, image rank and candidate count, and its
    failures, checked on one `_numbered` block.  The kernel dimension is
    #columns - column rank; every candidate is exactly delta_K-zero with its
    projection in the kernel, so image rank = kernel dim means they span it.
    """
    lab_no, _, columns = block = _numbered(_block_columns(s))
    kernel_dim = len(columns) - _Echelon(columns).rank
    candidates = _block_candidates(s)
    failures: dict = {}
    vectors = []
    for name, syz in candidates:
        if delta_K(syz):
            failures.setdefault("delta_k_nonzero", []).append(name)
            continue
        vec = {lab_no.get(k): c for k, c in _project(syz).as_vector().items()}
        if None in vec or _apply_columns(columns, vec):  # None: no column
            failures.setdefault("not_in_kernel", []).append(name)
            continue
        vectors.append(vec)
    failures.update(_block_failures(s, block, vectors))
    return {"kernel_dim": kernel_dim, "image_rank": SparseMatrix(vectors).rank(),
            "candidates": len(candidates)}, failures


def pvh_report(fam: AlgebraFamily, budget: int = DEFAULT_BUDGET
               ) -> VerificationReport:
    """Run the quadraticity criterion checks at degrees 2 and 3.

    Both degrees are certified by vertex support.  Every word of a relator
    touches exactly its support T, |T| = 3 (y) or 4 (c), and every delta_A
    column, a relator times a generator, one support T, |T| = 3..6.  So the
    relator matrix and delta_A are block diagonal, and renaming strands
    carries the block of [s] onto every block with |T| = s.  Each block of
    [s] is certified once, its rows or columns checked to be single-support
    and S_s-stable, and the totals are sums of C(n, s) copies
    (`quad_algebra._sum_blocks`).

    Degree 2: the 6 relators of [3] and the 12 of [4] have full rank, so
    the P(n,3) + P(n,4)/2 relators of pvb_n are linearly independent; pfb's
    are their descending images, 1 and 3 per block.  Degree 3 (pvb): the
    candidates of [s] (Zamolodchikov on 4 strands, y-commutation on 5,
    c-commutation on 6) are S_s-stable, every candidate is exactly
    delta_K-zero with its projection in the kernel, and the projections
    have rank #columns - rank(delta_A); the candidates number
    P(n,4) + P(n,5) + P(n,6)/2.  The budget bounds the largest degree-3
    block's V^(x)3, s = min(n, 6), and then the degree-2 V (x) V of the
    whole family, though no relator of pvb_n is built.  pfb inherits
    degree 3 from pvb as a split quotient, so only degree 2 is computed
    directly.
    """
    if fam.family is Family.PB:
        raise ValueError("criterion checks support the pvb and pfb families")
    n = fam.n
    top = min(n, 6)  # a relator touches at most 4 strands, a generator 2
    if fam.family is Family.PVB:
        _check_budget((top * (top - 1)) ** 3, budget)
    d2 = degree2_report(fam, budget)  # checks V (x) V against the budget
    relators, d2_rank = d2.expected["rank"], d2.actual["rank"]
    failures = ({"degree2": d2.actual["failures"]} if "failures" in d2.actual
                else {})
    expected, actual = {"degree2_rank": relators}, {"degree2_rank": d2_rank}
    degree3 = {"corollary": "degree-3 criterion inherited from pvb "
               "(split quotient)", "pass": d2.passed}
    payload = None
    if fam.family is Family.PVB:
        d3, d3_failures = _sum_blocks(n, range(3, 7), _certify_block)
        kernel_dim, image_rank = d3["kernel_dim"], d3["image_rank"]
        failures.update(d3_failures)
        expected["image_rank"], actual["image_rank"] = kernel_dim, image_rank
        degree3 = {"kernel_dim": kernel_dim, "image_rank": image_rank,
                   "candidates": d3["candidates"],
                   "pass": not d3_failures and image_rank == kernel_dim}
        payload = {"degree3_candidates": d3["candidates"]}
    return VerificationReport(
        check="pvh", params={"family": fam.family.value, "n": n},
        expected={**expected, "failures": {}},
        actual={**actual, "failures": failures},
        payload=payload,
        summary={"family": fam.family.value, "n": n,
                 "degree2": {"relators": relators, "rank": d2_rank,
                             "pass": d2.passed},
                 "degree3": degree3},
    )
