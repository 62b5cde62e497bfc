"""Quadratic presentations, quadratic duals, and graded dimension counts.

A quadratic presentation is a generator list (a basis of V) together with a
linearly independent list of homogeneous degree-2 relations spanning
R inside V (x) V.  The quadratic algebra is TV/<R> and its dual is
TV*/<R-perp>; both graded dimensions are computed by exact rank, one
degree after the other on integer rows, each degree in the quotient
A^m = (A^(m-1) (x) V) / image(A^(m-2) (x) R) over the standard words of
the degree before (see `graded_dims`).

When every generator r_ij and relation touches one vertex support and an
order-preserving renaming of strands carries the part of [s] onto that of
each s-subset of [n] (`_pattern_stable`, checked at run time), A splits by
support into sectors, C(n, s) copies of each [s].  Degree m then needs
only the strands [min(n, 2m)], and dim A^m is the sum over s of C(n, s)
times the dimension of the sector of [s] (`_sum_blocks`, shared with the
family certificates that are block diagonal by support).

Past degree 3 a PBW basis saves the elimination (`_pbw_dims`): with the
generators ordered by (larger strand, smaller strand, r_ij with i > j last),
if the words of length 3 with no leading word of R as two consecutive
letters number exactly dim A^3, such normal words are a basis of A in every
degree (Bergman's diamond lemma, Adv. Math. 29, 1978), so A is also Koszul
(Priddy, Trans. AMS 152, 1970), and dim A^m is their count.  Otherwise the
elimination goes on as above.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from math import comb, lcm

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

    Every generator is r_ij with i != j in [1..n], and the relation list
    must be homogeneous of word-length 2 and linearly independent; all three
    are enforced at construction.
    """

    def __init__(self, n: int, generators: Sequence[Generator],
                 relations: Sequence[FreeElement]):
        self.n = n
        self.generators = [Generator(*g) for g in generators]
        for g in self.generators:
            if g.i == g.j or not (1 <= g.i <= n and 1 <= g.j <= n):
                raise ValueError(f"generator {g} invalid for n={n}")
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


def annihilator(p: QuadraticPresentation) -> QuadraticPresentation:
    """The dual presentation: relations spanning R-perp in V* (x) V*,
    checked to have dim R + dim R-perp = (dim V)^2.

    The dual generators reuse the primal generator labels (we write r_ij for
    the dual of r_ij throughout).
    """
    m = SparseMatrix([r.terms() for r in p.relations],
                     columns=list(itertools.product(p.generators, repeat=2)))
    dual = QuadraticPresentation(p.n, p.generators, [FreeElement(p.n, vec)
                                                    for vec in m.nullspace()])
    if p.dim_r + dual.dim_r != p.dim_v ** 2:
        raise ValueError("annihilator has wrong dimension")
    return dual


def check_degree_budget(dim_v: int, max_degree: int,
                        budget: int = DEFAULT_BUDGET) -> None:
    """Raise SizeBudgetError for the first degree 2..max_degree whose tensor
    space V^(x)m exceeds the budget (degrees 0 and 1 need no rank)."""
    for m in range(2, max_degree + 1):
        _check_budget(dim_v ** m, budget)


def _sum_blocks(n: int, sizes, block) -> tuple[Counter, dict]:
    """A count or check block diagonal by vertex support: `block(s)` handles
    the block of [s] and returns its counts and failures, renaming strands
    carries it onto the C(n, s) blocks of s strands, so the counts are
    summed C(n, s) times over the sizes s <= n (a missing count reads 0)
    and the failure lists merged in size order."""
    totals: Counter = Counter()
    failures: dict = {}
    for s in sizes:
        if s <= n:
            counts, block_failures = block(s)
            totals.update({k: comb(n, s) * c for k, c in counts.items()})
            for key, names in block_failures.items():
                failures.setdefault(key, []).extend(names)
    return totals, failures


def _strands(g: Generator) -> int:
    """The strands {i, j} of r_ij as a bitmask, strand x at bit x - 1."""
    return 1 << g.i - 1 | 1 << g.j - 1


def _pattern_stable(p: QuadraticPresentation) -> bool:
    """Whether renaming [s] onto any s strands of [n] in order carries the
    generators and relations of [s] onto those of the image, for every s.

    It holds when the generators on each pair x < y are those on {1, 2}
    renamed 1 -> x, 2 -> y; every relation touches one support T (all its
    words touch the same strands); and for each s every s-subset T carries
    as many relations as [s], each of which, renamed onto [s] in order, lies
    in the span of [s]'s relations (relations are independent, so equal
    counts and membership give equal spans).  Then A and its relation
    space split by support, and the sector of [s] is carried onto every
    sector of s strands.  Only order-preserving renamings are tested: a
    presentation may be stable under them and not under every permutation
    (pfb's r_ji = -r_ij).  A presentation with no generators has nothing
    to split and fails.
    """
    pairs: dict[int, set] = {}
    for g in p.generators:
        pairs.setdefault(_strands(g), set()).add(g.i < g.j)
    # the constructor keeps every pair inside [n], so C(n, 2) of them is all
    first = pairs.get(0b11)
    if (not first or len(pairs) != comb(p.n, 2)
            or any(gens != first for gens in pairs.values())):
        return False
    by_support: dict[int, list] = {}
    for rel in p.relations:
        supports = {_strands(a) | _strands(b) for a, b in rel.terms()}
        if len(supports) != 1:
            return False
        by_support.setdefault(supports.pop(), []).append(rel)
    sizes = Counter(map(int.bit_count, by_support))
    index: dict = {}  # a word on [s] -> its column

    def rows(rels, support):
        """rels renamed onto [s] in order, s = |support|, as int rows."""
        rank = {x: t for t, x in enumerate(
            (x for x in range(1, p.n + 1) if support >> x - 1 & 1), 1)}
        for rel in rels:
            yield {index.setdefault(tuple(Generator(rank[g.i], rank[g.j])
                                          for g in w), len(index)): c
                   for w, c in _int_row(rel.items())[1].items()}

    echelons: dict[int, _Echelon] = {}
    for support, rels in by_support.items():
        s = support.bit_count()
        full = (1 << s) - 1
        if (len(rels) != len(by_support.get(full, ()))
                or sizes[s] != comb(p.n, s)):
            return False
        if s not in echelons:
            echelons[s] = _Echelon(rows(by_support[full], full))
        if support != full and any(echelons[s].reduce(row)[1] is not None
                                   for row in rows(rels, support)):
            return False
    return True


def _quotient_rows(pairs, mult: list, nv: int) -> list[dict[int, int]]:
    """The row sum r_ab [u a] (x) b of each (relation, standard word u) pair,
    a relation given as {a: [(b, r_ab), ...]}, zero rows dropped."""
    rows = []
    for rel, u in pairs:
        parts = [(mult[u * nv + a], terms) for a, terms in rel.items()]
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
    return rows


def _pbw_dims(p: QuadraticPresentation, max_degree: int,
              dim3: int) -> list[int] | None:
    """[dim A^0, ..., dim A^max_degree] as counts of normal words, or None
    when neither word order leaves exactly `dim3` = dim A^3 normal words of
    length 3 (see `graded_dims`).

    A normal word has no leading word of R as two consecutive letters: those
    of length m ending in b are all normal words of length m - 1, less those
    ending in a letter a with ab leading.
    """
    gens = sorted(p.generators, key=lambda g: (max(g), min(g), g.i > g.j))
    nv = len(gens)
    index = {g: t for t, g in enumerate(gens)}
    rows = [_int_row((index[a] * nv + index[b], c) for (a, b), c in rel.items())[1]
            for rel in p.relations]
    for last in (0, nv * nv - 1):  # the word order, then its reverse
        ech = _Echelon({abs(last - col): v for col, v in row.items()}
                       for row in rows)
        before: list[list[int]] = [[] for _ in range(nv)]
        for col in ech.pivots:
            a, b = divmod(abs(last - col), nv)
            before[b].append(a)
        ends, dims = [1] * nv, [1, nv]
        for m in range(2, max_degree + 1):
            ends = [dims[-1] - sum(ends[a] for a in before[b]) for b in range(nv)]
            dims.append(sum(ends))
            if m == 3 and dims[3] != dim3:
                break
        else:
            return dims
    return None


def graded_dims(p: QuadraticPresentation, max_degree: int,
                budget: int = DEFAULT_BUDGET) -> list[int]:
    """[dim A^0, ..., dim A^max_degree] for A = TV/<R>, in one pass.

    Every degree is checked against the budget before any elimination.  Up
    to degree 2 no rank is needed: the constructor ranked R, so dim A^2 =
    (dim V)^2 - dim R.

    The degree-m relation space is I_m = I_(m-1) (x) V + V^(x)(m-2) (x) R,
    so A^m = (A^(m-1) (x) V) / image(V^(x)(m-2) (x) R).  The image of
    u (x) r = sum r_ab u a (x) b depends only on the class of u in A^(m-2),
    so degree m eliminates one row per (relation, standard word u of degree
    m-2), sum r_ab [u a] (x) b, in a_(m-1) * dim V columns numbered
    t * dim V + b.  The standard words of degree m are the non-pivot columns;
    the product [u b] of a standard word of degree m-1 by a generator is
    read off the back-reduced echelon: a non-pivot column is itself, and a
    pivot column c with row p_c e_c + sum v_f e_f is -sum (v_f / p_c) e_f,
    kept as integers over the one denominator p_c.

    A pattern-stable presentation (`_pattern_stable`) splits by vertex
    support: each row and standard word touches one support, elimination
    never mixes supports, and the sector of [s] is carried onto each of the
    C(n, s) sectors of s strands.  A word of degree m touches at most 2m
    strands, so the loop works only on the generators and relations inside
    [k], k = min(n, 2 max_degree), carries each standard word's support as
    a bitmask, and counts dim A^m as the sum over s <= k of C(n, s) times
    the standard words of support exactly [s] (`_sum_blocks`).  The last
    degree needs the rank only, and only of the rows of support exactly
    [s], one elimination per s.  Any other presentation gives every
    generator the empty support, so it is the one sector [0], of weight
    C(0, 0) = 1.

    When max_degree >= 4, the standard words of degree 3 give dim A^3, and
    the normal words of R's leading words are counted against it
    (`_pbw_dims`): R's leading words under the generator order (larger
    strand, smaller strand, r_ij with i > j last), the smallest word of each
    relation leading, then the largest.  If a count matches, the normal
    words are a basis in every degree (Bergman 1978; A is then Koszul,
    Priddy 1970), and degrees 4..max_degree are their counts, by a transfer
    over the last letter in O(max_degree (dim V)^2), with no row of degree
    4 or more built.  If neither matches, the elimination continues from
    degree 4, and no degree is eliminated twice.
    """
    if max_degree < 0:
        raise ValueError("degree must be >= 0")
    check_degree_budget(p.dim_v, max_degree, budget)
    if max_degree <= 2:
        return [1, p.dim_v, p.dim_v ** 2 - p.dim_r][:max_degree + 1]
    if _pattern_stable(p):
        n, k = p.n, min(p.n, 2 * max_degree)
        gens = [g for g in p.generators if max(g) <= k]
        support = {g: _strands(g) for g in gens}
    else:
        n = k = 0
        gens = p.generators
        support = dict.fromkeys(gens, 0)
    nv = len(gens)
    index = {g: t for t, g in enumerate(gens)}
    rels = []  # (support, {a: [(b, r_ab), ...]}) for each relation inside [k]
    for rel in p.relations:
        if not all(a in index and b in index for a, b in rel.terms()):
            continue
        by_first: dict[int, list] = {}
        row = _strip_content(_int_row(
            ((index[a] * nv + index[b], c) for (a, b), c in rel.items()))[1])
        for col, v in row.items():
            by_first.setdefault(col // nv, []).append((col % nv, v))
        a, b = next(iter(rel.terms()))
        rels.append((support[a] | support[b], by_first))
    # supports[m]: the support of each standard word of degree m
    supports = [[0], [support[g] for g in gens]]
    # mult[u * nv + a] = (den, {t: num}): [u a] = sum (num / den) e_t over the
    # standard words t of the degree just reached
    mult = [(1, {a: 1}) for a in range(nv)]
    for m in range(2, max_degree):
        words = supports[-1]
        ech = _Echelon(_quotient_rows(
            ((rel, u) for _, rel in rels for u in range(len(supports[-2]))),
            mult, nv))
        ech.back_reduce()
        free = [col for col in range(len(words) * nv) if col not in ech.pivots]
        std = {col: t for t, col in enumerate(free)}
        mult = []
        for col in range(len(words) * nv):
            row = ech.pivots.get(col)
            if row is None:
                mult.append((1, {std[col]: 1}))
            else:
                mult.append((row[col], {std[f]: -v for f, v in row.items()
                                        if f != col}))
        supports.append([words[col // nv] | supports[1][col % nv]
                         for col in free])
        if m == 3:
            dims = _pbw_dims(p, max_degree, sum(
                comb(n, s) * supports[3].count((1 << s) - 1)
                for s in range(k + 1)))
            if dims:
                return dims

    generators = Counter(supports[1])

    def sector(s: int) -> tuple[Counter, dict]:
        full = (1 << s) - 1
        counts = Counter({m: words.count(full)
                          for m, words in enumerate(supports)})
        ech = _Echelon(_quotient_rows(
            ((rel, u) for r, rel in rels for u, w in enumerate(supports[-2])
             if r | w == full), mult, nv))
        columns = sum(a * b for w, a in Counter(supports[-1]).items()
                      for g, b in generators.items() if w | g == full)
        counts[max_degree] = columns - ech.rank
        return counts, {}

    totals = _sum_blocks(n, range(k + 1), sector)[0]
    return [totals[m] for m in range(max_degree + 1)]


def relation_blocks_rank(p: QuadraticPresentation, m: int,
                         budget: int = DEFAULT_BUDGET) -> int:
    """Exact rank of sum over i of the position subspaces inside V^(x)m."""
    return p.dim_v ** m - graded_dim(p, m, budget)


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

    V^(x)m, m = 2..max(2, D), is checked against the budget before the dual
    is built.  The payload holds the dims of A and its dual in degrees 0..D.
    """
    check_degree_budget(p.dim_v, max(2, max_degree), budget)
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
