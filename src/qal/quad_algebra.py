"""Quadratic presentations, quadratic duals, and graded dimension counts.

A quadratic presentation is a generator list (a basis of V) together with a
linearly independent list of homogeneous degree-2 relations spanning
R inside V (x) V.  The quadratic algebra is TV/<R> and its dual is
TV*/<R-perp>; both graded dimensions are computed by exact rank, one
degree after the other on integer rows, each degree in the quotient
A^m = (A^(m-1) (x) V) / image(A^(m-2) (x) R) over the standard words of
the degree before (see `graded_dims`).  When every relation is a sum of
commutators, R-perp holds all of Sym^2 V*, and the dual is ranked in
Lambda(V*)/<R-perp in Lambda^2 V*> (`_exterior_dual_dims`; Polishchuk and
Positselski, Quadratic Algebras, AMS 2005, ch. 1).

A family on [n] built by support, the part of each s-subset of [n] the
part of [s] renamed in order, splits into sectors, C(n, s) copies of each
[s].  Degree m needs only the strands [min(n, 2m)]: given the family on
[k] and the ambient n, dim A^m is the sum over s of C(n, s) times the
dimension of the sector of [s] (`_sum_blocks`, shared with the family
certificates that are block diagonal by support).  A presentation given
without an ambient n is ranked whole.

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
from bisect import bisect_left
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import reduce
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


def _pbw_dims(generators: Sequence[Generator], relations: Iterable[Mapping],
              k: int, max_degree: int, dim3: int,
              n: int | None = None) -> list[int] | None:
    """[dim A^0, ..., dim A^max_degree] of the relations {(a, b): c} on the
    generators, on [k], as counts of normal words, or None when neither word
    order leaves exactly `dim3` = dim A^3 normal words of length 3.

    A normal word has no leading word of R as two consecutive letters: those
    of length m ending in b are all normal words of length m - 1, less those
    ending in a letter a with ab leading.  Given an ambient n, R is a family
    on [k] (see `graded_dims`): its letters on [t] come first, and as R is
    the sum of its parts of each support, the words on them that are normal
    are the family's on [t], N_t of them.  Those on [n] number the sum over
    s of C(n, s) (Delta^s N)_0, the count of support exactly [s].
    """
    gens = sorted(generators, key=lambda g: (max(g), min(g), g.i > g.j))
    nv = len(gens)
    index = {g: t for t, g in enumerate(gens)}
    rows = [_int_row((index[a] * nv + index[b], c) for (a, b), c in rel.items())[1]
            for rel in relations]
    # the weight of the normal words on each number of first letters
    weights = Counter({nv: 1}) if n is None else Counter()
    for t in range(0 if n is None else k + 1):
        weights[sum(max(g) <= t for g in gens)] += sum(
            (-1) ** (s - t) * comb(n, s) * comb(s, t) for s in range(t, k + 1))
    for last in (0, nv * nv - 1):  # the word order, then its reverse
        ech = _Echelon({abs(last - col): v for col, v in row.items()}
                       for row in rows)
        before: list[list[int]] = [[] for _ in range(nv)]
        for col in ech.pivots:
            a, b = divmod(abs(last - col), nv)
            before[b].append(a)
        ends = {size: [int(b < size) for b in range(nv)] for size in weights}
        dims = [1, sum(w * size for size, w in weights.items())]
        for m in range(2, max_degree + 1):
            for size, e in ends.items():
                words = sum(e)
                ends[size] = [words - sum(e[a] for a in before[b]) if b < size
                              else 0 for b in range(nv)]
            dims.append(sum(w * sum(ends[size]) for size, w in weights.items()))
            if m == 3 and dims[3] != dim3:
                break
        else:
            return dims
    return None


def graded_dims(p: QuadraticPresentation, max_degree: int,
                budget: int = DEFAULT_BUDGET,
                n: int | None = None) -> list[int]:
    """[dim A^0, ..., dim A^max_degree] for A = TV/<R>, in one pass.

    Every degree is checked against the budget before any elimination.
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

    Given an ambient n, p is a family on [k], min(n, 2 max_degree) <= k <= n
    (else refused), whose generators and relations each touch one support,
    the part of every s-subset of [n] being that of [s] renamed in order
    (not checked).  Then rows and standard words touch one support each,
    and the loop carries it as a bitmask: dim A^m is the sum over s <= k of
    C(n, s) times the standard words of support exactly [s] (`_sum_blocks`),
    each degree is ranked in blocks by the union of the supports of relation
    and word, paired by mask once, and the last degree ranks the blocks [s]
    only.  Without an ambient n every generator has the empty support, so p
    is ranked whole as the one sector [0] of [0], of weight C(0, 0) = 1; up
    to degree 2 that needs no rank, as the constructor ranked R.

    When max_degree >= 4, the normal words of R's leading words, the
    smallest word of each relation leading, then the largest, are counted
    against dim A^3 from the blocks [s] (`_pbw_dims`).  If a count matches,
    they are a basis in every degree (see the module docstring), and degrees
    4..max_degree are their counts, with no other row of degree 3 or more
    built.  If neither matches, the elimination goes on.
    """
    if max_degree < 0:
        raise ValueError("degree must be >= 0")
    if n is not None and not min(n, 2 * max_degree) <= p.n <= n:
        raise ValueError(f"a family on [{p.n}] does not give the sectors of "
                         f"[{n}] to degree {max_degree}")
    check_degree_budget(p.dim_v, max_degree, budget)
    gens = p.generators
    support = {g: 0 if n is None else _strands(g) for g in gens}
    k, ambient = (0, 0) if n is None else (p.n, n)  # whole: [0] of [0]
    if max_degree < 2 or n is None and max_degree == 2:  # no rank
        dim_v = sum(comb(ambient, s) * list(support.values()).count((1 << s) - 1)
                    for s in range(k + 1))  # on [n]
        return [1, dim_v, p.dim_v ** 2 - p.dim_r][:max_degree + 1]
    nv = len(gens)
    index = {g: t for t, g in enumerate(gens)}
    rels: dict[int, list] = {}  # support -> [{a: [(b, r_ab), ...]}, ...]
    for rel in p.relations:
        by_first: dict[int, list] = {}
        row = _strip_content(_int_row(
            ((index[a] * nv + index[b], c) for (a, b), c in rel.items()))[1])
        for col, v in row.items():
            by_first.setdefault(col // nv, []).append((col % nv, v))
        a, b = next(iter(rel.terms()))
        rels.setdefault(support[a] | support[b], []).append(by_first)
    # supports[m]: the support of each standard word of degree m
    supports = [[0], [support[g] for g in gens]]
    generators = Counter(supports[1])
    # mult[u * nv + a] = (den, {t: num}): [u a] = sum (num / den) e_t over the
    # standard words t of the degree just reached
    mult = [(1, {a: 1}) for a in range(nv)]
    for m in range(2, max_degree + 1):
        by_mask: dict[int, list] = {}  # support -> standard words u of degree m - 2
        for u, w in enumerate(supports[-2]):
            by_mask.setdefault(w, []).append(u)
        pairs: dict[int, list] = {}  # union of supports -> [(relations, words)]
        for (r, group), (w, us) in itertools.product(rels.items(),
                                                     by_mask.items()):
            pairs.setdefault(r | w, []).append((group, us))

        def block(union: int) -> _Echelon:
            return _Echelon(_quotient_rows(
                ((rel, u) for group, us in pairs.get(union, ())
                 for u in us for rel in group), mult, nv))

        words = supports[-1]
        blocks: dict[int, _Echelon] = {}  # the sectors' blocks of degree 3
        if m in (3, max_degree):
            def sector(s: int) -> tuple[Counter, dict]:
                full = (1 << s) - 1
                ech = block(full)
                if m < max_degree:
                    blocks[full] = ech
                counts = Counter({d: ws.count(full)
                                  for d, ws in enumerate(supports)})
                counts[m] = sum(a * b for w, a in Counter(words).items()
                                for g, b in generators.items()
                                if w | g == full) - ech.rank
                return counts, {}

            totals = _sum_blocks(ambient, range(k + 1), sector)[0]
            dims = [totals[d] for d in range(m + 1)] if m == max_degree else \
                _pbw_dims(gens, p.relations, k, max_degree, totals[3], n)
            if dims:
                return dims
        ech = _Echelon()
        for union in pairs:
            ech.pivots.update((blocks.pop(union, None) or block(union)).pivots)
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


def _exterior_dual_dims(p: QuadraticPresentation, max_degree: int,
                        n: int | None = None) -> list[int] | None:
    """[dim A!^0, ..., dim A!^max_degree] ranked in the exterior algebra, or
    None unless every relation is a sum of commutators (no word aa, opposite
    coefficients on ab and ba).

    Then A! = Lambda(V*)/<R'>, R' = R-perp in Lambda^2 V* the nullspace of R
    on the pairs a < b, checked to have dim R' + dim R = C(dim V, 2).  R' is
    central, so degree m of the ideal is spanned by the x ^ w, x in R' and w
    a wedge monomial of degree m - 2, signed on a ^ b by the parity of the
    positions of a and b in w: dim A!^m is C(dim V, m) less one rank per
    sector, as in `graded_dims`, on the side with fewer vectors.  Past
    degree 3 R-perp's normal words are counted against dim A!^3
    (`_pbw_dims`); degrees 4.. are ranked only if that count fails."""
    gens = p.generators
    index = {g: t for t, g in enumerate(gens)}
    rows = [rel.terms() for rel in p.relations]
    if any(a == b or row.get((b, a)) != -c
           for row in rows for (a, b), c in row.items()):
        return None
    rows = [{(index[a], index[b]): c for (a, b), c in row.items()
             if index[a] < index[b]} for row in rows]
    pairs = list(itertools.combinations(range(len(gens)), 2))
    dual = [_int_row(x)[1] for x in SparseMatrix(rows, columns=pairs).nullspace()]
    if len(dual) + p.dim_r != len(pairs):
        raise ValueError("annihilator has wrong dimension")
    support = [0 if n is None else _strands(g) for g in gens]
    k, ambient = (0, 0) if n is None else (p.n, n)  # whole: [0] of [0]
    dim_v = sum(comb(ambient, s) * support.count((1 << s) - 1)
                for s in range(k + 1))  # on [n]
    ideal: dict[int, list] = {}  # R' by support
    for x in dual:
        a, b = next(iter(x))
        ideal.setdefault(support[a] | support[b], []).append(x)

    def ranked(m: int) -> int:
        words: dict[int, list] = {}  # the w of degree m - 2 by support
        for w in itertools.combinations(range(len(gens)), m - 2) if m > 1 else ():
            words.setdefault(reduce(int.__or__, (support[g] for g in w), 0),
                             []).append(w)

        def sector(s: int) -> tuple[Counter, dict]:
            full = (1 << s) - 1
            rows, cols = [], {}  # the x ^ w, and monomial -> (index, column)
            for (u, xs), (mask, ws) in itertools.product(ideal.items(),
                                                         words.items()):
                for x, w in itertools.product(xs, ws) if u | mask == full else ():
                    row = {}
                    for (a, b), c in x.items():
                        if a not in w and b not in w:
                            i, j = bisect_left(w, a), bisect_left(w, b)
                            col, column = cols.setdefault(
                                w[:i] + (a,) + w[i:j] + (b,) + w[j:],
                                (len(cols), {}))
                            row[col] = column[len(rows)] = (-1) ** (i + j) * c
                    if row:
                        rows.append(row)
            if len(rows) > len(cols):  # rank the side with fewer vectors
                rows = [column for _, column in cols.values()]
            return Counter({m: _Echelon(rows).rank}), {}

        return comb(dim_v, m) - _sum_blocks(ambient, range(k + 1), sector)[0][m]

    dims = [ranked(m) for m in range(min(max_degree, 3) + 1)]
    if max_degree < 4:
        return dims
    # Sym^2 V*, then R', each x as sum x_ab a b: a b - b a given a b + b a
    sym = itertools.combinations_with_replacement(gens, 2)
    perp = [{(a, b): 1, (b, a): 1} for a, b in sym] + [
        {(gens[a], gens[b]): c for (a, b), c in x.items()} for x in dual]
    return _pbw_dims(gens, perp, k, max_degree, dims[3], n) or dims + [
        ranked(m) for m in range(4, max_degree + 1)]


def koszul_euler_check(p: QuadraticPresentation, max_degree: int,
                       budget: int = DEFAULT_BUDGET,
                       n: int | None = None) -> VerificationReport:
    """Alternating-sum test on graded dimensions of A and its dual.

    For a Koszul algebra the Hilbert series satisfy h_dual(-t) h(t) = 1, so
    every residual sum_k (-1)^k dim A-dual^k dim A^(m-k) with 1 <= m <= D must
    vanish.  This is a necessary condition; the quadratic Groebner basis of
    the graph-basis module is the actual Koszulness certificate.

    V^(x)m, m = 2..max(2, D), is checked against the budget before the dual
    is built; it bounds Lambda^m and the rows x ^ w too.  The dual's dims are
    `_exterior_dual_dims`, or, unless every relation is a sum of commutators,
    `graded_dims(annihilator(p))`.  The payload holds the dims of A and its
    dual in degrees 0..D.

    Given an ambient n, p is a family on [k] (see `graded_dims`), and so is
    its dual: R pairs with V* (x) V* word by word, so R-perp is the sum of
    the R_U-perp of each support U.  The params then name n and its dim V.
    """
    check_degree_budget(p.dim_v, max(2, max_degree), budget)
    a = graded_dims(p, max_degree, budget, n)
    b = _exterior_dual_dims(p, max_degree, n) or graded_dims(
        annihilator(p), max_degree, budget, n)
    residuals = {}
    for m in range(1, max_degree + 1):
        residuals[m] = sum((-1) ** k * b[k] * a[m - k] for k in range(m + 1))
    dim_v = p.dim_v if n is None else comb(n, 2) * sum(
        _strands(g) == 0b11 for g in p.generators)  # the generators on {1, 2}
    return VerificationReport(
        check="koszul-euler",
        params={"n": p.n if n is None else n, "dim_v": dim_v,
                "max_degree": max_degree},
        expected={m: 0 for m in residuals},
        actual=residuals,
        payload={"primal_dims": a, "dual_dims": b},
    )
