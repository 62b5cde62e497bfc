"""Concrete presentations for the pvb / pfb / pb families.

pvb_n is generated by r_ij (i != j) with the 6-term relators y_ijk and the
commutators c_ij^kl; pfb_n is the same family on the descending generators
r_ij (i < j) obtained by the substitution r_ji -> -r_ij; pb_n is generated
by the symmetric a_ij (i < j) with relators [a_ij, a_ik + a_jk] and
[a_ij, a_kl].

Group-level relators live in the free algebra on the group generators R_ij;
the symbol set {Y_ijk, C_ij^kl} generates the free relator module, with
group and quadratic images related by shift expansion.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .exact_core import (
    FreeElement,
    Generator,
    SparseMatrix,
    _int_row,
    _primitive,
    all_generators,
    json_field,
)
from .graph_basis import chain_gang_form
from .quad_algebra import (DEFAULT_BUDGET, QuadraticPresentation,
                           _check_budget, check_degree_budget)
from .report import VerificationReport


class Family(str, Enum):
    PVB = "pvb"
    PFB = "pfb"
    PB = "pb"


@dataclass(frozen=True)
class AlgebraFamily:
    """A family tag plus strand count."""

    family: Family
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"strand count must be >= 2, got {self.n}")

    @classmethod
    def parse(cls, name: str, n: int) -> "AlgebraFamily":
        return cls(Family(name.lower()), n)

    @classmethod
    def from_json(cls, data: Mapping) -> "AlgebraFamily":
        """The family of {"family", "n"}; a missing or ill-typed field
        raises ValueError naming it."""
        return cls.parse(json_field(data, "family", str),
                         json_field(data, "n", int))

    @property
    def generators(self) -> list[Generator]:
        if self.family is Family.PVB:
            return all_generators(self.n)
        return [Generator(i, j) for i, j
                in itertools.combinations(range(1, self.n + 1), 2)]

    @property
    def dim_v(self) -> int:
        """len(generators), counted without listing them."""
        pairs = self.n * (self.n - 1)
        return pairs if self.family is Family.PVB else pairs // 2

    def __str__(self) -> str:
        return f"{self.family.value}_{self.n}"


class RelatorSymbol(NamedTuple):
    """A formal relator symbol: Y_ijk, or C_ij^kl with the smaller ordered
    pair first (C is antisymmetric under swapping its pairs, so only the
    canonical symbol is kept).  A tuple, so that hashing, equality and
    ordering run in C."""

    kind: str
    indices: tuple

    @classmethod
    def y(cls, i: int, j: int, k: int) -> "RelatorSymbol":
        if len({i, j, k}) != 3 or min(i, j, k) < 1:
            raise ValueError(f"bad Y indices {(i, j, k)}")
        return cls("Y", (i, j, k))

    @classmethod
    def c(cls, ij, kl) -> tuple["RelatorSymbol", int]:
        """Canonical C symbol and the sign relating it to C_ij^kl."""
        ij, kl = tuple(ij), tuple(kl)
        if len({*ij, *kl}) != 4 or min(*ij, *kl) < 1:
            raise ValueError(f"bad C indices {(ij, kl)}")
        if ij < kl:
            return cls("C", (ij, kl)), 1
        return cls("C", (kl, ij)), -1

    def group_terms(self) -> tuple[tuple[tuple[Generator, ...], int], ...]:
        """The group-level relator as (word, +-1) pairs:
        R_ij R_ik R_jk - R_jk R_ik R_ij, or R_ij R_kl - R_kl R_ij."""
        if self.kind == "Y":
            i, j, k = self.indices
            a, b, c = Generator(i, j), Generator(i, k), Generator(j, k)
            return ((a, b, c), 1), ((c, b, a), -1)
        a, b = Generator(*self.indices[0]), Generator(*self.indices[1])
        return ((a, b), 1), ((b, a), -1)

    def group_image(self, n: int) -> FreeElement:
        """delta_K of the symbol: the group-level relator in F."""
        return FreeElement(n, self.group_terms())

    def quad_image(self, n: int) -> FreeElement:
        """The degree-2 part of the shift-expanded group relator.

        Under R = 1 + r a group word's degree-2 part is the sum of its
        ordered letter pairs; each word enters with its sign, and the
        constant and linear parts cancel.  This gives
        y_ijk = [r_ij, r_ik] + [r_ij, r_jk] + [r_ik, r_jk] and [r_ij, r_kl].
        """
        return FreeElement(n, [(pair, sign) for w, sign in self.group_terms()
                               for pair in itertools.combinations(w, 2)])

    @property
    def strands(self) -> frozenset[int]:
        """The vertex support: every strand the relator touches."""
        if self.kind == "Y":
            return frozenset(self.indices)
        return frozenset((*self.indices[0], *self.indices[1]))

    def relabel(self, sigma) -> tuple["RelatorSymbol", int]:
        """The symbol with each strand x renamed sigma[x], canonicalized,
        and the sign relating it to the renamed formula."""
        if self.kind == "Y":
            return RelatorSymbol.y(*(sigma[x] for x in self.indices)), 1
        (i, j), (k, l) = self.indices
        return RelatorSymbol.c((sigma[i], sigma[j]), (sigma[k], sigma[l]))

    def __str__(self) -> str:
        if self.kind == "Y":
            return "Y_" + "".join(map(str, self.indices))
        (i, j), (k, l) = self.indices
        return f"C_{i}{j}^{k}{l}"


def dual_tilde_delta(w, n: int) -> FreeElement:
    """The relator-cataloguing isomorphism on degree-2 dual monomials.

    Sends the 2-chain i->j->k to the quadratic image of Y_ijk and the
    disjoint pair (i,j),(k,l) to that of its canonical C symbol, with the
    symbol's sign; extended linearly.  Non-basis input is first reduced to
    the chain-gang basis.
    """
    out = FreeElement.zero(n)
    for red, c in chain_gang_form(w, 2).items():
        e1, e2 = red.edges
        if e1.j == e2.i:
            sym, sign = RelatorSymbol.y(e1.i, e1.j, e2.j), 1
        elif e2.j == e1.i:
            sym, sign = RelatorSymbol.y(e2.i, e2.j, e1.j), 1
        else:
            sym, sign = RelatorSymbol.c(e1, e2)
        out = out + c * sign * sym.quad_image(n)
    return out


def relator_symbols(n: int) -> list[RelatorSymbol]:
    """Canonical symbol set for pvb_n: one per ordered triple and one per
    unordered pair of disjoint ordered pairs."""
    syms = [RelatorSymbol.y(*t)
            for t in itertools.permutations(range(1, n + 1), 3)]
    pairs = list(itertools.permutations(range(1, n + 1), 2))
    for ij, kl in itertools.combinations(pairs, 2):
        if len({*ij, *kl}) == 4:
            syms.append(RelatorSymbol.c(ij, kl)[0])
    return sorted(set(syms))


def group_relators(n: int) -> dict[RelatorSymbol, FreeElement]:
    """The symbol map Y_ijk -> R_ij R_ik R_jk - R_jk R_ik R_ij,
    C_ij^kl -> R_ij R_kl - R_kl R_ij."""
    return {s: s.group_image(n) for s in relator_symbols(n)}


def _substitute(rel: FreeElement, image) -> FreeElement:
    """rel with each letter g replaced by image(g), a sum of letters given as
    (letter, coefficient) pairs."""
    return FreeElement(rel.n, [
        (tuple(g for g, _ in choice), c * math.prod(a for _, a in choice))
        for w, c in rel.items() for choice in itertools.product(*map(image, w))])


def _descending(g: Generator):
    """r_ji -> -r_ij for i < j: a pvb letter onto pfb's generators."""
    return ((Generator(g.j, g.i), -1),) if g.i > g.j else ((g, 1),)


def _psi(g: Generator):
    """a_ij -> r_ij + r_ji: a pb letter onto pvb's generators."""
    return (g, 1), (Generator(g.j, g.i), 1)


def _pb_relators(n: int, per_triple: int) -> list[FreeElement]:
    """Per triple i < j < k the first `per_triple` of [a_ij, a_ik + a_jk],
    [a_ik, a_ij + a_jk] and [a_jk, a_ij + a_ik] (the three sum to zero),
    then [a_ij, a_kl] for each two disjoint pairs."""
    def comm(x, ys):
        return FreeElement(n, [t for y in ys
                               for t in (((x, y), 1), ((y, x), -1))])

    rels = []
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        ij, ik, jk = Generator(i, j), Generator(i, k), Generator(j, k)
        rels += [comm(x, ys) for x, ys in ((ij, (ik, jk)), (ik, (ij, jk)),
                                           (jk, (ij, ik)))[:per_triple]]
    for p, q in itertools.combinations(
            itertools.combinations(range(1, n + 1), 2), 2):
        if len({*p, *q}) == 4:
            rels.append(comm(Generator(*p), (Generator(*q),)))
    return rels


def _descending_relators(symbols, n: int) -> list[FreeElement]:
    """The pfb relators of the given pvb symbols: each quadratic image with
    r_ji -> -r_ij substituted and made primitive, zero images and duplicates
    (up to scale) removed, sorted by terms."""
    seen: dict = {}
    for s in symbols:
        img = _substitute(s.quad_image(n), _descending)
        if img:
            img = FreeElement(n, _primitive(_int_row(img.items())[1]))
            seen[frozenset(img.items())] = img
    return sorted(seen.values(), key=lambda r: sorted(r.terms()))


def quadratic_relators(fam: AlgebraFamily) -> list[FreeElement]:
    """The canonical, linearly independent quadratic relator list.

    pvb: all y_ijk plus all canonical c_ij^kl.  pfb: the pvb list with
    r_ji -> -r_ij substituted and duplicates (up to scale) removed.  pb: two
    of the three relators per unordered triple plus the disjoint
    commutators (`_pb_relators`).
    """
    n = fam.n
    if fam.family is Family.PVB:
        return [s.quad_image(n) for s in relator_symbols(n)]
    if fam.family is Family.PFB:
        return _descending_relators(relator_symbols(n), n)
    return _pb_relators(n, 2)


def presentation(fam: AlgebraFamily) -> QuadraticPresentation:
    return QuadraticPresentation(fam.n, fam.generators, quadratic_relators(fam))


def load_presentation(data, max_degree: int = 2,
                      budget: int = DEFAULT_BUDGET) -> QuadraticPresentation:
    """Presentation from JSON: {"n", "family"} or explicit generator form.

    A family's relators are built only once V^(x)m, m = 2..max(2,
    max_degree), is within the budget.  Explicit relations are given, so
    they are not budgeted here.
    """
    if not isinstance(data, Mapping) or "family" not in data:
        return QuadraticPresentation.from_json(data)
    fam = AlgebraFamily.from_json(data)
    check_degree_budget(fam.dim_v, max(2, max_degree), budget)
    return presentation(fam)


def psi_image_check(n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Substitute a_ij -> r_ij + r_ji into every pb relator and certify
    membership of each image in the span of the pvb relators, whose
    V (x) V is checked against the budget before any relator is built."""
    if n < 3:
        raise ValueError("psi check needs n >= 3")
    _check_budget((n * (n - 1)) ** 2, budget)
    pvb_rels = quadratic_relators(AlgebraFamily(Family.PVB, n))
    relator_span = SparseMatrix([r.terms() for r in pvb_rels])

    images = [_substitute(rel, _psi) for rel in _pb_relators(n, 3)]
    failures = [t for t, img in enumerate(images)
                if not relator_span.in_row_span(img.terms())]
    return VerificationReport(
        check="psi-compatibility",
        params={"n": n},
        expected={"members": len(images)},
        actual={"members": len(images) - len(failures)},
        payload={"pb_relators": len(images), "failing_indices": failures},
    )
