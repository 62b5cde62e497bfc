"""Concrete presentations for the pvb / pfb / pb families.

pvb_n is generated by r_ij (i != j) with the 6-term relators y_ijk and the
commutators c_ij^kl; pfb_n is the same family on the descending generators
r_ij (i < j) obtained by the substitution r_ji -> -r_ij; pb_n is generated
by the symmetric a_ij (i < j) with relators [a_ij, a_ik + a_jk] and
[a_ij, a_kl].

Group-level relators live in the free algebra on the group generators R_ij;
the symbol set {Y_ijk, C_ij^kl} generates the free relator module.  A
symbol's group words (`RelatorSymbol.group_terms`) give its quadratic
relator as the degree-2 part of R_ij = 1 + r_ij substituted
(`RelatorSymbol.quad_image`).

Every relator touches 3 or 4 strands, so a family is never built on more
strands than a command ranks: `load` only parses a presentation file, the
degree-2 certificate ranks the blocks of [3] and [4], and `sectors` builds
the family on [max(2, min(n, 2D))] for degrees up to D, budgeted on that
presentation.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
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
    span_membership,
)
from .quad_algebra import (DEFAULT_BUDGET, QuadraticPresentation,
                           _check_budget, _sum_blocks, check_degree_budget)
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


def _block_relators(family: Family, s: int,
                    per_triple: int = 2) -> list[FreeElement]:
    """The family's relators of support exactly [s], s = 3 or 4: pvb's
    `_pvb_block`, pfb's its `_descending_relators`, and pb's written out,
    the first `per_triple` of [a_12, a_13 + a_23], [a_13, a_12 + a_23] and
    [a_23, a_12 + a_13] (the three sum to zero), or the three disjoint
    commutators [a_12, a_34], [a_13, a_24] and [a_14, a_23]."""
    if family is Family.PVB:
        return list(_pvb_block(s).values())
    if family is Family.PFB:
        return _descending_relators(_pvb_block(s), s)

    def comm(x, *ys):
        return FreeElement(s, [t for y in ys
                               for t in (((x, y), 1), ((y, x), -1))])

    a12, a13, a14, a23, a24, a34 = (
        Generator(i, j) for i, j in itertools.combinations(range(1, 5), 2))
    if s == 3:
        return [comm(a12, a13, a23), comm(a13, a12, a23),
                comm(a23, a12, a13)][:per_triple]
    return [comm(a12, a34), comm(a13, a24), comm(a14, a23)]


def _block_copies(n: int, family: Family, per_triple: int = 2) -> list:
    """Each of the family's `_block_relators` of [s], s = 3, 4 up to n,
    renamed onto every s-subset of [n] (order kept), as (copy, block
    relator) pairs sorted by the copy's words."""
    copies = []
    for s in range(3, min(n, 4) + 1):
        block = _block_relators(family, s, per_triple)
        for strands in itertools.combinations(range(1, n + 1), s):
            name = {g: Generator(strands[g.i - 1], strands[g.j - 1])
                    for g in all_generators(s)}
            copies += [(FreeElement(n, [(tuple(map(name.__getitem__, w)), c)
                                        for w, c in rel.items()]), rel)
                       for rel in block]
    return sorted(copies, key=lambda pair: sorted(pair[0].terms()))


def quadratic_relators(fam: AlgebraFamily) -> list[FreeElement]:
    """The canonical, linearly independent quadratic relator list.

    pvb: all y_ijk plus all canonical c_ij^kl.  pfb: the pvb list with
    r_ji -> -r_ij substituted and duplicates (up to scale) removed.  pb: two
    of the three relators per unordered triple plus the disjoint
    commutators.  Every relator of the three touches one support of 3 or 4
    strands, and each family commutes with order-preserving renamings, so
    the list is the blocks of [3] and [4] renamed onto every support
    (`_block_copies`), sorted by their words."""
    return [copy for copy, _ in _block_copies(fam.n, fam.family)]


def presentation(fam: AlgebraFamily) -> QuadraticPresentation:
    return QuadraticPresentation(fam.n, fam.generators, quadratic_relators(fam))


def load(data) -> AlgebraFamily | QuadraticPresentation:
    """Presentation JSON, parsed only: the shorthand {"family", "n"} as its
    AlgebraFamily, or {"n", "generators", "relations"} as its presentation.
    A field outside its form, or a missing or ill-typed one, raises
    ValueError naming it.  Nothing of a family is built here: the command
    builds and budgets what it ranks."""
    shorthand = isinstance(data, Mapping) and "family" in data
    fields = ("family", "n") if shorthand else ("n", "generators", "relations")
    for key in data if isinstance(data, Mapping) else ():
        if key not in fields:
            raise ValueError(f"unknown field {key!r}, expected only "
                             + ", ".join(map(repr, fields)))
    if shorthand:
        return AlgebraFamily.from_json(data)
    return QuadraticPresentation.from_json(data)


def sectors(fam: AlgebraFamily, max_degree: int,
            budget: int = DEFAULT_BUDGET) -> QuadraticPresentation:
    """The family on [k], k = max(2, min(n, 2 max_degree)), whose sectors
    give `graded_dims` and `koszul_euler_check` every degree up to
    max_degree of the family on [n] (with n as the ambient), built once its
    V^(x)m, m = 2..max(2, max_degree), is within the budget."""
    part = AlgebraFamily(fam.family, max(2, min(fam.n, 2 * max_degree)))
    check_degree_budget(part.dim_v, max(2, max_degree), budget)
    return presentation(part)


def _relabeled(lab, sym_map: Mapping, gen_map: Mapping) -> tuple:
    """A column label, a relator symbol or ("R", sym, g) or ("L", g, sym),
    with its strands renamed, and the sign of its canonical symbol."""
    if type(lab) is RelatorSymbol:
        return sym_map[lab]
    side, a, b = lab
    if side == "R":
        r, sign = sym_map[a]
        return ("R", r, gen_map[b]), sign
    r, sign = sym_map[b]
    return ("L", gen_map[a], r), sign


def _up_to_sign(vec: Mapping) -> tuple:
    """A numbered vector as its sorted items, the first entry made positive,
    so that v and -v give the same key."""
    key = sorted(vec.items())
    if key and key[0][1] < 0:
        key = [(t, -c) for t, c in key]
    return tuple(key)


def _numbered(cols: Mapping) -> tuple[dict, dict, list[dict]]:
    """A block's column labels and words, each numbered in first-seen order,
    and its columns as maps from word number to entry."""
    word_no: dict = {}
    columns = [{word_no.setdefault(w, len(word_no)): c for w, c in col.items()}
               for col in cols.values()]
    return {lab: t for t, lab in enumerate(cols)}, word_no, columns


def _block_equivariant(s: int, block, vectors: list[dict] = ()) -> bool:
    """Whether the transposition (1 2) and the s-cycle map the `_numbered`
    block's columns onto themselves, each up to its canonicalization sign,
    and the vectors (keyed by column number, zero coordinates dropped) onto
    themselves up to sign, multiplicities included.

    The two generate S_s, so the block and its vectors are S_s-stable, and
    renaming [s] onto any s strands of [n] gives that support's block.
    """
    lab_no, word_no, columns = block
    counts = Counter(map(_up_to_sign, vectors))
    syms, gens = relator_symbols(s), all_generators(s)
    strands = range(1, s + 1)
    swap = {x: {1: 2, 2: 1}.get(x, x) for x in strands}
    cycle = {x: x % s + 1 for x in strands}
    for sigma in (swap, cycle):
        gen_map = {g: Generator(sigma[g.i], sigma[g.j]) for g in gens}
        sym_map = {r: r.relabel(sigma) for r in syms}
        moved = []  # column number -> (renamed column number, sign)
        for lab in lab_no:
            lab2, sign = _relabeled(lab, sym_map, gen_map)
            if lab2 not in lab_no:
                return False
            moved.append((lab_no[lab2], sign))
        word_map = [word_no.get(tuple(map(gen_map.__getitem__, w)))
                    for w in word_no]
        for col, (t, sign) in zip(columns, moved):
            if columns[t] != {word_map[u]: sign * c for u, c in col.items()}:
                return False
        images = ({moved[t][0]: moved[t][1] * c for t, c in v.items()}
                  for v in vectors)
        if Counter(map(_up_to_sign, images)) != counts:
            return False
    return True


def _block_failures(s: int, block, vectors: list[dict] = ()) -> dict:
    """The run-time checks of a `_numbered` support block: every column has
    support exactly [s], and the block with its vectors is S_s-stable."""
    lab_no, word_no, columns = block
    full = set(range(1, s + 1))
    off = {u for w, u in word_no.items() if {x for g in w for x in g} != full}
    failures: dict = {}
    mixed = [lab for lab, col in zip(lab_no, columns) if not off.isdisjoint(col)]
    if mixed:
        failures["mixed_support"] = mixed
    if not _block_equivariant(s, block, vectors):
        failures["not_equivariant"] = [s]
    return failures


def _pvb_block(s: int) -> dict[RelatorSymbol, FreeElement]:
    """The pvb relators of support exactly [s], by symbol."""
    full = frozenset(range(1, s + 1))
    return {sym: sym.quad_image(s)
            for sym in relator_symbols(s) if sym.strands == full}


def _psi_block(s: int) -> tuple[dict, dict]:
    """The psi check on the block of [s]: its pb relators, all three per
    triple (two are S_3-stable only as a span), are mapped by psi and
    written over the pvb relators of [s].  Returns their count, and as
    failures those not in the span ("not_in_span") and the pvb block's
    `_block_failures`, with the coordinates as its vectors."""
    rows = _pvb_block(s)
    basis = [r.terms() for r in rows.values()]
    rels = _block_relators(Family.PB, s, 3)
    coords = [span_membership(_substitute(r, _psi).terms(), basis)
              for r in rels]
    missing = [r for r, co in zip(rels, coords) if co is None]
    failures = {"not_in_span": missing} if missing else {}
    failures.update(_block_failures(s, _numbered(rows), [
        {t: c for t, c in enumerate(co) if c}
        for co in coords if co is not None]))
    return {"relators": len(rels)}, failures


def _degree2_block(family: Family, s: int) -> tuple[dict, dict]:
    """Degree-2 certificate on the block of support [s], s = 3 or 4: the
    count and rank of its `_block_relators`, and its failures: the pvb
    block's `_block_failures` for pvb and pfb, and for pb those of its psi
    images (`_psi_block`)."""
    failures = (_psi_block(s)[1] if family is Family.PB
                else _block_failures(s, _numbered(_pvb_block(s))))
    rels = _block_relators(family, s)
    rank = SparseMatrix([r.terms() for r in rels]).rank()
    return {"relators": len(rels), "rank": rank}, failures


def psi_image_check(n: int, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Certify that a_ij -> r_ij + r_ji maps every pb relator, all three per
    triple, into the span of the pvb relators, once pvb's V (x) V is within
    the budget.  psi keeps supports, so the blocks of [3] and [4] stand for
    all (`_psi_block`); a relator fails when its block relator does, listed
    on failure only ("not_in_span") by its place among the pb relators with
    three per triple, sorted as `quadratic_relators` sorts them."""
    if n < 3:
        raise ValueError("psi check needs n >= 3")
    _check_budget((n * (n - 1)) ** 2, budget)
    totals, failures = _sum_blocks(n, (3, 4), _psi_block)
    missing = set(failures.pop("not_in_span", ()))
    failing = [t for t, (_, rel) in enumerate(
                   _block_copies(n, Family.PB, 3) if missing else ())
               if rel in missing]
    failures = {"not_in_span": failing, **failures} if failing else failures
    relators = totals["relators"]
    return VerificationReport(
        check="psi-compatibility", params={"n": n},
        expected={"members": relators},
        actual={"members": relators - len(failing),
                **({"failures": failures} if failures else {})},
        payload={"pb_relators": relators, "failing_indices": failing},
    )
