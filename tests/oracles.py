"""Reference code that only tests call: the paper's catalogue witnesses and
other oracles the commands do not need.

The PVH criterion is certified by support blocks (`pvh_checker.pvh_report`),
so the explicit catalogue maps of the paper live here as independent
witnesses: `dual_tilde_delta` sends degree-2 chain gangs to relators, and
`infinitesimal_from_dual` lifts degree-3 chain gangs to syzygies.  Beside
them are the shift expansion of group relators, the position subspaces and
the degree-3 intersection of a presentation, the ordered 2-step partitions
behind the Up-Down basis, and random multiples of pruning relations.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

import qal.quad_algebra as qa
from qal.exact_core import FreeElement, Generator, SparseMatrix, Word, all_generators
from qal.graph_basis import (Forest, WedgeElement, WedgeMonomial, _block_orders,
                             _tuft_edges, _two_step_partitions, _UnionFind,
                             _up_tree_edges, _wedge, prune_normal_form)
from qal.pvb_family import RelatorSymbol
from qal.pvh_checker import (InfinitesimalSyzygy, SyzygyElement,
                             commutation_syzygy, project_to_infinitesimal,
                             zamolodchikov)
from qal.quad_algebra import QuadraticPresentation

# -- the free algebra and the relator module ----------------------------------


def shift_expand(p: FreeElement, max_degree: int) -> FreeElement:
    """Substitute every generator g by (g + 1) and truncate above max_degree.

    This converts a presentation in group-like generators R_ij into one in the
    shifted generators (R_ij - 1); the output words reuse the same index pairs
    for the shifted symbols.  Each input word of length m expands to its 2^m
    subwords (order preserved).
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    out: dict[Word, Fraction] = {}
    for w, c in p.items():
        m = len(w)
        for r in range(0, min(m, max_degree) + 1):
            for keep in itertools.combinations(range(m), r):
                sub = tuple(w[t] for t in keep)
                out[sub] = out.get(sub, Fraction(0)) + c
    return FreeElement(p.n, out)


def group_image(sym: RelatorSymbol, n: int) -> FreeElement:
    """delta_K of the symbol: the group-level relator in F,
    R_ij R_ik R_jk - R_jk R_ik R_ij or R_ij R_kl - R_kl R_ij."""
    return FreeElement(n, sym.group_terms())


def kernel_condition_holds(inf: InfinitesimalSyzygy) -> bool:
    """Whether delta_A kills the infinitesimal syzygy."""
    syms = {sym for sym, _ in inf.right} | {sym for _, sym in inf.left}
    cols = qa._deg3_columns({s: s.quad_image(inf.n) for s in syms},
                            all_generators(inf.n))
    return not qa._apply_columns(cols, inf.as_vector())


# -- the catalogue maps ---------------------------------------------------------


def chain_gang_form(w, degree: int) -> WedgeElement:
    """A dual element of one degree in the chain-gang basis.

    `w` is a WedgeMonomial or a monomial -> coefficient mapping, and every
    monomial must have the given degree.  The combination is reduced as a
    whole, so a map defined on the basis is extended linearly by applying it
    to the result.
    """
    combo = {w: 1} if isinstance(w, WedgeMonomial) else dict(w)
    for mono in combo:
        if mono.degree != degree:
            raise ValueError(f"expected degree-{degree} monomial, got {mono}")
    return prune_normal_form(combo)


def catalogued(e1, e2) -> tuple[RelatorSymbol, int]:
    """The symbol, and its sign, that the degree-2 chain gang e1, e2
    catalogues: Y_ijk for the 2-chain i->j->k, its edges in either
    order, and the canonical C symbol for a disjoint pair."""
    (i, j), (k, l) = e1, e2
    if j == k:
        return RelatorSymbol.y(i, j, l), 1
    if l == i:
        return RelatorSymbol.y(k, l, j), 1
    return RelatorSymbol.c(e1, e2)


def dual_tilde_delta(w, n: int) -> FreeElement:
    """The relator-cataloguing isomorphism on degree-2 dual monomials.

    Sends each chain-gang monomial to the quadratic image of the symbol it
    catalogues (`catalogued`), with the symbol's sign; extended linearly.
    Non-basis input is first reduced to the chain-gang basis.
    """
    out = FreeElement.zero(n)
    for red, c in chain_gang_form(w, 2).items():
        sym, sign = catalogued(*red.edges)
        out = out + c * sign * sym.quad_image(n)
    return out


def lift(mono, n: int) -> tuple[int, SyzygyElement]:
    """The global syzygy a degree-3 chain gang catalogues, and the sign of
    sorting its factors, written chain by chain (longest chain first, then
    by first strand), into the canonical monomial.

    The 4-chain i>j>k>l lifts to zamolodchikov(i, j, k, l); any other, with
    factors e1, e2, e3 as written, to the commutation syzygy of the symbol
    that e1, e2 catalogue (`catalogued`) with r_e3.
    """
    if mono.degree != 3 or not mono.forest().is_chain_gang():
        raise ValueError(f"not a degree-3 chain gang: {mono}")
    succ = {e.i: e.j for e in mono.edges}
    chains = []
    for v in sorted(succ.keys() - succ.values()):
        chain = [v]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        chains.append(chain)
    chains.sort(key=len, reverse=True)
    written = [Generator(a, b) for c in chains for a, b in zip(c, c[1:])]
    _, parity = WedgeMonomial.from_factors(written)
    if len(chains) == 1:
        return parity, zamolodchikov(*chains[0], n=n)
    e1, e2, e3 = written
    return parity, commutation_syzygy(catalogued(e1, e2), e3, n)


def infinitesimal_from_dual(w, n: int) -> InfinitesimalSyzygy:
    """The degree-3 infinitesimal syzygy catalogued by a dual basis monomial:
    the projection of the global syzygy it lifts to (`lift`), checked to be
    delta_K-zero.  Non-basis input is reduced first and the map applied
    linearly.
    """
    total = SyzygyElement(n)
    for mono, c in chain_gang_form(w, 3).items():
        parity, syz = lift(mono, n)
        total = total + c * parity * syz
    return project_to_infinitesimal(total)


# -- tensor-space subspaces of a presentation ---------------------------------


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


def deg3_intersection(p: QuadraticPresentation,
                      budget: int = qa.DEFAULT_BUDGET) -> list[FreeElement]:
    """Exact basis of R (x) V  intersect  V (x) R inside V^(x)3.

    Read off the R side of the kernel of the degree-3 map; the dimension
    equals dim of the dual algebra in degree 3.  V^(x)3 is checked against
    the budget before the map is built.
    """
    qa._check_budget(p.dim_v ** 3, budget)
    cols = qa._deg3_columns(dict(enumerate(p.relations)), p.generators)
    return [FreeElement(p.n, qa._apply_columns(
                cols, {lab: c for lab, c in vec.items() if lab[0] == "R"}))
            for vec in SparseMatrix.from_columns(cols).nullspace()]


# -- ordered 2-step partitions and the Up-Down basis --------------------------


@dataclass(frozen=True)
class OrderedTwoStepPartition:
    """Cyclically ordered blocks of [n], plus an unordered partition of the
    block minima; reads off an Up-Down forest (Up trees on the cycles, Down
    tufts on the minima groups)."""

    cycles: tuple[tuple[int, ...], ...]
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        minima = sorted(c[0] for c in self.cycles)
        grouped = sorted(v for g in self.groups for v in g)
        if minima != grouped:
            raise ValueError("groups must partition the cycle minima")
        for c in self.cycles:
            if c[0] != min(c):
                raise ValueError(f"cycle {c} must start at its minimum")

    @property
    def edge_count(self) -> int:
        return sum(len(c) for c in self.cycles) - len(self.groups)

    def monomial(self) -> WedgeMonomial:
        edges = tuple(sorted([e for cycle in self.cycles
                              for e in _up_tree_edges(cycle)]
                             + _tuft_edges(self.groups)))
        assert len(set(edges)) == len(edges)  # distinct blocks, distinct edges
        return _wedge(edges)


def cycle_orders(part: list[list[int]]
                 ) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every choice of one min-first cyclic order per block of `part`."""
    return itertools.product(*_block_orders(part))


def ordered_two_step_partitions(n: int, edges: int | None = None
                                ) -> Iterator[OrderedTwoStepPartition]:
    """Ordered 2-step partitions of [n], with `edges` = n - #groups if given:
    then only set partitions into at least n - edges blocks and minima
    partitions into exactly n - edges groups are built."""
    return (OrderedTwoStepPartition(
        tuple(sorted(cycles)), tuple(sorted(tuple(sorted(g)) for g in mpart)))
        for part, mparts in _two_step_partitions(n, edges)
        for cycles in cycle_orders(part) for mpart in mparts)


# -- randomized material for the property checks -------------------------------


def random_relation_multiple(rng: random.Random, n: int
                             ) -> tuple[Forest, list[Forest]]:
    """A random multiple of a pruning relation: (join term, other terms).

    The same extra edges are added to every term of a random V- or A-join
    relation, never forming a loop in any term.
    """
    i, j, k = rng.sample(range(1, n + 1), 3)
    G = Generator
    if rng.random() < 0.5:
        join = [G(i, j), G(i, k)]
        others = [[G(i, j), G(j, k)], [G(i, k), G(k, j)]]
    else:
        join = [G(i, k), G(j, k)]
        others = [[G(i, j), G(j, k)], [G(j, i), G(i, k)]]
    sets = _UnionFind()
    sets.union(j, i)
    sets.union(k, i)
    extra = rng.randint(0, max(0, n - 3))
    added = 0
    attempts = 0
    while added < extra and attempts < 50:
        attempts += 1
        a, b = rng.sample(range(1, n + 1), 2)
        if not sets.union(a, b):
            continue  # would close a loop in every term
        e = G(a, b)
        join.append(e)
        for o in others:
            o.append(e)
        added += 1
    return Forest(n, join), [Forest(n, o) for o in others]
