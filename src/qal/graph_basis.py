"""Graph-indexed bases of the dual algebra and their rewriting systems.

Wedge monomials in the dual generators are read as directed graphs on [n].
Two rewriting systems are provided:

* pruning, which reduces any monomial to the chain-gang basis (disjoint
  unions of directed chains) by eliminating V-joins and A-joins; and
* the lex Groebner rules, which reduce to the Up-Down forest basis coming
  from ordered 2-step partitions.

A monomial whose graph has a loop is zero in both bases; `_rewrite`, which
both systems share, drops it on entry, so the rules only ever rewrite forests.

Every rule and every basis here is defined by comparisons between vertices,
so each commutes with order-preserving strand relabelings.  Three places use
this: the rules are written once, on the vertex ranks 0 < 1 < 2 of a factor
pair, and instantiated once per generator pair; `coproduct_table_check`
reduces its formulas on the 24 orders of [4] alone; and a basis listing of
degree k on [n] builds only its monomials of full support on [v], v <= 2k,
and relabels each onto every v-subset of [n].

Sign convention: a basis monomial is the wedge of its edges sorted ascending
by index pair with sign +1; arbitrary wedge words pick up the parity of the
sorting permutation.  All identities are applied at the signed-monomial
level, never graph-to-graph: a rewriting step replaces two factors of a
canonical monomial and inserts the new pair back into sorted position, so
its successors are canonical with that parity already in their sign.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache, partial
from operator import attrgetter

from .exact_core import Generator, _exact, gen, sorting_sign
from .report import VerificationReport

Edges = tuple[Generator, ...]
#: A rewriting coefficient: an int while every input coefficient is one.
Coeff = int | Fraction


def _canonical(edges: Edges) -> tuple[Edges | None, int]:
    """Sort factors, returning (sorted edges, parity sign); None on a repeat."""
    if len(set(edges)) != len(edges):
        return None, 0
    return tuple(sorted(edges)), sorting_sign(edges)


class _UnionFind:
    """Disjoint sets of hashable items; an item not seen yet is a singleton.

    No path compression or union by rank: the graphs here are small.
    """

    def __init__(self):
        self.parent: dict = {}  # roots are not keys

    def find(self, x):
        while x in self.parent:
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        """Merge the sets of a and b; False when they were one set already."""
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
        return ra != rb


def _acyclic(mono: Edges) -> bool:
    """No undirected cycle; an opposite pair r_ij, r_ji counts as one."""
    sets = _UnionFind()
    return all(sets.union(i, j) for i, j in mono)


@dataclass(frozen=True, order=True)
class WedgeMonomial:
    """A signed, ordered wedge word of dual generators, in canonical form.

    `edges` is strictly ascending; the implicit sign of the stored form is +1.
    """

    edges: Edges

    def __post_init__(self):
        if any(self.edges[t] >= self.edges[t + 1]
               for t in range(len(self.edges) - 1)):
            raise ValueError(f"edges not in canonical order: {self.edges}")

    @classmethod
    def from_factors(cls, factors: Sequence) -> tuple["WedgeMonomial | None", int]:
        """Canonicalize a wedge word; (None, 0) if it has a repeated factor."""
        mono, sign = _canonical(tuple(Generator(*e) for e in factors))
        if mono is None:
            return None, 0
        return cls(mono), sign

    @property
    def degree(self) -> int:
        return len(self.edges)

    def vertices(self) -> set[int]:
        return {v for e in self.edges for v in e}

    def forest(self, n: int | None = None) -> "Forest":
        nn = n if n is not None else max(self.vertices(), default=0)
        return Forest(nn, self.edges)

    def __str__(self) -> str:
        return ",".join(f"{e.i}>{e.j}" for e in self.edges)

    def __repr__(self) -> str:
        return f"<{self}>" if self.edges else "<1>"


def _wedge(edges: Edges) -> WedgeMonomial:
    """The monomial of edges already in canonical order, not checked again."""
    mono = object.__new__(WedgeMonomial)
    object.__setattr__(mono, "edges", edges)
    return mono


#: A rational combination of wedge monomials.
WedgeElement = dict[WedgeMonomial, Fraction]

#: Sort key giving the dataclass order of wedge monomials, compared in C.
_by_edges = attrgetter("edges")


def parse_wedge_word(text: str, n: int | None = None
                     ) -> tuple[WedgeMonomial | None, int]:
    """Parse an "i>j,k>l" wedge word; empty string is the unit monomial.

    Factors may appear in any order; the parity of sorting them into
    canonical order is returned as the sign ((None, 0) on a repeated factor).
    With n given, every vertex must lie in [1..n].
    """
    text = text.strip()
    if not text:
        return WedgeMonomial(()), 1
    factors = []
    for bit in text.split(","):
        ends = bit.split(">")
        if len(ends) != 2 or not all(e.strip().isdigit() for e in ends):
            raise ValueError(f"bad wedge factor {bit!r}: expected i>j with "
                             "positive integers i != j")
        factors.append(gen(int(ends[0]), int(ends[1]), n))
    return WedgeMonomial.from_factors(factors)


def _combine(target: dict, mono, coeff: Coeff):
    if coeff:
        c = target.get(mono, 0) + coeff
        if c:
            target[mono] = c
        else:
            target.pop(mono, None)


class Forest:
    """Directed-graph reading of a wedge monomial on vertex set [n]."""

    def __init__(self, n: int, edges: Sequence):
        self.n = n
        self.edges = tuple(Generator(*e) for e in edges)
        for e in self.edges:
            if not (1 <= e.i <= n and 1 <= e.j <= n):
                raise ValueError(f"edge {e} outside [1..{n}]")

    def components(self) -> list[frozenset[int]]:
        sets = _UnionFind()
        for e in self.edges:
            sets.union(e.i, e.j)
        comp: dict[int, set[int]] = {}
        for v in range(1, self.n + 1):
            comp.setdefault(sets.find(v), set()).add(v)
        return sorted((frozenset(s) for s in comp.values()), key=min)

    def is_forest(self) -> bool:
        return _acyclic(self.edges)

    def defect(self) -> int:
        """Unordered vertex pairs (per tree) joined by no directed path."""
        if not self.is_forest():
            raise ValueError("defect is defined on loop-free forests")
        succ: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for e in self.edges:
            succ[e.i].add(e.j)
        reach: dict[int, set[int]] = {}
        for v in range(1, self.n + 1):
            seen = set()
            stack = [v]
            while stack:
                u = stack.pop()
                for w in succ[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            reach[v] = seen
        total = 0
        for comp in self.components():
            for a, b in itertools.combinations(sorted(comp), 2):
                if b not in reach[a] and a not in reach[b]:
                    total += 1
        return total

    def is_chain_gang(self) -> bool:
        """Disjoint union of directed chains (all in/out degrees <= 1)."""
        if not self.is_forest():
            return False
        indeg: dict[int, int] = {}
        outdeg: dict[int, int] = {}
        for e in self.edges:
            outdeg[e.i] = outdeg.get(e.i, 0) + 1
            indeg[e.j] = indeg.get(e.j, 0) + 1
        return all(v <= 1 for v in indeg.values()) and \
            all(v <= 1 for v in outdeg.values())

    def is_down_forest(self) -> bool:
        """Disjoint tufts: decreasing edges all pointing at component minima."""
        indeg: dict[int, int] = {}
        outdeg: dict[int, int] = {}
        for e in self.edges:
            if e.i < e.j:
                return False
            outdeg[e.i] = outdeg.get(e.i, 0) + 1
            indeg[e.j] = indeg.get(e.j, 0) + 1
        if any(v > 1 for v in outdeg.values()):
            return False
        return not any(v in indeg and v in outdeg for v in range(1, self.n + 1))

    def is_up_forest(self) -> bool:
        """Increasing edges with all in-degrees <= 1 (recursive trees)."""
        indeg: dict[int, int] = {}
        for e in self.edges:
            if e.i > e.j:
                return False
            indeg[e.j] = indeg.get(e.j, 0) + 1
        return all(v <= 1 for v in indeg.values())

    def is_updown_forest(self) -> bool:
        """No pair of edges forms one of the nine excluded subgraphs."""
        for e, f in itertools.combinations(self.edges, 2):
            if _updown_pair_excluded(e, f):
                return False
        return True

    def monomial(self) -> WedgeMonomial:
        mono, sign = WedgeMonomial.from_factors(self.edges)
        if mono is None:
            raise ValueError("repeated edge has no monomial")
        return mono

    def to_dot(self, name: str = "forest") -> str:
        lines = [f"digraph {name} {{"]
        for v in range(1, self.n + 1):
            lines.append(f"  {v};")
        for e in self.edges:
            lines.append(f"  {e.i} -> {e.j};")
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Forest(n={self.n}, {','.join(f'{e.i}>{e.j}' for e in self.edges) or '-'})"


def _updown_pair_excluded(e: Generator, f: Generator) -> bool:
    up_e, up_f = e.i < e.j, f.i < f.j
    if (e.j, e.i) == tuple(f):
        return True  # opposite pair
    if up_e and up_f and e.j == f.j:
        return True  # A-join of increasing edges
    if not up_e and not up_f:
        if e.j == f.i or f.j == e.i:
            return True  # decreasing 2-chain
        if e.i == f.i:
            return True  # V-join of decreasing edges
    if up_e != up_f:
        up, down = (e, f) if up_e else (f, e)
        if up.j == down.i:
            return True  # rise into a peak, then fall
        if up.j == down.j:
            return True  # mixed join into a middle vertex
    return False


# ---------------------------------------------------------------------------
# the rewriting driver
# ---------------------------------------------------------------------------

#: Most terms one normal-form computation may put on its stack, the input
#: terms included; each term taken off was put on first, so this bounds the
#: steps and the stack alike.  Both rewriting systems terminate, and measured
#: normal forms of forests with up to 6 edges on 7 strands took under a
#: thousand steps, but a forest with many joins at one vertex grows
#: factorially (a star of nine edges has 9! normal terms): reaching the
#: bound raises RewriteBoundError instead of running on.
REWRITE_STEP_BOUND = 5_000_000


class RewriteBoundError(RuntimeError):
    """A normal form put more than REWRITE_STEP_BOUND terms on its stack."""


def _rewrite(m, step, system: str) -> WedgeElement:
    """Normal form of a wedge element under one rewriting system.

    Accepts a WedgeMonomial, a raw factor sequence, or a monomial->coefficient
    mapping.  Terms are (canonical edges, coefficient) pairs taken from a
    stack; `step(mono, coeff)` returns None when the monomial is normal (it is
    summed into the result), else its successor terms, canonical and with
    their signs applied (none when the monomial is zero).  Coefficients stay
    `int` while the input's are integers; the result's are Fractions.

    Input terms whose graph has a loop (an opposite pair counts as one) are
    zero and dropped, so `step` only sees forests.  Every pruning and lex
    rule replaces two factors spanning three vertices by two factors
    spanning the same three vertices, so it keeps the edge count and the
    connected components: a loop never appears or disappears.  And no loop
    monomial is normal: the two cycle edges at any vertex of a shortest
    cycle form a join or a directed 2-chain (the A-join relation read
    backwards), and the two at the cycle's largest vertex form a lex left
    side or an opposite pair.  So a loop monomial rewrites to 0 wherever
    rewriting it ends.
    """
    if isinstance(m, WedgeMonomial):
        m = {m: 1}
    elif not isinstance(m, Mapping):
        mono, sign = WedgeMonomial.from_factors(m)
        m = {} if mono is None else {mono: sign}
    stack = [(mono.edges, _exact(c)) for mono, c in m.items()
             if _acyclic(mono.edges)]
    sums: dict[Edges, Coeff] = {}
    pushed = len(stack)
    while stack:
        if pushed > REWRITE_STEP_BOUND:
            raise RewriteBoundError(f"{system} did not terminate within "
                                    f"{REWRITE_STEP_BOUND} steps")
        mono, coeff = stack.pop()
        successors = step(mono, coeff)
        if successors is None:
            _combine(sums, mono, coeff)
        else:
            pushed += len(successors)
            stack.extend(successors)
    return {_wedge(mono): Fraction(c) for mono, c in sums.items()}


def _replace_pair(mono: Edges, coeff: Coeff, p: int, q: int,
                  pairs) -> list[tuple[Edges, Coeff]]:
    """Successor terms: the factors at positions p < q of the canonical
    `mono` replaced by each ((x, y), coefficient) of `pairs`, written in front.

    Each term comes out canonical.  Moving positions p < q to the front has
    parity p + q - 1; inserting x and y into the sorted rest at positions
    ix and iy has parity ix + iy, plus one when x > y.  A factor already in
    the rest, or x == y, gives no term.
    """
    rest = mono[:p] + mono[p + 1:q] + mono[q + 1:]
    size = len(rest)
    s = -coeff if (p + q - 1) % 2 else coeff
    out = []
    for (x, y), c in pairs:
        if x == y:
            continue
        if x > y:
            x, y, c = y, x, -c
        ix = bisect_left(rest, x)
        if ix < size and rest[ix] == x:
            continue
        iy = bisect_left(rest, y, ix)
        if iy < size and rest[iy] == y:
            continue
        out.append((rest[:ix] + (x,) + rest[ix:iy] + (y,) + rest[iy:],
                    -s * c if (ix + iy) % 2 else s * c))
    return out


# ---------------------------------------------------------------------------
# the rules, on vertex ranks
# ---------------------------------------------------------------------------


def _rank_rules(rules) -> dict:
    """Rules on the vertex ranks 0 < 1 < 2 of a pair's three vertices, keyed
    by both written orders of a left side: (kind, sign of that order against
    the rule's, replacement pairs with their coefficients)."""
    table = {}
    for kind, (a, b), rhs in rules:
        table[a, b] = (kind, 1, rhs)
        table[b, a] = (kind, -1, rhs)
    return table


#: The pruning rules: V-joins i>j, i>k (j < k) and A-joins i>k, j>k (i < j).
_PRUNE_RULES = _rank_rules(
    [("V", ((i, j), (i, k)), [(((i, j), (j, k)), 1), (((i, k), (k, j)), -1)])
     for i, j, k in itertools.permutations(range(3)) if j < k]
    + [("A", ((i, k), (j, k)), [(((i, j), (j, k)), 1), (((j, i), (i, k)), -1)])
       for i, j, k in itertools.permutations(range(3)) if i < j])


def _lex_rules() -> dict:
    """The lex rules: they have pairwise distinct maximal terms and every
    replacement is lexicographically smaller."""
    i, j, k = 0, 1, 2
    return _rank_rules(("lex", lhs, rhs) for lhs, rhs in [
        (((i, k), (j, k)), [(((i, j), (j, k)), 1), (((j, i), (i, k)), -1)]),
        (((k, j), (j, i)), [(((j, i), (i, k)), 1), (((j, i), (j, k)), -1),
                            (((j, i), (k, i)), -1)]),
        (((k, i), (k, j)), [(((k, i), (i, j)), 1), (((j, i), (i, k)), -1),
                            (((j, i), (j, k)), 1), (((j, i), (k, i)), 1)]),
        (((i, k), (k, j)), [(((i, j), (j, k)), 1), (((i, j), (i, k)), -1)]),
        (((j, k), (k, i)), [(((j, i), (i, k)), 1), (((j, i), (j, k)), -1)]),
        (((i, j), (k, j)), [(((i, j), (j, k)), 1), (((i, j), (i, k)), -1),
                            (((k, i), (i, j)), -1)]),
    ])


_LEX_RULES = _lex_rules()


def _instantiate(rules: dict, a: Generator, b: Generator):
    """The rule with left side (a, b) as (join key, replacement pairs), or
    None; the key (vertex triple, kind, a, b) orders the joins."""
    order = sorted({*a, *b})
    if len(order) != 3:
        return None
    rank = {v: r for r, v in enumerate(order)}
    rule = rules.get(((rank[a.i], rank[a.j]), (rank[b.i], rank[b.j])))
    if rule is None:
        return None
    kind, orient, rhs = rule
    return (*order, kind, a, b), tuple(
        ((Generator(order[w], order[x]), Generator(order[y], order[z])),
         orient * c) for ((w, x), (y, z)), c in rhs)


#: The rules instantiated by generator pair (a, b), once each: at most
#: (n(n-1))^2 entries on [n].
_prune_rule = cache(partial(_instantiate, _PRUNE_RULES))
_lex_rule = cache(partial(_instantiate, _LEX_RULES))


def _left_sides(mono: Edges, rule) -> Iterator:
    """`rule` of each pair p < q of factors of `mono` that is a rule's left
    side, in the order of the pairs."""
    return filter(None, itertools.starmap(rule, itertools.combinations(mono, 2)))


def _step(mono: Edges, coeff: Coeff, found):
    """The successor terms of rewriting the left side `found` of `mono`, or
    None when there is none (`mono` is normal)."""
    if found is None:
        return None
    (*_, a, b), pairs = found
    return _replace_pair(mono, coeff, mono.index(a), mono.index(b), pairs)


# ---------------------------------------------------------------------------
# pruning rewriting (chain-gang basis)
# ---------------------------------------------------------------------------

#: Picks one of a forest's joins, given as its `_left_sides` matches, each
#: (join key, replacement pairs).
JoinStrategy = Callable[[Edges, list[tuple]], tuple]


def _prune_step(mono: Edges, coeff: Coeff, strategy: JoinStrategy | None):
    """One pruning step on a forest: the join with the smallest key, unless
    `strategy` picks one."""
    joins = list(_left_sides(mono, _prune_rule))
    if not joins:
        return None
    return _step(mono, coeff, strategy(mono, joins) if strategy else min(joins))


def prune_normal_form(m, strategy: JoinStrategy | None = None) -> WedgeElement:
    """Unique expression of a wedge element in the chain-gang basis.

    Accepts a WedgeMonomial, a raw factor sequence, or a monomial->coefficient
    mapping.  Monomials whose graph contains a loop are 0 and dropped on
    entry; the rewriting eliminates the joins of a forest in deterministic
    order (smallest vertex triple first) unless `strategy` picks the join.
    """
    return _rewrite(m, lambda mono, coeff: _prune_step(mono, coeff, strategy),
                    "pruning")


# ---------------------------------------------------------------------------
# lex Groebner rewriting (Up-Down basis)
# ---------------------------------------------------------------------------


def _lex_step(mono: Edges, coeff: Coeff):
    """Rewrite the first pair (p < q) of a forest that is a rule's left side."""
    return _step(mono, coeff, next(_left_sides(mono, _lex_rule), None))


def lex_normal_form(m) -> WedgeElement:
    """Unique expression of a wedge element in the Up-Down forest basis."""
    return _rewrite(m, _lex_step, "lex rewriting")


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def set_partitions(items: Sequence[int], blocks: int | None = None
                   ) -> Iterator[list[list[int]]]:
    """All unordered partitions of `items` (optionally into `blocks` parts)."""
    items = list(items)
    if blocks is None:
        return _set_partitions(items, 0, len(items))
    return _set_partitions(items, blocks, blocks)


def _set_partitions(items: list[int], lo: int, hi: int
                    ) -> Iterator[list[list[int]]]:
    """The partitions of `items` into lo..hi blocks, in the order of the
    unrestricted enumeration; only partitions of items[d:] into lo-d..hi
    blocks are built.

    A partition of items[d:] is one of items[d+1:] with items[d] put in a
    new first block or in one of its blocks, in that order; the choice for
    the last item varies slowest.  The walk keeps one generator per item on
    an explicit stack, so its depth is not bounded by the recursion limit.
    """
    m = len(items)
    if not lo - m <= 0 <= hi:
        return
    if not m:
        yield []
        return

    def grow(d: int, part: list[list[int]]) -> Iterator[list[list[int]]]:
        first = items[d]
        if len(part) < hi:
            yield [[first]] + part
        if len(part) >= lo - d:
            for t in range(len(part)):
                yield part[:t] + [[first] + part[t]] + part[t + 1:]

    # stack[-1] yields the partitions of items[m - len(stack) + 1:]
    stack = [iter([[]])]
    while stack:
        part = next(stack[-1], None)
        if part is None:
            stack.pop()
        elif len(stack) == m:
            yield from grow(0, part)
        else:
            stack.append(grow(m - len(stack), part))


def _listing(n: int, k: int, shapes: Callable[[int], Iterator[Edges]]
             ) -> list[WedgeMonomial]:
    """The sorted k-edge monomials of a basis on [n], given `shapes(v)`, its
    k-edge monomials of full support on [v] as sorted edge tuples.  A k-edge
    forest touches v <= 2k strands, so the listing is each shape on [v],
    v <= min(n, 2k), relabeled onto each v-subset of [n]; the relabeling
    preserves order, so the edges stay in canonical order."""
    out = []
    for v in range(min(n, 2 * k) + 1):
        on_v = list(shapes(v))
        used = {e for edges in on_v for e in edges}
        for labels in itertools.combinations(range(1, n + 1), v) if on_v else ():
            moved = {e: Generator(labels[e.i - 1], labels[e.j - 1]) for e in used}
            out.extend(_wedge(tuple(map(moved.__getitem__, edges)))
                       for edges in on_v)
    return sorted(out, key=_by_edges)


def _blocks_without_singletons(v: int, blocks: int) -> Iterator[list[list[int]]]:
    """The partitions of [v] into `blocks` blocks of two or more elements."""
    return (part for part in set_partitions(range(1, v + 1), blocks)
            if all(len(block) > 1 for block in part))


def enumerate_chain_gangs(n: int, k: int) -> list[WedgeMonomial]:
    """One canonical monomial per partition of [n] into (n-k) ordered subsets."""
    return _listing(n, k, lambda v: (
        tuple(sorted(Generator(a, b) for chain in chains
                     for a, b in zip(chain, chain[1:])))
        for part in _blocks_without_singletons(v, v - k)
        for chains in itertools.product(*map(itertools.permutations, part))))


def _up_tree_edges(cycle: Sequence[int]) -> list[Generator]:
    """Up tree of a min-first cyclic order: each element hangs off the last
    previous smaller one."""
    edges = []
    for t in range(1, len(cycle)):
        x = cycle[t]
        for u in range(t - 1, -1, -1):
            if cycle[u] < x:
                edges.append(Generator(cycle[u], x))
                break
    return edges


def _tuft_edges(groups) -> list[Generator]:
    """Down tufts on the `groups`: each element points at its group's
    minimum."""
    return [Generator(x, m) for g in groups for m in (min(g),)
            for x in g if x != m]


def _block_orders(part: list[list[int]]) -> list[list[tuple[int, ...]]]:
    """The min-first cyclic orders of each block of `part`."""
    return [[(b[0],) + p for p in itertools.permutations(b[1:])]
            for b in map(sorted, part)]


def _up_forests(part: list[list[int]]) -> Iterator[list[Generator]]:
    """The Up-tree edges of every choice of one min-first cyclic order per
    block of `part`, the choices in `itertools.product` order of the blocks'
    `_block_orders`; each block's trees are built once."""
    trees = [[_up_tree_edges(c) for c in orders] for orders in _block_orders(part)]
    return (list(itertools.chain.from_iterable(forest))
            for forest in itertools.product(*trees))


def _two_step_partitions(n: int, edges: int | None
                         ) -> Iterator[tuple[list, list]]:
    """Each set partition of [n] with the partitions of its block minima,
    shared per set of minima; with `edges` given, only those of the Up-Down
    forests with that many edges: set partitions into at least n - edges
    blocks and minima partitions into exactly n - edges groups."""
    if edges is None:
        lo, hi = 0, n
    elif n - edges < min(n, 1):
        return  # a forest on n >= 1 vertices has fewer than n edges
    else:
        lo = hi = n - edges
    partitions = cache(lambda minima: list(_set_partitions(list(minima), lo, hi)))
    for part in _set_partitions(list(range(1, n + 1)), lo, n):
        yield part, partitions(tuple(sorted(map(min, part))))


def enumerate_updown(n: int, k: int) -> list[WedgeMonomial]:
    """Up-Down forest monomials with k edges (ordered 2-step partitions); a
    vertex that is a one-element cycle and a one-element group is isolated.
    The tufts of a set partition and the Up trees of each of its blocks are
    built once, and paired."""
    def shapes(v: int) -> Iterator[Edges]:
        for part, mparts in _two_step_partitions(v, k):
            alone = {b[0] for b in part if len(b) == 1}
            tufts = [_tuft_edges(groups) for groups in mparts
                     if not any(len(g) == 1 and g[0] in alone for g in groups)]
            for up in _up_forests(part) if tufts else ():
                yield from (tuple(sorted(up + down)) for down in tufts)
    return _listing(n, k, shapes)


def enumerate_down(n: int, k: int) -> list[WedgeMonomial]:
    """Down forests with k edges: the ordered 2-step partitions into singleton
    cycles, with one minima group (a tuft) per block of a set partition."""
    return _listing(n, k, lambda v: (
        tuple(sorted(_tuft_edges(part)))
        for part in _blocks_without_singletons(v, v - k)))


def enumerate_up(n: int, k: int) -> list[WedgeMonomial]:
    """Up forests with k edges: the ordered 2-step partitions into n - k blocks
    with singleton minima groups (Up trees on cyclically ordered blocks)."""
    return _listing(n, k, lambda v: (
        tuple(sorted(up)) for part in _blocks_without_singletons(v, v - k)
        for up in _up_forests(part)))


# ---------------------------------------------------------------------------
# Lah / Stirling numbers
# ---------------------------------------------------------------------------


#: T(m, k) = T(m-1, k-1) + weight(m, k) * T(m-1, k) with T(0, 0) = 1.
_TRIANGLE_WEIGHTS = {
    "lah": lambda m, k: m + k - 1,
    "stirling1": lambda m, k: m - 1,
    "stirling2": lambda m, k: k,
}


@lru_cache(maxsize=64)
def _triangle_row(kind: str, n: int, last: int | None = None) -> tuple[int, ...]:
    """Row n of a triangle, built one row at a time from row 0, each row
    kept to columns 0..last (to all of them when last is None)."""
    weight = _TRIANGLE_WEIGHTS[kind]
    row = [1]
    for m in range(1, n + 1):
        row = [(row[k - 1] if k else 0) + (weight(m, k) * row[k] if k < m else 0)
               for k in range(min(m, n if last is None else last) + 1)]
    return tuple(row)


def _triangle(kind: str, n: int, k: int) -> int:
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    return _triangle_row(kind, n)[k] if k <= n else 0


def lah(n: int, k: int) -> int:
    """Partitions of [n] into k ordered subsets."""
    return _triangle("lah", n, k)


def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling numbers of the first kind (cycle counts)."""
    return _triangle("stirling1", n, k)


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind (set-partition counts)."""
    return _triangle("stirling2", n, k)


def lah_by_enumeration(n: int, k: int) -> int:
    """Brute-force Lah count: set partitions weighted by block orderings."""
    return sum(math.prod(math.factorial(len(block)) for block in part)
               for part in set_partitions(range(1, n + 1), k))


# ---------------------------------------------------------------------------
# randomized material for the property checks
# ---------------------------------------------------------------------------


def random_loopfree_monomial(rng: random.Random, n: int,
                             k: int | None = None) -> WedgeMonomial:
    """A uniformly sloppy random forest monomial on [n] with k edges."""
    if k is None:
        k = rng.randint(1, n - 1)
    sets = _UnionFind()
    edges: list[Generator] = []
    while len(edges) < k:
        a, b = rng.sample(range(1, n + 1), 2)
        if sets.union(a, b):
            edges.append(Generator(a, b))
    mono, _ = WedgeMonomial.from_factors(edges)
    assert mono is not None
    return mono


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

#: The three overlapping-join monomial shapes, on indices (i, j, k, l).
OVERLAP_CASES = {
    "X": lambda i, j, k, l: (Generator(i, j), Generator(i, k), Generator(i, l)),
    "Y": lambda i, j, k, l: (Generator(i, l), Generator(j, l), Generator(k, l)),
    "Z": lambda i, j, k, l: (Generator(i, j), Generator(k, j), Generator(k, l)),
}


def _one_step_then_normalize(mono: Edges, found) -> WedgeElement:
    out: WedgeElement = {}
    for edges, c in _step(mono, 1, found):
        for mm, cc in prune_normal_form(_wedge(edges)).items():
            _combine(out, mm, c * cc)
    return out


def confluence_check(n: int, trials: int, seed: int) -> VerificationReport:
    """Deterministic overlap replay plus randomized strategy-independence.

    Part (a): for each overlap case, resolving either join first and then
    fully reducing gives the same chain-gang combination.  Part (b): random
    loop-free monomials reduce identically under two independently seeded
    random join-selection strategies.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if n < 2:
        raise ValueError("confluence check needs n >= 2")
    case_results = {}
    payload: dict = {"case_failures": {}, "mismatches": []}
    for name, build in OVERLAP_CASES.items():
        mono = tuple(sorted(build(1, 2, 3, 4)))  # joins apply to canonical words
        reference = prune_normal_form(mono)
        ok = True
        for found in _left_sides(mono, _prune_rule):
            if _one_step_then_normalize(mono, found) != reference:
                ok = False
                (*_, kind, a, b), _ = found
                payload["case_failures"][name] = str((kind, mono.index(a),
                                                      mono.index(b)))
        case_results[name] = ok

    rng_gen = random.Random(f"{seed}:monomials")
    rng_a = random.Random(f"{seed}:a")
    rng_b = random.Random(f"{seed}:b")

    def mk_strategy(rng):
        def pick(mono, joins):
            return joins[rng.randrange(len(joins))]
        return pick

    strat_a, strat_b = mk_strategy(rng_a), mk_strategy(rng_b)
    mismatches = 0
    for _ in range(trials):
        mono = random_loopfree_monomial(rng_gen, n)
        nf_a = prune_normal_form(mono, strategy=strat_a)
        nf_b = prune_normal_form(mono, strategy=strat_b)
        if nf_a != nf_b:
            mismatches += 1
            payload["mismatches"].append({
                "monomial": str(mono),
                "nf_a": {str(m): str(c) for m, c in sorted(nf_a.items())},
                "nf_b": {str(m): str(c) for m, c in sorted(nf_b.items())},
            })
    return VerificationReport(
        check="confluence",
        params={"n": n, "trials": trials, "seed": seed},
        expected={"cases": {"X": True, "Y": True, "Z": True}, "mismatches": 0},
        actual={"cases": case_results, "mismatches": mismatches},
        payload=payload,
    )


#: Co-product table: (left written pair, tensor factor, result written words).
_COPRODUCT_ROWS = [
    ("chain", "il", [("il,lj,jk", 1), ("ij,jl,lk", -1), ("ij,jk,kl", 1)]),
    ("chain", "jl", [("ij,jl,lk", -1), ("ij,jk,kl", 1)]),
    ("chain", "kl", [("ij,jk,kl", 1)]),
    ("chain", "li", [("li,ij,jk", 1)]),
    ("chain", "lj", [("il,lj,jk", -1), ("li,ij,jk", 1)]),
    ("chain", "lk", [("ij,jl,lk", 1), ("il,lj,jk", -1), ("li,ij,jk", 1)]),
    ("disjoint", "ik", [("ij,jk,kl", -1), ("ik,kj,jl", 1), ("ik,kl,lj", -1)]),
    ("disjoint", "ki", [("kl,li,ij", 1), ("ki,il,lj", -1), ("ki,ij,jl", 1)]),
    ("disjoint", "il", [("ij,jk,kl", -1), ("ik,kj,jl", 1), ("ik,kl,lj", -1),
                        ("ki,ij,jl", -1), ("ki,il,lj", 1)]),
    ("disjoint", "li", [("kl,li,ij", 1)]),
    ("disjoint", "jk", [("ij,jk,kl", -1)]),
    ("disjoint", "kj", [("kl,li,ij", 1), ("ki,il,lj", -1), ("ki,ij,jl", 1),
                        ("ik,kl,lj", 1), ("ik,kj,jl", -1)]),
    ("disjoint", "jl", [("ij,jk,kl", -1), ("ik,kj,jl", 1), ("ki,ij,jl", -1)]),
    ("disjoint", "lj", [("kl,li,ij", 1), ("ki,il,lj", -1), ("ik,kl,lj", 1)]),
]


def _edges_from_pattern(pattern: str, env: dict[str, int]) -> tuple[Generator, ...]:
    return tuple(Generator(env[a], env[b]) for a, b in pattern.split(","))


def coproduct_table_check(n: int) -> VerificationReport:
    """Verify the 14 dual-product formulas by reduction, on every 4-tuple:
    a formula holds on a tuple exactly when it holds on the tuple's order
    pattern, so only the 24 orders of [4] are reduced."""
    if n < 4:
        raise ValueError("co-product table needs n >= 4")
    failing_rows = {}
    for order in itertools.permutations(range(1, 5)):
        env = dict(zip("ijkl", order))
        for shape, tensor, rhs in _COPRODUCT_ROWS:
            left = "ij,jk," if shape == "chain" else "ij,kl,"
            got = prune_normal_form(_edges_from_pattern(left + tensor, env))
            want: WedgeElement = {}
            for pattern, c in rhs:
                mono, sign = WedgeMonomial.from_factors(
                    _edges_from_pattern(pattern, env))
                _combine(want, mono, Fraction(c * sign))
            if got != want:
                failing_rows.setdefault(order, []).append(
                    {"shape": shape, "tensor": tensor})
    failures = [{"tuple": t, **row}
                for t in (itertools.permutations(range(1, n + 1), 4)
                          if failing_rows else ())
                for row in failing_rows.get(
                    tuple(sorted(t).index(x) + 1 for x in t), ())]
    return VerificationReport(
        check="coproduct-table",
        params={"n": n, "formulas": len(_COPRODUCT_ROWS)},
        expected={"failures": 0},
        actual={"failures": len(failures)},
        payload={"instances": len(_COPRODUCT_ROWS) * math.perm(n, 4),
                 "failing": failures},
    )
