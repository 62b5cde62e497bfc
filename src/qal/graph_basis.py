"""Graph-indexed bases of the dual algebra and their rewriting systems.

Wedge monomials in the dual generators are read as directed graphs on [n].
Two rewriting systems are provided:

* pruning, which reduces any monomial to the chain-gang basis (disjoint
  unions of directed chains) by eliminating V-joins and A-joins and by
  shrinking loops until they die; and
* the lex Groebner rules, which reduce to the Up-Down forest basis coming
  from ordered 2-step partitions.

Sign convention: a basis monomial is the wedge of its edges sorted ascending
by index pair with sign +1; arbitrary wedge words pick up the parity of the
sorting permutation.  All identities are applied at the signed-monomial
level, never graph-to-graph.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterator, Mapping, Sequence

from .exact_core import Generator, gen
from .report import VerificationReport

Edges = tuple[Generator, ...]


def _canonical(edges: Sequence) -> tuple[Edges | None, int]:
    """Sort factors, returning (sorted edges, parity sign); None on a repeat."""
    edges = tuple(Generator(*e) for e in edges)
    if len(set(edges)) != len(edges):
        return None, 0
    order = sorted(range(len(edges)), key=lambda t: edges[t])
    inv = sum(1 for a in range(len(order)) for b in range(a + 1, len(order))
              if order[a] > order[b])
    return tuple(edges[t] for t in order), (-1 if inv % 2 else 1)


def _extract_sign(mono: Edges, first: int, second: int) -> int:
    """Parity moving factors at positions (first, second) to the front."""
    rest = [t for t in range(len(mono)) if t != first and t != second]
    order = [first, second] + rest
    inv = sum(1 for a in range(len(order)) for b in range(a + 1, len(order))
              if order[a] > order[b])
    return -1 if inv % 2 else 1


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
        mono, sign = _canonical(factors)
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


#: A rational combination of wedge monomials.
WedgeElement = dict[WedgeMonomial, Fraction]


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


def _combine(target: WedgeElement, mono: WedgeMonomial, coeff: Fraction):
    if coeff:
        c = target.get(mono, Fraction(0)) + coeff
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
        parent = {v: v for v in range(1, self.n + 1)}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in self.edges:
            parent[find(e.i)] = find(e.j)
        comp: dict[int, set[int]] = {}
        for v in range(1, self.n + 1):
            comp.setdefault(find(v), set()).add(v)
        return sorted((frozenset(s) for s in comp.values()), key=min)

    def is_forest(self) -> bool:
        # acyclic iff every component has |edges| = |vertices| - 1
        comps = self.components()
        locate = {v: c for c in comps for v in c}
        by_comp: dict[frozenset, int] = {}
        for e in self.edges:
            by_comp[locate[e.i]] = by_comp.get(locate[e.i], 0) + 1
        return all(by_comp.get(c, 0) == len(c) - 1 for c in comps)

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


def defect(f: Forest) -> int:
    return f.defect()


# ---------------------------------------------------------------------------
# pruning rewriting (chain-gang basis)
# ---------------------------------------------------------------------------


def _find_joins(mono: Edges) -> list[tuple[str, int, int]]:
    out = []
    for p in range(len(mono)):
        for q in range(p + 1, len(mono)):
            if mono[p].i == mono[q].i:
                out.append(("V", p, q))
            if mono[p].j == mono[q].j:
                out.append(("A", p, q))
    return out


def _join_key(mono: Edges, move: tuple[str, int, int]):
    kind, p, q = move
    a, b = mono[p], mono[q]
    return (tuple(sorted({a.i, a.j, b.i, b.j})), kind, a, b)


def _apply_join(mono: Edges, coeff: Fraction, move: tuple[str, int, int]
                ) -> list[tuple[Edges, Fraction]]:
    kind, p, q = move
    a, b = mono[p], mono[q]
    rest = tuple(mono[t] for t in range(len(mono)) if t != p and t != q)
    s = _extract_sign(mono, p, q) * coeff
    if kind == "V":
        i, j = a
        k = b.j
        return [((Generator(i, j), Generator(j, k)) + rest, s),
                ((Generator(i, k), Generator(k, j)) + rest, -s)]
    i, k = a
    j = b.i
    return [((Generator(i, j), Generator(j, k)) + rest, s),
            ((Generator(j, i), Generator(i, k)) + rest, -s)]


def _apply_chain_unprune(mono: Edges, coeff: Fraction, p: int, q: int
                         ) -> list[tuple[Edges, Fraction]]:
    """Replace the 2-chain a->b->c (positions p, q) using the A-join rule."""
    a, b = mono[p].i, mono[p].j
    c = mono[q].j
    rest = tuple(mono[t] for t in range(len(mono)) if t != p and t != q)
    s = _extract_sign(mono, p, q) * coeff
    return [((Generator(a, c), Generator(b, c)) + rest, s),
            ((Generator(b, a), Generator(a, c)) + rest, s)]


def _shortest_cycle(mono: Edges) -> list[int] | None:
    """Edge positions of a shortest undirected cycle, or None if acyclic."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for pos, e in enumerate(mono):
        adj.setdefault(e.i, []).append((e.j, pos))
        adj.setdefault(e.j, []).append((e.i, pos))
    best: list[int] | None = None
    for root in sorted(adj):
        dist = {root: 0}
        parent: dict[int, tuple[int | None, int | None]] = {root: (None, None)}
        dq = deque([root])
        while dq:
            u = dq.popleft()
            for v, pos in sorted(adj[u]):
                if parent[u][1] == pos:
                    continue
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = (u, pos)
                    dq.append(v)
                else:
                    pu, pv = u, v
                    path_u: list[int] = []
                    path_v: list[int] = []
                    while pu != pv:
                        if dist[pu] >= dist[pv]:
                            path_u.append(parent[pu][1])
                            pu = parent[pu][0]
                        else:
                            path_v.append(parent[pv][1])
                            pv = parent[pv][0]
                    cyc = path_u + [pos] + path_v
                    if len(cyc) >= 3 and (best is None or len(cyc) < len(best)):
                        best = cyc
    return best


def _has_opposite_pair(mono: Edges) -> bool:
    s = set(mono)
    return any(Generator(e.j, e.i) in s for e in mono)


JoinStrategy = Callable[[Edges, list[tuple[str, int, int]]], tuple[str, int, int]]


def prune_normal_form(m, strategy: JoinStrategy | None = None) -> WedgeElement:
    """Unique expression of a wedge element in the chain-gang basis.

    Accepts a WedgeMonomial, a raw factor sequence, or a monomial->coefficient
    mapping.  Monomials whose graph contains a loop reduce to 0; the rewriting
    eliminates joins in deterministic order (smallest vertex triple first)
    unless `strategy` picks the join instead.
    """
    stack: list[tuple[Edges, Fraction]] = []
    if isinstance(m, WedgeMonomial):
        stack.append((m.edges, Fraction(1)))
    elif isinstance(m, Mapping):
        for mono, c in m.items():
            stack.append((mono.edges, Fraction(c)))
    else:
        mono, sign = _canonical(m)
        if mono is None:
            return {}
        stack.append((mono, Fraction(sign)))

    result: WedgeElement = {}
    guard = 0
    while stack:
        guard += 1
        if guard > 5_000_000:
            raise RuntimeError("pruning did not terminate")
        raw, coeff = stack.pop()
        mono, sign = _canonical(raw)
        if mono is None:
            continue
        coeff = coeff * sign
        if _has_opposite_pair(mono):
            continue  # contains r_ij ^ r_ji = 0
        cycle = _shortest_cycle(mono)
        if cycle is not None:
            on = set(cycle)
            joins = [mv for mv in _find_joins(mono) if mv[1] in on and mv[2] in on]
            if joins:
                move = min(joins, key=lambda mv: _join_key(mono, mv))
                stack.extend(_apply_join(mono, coeff, move))
                continue
            # directed loop: shrink it through its smallest 2-chain
            chain = min(((p, q) for p in cycle for q in cycle
                         if p != q and mono[p].j == mono[q].i),
                        key=lambda pq: (mono[pq[0]], mono[pq[1]]))
            stack.extend(_apply_chain_unprune(mono, coeff, *chain))
            continue
        joins = _find_joins(mono)
        if not joins:
            _combine(result, WedgeMonomial(mono), coeff)
            continue
        if strategy is None:
            move = min(joins, key=lambda mv: _join_key(mono, mv))
        else:
            move = strategy(mono, joins)
        stack.extend(_apply_join(mono, coeff, move))
    return result


# ---------------------------------------------------------------------------
# lex Groebner rewriting (Up-Down basis)
# ---------------------------------------------------------------------------


def _lex_rewrite(a: Generator, b: Generator):
    """Rewrite data for the unordered factor pair {a, b}, or None if legal.

    Returns [] when the pair is zero, else (lhs written order, replacement
    pairs with coefficients).  The rules have pairwise distinct maximal terms
    and every replacement is lexicographically smaller.
    """
    if (a.j, a.i) == tuple(b):
        return []
    verts = sorted({a.i, a.j, b.i, b.j})
    if len(verts) != 3:
        return None
    i, j, k = verts
    G = Generator
    table = {
        frozenset({G(i, k), G(j, k)}): (
            (G(i, k), G(j, k)),
            [((G(i, j), G(j, k)), 1), ((G(j, i), G(i, k)), -1)]),
        frozenset({G(k, j), G(j, i)}): (
            (G(k, j), G(j, i)),
            [((G(j, i), G(i, k)), 1), ((G(j, i), G(j, k)), -1),
             ((G(j, i), G(k, i)), -1)]),
        frozenset({G(k, i), G(k, j)}): (
            (G(k, i), G(k, j)),
            [((G(k, i), G(i, j)), 1), ((G(j, i), G(i, k)), -1),
             ((G(j, i), G(j, k)), 1), ((G(j, i), G(k, i)), 1)]),
        frozenset({G(i, k), G(k, j)}): (
            (G(i, k), G(k, j)),
            [((G(i, j), G(j, k)), 1), ((G(i, j), G(i, k)), -1)]),
        frozenset({G(j, k), G(k, i)}): (
            (G(j, k), G(k, i)),
            [((G(j, i), G(i, k)), 1), ((G(j, i), G(j, k)), -1)]),
        frozenset({G(i, j), G(k, j)}): (
            (G(i, j), G(k, j)),
            [((G(i, j), G(j, k)), 1), ((G(i, j), G(i, k)), -1),
             ((G(k, i), G(i, j)), -1)]),
    }
    return table.get(frozenset({a, b}))


def lex_normal_form(m) -> WedgeElement:
    """Unique expression of a wedge element in the Up-Down forest basis."""
    stack: list[tuple[Edges, Fraction]] = []
    if isinstance(m, WedgeMonomial):
        stack.append((m.edges, Fraction(1)))
    elif isinstance(m, Mapping):
        for mono, c in m.items():
            stack.append((mono.edges, Fraction(c)))
    else:
        mono, sign = _canonical(m)
        if mono is None:
            return {}
        stack.append((mono, Fraction(sign)))

    result: WedgeElement = {}
    guard = 0
    while stack:
        guard += 1
        if guard > 5_000_000:
            raise RuntimeError("lex rewriting did not terminate")
        raw, coeff = stack.pop()
        mono, sign = _canonical(raw)
        if mono is None:
            continue
        coeff = coeff * sign
        hit = None
        for p in range(len(mono)):
            for q in range(p + 1, len(mono)):
                rw = _lex_rewrite(mono[p], mono[q])
                if rw is not None:
                    hit = (p, q, rw)
                    break
            if hit:
                break
        if hit is None:
            _combine(result, WedgeMonomial(mono), coeff)
            continue
        p, q, rw = hit
        if rw == []:
            continue
        lhs_order, rhs = rw
        rest = tuple(mono[t] for t in range(len(mono)) if t != p and t != q)
        s = _extract_sign(mono, p, q) * coeff
        if (mono[p], mono[q]) != lhs_order:
            s = -s
        for pair, pc in rhs:
            stack.append((pair + rest, s * pc))
    return result


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def set_partitions(items: Sequence[int], blocks: int | None = None
                   ) -> Iterator[list[list[int]]]:
    """All unordered partitions of `items` (optionally into `blocks` parts)."""
    items = list(items)
    if not items:
        if blocks in (None, 0):
            yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        if blocks is None or len(part) + 1 == blocks:
            yield [[first]] + part
        if blocks is None or len(part) == blocks:
            for t in range(len(part)):
                yield part[:t] + [[first] + part[t]] + part[t + 1:]


def enumerate_chain_gangs(n: int, k: int) -> list[WedgeMonomial]:
    """One canonical monomial per partition of [n] into (n-k) ordered subsets."""
    out = set()
    for part in set_partitions(list(range(1, n + 1)), n - k):
        options = [list(itertools.permutations(block)) for block in part]
        for combo in itertools.product(*options):
            edges = []
            for chain in combo:
                edges.extend(Generator(chain[t], chain[t + 1])
                             for t in range(len(chain) - 1))
            mono, _ = WedgeMonomial.from_factors(edges)
            out.add(mono)
    return sorted(out)


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
        n = sum(len(c) for c in self.cycles)
        return n - len(self.groups)

    def monomial(self) -> WedgeMonomial:
        edges = []
        for cyc in self.cycles:
            edges.extend(_up_tree_edges(cyc))
        for g in self.groups:
            m = min(g)
            edges.extend(Generator(x, m) for x in sorted(g) if x != m)
        mono, _ = WedgeMonomial.from_factors(edges)
        assert mono is not None  # distinct blocks give distinct edges
        return mono


def _up_tree_edges(cycle: tuple[int, ...]) -> list[Generator]:
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


def ordered_two_step_partitions(n: int, edges: int | None = None
                                ) -> Iterator[OrderedTwoStepPartition]:
    for part in set_partitions(list(range(1, n + 1))):
        cycle_options = []
        for block in part:
            b = sorted(block)
            cycle_options.append([(b[0],) + perm
                                  for perm in itertools.permutations(b[1:])])
        for cycles in itertools.product(*cycle_options):
            minima = [c[0] for c in cycles]
            for mpart in set_partitions(sorted(minima)):
                p = OrderedTwoStepPartition(
                    cycles=tuple(sorted(cycles)),
                    groups=tuple(sorted(tuple(sorted(g)) for g in mpart)))
                if edges is None or p.edge_count == edges:
                    yield p


def enumerate_updown(n: int, k: int) -> list[WedgeMonomial]:
    """Up-Down forest monomials with k edges (ordered 2-step partitions)."""
    return sorted({p.monomial() for p in ordered_two_step_partitions(n, k)})


def enumerate_down(n: int, k: int) -> list[WedgeMonomial]:
    """Down forests with k edges: one tuft per block of a set partition."""
    out = []
    for part in set_partitions(list(range(1, n + 1)), n - k):
        edges = []
        for block in part:
            m = min(block)
            edges.extend(Generator(x, m) for x in sorted(block) if x != m)
        mono, _ = WedgeMonomial.from_factors(edges)
        out.append(mono)
    return sorted(out)


def enumerate_up(n: int, k: int) -> list[WedgeMonomial]:
    """Up forests with k edges: Up trees on cyclically ordered blocks."""
    out = set()
    for part in set_partitions(list(range(1, n + 1)), n - k):
        cycle_options = []
        for block in part:
            b = sorted(block)
            cycle_options.append([(b[0],) + perm
                                  for perm in itertools.permutations(b[1:])])
        for cycles in itertools.product(*cycle_options):
            edges = []
            for cyc in cycles:
                edges.extend(_up_tree_edges(cyc))
            mono, _ = WedgeMonomial.from_factors(edges)
            out.add(mono)
    return sorted(out)


# ---------------------------------------------------------------------------
# Lah / Stirling numbers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def lah(n: int, k: int) -> int:
    """Partitions of [n] into k ordered subsets."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if n == 0 or k == 0:
        return 1 if n == k else 0
    return lah(n - 1, k - 1) + (n + k - 1) * lah(n - 1, k)


@lru_cache(maxsize=None)
def stirling1(n: int, k: int) -> int:
    """Unsigned Stirling numbers of the first kind (cycle counts)."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if n == 0 or k == 0:
        return 1 if n == k else 0
    return stirling1(n - 1, k - 1) + (n - 1) * stirling1(n - 1, k)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind (set-partition counts)."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if n == 0 or k == 0:
        return 1 if n == k else 0
    return stirling2(n - 1, k - 1) + k * stirling2(n - 1, k)


def lah_by_enumeration(n: int, k: int) -> int:
    """Brute-force Lah count: set partitions weighted by block orderings."""
    if n == 0 or k == 0:
        return 1 if n == k else 0
    total = 0
    for part in set_partitions(list(range(1, n + 1)), k):
        w = 1
        for block in part:
            w *= math.factorial(len(block))
        total += w
    return total


# ---------------------------------------------------------------------------
# randomized material for the property checks
# ---------------------------------------------------------------------------


def random_loopfree_monomial(rng: random.Random, n: int,
                             k: int | None = None) -> WedgeMonomial:
    """A uniformly sloppy random forest monomial on [n] with k edges."""
    if k is None:
        k = rng.randint(1, n - 1)
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges: list[Generator] = []
    while len(edges) < k:
        a, b = rng.sample(range(1, n + 1), 2)
        if find(a) != find(b):
            parent[find(a)] = find(b)
            edges.append(Generator(a, b))
    mono, _ = WedgeMonomial.from_factors(edges)
    assert mono is not None
    return mono


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
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parent[find(j)] = find(i)
    parent[find(k)] = find(i)
    extra = rng.randint(0, max(0, n - 3))
    added = 0
    attempts = 0
    while added < extra and attempts < 50:
        attempts += 1
        a, b = rng.sample(range(1, n + 1), 2)
        if find(a) == find(b):
            continue  # would close a loop in every term
        parent[find(a)] = find(b)
        e = G(a, b)
        join.append(e)
        for o in others:
            o.append(e)
        added += 1
    return Forest(n, join), [Forest(n, o) for o in others]


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

#: The three overlapping-join monomial shapes, on indices (i, j, k, l).
OVERLAP_CASES = {
    "X": lambda i, j, k, l: (Generator(i, j), Generator(i, k), Generator(i, l)),
    "Y": lambda i, j, k, l: (Generator(i, l), Generator(j, l), Generator(k, l)),
    "Z": lambda i, j, k, l: (Generator(i, j), Generator(k, j), Generator(k, l)),
}


def _one_step_then_normalize(mono: Edges, move) -> WedgeElement:
    out: WedgeElement = {}
    for raw, c in _apply_join(mono, Fraction(1), move):
        for mm, cc in prune_normal_form(raw).items():
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
        mono = build(1, 2, 3, 4)
        reference = prune_normal_form(mono)
        ok = True
        for move in _find_joins(mono):
            if _one_step_then_normalize(mono, move) != reference:
                ok = False
                payload["case_failures"][name] = str(move)
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
    return tuple(Generator(env[a], env[b])
                 for a, b in (bit for bit in pattern.split(",")))


def coproduct_table_check(n: int) -> VerificationReport:
    """Verify the 14 dual-product formulas by reduction, on every 4-tuple."""
    if n < 4:
        raise ValueError("co-product table needs n >= 4")
    failures = []
    instances = 0
    for (i, j, k, l) in itertools.permutations(range(1, n + 1), 4):
        env = {"i": i, "j": j, "k": k, "l": l}
        for shape, tensor, rhs in _COPRODUCT_ROWS:
            if shape == "chain":
                left = (Generator(i, j), Generator(j, k))
            else:
                left = (Generator(i, j), Generator(k, l))
            g = Generator(env[tensor[0]], env[tensor[1]])
            got = prune_normal_form(left + (g,))
            want: WedgeElement = {}
            for pattern, c in rhs:
                mono, sign = WedgeMonomial.from_factors(
                    _edges_from_pattern(pattern, env))
                _combine(want, mono, Fraction(c * sign))
            instances += 1
            if got != want:
                failures.append({"tuple": (i, j, k, l), "shape": shape,
                                 "tensor": tensor})
    return VerificationReport(
        check="coproduct-table",
        params={"n": n, "formulas": len(_COPRODUCT_ROWS)},
        expected={"failures": 0},
        actual={"failures": len(failures)},
        payload={"instances": instances, "failing": failures},
    )
