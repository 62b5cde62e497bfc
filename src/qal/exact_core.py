"""Exact rational arithmetic in a free algebra, plus sparse linear algebra.

Everything here is exact: `FreeElement` coefficients are `fractions.Fraction`,
elimination is fraction-free (integer rows kept primitive), and all orderings
are canonical so that results are reproducible byte-for-byte.  Internal
coefficients go through `_exact`, which keeps an integral value a plain `int`
(so most rows are built, hashed and multiplied as ints) and any other value an
exact `Fraction`.

The free algebra is generated by indexed symbols r_ij (i != j); a word is a
tuple of generators and an element is a finite rational combination of words.
`_SparseTerms` is the sparse container behind `FreeElement` and the
relator-module `pvh_checker.SyzygyElement`: terms, equality, hashing, the
ambient check, sums and scalar multiples are written once there.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple


class AmbientMismatchError(ValueError):
    """Raised when combining elements over different ambient index sets."""


class Generator(NamedTuple):
    """An indexed generator r_ij with i != j (1-based vertex indices)."""

    i: int
    j: int

    def token(self) -> str:
        return f"r{self.i}_{self.j}"

    def __repr__(self) -> str:
        return self.token()


def gen(i: int, j: int, n: int | None = None) -> Generator:
    """Validated Generator constructor."""
    if i == j:
        raise ValueError(f"generator indices must differ, got ({i}, {j})")
    if i < 1 or j < 1:
        raise ValueError(f"generator indices are 1-based, got ({i}, {j})")
    if n is not None and (i > n or j > n):
        raise ValueError(f"generator ({i}, {j}) out of range for n={n}")
    return Generator(i, j)


#: How `json_field` names a JSON type, alone and as list items.
_JSON_NAMES = {int: ("an integer", "integers"), str: ("a string", "strings"),
               list: ("a list", "lists"), Mapping: ("an object", "objects")}


def json_field(data, key: str, kind: type | tuple[type, ...],
               item: type | None = None):
    """data[key], checked to be of type `kind` (a list of `item`s if given).

    A non-object `data`, a missing key or a value of another type (bool is
    not an integer) raises ValueError naming the field.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    value = data[key]

    def fits(v, t):
        return isinstance(v, t) and not isinstance(v, bool)

    if not fits(value, kind) or (item is not None and
                                 not all(fits(v, item) for v in value)):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        what = " or ".join(_JSON_NAMES[t][0] for t in kinds)
        if item is not None:
            what += f" of {_JSON_NAMES[item][1]}"
        raise ValueError(f"field {key!r} must be {what}, got {value!r}")
    return value


def parse_token(tok: str) -> Generator:
    """Parse an "r{i}_{j}" token; i and j are ASCII decimal digits only."""
    match = re.fullmatch(r"r([0-9]+)_([0-9]+)", tok)
    if match is None:
        raise ValueError(f"bad generator token {tok!r}")
    return gen(int(match[1]), int(match[2]))


def sorting_sign(items: Sequence) -> int:
    """Sign (+1 or -1) of the permutation that sorts distinct `items`."""
    inversions = sum(x > y for x, y in itertools.combinations(items, 2))
    return -1 if inversions % 2 else 1


#: A word is a tuple of generators; the empty word is the unit.
Word = tuple[Generator, ...]


def word_key(w: Sequence) -> tuple:
    """Canonical term order: degree first, then lex on index pairs."""
    return (len(w), tuple(w))


def all_generators(n: int) -> list[Generator]:
    """All n(n-1) generators r_ij, i != j, in canonical (i, j) order."""
    return [Generator(i, j) for i, j in itertools.permutations(range(1, n + 1), 2)]


class _SparseTerms:
    """An immutable sparse combination of keys over the ambient [n]: a
    subclass's `__init__` stores the nonzero terms in canonical key order,
    and its `_scalar` coerces the factor of a scalar multiple."""

    __slots__ = ("n", "_terms")
    _scalar = staticmethod(Fraction)

    def terms(self) -> dict:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self.n == other.n and self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._terms.items())))

    def _check(self, other: "_SparseTerms"):
        if self.n != other.n:
            raise AmbientMismatchError(
                f"ambient mismatch: n={self.n} vs n={other.n}")

    def _combine(self, other: "_SparseTerms", sign: int):
        self._check(other)
        d = dict(self._terms)
        for k, c in other._terms.items():
            d[k] = d.get(k, 0) + sign * c
        return type(self)(self.n, d)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return type(self)(self.n, {k: -c for k, c in self._terms.items()})

    def __mul__(self, scalar):
        c = self._scalar(scalar)
        return type(self)(self.n, {k: c * v for k, v in self._terms.items()})

    __rmul__ = __mul__


class FreeElement(_SparseTerms):
    """Sparse rational combination of words in the free algebra on [n].

    Immutable; no zero coefficients are stored; iteration over terms is in
    canonical word order.
    """

    __slots__ = ()

    def __init__(self, n: int, terms: Mapping[Word, Fraction] | Iterable = ()):
        self.n = n
        d: dict[Word, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for w, c in items:
            w = tuple(Generator(*g) for g in w)
            c = Fraction(c)
            if c:
                c0 = d.get(w)
                c = c if c0 is None else c0 + c
                if c:
                    d[w] = c
                elif w in d:
                    del d[w]
        for w in d:
            for g in w:
                if g.i == g.j or not (1 <= g.i <= n and 1 <= g.j <= n):
                    raise ValueError(f"generator {g} invalid for n={n}")
        self._terms = {w: d[w] for w in sorted(d, key=word_key)}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "FreeElement":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "FreeElement":
        return cls(n, {(): Fraction(1)})

    @classmethod
    def generator(cls, n: int, i: int, j: int) -> "FreeElement":
        return cls(n, {(gen(i, j, n),): Fraction(1)})

    @classmethod
    def monomial(cls, n: int, word: Iterable, coeff=1) -> "FreeElement":
        return cls(n, {tuple(Generator(*g) for g in word): Fraction(coeff)})

    def coeff(self, word) -> Fraction:
        return self._terms.get(tuple(Generator(*g) for g in word), Fraction(0))

    # -- algebra -----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, FreeElement):
            return super().__mul__(other)
        self._check(other)
        d: dict[Word, Fraction] = {}
        for wa, ca in self._terms.items():
            for wb, cb in other._terms.items():
                w = wa + wb
                d[w] = d.get(w, Fraction(0)) + ca * cb
        return FreeElement(self.n, d)

    # -- grading -----------------------------------------------------------

    def degree(self) -> int:
        """Top degree; -1 for the zero element."""
        return max((len(w) for w in self._terms), default=-1)

    def is_homogeneous(self, d: int | None = None) -> bool:
        degs = {len(w) for w in self._terms}
        if d is None:
            return len(degs) <= 1
        return degs <= {d}

    def homogeneous_part(self, d: int) -> "FreeElement":
        return FreeElement(
            self.n, {w: c for w, c in self._terms.items() if len(w) == d})

    def truncate(self, max_degree: int) -> "FreeElement":
        return FreeElement(
            self.n, {w: c for w, c in self._terms.items() if len(w) <= max_degree})

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "terms": [
                {"word": [g.token() for g in w], "coeff": str(c)}
                for w, c in self._terms.items()
            ]
        }

    @classmethod
    def from_json(cls, n: int, data: Mapping) -> "FreeElement":
        """Inverse of `to_json`; a coefficient is an integer or a string
        such as "-9/2" (a JSON float is not exact and is refused)."""
        terms = {}
        for t in json_field(data, "terms", list, Mapping):
            w = tuple(parse_token(tok)
                      for tok in json_field(t, "word", list, str))
            coeff = json_field(t, "coeff", (int, str))
            try:
                c = Fraction(coeff)
            except (ValueError, OverflowError, ZeroDivisionError):
                raise ValueError(f"field 'coeff' is not a rational number, "
                                 f"got {coeff!r}") from None
            terms[w] = terms.get(w, Fraction(0)) + c
        return cls(n, terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for w, c in self._terms.items():
            word = "*".join(g.token() for g in w) if w else "1"
            bits.append(f"{c}*{word}" if c != 1 or not w else word)
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# sparse exact linear algebra
# ---------------------------------------------------------------------------


def _strip_content(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _eliminate(row: dict[int, int], p: dict[int, int], c: int
               ) -> dict[int, int]:
    """Row minus the multiple of pivot row p that clears column c.

    When p[c] divides row[c] the step subtracts the exact quotient times p;
    otherwise the row is scaled by p[c] first.  The row is updated in place
    unless it was scaled.
    """
    a, b = p[c], row[c]
    if b % a:
        row = {col: a * v for col, v in row.items()}
    else:
        b //= a
    for col, v in p.items():
        w = row.get(col, 0) - b * v
        if w:
            row[col] = w
        else:
            del row[col]
    return row


class _Echelon:
    """Incremental sparse echelon form with fraction-free integer rows.

    Rows are primitive integer vectors keyed by column index; each stored row
    is pivoted at its smallest column, so the pivot column set is exactly the
    set of leading columns of the row space under the canonical column order.

    The nonzero `rows` given at construction are inserted leading column
    descending, shortest row first: most then enter as new pivots, with
    little reduction and fill-in.  Pivot set, rank and back-reduced rows do
    not depend on the insertion order.
    """

    def __init__(self, rows: Iterable[dict[int, int]] = ()):
        self.pivots: dict[int, dict[int, int]] = {}
        for row in sorted(rows, key=lambda row: (-min(row), len(row))):
            self.insert(row)

    def reduce(self, row: dict[int, int]) -> tuple[dict[int, int], int | None]:
        """Fully reduce leading entries; return (residual, pivot column).

        When the pivot divides the leading entry, the step subtracts the
        exact quotient times the pivot row; otherwise the row is scaled by
        the pivot first.  Either way the residual is a nonzero multiple of
        the scale-always result, so pivots and spans do not depend on it.
        """
        row = dict(row)
        while row:
            c = min(row)
            p = self.pivots.get(c)
            if p is None:
                return row, c
            row = _eliminate(row, p, c)
        return row, None

    def insert(self, row: dict[int, int]) -> int | None:
        """Insert a row; return its pivot column, or None if dependent."""
        red, c = self.reduce(row)
        if c is not None:
            self.pivots[c] = _strip_content(red)
        return c

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def back_reduce(self) -> None:
        """Clear every pivot column from the other rows, in place.

        Rows are reduced largest pivot first, so each row subtracted is
        already reduced and a step only adds entries in non-pivot columns.
        Rows stay primitive integer vectors, each with a positive pivot entry.
        """
        pivots = self.pivots
        for pc in sorted(pivots, reverse=True):
            row = pivots[pc]
            for c in [c for c in row if c != pc and c in pivots]:
                row = _eliminate(row, pivots[c], c)
            row = _strip_content(row)
            if row[pc] < 0:
                row = {col: -v for col, v in row.items()}
            pivots[pc] = row


def _primitive(row: dict) -> dict:
    """An integer row divided by its content, its first entry made positive."""
    row = _strip_content(row)
    if next(iter(row.values())) < 0:
        row = {k: -v for k, v in row.items()}
    return row


def _exact(c):
    """c as an `int` when it is integral, else as an exact `Fraction`."""
    if type(c) is int:
        return c
    if not isinstance(c, Fraction):
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _int_row(vec, label_index=None) -> tuple[int, dict]:
    """Scale a sparse rational vector to integers; return (denominator, row).

    The row is keyed by `label_index[label]`, or by the label itself when
    no index is given.  Integral entries pass through as ints.
    """
    items = vec.items() if isinstance(vec, Mapping) else vec
    den = 1
    row = {}
    for lab, c in items:
        c = _exact(c)
        if c:
            row[lab if label_index is None else label_index[lab]] = c
            if type(c) is not int:
                den = lcm(den, c.denominator)
    if den > 1:
        row = {t: c.numerator * (den // c.denominator) for t, c in row.items()}
    return den, row


class SparseMatrix:
    """A sparse rational matrix with explicit column labels.

    Stored row-major: each row is a sparse vector keyed by column label.
    Column order is canonical (sorted labels) unless given explicitly, and
    fixes the pivot order for all eliminations.
    """

    def __init__(self, rows: Iterable[Mapping], columns: Sequence | None = None):
        self.rows = [dict(r) for r in rows]
        if columns is None:
            columns = sorted({lab for r in self.rows for lab in r})
        self.columns = list(columns)
        self._index = {lab: t for t, lab in enumerate(self.columns)}
        self._echelon: _Echelon | None = None

    @classmethod
    def from_columns(cls, cols: Mapping) -> "SparseMatrix":
        """Build from a mapping column-label -> sparse column vector.

        Rows of the result are the equation index set (union of the column
        vectors' keys); nullspace of the result is taken in column coordinates.
        """
        columns = sorted(cols)
        row_labels = sorted({r for v in cols.values() for r in v})
        rows: dict = {lab: {} for lab in row_labels}
        for clab in columns:
            for rlab, v in cols[clab].items():
                if v:
                    rows[rlab][clab] = v
        return cls([rows[lab] for lab in row_labels], columns=columns)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.columns))

    def _ensure_echelon(self) -> _Echelon:
        if self._echelon is None:
            rows = (_int_row(row, self._index)[1] for row in self.rows)
            self._echelon = _Echelon(row for row in rows if row)
        return self._echelon

    def rank(self) -> int:
        return self._ensure_echelon().rank

    def nullspace(self) -> list[dict]:
        """Canonical basis of {x : Mx = 0}, x keyed by column labels.

        Read off a back-reduced copy of the cached echelon, whose pivot rows
        p_c e_c + ... hold no other pivot column: for a free column f,
        x_f = L and x_c = -v L / p_c for each row with entry v at f, where
        L is the lcm of those p_c.
        Vectors are primitive integer-scaled, leading (canonical-first)
        nonzero coordinate positive, sorted by their defining free column.
        """
        ech = _Echelon()
        ech.pivots = {pc: dict(row)
                      for pc, row in self._ensure_echelon().pivots.items()}
        ech.back_reduce()
        # free column -> (pivot column, pivot entry, entry) of each row at it
        at_free: dict[int, list[tuple[int, int, int]]] = {}
        for pc, row in ech.pivots.items():
            for f, v in row.items():
                if f != pc:
                    at_free.setdefault(f, []).append((pc, row[pc], v))
        kernel = []
        for f in range(len(self.columns)):
            if f in ech.pivots:
                continue
            terms = at_free.get(f, [])
            den = lcm(*(p for _, p, _ in terms))
            x = {pc: -v * (den // p) for pc, p, v in terms}
            x[f] = den
            x = _primitive(dict(sorted(x.items())))
            kernel.append({self.columns[c]: Fraction(v) for c, v in x.items()})
        return kernel

    def in_row_span(self, vec: Mapping) -> bool:
        """Whether vec lies in the row space (exact reduction test)."""
        for lab, c in vec.items():
            if _exact(c) and lab not in self._index:
                return False
        ech = self._ensure_echelon()
        _, pivot = ech.reduce(_int_row(vec, self._index)[1])
        return pivot is None


def span_membership(v: Mapping, basis: Sequence[Mapping]):
    """Decompose v over basis; return list of Fractions, or None if not in span.

    The returned coefficients satisfy v == sum(coeffs[t] * basis[t]) exactly.
    For a linearly independent basis the decomposition is unique.
    """
    labels = sorted({lab for b in basis for lab in b} | set(v))
    index = {lab: t for t, lab in enumerate(labels)}
    nv = len(labels)
    # Tracking columns sit after all value columns so they never pivot ahead
    # of them; each row's tracking entry carries the denominator that scaled
    # it to integers, so the combination is recorded against the original
    # rational vectors.  A row whose value part vanished records a dependency.
    ech = _Echelon()
    for t, b in enumerate(basis):
        den, row = _int_row(b, index)
        row[nv + 1 + t] = den
        ech.insert(row)
    den_v, vrow = _int_row(v, index)
    vrow[nv] = den_v
    red, _ = ech.reduce(vrow)
    if any(c < nv for c in red):
        return None
    alpha = red.get(nv, 0)
    if alpha == 0:
        raise RuntimeError("tracking column lost")  # pragma: no cover
    return [Fraction(-red.get(nv + 1 + t, 0), alpha) for t in range(len(basis))]
