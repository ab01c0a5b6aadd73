"""Exact linear algebra over the rationals.

The base field is fixed to Q: every entry is a ``fractions.Fraction``
(arbitrary precision, always reduced to lowest terms with a positive
denominator), so identities either hold exactly or fail exactly.  Nothing
in this module rounds.

All elimination goes through one sparse routine, ``_echelon``, which
returns the canonical reduced row-echelon form.  That form is unique, so
reduced forms, kernel bases, particular solutions and inverses are fixed
by the matrix alone -- not by row order or pivot choice -- and are
reproducible down to the byte across runs and platforms.  Each row is made
a primitive int row once, on entry (``_integer_row``, which refuses an
inexact entry), reduced by cross-multiplication and returned as ints.  The
callers read a matrix by its ``nonzero_rows`` (a ``SparseMat``, the form of
the constraint and coboundary rows, holds nothing else) and build a
``Fraction`` only for an entry they return.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Scalar = Fraction
Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_INEXACT = "not an exact scalar (int, Fraction or str): {!r}"


def _exact(x) -> Fraction:
    """x as a Fraction: an int, a Fraction or a str; any other number may be rounded."""
    if type(x) is Fraction:  # already exact and reduced: kept, not rebuilt
        return x
    if isinstance(x, (int, Fraction, str)):
        return Fraction(x)
    raise TypeError(_INEXACT.format(x))


def vec(values: Iterable) -> Vec:
    """Coerce an iterable of ints/strings/Fractions into a Vec."""
    return tuple(_exact(v) for v in values)


@functools.lru_cache(maxsize=128)
def zero_vec(n: int) -> Vec:
    """The zero Vec of length n; one shared tuple per length while it is cached."""
    return (_ZERO,) * n


def vec_add(u: Vec, *vs: Vec) -> Vec:
    # pairwise, not sum(): sum() starts from int 0, one more Fraction addition per entry
    for v in vs:
        u = tuple(a + b for a, b in zip(u, v))
    return u


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(s: Fraction, v: Vec) -> Vec:
    return tuple(s * a for a in v)


def is_zero_vec(v: Vec) -> bool:
    return not any(v)


@dataclass(frozen=True)
class Mat:
    """Immutable dense matrix of Fractions, row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix shape")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Mat":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        flat = tuple(_exact(x) for r in rows for x in r)
        return cls(len(rows), ncols, flat)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence], rows: int) -> "Mat":
        cols = [list(c) for c in cols]
        for c in cols:
            if len(c) != rows:
                raise ValueError("ragged columns")
        flat = tuple(_exact(cols[j][i]) for i in range(rows) for j in range(len(cols)))
        return cls(rows, len(cols), flat)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls(rows, cols, (_ZERO,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls(n, n, tuple(
            _ONE if i == j else _ZERO for i in range(n) for j in range(n)
        ))

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vec:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    @property
    def nonzero_rows(self) -> tuple:
        """The nonzeros by row: [r] = ((col, entry), ...), col ascending."""
        return tuple(tuple((k, x) for k, x in enumerate(self.row(r)) if x)
                     for r in range(self.rows))

    def col(self, j: int) -> Vec:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def _check_shape(self, other: "Mat"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other: "Mat") -> "Mat":
        self._check_shape(other)
        return Mat(self.rows, self.cols,
                   tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_shape(other)
        return Mat(self.rows, self.cols,
                   tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, tuple(-a for a in self.entries))

    def __rmul__(self, s) -> "Mat":
        s = _exact(s)
        return Mat(self.rows, self.cols, tuple(s * a for a in self.entries))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        n, k, m = self.rows, self.cols, other.cols
        out = [_ZERO] * (n * m)
        for i in range(n):
            base = i * k
            for l in range(k):
                a = self.entries[base + l]
                if not a:
                    continue
                obase = l * m
                rbase = i * m
                for j in range(m):
                    b = other.entries[obase + j]
                    if b:
                        out[rbase + j] += a * b
        return Mat(n, m, tuple(out))

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise ValueError(f"cannot apply {self.shape} to vector of length {len(v)}")
        out = [_ZERO] * self.rows
        for j, x in enumerate(v):
            if not x:
                continue
            for i in range(self.rows):
                e = self.entries[i * self.cols + j]
                if e:
                    out[i] += e * x
        return tuple(out)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)


@dataclass(frozen=True)
class SparseMat:
    """Immutable sparse matrix of Fractions or ints (the CC1-CC3 rows), held as
    its ``nonzero_rows`` (as ``Mat.nonzero_rows`` reads them), every col below ``cols``."""

    cols: int
    nonzero_rows: tuple

    @property
    def rows(self) -> int:
        return len(self.nonzero_rows)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The dense row-major entries, as ``Mat.entries``."""
        out = [_ZERO] * (self.rows * self.cols)
        for r, row in enumerate(self.nonzero_rows):
            for k, x in row:
                out[r * self.cols + k] = x
        return tuple(out)

    def transpose(self) -> "SparseMat":
        cols = [[] for _ in range(self.cols)]
        for r, row in enumerate(self.nonzero_rows):
            for k, x in row:
                cols[k].append((r, x))
        return SparseMat(self.rows, tuple(map(tuple, cols)))


@dataclass(frozen=True)
class RrefResult:
    reduced: Mat
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """row divided by the gcd of its entries; an empty row stays empty."""
    g = math.gcd(*row.values())
    return row if g <= 1 else {k: x // g for k, x in row.items()}


def _common_denominator(values) -> int:
    """The lcm of the denominators of ints and Fractions (1 for none); any other value
    (a float, Decimal, complex, ...) raises TypeError naming it, as _exact refuses it."""
    try:
        return math.lcm(*{x.denominator for x in values})
    except AttributeError as error:
        if error.name != "denominator":
            raise
        raise TypeError(_INEXACT.format(error.obj)) from None


def _integer_row(row) -> dict[int, int]:
    """The primitive int row proportional to a row ({col: int or Fraction} or its pairs)."""
    row = dict(row)
    d = _common_denominator(row.values())
    return _primitive({k: x.numerator * (d // x.denominator) for k, x in row.items()})


def _eliminate(row: dict[int, int], prow: dict[int, int], k: int) -> dict[int, int]:
    """The primitive multiple of row - (row[k] / prow[k]) * prow, which is 0 at k.

    Cross-multiplied: (p/g) * row - (r/g) * prow with g = gcd(p, r), so
    every entry stays an int; row may be changed in place."""
    p, r = prow[k], row[k]
    g = math.gcd(p, r)
    a, b = p // g, r // g
    if a != 1:
        row = {j: a * x for j, x in row.items()}
    for j, x in prow.items():
        y = row.get(j, 0) - b * x
        if y:
            row[j] = y
        else:
            del row[j]
    return _primitive(row)


def _echelon(rows) -> dict[int, dict[int, int]]:
    """Canonical RREF of sparse rows ({col: entry} or its pairs) as {pivot col:
    primitive int row}; entry k of the canonical row is row[k] / row[pc].

    Fraction-free (Bareiss 1968).  Sparsest first, each row is made a
    primitive int row when it is reached (``_integer_row``) and reduced by
    the pivots found so far until its leading column is new, and kept.
    Last, each pivot row is cleared by the pivots to its right, last pivot
    first.  Every row is a nonzero multiple of the one that dividing by each
    lead in ``Fraction``s gives at the same step, so leads and pivots come
    out the same.  Row order changes the work, never the result."""
    echelon: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        row = _integer_row(row)
        while row:
            lead = min(row)
            prow = echelon.get(lead)
            if prow is None:
                echelon[lead] = row
                break
            row = _eliminate(row, prow, lead)
    for pc in sorted(echelon, reverse=True):
        row = echelon[pc]
        for k in [k for k in row if k > pc and k in echelon]:
            row = _eliminate(row, echelon[k], k)
        echelon[pc] = row
    return echelon


def rref(m: Mat | SparseMat) -> RrefResult:
    """Canonical reduced row-echelon form of ``m``: pivot entries 1, zeros
    above and below each pivot, zero rows last."""
    echelon = _echelon(m.nonzero_rows)
    entries = [_ZERO] * (m.rows * m.cols)
    for r, (pc, row) in enumerate(sorted(echelon.items())):
        for k, x in row.items():
            entries[r * m.cols + k] = Fraction(x, row[pc])
    return RrefResult(Mat(m.rows, m.cols, tuple(entries)), tuple(sorted(echelon)))


def image_rank(m: Mat | SparseMat) -> int:
    return rref(m).rank


def kernel_basis(m: Mat | SparseMat) -> list[Vec]:
    """Basis of the null space {v : m v = 0}, one vector per free column fc in
    order: 1 at fc, minus column fc of the canonical RREF at the pivots (one pass)."""
    echelon = _echelon(m.nonzero_rows)
    basis = {fc: [_ZERO] * fc + [_ONE] + [_ZERO] * (m.cols - fc - 1)
             for fc in range(m.cols) if fc not in echelon}
    for pc, row in echelon.items():
        for k in row.keys() - {pc}:  # free columns: the pivots to the right are cleared
            basis[k][pc] = Fraction(-row[k], row[pc])
    return list(map(tuple, basis.values()))


def solve(m: Mat | SparseMat, b: Vec) -> Vec | None:
    """One exact solution of m x = b (free variables set to 0), or None.

    None exactly when the system is inconsistent; b is column m.cols."""
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != row count {m.rows}")
    echelon = _echelon([row + ((m.cols, x),) if x else row for row, x in zip(m.nonzero_rows, b)])
    if m.cols in echelon:
        return None
    x = [_ZERO] * m.cols
    for pc, row in echelon.items():
        x[pc] = Fraction(row.get(m.cols, 0), row[pc])
    return tuple(x)


def inverse(m: Mat | SparseMat) -> Mat:
    """Exact inverse of a square matrix (the identity is columns n..2n-1);
    raises ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    echelon = _echelon([row + ((n + i, 1),) for i, row in enumerate(m.nonzero_rows)])
    if any(i not in echelon for i in range(n)):
        raise ValueError("matrix is singular")
    return Mat(n, n, tuple(Fraction(echelon[i].get(n + j, 0), echelon[i][i])
                           for i in range(n) for j in range(n)))
