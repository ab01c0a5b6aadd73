"""Exact linear algebra over the rationals.

The base field is fixed to Q: every entry is a ``fractions.Fraction``
(arbitrary precision, always reduced to lowest terms with a positive
denominator), so identities either hold exactly or fail exactly.  Nothing
in this module rounds.

Elimination uses one fixed pivot rule -- the first row carrying a nonzero
entry in the leftmost unprocessed column, rows scanned in order -- so
reduced forms, kernel bases and particular solutions are reproducible
down to the byte across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Scalar = Fraction
Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def vec(values: Iterable) -> Vec:
    """Coerce an iterable of ints/strings/Fractions into a Vec."""
    return tuple(Fraction(v) for v in values)


def zero_vec(n: int) -> Vec:
    return (_ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


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
        flat = tuple(Fraction(x) for r in rows for x in r)
        return cls(len(rows), ncols, flat)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence], rows: int | None = None) -> "Mat":
        cols = [list(c) for c in cols]
        if rows is None:
            if not cols:
                raise ValueError("from_cols with no columns needs explicit row count")
            rows = len(cols[0])
        for c in cols:
            if len(c) != rows:
                raise ValueError("ragged columns")
        flat = tuple(Fraction(cols[j][i]) for i in range(rows) for j in range(len(cols)))
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

    def col(self, j: int) -> Vec:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

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
        s = Fraction(s)
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

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows, tuple(
            self.entries[i * self.cols + j]
            for j in range(self.cols) for i in range(self.rows)
        ))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)


def matrix_of(fn, dim: int, rows: int) -> Mat:
    """The rows x dim matrix of a linear map: column i is fn(e_i).

    The map is probed on the unit vectors in order; the columns must
    already hold Fractions, so no entry is converted again.
    """
    cols = [fn(unit_vec(dim, i)) for i in range(dim)]
    if any(len(col) != rows for col in cols):
        raise ValueError(f"matrix_of: a column is not of length {rows}")
    return Mat(rows, dim, tuple(x for row in zip(*cols) for x in row))


def commutator(a: Mat, b: Mat) -> Mat:
    return a @ b - b @ a


def hstack(a: Mat, b: Mat) -> Mat:
    if a.rows != b.rows:
        raise ValueError("hstack: row count mismatch")
    rows = [list(a.row(i)) + list(b.row(i)) for i in range(a.rows)]
    return Mat.from_rows(rows) if rows else Mat.zeros(0, a.cols + b.cols)


@dataclass(frozen=True)
class RrefResult:
    reduced: Mat
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rref(m: Mat) -> RrefResult:
    """Unique reduced row-echelon form of ``m``.

    Pivot rule: leftmost unprocessed column, first row (in order) with a
    nonzero entry there.  The result is the canonical RREF, with pivot
    entries 1 and zeros above and below each pivot.
    """
    grid = m.to_rows()
    nrows, ncols = m.rows, m.cols
    pivots: list[int] = []
    pr = 0
    for pc in range(ncols):
        pivot_row = None
        for r in range(pr, nrows):
            if grid[r][pc]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        if pivot_row != pr:
            grid[pr], grid[pivot_row] = grid[pivot_row], grid[pr]
        inv = 1 / grid[pr][pc]
        if inv != 1:
            grid[pr] = [inv * x for x in grid[pr]]
        for r in range(nrows):
            if r == pr:
                continue
            factor = grid[r][pc]
            if factor:
                prow = grid[pr]
                grid[r] = [x - factor * y for x, y in zip(grid[r], prow)]
        pivots.append(pc)
        pr += 1
        if pr == nrows:
            break
    flat = tuple(x for row in grid for x in row)
    return RrefResult(Mat(nrows, ncols, flat), tuple(pivots))


def image_rank(m: Mat) -> int:
    return rref(m).rank


def kernel_basis(m: Mat) -> list[Vec]:
    """Deterministic basis of the null space {v : m v = 0}.

    Each basis vector carries a 1 in its free column and the canonical
    RREF parametrization elsewhere; vectors come out ordered by free
    column.  Basis size is cols - rank.
    """
    res = rref(m)
    red, pivots = res.reduced, res.pivots
    pivot_set = set(pivots)
    free_cols = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for fc in free_cols:
        v = [_ZERO] * m.cols
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r, fc]
        basis.append(tuple(v))
    return basis


def solve(m: Mat, b: Vec) -> Vec | None:
    """One exact solution of m x = b (free variables set to 0), or None.

    Returns None exactly when the system is inconsistent.
    """
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != row count {m.rows}")
    aug = hstack(m, Mat.from_cols([b], rows=m.rows))
    res = rref(aug)
    if m.cols in res.pivots:
        return None
    x = [_ZERO] * m.cols
    for r, pc in enumerate(res.pivots):
        x[pc] = res.reduced[r, m.cols]
    return tuple(x)


def inverse(m: Mat) -> Mat:
    """Exact inverse of a square matrix; raises ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    res = rref(hstack(m, Mat.identity(n)))
    if res.pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    rows = [list(res.reduced.row(i))[n:] for i in range(n)]
    return Mat.from_rows(rows) if n else Mat.zeros(0, 0)
