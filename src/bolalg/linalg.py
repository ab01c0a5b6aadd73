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
callers read a matrix by its ``nonzero_rows``, build a ``Fraction`` only for
an entry they return, and ``rref`` and ``inverse`` write their result by its
nonzero rows (``Mat._of_rows``): no elimination fills or scans a dense grid.

``kernel_basis`` takes one of two routes to that RREF, by the mean nonzeros
per row: below ``_DENSE_ROW`` (sparse rows, which mostly stay independent)
it eliminates every row; from it (the rows of a dense basis, most of which
reduce to zero at a cost that grows with the entries) it eliminates only the
rows independent mod a prime of ``_PRIMES``, sparsest first, and certifies
in ints that every row lies in their row space (``_certified_echelon``),
trying the next prime when the certificate fails and eliminating every row
after the last.  The kernel of the selected rows contains the kernel of all
rows, and the certificate gives the reverse inclusion, so both routes give
the same row space and the same canonical RREF: the prime only chooses
which rows to eliminate, and no result rests on probability.

The library's value classes (matrices, algebras, representations, cochains,
reports) are frozen records made by ``record`` below, not dataclasses: importing
``dataclasses`` (which loads ``inspect``, ``ast``, ``dis`` and ``tokenize``) and
decorating with it took more time than a typical ``bolalg`` command computes.
"""

from __future__ import annotations

import functools
import math
import operator
import struct
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction

Scalar = Fraction
Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_INEXACT = "not an exact scalar (int, Fraction or str): {!r}"
_EXACT_TYPES = frozenset((int, Fraction))  # the entry types a Mat holds
_NOT_HELD = "not an int or a Fraction: {!r}"  # what a Mat or an integer form refuses
# kernel_basis's mod-p route: the primes tried in turn, each below 2**15, and the mean
# nonzeros per row from which it is taken.  Sparse rows (the CC1-CC3 rows of a sparse
# basis hold 2.1-3.8 on average) reduce cheaply and mostly stay independent; in a
# dense basis (6.7-26) most reduce to zero, at a cost that grows with the entries.
_PRIMES = (32749, 32719, 32717)
_DENSE_ROW = 6


_RECORD_INIT = """\
def __init__(self, {params}):
{stores}"""
_POST_INIT = "    self.__post_init__()\n"


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """cls made a frozen record of the names annotated in its body, in order.

    As ``dataclasses.dataclass(frozen=True)`` would: ``__init__`` takes the
    fields by position or keyword, with the class-level defaults, writes them
    and then calls ``self.__post_init__()`` if the class has one (looked up at
    each call); ``__repr__`` is ``Name(field=value!r, ...)``; records are equal
    when they are of one class and their field tuples are equal (else
    NotImplemented), and hash as the field tuple; assigning or deleting an
    attribute raises AttributeError.  ``__init__`` and ``__repr__`` are written
    only where the class does not define them (itself or through a base).
    """
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    get = operator.attrgetter(*fields)
    values = get if len(fields) > 1 else lambda obj: (get(obj),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __repr__(self):
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values(self)))
        return f"{type(self).__qualname__}({shown})"

    cls._fields = fields
    cls.__eq__ = __eq__
    cls.__hash__ = lambda self: hash(values(self))
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    if cls.__repr__ is object.__repr__:
        cls.__repr__ = __repr__
    if cls.__init__ is object.__init__:
        # one __init__ per class, faster than a generic *args one; it sets each
        # field through object.__setattr__, bound once: writing self.__dict__
        # instead would make a dict per object and slow every later attribute read
        source = _RECORD_INIT.format(params=", ".join(fields),
                                     stores="".join(f"    _set(self, {f!r}, {f})\n" for f in fields))
        namespace = {"_set": object.__setattr__}
        exec(source + (_POST_INIT if hasattr(cls, "__post_init__") else ""), namespace)
        init = namespace["__init__"]
        init.__defaults__ = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__) or None
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
    return cls


def replace(obj, **changes):
    """A copy of the record obj with some fields changed, built by its ``__init__``,
    so that its validation runs again (as ``dataclasses.replace``)."""
    return type(obj)(**{f: changes.pop(f, getattr(obj, f)) for f in obj._fields}, **changes)


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


def _require_held(values: tuple) -> None:
    """Raise TypeError naming the first value that is not an int or a Fraction."""
    if not _EXACT_TYPES.issuperset(map(type, values)):  # one C-level pass
        raise TypeError(_NOT_HELD.format(next(x for x in values if type(x) not in _EXACT_TYPES)))


def _in_range(i: int, size: int) -> int:
    """i, if it lies in range(size); else IndexError, for a negative i too."""
    if not 0 <= i < size:
        raise IndexError(f"index {i} not in range({size})")
    return i


def _transposed_rows(cols: int, nonzero_rows) -> tuple:
    """The nonzero rows of the transpose of the matrix of nonzero_rows with cols columns."""
    out = [[] for _ in range(cols)]
    for r, row in enumerate(nonzero_rows):
        for k, x in row:
            out[k].append((r, x))
    return tuple(map(tuple, out))


@record
class Mat:
    """Immutable matrix of Fractions (or ints), read as its row-major ``entries`` or
    its ``nonzero_rows`` (the form of the constraint and coboundary rows), each view
    built from the other on first access.  ``Mat(rows, cols, entries)`` refuses a bad
    shape or an entry that is not an int or a Fraction; ``Mat._of_rows`` writes rows
    that code already holds, unchecked (an elimination refuses an inexact entry)."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    # written here: the __init__ of record would take the entries view for a default
    def __init__(self, rows: int, cols: int, entries: tuple):
        self.__dict__.update(rows=rows, cols=cols, entries=entries)
        self.__post_init__()

    def __post_init__(self):
        rows, cols, entries = self.rows, self.cols, self.entries
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix shape")
        if len(entries) != rows * cols:
            raise ValueError(f"entry count {len(entries)} != {rows}x{cols}")
        _require_held(entries)

    @classmethod
    def _of_rows(cls, cols: int, nonzero_rows: tuple) -> "Mat":
        """The Mat of nonzero_rows, as the view reads them, every col below cols."""
        m = object.__new__(cls)
        m.__dict__.update(rows=len(nonzero_rows), cols=cols, nonzero_rows=nonzero_rows)
        return m

    @functools.cached_property
    def entries(self) -> tuple[Fraction, ...]:
        """The row-major entries: the nonzeros, the shared zero elsewhere."""
        return tuple(x for r in range(self.rows) for x in self.row(r))

    @functools.cached_property
    def nonzero_rows(self) -> tuple:
        """The nonzeros by row: [r] = ((col, entry), ...), col ascending."""
        entries, cols = self.entries, self.cols
        return tuple(tuple((k, x) for k, x in enumerate(entries[r * cols:(r + 1) * cols]) if x)
                     for r in range(self.rows))

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
        return self.row(i)[_in_range(j, self.cols)]

    def row(self, i: int) -> Vec:
        out = [_ZERO] * self.cols
        for k, x in self.nonzero_rows[_in_range(i, self.rows)]:
            out[k] = x
        return tuple(out)

    def col(self, j: int) -> Vec:
        _in_range(j, self.cols)
        return tuple(dict(row).get(j, _ZERO) for row in self.nonzero_rows)

    def is_zero(self) -> bool:
        return not any(self.nonzero_rows)

    def transpose(self) -> "Mat":
        return Mat._of_rows(self.rows, _transposed_rows(self.cols, self.nonzero_rows))

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
        right, out = other.nonzero_rows, []
        for row in self.nonzero_rows:
            acc = {}
            for l, a in row:
                for j, b in right[l]:
                    acc[j] = acc.get(j, _ZERO) + a * b
            out.append(tuple((j, acc[j]) for j in sorted(acc) if acc[j]))
        return Mat._of_rows(other.cols, tuple(out))

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise ValueError(f"cannot apply {self.shape} to vector of length {len(v)}")
        return tuple(sum((e * v[k] for k, e in row if v[k]), _ZERO) for row in self.nonzero_rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)


@record
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
    (a float, Decimal, complex, str, ...) raises TypeError naming it, as a Mat refuses it."""
    try:
        return math.lcm(*{x.denominator for x in values})
    except AttributeError as error:
        if error.name != "denominator":
            raise
        raise TypeError(_NOT_HELD.format(error.obj)) from None


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


def rref(m: Mat) -> RrefResult:
    """Canonical reduced row-echelon form of ``m``: pivot entries 1, zeros
    above and below each pivot, zero rows last."""
    echelon = sorted(_echelon(m.nonzero_rows).items())
    reduced = tuple(tuple((k, Fraction(row[k], row[pc])) for k in sorted(row))
                    for pc, row in echelon)
    return RrefResult(Mat._of_rows(m.cols, reduced + ((),) * (m.rows - len(reduced))),
                      tuple(pc for pc, _ in echelon))


def image_rank(m: Mat) -> int:
    return len(_echelon(m.nonzero_rows))


def _pack(slots: list) -> int:
    """The int holding each value of slots (each below 2**64) in its own 64-bit slot."""
    return int.from_bytes(struct.pack(f"<{len(slots)}Q", *slots), "little")


def _unpack(packed: int, cols: int) -> memoryview:
    """The cols 64-bit slots of a packed int, lowest first (read in the machine's
    byte order, in which the highest slot comes first on a big-endian machine)."""
    slots = memoryview(packed.to_bytes(8 * cols, sys.byteorder)).cast("Q")
    return slots if sys.byteorder == "little" else slots[::-1]


def _independent_mod(rows, cols: int, p: int) -> list:
    """The int rows ({col: int}), in order, that are independent mod p of the rows
    kept before them.

    The kept rows are held in RREF mod p, each packed into one int with a 64-bit
    slot per column.  A row reduces to row - sum of row[c] * (pivot row of c)
    over the pivot columns c in its support: one multiply-add for each of
    those, one shift-add for each other nonzero, which leaves -row[c] in slot c
    where the reduced row has 0.  The row is kept when a slot of a free column
    is not 0 mod p.  A new pivot row has its slots below p and clears its
    column from the others with one multiply-add each, which adds under p**2 to
    their slots; every ``every`` new pivots each slot is reduced mod p again.
    So with r = min(rows, cols), a slot of a pivot row stays below
    p + (every - 1) * p**2 and one of a reduced row below
    p + r * p**2 * (1 + (every - 1) * p) <= p + r * every * p**3, which
    ``every`` keeps within p + 2**63 whenever r * p**2 < 2**63 (for a prime of
    _PRIMES, whenever r < 2**33)."""
    every = max(1, 2**63 // (min(len(rows), cols) * p**3 or 1))
    pivots: dict[int, int] = {}
    free = list(range(cols))
    kept = []
    for row in rows:
        packed = 0
        for k, x in row.items():
            prow = pivots.get(k)
            if prow is None:
                packed += x % p << (64 * k)
            elif x % p:
                packed += (p - x % p) * prow
        reduced = _unpack(packed, cols)
        if not any(reduced[k] % p for k in free):
            continue
        kept.append(row)
        residues = [x % p for x in reduced]
        for pc in pivots:
            residues[pc] = 0
        first = next(filter(None, residues))
        lead, inverse = residues.index(first), pow(first, -1, p)
        new = _pack([x * inverse % p for x in residues])
        for pc, prow in pivots.items():  # clear the new pivot column
            f = (prow >> (64 * lead) & 0xFFFFFFFFFFFFFFFF) % p
            if f:
                pivots[pc] = prow + (p - f) * new
        pivots[lead] = new
        free.remove(lead)
        if len(pivots) % every == 0:
            for pc, prow in pivots.items():
                pivots[pc] = _pack([x % p for x in _unpack(prow, cols)])
    return kept


def _spans(echelon: dict[int, dict[int, int]], rows, cols: int) -> bool:
    """Whether every int row ({col: int}) lies in the row space of echelon (a
    canonical RREF as _echelon returns it), decided in ints.

    With L the lcm of the leads, a row r lies in it exactly when, at every free
    column f, L * r[f] is the sum of r[pc] * Q[pc][f] over its pivot columns pc,
    Q[pc] being pivot row pc scaled to lead L.  Each Q[pc] is packed over the free
    columns into one int, in signed slots of w bits where 2**w exceeds every
    slot's bound |r| * (L + rank * |Q|).  The packed residual of a row, one
    multiply-add per nonzero, is then 0 exactly when every slot is 0: in a zero
    sum the lowest nonzero slot would be a multiple of 2**w."""
    free = {k: i for i, k in enumerate(k for k in range(cols) if k not in echelon)}
    lead = math.lcm(*(row[pc] for pc, row in echelon.items()))
    scaled = {pc: {k: lead // row[pc] * x for k, x in row.items() if k != pc}
              for pc, row in echelon.items()}
    bound = max((max(map(abs, row.values())) for row in rows if row), default=0) * (
        lead + len(echelon) * max((abs(x) for q in scaled.values() for x in q.values()),
                                  default=0))
    w = bound.bit_length()
    packed = {pc: sum(x << (w * free[k]) for k, x in q.items()) for pc, q in scaled.items()}
    for row in rows:
        residual = 0
        for k, x in row.items():
            q = packed.get(k)
            if q is None:
                residual += lead * x << (w * free[k])
            else:
                residual -= x * q
        if residual:
            return False
    return True


def _certified_echelon(rows, cols: int) -> dict[int, dict[int, int]]:
    """_echelon(rows), eliminating only the rows independent mod a prime.

    The primitive int rows (``_integer_row``), sparsest first as ``_echelon``
    visits them (the kept rows are then the sparsest ones, with the cheapest
    exact elimination), are selected mod each prime of _PRIMES in turn
    (``_independent_mod``) and the selected ones are eliminated exactly; the
    first echelon whose row space holds every row (``_spans``) is returned.  The kernel of the selected rows holds the kernel
    of all rows and the certificate gives the reverse inclusion, so the row
    spaces, and the canonical RREF, are those of all rows: the prime only
    chooses rows, no result rests on chance.  If every prime fails, all rows
    are eliminated."""
    rows = sorted(map(_integer_row, rows), key=len)
    for p in _PRIMES:
        echelon = _echelon(_independent_mod(rows, cols, p))
        if _spans(echelon, rows, cols):
            return echelon
    return _echelon(rows)


def kernel_basis(m: Mat) -> list[Vec]:
    """Basis of the null space {v : m v = 0}, one vector per free column fc in
    order: 1 at fc, minus column fc of the canonical RREF at the pivots (one pass).

    Rows holding _DENSE_ROW nonzeros or more on average are eliminated through
    ``_certified_echelon``, the others through ``_echelon``: both give the
    canonical RREF."""
    rows = m.nonzero_rows
    dense = sum(map(len, rows)) >= _DENSE_ROW * len(rows)
    echelon = _certified_echelon(rows, m.cols) if dense else _echelon(rows)
    basis = {fc: [_ZERO] * fc + [_ONE] + [_ZERO] * (m.cols - fc - 1)
             for fc in range(m.cols) if fc not in echelon}
    for pc, row in echelon.items():
        for k in row.keys() - {pc}:  # free columns: the pivots to the right are cleared
            basis[k][pc] = Fraction(-row[k], row[pc])
    return list(map(tuple, basis.values()))


def solve(m: Mat, b: Vec) -> Vec | None:
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


def inverse(m: Mat) -> Mat:
    """Exact inverse of a square matrix (the identity is columns n..2n-1);
    raises ValueError if singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    echelon = _echelon([row + ((n + i, 1),) for i, row in enumerate(m.nonzero_rows)])
    if any(i not in echelon for i in range(n)):
        raise ValueError("matrix is singular")
    return Mat._of_rows(n, tuple(tuple((k - n, Fraction(x, echelon[i][i]))
                                       for k, x in sorted(echelon[i].items()) if k >= n)
                                 for i in range(n)))
