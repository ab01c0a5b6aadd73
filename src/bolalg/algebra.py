"""Bol and Maltsev algebras presented by exact rational structure constants.

A Bol algebra carries an antisymmetric binary product ``x*y`` and a
ternary product ``[x,y,z]`` antisymmetric in its first two slots, subject
to three compatibility axioms (B1, B2, B3 below).  A Maltsev algebra is an
anticommutative binary algebra satisfying Sagle's identity; every Maltsev
algebra induces a Bol algebra through

    [x, y, z] = (1/3) (x*(y*z) - y*(x*z) + 2 (x*y)*z).

An algebra stores its integer form ``form`` = (D, P, T): D, the lcm of
every denominator of its structure constants, and P[i][j] and T[i][j][k]
the nonzeros of e_i*e_j and [e_i,e_j,e_k], k ascending, times D, as ints
(T all empty for a Maltsev algebra).  It is canonical, so equality and
hashing read it.  The structure tensors

    c[k][i][j]    = coefficient of e_k in e_i * e_j
    t[l][i][j][k] = coefficient of e_l in [e_i, e_j, e_k]

are built from it on first access; no scan reads them.  The library makes
every algebra by one builder, ``_of_form``, and every form by one writer,
``_entry_forms``, from integer entries (args, ((k, p, q), ...)): i<j ones with
their twins, or every args of a tensor (``_coefficients``) or of a form that
need not be antisymmetric; ``_form_entries`` reads a stored form's.
Axioms are multilinear (and the Maltsev identity quadratic in one slot),
so each verifier decides them by exhaustive evaluation on basis tuples,
reporting the first failing tuple in lexicographic order as a witness.
A product of k coefficients in the form is D**k times the true one, so a
residual adds up plain ints and is divided by D**k only when a Vec is
built (``_over``): exact, and equal to the Fraction residual.  One
assembly, ``_bol_scans``, runs the Bol axioms of a product form and a
triple form: the antisymmetry checks it is given, each the scan that
compares a form with its swapped twin negated, then the B1 cyclic sum, B2
and B3.  ``verify_bol`` runs it on (c, t) with B01 and B02, the deformation
module's (B01')-(B3') on (nu, mu, omega), B2's term of degree 3 being a
parameter.  An algebra's two antisymmetry results are decided once, kept on
it (``_antisymmetry``), and written as passing by ``_of_entries``, whose
i<j entries and twins cannot fail them: B01, B02, anticommutativity and a
module's base read that one result.  B2 and B3 run one (x, y) block at a
time (``_b2_block``, ``_b3_block``): what [x,y,.] and x*y give is made once
for every (u, v, w), and a block where they are zero is skipped; Sagle's identity
runs one x at a time.  The other modules' scans add up ints too, on
matrices by their integer rows or columns and with products of integer
vectors (``_add_form``); no scan calls the Fraction evaluators
``bilinear_eval`` and ``trilinear_eval``.  An all-zero residual
is the one shared zero Vec of its size (``linalg.zero_vec``).

Most scans, here and in the other modules, sit on antisymmetries: once
the products or module maps they read are antisymmetric in their first
two slots (B01, B02 and their kin), the residual changes sign when a pair
of its slots is swapped, and so vanishes where the two are equal.  Its
failing tuples are then closed under the swap, so the lexicographically
first one has the pair increasing, and a scan of the orbit representatives
(``slot_tuples``: i<j for a pair, i<j<k for a triple that changes sign
under any swap) finds the same witness and residual as a scan of every
tuple.  When the antisymmetry is not known to hold, every tuple is scanned.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import defaultdict
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import cached_property

from .linalg import (
    _ONE, _ZERO, Vec, _common_denominator, _exact, _require_held, _transposed_rows, is_zero_vec,
    record, replace, zero_vec,
)


@record
class ConditionCheck:
    """Outcome of one identity check: pass, or first failure with evidence.

    ``witness`` is the first failing index tuple in lexicographic order
    (entries are basis indices, except the quadratic Maltsev slot which is
    a tuple of one or two indices standing for e_i or e_i + e_j), and
    ``residual`` is the exact LHS - RHS coordinate vector there.
    """

    name: str
    passed: bool
    witness: tuple | None = None
    residual: Vec | None = None


@record
class CheckReport:
    checks: tuple[ConditionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[ConditionCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def first_failure(self) -> ConditionCheck | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def __getitem__(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


# Axiom reports are plain check reports; the alias keeps call sites readable.
AxiomReport = CheckReport


class VerificationError(ValueError):
    """An operation's precondition failed; carries the offending report."""

    def __init__(self, message: str, report: CheckReport):
        super().__init__(message)
        self.report = report


def _require_passed(report: CheckReport, message: str) -> None:
    """Raise VerificationError(message, report) unless the report passes."""
    if not report.passed:
        raise VerificationError(message, report)


def _fill(value_dim: int, n: int, arity: int, rows_at) -> tuple:
    """The nested tuples t whose innermost rows t[v][a1]...[a(k-1)] are rows_at(prefix)[v].

    rows_at is called once per prefix over range(n), in lexicographic order,
    and returns value_dim tuples of n entries; the levels above are grouped
    in runs of n, innermost first, so nothing is done once per entry.
    """
    rows = [rows_at(prefix) for prefix in itertools.product(range(n), repeat=arity - 1)]
    planes = []
    for v in range(value_dim):
        level = [r[v] for r in rows]
        for _ in range(arity - 2):
            level = zip(*[iter(level)] * n)  # consecutive runs of n
        planes.append(tuple(level))
    return tuple(planes)


def slot_tuples(n: int, sizes: tuple[int, ...], grouped: bool = True):
    """Index tuples over range(n) in lexicographic order, built from groups of slots.

    A group of size k runs over itertools.combinations(range(n), k): 1 is a
    free slot, 2 an i<j pair, 3 an i<j<k triple; a tuple is its groups
    concatenated.  With ``grouped`` false every group is split into free
    slots, which gives the full product range(n) ** sum(sizes).
    """
    if not grouped or all(k == 1 for k in sizes):
        return itertools.product(range(n), repeat=sum(sizes))
    tuples, *rest = (itertools.combinations(range(n), k) for k in sizes)
    for group in rest:  # joined pairwise at C speed: product() holds its inputs anyway
        tuples = itertools.starmap(operator.add, itertools.product(tuples, group))
    return tuples


@functools.lru_cache(maxsize=128)
def entry_args(n: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """Argument tuples with i<j in the first two slots, lexicographic order.

    These index the independent entries of a tensor antisymmetric in its
    first two arguments: the sparse file entries and cochain coordinates.
    Kept per (n, arity) while cached; a tuple, so no caller can change it.
    """
    return tuple(slot_tuples(n, (2,) + (1,) * (arity - 2)))


def _dense(n: int, value_dim: int, arity: int, entries) -> tuple:
    """The tensor t[v][args] = p / q at each term (v, p, q) of entries (args, terms), else 0."""
    rows = {}  # prefix -> value_dim lists of n entries, for the prefixes entries reach
    for at, terms in entries:
        if at[:-1] not in rows:
            rows[at[:-1]] = [[_ZERO] * n for _ in range(value_dim)]
        for v, p, q in terms:
            rows[at[:-1]][v][at[-1]] = Fraction(p, q)
    zero = (zero_vec(n),) * value_dim
    return _fill(value_dim, n, arity,
                 lambda prefix: tuple(map(tuple, rows[prefix])) if prefix in rows else zero)


def _twins(entries):
    """Each entry (args, terms) at an i<j args, then its (j, i, ...) twin, each (k, x) negated."""
    for args, terms in entries:
        yield args, terms
        yield (args[1], args[0]) + args[2:], tuple((k, -x) for k, x in terms)


def _checked_entries(
    n: int, value_dim: int, arity: int,
    entries: Iterable[tuple[tuple[int, ...], Mapping[int, Fraction]]], what: str,
):
    """The sparse entries {(i,j,...) with i<j: {v: coeff}}, v the value index, as
    (args, terms): terms the nonzeros ((v, p, q), ...), v ascending, p/q read by _exact.

    Out-of-range, diagonal, unordered and duplicate argument tuples and
    out-of-range value indices raise ValueError, naming the entry as ``what``
    (e.g. "binary", "omega").
    """
    seen = set()
    for args, coeffs in entries:
        args = tuple(args)
        if (len(args) != arity or not all(0 <= a < n for a in args)
                or args[0] >= args[1] or args in seen):
            raise ValueError(_entry_error(what, args, arity, n))
        seen.add(args)
        terms = []
        for v, val in coeffs.items():
            if not 0 <= v < value_dim:
                raise ValueError(f"{what} entry {_shown(args)}: index {v} out of range")
            x = _exact(val)
            if x:
                terms.append((v, x.numerator, x.denominator))
        yield args, tuple(sorted(terms))


def _shown(args: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, args)) + ")"


def _antisymmetry_error(name: str, args: tuple[int, ...], v: int | None = None) -> str:
    """The message of the first failing tuple (and value index v) of an antisymmetry."""
    at = "" if v is None else f"a={v}, "
    return f"{name} is not antisymmetric in its first two slots at {at}args {_shown(args)}"


def _entry_error(what: str, args: tuple[int, ...], arity: int, n: int) -> str:
    shown = _shown(args)
    if len(args) != arity:
        return f"{what} entry args {shown} must have {arity} indices"
    if not all(0 <= a < n for a in args):
        return f"{what} entry args {shown} out of range for dimension {n}"
    if args[0] == args[1]:
        return f"diagonal {what} entry {shown}"
    if args[0] > args[1]:
        return f"{what} entry args {shown} must satisfy i<j"
    return f"duplicate {what} entry {shown}"


def _coeffs(x, n: int):
    """Iterate (index, coefficient) over a slot value (basis index or Vec)."""
    if isinstance(x, int):
        yield x, _ONE
    else:
        if len(x) != n:
            raise ValueError(f"vector length {len(x)} != dimension {n}")
        for i, s in enumerate(x):
            if s:
                yield i, s


def bilinear_eval(c, x, y, n: int) -> Vec:
    """Multilinear extension of a binary tensor c[k][i][j] to x, y slots.

    Slots range over an n-dimensional space; the output has len(c)
    coordinates.
    """
    d = len(c)
    out = [_ZERO] * d
    for i, a in _coeffs(x, n):
        for j, b in _coeffs(y, n):
            ab = a * b
            for k in range(d):
                s = c[k][i][j]
                if s:
                    out[k] += ab * s
    return tuple(out)


def trilinear_eval(t, x, y, z, n: int) -> Vec:
    """Multilinear extension of a ternary tensor t[l][i][j][k]; see bilinear_eval."""
    d = len(t)
    out = [_ZERO] * d
    for i, a in _coeffs(x, n):
        for j, b in _coeffs(y, n):
            ab = a * b
            for k, cz in _coeffs(z, n):
                abc = ab * cz
                for l in range(d):
                    s = t[l][i][j][k]
                    if s:
                        out[l] += abc * s
    return tuple(out)


def _over_terms(D: int, terms, size: int) -> Vec:
    """The Vec of size entries c / D at the nonzeros (k, c) of terms, the shared zero elsewhere."""
    out = [_ZERO] * size
    for k, c in terms:
        out[k] = Fraction(c, D)
    return tuple(out)


def _stored(A, n: int, form: tuple, basis_names):
    """A with its state written: n, its integer form (D, P, T) and basis_names."""
    A.__dict__.update(n=n, form=form, basis_names=tuple(basis_names) if basis_names else None)
    return A


class _BinaryProduct:
    """An algebra held as its integer form; the tensors are built from it on first access."""

    _tensors = ("c",)

    @cached_property
    def c(self) -> tuple:  # c[k][i][j]
        return _dense(self.n, self.n, 2, _form_entries(self.form[0], self.form[1], 2))

    def __repr__(self) -> str:
        tensors = "".join(f"{name}={getattr(self, name)!r}, " for name in self._tensors)
        return f"{type(self).__name__}(n={self.n!r}, {tensors}basis_names={self.basis_names!r})"

    def product(self, x, y) -> Vec:
        return bilinear_eval(self.c, x, y, self.n)

    def basis_product(self, i: int, j: int) -> Vec:
        return _over_terms(self.form[0], self.form[1][i][j], self.n)


@record
class MaltsevAlgebra(_BinaryProduct):
    """Anticommutative algebra candidate; verify_maltsev decides the identity."""

    n: int
    form: tuple  # (D, P, T), T all empty
    basis_names: tuple[str, ...] | None = None

    def __init__(self, n: int, c: tuple, basis_names=None):
        _stored(self, n, _entry_forms(n, ((2, _coefficients("c", c, n, n, 2), False),
                                          (3, (), False))), basis_names)

    @classmethod
    def from_entries(cls, n, binary, basis_names=None) -> "MaltsevAlgebra":
        return _of_entries(cls, n, _checked_entries(n, n, 2, binary, "binary"), (),
                           basis_names)


@record
class BolAlgebra(_BinaryProduct):
    """Binary + ternary structure constants; verify_bol decides the axioms."""

    n: int
    form: tuple  # (D, P, T)
    basis_names: tuple[str, ...] | None = None

    _tensors = ("c", "t")

    def __init__(self, n: int, c: tuple, t: tuple, basis_names=None):
        _stored(self, n, _entry_forms(n, ((2, _coefficients("c", c, n, n, 2), False),
                                          (3, _coefficients("t", t, n, n, 3), False))), basis_names)

    @cached_property
    def t(self) -> tuple:  # t[l][i][j][k]
        return _dense(self.n, self.n, 3, _form_entries(self.form[0], self.form[2], 3))

    @classmethod
    def from_entries(cls, n, binary, ternary, basis_names=None) -> "BolAlgebra":
        return _of_entries(cls, n, _checked_entries(n, n, 2, binary, "binary"),
                           _checked_entries(n, n, 3, ternary, "ternary"), basis_names)

    @classmethod
    def zero(cls, n: int) -> "BolAlgebra":
        return cls.from_entries(n, (), ())

    def triple(self, x, y, z) -> Vec:
        return trilinear_eval(self.t, x, y, z, self.n)

    def basis_triple(self, i: int, j: int, k: int) -> Vec:
        return _over_terms(self.form[0], self.form[2][i][j][k], self.n)


def _once_per_object(fn):
    """Run ``fn(obj)`` once per immutable ``obj`` and keep the result on it.

    The result sits in the object's ``__dict__``, as ``cached_property``
    keeps an algebra's tensors: it lives and dies with the object, and
    record equality and hashing ignore it.  Two threads racing on a new
    object can at worst both compute it.  ``once.keep(obj, result)`` writes
    the result that the code building obj guarantees, so fn never runs on it.
    """
    key = f"_{fn.__name__}"

    @functools.wraps(fn)
    def once(obj):
        kept = obj.__dict__
        if key not in kept:
            kept[key] = fn(obj)
        return kept[key]
    once.keep = lambda obj, result: obj.__dict__.__setitem__(key, result)
    return once


def _nonzeros(v: Vec) -> tuple:
    """The nonzero coordinates ((k, v_k), ...) of v, k ascending."""
    return tuple((k, x) for k, x in enumerate(v) if x)


def _scaled(terms, D: int) -> tuple:
    """The nonzeros ((k, c), ...) with every c times D, as ints; D is a
    multiple of every denominator."""
    return tuple((k, c.numerator * (D // c.denominator)) for k, c in terms)


def _entry_forms(n: int, parts) -> tuple:
    """(D, *forms) of parts (arity, entries, twins): entries (args, terms) of a product
    (arity 2) or triple (3), each args once, terms the nonzeros ((k, p, q), ...), k
    ascending, as ``_integer_terms`` reads them, written at args as ints and, with twins
    (i<j entries), negated at their twins (``_twins``)."""
    parts = [(arity, list(entries), twins) for arity, entries, twins in parts]
    D, rows = _integer_terms([terms for _, entries, _ in parts for _, terms in entries])
    rows, forms = iter(rows), []
    for arity, entries, twins in parts:
        written = defaultdict(lambda: [()] * n)  # prefix -> the terms at each last slot
        entries = [(args, next(rows)) for args, _ in entries]
        for args, terms in _twins(entries) if twins else entries:
            written[args[:-1]][args[-1]] = terms
        forms.append(_nested(n, arity, written))
    return (D, *forms)


def _nested(n: int, arity: int, rows: dict) -> tuple:
    """The form of arity 2 or 3 whose terms at each prefix p of rows are rows[p], one
    per last slot; a prefix not in rows is one shared empty row."""
    empty = ((),) * n
    row = lambda p: tuple(rows[p]) if p in rows else empty
    reached = {p[0] for p in rows}
    return tuple(row((i,)) if arity == 2 else tuple(row((i, j)) for j in range(n))
                 if i in reached else (empty,) * n for i in range(n))


def _integer_terms(rows: list) -> tuple:
    """(D, rows) for rows of nonzeros ((k, p, q), ...), each p/q with q > 0 in any terms:
    D their least common denominator and each row ((k, D p / q), ...) as ints.  The lcm
    L of the q is a multiple of D: L / D is the gcd of L and every L p / q."""
    L = math.lcm(*{q for row in rows for _, _, q in row})
    rows = [tuple((k, p * (L // q)) for k, p, q in row) if row else () for row in rows]
    g = math.gcd(L, *(c for row in rows for _, c in row)) if L > 1 else 1
    if g > 1:
        rows = [tuple((k, c // g) for k, c in row) for row in rows]
    return L // g, rows


def _coefficients(name: str, t, m: int, n: int, arity: int):
    """The entries (args, ((k, p, q), ...)) at the nonzeros of the tensor t[k][args], m
    planes of n**arity entries: nested tuples or lists, else ValueError names it at the
    call.  The values at one prefix are read off the planes by transposition as they are
    yielded, and one that a Mat refuses, zero or not, raises its TypeError."""
    level = (t,)
    for depth, size in enumerate((m,) + (n,) * arity):
        if depth:
            level = [x for row in level for x in row]
        if not all(isinstance(row, (tuple, list)) and len(row) == size for row in level):
            raise ValueError(f"{name} tensor must be {m} x {' x '.join([str(n)] * arity)}")

    def entries():
        for prefix in itertools.product(range(n), repeat=arity - 1):
            rows = [functools.reduce(lambda row, a: row[a], prefix, plane) for plane in t]
            for last, values in enumerate(zip(*rows)):
                _require_held(values)
                terms = tuple((k, x.numerator, x.denominator) for k, x in enumerate(values) if x)
                if terms:
                    yield prefix + (last,), terms
    return entries()


def _form_entries(D: int, form, arity: int, upper: bool = False):
    """The entries (args, ((k, c, D), ...)) where an integer form over D is nonzero, args
    lexicographic over every tuple, or with ``upper`` over the i<j ones (entry_args)."""
    rng = range(len(form))
    for i, j in itertools.combinations(rng, 2) if upper else itertools.product(rng, repeat=2):
        at = [((i, j), form[i][j])] if arity == 2 else (
            ((i, j, k), terms) for k, terms in enumerate(form[i][j]))
        for args, terms in at:
            if terms:
                yield args, tuple((k, c, D) for k, c in terms)


def _of_form(cls, n: int, form: tuple, basis_names):
    """The algebra of class cls with the integer form given, on a new object (no tensor)."""
    return _stored(object.__new__(cls), n, form, basis_names)


def _of_entries(cls, n: int, binary, ternary, basis_names):
    """_of_form of the i<j entries of c and t (() for a MaltsevAlgebra), by _entry_forms.
    Each entry is written with its negated twin and no diagonal one is, so both forms
    are antisymmetric: the passing ``_antisymmetry`` results are kept on the algebra."""
    A = _of_form(cls, n, _entry_forms(n, ((2, binary, True), (3, ternary, True))), basis_names)
    _antisymmetry.keep(A, (_PASSED, _PASSED))
    return A


def _integer_cols(mat) -> tuple:
    """The integer form (D, cols) of a Mat: D the lcm of its denominators,
    cols[b] = ((a, entry (a, b) times D as an int), ...) over column b's nonzeros."""
    cols = _transposed_rows(mat.cols, mat.nonzero_rows)
    D = _common_denominator(x for col in cols for _, x in col)
    return D, tuple(_scaled(col, D) for col in cols)


def _add_terms(acc: list, s: int, terms) -> None:
    """acc += s * v for v given by its integer nonzeros ``terms``; acc is a list of ints."""
    for k, c in terms:
        acc[k] += s * c


def _add_form(acc: list, s: int, form, u, v, w=None) -> list:
    """acc += s * form(u, v), or s * form(u, v, w), for an integer product or triple
    form (as in A.form) and vectors given by their integer nonzeros ((k, x),
    ...); returns acc."""
    for i, a in u:
        for j, b in v:
            if w is None:
                _add_terms(acc, s * a * b, form[i][j])
            else:
                for k, c in w:
                    _add_terms(acc, s * a * b * c, form[i][j][k])
    return acc


def _integer_sum(D: int, size: int, *vectors) -> Vec:
    """The Vec (v1 + v2 + ...) / D for vectors given by their integer nonzeros."""
    acc = [0] * size
    for terms in vectors:
        _add_terms(acc, 1, terms)
    return _over(acc, D)


def _over(acc: list, denominator: int) -> Vec:
    """The Vec acc / denominator of integer numerators, every entry a Fraction."""
    if not any(acc):
        return zero_vec(len(acc))
    return tuple(Fraction(a, denominator) for a in acc)


def _scan(name: str, tuples, residual_fn) -> ConditionCheck:
    """First-failure scan over index tuples in the given (lexicographic) order."""
    zero = None  # the shared zero Vec of the last residual's length
    for idx in tuples:
        r = residual_fn(*idx)
        if r is not zero:
            zero = zero_vec(len(r))
            if r is not zero and not is_zero_vec(r):
                return ConditionCheck(name, False, tuple(idx), r)
    return ConditionCheck(name, True)


def _antisymmetry_scan(name: str, D: int, form: tuple, arity: int,
                       m: int | None = None) -> ConditionCheck:
    """The first failure of form(i,j,...) + form(j,i,...) = 0, args lexicographic, for
    an integer product (arity 2) or triple (3) form with m value coordinates (n by
    default); a triple's last slot runs over the rows form[i][j] holds, so a module
    map held by its m rows is read whole.  Sorted and zero-free, the two cancel
    exactly when one is the other negated: only a mismatch is added up."""
    n = len(form)
    for i, j in itertools.product(range(n), repeat=2):
        ij, ji = form[i][j], form[j][i]
        rows = [((), ij, ji)] if arity == 2 else zip(((k,) for k in range(len(ij))), ij, ji)
        for rest, a, b in rows:
            if (a or b) and a != tuple((k, -c) for k, c in b):
                return ConditionCheck(name, False, (i, j) + rest, _integer_sum(D, m or n, a, b))
    return ConditionCheck(name, True)


_PASSED = ConditionCheck("", True)


@_once_per_object
def _antisymmetry(A) -> tuple:
    """The un-named _antisymmetry_scan results of A's product form and triple form, kept
    on A: verify_bol names them B01 and B02, verify_maltsev names the first
    anticommutativity, and ``representation._antisymmetry_failure`` reads a module's base
    through them.  A Maltsev algebra's triple form is all empty, and passes unscanned."""
    D, P, T = A.form
    return (_antisymmetry_scan("", D, P, 2),
            _antisymmetry_scan("", D, T, 3) if isinstance(A, BolAlgebra) else _PASSED)


def _block_scan(name: str, pairs, nonzero, block) -> ConditionCheck:
    """The first failure over the (x, y) blocks of ``pairs`` (slot_tuples' i<j pairs,
    or every pair) in order: block(x, y, pairs) is a block's first (witness,
    residual) or None; a block where nonzero(x, y) is false has no nonzero term."""
    pairs = list(pairs)
    for x, y in pairs:
        failure = nonzero(x, y) and block(x, y, pairs)
        if failure:
            return ConditionCheck(name, False, *failure)
    return ConditionCheck(name, True)


def _b2_scan(name: str, D: int, P: tuple, T: tuple, pairs, cubic: tuple) -> ConditionCheck:
    """B2 of the integer forms P, T, (u, v) over ``pairs`` in each (x, y) block:
    [x,y,u*v] - [x,y,u]*v - u*[x,y,v] - [u,v,x*y] + (u*v)*(x*y), the last term,
    of degree 3, given as the sum of F(Y[u][v], X[x][y]) over (Y, F, X) in cubic,
    whose X include P: a block where [x,y,.] and every X[x][y] are zero is skipped."""
    return _block_scan(name, pairs, lambda x, y: any(T[x][y]) or any(X[x][y] for _, _, X in cubic),
                       lambda x, y, pairs: _b2_block(D, P, T, cubic, x, y, pairs))


def _b2_block(D: int, P: tuple, T: tuple, cubic: tuple, x: int, y: int, pairs: list):
    """The first (witness, residual) of the B2 block (x, y), or None; each F(e_i, X[x][y])
    is made once.  The terms of degree 2 are multiplied by D before the cubic ones."""
    n, Txy = len(P), T[x][y]
    right = [(Y, [_times(F, ((i, 1),), X[x][y]) for i in range(n)]) for Y, F, X in cubic]
    for u, v in pairs:
        acc = [0] * n
        for k, c in P[u][v]:  # [x,y,u*v]
            _add_terms(acc, c, Txy[k])
        for k, c in Txy[u]:  # [x,y,u]*v
            _add_terms(acc, -c, P[k][v])
        for k, c in Txy[v]:  # u*[x,y,v]
            _add_terms(acc, -c, P[u][k])
        for k, c in P[x][y]:  # [u,v,x*y]
            _add_terms(acc, -c, T[u][v][k])
        acc = [D * a for a in acc]
        for Y, Q in right:
            for i, a in Y[u][v]:
                _add_terms(acc, a, Q[i])
        if any(acc):
            return (x, y, u, v), _over(acc, D ** 3)
    return None


def _b3_scan(name: str, D: int, T: tuple, pairs) -> ConditionCheck:
    """B3 of the integer form T, (u, v) over ``pairs`` and w over the basis in each (x, y)
    block: [x,y,[u,v,w]] - [[x,y,u],v,w] - [u,[x,y,v],w] - [u,v,[x,y,w]], of degree 2."""
    return _block_scan(name, pairs, lambda x, y: any(T[x][y]),
                       lambda x, y, pairs: _b3_block(D, T, x, y, pairs))


def _b3_block(D: int, T: tuple, x: int, y: int, pairs: list):
    """The first (witness, residual) of the B3 block (x, y), or None."""
    n, Txy = len(T), T[x][y]
    for u, v in pairs:
        Tu, Tuv = T[u], T[u][v]
        for w in range(n):
            acc = [0] * n  # the sums written out, as _add_terms would add them
            for k, c in Tuv[w]:
                for l, e in Txy[k]:
                    acc[l] += c * e
            for k, c in Txy[u]:
                for l, e in T[k][v][w]:
                    acc[l] -= c * e
            for k, c in Txy[v]:
                for l, e in Tu[k][w]:
                    acc[l] -= c * e
            for k, c in Txy[w]:
                for l, e in Tuv[k]:
                    acc[l] -= c * e
            if any(acc):
                return (x, y, u, v, w), _over(acc, D ** 2)
    return None


def _bol_scans(names: tuple, D: int, checks: tuple, P: tuple, T: tuple,
               cubic: tuple) -> tuple:
    """The antisymmetry checks ``checks``, as given, then the axioms named ``names``
    (B1, B2, B3) of the integer product form P and triple form T over D: the cyclic
    sum of T, _b2_scan with the degree-3 term ``cubic`` and _b3_scan.  Once every
    given antisymmetry passes, the B1 cyclic sum changes sign under any swap and B2,
    B3 when x, y or u, v are swapped, so B1-B3 visit the orbit representatives: they
    find the first failure."""
    n = len(P)
    grouped = all(check.passed for check in checks)
    pairs = list(slot_tuples(n, (2,), grouped))
    b1, b2, b3 = names
    return checks + (
        _scan(b1, slot_tuples(n, (3,), grouped),
              lambda i, j, k: _integer_sum(D, n, T[i][j][k], T[j][k][i], T[k][i][j])),
        _b2_scan(b2, D, P, T, pairs, cubic),
        _b3_scan(b3, D, T, pairs))


@_once_per_object
def verify_bol(B: BolAlgebra) -> AxiomReport:
    """Check B01, B02 tensor-wise and B1/B2/B3 on basis tuples.

    Every axiom is multilinear, so exhaustive basis evaluation decides it;
    B1-B3 visit the orbit representatives once B01 and B02 pass.
    Failure is data, not an error: each condition records its first failing
    tuple and the exact residual.  The report is kept on B, so each algebra
    is scanned once; B01 and B02 are its kept ``_antisymmetry``.
    """
    D, P, T = B.form
    b01, b02 = _antisymmetry(B)
    checks = (replace(b01, name="B01"), replace(b02, name="B02"))
    return AxiomReport(_bol_scans(("B1", "B2", "B3"), D, checks, P, T, ((P, P, P),)))


def _times(P: tuple, u, v) -> tuple:
    """The nonzeros of u*v for u, v given by their integer nonzeros; P as in A.form."""
    return tuple((k, c) for k, c in enumerate(_add_form([0] * len(P), 1, P, u, v)) if c)


def _sagle_failure(M: MaltsevAlgebra, x: tuple) -> ConditionCheck | None:
    """The failing maltsev-identity check at the first (x, y, z), y and z over the
    basis in lexicographic order, for x = the sum of e_i over i in x; None if none.

    Sagle's identity (x*y)*(x*z) = ((x*y)*z)*x + ((y*z)*x)*x + ((z*x)*x)*y is
    read through x*e_k, e_k*x and (e_k*x)*x, made once per x; every term has
    degree 3 in the integer form, and all are zero where x*y, y*z and (z*x)*x are."""
    D, P, _ = M.form
    rng, u = range(M.n), tuple((i, 1) for i in x)
    X = [_times(P, u, ((k, 1),)) for k in rng]  # x*e_k
    Z = [_times(P, ((k, 1),), u) for k in rng]  # e_k*x
    W = [_times(P, Z[k], u) for k in rng]       # (e_k*x)*x
    for y, z in itertools.product(rng, repeat=2):
        Xz, Wz, Pyz = X[z], W[z], P[y][z]
        if not (X[y] or Wz or Pyz):  # every term is zero
            continue
        acc = [0] * M.n  # the sums written out, as _add_terms would add them
        for k, c in X[y]:
            Pk = P[k]
            for a, b in Xz:  # (x*y)*(x*z)
                for l, e in Pk[a]:
                    acc[l] += c * b * e
            for a, b in Pk[z]:  # ((x*y)*z)*x, (x*y)*z read through Z
                for l, e in Z[a]:
                    acc[l] -= c * b * e
        for k, c in Pyz:
            for l, e in W[k]:
                acc[l] -= c * e
        for k, c in Wz:
            for l, e in P[k][y]:
                acc[l] -= c * e
        if any(acc):
            return ConditionCheck("maltsev-identity", False, (x, y, z), _over(acc, D ** 3))
    return None


@_once_per_object
def verify_maltsev(M: MaltsevAlgebra) -> AxiomReport:
    """Check anticommutativity and the Maltsev identity.

    The identity is quadratic in the repeated slot x and linear in y, z;
    over Q it therefore vanishes identically iff it vanishes for x in
    {e_i} and {e_i + e_j : i < j} with y, z over the basis (polarization).
    The report is kept on M, so maltsev_to_bol after verify_maltsev does
    not scan again; anticommutativity is its kept ``_antisymmetry``.
    """
    rng = range(M.n)
    anti = replace(_antisymmetry(M)[0], name="anticommutativity")
    xs = [(i,) for i in rng] + list(itertools.combinations(rng, 2))
    identity = next(filter(None, (_sagle_failure(M, x) for x in xs)),
                    ConditionCheck("maltsev-identity", True))
    return AxiomReport((anti, identity))


def maltsev_to_bol(M: MaltsevAlgebra) -> BolAlgebra:
    """Bol algebra associated with a Maltsev algebra.

    Ternary product [x,y,z] = (1/3)(x*(y*z) - y*(x*z) + 2(x*y)*z), same
    binary product.  The input must pass verify_maltsev; otherwise the
    offending axiom report is raised.
    """
    _require_passed(verify_maltsev(M), "input is not a Maltsev algebra")
    D, P, _ = M.form
    # each term has degree 2 in the integer form, so the sum is 3 D**2 times the bracket;
    # with the product anticommutative both change sign with (i, j): i<j entries give them
    q = 3 * D * D
    ternary = [(args, terms) for args in entry_args(M.n, 3)
               if (terms := tuple((l, a, q) for l, a in enumerate(_bracket(P, *args, 2)) if a))]
    return _of_entries(BolAlgebra, M.n, _form_entries(D, P, 2, True), ternary, M.basis_names)


def _bracket(P: tuple, i: int, j: int, k: int, w: int) -> list:
    """e_i*(e_j*e_k) - e_j*(e_i*e_k) + w (e_i*e_j)*e_k in the integer form P (as
    in A.form), as the list of its ints: D**2 times the true vector."""
    acc = [0] * len(P)
    for a, c in P[j][k]:
        _add_terms(acc, c, P[i][a])
    for a, c in P[i][k]:
        _add_terms(acc, -c, P[j][a])
    for a, c in P[i][j]:
        _add_terms(acc, w * c, P[a][k])
    return acc
