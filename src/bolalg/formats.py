"""Text file formats (JSON syntax) for algebras, representations,
cochains, and extension bundles.

Scalars are always strings "p" or "p/q" -- never JSON numbers -- so no
generic tool can silently coerce them to floats.  Basis indices are
0-based everywhere.  Binary/ternary entries are listed only for i < j
(first two slots); the other half is filled by antisymmetry, which makes
the antisymmetry axioms unviolatable by well-formed files.

Rendering is canonical: entries sorted by argument tuple, zero
coefficients omitted, scalars in lowest terms.  parse(render(x)) == x for
every in-memory object, and render(parse(text)) is the canonical form of
the file.  A parser reads each scalar as the two ints it spells
(``_rational``) and checks each entry or matrix row once, as it reads it: an
algebra or a representation gets its stored integer form, no Fraction built.
The algebra and representation renderers read it too: c / D reduced by one gcd
(``_ratio_text``).

Every file and report is written by one writer, ``_dumps``: its text is byte
for byte that of ``json.dumps(obj, indent=2) + "\n"``, strings escaped by
json's own encoder, for the str-keyed dicts, lists, strs, ints, bools and
Nones a report holds; any other type raises TypeError.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
from fractions import Fraction

from .algebra import BolAlgebra, MaltsevAlgebra, _form_entries, _of_entries, entry_args
from .cohomology import CochainPair, _entry_coords
from .extension import AbelianExtension
from .linalg import _ZERO, Mat
from .representation import Representation, _rows_form

# ASCII decimals only: str.isdigit and int() also take other Unicode digits.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_INDEX_KEY = re.compile(r"0|-?[1-9][0-9]*")  # canonical: one spelling per integer
# Python's default int() limit on decimal digits; checked first, so a longer
# numerator or denominator is rejected with its path, not by int().
_MAX_DIGITS = 4300
# The largest dimension a file may declare, checked before anything is built: the
# adjoint module's matrix grids and the cochain space grow as its fourth power.
MAX_DIMENSION = 64
_INDEXES = {str(i): i for i in range(MAX_DIMENSION)}  # the index keys a value may name


class RenderOverflowError(OverflowError):
    """A result too long for Python's decimal conversion; not an input error."""


class ParseError(ValueError):
    """Malformed input file; message carries a JSON-path diagnostic."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


# ---------------------------------------------------------------------------
# scalars


def _rational(text, path: str) -> tuple[int, int]:
    """(p, q) for the text "p/q" or "p" (q = 1), q > 0, the fraction in any terms; any
    other value raises the ParseError at path."""
    if not isinstance(text, str):
        raise ParseError(path, f"rational must be a string, got {type(text).__name__}")
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ParseError(path, f"malformed rational {text!r}")
    if (len(text) > _MAX_DIGITS
            and max(len(part.lstrip("-")) for part in text.split("/")) > _MAX_DIGITS):
        raise ParseError(path, f"rational has a numerator or denominator longer than "
                               f"{_MAX_DIGITS} digits")
    num, den = match.groups()
    if den is not None and not den.strip("0"):
        raise ParseError(path, f"zero denominator in {text!r}")
    return int(num), int(den or 1)


def parse_scalar(text, path: str = "value") -> Fraction:
    if text == "0":  # most scalars of a dense file: the one shared zero
        return _ZERO
    return Fraction(*_rational(text, path))


def _overflow() -> RenderOverflowError:
    """The error for a scalar str() refuses: over sys.get_int_max_str_digits() digits."""
    return RenderOverflowError(f"the result has a numerator or denominator over "
                               f"{sys.get_int_max_str_digits():,} digits")


def render_scalar(x: Fraction) -> str:
    try:
        return str(x)
    except ValueError:
        raise _overflow() from None


def _ratio_text(c: int, D: int) -> str:
    """The text render_scalar gives Fraction(c, D), D > 0, read off the two ints."""
    g = math.gcd(c, D)
    return str(c // g) if g == D else f"{c // g}/{D // g}"


# ---------------------------------------------------------------------------
# low-level helpers


class _RepeatedKeys(dict):
    """A JSON object that names some key twice; ``key`` is the first such.

    JSON parsing keeps the last value of a repeated key.  Readers reject
    these objects instead of losing a value silently: ``_fields`` (the
    first read of every object with fields) and the index-map reader.
    """

    def __init__(self, pairs, key: str):
        super().__init__(pairs)
        self.key = key


def _object(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                return _RepeatedKeys(pairs, key)
            seen.add(key)
    return obj


def _loads(text: str) -> dict:
    try:
        obj = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ParseError("", f"invalid JSON at line {exc.lineno}, column {exc.colno}: "
                             f"{exc.msg}") from None
    except ValueError:  # int() refuses an integer literal over its digit limit
        raise ParseError("", f"invalid JSON: an integer literal is longer than "
                             f"{sys.get_int_max_str_digits()} digits") from None
    if not isinstance(obj, dict):
        raise ParseError("", "top-level value must be an object")
    return obj


# The fields of each kind of object with fields; any other key is an error.
_ALGEBRA_FIELDS = ("kind", "dimension", "basis_names", "binary", "ternary")
_ENTRY_FIELDS = ("args", "value")
_REPRESENTATION_FIELDS = ("module_dimension", "rho", "D", "theta")
_ACTION_FIELDS = ("module_dimension", "rho")
_COCHAIN_FIELDS = ("module_dimension", "nu", "omega")
_EXTENSION_FIELDS = ("base", "fiber_dimension", "hat", "i", "p", "sigma")


def _fields(obj: dict, path: str, known: tuple[str, ...]) -> dict:
    """``obj`` once it names each key at most once and only ``known`` keys."""
    if isinstance(obj, _RepeatedKeys):
        raise ParseError(f"{path}.{obj.key}", "duplicate key")
    for key in obj:
        if key not in known:
            raise ParseError(f"{path}.{key}", "unknown field")
    return obj


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ParseError(path, f"missing field {key!r}")
    return obj[key]


def _int_field(obj: dict, key: str, path: str) -> int:
    """A dimension field: an integer from 0 to MAX_DIMENSION."""
    val = _require(obj, key, path)
    if not isinstance(val, int) or isinstance(val, bool) or val < 0:
        raise ParseError(f"{path}.{key}", "must be an integer >= 0")
    if val > MAX_DIMENSION:
        raise ParseError(f"{path}.{key}", f"must be at most {MAX_DIMENSION}")
    return val


def _parse_terms(obj, dim: int, path: str) -> tuple:
    """The nonzeros ((k, p, q), ...) of a value {index: rational}, k ascending (_rational)."""
    if not isinstance(obj, dict):
        raise ParseError(path, "value must be an object mapping index to rational")
    if isinstance(obj, _RepeatedKeys):
        raise ParseError(f"{path}.{obj.key}", "duplicate index")
    terms = []
    for key, raw in obj.items():
        idx = _INDEXES.get(key)
        if idx is None or idx >= dim:
            if not _INDEX_KEY.fullmatch(key):
                raise ParseError(f"{path}.{key}",
                                 "index key must be a decimal string without leading zeros")
            raise ParseError(f"{path}.{key}", f"index out of range [0, {dim})")
        if raw != "0" and (pq := _rational(raw, f"{path}.{key}"))[0]:
            terms.append((idx, *pq))
    return tuple(sorted(terms))


def _parse_entries(obj: dict, key: str, arity: int, dim: int, value_dim: int,
                   parent: str) -> list:
    """The entries (args, terms) under ``key`` of the object at ``parent`` ("" for a file)."""
    raw = _require(obj, key, parent or "file")
    field = f"{parent}.{key}" if parent else key
    if not isinstance(raw, list):
        raise ParseError(field, "must be a list of entries")
    entries = []
    for pos, entry in enumerate(raw):
        path = f"{field}[{pos}]"
        if not isinstance(entry, dict):
            raise ParseError(path, "entry must be an object")
        args = _require(_fields(entry, path, _ENTRY_FIELDS), "args", path)
        if (not isinstance(args, list) or len(args) != arity
                or not all(isinstance(a, int) and not isinstance(a, bool)
                           for a in args)):
            raise ParseError(f"{path}.args", f"must be a list of {arity} integers")
        for a in args:
            if not 0 <= a < dim:
                raise ParseError(f"{path}.args", f"index {a} out of range [0, {dim})")
        if args[0] == args[1]:
            raise ParseError(f"{path}.args",
                             f"diagonal {'binary' if arity == 2 else 'ternary'} entry "
                             f"{tuple(args)}")
        if args[0] > args[1]:
            raise ParseError(f"{path}.args",
                             f"args {tuple(args)} must satisfy i<j in the first two slots")
        terms = _parse_terms(_require(entry, "value", path), value_dim, f"{path}.value")
        entries.append((tuple(args), terms))
    seen = set()
    for args, _ in entries:
        if args in seen:
            raise ParseError(field, f"duplicate entry {args}")
        seen.add(args)
    return entries


def _render_entries(entries) -> list:
    """Sparse entries from (args, terms) pairs in canonical (i<j) order, terms the
    nonzeros (value index, c, D) of value c / D, ints with D > 0, index ascending."""
    try:
        return [{"args": list(args), "value": {str(k): _ratio_text(c, D)
                                               for k, c, D in terms}}
                for args, terms in entries]
    except ValueError:
        raise _overflow() from None


def _matrix_rows(obj, rows: int, cols: int, path: str) -> list:
    """The rows of a rows x cols matrix by their nonzeros ((k, p, q), ...), k ascending,
    each scalar p/q as _rational reads it; read row by row, a row's shape first."""
    if not isinstance(obj, list) or len(obj) != rows:
        raise ParseError(path, f"matrix must have {rows} rows")
    out = []
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"{path}[{r}]", f"row must have {cols} entries")
        out.append(() if row.count("0") == cols else tuple(  # most rows of a module are 0
            (c, *pq) for c, x in enumerate(row)
            if x != "0" and (pq := _rational(x, f"{path}[{r}][{c}]"))[0]))
    return out


def _parse_matrix(obj, rows: int, cols: int, path: str) -> Mat:
    """The Mat of _matrix_rows, one Fraction a nonzero."""
    return Mat._of_rows(cols, tuple(tuple((c, Fraction(p, q)) for c, p, q in row)
                                    for row in _matrix_rows(obj, rows, cols, path)))


def _render_rows(cols: int, rows, text) -> list:
    """The rows of a matrix as lists of cols scalar texts, "0" off the nonzeros
    ((k, x), ...) of each row, text(x) at them."""
    out = []
    for row in rows:
        line = ["0"] * cols
        for k, x in row:
            line[k] = text(x)
        out.append(line)
    return out


def _render_matrix(m: Mat) -> list:
    return _render_rows(m.cols, m.nonzero_rows, render_scalar)


# ---------------------------------------------------------------------------
# the report writer

_escape = json.encoder.encode_basestring_ascii  # json's own string encoder (C)
_SCALARS = {str: _escape, int: int.__repr__, bool: {True: "true", False: "false"}.get,
            type(None): lambda _: "null"}


def _write(obj, newline: str, put) -> None:
    """put() the pieces of the text json.dumps(obj, indent=2) gives obj at the indent
    newline ends in.  Pieces are put one by one and joined once by _dumps: that
    allocates less than building a text per container, as most are small."""
    inner = newline + "  "
    sep = "," + inner
    if type(obj) is list:
        if not obj:
            put("[]")
            return
        put("[")
        lead = inner
        for v in obj:
            put(lead)
            lead = sep
            scalar = _SCALARS.get(type(v))
            if scalar:
                put(scalar(v))
            else:
                _write(v, inner, put)
        put(newline)
        put("]")
    elif type(obj) is dict:
        if not obj:
            put("{}")
            return
        put("{")
        lead = inner
        for k, v in obj.items():
            put(lead)
            lead = sep
            put(_escape(k))  # refuses a key that is not a str with TypeError
            put(": ")
            scalar = _SCALARS.get(type(v))
            if scalar:
                put(scalar(v))
            else:
                _write(v, inner, put)
        put(newline)
        put("}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dumps(obj) -> str:
    """The one report and file writer: exactly json.dumps(obj, indent=2) + "\n" for
    the str-keyed dicts, lists, strs, ints, bools and Nones of a report; any other
    type raises TypeError, and an int str() refuses its ValueError, as in json."""
    scalar = _SCALARS.get(type(obj))
    if scalar:
        return scalar(obj) + "\n"
    pieces = []
    _write(obj, "\n", pieces.append)
    pieces.append("\n")
    return "".join(pieces)


# ---------------------------------------------------------------------------
# algebras


def algebra_to_obj(A: BolAlgebra | MaltsevAlgebra) -> dict:
    obj = {
        "kind": "bol" if isinstance(A, BolAlgebra) else "maltsev",
        "dimension": A.n,
    }
    if A.basis_names:
        obj["basis_names"] = list(A.basis_names)
    D, P, T = A.form
    obj["binary"] = _render_entries(_form_entries(D, P, 2, True))
    if isinstance(A, BolAlgebra):
        obj["ternary"] = _render_entries(_form_entries(D, T, 3, True))
    return obj


def obj_to_algebra(obj: dict, path: str = "") -> BolAlgebra | MaltsevAlgebra:
    prefix = f"{path}." if path else ""
    where = path or "file"
    kind = _require(_fields(obj, where, _ALGEBRA_FIELDS), "kind", where)
    if kind not in ("bol", "maltsev"):
        raise ParseError(f"{prefix}kind", f"unknown kind {kind!r}")
    n = _int_field(obj, "dimension", where)
    names = obj.get("basis_names")
    if names is not None:
        if (not isinstance(names, list) or len(names) != n
                or not all(isinstance(s, str) for s in names)):
            raise ParseError(f"{prefix}basis_names",
                             f"must be a list of {n} strings")
    binary = _parse_entries(obj, "binary", 2, n, n, path)
    if kind == "maltsev":
        if "ternary" in obj:
            raise ParseError(f"{prefix}ternary",
                             "a maltsev file must not carry a ternary block")
        return _of_entries(MaltsevAlgebra, n, binary, (), names)
    ternary = _parse_entries(obj, "ternary", 3, n, n, path)
    return _of_entries(BolAlgebra, n, binary, ternary, names)


def parse_algebra(text: str) -> BolAlgebra | MaltsevAlgebra:
    return obj_to_algebra(_loads(text))


def render_algebra(A: BolAlgebra | MaltsevAlgebra) -> str:
    return _dumps(algebra_to_obj(A))


# ---------------------------------------------------------------------------
# representations


def representation_to_obj(R: Representation) -> dict:
    """The file object of R, rendered from its integer form: each entry c / D_R."""
    m, (DR, rho, D, theta) = R.m, R.form
    text = lambda c: _ratio_text(c, DR)
    try:
        return {
            "module_dimension": m,
            "rho": [_render_rows(m, rows, text) for rows in rho],
            "D": [[_render_rows(m, rows, text) for rows in row] for row in D],
            "theta": [[_render_rows(m, rows, text) for rows in row] for row in theta],
        }
    except ValueError:
        raise _overflow() from None


def _parse_mat_list(obj: dict, key: str, n: int, m: int, read=_matrix_rows) -> list:
    """The n m x m matrices listed under key, each read by read(obj, m, m, path)."""
    raw = _require(obj, key, "file")
    if not isinstance(raw, list) or len(raw) != n:
        raise ParseError(key, f"must list one {m}x{m} matrix per basis element ({n})")
    return [read(raw[i], m, m, f"{key}[{i}]") for i in range(n)]


def _parse_mat_grid(obj: dict, key: str, n: int, m: int) -> list:
    """The n x n m x m matrices of the grid under key, row by row, as _matrix_rows."""
    raw = _require(obj, key, "file")
    if not isinstance(raw, list) or len(raw) != n:
        raise ParseError(key, f"must be an {n}x{n} grid of matrices")
    grid = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{key}[{i}]", f"must be a row of {n} matrices")
        grid += (_matrix_rows(row[j], m, m, f"{key}[{i}][{j}]") for j in range(n))
    return grid


def parse_representation(text: str, base: BolAlgebra) -> Representation:
    """Full representation file: rho list plus explicit D and theta grids.

    D and theta must both be listed even though condition (R1) makes one
    derivable from the other; the verifier checks their consistency, which
    catches transcription errors in inputs.
    """
    obj = _fields(_loads(text), "file", _REPRESENTATION_FIELDS)
    m = _int_field(obj, "module_dimension", "file")
    n = base.n
    maps = (*_parse_mat_list(obj, "rho", n, m), *_parse_mat_grid(obj, "D", n, m),
            *_parse_mat_grid(obj, "theta", n, m))
    return Representation._of_form(base, m, _rows_form(n, m, [row for mat in maps for row in mat]))


def parse_action(text: str, n: int) -> tuple[int, tuple[Mat, ...]]:
    """Action file for induce-rep: module_dimension and rho only."""
    obj = _fields(_loads(text), "file", _ACTION_FIELDS)
    m = _int_field(obj, "module_dimension", "file")
    return m, tuple(_parse_mat_list(obj, "rho", n, m, _parse_matrix))


def render_action(m: int, rho: tuple[Mat, ...]) -> str:
    return _dumps({
        "module_dimension": m,
        "rho": [_render_matrix(mat) for mat in rho],
    })


def render_representation(R: Representation) -> str:
    return _dumps(representation_to_obj(R))


# ---------------------------------------------------------------------------
# cochains


def cochain_to_obj(c: CochainPair) -> dict:
    """The file object of c: its i<j entries, rendered from the stored Fractions in
    one walk over the nonzero coordinates (entry_args(n, 2) then (n, 3), m each)."""
    m, coords = c.m, c.coords()
    args_at = entry_args(c.n, 2) + entry_args(c.n, 3)
    obj = {"module_dimension": m, "nu": [], "omega": []}
    last = None
    try:
        for p in itertools.compress(range(len(coords)), coords):
            k, a = divmod(p, m)
            if k != last:
                value, last = {}, k
                obj["nu" if len(args_at[k]) == 2 else "omega"].append(
                    {"args": list(args_at[k]), "value": value})
            value[str(a)] = str(coords[p])
    except ValueError:  # as render_scalar
        raise _overflow() from None
    return obj


def obj_to_cochain(obj: dict, base: BolAlgebra) -> CochainPair:
    m = _int_field(_fields(obj, "file", _COCHAIN_FIELDS), "module_dimension", "file")
    nu_entries = _parse_entries(obj, "nu", 2, base.n, m, "")
    omega_entries = _parse_entries(obj, "omega", 3, base.n, m, "")
    return CochainPair._of_coords(base, m, _entry_coords(base.n, m, (nu_entries, omega_entries)))


def parse_cochain(text: str, base: BolAlgebra) -> CochainPair:
    return obj_to_cochain(_loads(text), base)


def render_cochain(c: CochainPair) -> str:
    return _dumps(cochain_to_obj(c))


# ---------------------------------------------------------------------------
# extension bundles


def extension_to_obj(E: AbelianExtension) -> dict:
    return {
        "base": algebra_to_obj(E.base),
        "fiber_dimension": E.m,
        "hat": algebra_to_obj(E.hat),
        "i": _render_matrix(E.i),
        "p": _render_matrix(E.p),
        "sigma": _render_matrix(E.sigma),
    }


def parse_extension(text: str) -> AbelianExtension:
    obj = _fields(_loads(text), "file", _EXTENSION_FIELDS)
    base_obj = _require(obj, "base", "file")
    if not isinstance(base_obj, dict):
        raise ParseError("base", "must be an algebra object")
    base = obj_to_algebra(base_obj, "base")
    if not isinstance(base, BolAlgebra):
        raise ParseError("base.kind", "extension base must be a bol algebra")
    m = _int_field(obj, "fiber_dimension", "file")
    hat_obj = _require(obj, "hat", "file")
    if not isinstance(hat_obj, dict):
        raise ParseError("hat", "must be an algebra object")
    hat = obj_to_algebra(hat_obj, "hat")
    if not isinstance(hat, BolAlgebra):
        raise ParseError("hat.kind", "extension total space must be a bol algebra")
    N = base.n + m
    if hat.n != N:
        raise ParseError("hat.dimension",
                         f"must equal base dimension + fiber dimension = {N}")
    i = _parse_matrix(_require(obj, "i", "file"), N, m, "i")
    p = _parse_matrix(_require(obj, "p", "file"), base.n, N, "p")
    sigma = _parse_matrix(_require(obj, "sigma", "file"), N, base.n, "sigma")
    return AbelianExtension(base, m, hat, i, p, sigma)


def render_extension(E: AbelianExtension) -> str:
    return _dumps(extension_to_obj(E))
