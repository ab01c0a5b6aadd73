"""Command-line frontend.

One subcommand per library operation; every command reads JSON input
files, prints a deterministic report (text by default, a machine-readable
object with --json), and exits 0 when the property holds or the
construction succeeded, 1 when the property fails (the report carries the
witness), 2 on input errors, and 3 on an internal error (an unexpected
exception, such as a failed bookkeeping check; the traceback goes to
stderr).

The subcommands are declared once, in ``_COMMANDS``.  The top-level parser
lists them from that table, and each subcommand's parser is built from its
row when that subcommand is first parsed (or anything is first read of it
that only the build sets), so a run builds only the one it runs.  Each
handler returns ``(status, fields, text)``, ``text`` a thunk
that builds the report's text lines; ``main`` calls it only for a text
report, wraps the fields in the report envelope ``{"command", "status",
...}`` and ``_emit`` prints every report.
"""

from __future__ import annotations

import _thread
import argparse
import functools
import sys
from collections.abc import Callable

from .algebra import (
    BolAlgebra,
    CheckReport,
    MaltsevAlgebra,
    VerificationError,
    _require_passed,
    maltsev_to_bol,
    verify_bol,
    verify_maltsev,
)
from .cohomology import (
    CochainPair,
    cohomology,
    is_coboundary,
    is_cocycle,
)
from .deformation import (
    DeformationDatum,
    check_first_order_formal,
    first_order_equivalent,
    generates_infinitesimal_deformation,
)
from .extension import (
    InvalidExtensionError,
    extensions_equivalent,
    induced_cocycle,
    induced_representation,
    twisted_product,
    validate_extension,
)
from .formats import (
    ParseError,
    _dumps,
    _render_matrix,
    algebra_to_obj,
    cochain_to_obj,
    extension_to_obj,
    parse_action,
    parse_algebra,
    parse_cochain,
    parse_extension,
    parse_representation,
    render_scalar,
    representation_to_obj,
)
from .linalg import Mat, Vec, record
from .representation import (
    Representation,
    adjoint_representation,
    check_delta_identity,
    induce_from_maltsev,
    pseudoderivation_space,
    verify_representation,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3
_EXIT_CODES = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "error": EXIT_ERROR,
               "internal-error": EXIT_INTERNAL}


# ---------------------------------------------------------------------------
# report rendering


def _witness_json(w):
    if w is None:
        return None
    return [_witness_json(x) if isinstance(x, tuple) else x for x in w]


def _vec_json(v: Vec | None):
    if v is None:
        return None
    return [render_scalar(x) for x in v]


def _checks_json(report: CheckReport):
    return [
        {
            "name": c.name,
            "passed": c.passed,
            "witness": _witness_json(c.witness),
            "residual": _vec_json(c.residual),
        }
        for c in report.checks
    ]


def _vec_text(v: Vec) -> str:
    return "(" + ", ".join(render_scalar(x) for x in v) + ")"


def _check_lines(report: CheckReport) -> list[str]:
    lines = []
    for c in report.checks:
        if c.passed:
            lines.append(f"{c.name}: pass")
        else:
            lines.append(f"{c.name}: FAIL at witness={c.witness}; "
                         f"residual={_vec_text(c.residual)}")
    return lines


def _cochain_lines(c: CochainPair) -> list[str]:
    lines = []
    for name, arity in (("nu", 2), ("omega", 3)):
        for args, val in c.entries(arity):
            if any(val):
                slots = ",".join(f"e{x}" for x in args)
                lines.append(f"  {name}({slots}) = {_vec_text(val)}")
    if not lines:
        lines.append("  (zero cochain)")
    return lines


def _mat_text(m: Mat) -> str:
    return "[" + ", ".join(
        "[" + ", ".join(render_scalar(x) for x in m.row(r)) + "]"
        for r in range(m.rows)
    ) + "]"


def _emit(obj: dict, lines: list[str], as_json: bool) -> None:
    """Print a report: the JSON object on stdout, or else its text lines,
    which go to stdout for a verdict and to stderr for an error."""
    if as_json:
        sys.stdout.write(_dumps(obj))
    else:
        print("\n".join(lines),
              file=sys.stdout if obj["status"] in ("pass", "fail") else sys.stderr)


# ---------------------------------------------------------------------------
# input loading


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(path, f"cannot read file: {exc.strerror}") from None


_ALGEBRA_TYPES = {"bol": BolAlgebra, "maltsev": MaltsevAlgebra}


def _load_algebra(path: str, kind: str = "bol") -> BolAlgebra | MaltsevAlgebra:
    """The algebra in ``path``, which must be of the given kind."""
    alg = parse_algebra(_read(path))
    if not isinstance(alg, _ALGEBRA_TYPES[kind]):
        raise ParseError(path, f"expected a {kind} algebra file")
    return alg


def _load_with_representation(args) -> tuple[BolAlgebra, Representation]:
    """The verified algebra ``args.algebra`` and its verified --adjoint/--rep module."""
    B = _load_algebra(args.algebra)
    _require_passed(verify_bol(B), "algebra fails Bol verification")
    if args.adjoint:
        return B, adjoint_representation(B)
    R = parse_representation(_read(args.rep), B)
    _require_passed(verify_representation(R), "representation fails verification")
    return B, R


def _load_deformation(args, B: BolAlgebra, attr: str = "cochain") -> DeformationDatum:
    c = parse_cochain(_read(getattr(args, attr)), B)
    if c.m != B.n:
        raise ParseError(getattr(args, attr),
                         "deformation data needs module_dimension equal to the "
                         "algebra dimension (adjoint coefficients)")
    return DeformationDatum(B, c)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (status, report fields, text), text() the
# report's text lines, built only when a text report is printed


def _verdict(passed: bool, fields: dict, text: Callable[[], list[str]]):
    """(status, fields, text) of a command that decides a property; the
    last text line states the result."""
    status = "pass" if passed else "fail"
    return status, fields, lambda: text() + [f"result: {status.upper()}"]


def _check_result(report: CheckReport, fields: dict, header: list[str]):
    """The verdict of a command that reports one CheckReport: ``fields`` go
    before the checks, the ``header`` lines before the check lines."""
    return _verdict(report.passed, {**fields, "checks": _checks_json(report)},
                    lambda: header + _check_lines(report))


def _write_output(args, value: dict, fields: dict, text: Callable[[], list[str]]):
    """The (status, fields, text) of a construction that succeeded; with -o
    it first writes ``value``, an object the report embeds, to the file."""
    if not args.output:
        return "pass", fields, text
    try:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(_dumps(value))
    except OSError as exc:
        raise ParseError(args.output, f"cannot write file: {exc.strerror}") from None
    fields["output"] = args.output
    return "pass", fields, lambda: text() + [f"written: {args.output}"]


def _cmd_verify(args):
    alg = parse_algebra(_read(args.algebra))
    kind = "bol" if isinstance(alg, BolAlgebra) else "maltsev"
    report = verify_bol(alg) if kind == "bol" else verify_maltsev(alg)
    return _check_result(report, {"kind": kind, "dimension": alg.n},
                         [f"algebra: {args.algebra} ({kind}, dimension {alg.n})"])


def _cmd_maltsev_to_bol(args):
    M = _load_algebra(args.algebra, "maltsev")
    B = maltsev_to_bol(M)
    fields = {"dimension": B.n, "algebra": algebra_to_obj(B)}
    return _write_output(args, fields["algebra"], fields, lambda: [
        f"maltsev algebra: {args.algebra} (dimension {M.n})",
        "associated bol algebra constructed; axioms verified"])


def _cmd_adjoint(args):
    B = _load_algebra(args.algebra)
    R = adjoint_representation(B)
    fields = {"dimension": B.n, "module_dimension": R.m,
              "representation": representation_to_obj(R)}
    return _write_output(args, fields["representation"], fields, lambda: [
        f"algebra: {args.algebra} (bol, dimension {B.n})",
        f"adjoint representation on module of dimension {R.m}"])


def _cmd_induce_rep(args):
    M = _load_algebra(args.algebra, "maltsev")
    m, rho = parse_action(_read(args.action), M.n)
    # no matrix of an action of the zero algebra carries m
    R = induce_from_maltsev(M, rho) if M.n else Representation.zero(maltsev_to_bol(M), m)
    fields = {"dimension": M.n, "module_dimension": m,
              "representation": representation_to_obj(R)}
    return _write_output(args, fields["representation"], fields, lambda: [
        f"maltsev algebra: {args.algebra} (dimension {M.n})",
        f"action file: {args.action} (module dimension {m})",
        "induced representation of the associated bol algebra constructed",
    ])


def _cmd_verify_rep(args):
    B = _load_algebra(args.algebra)
    _require_passed(verify_bol(B), "algebra fails Bol verification")
    R = parse_representation(_read(args.rep), B)
    return _check_result(verify_representation(R),
                         {"dimension": B.n, "module_dimension": R.m},
                         [f"algebra: {args.algebra} (bol, dimension {B.n})",
                          f"representation: {args.rep} (module dimension {R.m})"])


def _cmd_delta_check(args):
    B, R = _load_with_representation(args)
    return _check_result(check_delta_identity(R),
                         {"dimension": B.n, "module_dimension": R.m},
                         [f"algebra: {args.algebra} (bol, dimension {B.n})"])


def _cmd_pseudoderivations(args):
    B, R = _load_with_representation(args)
    basis = pseudoderivation_space(R)
    fields = {
        "dimension": B.n,
        "module_dimension": R.m,
        "pseudoderivation_dimension": len(basis),
        "pseudoderivation_basis": [
            {"f": _render_matrix(p.f), "chi": _vec_json(p.chi)} for p in basis
        ],
    }
    return "pass", fields, lambda: [
        f"algebra: {args.algebra} (bol, dimension {B.n})",
        f"pseudoderivation space dimension: {len(basis)}",
        *(f"basis[{idx}]: f = {_mat_text(p.f)}, chi = {_vec_text(p.chi)}"
          for idx, p in enumerate(basis))]


def _cmd_cohomology(args):
    B, R = _load_with_representation(args)
    rep = cohomology(R)
    fields = {
        "dimension": rep.n,
        "module_dimension": rep.m,
        "dim_C": rep.dim_C,
        "dim_Z": rep.dim_Z,
        "dim_B": rep.dim_B,
        "dim_H": rep.dim_H,
        "z_basis": [cochain_to_obj(c) for c in rep.z_basis],
        "b_basis": [cochain_to_obj(c) for c in rep.b_basis],
        "h_representatives": [cochain_to_obj(c) for c in rep.h_representatives],
    }

    def text():
        lines = [
            f"algebra: {args.algebra} (bol, dimension {B.n})",
            f"module dimension: {rep.m}",
            f"dim_C = {rep.dim_C}",
            f"dim_Z = {rep.dim_Z}",
            f"dim_B = {rep.dim_B}",
            f"dim_H = {rep.dim_H}",
        ]
        for idx, c in enumerate(rep.h_representatives):
            lines.append(f"h_representative[{idx}]:")
            lines += _cochain_lines(c)
        return lines
    return "pass", fields, text


def _cmd_is_cocycle(args):
    B, R = _load_with_representation(args)
    c = parse_cochain(_read(args.cochain), B)
    return _check_result(is_cocycle(R, c),
                         {"dimension": B.n, "module_dimension": c.m},
                         [f"cochain: {args.cochain}"])


def _cmd_is_coboundary(args):
    B, R = _load_with_representation(args)
    c = parse_cochain(_read(args.cochain), B)
    found, wit = is_coboundary(R, c)
    fields = {
        "dimension": B.n,
        "module_dimension": c.m,
        "coboundary": found,
        "witness": None if wit is None else
        {"f": _render_matrix(wit.f), "chi": _vec_json(wit.chi)},
    }
    return _verdict(found, fields, lambda: [f"cochain: {args.cochain}", *(
        ["coboundary: yes", f"witness f = {_mat_text(wit.f)}",
         f"witness chi = {_vec_text(wit.chi)}"] if found else
        ["coboundary: no (system inconsistent)"])])


def _cmd_deform_check(args):
    B = _load_algebra(args.algebra)
    d = _load_deformation(args, B)
    rep = generates_infinitesimal_deformation(d)
    fields = {
        "dimension": B.n,
        "deformation_type_checks": _checks_json(rep.deformation_type),
        "cocycle_checks": _checks_json(rep.cocycle),
        "sampling": [
            {"t": render_scalar(t), "passed": r.passed} for t, r in rep.sampling
        ],
        "routes_agree": rep.routes_agree,
    }

    def text():
        lines = [f"cochain: {args.cochain}", "deformation-type conditions:"]
        lines += ["  " + s for s in _check_lines(rep.deformation_type)]
        lines.append("cocycle conditions (adjoint coefficients):")
        lines += ["  " + s for s in _check_lines(rep.cocycle)]
        lines.append("t-sampling cross-check (t in {1, 2, 3, 5}):")
        for t, r in rep.sampling:
            lines.append(f"  t={render_scalar(t)}: {'pass' if r.passed else 'FAIL'}")
        lines.append(f"routes agree: {'yes' if rep.routes_agree else 'NO'}")
        return lines
    return _verdict(rep.passed, fields, text)


def _cmd_deform_formal(args):
    B = _load_algebra(args.algebra)
    d = _load_deformation(args, B)
    return _check_result(check_first_order_formal(d), {"dimension": B.n},
                         [f"cochain: {args.cochain}"])


def _cmd_deform_equiv(args):
    B = _load_algebra(args.algebra)
    d1 = _load_deformation(args, B, "cochain1")
    d2 = _load_deformation(args, B, "cochain2")
    res = first_order_equivalent(B, d1, d2)
    fields = {
        "dimension": B.n,
        "equivalent": res.equivalent,
        "phi": None if res.phi is None else _render_matrix(res.phi),
        "routes_agree": res.routes_agree,
    }
    return _verdict(res.equivalent, fields, lambda: [
        f"data: {args.cochain1} vs {args.cochain2}",
        *(["equivalent at first order: yes", f"phi = {_mat_text(res.phi)}"]
          if res.equivalent else ["equivalent at first order: no (linear system inconsistent)"]),
        f"routes agree: {'yes' if res.routes_agree else 'NO'}"])


def _cmd_extend_build(args):
    B, R = _load_with_representation(args)
    c = parse_cochain(_read(args.cochain), B)
    E = twisted_product(R, c)
    fields = {"dimension": B.n, "module_dimension": R.m,
              "extension": extension_to_obj(E)}
    return _write_output(args, fields["extension"], fields, lambda: [
        f"algebra: {args.algebra} (bol, dimension {B.n})",
        f"cocycle: {args.cochain}",
        f"twisted product built: dimension {E.hat.n}, axioms verified",
    ])


def _cmd_extend_analyze(args):
    E = parse_extension(_read(args.bundle))
    status, fields, checked = _check_result(
        validate_extension(E), {"dimension": E.base.n, "module_dimension": E.m},
        [f"bundle: {args.bundle}"])
    if status == "fail":
        return status, fields, checked
    R = induced_representation(E)
    c = induced_cocycle(E)
    analysis = {"representation": representation_to_obj(R), "cochain": cochain_to_obj(c)}
    fields.update(analysis)

    def text():
        *lines, result = checked()
        lines.append("induced representation:")
        lines += [f"  rho(e{i}) = {_mat_text(R.rho[i])}" for i in range(E.base.n)]
        lines.append("induced cocycle:")
        lines += _cochain_lines(c)
        return lines + [result]
    return _write_output(args, analysis, fields, text)


def _cmd_extend_equiv(args):
    E1 = parse_extension(_read(args.bundle1))
    E2 = parse_extension(_read(args.bundle2))
    res = extensions_equivalent(E1, E2)
    fields = {
        "dimension": E1.base.n,
        "module_dimension": E1.m,
        "equivalence_status": res.status,
        "cohomologous": res.cohomologous,
        "phi": None if res.phi is None else _render_matrix(res.phi),
    }
    return _verdict(res.equivalent, fields, lambda: [
        f"bundles: {args.bundle1} vs {args.bundle2}",
        f"status: {res.status}",
        f"cohomologous: {'yes' if res.cohomologous else 'no'}",
        *([] if res.phi is None else [f"phi = {_mat_text(res.phi)}"])])


# ---------------------------------------------------------------------------
# the subcommand table and the parser


@record
class _Command:
    handler: Callable
    help: str
    positionals: tuple       # argument names, or (name, help) pairs
    rep_source: bool = False  # takes the --adjoint | --rep FILE group
    output: str | None = None  # help of -o, for commands that write a file


_COMMANDS = {
    "verify": _Command(_cmd_verify, "verify the axioms of an algebra file",
                       ("algebra",)),
    "maltsev-to-bol": _Command(
        _cmd_maltsev_to_bol, "construct the Bol algebra associated with a Maltsev algebra",
        ("algebra",), output="write the constructed algebra here"),
    "adjoint": _Command(_cmd_adjoint, "construct the adjoint representation",
                        ("algebra",), output="write the representation here"),
    "induce-rep": _Command(
        _cmd_induce_rep, "induce a Bol representation from a Maltsev action",
        (("algebra", "maltsev algebra file"),
         ("action", "action file (module_dimension + rho)")),
        output="write the representation here"),
    "verify-rep": _Command(_cmd_verify_rep, "verify a representation file",
                           ("algebra", "rep")),
    "delta-check": _Command(
        _cmd_delta_check, "check the Delta commutator identity of a representation",
        ("algebra",), rep_source=True),
    "pseudoderivations": _Command(
        _cmd_pseudoderivations, "basis of the pseudoderivation space (maps with companion)",
        ("algebra",), rep_source=True),
    "cohomology": _Command(_cmd_cohomology, "dimensions and bases of the (2,3)-cohomology",
                           ("algebra",), rep_source=True),
    "is-cocycle": _Command(_cmd_is_cocycle, "test the cocycle conditions",
                           ("algebra", "cochain"), rep_source=True),
    "is-coboundary": _Command(_cmd_is_coboundary, "test for a coboundary witness (f, chi)",
                              ("algebra", "cochain"), rep_source=True),
    "deform-check": _Command(
        _cmd_deform_check, "does the pair generate a t-parameter infinitesimal deformation?",
        ("algebra", "cochain")),
    "deform-formal": _Command(_cmd_deform_formal,
                              "first-order formal deformation closure equations",
                              ("algebra", "cochain")),
    "deform-equiv": _Command(_cmd_deform_equiv,
                             "first-order equivalence of two deformation data",
                             ("algebra", "cochain1", "cochain2")),
    "extend-build": _Command(
        _cmd_extend_build, "build the twisted-product extension of a cocycle",
        ("algebra", "cochain"), rep_source=True, output="write the extension bundle here"),
    "extend-analyze": _Command(
        _cmd_extend_analyze, "validate an extension bundle and read off its data",
        ("bundle",), output="write the induced representation and cocycle here"),
    "extend-equiv": _Command(_cmd_extend_equiv, "equivalence of two extension bundles",
                             ("bundle1", "bundle2")),
}


# held while a subcommand's parser is built: reentrant, so a read of an attribute
# that the build itself makes before setting it finds the build under way
_BUILD_LOCK = _thread.RLock()
_BUILDING = ()


class _Parser(argparse.ArgumentParser):
    """The bolalg parser and, through ``add_subparsers``, each subcommand's: a
    subcommand's ``ArgumentParser.__init__`` and the arguments of its ``_COMMANDS``
    row wait until it is first parsed, or until argparse or a caller first reads
    an attribute it lacks (``__getattr__``), so it answers as a parser built up
    front whatever is read of it.  The build runs once, under ``_BUILD_LOCK``,
    and ``_row`` is cleared only when it is done, so a second thread waits for
    it; a build that raises is run again in full by the next read.  One class
    for both keeps argparse's attribute reads on one type (on Python 3.11 a
    second class made each parse 2-3 us slower)."""

    _row = None  # (command, args, kwargs) until built, _BUILDING while built

    def __init__(self, *args, command: _Command | None = None, **kwargs):
        if command is None:
            super().__init__(*args, **kwargs)
        else:
            self._row = (command, args, kwargs)

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks
        self._build()
        return object.__getattribute__(self, name)

    def parse_known_args(self, args=None, namespace=None):
        if self._row is not None:
            self._build()
        return super().parse_known_args(args, namespace)

    def _build(self) -> None:
        with _BUILD_LOCK:
            row = self._row
            if row is None or row is _BUILDING:
                return
            self._row = _BUILDING
            try:
                command, args, kwargs = row
                super().__init__(*args, **kwargs)
                self.add_argument("--json", action="store_true",
                                  help="emit a machine-readable JSON report")
                for arg in command.positionals:
                    arg_name, arg_help = (arg, None) if isinstance(arg, str) else arg
                    self.add_argument(arg_name, help=arg_help)
                if command.rep_source:
                    group = self.add_mutually_exclusive_group(required=True)
                    group.add_argument("--adjoint", action="store_true",
                                       help="use the adjoint representation")
                    group.add_argument("--rep", metavar="FILE",
                                       help="representation file over the algebra")
                if command.output:
                    self.add_argument("-o", "--output", help=command.output)
            except BaseException:
                self._row = row
                raise
            self._row = None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The bolalg parser, built once per process: help text reads the terminal
    width when it is printed.  Its help, choices and errors come from the
    ``_COMMANDS`` table; a subcommand's own parser is built from its row, once
    and under a lock, when that subcommand is first parsed or read (``_Parser``),
    and parsing changes nothing after that, so threads may share the parser."""
    parser = _Parser(
        prog="bolalg",
        description="Exact computations with Bol algebras: verification, "
                    "representations, (2,3)-cohomology, deformations, and "
                    "abelian extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub.add_parser(name, help=command.help, command=command)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status, fields, text = _COMMANDS[args.command].handler(args)
        lines = [] if args.json else text()  # in the try: a text too long to print is exit 3
    except (VerificationError, InvalidExtensionError) as exc:
        status, fields, lines = "fail", {"message": str(exc)}, [f"FAIL: {exc}"]
        if exc.report is not None:
            fields["checks"] = _checks_json(exc.report)
            if not args.json:
                lines += _check_lines(exc.report)
    except (ParseError, ValueError) as exc:
        status, fields, lines = "error", {"message": str(exc)}, [f"error: {exc}"]
    except Exception as exc:  # a library bug must not read as "property fails"
        import traceback  # only a crash needs it; importing it costs every start 2 ms

        traceback.print_exc()
        message = f"{type(exc).__name__}: {exc}"
        status, fields, lines = "internal-error", {"message": message}, [
            f"internal error: {message}"]
    _emit({"command": args.command, "status": status, **fields}, lines, args.json)
    return _EXIT_CODES[status]


if __name__ == "__main__":
    sys.exit(main())
