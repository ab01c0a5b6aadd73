"""Span tracing of bolalg from outside the package, and the per-layer metrics.

The layers are bolalg's modules.  ``Tracer.install`` rebinds each traced
public function to a wrapper, in its defining module and in every bolalg
module that imported it by name (``bolalg.cli`` imports almost all of
them), so a call is seen whichever name it goes through.  Modules are
looked up in ``sys.modules``: the package attribute ``bolalg.cohomology``
is the function of that name, not the module.  ``Tracer.restore`` puts
every original binding back.

A span records its name, job, parent span, start and end.  Functions
called too often for a span each (the multilinear evaluations, unit
cochain conversion, coboundary tensors) are only counted.  Statistics a
span records about its arguments and result (matrix shapes, nonzeros,
entry bit lengths) are computed after its end time is taken; the time they
take is charged to neither the span nor its parent.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

_perf = time.perf_counter


def _bits(entries) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for x in entries), default=0)


def _rref_stats(args, result):
    m = args[0]
    return {"rows": m.rows, "cols": m.cols,
            "nnz": sum(1 for x in m.entries if x),
            "max_bits": _bits(result.reduced.entries)}


def _shape_stats(args, result):
    return {"rows": args[0].rows, "cols": args[0].cols}


def _module_stats(args, result):
    return {"n": args[0].base.n, "m": args[0].m}


def _text_stats(args, result):
    return {"bytes": len(args[0])}


# module -> {function: (span name, statistics or None)}
SPANNED = {
    "bolalg.linalg": {
        "rref": ("linalg.rref", _rref_stats),
        "solve": ("linalg.solve", None),
        "kernel_basis": ("linalg.kernel_basis", _shape_stats),
        "inverse": ("linalg.inverse", None),
    },
    "bolalg.algebra": {
        "verify_bol": ("algebra.verify_bol", None),
        "verify_maltsev": ("algebra.verify_maltsev", None),
        "maltsev_to_bol": ("algebra.maltsev_to_bol", None),
    },
    "bolalg.representation": {
        "verify_representation": ("representation.verify_representation", None),
        "check_delta_identity": ("representation.check_delta_identity", None),
        "pseudoderivation_space": ("representation.pseudoderivation_space", None),
    },
    "bolalg.cohomology": {
        "cohomology": ("cohomology.cohomology", _module_stats),
        "solve_coboundary": ("cohomology.solve_coboundary", None),
        "is_cocycle": ("cohomology.is_cocycle", None),
    },
    "bolalg.extension": {
        "validate_extension": ("extension.validate_extension", None),
        "extensions_equivalent": ("extension.extensions_equivalent", None),
        "induced_representation": ("extension.induced_representation", None),
        "induced_cocycle": ("extension.induced_cocycle", None),
        "twisted_product": ("extension.twisted_product", None),
    },
    "bolalg.deformation": {
        "generates_infinitesimal_deformation":
            ("deformation.generates_infinitesimal_deformation", None),
        "check_first_order_formal": ("deformation.check_first_order_formal", None),
        "first_order_equivalent": ("deformation.first_order_equivalent", None),
    },
    "bolalg.formats": dict(
        {f: ("formats.parse", _text_stats) for f in (
            "parse_algebra", "parse_representation", "parse_cochain",
            "parse_extension", "parse_action")},
        **{f: ("formats.render", None) for f in (
            "algebra_to_obj", "representation_to_obj", "cochain_to_obj",
            "extension_to_obj", "render_algebra", "render_representation",
            "render_cochain", "render_extension")}),
}

# module -> {function: counter name}
COUNTED = {
    "bolalg.algebra": {"bilinear_eval": "algebra.eval", "trilinear_eval": "algebra.eval"},
    "bolalg.cohomology": {"coords_to_cochain": "cohomology.coords_to_cochain"},
    "bolalg.representation": {"coboundary_tensors": "representation.coboundary_tensors"},
}


class Tracer:
    """Records spans in memory; ``spans[i]`` is [name, job, parent, start,
    end, stats_end, stats], where stats_end - start is the interval the span
    covers inside its parent (its own duration plus its statistics)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def call(self, name, fn, args, kwargs=None, stats=None):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        record = [name, self.job, self._stack[-1] if self._stack else None,
                  0.0, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        start = _perf()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = _perf()
            self._stack.pop()
            record[3] = start
            record[4] = record[5] = end
        if stats is not None:
            record[6] = stats(args, result)
            record[5] = _perf()
        return result

    def _span_wrapper(self, name, fn, stats):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, stats)
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "bolalg" or key.startswith("bolalg."))]
        plan = [(mod, fn, self._span_wrapper(name, getattr(sys.modules[mod], fn), stats))
                for mod, fns in SPANNED.items() for fn, (name, stats) in fns.items()]
        plan += [(mod, fn, self._count_wrapper(name, getattr(sys.modules[mod], fn)))
                 for mod, fns in COUNTED.items() for fn, name in fns.items()]
        for mod, fn, wrapper in plan:
            original = getattr(sys.modules[mod], fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the intervals its child spans cover."""
    covered = [0.0] * len(spans)
    for name, job, parent, start, end, stats_end, stats in spans:
        if parent is not None:
            covered[parent] += stats_end - start
    return [s[4] - s[3] - covered[i] for i, s in enumerate(spans)]


# The per-layer metrics: name -> (unit, better).
SUBCOMMANDS = ("verify", "maltsev-to-bol", "verify-rep", "delta-check",
               "pseudoderivations", "cohomology", "is-cocycle", "is-coboundary",
               "deform-check", "deform-formal", "deform-equiv", "extend-build",
               "extend-analyze", "extend-equiv")
_SELF_TIMED = (
    "cohomology.cohomology", "cohomology.solve_coboundary", "cohomology.is_cocycle",
    "linalg.rref", "linalg.solve",
    "algebra.verify_bol", "algebra.verify_maltsev", "algebra.maltsev_to_bol",
    "representation.verify_representation", "representation.check_delta_identity",
    "representation.pseudoderivation_space",
    "extension.validate_extension", "extension.extensions_equivalent",
    "extension.induced_representation", "extension.induced_cocycle",
    "extension.twisted_product",
    "deformation.generates_infinitesimal_deformation",
    "deformation.check_first_order_formal", "deformation.first_order_equivalent",
    "formats.parse", "formats.render",
)
_CALLED = ("linalg.rref", "linalg.solve", "linalg.kernel_basis", "linalg.inverse",
           "algebra.verify_bol", "extension.validate_extension",
           "cohomology.solve_coboundary")
PER_LAYER = dict(
    {f"{name}.self_s": ("s", "lower") for name in _SELF_TIMED},
    **{f"{name}.calls": ("count", "lower") for name in _CALLED + tuple(
        sorted(set(n for fns in COUNTED.values() for n in fns.values())))},
    **{
        "cohomology.rows_kept_frac": ("ratio", "lower"),
        "linalg.rref.cells": ("count", "lower"),
        "linalg.rref.nnz_frac": ("ratio", "lower"),
        "linalg.rref.max_bits": ("bits", "lower"),
        "extension.validations_per_bundle": ("count", "lower"),
        "formats.bytes_in": ("bytes", "lower"),
        "formats.bytes_out": ("bytes", "lower"),
        "cli.self_s": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
    },
    **{f"cli.{sub}.s": ("s", "lower") for sub in SUBCOMMANDS},
)


def layer_metrics(spans, counts, passes: int, bundles: int, bytes_out: int,
                  overhead_s: float) -> dict[str, float]:
    """Per-pass values of every PER_LAYER metric from one or more traced
    passes.  The root span of each job is named ``cli.<subcommand>``."""
    selfs = self_times(spans)
    total = defaultdict(float)
    calls = Counter()
    children = defaultdict(list)
    for i, (name, job, parent, start, end, stats_end, stats) in enumerate(spans):
        total[name] += selfs[i]
        calls[name] += 1
        if parent is not None:
            children[parent].append(i)

    out = {key: 0.0 for key in PER_LAYER}
    for name in _SELF_TIMED:
        out[f"{name}.self_s"] = total[name] / passes
    for name in _CALLED:
        out[f"{name}.calls"] = calls[name] / passes
    for name, value in counts.items():
        out[f"{name}.calls"] = value / passes

    kept = possible = 0
    cells = nnz = max_bits = 0
    parsed = 0
    for i, (name, job, parent, start, end, stats_end, stats) in enumerate(spans):
        if name == "cohomology.cohomology":
            # the first matrix cohomology() hands to kernel_basis is the
            # assembled CC1-CC3 constraint matrix
            first = next((c for c in children[i]
                          if spans[c][0] == "linalg.kernel_basis"), None)
            if first is not None:
                kept += spans[first][6]["rows"]
            n = stats["n"]
            possible += (n ** 3 + n ** 4 + n ** 5) * stats["m"]
        elif name == "linalg.rref":
            cells += stats["rows"] * stats["cols"]
            nnz += stats["nnz"]
            max_bits = max(max_bits, stats["max_bits"])
        elif name == "formats.parse":
            parsed += stats["bytes"]
        elif name.startswith("cli."):
            out[f"{name}.s"] += (end - start) / passes
            out["cli.self_s"] += selfs[i] / passes
    out["cohomology.rows_kept_frac"] = kept / possible if possible else 0.0
    out["linalg.rref.cells"] = cells / passes
    out["linalg.rref.nnz_frac"] = nnz / cells if cells else 0.0
    out["linalg.rref.max_bits"] = float(max_bits)
    out["extension.validations_per_bundle"] = (
        calls["extension.validate_extension"] / bundles if bundles else 0.0)
    out["formats.bytes_in"] = parsed / passes
    out["formats.bytes_out"] = bytes_out / passes
    out["trace.overhead_s"] = overhead_s
    return out
