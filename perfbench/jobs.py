"""The job lists of the three workloads.

A job is one call ``bolalg <command> <files> ... --json``: the files it
reads, what its report must say, and the shape of its input.  Every job
draws its own basis from (seed, pass, job name), so no two jobs of a run
read the same file content and a cache keyed on the input cannot serve a
later job, in the same pass or in the next one.  "Sparse" jobs use the
canonical basis with each vector rescaled by a seeded factor, which keeps
every zero structure constant (and so every witness position) in place;
"dense" jobs use a seeded random rational basis (``gen.dense_basis``).

File names in a job's argv are relative to the run directory, and jobs
run with it as the current directory, so no report depends on where the
benchmark runs (``extend-build`` copies its ``-o`` path into its report).

Expected values are invariants of the construction, never outputs of the
code under test: cohomology dimensions do not depend on the basis (the
values below were measured on the canonical bases), a planted defect
fixes the first failing condition and its witness, and each pair of
extensions or deformations is built equivalent or not.
"""

from __future__ import annotations

import itertools
import os
import re
from fractions import Fraction

import gen

# Distinct rationals in (1, 2) in order of denominator, so the salts stay
# a few bits long.
SALTS = [Fraction(p, q) for q in range(2, 80) for p in range(q + 1, 2 * q)
         if Fraction(p, q).denominator == q]
SALTS_PER_PASS = 64


class PassWriter:
    """Writes the input files of one pass and collects its jobs."""

    def __init__(self, workdir: str, seed: int, pass_index: int):
        self.workdir = workdir
        self.dir = f"p{pass_index}"
        os.makedirs(os.path.join(workdir, self.dir), exist_ok=True)
        self.seed = seed
        self.pass_index = pass_index
        self.jobs: list[dict] = []

    def rng(self, name: str, what: str):
        return gen.rng_for(self.seed, self.pass_index, name, what)

    def basis(self, name: str, n: int, dense: bool):
        """Seeded basis of one job.  Its first vector is also scaled by a
        salt in (1, 2) that no other job of the run gets: seeded factors
        differ by powers of two at most, so no two jobs of a run see the
        same structure constants (b2 has few other choices)."""
        rng = self.rng(name, "basis")
        T, Tinv = gen.dense_basis(rng, n) if dense else gen.diagonal_basis(rng, n)
        q = SALTS[self.pass_index * SALTS_PER_PASS + len(self.jobs)]
        return ([[x * q if j == 0 else x for j, x in enumerate(row)] for row in T],
                [[x / q for x in row] if i == 0 else row for i, row in enumerate(Tinv)])

    def path(self, name: str, suffix: str) -> str:
        """A file of this pass, relative to the run directory."""
        return f"{self.dir}/{name}.{suffix}"

    def add(self, name, command, files, flags=(), expect=None, n=0, m=0,
            outputs=()):
        """Write ``files`` and record the job (at most SALTS_PER_PASS a pass).

        Each file is (suffix, JSON object) for a positional argument or
        (suffix, JSON object, option) for one passed as ``option path``.
        """
        if len(self.jobs) == SALTS_PER_PASS:
            raise ValueError("too many jobs in one pass for distinct salts")
        argv = [command]
        for suffix, obj, *option in files:
            p = self.path(name, suffix)
            with open(os.path.join(self.workdir, p), "w", encoding="utf-8") as handle:
                handle.write(gen.dumps(obj))
            argv += option + [p]
        self.jobs.append({
            "name": name,
            "argv": argv + list(flags) + ["--json"],
            "expect": dict({"code": 0, "status": "pass"}, **(expect or {})),
            "shape": input_shape(n, m, [f[1] for f in files]),
            "outputs": list(outputs),
            "bundles": sum(1 for f in files if "hat" in f[1]),
        })


_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def input_shape(n: int, m: int, objs) -> dict:
    """n, m, dim_C, nonzero structure constants, largest entry bit length.

    Structure constants are the coefficients in the binary and ternary
    blocks of every algebra in the files (for a bundle: base and hat).
    """
    bits = nnz = 0

    def walk(x, key=None):
        nonlocal bits, nnz
        if isinstance(x, dict):
            if key in ("binary", "ternary"):
                nnz += len(x["value"])
            for k, v in x.items():
                walk(v, k)
        elif isinstance(x, list):
            for v in x:
                walk(v, key)
        elif isinstance(x, str) and _RATIONAL.fullmatch(x):
            q = Fraction(x)
            bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())

    for obj in objs:
        walk(obj)
    return {"n": n, "m": m, "dim_C": n * (n - 1) // 2 * m * (1 + n),
            "nnz": nnz, "max_bits": bits}


def lie(c):
    return c, gen.maltsev_ternary(c)


def solvable_tangent(n):
    """Tangent of e0*ek = k ek as the last eigenvalue moves: a cocycle whose
    class is nonzero (the algebras along the family are not isomorphic)."""
    def family(s):
        c = gen.solvable(n)
        c[n - 1][0][n - 1] += s
        c[n - 1][n - 1][0] -= s
        return [c, gen.maltsev_ternary(c)]

    return gen.family_tangent(family, Fraction(0))


def random_vector(rng, n):
    return [Fraction(rng.randint(-2, 2)) for _ in range(n)]


def _label(alg_name: str, dense: bool) -> str:
    return f"{alg_name}-{'dense' if dense else 'sparse'}"


def _first_failure(key, condition, witness):
    return {"code": 1, "status": "fail",
            "first_failure": {"key": key, "name": condition, "witness": witness}}


# ---------------------------------------------------------------------------
# cohomology-ladder


# (lambda, (dim_Z, dim_B, dim_H), pseudoderivation dimension) of the
# adjoint module of b2(lambda), measured on the canonical basis.
B2_FAMILY = (
    (Fraction(1), (5, 3, 2), 3),
    (Fraction(-1), (5, 2, 3), 4),
    (Fraction(5, 3), (5, 3, 2), 3),
    (Fraction(0), (5, 2, 3), 4),
)


def _adjoint_ladder(w: PassWriter, alg_name, alg, dense, dims, pseudo_dim,
                    nontrivial=None):
    """cohomology, pseudoderivations and is-coboundary on the adjoint module.

    is-coboundary gets the coboundary of a random (f, chi), or the given
    cocycle of a nonzero class.
    """
    c0, t0 = alg
    n = len(c0)
    for command in ("cohomology", "pseudoderivations", "is-coboundary"):
        name = f"{_label(alg_name, dense)}-{command}"
        T, Ti = w.basis(name, n, dense)
        c, t = gen.transport(c0, T, Ti), gen.transport(t0, T, Ti)
        files = [("alg", gen.algebra_obj(c, t))]
        if command == "cohomology":
            dim_z, dim_b, dim_h = dims
            expect = {"fields": {"dim_C": n * (n - 1) // 2 * n * (1 + n),
                                 "dim_Z": dim_z, "dim_B": dim_b, "dim_H": dim_h}}
        elif command == "pseudoderivations":
            expect = {"fields": {"pseudoderivation_dimension": pseudo_dim}}
        elif nontrivial is None:
            rng = w.rng(name, "f")
            nu, omega = gen.coboundary(c, t, gen.random_small_matrix(rng, n, n),
                                       random_vector(rng, n))
            files.append(("cochain", gen.cochain_obj(nu, omega)))
            expect = {"fields": {"coboundary": True}}
        else:
            nu, omega = (gen.transport(x, T, Ti) for x in nontrivial)
            files.append(("cochain", gen.cochain_obj(nu, omega)))
            expect = {"code": 1, "status": "fail", "fields": {"coboundary": False}}
        w.add(name, command, files, ["--adjoint"], expect, n, n)


def cohomology_ladder(w: PassWriter):
    for lam, dims, pseudo_dim in B2_FAMILY:
        tag = str(lam).replace("/", "_").replace("-", "m")
        for dense in (False, True):
            _adjoint_ladder(w, f"b2_{tag}", gen.b2(lam), dense, dims, pseudo_dim)
    for dense in (False, True):
        _adjoint_ladder(w, "so3", lie(gen.so3()), dense, (6, 6, 0), 6)
        _adjoint_ladder(w, "sol3", lie(gen.solvable(3)), dense, (13, 5, 8), 7,
                        nontrivial=solvable_tangent(3))
    # Trivial 1-dim modules.  n=4 in a dense basis only: its sparse twin
    # added a sixth of the pass time, and so3, sol3 and b2 already compare
    # the two kinds of basis.  With the small n=3 job, each pass has six
    # jobs slower than all others, so job_s.tail, the eleventh slowest job
    # of two passes, falls among them.
    for n, dense, dims in ((4, True, (30, 9, 3, 6)), (3, False, (12, 6, 2, 4))):
        c0, t0 = lie(gen.solvable(n))
        name = f"{_label(f'sol{n}', dense)}-trivial-cohomology"
        T, Ti = w.basis(name, n, dense)
        c, t = gen.transport(c0, T, Ti), gen.transport(t0, T, Ti)
        w.add(name, "cohomology",
              [("alg", gen.algebra_obj(c, t)), ("rep", gen.trivial_rep_obj(n, 1), "--rep")],
              [], {"fields": dict(zip(("dim_C", "dim_Z", "dim_B", "dim_H"), dims))}, n, 1)


# ---------------------------------------------------------------------------
# verify-scan

SCAN_JOBS = {  # job kind -> bolalg subcommand
    "verify-maltsev": "verify",
    "maltsev-to-bol": "maltsev-to-bol",
    "verify-bol": "verify",
    "verify-rep": "verify-rep",
    "delta-check": "delta-check",
}


def _scan_set(w: PassWriter, alg_name, c0, dense, kinds):
    """Axiom and representation scans over a Maltsev algebra, its Bol
    algebra and the adjoint module; every one of them passes."""
    n = len(c0)
    t0 = gen.maltsev_ternary(c0)
    for kind in kinds:
        name = f"{_label(alg_name, dense)}-{kind}"
        T, Ti = w.basis(name, n, dense)
        c, t = gen.transport(c0, T, Ti), gen.transport(t0, T, Ti)
        files, flags, expect, m = [("alg", gen.algebra_obj(c, t))], [], {}, n
        if kind == "verify-maltsev":
            files, m = [("mal", gen.algebra_obj(c))], 0
            expect = {"fields": {"kind": "maltsev", "dimension": n}}
        elif kind == "maltsev-to-bol":
            files, m = [("mal", gen.algebra_obj(c))], 0
            expect = {"objects": {"algebra": gen.algebra_obj(c, gen.maltsev_ternary(c))}}
        elif kind == "verify-bol":
            m = 0
            expect = {"fields": {"kind": "bol", "dimension": n}}
        elif kind == "verify-rep":
            files.append(("rep", gen.adjoint_rep_obj(c, t)))
        else:
            flags = ["--adjoint"]
        w.add(name, SCAN_JOBS[kind], files, flags, expect, n, m)


# Defects are planted in sol3 (+) so3 (n = 6).  Products between the two
# summands vanish, so a defect among e3..e5 (the so3 summand) is seen only
# by tuples whose leading index lies there: every scan runs past its
# middle before it finds one.  A defect touching e0 is found by the first
# tuples of every scan.
PLANTS = {"early": (0, 1, 2), "late": (3, 4, 5)}


def planted_base():
    return lie(gen.direct_sum(gen.solvable(3), gen.so3()))


def _planted_verify(w: PassWriter, name, triple, out):
    """[e_i, e_j, e_k] gains an e_out component (i < j < k): B1 is the first
    condition to fail, and (i, j, k) its first failing tuple."""
    c0, t0 = planted_base()
    n = len(c0)
    i, j, k = triple
    T, Ti = w.basis(name, n, False)
    bad = gen.add(t0, gen.zeros(n, n, n, n))
    bad[out][i][j][k] += 1
    bad[out][j][i][k] -= 1
    c, t = gen.transport(c0, T, Ti), gen.transport(bad, T, Ti)
    w.add(name, "verify", [("alg", gen.algebra_obj(c, t))], [],
          _first_failure("checks", "B1", list(triple)), n, 0)


def verify_scan(w: PassWriter):
    _scan_set(w, "oct", gen.octonions(), False,
              ("verify-maltsev", "maltsev-to-bol", "verify-bol"))
    _scan_set(w, "sol7", gen.solvable(7), False, ("verify-maltsev", "maltsev-to-bol"))
    _scan_set(w, "sol5", gen.solvable(5), False, tuple(SCAN_JOBS))
    _scan_set(w, "sol5", gen.solvable(5), True, ("verify-bol",))

    # one verify per position of the defect, in lexicographic order, with
    # the defect along the first and along the second argument
    for triple in itertools.combinations(range(6), 3):
        for slot in (0, 1):
            _planted_verify(w, "planted_{}{}{}_{}-verify".format(*triple, "ij"[slot]),
                            triple, triple[slot])

    c0, t0 = planted_base()
    n = len(c0)
    for where, (i, j, k) in PLANTS.items():
        # one entry of D(e_i, e_j) moves: R1 fails first, at (i, j)
        name = f"planted_{where}-verify-rep"
        T, Ti = w.basis(name, n, False)
        c, t = gen.transport(c0, T, Ti), gen.transport(t0, T, Ti)
        rep = gen.adjoint_rep_obj(c, t)
        rep["D"][i][j][i][i] = str(Fraction(rep["D"][i][j][i][i]) + 1)
        w.add(name, "verify-rep", [("alg", gen.algebra_obj(c, t)), ("rep", rep)],
              [], _first_failure("checks", "R1", [i, j]), n, n)

        # a coboundary whose omega(e_i, e_j, e_k) moves: CC1 fails first
        name = f"planted_{where}-is-cocycle"
        T, Ti = w.basis(name, n, False)
        c, t = gen.transport(c0, T, Ti), gen.transport(t0, T, Ti)
        nu, omega = gen.coboundary(c, t, gen.random_small_matrix(w.rng(name, "f"), n, n))
        omega[i][i][j][k] += 1
        omega[i][j][i][k] -= 1
        w.add(name, "is-cocycle",
              [("alg", gen.algebra_obj(c, t)), ("cochain", gen.cochain_obj(nu, omega))],
              ["--adjoint"], _first_failure("checks", "CC1", [i, j, k]), n, n)


# ---------------------------------------------------------------------------
# extend-deform


EXTEND_JOBS = {  # job kind -> bolalg subcommand
    "extend-build": "extend-build",
    "extend-analyze": "extend-analyze",
    "extend-equiv-section": "extend-equiv",
    "extend-equiv-class": "extend-equiv",
    "deform-check": "deform-check",
    "deform-formal": "deform-formal",
    "deform-equiv-coboundary": "deform-equiv",
    "deform-equiv-class": "deform-equiv",
}


def _extend_deform_set(w: PassWriter, alg_name, alg, dense, kinds,
                       nontrivial=None, deforms=True):
    """Extension and deformation jobs over one algebra, adjoint module.

    The cocycle is a zero-companion coboundary delta(f); a perturbed section
    presents an equivalent extension, and adding a cocycle of a nonzero
    class gives one that is not cohomologous.  The deformation datum
    (c, 2t) is the coboundary of the identity map: it generates a
    deformation exactly when (u*v)*(x*y) vanishes identically, which holds
    for the solvable algebras and fails for so3, where B2' fails first.
    """
    c0, t0 = alg
    n = len(c0)
    for kind in kinds:
        name = f"{_label(alg_name, dense)}-{kind}"
        command = EXTEND_JOBS[kind]
        T, Ti = w.basis(name, n, dense)
        c, t = gen.transport(c0, T, Ti), gen.transport(t0, T, Ti)
        rng = w.rng(name, "f")
        nu, omega = gen.coboundary(c, t, gen.random_small_matrix(rng, n, n))
        E1 = gen.twisted_bundle(c, t, nu, omega)
        if nontrivial is not None:
            h_nu, h_omega = (gen.transport(x, T, Ti) for x in nontrivial)
        datum = gen.cochain_obj(c, gen.scaled(Fraction(2), t))
        alg_file = ("alg", gen.algebra_obj(c, t))
        outputs = []
        if kind == "extend-build":
            out = w.path(name, "out.bundle")
            outputs = [out]
            files, flags = [alg_file, ("cochain", gen.cochain_obj(nu, omega))], \
                ["--adjoint", "-o", out]
            expect = {"objects": {"extension": gen.bundle_obj(E1)}}
        elif kind == "extend-analyze":
            E = gen.perturb_section(E1, gen.random_small_matrix(rng, n, n))
            files, flags = [("bundle", gen.bundle_obj(E))], []
            expect = {"objects": {"representation": gen.adjoint_rep_obj(c, t)}}
        elif kind == "extend-equiv-section":
            E2 = gen.perturb_section(E1, gen.random_small_matrix(rng, n, n))
            files, flags = [("bundle", gen.bundle_obj(E1)),
                            ("bundle2", gen.bundle_obj(E2))], []
            expect = {"fields": {"equivalence_status": "equivalent",
                                 "cohomologous": True}}
        elif kind == "extend-equiv-class":
            E2 = gen.twisted_bundle(c, t, gen.add(nu, h_nu), gen.add(omega, h_omega))
            files, flags = [("bundle", gen.bundle_obj(E1)),
                            ("bundle2", gen.bundle_obj(E2))], []
            expect = {"code": 1, "status": "fail",
                      "fields": {"equivalence_status": "not-cohomologous",
                                 "cohomologous": False}}
        elif kind == "deform-check":
            files, flags = [alg_file, ("datum", datum)], []
            expect = {"fields": {"routes_agree": True}}
            if not deforms:
                expect.update(_first_failure("deformation_type_checks", "B2'", None))
        elif kind == "deform-formal":
            files, flags = [alg_file, ("datum", datum)], []
            expect = {} if deforms else _first_failure("checks", "B2'", None)
        elif kind == "deform-equiv-coboundary":
            files, flags = [alg_file, ("datum", datum),
                            ("datum2", gen.cochain_obj(nu, omega))], []
            expect = {"fields": {"equivalent": True, "routes_agree": True}}
        else:
            shifted = gen.cochain_obj(gen.add(c, h_nu),
                                      gen.add(gen.scaled(Fraction(2), t), h_omega))
            files, flags = [alg_file, ("datum", datum), ("datum2", shifted)], []
            expect = {"code": 1, "status": "fail",
                      "fields": {"equivalent": False, "routes_agree": True}}
        w.add(name, command, files, flags, expect, n, n, outputs)


def extend_deform(w: PassWriter):
    sol3, so3 = lie(gen.solvable(3)), lie(gen.so3())
    deform = ("deform-check", "deform-formal", "deform-equiv-coboundary")
    _extend_deform_set(w, "sol3", sol3, False, tuple(EXTEND_JOBS), solvable_tangent(3))
    _extend_deform_set(w, "sol3", sol3, True,
                       ("extend-build", "extend-analyze", "extend-equiv-class")
                       + deform + ("deform-equiv-class",), solvable_tangent(3))
    _extend_deform_set(w, "so3", so3, False, ("extend-analyze",) + deform, deforms=False)
    _extend_deform_set(w, "so3", so3, True, deform, deforms=False)
    _extend_deform_set(w, "sol4", lie(gen.solvable(4)), False,
                       ("extend-build", "deform-equiv-class"), solvable_tangent(4))


WORKLOADS = {
    "cohomology-ladder": cohomology_ladder,
    "verify-scan": verify_scan,
    "extend-deform": extend_deform,
}


def build_pass(workload: str, seed: int, pass_index: int, workdir: str) -> list[dict]:
    """Write the inputs of one pass and return its jobs in run order."""
    w = PassWriter(workdir, seed, pass_index)
    WORKLOADS[workload](w)
    return w.jobs
