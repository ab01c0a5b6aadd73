"""Seeded input files for the benchmark, in bolalg's JSON file formats.

This module uses the standard library only and never imports the package
under test, so the inputs do not depend on the code being measured.

Tensors are dense nested lists of ``Fraction`` with the output index
first, as in the library: ``c[k][i][j]`` is the e_k coefficient of
e_i * e_j and ``t[l][i][j][k]`` the e_l coefficient of [e_i, e_j, e_k].
Cochains with adjoint coefficients use the same layout.

Dense bases come from a change of basis f_i = sum_a T[a][i] e_a, which
turns every structure tensor X into T^-1 X(T., T., ...).  Because the
transport is an isomorphism, every basis-independent invariant (cohomology
dimensions, pass/fail of an identity, equivalence status) carries over
unchanged, which is what the correctness checks rely on.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# dense tensors


def zeros(*shape):
    if len(shape) == 1:
        return [ZERO] * shape[0]
    return [zeros(*shape[1:]) for _ in range(shape[0])]


def entries(X):
    """Nonzero entries of a nested-list tensor as {index tuple: value}."""
    out = {}

    def walk(node, idx):
        if isinstance(node, list):
            for pos, child in enumerate(node):
                walk(child, idx + (pos,))
        elif node:
            out[idx] = node

    walk(X, ())
    return out


def dense(vals, shape):
    X = zeros(*shape)
    for idx, v in vals.items():
        node = X
        for pos in idx[:-1]:
            node = node[pos]
        node[idx[-1]] = v
    return X


def shape_of(X):
    shape = []
    while isinstance(X, list):
        shape.append(len(X))
        X = X[0]
    return tuple(shape)


def transport(X, T, Tinv):
    """X expressed in the basis with columns T: T^-1 X(T., ..., T.)."""
    shape = shape_of(X)
    n = len(T)
    vals = entries(X)
    for axis in range(1, len(shape)):
        new = {}
        for idx, v in vals.items():
            a = idx[axis]
            for i in range(n):
                s = T[a][i]
                if s:
                    key = idx[:axis] + (i,) + idx[axis + 1:]
                    new[key] = new.get(key, ZERO) + v * s
        vals = {k: v for k, v in new.items() if v}
    new = {}
    for idx, v in vals.items():
        p = idx[0]
        for k in range(n):
            s = Tinv[k][p]
            if s:
                key = (k,) + idx[1:]
                new[key] = new.get(key, ZERO) + v * s
    return dense({k: v for k, v in new.items() if v}, shape)


def mat_mul(A, B):
    return [[sum((A[i][l] * B[l][j] for l in range(len(B))), ZERO)
             for j in range(len(B[0]))] for i in range(len(A))]


# ---------------------------------------------------------------------------
# algebras in their canonical bases


def b2(lam):
    """Two-dimensional Bol algebra: e0*e1 = -e1, [e0,e1,e0] = lam e1."""
    c, t = zeros(2, 2, 2), zeros(2, 2, 2, 2)
    c[1][0][1], c[1][1][0] = -ONE, ONE
    t[1][0][1][0], t[1][1][0][0] = Fraction(lam), -Fraction(lam)
    return c, t


def _antisym_binary(n, products):
    c = zeros(n, n, n)
    for (i, j), coeffs in products.items():
        for k, v in coeffs.items():
            c[k][i][j] = Fraction(v)
            c[k][j][i] = -Fraction(v)
    return c


def so3():
    """so(3): e0e1 = e2, e1e2 = e0, e2e0 = e1."""
    return _antisym_binary(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})


def solvable(n):
    """Solvable Lie algebra e0*ek = k ek (k = 1..n-1), other products zero."""
    return _antisym_binary(n, {(0, k): {k: k} for k in range(1, n)})


def direct_sum(c1, c2):
    """Binary tensor of the direct sum of two algebras (c1 on the low indices)."""
    n1, n2 = len(c1), len(c2)
    c = zeros(n1 + n2, n1 + n2, n1 + n2)
    for k, i, j in itertools.product(range(n1), repeat=3):
        c[k][i][j] = c1[k][i][j]
    for k, i, j in itertools.product(range(n2), repeat=3):
        c[n1 + k][n1 + i][n1 + j] = c2[k][i][j]
    return c


# Lines of the Fano plane on e1..e7 (0-based here); e_i e_j = e_k along
# each cyclically ordered line of the octonion multiplication table.
FANO_LINES = ((0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6),
              (4, 5, 0), (5, 6, 1), (6, 0, 2))


def octonions():
    """Traceless octonions under the commutator: [ei, ej] = 2 ek on lines."""
    c = zeros(7, 7, 7)
    for line in FANO_LINES:
        for r in range(3):
            i, j, k = line[r], line[(r + 1) % 3], line[(r + 2) % 3]
            c[k][i][j] = Fraction(2)
            c[k][j][i] = Fraction(-2)
    return c


def product(c, x, y):
    n = len(c)
    return [sum((x[i] * y[j] * c[k][i][j] for i in range(n) if x[i]
                 for j in range(n) if y[j]), ZERO) for k in range(n)]


def unit(n, i):
    return [ONE if j == i else ZERO for j in range(n)]


def maltsev_ternary(c):
    """[x,y,z] = (1/3)(x*(y*z) - y*(x*z) + 2(x*y)*z) of a Maltsev algebra."""
    n = len(c)
    t = zeros(n, n, n, n)
    e = [unit(n, i) for i in range(n)]
    for i, j, k in itertools.product(range(n), repeat=3):
        a = product(c, e[i], product(c, e[j], e[k]))
        b = product(c, e[j], product(c, e[i], e[k]))
        d = product(c, product(c, e[i], e[j]), e[k])
        for l in range(n):
            t[l][i][j][k] = (a[l] - b[l] + 2 * d[l]) / 3
    return t


# ---------------------------------------------------------------------------
# bases


_DIAG = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
         Fraction(1, 2), Fraction(-1, 2))


def diagonal_basis(rng, n):
    """Rescaled canonical basis: keeps every zero of every tensor in place."""
    d = [rng.choice(_DIAG) for _ in range(n)]
    T = [[d[i] if i == j else ZERO for j in range(n)] for i in range(n)]
    Tinv = [[1 / d[i] if i == j else ZERO for j in range(n)] for i in range(n)]
    return T, Tinv


def dense_basis(rng, n):
    """Random invertible rational T = L D U with its exact inverse.

    L and U are unitriangular with off-diagonal entries +-1 and D is a
    diagonal drawn from {1, -1, 2, -1/2}, so almost every structure
    constant becomes nonzero while entry sizes stay in a narrow band from
    seed to seed (the run time of a dense job then varies little with it).
    """
    def unitriangular(lower):
        return [[ONE if i == j else
                 (Fraction(rng.choice((-1, 1))) if (i > j) == lower else ZERO)
                 for j in range(n)] for i in range(n)]

    L, U = unitriangular(True), unitriangular(False)
    d = [rng.choice((ONE, -ONE, Fraction(2), Fraction(-1, 2))) for _ in range(n)]
    D = [[d[i] if i == j else ZERO for j in range(n)] for i in range(n)]
    Dinv = [[1 / d[i] if i == j else ZERO for j in range(n)] for i in range(n)]
    T = mat_mul(mat_mul(L, D), U)
    Tinv = mat_mul(mat_mul(_unitriangular_inverse(U, False), Dinv),
                   _unitriangular_inverse(L, True))
    return T, Tinv


def _unitriangular_inverse(M, lower):
    """Inverse of a unitriangular matrix by forward or back substitution."""
    n = len(M)
    inv = zeros(n, n)
    order = range(n) if lower else range(n - 1, -1, -1)
    for col in range(n):
        x = [ZERO] * n
        for i in order:
            span = range(i) if lower else range(i + 1, n)
            x[i] = (ONE if i == col else ZERO) - sum((M[i][j] * x[j] for j in span), ZERO)
        for i in range(n):
            inv[i][col] = x[i]
    return inv


# ---------------------------------------------------------------------------
# cochains, coboundaries and extensions (adjoint coefficients)


def coboundary(c, t, f, chi=None):
    """(nu, omega) of the coboundary of (f, chi), f: B -> B, chi in B.

    nu(x1,x2)       = x1*f(x2) - x2*f(x1) + Delta(x1,x2) chi - f(x1*x2)
    omega(x1,x2,x3) = [f(x1),x2,x3] - [f(x2),x1,x3] + [x1,x2,f(x3)]
                      - f([x1,x2,x3])
    with Delta(x,y)v = [x,y,v] - (x*y)*v; in the adjoint module
    rho(u)v = u*v, D(u,v)w = [u,v,w] and theta(u,v)w = [w,u,v].
    """
    n = len(c)
    chi = chi or [ZERO] * n
    fcol = [[f[a][j] for a in range(n)] for j in range(n)]
    nu = zeros(n, n, n)
    for i, j in itertools.product(range(n), repeat=2):
        ij = [c[p][i][j] for p in range(n)]
        for a in range(n):
            v = sum((c[a][i][b] * fcol[j][b] - c[a][j][b] * fcol[i][b]
                     - f[a][b] * ij[b] + t[a][i][j][b] * chi[b]
                     - sum((ij[p] * c[a][p][b] for p in range(n)), ZERO) * chi[b]
                     for b in range(n)), ZERO)
            nu[a][i][j] = v
    omega = zeros(n, n, n, n)
    for i, j, k in itertools.product(range(n), repeat=3):
        for a in range(n):
            v = sum((t[a][b][j][k] * fcol[i][b] - t[a][b][i][k] * fcol[j][b]
                     + t[a][i][j][b] * fcol[k][b] - f[a][b] * t[b][i][j][k]
                     for b in range(n)), ZERO)
            omega[a][i][j][k] = v
    return nu, omega


def family_tangent(family, s):
    """d/ds of a structure tensor at s, exact for families of degree <= 2."""
    return scaled(Fraction(1, 2), add(family(s + 1), scaled(-ONE, family(s - 1))))


def add(X, Y):
    if isinstance(X, list):
        return [add(x, y) for x, y in zip(X, Y)]
    return X + Y


def scaled(s, X):
    if isinstance(X, list):
        return [scaled(s, x) for x in X]
    return s * X


def random_small_matrix(rng, rows, cols):
    return [[Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) for _ in range(cols)]
            for _ in range(rows)]


def twisted_bundle(c, t, nu, omega):
    """Extension bundle of B (+)_(nu,omega) B over the adjoint module.

    Mirrors the twisted product: hat basis e_0..e_{n-1} then the fiber
    u_0..u_{n-1}; rho(x)u = x*u, D(x,y)u = [x,y,u], theta(x,y)u = [u,x,y].
    """
    n = len(c)
    m = n
    N = n + m
    hc, ht = zeros(N, N, N), zeros(N, N, N, N)
    for i, j in itertools.product(range(n), repeat=2):
        for k in range(n):
            hc[k][i][j] = c[k][i][j]
        for a in range(m):
            hc[n + a][i][j] = nu[a][i][j]
    for i in range(n):
        for b in range(m):
            for a in range(m):
                hc[n + a][i][n + b] = c[a][i][b]
                hc[n + a][n + b][i] = -c[a][i][b]
    for i, j, k in itertools.product(range(n), repeat=3):
        for l in range(n):
            ht[l][i][j][k] = t[l][i][j][k]
        for a in range(m):
            ht[n + a][i][j][k] = omega[a][i][j][k]
    for i, j in itertools.product(range(n), repeat=2):
        for b in range(m):
            for a in range(m):
                ht[n + a][i][j][n + b] = t[a][i][j][b]
                ht[n + a][i][n + b][j] = -t[a][b][i][j]
                ht[n + a][n + b][i][j] = t[a][b][i][j]
    inj = [[ONE if r - n == a else ZERO for a in range(m)] for r in range(N)]
    proj = [[ONE if r == x else ZERO for x in range(N)] for r in range(n)]
    sect = [[ONE if r == x else ZERO for x in range(n)] for r in range(N)]
    return {"base": (c, t), "m": m, "hat": (hc, ht), "i": inj, "p": proj,
            "sigma": sect}


def perturb_section(bundle, g):
    """sigma + i o g for g: B -> V; an equivalent presentation."""
    n = len(bundle["base"][0])
    sigma = [row[:] for row in bundle["sigma"]]
    for a in range(bundle["m"]):
        for x in range(n):
            sigma[n + a][x] += g[a][x]
    return dict(bundle, sigma=sigma)


# ---------------------------------------------------------------------------
# canonical JSON objects (the same layout bolalg renders)


def _render_entries(X, arity):
    out = []
    n = len(X[0])
    m = len(X)
    for idx in itertools.product(range(n), repeat=arity):
        if idx[0] >= idx[1]:
            continue
        value = {}
        for a in range(m):
            node = X[a]
            for pos in idx:
                node = node[pos]
            if node:
                value[str(a)] = str(node)
        if value:
            out.append({"args": list(idx), "value": value})
    return out


def _render_matrix(M):
    return [[str(x) for x in row] for row in M]


def algebra_obj(c, t=None):
    obj = {"kind": "bol" if t is not None else "maltsev", "dimension": len(c),
           "binary": _render_entries(c, 2)}
    if t is not None:
        obj["ternary"] = _render_entries(t, 3)
    return obj


def cochain_obj(nu, omega):
    return {"module_dimension": len(nu), "nu": _render_entries(nu, 2),
            "omega": _render_entries(omega, 3)}


def adjoint_rep_obj(c, t):
    n = len(c)
    rng = range(n)
    return {
        "module_dimension": n,
        "rho": [[[str(c[r][i][k]) for k in rng] for r in rng] for i in rng],
        "D": [[[[str(t[r][i][j][k]) for k in rng] for r in rng] for j in rng]
              for i in rng],
        "theta": [[[[str(t[r][k][i][j]) for k in rng] for r in rng] for j in rng]
                  for i in rng],
    }


def trivial_rep_obj(n, m):
    zero = [["0"] * m for _ in range(m)]
    return {"module_dimension": m, "rho": [zero] * n, "D": [[zero] * n] * n,
            "theta": [[zero] * n] * n}


def bundle_obj(bundle):
    c, t = bundle["base"]
    hc, ht = bundle["hat"]
    return {"base": algebra_obj(c, t), "fiber_dimension": bundle["m"],
            "hat": algebra_obj(hc, ht), "i": _render_matrix(bundle["i"]),
            "p": _render_matrix(bundle["p"]),
            "sigma": _render_matrix(bundle["sigma"])}


def dumps(obj):
    return json.dumps(obj, indent=2) + "\n"


def rng_for(seed, *labels):
    """Independent stream per (seed, job, variant) so jobs never share draws."""
    return random.Random("/".join(str(x) for x in (seed,) + labels))
