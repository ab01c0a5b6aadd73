#!/usr/bin/env python3
"""Brute-force (2,3)-cohomology dimensions of a Bol algebra's adjoint module.

Independent oracle for the package's cohomology pipeline: no imports from
bolalg.  Works with the two-dimensional family

    e0 * e1 = -e1,   [e0, e1, e0] = lam * e1      (lam rational)

or with any Bol algebra file (JSON: "kind": "bol", "dimension", and the
i<j "binary"/"ternary" entries), and with the adjoint representation.  It
assembles every cocycle constraint row and every coboundary image by
direct enumeration over basis tuples, drops repeated rows, and takes
matrix ranks with sympy.

Cochain unknowns: nu(e_i,e_j) and omega(e_i,e_j,e_k) in V for i<j;
the cocycle conditions imposed for all ordered basis tuples are

  (CC1)  sum over cyclic permutations of omega(x1,x2,x3) = 0
  (CC2)  omega(x1,x2,y1*y2) + D(x1,x2) nu(y1,y2)
           = omega(y1,y2,x1*x2) + D(y1,y2) nu(x1,x2)
           + nu([x1,x2,y1],y2) + nu(y1,[x1,x2,y2])
           + rho(y1) omega(x1,x2,y2) - rho(y2) omega(x1,x2,y1)
           + rho(x1*x2) nu(y1,y2) - rho(y1*y2) nu(x1,x2)
           - nu(y1*y2, x1*x2)
  (CC3)  omega(x1,x2,[y1,y2,y3]) + D(x1,x2) omega(y1,y2,y3)
           = omega([x1,x2,y1],y2,y3) + omega(y1,[x1,x2,y2],y3)
           + omega(y1,y2,[x1,x2,y3])
           + D(y1,y2) omega(x1,x2,y3)
           + theta(y2,y3) omega(x1,x2,y1) - theta(y1,y3) omega(x1,x2,y2)

and a coboundary of a linear map f: B -> V with companion chi in V is

  (BB1)  nu(x1,x2) = rho(x1) f(x2) - rho(x2) f(x1)
                     + (D(x1,x2) - rho(x1*x2))(chi) - f(x1*x2)
  (BB2)  omega(x1,x2,x3) = theta(x2,x3) f(x1) - theta(x1,x3) f(x2)
                           + D(x1,x2) f(x3) - f([x1,x2,x3])

dim Z = (number of cochain coordinates) - rank(cocycle constraints)
dim B = rank(coboundary map), over the n*n + n parameters (f, chi)
dim H = dim Z - dim B.

Usage: python3 tools/cohomology_oracle.py [lam ...]
       python3 tools/cohomology_oracle.py --algebra FILE
Prints one line per lam value (defaults to lam in {-1, 0, 1}), or one line
for the algebra in FILE.
"""

import itertools
import json
import sys
from fractions import Fraction

import sympy


def structure(lam):
    """Dimension 2 and the binary and ternary product tables of the family."""
    lam = Fraction(lam)
    return 2, {(0, 1): {1: Fraction(-1)}}, {(0, 1, 0): {1: lam}}


def read_algebra(path):
    """Dimension and i<j product tables of a Bol algebra file."""
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    if obj.get("kind") != "bol":
        raise SystemExit(f"{path}: expected a Bol algebra file")

    def entries(field):
        return {tuple(e["args"]): {int(a): Fraction(x) for a, x in e["value"].items()}
                for e in obj.get(field, [])}
    return obj["dimension"], entries("binary"), entries("ternary")


def tables(N, binary, ternary):
    """Full product tables on basis vectors from their i<j entries."""
    zero = (Fraction(0),) * N
    mul = {idx: zero for idx in itertools.product(range(N), repeat=2)}
    tri = {idx: zero for idx in itertools.product(range(N), repeat=3)}
    for table, entries in ((mul, binary), (tri, ternary)):
        for (i, j, *rest), value in entries.items():
            v = tuple(value.get(a, Fraction(0)) for a in range(N))
            table[(i, j, *rest)] = v
            table[(j, i, *rest)] = tuple(-x for x in v)
    return mul, tri


def lin2(N, table, x, y):
    """Bilinear extension of a basis product table to coordinate vectors."""
    out = [Fraction(0)] * N
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in enumerate(y):
            if not b:
                continue
            for k, s in enumerate(table[(i, j)]):
                if s:
                    out[k] += a * b * s
    return tuple(out)


def lin3(N, table, x, y, z):
    out = [Fraction(0)] * N
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in enumerate(y):
            if not b:
                continue
            for k, c in enumerate(z):
                if not c:
                    continue
                for l, s in enumerate(table[(i, j, k)]):
                    if s:
                        out[l] += a * b * c * s
    return tuple(out)


def units(N):
    return [tuple(Fraction(1) if j == i else Fraction(0) for j in range(N))
            for i in range(N)]


def cochain_unknowns(N):
    """Coordinates of the cochain space: nu entries then omega entries."""
    keys = []
    for i in range(N):
        for j in range(i + 1, N):
            for a in range(N):
                keys.append(("nu", i, j, a))
    for i in range(N):
        for j in range(i + 1, N):
            for k in range(N):
                for a in range(N):
                    keys.append(("omega", i, j, k, a))
    return keys


def make_cochain(N, keys, active):
    """nu / omega evaluators for the unit cochain at coordinate ``active``."""
    nu_tab = {(i, j): [Fraction(0)] * N
              for i in range(N) for j in range(N)}
    om_tab = {idx: [Fraction(0)] * N
              for idx in itertools.product(range(N), repeat=3)}
    key = keys[active]
    if key[0] == "nu":
        _, i, j, a = key
        nu_tab[(i, j)][a] = Fraction(1)
        nu_tab[(j, i)][a] = Fraction(-1)
    else:
        _, i, j, k, a = key
        om_tab[(i, j, k)][a] = Fraction(1)
        om_tab[(j, i, k)][a] = Fraction(-1)
    nu_tab = {k: tuple(v) for k, v in nu_tab.items()}
    om_tab = {k: tuple(v) for k, v in om_tab.items()}

    def nu(x, y):
        return lin2(N, nu_tab, x, y)

    def om(x, y, z):
        return lin3(N, om_tab, x, y, z)

    return nu, om


def distinct_rank(columns):
    """sympy rank of the matrix with these columns, repeated rows dropped."""
    rows = {row for row in zip(*columns) if any(row)}
    if not rows:
        return 0
    return sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows]).rank()


def cohomology_dims(lam):
    """Return (dim_C, dim_Z, dim_B, dim_H) for the adjoint module at lam."""
    return algebra_dims(*structure(lam))


def algebra_dims(N, binary, ternary):
    """(dim_C, dim_Z, dim_B, dim_H) of the adjoint module of the algebra
    with these i<j product entries {args: {index: coefficient}}."""
    mul, tri = tables(N, binary, ternary)
    e = units(N)

    # adjoint representation: rho(u)v = u*v, D(u,v)w = [u,v,w],
    # theta(u,v)w = [w,u,v]
    def rho(u):
        return lambda w: lin2(N, mul, u, w)

    def dmap(u, v):
        return lambda w: lin3(N, tri, u, v, w)

    def theta(u, v):
        return lambda w: lin3(N, tri, w, u, v)

    keys = cochain_unknowns(N)
    dim_c = len(keys)

    # --- cocycle constraint matrix: one column per unknown -------------
    columns = []
    for idx in range(dim_c):
        nu, om = make_cochain(N, keys, idx)
        col = []
        # CC1 over all basis triples
        for x1, x2, x3 in itertools.product(e, repeat=3):
            col.extend(
                a + b + c
                for a, b, c in zip(om(x1, x2, x3), om(x2, x3, x1), om(x3, x1, x2))
            )
        # CC2 over all basis quadruples
        for x1, x2, y1, y2 in itertools.product(e, repeat=4):
            xx = lin2(N, mul, x1, x2)
            yy = lin2(N, mul, y1, y2)
            lhs = om(x1, x2, yy)
            lhs = tuple(p + q for p, q in zip(lhs, dmap(x1, x2)(nu(y1, y2))))
            rhs = om(y1, y2, xx)
            for term in (
                dmap(y1, y2)(nu(x1, x2)),
                nu(lin3(N, tri, x1, x2, y1), y2),
                nu(y1, lin3(N, tri, x1, x2, y2)),
                rho(y1)(om(x1, x2, y2)),
                tuple(-q for q in rho(y2)(om(x1, x2, y1))),
                rho(xx)(nu(y1, y2)),
                tuple(-q for q in rho(yy)(nu(x1, x2))),
                tuple(-q for q in nu(yy, xx)),
            ):
                rhs = tuple(p + q for p, q in zip(rhs, term))
            col.extend(p - q for p, q in zip(lhs, rhs))
        # CC3 over all basis quintuples
        for x1, x2, y1, y2, y3 in itertools.product(e, repeat=5):
            lhs = om(x1, x2, lin3(N, tri, y1, y2, y3))
            lhs = tuple(p + q for p, q in zip(lhs, dmap(x1, x2)(om(y1, y2, y3))))
            rhs = om(lin3(N, tri, x1, x2, y1), y2, y3)
            for term in (
                om(y1, lin3(N, tri, x1, x2, y2), y3),
                om(y1, y2, lin3(N, tri, x1, x2, y3)),
                dmap(y1, y2)(om(x1, x2, y3)),
                theta(y2, y3)(om(x1, x2, y1)),
                tuple(-q for q in theta(y1, y3)(om(x1, x2, y2))),
            ):
                rhs = tuple(p + q for p, q in zip(rhs, term))
            col.extend(p - q for p, q in zip(lhs, rhs))
        columns.append(col)

    dim_z = dim_c - distinct_rank(columns)

    # --- coboundary map: columns indexed by (f entries, chi entries) ---
    def coboundary_column(f_cols, chi):
        # f_cols[j] = f(e_j) in V; chi in V
        def f(x):
            out = [Fraction(0)] * N
            for j, s in enumerate(x):
                if s:
                    for r in range(N):
                        out[r] += s * f_cols[j][r]
            return tuple(out)

        col = []
        for i in range(N):
            for j in range(i + 1, N):
                x1, x2 = e[i], e[j]
                xx = lin2(N, mul, x1, x2)
                val = rho(x1)(f(x2))
                val = tuple(p - q for p, q in zip(val, rho(x2)(f(x1))))
                delta = tuple(p - q for p, q in
                              zip(dmap(x1, x2)(chi), rho(xx)(chi)))
                val = tuple(p + q for p, q in zip(val, delta))
                val = tuple(p - q for p, q in zip(val, f(xx)))
                col.extend(val)
        for i in range(N):
            for j in range(i + 1, N):
                for k in range(N):
                    x1, x2, x3 = e[i], e[j], e[k]
                    val = theta(x2, x3)(f(x1))
                    val = tuple(p - q for p, q in
                                zip(val, theta(x1, x3)(f(x2))))
                    val = tuple(p + q for p, q in
                                zip(val, dmap(x1, x2)(f(x3))))
                    val = tuple(p - q for p, q in
                                zip(val, f(lin3(N, tri, x1, x2, x3))))
                    col.extend(val)
        return col

    zero2 = (Fraction(0),) * N
    params = []
    for j in range(N):
        for a in range(N):
            f_cols = [list(zero2) for _ in range(N)]
            f_cols[j][a] = Fraction(1)
            params.append(coboundary_column([tuple(c) for c in f_cols], zero2))
    for a in range(N):
        chi = tuple(Fraction(1) if r == a else Fraction(0) for r in range(N))
        params.append(coboundary_column([zero2] * N, chi))

    dim_b = distinct_rank(params)

    return dim_c, dim_z, dim_b, dim_z - dim_b


def main(argv):
    if argv[:1] == ["--algebra"] and len(argv) == 2:
        dim_c, dim_z, dim_b, dim_h = algebra_dims(*read_algebra(argv[1]))
        print(f"{argv[1]}: dim_C={dim_c} dim_Z={dim_z} dim_B={dim_b} dim_H={dim_h}")
        return
    lams = [Fraction(a) for a in argv] or [Fraction(-1), Fraction(0), Fraction(1)]
    for lam in lams:
        dim_c, dim_z, dim_b, dim_h = cohomology_dims(lam)
        print(f"lam={lam}: dim_C={dim_c} dim_Z={dim_z} dim_B={dim_b} dim_H={dim_h}")


if __name__ == "__main__":
    main(sys.argv[1:])
