"""Oracle for ``latmod model lie``: the Killing and bracket divisors of a
Lie lattice, with a Smith form that cannot blow up.

The Lie lattice and its two matrices (the Killing Gram matrix and the
flattened bracket structure tensor in a lattice basis) come from
``latmod`` as ``latmod.models.lie_invariants`` builds them.  Their Smith
forms are computed here, modulo a determinant: with ``D`` the absolute
determinant of ``n`` independent rows of an integer matrix of rank ``n``,
``D·Z^n`` lies in the row lattice, so every entry can be kept in
``[0, D)`` and each elementary divisor is a divisor of ``D``.
``record_pool.py`` uses this for the pool lattices on which the program
stalls.
"""

import json
import os
import sys
from fractions import Fraction
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))


def _xgcd(a, b):
    """``(g, s, t)`` with ``s·a + t·b = g = gcd(a, b)``, for a > 0 and
    b >= 0; ``(a, 1, 0)`` when ``a`` divides ``b``."""
    if b % a == 0:
        return a, 1, 0
    s0, t0, s1, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def full_rank_block_det(rows):
    """Absolute determinant of the square block formed by the first
    linearly independent rows, as many as there are columns (0 if the
    rank is smaller)."""
    n = len(rows[0])
    basis = []  # reduced rows (Fractions) with their pivot columns
    chosen = []
    for idx, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for piv, b in basis:
            if v[piv]:
                f = v[piv] / b[piv]
                v = [x - f * y for x, y in zip(v, b)]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is not None:
            basis.append((piv, v))
            chosen.append(idx)
            if len(chosen) == n:
                break
    if len(chosen) < n:
        return 0
    return abs(_det([rows[i] for i in chosen]))


def _det(square):
    """Determinant of an integer matrix (fraction-free elimination)."""
    m = [list(r) for r in square]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def snf_int(rows):
    """Elementary divisors of an integer matrix (list of rows) whose rank
    is its column count, each dividing the next."""
    n = len(rows[0])
    d = full_rank_block_det(rows)
    if d == 0:
        raise ValueError("matrix does not have full column rank")
    m = [[x % d for x in row] for row in rows]
    nr = len(m)
    diag = []
    for k in range(n):
        pivot = next(((i, j) for i in range(k, nr) for j in range(k, n) if m[i][j]), None)
        if pivot is None:
            diag.extend([0] * (n - k))
            break
        i, j = pivot
        m[k], m[i] = m[i], m[k]
        for r in m:
            r[k], r[j] = r[j], r[k]
        while True:
            changed = False
            for i in range(k + 1, nr):
                b = m[i][k]
                if b:
                    a = m[k][k]
                    g, s, t = _xgcd(a, b)
                    rk, ri = m[k], m[i]
                    m[k] = [(s * x + t * y) % d for x, y in zip(rk, ri)]
                    m[i] = [((a // g) * y - (b // g) * x) % d for x, y in zip(rk, ri)]
                    changed = changed or g != a
            for j in range(k + 1, n):
                b = m[k][j]
                if b:
                    a = m[k][k]
                    g, s, t = _xgcd(a, b)
                    for r in m:
                        x, y = r[k], r[j]
                        r[k] = (s * x + t * y) % d
                        r[j] = ((a // g) * y - (b // g) * x) % d
                    changed = changed or g != a
            # The pivot only shrinks; once it divides its row and column
            # both are clear.
            if not changed:
                break
        diag.append(m[k][k])
    divs = [gcd(e, d) for e in diag]
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(divs[i], divs[j])
            divs[i], divs[j] = g, divs[i] * divs[j] // g
    return divs


def snf_rational(rows):
    """Elementary divisors of a rational matrix of full column rank."""
    den = 1
    for row in rows:
        for x in row:
            den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
    ints = [[int(Fraction(x) * den) for x in row] for row in rows]
    return [Fraction(e, den) for e in snf_int(ints)]


def lie_divisors(descriptor, lattice_obj):
    """``{"killing_divisors": [...], "bracket_divisors": [...]}`` as
    strings, as ``latmod model lie`` reports them."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from latmod.exact import Lattice
    from latmod.matrixops import bracket, mat_inv, mat_vec
    from latmod.models import killing_gram, lie_model
    from latmod.reps import build_irrep
    from latmod.rootdata import build_chevalley

    cb = build_chevalley(descriptor["type"], int(descriptor["rank"]))
    rep = build_irrep(cb, tuple(int(x) for x in descriptor["hw"]))
    model = lie_model(rep, Lattice.from_json(json.dumps(lattice_obj)))
    gram = killing_gram(cb)
    basis = model.lattice.basis
    m = len(basis)
    g_lat = [
        [sum(basis[i][a] * gram[a][b] * basis[j][b] for a in range(m) for b in range(m)) for j in range(m)]
        for i in range(m)
    ]
    mats = [model.element(col) for col in basis]
    binv = mat_inv(model.lattice.basis_matrix())
    tensor = [mat_vec(binv, cb.coords_of(bracket(x, y))) for x in mats for y in mats]
    return {
        "killing_divisors": [str(d) for d in snf_rational(g_lat)],
        "bracket_divisors": [str(d) for d in snf_rational(tensor)],
    }
