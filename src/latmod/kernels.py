"""Integer normal-form kernels: column Hermite form, hermite_coords (the
one integer coordinate routine, in a Hermite basis), and Smith form.

Every lattice operation funnels through column Hermite reduction (Cohen,
*A Course in Computational Algebraic Number Theory*, §2.4).  The rows
of a column from nrows on are carried through its column operations
without being reduced: with an identity tail appended to each input
column, each output column's tail holds the integer combination of the
inputs that makes it, the transformation matrix of Cohen §2.4.2.

The Smith form is taken modulo D = |a nonzero r×r minor|, r the rank
(Cohen §2.4.3; Hafner–McCurley 1991), so no entry grows past D: the
product d_1⋯d_r divides every r×r minor, hence each divisor divides D
and survives the reduction.

The Hermite kernels take lists of columns, snf_diagonal a list of rows;
entries are Python ints (arbitrary precision).  All functions leave
their inputs untouched.
"""

from math import gcd


def hnf_columns(cols, nrows):
    """Column-style Hermite normal form of the integer column span.

    Returns the canonical basis as a list of pivot columns ordered by
    pivot row.  Convention: each returned column has its first nonzero
    entry (the pivot) positive, entries of earlier columns at a pivot row
    are reduced into [0, pivot).  For a full-rank square input this is the
    lower-triangular HNF with positive diagonal.

    Only rows 0..nrows-1 are reduced; any further rows of a column (a
    tail) undergo the same column operations, so a returned column's tail
    is the same integer combination of the input tails as its head is of
    the input heads.  Columns whose head reduces to zero are dropped.
    """
    work = [list(c) for c in cols if any(c)]
    fixed = []
    for row in range(nrows):
        live = [c for c in work if c[row] != 0]
        if not live:
            continue
        # Euclidean reduction: leave a single column nonzero at this row.
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[row]))
            piv = live[0]
            pv = piv[row]
            for c in live[1:]:
                q = c[row] // pv
                if q:
                    for i in range(row, len(piv)):
                        c[i] -= q * piv[i]
            live = [c for c in live if c[row] != 0]
        piv = live[0]
        work.remove(piv)
        if piv[row] < 0:
            piv = [-x for x in piv]
        pv = piv[row]
        for c in fixed:
            q = c[row] // pv
            if q:
                for i in range(row, len(piv)):
                    c[i] -= q * piv[i]
        fixed.append(piv)
        if not work:
            break
    return fixed


def hermite_coords(v, cols, pivots):
    """The integers x with sum_k x[k]·cols[k] = v, where cols[k] is zero
    above row pivots[k] and the pivots increase; None when v is outside
    the span: at the first pivot that does not divide, or when a residual
    is left off the pivots.  Rows of cols past len(v), such as the tails
    hnf_columns carries, are not read."""
    r = list(v)
    x = []
    for col, piv in zip(cols, pivots):
        q = r[piv]
        if q:
            if q % col[piv]:
                return None
            q //= col[piv]
            for i in range(piv, len(r)):
                r[i] -= q * col[i]
        x.append(q)
    return None if any(r) else x


def snf_diagonal(rows):
    """Elementary divisors of an integer matrix (Smith normal form),
    computed modulo a determinant (Cohen §2.4.3).

    Input is a list of rows.  Returns the list of nonzero divisors, each
    positive and dividing the next; its length is the rank r.

    Bareiss elimination gives r and D = |a nonzero r×r minor|; the
    reduction then keeps every entry in [0, D).  This is exact because
    d_1⋯d_r divides every r×r minor, so each d_i divides D: the rows
    together with D·Z^n have the divisors d_1, …, d_r, D, …, D.
    """
    r, d = _rank_and_minor(rows)
    if r == 0:
        return []
    nc = len(rows[0])
    m = [row for row in ([x % d for x in row] for row in rows) if any(row)]
    diag = []
    k = 0
    while k < nc and _pivot_to(m, k, nc):
        piv = m[k]
        while True:
            # Clear column k with row operations, then row k with column
            # operations.  A step either divides (the pivot stays) or
            # replaces the pivot by a proper divisor, so this ends.
            changed = False
            for i in range(k + 1, len(m)):
                row = m[i]
                b = row[k]
                if not b:
                    continue
                a = piv[k]
                g, s, t = _xgcd(a, b)
                if g == a:
                    q = b // a
                    row[k] = 0
                    for j in range(k + 1, nc):
                        row[j] = (row[j] - q * piv[j]) % d
                else:
                    ag, bg = a // g, b // g
                    new = [(s * x + t * y) % d for x, y in zip(piv, row)]
                    m[i] = [(ag * y - bg * x) % d for x, y in zip(piv, row)]
                    piv = m[k] = new
                    changed = True
            clear = True  # column k is zero below the pivot
            for j in range(k + 1, nc):
                b = piv[j]
                if not b:
                    continue
                a = piv[k]
                g, s, t = _xgcd(a, b)
                if g == a and clear:
                    piv[j] = 0
                    continue
                ag, bg = a // g, b // g
                for row in m[k:]:
                    x, y = row[k], row[j]
                    row[k] = (s * x + t * y) % d
                    row[j] = (ag * y - bg * x) % d
                if g != a:
                    clear = False
                    changed = True
            if not changed:
                break
        diag.append(piv[k])
        k += 1
        m[k:] = [row for row in m[k:] if any(row)]
    # Entries left at zero stand for D; a gcd/lcm sweep restores the
    # divisibility chain, whose first r terms are the divisors.
    divs = [gcd(e, d) for e in diag] + [d] * (r - len(diag))
    for i in range(len(divs)):
        for j in range(i + 1, len(divs)):
            g = gcd(divs[i], divs[j])
            divs[i], divs[j] = g, divs[i] // g * divs[j]
    return divs[:r]


def _rank_and_minor(rows):
    """Rank r of an integer matrix and |a nonzero r×r minor| (1 when r
    is 0), by fraction-free Bareiss elimination with full pivoting: each
    intermediate entry is a minor of the input, so none grows past the
    Hadamard bound."""
    m = [list(row) for row in rows if any(row)]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    prev = 1
    for k in range(min(nr, nc)):
        if not _pivot_to(m, k, nc):
            return k, abs(prev)
        top = m[k]
        p = top[k]
        for i in range(k + 1, nr):
            row = m[i]
            f = row[k]
            for j in range(k + 1, nc):
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
    return min(nr, nc), abs(prev)


def _pivot_to(m, k, nc):
    """Swap the entry of least absolute value among the nonzero ones of
    the block below and right of (k, k) into (k, k); False if the block
    is zero."""
    best = None
    for i in range(k, len(m)):
        row = m[i]
        for j in range(k, nc):
            x = abs(row[j])
            if x and (best is None or x < best[0]):
                best = (x, i, j)
    if best is None:
        return False
    _, i, j = best
    m[k], m[i] = m[i], m[k]
    if j != k:
        for row in m[k:]:
            row[k], row[j] = row[j], row[k]
    return True


def _xgcd(a, b):
    """(g, s, t) with s·a + t·b = g = gcd(a, b), for a > 0 and b >= 0;
    (a, 1, 0) when a divides b."""
    if b % a == 0:
        return a, 1, 0
    s0, t0, s1, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0
