"""Integer normal-form kernels: column Hermite form, hermite_coords (the
one integer coordinate routine, in a Hermite basis), and Smith form.

Every lattice operation funnels through column Hermite reduction, and
the orbit enumerations call it thousands of times (Cohen, *A Course in
Computational Algebraic Number Theory*, §2.4).

Matrices are lists of columns, each column a list of Python ints
(arbitrary precision).  All functions leave their inputs untouched.
"""

IMPLEMENTATION = "python"


def hnf_columns(cols, nrows):
    """Column-style Hermite normal form of the integer column span.

    Returns the canonical basis as a list of pivot columns ordered by
    pivot row.  Convention: each returned column has its first nonzero
    entry (the pivot) positive, entries of earlier columns at a pivot row
    are reduced into [0, pivot).  For a full-rank square input this is the
    lower-triangular HNF with positive diagonal.
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
                    for i in range(row, nrows):
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
                for i in range(row, nrows):
                    c[i] -= q * piv[i]
        fixed.append(piv)
        if not work:
            break
    return fixed


def hermite_coords(v, cols, pivots):
    """The integers x with sum_k x[k]·cols[k] = v, where cols[k] is zero
    above row pivots[k] and the pivots increase; None when v is outside
    the span: at the first pivot that does not divide, or when a residual
    is left off the pivots."""
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
    """Elementary divisors of an integer matrix (Smith normal form).

    Input is a list of rows.  Returns the list of nonzero divisors, each
    positive and dividing the next; its length is the rank.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    divisors = []
    top = 0
    while True:
        # Find a nonzero entry at or below/right of (top, top).
        pivot = None
        for i in range(top, nr):
            for j in range(top, nc):
                if m[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        m[top], m[i] = m[i], m[top]
        for r in m:
            r[top], r[j] = r[j], r[top]
        while True:
            # Clear column `top` with row operations.
            again = False
            for i in range(top + 1, nr):
                if m[i][top] == 0:
                    continue
                q = m[i][top] // m[top][top]
                for j in range(top, nc):
                    m[i][j] -= q * m[top][j]
                if m[i][top] != 0:
                    m[top], m[i] = m[i], m[top]
                    again = True
            if again:
                continue
            # Clear row `top` with column operations.
            for j in range(top + 1, nc):
                if m[top][j] == 0:
                    continue
                q = m[top][j] // m[top][top]
                for i in range(top, nr):
                    m[i][j] -= q * m[i][top]
                if m[top][j] != 0:
                    for r in m:
                        r[top], r[j] = r[j], r[top]
                    again = True
            if not again:
                break
        # Enforce divisibility: pivot must divide the remaining block.
        p = m[top][top]
        bad = None
        for i in range(top + 1, nr):
            for j in range(top + 1, nc):
                if m[i][j] % p != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(top, nc):
                m[top][j] += m[bad][j]
            continue
        divisors.append(abs(p))
        top += 1
        if top >= nr or top >= nc:
            break
    return divisors
