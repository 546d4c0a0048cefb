"""Integer normal-form kernels: column Hermite form, hermite_coords (the
one integer coordinate routine, in a Hermite basis), and Smith form.

Every lattice operation funnels through column Hermite reduction (Cohen,
*A Course in Computational Algebraic Number Theory*, §2.4), and so does
the Smith form: it is the one elimination here.  The rows
of a column from nrows on are carried through its column operations
without being reduced: with an identity tail appended to each input
column, each output column's tail holds the integer combination of the
inputs that makes it, the transformation matrix of Cohen §2.4.2.

The Smith form is read off Hermite forms modulo d, the product of the
pivots of the row lattice's Hermite basis: that product is a nonzero
r×r minor, r the rank, so d_1⋯d_r divides it, and adding d·Z^n to the
lattice keeps every divisor while every later Hermite form keeps its
entries in [0, d).  Hermite forms of the matrix and its transpose
alternate until it is diagonal; snf_diagonal says why that ends.

The Hermite kernels take lists of columns, snf_diagonal a list of rows;
entries are Python ints (arbitrary precision).  All functions leave
their inputs untouched.
"""

from math import gcd, prod


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
    """Elementary divisors of an integer matrix (Smith normal form), from
    column Hermite forms alone.

    Input is a list of rows.  Returns the list of nonzero divisors, each
    positive and dividing the next; its length is the rank r.

    The modulus.  The Hermite basis h of the row lattice R ⊆ Z^n has r
    vectors and the same divisors as the rows.  Its entries at its r
    pivot positions form a triangular r×r minor, the product d of the
    pivots, and d_1⋯d_r, the gcd of the r×r minors, divides it.  So
    R + d·Z^n has the divisors d_1, …, d_r, d, …, d, all dividing d, and
    the row and the column lattice of any square basis matrix of it both
    contain d·Z^n.  A Hermite form of either, with the columns d·e_j
    appended, is then a basis of that same lattice, with its entries in
    [0, d); the loop alternates such forms of the matrix and of its
    transpose until it is diagonal.

    Termination.  The first pivot p of a pass is the gcd of the first
    coordinates of its lattice: of the first column of the previous
    matrix, so it divides the previous first pivot, and properly while
    that pivot does not divide its column.  Once it does, the lattice
    holds the previous (lower triangular) matrix's first row p·e_1, so
    by the uniqueness of the Hermite form its first basis vector is
    p·e_1.  Its first row and column are then clear, the lattice splits
    as p·Z ⊕ L', every later pass keeps the split, and the same argument
    runs on L'.  A gcd/lcm sweep orders the diagonal into d_1, …, d_r,
    d, …, d.
    """
    n = len(rows[0]) if rows else 0
    h = hnf_columns(rows, n)
    if not h:
        return []
    d = prod(next(x for x in c if x) for c in h)
    modulus = [[d * (i == j) for i in range(n)] for j in range(n)]
    m = [[x % d for x in c] for c in h]
    while True:
        m = hnf_columns(m + modulus, n)
        if not any(x for k, c in enumerate(m) for x in c[k + 1 :]):
            break
        m = list(zip(*m))
    divs = [c[k] for k, c in enumerate(m)]
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(divs[i], divs[j])
            divs[i], divs[j] = g, divs[i] // g * divs[j]
    return divs[: len(h)]
