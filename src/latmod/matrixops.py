"""Small exact linear algebra helpers over the rationals.

Every value the helpers return is canonical: an integral value is an
int, and a Fraction is left only for a value that is not integral.  F
makes a scalar so and canonical a sparse matrix; ratio is the one exact
quotient, and fractions is imported inside it (and inside F, for input
that is neither an int nor a Fraction) the first time a quotient is not
integral, so work on integral values never imports it; ratio_text
writes a quotient of ints as str writes it, and never imports it.
int_text writes an int of any length, and so writes every computed int
of a report: ratio_text's, the entries of a lattice of scale 1, and the
ints of the command-line reports.

Sparse matrices are {(i, j): entry}, sparse vectors {i: entry} over
ints or index tuples, zeros left out.  Every operator of the library is
an integer sparse matrix over one denominator: the actions of rootdata
and reps and the multiplications of a quadratic field.  The sparse
products (sparse_mat_vec, sparse_bracket, tensor_mat_vec) sum from 0,
so on integer input they stay in ints and never make a Fraction, and
ratio_text writes their entries.  sparse_mat_vec applies a sparse
matrix to a dense integer column, the product of exact.Lattice;
tensor_mat_vec applies a matrix through its column index (column_index)
on each factor of a tensor product, at the cost of the vector's
support, and latconstruct and the powers of reps read column indices
directly.  Dense matrices are tuples of rows, dense vectors tuples,
made only by the report writers (dense), from_coords and projector.
The dense helpers mat_vec, mat_mul, mat_sub, bracket, rref and mat_inv
skip zero entries; no command runs them, and they stay for the
benchmark's Lie oracle and tracer (perfbench/).

QSpan is the one elimination, fraction-free: it holds sparse vectors as
integer echelon rows, each with its integer combination of the vectors
inserted, so the relation of a vector to the basis is one reduction per
vector, which steps through the pivots in the vector's own support, the
least first, and never scans the span's other pivots.  Every kernel,
inverse and rref is read off it: relations yields the primitive integer
relations among vectors (the rays of a nullspace) in order, each before
any vector after it is read, so a caller that stops at the first reads
no vector past it; scaled_inverse d·a⁻¹ from the relations of the unit
vectors to a's columns, and rref and mat_inv divide only at the end,
through ratio; the Chevalley coordinates of a matrix are read off a
QSpan of the sparse generators (rootdata).
"""

import sys
from math import gcd, lcm


def F(x):
    """x as a canonical exact value: x itself when it is an int or a
    non-integral Fraction, its numerator when it is integral; any other
    x is read by Fraction first."""
    try:
        return x.numerator if x.denominator == 1 else x
    except AttributeError:
        from fractions import Fraction

        return F(Fraction(x))


def clear_denominators(vectors):
    """Scale vectors of ints and Fractions to integers by their common
    denominator; returns (integer lists, the least such scale d)."""
    d = 1
    for v in vectors:
        d = lcm(d, *(x.denominator for x in v))
    return [[x.numerator * (d // x.denominator) for x in v] for v in vectors], d


def canonical(m):
    """The sparse matrix or vector m with its zero entries dropped and
    every integral entry an int."""
    return {k: x.numerator if x.denominator == 1 else x for k, x in m.items() if x}


def ratio(a, b):
    """a/b exactly, canonical: an int when it is integral.  Between ints
    `/` would give a float, so every quotient in latmod is taken here."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    from fractions import Fraction

    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def int_text(n):
    """str(n) for an int n of any length.  CPython refuses str() of an int
    past sys.get_int_max_str_digits() digits, a guard for parsing input
    text; a computed int written as report text is converted with the
    limit lifted for that one conversion and then restored.  Where the
    limit does not exist, str() never refuses."""
    try:
        return str(n)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(n)
        finally:
            sys.set_int_max_str_digits(limit)


def ratio_text(a, b):
    """str(ratio(a, b)) for ints a and b > 0, written without a Fraction,
    each int by int_text, so of any length."""
    g = gcd(a, b)
    return int_text(a // g) if g == b else int_text(a // g) + "/" + int_text(b // g)


def primitive(v):
    """The primitive integer vector on the ray of the sparse vector v, its
    entry of least index positive, zeros dropped, as ints; {} stays {}."""
    v = {i: x for i, x in v.items() if x}
    if not v:
        return {}
    (ints,), _ = clear_denominators([v.values()])
    g = gcd(*ints)
    if v[min(v)] < 0:
        g = -g
    return {i: x // g for i, x in zip(v, ints)}


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_sub(a, b):
    return tuple(tuple(F(x - y) if y else x for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_mul(a, b):
    """a·b: each output row accumulates the nonzero entries of a's row
    times the nonzero entries of the matching rows of b."""
    nc = len(b[0]) if b else 0
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * nc
        for x, nonzero in zip(row, b_nonzero):
            if x:
                for j, y in nonzero:
                    acc[j] += x * y
        out.append(tuple(map(F, acc)))
    return tuple(out)


def mat_vec(a, v):
    """a·v, summed over the nonzero entries of v only."""
    nonzero = [(j, y) for j, y in enumerate(v) if y]
    out = []
    for row in a:
        s = 0
        for j, y in nonzero:
            x = row[j]
            if x:
                s += x * y
        out.append(F(s))
    return tuple(out)


def bracket(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def sparse(a):
    """The nonzero entries of a as {(row, column): entry}."""
    return {(i, j): x for i, row in enumerate(a) for j, x in enumerate(row) if x}


def dense(m, n):
    """The n×n matrix of the sparse matrix m, its zeros the int 0."""
    return tuple(tuple(m.get((i, j), 0) for j in range(n)) for i in range(n))


def column_index(a):
    """The sparse matrix a by column: {j: [(i, entry), ...]}."""
    cols = {}
    for (i, j), x in a.items():
        cols.setdefault(j, []).append((i, x))
    return cols


def sparse_mat_vec(g, v, rows):
    """g·v as a list of rows entries, for the sparse matrix g with that
    many rows and the dense column v."""
    out = [0] * rows
    for (i, j), x in g.items():
        out[i] += x * v[j]
    return out


def tensor_mat_vec(cols, v):
    """g·v for g acting on a tensor product of factors by the Leibniz rule,
    g(u_1 ⊗ … ⊗ u_k) = Σ u_1 ⊗ … ⊗ g·u_pos ⊗ … ⊗ u_k: cols lists g's
    column index on each factor, v is sparse over index tuples."""
    out = {}
    for t, y in v.items():
        for pos, (col, j) in enumerate(zip(cols, t)):
            for i, x in col.get(j, ()):
                s = t[:pos] + (i,) + t[pos + 1 :]
                out[s] = out.get(s, 0) + x * y
    return {s: x for s, x in out.items() if x}


def sparse_bracket(a, b):
    """ab − ba of sparse matrices {(i, j): entry}, zero entries dropped."""
    out = {}
    for left, right, negate in ((a, b, False), (b, a, True)):
        by_row = {}
        for (k, j), y in right.items():
            by_row.setdefault(k, []).append((j, -y if negate else y))
        for (i, k), x in left.items():
            for j, y in by_row.get(k, ()):
                out[i, j] = out.get((i, j), 0) + x * y
    return {ij: x for ij, x in out.items() if x}


def relations(vectors):
    """The integer relations among the sparse vectors, inserted in order
    into one QSpan: for each vector j that does not grow the span, the
    primitive {k: x} with Σ x_k·vectors[k] = 0, positive at j and zero
    but at j and the earlier vectors that grew the span, yielded before
    any vector after j is read, so vectors may be an iterator that makes
    each one on demand.  These are the rays of nullspace of the matrix
    with these columns, and a zero vector's relation is {j: 1}."""
    span = QSpan()
    grew = []
    for j, v in enumerate(vectors):
        if span.insert(v):
            grew.append(j)
            continue
        c, x = span.relation(v)
        r = {grew[k]: -y for k, y in x.items()}
        r[j] = c
        g = gcd(*r.values())
        if c < 0:
            g = -g
        yield {k: r[k] // g for k in sorted(r)}


def rref(a):
    """Reduced row echelon form; returns (rref_rows, pivot_columns).  The
    pivot columns are those that grow the span of the columns before
    them, and a free column's entries are its relation's at the pivots,
    negated, over its own."""
    nc = len(a[0]) if a else 0
    free = {max(r): r for r in relations([dict(enumerate(col)) for col in zip(*a)])}
    pivots = [j for j in range(nc) if j not in free]
    red = tuple(
        tuple(ratio(-free[j].get(p, 0), free[j][j]) if j in free else int(j == p) for j in range(nc))
        for p in pivots
    )
    return red + ((0,) * nc,) * (len(a) - len(pivots)), pivots


def scaled_inverse(a):
    """(d, the rows of d·a⁻¹) for the square a, d the least integer making
    them integral, without a quotient: after the columns of a, the unit
    vector e_j has the primitive relation c·e_j = Σ x_k·a_k, so column j
    of a⁻¹ is x/c in lowest terms.  Raises ZeroDivisionError if a is
    singular."""
    n = len(a)
    rels = list(relations([dict(enumerate(col)) for col in zip(*a)] + [{j: 1} for j in range(n)]))
    if any(max(r) < n for r in rels):
        raise ZeroDivisionError("singular matrix")
    d = lcm(*(r[n + j] for j, r in enumerate(rels)))
    return d, tuple(tuple(-r.get(i, 0) * (d // r[n + j]) for j, r in enumerate(rels)) for i in range(n))


def mat_inv(a):
    """Inverse, the rows of scaled_inverse over its d; raises
    ZeroDivisionError if singular."""
    d, rows = scaled_inverse(a)
    return tuple(tuple(ratio(x, d) for x in row) for row in rows)


class QSpan:
    """Growable Q-subspace of Q^n, spanned by sparse vectors {index:
    entry}, with echelon membership tests, fraction-free.

    The k-th vector u_k that grew the span is kept as its scale e_k, the
    least integer making U_k = e_k·u_k integral.  Each echelon row is an
    integer sparse vector R, zero before its pivot, with its integer
    combination K ({k: coefficient}), R = Σ K_k·U_k.  A vector is reduced
    step by step, each step at the least pivot in its own nonzero
    support; a row whose pivot does not divide the vector's entry there
    is met by cross-multiplying, and the content of the vector, its
    multiplier and its combination is then divided out.  A step zeroes
    the entry at its pivot and changes only entries after it, since
    every row is zero before its pivot: the rows met, and their order,
    are those of a pass over every pivot in increasing order that skips
    the pivots where the vector is zero, but a step costs the vector's
    support, not the span's rank.  So the relation of a vector to the
    basis u, an integer multiple of it as an integer combination of the
    u_k, comes from one reduction.
    """

    __slots__ = ("_rows", "_scales")

    def __init__(self):
        self._rows = {}  # pivot index -> (echelon row, its combination)
        self._scales = []  # e_k of each vector that grew the span

    def _reduce(self, v):
        """(a, m, t, e): a = m·e·v − Σ t_k·U_k, an integer vector zero at
        every pivot of the span, zeros dropped; e is v's scale, m a
        nonzero integer and t integral."""
        e = lcm(*(x.denominator for x in v.values()))
        a = {i: x.numerator * (e // x.denominator) for i, x in v.items() if x}
        m, t = 1, {}
        rows = self._rows
        while pivots := [i for i, x in a.items() if x and i in rows]:
            piv = min(pivots)
            f = a[piv]
            row, comb = rows[piv]
            p = row[piv]
            if f % p:
                g = gcd(f, p)
                s, q = p // g, f // g
                m *= s
                a = {i: s * x for i, x in a.items()}
                t = {k: s * c for k, c in t.items()}
            else:
                s, q = 1, f // p
            for i, x in row.items():
                a[i] = a.get(i, 0) - q * x
            for k, c in comb.items():
                t[k] = t.get(k, 0) + q * c
            if s != 1:
                g = gcd(m, *a.values(), *t.values())
                if g > 1:
                    m //= g
                    a = {i: x // g for i, x in a.items()}
                    t = {k: c // g for k, c in t.items()}
        return {i: x for i, x in a.items() if x}, m, t, e

    def insert(self, v):
        """Add v to the span; returns True if the span grew."""
        a, m, t, e = self._reduce(v)
        if not a:
            return False
        comb = {k: -c for k, c in t.items() if c}
        comb[self.rank] = m
        piv = min(a)
        self._rows[piv] = (a, comb)
        self._scales.append(e)
        return True

    def relation(self, v):
        """(c, x) with c·v = Σ x_k·u_k, u_k the vectors that grew the span
        in insertion order, c a nonzero integer and x sparse and integral;
        None when v lies outside the span."""
        a, m, t, e = self._reduce(v)
        if a:
            return None
        scales = self._scales
        return m * e, {k: y * scales[k] for k, y in t.items() if y}

    @property
    def rank(self):
        return len(self._rows)
