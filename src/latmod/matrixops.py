"""Small exact linear algebra helpers over the rationals.

Dense matrices are tuples of rows, dense vectors tuples; the dense
products and the eliminations return Fraction entries, also for integer
input, and the products skip zero entries.  rref gives mat_inv and
nullspace.  Sparse matrices are {(i, j): entry}, sparse vectors {i:
entry} over ints or index tuples, zeros left out; their entries are
canonical: an integral entry is an int and a Fraction is left only where
the entry is not integral (canonical makes a sparse matrix so, and ratio
is the one division).  The sparse products (sparse_bracket,
tensor_mat_vec) sum from 0, so on integer input they stay in ints.
tensor_mat_vec applies a matrix through its column index on each factor
of a tensor product, at the cost of the vector's support.  QSpan holds
sparse vectors, each echelon row with its combination of the vectors
inserted, all canonical, so coordinates in a basis are one reduction per
vector; coordinate_solver reads dense columns through it.
"""

from fractions import Fraction
from math import gcd, lcm


_ZERO = Fraction(0)


def F(x):
    return x if isinstance(x, Fraction) else Fraction(x)


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
    `/` would give a float, so every quotient of the sparse helpers is
    taken here."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


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


def mat(rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


def identity(n):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def mat_sub(a, b):
    return tuple(tuple(x - y if y else x for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    c = F(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a, b):
    """a·b: each output row accumulates the nonzero entries of a's row
    times the nonzero entries of the matching rows of b."""
    nc = len(b[0]) if b else 0
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [_ZERO] * nc
        for x, nonzero in zip(row, b_nonzero):
            if x:
                for j, y in nonzero:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_vec(a, v):
    """a·v, summed over the nonzero entries of v only."""
    nonzero = [(j, y) for j, y in enumerate(v) if y]
    out = []
    for row in a:
        s = _ZERO
        for j, y in nonzero:
            x = row[j]
            if x:
                s += x * y
        out.append(s)
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


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def is_zero(a):
    return all(x == 0 for row in a for x in row)


def rref(a):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m = [[F(x) for x in row] for row in a]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return tuple(tuple(row) for row in m), pivots


def mat_inv(a):
    """Inverse as the right half of rref([a | I]); raises
    ZeroDivisionError if singular."""
    n = len(a)
    red, pivots = rref([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return tuple(row[n:] for row in red)


def nullspace(a):
    """Basis of the right kernel, as a tuple of vectors."""
    nc = len(a[0]) if a else 0
    red, pivots = rref(a)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(tuple(v))
    return tuple(basis)


def coordinate_solver(cols):
    """Coordinates in the basis cols (linearly independent dense vectors).

    Returns coords(v): the tuple x with Σ x_k·cols[k] = v, or None when v
    lies outside the span; read off a QSpan that cols were inserted into.
    """
    span = QSpan()
    if not all(span.insert(dict(enumerate(c))) for c in cols):
        raise ValueError("coordinate basis is linearly dependent")

    def coords(v):
        x = span.coords(dict(enumerate(v)))
        return None if x is None else tuple(x.get(k, 0) for k in range(len(cols)))

    return coords


class QSpan:
    """Growable Q-subspace of Q^n, spanned by sparse vectors {index:
    entry}, with echelon membership tests.

    Each echelon row is kept sparse (zero before its pivot and 1 at it)
    with its combination of the vectors that grew the span ({k:
    coefficient} in their insertion order), so the coordinates of a
    vector in that basis come from one reduction.  Rows, combinations and
    coordinates are canonical (integral entries are ints).
    """

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows = {}  # pivot index -> (echelon row, its combination)

    def _reduce(self, v):
        """v less the echelon rows it meets, in pivot order, and the
        combination of the inserted vectors taken off."""
        v = {i: x for i, x in v.items() if x}
        taken = {}
        for piv in sorted(self._rows):
            f = v.get(piv)
            if f:
                row, comb = self._rows[piv]
                for i, x in row.items():
                    v[i] = v.get(i, 0) - f * x
                for k, c in comb.items():
                    taken[k] = taken.get(k, 0) + f * c
        return canonical(v), canonical(taken)

    def insert(self, v):
        """Add v to the span; returns True if the span grew."""
        r, taken = self._reduce(v)
        if not r:
            return False
        piv = min(r)
        pv = r[piv]
        comb = {k: ratio(-c, pv) for k, c in taken.items()}
        comb[self.rank] = ratio(1, pv)
        self._rows[piv] = ({i: ratio(x, pv) for i, x in r.items()}, comb)
        return True

    def contains(self, v):
        return not self._reduce(v)[0]

    def coords(self, v):
        """The sparse x with Σ x_k·u_k = v, u_k the vectors that grew the
        span in insertion order, or None when v lies outside the span."""
        r, taken = self._reduce(v)
        return None if r else taken

    @property
    def rank(self):
        return len(self._rows)
