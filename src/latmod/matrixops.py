"""Small exact linear algebra helpers over Fraction.

Matrices are tuples of rows; vectors are tuples.  Everything is immutable
and exact; the products and the eliminations return Fraction entries,
also for integer input.  rref is the one elimination: mat_inv, nullspace
and coordinate_solver are built on it, and QSpan reduces incrementally.
Coordinates in a fixed basis come from coordinate_solver: one
elimination, then a product and a residual check per vector.  Brackets
also come sparse ({(i, j): nonzero entry}), for the Chevalley identities.
Dimensions at desk scale never exceed a few dozen, but action matrices
are weight-graded and almost all zero, so the products skip zero entries
and sum only products of nonzero ones.
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


def primitive(v):
    """The primitive integer vector on the ray of v, first nonzero entry
    positive; the zero vector stays zero."""
    (ints,), _ = clear_denominators([v])
    g = gcd(*ints)
    if g == 0:
        return tuple(Fraction(0) for _ in v)
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        g = -g
    return tuple(Fraction(x // g) for x in ints)


def mat(rows):
    return tuple(tuple(F(x) for x in row) for row in rows)


def identity(n):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def zeros(nr, nc):
    return tuple((Fraction(0),) * nc for _ in range(nr))


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


def transpose(a):
    return tuple(zip(*a))


def bracket(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def sparse(a):
    """The nonzero entries of a as {(row, column): entry}."""
    return {(i, j): x for i, row in enumerate(a) for j, x in enumerate(row) if x}


def sparse_bracket(a, b):
    """ab − ba of sparse matrices {(i, j): entry}, zero entries dropped."""
    out = {}
    for left, right, negate in ((a, b, False), (b, a, True)):
        by_row = {}
        for (k, j), y in right.items():
            by_row.setdefault(k, []).append((j, -y if negate else y))
        for (i, k), x in left.items():
            for j, y in by_row.get(k, ()):
                out[i, j] = out.get((i, j), _ZERO) + x * y
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
    """Coordinates in the basis cols (linearly independent vectors).

    Returns coords(v): the x with Σ x_k·cols[k] = v, or None when v lies
    outside the span.  One elimination picks rows on which the basis is
    independent; each call multiplies v's entries there by the inverse of
    that square block, then checks the residual on every row.
    """
    a = transpose(cols)
    _, rows = rref(cols)
    if len(rows) != len(cols):
        raise ValueError("coordinate basis is linearly dependent")
    inv = mat_inv(tuple(a[i] for i in rows))

    def coords(v):
        v = tuple(v)
        x = mat_vec(inv, tuple(v[i] for i in rows))
        return x if mat_vec(a, x) == v else None

    return coords


class QSpan:
    """Growable Q-subspace of Q^dim with echelon membership tests."""

    __slots__ = ("dim", "_rows")

    def __init__(self, dim):
        self.dim = dim
        self._rows = {}  # pivot index -> reduced vector

    def _reduce(self, v):
        v = list(F(x) for x in v)
        for piv in sorted(self._rows):
            if v[piv] != 0:
                f = v[piv]
                w = self._rows[piv]
                for i in range(self.dim):
                    v[i] -= f * w[i]
        return v

    def insert(self, v):
        """Add v to the span; returns True if the span grew."""
        r = self._reduce(v)
        piv = next((i for i, x in enumerate(r) if x != 0), None)
        if piv is None:
            return False
        pv = r[piv]
        self._rows[piv] = tuple(x / pv for x in r)
        return True

    def contains(self, v):
        return all(x == 0 for x in self._reduce(v))

    @property
    def rank(self):
        return len(self._rows)
