"""Exact lattice arithmetic over Z and Z_(p).

A Lattice is a full-rank R-submodule of Q^n given by a canonical basis
matrix (columns generate).  R is either Z (prime=None) or the localization
Z_(p).  One routine, _canonical, makes the canonical forms, so equality is
a tuple comparison:

* global: column Hermite normal form, lower triangular, positive pivots;
* local: lower triangular with p-power pivots p^e, off-pivot entries in a
  pivot row reduced to integers in [0, p^e), the whole matrix scaled by
  the minimal p-power making the lattice p-integral.

Sums, intersections, indices and membership are Lattice methods.  ZSpan
is the integer span of any rank, used for the torus shift lattice of the
orbit reports.
"""

import json
from fractions import Fraction
from math import prod

from latmod.kernels import hnf_columns, snf_diagonal
from latmod.matrixops import F, clear_denominators, mat_inv, mat_mul, mat_vec

ENUM_ORDER_CAP = 2**20


class LatticeError(ValueError):
    pass


def vp(x, p):
    """p-adic valuation of a nonzero rational."""
    x = F(x)
    if x == 0:
        raise ValueError("valuation of zero")
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def is_prime(n):
    return n >= 2 and all(n % q for q in range(2, int(n**0.5) + 1))


def _canonical(cols, n, p=None):
    """Canonical basis columns of the span of cols in Q^n.

    Over Z (p None) this is the Hermite form of the span, of any rank.
    Over Z_(p) the span must have full rank.  Write the common denominator
    of cols as d = p^s·u with u prime to p.  As u is a unit, the cleared
    integer matrix d·cols spans p^s times the lattice over Z_(p), and p^s
    is the least p-power making the lattice p-integral.
    """
    ints, d = clear_denominators(cols)
    h = hnf_columns(ints, n)
    if p is None:
        return [tuple(Fraction(x, d) for x in col) for col in h]
    if len(h) < n:
        raise LatticeError("degenerate basis")
    s = 0
    while d % p == 0:
        d //= p
        s += 1
    e = sum(vp(h[i][i], p) for i in range(n))
    # Adding p^e·Z^n trivializes the prime-to-p part without touching
    # the p-part; the Hermite form of the result is the unique integral
    # representative.
    pe = p**e
    gens = [list(c) for c in h]
    for i in range(n):
        v = [0] * n
        v[i] = pe
        gens.append(v)
    canon = hnf_columns(gens, n)
    ps = p**s
    return [tuple(Fraction(x, ps) for x in col) for col in canon]


class Lattice:
    """Full-rank lattice in Q^n over Z or Z_(p); immutable, canonical."""

    __slots__ = ("ambient", "prime", "basis")

    def __init__(self, generators, prime=None, ambient=None):
        gens = [tuple(col) for col in generators]
        if not gens:
            raise LatticeError("empty generating set")
        n = ambient if ambient is not None else len(gens[0])
        if any(len(c) != n for c in gens):
            raise LatticeError("ragged generators")
        if prime is not None and not is_prime(prime):
            raise LatticeError("prime must be prime: %r" % (prime,))
        canon = _canonical(gens, n, prime)
        if len(canon) < n:
            raise LatticeError("degenerate basis")
        object.__setattr__(self, "ambient", n)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "basis", tuple(canon))

    def __setattr__(self, *a):
        raise AttributeError("Lattice is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.ambient == other.ambient
            and self.prime == other.prime
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.prime, self.basis))

    def __repr__(self):
        ring = "Z" if self.prime is None else "Z_(%d)" % self.prime
        return "Lattice(%s, %r)" % (ring, [list(c) for c in self.basis])

    # -- core data ---------------------------------------------------

    def basis_matrix(self):
        """Basis as a matrix (rows), columns generate."""
        return tuple(zip(*self.basis))

    def covolume(self):
        """|det| of the canonical basis (product of pivots)."""
        d = Fraction(1)
        for i, col in enumerate(self.basis):
            d *= col[i]
        return d

    # -- predicates --------------------------------------------------

    def _coords(self, v):
        """Coordinates of v in the canonical (lower triangular) basis."""
        v = [F(x) for x in v]
        x = []
        for i in range(self.ambient):
            xi = (v[i] - sum(self.basis[j][i] * x[j] for j in range(i))) / self.basis[i][i]
            x.append(xi)
        return x

    def member(self, v):
        x = self._coords(v)
        if self.prime is None:
            return all(c.denominator == 1 for c in x)
        return all(c.denominator % self.prime != 0 for c in x)

    def contains(self, other):
        self._check_compatible(other)
        return all(self.member(c) for c in other.basis)

    def _check_compatible(self, other):
        if self.ambient != other.ambient or self.prime != other.prime:
            raise LatticeError("mismatched ambient dimension or ring")

    # -- module operations -------------------------------------------

    def scale(self, c):
        c = F(c)
        return Lattice([[c * x for x in col] for col in self.basis], self.prime)

    def sum(self, other):
        self._check_compatible(other)
        return Lattice(list(self.basis) + list(other.basis), self.prime)

    def dual(self):
        binv = mat_inv(self.basis_matrix())
        # Rows of B^{-1} = columns of B^{-T}.
        return Lattice(list(binv), self.prime)

    def intersect(self, other):
        self._check_compatible(other)
        return self.dual().sum(other.dual()).dual()

    def index_in(self, sup):
        """[sup : self]; p-part only over Z_(p)."""
        sup._check_compatible(self)
        if not sup.contains(self):
            raise LatticeError("index: sub is not contained in sup")
        q = abs(self.covolume() / sup.covolume())
        if self.prime is None:
            assert q.denominator == 1
            return int(q)
        return self.prime ** vp(q, self.prime)

    def apply(self, matrix):
        """Image lattice under a nonsingular rational matrix (rows)."""
        return Lattice([mat_vec(matrix, c) for c in self.basis], self.prime)

    # -- serialization -----------------------------------------------

    def to_json_obj(self):
        ring = "Z" if self.prime is None else {"Zp": self.prime}
        rows = [[str(x) for x in row] for row in self.basis_matrix()]
        return {"ambient": self.ambient, "ring": ring, "basis": rows}

    @classmethod
    def from_json_obj(cls, obj):
        ring = obj["ring"]
        prime = None if ring == "Z" else int(ring["Zp"])
        rows = [[Fraction(x) for x in row] for row in obj["basis"]]
        cols = list(zip(*rows))
        return cls(cols, prime, ambient=obj["ambient"])

    def to_json(self):
        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, text):
        return cls.from_json_obj(json.loads(text))


# ---------------------------------------------------------------------
# Spec-level operations
# ---------------------------------------------------------------------


class ElementaryDivisors:
    """Nonzero elementary divisors, each dividing the next."""

    __slots__ = ("divisors",)

    def __init__(self, divisors):
        divs = tuple(F(d) for d in divisors)
        for a, b in zip(divs, divs[1:]):
            if (b / a).denominator != 1:
                raise LatticeError("divisibility chain violated")
        object.__setattr__(self, "divisors", divs)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def __eq__(self, other):
        return isinstance(other, ElementaryDivisors) and self.divisors == other.divisors

    def __iter__(self):
        return iter(self.divisors)

    def __repr__(self):
        return "ElementaryDivisors(%s)" % (list(self.divisors),)


def snf(rows):
    """Elementary divisors of a rational matrix (rows); rank many."""
    cols = list(zip(*rows)) if rows else []
    ints, d = clear_denominators(cols)
    divs = snf_diagonal([list(r) for r in zip(*ints)]) if ints else []
    return ElementaryDivisors([Fraction(x, d) for x in divs])


def transporter(gens, src, dst):
    """Coefficient lattice {c : (sum_k c_k·gens[k])·src ⊆ dst}.

    In the bases of src and dst the condition asks every entry of
    sum_k c_k·B_dst^-1·gens[k]·B_src to lie in the ring, so the solutions
    are the dual of the lattice generated by the entry rows.  The rows
    span the coefficient space exactly when the gens are linearly
    independent.
    """
    dst._check_compatible(src)
    b = src.basis_matrix()
    dinv = mat_inv(dst.basis_matrix())
    conj = [mat_mul(dinv, mat_mul(g, b)) for g in gens]
    n = src.ambient
    rows = [tuple(c[i][j] for c in conj) for i in range(n) for j in range(n)]
    return Lattice([r for r in rows if any(r)], dst.prime, ambient=len(gens)).dual()


def distance(a, b):
    """Lattice distance n - m over Z_(p) (see the metric lemma)."""
    if a.prime is None or b.prime is None:
        raise LatticeError("distance requires localized lattices")
    a._check_compatible(b)
    t = [a._coords(col) for col in b.basis]  # columns of a^{-1}·b
    divs = snf(list(zip(*t)))
    vals = [vp(d, a.prime) for d in divs]
    return max(vals) - min(vals)


def _reduces_to_zero(v, cols, j):
    """Does v, zero above row j, lie in the span of columns j..n-1 of the
    lower-triangular integer matrix cols?"""
    v = list(v)
    n = len(v)
    for i in range(j, n):
        if v[i] == 0:
            continue
        col = cols[i]
        if v[i] % col[i]:
            return False
        q = v[i] // col[i]
        for r in range(i, n):
            v[r] -= q * col[r]
    return True


def _subgroup_hnfs(h):
    """All HNF bases of lattices between the column span of h and Z^n.

    h: full-rank lower-triangular integer Hermite form, as columns.
    Yields lower-triangular integer matrices as column lists.  Columns
    are produced right-to-left: the pivot of column j divides h[j][j],
    and column j of h must reduce to zero against the fixed columns
    j..n-1, so a partial basis that cannot contain h is dropped before
    any column to its left is tried.
    """
    n = len(h)
    pivots = [[a for a in range(1, h[j][j] + 1) if h[j][j] % a == 0] for j in range(n)]
    cols = [[0] * n for _ in range(n)]

    def gen(j):
        if j < 0:
            yield [list(c) for c in cols]
            return
        for a in pivots[j]:
            cols[j] = [0] * n
            cols[j][j] = a

            def fill(i):
                if i == n:
                    if _reduces_to_zero(h[j], cols, j):
                        yield from gen(j - 1)
                    return
                for val in range(cols[i][i]):
                    cols[j][i] = val
                    yield from fill(i + 1)
                cols[j][i] = 0

            yield from fill(j + 1)
        cols[j] = [0] * n

    yield from gen(n - 1)


def enumerate_between(low, high):
    """All lattices M with low ⊆ M ⊆ high, each exactly once.

    In the basis of high, low becomes an integer matrix (over Z_(p) its
    prime-to-p denominators are units and are cleared).  Over Z_(p) the
    columns p^e·e_i are appended, p^e the p-part of [high : low]: this
    kills the prime-to-p part of the quotient, so the Z-lattices between
    the result and Z^n correspond one to one to the Z_(p)-lattices
    between low and high.  With H the column Hermite form of that
    matrix, every intermediate lattice has a unique Hermite basis M ⊇ H
    (Cohen, §2.4.3), and M maps back through high's basis.
    """
    high._check_compatible(low)
    if not high.contains(low):
        raise LatticeError("enumerate_between: low is not contained in high")
    n = high.ambient
    p = high.prime
    # Columns of low in high's basis: lower triangular and, as high
    # contains low, integral up to a unit denominator.
    ints, _ = clear_denominators([high._coords(col) for col in low.basis])
    if p is not None:
        pe = p ** sum(vp(ints[i][i], p) for i in range(n))
        ints += [[pe * int(i == j) for i in range(n)] for j in range(n)]
    h = hnf_columns(ints, n)
    order = prod(h[i][i] for i in range(n))
    if order > ENUM_ORDER_CAP:
        raise LatticeError("quotient order %d exceeds cap %d" % (order, ENUM_ORDER_CAP))
    basis, denom = clear_denominators(high.basis)
    out = []
    for cols in _subgroup_hnfs(h):
        assert all(_reduces_to_zero(h[j], cols, j) for j in range(n))
        gens = [
            [Fraction(sum(c[k] * basis[k][r] for k in range(k0, n)), denom) for r in range(n)]
            for k0, c in enumerate(cols)
        ]
        out.append(Lattice(gens, p))
    assert len(set(out)) == len(out), "Hermite parametrization must be injective"
    return out


# ---------------------------------------------------------------------
# ZSpan: finitely generated R-submodule of Q^m of any rank
# ---------------------------------------------------------------------


class ZSpan:
    """Z-span of a finite set of vectors in Q^m; canonical HNF basis."""

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, vectors, ambient):
        object.__setattr__(self, "ambient", ambient)
        canon = _canonical([tuple(v) for v in vectors], ambient)
        pivots = tuple(next(i for i, x in enumerate(col) if x != 0) for col in canon)
        object.__setattr__(self, "basis", tuple(canon))
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, *a):
        raise AttributeError("ZSpan is immutable")

    @property
    def rank(self):
        return len(self.basis)

    def coords(self, v):
        """Coordinates of v in the basis, or None if v is outside."""
        v = tuple(F(x) for x in v)
        if not self.basis:
            return () if not any(v) else None
        x = []
        for k, col in enumerate(self.basis):
            piv = self.pivots[k]
            xi = (v[piv] - sum(self.basis[j][piv] * x[j] for j in range(k))) / col[piv]
            x.append(xi)
        # Verify against all coordinates, not just pivots.
        for i in range(self.ambient):
            if sum(self.basis[j][i] * x[j] for j in range(len(x))) != v[i]:
                return None
        return tuple(x)

    def member(self, v):
        x = self.coords(v)
        return x is not None and all(c.denominator == 1 for c in x)

    def __eq__(self, other):
        return (
            isinstance(other, ZSpan)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return "ZSpan(rank %d in Q^%d)" % (self.rank, self.ambient)
