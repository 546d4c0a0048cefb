"""Exact lattice arithmetic over Z and Z_(p).

A Lattice is a full-rank R-submodule of Q^n, R either Z (prime=None) or
the localization Z_(p).  It is stored as integer Hermite columns over one
denominator, its scale: the least d with d·L integral, over Z_(p) a power
of p.  The basis is the view columns / scale, built on request.  The
pair (denominator, columns) is canonical, so equality is a tuple
comparison:

* global: column Hermite normal form, lower triangular, positive pivots;
* local: lower triangular with p-power pivots p^e, off-pivot entries in a
  pivot row reduced to integers in [0, p^e), so the columns also span
  p^e·Z^n.

Lattice writes every pair, through _store.  The constructor and
from_integers run _canonical, a Hermite pass over the generators;
from_blocks, the direct sum of lattices on disjoint coordinates (the
split lattices of latconstruct), and diagonal, ⊕ p^(v_i)·Z_(p)·e_i, write
the pair as it stands, each docstring proving it is the one _canonical
would return; valuations reads v back off a diagonal lattice.

Membership is kernels.hermite_coords on the columns, and so are the
coordinates of Lattice.coordinates, over one denominator: dual,
transporter and distance read them, sum, scale and apply span integer
columns, and no Fraction basis is inverted.  An operator is an integer
sparse matrix {(i, j): entry}, as the library builds every one, over a
denominator den where one is taken: stable_under, apply and transporter
apply it to the integer columns by matrixops.sparse_mat_vec.  index_in
is a quotient of integer pivot products.  ZSpan is the
integer span of any rank in the same representation: the torus shifts
of the orbit reports, which reduce modulo its columns.  Every rational
this module returns is canonical (matrixops.F): an int when it is
integral, and every quotient is matrixops.ratio, so fractions is
imported only for a value that is not integral, such as a basis entry
column / scale or an "a/b" entry of a lattice file.  json is imported
only by to_json and from_json, and by from_json_obj to quote a bad value
in its error.
"""

from itertools import chain
from math import gcd, lcm, prod

from latmod.kernels import hermite_coords, hnf_columns, snf_diagonal
from latmod.matrixops import F, clear_denominators, ratio, ratio_text, sparse_mat_vec

ENUM_ORDER_CAP = 2**20


class LatticeError(ValueError):
    pass


def vp(x, p):
    """p-adic valuation of a nonzero rational (int or Fraction): while p
    divides the numerator (or the denominator), q = p is squared up to
    the largest p^(2^j) that divides it, which is divided out and counts
    2^j (−2^j), so a valuation v takes O(log² v) operations."""
    if x == 0:
        raise ValueError("valuation of zero")
    v = 0
    for n, sign in ((x.numerator, 1), (x.denominator, -1)):
        while n % p == 0:
            q, e = p, 1
            while n % (q * q) == 0:
                q, e = q * q, 2 * e
            n //= q
            v += sign * e
    return v


# Miller–Rabin on these 13 bases decides primality below PRIME_BOUND (Sorenson–Webster 2015).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(n):
    if n >= PRIME_BOUND:
        raise LatticeError("primality is decided only below %d" % PRIME_BOUND)
    if n < 2 or any(n % q == 0 for q in PRIME_BASES):
        return n in PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s·d with d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or n - 1 in {pow(a, d << r, n) for r in range(s)} for a in PRIME_BASES)


def integral(values, den, p=None):
    """Is every x/den (x in values, den > 0) in R, that is Z when p is
    None and Z_(p) otherwise: is its least common denominator
    den/gcd(den, values) 1, or prime to p?"""
    q = den // gcd(den, *values)
    return q == 1 or (p is not None and q % p != 0)


def _canonical(ints, d, n, p=None):
    """Canonical (denominator, columns) of the span L of the integer
    columns ints over d > 0, in Q^n.

    Dividing out g = gcd(d, content) leaves the least d with d·L integral.
    Over Z (p None) the columns are the Hermite form, of any rank.  Over
    Z_(p) the span must have full rank.  Write d = p^s·u with u prime to
    p: as u is a unit, the columns span p^s·L over Z_(p), and p^s is the
    least p-power making L p-integral.
    """
    h = hnf_columns(ints, n)
    g = gcd(d, *chain.from_iterable(h))
    if g > 1:
        d //= g
        h = [[x // g for x in col] for col in h]
    if p is None:
        return d, h
    if len(h) < n:
        raise LatticeError("degenerate basis")
    # Adding p^e·Z^n trivializes the prime-to-p part without touching
    # the p-part; the Hermite form of the result is the unique integral
    # representative.
    pe = p ** sum(vp(h[i][i], p) for i in range(n))
    gens = h + [[pe * int(i == j) for i in range(n)] for j in range(n)]
    return p ** vp(d, p), hnf_columns(gens, n)


def _in_span(w, e, d, cols, pivots, p=None):
    """Is w/e (w integral, e > 0) in the R-span of the Hermite columns cols
    over d, that is d·w/e in the span of cols?  Over Z_(p) the columns
    span p^e·Z^n, so an integral vector in their Z_(p)-span is in their
    Z-span, and a prime-to-p denominator is a unit."""
    w = [d * x for x in w]
    if not integral(w, e, p):
        return False
    g = gcd(e, *w)
    return hermite_coords([x // g for x in w], cols, pivots) is not None


def _entry(x):
    """A lattice-file entry, an int or a string, as a canonical rational:
    a Fraction is read only from a string that is not an integer, such as
    "1/2"."""
    try:
        return int(x)
    except ValueError:
        from fractions import Fraction

        return F(Fraction(x))


class Lattice:
    """Full-rank lattice in Q^n over Z or Z_(p); immutable, canonical:
    integer Hermite columns over one denominator, the scale."""

    __slots__ = ("ambient", "prime", "denominator", "columns")

    def __init__(self, generators, prime=None, ambient=None):
        gens = [tuple(col) for col in generators]
        if not gens:
            raise LatticeError("empty generating set")
        n = ambient if ambient is not None else len(gens[0])
        if any(len(c) != n for c in gens):
            raise LatticeError("ragged generators")
        if prime is not None and not is_prime(prime):
            raise LatticeError("prime must be prime: %r" % (prime,))
        self._set(n, prime, *clear_denominators(gens))

    @classmethod
    def from_integers(cls, ints, d, prime, ambient):
        """The lattice spanned by the integer columns ints over d > 0."""
        lat = object.__new__(cls)
        lat._set(ambient, prime, ints, d)
        return lat

    @classmethod
    def from_blocks(cls, parts, ambient):
        """The direct sum of the lattices of parts, (coordinates, lattice)
        pairs whose ascending, disjoint coordinate lists cover
        range(ambient): each lattice's integer columns, scaled to the lcm d
        of the scales, placed on its coordinates in pivot order.

        That placement is the pair _canonical returns, so no Hermite form
        is run (Cohen, §2.4).  A column's pivot stays its first nonzero
        entry, as the coordinates ascend, and:

        * no other block has an entry in a pivot row, so the entries of
          earlier columns there are a block's own;
        * a reduced entry scales with its pivot: 0 ≤ x < a gives
          0 ≤ q·x < q·a, so the columns are the Hermite form of their span;
        * d is the least scale: for each ℓ | d, the block with the largest
          ℓ-part of its scale is scaled by q prime to ℓ, and its canonical
          columns have an entry prime to ℓ, as gcd(scale, entries) = 1;
        * over Z_(p) the scales are p-powers and the columns still span
          p^e·Z^n, p^e the product of the pivots: block B's span holds
          q_B·p^(e_B)·Z^(n_B), and q_B·p^(e_B) divides p^e.  So the local
          Hermite pass of _canonical returns them unchanged, over d.
        """
        primes = {lat.prime for _, lat in parts}
        if len(primes) != 1:
            raise LatticeError("blocks over mixed rings" if primes else "no blocks")
        d = lcm(*(lat.denominator for _, lat in parts))
        cols = [None] * ambient
        for ix, lat in parts:
            if lat.ambient != len(ix):
                raise LatticeError("a block of ambient %d on %d coordinates" % (lat.ambient, len(ix)))
            if any(a >= b for a, b in zip(ix, ix[1:])):
                raise LatticeError("block coordinates must ascend")
            if any(not 0 <= i < ambient or cols[i] is not None for i in ix):
                raise LatticeError("block coordinates overlap or leave the ambient")
            q = d // lat.denominator
            for i, col in zip(ix, lat.columns):
                v = [0] * ambient
                for r, x in zip(ix, col):
                    v[r] = q * x
                cols[i] = v
        if None in cols:
            raise LatticeError("blocks leave coordinate %d uncovered" % cols.index(None))
        lat = object.__new__(cls)
        lat._store(ambient, primes.pop(), d, cols)
        return lat

    @classmethod
    def diagonal(cls, v, p):
        """The lattice ⊕ p^(v_i)·Z_(p)·e_i.  Its columns p^(v_i + s)·e_i
        over p^s, s = max(0, −min v), are its canonical pair as they
        stand: the local Hermite form of a diagonal of p-powers is itself,
        and p^s is the least scale, as s > 0 only when some v_i + s is 0."""
        s = max(0, -min(v))
        n = len(v)
        lat = object.__new__(cls)
        lat._store(n, p, p**s, [[p ** (x + s) if r == i else 0 for r in range(n)] for i, x in enumerate(v)])
        return lat

    def valuations(self):
        """Valuation v_i of each coordinate of a diagonal lattice over
        Z_(p): its canonical column i is p^(v_i + s)·e_i over the scale
        p^s.  A canonical column has its pivot in its own row, so it is
        diagonal when it has one nonzero entry."""
        p = self.prime
        if p is None:
            raise LatticeError("valuations are defined over localized lattices")
        if any(col.count(0) != self.ambient - 1 for col in self.columns):
            raise LatticeError("valuations require a diagonal lattice")
        s = vp(self.denominator, p)
        return [vp(col[i], p) - s for i, col in enumerate(self.columns)]

    def _set(self, n, prime, ints, d):
        d, cols = _canonical(ints, d, n, prime)
        if len(cols) < n:
            raise LatticeError("degenerate basis")
        self._store(n, prime, d, cols)

    def _store(self, n, prime, d, cols):
        object.__setattr__(self, "ambient", n)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "denominator", d)
        object.__setattr__(self, "columns", tuple(map(tuple, cols)))

    def __setattr__(self, *a):
        raise AttributeError("Lattice is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.ambient == other.ambient
            and self.prime == other.prime
            and self.denominator == other.denominator
            and self.columns == other.columns
        )

    def __hash__(self):
        return hash((self.ambient, self.prime, self.denominator, self.columns))

    def __repr__(self):
        ring = "Z" if self.prime is None else "Z_(%d)" % self.prime
        return "Lattice(%s, %r)" % (ring, [list(c) for c in self.basis])

    # -- core data ---------------------------------------------------

    @property
    def basis(self):
        """Canonical basis columns, columns / denominator, canonical."""
        return tuple(tuple(ratio(x, self.denominator) for x in c) for c in self.columns)

    def basis_matrix(self):
        """Basis as a matrix (rows), columns generate."""
        return tuple(zip(*self.basis))

    def _pivot_product(self):
        """det C of the integer Hermite columns C, the product of pivots."""
        return prod(col[i] for i, col in enumerate(self.columns))

    # -- predicates --------------------------------------------------

    def member(self, v):
        (w,), e = clear_denominators([v])
        return _in_span(w, e, self.denominator, self.columns, range(self.ambient), self.prime)

    def contains(self, other):
        self._check_compatible(other)
        d, cols, rows = self.denominator, self.columns, range(self.ambient)
        return all(_in_span(c, other.denominator, d, cols, rows, self.prime) for c in other.columns)

    def stable_under(self, g, den=1):
        """Is (g/den)·L ⊆ L for the integer sparse matrix g and the
        integer den > 0?  It is when g/den maps each integer column into
        the span of the columns."""
        n, cols = self.ambient, self.columns
        return all(_in_span(sparse_mat_vec(g, col, n), den, 1, cols, range(n), self.prime) for col in cols)

    def _check_compatible(self, other):
        if self.ambient != other.ambient or self.prime != other.prime:
            raise LatticeError("mismatched ambient dimension or ring")

    # -- module operations -------------------------------------------

    def coordinates(self, ints, e):
        """Coordinates in the canonical basis C / denominator of the columns
        ints / e, as integer columns over P·e, P = det C the pivot product:
        P·C⁻¹ = adj C is integral, so hermite_coords always finds them."""
        cols, rows = self.columns, range(self.ambient)
        pv = self._pivot_product()
        out = [hermite_coords([pv * self.denominator * x for x in w], cols, rows) for w in ints]
        if None in out:
            raise AssertionError("adj C of an integral C is integral")
        return out, pv * e

    def scale(self, c):
        c = F(c)
        cols = [[c.numerator * x for x in col] for col in self.columns]
        d = c.denominator * self.denominator
        return Lattice.from_integers(cols, d, self.prime, self.ambient)

    def sum(self, other):
        self._check_compatible(other)
        d = lcm(self.denominator, other.denominator)
        cols = [[d // lat.denominator * x for x in c] for lat in (self, other) for c in lat.columns]
        return Lattice.from_integers(cols, d, self.prime, self.ambient)

    def dual(self):
        """Spanned by the rows of B⁻¹; column j is the coordinates of e_j."""
        n = self.ambient
        x, den = self.coordinates([[int(i == j) for i in range(n)] for j in range(n)], 1)
        return Lattice.from_integers(list(zip(*x)), den, self.prime, n)

    def intersect(self, other):
        return self.dual().sum(other.dual()).dual()

    def index_in(self, sup):
        """[sup : self]; p-part only over Z_(p)."""
        sup._check_compatible(self)
        if not sup.contains(self):
            raise LatticeError("index: sub is not contained in sup")
        n = self.ambient
        q = ratio(self._pivot_product() * sup.denominator**n, sup._pivot_product() * self.denominator**n)
        if self.prime is None:
            if q.denominator != 1:
                raise AssertionError("the index of a sublattice is an integer")
            return q
        return self.prime ** vp(q, self.prime)

    def apply(self, g, den=1):
        """Image lattice under g/den, g a nonsingular integer sparse matrix
        and den > 0: the images of the integer columns, over den times the
        scale."""
        n = self.ambient
        ints = [sparse_mat_vec(g, c, n) for c in self.columns]
        return Lattice.from_integers(ints, den * self.denominator, self.prime, n)

    # -- serialization -----------------------------------------------

    def to_json_obj(self):
        """The basis rows as strings of the entries, each written as
        str(Fraction) would write column / denominator."""
        ring = "Z" if self.prime is None else {"Zp": self.prime}
        d = self.denominator
        if d == 1:
            rows = [[str(x) for x in row] for row in zip(*self.columns)]
        else:
            rows = [["0" if not x else ratio_text(x, d) for x in row] for row in zip(*self.columns)]
        return {"ambient": self.ambient, "ring": ring, "basis": rows}

    @classmethod
    def from_json_obj(cls, obj):
        if not isinstance(obj, dict):
            raise LatticeError("a lattice file holds one object")
        if missing := [k for k in ("ambient", "ring", "basis") if k not in obj]:
            raise LatticeError("lattice file lacks the field %s" % ", ".join(map(repr, missing)))
        # type(x) is int: a JSON true or false is a bool, not an integer.
        n, ring, basis, entry = obj["ambient"], obj["ring"], obj["basis"], (int, str)
        if type(n) is not int or n < 1:
            import json

            raise LatticeError("ambient must be a positive integer, not %s" % json.dumps(n))
        if ring != "Z" and not (isinstance(ring, dict) and type(ring.get("Zp")) in entry):
            raise LatticeError('ring must be "Z" or {"Zp": p}')
        rows_are_lists = isinstance(basis, list) and all(isinstance(row, list) for row in basis)
        if not rows_are_lists or not all(type(x) in entry for row in basis for x in row):
            raise LatticeError("basis must be a list of rows of entries")
        try:
            prime = None if ring == "Z" else int(ring["Zp"])
        except ValueError:
            import json

            raise LatticeError("Zp must be an integer, not %s" % json.dumps(ring["Zp"]))
        try:
            rows = [[_entry(x) for x in row] for row in basis]
        except ZeroDivisionError:
            raise LatticeError("basis entry with a zero denominator")
        if len({len(row) for row in rows}) > 1:
            raise LatticeError("ragged basis rows")
        if len(rows) != n:
            raise LatticeError("basis has %d rows, ambient is %d" % (len(rows), n))
        return cls(list(zip(*rows)), prime, ambient=n)

    def to_json(self):
        import json

        return json.dumps(self.to_json_obj())

    @classmethod
    def from_json(cls, text):
        import json

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
            if ratio(b, a).denominator != 1:
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
    """Elementary divisors of a rational matrix (rows); rank many.

    The denominators are cleared to one common d and the divisors of the
    integer matrix come from `kernels.snf_diagonal`, which reads them
    off alternating Hermite forms; each is then divided by d.
    """
    cols = list(zip(*rows)) if rows else []
    ints, d = clear_denominators(cols)
    divs = snf_diagonal([list(r) for r in zip(*ints)]) if ints else []
    return ElementaryDivisors([ratio(x, d) for x in divs])


def transporter(gens, src, dst):
    """Coefficient lattice {c : (sum_k c_k·gens[k])·src ⊆ dst} of the
    integer sparse matrices gens.

    Every entry of sum_k c_k·B_dst⁻¹·gens[k]·B_src must lie in the ring, so
    the solutions are the dual of the lattice spanned by the entry rows;
    entry (i, j) of B_dst⁻¹·gens[k]·B_src is coordinate i in dst of gens[k]
    applied to column j of src.  The rows span the coefficient space
    exactly when the gens are linearly independent.
    """
    dst._check_compatible(src)
    n, m = src.ambient, len(gens)
    ints = [sparse_mat_vec(g, col, n) for g in gens for col in src.columns]
    x, den = dst.coordinates(ints, src.denominator)
    rows = [[x[k * n + j][i] for k in range(m)] for i in range(n) for j in range(n)]
    return Lattice.from_integers(rows, den, dst.prime, m).dual()


def distance(a, b):
    """Lattice distance n - m over Z_(p) (see the metric lemma): max - min of
    the valuations of b's divisors in a's basis, whose denominator cancels."""
    if a.prime is None or b.prime is None:
        raise LatticeError("distance requires localized lattices")
    a._check_compatible(b)
    x, _ = a.coordinates(b.columns, b.denominator)
    vals = [vp(s, a.prime) for s in snf_diagonal(x)]
    return max(vals) - min(vals)


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
            fixed, rows = cols[j:], range(j, n)

            def fill(i):
                if i == n:
                    if hermite_coords(h[j], fixed, rows) is not None:
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

    In the basis of high, low becomes an integer matrix: low ⊆ high
    forces low's denominator to divide high's, and hermite_coords of
    low's columns over high's denominator are integers exactly when low
    ⊆ high.  Over Z_(p) the columns p^e·e_i are appended, p^e the p-part
    of [high : low]: this kills the prime-to-p part of the quotient, so
    the Z-lattices between the result and Z^n correspond one to one to the
    Z_(p)-lattices between low and high.  With H the column Hermite form
    of that matrix, every intermediate lattice has a unique Hermite basis
    M ⊇ H (Cohen, §2.4.3), and M maps back through high's integer columns,
    over high's denominator.
    """
    high._check_compatible(low)
    n = high.ambient
    p = high.prime
    basis, denom = high.columns, high.denominator
    q, rem = divmod(denom, low.denominator)
    ints = [hermite_coords([q * x for x in col], basis, range(n)) for col in low.columns]
    if rem or None in ints:
        raise LatticeError("enumerate_between: low is not contained in high")
    if p is not None:
        pe = p ** sum(vp(ints[i][i], p) for i in range(n))
        ints += [[pe * int(i == j) for i in range(n)] for j in range(n)]
    h = hnf_columns(ints, n)
    order = prod(h[i][i] for i in range(n))
    if order > ENUM_ORDER_CAP:
        raise LatticeError("quotient order %d exceeds cap %d" % (order, ENUM_ORDER_CAP))
    out = []
    for cols in _subgroup_hnfs(h):
        if any(hermite_coords(h[j], cols, range(n)) is None for j in range(n)):
            raise AssertionError("a Hermite parameter does not contain the lower lattice")
        gens = [
            [sum(c[k] * basis[k][r] for k in range(k0, n)) for r in range(n)]
            for k0, c in enumerate(cols)
        ]
        out.append(Lattice.from_integers(gens, denom, p, n))
    if len(set(out)) != len(out):
        raise AssertionError("Hermite parametrization must be injective")
    return out


# ---------------------------------------------------------------------
# ZSpan: finitely generated R-submodule of Q^m of any rank
# ---------------------------------------------------------------------


class ZSpan:
    """Z-span of a finite set of vectors in Q^m, of any rank: integer
    Hermite columns over one denominator, like Lattice."""

    __slots__ = ("ambient", "denominator", "columns", "pivots")

    def __init__(self, vectors, ambient):
        d, cols = _canonical(*clear_denominators([tuple(v) for v in vectors]), ambient)
        pivots = tuple(next(i for i, x in enumerate(col) if x != 0) for col in cols)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "denominator", d)
        object.__setattr__(self, "columns", tuple(map(tuple, cols)))
        object.__setattr__(self, "pivots", pivots)

    def __setattr__(self, *a):
        raise AttributeError("ZSpan is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, ZSpan)
            and self.ambient == other.ambient
            and self.denominator == other.denominator
            and self.columns == other.columns
        )

    def __hash__(self):
        return hash((self.ambient, self.denominator, self.columns))

    def __repr__(self):
        return "ZSpan(rank %d in Q^%d)" % (len(self.columns), self.ambient)
