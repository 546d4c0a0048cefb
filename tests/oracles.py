"""Reference implementations the tests compare the library against.

Each is a slower or older path to a result the library computes another
way: the two canonicalisers that `exact._canonical` merged, the
`Fraction` forward substitutions that `kernels.hermite_coords` replaced
under `Lattice.member`, the former `ZSpan.member` and the Hermite search, the
per-vector `solve` that `reps.build_irrep` used before it read
coordinates off a QSpan, the second walk of the adapted basis with
the `mat_inv` conjugation that `reps.Representation` ran on every action
before one walk read the adapted action, the dense builders of
`build_irrep`'s ambient (the defining realization, the trivial
representation, tensor, symmetric and exterior powers as `Fraction`
grids) with the dense lowering walk and highest-weight vectors, as before
every action stayed sparse, the coordinate solver by one `rref` and the
`mat_inv` of a square block, as before a QSpan kept the combinations of
its echelon rows, a brute-force subgroup count for
`exact.enumerate_between`, a pairwise scaling search for the class-group
representatives of `casestudies.class_orbit_count`, its ideal search
below the Minkowski bound (`class_orbit_count_by_ideals`) with the norm
forms of the bases a, b + d·w and their reduction, as before the classes
were read off the reduced primitive forms, and those ideals as Hermite
lattices stable under w with the class key read off their canonical
bases, as before the norm form of a basis a, b + d·w decided both, the
Euclid echelon of the Hopf-order products with `Fraction` combination
lists and its forward substitution, as before the Hermite basis with a
transform, the Gauss–Jordan `mat_inv` that `rref([a | I])` replaced,
`det` and `solve`, which `src/` no longer uses, the Smith
elimination with unbounded entries that `kernels.snf_diagonal` replaced
by one modulo a determinant, and that one (a Bareiss minor, then xgcd
row and column sweeps), as before the kernel read the Smith form off
alternating Hermite forms, and the dense Chevalley construction
(root spaces as nullspaces over all N² matrix positions, coroots from a
Killing-Gram solve, `Fraction` root-system pairings) with the dense lift
the per-pair homomorphism check used before the bracket table, and the
sandwich lattices and transition spans by every distinct ordering of
each simple-root multiset, as before the walk down the weights, and the
orbit reports by enumerating every lattice between S₋ and S₊ and
filtering it, as before the valuation box, and the torus shifts from the
inverse transposed Cartan matrix, as before the root system's Cartan
solver gave the simple-root coordinates of each weight, and the lattice
operations on the `Fraction` basis (`dual`, `transporter` and `distance`
through a Gauss–Jordan B⁻¹, `sum`, `scale`, `apply` and `intersect` on
the basis vectors, the pairwise bracket closure of a Lie lattice), as
before `Lattice.coordinates` read them off the integer columns, and the
dense fraction-free elimination `echelon` with the `rref`, `nullspace`,
kernel rays, `scaled_inverse` and `mat_inv` built on it, as before
`matrixops` read every kernel, inverse and rref off `QSpan` relations,
and the Killing Gram as the trace of dense products of ad matrices, as
`models.killing_gram` took it before it read the trace off the bracket
table, with ad built here from the dense brackets of the realization
matrices, and the determinant rewrite of a Hopf-order polynomial one
monomial at a time with the generator products built and reduced before
those above the degree bound are dropped, as before the closed-form
normal form and the enumeration by degree, and the bracket table read
off the brackets of every ordered pair of the defining action, as
`ChevalleyBasis._verify` read it before it read the table off the root
data, and the root spaces as the kernels of the form equations on the
positions of each weight, as `ChevalleyBasis._root_spaces` solved for
them before it wrote them down in closed form, and the direct sum of
block lattices by a Hermite pass over the whole space, as
`latconstruct._from_blocks` assembled S₋ and S₊ before
`Lattice.from_blocks` placed their canonical blocks as they stand,
and the symbolic Sym²(g) of `models._sym_symbolic(2)` as products and
sums of the coordinate polynomials, as before the binomial closed form,
and the sparse Sym^k and Λ^k by a Leibniz step at each of the k
positions, a re-sort and a pairwise inversion count
(`power_raw_by_leibniz`), as `reps._power_raw` built them before it
replaced one index per distinct entry, and the p-adic valuation by one
division per unit (`vp_by_division`), as `exact.vp` took it before it
divided out repeated squares of p, and the weight closure with every
string walked from every weight (`weight_set_by_every_walk`), as
`reps.weight_set` took it before each string was walked once, and the
read of every generator on every walked vector in the tensor ambient
(`adapted_by_every_generator`, with the `build_irrep` and `_adapt`
that power and keep every generator of the factors, walked first by a
queue of lowering images, `lowering_walk`, as `reps._adapted` walked
before it read the simple generators in the same pass, and their weight
spaces found by enumerating every index tuple of the ambient,
`ambient_spaces`, as `reps._ambient` found them before
`reps._weight_space` listed each one off a weight table), and the Chevalley
set with every negative root vector paired with its positive one by
`_pair_negative` (`chevalley_set_by_pairing`), as before
`rootdata.chevalley_set` read every other generator off the simple
ones, and the QSpan that visited every pivot of a sorted list for every
vector (`PivotListQSpan`), as before `QSpan._reduce` stepped through
the pivots of the vector's own support, and the Euclidean root data of
the classical types, the roots and the weights of the defining
realization written per type with the form it preserves
(`EuclideanRootData`, `form_by_type`), as `rootdata.RootSystem` kept
them before it read the roots off the Cartan matrix, and the coroots
solved from them with Fractions (`coroots_by_euclid`), as
`ChevalleyBasis.h_alpha_coords` read them off squared lengths before
`RootSystem.coroot` carried them through the reflection closure, and
Birkhoff's subgroup count with every Gaussian binomial taken from
scratch (`subgroup_count_by_gaussian_binomials`), as
`latconstruct.subgroup_count` took it before it built each row of them
once, and the index as a quotient of pivot products
(`index_by_pivot_products`), as `Lattice.index_in` took it over Z_(p)
before it read the pivot valuations.
The other oracles eliminate with the dense `echelon`, not with the
library; the root-space kernels are read with `matrixops.relations`,
and only the ad matrices read coordinates with `coords_of`, so they are
independent of the bracket table, not of `QSpan`.

The last section holds the checks and views that only tests use, so
no command reaches them in src/ (tests/test_reachability.py): the Chevalley
basis as dense matrices and its structure constants, the J components of a
lattice, the type of S₊/S₋ read off the blocks (`sandwich_type`), the
walk down the weights of a component that the transition check takes
(`weights_down`, sorted by height, and `down_step`, the block of x_(-a)
or the transposed block of x_a, as `reps` kept them while
`latconstruct._sandwich_blocks` walked S± through them), the surjectivity
of the transition maps (acceptance criterion 3) and the class number from
reduced binary forms.
"""

import copy
import itertools
import math
from bisect import insort
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from latmod import matrixops, models, reps
from latmod.casestudies import QuadField, multiplier_ring
from latmod.exact import Lattice, LatticeError, enumerate_between, snf, transporter, vp
from latmod.kernels import hnf_columns
from latmod.latconstruct import (
    _check_multiplicity_free,
    _profile,
    _sandwich_blocks,
    _shift_span,
    is_split,
    s_minus,
    s_plus,
)
from latmod.matrixops import (
    QSpan,
    bracket,
    canonical,
    clear_denominators,
    dense,
    identity,
    mat_mul,
    mat_sub,
    mat_vec,
    primitive,
    ratio,
    sparse,
    sparse_bracket,
    sparse_mat_vec,
)
from latmod.rootdata import ChevalleyBasis, _form, _lowest, _pair_negative, _scaled


# The oracles compute in Fractions throughout, as the code they check did:
# latmod's own helpers give an int for an integral value, and `/` between
# ints is a float.
F = Fraction


def mat(rows):
    """rows as a dense matrix of canonical entries (matrixops.F)."""
    return tuple(tuple(matrixops.F(x) for x in row) for row in rows)


def mat_scale(c, a):
    """c·a for the dense matrix a, canonical."""
    return tuple(tuple(matrixops.F(c * x) for x in row) for row in a)


def dense_action(owner):
    """The action of a Representation or a ChevalleyBasis as dense
    rational matrices, {key: matrixops.dense of action[key] /
    denominator}, canonical, for the tests and oracles that read entries
    as g[i][j] or multiply dense matrices."""
    n = owner.N if isinstance(owner, ChevalleyBasis) else owner.dim
    d = owner.denominator
    return {key: dense({p: ratio(x, d) for p, x in m.items()}, n) for key, m in owner.action.items()}


def is_canonical(x):
    """An int, or a Fraction that is not integral: never a float, never an
    integral Fraction."""
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def is_prime_by_trial_division(n):
    """Primality by trial division up to √n, as exact.is_prime decided it
    before Miller–Rabin."""
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def vp_by_division(x, p):
    """p-adic valuation of a nonzero int or Fraction by one division per
    unit of valuation, numerator and denominator in two loops, as
    exact.vp took it before it divided out repeated squares of p."""
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


def weight_set_by_every_walk(rs, psi):
    """The closure of {psi} under the downward strings mu - j·alpha_i,
    0 < j <= <mu, alpha_i^∨>, each weight walking every one of its
    strings, as reps.weight_set took it before a weight mu skipped its
    alpha_i walk once mu + alpha_i was seen."""
    seen, todo = {psi}, [psi]
    while todo:
        mu = todo.pop()
        for i, alpha in enumerate(rs.simple):
            nu = mu
            for _ in range(mu[i]):
                nu = tuple(x - y for x, y in zip(nu, alpha))
                if nu not in seen:
                    seen.add(nu)
                    todo.append(nu)
    return seen


def zeros(nr, nc):
    return tuple((Fraction(0),) * nc for _ in range(nr))


# -----------------------------------------------------------------------
# The dense fraction-free elimination that matrixops ran beside QSpan
# before every kernel, inverse and rref was read off QSpan relations.
# -----------------------------------------------------------------------


def echelon(a):
    """Fraction-free Gauss–Jordan elimination of the rows of a: (rows,
    pivot columns), the rows integer lists, zero at every pivot but their
    own, the nonzero rows first.  Each row is a nonzero multiple of the
    matching row of the reduced row echelon form (which is row / row[its
    pivot]): an eliminated row is cross-multiplied with the pivot row and
    divided by its content, so the zero pattern, and with it every choice
    of pivot, is the one of the reduction over Q."""
    m, _ = clear_denominators(a)
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        pv = top[c]
        for i in range(nr):
            f = m[i][c]
            if i != r and f:
                g = gcd(pv, f)
                s, f = pv // g, f // g
                row = [s * x - f * y for x, y in zip(m[i], top)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def rref_by_echelon(a):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m, pivots = echelon(a)
    red = [tuple(ratio(x, row[c]) for x in row) for row, c in zip(m, pivots)]
    return tuple(red + [tuple(row) for row in m[len(pivots) :]]), pivots


def scaled_inverse_by_echelon(a):
    """(d, the rows of d·a⁻¹) for the square a, d the least integer making
    them integral, from the echelon form of [a | I] without a quotient:
    its row i over its pivot is row i of [I | a⁻¹].  Raises
    ZeroDivisionError if a is singular."""
    n = len(a)
    m, pivots = echelon([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    lowest = []
    for i, row in enumerate(m):
        # Row i of a⁻¹ is row[n:] / row[i], in lowest terms over their content g.
        g = gcd(row[i], *row[n:])
        lowest.append((row[i] // g, [x // g for x in row[n:]]))
    d = lcm(*(p for p, _ in lowest))
    return d, tuple(tuple(x * (d // p) for x in row) for p, row in lowest)


def mat_inv_by_echelon(a):
    """Inverse, the rows of scaled_inverse_by_echelon over its d; raises
    ZeroDivisionError if singular."""
    d, rows = scaled_inverse_by_echelon(a)
    return tuple(tuple(ratio(x, d) for x in row) for row in rows)


def kernel_by_echelon(a):
    """[(free column c, integer kernel vector v with v[c] > 0), ...], one
    per free column of the echelon form: the rays of
    nullspace_by_echelon(a)."""
    nc = len(a[0]) if a else 0
    m, pivots = echelon(a)
    out = []
    for fc in range(nc):
        if fc in pivots:
            continue
        hits = [(pc, row[fc], row[pc]) for row, pc in zip(m, pivots) if row[fc]]
        scale = lcm(*(p for _, _, p in hits))
        v = [0] * nc
        v[fc] = scale
        for pc, x, p in hits:
            v[pc] = -x * (scale // p)
        out.append((fc, v))
    return out


def nullspace_by_echelon(a):
    """Basis of the right kernel, as a tuple of vectors: the one with 1 at
    each free column of rref_by_echelon(a) and 0 at the others."""
    return tuple(tuple(ratio(x, v[fc]) for x in v) for fc, v in kernel_by_echelon(a))


class PivotListQSpan:
    """matrixops.QSpan as it reduced a vector before it stepped through
    the pivots of the vector's own support: every pivot of the span, kept
    in a sorted list, is visited in increasing order for every vector."""

    __slots__ = ("_rows", "_pivots", "_scales")

    def __init__(self):
        self._rows = {}  # pivot index -> (echelon row, its combination)
        self._pivots = []  # the pivot indices, sorted
        self._scales = []  # e_k of each vector that grew the span

    def _reduce(self, v):
        """(a, m, t, e): a = m·e·v − Σ t_k·U_k, zero at every pivot."""
        e = lcm(*(x.denominator for x in v.values()))
        a = {i: x.numerator * (e // x.denominator) for i, x in v.items() if x}
        m, t = 1, {}
        for piv in self._pivots:
            f = a.get(piv)
            if not f:
                continue
            row, comb = self._rows[piv]
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
        a, m, t, e = self._reduce(v)
        if not a:
            return False
        comb = {k: -c for k, c in t.items() if c}
        comb[len(self._rows)] = m
        piv = min(a)
        self._rows[piv] = (a, comb)
        insort(self._pivots, piv)
        self._scales.append(e)
        return True

    def relation(self, v):
        a, m, t, e = self._reduce(v)
        if a:
            return None
        return m * e, {k: y * self._scales[k] for k, y in t.items() if y}


def mat_inv_by_gauss_jordan(a):
    """Inverse by Gauss-Jordan on [a | I]; raises ZeroDivisionError if
    singular."""
    n = len(a)
    aug = [[F(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def det(a):
    """Determinant by Gaussian elimination over Fraction."""
    n = len(a)
    m = [[F(x) for x in row] for row in a]
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            d = -d
        pv = m[col][col]
        d *= pv
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] / pv
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return d


def solve(a, b):
    """One solution x of a·x = b, or None if inconsistent."""
    nr = len(a)
    nc = len(a[0]) if nr else 0
    aug = [list(row) + [F(bb)] for row, bb in zip(a, b)]
    red, pivots = rref_by_echelon(aug)
    for row in red:
        if all(x == 0 for x in row[:nc]) and row[nc] != 0:
            return None
    x = [Fraction(0)] * nc
    for r, pc in enumerate(pivots):
        if pc < nc:
            x[pc] = red[r][nc]
    return tuple(x)


def canonical_global(cols, n):
    """Hermite basis of the Z-span of cols, of any rank."""
    ints, d = clear_denominators(cols)
    h = hnf_columns(ints, n)
    return [tuple(Fraction(x, d) for x in col) for col in h]


def canonical_local_full(cols, n, p):
    """Canonical basis of the Z_(p)-lattice spanned by full-rank cols:
    scale by the least p-power making every entry p-integral, clear the
    prime-to-p denominators, and reduce modulo p^e with p^e the p-part of
    the Hermite form's determinant."""
    vals = [vp(x, p) for col in cols for x in col if x != 0]
    if not vals:
        raise LatticeError("degenerate basis")
    s = max(0, -min(vals))
    scaled = [[F(x) * p**s for x in col] for col in cols]
    ints, d = clear_denominators(scaled)
    if d % p == 0:
        raise AssertionError("p-part of lattice not integral after scaling")
    h = hnf_columns(ints, n)
    if len(h) < n:
        raise LatticeError("degenerate basis")
    pe = p ** sum(vp(h[i][i], p) for i in range(n))
    gens = [list(c) for c in h] + [[pe * int(i == j) for i in range(n)] for j in range(n)]
    ps = p**s
    return [tuple(Fraction(x, ps) for x in col) for col in hnf_columns(gens, n)]


def direct_sum_by_hermite(parts, ambient):
    """The lattice of Q^ambient that is lat on the coordinates ix of each
    (ix, lat) in parts: their integer columns over the lcm d of their
    scales, placed and put through Lattice.from_integers."""
    d = lcm(*(lat.denominator for _, lat in parts))
    gens = []
    for ix, lat in parts:
        for col in lat.columns:
            v = [0] * ambient
            for i, x in zip(ix, col):
                v[i] = d // lat.denominator * x
            gens.append(v)
    return Lattice.from_integers(gens, d, parts[0][1].prime, ambient)


def sub_action_by_solve(action, basis_cols):
    """Action on the span of basis_cols, one `solve` per generator and
    basis vector; None when some image leaves the span."""
    bmat = tuple(zip(*basis_cols))
    out = {}
    for key, g in action.items():
        cols_out = []
        for b in basis_cols:
            x = solve(bmat, mat_vec(g, b))
            if x is None:
                return None
            cols_out.append(x)
        out[key] = tuple(zip(*cols_out))
    return out


# -----------------------------------------------------------------------
# Dense representation builders, as build_irrep used them before its
# actions stayed sparse: every action a dim×dim Fraction matrix.
# -----------------------------------------------------------------------


def defining_raw(cb):
    action = dense_action(cb)
    weights = tuple(tuple(int(action["h", i][k][k]) for i in range(cb.rs.rank)) for k in range(cb.N))
    return (cb.N, action, weights)


def trivial_raw(cb):
    rank = cb.rs.rank
    action = {a: zeros(1, 1) for a in cb.rs.all_roots}
    for i in range(rank):
        action[("h", i)] = zeros(1, 1)
    return (1, action, ((0,) * rank,))


def tensor_raw(r1, r2):
    d1, a1, w1 = r1
    d2, a2, w2 = r2
    d = d1 * d2
    action = {}
    for key in a1:
        g1 = a1[key]
        g2 = a2[key]
        m = [[Fraction(0)] * d for _ in range(d)]
        for i1 in range(d1):
            for j1 in range(d1):
                if g1[i1][j1]:
                    for k in range(d2):
                        m[i1 * d2 + k][j1 * d2 + k] += g1[i1][j1]
        for i2 in range(d2):
            for j2 in range(d2):
                if g2[i2][j2]:
                    for k in range(d1):
                        m[k * d2 + i2][k * d2 + j2] += g2[i2][j2]
        action[key] = mat(m)
    weights = tuple(
        tuple(x + y for x, y in zip(w1[i], w2[j])) for i in range(d1) for j in range(d2)
    )
    return (d, action, weights)


def sym_power_raw(raw, k):
    """Symmetric power on the monomial basis (exponent vectors in
    decreasing order), generators as derivations."""
    d0, a0, w0 = raw
    basis = sorted(
        (m for m in itertools.product(range(k + 1), repeat=d0) if sum(m) == k),
        reverse=True,
    )
    idx = {m: i for i, m in enumerate(basis)}
    d = len(basis)
    action = {}
    for key, g in a0.items():
        m = [[Fraction(0)] * d for _ in range(d)]
        for src, mono in enumerate(basis):
            for j in range(d0):
                if mono[j] == 0:
                    continue
                for i in range(d0):
                    if g[i][j] == 0:
                        continue
                    tgt = list(mono)
                    tgt[j] -= 1
                    tgt[i] += 1
                    m[idx[tuple(tgt)]][src] += mono[j] * g[i][j]
        action[key] = mat(m)
    weights = tuple(
        tuple(sum(e * w0[j][i] for j, e in enumerate(mono)) for i in range(len(w0[0])))
        for mono in basis
    )
    return (d, action, weights)


def ext_power_raw(raw, k):
    """Exterior power on the increasing index tuples, the sign of each
    image tracked by bubbling the replaced index into place."""
    d0, a0, w0 = raw
    basis = list(itertools.combinations(range(d0), k))
    idx = {s: i for i, s in enumerate(basis)}
    d = len(basis)
    action = {}
    for key, g in a0.items():
        m = [[Fraction(0)] * d for _ in range(d)]
        for src, sub in enumerate(basis):
            for t, j in enumerate(sub):
                for i in range(d0):
                    if g[i][j] == 0 or (i in sub and i != j):
                        continue
                    new = list(sub)
                    new[t] = i
                    sign = 1
                    pos = t
                    while pos > 0 and new[pos - 1] > new[pos]:
                        new[pos - 1], new[pos] = new[pos], new[pos - 1]
                        pos -= 1
                        sign = -sign
                    while pos < k - 1 and new[pos + 1] < new[pos]:
                        new[pos + 1], new[pos] = new[pos], new[pos + 1]
                        pos += 1
                        sign = -sign
                    m[idx[tuple(new)]][src] += sign * g[i][j]
        action[key] = mat(m)
    weights = tuple(
        tuple(sum(w0[j][i] for j in sub) for i in range(len(w0[0]))) for sub in basis
    )
    return (d, action, weights)


def power_raw_by_leibniz(raw, k, exterior=False):
    """Sym^k (or Λ^k) of the sparse integer raw (dim, action, weights) on
    the sorted index tuples of length k, as reps._power_raw built it
    before it replaced one index per distinct entry: each generator acts
    on e_t1 ⊗ … ⊗ e_tk at each of the k positions (tensor_mat_vec), each
    image tuple is sorted again, in the exterior power with the sign of
    its inversions, counted pairwise, and 0 when an index repeats."""
    d0, a0, w0 = raw
    tuples = itertools.combinations if exterior else itertools.combinations_with_replacement
    basis = list(tuples(range(d0), k))
    index = {t: n for n, t in enumerate(basis)}
    action = {}
    for key, g in a0.items():
        cols, m = [matrixops.column_index(g)] * k, {}
        for src, t in enumerate(basis):
            for s, x in matrixops.tensor_mat_vec(cols, {t: 1}).items():
                if exterior:
                    if len(set(s)) < k:
                        continue
                    x = -x if sum(i > j for i, j in itertools.combinations(s, 2)) % 2 else x
                p = (index[tuple(sorted(s))], src)
                m[p] = m.get(p, 0) + x
        action[key] = matrixops.canonical(m)
    weights = tuple(tuple(sum(w0[j][c] for j in t) for c in range(len(w0[0]))) for t in basis)
    return (len(basis), action, weights)


def lowering_walk(span, lowering, v):
    """The walk of reps._adapted before it read the generators in the
    same pass: grow span by the cyclic span of the sparse vector v under
    the lowering operators (column indices on each factor), breadth
    first through a queue of candidates; returns the primitive vectors
    that entered it, in insertion order."""
    queue = [primitive(v)]
    added = []
    for vec in queue:
        if span.insert(vec):
            added.append(vec)
            queue.extend(primitive(img) for g in lowering if (img := matrixops.tensor_mat_vec(g, vec)))
    return added


def ambient_spaces(factors):
    """{w: the index tuples of weight w, in lexicographic order} of the
    tensor product of the factors (dim, action, weights), the weight of a
    tuple the sum of its factors' weights: every index tuple of the
    ambient enumerated, as reps._ambient found the weight spaces before
    reps._weight_space listed each one off the weight table."""
    spaces = {}
    for t in itertools.product(*(range(d) for d, _, _ in factors)):
        w = tuple(map(sum, zip(*(f[2][i] for f, i in zip(factors, t)))))
        spaces.setdefault(w, []).append(t)
    return spaces


def adapted_by_every_generator(cb, columns, den, hw_vectors):
    """reps._adapted as it was before rootdata.chevalley_set read the
    other generators off the simple ones: the walk on the lowering
    operators (lowering_walk), then every generator in columns (every
    root vector and every h_i) applied to every walked vector in the
    tensor ambient and read off the span's relation, each column in
    lowest terms, and the action written over the lcm of the columns'
    denominators."""
    lowering = [columns[tuple(-c for c in a)] for a in cb.rs.simple]
    span = QSpan()
    basis, psi_of = [], []
    for psi, v in hw_vectors:
        walked = lowering_walk(span, lowering, v)
        basis.extend(walked)
        psi_of.extend([psi] * len(walked))
    read = {}
    for key, g in columns.items():
        read[key] = cols = []
        for b in basis:
            c, x = span.relation(matrixops.tensor_mat_vec(g, b))
            e = c * den
            q = gcd(e, *x.values()) if e > 0 else -gcd(e, *x.values())
            cols.append((e // q, {r: y // q for r, y in x.items()}))
    d = lcm(*(e for cols in read.values() for e, _ in cols))
    adapted = {}
    for key, cols in read.items():
        m = adapted[key] = {}
        for c, (e, x) in enumerate(cols):
            m.update(((r, c), d // e * y) for r, y in x.items())
    return reps.Representation(cb, adapted, d, psi_of)


def build_irrep_by_every_generator(cb, psi):
    """reps.build_irrep as it was before it powered only the simple
    generators: every generator of cb is powered into the factors and
    read in the tensor ambient (adapted_by_every_generator), its weight
    space found by enumerating the ambient (ambient_spaces)."""
    defining = (cb.N, cb.action, reps._diagonal_weights(cb, cb.action, cb.N, cb.denominator))
    factors = [reps._power_raw(defining, psi[0])]
    for i in range(1, cb.rs.rank):
        factors += [reps._power_raw(defining, i + 1, exterior=True)] * psi[i]
    columns, _ = reps._ambient(factors, cb.rs.rank)
    tops = list(reps._highest_weight_vectors(cb, columns, [(psi, ambient_spaces(factors).get(psi, []))]))
    return adapted_by_every_generator(cb, columns, cb.denominator, tops[:1])


def adapt_by_every_generator(cb, factors):
    """reps._adapt as it was before it kept only the simple generators of
    its factors: every generator of every factor is read in the tensor
    ambient (adapted_by_every_generator), its weight spaces found by
    enumerating the ambient (ambient_spaces)."""
    den = lcm(*(f[3] for f in factors))
    factors = [(n, {key: {p: den // d * x for p, x in g.items()} for key, g in a.items()}, w) for n, a, w, d in factors]
    columns, _ = reps._ambient(factors, cb.rs.rank)
    tops = list(reps._highest_weight_vectors(cb, columns, sorted(ambient_spaces(factors).items(), reverse=True)))
    return adapted_by_every_generator(cb, columns, den, tops)


def dense_primitive(v):
    """primitive of the dense vector v, as a dense vector."""
    p = primitive(dict(enumerate(v)))
    return tuple(p.get(i, Fraction(0)) for i in range(len(v)))


def lowering_span(span, lowering, v):
    """The cyclic span of the dense vector v under the dense lowering
    operators, grown into span; returns the primitive vectors that
    entered it, in order, dense."""
    queue = [dense_primitive(v)]
    added = []
    while queue:
        vec = queue.pop(0)
        if not span.insert(dict(enumerate(vec))):
            continue
        added.append(vec)
        for g in lowering:
            img = mat_vec(g, vec)
            if any(img):
                queue.append(dense_primitive(img))
    return added


def highest_weight_vectors(raising, weights, w):
    """Basis of the joint kernel of the dense raising operators inside the
    weight-w space, as full vectors."""
    dim = len(weights)
    cols = [i for i in range(dim) if weights[i] == w]
    rows = [tuple(g[r][c] for c in cols) for g in raising for r in range(dim)]
    out = []
    for kv in nullspace_by_echelon(mat(rows)):
        full = [Fraction(0)] * dim
        for c, x in zip(cols, kv):
            full[c] = x
        out.append(tuple(full))
    return out


def coordinate_solver_by_inverse(cols):
    """The dense coordinate solver as it was before QSpan kept its
    combinations: one rref picks rows on which the basis is independent,
    mat_inv inverts that square block, and each call checks the residual
    on every row."""
    a = tuple(zip(*cols))
    _, rows = rref_by_echelon(cols)
    if len(rows) != len(cols):
        raise ValueError("coordinate basis is linearly dependent")
    inv = mat_inv_by_echelon(tuple(a[i] for i in rows))

    def coords(v):
        v = tuple(v)
        x = mat_vec(inv, tuple(v[i] for i in rows))
        return x if mat_vec(a, x) == v else None

    return coords


def ambient_of(cb, psi):
    """The tensor product of Sym^psi[0] and of Λ^(i+1), psi[i] times, of
    the defining realization, as build_irrep builds it (d, action,
    weights), with dense actions."""
    defining = defining_raw(cb)
    ambient = trivial_raw(cb)
    if psi[0]:
        ambient = tensor_raw(ambient, sym_power_raw(defining, psi[0]))
    for i in range(1, cb.rs.rank):
        if psi[i]:
            ext = ext_power_raw(defining, i + 1)
            for _ in range(psi[i]):
                ambient = tensor_raw(ambient, ext)
    return ambient


def build_irrep_by_solve(cb, psi):
    """build_irrep as it was before QSpan coordinates: the first joint
    kernel vector of the raising operators in the psi weight space, its
    cyclic span under the lowering operators, and the action on that span
    by one `solve` per generator and basis vector."""
    d, action, weights = ambient_of(cb, psi)
    cols = [i for i in range(d) if weights[i] == tuple(psi)]
    rows = [tuple(action[a][r][c] for c in cols) for a in cb.rs.simple for r in range(d)]
    v = [Fraction(0)] * d
    for c, x in zip(cols, nullspace_by_echelon(mat(rows))[0]):
        v[c] = x
    lowering = [action[tuple(-c for c in a)] for a in cb.rs.simple]
    basis_cols = lowering_span(QSpan(), lowering, v)
    if len(basis_cols) < d:
        action = sub_action_by_solve(action, basis_cols)
    return reps.adapt(cb, {key: sparse(g) for key, g in action.items()}, len(basis_cols))


def adapt_by_conjugation(cb, action):
    """The action, weights, blocks and highest weights that the general
    constructor (now reps.adapt) kept before one walk read the adapted
    action: the highest-weight vectors of every weight walked into one
    QSpan, their cyclic spans as the columns of b, and every generator
    conjugated to mat_inv(b)·g·b with two dense products."""
    rank = cb.rs.rank
    dim = len(action[("h", 0)])
    weights = tuple(tuple(int(action[("h", i)][k][k]) for i in range(rank)) for k in range(dim))
    raising = [action[a] for a in cb.rs.simple]
    lowering = [action[tuple(-c for c in a)] for a in cb.rs.simple]
    span = QSpan()
    basis_cols, psi_of = [], []
    for w in sorted(set(weights), reverse=True):
        for v in highest_weight_vectors(raising, weights, w):
            local = lowering_span(span, lowering, v)
            basis_cols.extend(local)
            psi_of.extend([w] * len(local))
    assert span.rank == dim, "cyclic spans do not exhaust the space"
    b = tuple(zip(*basis_cols))
    binv = mat_inv_by_echelon(b)
    new_action = {key: mat_mul(binv, mat_mul(g, b)) for key, g in action.items()}
    new_weights = tuple(
        tuple(int(new_action[("h", i)][k][k]) for i in range(rank)) for k in range(dim)
    )
    blocks = {}
    for i in range(dim):
        blocks.setdefault((psi_of[i], new_weights[i]), []).append(i)
    hws = []
    for psi in sorted(set(psi_of), reverse=True):
        hws.extend([psi] * len(blocks[(psi, psi)]))
    return {
        "action": new_action,
        "weights": new_weights,
        "blocks": {k: tuple(v) for k, v in blocks.items()},
        "highest_weights": tuple(hws),
    }


def build_irrep_by_conjugation(cb, psi):
    """build_irrep as it was before one walk: the cyclic span of the
    highest-weight vector, the action on it by the rref and mat_inv
    coordinate solver unless it is the whole ambient, then
    adapt_by_conjugation on that action, which walks the span a second
    time."""
    d, action, weights = ambient_of(cb, psi)
    raising = [action[a] for a in cb.rs.simple]
    v = highest_weight_vectors(raising, weights, tuple(psi))[0]
    lowering = [action[tuple(-c for c in a)] for a in cb.rs.simple]
    basis_cols = lowering_span(QSpan(), lowering, v)
    if len(basis_cols) == d:
        return adapt_by_conjugation(cb, action)
    coords = coordinate_solver_by_inverse(basis_cols)
    sub_action = {
        key: tuple(zip(*(coords(mat_vec(g, b)) for b in basis_cols))) for key, g in action.items()
    }
    return adapt_by_conjugation(cb, sub_action)


def subgroup_count_of_quotient(divisors):
    """Number of subgroups of ⊕ Z/d_i, by brute force over small orders."""
    mods = [int(d) for d in divisors]
    if prod(mods) > 2**12:
        raise LatticeError("brute-force subgroup count capped")

    def add(x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, mods))

    elems = list(itertools.product(*[range(d) for d in mods]))
    trivial = frozenset([tuple(0 for _ in mods)])
    subgroups = {trivial}
    frontier = [trivial]
    # Closure-based enumeration: grow subgroups one generator at a time.
    # <S, g> is the union of the cosets S + k·g, and every element of
    # the coset S + g gives the same group.
    while frontier:
        nxt = []
        for sg in frontier:
            covered = set(sg)
            for g in elems:
                if g in covered:
                    continue
                new = set(sg)
                x = g
                while x not in sg:
                    new.update(add(y, x) for y in sg)
                    x = add(x, g)
                covered.update(add(y, g) for y in sg)
                new = frozenset(new)
                if new not in subgroups:
                    subgroups.add(new)
                    nxt.append(new)
        frontier = nxt
    return len(subgroups)


def _gaussian_binomial(n, k, p):
    """[n choose k]_p, the number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def subgroup_count_by_gaussian_binomials(lam, p):
    """Birkhoff's count of the subgroups of ⊕ Z/p^(lam_i), summed column by
    column over the conjugate partitions as latconstruct.subgroup_count
    sums it, with every Gaussian binomial taken from scratch, as before
    that function built each row of them once."""
    lam = [x for x in lam if x]
    conj = [sum(1 for x in lam if x > i) for i in range(max(lam, default=0))]
    f = {0: 1}
    for li in reversed(conj):
        f = {
            a: sum(
                p ** (b * (li - a)) * _gaussian_binomial(li - b, a - b, p) * fb
                for b, fb in f.items()
                if b <= a
            )
            for a in range(li + 1)
        }
    return sum(f.values())


def index_by_pivot_products(sub, sup):
    """[sup : sub], as Lattice.index_in took it before it read the local
    pivot valuations: the quotient of the pivot products, each over its
    scale to the n, and over Z_(p) p to the valuation of that quotient."""
    if not sup.contains(sub):
        raise LatticeError("index: sub is not contained in sup")
    n = sub.ambient
    pivots = [prod(col[i] for i, col in enumerate(x.columns)) for x in (sub, sup)]
    q = Fraction(pivots[0] * sup.denominator**n, pivots[1] * sub.denominator**n)
    if sub.prime is None:
        assert q.denominator == 1
        return q.numerator
    return sub.prime ** vp(q, sub.prime)


def ideal_lattices_of_norm(field, n):
    """Index-n sublattices of O_D closed under multiplication by w, a
    Lattice per Hermite basis a, b + d·w (a·d = n, 0 <= b < a) kept when
    it is stable under w, as `casestudies.class_orbit_count` enumerated
    them before `ideals_of_norm` decided it in closed form."""
    omega = field.mul_matrix((0, 1))
    out = []
    for a in range(1, n + 1):
        if n % a:
            continue
        d = n // a
        for b in range(a):
            lat = Lattice([[a, 0], [b, d]])
            if lat.stable_under(omega):
                out.append(lat)
    return out


def class_key_by_lattice(field, ideal):
    """The reduced form of N(x·w1 + y·w2) / N(I) on the canonical basis
    (w1, w2) of the proper ideal I of O_D, as `casestudies` keyed a class
    before it read the key off the basis a, b + d·w."""
    w1, w2 = ideal.basis
    assert w1[0] * w2[1] - w1[1] * w2[0] > 0, "canonical ideal basis is positively oriented"
    n = ideal.index_in(Lattice([[1, 0], [0, 1]]))
    q1 = quad_norm(field, w1)
    q2 = quad_norm(field, w2)
    form = (q1, quad_norm(field, (w1[0] + w2[0], w1[1] + w2[1])) - q1 - q2, q2)
    assert not any(x % n for x in form), "norm form of an ideal is integral"
    a, b, c = (x // n for x in form)
    assert math.gcd(a, b, c) == 1 and b * b - 4 * a * c == field.disc
    return reduce_form(a, b, c)


def scaling_equivalent(field, lat1, lat2):
    """Is lat2 = x·lat1 for some x in F*?"""
    ratio = abs(det(lat2.basis_matrix()) / det(lat1.basis_matrix()))
    # Candidate multipliers lie in {y : y·lat1 ⊆ lat2} with N(y) = ratio.
    quot = transporter([field.mul_matrix((1, 0)), field.mul_matrix((0, 1))], lat1, lat2)
    # The norm form is positive definite, so Q(s,t) = ratio confines the
    # basis coefficients to |s|² <= ratio·c/det(Q), |t|² <= ratio·a/det(Q).
    b0, b1 = quot.basis
    qa = quad_norm(field, b0)
    qc = quad_norm(field, b1)
    qb = (quad_norm(field, tuple(x + y for x, y in zip(b0, b1))) - qa - qc) / 2
    det_q = qa * qc - qb * qb
    smax = math.isqrt(int(ratio * qc / det_q)) + 1
    tmax = math.isqrt(int(ratio * qa / det_q)) + 1
    for s in range(-smax, smax + 1):
        for t in range(-tmax, tmax + 1):
            if s == 0 and t == 0:
                continue
            y = tuple(s * b0[i] + t * b1[i] for i in range(2))
            if quad_norm(field, y) != ratio:
                continue
            (ints,), e = clear_denominators([y])
            moved = lat1.apply(field.mul_matrix(ints), e)
            if moved == lat2:
                return True
    return False


# -----------------------------------------------------------------------
# Class groups by the ideal search below the Minkowski bound, each proper
# ideal keyed by the reduced form of its norm form, as before
# `casestudies.class_orbit_count` read the classes off the reduced forms.
# -----------------------------------------------------------------------


def quad_norm(field, x):
    """N(u + v·w) = (u + v·w)(u + v·w̄) in the field, w + w̄ = D and
    w·w̄ = (D² - D)/4."""
    u, v = x
    return u * u + u * v * field.disc - v * v * field._c


def minkowski_bound(field):
    """An integer above (2/pi)·sqrt(|disc|), a norm within which every
    class of Pic(O_D) contains a proper integral ideal: a class's
    reduced primitive form (a, b, c) gives the proper ideal
    Z·a + Z·(-b + sqrt(D))/2 of norm a <= sqrt(|disc|/3), which is
    below (2/pi)·sqrt(|disc|).  As 333/106 < pi, 212/333 > 2/pi, and
    floor(212/333·sqrt(|disc|)) + 1 is computed in integers."""
    return math.isqrt(4 * 106**2 * -field.disc) // 333 + 1


def ideals_of_norm(field, n):
    """The ideals of O_D of index n, as the (a, b, d) of their bases
    a, b + d·w, in order of a, then of b.  Every index-n subgroup of
    Z + Z·w has one such basis with a·d = n and 0 <= b < a, and it is an
    ideal when w maps it into itself.  a·w = x·a + y·(b + d·w) forces
    y = a/d and x = -b/d, so d | a and d | b; then, as w² = D·w + c,
    w·(b + d·w) = (b/d + D)·(b + d·w) + d·c - b·(b/d + D) needs
    a | d·c - b·(b/d + D)."""
    for a in range(1, n + 1):
        d = n // a
        if n % a or a % d:
            continue
        for b in range(0, a, d):
            if (d * field._c - b * (b // d + field.disc)) % a == 0:
                yield a, b, d


def norm_form(field, a, b, d):
    """(A, B, C) with N(x·a + y·(b + d·w)) / n = A·x² + B·x·y + C·y² for
    the ideal I = Z·a + Z·(b + d·w) of index n = a·d.

    N(u + v·w) = u² + D·u·v - c·v² gives A = a/d, B = 2·b/d + D and
    C = -(d·c - b·(b/d + D))/a, integers as I is an ideal, and B² - 4·A·C
    = D² + 4·c = D.  The content g is [O : O_D] for the multiplier ring O
    of I: the form is A·(x + y·t)(x + y·t̄) for t = (b + d·w)/a, a root of
    the primitive (A·X² - B·X + C)/g, so O, the ring of Z + Z·t, has
    discriminant D/g² (Cox, Primes of the Form x² + ny², Lemma 7.5) and
    index g over O_D.  The basis is positively oriented (determinant n)
    and F*-scaling multiplies every norm and n alike, so the reduced form
    of a primitive form keys the class of I in Pic(O_D) (Cox, Thm. 7.7);
    GL₂(Z) would also join I to its conjugate, in general another class.
    """
    n = a * d
    q1, q2 = quad_norm(field, (a, 0)), quad_norm(field, (b, d))
    form = (q1, quad_norm(field, (a + b, d)) - q1 - q2, q2)
    A, B, C = (x // n for x in form)
    if any(x % n for x in form) or B * B - 4 * A * C != field.disc:
        raise AssertionError("norm form of an ideal is not integral of discriminant D")
    return A, B, C


def reduce_form(a, b, c):
    """SL₂(Z)-reduced form equivalent to the positive definite (a, b, c):
    |b| <= a <= c, and b >= 0 when |b| = a or a = c (Cohen, Alg. 5.4.2)."""
    disc = b * b - 4 * a * c
    while True:
        if not -a < b <= a:
            # (x, y) -> (x + k·y, y) moves b by 2ka into (-a, a].
            b %= 2 * a
            if b > a:
                b -= 2 * a
            c = (b * b - disc) // (4 * a)
        if a <= c:
            break
        # (x, y) -> (-y, x)
        a, b, c = c, -b, a
    if a == c and b < 0:
        b = -b
    return a, b, c


def class_orbit_count_by_ideals(disc):
    """class_orbit_count by the ideal search: every ideal of O_D of norm
    up to the Minkowski bound, kept when its norm form is primitive (it is
    proper) and keyed by the reduced form, the first of each class in
    order of norm, then of enumeration within a norm its representative."""
    if disc >= 0:
        raise AssertionError("only negative discriminants")
    field = QuadField(disc)
    classes = {}
    for n in range(1, minkowski_bound(field) + 1):
        for a, b, d in ideals_of_norm(field, n):
            form = norm_form(field, a, b, d)
            if math.gcd(*form) == 1:
                classes.setdefault(reduce_form(*form), (a, b, d))
    order = Lattice([[1, 0], [0, 1]])
    reps = [Lattice([[a, 0], [b, d]]) for a, b, d in classes.values()]
    if any(multiplier_ring(field, lat) != order for lat in reps):
        raise AssertionError("the multiplier ring of a class representative is not O_D")
    return len(reps), reps


def lattice_coords(lat, v):
    """Coordinates of v in the canonical (lower triangular) basis of lat,
    by Fraction forward substitution."""
    basis = lat.basis
    v = [F(x) for x in v]
    x = []
    for i in range(lat.ambient):
        xi = (v[i] - sum(basis[j][i] * x[j] for j in range(i))) / basis[i][i]
        x.append(xi)
    return x


def lattice_member(lat, v):
    x = lattice_coords(lat, v)
    if lat.prime is None:
        return all(c.denominator == 1 for c in x)
    return all(c.denominator % lat.prime != 0 for c in x)


def zspan_coords(span, v):
    """Coordinates of v in the Hermite basis of span, or None if v is
    outside its Q-span: forward substitution on the pivots, then a
    residual check on every row."""
    basis = [[F(x, span.denominator) for x in col] for col in span.columns]
    v = tuple(F(x) for x in v)
    if not basis:
        return () if not any(v) else None
    x = []
    for k, col in enumerate(basis):
        piv = span.pivots[k]
        xi = (v[piv] - sum(basis[j][piv] * x[j] for j in range(k))) / col[piv]
        x.append(xi)
    for i in range(span.ambient):
        if sum(basis[j][i] * x[j] for j in range(len(x))) != v[i]:
            return None
    return tuple(x)


def zspan_member(span, v):
    x = zspan_coords(span, v)
    return x is not None and all(c.denominator == 1 for c in x)


def reduces_to_zero(v, cols, j):
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


def product_echelon_by_fractions(products):
    """Integer echelon of the products scaled by their common denominator
    d, so an integral-combination basis, each vector carrying its
    combination as a list of Fractions: (monomial index, d, sorted
    [(pivot, (vector, combination))], words)."""
    monomials = sorted({e for poly, _ in products for e in poly})
    ix = {e: i for i, e in enumerate(monomials)}
    vecs = []
    for poly, _ in products:
        v = [0] * len(monomials)
        for e, c in poly.items():
            v[ix[e]] = c
        vecs.append(v)
    ints, d = clear_denominators(vecs)
    words = [word for _, word in products]
    ech = {}  # pivot row -> (vector, combination)
    for k, v in enumerate(ints):
        c = [Fraction(0)] * len(words)
        c[k] = Fraction(1)
        while True:
            piv = next((i for i, x in enumerate(v) if x != 0), None)
            if piv is None:
                break
            if v[piv] < 0:
                v = [-x for x in v]
                c = [-x for x in c]
            if piv not in ech:
                ech[piv] = (v, c)
                break
            w, wc = ech[piv]
            q = v[piv] // w[piv]
            v = [a - q * b for a, b in zip(v, w)]
            c = [a - q * b for a, b in zip(c, wc)]
            if v[piv] != 0:
                # Remainder became the smaller pivot: swap and continue.
                ech[piv], v, c = (v, c), w, wc
    return ix, d, sorted(ech.items()), words


def tracked_membership_by_fractions(echelon, target, p):
    """Decide membership of target in the R-span of the products with
    a product_echelon_by_fractions, R = Z_(p), or Z when p is None, by
    Fraction forward substitution; returns (status, combination or
    witness).

    status: "member" with a combination [(coeff, word)] over R,
    "excluded" with the last coefficient outside R, or "outside" when
    the target is not even in the Q-span.
    """
    ix, d, rows, words = echelon
    if any(c and e not in ix for e, c in target.items()):
        return "outside", None
    resid = [Fraction(0)] * len(ix)
    for e, c in target.items():
        resid[ix[e]] = F(c) * d
    combo = [Fraction(0)] * len(words)
    bad_val = None
    for piv, (w, wc) in rows:
        if resid[piv] != 0:
            q = resid[piv] / w[piv]
            if q.denominator != 1 and (p is None or vp(q, p) < 0):
                bad_val = q
            resid = [a - q * b for a, b in zip(resid, w)]
            combo = [a + q * b for a, b in zip(combo, wc)]
    if any(resid):
        return "outside", None
    if bad_val is not None:
        return "excluded", bad_val
    return "member", [(c, words[k]) for k, c in enumerate(combo) if c]


def poly_reduce_det_by_rewriting(a):
    """Rewrite x11·x22 -> 1 + x12·x21 one monomial at a time until no
    monomial has both."""
    work = dict(a)
    out = {}
    while work:
        e, c = work.popitem()
        if e[0] > 0 and e[3] > 0:
            base = (e[0] - 1, e[1], e[2], e[3] - 1)
            for extra in (base, (base[0], base[1] + 1, base[2] + 1, base[3])):
                cur = work.get(extra, 0) + c
                if cur:
                    work[extra] = cur
                elif extra in work:
                    del work[extra]
        else:
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def sym2_symbolic_by_products():
    """The symmetric-square action matrix with polynomial entries, in the
    monomial basis e1^2, e1e2, e2^2, from products and sums of the group
    coordinates written out entry by entry."""

    def v(i):
        e = [0, 0, 0, 0]
        e[i] = 1
        return {tuple(e): 1}

    a, b, c, d = v(0), v(1), v(2), v(3)
    two = {(0, 0, 0, 0): 2}
    poly_mul, poly_add = models.poly_mul, models.poly_add
    return (
        (poly_mul(a, a), poly_mul(a, b), poly_mul(b, b)),
        (
            poly_mul(two, poly_mul(a, c)),
            poly_add(poly_mul(a, d), poly_mul(b, c)),
            poly_mul(two, poly_mul(b, d)),
        ),
        (poly_mul(c, c), poly_mul(c, d), poly_mul(d, d)),
    )


def monomial_products_by_discarding(gens, degree_bound):
    """All products of generators with reduced ambient degree within the
    bound, breadth first, as (polynomial, multiset of generator indices):
    every extension of a word is multiplied and reduced, and a zero
    product or one above the bound is dropped afterwards."""
    out = [({(0, 0, 0, 0): 1}, ())]
    frontier = [({(0, 0, 0, 0): 1}, ())]
    while frontier:
        nxt = []
        for poly, word in frontier:
            start = word[-1] if word else 0
            for k in range(start, len(gens)):
                product = poly_reduce_det_by_rewriting(models.poly_mul(poly, gens[k]))
                if not product or max(sum(e) for e in product) > degree_bound:
                    continue
                item = (product, word + (k,))
                out.append(item)
                nxt.append(item)
        frontier = nxt
    return out


def snf_diagonal_unbounded(rows):
    """Elementary divisors of an integer matrix (Smith normal form), by
    elimination over Z with no bound on the entries.

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


def snf_diagonal_by_minor(rows):
    """Elementary divisors of an integer matrix (Smith normal form),
    computed modulo a determinant (Cohen §2.4.3; Hafner–McCurley 1991).

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


# -----------------------------------------------------------------------
# The Chevalley construction before root-space supports and the bracket
# table: root spaces as nullspaces over the whole N²-dimensional matrix
# space, coroots from a Killing-Gram solve per call, dense brackets.
# -----------------------------------------------------------------------


class EuclideanRootData:
    """The roots of a classical type in Euclidean coordinates (Bourbaki,
    plates I-IV), written per type as rootdata.RootSystem wrote them
    before it read them off the Cartan matrix: simple, the simple roots
    in R^dim; roots, the positive roots e_i − e_j, then e_i + e_j, e_i
    for B and 2·e_i for C, followed by their negatives; fund, each root's
    fund coords by fund_coords; and weights, the weights of the positions
    of the defining realization, e_1, ..., e_(n+1) for A and ±e_i (and 0
    for B) otherwise, in the order of rootdata._position_weights."""

    def __init__(self, label, rank):
        n = rank
        self.dim = n + 1 if label == "A" else n

        def e(i, c=1):
            return tuple(c * int(k == i) for k in range(self.dim))

        def comb(i, j, sj):
            return tuple(x + sj * y for x, y in zip(e(i), e(j)))

        pairs = [(i, j) for i in range(self.dim) for j in range(i + 1, self.dim)]
        simple = [comb(i, i + 1, -1) for i in range(self.dim - 1)]
        positive = [comb(i, j, -1) for i, j in pairs]
        if label != "A":
            positive += [comb(i, j, 1) for i, j in pairs]
            simple.append({"B": e(n - 1), "C": e(n - 1, 2), "D": comb(n - 2, n - 1, 1)}[label])
            positive += {"B": [e(i) for i in range(n)], "C": [e(i, 2) for i in range(n)], "D": []}[label]
        self.simple = tuple(simple)
        self.roots = tuple(positive) + tuple(tuple(-x for x in b) for b in positive)
        self.fund = {b: self.fund_coords(b) for b in self.roots}
        self.weights = [e(i) for i in range(self.dim)]
        if label != "A":
            self.weights += [e(i, -1) for i in range(n)]
        if label == "B":
            self.weights.append((0,) * n)

    def fund_coords(self, v):
        """<v, α_i^∨> = 2(v, α_i)/(α_i, α_i) for each simple root α_i,
        checked integral."""
        out = []
        for a in self.simple:
            q, r = divmod(2 * _dot(v, a), _dot(a, a))
            assert not r, "non-integral pairing"
            out.append(q)
        return tuple(out)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@lru_cache(maxsize=None)
def coroots_by_euclid(label, rank):
    """{fund: alpha^∨ in the simple coroots} for every root of the type,
    from its Euclidean coordinates: alpha^∨ = 2·alpha/(alpha, alpha),
    solved on the simple coroots with Fractions, as
    ChevalleyBasis.h_alpha_coords gave them before RootSystem carried
    each coroot through the reflection closure."""
    e = EuclideanRootData(label, rank)

    def coroot(v):
        return [Fraction(2 * x, _dot(v, v)) for x in v]

    cols = mat(tuple(zip(*map(coroot, e.simple))))
    return {e.fund[b]: tuple(solve(cols, coroot(b))) for b in e.roots}


def form_by_type(label, rank):
    """The form S of the defining realization, sparse, written per type as
    rootdata._form wrote it: S[i][n + i] = 1 and S[n + i][i] = −1 for C
    and 1 otherwise, and S[2n][2n] = 1 for B; empty for A."""
    if label == "A":
        return {}
    n = rank
    s = {}
    for i in range(n):
        s[i, n + i] = 1
        s[n + i, i] = -1 if label == "C" else 1
    if label == "B":
        s[2 * n, 2 * n] = 1
    return s


def root_data_by_fraction_dot(rs):
    """(Cartan matrix, {fund: simple-root expansion}, positive roots in
    height order, by fund coords) from Fraction inner products of the
    Euclidean roots and one `solve` per root."""

    def dot(u, v):
        return sum(F(a) * F(b) for a, b in zip(u, v))

    e = EuclideanRootData(rs.type_label, rs.rank)
    simple = e.simple
    cartan = tuple(tuple(int(2 * dot(b, a) / dot(a, a)) for b in simple) for a in simple)
    a = mat(tuple(zip(*simple)))
    expansion = {}
    for b in e.roots:
        x = solve(a, [F(t) for t in b])
        assert x is not None and all(c.denominator == 1 for c in x)
        expansion[e.fund[b]] = tuple(int(c) for c in x)
    positive = sorted(
        (f for f in e.fund.values() if sum(expansion[f]) > 0),
        key=lambda f: (sum(expansion[f]), expansion[f]),
    )
    return cartan, expansion, tuple(positive)


def _realization_size(rs):
    n = rs.rank
    return {"A": n + 1, "B": 2 * n + 1}.get(rs.type_label, 2 * n)


def _diag_param(rs, params):
    if rs.type_label == "A":
        return list(params)
    tail = [0] if rs.type_label == "B" else []
    return list(params) + [-x for x in params] + tail


def _lie_algebra_basis(rs):
    """Basis of the realization Lie algebra as flattened N² vectors."""
    N = _realization_size(rs)
    t = rs.type_label
    if t == "A":
        basis = []
        for i in range(N):
            for j in range(N):
                if i != j:
                    v = [Fraction(0)] * (N * N)
                    v[i * N + j] = Fraction(1)
                    basis.append(tuple(v))
        for i in range(N - 1):
            v = [Fraction(0)] * (N * N)
            v[i * N + i] = Fraction(1)
            v[(i + 1) * N + (i + 1)] = Fraction(-1)
            basis.append(tuple(v))
        return tuple(basis)
    s = [[Fraction(0)] * N for _ in range(N)]
    for (i, j), v in form_by_type(t, rs.rank).items():
        s[i][j] = Fraction(v)
    # X^T S + S X = 0, one linear condition per matrix position.
    rows = []
    for i in range(N):
        for j in range(N):
            row = [Fraction(0)] * (N * N)
            for a in range(N):
                row[a * N + i] += s[a][j]
                row[a * N + j] += s[i][a]
            rows.append(tuple(row))
    return nullspace_by_echelon(mat(rows))


class ChevalleyBasisByNullspace:
    """The Chevalley set as `rootdata.ChevalleyBasis` built it with dense
    matrices: x, h, coroot_params, h_alpha_coords and
    structure_constant, without the eager verification."""

    def __init__(self, rs):
        self.rs = rs
        self.N = N = _realization_size(rs)
        e = EuclideanRootData(rs.type_label, rs.rank)
        self._euclid_to_fund = e.fund
        self._fund_to_euclid = {f: b for b, f in e.fund.items()}
        self._killing_gram = mat(
            [[sum(F(b[i]) * F(b[j]) for b in e.roots) for j in range(e.dim)] for i in range(e.dim)]
        )
        lie = _lie_algebra_basis(rs)
        lie_by_position = tuple(zip(*lie))
        dvecs = e.weights
        gens = {}
        for beta in e.roots:
            allowed = {
                i * N + j
                for i in range(N)
                for j in range(N)
                if tuple(a - b for a, b in zip(dvecs[i], dvecs[j])) == beta
            }
            rows = [tuple(b[pos] for b in lie) for pos in range(N * N) if pos not in allowed]
            ker = nullspace_by_echelon(mat(rows))
            assert len(ker) == 1
            flat = dense_primitive(mat_vec(lie_by_position, ker[0]))
            gens[e.fund[beta]] = tuple(tuple(flat[i * N + j] for j in range(N)) for i in range(N))
        self.h = tuple(self._h_matrix(a) for a in rs.simple)
        self.x = {a: gens[a] for a in rs.simple}
        for gamma in rs.positive:
            if gamma in self.x:
                continue
            for a in rs.simple:
                beta = self._fund_of(tuple(x - y for x, y in zip(self._euclid(gamma), self._euclid(a))))
                if beta is None or beta not in self.x:
                    continue
                r = rs.root_string_r(a, beta)
                self.x[gamma] = mat_scale(Fraction(1, r + 1), bracket(self.x[a], self.x[beta]))
                break
        for gamma in rs.positive:
            neg = tuple(-c for c in gamma)
            br = bracket(self.x[gamma], gens[neg])
            h = self._h_matrix(gamma)
            lam = next(br[i][i] / h[i][i] for i in range(N) if h[i][i] != 0)
            assert mat_sub(br, mat_scale(lam, h)) == zeros(N, N)
            self.x[neg] = mat_scale(Fraction(1) / lam, gens[neg])

    def _fund_of(self, euclid):
        return self._euclid_to_fund.get(tuple(euclid))

    def _euclid(self, fund):
        return self._fund_to_euclid[fund]

    def coroot_params(self, fund):
        """h_alpha as diagonal parameters, from t_alpha with
        kappa(t_alpha, ·) = alpha."""
        t = solve(self._killing_gram, [F(x) for x in self._euclid(fund)])
        if self.rs.type_label == "A":
            # The Gram matrix is degenerate on scalar matrices; pick the
            # traceless representative.
            avg = sum(t) / len(t)
            t = [c - avg for c in t]
        kappa = sum(a * b for a, b in zip(mat_vec(self._killing_gram, t), t))
        return tuple(2 * x / kappa for x in t)

    def _h_matrix(self, fund):
        d = _diag_param(self.rs, self.coroot_params(fund))
        return tuple(tuple(F(d[i]) if i == j else Fraction(0) for j in range(self.N)) for i in range(self.N))

    def h_alpha_coords(self, fund):
        cols = tuple(zip(*[self.coroot_params(a) for a in self.rs.simple]))
        return solve(mat(cols), [F(t) for t in self.coroot_params(fund)])

    def structure_constant(self, alpha, beta):
        rs = self.rs
        target = self._fund_of(tuple(x + y for x, y in zip(self._euclid(alpha), self._euclid(beta))))
        if target is None:
            return Fraction(0)
        m = bracket(self.x[alpha], self.x[beta])
        xm = self.x[target]
        return next(F(m[i][j]) / xm[i][j] for i in range(self.N) for j in range(self.N) if xm[i][j] != 0)


def root_space_kernels(cb):
    """{fund: the kernel of Xᵀ·S + S·X = 0 (S = rootdata._form) on the
    matrix positions of the root's weight, as a list of sparse matrices},
    through matrixops.relations among the form equations of those
    positions, as ChevalleyBasis._root_spaces solved for each root space
    before it wrote them down in closed form.  A position (i, j) is
    keyed by the fund coords of w[i] − w[j] for the weights w of
    cb._weights."""
    rs = cb.rs
    w = cb._weights
    positions = {}
    for i in range(cb.N):
        for j in range(cb.N):
            positions.setdefault(tuple(a - b for a, b in zip(w[i], w[j])), []).append((i, j))
    s = _form(rs)
    out = {}
    for fund in rs.all_roots:
        pos = positions[fund]
        equations = []
        for a, b in pos:
            # X[a][b] enters (XᵀS)[b][j] with S[a][j], (SX)[i][b] with S[i][a].
            eq = {}
            for (i, j), v in s.items():
                if i == a:
                    eq[b, j] = eq.get((b, j), 0) + v
                if j == a:
                    eq[i, b] = eq.get((i, b), 0) + v
            equations.append(eq)
        out[fund] = [{pos[k]: x for k, x in rel.items()} for rel in matrixops.relations(equations)]
    return out


def lift(cb, action, dim, coords):
    """Action matrix of the Lie algebra element with Chevalley coordinates
    coords, as a dense sum over the basis (the per-pair homomorphism check
    compared each bracket with this before the bracket table)."""
    out = [[Fraction(0)] * dim for _ in range(dim)]
    for c, key in zip(coords, cb.rs.basis_order()):
        if c:
            for r, row in enumerate(action[key]):
                for s, y in enumerate(row):
                    if y:
                        out[r][s] += c * y
    return mat(out)


def _first_entries(m, x):
    """(m's entry, x's entry) at the first nonzero entry of the sparse
    matrix x, in row-major order: m is proportional to x exactly when
    x's entry times m equals m's entry times x."""
    assert x, "zero root vector"
    k = min(x)
    return m.get(k, 0), x[k]


def bracket_table_by_ordered_pairs(cb):
    """The bracket table of cb read off the brackets of its integer
    generators A = D·b over every ordered pair, as ChevalleyBasis._verify
    read it before the table was read off the root data: [A_a, A_-a] =
    D·Σ c_i·A_{h_i} for h_a = Σ c_i·h_i, [A_{h_i}, A_a] = D·a_i·A_a, and
    [A_a, A_b] = D·c·A_{a+b} with |c| = r + 1, each identity checked."""
    rs = cb.rs
    ix = cb._index
    d = cb.denominator
    x = cb.action
    hkeys = [("h", i) for i in range(rs.rank)]
    h = [x[key] for key in hkeys]
    hix = [ix[key] for key in hkeys]
    table = [[{} for _ in ix] for _ in ix]
    for alpha in rs.all_roots:
        a = ix[alpha]
        neg = tuple(-c for c in alpha)
        coords = rs.coroot[alpha]
        assert sparse_bracket(x[alpha], x[neg]) == _scaled(d, cb._combination(coords, hkeys)), alpha
        table[a][ix[neg]] = {k: c for k, c in zip(hix, coords) if c}
        for i, hm in enumerate(h):
            assert sparse_bracket(hm, x[alpha]) == _scaled(d * alpha[i], x[alpha]), alpha
            if alpha[i]:
                table[hix[i]][a] = {a: alpha[i]}
                table[a][hix[i]] = {a: -alpha[i]}
    assert not any(sparse_bracket(hm, hn) for hm in h for hn in h), "Cartan generators do not commute"
    for alpha in rs.all_roots:
        for beta in rs.all_roots:
            target = tuple(a + b for a, b in zip(alpha, beta))
            if not any(target):
                continue
            br = sparse_bracket(x[alpha], x[beta])
            if not rs.is_root(target):
                assert not br, "bracket outside root system nonzero"
                continue
            b, t = _first_entries(br, x[target])
            c, rem = divmod(b, d * t)
            assert not rem and abs(c) == rs.root_string_r(alpha, beta) + 1, (alpha, beta)
            assert br == _scaled(d * c, x[target]), "bracket not proportional to x_{a+b}"
            table[ix[alpha]][ix[beta]] = {ix[target]: c}
    return tuple(tuple(row) for row in table)


def chevalley_set_by_pairing(cb):
    """(action, denominator, bracket table) of cb as ChevalleyBasis built
    them before rootdata.chevalley_set: the closed-form root space of
    every root, the positive root vectors by the recursion on the simple
    ones, every negative root vector paired with its positive one by
    _pair_negative against h_gamma, the diagonal of the pairings of the
    position weights with gamma's coroot, and each h_i the realization's
    coroot; the table is read off this action by ChevalleyBasis._verify."""
    rs = cb.rs
    gens = cb._root_spaces(rs.all_roots)
    x = {a: (gens[a], 1) for a in rs.simple}
    for gamma in rs.positive:
        if gamma in x:
            continue
        for a in rs.simple:
            beta = tuple(g - c for g, c in zip(gamma, a))
            if beta in x:
                r = rs.root_string_r(a, beta)
                (ma, da), (mb, db) = x[a], x[beta]
                x[gamma] = _lowest(sparse_bracket(ma, mb), da * db * (r + 1))
                break
        else:
            raise AssertionError("no decomposition for %r" % (gamma,))
    for gamma in rs.positive:
        neg = tuple(-c for c in gamma)
        h = canonical({(k, k): _dot(w, rs.coroot[gamma]) for k, w in enumerate(cb._weights)})
        x[neg] = _pair_negative(x[gamma], gens[neg], h)
    d = lcm(*(e for _, e in x.values()))
    action = {key: _scaled(d // e, m) for key, (m, e) in x.items()}
    action.update((("h", i), _scaled(d, cb._h_sparse(i))) for i in range(rs.rank))
    old = copy.copy(cb)
    old.action, old.denominator = action, d
    old._verify()
    return action, d, old.bracket_table


# -----------------------------------------------------------------------
# Sandwich lattices and transition spans by enumerating every distinct
# ordering of each simple-root multiset, as before the walk down the
# weights (`latconstruct._sandwich_blocks` and the transition check in
# `reps`).  The word count grows multinomially with the degree.
# -----------------------------------------------------------------------


def distinct_words(letters):
    """Each distinct ordering of the multiset of letters once, as tuples;
    the count is the multinomial coefficient, not len(letters)!."""
    if not letters:
        yield ()
        return
    for first in dict.fromkeys(letters):
        rest = list(letters)
        rest.remove(first)
        for word in distinct_words(rest):
            yield (first,) + word


def word_products(gens, words):
    """Yield (word, gens[w_k]···gens[w_1]) for each word (w_1, ..., w_k),
    in order; the empty word gives the identity.  Each product extends the
    product of the word's longest prefix computed so far, so words sharing
    prefixes (as distinct_words lists them) share those products."""
    done = {(): identity(len(next(iter(gens.values()))))}
    for word in words:
        k = len(word)
        while word[:k] not in done:
            k -= 1
        prod = done[word[:k]]
        for i in range(k, len(word)):
            prod = mat_mul(gens[word[i]], prod)
            done[word[:i + 1]] = prod
        yield word, prod


def words_of_degree(rep, degree):
    """Each distinct ordering of the simple-letter multiset with the given
    root-lattice degree (nonnegative integer coordinates)."""
    letters = []
    for i, a in enumerate(rep.cb.rs.simple):
        letters.extend([a] * degree[i])
    return distinct_words(letters)


def degrees_of_component(rep, psi):
    """Root-coordinate degrees psi - chi over the weights of V_(psi)."""
    out = set()
    for (p, chi) in rep.blocks:
        if p != psi:
            continue
        m = rep.cb.rs.expansion(tuple(a - b for a, b in zip(psi, chi)))
        if m is not None and all(x >= 0 for x in m):
            out.add(m)
    return sorted(out)


def word_matrices(rep, degrees, sign):
    """The action matrix of each word of each degree, in order: x_(a_k)···
    x_(a_1) for the word (a_1, ..., a_k) of simple roots (x_(-a) when sign
    < 0)."""
    action = dense_action(rep)
    gens = {a: action[a if sign > 0 else tuple(-x for x in a)] for a in rep.cb.rs.simple}
    words = (w for degree in degrees for w in words_of_degree(rep, degree))
    for _, prod in word_products(gens, words):
        yield prod


def block_embed(rep, psi, block_vec):
    ix = rep.block(psi, psi)
    v = [Fraction(0)] * rep.dim
    for i, x in zip(ix, block_vec):
        v[i] = F(x)
    return tuple(v)


def s_minus_by_words(rep, p=None):
    """Sum over psi of the lowering-word images of the standard J_psi."""
    gens = []
    for psi in rep.distinct_highest_weights():
        jvecs = [block_embed(rep, psi, col) for col in identity(len(rep.block(psi, psi)))]
        degrees = degrees_of_component(rep, psi)
        for m in word_matrices(rep, degrees, -1):
            for v in jvecs:
                img = mat_vec(m, v)
                if any(img):
                    gens.append(img)
    return Lattice(gens, p, ambient=rep.dim)


def s_plus_by_words(rep, p=None):
    """Largest lattice whose raising-word images project into each
    standard J_psi: the dual of the lattice spanned by the (psi, psi) rows
    of every raising word."""
    rows = []
    for psi in rep.distinct_highest_weights():
        ix = rep.block(psi, psi)
        degrees = degrees_of_component(rep, psi)
        for m in word_matrices(rep, degrees, +1):
            for row in (m[i] for i in ix):
                if any(row):
                    rows.append(row)
    return Lattice(rows, p, ambient=rep.dim).dual()


def transition_by_words(rep, psi, chi, sign):
    """(surjective, rank) of the span of the (chi, psi) blocks of the
    lowering words (sign -1) or the (psi, chi) blocks of the raising words
    (sign +1) of degree psi - chi."""
    psi = tuple(psi)
    chi = tuple(chi)
    src = rep.block(psi, psi)
    tgt = rep.block(psi, chi)
    m = rep.cb.rs.expansion(tuple(a - b for a, b in zip(psi, chi)))
    letters = []
    for i, a in enumerate(rep.cb.rs.simple):
        key = a if sign > 0 else tuple(-c for c in a)
        letters.extend([key] * m[i])
    rows_ix, cols_ix = (src, tgt) if sign > 0 else (tgt, src)
    target_dim = len(rows_ix) * len(cols_ix)
    span = QSpan()
    for _, prod in word_products(dense_action(rep), distinct_words(letters)):
        span.insert(dict(enumerate(prod[r][c] for r in rows_ix for c in cols_ix)))
    return span.rank == target_dim, span.rank


# -----------------------------------------------------------------------
# Orbit reports by listing every lattice between S₋ and S₊ and filtering
# it, as before the valuation box (`latconstruct.count_invariant_orbits`).
# -----------------------------------------------------------------------


def count_invariant_orbits_by_enumeration(rep, p):
    """The orbit report of count_invariant_orbits from enumerate_between:
    every intermediate lattice, kept when it is stable under every lattice
    generator, split and has the J components; one class per profile
    modulo the torus shifts, represented by the smallest canonical basis."""
    if p is None:
        raise LatticeError("orbit reports are defined over Z_(p), not over Z")
    lo = s_minus(rep, p)
    hi = s_plus(rep, p)
    sandwich_index = lo.index_in(hi)
    mids = enumerate_between(lo, hi)
    gens = reps.lattice_generators(rep)
    invariant = []
    for m in mids:
        if not all(m.stable_under(g, rep.denominator) for g in gens):
            continue
        if not is_split(rep, m):
            continue
        if not has_j_components(rep, m):
            continue
        invariant.append(m)
    orbits = {}
    if invariant:
        _check_multiplicity_free(rep)
        span = _shift_span(rep)
        for m in invariant:
            _, inv = _profile(rep, m, span)
            if inv not in orbits or m.basis < orbits[inv].basis:
                orbits[inv] = m
    reps_sorted = [orbits[k] for k in sorted(orbits)]
    return {
        "sandwich_index": int(sandwich_index),
        "total_between": len(mids),
        "invariant": len(invariant),
        "orbits": len(orbits),
        "representatives": [m.to_json_obj() for m in reps_sorted],
    }


# -----------------------------------------------------------------------
# Torus shifts from the inverse transposed Cartan matrix, as before they
# were read off the simple-root coordinates
# (`latconstruct._shift_lattice_columns`).
# -----------------------------------------------------------------------


def shift_lattice_columns_by_inverse_cartan(rep):
    """Per-psi uniform shifts, then for each column mu of the inverse of
    the transposed Cartan matrix (a fundamental coweight) the pairings
    <chi - psi, mu> over the sorted blocks; zero columns dropped."""
    order = sorted(rep.blocks)
    cols = [[1 if p == psi else 0 for p, _ in order] for psi in rep.distinct_highest_weights()]
    cinv = mat_inv_by_echelon(mat(tuple(zip(*rep.cb.rs.cartan_matrix))))
    for k in range(rep.cb.rs.rank):
        mu = tuple(row[k] for row in cinv)
        col = []
        for psi, chi in order:
            val = sum(F(c - p) * m for c, p, m in zip(chi, psi, mu))
            assert val.denominator == 1
            col.append(int(val))
        cols.append(col)
    return [c for c in cols if any(c)]


# -----------------------------------------------------------------------
# Lattice operations on the Fraction basis, as before Lattice.coordinates
# -----------------------------------------------------------------------


def dual_by_inverse(lat):
    """The dual lattice spanned by the rows of B⁻¹, B the Fraction basis
    inverted by Gauss–Jordan."""
    return Lattice(list(mat_inv_by_echelon(lat.basis_matrix())), lat.prime)


def sum_by_fractions(a, b):
    return Lattice(list(a.basis) + list(b.basis), a.prime)


def scale_by_fractions(lat, c):
    return Lattice([[F(c) * x for x in col] for col in lat.basis], lat.prime)


def apply_by_fractions(lat, matrix):
    return Lattice([mat_vec(matrix, c) for c in lat.basis], lat.prime)


def intersect_by_fractions(a, b):
    return dual_by_inverse(sum_by_fractions(dual_by_inverse(a), dual_by_inverse(b)))


def transporter_by_inverse(gens, src, dst):
    """{c : (Σ c_k·gens[k])·src ⊆ dst}: the dual of the lattice spanned by
    the entry rows of the products B_dst⁻¹·gens[k]·B_src."""
    b = src.basis_matrix()
    dinv = mat_inv_by_echelon(dst.basis_matrix())
    conj = [mat_mul(dinv, mat_mul(g, b)) for g in gens]
    n = src.ambient
    rows = [tuple(c[i][j] for c in conj) for i in range(n) for j in range(n)]
    return dual_by_inverse(Lattice([r for r in rows if any(r)], dst.prime, ambient=len(gens)))


def distance_by_inverse(a, b):
    """max − min of the valuations of the elementary divisors of B_a⁻¹·B_b."""
    divs = snf(mat_mul(mat_inv_by_echelon(a.basis_matrix()), b.basis_matrix()))
    vals = [vp(d, a.prime) for d in divs]
    return max(vals) - min(vals)


def ad_by_matrices(cb, u):
    """The matrix of ad(X) on the Chevalley basis, X = Σ u_i·b_i, built
    from matrices, not from the bracket table: column k holds the
    coordinates of the dense bracket [X, b_k] of the realization
    matrices."""
    x = cb.from_coords(u)
    return tuple(zip(*(cb.coords_of(bracket(x, b)) for b in basis_matrices(cb))))


def trace(a):
    return matrixops.F(sum(a[i][i] for i in range(len(a))))


def killing_gram_by_ad(cb):
    """The Killing Gram on the Chevalley basis as tr ad(b_i)·ad(b_j), with
    one dense product per pair."""
    m = len(cb.rs.basis_order())
    ad = [ad_by_matrices(cb, [int(k == i) for k in range(m)]) for i in range(m)]
    return tuple(tuple(trace(mat_mul(ad[i], ad[j])) for j in range(m)) for i in range(m))


def bracket_closed_pairwise(cb, lat):
    """Does [u_i, u_j] lie in lat for every pair i < j of basis elements?
    Column j of ad(u_i)·B is [u_i, u_j]."""
    b = lat.basis_matrix()
    for i, u in enumerate(lat.basis):
        images = tuple(zip(*mat_mul(ad_by_matrices(cb, u), b)))
        if not all(lat.member(v) for v in images[i + 1 :]):
            return False
    return True


# -----------------------------------------------------------------------
# Checks and views that only tests use.
# -----------------------------------------------------------------------


def basis_matrices(cb):
    """The Chevalley basis as dense rational matrices, in basis order."""
    m = len(cb.rs.basis_order())
    return [cb.from_coords([int(k == i) for k in range(m)]) for i in range(m)]


def structure_constant(cb, alpha, beta):
    """N_{alpha,beta} with [x_a, x_b] = N·x_{a+b}, roots by fund coords,
    off the bracket table; zero when a + b is not a root."""
    ix = {key: k for k, key in enumerate(cb.rs.basis_order())}
    target = tuple(a + b for a, b in zip(alpha, beta))
    return cb.bracket_table[ix[alpha]][ix[beta]].get(ix.get(target), 0)


def has_j_components(rep, lat):
    """Is the standard lattice J_psi the psi block of lat at every highest
    weight psi?"""
    for psi in rep.distinct_highest_weights():
        ix = rep.block(psi, psi)
        gens = [[col[i] for i in ix] for col in lat.columns]
        if Lattice.from_integers(gens, lat.denominator, lat.prime, len(ix)) != Lattice(identity(len(ix)), lat.prime):
            return False
    return True


def sandwich_type(rep, p):
    """The type λ of S₊/S₋ of a multiplicity-free rep over Z_(p), one part
    per coordinate: v(S₋)_i − v(S₊)_i, read off the 1×1 block lattices of
    the walk, so [S₊ : S₋] = p^Σλ."""
    vlo, vhi = ([lat.valuations()[0] for _, lat in sorted(_sandwich_blocks(rep, s, p))] for s in (-1, 1))
    return [a - b for a, b in zip(vlo, vhi)]


def weights_down(rep, psi):
    """The weights chi of the psi-component from the top down, in order of
    the height of psi - chi, each with the simple-root coordinates of
    psi - chi, sorted as latconstruct walked them before it took the
    blocks in basis order."""
    graded = []
    for (p, chi) in rep.blocks:
        if p == psi:
            m = rep.cb.rs.expansion(tuple(a - b for a, b in zip(psi, chi)))
            graded.append((sum(m), m, chi))
    return [(chi, m) for _, m, chi in sorted(graded)]


def down_step(rep, psi, a, chi, sign):
    """The map from the (psi, chi + a) block to the (psi, chi) block that
    takes a word one letter a further down, times rep.denominator, as an
    integer sparse matrix {(row, column): entry}, its rows the (psi, chi)
    block and its columns the (psi, chi + a) block in block order: the
    block of x_(-a) when sign < 0, the transpose of the block of x_a
    from chi up when sign > 0."""
    lower = rep.block(psi, chi)
    upper = rep.block(psi, tuple(x + y for x, y in zip(chi, a)))
    if sign < 0:
        g = rep.action[tuple(-x for x in a)]
        step = {(i, j): g.get((r, c)) for i, r in enumerate(lower) for j, c in enumerate(upper)}
    else:
        g = rep.action[a]
        step = {(i, j): g.get((c, r)) for i, r in enumerate(lower) for j, c in enumerate(upper)}
    return {p: x for p, x in step.items() if x}


def check_transition_surjectivity(rep, psi, chi, sign):
    """Do graded generator words span Hom(highest block, chi block)?

    sign -1 uses lowering words mapping the psi block to the chi block;
    sign +1 uses raising words mapping the chi block back up, walked
    transposed, which keeps the rank.  Returns (surjective, rank).  The
    words of degree psi - w span the maps at each w + a composed with
    down_step a, so the walk down to chi keeps a QSpan basis of block
    maps per weight, each map as its columns.
    """
    psi = tuple(psi)
    chi = tuple(chi)
    cb = rep.cb
    src = rep.block(psi, psi)
    tgt = rep.block(psi, chi)
    if not src or not tgt:
        raise reps.RepError("chi is not a weight of the psi component")
    m = cb.rs.expansion(tuple(a - b for a, b in zip(psi, chi)))
    if m is None or any(x < 0 for x in m):
        raise reps.RepError("chi not under psi in the root order")
    k = len(src)
    maps = {psi: [identity(k)]}
    for w, mw in weights_down(rep, psi)[1:]:
        if any(x > y for x, y in zip(mw, m)):
            continue
        span = QSpan()
        maps[w] = []
        for a in cb.rs.simple:
            above = maps.get(tuple(x + y for x, y in zip(w, a)))
            if above is None:
                continue
            step = down_step(rep, psi, a, w, sign)
            for cols in above:
                img = tuple(sparse_mat_vec(step, c, len(rep.block(psi, w))) for c in cols)
                if span.insert(dict(enumerate(itertools.chain.from_iterable(img)))):
                    maps[w].append(img)
    rank = len(maps[chi])
    return rank == len(tgt) * k, rank


def reduced_forms_count(disc):
    """The class number of the order of discriminant disc < 0: primitive
    reduced binary quadratic forms (a, b, c) with b² - 4ac = disc,
    gcd(a, b, c) = 1, |b| <= a <= c, and b >= 0 when |b| = a or a = c."""
    count = 0
    a = 1
    # a <= sqrt(|disc| / 3) for a reduced form.
    while 3 * a * a <= -disc:
        for b in range(-a, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == -b or a == c):
                continue
            if math.gcd(a, b, c) != 1:
                continue
            count += 1
        a += 1
    return count
