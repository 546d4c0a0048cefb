"""Root systems for classical types A-D (rank <= 4) and Chevalley bases
in explicit matrix realizations.

The realization is the defining one: sl_{n+1} for type A, so_{2n+1},
sp_{2n} and so_{2n} for B, C, D, with the bilinear form chosen so that
the diagonal matrices form a split Cartan subalgebra.  Each root space is
written down in closed form: the weight of a root sits at one matrix
position and at its partner under the form, and the form equations tie
the two entries by one sign (_root_spaces); the coroot of a root alpha
is 2·alpha/(alpha, alpha) in the diagonal parameters, and the diagonal
of a matrix is read off the weights of its positions.  Root vectors are
built recursively from the simple root spaces.  The Cartan inverse,
taken once as d·C⁻¹ without a quotient from a QSpan of C's columns
(matrixops.scaled_inverse), gives the simple-root coordinates of roots
and weights alike (fund = C·m, read as one integer product), for the
height order here and for every walk down the weights of a
representation.  The basis acts as integer sparse matrices over one
positive denominator, the least one: x_alpha is action[alpha] /
denominator, and so is every coroot.  The denominator is 2 for type B,
whose x_{e_i+e_j} has entries 1/2 in this realization, and 1 for types
A, C and D.  The set is built on pairs (integer matrix, denominator)
and brought to the one denominator at the end, so the construction
makes no Fraction in any type; the coroots, the bracket table and every
structure constant are ints.  The bracket table, the coordinates of the
bracket of every pair of basis elements, is read off the root data:
h_alpha on the simple coroots for [x_alpha, x_-alpha], alpha_i for
[h_i, x_alpha], ±(r + 1) where alpha + beta is a root, with the sign read
off one entry of that bracket, and 0 for every other pair.
check_brackets is the one check of an integer action over a denominator
against the table, pair by pair: it checks the defining action at
construction, so a wrong structure constant cannot escape this module,
and every representation (reps.Representation).  Every other fact about
g is read off these two forms: the bracket of coordinate vectors
and the Killing form (models.killing_gram) off the table, the
coordinates of a matrix off one QSpan of the sparse generators, and
h_alpha in the simple coroots off the expansion of alpha in the simple
roots.  The dense views (from_coords, coords_of) take and give the
rational matrices of the basis itself.
"""

from functools import cached_property, lru_cache
from math import gcd, lcm

from latmod.matrixops import (
    F,
    QSpan,
    canonical,
    dense,
    primitive,
    ratio,
    scaled_inverse,
    sparse,
    sparse_bracket,
)

SUPPORTED = {
    "A": (1, 2, 3, 4),
    "B": (2, 3, 4),
    "C": (2, 3, 4),
    "D": (3, 4),
}


class RootDataError(ValueError):
    pass


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _pairing(beta, alpha):
    """<beta, alpha^vee> = 2(beta, alpha)/(alpha, alpha), an integer."""
    q, r = divmod(2 * _dot(beta, alpha), _dot(alpha, alpha))
    if r:
        raise AssertionError("non-integral pairing")
    return q


class RootSystem:
    """Roots in Euclidean coordinates plus fundamental-weight bookkeeping.

    A root is referred to externally by its fundamental-weight coordinate
    tuple (integers); Euclidean vectors are internal scaffolding.
    """

    def __init__(self, type_label, rank):
        if type_label not in SUPPORTED or rank not in SUPPORTED[type_label]:
            raise RootDataError("unsupported type %s rank %d" % (type_label, rank))
        self.type_label = type_label
        self.rank = rank
        n = rank
        if type_label == "A":
            dim = n + 1
            simple = [tuple(int(k == i) - int(k == i + 1) for k in range(dim)) for i in range(n)]
            positive = [
                tuple(int(k == i) - int(k == j) for k in range(dim))
                for i in range(dim)
                for j in range(i + 1, dim)
            ]
        else:
            dim = n
            e = lambda i: tuple(int(k == i) for k in range(n))

            def comb(i, j, si, sj):
                return tuple(si * int(k == i) + sj * int(k == j) for k in range(n))

            simple = [comb(i, i + 1, 1, -1) for i in range(n - 1)]
            positive = [comb(i, j, 1, -1) for i in range(n) for j in range(i + 1, n)]
            positive += [comb(i, j, 1, 1) for i in range(n) for j in range(i + 1, n)]
            if type_label == "B":
                simple.append(e(n - 1))
                positive += [e(i) for i in range(n)]
            elif type_label == "C":
                simple.append(tuple(2 * int(k == n - 1) for k in range(n)))
                positive += [tuple(2 * int(k == i) for k in range(n)) for i in range(n)]
            else:  # D
                simple.append(comb(n - 2, n - 1, 1, 1))
        self.euclid_dim = dim
        self.simple_euclid = tuple(simple)
        self.cartan_matrix = tuple(
            tuple(_pairing(b, a) for b in self.simple_euclid) for a in self.simple_euclid
        )
        # fund = C·m for the simple-root coordinates m, so d·m = (d·C⁻¹)·fund
        # with d·C⁻¹ integral: one fraction-free elimination gives d·C⁻¹,
        # and each weight costs one integer product.
        self._cartan_den, self._cartan_inverse = scaled_inverse(self.cartan_matrix)
        exp = {b: self.expansion(self.fund_coords(b)) for b in positive}
        self.positive_euclid = tuple(sorted(positive, key=lambda b: (sum(exp[b]), exp[b])))
        self.negative_euclid = tuple(tuple(-x for x in b) for b in self.positive_euclid)
        self.all_euclid = self.positive_euclid + self.negative_euclid
        self._fund = {b: self.fund_coords(b) for b in self.all_euclid}
        if len(set(self._fund.values())) != len(self.all_euclid):
            raise AssertionError("fundamental coordinates not separating")
        self.positive = tuple(self._fund[b] for b in self.positive_euclid)
        self.negative = tuple(self._fund[b] for b in self.negative_euclid)
        self.all_roots = self.positive + self.negative
        self.simple = tuple(self._fund[b] for b in self.simple_euclid)
        self._by_fund = {self._fund[b]: b for b in self.all_euclid}

    # -- coordinates ---------------------------------------------------

    def fund_coords(self, euclid):
        """<beta, h_alpha_i> for the simple coroots, as an integer tuple."""
        return tuple(_pairing(euclid, a) for a in self.simple_euclid)

    def expansion(self, fund):
        """Simple-root coordinates m of the weight with these fund coords
        (fund = C·m), or None when the weight is off the root lattice."""
        d = self._cartan_den
        dm = [sum(a * f for a, f in zip(row, fund)) for row in self._cartan_inverse]
        if any(x % d for x in dm):
            return None
        return tuple(x // d for x in dm)

    def is_root(self, fund):
        return fund in self._by_fund

    def euclid(self, fund):
        return self._by_fund[fund]

    def root_string_r(self, alpha, beta):
        """Largest r >= 0 with beta - r·alpha a root (alpha, beta fund).

        Fundamental coordinates are linear and separate the points of the
        root lattice, so the string is walked in them directly.
        """
        r = 0
        while tuple(b - (r + 1) * a for a, b in zip(alpha, beta)) in self._by_fund:
            r += 1
        return r

    def to_json_obj(self):
        return {
            "type": self.type_label,
            "rank": self.rank,
            "simple_roots": [list(r) for r in self.simple],
            "positive_roots": [list(r) for r in self.positive],
            "cartan_matrix": [list(r) for r in self.cartan_matrix],
        }


# -----------------------------------------------------------------------
# Matrix realization
# -----------------------------------------------------------------------


def _position_weights(rs):
    """Euclidean weight of each diagonal position of the realization, one
    per row of its N×N matrices: position (i, j) of a matrix has weight
    w[i] - w[j], and the diagonal matrix of parameters t has entry
    <w[i], t> at (i, i)."""
    n = rs.rank
    if rs.type_label == "A":
        return [tuple(int(k == i) for k in range(n + 1)) for i in range(n + 1)]
    w = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    w += [tuple(-int(k == i) for k in range(n)) for i in range(n)]
    if rs.type_label == "B":
        w.append((0,) * n)
    return w


def _form(rs):
    """The form S preserved by the realization, sparse; empty for type A,
    where sl_N puts no condition on an off-diagonal position."""
    n = rs.rank
    t = rs.type_label
    if t == "A":
        return {}
    sign = -1 if t == "C" else 1
    s = {}
    for i in range(n):
        s[i, n + i] = 1
        s[n + i, i] = sign
    if t == "B":
        s[2 * n, 2 * n] = 1
    return s


def _scaled(c, m):
    return {p: c * v for p, v in m.items()} if c else {}


def _lowest(m, d):
    """The integer sparse matrix m over d > 0 in lowest terms, as the pair
    (matrix, denominator): the common factor of d and the entries
    divided out."""
    g = gcd(d, *m.values())
    return ({p: v // g for p, v in m.items()}, d // g) if g > 1 else (m, d)


class ChevalleyBasis:
    """Chevalley set {x_alpha} plus coroot matrices in the defining rep.

    Attributes:
      rs: the RootSystem
      N: matrix size of the defining realization
      denominator: the least positive integer D that makes the N×N
        matrices of the basis integral (2 for type B, 1 otherwise)
      action: D times the N×N matrices of the basis, as integer sparse
        matrices {(i, j): entry}, keyed like Representation.action:
        x_alpha at the fund coords of alpha, then the coroot h_{alpha_i}
        of each simple root at ("h", i)
      bracket_table: bracket_table[i][j] = {k: c} with
        [b_i, b_j] = Σ c·b_k over the basis b in basis_order()
    """

    def __init__(self, rs):
        self.rs = rs
        self._weights = _position_weights(rs)
        self.N = len(self._weights)
        # The Killing form restricted to the Cartan is a multiple of the
        # Euclidean form on the diagonal parameters (both are Weyl
        # invariant and the algebra is simple), so h_alpha, the element
        # with kappa(h_alpha, ·) proportional to alpha and alpha(h_alpha)
        # = 2, is 2·alpha/(alpha, alpha).
        self._coroots = {
            fund: tuple(ratio(2 * c, _dot(b, b)) for c in b)
            for fund, b in zip(rs.all_roots, rs.all_euclid)
        }
        self._build_chevalley_set(self._root_spaces())
        self._basis_order = list(rs.all_roots)
        self._index = {key: k for k, key in enumerate(self.basis_order())}
        self._verify()

    # -- scaffolding ---------------------------------------------------

    def _h_sparse(self, fund):
        t = self._coroots[fund]
        return canonical({(i, i): _dot(w, t) for i, w in enumerate(self._weights)})

    def _root_spaces(self):
        """Primitive integer generator of each root space, sparse, keyed
        by fund coords.  Row k of the form S (_form) has one entry s_k =
        ±1, at column σ(k), σ an involution, so Xᵀ·S + S·X = 0 reads
        X[σ(b)][σ(a)] = −s_σ(a)·s_σ(b)·X[a][b]: each equation ties a
        position (a, b) to its partner (σ(b), σ(a)).  The weights w[k] are
        distinct, ±e_i and 0 for type B, with w[σ(k)] = −w[k], so a root
        is w[a] − w[b] for exactly the pairs (w[a], w[b]) = (u, v) and
        (−v, −u): one position and its partner.  The root space is then
        spanned by e_ab − s_σ(a)·s_σ(b)·e_σ(b)σ(a), which is 2·e_ab when
        the partner is (a, b) itself (u = −v, the long roots of type C,
        where s_a·s_σ(a) = −1).  Type A has no form, and e_i − e_j sits
        at (i, j) alone."""
        rs = self.rs
        w = self._weights
        first = {}
        for i in range(self.N):
            for j in range(self.N):
                first.setdefault(tuple(a - b for a, b in zip(w[i], w[j])), (i, j))
        s = _form(rs)
        sigma = {k: l for k, l in s}
        gens = {}
        for fund, beta in zip(rs.all_roots, rs.all_euclid):
            a, b = first[beta]
            gen = {(a, b): 1}
            if s:
                sa, sb = sigma[a], sigma[b]
                gen[sb, sa] = gen.get((sb, sa), 0) - s[sa, a] * s[sb, b]
            gens[fund] = primitive(gen)
        return gens

    def _pair_negative(self, fund, x, gen):
        """The unique y in g_{-alpha} with [x, y] = h_alpha, for x the pair
        (X, e) of X/e, as such a pair: [X, gen] = b/c·e·h_alpha for the
        entries b of [X, gen] and c of h_alpha at its first nonzero
        entry, so y = (e·c/b)·gen."""
        m, e = x
        br = sparse_bracket(m, gen)
        h = self._h_sparse(fund)
        k, c = min(h.items())
        b = br.get(k, 0)
        if not b or _scaled(c, br) != _scaled(b, h):
            raise AssertionError("[g_a, g_-a] not proportional to coroot")
        if b < 0:
            b, c = -b, -c
        return _lowest(_scaled(e * c, gen), b)

    def _build_chevalley_set(self, gens):
        """Each x_alpha as a pair (integer matrix, denominator) in lowest
        terms, then all of them and the coroots over their least common
        denominator."""
        rs = self.rs
        x = {a: (gens[a], 1) for a in rs.simple}
        # Positive roots in height order; each non-simple root comes from
        # the first simple root that can be peeled off.
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
            x[neg] = self._pair_negative(gamma, x[gamma], gens[neg])
        d = self.denominator = lcm(*(e for _, e in x.values()))
        self.action = {key: _scaled(d // e, m) for key, (m, e) in x.items()}
        self.action.update((("h", i), _scaled(d, self._h_sparse(a))) for i, a in enumerate(rs.simple))

    # -- public API ----------------------------------------------------

    def h_alpha_coords(self, fund):
        """h_alpha in the basis {h_{alpha_i}}, integral for every root: for
        alpha = Σ m_i·alpha_i, h_alpha = Σ m_i·(alpha_i, alpha_i)/(alpha,
        alpha)·h_{alpha_i}."""
        rs = self.rs
        b = rs.euclid(fund)
        return tuple(
            ratio(m * _dot(a, a), _dot(b, b)) for m, a in zip(rs.expansion(fund), rs.simple_euclid)
        )

    def pairing(self, weight_fund, h_coords):
        """<weight, h> where h = sum c_i h_{alpha_i}."""
        return F(sum(c * w for c, w in zip(h_coords, weight_fund)))

    def basis_order(self):
        """Keys of the Chevalley basis: all roots, then rank coroots."""
        return list(self._basis_order) + [("h", i) for i in range(self.rs.rank)]

    def _rational(self, m):
        """The sparse matrix m over the denominator, canonical."""
        d = self.denominator
        return {p: ratio(x, d) for p, x in m.items()} if d > 1 else m

    @cached_property
    def _span(self):
        """The sparse generators in basis order, inserted into one QSpan."""
        span = QSpan()
        if not all(span.insert(self.action[key]) for key in self.basis_order()):
            raise AssertionError("Chevalley basis is linearly dependent")
        return span

    def coords_of(self, m):
        """Coordinates of a dense matrix in the Chevalley basis, or None:
        c·m = Σ x_k·action_k = Σ D·x_k·b_k, so they are D·x_k/c."""
        rel = self._span.relation(sparse(m))
        if rel is None:
            return None
        c, x = rel
        d = self.denominator
        return tuple(ratio(d * x.get(k, 0), c) for k in range(len(self._index)))

    def _combination(self, coords, keys):
        """Σ coords_k·action[keys[k]] as a canonical sparse matrix, the
        combination of the basis times the denominator."""
        out = {}
        for c, key in zip(coords, keys):
            for p, x in self.action[key].items():
                out[p] = out.get(p, 0) + c * x
        return canonical(out)

    def from_coords(self, coords):
        return dense(self._rational(self._combination(coords, self.basis_order())), self.N)

    def bracket_coords(self, u, v):
        """Coordinates of [X, Y] for X = Σ u_i·b_i and Y = Σ v_j·b_j:
        Σ u_i·v_j·[b_i, b_j], read off the bracket table."""
        out = [0] * len(self.bracket_table)
        for x, row in zip(u, self.bracket_table):
            if x:
                for y, entry in zip(v, row):
                    if y:
                        for k, c in entry.items():
                            out[k] += x * y * c
        return tuple(map(F, out))

    # -- verification ----------------------------------------------------

    def _verify(self):
        """Read the bracket table off the root data and check the integer
        generators A = D·b, D the denominator, against it (check_brackets).
        For b_i before b_j in basis order, [x_a, x_-a] = h_a = Σ c_i·h_i
        with the c_i checked integral, [x_a, h_i] = -a_i·x_a, [x_a, x_b] =
        ±(r + 1)·x_{a+b} when a + b is a root, with the sign of u·t for
        the entries u of [A_a, A_b] and t of A_{a+b} at the first nonzero
        entry of A_{a+b} (check_brackets then checks the whole bracket, so
        |c| = r + 1 too), and 0 for every other pair; [b_j, b_i] is the
        negative, the commutator being antisymmetric."""
        rs = self.rs
        ix = self._index
        x = self.action
        hix = [ix["h", i] for i in range(rs.rank)]
        table = [[{} for _ in ix] for _ in ix]
        for a, alpha in enumerate(rs.all_roots):
            for i, c in zip(hix, alpha):
                if c:
                    table[a][i] = {a: -c}
            for b, beta in enumerate(rs.all_roots[a + 1 :], a + 1):
                target = tuple(p + q for p, q in zip(alpha, beta))
                if not any(target):
                    coords = self.h_alpha_coords(alpha)
                    if any(c.denominator != 1 for c in coords):
                        raise AssertionError("h_alpha not in the coroot lattice")
                    table[a][b] = {i: c for i, c in zip(hix, coords) if c}
                elif rs.is_root(target):
                    r = rs.root_string_r(alpha, beta)
                    (row, col), t = min(x[target].items())
                    # The one entry of [A_a, A_b]: check_brackets takes the whole bracket.
                    u = sum(v * x[beta].get((k, col), 0) for (s, k), v in x[alpha].items() if s == row)
                    u -= sum(v * x[alpha].get((k, col), 0) for (s, k), v in x[beta].items() if s == row)
                    table[a][b] = {ix[target]: r + 1 if u * t > 0 else -r - 1}
        for i, row in enumerate(table):
            for j in range(i):
                row[j] = {k: -c for k, c in table[j][i].items()}
        self.bracket_table = tuple(tuple(row) for row in table)
        pair = check_brackets(self, x, self.denominator)
        if pair:
            raise AssertionError("bracket of %r and %r off the bracket table" % pair)


def check_brackets(cb, action, den):
    """The first pair (key_i, key_j), i < j in cb.basis_order(), where the
    integer sparse action A over den fails [A_i, A_j] = den·Σ c_k·A_k, the
    c_k read off cb.bracket_table[i][j], or None when every pair holds:
    then A / den is a representation of the Lie algebra."""
    keys = cb.basis_order()
    rho = [action[key] for key in keys]
    for i, row in enumerate(cb.bracket_table):
        for j in range(i + 1, len(rho)):
            expect = {}
            for k, c in row[j].items():
                for p, y in rho[k].items():
                    expect[p] = expect.get(p, 0) + den * c * y
            if sparse_bracket(rho[i], rho[j]) != canonical(expect):
                return keys[i], keys[j]
    return None


@lru_cache(maxsize=None)
def build_chevalley(type_label, rank):
    return ChevalleyBasis(RootSystem(type_label, rank))
