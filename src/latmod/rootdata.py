"""Root systems for classical types A-D (rank <= 4) and Chevalley bases
in explicit matrix realizations.

The realization is the defining one: sl_{n+1} for type A, so_{2n+1},
sp_{2n} and so_{2n} for B, C, D, with the bilinear form chosen so that
the diagonal matrices form a split Cartan subalgebra.  Each root space is
solved for on the one or two matrix positions of its weight; the coroot
of a root alpha is 2·alpha/(alpha, alpha) in the diagonal parameters.
Root vectors are built recursively from the simple root spaces, each
root space the one integer relation among the form equations of its
matrix positions (matrixops.relations).  The Cartan inverse, taken once
as d·C⁻¹ without a quotient from a QSpan of C's columns
(matrixops.scaled_inverse), gives the simple-root coordinates of roots
and weights alike (fund = C·m, read as one integer product), for the
height order here and for every walk down the weights of a
representation.  The coroots, the sparse generators, the bracket table
and every structure constant are canonical (matrixops.canonical): ints
where integral, a Fraction only for the 1/2 entries of type B, and every
ratio is exact (matrixops.ratio), so types A, C and D never import
fractions.  Every Chevalley-set identity
is verified eagerly at construction, on sparse matrices, and the
verification records the coordinates of the bracket of every pair of
basis elements as the bracket table, so a wrong structure constant
cannot escape this module.
"""

from functools import cached_property, lru_cache

from latmod.matrixops import (
    F,
    canonical,
    coordinate_solver,
    dense,
    primitive,
    ratio,
    relations,
    scaled_inverse,
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

    def height(self, fund):
        return sum(self.expansion(fund))

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


def build_root_system(type_label, rank):
    return RootSystem(type_label, rank)


# -----------------------------------------------------------------------
# Matrix realization
# -----------------------------------------------------------------------


def _realization_data(rs):
    """Defining matrix size N and the diagonal Cartan parametrization.

    Returns (N, diag_param) where diag_param maps Euclidean coordinates
    (diagonal parameters) to the N-diagonal of the matrix whose
    root-space weights reproduce them.
    """
    n = rs.rank
    t = rs.type_label
    if t == "A":
        return n + 1, list
    if t == "B":
        return 2 * n + 1, lambda params: list(params) + [-x for x in params] + [0]
    return 2 * n, lambda params: list(params) + [-x for x in params]


def _position_weights(rs):
    """Euclidean weight of each diagonal position of the realization;
    position (i, j) of a matrix has weight w[i] - w[j]."""
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


def _first_ratio(m, x):
    """m's entry over x's at the first nonzero entry of the sparse matrix
    x, in row-major order, exactly (an int when it is integral)."""
    if not x:
        raise AssertionError("zero root vector")
    k = min(x)
    return ratio(m.get(k, 0), x[k])


def _scaled(c, m):
    return {p: c * v for p, v in m.items()} if c else {}


class ChevalleyBasis:
    """Chevalley set {x_alpha} plus coroot matrices in the defining rep.

    Attributes:
      rs: the RootSystem
      N: matrix size of the defining realization
      action: the N×N matrices of the basis as canonical sparse matrices
        {(i, j): entry}, keyed like Representation.action: x_alpha at the
        fund coords of alpha, then the coroot h_{alpha_i} of each simple
        root at ("h", i)
      bracket_table: bracket_table[i][j] = {k: c} with
        [b_i, b_j] = Σ c·b_k over the basis b in basis_order()
    """

    def __init__(self, rs):
        self.rs = rs
        self.N, self._diag_param = _realization_data(rs)
        # The Killing form restricted to the Cartan is a multiple of the
        # Euclidean form on the diagonal parameters (both are Weyl
        # invariant and the algebra is simple), so h_alpha, the element
        # with kappa(h_alpha, ·) proportional to alpha and alpha(h_alpha)
        # = 2, is 2·alpha/(alpha, alpha).
        self._coroots = {
            fund: tuple(ratio(2 * c, _dot(b, b)) for c in b)
            for fund, b in zip(rs.all_roots, rs.all_euclid)
        }
        self._h_coords = coordinate_solver([self._coroots[a] for a in rs.simple])
        self._build_chevalley_set(self._root_spaces())
        self._basis_order = list(rs.all_roots)
        self._index = {key: k for k, key in enumerate(self.basis_order())}
        self._verify()

    # -- scaffolding ---------------------------------------------------

    def coroot_params(self, fund):
        """h_alpha as diagonal parameters."""
        return self._coroots[fund]

    def _h_sparse(self, fund):
        d = self._diag_param(self._coroots[fund])
        return canonical({(i, i): v for i, v in enumerate(d)})

    def _root_spaces(self):
        """Primitive integer generator of each root space, sparse, keyed
        by fund coords: the solutions of Xᵀ·S + S·X = 0 (S the form)
        supported on the positions of the root's weight."""
        rs = self.rs
        w = _position_weights(rs)
        positions = {}
        for i in range(self.N):
            for j in range(self.N):
                positions.setdefault(tuple(a - b for a, b in zip(w[i], w[j])), []).append((i, j))
        s = _form(rs)
        gens = {}
        for fund, beta in zip(rs.all_roots, rs.all_euclid):
            pos = positions[beta]
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
            ker = relations(equations)
            if len(ker) != 1:
                raise AssertionError("root space dimension %d for %r" % (len(ker), beta))
            gens[fund] = primitive({pos[k]: x for k, x in ker[0].items()})
        return gens

    def _pair_negative(self, fund, x, gen):
        """The unique y in g_{-alpha} with [x, y] = h_alpha."""
        br = sparse_bracket(x, gen)
        h = self._h_sparse(fund)
        lam = _first_ratio(br, h)
        if lam == 0 or br != _scaled(lam, h):
            raise AssertionError("[g_a, g_-a] not proportional to coroot")
        return canonical(_scaled(ratio(1, lam), gen))

    def _build_chevalley_set(self, gens):
        rs = self.rs
        x = {a: gens[a] for a in rs.simple}
        # Positive roots in height order; each non-simple root comes from
        # the first simple root that can be peeled off.
        for gamma in rs.positive:
            if gamma in x:
                continue
            for a in rs.simple:
                beta = tuple(g - c for g, c in zip(gamma, a))
                if beta in x:
                    r = rs.root_string_r(a, beta)
                    x[gamma] = {p: ratio(v, r + 1) for p, v in sparse_bracket(x[a], x[beta]).items()}
                    break
            else:
                raise AssertionError("no decomposition for %r" % (gamma,))
        for gamma in rs.positive:
            neg = tuple(-c for c in gamma)
            x[neg] = self._pair_negative(gamma, x[gamma], gens[neg])
        self.action = {**x, **{("h", i): self._h_sparse(a) for i, a in enumerate(rs.simple)}}

    # -- public API ----------------------------------------------------

    def h_alpha_coords(self, fund):
        """h_alpha in the basis {h_{alpha_i}}; integral for every root."""
        return self._h_coords(self._coroots[fund])

    def pairing(self, weight_fund, h_coords):
        """<weight, h> where h = sum c_i h_{alpha_i}."""
        return F(sum(c * w for c, w in zip(h_coords, weight_fund)))

    def basis_order(self):
        """Keys of the Chevalley basis: all roots, then rank coroots."""
        return list(self._basis_order) + [("h", i) for i in range(self.rs.rank)]

    def basis_matrices(self):
        return [dense(self.action[key], self.N) for key in self.basis_order()]

    @cached_property
    def _coords(self):
        return coordinate_solver([tuple(x for row in m for x in row) for m in self.basis_matrices()])

    def coords_of(self, m):
        """Coordinates of a matrix in the Chevalley basis, or None."""
        return self._coords(tuple(x for row in m for x in row))

    def from_coords(self, coords):
        out = {}
        for c, key in zip(coords, self.basis_order()):
            for p, x in self.action[key].items():
                out[p] = out.get(p, 0) + c * x
        return dense(canonical(out), self.N)

    def ad(self, coords):
        """Matrix of ad(X) on the Chevalley basis, X = Σ coords_i·b_i:
        column j holds the coordinates of [X, b_j], read off the bracket
        table."""
        m = len(self.bracket_table)
        out = [[0] * m for _ in range(m)]
        for c, row in zip(coords, self.bracket_table):
            if c:
                for j, entry in enumerate(row):
                    for k, v in entry.items():
                        out[k][j] += c * v
        return tuple(tuple(map(F, r)) for r in out)

    def structure_constant(self, alpha, beta):
        """N_{alpha,beta} with [x_a, x_b] = N·x_{a+b}; roots by fund coords.
        Zero when a + b is not a root (ix.get gives no basis index)."""
        ix = self._index
        target = tuple(a + b for a, b in zip(alpha, beta))
        return self.bracket_table[ix[alpha]][ix[beta]].get(ix.get(target), 0)

    # -- verification ----------------------------------------------------

    def _verify(self):
        """Check the Chevalley-set identities on the sparse generators, and
        record the bracket table they establish."""
        rs = self.rs
        ix = self._index
        x = self.action
        h = [x[("h", i)] for i in range(rs.rank)]
        hix = [ix[("h", i)] for i in range(rs.rank)]
        table = [[{} for _ in ix] for _ in ix]
        h_coords = {}
        for alpha in rs.all_roots:
            a = ix[alpha]
            neg = tuple(-c for c in alpha)
            if sparse_bracket(x[alpha], x[neg]) != self._h_sparse(alpha):
                raise AssertionError("[x_a, x_-a] != h_a for %r" % (alpha,))
            h_coords[alpha] = self.h_alpha_coords(alpha)
            table[a][ix[neg]] = {k: c for k, c in zip(hix, h_coords[alpha]) if c}
            # Cartan action.
            for i, hm in enumerate(h):
                if sparse_bracket(hm, x[alpha]) != _scaled(alpha[i], x[alpha]):
                    raise AssertionError("[h, x_a] != a(h)x_a for %r" % (alpha,))
                if alpha[i]:
                    table[hix[i]][a] = {a: alpha[i]}
                    table[a][hix[i]] = {a: -alpha[i]}
        for i, hm in enumerate(h):
            for hn in h[i + 1:]:
                if sparse_bracket(hm, hn):
                    raise AssertionError("Cartan generators do not commute")
        for alpha in rs.all_roots:
            for beta in rs.all_roots:
                target = tuple(a + b for a, b in zip(alpha, beta))
                if not any(target):
                    continue
                br = sparse_bracket(x[alpha], x[beta])
                if not rs.is_root(target):
                    if br:
                        raise AssertionError("bracket outside root system nonzero")
                    continue
                r = rs.root_string_r(alpha, beta)
                c = _first_ratio(br, x[target])
                if c.denominator != 1 or abs(c) != r + 1:
                    raise AssertionError(
                        "structure constant %s != ±(r+1)=±%d for %r,%r"
                        % (c, r + 1, alpha, beta)
                    )
                if br != _scaled(c, x[target]):
                    raise AssertionError("bracket not proportional to x_{a+b}")
                table[ix[alpha]][ix[beta]] = {ix[target]: c}
        # h_alpha integral on the coroot basis for every root.
        for coords in h_coords.values():
            if any(c.denominator != 1 for c in coords):
                raise AssertionError("h_alpha not in the coroot lattice")
        self.bracket_table = tuple(tuple(row) for row in table)

    def to_json_obj(self):
        def m2s(m):
            return [[str(x) for x in row] for row in dense(m, self.N)]

        return {
            "rootsystem": self.rs.to_json_obj(),
            "defining_dim": self.N,
            "x": {",".join(map(str, a)): m2s(self.action[a]) for a in self._basis_order},
            "h": [m2s(self.action["h", i]) for i in range(self.rs.rank)],
        }


@lru_cache(maxsize=None)
def build_chevalley(type_label, rank):
    return ChevalleyBasis(build_root_system(type_label, rank))


def killing_h(rs, alpha):
    """h_alpha in coroot coordinates (basis {h_{alpha_i}})."""
    cb = build_chevalley(rs.type_label, rs.rank)
    return cb.h_alpha_coords(alpha)
