"""Root systems for classical types A-D (rank <= 4) and Chevalley bases
in explicit matrix realizations.

The realization is the defining one: sl_{n+1} for type A, so_{2n+1},
sp_{2n} and so_{2n} for B, C, D, with the bilinear form chosen so that
the diagonal matrices form a split Cartan subalgebra.  Root vectors are
built recursively from canonical generators of the simple root spaces;
all Chevalley-set identities are verified eagerly at construction, so a
wrong structure constant cannot escape this module.
"""

from fractions import Fraction
from functools import lru_cache

from latmod.exact import Lattice
from latmod.matrixops import (
    F,
    bracket,
    identity,
    coordinate_solver,
    mat,
    mat_scale,
    mat_sub,
    mat_vec,
    nullspace,
    primitive,
    solve,
    transpose,
    zeros,
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
    return sum(F(a) * F(b) for a, b in zip(u, v))


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
        self.positive_euclid = tuple(sorted(positive, key=self._height_key))
        self.negative_euclid = tuple(tuple(-x for x in b) for b in self.positive_euclid)
        self.all_euclid = self.positive_euclid + self.negative_euclid
        self.cartan_matrix = tuple(
            tuple(
                int(2 * _dot(b, a) / _dot(a, a))
                for b in self.simple_euclid
            )
            for a in self.simple_euclid
        )
        self._fund = {b: self.fund_coords(b) for b in self.all_euclid}
        if len(set(self._fund.values())) != len(self.all_euclid):
            raise AssertionError("fundamental coordinates not separating")
        self.positive = tuple(self._fund[b] for b in self.positive_euclid)
        self.negative = tuple(self._fund[b] for b in self.negative_euclid)
        self.all_roots = self.positive + self.negative
        self.simple = tuple(self._fund[b] for b in self.simple_euclid)
        self._by_fund = {self._fund[b]: b for b in self.all_euclid}
        self._expansion = {self._fund[b]: self._expand_simple(b) for b in self.all_euclid}

    # -- coordinates ---------------------------------------------------

    def fund_coords(self, euclid):
        """<beta, h_alpha_i> for the simple coroots, as an integer tuple."""
        out = []
        for a in self.simple_euclid:
            v = 2 * _dot(euclid, a) / _dot(a, a)
            if v.denominator != 1:
                raise AssertionError("non-integral pairing")
            out.append(int(v))
        return tuple(out)

    def _expand_simple(self, euclid):
        """Integer coefficients of a root on the simple roots."""
        a = tuple(zip(*self.simple_euclid))  # euclid_dim x rank

        x = solve(mat(a), [F(t) for t in euclid])
        assert x is not None and all(c.denominator == 1 for c in x)
        return tuple(int(c) for c in x)

    def _height_key(self, euclid):
        exp = self._expand_simple(euclid)
        return (sum(exp), exp)

    def expansion(self, fund):
        """Simple-root coefficients of the root with these fund coords."""
        return self._expansion[fund]

    def height(self, fund):
        return sum(self._expansion[fund])

    def is_root(self, fund):
        return fund in self._by_fund

    def euclid(self, fund):
        return self._by_fund[fund]

    def root_string_r(self, alpha, beta):
        """Largest r >= 0 with beta - r·alpha a root (alpha, beta fund)."""
        a = self.euclid(alpha)
        b = self.euclid(beta)
        r = 0
        while True:
            cand = tuple(x - (r + 1) * y for x, y in zip(b, a))
            if self.fund_of_euclid_or_none(cand) is None:
                return r
            r += 1

    def fund_of_euclid_or_none(self, euclid):
        f = self._fund.get(tuple(euclid))
        return f

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

    Returns (N, cartan_diag) where cartan_diag(i) is the N-diagonal of
    the i-th Euclidean coordinate functional's dual basis vector, i.e.
    the diagonal matrix whose root-space weights reproduce the Euclidean
    root coordinates.
    """
    n = rs.rank
    t = rs.type_label
    if t == "A":
        N = n + 1

        def diag_param(params):
            return list(params)

        dim_params = n + 1
    elif t == "B":
        N = 2 * n + 1

        def diag_param(params):
            return list(params) + [-x for x in params] + [0]

        dim_params = n
    else:  # C or D
        N = 2 * n

        def diag_param(params):
            return list(params) + [-x for x in params]

        dim_params = n
    return N, dim_params, diag_param


def _form_matrix(rs, N):
    n = rs.rank
    t = rs.type_label
    if t == "A":
        return None
    s = [[Fraction(0)] * N for _ in range(N)]
    if t == "C":
        for i in range(n):
            s[i][n + i] = Fraction(1)
            s[n + i][i] = Fraction(-1)
    else:
        for i in range(n):
            s[i][n + i] = Fraction(1)
            s[n + i][i] = Fraction(1)
        if t == "B":
            s[2 * n][2 * n] = Fraction(1)
    return mat(s)


def _lie_algebra_basis(rs):
    """Basis of the realization Lie algebra as flattened N² vectors."""
    N = _realization_data(rs)[0]
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
    s = _form_matrix(rs, N)
    # X^T S + S X = 0, one linear condition per matrix position.
    rows = []
    for i in range(N):
        for j in range(N):
            row = [Fraction(0)] * (N * N)
            for a in range(N):
                # coefficient of X[a][i] from (X^T S)[i][j] = sum_a X[a][i] S[a][j]
                row[a * N + i] += s[a][j]
                # coefficient of X[j? ] from (S X)[i][j] = sum_a S[i][a] X[a][j]
                row[a * N + j] += s[i][a]
            rows.append(tuple(row))
    return nullspace(mat(rows))


def _unflatten(v, N):
    return tuple(tuple(v[i * N + j] for j in range(N)) for i in range(N))


class ChevalleyBasis:
    """Chevalley set {x_alpha} plus coroot matrices in the defining rep.

    Attributes:
      rs: the RootSystem
      N: matrix size of the defining realization
      x: dict fund-coords -> N×N matrix
      h: tuple of coroot matrices h_{alpha_i} for the simple roots
      cartan_lattice: the coroot lattice, the identity in coroot
        coordinates (basis {h_{alpha_i}}): the simply connected form
    """

    def __init__(self, rs):
        self.rs = rs
        N, dim_params, diag_param = _realization_data(rs)
        self.N = N
        self._diag_param = diag_param

        # Killing form restricted to the Cartan: kappa(t,t') = sum over
        # roots of beta(t)·beta(t'); the Euclidean root coordinates are
        # already the roots as functionals on the diagonal parameters.
        n_par = dim_params
        gram = [
            [sum(F(b[i]) * F(b[j]) for b in rs.all_euclid) for j in range(n_par)]
            for i in range(n_par)
        ]
        self._killing_gram = mat(gram)

        self._build_root_spaces()
        self._build_chevalley_set()
        self.cartan_lattice = Lattice(identity(rs.rank))
        self._verify()
        self._basis_order = list(rs.all_roots)
        self._basis_mats = [self.x[a] for a in self._basis_order] + list(self.h)
        self._coords = coordinate_solver(
            [tuple(x for row in m for x in row) for m in self._basis_mats]
        )

    # -- scaffolding ---------------------------------------------------

    def _t_alpha(self, euclid):
        """t_alpha in diagonal parameters: kappa(t_alpha, ·) = alpha."""
        rhs = [F(x) for x in euclid]
        x = solve(self._killing_gram, rhs)
        assert x is not None
        if self.rs.type_label == "A":
            # The Gram matrix is degenerate on scalar matrices; pick the
            # traceless representative.
            avg = sum(x) / len(x)
            x = [c - avg for c in x]
        return x

    def coroot_params(self, fund):
        """h_alpha as diagonal parameters."""
        euclid = self.rs.euclid(fund)
        t = self._t_alpha(euclid)
        kappa = sum(
            a * b
            for a, b in zip(mat_vec(self._killing_gram, t), t)
        )
        return tuple(2 * x / kappa for x in t)

    def _h_matrix(self, fund):
        d = self._diag_param(self.coroot_params(fund))
        m = [[Fraction(0)] * self.N for _ in range(self.N)]
        for i, v in enumerate(d):
            m[i][i] = F(v)
        return mat(m)

    def _build_root_spaces(self):
        rs = self.rs
        N = self.N
        lie = _lie_algebra_basis(rs)
        lie_by_position = transpose(lie)
        # Position weights in Euclidean coordinates.
        if rs.type_label == "A":
            dvecs = [tuple(int(k == i) for k in range(N)) for i in range(N)]
        else:
            n = rs.rank
            dvecs = [tuple(int(k == i) for k in range(n)) for i in range(n)]
            dvecs += [tuple(-int(k == i) for k in range(n)) for i in range(n)]
            if rs.type_label == "B":
                dvecs += [tuple(0 for _ in range(n))]
        self._gens = {}
        for beta in rs.all_euclid:
            allowed = set()
            for i in range(N):
                for j in range(N):
                    w = tuple(a - b for a, b in zip(dvecs[i], dvecs[j]))
                    if w == beta:
                        allowed.add(i * N + j)
            # Solve: member of lie algebra supported on allowed positions.
            rows = []
            for pos in range(N * N):
                if pos not in allowed:
                    rows.append(tuple(b[pos] for b in lie))
            ker = nullspace(mat(rows)) if rows else tuple(
                tuple(F(int(i == j)) for j in range(len(lie))) for i in range(len(lie))
            )
            if len(ker) != 1:
                raise AssertionError(
                    "root space dimension %d for %r" % (len(ker), beta)
                )
            flat = mat_vec(lie_by_position, ker[0])
            self._gens[rs.fund_coords(beta)] = _unflatten(primitive(flat), N)

    def _pair_negative(self, fund, x_mat):
        """The unique y in g_{-alpha} with [x, y] = h_alpha."""
        neg = tuple(-c for c in fund)
        gen = self._gens[neg]
        br = bracket(x_mat, gen)
        h = self._h_matrix(fund)
        # br = lambda·h for a scalar lambda.
        lam = None
        for i in range(self.N):
            for j in range(self.N):
                if h[i][j] != 0:
                    lam = br[i][j] / h[i][j]
                    break
            if lam is not None:
                break
        if lam is None or lam == 0 or mat_sub(br, mat_scale(lam, h)) != zeros(self.N, self.N):
            raise AssertionError("[g_a, g_-a] not proportional to coroot")
        return mat_scale(Fraction(1) / lam, gen)

    def _build_chevalley_set(self):
        rs = self.rs
        self.x = {}
        self.h = tuple(self._h_matrix(a) for a in rs.simple)
        for a in rs.simple:
            xa = self._gens[a]
            self.x[a] = xa
        # Positive roots in height order; each non-simple root comes from
        # the first simple root that can be peeled off.
        for gamma in rs.positive:
            if gamma in self.x:
                continue
            placed = False
            for a in rs.simple:
                beta_e = tuple(
                    x - y for x, y in zip(rs.euclid(gamma), rs.euclid(a))
                )
                beta = rs.fund_of_euclid_or_none(beta_e)
                if beta is None or beta not in self.x:
                    continue
                r = rs.root_string_r(a, beta)
                br = bracket(self.x[a], self.x[beta])
                self.x[gamma] = mat_scale(Fraction(1, r + 1), br)
                placed = True
                break
            if not placed:
                raise AssertionError("no decomposition for %r" % (gamma,))
        for gamma in rs.positive:
            neg = tuple(-c for c in gamma)
            self.x[neg] = self._pair_negative(gamma, self.x[gamma])

    # -- public API ----------------------------------------------------

    def h_alpha_coords(self, fund):
        """h_alpha in the basis {h_{alpha_i}}; integral for every root."""
        params = self.coroot_params(fund)
        cols = tuple(zip(*[self.coroot_params(a) for a in self.rs.simple]))
        x = solve(mat(cols), [F(t) for t in params])
        assert x is not None
        return x

    def pairing(self, weight_fund, h_coords):
        """<weight, h> where h = sum c_i h_{alpha_i}."""
        return sum(F(c) * w for c, w in zip(h_coords, weight_fund))

    def basis_order(self):
        """Keys of the Chevalley basis: all roots, then rank coroots."""
        return list(self._basis_order) + [("h", i) for i in range(self.rs.rank)]

    def basis_matrices(self):
        return list(self._basis_mats)

    def coords_of(self, m):
        """Coordinates of a matrix in the Chevalley basis, or None."""
        return self._coords(tuple(x for row in m for x in row))

    def from_coords(self, coords):
        out = [[Fraction(0)] * self.N for _ in range(self.N)]
        for c, m in zip(coords, self._basis_mats):
            if c:
                for i in range(self.N):
                    for j in range(self.N):
                        out[i][j] += F(c) * m[i][j]
        return mat(out)

    def structure_constant(self, alpha, beta):
        """N_{alpha,beta} with [x_a, x_b] = N·x_{a+b}; roots by fund coords."""
        rs = self.rs
        se = tuple(x + y for x, y in zip(rs.euclid(alpha), rs.euclid(beta)))
        target = rs.fund_of_euclid_or_none(se)
        if target is None:
            return Fraction(0)
        return self._multiple_of(bracket(self.x[alpha], self.x[beta]), target)

    def _multiple_of(self, m, target):
        """c with m = c·x_target when m is a multiple of x_target, read at
        the first nonzero entry of x_target."""
        xm = self.x[target]
        for i in range(self.N):
            for j in range(self.N):
                if xm[i][j] != 0:
                    return m[i][j] / xm[i][j]
        raise AssertionError("zero root vector")

    # -- verification ----------------------------------------------------

    def _verify(self):
        rs = self.rs
        nil = zeros(self.N, self.N)
        for alpha in rs.all_roots:
            h = self._h_matrix(alpha)
            neg = tuple(-c for c in alpha)
            if bracket(self.x[alpha], self.x[neg]) != h:
                raise AssertionError("[x_a, x_-a] != h_a for %r" % (alpha,))
            # Cartan action.
            for i, hm in enumerate(self.h):
                expect = mat_scale(F(alpha[i]), self.x[alpha])
                if bracket(hm, self.x[alpha]) != expect:
                    raise AssertionError("[h, x_a] != a(h)x_a for %r" % (alpha,))
        for alpha in rs.all_roots:
            for beta in rs.all_roots:
                se = tuple(
                    x + y for x, y in zip(rs.euclid(alpha), rs.euclid(beta))
                )
                if all(c == 0 for c in se):
                    continue
                target = rs.fund_of_euclid_or_none(se)
                br = bracket(self.x[alpha], self.x[beta])
                if target is None:
                    if br != nil:
                        raise AssertionError("bracket outside root system nonzero")
                    continue
                ea = rs.euclid(alpha)
                eb = rs.euclid(beta)
                if tuple(-u for u in ea) == tuple(eb):
                    continue
                r = rs.root_string_r(alpha, beta)
                c = self._multiple_of(br, target)
                if c.denominator != 1 or abs(c) != r + 1:
                    raise AssertionError(
                        "structure constant %s != ±(r+1)=±%d for %r,%r"
                        % (c, r + 1, alpha, beta)
                    )
                if mat_sub(br, mat_scale(c, self.x[target])) != nil:
                    raise AssertionError("bracket not proportional to x_{a+b}")
        # h_alpha integral on the coroot basis for every root.
        for alpha in rs.all_roots:
            for c in self.h_alpha_coords(alpha):
                if c.denominator != 1:
                    raise AssertionError("h_alpha not in the coroot lattice")

    def to_json_obj(self):
        def m2s(m):
            return [[str(x) for x in row] for row in m]

        return {
            "rootsystem": self.rs.to_json_obj(),
            "defining_dim": self.N,
            "x": {",".join(map(str, k)): m2s(v) for k, v in self.x.items()},
            "h": [m2s(v) for v in self.h],
        }


@lru_cache(maxsize=None)
def build_chevalley(type_label, rank):
    return ChevalleyBasis(build_root_system(type_label, rank))


def killing_h(rs, alpha):
    """h_alpha in coroot coordinates (basis {h_{alpha_i}})."""
    cb = build_chevalley(rs.type_label, rs.rank)
    return cb.h_alpha_coords(alpha)
