"""Root systems for classical types A-D (rank <= 4), read off their
Cartan matrices, and Chevalley bases in explicit matrix realizations.

A root is its tuple of fundamental-weight coordinates (fund coords), its
pairings <alpha, alpha_i^vee> with the simple coroots; no other
coordinates are kept.  The simple roots are the columns of the Cartan
matrix (_cartan, in Bourbaki's numbering), and the roots are their
closure under the simple reflections, each with the squared length of
the simple root it was reached from (RootSystem).
The realization is the defining one: sl_{n+1} for type A, so_{2n+1},
sp_{2n} and so_{2n} for B, C, D, with the bilinear form chosen so that
the diagonal matrices form a split Cartan subalgebra.  Its positions
carry the weights of the defining representation, in fund coords
(_position_weights), so the position (i, j) has weight w[i] - w[j].
Each root space is written down in closed form: the weight of a root
sits at one matrix position and at its partner under the form, and the
form equations tie the two entries by one sign (_root_spaces); the
coroot h_alpha is the diagonal matrix of the pairings <w[i], h_alpha>,
h_alpha in the simple coroots read off the expansion of alpha in the
simple roots and the squared lengths.  Only the simple root spaces are
taken: x_{alpha_i} is the primitive generator of its
root space, and x_{-alpha_i} is paired with it by [x_{alpha_i},
x_{-alpha_i}] = h_{alpha_i} (_pair_negative), whose one bracket also
checks the coroot h_{alpha_i}.  Every other root vector comes from these
by one recursion, chevalley_set, which builds the Chevalley set in any
representation from its simple generators, with each h_i as their
bracket unless it is given; reps reads every representation's action
through it too.
The Cartan inverse, taken once as d·C⁻¹ without a quotient from a QSpan
of C's columns (matrixops.scaled_inverse), gives the simple-root
coordinates of roots and weights alike (fund = C·m, read as one integer
product), for the height order here and for every walk down the
weights of a representation.  The basis acts as integer sparse
matrices over one positive denominator, the least one: x_alpha is
action[alpha] / denominator, and so is every coroot.  The denominator
is 2 for type B, whose x_alpha has entries 1/2 in this realization for
the positive roots alpha with coefficient 2 at alpha_n, and 1 for types
A, C and D.  The set is built on pairs (integer matrix, denominator)
and brought to the one denominator at the
end, so the construction makes no Fraction in any type; the coroots,
the bracket table and every structure constant are ints.  The bracket
table, the coordinates of the bracket of every pair of basis elements,
is read off the root data:
h_alpha on the simple coroots for [x_alpha, x_-alpha], alpha_i for
[h_i, x_alpha], ±(r + 1) where alpha + beta is a root, with the sign read
off one entry of that bracket, and 0 for every other pair.
check_brackets is the one check of an integer action over a denominator
against the table, pair by pair: it checks the defining action at
construction, so a wrong structure constant cannot escape this module,
and every representation (reps.Representation).  Every other fact about
g is read off these two forms: the bracket of coordinate vectors
and the Killing form (models.killing_gram) off the table, and the
coordinates of a matrix off one QSpan of the sparse generators.  The
dense views (from_coords, coords_of) take and give the rational
matrices of the basis itself.
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


def _cartan(label, n):
    """C[i][j] = <alpha_j, alpha_i^vee> in Bourbaki's numbering (plates
    I-IV): the chain of A_n with one bond changed.  alpha_n is short in B
    (<alpha_(n-1), alpha_n^vee> = -2) and long in C (<alpha_n,
    alpha_(n-1)^vee> = -2), and in D it is joined to alpha_(n-2) instead
    of alpha_(n-1)."""
    c = [[2 * (i == j) - (abs(i - j) == 1) for j in range(n)] for i in range(n)]
    if label == "B":
        c[n - 1][n - 2] = -2
    elif label == "C":
        c[n - 2][n - 1] = -2
    elif label == "D":
        c[n - 1][n - 2] = c[n - 2][n - 1] = 0
        c[n - 1][n - 3] = c[n - 3][n - 1] = -1
    return tuple(map(tuple, c))


class RootSystem:
    """The roots of a classical type, read off its Cartan matrix.

    A root is referred to by its fundamental-weight coordinates (fund
    coords), the integers <alpha, alpha_i^vee>.  The simple roots are the
    columns of the Cartan matrix, and the roots are their closure under
    the simple reflections s_i(mu) = mu - mu_i·alpha_i, which reach every
    root (Humphreys, Lie Algebras, §10.3: every root is W-conjugate to a
    simple one).  norm maps each root to its squared length (alpha,
    alpha), that of the simple root it was reached from, as a reflection
    keeps lengths: 2, except 1 for the short roots of B and 4 for the
    long roots of C.
    """

    def __init__(self, type_label, rank):
        if type_label not in SUPPORTED or rank not in SUPPORTED[type_label]:
            raise RootDataError("unsupported type %s rank %d" % (type_label, rank))
        self.type_label = type_label
        self.rank = rank
        self.cartan_matrix = _cartan(type_label, rank)
        # fund = C·m for the simple-root coordinates m, so d·m = (d·C⁻¹)·fund
        # with d·C⁻¹ integral: one fraction-free elimination gives d·C⁻¹,
        # and each weight costs one integer product.
        self._cartan_den, self._cartan_inverse = scaled_inverse(self.cartan_matrix)
        self.simple = tuple(zip(*self.cartan_matrix))
        self.norm = dict(zip(self.simple, (2,) * (rank - 1) + ({"B": 1, "C": 4}.get(type_label, 2),)))
        roots = list(self.simple)
        for mu in roots:
            for m, a in zip(mu, self.simple):
                nu = tuple(x - m * y for x, y in zip(mu, a))
                if nu not in self.norm:
                    self.norm[nu] = self.norm[mu]
                    roots.append(nu)
        exp = {b: self.expansion(b) for b in roots}
        self.positive = tuple(sorted((b for b in roots if sum(exp[b]) > 0), key=lambda b: (sum(exp[b]), exp[b])))
        self.negative = tuple(tuple(-c for c in b) for b in self.positive)
        self.all_roots = self.positive + self.negative
        # The roots ±alpha_i of the simple generators x_{±alpha_i}, which
        # generate g: the simple roots, then their negatives.
        self.generators = self.simple + tuple(tuple(-c for c in a) for a in self.simple)

    # -- coordinates ---------------------------------------------------

    def expansion(self, fund):
        """Simple-root coordinates m of the weight with these fund coords
        (fund = C·m), or None when the weight is off the root lattice."""
        d = self._cartan_den
        dm = [sum(a * f for a, f in zip(row, fund)) for row in self._cartan_inverse]
        if any(x % d for x in dm):
            return None
        return tuple(x // d for x in dm)

    def is_root(self, fund):
        return fund in self.norm

    def root_string_r(self, alpha, beta):
        """Largest r >= 0 with beta - r·alpha a root (alpha, beta fund)."""
        r = 0
        while tuple(b - (r + 1) * a for a, b in zip(alpha, beta)) in self.norm:
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
    """The weight of each diagonal position of the realization in fund
    coords, one per row of its N×N matrices: position (i, j) of a matrix
    has weight w[i] - w[j], and the coroot h_alpha has entry <w[i],
    h_alpha> at (i, i).  They are the weights of the defining
    representation: e_1 = omega_1 and e_(k+1) = e_k - alpha_k, n + 1 of
    them for A and n for B, C and D, followed there by -e_1, ..., -e_n,
    and by 0 for B."""
    n = rs.rank
    w = [(1,) + (0,) * (n - 1)]
    for a in rs.simple[: n if rs.type_label == "A" else n - 1]:
        w.append(tuple(x - y for x, y in zip(w[-1], a)))
    if rs.type_label != "A":
        w += [tuple(-x for x in u) for u in w]
    if rs.type_label == "B":
        w.append((0,) * n)
    return w


def _form(rs):
    """The form S preserved by the realization, sparse: row k has one
    entry s_k, at the column σ(k) of the position of weight -w[k], with
    s_k = -1 on the last n rows of type C, where S is alternating, and 1
    otherwise; empty for type A, where sl_N puts no condition on an
    off-diagonal position."""
    if rs.type_label == "A":
        return {}
    w = _position_weights(rs)
    position = {u: k for k, u in enumerate(w)}
    sign = -1 if rs.type_label == "C" else 1
    return {(k, position[tuple(-x for x in u)]): sign if k >= rs.rank else 1 for k, u in enumerate(w)}


def _scaled(c, m):
    return {p: c * v for p, v in m.items()} if c else {}


def _lowest(m, d):
    """The integer sparse matrix m over d > 0 in lowest terms, as the pair
    (matrix, denominator): the common factor of d and the entries
    divided out."""
    g = gcd(d, *m.values())
    return ({p: v // g for p, v in m.items()}, d // g) if g > 1 else (m, d)


def chevalley_set(rs, simple):
    """The Chevalley set from its simple generators alone.  simple maps
    the fund coords of each root ±alpha_i of rs.generators to x_{±alpha_i}
    in some representation, as a pair (integer sparse matrix,
    denominator > 0), and may map ("h", i) to h_i, when the caller
    already has it; returns (action, D): every x_alpha and h_i, keyed
    in basis order (ChevalleyBasis.basis_order), as integer sparse
    matrices over D, the least common denominator of all of them.

    The positive roots are walked in height order, and a non-simple gamma
    is written a + beta, a the first simple root that leaves a root beta,
    of lower height.  With r the largest integer making beta − r·a a
    root,

        x_gamma = [x_a, x_beta]/(r + 1),
        x_{-gamma} = −[x_{-a}, x_{-beta}]/(r + 1),
        h_i = [x_{alpha_i}, x_{-alpha_i}], unless given.

    x_{-gamma} is −ω(x_gamma), ω the Chevalley involution, the
    automorphism taking x_{±alpha_i} to −x_{∓alpha_i}: by induction
    ω(x_gamma) = [ω(x_a), ω(x_beta)]/(r + 1) = [x_{-a}, x_{-beta}]/(r + 1).
    It is also the unique y in g_{-gamma} with [x_gamma, y] = h_gamma,
    given this for a and beta.  Proof (Humphreys, Lie Algebras, §25): for
    y in g_{-gamma}, [x_gamma, y] = kappa(x_gamma, y)·t_gamma, t_gamma
    dual to gamma under the Killing form kappa, and h_gamma =
    2·t_gamma/(gamma, gamma), (·, ·) the form kappa induces on the roots,
    so the claim is kappa(x_gamma, x_{-gamma}) = 2/(gamma, gamma).  The a-string through
    beta runs from beta − r·a to beta + q·a, q ≥ 1, an irreducible
    module of the sl_2 of x_a, x_{-a}, h_a with x_beta q steps below its
    top, so [x_{-a}, [x_a, x_beta]] = q·(r + 1)·x_beta, that is
    [x_gamma, x_{-a}] = −q·x_beta.  By the invariance of kappa,

        kappa(x_gamma, x_{-gamma}) = −kappa([x_gamma, x_{-a}], x_{-beta})/(r + 1)
                                   = q·kappa(x_beta, x_{-beta})/(r + 1)
                                   = 2q/((r + 1)·(beta, beta)),

    which is 2/(gamma, gamma) as r + 1 = q·(gamma, gamma)/(beta, beta)
    (§25.1, Lemma).  So x_{-gamma} is the vector _pair_negative would
    pair with x_gamma, in every representation, and every structure
    constant is ±(r + 1).  Every pair is kept in lowest terms (_lowest)
    and brought to D at the end, so no Fraction is made."""
    x = {key: _lowest(*pair) for key, pair in simple.items()}

    def bracket(u, v, r):
        (mu, du), (mv, dv) = x[u], x[v]
        return _lowest(sparse_bracket(mu, mv), du * dv * r)

    for gamma in rs.positive:
        if gamma in x:
            continue
        for a in rs.simple:
            beta = tuple(g - c for g, c in zip(gamma, a))
            if beta in x:
                r = rs.root_string_r(a, beta) + 1
                x[gamma] = bracket(a, beta, r)
                # −[x_{-a}, x_{-beta}] = [x_{-beta}, x_{-a}]
                x[tuple(-c for c in gamma)] = bracket(tuple(-c for c in beta), tuple(-c for c in a), r)
                break
        else:
            raise AssertionError("no decomposition for %r" % (gamma,))
    for i, (a, f) in enumerate(zip(rs.simple, rs.generators[rs.rank :])):
        if ("h", i) not in x:
            x["h", i] = bracket(a, f, 1)
    d = lcm(*(e for _, e in x.values()))
    keys = [*rs.all_roots, *(("h", i) for i in range(rs.rank))]
    return {key: _scaled(d // x[key][1], x[key][0]) for key in keys}, d


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
        of each simple root at ("h", i), in basis order
      bracket_table: bracket_table[i][j] = {k: c} with
        [b_i, b_j] = Σ c·b_k over the basis b in basis_order()
    """

    def __init__(self, rs):
        self.rs = rs
        self._weights = _position_weights(rs)
        self.N = len(self._weights)
        gens = self._root_spaces(rs.generators)
        simple = {}
        # _pair_negative checks [x_{alpha_i}, x_{-alpha_i}] against the
        # coroot, so h_i is passed on rather than bracketed again.
        for i, (a, f) in enumerate(zip(rs.simple, rs.generators[rs.rank :])):
            simple[a] = (gens[a], 1)
            simple[f] = self._pair_negative(a, simple[a], gens[f])
            simple["h", i] = (self._h_sparse(a), 1)
        self.action, self.denominator = chevalley_set(rs, simple)
        self._index = {key: k for k, key in enumerate(self.basis_order())}
        self._verify()

    # -- scaffolding ---------------------------------------------------

    def _h_sparse(self, fund):
        """The coroot h_alpha as a canonical sparse matrix: the diagonal
        matrix with <w[k], h_alpha> at (k, k) for the weight w[k] of each
        position (_position_weights), read off the coordinates of h_alpha
        in the simple coroots (h_alpha_coords)."""
        h = self.h_alpha_coords(fund)
        return canonical({(k, k): self.pairing(w, h) for k, w in enumerate(self._weights)})

    def _root_spaces(self, roots):
        """Primitive integer generator of the root space of each root in
        roots, sparse, keyed by fund coords.  Row k of the form S (_form)
        has one entry s_k = ±1, at column σ(k), σ an involution, so
        Xᵀ·S + S·X = 0 reads
        X[σ(b)][σ(a)] = −s_σ(a)·s_σ(b)·X[a][b]: each equation ties a
        position (a, b) to its partner (σ(b), σ(a)).  The weights w[k]
        (_position_weights) are distinct, with w[σ(k)] = −w[k], and the
        position (i, j) is keyed by w[i] − w[j], in fund coords like the
        roots, so a root is w[a] − w[b] for exactly the pairs (w[a], w[b])
        = (u, v) and (−v, −u): one position and its partner.  The root
        space is then spanned by e_ab − s_σ(a)·s_σ(b)·e_σ(b)σ(a), which is 2·e_ab when
        the partner is (a, b) itself (u = −v, the long roots of type C,
        where s_a·s_σ(a) = −1).  Type A has no form, and w[i] − w[j] sits
        at (i, j) alone."""
        w = self._weights
        first = {}
        for i in range(self.N):
            for j in range(self.N):
                first.setdefault(tuple(a - b for a, b in zip(w[i], w[j])), (i, j))
        s = _form(self.rs)
        sigma = {k: l for k, l in s}
        gens = {}
        for fund in roots:
            a, b = first[fund]
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

    # -- public API ----------------------------------------------------

    def h_alpha_coords(self, fund):
        """h_alpha in the basis {h_{alpha_i}}, integral for every root: for
        alpha = Σ m_i·alpha_i, h_alpha = Σ m_i·(alpha_i, alpha_i)/(alpha,
        alpha)·h_{alpha_i}, the squared lengths read off rs.norm."""
        rs = self.rs
        return tuple(ratio(m * rs.norm[a], rs.norm[fund]) for m, a in zip(rs.expansion(fund), rs.simple))

    def pairing(self, weight_fund, h_coords):
        """<weight, h> where h = sum c_i h_{alpha_i}."""
        return F(sum(c * w for c, w in zip(h_coords, weight_fund)))

    def basis_order(self):
        """Keys of the Chevalley basis: all roots, then rank coroots."""
        return [*self.rs.all_roots, *(("h", i) for i in range(self.rs.rank))]

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
