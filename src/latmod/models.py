"""Computable shadows of an integral model attached to a lattice: the Lie
lattice {X in g : X·Lambda ⊆ Lambda}, its basis-change invariants, and
bounded-degree Hopf-order generators for A1 (n) acting on Sym^n, over Z
or Z_(p).

The brackets of a Lie lattice's basis and the Killing form are read off
the integer bracket table of the Chevalley basis, so they stay integral
and no matrix of ad is built; the invariants are Smith forms of those
integers, each divisor written over their one denominator.

Hopf orders are handled through explicit matrix-coefficient polynomials
in the coordinates x11, x12, x21, x22 of SL2 (it acts on Sym^n
faithfully for odd n; its image is PGL2 only for even n), each kept in
one normal form modulo the determinant relation x11·x22 = 1 + x12·x21:
the polynomial with no monomial divisible by x11·x22 (poly_reduce_det,
in closed form).  The degree of a normal form is additive on products.
Replacing x11·x22 by 1 + x12·x21 keeps the top-degree part of a
polynomial modulo q = x11·x22 − x12·x21, so the top-degree part of
NF(f·g) is the normal form modulo q of f_d·g_e, the product of the
top-degree parts.  The normal-form monomials are a basis of Q[x]/(q)
too, so f_d and g_e are nonzero there; q is irreducible (a nondegenerate
quadratic form in four variables), so Q[x]/(q) is an integral domain,
f_d·g_e is nonzero modulo q, and deg NF(f·g) = deg f + deg g.  So the
generator products within a degree bound are known from the generators'
degrees before any is built.  Equality of two orders is decided up to a
degree bound on one integer Hermite basis of those products in the
normal-form monomials, whose transform gives an explicit integral
certificate for every positive answer.
"""

from itertools import chain, permutations
from math import comb, gcd, prod

from latmod.exact import integral, transporter
from latmod.kernels import hermite_coords, hnf_columns, snf_diagonal
from latmod.matrixops import clear_denominators, ratio, ratio_text
from latmod.reps import lattice_generators


class ModelError(ValueError):
    pass


# -----------------------------------------------------------------------
# Lie lattices
# -----------------------------------------------------------------------


class LieLattice:
    """Lattice in the Lie algebra, coordinates in the Chevalley basis.

    ``bracket`` holds the coordinates in the lattice basis u of the
    brackets [u_i, u_j], row i·m + j, as integer rows over one
    denominator; the lattice is closed under the bracket exactly when
    they are integral (p-integral over Z_(p)).
    """

    __slots__ = ("cb", "lattice", "bracket")

    def __init__(self, cb, lattice):
        object.__setattr__(self, "cb", cb)
        object.__setattr__(self, "lattice", lattice)
        # Taken on the integer columns c = d·u, so over d²; the bracket
        # table is integral, and so are the brackets of the columns.
        cols = lattice.columns
        ints = [cb.bracket_coords(u, v) for u in cols for v in cols]
        object.__setattr__(self, "bracket", lattice.coordinates(ints, lattice.denominator**2))
        if not self.bracket_closed():
            raise ModelError("lattice is not closed under the bracket")

    def __setattr__(self, *a):
        raise AttributeError("LieLattice is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, LieLattice)
            and self.cb is other.cb
            and self.lattice == other.lattice
        )

    def element(self, coords):
        """Realization matrix of a coordinate vector."""
        return self.cb.from_coords(coords)

    def bracket_closed(self):
        """Are the bracket coordinates integral over the ring of the lattice?"""
        rows, den = self.bracket
        return integral(chain.from_iterable(rows), den, self.lattice.prime)

    def to_json_obj(self):
        return {
            "rootsystem": self.cb.rs.to_json_obj(),
            "basis": self.lattice.to_json_obj(),
        }


def check_ambient(lat, dim):
    """Refuse a lattice that does not live in a space of dimension dim."""
    if lat.ambient != dim:
        raise ModelError("lattice lives in the wrong space")


def lie_model(rep, lat):
    """The Lie lattice {X in g : rho(X)·Lambda ⊆ Lambda}.

    rho must be faithful on g, and it is exactly when some generator acts
    nonzero: ker rho is an ideal of g, since rho is a homomorphism (the
    Representation checked every bracket of the basis), and every
    supported type (A1–A4, B2–B4, C2–C4, D3–D4) is a simple Lie algebra
    over Q, so ker rho is 0 or g.  The generators act as the integer
    matrices A_k over D = rep.denominator, and (Σ c_k·A_k/D)·Λ ⊆ Λ
    exactly when (Σ c_k·A_k)·Λ ⊆ D·Λ: the transporter into D·Λ.
    """
    check_ambient(lat, rep.dim)
    gens = lattice_generators(rep)
    if not any(x for g in gens for x in g.values()):
        raise ModelError("representation is not faithful on the Lie algebra")
    return LieLattice(rep.cb, transporter(gens, lat, lat.scale(rep.denominator)))


def killing_gram(cb):
    """Gram matrix of the Killing form on the Chevalley coordinate basis,
    read off the bracket table T: column k of ad(b_i) is [b_i, b_k] = T[i][k],
    so tr ad(b_i)·ad(b_j) = Σ_k Σ_l T[i][k]_l·T[j][l]_k.
    """
    t = cb.bracket_table
    return tuple(
        tuple(sum(c * tj[l].get(k, 0) for k, entry in enumerate(ti) for l, c in entry.items()) for tj in t)
        for ti in t
    )


def lie_invariants(model):
    """Basis-change invariants: elementary divisors of the Killing Gram
    and of the flattened bracket structure tensor in a model basis.

    Both are integer matrices over one denominator: the Gram Bᵀ·G·B is
    Cᵀ·G·C over d² on the integer columns C = d·B, and the bracket rows
    carry theirs.
    """
    cols = model.lattice.columns
    g = [[(l, x) for l, x in enumerate(row) if x] for row in killing_gram(model.cb)]
    gc = [[sum(x * c[l] for l, x in row) for row in g] for c in cols]  # G·c_j
    gram = [[sum(a * b for a, b in zip(ci, gcj)) for gcj in gc] for ci in cols]
    return {
        "killing_divisors": _divisors(gram, model.lattice.denominator**2),
        "bracket_divisors": _divisors(*model.bracket),
    }


def _divisors(rows, den):
    """Elementary divisors of the integer rows over den, written as
    str(Fraction) writes them; the common factor of the rows and den is
    divided out first."""
    g = gcd(den, *chain.from_iterable(rows))
    return [ratio_text(x, den // g) for x in snf_diagonal([[x // g for x in r] for r in rows])]


# -----------------------------------------------------------------------
# Polynomials in the group coordinates
# -----------------------------------------------------------------------

SL2_VARS = ("x11", "x12", "x21", "x22")


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb_ in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb_
    return {e: c for e, c in out.items() if c}


def poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def poly_reduce_det(a):
    """The normal form of a modulo x11·x22 − 1 − x12·x21: the one
    polynomial congruent to a with no monomial divisible by x11·x22.  With
    m = min(i, l), x11^i·x12^j·x21^k·x22^l is
    x11^(i−m)·x12^j·x21^k·x22^(l−m)·(1 + x12·x21)^m, and the last factor
    is Σ_t C(m, t)·(x12·x21)^t."""
    out = {}
    for (i, j, k, l), c in a.items():
        m = min(i, l)
        for t in range(m + 1):
            e = (i - m, j + t, k + t, l - m)
            out[e] = out.get(e, 0) + comb(m, t) * c
    return {e: c for e, c in out.items() if c}


def poly_str(a):
    terms = []
    for e in sorted(a, reverse=True):
        c = a[e]
        mono = "*".join(
            v if k == 1 else "%s^%d" % (v, k)
            for v, k in zip(SL2_VARS, e)
            if k
        )
        if not mono:
            terms.append(str(c))
        elif c == 1:
            terms.append(mono)
        else:
            terms.append("%s*%s" % (c, mono))
    return " + ".join(terms) if terms else "0"


def _sym_symbolic(n):
    """The action matrix of Sym^n(g) with polynomial entries, in the
    monomial basis e_j = e1^(n−j)·e2^j.  Column j is the image of e_j,
    (x11·e1 + x21·e2)^(n−j)·(x12·e1 + x22·e2)^j, so entry (i, j) is the
    sum over a + b = i of C(n−j, a)·C(j, b)·x11^(n−j−a)·x12^(j−b)·x21^a·x22^b."""
    return tuple(
        tuple(
            {(n - j - a, j - i + a, a, i - a): c for a in range(i + 1) if (c := comb(n - j, a) * comb(j, i - a))}
            for j in range(n + 1)
        )
        for i in range(n + 1)
    )


def sym_det_defect(n):
    """det Sym^n(g) − det(g)^(n(n+1)/2), expanded over the permutations of
    the rows of the symbolic Sym^n(g); {} when the identity holds."""
    s = _sym_symbolic(n)
    out = {(0, 0, 0, 0): -1}
    for _ in range(n * (n + 1) // 2):
        out = poly_mul(out, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    for perm in permutations(range(n + 1)):
        inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
        term = {(0, 0, 0, 0): (-1) ** inversions}
        for i, j in enumerate(perm):
            term = poly_mul(term, s[i][j])
        out = poly_add(out, term)
    return out


def hopf_generators(rep, lat):
    """Matrix coefficients of Sym^n(g), n = rep.dim − 1, in a lattice
    basis over Z or Z_(p), as polynomials in normal form in the
    coordinates of SL2.

    rep must be A1 (n), n ≥ 1, acting on the monomial basis
    e_j = e1^(n−j)·e2^j of Sym^n, where the derivative of Sym^n(g) at 1
    is x_α·e_j = j·e_(j−1), x_−α·e_j = (n−j)·e_(j+1), h·e_j = (n−2j)·e_j:
    its action must be exactly that, over rep.denominator.  A1 (0) is not
    faithful, and any other action is not the Sym^n(g) taken here.

    Entry (i, j) of B⁻¹·Sym^n(g)·B is Σ_kl B⁻¹[i][k]·B[l][j]·s[k][l]; its
    coefficients are summed over the integers inv and the integer columns
    of B, and each is divided once by their denominators, so an integral
    generator (both paper lattices) makes no Fraction."""
    n, d, dims = rep.dim - 1, rep.denominator, range(rep.dim)
    lie = {
        (2,): {(j - 1, j): j * d for j in dims if j},
        (-2,): {(j + 1, j): (n - j) * d for j in dims if j < n},
        ("h", 0): {(j, j): (n - 2 * j) * d for j in dims if n != 2 * j},
    }
    rs = rep.cb.rs
    if rs.type_label != "A" or rs.rank != 1 or n < 1 or rep.action != lie:
        raise ModelError("unsupported group presentation")
    check_ambient(lat, rep.dim)
    s = _sym_symbolic(n)
    # B⁻¹[i][k] = inv[k][i] / den: column k of B⁻¹ is the coordinates of e_k.
    inv, den = lat.coordinates([[int(i == k) for i in dims] for k in dims], 1)
    scale = den * lat.denominator
    gens = []
    for i in dims:
        for col in lat.columns:
            entry = {}
            for k in dims:
                for l in dims:
                    c = inv[k][i] * col[l]
                    if c:
                        for e, x in s[k][l].items():
                            entry[e] = entry.get(e, 0) + c * x
            gens.append(poly_reduce_det({e: ratio(x, scale) for e, x in entry.items() if x}))
    return gens


# -----------------------------------------------------------------------
# Bounded-degree order comparison
# -----------------------------------------------------------------------


def _monomial_products(gens, degree_bound):
    """All products of generators with reduced ambient degree within the
    bound, as (polynomial, multiset of generator indices), breadth first:
    by the number of factors, each word extended by the indices from its
    last one on.  gens are in normal form; a zero generator takes part in
    no product, and a nonzero constant is refused, since its powers would
    never leave the bound.  The degree of a normal form is additive (see
    the module docstring), so a word's degree is the sum of its
    generators' and only the products within the bound are built.
    """
    degrees = [max(map(sum, g)) if g else None for g in gens]
    if 0 in degrees:
        raise ModelError("generator %d is a nonzero constant: its powers have no degree bound" % degrees.index(0))
    frontier = [({(0, 0, 0, 0): 1}, (), 0)]
    out = list(frontier)
    while frontier:
        frontier = [
            (poly_reduce_det(poly_mul(poly, gens[k])), word + (k,), deg + degrees[k])
            for poly, word, deg in frontier
            for k in range(word[-1] if word else 0, len(gens))
            if degrees[k] is not None and deg + degrees[k] <= degree_bound
        ]
        out += frontier
    return [(poly, word) for poly, word, _ in out]


def _product_echelon(products):
    """One Hermite basis of the products scaled by their common
    denominator d.  Each product column carries an identity tail below
    its monomial rows, so each basis column's tail is the integer
    combination of products that makes it: (monomial index, d, basis
    columns, their pivot rows, words)."""
    monomials = sorted({e for poly, _ in products for e in poly})
    ix = {e: i for i, e in enumerate(monomials)}
    vecs = []
    for poly, _ in products:
        v = [0] * len(monomials)
        for e, c in poly.items():
            v[ix[e]] = c
        vecs.append(v)
    ints, d = clear_denominators(vecs)
    m = len(products)
    for k, v in enumerate(ints):
        tail = [0] * m
        tail[k] = 1
        v += tail
    cols = hnf_columns(ints, len(ix))
    pivots = [next(i for i, x in enumerate(col) if x) for col in cols]
    return ix, d, cols, pivots, [word for _, word in products]


def _tracked_membership(echelon, target, p):
    """Decide membership of target in the R-span of the products with
    this _product_echelon, R = Z_(p), or Z when p is None; returns
    (status, combination or witness).

    status: "member" with a combination [(coeff, word)] over R,
    "excluded" with a coordinate in the Hermite basis that is not in R
    (exact.integral), or "outside" when the target is not even in the
    Q-span.  The basis is triangular with pivot product P, so the target,
    scaled like the products and then to integers by some den, has
    coordinates in Z/P; hermite_coords finds the integers den·P times the
    target's coordinates.  The test of R and the combination
    read only the nonzero ones (a generator of the paper pair has one),
    and each coefficient is divided by den·P once, at the end.
    """
    ix, d, cols, pivots, words = echelon
    if any(c and e not in ix for e, c in target.items()):
        return "outside", None
    v = [0] * len(ix)
    for e, c in target.items():
        v[ix[e]] = c * d
    (v,), den = clear_denominators([v])
    pivot_prod = prod(col[piv] for col, piv in zip(cols, pivots))
    x = hermite_coords([a * pivot_prod for a in v], cols, pivots)
    if x is None:
        return "outside", None
    scale = den * pivot_prod
    used = [(xk, col) for xk, col in zip(x, cols) if xk]
    bad = next((xk for xk, _ in used if not integral((xk,), scale, p)), None)
    if bad is not None:
        return "excluded", ratio(bad, scale)
    n = len(ix)
    combo = [0] * len(words)
    for xk, col in used:
        for k, t in enumerate(col[n:]):
            if t:
                combo[k] += xk * t
    return "member", [(ratio(c, scale), words[k]) for k, c in enumerate(combo) if c]


def order_equal_bounded(g1, g2, degree_bound, p):
    """Tri-state bounded-degree equality of the orders generated by two
    lists of polynomials in the coordinates of SL2, each first put in
    normal form.

    Returns a dict: status "equal" (with mutual certificates), "not_shown"
    (with a witness coefficient outside R), or "undecided" (a generator
    escapes the rational span at this bound), R = Z_(p), or Z when p is
    None.  Only "equal" is a proof.  The negatives are bounded: a
    generator outside the R-span of the products up to degree_bound may
    be inside it at a higher bound.
    """
    g1, g2 = [poly_reduce_det(g) for g in g1], [poly_reduce_det(g) for g in g2]
    certificates = []
    for left, right, direction in ((g1, g2, "1in2"), (g2, g1, "2in1")):
        echelon = _product_echelon(_monomial_products(right, degree_bound))
        for gi, gen in enumerate(left):
            status, data = _tracked_membership(echelon, gen, p)
            if status != "member":
                witness = {"direction": direction, "generator": gi}
                if status == "excluded":
                    witness["coefficient"] = str(data)
                return {
                    "status": "not_shown" if status == "excluded" else "undecided",
                    "certificates": [],
                    "witness": witness,
                }
            combination = [{"coeff": str(c), "word": list(w)} for c, w in data]
            certificates.append(
                {"direction": direction, "generator": gi, "target": poly_str(gen), "combination": combination}
            )
    return {"status": "equal", "certificates": certificates, "witness": None}
