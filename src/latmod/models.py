"""Computable shadows of an integral model attached to a lattice: the Lie
lattice {X in g : X·Lambda ⊆ Lambda}, its basis-change invariants, and
bounded-degree Hopf-order generators for the rank-1 adjoint case.

The brackets of a Lie lattice's basis and the Killing form are read off
the integer bracket table of the Chevalley basis, so they stay integral
and no matrix of ad is built.

Hopf orders are handled through explicit matrix-coefficient polynomials in
the group coordinates, reduced modulo the determinant relation
x11·x22 = 1 + x12·x21; equality of two orders is decided up to a degree
bound on one integer Hermite basis of the generator products in the
reduced monomials, whose transform gives an explicit integral
certificate for every positive answer.
"""

from functools import lru_cache
from itertools import chain
from math import gcd, prod

from latmod.exact import snf, transporter
from latmod.kernels import hermite_coords, hnf_columns
from latmod.matrixops import F, clear_denominators, dense, mat_mul, ratio


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
        q, p = den // gcd(den, *chain.from_iterable(rows)), self.lattice.prime
        return q == 1 or (p is not None and q % p != 0)

    def to_json_obj(self):
        return {
            "rootsystem": self.cb.rs.to_json_obj(),
            "basis": self.lattice.to_json_obj(),
        }


def lie_model(rep, lat):
    """The Lie lattice {X in g : rho(X)·Lambda ⊆ Lambda}.

    rho must be faithful on g, and it is exactly when some generator acts
    nonzero: ker rho is an ideal of g, since rho is a homomorphism (the
    Representation checked every bracket of the basis), and every
    supported type (A1–A4, B2–B4, C2–C4, D3–D4) is a simple Lie algebra
    over Q, so ker rho is 0 or g.
    """
    cb = rep.cb
    if lat.ambient != rep.dim:
        raise ModelError("lattice lives in the wrong space")
    gens = [rep.action[key] for key in cb.basis_order()]
    if not any(x for g in gens for x in g.values()):
        raise ModelError("representation is not faithful on the Lie algebra")
    return LieLattice(cb, transporter([dense(g, rep.dim) for g in gens], lat, lat))


@lru_cache(maxsize=None)
def killing_gram(cb):
    """Gram matrix of the Killing form on the Chevalley coordinate basis,
    read off the bracket table T: column k of ad(b_i) is [b_i, b_k] = T[i][k],
    so tr ad(b_i)·ad(b_j) = Σ_k Σ_l T[i][k]_l·T[j][l]_k.

    Cached per basis object; the cache holds the basis, so no later basis
    can take over its entry.
    """
    t = cb.bracket_table
    return tuple(
        tuple(sum(c * tj[l].get(k, 0) for k, entry in enumerate(ti) for l, c in entry.items()) for tj in t)
        for ti in t
    )


def lie_invariants(model):
    """Basis-change invariants: elementary divisors of the Killing Gram
    and of the flattened bracket structure tensor in a model basis."""
    cb, lat = model.cb, model.lattice
    g_lat = mat_mul(lat.basis, mat_mul(killing_gram(cb), lat.basis_matrix()))  # Bᵀ·G·B
    # snf divides out the content of the bracket rows first.
    rows, den = model.bracket
    return {
        "killing_divisors": [str(d) for d in snf(g_lat)],
        "bracket_divisors": [str(d) for d in snf([[ratio(x, den) for x in r] for r in rows])],
    }


# -----------------------------------------------------------------------
# Polynomials in the group coordinates
# -----------------------------------------------------------------------

PGL2_VARS = ("x11", "x12", "x21", "x22")


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


def poly_scale(c, a):
    c = F(c)
    return {e: c * x for e, x in a.items()} if c else {}


def poly_reduce_det(a):
    """Rewrite x11·x22 -> 1 + x12·x21 until no monomial has both."""
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


def poly_str(a):
    terms = []
    for e in sorted(a, reverse=True):
        c = a[e]
        mono = "*".join(
            v if k == 1 else "%s^%d" % (v, k)
            for v, k in zip(PGL2_VARS, e)
            if k
        )
        if not mono:
            terms.append(str(c))
        elif c == 1:
            terms.append(mono)
        else:
            terms.append("%s*%s" % (c, mono))
    return " + ".join(terms) if terms else "0"


class HopfOrderGenerators:
    """Matrix-coefficient polynomials generating an order, plus metadata."""

    __slots__ = ("variables", "generators", "degree_bound")

    def __init__(self, generators, degree_bound=4):
        object.__setattr__(self, "variables", PGL2_VARS)
        object.__setattr__(
            self, "generators", tuple(poly_reduce_det(g) for g in generators)
        )
        object.__setattr__(self, "degree_bound", degree_bound)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def to_json_obj(self):
        return {
            "variables": list(self.variables),
            "generators": [
                {",".join(map(str, e)): str(c) for e, c in g.items()}
                for g in self.generators
            ],
            "degree_bound": self.degree_bound,
        }


def _sym2_symbolic():
    """The symmetric-square action matrix with polynomial entries, in the
    monomial basis e1^2, e1e2, e2^2."""

    def v(i):
        e = [0, 0, 0, 0]
        e[i] = 1
        return {tuple(e): 1}

    a, b, c, d = v(0), v(1), v(2), v(3)
    two = {(0, 0, 0, 0): 2}
    return (
        (poly_mul(a, a), poly_mul(a, b), poly_mul(b, b)),
        (
            poly_mul(two, poly_mul(a, c)),
            poly_add(poly_mul(a, d), poly_mul(b, c)),
            poly_mul(two, poly_mul(b, d)),
        ),
        (poly_mul(c, c), poly_mul(c, d), poly_mul(d, d)),
    )


def hopf_generators(rep, lat):
    """Matrix coefficients of the symmetric-square action in a lattice
    basis, as reduced polynomials in the group coordinates."""
    cb = rep.cb
    if cb.rs.type_label != "A" or cb.rs.rank != 1 or rep.dim != 3:
        raise ModelError("unsupported group presentation")
    if lat.ambient != 3 or lat.prime is not None:
        raise ModelError("expected a global lattice in the 3-dimensional space")
    s = _sym2_symbolic()
    # B⁻¹[i][k] = inv[k][i] / den: column k of B⁻¹ is the coordinates of e_k.
    inv, den = lat.coordinates([[int(i == k) for i in range(3)] for k in range(3)], 1)
    gens = []
    for i in range(3):
        for j in range(3):
            entry = {}
            for k in range(3):
                for l in range(3):
                    coef = ratio(inv[k][i] * lat.columns[j][l], den * lat.denominator)
                    if coef:
                        entry = poly_add(entry, poly_scale(coef, s[k][l]))
            gens.append(entry)
    return HopfOrderGenerators(gens)


# -----------------------------------------------------------------------
# Bounded-degree order comparison
# -----------------------------------------------------------------------


def _monomial_products(gens, degree_bound):
    """All products of generators with reduced ambient degree within the
    bound, as (polynomial, multiset of generator indices)."""
    out = [({(0, 0, 0, 0): 1}, ())]
    frontier = [({(0, 0, 0, 0): 1}, ())]
    while frontier:
        nxt = []
        for poly, word in frontier:
            start = word[-1] if word else 0
            for k in range(start, len(gens)):
                prod = poly_reduce_det(poly_mul(poly, gens[k]))
                if not prod:
                    continue
                deg = max(sum(e) for e in prod)
                if deg > degree_bound:
                    continue
                item = (prod, word + (k,))
                out.append(item)
                nxt.append(item)
        frontier = nxt
    return out


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
    cols = hnf_columns(
        [v + [int(j == k) for j in range(m)] for k, v in enumerate(ints)], len(ix)
    )
    pivots = [next(i for i, x in enumerate(col) if x) for col in cols]
    return ix, d, cols, pivots, [word for _, word in products]


def _tracked_membership(echelon, target, p):
    """Decide membership of target in the Z_(p)-span of the products with
    this _product_echelon; returns (status, combination or witness).

    status: "member" with an integral combination [(coeff, word)],
    "excluded" with a coordinate in the Hermite basis that has a
    p-denominator, or "outside" when the target is not even in the
    Q-span.  The basis is triangular with pivot product P, so the target,
    scaled like the products and then to integers by some den, has
    coordinates in Z/P; hermite_coords finds den·P times the target's
    coordinates.
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
    coords = [ratio(xk, scale) for xk in x]
    if p is not None:
        bad = next((q for q in coords if q.denominator % p == 0), None)
        if bad is not None:
            return "excluded", bad
    n = len(ix)
    combo = [sum(xk * col[n + k] for xk, col in zip(x, cols)) for k in range(len(words))]
    return "member", [(ratio(c, scale), words[k]) for k, c in enumerate(combo) if c]


def order_equal_bounded(g1, g2, degree_bound, p):
    """Tri-state bounded-degree equality of two orders.

    Returns a dict: status "equal" (with mutual certificates), "not_shown"
    (with a p-adic valuation witness), or "undecided" (a generator escapes
    the rational span at this bound).  Only "equal" is a proof.  The
    negatives are bounded: a generator outside the Z_(p)-span of the
    products up to degree_bound may be inside it at a higher bound.
    """
    report = {"status": "equal", "certificates": [], "witness": None}
    for left, right, direction in ((g1, g2, "1in2"), (g2, g1, "2in1")):
        echelon = _product_echelon(_monomial_products(right.generators, degree_bound))
        for gi, gen in enumerate(left.generators):
            status, data = _tracked_membership(echelon, gen, p)
            if status == "member":
                report["certificates"].append(
                    {
                        "direction": direction,
                        "generator": gi,
                        "target": poly_str(gen),
                        "combination": [
                            {"coeff": str(c), "word": list(w)} for c, w in data
                        ],
                    }
                )
            elif status == "excluded":
                return {
                    "status": "not_shown",
                    "certificates": [],
                    "witness": {
                        "direction": direction,
                        "generator": gi,
                        "coefficient": str(data),
                    },
                }
            else:
                return {
                    "status": "undecided",
                    "certificates": [],
                    "witness": {"direction": direction, "generator": gi},
                }
    return report
