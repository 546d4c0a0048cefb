"""End-to-end case studies.

1. Imaginary quadratic fields: lattices in F = Q(sqrt(D)) whose multiplier
   ring is the maximal order, counted up to F*-scaling.  The count equals
   the class number, computed here by exhaustive ideal enumeration below
   the Minkowski bound.  Each ideal's F*-class is keyed by the reduced
   form of its norm form on an oriented basis (the ideal <-> binary
   quadratic form correspondence, Cohen, A Course in Computational
   Algebraic Number Theory, 5.2-5.4), so counting is a set lookup.
   Fundamental discriminants with |D| <= DISC_LIMIT are supported.

2. The rank-1 adjoint group acting on the symmetric square over Z_(2):
   two lattices of index 2 apart generate the same bounded-degree Hopf
   order and the same Lie-lattice invariants, yet lie in different group
   orbits because symmetric squares of pure lattices only produce indices
   with valuation divisible by 3.
"""

import itertools
import math

from latmod.exact import Lattice, transporter, vp
from latmod.matrixops import F, mat, ratio


class CaseStudyError(ValueError):
    pass


# Largest |D| accepted by QuadField: the class count for D = -99995 (h =
# 116) takes 0.65-0.78 s in-process over five runs on a 2-vCPU x86-64 host.
DISC_LIMIT = 10**5


# -----------------------------------------------------------------------
# Imaginary quadratic fields
# -----------------------------------------------------------------------


def is_fundamental(disc):
    if disc >= 0:
        return False
    if disc % 4 == 1:
        return _squarefree(-disc)
    if disc % 4 == 0:
        m = disc // 4
        return _squarefree(-m) and (m % 4) in (2, 3)
    return False


def _squarefree(n):
    k = 2
    while k * k <= n:
        if n % (k * k) == 0:
            return False
        k += 1
    return True


class QuadField:
    """Q(sqrt(D)) for a negative discriminant D, with ring basis (1, w),
    w = (D + sqrt(D))/2, so w² = D·w + (D - D²)/4."""

    __slots__ = ("disc", "_c")

    def __init__(self, disc):
        if disc >= 0 or disc % 4 not in (0, 1):
            raise CaseStudyError("expected a negative discriminant = 0,1 mod 4")
        if -disc > DISC_LIMIT:
            raise CaseStudyError("|D| = %d exceeds the supported limit %d" % (-disc, DISC_LIMIT))
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "_c", (disc - disc * disc) // 4)

    def __setattr__(self, *a):
        raise AttributeError("QuadField is immutable")

    def mul(self, x, y):
        u1, v1 = x
        u2, v2 = y
        u = F(u1) * u2 + F(v1) * v2 * self._c
        v = F(u1) * v2 + F(u2) * v1 + F(v1) * v2 * self.disc
        return (u, v)

    def norm(self, x):
        u, v = x
        # N(u + v·w) = (u + v·w)(u + v·w̄), w + w̄ = D, w·w̄ = (D² - D)/4.
        return F(u) ** 2 + F(u) * F(v) * self.disc - F(v) ** 2 * self._c

    def mul_matrix(self, x):
        """Matrix of multiplication by x on the basis (1, w), columns."""
        u, v = x
        return mat(
            [
                [F(u), F(v) * self._c],
                [F(v), F(u) + F(v) * self.disc],
            ]
        )

    def minkowski_bound(self):
        """An integer above (2/pi)·sqrt(|disc|), the norm within which
        every ideal class contains an integral ideal.  As 333/106 < pi,
        212/333 > 2/pi, and floor(212/333·sqrt(|disc|)) + 1 is computed
        in integers."""
        return math.isqrt(4 * 106**2 * -self.disc) // 333 + 1


def multiplier_ring(field, lat):
    """{x in F : x·Lambda ⊆ Lambda} as a lattice in the (1, w) basis."""
    if lat.ambient != 2:
        raise CaseStudyError("fractional ideals of a quadratic field are rank 2")
    ring = transporter([field.mul_matrix((1, 0)), field.mul_matrix((0, 1))], lat, lat)
    # The result is a unital subring: verify both properties.
    if not ring.member((1, 0)):
        raise AssertionError("multiplier ring does not contain 1")
    for a in ring.basis:
        for b2 in ring.basis:
            if not ring.member(field.mul(a, b2)):
                raise AssertionError("multiplier ring not closed under product")
    return ring


def _ideal_lattices_of_norm(field, n):
    """Index-n sublattices of O_F closed under multiplication by w."""
    omega = field.mul_matrix((0, 1))
    out = []
    for a in range(1, n + 1):
        if n % a:
            continue
        d = n // a
        for b in range(a):
            cols = [[a, 0], [b, d]]
            lat = Lattice(cols)
            if lat.stable_under(omega):
                out.append(lat)
    return out


def _reduce_form(a, b, c):
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


def _class_key(field, ideal):
    """Canonical key of the F*-class of an invertible ideal: the reduced
    form of N(x·ω₁ + y·ω₂) / N(I) on its canonical basis (ω₁, ω₂).

    Scaling by x in F* multiplies every norm and N(I) by N(x) and keeps
    the orientation, and two positively oriented bases of one lattice
    differ by SL₂(Z), so equivalent ideals get equal keys; conversely,
    SL₂(Z)-equivalent forms come from equivalent ideals (the ideal <->
    form correspondence).  GL₂(Z) would also identify I with its
    conjugate, which is in another class in general.
    """
    w1, w2 = ideal.basis
    if w1[0] * w2[1] - w1[1] * w2[0] <= 0:
        raise AssertionError("canonical ideal basis is not positively oriented")
    n = ideal.covolume()
    q1 = field.norm(w1)
    q2 = field.norm(w2)
    tr = field.norm((w1[0] + w2[0], w1[1] + w2[1])) - q1 - q2
    form = tuple(ratio(x, n) for x in (q1, tr, q2))
    if any(x.denominator != 1 for x in form):
        raise AssertionError("norm form of an ideal is not integral")
    a, b, c = (int(x) for x in form)
    if math.gcd(a, b, c) != 1 or b * b - 4 * a * c != field.disc:
        raise AssertionError("norm form is not primitive of discriminant D")
    return _reduce_form(a, b, c)


def class_orbit_count(disc):
    """Number of F*-classes of lattices with maximal multiplier ring,
    with one representative ideal per class: the first ideal of each
    class in order of norm, then of enumeration within a norm.

    Ideals of norm up to the Minkowski bound meet every class.  Each is
    keyed by the reduced form of its norm form (`_class_key`).  The tests
    check the key against a pairwise search for a scaling x with
    x·I = J (`scaling_equivalent` in tests/oracles.py).

    The multiplier ring of a nonzero ideal I is an order (x·I ⊆ I makes x
    integral: the determinant trick on a basis of I) containing O_F, so it
    is O_F; it is still computed, and any other ring fails loudly.
    QuadField checks D mod 4 (D = 2, 3 mod 4 is the discriminant of no
    order) and the limit on |D| first, as is_fundamental trial-divides up
    to sqrt|D|.
    """
    if disc >= 0:
        raise CaseStudyError("only negative discriminants (imaginary quadratic fields) are supported")
    field = QuadField(disc)
    if not is_fundamental(disc):
        raise CaseStudyError("class group of non-maximal orders out of scope")
    maximal = Lattice([[1, 0], [0, 1]])
    bound = field.minkowski_bound()
    classes = {}
    for n in range(1, bound + 1):
        for ideal in _ideal_lattices_of_norm(field, n):
            if multiplier_ring(field, ideal) != maximal:
                raise AssertionError("an ideal of O_F has multiplier ring other than O_F")
            classes.setdefault(_class_key(field, ideal), ideal)
    reps = list(classes.values())
    return len(reps), reps


# -----------------------------------------------------------------------
# Rank-1 adjoint group in the symmetric square over Z_(2)
# -----------------------------------------------------------------------


def pgl2_sym2_report():
    """Four checkable facts about the two lattices Z³ and Z⊕2Z⊕Z in the
    symmetric square: equal bounded-degree Hopf orders, quotient of order
    2, the cube-valuation purity obstruction separating the orbits, and
    matching Lie-lattice invariants."""
    # Imported here, so a class-group request imports only its pipeline.
    from latmod.models import (
        _sym2_symbolic,
        hopf_generators,
        lie_invariants,
        lie_model,
        order_equal_bounded,
        poly_add,
        poly_mul,
        poly_str,
    )
    from latmod.reps import build_irrep
    from latmod.rootdata import build_chevalley

    cb = build_chevalley("A", 1)
    sym2 = build_irrep(cb, (2,))
    lam = Lattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    lam2 = Lattice([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
    report = {"assertions": {}, "status": "pass"}

    def record(name, ok, data):
        report["assertions"][name] = {"pass": bool(ok), **data}
        if not ok:
            report["status"] = "fail"

    g1 = hopf_generators(sym2, lam)
    g2 = hopf_generators(sym2, lam2)
    orders = order_equal_bounded(g1, g2, 4, 2)
    record(
        "hopf_orders_equal",
        orders["status"] == "equal",
        {
            "degree_bound": 4,
            "prime": 2,
            "certificates": len(orders["certificates"]),
        },
    )

    idx = lam2.index_in(lam)
    record("quotient_order", idx == 2, {"index": int(idx)})

    # Purity obstruction: every lattice of Q₂² is M' = g·M for some g in
    # GL₂(Q₂), and c·Sym²(M') = c·Sym²(g)·Sym²(M), so the index between
    # the two has the 2-adic valuation of det(c·Sym²(g)) = c³·det Sym²(g).
    # det Sym²(g) = det(g)³ as a polynomial identity in the entries of g,
    # checked below, so that valuation is 3·v(c·det g) ≡ 0 (mod 3) for
    # every g and c; the observed index 2 has valuation 1.
    s = _sym2_symbolic()
    det_s = {}
    for perm in itertools.permutations(range(3)):
        inversions = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
        term = {(0, 0, 0, 0): (-1) ** inversions}
        for i, j in enumerate(perm):
            term = poly_mul(term, s[i][j])
        det_s = poly_add(det_s, term)
    det_g = {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}
    cube = poly_mul(det_g, poly_mul(det_g, det_g))
    diff = poly_add(det_s, {e: -c for e, c in cube.items()})
    witness = poly_str(diff) if diff else None
    obstruction = not diff and (vp(idx, 2) % 3 != 0)
    record(
        "purity_obstruction",
        obstruction,
        {
            "pure_index_valuations_mod_3": 0,
            "observed_index_valuation": vp(idx, 2),
            "witness": witness,
        },
    )

    inv1 = lie_invariants(lie_model(sym2, lam))
    inv2 = lie_invariants(lie_model(sym2, lam2))
    record(
        "lie_invariants_agree",
        inv1 == inv2,
        {"invariants": inv1},
    )
    return report
