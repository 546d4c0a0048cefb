"""End-to-end case studies.

1. Imaginary quadratic orders: lattices in F = Q(sqrt(D)) whose multiplier
   ring is the order O_D of discriminant D, counted up to F*-scaling.  The
   count is the class number h(O_D), read off the reduced primitive forms
   of discriminant D, one proper ideal Z·a + Z·(t + w) per form (Cox,
   Primes of the Form x² + ny², Thms. 2.8 and 7.7), for every D < 0 with
   D = 0, 1 mod 4 and |D| <= DISC_LIMIT.

2. The rank-1 adjoint group acting on the symmetric square over Z_(2):
   two lattices of index 2 apart generate the same bounded-degree Hopf
   order and the same Lie-lattice invariants, yet lie in different group
   orbits because symmetric squares of pure lattices only produce indices
   with valuation divisible by 3.
"""

import math

from latmod.exact import Lattice, transporter, vp


class CaseStudyError(ValueError):
    pass


# Largest |D| accepted by QuadField: over nine D from -99372 to -100000,
# fundamental or not, the slowest class count took 0.04 s in-process and
# 0.14 s as a CLI request (D = -99623, h = 307; 2-vCPU x86-64 host).
DISC_LIMIT = 10**5


# -----------------------------------------------------------------------
# Imaginary quadratic fields
# -----------------------------------------------------------------------


class QuadField:
    """Q(sqrt(D)) for a negative discriminant D, with basis (1, w),
    w = (D + sqrt(D))/2, so w² = D·w + (D - D²)/4.  Z·1 + Z·w is the order
    O_D of discriminant D: for D = f²·d with d fundamental, it is
    Z + f·O_(Q(sqrt d)), the maximal order when f = 1."""

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
        u = u1 * u2 + v1 * v2 * self._c
        v = u1 * v2 + u2 * v1 + v1 * v2 * self.disc
        return (u, v)

    def mul_matrix(self, x):
        """Multiplication by the integral x on the basis (1, w), as an
        integer sparse matrix."""
        u, v = x
        m = {(0, 0): u, (0, 1): v * self._c, (1, 0): v, (1, 1): u + v * self.disc}
        return {k: y for k, y in m.items() if y}


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


def class_orbit_count(disc):
    """Number of F*-classes of lattices with multiplier ring O_D, with one
    representative ideal per class: the first proper ideal of each class in
    order of norm, then of t in its basis a, t + w.

    These classes are the models of the torus T = R_(F/Q) G_m acting on
    F: a lattice Lambda with multiplier ring O has Ĝ_Lambda = R_(O/Z) G_m.
    Inside End_Q(F), O = F ∩ End_Z(Lambda), so End_Z(Lambda)/O is
    torsion-free and the plane V(O) is a closed, flat subscheme of the
    affine space End(Lambda).  Its units R_(O/Z) G_m = V(O) ∩ GL(Lambda)
    (x is a unit exactly when N(x) = det(x) is) form a closed subgroup of
    GL(Lambda), flat over Z as an open piece of V(O), with generic fibre
    T.  A closed flat subscheme is the closure of its generic fibre, so it
    is Ĝ_Lambda.  Up to F*-scaling these lattices are the proper ideals of
    O, the classes of Pic(O) (Cox, Thms. 7.7 and 7.24).

    The classes are read off the reduced primitive forms (a, b, c) of
    discriminant D (|b| <= a <= c, b >= 0 if |b| = a or a = c; 3a² <= |D|).
    (1) For every order, D < 0, I -> N(x·u + y·v)/N(I) on a positively
    oriented basis maps Pic(O_D) one to one onto the SL₂(Z)-classes of
    primitive forms of discriminant D (Cox, Thm. 7.7), and each class
    holds one reduced form, whose least value is a (Thm. 2.8).
    (2) N(u + v·w) = u² + D·u·v + (D² - D)/4·v², so I = Z·a + Z·(t + w)
    has the form (a, 2t + D, C), C = (t² + D·t + (D² - D)/4)/a, and is an
    ideal exactly when C is an integer, as w·a = -t·a + a·(t + w) and
    w·(t + w) = (t + D)·(t + w) - C·a.  t -> t + a shifts the form in
    SL₂(Z), so t = (b - D)/2 mod a gives an ideal of the class of (a, b, c).
    (3) An ideal with Hermite basis a', b' + d·w has d | a', d | b' (a'·w
    lies in it), so it is d·J, J = Z·a'/d + Z·(b'/d + w), and N(J) = a'/d
    is a value of the class's forms by (2), so N(J) >= a: a is the least
    norm of an integral ideal in the class, reached only with d = 1.
    (4) The form (a, 2t + D, ·) of an ideal of norm a in the class shifts
    to (a, B, C') with -a < B <= a and C' >= a: reduced, so B = b, unless
    a = C' and B < 0, when (x, y) -> (-y, x) gives (a, -B, a).  So t =
    (b - D)/2 mod a or, when a = c, (-b - D)/2 mod a; the lesser is the
    representative, and sorting by (a, t) orders the classes by norm,
    then by t.  A Lattice and its multiplier ring, which must be O_D, are
    built for the representatives only.  QuadField checks D mod 4 and |D|.
    """
    if disc >= 0:
        raise CaseStudyError("only negative discriminants (imaginary quadratic fields) are supported")
    field = QuadField(disc)
    ideals = []
    for a in range(1, math.isqrt(-disc // 3) + 1):
        for b in range(1 - a, a + 1):
            c, r = divmod(b * b - disc, 4 * a)
            if r == 0 and c >= a and (b >= 0 or c > a) and math.gcd(a, b, c) == 1:
                t = (b - disc) // 2 % a
                ideals.append((a, min(t, (-b - disc) // 2 % a) if a == c else t))
    order = Lattice([[1, 0], [0, 1]])
    reps = [Lattice([[a, 0], [t, 1]]) for a, t in sorted(ideals)]
    if any(multiplier_ring(field, lat) != order for lat in reps):
        raise AssertionError("the multiplier ring of a class representative is not O_D")
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
    from latmod.models import hopf_generators, lie_invariants, lie_model, order_equal_bounded, poly_str, sym_det_defect
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
    # checked by sym_det_defect, so that valuation is 3·v(c·det g) ≡ 0 (mod 3) for
    # every g and c; the observed index 2 has valuation 1.
    diff = sym_det_defect(2)
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
