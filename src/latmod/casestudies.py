"""End-to-end case studies.

1. Imaginary quadratic orders: lattices in F = Q(sqrt(D)) whose multiplier
   ring is the order O_D of discriminant D, counted up to F*-scaling.  The
   count is the class number h(O_D), computed here by exhaustive ideal
   enumeration below the Minkowski bound.  An ideal's norm form is
   primitive exactly when it is proper, and its reduced form keys the
   F*-class (the proper ideal <-> primitive form correspondence, Cohen, A
   Course in Computational Algebraic Number Theory, 5.2-5.4; Cox, Primes
   of the Form x² + ny², Thm. 7.7), so counting is a set lookup.  Every
   D < 0 with D = 0, 1 mod 4 and |D| <= DISC_LIMIT is supported.

2. The rank-1 adjoint group acting on the symmetric square over Z_(2):
   two lattices of index 2 apart generate the same bounded-degree Hopf
   order and the same Lie-lattice invariants, yet lie in different group
   orbits because symmetric squares of pure lattices only produce indices
   with valuation divisible by 3.
"""

import itertools
import math

from latmod.exact import Lattice, transporter, vp


class CaseStudyError(ValueError):
    pass


# Largest |D| accepted by QuadField: over nine D from -99372 to -100000,
# fundamental or not, the slowest class count took 0.04 s in-process and
# 0.17 s as a CLI request (D = -99991, h = 205; 2-vCPU x86-64 host).
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

    def norm(self, x):
        u, v = x
        # N(u + v·w) = (u + v·w)(u + v·w̄), w + w̄ = D, w·w̄ = (D² - D)/4.
        return u * u + u * v * self.disc - v * v * self._c

    def mul_matrix(self, x):
        """Multiplication by the integral x on the basis (1, w), as an
        integer sparse matrix."""
        u, v = x
        m = {(0, 0): u, (0, 1): v * self._c, (1, 0): v, (1, 1): u + v * self.disc}
        return {k: y for k, y in m.items() if y}

    def minkowski_bound(self):
        """An integer above (2/pi)·sqrt(|disc|), a norm within which every
        class of Pic(O_D) contains a proper integral ideal: a class's
        reduced primitive form (a, b, c) gives the proper ideal
        Z·a + Z·(-b + sqrt(D))/2 of norm a <= sqrt(|disc|/3), which is
        below (2/pi)·sqrt(|disc|).  As 333/106 < pi, 212/333 > 2/pi, and
        floor(212/333·sqrt(|disc|)) + 1 is computed in integers."""
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


def _ideals_of_norm(field, n):
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


def _norm_form(field, a, b, d):
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
    q1, q2 = field.norm((a, 0)), field.norm((b, d))
    form = (q1, field.norm((a + b, d)) - q1 - q2, q2)
    A, B, C = (x // n for x in form)
    if any(x % n for x in form) or B * B - 4 * A * C != field.disc:
        raise AssertionError("norm form of an ideal is not integral of discriminant D")
    return A, B, C


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


def class_orbit_count(disc):
    """Number of F*-classes of lattices with multiplier ring O_D, with one
    representative ideal per class: the first ideal of each class in order
    of norm, then of enumeration within a norm.

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

    Ideals of O_D of norm up to the Minkowski bound meet every class.  An
    ideal is proper exactly when its norm form is primitive, and it is
    keyed by the reduced form (`_norm_form`).  A Lattice is built for each
    representative only, and its multiplier ring must be O_D.  The tests
    check the key against a pairwise search for a scaling x with x·I = J
    (`scaling_equivalent` in tests/oracles.py).  QuadField checks D mod 4
    (D = 2, 3 mod 4 is the discriminant of no order) and the limit on |D|.
    """
    if disc >= 0:
        raise CaseStudyError("only negative discriminants (imaginary quadratic fields) are supported")
    field = QuadField(disc)
    classes = {}
    for n in range(1, field.minkowski_bound() + 1):
        for a, b, d in _ideals_of_norm(field, n):
            form = _norm_form(field, a, b, d)
            if math.gcd(*form) == 1:
                classes.setdefault(_reduce_form(*form), (a, b, d))
    order = Lattice([[1, 0], [0, 1]])
    reps = [Lattice([[a, 0], [b, d]]) for a, b, d in classes.values()]
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
