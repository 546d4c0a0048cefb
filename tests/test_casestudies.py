"""Class-number counts for imaginary quadratic fields and the rank-1
symmetric-square report."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from latmod.casestudies import (
    DISC_LIMIT,
    CaseStudyError,
    QuadField,
    class_orbit_count,
    multiplier_ring,
    pgl2_sym2_report,
)
from latmod import casestudies, models
from latmod.exact import Lattice
from latmod.models import _sym_symbolic
from oracles import (
    class_key_by_lattice,
    class_orbit_count_by_ideals,
    ideal_lattices_of_norm,
    ideals_of_norm,
    minkowski_bound,
    norm_form,
    quad_norm,
    reduce_form,
    reduced_forms_count,
    scaling_equivalent,
)


def _is_fundamental(disc):
    """Is disc < 0 the discriminant of a maximal order: no f > 1 with
    disc/f² a discriminant (= 0, 1 mod 4)?"""
    return disc < 0 and disc % 4 in (0, 1) and not any(
        disc % (f * f) == 0 and (disc // (f * f)) % 4 in (0, 1)
        for f in range(2, math.isqrt(-disc) + 1)
    )


# -- field arithmetic ------------------------------------------------------


def test_quadfield_relation():
    f = QuadField(-20)
    # w² = D·w + (D - D²)/4 with D = -20: w² = -20w - 105.
    assert f.mul((0, 1), (0, 1)) == (Fraction(-105), Fraction(-20))


def test_quadfield_norm_multiplicative():
    f = QuadField(-23)
    xs = [(1, 0), (0, 1), (2, -3), (-1, 4), (5, 2)]
    for x in xs:
        for y in xs:
            assert quad_norm(f, f.mul(x, y)) == quad_norm(f, x) * quad_norm(f, y)
    assert quad_norm(f, (1, 0)) == 1


def test_quadfield_norm_positive_definite():
    f = QuadField(-4)
    for u in range(-4, 5):
        for v in range(-4, 5):
            if (u, v) != (0, 0):
                assert quad_norm(f, (u, v)) > 0


def test_quadfield_mul_is_associative():
    # mul is multiplication in Q[w]/(w² - D·w - c), associative for every
    # D: all triples of four sample elements, and seeded random triples
    # with rational coordinates, on every fundamental D with |D| <= 500
    # and on D = -99995.
    rng = random.Random(7)
    samples = [(1, 0), (0, 1), (2, -1), (1, 3)]

    def element():
        return tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(2))

    discs = [d for d in range(-3, -501, -1) if _is_fundamental(d)] + [-99995]
    for disc in discs:
        f = QuadField(disc)
        triples = list(itertools.product(samples, repeat=3))
        triples += [(element(), element(), element()) for _ in range(8)]
        for a, b, c in triples:
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c)), (disc, a, b, c)


def test_quadfield_mul_matrix_matches_mul():
    from latmod.matrixops import sparse_mat_vec

    f = QuadField(-47)
    for x in [(1, 0), (0, 1), (3, -2)]:
        for y in [(1, 1), (-2, 5)]:
            assert tuple(sparse_mat_vec(f.mul_matrix(x), y, 2)) == f.mul(x, y)


def test_quadfield_rejects_bad_disc():
    for d in (5, 0, -3 - 4, -7 + 1):  # -7+1 = -6 = 2 mod 4
        if d % 4 in (0, 1) and d < 0:
            continue
        with pytest.raises(CaseStudyError):
            QuadField(d)


def test_quadfield_range_cap_names_disc_and_limit():
    # Just past the cap, and = 1 mod 4: the range error, not the residue one.
    disc = -(DISC_LIMIT + 3)
    assert disc % 4 == 1
    with pytest.raises(CaseStudyError, match="%d exceeds the supported limit %d" % (-disc, DISC_LIMIT)):
        QuadField(disc)
    QuadField(-DISC_LIMIT)
    QuadField(-10007)


def test_minkowski_bound_in_integers_covers_the_float_bound():
    # 333/106 < pi, so the integer bound is never below int(2/pi·sqrt|D|)
    # + 1, and it is at most 1 above it (first above at |D| = 2075).
    for disc in list(range(-3, -101, -1)) + [-2075, -99995, -DISC_LIMIT]:
        if disc % 4 in (0, 1):
            bound = minkowski_bound(QuadField(disc))
            floats = int(2 * math.sqrt(-disc) / math.pi) + 1
            assert floats <= bound <= floats + 1


# -- multiplier rings -------------------------------------------------------


def test_multiplier_ring_of_maximal_order():
    f = QuadField(-20)
    o = Lattice([[1, 0], [0, 1]])
    assert multiplier_ring(f, o) == o


def test_multiplier_ring_scaling_invariant():
    f = QuadField(-23)
    lat = Lattice([[2, 0], [1, 1]])
    ring = multiplier_ring(f, lat)
    assert multiplier_ring(f, lat.scale(Fraction(3, 7))) == ring


def test_multiplier_ring_of_suborder():
    # Z + 2Zw has multiplier ring Z + 2Zw (it is a ring).
    f = QuadField(-20)
    sub = Lattice([[1, 0], [0, 2]])
    assert multiplier_ring(f, sub) == sub


def test_multiplier_ring_brute_force_oracle():
    # Independent check on a small denominator grid.
    f = QuadField(-8)
    lat = Lattice([[3, 0], [1, 1]])
    ring = multiplier_ring(f, lat)
    for un in range(-6, 7):
        for vn in range(-6, 7):
            for den in (1, 2, 3):
                x = (Fraction(un, den), Fraction(vn, den))
                stable = all(
                    lat.member(f.mul(x, col)) for col in lat.basis
                )
                assert ring.member(x) == stable


# -- class counts -----------------------------------------------------------


EXPECTED = {-4: 1, -8: 1, -20: 2, -23: 3, -47: 5, -479: 25}


def test_reduced_forms_oracle_frozen():
    for disc, h in EXPECTED.items():
        assert reduced_forms_count(disc) == h


@pytest.mark.parametrize("disc", sorted(EXPECTED))
def test_class_orbit_count_matches_forms_oracle(disc):
    count, reps = class_orbit_count(disc)
    assert count == reduced_forms_count(disc)
    assert len(reps) == count
    # Representatives are pairwise inequivalent ideals with maximal
    # multiplier ring.
    f = QuadField(disc)
    maximal = Lattice([[1, 0], [0, 1]])
    for lat in reps:
        assert multiplier_ring(f, lat) == maximal


ORDER = Lattice([[1, 0], [0, 1]])


def _discs_to(limit):
    """Every discriminant of an imaginary quadratic order down to limit."""
    return [disc for disc in range(-3, limit - 1, -1) if disc % 4 in (0, 1)]


def test_ideals_of_norm_match_the_lattice_enumeration():
    # The closed-form test gives exactly the Hermite lattices that are
    # stable under w, in the same order, for every norm up to the
    # Minkowski bound of every order down to -1000.
    for disc in _discs_to(-1000):
        f = QuadField(disc)
        for n in range(1, minkowski_bound(f) + 1):
            ideals = [Lattice([[a, 0], [b, d]]) for a, b, d in ideals_of_norm(f, n)]
            assert ideals == ideal_lattices_of_norm(f, n), (disc, n)


def test_norm_form_content_is_the_multiplier_ring_index():
    # The content of the norm form is [O : O_D] for the multiplier ring O,
    # and on a proper ideal the reduced form is the class key read off the
    # canonical basis of its lattice.
    for disc in _discs_to(-1000):
        f = QuadField(disc)
        for n in range(1, minkowski_bound(f) + 1):
            for a, b, d in ideals_of_norm(f, n):
                ideal = Lattice([[a, 0], [b, d]])
                form = norm_form(f, a, b, d)
                assert math.gcd(*form) == ORDER.index_in(multiplier_ring(f, ideal)), (disc, a, b, d)
                if math.gcd(*form) == 1:
                    assert reduce_form(*form) == class_key_by_lattice(f, ideal), (disc, a, b, d)


def _proper_ideals(disc):
    """The proper ideals below the Minkowski bound, by the multiplier ring
    of each lattice, with their class keys."""
    f = QuadField(disc)
    ideals, keys = [], []
    for n in range(1, minkowski_bound(f) + 1):
        for a, b, d in ideals_of_norm(f, n):
            ideal = Lattice([[a, 0], [b, d]])
            if multiplier_ring(f, ideal) == ORDER:
                ideals.append(ideal)
                keys.append(reduce_form(*norm_form(f, a, b, d)))
    return f, ideals, keys


@pytest.mark.parametrize("disc", [-20, -23, -47, -71, -63, -99])
def test_class_key_matches_scaling_oracle(disc):
    # -63 = 3²·(-7) and -99 = 3²·(-11) are non-maximal orders.
    f, ideals, keys = _proper_ideals(disc)
    for i, ideal in enumerate(ideals):
        for j in range(i + 1, len(ideals)):
            assert (keys[i] == keys[j]) == scaling_equivalent(f, ideal, ideals[j])
    assert len(set(keys)) == reduced_forms_count(disc)


@pytest.mark.parametrize("disc", [-23, -47])
def test_class_key_separates_conjugate_classes(disc):
    # Some class differs from its conjugate's, whose key is (a, -b, c):
    # reducing under GL2(Z), or flipping the orientation of one basis,
    # would merge them.
    _, _, keys = _proper_ideals(disc)
    keys = set(keys)
    assert any(b != 0 and (a, -b, c) in keys for a, b, c in keys)


def test_reduce_form_is_reduced_and_sl2_invariant():
    # Images of reduced forms under (x, y) -> (p·x + q·y, r·x + s·y) with
    # ps - qr = 1 reduce back to the same form.
    for a, b, c in [(1, 1, 6), (2, 1, 3), (2, -1, 3), (3, 1, 4), (2, 2, 3), (5, 5, 6)]:
        assert reduce_form(a, b, c) == (a, b, c)
        for p_, q, r, s_ in [(1, 3, 0, 1), (2, 1, 1, 1), (0, -1, 1, 0), (5, 2, 7, 3), (-3, 4, 2, -3)]:
            assert p_ * s_ - q * r == 1
            a2 = a * p_ * p_ + b * p_ * r + c * r * r
            c2 = a * q * q + b * q * s_ + c * s_ * s_
            b2 = 2 * a * p_ * q + b * (p_ * s_ + q * r) + 2 * c * r * s_
            assert reduce_form(a2, b2, c2) == (a, b, c)


def test_class_orbit_count_matches_the_ideal_search():
    # The reduced forms give the count and the representatives, in order,
    # of the search below the Minkowski bound, for every order down to
    # -2000: the least norm in each class, then the least t.
    for disc in _discs_to(-2000):
        assert class_orbit_count(disc) == class_orbit_count_by_ideals(disc), disc


@pytest.mark.parametrize("disc", [-47, -63, -71, -95, -99, -119])
def test_representatives_are_pairwise_inequivalent(disc):
    # No scaling x joins two representatives: a check independent of
    # reduced forms.
    f = QuadField(disc)
    _, reps = class_orbit_count(disc)
    for i, lat in enumerate(reps):
        for other in reps[i + 1 :]:
            assert not scaling_equivalent(f, lat, other), (disc, lat.basis, other.basis)


def test_only_class_representatives_are_built_and_checked(monkeypatch):
    # class_orbit_count builds a Lattice and computes a multiplier ring for
    # each class representative only (and builds O_D once), and every
    # representative's ring must be O_D: a ring that is not fails loudly.
    built, rings = [], []

    def lattice(cols):
        built.append(cols)
        return Lattice(cols)

    def ring(field, lat):
        rings.append(lat)
        return multiplier_ring(field, lat)

    monkeypatch.setattr(casestudies, "Lattice", lattice)
    monkeypatch.setattr(casestudies, "multiplier_ring", ring)
    for disc in (-23, -63, -479, -2075):
        built.clear()
        rings.clear()
        count, reps = class_orbit_count(disc)
        assert count == reduced_forms_count(disc)
        assert rings == reps and len(built) == count + 1
    monkeypatch.setattr(casestudies, "multiplier_ring", lambda field, lat: lat)
    with pytest.raises(AssertionError, match="multiplier ring"):
        class_orbit_count(-23)


def test_class_count_of_non_maximal_order():
    # -12 = 2²·(-3): Z[sqrt(-3)] has class number 1, the order itself.
    assert class_orbit_count(-12) == (1, [Lattice([[1, 0], [0, 1]])])


def test_class_count_matches_primitive_forms_for_every_order():
    # Every discriminant of an imaginary quadratic order down to -1000,
    # fundamental or not.
    for disc in _discs_to(-1000):
        assert class_orbit_count(disc)[0] == reduced_forms_count(disc), disc


def _kronecker(d, p):
    """The Kronecker symbol (d/p) for a prime p."""
    if p == 2:
        return 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    r = pow(d % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def test_class_count_matches_cox_formula():
    # h(O_f) = h(O_K)·f / [O_K* : O_f*] · prod_(p | f) (1 - (D/p)/p) for the
    # order of conductor f in the field of fundamental discriminant D
    # (Cox, Primes of the Form x² + ny², Thm. 7.24); the unit index is 3
    # for D = -3, 2 for D = -4 and 1 otherwise.
    orders = 0
    for disc in (-3, -4, -7, -8, -11, -15, -19, -20, -23, -24, -39, -47, -84, -163):
        assert _is_fundamental(disc)
        h = class_orbit_count(disc)[0]
        units = {-3: 3, -4: 2}.get(disc, 1)
        for f in range(2, 16):
            if f * f * -disc > 5000:
                break
            expected = Fraction(h * f, units)
            for p in range(2, f + 1):
                if f % p == 0 and all(p % q for q in range(2, p)):
                    expected *= 1 - Fraction(_kronecker(disc, p), p)
            assert class_orbit_count(f * f * disc)[0] == expected, (disc, f)
            orders += 1
    assert orders == 167


@pytest.mark.parametrize("disc", [-1, -5, -6])
def test_class_count_rejects_discriminants_of_no_order(disc):
    # D = 2 or 3 mod 4 is the discriminant of no quadratic order: QuadField
    # names the residue.
    with pytest.raises(CaseStudyError, match="^expected a negative discriminant = 0,1 mod 4$") as err:
        class_orbit_count(disc)
    assert "out of scope" not in str(err.value)


@pytest.mark.parametrize("disc", [5, 0])
def test_class_count_rejects_non_negative_discriminants(disc):
    # 5 is the fundamental discriminant of a real quadratic field, and 0
    # of none: a sign this module does not handle.
    with pytest.raises(CaseStudyError, match="^only negative discriminants") as err:
        class_orbit_count(disc)
    assert "out of scope" not in str(err.value)


# -- symmetric-square report --------------------------------------------------


@pytest.fixture(scope="module")
def report():
    return pgl2_sym2_report()


def test_report_passes(report):
    assert report["status"] == "pass"
    assert all(a["pass"] for a in report["assertions"].values())


def test_report_assertion_names(report):
    assert set(report["assertions"]) == {
        "hopf_orders_equal",
        "quotient_order",
        "purity_obstruction",
        "lie_invariants_agree",
    }


def test_report_details(report):
    a = report["assertions"]
    assert a["quotient_order"]["index"] == 2
    assert a["hopf_orders_equal"]["certificates"] > 0
    assert a["purity_obstruction"]["observed_index_valuation"] == 1
    assert a["lie_invariants_agree"]["invariants"] == {
        "killing_divisors": ["2", "4", "4"],
        "bracket_divisors": ["1", "1", "2"],
    }


def test_purity_obstruction_is_the_determinant_identity(report, monkeypatch):
    # The check proves det Sym²(g) = det(g)³ from the symbolic Sym² matrix;
    # with one corrupted entry the identity fails and the report says so.
    # The report reads the matrix through models.sym_det_defect when it runs.
    assert report["assertions"]["purity_obstruction"]["witness"] is None
    good = _sym_symbolic(2)
    for i, j in ((1, 1), (0, 2), (2, 0)):
        bad = [list(row) for row in good]
        bad[i][j] = {e: 2 * c for e, c in good[i][j].items()}
        monkeypatch.setattr(models, "_sym_symbolic", lambda n: tuple(map(tuple, bad)))
        out = casestudies.pgl2_sym2_report()
        purity = out["assertions"]["purity_obstruction"]
        assert out["status"] == "fail" and not purity["pass"]
        assert purity["witness"]
