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
    _class_key,
    _ideal_lattices_of_norm,
    _reduce_form,
    class_orbit_count,
    is_fundamental,
    multiplier_ring,
    pgl2_sym2_report,
)
from latmod import casestudies, models
from latmod.exact import Lattice
from latmod.models import _sym2_symbolic
from oracles import reduced_forms_count, scaling_equivalent


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
            assert f.norm(f.mul(x, y)) == f.norm(x) * f.norm(y)
    assert f.norm((1, 0)) == 1


def test_quadfield_norm_positive_definite():
    f = QuadField(-4)
    for u in range(-4, 5):
        for v in range(-4, 5):
            if (u, v) != (0, 0):
                assert f.norm((u, v)) > 0


def test_quadfield_mul_is_associative():
    # mul is multiplication in Q[w]/(w² - D·w - c), associative for every
    # D: all triples of four sample elements, and seeded random triples
    # with rational coordinates, on every fundamental D with |D| <= 500
    # and on D = -99995.
    rng = random.Random(7)
    samples = [(1, 0), (0, 1), (2, -1), (1, 3)]

    def element():
        return tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(2))

    discs = [d for d in range(-3, -501, -1) if is_fundamental(d)] + [-99995]
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
            bound = QuadField(disc).minkowski_bound()
            floats = int(2 * math.sqrt(-disc) / math.pi) + 1
            assert floats <= bound <= floats + 1


def test_is_fundamental():
    assert is_fundamental(-4) and is_fundamental(-8)
    assert is_fundamental(-20) and is_fundamental(-23) and is_fundamental(-47)
    assert not is_fundamental(-12)  # -12 = 4·(-3), order of conductor 2
    assert not is_fundamental(-16)
    assert not is_fundamental(-9)


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


def _maximal_ideals(disc):
    f = QuadField(disc)
    maximal = Lattice([[1, 0], [0, 1]])
    return f, [
        ideal
        for n in range(1, f.minkowski_bound() + 1)
        for ideal in _ideal_lattices_of_norm(f, n)
        if multiplier_ring(f, ideal) == maximal
    ]


@pytest.mark.parametrize("disc", [-20, -23, -47, -71])
def test_class_key_matches_scaling_oracle(disc):
    f, ideals = _maximal_ideals(disc)
    keys = [_class_key(f, ideal) for ideal in ideals]
    for i, ideal in enumerate(ideals):
        for j in range(i + 1, len(ideals)):
            assert (keys[i] == keys[j]) == scaling_equivalent(f, ideal, ideals[j])
    assert len(set(keys)) == reduced_forms_count(disc)


@pytest.mark.parametrize("disc", [-23, -47])
def test_class_key_separates_conjugate_classes(disc):
    # Some class differs from its conjugate's, whose key is (a, -b, c):
    # reducing under GL2(Z), or flipping the orientation of one basis,
    # would merge them.
    f, ideals = _maximal_ideals(disc)
    keys = {_class_key(f, ideal) for ideal in ideals}
    assert any(b != 0 and (a, -b, c) in keys for a, b, c in keys)


def test_reduce_form_is_reduced_and_sl2_invariant():
    # Images of reduced forms under (x, y) -> (p·x + q·y, r·x + s·y) with
    # ps - qr = 1 reduce back to the same form.
    for a, b, c in [(1, 1, 6), (2, 1, 3), (2, -1, 3), (3, 1, 4), (2, 2, 3), (5, 5, 6)]:
        assert _reduce_form(a, b, c) == (a, b, c)
        for p_, q, r, s_ in [(1, 3, 0, 1), (2, 1, 1, 1), (0, -1, 1, 0), (5, 2, 7, 3), (-3, 4, 2, -3)]:
            assert p_ * s_ - q * r == 1
            a2 = a * p_ * p_ + b * p_ * r + c * r * r
            c2 = a * q * q + b * q * s_ + c * s_ * s_
            b2 = 2 * a * p_ * q + b * (p_ * s_ + q * r) + 2 * c * r * s_
            assert _reduce_form(a2, b2, c2) == (a, b, c)


def test_every_ideal_has_the_maximal_order_as_multiplier_ring(monkeypatch):
    # class_orbit_count asserts it on every ideal below the Minkowski
    # bound; sweep the fundamental D down to -300 against the forms oracle.
    for disc in range(-3, -301, -1):
        if is_fundamental(disc):
            assert class_orbit_count(disc)[0] == reduced_forms_count(disc)
    monkeypatch.setattr(casestudies, "multiplier_ring", lambda field, lat: lat)
    with pytest.raises(AssertionError, match="multiplier ring"):
        class_orbit_count(-23)


def test_class_count_rejects_non_fundamental():
    with pytest.raises(CaseStudyError, match="out of scope"):
        class_orbit_count(-12)


@pytest.mark.parametrize("disc", [-1, -5, -6])
def test_class_count_rejects_discriminants_of_no_order(disc):
    # D = 2 or 3 mod 4 is the discriminant of no quadratic order, so no
    # order is out of scope: QuadField names the residue.
    with pytest.raises(CaseStudyError, match="^expected a negative discriminant = 0,1 mod 4$") as err:
        class_orbit_count(disc)
    assert "out of scope" not in str(err.value)


@pytest.mark.parametrize("disc", [5, 0])
def test_class_count_rejects_non_negative_discriminants(disc):
    # 5 is the fundamental discriminant of a real quadratic field, and 0
    # of none: neither is an order out of scope, but a sign this module
    # does not handle.
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
    # The report imports the matrix from models when it runs.
    assert report["assertions"]["purity_obstruction"]["witness"] is None
    good = _sym2_symbolic()
    for i, j in ((1, 1), (0, 2), (2, 0)):
        bad = [list(row) for row in good]
        bad[i][j] = {e: 2 * c for e, c in good[i][j].items()}
        monkeypatch.setattr(models, "_sym2_symbolic", lambda: tuple(map(tuple, bad)))
        out = casestudies.pgl2_sym2_report()
        purity = out["assertions"]["purity_obstruction"]
        assert out["status"] == "fail" and not purity["pass"]
        assert purity["witness"]
