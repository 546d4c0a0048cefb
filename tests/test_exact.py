"""Exact lattice arithmetic: canonical forms, distance metric, enumeration.

Oracles used here are independent of the implementation paths they check:
brute-force membership boxes for HNF/intersection, a direct two-containment
search for the distance formula, a closure-based subgroup counter for
enumerate_between, the two canonicalisers that _canonical replaced, the
Fraction forward substitutions that hermite_coords replaced, and the
Fraction-basis dual, sum, scale, apply, intersect, transporter and
distance that Lattice.coordinates and the integer columns replaced, and
the whole-space Hermite assembly of a direct sum that Lattice.from_blocks
replaced.
"""

import itertools
import random
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmod import exact
from latmod.exact import (
    ElementaryDivisors,
    Lattice,
    LatticeError,
    PRIME_BOUND,
    ZSpan,
    _canonical,
    distance,
    enumerate_between,
    is_prime,
    snf,
    transporter,
    vp,
)
from latmod.matrixops import clear_denominators, identity, mat_mul, primitive, sparse
from oracles import (
    apply_by_fractions,
    canonical_global,
    canonical_local_full,
    det,
    direct_sum_by_hermite,
    distance_by_inverse,
    dual_by_inverse,
    index_by_pivot_products,
    intersect_by_fractions,
    is_prime_by_trial_division,
    lattice_coords,
    lattice_member,
    mat,
    scale_by_fractions,
    subgroup_count_of_quotient,
    sum_by_fractions,
    transporter_by_inverse,
    vp_by_division,
    zspan_member,
)


def standard_lattice(n, prime=None):
    return Lattice(identity(n), prime)


def rnd_lattice(rng, n, prime=None, span=4):
    while True:
        cols = [[rng.randint(-span, span) for _ in range(n)] for _ in range(n)]
        try:
            return Lattice(cols, prime)
        except LatticeError:
            continue


def box_members(lat, radius):
    """All integer vectors in [-radius, radius]^n lying in lat."""
    n = lat.ambient
    out = []
    for v in itertools.product(range(-radius, radius + 1), repeat=n):
        if lat.member(v):
            out.append(v)
    return out


# -- hnf ----------------------------------------------------------------


def test_is_prime_matches_trial_division():
    # Miller–Rabin on the first 13 primes against trial division, and on
    # strong pseudoprimes to the bases 2; 2, 3, 5, 7; and 2 to 23.
    assert all(is_prime(n) == is_prime_by_trial_division(n) for n in range(-2, 10**5))
    assert not any(map(is_prime, (2047, 3215031751, 3825123056546413051)))
    assert all(map(is_prime, (2**31 - 1, 100000000000031, 2**61 - 1)))
    assert not is_prime((2**61 - 1) * (2**19 - 1))


def test_primes_past_the_bound_are_refused():
    # Past the Sorenson–Webster bound 13 bases no longer decide primality.
    assert is_prime(PRIME_BOUND - 2) == is_prime_by_trial_division(PRIME_BOUND - 2)
    for n in (PRIME_BOUND, 2**127 - 1):
        with pytest.raises(LatticeError, match="primality is decided only below %d" % PRIME_BOUND):
            is_prime(n)
    with pytest.raises(LatticeError, match="below %d" % PRIME_BOUND):
        Lattice([[1]], prime=2**127 - 1)


def test_hnf_identity():
    assert Lattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).basis_matrix() == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    )


def test_hnf_index_two_covolume():
    # The covolume of a sublattice of Z^2 is its index, the quotient of
    # pivot products that index_in reads: count residues of Z^2 mod the
    # lattice by brute force over one fundamental box.
    lat = Lattice([[2, 0], [1, 1]])
    assert lat.index_in(standard_lattice(2)) == 2
    residues = set()
    for v in itertools.product(range(8), repeat=2):
        for r in list(residues):
            if lat.member([a - b for a, b in zip(v, r)]):
                break
        else:
            residues.add(v)
    assert len(residues) == 2


def test_hnf_redundant_generators():
    assert Lattice([[1, 0], [0, 1], [1, 1]]) == standard_lattice(2)


def test_hnf_generator_set_independence():
    rng = random.Random(7)
    for _ in range(25):
        lat = rnd_lattice(rng, 3)
        # Rebuild from random small integer combinations of the basis.
        while True:
            coeffs = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(4)]
            gens = [
                [
                    sum(Fraction(c[j]) * lat.basis[j][i] for j in range(3))
                    for i in range(3)
                ]
                for c in coeffs
            ]
            try:
                lat2 = Lattice(gens)
            except LatticeError:
                continue
            if lat.contains(lat2) and lat2.contains(lat):
                assert lat2 == lat
                break


def test_hnf_membership_box_oracle():
    rng = random.Random(11)
    for _ in range(10):
        lat = rnd_lattice(rng, 2, span=3)
        # x in lat iff adjoining x does not change the canonical form.
        for v in itertools.product(range(-3, 4), repeat=2):
            grown = Lattice(list(lat.basis) + [list(v)])
            assert lat.member(v) == (grown == lat)


def test_hnf_degenerate():
    with pytest.raises(LatticeError, match="degenerate basis"):
        Lattice([[1, 2], [2, 4]])


def test_hnf_idempotent():
    rng = random.Random(3)
    for _ in range(20):
        lat = rnd_lattice(rng, 3)
        assert Lattice(lat.basis) == lat


# -- snf ----------------------------------------------------------------


def test_snf_examples():
    assert list(snf([[1, 0], [0, 1]])) == [1, 1]
    assert list(snf([[2, 1], [0, 2]])) == [1, 4]
    assert list(snf([[2, 0], [0, 4]])) == [2, 4]


def test_snf_chain_and_det():
    rng = random.Random(5)
    for _ in range(30):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        divs = list(snf(rows))
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0
        d = det(mat(rows))
        if d != 0:
            prod = 1
            for x in divs:
                prod *= x
            assert prod == abs(d)


def test_elementary_divisors_validation():
    with pytest.raises(LatticeError):
        ElementaryDivisors([2, 3])
    assert list(ElementaryDivisors([1, 2, 4])) == [1, 2, 4]


# -- sum / intersect / index / member ------------------------------------


def test_intersect_example():
    a = Lattice([[2, 0], [0, 1]])
    b = Lattice([[1, 0], [0, 2]])
    assert a.intersect(b) == Lattice([[2, 0], [0, 2]])


def test_intersect_box_oracle():
    rng = random.Random(13)
    for _ in range(10):
        a = rnd_lattice(rng, 2, span=3)
        b = rnd_lattice(rng, 2, span=3)
        c = a.intersect(b)
        for v in itertools.product(range(-4, 5), repeat=2):
            assert c.member(v) == (a.member(v) and b.member(v))
        s = a.sum(b)
        # Sum contains both and is contained in anything containing both.
        assert s.contains(a) and s.contains(b)
        assert s.contains(c)


def test_sum_idempotent():
    lat = Lattice([[2, 1], [0, 3]])
    assert lat.sum(lat) == lat


def test_index_scalar():
    assert standard_lattice(2).scale(2).index_in(standard_lattice(2)) == 4


def test_index_multiplicative():
    rng = random.Random(17)
    for _ in range(20):
        c = rnd_lattice(rng, 3, span=2)
        b = c.scale(rng.choice([1, 2, 3]))
        a = b.scale(rng.choice([1, 2]))
        assert a.index_in(c) == a.index_in(b) * b.index_in(c)


def test_local_index_matches_the_pivot_product_quotient():
    # sub is spanned by random integer combinations of sup's basis, so it
    # lies in sup; the combinations sometimes take a factor of p.
    rng = random.Random(23)
    for _ in range(150):
        p, n = rng.choice([2, 3, 5]), rng.randint(1, 4)
        sup = rnd_lattice(rng, n, p).scale(Fraction(rng.randint(1, 30), rng.randint(1, 30)))
        while True:
            m = [[rng.randint(-3, 3) * rng.choice([1, 1, p]) for _ in range(n)] for _ in range(n)]
            if det(m):
                break
        sub = Lattice([[sum(c[k] * b[i] for k, b in enumerate(sup.basis)) for i in range(n)] for c in m], p)
        assert sub.index_in(sup) == index_by_pivot_products(sub, sup)


def test_local_index_takes_no_quotient(monkeypatch):
    # Over Z_(p) the index is p to a difference of pivot valuations; over Z
    # it is the quotient of the pivot products, one matrixops.ratio.
    real, calls = exact.ratio, []

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(exact, "ratio", counted)
    for p, index, quotients in ((2, 4, 0), (3, 1, 0), (None, 4, 1)):
        calls.clear()
        assert standard_lattice(2, p).scale(2).index_in(standard_lattice(2, p)) == index
        assert len(calls) == quotients


def test_modular_identity():
    rng = random.Random(19)
    for _ in range(20):
        lam = rnd_lattice(rng, 3, span=2)
        m = rnd_lattice(rng, 3, span=2)
        assert lam.intersect(lam.sum(m)) == lam
        assert lam.sum(lam.intersect(m)) == lam


def test_mismatch_errors():
    with pytest.raises(LatticeError):
        standard_lattice(2).sum(standard_lattice(3))
    with pytest.raises(LatticeError):
        standard_lattice(2).sum(standard_lattice(2, prime=2))
    with pytest.raises(LatticeError):
        standard_lattice(2).index_in(standard_lattice(2).scale(2))


# -- local canonical form -------------------------------------------------


def test_local_units_collapse():
    assert Lattice([[3, 0], [0, 5]], prime=2) == standard_lattice(2, prime=2)
    assert Lattice([[Fraction(1, 3), 0], [0, 1]], prime=2) == standard_lattice(2, prime=2)


def test_local_equality_is_mutual_containment():
    rng = random.Random(23)
    for _ in range(40):
        p = rng.choice([2, 3, 5])
        a = rnd_lattice(rng, 2, prime=p, span=3)
        b = rnd_lattice(rng, 2, prime=p, span=3)
        same = a.contains(b) and b.contains(a)
        assert (a == b) == same


def test_local_member_units():
    lat = standard_lattice(2, prime=2)
    assert lat.member([Fraction(1, 3), Fraction(2, 5)])
    assert not lat.member([Fraction(1, 2), 0])


# -- distance --------------------------------------------------------------


def distance_oracle(a, b, bound=12):
    """Defining search: minimal n with p^n·a ⊆ b, maximal m with b ⊆ p^m·a."""
    p = a.prime
    n = None
    for k in range(-bound, bound + 1):
        if b.contains(a.scale(Fraction(p) ** k)):
            n = k
            break
    m = None
    for k in range(bound, -bound - 1, -1):
        if a.scale(Fraction(p) ** k).contains(b):
            m = k
            break
    assert n is not None and m is not None
    return n - m


def test_distance_examples():
    lat = standard_lattice(2, prime=2)
    assert distance(lat, lat) == 0
    assert distance(lat, lat.scale(2)) == 0
    assert distance(lat, Lattice([[1, 0], [0, 4]], prime=2)) == 2


def test_distance_formula_vs_containment_search():
    rng = random.Random(29)
    for _ in range(60):
        p = rng.choice([2, 3, 5])
        n = rng.choice([1, 2, 3])
        a = rnd_lattice(rng, n, prime=p, span=4)
        b = rnd_lattice(rng, n, prime=p, span=4)
        assert distance(a, b) == distance_oracle(a, b)


def test_distance_metric_axioms():
    rng = random.Random(31)
    triples = 0
    while triples < 100:
        p = rng.choice([2, 3, 5])
        n = rng.choice([2, 3, 4])
        a = rnd_lattice(rng, n, prime=p, span=3)
        b = rnd_lattice(rng, n, prime=p, span=3)
        c = rnd_lattice(rng, n, prime=p, span=3)
        dab, dbc, dac = distance(a, b), distance(b, c), distance(a, c)
        assert dab >= 0
        assert dab == distance(b, a)
        assert dac <= dab + dbc
        # Identity of indiscernibles up to p-power scaling.
        if dab == 0:
            assert any(
                a.scale(Fraction(p) ** k) == b for k in range(-10, 11)
            )
        assert distance(a, a.scale(Fraction(p) ** rng.randint(-3, 3))) == 0
        triples += 1


# -- enumerate_between ------------------------------------------------------


def test_enumerate_between_trivial():
    lat = standard_lattice(2, prime=2)
    assert enumerate_between(lat, lat) == [lat]


def test_enumerate_between_examples():
    z2 = standard_lattice(2, prime=2)
    mids = enumerate_between(z2.scale(2), z2)
    assert len(mids) == 5
    z1 = standard_lattice(1)
    assert len(enumerate_between(z1.scale(4), z1)) == 3


def test_enumerate_between_unique_and_bounded():
    rng = random.Random(37)
    for _ in range(10):
        p = rng.choice([2, 3])
        high = rnd_lattice(rng, 2, prime=p, span=2)
        low = high.scale(p ** rng.choice([1, 2]))
        mids = enumerate_between(low, high)
        assert len(set(mids)) == len(mids)
        for m in mids:
            assert high.contains(m) and m.contains(low)


def _check_between_exact(low_gens, high):
    """enumerate_between(low, high) against three oracles that together pin
    the output set: every output lies between low and high, the outputs
    are distinct, and their number is the subgroup count of the quotient,
    whose divisors are the (p-parts of the) Smith divisors of the
    generators of low written in the basis of high."""
    p = high.prime
    low = Lattice(low_gens, p)
    mids = enumerate_between(low, high)
    assert len(set(mids)) == len(mids)
    for m in mids:
        assert high.contains(m) and m.contains(low)
    coords = [lattice_coords(high, g) for g in low_gens]
    divs = [int(d) if p is None else p ** vp(d, p) for d in snf(list(zip(*coords)))]
    assert len(mids) == subgroup_count_of_quotient(divs)


def test_subgroup_count_of_quotient_known_values():
    known = {
        (8,): 4,
        (2, 2): 5,
        (4, 4): 15,
        (2, 2, 2): 16,
        (3, 3, 3): 28,
        (2, 4, 8): 81,
        (4, 4, 4): 129,
        (2, 8, 8): 140,
    }
    for divs, count in known.items():
        assert subgroup_count_of_quotient(divs) == count


def test_enumerate_between_count_oracle():
    # Diagonal quotients over Z.
    for divs in ([2, 2], [1, 4], [2, 4], [3, 3], [1, 8]):
        n = len(divs)
        _check_between_exact(
            [[divs[j] if i == j else 0 for i in range(n)] for j in range(n)],
            standard_lattice(n, prime=None),
        )
    # Non-diagonal low, over Z and over Z_(p).
    for gens, p in (
        ([[2, 1], [0, 4]], None),
        ([[4, 2, 1], [0, 2, 1], [0, 0, 3]], None),
        ([[2, 1], [0, 4]], 2),
        ([[3, 1, 0], [0, 9, 2], [1, 0, 3]], 3),
    ):
        _check_between_exact(gens, standard_lattice(len(gens), prime=p))
    # Local lattices whose index has a prime-to-p part.
    for gens, p in (
        ([[6, 0], [0, 4]], 2),
        ([[6, 0], [2, 9]], 3),
        ([[10, 0, 0], [3, 12, 0], [1, 1, 14]], 2),
        ([[15, 5], [0, 18]], 3),
    ):
        _check_between_exact(gens, standard_lattice(len(gens), prime=p))
    # Random low ⊆ high over Z_(2) and Z_(3) in rank 2-3, quotient ≤ 2^10:
    # low's coordinates in high are U·diag(p^a_i)·V for random U, V.
    rng = random.Random(53)
    checked = 0
    while checked < 30:
        p = rng.choice([2, 3])
        n = rng.choice([2, 3])
        high = rnd_lattice(rng, n, prime=p, span=3)
        u, v = ([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)] for _ in "uv")
        dg = [[p ** rng.randint(0, 2) if i == j else 0 for j in range(n)] for i in range(n)]
        t = mat_mul(mat_mul(mat(u), dg), v)
        d = det(t)
        if d == 0 or p ** vp(d, p) > 2**10:
            continue
        gens = [[sum(c[k] * high.basis[k][r] for k in range(n)) for r in range(n)] for c in t]
        _check_between_exact(gens, high)
        checked += 1


def test_enumerate_between_errors():
    z = standard_lattice(2)
    with pytest.raises(LatticeError):
        enumerate_between(z, z.scale(2))


# -- serialization ----------------------------------------------------------


def test_json_roundtrip():
    rng = random.Random(41)
    for prime in (None, 2, 5):
        lat = rnd_lattice(rng, 3, prime=prime)
        for scaled in (lat, lat.scale(Fraction(-5, 12))):
            assert Lattice.from_json(scaled.to_json()) == scaled
            # The strings are the Fraction entries of the basis, "0" too.
            rows = [[str(x) for x in row] for row in scaled.basis_matrix()]
            assert scaled.to_json_obj()["basis"] == rows
    obj = standard_lattice(2, prime=3).to_json_obj()
    assert obj["ring"] == {"Zp": 3}
    assert standard_lattice(2).to_json_obj()["ring"] == "Z"


# -- ZSpan -------------------------------------------------------------------


def test_zspan_membership():
    sp = ZSpan([[2, 0, 2], [0, 3, 3]], 3)
    assert len(sp.columns) == 2
    assert zspan_member(sp, [2, 3, 5])
    assert not zspan_member(sp, [1, 0, 1])
    assert not zspan_member(sp, [0, 0, 1])
    assert len(ZSpan([], 3).columns) == 0 and zspan_member(ZSpan([[0, 0, 0]], 3), [0, 0, 0])


# -- hypothesis property tests ------------------------------------------------


small_col = st.lists(st.integers(-6, 6), min_size=2, max_size=2)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_col, min_size=2, max_size=4))
def test_hnf_canonical_under_append(cols):
    try:
        lat = Lattice(cols)
    except LatticeError:
        return
    v = [sum(Fraction(x) for x in xs) for xs in zip(*lat.basis)]
    assert Lattice(list(lat.basis) + [v]) == lat


@settings(max_examples=60, deadline=None)
@given(
    st.lists(small_col, min_size=2, max_size=2),
    st.lists(small_col, min_size=2, max_size=2),
)
def test_sum_absorbs_intersection(c1, c2):
    try:
        a = Lattice(c1)
        b = Lattice(c2)
    except LatticeError:
        return
    i = a.intersect(b)
    s = a.sum(b)
    assert a.sum(i) == a
    assert a.intersect(s) == a
    assert i.index_in(a) * a.index_in(s) == i.index_in(b) * b.index_in(s)


# Entries with p-power and prime-to-p denominators for p = 2, 3, 5.
rational = st.builds(
    Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 25])
)


@st.composite
def generator_sets(draw):
    """(cols, n): up to n + 2 columns in Q^n, so some sets are degenerate
    (too few columns, zero or dependent columns)."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, n + 2))
    cols = draw(st.lists(st.lists(rational, min_size=n, max_size=n), min_size=k, max_size=k))
    if draw(st.booleans()):
        cols.append([2 * x for x in cols[0]])
    return cols, n


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LatticeError as e:
        return ("LatticeError", str(e))


@settings(max_examples=300, deadline=None)
@given(generator_sets(), st.sampled_from([None, 2, 3, 5]))
def test_canonical_matches_the_two_old_canonicalisers(gens, p):
    cols, n = gens

    def canonical(cols, n, p=None):
        d, ints = _canonical(*clear_denominators(cols), n, p)
        return [tuple(Fraction(x, d) for x in col) for col in ints]

    if p is None:
        expect = canonical_global(cols, n)
        assert canonical(cols, n) == expect
        if len(expect) < n:
            expect = ("LatticeError", "degenerate basis")
    else:
        expect = _outcome(canonical_local_full, cols, n, p)
        assert _outcome(canonical, cols, n, p) == expect
    assert _outcome(lambda: list(Lattice(cols, p).basis)) == expect


def test_vp():
    assert vp(Fraction(8, 3), 2) == 3
    assert vp(Fraction(3, 8), 2) == -3
    assert vp(5, 5) == 1
    with pytest.raises(ValueError):
        vp(0, 2)
    # Against one division per unit: ints of both signs and Fractions built
    # from a numerator and a denominator both divisible by p, one valuation
    # in ten up to 5,000.
    rng = random.Random(4501)
    for p in (2, 3, 7, 101):
        for n in range(60):
            top = 5000 if n % 10 == 0 else 300
            a, b = rng.randint(0, top), rng.randint(1, top)
            u, w = rng.randrange(1, 10**9), rng.randrange(1, 10**9)
            fractions = Fraction(p**a * u, p**b * w), Fraction(-(p ** (a + 1)) * u, p**b * w)
            for x in (p**a * u, -(p**a) * u, *fractions):
                assert vp(x, p) == vp_by_division(x, p), (p, a, b, u, w)
    assert vp(Fraction(2**5000 * 3, 2**4000 * 5), 2) == 1000


def test_vp_of_a_large_valuation_within_a_tenth_of_a_second():
    # One division per unit of valuation took 0.9 s (2-vCPU x86-64).
    x = 2 * 3**50000
    start = time.perf_counter()
    assert vp(x, 3) == 50000
    assert time.perf_counter() - start < 0.1


def test_clear_denominators_and_primitive():
    assert clear_denominators([[Fraction(1, 2), 3], [Fraction(2, 3), 0]]) == ([[3, 18], [4, 0]], 6)
    assert clear_denominators([[1, -2], [0, 5]]) == ([[1, -2], [0, 5]], 1)
    assert clear_denominators([[Fraction(-3, 4), 7, Fraction(6, 2)]]) == ([[-3, 28, 12]], 4)
    assert clear_denominators([]) == ([], 1)
    assert clear_denominators([[]]) == ([[]], 1)
    ints, d = clear_denominators([[Fraction(1, 6), 2], [Fraction(5, 4), 0]])
    assert d == 12 and all(isinstance(x, int) for v in ints for x in v)
    assert primitive({0: 0, 1: Fraction(-2, 3), 2: Fraction(4, 9)}) == {1: 3, 2: -2}
    assert primitive({2: Fraction(4, 9), 1: Fraction(-2, 3)}) == {1: 3, 2: -2}
    assert primitive({0: 0, 1: 0}) == {} == primitive({})


# -- direct sums and diagonal lattices --------------------------------------


@st.composite
def block_sums(draw):
    """(parts, n): lattices over one ring, Z or Z_(p), on the blocks of a
    random partition of range(n), n ≤ 5, from generators with p-power and
    prime-to-p denominators, the blocks in random order."""
    n = draw(st.integers(1, 5))
    p = draw(st.sampled_from([None, 2, 3, 5]))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    parts = []
    for b in sorted(set(labels)):
        ix = [i for i, x in enumerate(labels) if x == b]
        vectors = st.lists(rational, min_size=len(ix), max_size=len(ix))
        try:
            lat = Lattice(draw(st.lists(vectors, min_size=len(ix), max_size=len(ix) + 1)), p, ambient=len(ix))
        except LatticeError:
            lat = Lattice(identity(len(ix)), p).scale(draw(rational.filter(bool)))
        parts.append((ix, lat))
    return draw(st.permutations(parts)), n


@settings(max_examples=300, deadline=None)
@given(block_sums())
def test_from_blocks_matches_the_hermite_assembly(data):
    # The placed columns are the canonical pair a whole-space Hermite
    # pass makes of them.
    parts, n = data
    assert Lattice.from_blocks(parts, n) == direct_sum_by_hermite(parts, n)


@pytest.mark.parametrize(
    "parts, message",
    [
        ([([0, 1], "Z2"), ([1], "Z1")], "overlap"),
        ([([0, 2], "Z2")], "overlap or leave the ambient"),
        ([([1, 0], "Z2")], "must ascend"),
        ([([0], "Z1")], "coordinate 1 uncovered"),
        ([([0, 1], "Z1")], "a block of ambient 1 on 2 coordinates"),
        ([([0], "Z1"), ([1], "Z_(2)1")], "mixed rings"),
        ([], "no blocks"),
    ],
    ids=["overlapping", "outside", "unsorted", "uncovered", "wrong ambient", "mixed rings", "empty"],
)
def test_from_blocks_refuses_bad_blocks(parts, message):
    lattices = {"Z1": standard_lattice(1), "Z2": standard_lattice(2), "Z_(2)1": standard_lattice(1, prime=2)}
    with pytest.raises(LatticeError, match=message):
        Lattice.from_blocks([(ix, lattices[name]) for ix, name in parts], 2)


@pytest.mark.parametrize(
    "lat, message",
    [(standard_lattice(2), "localized"), (Lattice([[1, 1], [0, 2]], prime=2), "diagonal")],
    ids=["global", "not diagonal"],
)
def test_valuations_refuse_a_global_or_non_diagonal_lattice(lat, message):
    with pytest.raises(LatticeError, match=message):
        lat.valuations()


# -- the integer representation ------------------------------------------


@st.composite
def spans_and_vectors(draw):
    """(cols, n, vectors): columns in Q^n with p-power and prime-to-p
    denominators, and vectors that are integer combinations of them
    (inside) or such combinations with one entry moved (often outside)."""
    cols, n = draw(generator_sets())
    vectors = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = draw(st.lists(rational, min_size=len(cols), max_size=len(cols)))
        v = [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(n)]
        if draw(st.booleans()):
            v[draw(st.integers(0, n - 1))] += draw(rational)
        vectors.append(v)
    return cols, n, vectors


@settings(max_examples=300, deadline=None)
@given(spans_and_vectors(), st.sampled_from([None, 2, 3, 5]))
def test_member_matches_the_fraction_forward_substitutions(data, p):
    cols, n, vectors = data
    try:
        lat = Lattice(cols, p, ambient=n)
    except LatticeError:
        return
    for v in vectors + [list(c) for c in cols]:
        assert lat.member(v) == lattice_member(lat, v)


def test_generating_sets_with_different_denominators_agree():
    # Over Z_(p) a prime-to-p denominator is a unit: the first two sets
    # have common denominators 15 and 1 and span one lattice.
    pairs = [
        (Lattice([[Fraction(1, 3), 0], [Fraction(2, 5), 1]], 2), Lattice([[1, 0], [0, 1]], 2)),
        (
            Lattice([[Fraction(1, 12), Fraction(1, 3)], [0, Fraction(7, 9)]], 3),
            Lattice([[Fraction(1, 3), 0], [0, Fraction(1, 9)]], 3),
        ),
        (Lattice([[Fraction(1, 2), 1], [0, 1]]), Lattice([[Fraction(1, 2), 0], [0, 3], [0, 1]])),
    ]
    # Unreduced integer pairs: the common factor of columns and
    # denominator is divided out.
    for p in (None, 2, 3):
        z = standard_lattice(2, p)
        pairs.append((Lattice.from_integers([[6, 0], [0, 6]], 6, p, 2), z))
        pairs.append((Lattice.from_integers([[4, 2], [0, 12]], 4, p, 2), Lattice([[1, Fraction(1, 2)], [0, 3]], p)))
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)
        assert (a.denominator, a.columns) == (b.denominator, b.columns)
        assert a.basis == b.basis
    spans = [ZSpan([[2, 4], [Fraction(1, 2), 1]], 2), ZSpan([[Fraction(1, 2), 1]], 2)]
    assert spans[0] == spans[1] and hash(spans[0]) == hash(spans[1])
    assert spans[0].denominator == 2 and spans[0].columns == ((1, 2),)


def test_lattice_stores_integer_columns_over_one_denominator():
    lat = Lattice([[Fraction(1, 4), Fraction(1, 6)], [0, 3]])
    assert lat.denominator == 12
    assert all(type(x) is int for col in lat.columns for x in col)
    assert lat.basis == tuple(tuple(Fraction(x, 12) for x in col) for col in lat.columns)
    local = Lattice([[Fraction(1, 4), Fraction(1, 6)], [0, 3]], 2)
    assert local.denominator == 4


# -- coordinates and the operations built on them ---------------------------


@settings(max_examples=300, deadline=None)
@given(spans_and_vectors(), st.sampled_from([None, 2, 3, 5]))
def test_coordinates_recombine_to_the_vectors(data, p):
    cols, n, vectors = data
    try:
        lat = Lattice(cols, p, ambient=n)
    except LatticeError:
        return
    ints, e = clear_denominators(vectors)
    x, den = lat.coordinates(ints, e)
    assert den == e * prod(col[i] for i, col in enumerate(lat.columns))
    for v, coords in zip(vectors, x):
        assert all(type(c) is int for c in coords)
        recombined = [sum(Fraction(c, den) * b[i] for c, b in zip(coords, lat.basis)) for i in range(n)]
        assert recombined == [Fraction(t) for t in v]


@st.composite
def operation_inputs(draw):
    """(a, b, gens): two lattices in Q^n, n ≤ 3, over Z or Z_(p), from
    generators with p-power and prime-to-p denominators, and one to three
    rational n×n matrices."""
    n = draw(st.integers(1, 3))
    p = draw(st.sampled_from([None, 2, 3, 5]))
    vectors = st.lists(rational, min_size=n, max_size=n)
    lats = []
    for _ in range(2):
        try:
            lats.append(Lattice(draw(st.lists(vectors, min_size=n, max_size=n + 1)), p, ambient=n))
        except LatticeError:
            lats.append(Lattice(identity(n), p))
    gens = draw(st.lists(st.lists(vectors, min_size=n, max_size=n), min_size=1, max_size=3))
    return lats[0], lats[1], [mat(g) for g in gens]


def _or_error(fn, *args):
    """fn(*args), or LatticeError without its message: on all-zero
    generators the transporter oracle says "empty generating set"."""
    try:
        return fn(*args)
    except LatticeError:
        return LatticeError


@settings(max_examples=200, deadline=None)
@given(operation_inputs(), rational.filter(bool))
def test_lattice_operations_match_the_fraction_basis_paths(data, c):
    a, b, gens = data
    assert a.dual() == dual_by_inverse(a)
    assert a.dual().dual() == a
    assert a.sum(b) == sum_by_fractions(a, b)
    assert a.intersect(b) == intersect_by_fractions(a, b)
    assert a.scale(c) == scale_by_fractions(a, c)
    # The library takes each g as the integer sparse matrix d·g over d,
    # d the common denominator of the gens.
    ints, d = clear_denominators([x for g in gens for x in g])
    n = a.ambient
    sparse_gens = [sparse(ints[k : k + n]) for k in range(0, len(ints), n)]
    for g, s in zip(gens, sparse_gens):
        if det(g):
            assert a.apply(s, d) == apply_by_fractions(a, g)
    assert _or_error(transporter, sparse_gens, a, b.scale(d)) == _or_error(transporter_by_inverse, gens, a, b)
    if a.prime is not None:
        assert distance(a, b) == distance_by_inverse(a, b)
