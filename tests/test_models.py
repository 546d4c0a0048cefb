"""Lie lattices, their invariants, and bounded-degree Hopf-order equality."""

import json
import random
import sys
import time
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmod.exact import Lattice, distance, snf, transporter, vp
from latmod.matrixops import bracket, dense, mat_inv, mat_mul, mat_vec
from latmod.models import (
    LieLattice,
    ModelError,
    hopf_generators,
    killing_gram,
    lie_invariants,
    lie_model,
    order_equal_bounded,
    poly_add,
    poly_mul,
    poly_reduce_det,
    poly_str,
    sym_det_defect,
)
from latmod import models
from latmod.reps import build_irrep, direct_sum
from latmod.rootdata import SUPPORTED, ChevalleyBasis, RootSystem, build_chevalley
from oracles import (
    bracket_closed_pairwise,
    killing_gram_by_ad,
    mat,
    monomial_products_by_discarding,
    poly_reduce_det_by_rewriting,
    product_echelon_by_fractions,
    sym2_symbolic_by_products,
    tracked_membership_by_fractions,
)


@pytest.fixture(scope="module")
def a1():
    cb = build_chevalley("A", 1)
    return cb, build_irrep(cb, (1,)), build_irrep(cb, (2,))


def _var(i):
    e = [0, 0, 0, 0]
    e[i] = 1
    return {tuple(e): Fraction(1)}


# -- lie_model -----------------------------------------------------------


def test_lie_model_standard_lattice(a1):
    cb, std, _ = a1
    model = lie_model(std, Lattice([[1, 0], [0, 1]]))
    # The Chevalley lattice itself: identity in Chevalley coordinates.
    assert model.lattice == Lattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_lie_model_stretched_lattice(a1):
    cb, std, _ = a1
    model = lie_model(std, Lattice([[1, 0], [0, 2]]))
    # Basis order is (x_alpha, x_-alpha, h): raising halves, lowering doubles.
    expected = Lattice([[Fraction(1, 2), 0, 0], [0, 2, 0], [0, 0, 1]])
    assert model.lattice == expected


def test_lie_model_scalar_invariance(a1):
    cb, std, sym2 = a1
    for rep in (std, sym2):
        lat = Lattice([[1, 1] + [0] * (rep.dim - 2)] + [
            [0] * j + [j + 1] + [0] * (rep.dim - j - 1) for j in range(1, rep.dim)
        ])
        for c in (2, Fraction(1, 3), 5):
            assert lie_model(rep, lat) == lie_model(rep, lat.scale(c))


def test_lie_model_ad_equivariance(a1):
    cb, std, _ = a1
    g = mat([[2, 0], [0, Fraction(1, 3)]])
    ginv = mat_inv(g)
    lat = Lattice([[1, 1], [0, 3]])
    moved = lie_model(std, lat.apply({(0, 0): 6, (1, 1): 1}, 3))
    base = lie_model(std, lat)
    # Ad(g) on coordinates: conjugate the realization matrices.
    cols = []
    for col in base.lattice.basis:
        conj = mat_mul(g, mat_mul(cb.from_coords(col), ginv))
        cols.append(cb.coords_of(conj))
    assert moved.lattice == Lattice(cols)


def test_lie_model_bracket_closed_random(a1):
    cb, std, sym2 = a1
    rng = random.Random(43)
    for rep in (std, sym2):
        done = 0
        while done < 8:
            cols = [
                [rng.randint(-3, 3) for _ in range(rep.dim)]
                for _ in range(rep.dim)
            ]
            try:
                lat = Lattice(cols)
            except ValueError:
                continue
            model = lie_model(rep, lat)  # constructor verifies closure
            assert model.bracket_closed() and bracket_closed_pairwise(cb, model.lattice)
            done += 1


def test_lie_model_unfaithful_error():
    cb = build_chevalley("A", 1)
    triv = build_irrep(cb, (0,))
    with pytest.raises(ModelError, match="faithful"):
        lie_model(triv, Lattice([[1]]))


def test_lie_lattice_closure_check(a1):
    cb, std, _ = a1
    # Z·e + Z·f + 2Z·h is not bracket-closed ([e,f] = h).
    with pytest.raises(ModelError, match="closed"):
        LieLattice(cb, Lattice([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([("A", 1), ("A", 2)]),
    st.sampled_from([None, 2, 3]),
    st.data(),
)
def test_bracket_closure_matches_the_pairwise_check(kind, p, data):
    # Random lattices in the Lie algebra, most of them not bracket-closed,
    # and the Lie lattices of random lattices of the defining rep.
    cb = build_chevalley(*kind)
    m = len(cb.basis_order())
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    cols = data.draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=m, max_size=m))
    try:
        lat = Lattice(cols, p)
    except ValueError:
        return
    try:
        LieLattice(cb, lat)
        closed = True
    except ModelError:
        closed = False
    assert closed == bracket_closed_pairwise(cb, lat)
    rep = build_irrep(cb, (1,) + (0,) * (kind[1] - 1))
    vector = st.lists(st.integers(-3, 3), min_size=rep.dim, max_size=rep.dim)
    vcols = data.draw(st.lists(vector, min_size=rep.dim, max_size=rep.dim))
    try:
        vlat = Lattice(vcols, p)
    except ValueError:
        return
    assert bracket_closed_pairwise(cb, lie_model(rep, vlat).lattice)


def test_lattice_coordinates_invert_no_fraction_basis(monkeypatch, a1):
    # dual, transporter, distance, the Lie lattice, its invariants and the
    # Hopf generators read lattice coordinates off the integer Hermite
    # columns: once the representations are built, no Gauss–Jordan
    # inverse runs.
    cb, std, sym2 = a1
    c2 = build_irrep(build_chevalley("C", 2), (1, 0))
    calls = []

    def counting(inverse):
        def wrapped(a):
            calls.append(a)
            return inverse(a)

        return wrapped

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "latmod" and hasattr(module, "mat_inv"):
            monkeypatch.setattr(module, "mat_inv", counting(module.mat_inv))
    lat = Lattice([[1, 1, 0], [0, 2, 0], [0, 1, 3]])
    local = Lattice([[Fraction(1, 2), 0, 0], [1, 2, 0], [0, 3, 4]], 2)
    lat.dual()
    local.dual()
    transporter([sym2.action[key] for key in cb.basis_order()], lat, lat.scale(Fraction(sym2.denominator, 2)))
    distance(local, Lattice([[1, 0, 0], [0, 4, 0], [0, 0, 1]], 2))
    c2_lat = Lattice([[1, 0, 0, 0], [1, 2, 0, 0], [0, 0, 3, 0], [0, 1, 0, 4]])
    for rep, v in ((sym2, lat), (c2, c2_lat)):
        lie_invariants(lie_model(rep, v))
    hopf_generators(sym2, lat)
    assert calls == []


# -- invariants -----------------------------------------------------------


def test_invariants_chevalley_lattice_frozen(a1):
    cb, std, _ = a1
    model = lie_model(std, Lattice([[1, 0], [0, 1]]))
    inv = lie_invariants(model)
    assert inv == {
        "killing_divisors": ["4", "4", "8"],
        "bracket_divisors": ["1", "2", "2"],
    }


def test_invariants_agree_for_conjugate_models(a1):
    cb, std, _ = a1
    m1 = lie_model(std, Lattice([[1, 0], [0, 1]]))
    m2 = lie_model(std, Lattice([[1, 0], [0, 2]]))
    assert lie_invariants(m1) == lie_invariants(m2)


def test_invariants_unimodular_stability(a1):
    # Recompute the divisor records from 50 random unimodular rebasings of
    # the model and compare with the canonical-basis record.
    cb, std, _ = a1
    model = lie_model(std, Lattice([[2, 1], [0, 3]]))
    reference = lie_invariants(model)
    gram = killing_gram(cb)
    rng = random.Random(47)
    m = 3
    for _ in range(50):
        # Random unimodular matrix: product of elementary column ops.
        u = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
        for _ in range(6):
            i, j = rng.sample(range(m), 2)
            c = rng.randint(-2, 2)
            for r in range(m):
                u[r][i] += c * u[r][j]
        basis = [
            tuple(
                sum(model.lattice.basis[k][r] * u[k][i] for k in range(m))
                for r in range(m)
            )
            for i in range(m)
        ]
        g_lat = [
            [
                sum(basis[i][a] * gram[a][b] * basis[j][b] for a in range(m) for b in range(m))
                for j in range(m)
            ]
            for i in range(m)
        ]
        assert [str(d) for d in snf(g_lat)] == reference["killing_divisors"]
        mats = [cb.from_coords(col) for col in basis]
        binv = mat_inv(tuple(zip(*basis)))
        rows = []
        for i in range(m):
            for j in range(m):
                rows.append(mat_vec(binv, cb.coords_of(bracket(mats[i], mats[j]))))
        assert [str(d) for d in snf(rows)] == reference["bracket_divisors"]


POOL = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "model_lie_pool.json"
POOL_BUDGET_S = 3.0


def test_invariants_of_the_benchmark_pool():
    # The 60 recorded random lattices of the benchmark pool, among them
    # the 22 (all of A2 (1,1), ten of C2 (1,0)) on which Smith elimination
    # with unbounded entries never finished, against the divisors the
    # pool recorded; the whole pool within its budget.
    pool = json.loads(POOL.read_text())
    start = time.perf_counter()
    checked = 0
    for name, entry in pool["reps"].items():
        spec = entry["descriptor"]
        cb = build_chevalley(spec["type"], int(spec["rank"]))
        rep = build_irrep(cb, tuple(int(x) for x in spec["hw"]))
        for k, record in enumerate(entry["lattices"]):
            model = lie_model(rep, Lattice.from_json_obj(record["lattice"]))
            assert lie_invariants(model) == record["divisors"], (name, k)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 60
    assert elapsed < POOL_BUDGET_S, "pool took %.1f s, budget %.0f s" % (elapsed, POOL_BUDGET_S)


@pytest.mark.parametrize(
    "label,rank", [(t, r) for t in sorted(SUPPORTED) for r in SUPPORTED[t]], ids=lambda v: str(v)
)
def test_killing_gram_matches_the_dense_ad_oracle(label, rank):
    # tr ad(b_i)·ad(b_j) read off the bracket table against the dense
    # products of ad matrices built from dense brackets; value and type.
    cb = build_chevalley(label, rank)
    gram, expected = killing_gram(cb), killing_gram_by_ad(cb)
    assert gram == expected
    assert [list(map(type, row)) for row in gram] == [list(map(type, row)) for row in expected]


def test_killing_gram_cache_does_not_alias_freed_bases():
    # Bases built and freed in turn reuse addresses; a cache keyed by
    # address handed the Gram of a freed basis to a later one.  A period
    # of three types keeps a reused address from landing on a basis of
    # the same type.
    for k in range(24):
        label, rank = (("A", 1), ("A", 1), ("A", 2))[k % 3]
        cb = ChevalleyBasis(RootSystem(label, rank))
        gram = killing_gram(cb)
        del cb
        assert gram == killing_gram(build_chevalley(label, rank))


# -- Hopf generators -------------------------------------------------------


def test_sym2_closed_form_matches_the_products():
    assert models._sym_symbolic(2) == sym2_symbolic_by_products()


@pytest.mark.parametrize("n", range(1, 9))
def test_sym_derivative_at_the_identity_is_the_lie_action(a1, n):
    # hopf_generators takes its group matrices from _sym_symbolic(n) and
    # accepts a Lie action only in one basis e_j = e1^(n−j)·e2^j: the
    # derivative of Sym^n(g) at g = 1 along x12, x21 and x11 − x22 is the
    # action of x_α, x_−α and h_α of build_irrep(A1, (n,)).
    cb, _, _ = a1
    rep = build_irrep(cb, (n,))
    point = (1, 0, 0, 1)

    def derivative(poly, direction):
        return sum(
            c * e[v] * direction[v] * prod(x ** (k - (w == v)) for w, (x, k) in enumerate(zip(point, e)))
            for e, c in poly.items()
            for v in range(4)
            if e[v]
        )

    s = models._sym_symbolic(n)
    for key, direction in (((2,), (0, 1, 0, 0)), ((-2,), (0, 0, 1, 0)), (("h", 0), (1, 0, 0, -1))):
        action = [[Fraction(x, rep.denominator) for x in row] for row in dense(rep.action[key], n + 1)]
        assert [[derivative(f, direction) for f in row] for row in s] == action, key


def test_hopf_generators_unit_lattice(a1):
    cb, std, sym2 = a1
    g = hopf_generators(sym2, Lattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    strs = {poly_str(p) for p in g}
    assert strs == {
        "x11^2",
        "x11*x12",
        "x12^2",
        "2*x11*x21",
        "2*x12*x21 + 1",  # x11*x22 + x12*x21 after the determinant rewrite
        "2*x12*x22",
        "x21^2",
        "x21*x22",
        "x22^2",
    }


def test_hopf_generators_doubled_lattice(a1):
    cb, std, sym2 = a1
    g = hopf_generators(sym2, Lattice([[1, 0, 0], [0, 2, 0], [0, 0, 1]]))
    strs = {poly_str(p) for p in g}
    assert strs == {
        "x11^2",
        "2*x11*x12",
        "x12^2",
        "x11*x21",
        "2*x12*x21 + 1",
        "x12*x22",
        "x21^2",
        "2*x21*x22",
        "x22^2",
    }


def _unit(n, prime=None):
    return Lattice([[int(i == j) for j in range(n)] for i in range(n)], prime)


def test_hopf_generators_unsupported(a1):
    # A1 (1)⊕(0) has type A1 and dimension 3, like Sym², but its action is
    # not Sym²'s; A2 (1,0) is not A1; A1 (0) is not faithful.
    cb, std, _ = a1
    for rep in (
        direct_sum([std, build_irrep(cb, (0,))]),
        build_irrep(build_chevalley("A", 2), (1, 0)),
        build_irrep(cb, (0,)),
    ):
        with pytest.raises(ModelError, match="unsupported"):
            hopf_generators(rep, _unit(rep.dim))


def test_hopf_generators_standard_representation(a1):
    _, std, _ = a1
    assert [poly_str(p) for p in hopf_generators(std, _unit(2))] == ["x11", "x12", "x21", "x22"]


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("prime", [None, 3])
def test_hopf_generators_of_the_unit_lattice_are_the_entries_of_sym(a1, n, prime):
    # On the standard basis the matrix coefficients are the entries of
    # Sym^n(g), row by row, in normal form, over Z and over Z_(3) alike.
    cb, _, _ = a1
    gens = hopf_generators(build_irrep(cb, (n,)), _unit(n + 1, prime))
    assert gens == [poly_reduce_det(f) for row in models._sym_symbolic(n) for f in row]


@pytest.mark.parametrize("n", range(5))
def test_determinant_of_sym_is_a_power_of_the_determinant(n):
    assert sym_det_defect(n) == {}


@pytest.mark.parametrize("basis", [[[1, 0, 0], [0, 2, 0], [0, 0, 1]], [[1, 1, 0], [0, 2, 0], [0, 1, 3]]])
def test_order_of_a_lattice_equals_the_order_of_its_localisation(a1, basis):
    _, _, sym2 = a1
    g, local = hopf_generators(sym2, Lattice(basis)), hopf_generators(sym2, Lattice(basis, 2))
    assert order_equal_bounded(g, local, 4, 2)["status"] == "equal"


# -- order comparison -------------------------------------------------------


def test_paper_certificate_identities():
    # x11·x21 = x11²·(x21x22) − x21²·(x11x12) and its mirror, modulo the
    # determinant relation.
    a, b, c, d = (_var(i) for i in range(4))
    lhs = poly_reduce_det(poly_mul(a, c))
    rhs = poly_add(
        poly_reduce_det(poly_mul(poly_mul(a, a), poly_mul(c, d))),
        {k: -v for k, v in poly_reduce_det(poly_mul(poly_mul(c, c), poly_mul(a, b))).items()},
    )
    assert lhs == rhs
    lhs2 = poly_reduce_det(poly_mul(b, d))
    rhs2 = poly_add(
        poly_reduce_det(poly_mul(poly_mul(d, d), poly_mul(a, b))),
        {k: -v for k, v in poly_reduce_det(poly_mul(poly_mul(b, b), poly_mul(c, d))).items()},
    )
    assert lhs2 == rhs2


def _orders(a1):
    cb, std, sym2 = a1
    g1 = hopf_generators(sym2, Lattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    g2 = hopf_generators(sym2, Lattice([[1, 0, 0], [0, 2, 0], [0, 0, 1]]))
    return g1, g2


def test_order_equal_reflexive(a1):
    g1, _ = _orders(a1)
    assert order_equal_bounded(g1, g1, 4, 2)["status"] == "equal"


def _assert_certificates(report, g1, g2, p):
    """Re-multiplying the cited generator words of the other order with
    the cited coefficients reproduces each target, and every coefficient
    is p-adically integral."""
    for cert in report["certificates"]:
        src, tgt = (g2, g1) if cert["direction"] == "1in2" else (g1, g2)
        target = poly_reduce_det(tgt[cert["generator"]])
        assert cert["target"] == poly_str(target)
        total = {}
        for term in cert["combination"]:
            coeff = Fraction(term["coeff"])
            assert coeff.denominator % p != 0
            prod = {(0, 0, 0, 0): Fraction(1)}
            for k in term["word"]:
                prod = poly_reduce_det(poly_mul(prod, src[k]))
            total = poly_add(total, {e: coeff * x for e, x in prod.items()})
        assert total == target


def _half_integral(g1):
    """g1's generators and x11·x12/2, which is not 2-adically integral."""
    half = {k: v / 2 for k, v in poly_mul(_var(0), _var(1)).items()}
    return g1 + [half]


def test_order_equal_paper_case(a1):
    g1, g2 = _orders(a1)
    report = order_equal_bounded(g1, g2, 4, 2)
    assert report["status"] == "equal"
    assert len(report["certificates"]) == 18
    _assert_certificates(report, g1, g2, 2)


def test_order_equal_symmetric_and_monotone(a1):
    g1, g2 = _orders(a1)
    assert order_equal_bounded(g2, g1, 4, 2)["status"] == "equal"
    assert order_equal_bounded(g1, g2, 5, 2)["status"] == "equal"
    assert order_equal_bounded(g1, g2, 6, 2)["status"] == "equal"


def test_order_reports_match_the_fraction_echelon(a1, monkeypatch):
    # Certificates are not unique, so against the Euclid echelon with
    # Fraction combinations the Hermite path must give the same statuses
    # and witness positions; its own certificates must be p-integral and
    # reproduce their targets, and its witnesses must have a p-denominator.
    g1, g2 = _orders(a1)
    sets = ((g1, g2), (g1, _half_integral(g1)), (g1, [_var(0)]))
    cases = [
        (left, right, bound, p)
        for a, b in sets
        for left, right in ((a, b), (b, a))
        for bound in range(2, 7)
        for p in (2, 3)
    ]
    got = [order_equal_bounded(*case) for case in cases]
    echelons = {}  # the oracle echelon is slow; build each one once

    def echelon_once(products):
        key = repr(products)
        if key not in echelons:
            echelons[key] = product_echelon_by_fractions(products)
        return echelons[key]

    monkeypatch.setattr(models, "_product_echelon", echelon_once)
    monkeypatch.setattr(models, "_tracked_membership", tracked_membership_by_fractions)
    for (left, right, bound, p), report in zip(cases, got):
        expected = order_equal_bounded(left, right, bound, p)
        assert report["status"] == expected["status"]
        witness = report["witness"]
        if witness is None:
            assert expected["witness"] is None
        else:
            keys = ("direction", "generator")
            assert [witness[k] for k in keys] == [expected["witness"][k] for k in keys]
            if report["status"] == "not_shown":
                assert vp(Fraction(witness["coefficient"]), p) < 0
        assert len(report["certificates"]) == len(expected["certificates"])
        _assert_certificates(report, left, right, p)
    statuses = {case[2:]: r["status"] for case, r in zip(cases, got) if case[:2] == (g1, g2)}
    assert [statuses[bound, 2] for bound in range(2, 7)] == ["not_shown"] * 2 + ["equal"] * 3
    assert {r["status"] for r in got} == {"equal", "not_shown", "undecided"}


def test_order_not_equal_with_witness(a1):
    g1, _ = _orders(a1)
    report = order_equal_bounded(_half_integral(g1), g1, 4, 2)
    assert report["status"] == "not_shown"
    assert Fraction(report["witness"]["coefficient"]).denominator % 2 == 0


def test_order_not_equal_is_equal_at_other_prime(a1):
    # The same half-integral generator is 3-adically harmless.
    g1, _ = _orders(a1)
    assert order_equal_bounded(_half_integral(g1), g1, 4, 3)["status"] == "equal"


def test_order_undecided(a1):
    g1, _ = _orders(a1)
    tiny = [_var(0)]  # only x11: x12 etc. unreachable
    report = order_equal_bounded(g1, tiny, 4, 2)
    assert report["status"] == "undecided"


def test_constant_generator_is_refused_and_zero_generators_skipped():
    # A nonzero constant keeps every power within the bound, so it is
    # refused by index; a generator that reduces to 0 (det − 1 − x12·x21
    # here) takes part in no product, and order_equal_bounded reduces it
    # itself.
    g = [_var(0), {(0, 0, 0, 0): 2}]
    with pytest.raises(ModelError, match="generator 1 is a nonzero constant"):
        order_equal_bounded(g, g, 2, 2)
    det_relation = {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1, (0, 0, 0, 0): -1}
    zero = poly_reduce_det(det_relation)
    assert zero == {}
    words = [w for _, w in models._monomial_products([zero, _var(0), zero, _var(1)], 3)]
    plain = [_var(0), _var(1)]
    assert order_equal_bounded([det_relation, _var(0)], [_var(0)], 2, 2)["status"] == "equal"
    assert words == [tuple(2 * k + 1 for k in w) for _, w in models._monomial_products(plain, 3)]


# -- normal form and the products by degree --------------------------------


def _degree(poly):
    return max(map(sum, poly))


coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
polynomials = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 4), coefficients, max_size=5)


@settings(max_examples=300, deadline=None)
@given(polynomials)
def test_closed_form_reduction_matches_the_rewriting_loop(poly):
    assert poly_reduce_det(poly) == poly_reduce_det_by_rewriting(poly)


@settings(max_examples=200, deadline=None)
@given(polynomials, polynomials)
def test_normal_form_degree_is_additive(f, g):
    f, g = poly_reduce_det(f), poly_reduce_det(g)
    if f and g:
        assert _degree(poly_reduce_det(poly_mul(f, g))) == _degree(f) + _degree(g)


# Degree-1 generators among higher ones, non-integral coefficients, and
# now and then a generator that is constant or reduces to 0.
linear = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
generator_sets = st.lists(
    st.one_of(
        st.dictionaries(st.sampled_from(linear), coefficients, min_size=1, max_size=2),
        st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4), coefficients, max_size=3),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=100, deadline=None)
@given(generator_sets, st.integers(0, 4))
def test_products_by_degree_match_the_discarding_oracle(gens, bound):
    gens = [poly_reduce_det(g) for g in gens]
    if any(g and _degree(g) == 0 for g in gens):
        with pytest.raises(ModelError, match="nonzero constant"):
            models._monomial_products(gens, bound)
        return
    assert models._monomial_products(gens, bound) == monomial_products_by_discarding(gens, bound)


@pytest.mark.parametrize("bound", range(2, 9))
def test_paper_pair_products_match_the_discarding_oracle(a1, bound):
    for g in _orders(a1):
        assert models._monomial_products(g, bound) == monomial_products_by_discarding(g, bound)
