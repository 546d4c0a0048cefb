"""Representation construction: dimensions against the Weyl formula,
the per-vector solve construction, block structure, and transition
surjectivity."""

import hashlib
import itertools
import json
import time
from fractions import Fraction
from math import comb, gcd, prod

import pytest

from latmod import matrixops, reps, rootdata
from latmod.matrixops import bracket, identity, mat_mul, sparse, tensor_mat_vec
from latmod.reps import (
    RepError,
    Representation,
    adapt,
    build_irrep,
    direct_sum,
    projector,
    tensor_product,
)
from latmod.rootdata import SUPPORTED, ChevalleyBasis, RootSystem, build_chevalley
from oracles import (
    adapt_by_conjugation,
    adapt_by_every_generator,
    ambient_spaces,
    basis_matrices,
    build_irrep_by_conjugation,
    build_irrep_by_every_generator,
    build_irrep_by_solve,
    check_transition_surjectivity,
    coroots_by_euclid,
    defining_raw,
    dense_action,
    distinct_words,
    down_step,
    ext_power_raw,
    is_canonical,
    lift,
    mat_scale,
    power_raw_by_leibniz,
    sym_power_raw,
    tensor_raw,
    transition_by_words,
    trivial_raw,
    weight_set_by_every_walk,
    word_products,
)


def weyl_dim(cb, psi):
    """Independent dimension oracle: product formula over positive roots,
    each pairing taken with Fractions on the coroot solved from the
    Euclidean roots (oracles.coroots_by_euclid)."""
    rs = cb.rs
    coroots = coroots_by_euclid(rs.type_label, rs.rank)
    num = Fraction(1)
    den = Fraction(1)
    for beta in rs.positive:
        num *= sum((p + 1) * c for p, c in zip(psi, coroots[beta]))
        den *= sum(coroots[beta])
    d = num / den
    assert d.denominator == 1 and d > 0
    return int(d)


SWEEP = [
    ("A", 1, (0,)),
    ("A", 1, (1,)),
    ("A", 1, (2,)),
    ("A", 1, (3,)),
    ("A", 1, (4,)),
    ("A", 2, (1, 0)),
    ("A", 2, (0, 1)),
    ("A", 2, (1, 1)),
    ("A", 2, (2, 0)),
    ("C", 2, (1, 0)),
    ("C", 2, (0, 1)),
]


@pytest.fixture(scope="module")
def sweep_reps():
    out = {}
    for t, r, hw in SWEEP:
        cb = build_chevalley(t, r)
        out[(t, r, hw)] = build_irrep(cb, hw)
    return out


def test_dimensions_match_weyl_oracle(sweep_reps):
    for (t, r, hw), rep in sweep_reps.items():
        assert rep.dim == weyl_dim(rep.cb, hw), (t, r, hw)


@pytest.mark.parametrize("t, r", [(t, r) for t, ranks in SUPPORTED.items() for r in ranks])
def test_weyl_dimension_matches_the_test_oracle(t, r):
    cb = build_chevalley(t, r)
    for hw in itertools.product(range(3), repeat=r):
        assert reps.weyl_dimension(cb.rs, hw) == weyl_dim(cb, hw), hw


def test_walked_basis_runs_down_the_weights():
    # The lowering walk is breadth first, so an irreducible lists its basis
    # by the height of psi - chi, the order in which the orbit search fixes
    # valuations and prunes; checked on every highest weight with
    # |psi| ≤ 2 and dimension ≤ 130 that the realization reaches.
    built = 0
    for t, ranks in sorted(SUPPORTED.items()):
        for r in ranks:
            cb = build_chevalley(t, r)
            for psi in itertools.product(range(3), repeat=r):
                if not 0 < sum(psi) <= 2 or reps.weyl_dimension(cb.rs, psi) > 130:
                    continue
                try:
                    rep = build_irrep(cb, psi)
                except RepError:
                    continue
                heights = [sum(cb.rs.expansion(tuple(a - b for a, b in zip(psi, w)))) for w in rep.weights]
                assert heights == sorted(heights), (t, r, psi)
                built += 1
    assert built == 70


def test_weyl_dimension_reads_the_root_system_it_is_given(monkeypatch):
    # A root system built outside root_system's cache gives its own
    # coroots; no root system or basis is looked up by (type, rank).
    rs = RootSystem("B", 3)
    monkeypatch.setattr(rootdata, "root_system", None)
    monkeypatch.setattr(rootdata, "build_chevalley", None)
    assert reps.weyl_dimension(rs, (1, 0, 0)) == 7
    assert reps.weyl_dimension(rs, (0, 1, 0)) == 21


def _fundamental_dimension(t, n, k):
    """dim V(omega_k), 1 <= k <= n, by the closed forms of Bourbaki,
    plates I-IV: C(n + 1, k) for A_n; C(2n + 1, k) for k < n and 2^n for
    the spin weight in B_n; C(2n, k) − C(2n, k − 2) in C_n; C(2n, k) for
    k <= n − 2 and 2^(n − 1) for each half-spin weight in D_n."""
    if t == "A":
        return comb(n + 1, k)
    if t == "B":
        return 2**n if k == n else comb(2 * n + 1, k)
    if t == "C":
        return comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0)
    return 2 ** (n - 1) if k >= n - 1 else comb(2 * n, k)


def test_fundamental_dimensions_from_the_root_system_alone(monkeypatch):
    # The Weyl dimension of every fundamental weight of every supported
    # type, read off the coroots of the RootSystem with no Chevalley
    # basis built, against the closed forms of the plates.
    monkeypatch.setattr(ChevalleyBasis, "__init__", lambda *a: pytest.fail("built a Chevalley basis"))
    for t, ranks in sorted(SUPPORTED.items()):
        for n in ranks:
            rs = RootSystem(t, n)
            for k in range(1, n + 1):
                omega = tuple(int(i == k - 1) for i in range(n))
                assert reps.weyl_dimension(rs, omega) == _fundamental_dimension(t, n, k), (t, n, k)


def test_weight_set_is_the_weights_of_the_built_irreducible():
    # The closure under downward root strings is the weight set of the
    # irreducible on every highest weight with entries ≤ 2 and dimension
    # ≤ 64 that the realization reaches, and it has Weyl-dimension many
    # weights exactly when every block holds one vector.
    built = free = 0
    for t, ranks in sorted(SUPPORTED.items()):
        for r in ranks:
            cb = build_chevalley(t, r)
            for psi in itertools.product(range(3), repeat=r):
                if reps.weyl_dimension(cb.rs, psi) > 64:
                    continue
                try:
                    rep = build_irrep(cb, psi)
                except RepError:
                    continue
                weights = reps.weight_set(cb.rs, psi)
                assert weights == set(rep.weights), (t, r, psi)
                single = all(len(ix) == 1 for ix in rep.blocks.values())
                assert (len(weights) == rep.dim) == single, (t, r, psi)
                built += 1
                free += single
    assert (built, free) == (87, 39)
    # A2 (1,1), the adjoint: 6 roots and one zero weight of multiplicity 2.
    assert len(reps.weight_set(RootSystem("A", 2), (1, 1))) == 7


def test_weight_set_matches_every_walk():
    # Walking each string once finds the closure that walking every
    # string from every weight finds, on every supported type with the
    # entries of psi at most 1 (rank 4), 2 (rank 3) or 3 (rank 2 and 1).
    for t, ranks in sorted(SUPPORTED.items()):
        for r in ranks:
            cb = build_chevalley(t, r)
            for psi in itertools.product(range(min(4, 6 - r)), repeat=r):
                assert reps.weight_set(cb.rs, psi) == weight_set_by_every_walk(cb.rs, psi), (t, r, psi)


def test_weight_set_of_a1_1999_within_a_twentieth_of_a_second():
    # Every weight walked the whole string below it: 0.55 s (2-vCPU x86-64).
    cb = build_chevalley("A", 1)
    start = time.perf_counter()
    weights = reps.weight_set(cb.rs, (1999,))
    assert time.perf_counter() - start < 0.05
    assert weights == {(m,) for m in range(-1999, 2000, 2)}


def test_irreducible_single_highest_weight(sweep_reps):
    for (t, r, hw), rep in sweep_reps.items():
        assert rep.highest_weights == (hw,)
        assert len(rep.block(hw, hw)) == 1


def test_weights_below_highest(sweep_reps):
    for (t, r, hw), rep in sweep_reps.items():
        for chi in rep.weights:
            m = rep.cb.rs.expansion(tuple(a - b for a, b in zip(hw, chi)))
            assert m is not None and all(x >= 0 for x in m)


def test_block_completeness(sweep_reps):
    for rep in sweep_reps.values():
        total = sum(len(ix) for ix in rep.blocks.values())
        assert total == rep.dim
        s = None
        for (psi, chi) in rep.blocks:
            p = projector(rep, psi, chi)
            s = p if s is None else tuple(
                tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(s, p)
            )
        assert s == identity(rep.dim)


def test_homomorphism_property(sweep_reps):
    # Spot-check beyond the constructor's own verification: bracket of
    # lifted realization elements matches the commutator.
    rep = sweep_reps[("C", 2, (0, 1))]
    cb = rep.cb
    mats = basis_matrices(cb)
    action = dense_action(rep)

    def rho(m):
        return lift(cb, action, rep.dim, cb.coords_of(m))

    for a in mats[:4]:
        for b in mats[4:8]:
            assert rho(bracket(a, b)) == bracket(rho(a), rho(b))


def test_build_irrep_matches_per_vector_solve(sweep_reps):
    # One elimination of the span basis gives the same action matrices as
    # one solve per generator and basis vector.
    cases = dict(sweep_reps)
    for t, r, hw in (("B", 3, (1, 0, 0)), ("C", 2, (1, 1)), ("A", 3, (0, 1, 0))):
        cases[(t, r, hw)] = build_irrep(build_chevalley(t, r), hw)
    for (t, r, hw), rep in cases.items():
        old = build_irrep_by_solve(rep.cb, hw)
        assert old.action == rep.action and old.blocks == rep.blocks, (t, r, hw)


# The five `rep build` requests of the benchmark (A3 (0,1,0) and B3
# (1,0,0) are their whole ambient), then A2 (2,2) (27 of 54 dimensions),
# B2 (0,2) (10 of 100), C3 (0,1,0) (14 of 15) and D4 (0,1,0,0) (all 28).
CONJUGATION_CASES = [
    ("A", 2, (1, 1)),
    ("A", 2, (2, 1)),
    ("A", 3, (0, 1, 0)),
    ("B", 3, (1, 0, 0)),
    ("C", 2, (1, 1)),
    ("A", 2, (2, 2)),
    ("B", 2, (0, 2)),
    ("C", 3, (0, 1, 0)),
    ("D", 4, (0, 1, 0, 0)),
]


def same_as_oracle(rep, old):
    return (dense_action(rep), rep.weights, rep.blocks, rep.highest_weights) == (
        old["action"],
        old["weights"],
        old["blocks"],
        old["highest_weights"],
    )


def test_build_irrep_matches_conjugation_oracle(sweep_reps):
    # One walk read by one coordinate solve gives what the second walk and
    # the mat_inv conjugation gave, in the sub-representation and in the
    # whole-ambient cases alike.
    cases = dict(sweep_reps)
    for t, r, hw in CONJUGATION_CASES:
        cases[(t, r, hw)] = build_irrep(build_chevalley(t, r), hw)
    for (t, r, hw), rep in cases.items():
        assert same_as_oracle(rep, build_irrep_by_conjugation(rep.cb, hw)), (t, r, hw)


def test_reducible_representation_matches_conjugation_oracle():
    # The actions direct_sum([v, v]) and tensor_product(v, w) of A2 hand to
    # Representation, adapted there and by the oracle.
    cb = build_chevalley("A", 2)
    v, w = build_irrep(cb, (1, 0)), build_irrep(cb, (0, 1))
    z = (Fraction(0),) * v.dim
    va, wa = dense_action(v), dense_action(w)
    plus = {key: tuple(row + z for row in g) + tuple(z + row for row in g) for key, g in va.items()}
    _, times, _ = tensor_raw((v.dim, va, v.weights), (w.dim, wa, w.weights))
    for rep, action in ((direct_sum([v, v]), plus), (tensor_product(v, w), times)):
        assert same_as_oracle(rep, adapt_by_conjugation(cb, action)), rep.highest_weights


@pytest.mark.parametrize("t, r", [(t, r) for t, ranks in sorted(SUPPORTED.items()) for r in ranks])
def test_build_irrep_matches_every_generator_oracle(t, r):
    # Reading the simple generators alone and the rest by the recursion of
    # the Chevalley set gives the JSON that reading every generator in the
    # tensor ambient gave: every reachable psi with |psi| <= 2 and at most
    # 300 dimensions, the trivial representation included.
    cb = build_chevalley(t, r)
    built = 0
    for psi in itertools.product(range(3), repeat=r):
        if sum(psi) > 2 or reps.weyl_dimension(cb.rs, psi) > 300:
            continue
        try:
            rep = build_irrep(cb, psi)
        except RepError as e:
            assert "not reachable" in str(e), psi
            continue
        assert rep.to_json_obj() == build_irrep_by_every_generator(cb, psi).to_json_obj(), psi
        built += 1
    assert built > 1


def plus(u, v):
    return direct_sum([u, v])


SUMS_AND_PRODUCTS = [
    (plus, "A", 1, (1,), (2,)),
    (tensor_product, "A", 1, (1,), (2,)),
    (plus, "A", 1, (2,), (2,)),
    (tensor_product, "A", 1, (2,), (2,)),
    (plus, "A", 2, (1, 0), (0, 1)),
    (tensor_product, "A", 2, (1, 0), (0, 1)),
    (tensor_product, "A", 2, (1, 0), (1, 0)),
    (tensor_product, "C", 2, (1, 0), (0, 1)),
]


def test_sums_and_products_match_every_generator_oracle(monkeypatch):
    # direct_sum and tensor_product give the JSON they gave when every
    # generator of their factors was read in the tensor ambient.
    cases = []
    for make, t, r, a, b in SUMS_AND_PRODUCTS:
        cb = build_chevalley(t, r)
        cases.append((make, build_irrep(cb, a), build_irrep(cb, b)))
    new = [make(u, v).to_json_obj() for make, u, v in cases]
    monkeypatch.setattr(reps, "_adapt", adapt_by_every_generator)
    assert new == [make(u, v).to_json_obj() for make, u, v in cases]


def test_builds_apply_only_the_simple_generators(monkeypatch):
    # build_irrep powers only the 2·rank simple generators x_(±alpha_i),
    # and every build applies only those in the tensor ambient: each
    # tensor_mat_vec takes the column indices of one of them.  The walk
    # and the read are one pass: inside _adapted each of them acts once on
    # each walked vector, 2·rank·dim calls, and no lowering image is made
    # again to be read.
    power, ambient, adapted, apply = reps._power_raw, reps._ambient, reps._adapted, reps.tensor_mat_vec
    powered, indexed, applied, inside = [], {}, [], []

    def recording_power(raw, *args, **kwargs):
        powered.append(set(raw[1]))
        return power(raw, *args, **kwargs)

    def recording_ambient(factors, rank):
        columns, table = ambient(factors, rank)
        indexed.update((id(cols), (key, cols)) for key, cols in columns.items())
        return columns, table

    def recording_adapted(*args):
        start = len(applied)
        rep = adapted(*args)
        inside.append(len(applied) - start)
        return rep

    def recording_apply(cols, v):
        applied.append(indexed[id(cols)][0])
        return apply(cols, v)

    def applies(make):
        applied.clear()
        inside.clear()
        rep = make()
        assert set(applied) == set(cb.rs.generators)
        assert inside == [2 * cb.rs.rank * rep.dim], (cb.rs.rank, rep.dim, inside)
        return rep

    monkeypatch.setattr(reps, "_power_raw", recording_power)
    monkeypatch.setattr(reps, "_ambient", recording_ambient)
    monkeypatch.setattr(reps, "_adapted", recording_adapted)
    monkeypatch.setattr(reps, "tensor_mat_vec", recording_apply)
    for t, r, hw in (("A", 2, (1, 1)), ("B", 3, (1, 0, 0)), ("D", 4, (0, 0, 1, 1))):
        cb = build_chevalley(t, r)
        powered.clear()
        v = applies(lambda: build_irrep(cb, hw))
        assert powered and all(keys == set(cb.rs.generators) for keys in powered), (t, r, hw)
    # Then direct_sum, tensor_product and adapt, on D4 (0,0,1,1) and (1,0,0,0).
    w = build_irrep(cb, (1, 0, 0, 0))
    for make in (
        lambda: direct_sum([v, w]),
        lambda: tensor_product(v, w),
        lambda: adapt(cb, sparse_action(dense_action(v)), v.dim),
    ):
        applies(make)


def test_adapt_refuses_a_changed_highest_root_entry():
    # The simple generators alone would not see it: adapt checks its input
    # against the bracket table before it reads them.
    cb = build_chevalley("B", 3)
    rep = build_irrep(cb, (1, 0, 0))
    action = dense_action(rep)
    top = cb.rs.positive[-1]
    for i, j, value in single_entry_changes(action[top]):
        broken = dict(action)
        broken[top] = with_entry(action[top], i, j, value)
        with pytest.raises(RepError, match="not a representation"):
            adapt(cb, sparse_action(broken), rep.dim)


def test_build_irrep_walks_once(monkeypatch):
    # One walk, no dense product and no inverse: the adapted action is
    # read off the walk's own span, not walked again and conjugated, nor
    # solved on an inverted block of the walked basis.  A2 (1,1) is a
    # proper subspace of its ambient, A3 (0,1,0) the whole of it.
    walk = reps._adapted
    calls = {"walks": 0, "mat_mul": 0, "mat_inv": 0}

    def counting_walk(*args):
        calls["walks"] += 1
        return walk(*args)

    def counting(name):
        original = getattr(matrixops, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for t, r, hw in (("A", 2, (1, 1)), ("A", 3, (0, 1, 0))):
        cb = build_chevalley(t, r)
        calls.update(walks=0, mat_mul=0, mat_inv=0)
        with monkeypatch.context() as m:
            m.setattr(reps, "_adapted", counting_walk)
            for name in ("mat_mul", "mat_inv"):
                counted = counting(name)
                m.setattr(matrixops, name, counted)
                m.setattr(reps, name, counted, raising=False)
            build_irrep(cb, hw)
        assert calls == {"walks": 1, "mat_mul": 0, "mat_inv": 0}, (t, r, hw)


def test_build_irrep_constructs_one_representation(monkeypatch):
    # The adapted action goes through the one constructor, once, so the
    # checks of Representation run on it and a wrapper of __init__ sees
    # the construction.
    init = Representation.__init__
    calls = []

    def counting(self, *args):
        calls.append(len(args[-1]))
        init(self, *args)

    monkeypatch.setattr(Representation, "__init__", counting)
    for t, r, hw in (("A", 2, (1, 1)), ("A", 3, (0, 1, 0))):
        calls.clear()
        rep = build_irrep(build_chevalley(t, r), hw)
        assert calls == [rep.dim], (t, r, hw)


def test_sums_and_products_densify_only_to_publish(monkeypatch):
    # direct_sum and tensor_product build their actions sparse and make no
    # dense matrix; to_json_obj makes the published ones, one per
    # generator.
    cb = build_chevalley("A", 2)
    v, w = build_irrep(cb, (1, 0)), build_irrep(cb, (0, 1))
    dense = reps.dense
    calls = []

    def counting(m, n):
        calls.append(n)
        return dense(m, n)

    monkeypatch.setattr(reps, "dense", counting)
    for make in (lambda: direct_sum([v, w]), lambda: tensor_product(v, w)):
        calls.clear()
        rep = make()
        assert calls == []
        rep.to_json_obj()
        assert calls == [rep.dim] * len(rep.action)


# Ambients the dense oracles cannot build (B3 (0,0,2): (Λ³)⊗², 1,225
# dimensions; D4 (0,0,2,0): (Λ³)⊗², 3,136; D4 (0,0,1,1): Λ³ ⊗ Λ⁴, 3,920;
# B4 (0,0,0,2): (Λ⁴)⊗², 15,876), and A3 (1,1,1), walked in three factors
# (V ⊗ Λ² ⊗ Λ³), each output pinned by the sha256 of its sorted JSON as
# the walk on the whole ambient built it; then the two irreducibles of
# type C whose adapted actions are not integral, C2 (2,1) (entries in
# thirds) and C3 (1,1,0) (entries ±1/2, ±3/2), as the Fraction action
# wrote them.
PINNED = [
    ("B", 3, (0, 0, 2), "6316089240c79864d750fabdb160aa1ec72fb86f531a93f0c9fa933e85ebe305"),
    ("D", 4, (0, 0, 2, 0), "b5322a647aaa401c4406af99f9b39b617044dfe6fc867a90a0c2e08f1314afc6"),
    ("D", 4, (0, 0, 1, 1), "8055447ed27bbd51651748d64bcdf7882e3367ab2f32fadbd7822b58e90c61b6"),
    ("B", 4, (0, 0, 0, 2), "ea03864aace426f40ebf1812705b6ab718116465be5c29df96c75c4af02df44c"),
    ("A", 3, (1, 1, 1), "ad48acb0ad7504f4fb739383c991abc2a4b9c37307fff10bb44efc7dd91b68b9"),
    ("C", 2, (2, 1), "bae9e1e34c53a5b1f10c82fca439c362f01841b6c1efaec7c4720aa0ec495369"),
    ("C", 3, (1, 1, 0), "8d98eeb917a6860dfe8f4353242aa11e3667e79ef093e6352c37e91098c39218"),
]


@pytest.mark.parametrize("t, r, hw, digest", PINNED)
def test_large_ambient_output_pinned(t, r, hw, digest):
    rep = build_irrep(build_chevalley(t, r), hw)
    text = json.dumps(rep.to_json_obj(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "t, r, hw", [("A", 2, (1, 1)), ("B", 2, (0, 2)), ("B", 3, (1, 0, 0)), ("C", 2, (1, 1)), ("D", 4, (0, 1, 0, 0))]
)
def test_representation_path_keeps_integral_entries_ints(t, r, hw, monkeypatch):
    # The sparse generators, the walked vectors, the sparse adapted action
    # Representation receives and the one it keeps hold ints only, type B
    # too: each action is integral over one denominator, the least one
    # (2 for the 1/2 entries of type B), and no Fraction or float is made.
    init = Representation.__init__
    walked, received = [], []

    class RecordingSpan(reps.QSpan):
        # Every vector the walk inserts into its QSpan, highest-weight
        # vectors and lowering images alike.
        __slots__ = ()

        def insert(self, v):
            walked.append(v)
            return super().insert(v)

    def recording_init(self, cb, action, denominator, psi_of):
        received.append((action, denominator))
        init(self, cb, action, denominator, psi_of)

    monkeypatch.setattr(reps, "QSpan", RecordingSpan)
    monkeypatch.setattr(Representation, "__init__", recording_init)
    cb = build_chevalley(t, r)
    rep = build_irrep(cb, hw)
    assert walked and len(received) == 1
    generators = [x for m in cb.action.values() for x in m.values()]
    assert all(type(x) is int and x for x in generators)
    assert cb.denominator == (2 if t == "B" else 1) and gcd(cb.denominator, *generators) == 1
    assert all(type(x) is int for v in walked for x in v.values())
    for action, denominator in received + [(rep.action, rep.denominator)]:
        entries = [x for m in action.values() for x in m.values()]
        assert all(type(x) is int and x for x in entries)
        assert type(denominator) is int and denominator > 0 and gcd(denominator, *entries) == 1
    assert rep.denominator == (2 if t == "B" else 1)
    d = rep.denominator
    assert {key: {p: Fraction(x, d) for p, x in m.items()} for key, m in rep.action.items()} == {
        key: sparse(g) for key, g in dense_action(rep).items()
    }


def test_build_irrep_indexes_only_its_factors(monkeypatch):
    # The walk applies each generator factor by factor: no column index
    # covers more columns than the largest factor has, 70 (Λ⁴) for
    # D4 (0,0,1,1), whose ambient Λ³ ⊗ Λ⁴ has 3,920.
    index = reps.column_index
    widths = []

    def recording(a):
        cols = index(a)
        widths.append(len(cols))
        return cols

    monkeypatch.setattr(reps, "column_index", recording)
    build_irrep(build_chevalley("D", 4), (0, 0, 1, 1))
    assert 0 < max(widths) <= 70


@pytest.mark.parametrize("t, r, hw", [("B", 3, (0, 0, 1)), ("B", 4, (0, 0, 0, 1)), ("D", 4, (0, 0, 1, 0)), ("D", 4, (0, 0, 0, 1))])
def test_spin_weights_are_not_reachable(t, r, hw):
    # A spin weight is no weight of any tensor power of the defining
    # realization, so build_irrep names it instead of walking nothing.
    label = ",".join(map(str, hw))
    with pytest.raises(RepError, match=r"^highest weight \(%s\) is not reachable in this realization$" % label):
        build_irrep(build_chevalley(t, r), hw)


def test_ambient_cap_is_checked_after_reachability_before_enumerating(monkeypatch):
    # build_irrep checks the product of its factors' dimensions against
    # the cap once the weight is found reachable on the weight table, and
    # before _weight_space lists the psi weight space: D3 (1,3,1),
    # V ⊗ (Λ²)^⊗3 ⊗ Λ³ with 405,000 tuples, reaches _weight_space;
    # D3 (2,4,0) (1,063,125) and D4 (0,0,0,4) (24,010,000) are refused by
    # the cap, and D3 (0,3,4) stays not reachable, although its ambient of
    # 540,000,000 tuples is past it.
    class Reached(Exception):
        pass

    def reached(factors, table, w):
        raise Reached(prod(d for d, _, _ in factors))

    monkeypatch.setattr(reps, "_weight_space", reached)
    with pytest.raises(Reached, match="^405000$"):
        build_irrep(build_chevalley("D", 3), (1, 3, 1))
    cap = reps.AMBIENT_TUPLE_CAP
    for t, r, hw, tuples in (("D", 3, (2, 4, 0), 1063125), ("D", 4, (0, 0, 0, 4), 24010000)):
        label = ",".join(map(str, hw))
        msg = r"^highest weight \(%s\) has an ambient of %d index tuples, more than the cap of %d$" % (label, tuples, cap)
        with pytest.raises(RepError, match=msg):
            build_irrep(build_chevalley(t, r), hw)
    with pytest.raises(RepError, match=r"^highest weight \(0,3,4\) is not reachable in this realization$"):
        build_irrep(build_chevalley("D", 3), (0, 3, 4))


def sparse_action(action):
    return {key: sparse(g) for key, g in action.items()}


def sparse_raw(raw):
    d, action, weights = raw
    return d, sparse_action(action), weights


def scaled_raw(raw, c):
    """sparse_raw of raw with every action entry times c."""
    d, action, weights = sparse_raw(raw)
    return d, {key: {p: c * x for p, x in g.items()} for key, g in action.items()}, weights


# Every supported defining realization; type B has entries ±1/2.
REALIZATIONS = [(t, r) for t, ranks in sorted(SUPPORTED.items()) for r in ranks]


def sparse_powers(cb):
    """Sym^k, k ≤ 3, then Λ^k, k ≤ 3, of the defining realization, as
    build_irrep powers it."""
    defining = (cb.N, cb.action, reps._diagonal_weights(cb, cb.action, cb.N, cb.denominator))
    return [reps._power_raw(defining, k) for k in (1, 2, 3)] + [reps._power_raw(defining, k, exterior=True) for k in (2, 3)]


@pytest.mark.parametrize("t, r", REALIZATIONS)
def test_sparse_powers_match_dense_builders(t, r):
    # Sym^k and Λ^k, k ≤ 3, of the defining realization against the dense
    # builders, and each generator on pairs of them through tensor_mat_vec
    # and their weight spaces (the enumeration oracle, ambient_spaces)
    # against the dense tensor products, index tuple (s, t) at flattened
    # index s·d₂ + t; Sym^0 is the trivial representation.
    # The sparse builders act over the denominator of the basis, the dense
    # ones on its rational matrices, so these are scaled by it.
    cb = build_chevalley(t, r)
    defining = (cb.N, cb.action, reps._diagonal_weights(cb, cb.action, cb.N, cb.denominator))
    assert defining == scaled_raw(defining_raw(cb), cb.denominator)
    assert reps._power_raw(defining, 0) == sparse_raw(trivial_raw(cb))
    powers = sparse_powers(cb)
    dense_powers = [sym_power_raw(defining_raw(cb), k) for k in (1, 2, 3)]
    dense_powers += [ext_power_raw(defining_raw(cb), k) for k in (2, 3)]
    for got, want in zip(powers, dense_powers):
        assert got == scaled_raw(want, cb.denominator)
    assert all(is_canonical(x) for _, a, _ in powers for g in a.values() for x in g.values())
    for i, j in itertools.combinations_with_replacement(range(len(powers)), 2):
        factors = [powers[i], powers[j]]
        (d1, a1, _), (d2, a2, _) = factors
        if d1 * d2 > 100:
            continue
        _, want, weights = scaled_raw(tensor_raw(dense_powers[i], dense_powers[j]), cb.denominator)
        columns, _ = reps._ambient(factors, r)
        spaces = ambient_spaces(factors)
        for key, cols in columns.items():
            got = {}
            for s, u in itertools.product(range(d1), range(d2)):
                got.update(((v * d2 + w, s * d2 + u), x) for (v, w), x in tensor_mat_vec(cols, {(s, u): 1}).items())
            assert got == want[key], (i, j, key)
        assert {s * d2 + u: w for w, ts in spaces.items() for s, u in ts} == dict(enumerate(weights)), (i, j)
        assert all(ts == sorted(ts) for ts in spaces.values())


def power_pairs(cb):
    """The factor lists [P, Q] of two of sparse_powers(cb), in the order
    of test_sparse_powers_match_dense_builders, with at most 100 index
    tuples."""
    powers = sparse_powers(cb)
    pairs = itertools.combinations_with_replacement(powers, 2)
    return [[p, q] for p, q in pairs if p[0] * q[0] <= 100]


def sweep_factor_lists(cb, monkeypatch):
    """The factor lists that build_irrep takes for every psi with
    |psi| <= 2 and at most 300 dimensions, reachable or not, each build
    stopped where it takes them."""
    lists = []

    class Recorded(Exception):
        pass

    def recording(factors, rank):
        lists.append(factors)
        raise Recorded

    with monkeypatch.context() as m:
        m.setattr(reps, "_ambient", recording)
        for psi in itertools.product(range(3), repeat=cb.rs.rank):
            if sum(psi) <= 2 and reps.weyl_dimension(cb.rs, psi) <= 300:
                with pytest.raises(Recorded):
                    build_irrep(cb, psi)
    return lists


@pytest.mark.parametrize("t, r", REALIZATIONS)
def test_weight_spaces_match_the_enumeration_oracle(t, r, monkeypatch):
    # The weight table holds, for each j, the weights the factors from j
    # on sum to, and _weight_space lists the tuples of each weight in the
    # order the enumeration of the whole ambient (ambient_spaces) gives
    # them: a weight is off the table exactly when the enumeration has no
    # tuple of it, and a weight off the table lists none.  On the factor
    # lists of test_sparse_powers_match_dense_builders and of every
    # build_irrep with |psi| <= 2 and at most 300 dimensions.
    cb = build_chevalley(t, r)
    sweep = sweep_factor_lists(cb, monkeypatch)
    assert sweep
    for factors in power_pairs(cb) + sweep:
        _, table = reps._ambient(factors, r)
        assert len(table) == len(factors) + 1 and table[-1] == {(0,) * r}
        assert all(table[j] == set(ambient_spaces(factors[j:])) for j in range(len(factors)))
        spaces = ambient_spaces(factors)
        for w, ts in spaces.items():
            assert reps._weight_space(factors, table, w) == ts, w
            for c in range(r):
                off = w[:c] + (w[c] + 1,) + w[c + 1 :]
                if off not in spaces:
                    assert reps._weight_space(factors, table, off) == [], off


@pytest.mark.parametrize("t, r, hw, listed", [("D", 3, (1, 3, 1), 885), ("B", 4, (0, 0, 0, 2), 60)])
def test_build_lists_only_the_psi_weight_space(t, r, hw, listed, monkeypatch):
    # build_irrep lists the index tuples of weight psi alone, and no
    # other tuple of its ambient: 885 of the 405,000 of D3 (1,3,1), and
    # 60 of the 15,876 of B4 (0,0,0,2), counted where they are listed.
    listing, counts = reps._weight_space, []

    def counting(factors, table, w):
        space = listing(factors, table, w)
        counts.append(len(space))
        return space

    monkeypatch.setattr(reps, "_weight_space", counting)
    build_irrep(build_chevalley(t, r), hw)
    assert counts == [listed], (t, r, hw)


@pytest.mark.parametrize("t, r", REALIZATIONS)
def test_power_rule_matches_the_leibniz_oracle(t, r):
    # One replaced index per distinct entry, times its multiplicity in
    # Sym^k and with the sign of the entries it passes in Λ^k, against a
    # Leibniz step at every position, a re-sort and a pairwise inversion
    # count, for k ≤ 5.
    cb = build_chevalley(t, r)
    defining = (cb.N, cb.action, reps._diagonal_weights(cb, cb.action, cb.N, cb.denominator))
    for k in range(6):
        for exterior in (False, True):
            assert reps._power_raw(defining, k, exterior) == power_raw_by_leibniz(defining, k, exterior), (k, exterior)


@pytest.mark.parametrize("r, k", [(r, k) for r in (1, 2) for k in (25, 60)])
def test_high_symmetric_powers_match_the_leibniz_oracle(r, k):
    cb = build_chevalley("A", r)
    defining = (cb.N, cb.action, reps._diagonal_weights(cb, cb.action, cb.N, cb.denominator))
    assert reps._power_raw(defining, k) == power_raw_by_leibniz(defining, k)


def test_sym_1999_of_a1_within_three_tenths_of_a_second():
    # Surgery on sorted index tuples of length 1,999 took 1.3 s
    # (2-vCPU x86-64).
    cb = build_chevalley("A", 1)
    defining = (cb.N, cb.action, reps._diagonal_weights(cb, cb.action, cb.N, cb.denominator))
    start = time.perf_counter()
    dim, _, weights = reps._power_raw(defining, 1999)
    assert time.perf_counter() - start < 0.3
    assert dim == 2000 and weights[0] == (1999,) and weights[-1] == (-1999,)


def test_sorted_tuples_give_the_monomial_order():
    # combinations_with_replacement lists the monomials e1^k, e1^(k-1)·e2,
    # ... in the order of their exponent vectors, decreasing.
    for d in range(1, 6):
        for k in range(5):
            exponents = [tuple(t.count(i) for i in range(d)) for t in itertools.combinations_with_replacement(range(d), k)]
            assert exponents == sorted(
                (m for m in itertools.product(range(k + 1), repeat=d) if sum(m) == k), reverse=True
            ), (d, k)


def test_a1_standard_and_sym2_matrices():
    cb = build_chevalley("A", 1)
    std = build_irrep(cb, (1,))
    assert std.dim == 2
    assert std.weights == ((1,), (-1,))
    sym2 = build_irrep(cb, (2,))
    # Monomial basis e1^2, e1e2, e2^2: f acts by 2, then 1.
    action = dense_action(sym2)
    f = action[(-2,)]
    assert f[1][0] == 2 and f[2][1] == 1
    e = action[(2,)]
    assert e[0][1] == 1 and e[1][2] == 2
    assert [action[("h", 0)][i][i] for i in range(3)] == [2, 0, -2]


def test_a2_adjoint_weight_multiplicity():
    cb = build_chevalley("A", 2)
    adj = build_irrep(cb, (1, 1))
    assert adj.dim == 8
    assert len(adj.block((1, 1), (0, 0))) == 2


def test_build_irrep_errors():
    cb = build_chevalley("A", 1)
    with pytest.raises(RepError):
        build_irrep(cb, (-1,))
    with pytest.raises(RepError):
        build_irrep(cb, (1, 1))


def test_direct_sum_decompose():
    cb = build_chevalley("A", 1)
    std = build_irrep(cb, (1,))
    ds = direct_sum([std, std])
    assert ds.highest_weights == ((1,), (1,))
    assert ds.dim == 4


def test_tensor_decompose():
    cb = build_chevalley("A", 1)
    std = build_irrep(cb, (1,))
    assert tensor_product(std, std).highest_weights == ((2,), (0,))
    cb2 = build_chevalley("A", 2)
    v = build_irrep(cb2, (1, 0))
    vbar = build_irrep(cb2, (0, 1))
    assert tensor_product(v, vbar).highest_weights == ((1, 1), (0, 0))


def test_not_a_representation():
    cb = build_chevalley("A", 1)
    std = build_irrep(cb, (1,))
    broken = dense_action(std)
    broken[(2,)] = tuple(
        tuple(x + 1 for x in row) for row in broken[(2,)]
    )
    with pytest.raises(RepError):
        adapt(cb, sparse_action(broken), std.dim)


def with_entry(m, r, c, value):
    return tuple(
        tuple(value if (i, j) == (r, c) else x for j, x in enumerate(row))
        for i, row in enumerate(m)
    )


def single_entry_changes(m):
    """One changed nonzero off-diagonal entry, then one zero off-diagonal
    entry made nonzero, each as (row, column, new value)."""
    off = [(r, c) for r in range(len(m)) for c in range(len(m)) if r != c]
    r, c = [rc for rc in off if m[rc[0]][rc[1]]][0]
    yield r, c, m[r][c] + 1
    r, c = [rc for rc in off if not m[rc[0]][rc[1]]][-1]
    yield r, c, Fraction(1)


def test_single_entry_change_is_not_a_representation():
    # The homomorphism check must see one changed entry, not only the
    # all-entries change of test_not_a_representation.
    for t, r, hw in (
        ("B", 3, (1, 0, 0)),
        ("C", 2, (1, 1)),
        ("A", 3, (0, 1, 0)),
        ("D", 4, (1, 0, 0, 0)),
    ):
        cb = build_chevalley(t, r)
        rep = build_irrep(cb, hw)
        action = dense_action(rep)
        assert adapt(cb, sparse_action(action), rep.dim).action == rep.action
        rs = cb.rs
        for key in (rs.simple[0], tuple(-x for x in rs.simple[-1]), rs.positive[-1]):
            for i, j, value in single_entry_changes(action[key]):
                broken = dict(action)
                broken[key] = with_entry(broken[key], i, j, value)
                with pytest.raises(RepError):
                    adapt(cb, sparse_action(broken), rep.dim)


def test_projector_properties(sweep_reps):
    rep = sweep_reps[("A", 2, (1, 1))]
    for (psi, chi) in rep.blocks:
        p = projector(rep, psi, chi)
        assert mat_mul(p, p) == p
        for i in range(rep.cb.rs.rank):
            h = dense_action(rep)[("h", i)]
            assert mat_mul(p, h) == mat_mul(h, p)
    # Invalid block: zero matrix, not an error.
    z = projector(rep, (1, 1), (9, 9))
    assert all(x == 0 for row in z for x in row)


def test_down_step_is_the_block_of_the_dense_generator(sweep_reps):
    # For every simple root a and both signs, the oracle down_step (the
    # step of check_transition_surjectivity) from the (psi,
    # chi + a) block to the (psi, chi) block is the block of the dense
    # x_(-a) (sign < 0), or the transposed block of the dense x_a from chi
    # up (sign > 0), times the denominator (2 for B2 (1,0)), as an integer
    # sparse matrix on the block positions; empty when chi + a is no weight
    # of the component.
    compared = 0
    cases = dict(sweep_reps)
    cases[("B", 2, (1, 0))] = build_irrep(build_chevalley("B", 2), (1, 0))
    for (t, r, hw), rep in cases.items():
        action = {key: mat_scale(rep.denominator, g) for key, g in dense_action(rep).items()}
        for a in rep.cb.rs.simple:
            lower_gen, raise_gen = action[tuple(-x for x in a)], action[a]
            for psi, chi in rep.blocks:
                lower = rep.block(psi, chi)
                upper = rep.block(psi, tuple(x + y for x, y in zip(chi, a)))
                down = tuple(tuple(lower_gen[i][j] for j in upper) for i in lower)
                up = tuple(tuple(raise_gen[j][i] for j in upper) for i in lower)
                assert down_step(rep, psi, a, chi, -1) == sparse(down), (t, r, hw, a, chi)
                assert down_step(rep, psi, a, chi, +1) == sparse(up), (t, r, hw, a, chi)
                compared += any(x for row in down for x in row)
    assert compared > 0


def test_transition_surjectivity_trivial_chi_equals_psi(sweep_reps):
    rep = sweep_reps[("A", 1, (2,))]
    ok, rank = check_transition_surjectivity(rep, (2,), (2,), -1)
    assert ok and rank == 1


def test_transition_surjectivity_sweep(sweep_reps):
    for (t, r, hw), rep in sweep_reps.items():
        for (psi, chi) in rep.blocks:
            for sign in (-1, 1):
                ok, rank = check_transition_surjectivity(rep, psi, chi, sign)
                assert ok, (t, r, hw, psi, chi, sign)


def test_transition_surjectivity_rank_two(sweep_reps):
    rep = sweep_reps[("A", 2, (1, 1))]
    ok, rank = check_transition_surjectivity(rep, (1, 1), (0, 0), -1)
    assert ok and rank == 2


def test_transition_errors(sweep_reps):
    rep = sweep_reps[("A", 1, (2,))]
    with pytest.raises(RepError):
        check_transition_surjectivity(rep, (2,), (1,), -1)


def test_transition_surjectivity_matches_word_oracle(sweep_reps):
    # The walk down the weights against the span of every distinct word,
    # on the sweep and on two reducible representations: 3 ⊗ 3̄ of A2, and
    # 3 ⊕ 3, whose two-dimensional highest block the identity word alone
    # cannot span.
    cb = build_chevalley("A", 2)
    v, w = build_irrep(cb, (1, 0)), build_irrep(cb, (0, 1))
    reducible = [tensor_product(v, w), direct_sum([v, v])]
    for rep in list(sweep_reps.values()) + reducible:
        for (psi, chi) in rep.blocks:
            for sign in (-1, 1):
                got = check_transition_surjectivity(rep, psi, chi, sign)
                assert got == transition_by_words(rep, psi, chi, sign), (psi, chi, sign)
    assert check_transition_surjectivity(reducible[1], (1, 0), (1, 0), -1) == (False, 1)


def test_distinct_words_match_permutation_sets():
    a, b, c = (1, 0), (0, 1), (-1, 1)
    for letters in ([], [a], [a, a], [a, b], [a, a, b], [a, b, a, b], [a, a, a, b, c], [b, c, c, a, b, a]):
        words = list(distinct_words(letters))
        assert len(words) == len(set(words))
        assert set(words) == set(itertools.permutations(letters))


def test_word_products_match_direct_products(sweep_reps):
    rep = sweep_reps[("A", 2, (1, 1))]
    a, b = (tuple(-x for x in r) for r in rep.cb.rs.simple)
    words = list(distinct_words([a, a, b])) + [(), (b,), (a, b, a, a)]
    # Reversed, words arrive before their prefixes and share fewer of them.
    action = dense_action(rep)
    for order in (words, words[::-1]):
        got = list(word_products(action, order))
        assert [w for w, _ in got] == order
        for word, prod in got:
            direct = identity(rep.dim)
            for key in word:
                direct = mat_mul(action[key], direct)
            assert prod == direct


def test_json_roundtrip(sweep_reps):
    rep = sweep_reps[("A", 2, (2, 0))]
    obj = rep.to_json_obj()
    text = json.dumps(obj, sort_keys=True)
    back = json.loads(text)
    assert back["dim"] == 6
    assert back["highest_weights"] == [[2, 0]]
