"""Graded generator words, sandwich lattices, invariance, split hulls,
orbit reports and the subgroup count."""

import contextlib
import importlib.util
import itertools
import random
import sys
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmod import latconstruct
from latmod.exact import Lattice, LatticeError, ZSpan, _canonical, enumerate_between
from latmod.latconstruct import (
    _shift_lattice_columns,
    _shift_span,
    count_invariant_orbits,
    is_invariant,
    is_split,
    normalize_profile,
    s_minus,
    s_plus,
    split_hull,
    subgroup_count,
)
from latmod.matrixops import dense, identity, mat_vec
from latmod.reps import (
    build_irrep,
    direct_sum,
    lattice_generators,
    projector,
    tensor_product,
)
from latmod.rootdata import RootSystem, build_chevalley
from oracles import (
    check_transition_surjectivity,
    count_invariant_orbits_by_enumeration,
    dense_action,
    direct_sum_by_hermite,
    has_j_components,
    mat_scale,
    s_minus_by_words,
    sandwich_type,
    s_plus_by_words,
    index_by_pivot_products,
    shift_lattice_columns_by_inverse_cartan,
    subgroup_count_by_gaussian_binomials,
    subgroup_count_of_quotient,
    weights_down,
    word_matrices,
    zspan_member,
)


@pytest.fixture(scope="module")
def a1_reps():
    cb = build_chevalley("A", 1)
    return {n: build_irrep(cb, (n,)) for n in (1, 2, 3)}


def diag_lattice(vals, prime):
    n = len(vals)
    return Lattice(
        [[Fraction(vals[j]) if i == j else 0 for i in range(n)] for j in range(n)],
        prime,
    )


# -- u_span -------------------------------------------------------------


def u_span(rep, sign, degree):
    """Z-span of the words of one degree that s_minus and s_plus apply,
    as flattened dim×dim matrices."""
    d = rep.dim
    words = word_matrices(rep, [degree], sign)
    return ZSpan([tuple(m[r][c] for r in range(d) for c in range(d)) for m in words], d * d)


def test_u_span_degree_zero_is_identity(a1_reps):
    rep = a1_reps[2]
    sp = u_span(rep, +1, (0,))
    d = rep.dim
    flat_id = tuple(
        Fraction(int(r == c)) for r in range(d) for c in range(d)
    )
    assert len(sp.columns) == 1 and zspan_member(sp, flat_id)


def test_u_span_single_generator(a1_reps):
    rep = a1_reps[1]
    sp = u_span(rep, +1, (1,))
    e = dense_action(rep)[(2,)]
    flat = tuple(e[r][c] for r in range(2) for c in range(2))
    assert len(sp.columns) == 1 and zspan_member(sp, flat)


def test_u_span_square(a1_reps):
    rep = a1_reps[2]
    sp = u_span(rep, +1, (2,))
    from latmod.matrixops import mat_mul

    e = dense_action(rep)[(2,)]
    e2 = mat_mul(e, e)
    flat = tuple(e2[r][c] for r in range(3) for c in range(3))
    assert len(sp.columns) == 1 and zspan_member(sp, flat)


# -- sandwich -----------------------------------------------------------


def test_standard_sandwich_collapses(a1_reps):
    rep = a1_reps[1]
    sm = s_minus(rep, 2)
    sp = s_plus(rep, 2)
    assert sm == sp == Lattice([[1, 0], [0, 1]], prime=2)


def test_sym2_sandwich_values(a1_reps):
    # In the monomial basis: f·e1² = 2e1e2, f²·e1² = 2e2², e·e1e2 = e1²,
    # e²·e2² = 2e1².
    rep = a1_reps[2]
    assert s_minus(rep, 2) == diag_lattice([1, 2, 2], 2)
    assert s_plus(rep, 2) == diag_lattice([1, 1, Fraction(1, 2)], 2)


def test_sandwich_membership_oracle(a1_reps):
    # Brute-force confirmation of the frozen Sym² values: a vector is in
    # s_plus iff all its raising-word projections land in J.
    rep = a1_reps[2]
    sp = s_plus(rep, 2)
    from latmod.matrixops import mat_mul

    e = dense_action(rep)[(2,)]
    e2 = mat_mul(e, e)
    for v in [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, Fraction(1, 2)),
        (0, 0, 1),
        (Fraction(1, 2), 0, 0),
        (0, Fraction(1, 2), 0),
    ]:
        ok = all(
            Fraction(w[0]).denominator % 2 != 0
            for w in (v, mat_vec(e, v), mat_vec(e2, v))
        )
        assert sp.member(v) == ok


def test_sandwich_properties_sweep():
    reps = []
    cb1 = build_chevalley("A", 1)
    for n in (1, 2, 3, 4):
        reps.append(build_irrep(cb1, (n,)))
    cb2 = build_chevalley("A", 2)
    for hw in ((1, 0), (0, 1), (2, 0)):
        reps.append(build_irrep(cb2, hw))
    cbc = build_chevalley("C", 2)
    for hw in ((1, 0), (0, 1)):
        reps.append(build_irrep(cbc, hw))
    for rep in reps:
        sm = s_minus(rep, 2)
        sp = s_plus(rep, 2)
        assert sp.contains(sm)
        assert is_split(rep, sm) and is_split(rep, sp)
        # Highest-weight components equal J on both ends.
        assert has_j_components(rep, sm)
        assert has_j_components(rep, sp)


def test_minimality_maximality_via_enumeration(a1_reps):
    rep = a1_reps[2]
    sm = s_minus(rep, 2)
    sp = s_plus(rep, 2)
    action = dense_action(rep)
    lowering = [action[(-2,)]]
    raising = [action[(2,)]]
    for m in enumerate_between(sm, sp):
        if not (is_split(rep, m) and has_j_components(rep, m)):
            continue
        if all(
            m.member(mat_vec(g, col)) or not any(mat_vec(g, col))
            for g in lowering
            for col in m.basis
        ):
            assert m.contains(sm)
        if all(
            m.member(mat_vec(g, col)) or not any(mat_vec(g, col))
            for g in raising
            for col in m.basis
        ):
            assert sp.contains(m)


# Z, Z_(2) and Z_(3).
ORACLE_RINGS = (None, 2, 3)


ORACLE_IRREDUCIBLES = (
    [("A", 1, (n,)) for n in range(1, 6)]
    + [("A", 2, hw) for hw in ((1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (3, 0))]
    + [("A", 3, hw) for hw in ((1, 0, 0), (0, 1, 0), (2, 0, 0), (1, 0, 1))]
    + [("A", 4, (1, 0, 0, 0)), ("A", 4, (0, 1, 0, 0))]
    + [("B", 2, (1, 0)), ("B", 2, (2, 0)), ("B", 3, (1, 0, 0))]
    + [("C", 2, (1, 0)), ("C", 2, (0, 1)), ("C", 2, (1, 1))]
    + [("C", 3, (1, 0, 0)), ("C", 3, (0, 1, 0)), ("D", 4, (1, 0, 0, 0))]
)


@pytest.mark.parametrize(
    "label, rank, hw",
    ORACLE_IRREDUCIBLES,
    ids=["%s%d-%s" % (t, r, ",".join(map(str, hw))) for t, r, hw in ORACLE_IRREDUCIBLES],
)
def test_sandwich_matches_word_oracle(label, rank, hw):
    rep = build_irrep(build_chevalley(label, rank), hw)
    for p in ORACLE_RINGS:
        lo, hi = s_minus(rep, p), s_plus(rep, p)
        assert lo == s_minus_by_words(rep, p)
        assert hi == s_plus_by_words(rep, p)
        assert hi.contains(lo)


def test_sandwich_matches_word_oracle_on_reducibles():
    # Several highest weights, and highest blocks of dimension 2 (3 ⊕ 3).
    cb1, cb2 = build_chevalley("A", 1), build_chevalley("A", 2)
    v, w = build_irrep(cb2, (1, 0)), build_irrep(cb2, (0, 1))
    s1, s2 = build_irrep(cb1, (1,)), build_irrep(cb1, (2,))
    for rep in (
        direct_sum([v, v]),
        direct_sum([v, w]),
        tensor_product(v, w),
        tensor_product(v, v),
        direct_sum([s1, s2]),
        tensor_product(s1, s2),
    ):
        for p in ORACLE_RINGS:
            lo, hi = s_minus(rep, p), s_plus(rep, p)
            assert lo == s_minus_by_words(rep, p)
            assert hi == s_plus_by_words(rep, p)
            assert hi.contains(lo)


def test_sandwich_properties_beyond_the_oracle():
    # Sandwiches whose word lists the oracle cannot afford (the D4 one
    # took about a minute that way): S- ⊆ S+, S- stable under each simple
    # lowering generator and S+ under each simple raising one, both split,
    # both with the J components.
    start = time.monotonic()
    for label, rank, hw in (("B", 3, (0, 1, 0)), ("C", 3, (0, 1, 0)), ("D", 4, (0, 1, 0, 0))):
        rep = build_irrep(build_chevalley(label, rank), hw)
        lo, hi = s_minus(rep, 2), s_plus(rep, 2)
        assert hi.contains(lo)
        for a in rep.cb.rs.simple:
            assert lo.stable_under(rep.action[tuple(-x for x in a)], rep.denominator)
            assert hi.stable_under(rep.action[a], rep.denominator)
        assert is_split(rep, lo) and is_split(rep, hi)
        assert has_j_components(rep, lo) and has_j_components(rep, hi)
    assert time.monotonic() - start < 10


def test_sandwich_walk_refuses_a_block_listed_before_one_above_it():
    # s_minus and s_plus walk a component's blocks in basis order, which
    # the breadth-first lowering walk puts in height order
    # (test_walked_basis_runs_down_the_weights); a weight met before a
    # weight of the component above it fails loudly, not skipped.
    rep = build_irrep(build_chevalley("A", 1), (3,))
    top, high, low, bottom = rep.blocks.items()
    rep.blocks = dict([top, low, high, bottom])
    for build in (s_minus, s_plus):
        with pytest.raises(AssertionError, match="weight \\(-1,\\) of \\(3,\\) is walked before the weight \\(1,\\)"):
            build(rep, 2)


# -- hulls ---------------------------------------------------------------


def one_step_hull(rep, lat):
    """lat plus its images under every Chevalley-lattice generator, each
    generator's integer matrix over rep.denominator."""
    c = Fraction(1, rep.denominator)
    images = [mat_vec(mat_scale(c, dense(g, rep.dim)), col) for g in lattice_generators(rep) for col in lat.basis]
    return Lattice(list(lat.basis) + [v for v in images if any(v)], lat.prime)


def test_hull_fixed_point(a1_reps):
    rep = a1_reps[2]
    lam = diag_lattice([1, 1, 1], 2)
    assert one_step_hull(rep, lam) == lam
    assert is_invariant(rep, lam)


def test_hull_forces_component_up(a1_reps):
    # f·e1e2 = e2² escapes 2Z·e2², so the hull lifts the last component.
    rep = a1_reps[2]
    lam = diag_lattice([1, 1, 2], 2)
    assert not is_invariant(rep, lam)
    hull = one_step_hull(rep, lam)
    assert hull == diag_lattice([1, 1, 1], 2)
    assert is_invariant(rep, hull) and one_step_hull(rep, hull) == hull
    assert hull.contains(lam)


def test_split_hull_idempotent(a1_reps):
    rep = a1_reps[2]
    lam = Lattice([[1, 1, 0], [0, 2, 0], [0, 0, 1]], prime=2)
    sh = split_hull(rep, lam)
    assert is_split(rep, sh)
    assert split_hull(rep, sh) == sh
    assert sh.contains(lam)
    assert split_hull(rep, sh) == split_hull(rep, lam)


# The representation sweep of acceptance criterion 4.
CRITERION_4_SWEEP = (
    [("A", 1, (n,)) for n in range(5)]
    + [("A", 2, hw) for hw in ((1, 0), (0, 1), (1, 1), (2, 0))]
    + [("C", 2, (1, 0)), ("C", 2, (0, 1))]
)


def _projector_reads(rep, lat, prs):
    """split_hull and has_j_components by 0/1 projector products."""
    images = {key: [mat_vec(pr, col) for col in lat.basis] for key, pr in prs.items()}
    hull = Lattice(
        [v for vs in images.values() for v in vs if any(v)], lat.prime, ambient=lat.ambient
    )
    has_j = True
    for psi in rep.distinct_highest_weights():
        ix = rep.block(psi, psi)
        comps = [[v[i] for i in ix] for v in images[(psi, psi)]]
        comps = [c for c in comps if any(c)]
        has_j = has_j and Lattice(comps, lat.prime, ambient=len(ix)) == Lattice(identity(len(ix)), lat.prime)
    return hull, has_j


def test_block_reads_match_projector_products_on_criterion_4_sweep():
    # split_hull and has_j_components read block coordinates straight
    # from rep.blocks; the oracle is the projector product they replaced.
    for label, rank, hw in CRITERION_4_SWEEP:
        rep = build_irrep(build_chevalley(label, rank), hw)
        lo, hi = s_minus(rep, 2), s_plus(rep, 2)
        if lo.index_in(hi) > 2**12:
            continue
        prs = {key: projector(rep, *key) for key in rep.blocks}
        for m in [lo, hi] + enumerate_between(lo, hi):
            hull, has_j = _projector_reads(rep, m, prs)
            assert split_hull(rep, m) == hull
            assert has_j_components(rep, m) == has_j


# -- profiles and orbits ---------------------------------------------------


def test_profile_reference_lattice(a1_reps):
    rep = a1_reps[2]
    lam = diag_lattice([1, 1, 1], 2)
    profile, inv = normalize_profile(rep, lam)
    assert profile == (0, 0, 0)
    assert inv == (0, 0, 0)


def test_profile_uniform_shift_invariant(a1_reps):
    rep = a1_reps[2]
    a = diag_lattice([1, 1, 1], 2)
    b = diag_lattice([2, 2, 2], 2)
    assert normalize_profile(rep, a)[1] == normalize_profile(rep, b)[1]


def test_paper_lattices_distinct_invariants(a1_reps):
    rep = a1_reps[2]
    lam = diag_lattice([1, 1, 1], 2)
    lam2 = diag_lattice([1, 2, 1], 2)
    assert is_invariant(rep, lam) and is_invariant(rep, lam2)
    assert normalize_profile(rep, lam)[0] == (0, 0, 0)
    assert normalize_profile(rep, lam2)[0] == (0, 1, 0)
    assert normalize_profile(rep, lam)[1] != normalize_profile(rep, lam2)[1]


def test_profile_errors(a1_reps):
    rep = a1_reps[2]
    with pytest.raises(LatticeError, match="localized"):
        normalize_profile(rep, Lattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(LatticeError, match="split"):
        normalize_profile(rep, Lattice([[1, 1, 0], [0, 2, 0], [0, 0, 1]], prime=2))
    cb2 = build_chevalley("A", 2)
    adj = build_irrep(cb2, (1, 1))
    with pytest.raises(LatticeError, match="multiplicity-free"):
        normalize_profile(adj, Lattice(tuple(
            tuple(Fraction(int(i == j)) for i in range(8)) for j in range(8)
        ), prime=2))


def test_shift_span_matches_inverse_cartan():
    cb1, cb2, cbc = build_chevalley("A", 1), build_chevalley("A", 2), build_chevalley("C", 2)
    v, w = build_irrep(cb2, (1, 0)), build_irrep(cb2, (0, 1))
    s1, s2 = build_irrep(cb1, (1,)), build_irrep(cb1, (2,))
    reps = [build_irrep(cb1, (n,)) for n in (0, 1, 2, 3, 4)]
    reps += [v, w, build_irrep(cb2, (2, 0)), build_irrep(cb2, (1, 1))]
    reps += [build_irrep(cbc, (1, 0)), build_irrep(cbc, (0, 1))]
    reps += [
        build_irrep(build_chevalley(t, r), hw)
        for t, r, hw in (("A", 3, (0, 1, 0)), ("B", 2, (1, 0)), ("C", 3, (1, 0, 0)), ("D", 3, (1, 0, 0)))
    ]
    reps += [direct_sum([v, w]), direct_sum([v, v]), direct_sum([s1, s2])]
    for rep in reps:
        expected = shift_lattice_columns_by_inverse_cartan(rep)
        assert [c for c in _shift_lattice_columns(rep) if any(c)] == expected
        assert _shift_span(rep) == ZSpan(expected, len(rep.blocks))


def test_lattice_constructions_build_no_coordinate_solver(monkeypatch):
    # The simple-root coordinates of a weight come from the root system's
    # one Cartan solver, scaled_inverse, taken when the root system is
    # built: once the representation is built, the sandwich, the orbit
    # report and the transition check invert no matrix.
    reps = [
        build_irrep(build_chevalley(t, r), hw)
        for t, r, hw in (("A", 2, (2, 0)), ("C", 3, (1, 0, 0)), ("A", 3, (0, 1, 0)))
    ]
    built = []

    def counting(solver):
        def wrapped(a):
            built.append(a)
            return solver(a)

        return wrapped

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "latmod" and hasattr(module, "scaled_inverse"):
            monkeypatch.setattr(module, "scaled_inverse", counting(module.scaled_inverse))
    RootSystem("A", 2)
    assert len(built) == 1
    built.clear()
    for rep in reps:
        (psi,) = rep.distinct_highest_weights()
        s_minus(rep, 2)
        s_plus(rep, 2)
        count_invariant_orbits(rep, 2)
        lowest = weights_down(rep, psi)[-1][0]
        for sign in (-1, 1):
            check_transition_surjectivity(rep, psi, lowest, sign)
    assert built == []


def test_sandwich_and_orbit_paths_build_no_dense_grid(monkeypatch):
    # The generator matrices have one form, sparse: building the
    # representation, S₋, S₊ and the orbit report makes no dense matrix,
    # and neither the Representation nor its ChevalleyBasis keeps a dense
    # copy of its generators.
    calls = []

    def counting(m, n):
        calls.append(n)
        return dense(m, n)

    patched = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "latmod" and getattr(module, "dense", None) is dense:
            monkeypatch.setattr(module, "dense", counting)
            patched.append(name)
    assert "latmod.reps" in patched
    for t, r, hw, p in (("A", 1, (4,), 2), ("A", 2, (2, 0), 2), ("C", 2, (0, 1), 2), ("C", 3, (1, 0, 0), 2)):
        rep = build_irrep(build_chevalley(t, r), hw)
        s_minus(rep, p)
        s_plus(rep, p)
        count_invariant_orbits(rep, p)
        assert not hasattr(rep, "sparse_action"), (t, r, hw)
        assert not hasattr(rep.cb, "x") and not hasattr(rep.cb, "h"), (t, r)
    assert calls == []


def test_orbit_count_trivial():
    cb = build_chevalley("A", 1)
    triv = build_irrep(cb, (0,))
    report = count_invariant_orbits(triv, 2)
    assert report["orbits"] == 1
    assert report["total_between"] == 1


def test_orbit_count_standard(a1_reps):
    report = count_invariant_orbits(a1_reps[1], 2)
    assert report["sandwich_index"] == 1
    assert report["orbits"] == 1


def test_orbit_count_sym2_regression(a1_reps):
    # Frozen after confirming by hand: invariant split profiles are
    # (0,a,b) with 0 <= a <= 1 and a-1 <= b <= a; the shift lattice
    # identifies (0,0,-1) with (0,1,1).
    report = count_invariant_orbits(a1_reps[2], 2)
    assert report["sandwich_index"] == 8
    assert report["total_between"] == 8
    assert report["invariant"] == 4
    assert report["orbits"] == 3
    reps_lat = [Lattice.from_json_obj(o) for o in report["representatives"]]
    lam = diag_lattice([1, 1, 1], 2)
    lam2 = diag_lattice([1, 2, 1], 2)
    # The paper's two lattices land in distinct orbit classes.
    invs = {normalize_profile(a1_reps[2], m)[1] for m in reps_lat}
    assert normalize_profile(a1_reps[2], lam)[1] in invs
    assert normalize_profile(a1_reps[2], lam2)[1] in invs


# Representatives of A1 hw 2 at p = 2, as the CLI printed them before the
# enumeration order changed; one class holds two invariant lattices.
SYM2_P2_REPRESENTATIVES = [
    {"ambient": 3, "basis": [["1", "0", "0"], ["0", "2", "0"], ["0", "0", "1"]], "ring": {"Zp": 2}},
    {"ambient": 3, "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1/2"]], "ring": {"Zp": 2}},
    {"ambient": 3, "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "ring": {"Zp": 2}},
]


def test_orbit_representatives_independent_of_enumeration_order(a1_reps, monkeypatch):
    # The invariant lattices come from the search over the valuation box;
    # the representatives must not depend on the order it yields them in.
    rep = a1_reps[2]
    assert count_invariant_orbits(rep, 2)["representatives"] == SYM2_P2_REPRESENTATIVES
    search = latconstruct._invariant_valuations
    found = []

    def reversed_search(*args):
        found[:] = search(*args)
        return found[::-1]

    monkeypatch.setattr(latconstruct, "_invariant_valuations", reversed_search)
    assert count_invariant_orbits(rep, 2)["representatives"] == SYM2_P2_REPRESENTATIVES
    assert len(found) == 4 and found != found[::-1]
    for seed in range(5):
        monkeypatch.setattr(
            latconstruct,
            "_invariant_valuations",
            lambda *a: random.Random(seed).sample(list(search(*a)), len(found)),
        )
        assert count_invariant_orbits(rep, 2)["representatives"] == SYM2_P2_REPRESENTATIVES


def test_orbit_search_stops_at_the_first_class_past_the_cap(monkeypatch):
    # A1 hw 4 at p = 2 has 36 invariant valuation vectors in 32 classes of
    # dimension 5.  250 basis entries admit 10 classes, and the first 11
    # vectors open 11, so the search stops at the 11th.
    rep = build_irrep(build_chevalley("A", 1), (4,))
    search, drawn = latconstruct._invariant_valuations, []

    def counted(*args):
        for v in search(*args):
            drawn.append(v)
            yield v

    monkeypatch.setattr(latconstruct, "_invariant_valuations", counted)
    assert count_invariant_orbits(rep, 2)["invariant"] == len(drawn) == 36
    drawn.clear()
    monkeypatch.setattr(latconstruct, "REPORT_ENTRY_CAP", 250)
    with pytest.raises(LatticeError, match="more than the 10 classes of dimension 5 that the cap of 250"):
        count_invariant_orbits(rep, 2)
    assert len(drawn) == 11


def test_orbit_count_rejects_multiplicity(a1_reps):
    adj = build_irrep(build_chevalley("A", 2), (1, 1))
    with pytest.raises(LatticeError, match="multiplicity-free"):
        count_invariant_orbits(adj, 2)


def test_orbit_count_sym3_regression(a1_reps):
    rep = a1_reps[3]
    r2 = count_invariant_orbits(rep, 2)
    assert (r2["sandwich_index"], r2["invariant"], r2["orbits"]) == (16, 3, 3)
    r3 = count_invariant_orbits(rep, 3)
    assert (r3["sandwich_index"], r3["invariant"], r3["orbits"]) == (81, 4, 4)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.lists(st.integers(-3, 3), min_size=1, max_size=5))
def test_diagonal_representative_is_already_canonical(p, v):
    # Lattice.diagonal takes its columns as they stand; the Hermite form
    # gives the same canonical pair, so the lattice is the one
    # from_integers builds and its valuations are v.
    lat = Lattice.diagonal(v, p)
    assert (lat.denominator, [list(c) for c in lat.columns]) == _canonical(lat.columns, lat.denominator, len(v), p)
    assert lat == Lattice.from_integers(lat.columns, lat.denominator, p, len(v))
    assert lat.valuations() == v


def test_orbit_report_schema(a1_reps):
    report = count_invariant_orbits(a1_reps[2], 2)
    assert set(report) == {
        "sandwich_index",
        "total_between",
        "invariant",
        "orbits",
        "representatives",
    }
    for obj in report["representatives"]:
        lat = Lattice.from_json_obj(obj)
        assert lat.prime == 2


# -- the valuation box against full enumeration ------------------------------


def _load_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCHMARK_ORBITS = _load_workloads().ORBITS


@pytest.mark.parametrize(
    "key", sorted(BENCHMARK_ORBITS), ids=["%s%d-%s-p%d" % k for k in sorted(BENCHMARK_ORBITS)]
)
def test_orbit_report_matches_enumeration_on_benchmark_keys(key):
    label, rank, hw, p = key
    rep = build_irrep(build_chevalley(label, rank), tuple(int(x) for x in hw.split(",")))
    report = count_invariant_orbits(rep, p)
    assert report == count_invariant_orbits_by_enumeration(rep, p)
    counts = (report["sandwich_index"], report["total_between"], report["invariant"], report["orbits"])
    assert counts == BENCHMARK_ORBITS[key]


@pytest.mark.parametrize("n, p", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_orbit_report_matches_enumeration_on_criterion_5_cases(a1_reps, n, p):
    rep = a1_reps[n]
    assert count_invariant_orbits(rep, p) == count_invariant_orbits_by_enumeration(rep, p)


@lru_cache(maxsize=None)
def _rep_by_name(name):
    cb1 = build_chevalley("A", 1)
    if name == "A1 1+2":
        return direct_sum([build_irrep(cb1, (1,)), build_irrep(cb1, (2,))])
    if name == "A1 1x2":
        return tensor_product(build_irrep(cb1, (1,)), build_irrep(cb1, (2,)))
    label, rank, hw = name.split()
    return build_irrep(build_chevalley(label, int(rank)), tuple(int(x) for x in hw.split(",")))


# A2 (2,0) is left to the benchmark keys: its p = 2 sandwich holds 1500
# lattices, the most enumeration any of these tests does.
MULTIPLICITY_FREE = (
    ["A 1 %d" % n for n in range(5)]
    + ["A 2 1,0", "A 2 0,1", "A 3 1,0,0", "B 2 1,0", "C 2 1,0", "C 2 0,1"]
    + ["A1 1+2", "A1 1x2"]
)


@pytest.mark.parametrize("name", MULTIPLICITY_FREE)
def test_orbit_report_matches_enumeration_on_multiplicity_free_reps(name):
    # At every p in {2, 3, 5} where [S₊ : S₋] ≤ 2¹²: all but A1 (4) at p = 2.
    rep = _rep_by_name(name)
    for p in (2, 3, 5):
        if s_minus(rep, p).index_in(s_plus(rep, p)) <= 2**12:
            assert count_invariant_orbits(rep, p) == count_invariant_orbits_by_enumeration(rep, p)


@pytest.mark.parametrize("name, p", [(n, p) for n in MULTIPLICITY_FREE for p in (2, 3)] + [("A 1 300", 2)])
def test_orbit_report_reads_its_box_off_the_blocks(monkeypatch, name, p):
    # The box comes from the 1×1 block lattices of the walk: no report
    # assembles S₋ or S₊ as lattices of the whole space.  A1 (300) is
    # refused by the cap; the count is of the calls made before that.
    rep = _rep_by_name(name)
    assembled, from_blocks = [], Lattice.from_blocks

    def counted(parts, ambient):
        assembled.append(ambient)
        return from_blocks(parts, ambient)

    monkeypatch.setattr(Lattice, "from_blocks", staticmethod(counted))
    refused = pytest.raises(LatticeError, match="classes of dimension 301 that the cap")
    with refused if name == "A 1 300" else contextlib.nullcontext():
        count_invariant_orbits(rep, p)
    assert assembled == []


def test_orbit_count_refuses_z(a1_reps):
    for count in (count_invariant_orbits, count_invariant_orbits_by_enumeration):
        with pytest.raises(LatticeError, match=r"over Z_\(p\), not over Z"):
            count(a1_reps[2], None)


def test_invariant_valuations_hold_no_frame_per_coordinate():
    # A1 (300) has 301 coordinates.  A search that nests one generator
    # frame per coordinate exceeds a recursion limit 100 frames above the
    # caller's, and the CLI reported A1 (990) and beyond with the message
    # it keeps for an input file nested too deep.
    rep = build_irrep(build_chevalley("A", 1), (300,))
    box = list(zip(s_plus(rep, 2).valuations(), s_minus(rep, 2).valuations()))
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        v = next(latconstruct._invariant_valuations(rep, 2, box))
    finally:
        sys.setrecursionlimit(limit)
    assert len(v) == 301


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MULTIPLICITY_FREE), st.sampled_from([2, 3, 5]), st.data())
def test_invariant_valuations_match_brute_force_on_random_boxes(name, p, data):
    # A random box of at most three values a coordinate, each within one of
    # the sandwich box, sometimes empty: the search yields, in order, every
    # integer point of it whose diagonal lattice every lattice generator
    # keeps.
    rep = _rep_by_name(name)
    vlo, vhi = s_minus(rep, p).valuations(), s_plus(rep, p).valuations()
    box = []
    for a, b in zip(vhi, vlo):
        low = data.draw(st.integers(a - 1, b + 1))
        box.append((low, data.draw(st.integers(low - 1, low + 1))))
    gens = lattice_generators(rep)
    points = itertools.product(*(range(low, high + 1) for low, high in box))
    expected = [v for v in points if all(Lattice.diagonal(v, p).stable_under(g, rep.denominator) for g in gens)]
    assert list(latconstruct._invariant_valuations(rep, p, box)) == expected


@pytest.mark.parametrize("name", MULTIPLICITY_FREE + ["A 2 1,1", "A 2 2,1", "C 2 1,1", "B 3 0,1,0", "D 4 0,0,1,1"])
def test_split_lattices_match_the_hermite_assembly(name):
    # S₋ and S₊ place their canonical blocks as they stand; a Hermite pass
    # over the whole space, as the blocks were once assembled, gives the
    # same lattices.
    rep = _rep_by_name(name)
    for p in (None, 2, 3):
        lower = list(latconstruct._sandwich_blocks(rep, -1, p))
        upper = list(latconstruct._sandwich_blocks(rep, +1, p))
        assert s_minus(rep, p) == direct_sum_by_hermite(lower, rep.dim)
        assert s_plus(rep, p) == direct_sum_by_hermite(upper, rep.dim)


# -- Birkhoff's subgroup count -------------------------------------------------


def _partitions(n, largest=None):
    """Partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


SMALL_TYPES = [
    (p, lam) for p, top in ((2, 6), (3, 4), (5, 3), (7, 2)) for n in range(top + 1) for lam in _partitions(n)
]


@pytest.mark.parametrize(
    "p, lam", SMALL_TYPES, ids=["p%d-%s" % (p, ",".join(map(str, lam))) for p, lam in SMALL_TYPES]
)
def test_subgroup_count_matches_brute_force(p, lam):
    assert subgroup_count(lam, p) == subgroup_count_of_quotient([p**x for x in lam])


def test_subgroup_count_of_elementary_abelian_groups_is_galois_number():
    # The subspaces of F_p^n, sum_k [n choose k]_p, by the Goldman–Rota
    # recurrence G_(n+1) = 2·G_n + (p^n - 1)·G_(n-1).
    for p in (2, 3, 5):
        galois = [1, 2]
        for n in range(1, 12):
            galois.append(2 * galois[n] + (p**n - 1) * galois[n - 1])
        assert [subgroup_count([1] * n, p) for n in range(13)] == galois


@pytest.mark.parametrize("p, lam", [(2, (10,)), (2, (5, 5)), (2, (4, 3, 2, 1)), (2, (3, 3, 2)), (3, (3, 2))])
def test_subgroup_count_matches_enumeration(p, lam):
    # Lattices between diag(p^lam_i) and Z_(p)^n, one per subgroup.
    n = len(lam)
    lo = diag_lattice([p**x for x in lam], p)
    assert len(enumerate_between(lo, diag_lattice([1] * n, p))) == subgroup_count(lam, p)


def test_subgroup_count_matches_the_gaussian_binomial_sum_on_random_types():
    rng = random.Random(54)
    for _ in range(400):
        lam = [rng.randint(0, 6) for _ in range(rng.randint(0, 6))]
        p = rng.choice([2, 3, 5, 7])
        assert subgroup_count(lam, p) == subgroup_count_by_gaussian_binomials(lam, p), (lam, p)


@pytest.mark.parametrize("t, rank, hw, p", [("A", 2, (12, 0), 11), ("A", 1, (40,), 7)])
def test_subgroup_count_matches_the_gaussian_binomial_sum_on_reports(t, rank, hw, p):
    # The types of two orbit reports, of 91 and 41 parts.
    lam = sandwich_type(build_irrep(build_chevalley(t, rank), hw), p)
    assert subgroup_count(lam, p) == subgroup_count_by_gaussian_binomials(lam, p)


@pytest.mark.parametrize("name", MULTIPLICITY_FREE)
def test_sandwich_index_matches_the_pivot_product_quotient(name):
    rep = _rep_by_name(name)
    for p in (2, 3):
        lo, hi = s_minus(rep, p), s_plus(rep, p)
        assert lo.index_in(hi) == index_by_pivot_products(lo, hi) == p ** sum(sandwich_type(rep, p))
