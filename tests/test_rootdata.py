"""Root systems and Chevalley bases: structure constants, coroots, lattices.

The ChevalleyBasis constructor verifies every bracket identity eagerly, so
these tests mostly pin down the public data (counts, Cartan matrices,
specific structure constants) and exercise the lattice-closure invariant.
On every supported type the construction is compared with the dense
nullspace construction it replaced, the closed-form root spaces with the
kernels of the form equations on the positions of each weight, the
bracket table with the coordinates of dense brackets and with the table
read off every ordered pair of the defining action, and the Chevalley
set read off the simple generators with the one that paired every
negative root vector with its positive one.
"""

import copy
import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmod import matrixops, rootdata
from latmod.matrixops import bracket, dense, identity, primitive, sparse
from latmod.rootdata import (
    SUPPORTED,
    ChevalleyBasis,
    RootDataError,
    RootSystem,
    _form,
    build_chevalley,
)
from oracles import (
    ChevalleyBasisByNullspace,
    EuclideanRootData,
    basis_matrices,
    bracket_table_by_ordered_pairs,
    chevalley_set_by_pairing,
    dense_action,
    det,
    form_by_type,
    mat,
    root_data_by_fraction_dot,
    root_space_kernels,
    solve,
    structure_constant,
)

ROOT_COUNTS = {
    ("A", 1): 2,
    ("A", 2): 6,
    ("A", 3): 12,
    ("A", 4): 20,
    ("B", 2): 8,
    ("B", 3): 18,
    ("B", 4): 32,
    ("C", 2): 8,
    ("C", 3): 18,
    ("C", 4): 32,
    ("D", 3): 12,
    ("D", 4): 24,
}


def test_unsupported():
    with pytest.raises(RootDataError):
        RootSystem("E", 6)
    with pytest.raises(RootDataError):
        RootSystem("A", 5)
    with pytest.raises(RootDataError):
        RootSystem("D", 2)


def test_root_counts_and_symmetry():
    for (t, r), count in ROOT_COUNTS.items():
        rs = RootSystem(t, r)
        assert len(rs.all_roots) == count
        negs = {tuple(-c for c in a) for a in rs.all_roots}
        assert negs == set(rs.all_roots)
        for beta in rs.all_roots:
            exp = rs.expansion(beta)
            assert all(c >= 0 for c in exp) or all(c <= 0 for c in exp)


def test_a1():
    rs = RootSystem("A", 1)
    assert rs.cartan_matrix == ((2,),)
    assert set(rs.all_roots) == {(2,), (-2,)}


def test_a2_cartan():
    rs = RootSystem("A", 2)
    assert rs.cartan_matrix == ((2, -1), (-1, 2))


def test_a2_closure_oracle():
    # Brute-force closure of {±α₁, ±α₂, ±(α₁+α₂)} under root addition:
    # the only sums of roots that are roots stay in that six-element set.
    rs = RootSystem("A", 2)
    exps = {rs.expansion(b) for b in rs.all_roots}
    assert exps == {(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)}
    for a in exps:
        for b in exps:
            s = tuple(x + y for x, y in zip(a, b))
            if any(s) and (all(c >= 0 for c in s) or all(c <= 0 for c in s)):
                if max(abs(c) for c in s) <= 1:
                    assert s in exps


def test_c2_long_root():
    rs = RootSystem("C", 2)
    assert len(rs.all_roots) == 8
    exps = {rs.expansion(b) for b in rs.positive}
    assert (2, 1) in exps  # the long root 2α₁ + α₂


def test_positive_roots_height_ordered():
    for t, r in ROOT_COUNTS:
        rs = RootSystem(t, r)
        heights = [sum(rs.expansion(b)) for b in rs.positive]
        assert heights == sorted(heights)
        assert heights[: rs.rank].count(1) == rs.rank


def test_expansion_inverts_the_cartan_matrix():
    # fund = C·m for the simple-root coordinates m; the fund coords of
    # Σ m_j·α_j, read off the Euclidean roots, pin the convention.
    rng = random.Random(13)
    for t, r in ROOT_COUNTS:
        rs = RootSystem(t, r)
        e = EuclideanRootData(t, r)
        c = rs.cartan_matrix
        for _ in range(25):
            m = tuple(rng.randint(-6, 6) for _ in range(r))
            fund = tuple(sum(c[i][j] * m[j] for j in range(r)) for i in range(r))
            euclid = [sum(x * a[k] for x, a in zip(m, e.simple)) for k in range(e.dim)]
            assert e.fund_coords(euclid) == fund
            assert rs.expansion(fund) == m


# Bourbaki, plates I-IV: the highest root in fund coords.
HIGHEST_ROOT = {
    ("A", 1): (2,),
    ("A", 2): (1, 1),
    ("A", 3): (1, 0, 1),
    ("A", 4): (1, 0, 0, 1),
    ("B", 2): (0, 2),
    ("B", 3): (0, 1, 0),
    ("B", 4): (0, 1, 0, 0),
    ("C", 2): (2, 0),
    ("C", 3): (2, 0, 0),
    ("C", 4): (2, 0, 0, 0),
    ("D", 3): (0, 1, 1),
    ("D", 4): (0, 1, 0, 0),
}


@pytest.mark.parametrize("label,rank", [(t, r) for t, ranks in sorted(SUPPORTED.items()) for r in ranks])
def test_root_data_matches_the_euclidean_oracle(label, rank):
    # The root data read off the Cartan matrix and the realization's
    # position weights against the roots written per type in Euclidean
    # coordinates; then two facts of the plates that neither computes.
    rs = RootSystem(label, rank)
    cb = build_chevalley(label, rank)
    e = EuclideanRootData(label, rank)
    cartan, _, positive = root_data_by_fraction_dot(rs)
    assert rs.cartan_matrix == cartan
    assert rs.simple == tuple(e.fund[a] for a in e.simple)
    assert rs.positive == positive
    assert sorted(rs.all_roots) == sorted(e.fund.values())

    def coroot(v):
        return [Fraction(2 * x, sum(y * y for y in v)) for x in v]

    cols = mat(tuple(zip(*map(coroot, e.simple))))
    for b in e.roots:
        assert cb.h_alpha_coords(e.fund[b]) == solve(cols, coroot(b)), b
    assert cb._weights == [e.fund_coords(w) for w in e.weights]
    assert _form(rs) == form_by_type(label, rank)
    assert rs.to_json_obj() == {
        "type": label,
        "rank": rank,
        "simple_roots": [list(e.fund[a]) for a in e.simple],
        "positive_roots": [list(a) for a in positive],
        "cartan_matrix": [list(row) for row in cartan],
    }
    assert det(rs.cartan_matrix) == {"A": rank + 1, "B": 2, "C": 2, "D": 4}[label]
    assert rs.positive[-1] == HIGHEST_ROOT[label, rank]


def _fundamental_weights_off_the_root_lattice(t, n):
    """1-based k with ω_k outside the root lattice (Bourbaki, plates I-IV):
    every k in A_n; the spin weight ω_n in B_n; odd k in C_n; in D_n odd
    k ≤ n - 2 and both half-spin weights."""
    if t == "A":
        return set(range(1, n + 1))
    if t == "B":
        return {n}
    if t == "C":
        return {k for k in range(1, n + 1) if k % 2}
    return {k for k in range(1, n - 1) if k % 2} | {n - 1, n}


def test_expansion_is_none_off_the_root_lattice():
    for t, r in ROOT_COUNTS:
        rs = RootSystem(t, r)
        off = _fundamental_weights_off_the_root_lattice(t, r)
        for k in range(1, r + 1):
            omega = tuple(int(i == k - 1) for i in range(r))
            assert (rs.expansion(omega) is None) == (k in off), (t, r, k)


# -- Chevalley bases ---------------------------------------------------------


def test_a1_chevalley_matrices():
    cb = build_chevalley("A", 1)
    alpha = cb.rs.positive[0]
    e12 = ((0, 1), (0, 0))
    e21 = ((0, 0), (1, 0))
    h = ((1, 0), (0, -1))
    x = dense_action(cb)
    assert tuple(tuple(int(v) for v in row) for row in x[alpha]) == e12
    assert tuple(tuple(int(v) for v in row) for row in x[(-2,)]) == e21
    assert tuple(tuple(int(v) for v in row) for row in x["h", 0]) == h
    assert bracket(x[alpha], x[(-2,)]) == x["h", 0]


def test_a2_simple_bracket_unit_constant():
    cb = build_chevalley("A", 2)
    a1, a2 = cb.rs.simple
    c = structure_constant(cb, a1, a2)
    assert abs(c) == 1 and c.denominator == 1


def test_c2_has_constant_two():
    cb = build_chevalley("C", 2)
    found = {
        abs(structure_constant(cb, a, b))
        for a in cb.rs.all_roots
        for b in cb.rs.all_roots
    }
    assert Fraction(2) in found


def test_construction_verifies_all_types():
    # The constructor raises on any failed bracket identity; success here
    # is the full quadratic sweep for every supported type.
    for t, r in ROOT_COUNTS:
        cb = build_chevalley(t, r)
        assert cb.N >= r + 1


@pytest.mark.parametrize("label,rank", sorted(ROOT_COUNTS), ids=lambda v: str(v))
def test_construction_matches_nullspace_oracle(label, rank):
    rs = RootSystem(label, rank)
    cartan, expansion, positive = root_data_by_fraction_dot(rs)
    assert rs.cartan_matrix == cartan
    assert rs.positive == positive
    assert all(rs.expansion(a) == expansion[a] for a in rs.all_roots)
    cb = build_chevalley(label, rank)
    old = ChevalleyBasisByNullspace(rs)
    action = dense_action(cb)
    assert cb.N == old.N
    assert {a: action[a] for a in rs.all_roots} == old.x
    assert tuple(action["h", i] for i in range(rs.rank)) == old.h
    zero = [0] * len(rs.all_roots)
    for a in rs.all_roots:
        assert cb.from_coords(zero + list(cb.h_alpha_coords(a))) == old._h_matrix(a)
        assert cb.h_alpha_coords(a) == old.h_alpha_coords(a)
        for b in rs.all_roots:
            assert structure_constant(cb, a, b) == old.structure_constant(a, b)


@pytest.mark.parametrize("label,rank", sorted(ROOT_COUNTS), ids=lambda v: str(v))
def test_bracket_table_matches_dense_brackets(label, rank):
    cb = build_chevalley(label, rank)
    mats = basis_matrices(cb)
    m = len(mats)
    assert len(cb.bracket_table) == m
    for i, row in enumerate(cb.bracket_table):
        for j, entry in enumerate(row):
            assert all(c for c in entry.values())
            coords = tuple(entry.get(k, 0) for k in range(m))
            assert coords == cb.coords_of(bracket(mats[i], mats[j])), (i, j)


@pytest.mark.parametrize("label,rank", [(t, r) for t, ranks in sorted(SUPPORTED.items()) for r in ranks])
def test_bracket_table_matches_the_ordered_pair_oracle(label, rank):
    # The table read off the root data, one sign per pair whose sum is a
    # root, against the table read off the brackets of every ordered pair.
    cb = build_chevalley(label, rank)
    assert cb.bracket_table == bracket_table_by_ordered_pairs(cb)


@pytest.mark.parametrize("label,rank", [(t, r) for t, ranks in sorted(SUPPORTED.items()) for r in ranks])
def test_root_spaces_match_the_form_equation_kernels(label, rank):
    # The closed form against the kernel of Xᵀ·S + S·X = 0 on every
    # position of the root's weight: one-dimensional, spanned by it.  The
    # construction takes the simple root spaces alone; the closed form is
    # checked on every root.
    cb = build_chevalley(label, rank)
    gens = cb._root_spaces(cb.rs.all_roots)
    kernels = root_space_kernels(cb)
    assert sorted(gens) == sorted(kernels) == sorted(cb.rs.all_roots)
    for root, ker in kernels.items():
        assert len(ker) == 1, root
        assert primitive(ker[0]) == gens[root], root


@pytest.mark.parametrize("label,rank,brackets", [("B", 3, 225), ("B", 4, 658)])
def test_one_build_computes_each_bracket_once(label, rank, brackets, monkeypatch):
    # check_brackets takes the n(n − 1)/2 brackets of the basis; the
    # Chevalley set adds one per negative simple root (_pair_negative,
    # whose bracket [x_alpha_i, x_-alpha_i] is h_i, so h_i is not taken
    # again) and two per non-simple positive root (x_gamma and x_-gamma):
    # n(n − 1)/2 + 2|Φ⁺| − rank in all.  No root space is solved for: the
    # one relations call is the Cartan inverse.
    calls = Counter()

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    monkeypatch.setattr(rootdata, "sparse_bracket", counted("bracket", rootdata.sparse_bracket))
    monkeypatch.setattr(matrixops, "relations", counted("relations", matrixops.relations))
    build_chevalley.cache_clear()
    cb = build_chevalley(label, rank)
    n = len(cb.basis_order())
    assert brackets == n * (n - 1) // 2 + 2 * len(cb.rs.positive) - rank
    assert calls == {"bracket": brackets, "relations": 1}
    assert not hasattr(rootdata, "relations")


@pytest.mark.parametrize("label,rank", [(t, r) for t, ranks in sorted(SUPPORTED.items()) for r in ranks])
def test_chevalley_set_matches_the_pairing_oracle(label, rank):
    # The recursion on the simple generators alone gives the action, the
    # denominator and the bracket table that pairing every negative root
    # vector with its positive one gave.
    cb = build_chevalley(label, rank)
    assert (cb.action, cb.denominator, cb.bracket_table) == chevalley_set_by_pairing(cb)
    assert list(cb.action) == cb.basis_order()


def test_pair_negative_runs_once_per_simple_root(monkeypatch):
    # Only x_-alpha_i is paired with its positive root vector; every other
    # negative root vector comes from the recursion.
    pair = ChevalleyBasis._pair_negative
    paired = []

    def recording(self, fund, *args):
        paired.append(fund)
        return pair(self, fund, *args)

    monkeypatch.setattr(ChevalleyBasis, "_pair_negative", recording)
    for label, ranks in sorted(SUPPORTED.items()):
        for rank in ranks:
            paired.clear()
            rs = RootSystem(label, rank)
            ChevalleyBasis(rs)
            assert paired == list(rs.simple), (label, rank)


def test_chevalley_set_refuses_a_root_with_no_decomposition():
    # A positive root the walk cannot reach from the generators it is
    # given fails loudly: here the second simple root vector is missing.
    cb = build_chevalley("A", 2)
    rs = cb.rs
    simple = {key: (cb.action[key], cb.denominator) for key in rs.generators if key != rs.simple[1]}
    with pytest.raises(AssertionError, match=re.escape("no decomposition for %r" % (rs.simple[1],))):
        rootdata.chevalley_set(rs, simple)


@st.composite
def coordinate_pairs(draw):
    """A supported basis and two integer coordinate vectors on it."""
    label = draw(st.sampled_from(sorted(SUPPORTED)))
    cb = build_chevalley(label, draw(st.sampled_from(SUPPORTED[label])))
    m = len(cb.basis_order())
    coords = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
    return cb, draw(coords), draw(coords)


@settings(max_examples=60, deadline=None)
@given(coordinate_pairs())
def test_bracket_coords_match_dense_brackets(case):
    # The bracket of two coordinate vectors read off the bracket table
    # against the coordinates of the dense bracket of their matrices.
    cb, u, v = case
    got = cb.bracket_coords(u, v)
    assert got == cb.coords_of(bracket(cb.from_coords(u), cb.from_coords(v)))
    assert all(type(x) is int for x in got)


def test_structure_constants_integral():
    for t, r in (("A", 2), ("B", 2), ("C", 2)):
        cb = build_chevalley(t, r)
        for a in cb.rs.all_roots:
            for b in cb.rs.all_roots:
                c = structure_constant(cb, a, b)
                assert c.denominator == 1


@pytest.mark.parametrize("label,rank", [(t, r) for t, ranks in sorted(SUPPORTED.items()) for r in ranks])
def test_action_over_denominator_matches_nullspace_oracle(label, rank):
    # The stored matrices are ints over the least denominator (2 for the
    # 1/2 entries of type B, 1 otherwise), and over it they are the dense
    # Fraction matrices of the nullspace construction.
    cb = build_chevalley(label, rank)
    old = ChevalleyBasisByNullspace(cb.rs)
    entries = [x for m in cb.action.values() for x in m.values()]
    assert all(type(x) is int and x for x in entries)
    assert cb.denominator == (2 if label == "B" else 1) and gcd(cb.denominator, *entries) == 1
    want = {**old.x, **{("h", i): h for i, h in enumerate(old.h)}}
    assert dense_action(cb) == want
    assert basis_matrices(cb) == [want[key] for key in cb.basis_order()]


def with_entry(m, r, c, value):
    return tuple(
        tuple(value if (i, j) == (r, c) else x for j, x in enumerate(row))
        for i, row in enumerate(m)
    )


def test_verify_catches_single_entry_change():
    for t, r in (("B", 3), ("C", 2), ("A", 3), ("D", 4)):
        cb = build_chevalley(t, r)
        rs = cb.rs
        action = {key: dense(m, cb.N) for key, m in cb.action.items()}
        for alpha in (rs.simple[0], tuple(-x for x in rs.simple[-1]), rs.positive[-1]):
            xm = action[alpha]
            off = [(i, j) for i in range(cb.N) for j in range(cb.N) if i != j]
            i, j = [ij for ij in off if xm[ij[0]][ij[1]]][0]
            k, l = [ij for ij in off if not xm[ij[0]][ij[1]]][-1]
            for changed in (with_entry(xm, i, j, xm[i][j] + 1), with_entry(xm, k, l, Fraction(1))):
                broken = copy.copy(cb)
                broken.action = dict(cb.action)
                broken.action[alpha] = sparse(changed)
                with pytest.raises(AssertionError):
                    broken._verify()
        cb._verify()


def test_verify_checks_the_coroot_coordinates():
    # h_alpha's coordinates enter the bracket table as [x_a, x_-a]; doubled
    # they stay integral, and _verify refuses the bracket of the first
    # root and its negative, and half of them are not, and it refuses them.
    for t, r in (("A", 2), ("B", 3), ("C", 2)):
        cb = build_chevalley(t, r)
        first = cb.rs.all_roots[0]
        pair = "bracket of %r and %r off the bracket table" % (first, tuple(-c for c in first))
        for scale, message in ((2, re.escape(pair)), (Fraction(1, 2), "coroot lattice")):
            broken = copy.copy(cb)
            broken.h_alpha_coords = lambda fund: tuple(scale * c for c in cb.h_alpha_coords(fund))
            with pytest.raises(AssertionError, match=message):
                broken._verify()


def test_coords_of_rejects_one_entry_off_the_algebra():
    # so_7 contains no multiple of a single matrix unit, so every one-entry
    # change of an element leaves the algebra.
    cb = build_chevalley("B", 3)
    dense = cb.from_coords([1] * len(cb.basis_order()))
    for m in (dense_action(cb)[cb.rs.simple[0]], dense):
        assert cb.coords_of(m) is not None
        for i in range(cb.N):
            for j in range(cb.N):
                assert cb.coords_of(with_entry(m, i, j, m[i][j] + 1)) is None


# -- coroots and the Cartan lattice ------------------------------------------


def test_killing_h_a1():
    rs = RootSystem("A", 1)
    alpha = rs.positive[0]
    cb = build_chevalley("A", 1)
    coords = cb.h_alpha_coords(alpha)
    assert cb.pairing(alpha, coords) == 2


def test_killing_h_a2():
    rs = RootSystem("A", 2)
    cb = build_chevalley("A", 2)
    a1, a2 = rs.simple
    assert cb.pairing(a1, cb.h_alpha_coords(a2)) == -1


def test_killing_h_c2():
    rs = RootSystem("C", 2)
    cb = build_chevalley("C", 2)
    short, long_ = rs.simple
    assert rs.expansion(long_) in ((0, 1),)
    assert cb.pairing(short, cb.h_alpha_coords(long_)) == -1
    assert cb.pairing(long_, cb.h_alpha_coords(short)) == -2


def test_pairing_integral_over_all_roots():
    for t, r in (("A", 3), ("B", 3), ("C", 3), ("D", 3)):
        cb = build_chevalley(t, r)
        for alpha in cb.rs.all_roots:
            coords = cb.h_alpha_coords(alpha)
            assert all(c.denominator == 1 for c in coords)
            for beta in cb.rs.all_roots:
                assert cb.pairing(beta, coords).denominator == 1


def test_chevalley_lattice_bracket_closed():
    # C(x) = 𝔗₀ ⊕ ⊕ Z·x_α closed under bracket: bracket all generator
    # pairs and test integrality of the coordinates.
    for t, r in (("A", 2), ("C", 2)):
        cb = build_chevalley(t, r)
        gens = basis_matrices(cb)
        for a in gens:
            for b in gens:
                coords = cb.coords_of(bracket(a, b))
                assert coords is not None
                assert all(c.denominator == 1 for c in coords)


def test_coords_roundtrip():
    cb = build_chevalley("B", 2)
    for m in basis_matrices(cb):
        coords = cb.coords_of(m)
        assert cb.from_coords(coords) == m
    # Something outside the algebra has no coordinates.
    outside = tuple(
        tuple(Fraction(int(i == 0 and j == 0)) for j in range(cb.N))
        for i in range(cb.N)
    )
    assert cb.coords_of(outside) is None


def test_cartan_lattice_is_the_coroot_lattice():
    with pytest.raises(TypeError):
        ChevalleyBasis(RootSystem("A", 1), "adjoint")


def test_cartan_acts_integrally_on_cartan_lattice():
    # [t, x_α] ∈ Z·x_α for t in the coroot lattice basis (the identity in
    # coroot coordinates) requires integer α(t): the Cartan pairing.
    cb = build_chevalley("C", 2)
    for col in identity(cb.rs.rank):
        for alpha in cb.rs.all_roots:
            val = cb.pairing(alpha, col)
            assert val.denominator == 1
