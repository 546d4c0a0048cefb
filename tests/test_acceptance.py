"""Acceptance gate: eight primary criteria, each with its stated time
budget and exact (zero-tolerance) arithmetic.  Each test prints a single
pass/fail line with its runtime."""

import random
import time
from fractions import Fraction

import pytest

from latmod.casestudies import QuadField, class_orbit_count, pgl2_sym2_report
from latmod.exact import Lattice, distance, enumerate_between, snf
from latmod.latconstruct import (
    count_invariant_orbits,
    is_invariant,
    is_split,
    normalize_profile,
    s_minus,
    s_plus,
)
from latmod.matrixops import bracket, mat_inv, mat_mul, mat_vec
from latmod.models import lie_invariants, lie_model
from latmod.reps import build_irrep
from latmod.rootdata import build_chevalley
from oracles import (
    check_transition_surjectivity,
    dense_action,
    has_j_components,
    reduced_forms_count,
    structure_constant,
)


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print("[%s] %s (%.2fs / budget %ds)" % (status, self.name, elapsed, self.seconds))
        if exc_type is None:
            assert elapsed < self.seconds, "%s exceeded time budget" % self.name
        return False


def _random_lattice(rng, n, unit_range=4):
    while True:
        cols = [[rng.randint(-unit_range, unit_range) for _ in range(n)] for _ in range(n)]
        try:
            return Lattice(cols)
        except ValueError:
            continue


def test_criterion_1_metric_suite():
    with _Budget("criterion 1: metric suite", 10):
        rng = random.Random(2026)
        for trial in range(100):
            p = (2, 3, 5)[trial % 3]
            n = rng.randint(1, 4)
            a, b, c = (
                Lattice(_random_lattice(rng, n).basis, p, ambient=n) for _ in range(3)
            )
            assert distance(a, a) == 0
            assert distance(a, b) == distance(b, a)
            assert distance(a, c) <= distance(a, b) + distance(b, c)
            assert distance(a, b) >= 0


def test_criterion_2_chevalley_suite():
    with _Budget("criterion 2: Chevalley suite", 5):
        for label, rank in (("A", 1), ("A", 2), ("A", 3), ("C", 2)):
            cb = build_chevalley(label, rank)
            rs = cb.rs
            mats = dense_action(cb)
            for a in rs.all_roots:
                na = tuple(-x for x in a)
                # [x_a, x_-a] = h_a
                got = cb.coords_of(bracket(mats[a], mats[na]))
                want = [Fraction(0)] * len(rs.all_roots) + list(
                    cb.h_alpha_coords(a)
                )
                assert list(got) == [Fraction(x) for x in want]
                for b in rs.all_roots:
                    s = tuple(x + y for x, y in zip(a, b))
                    br = bracket(mats[a], mats[b])
                    if rs.is_root(s):
                        c = structure_constant(cb, a, b)
                        r = rs.root_string_r(a, b)
                        assert abs(c) == r + 1
                        assert c.denominator == 1
                    elif b != na:
                        assert not any(x for row in br for x in row)


def _weyl_dim(cb, hw):
    rs = cb.rs
    rho = tuple(1 for _ in range(rs.rank))
    num = Fraction(1)
    den = Fraction(1)
    for a in rs.positive:
        h = cb.h_alpha_coords(a)
        num *= cb.pairing(tuple(x + y for x, y in zip(hw, rho)), h)
        den *= cb.pairing(rho, h)
    return num / den


SWEEP = (
    [("A", 1, (n,)) for n in range(5)]
    + [("A", 2, hw) for hw in ((1, 0), (0, 1), (1, 1), (2, 0))]
    + [("C", 2, (1, 0)), ("C", 2, (0, 1))]
)


def test_criterion_3_representation_suite():
    with _Budget("criterion 3: representation suite", 30):
        for label, rank, hw in SWEEP:
            cb = build_chevalley(label, rank)
            rep = build_irrep(cb, hw)
            assert rep.dim == _weyl_dim(cb, hw)
            for psi in rep.distinct_highest_weights():
                assert len(rep.block(psi, psi)) == 1
            for (psi, chi) in rep.blocks:
                for sign in (+1, -1):
                    ok, _ = check_transition_surjectivity(rep, psi, chi, sign)
                    assert ok


def test_criterion_4_sandwich_suite():
    with _Budget("criterion 4: sandwich suite", 60):
        for label, rank, hw in SWEEP:
            cb = build_chevalley(label, rank)
            rep = build_irrep(cb, hw)
            lo = s_minus(rep, 2)
            hi = s_plus(rep, 2)
            assert hi.contains(lo)
            assert is_split(rep, lo) and is_split(rep, hi)
            assert has_j_components(rep, lo)
            assert has_j_components(rep, hi)
            if lo.index_in(hi) > 2**12:
                continue
            action = dense_action(rep)
            lowering = [action[tuple(-x for x in a)] for a in cb.rs.simple]
            raising = [action[a] for a in cb.rs.simple]
            for m in enumerate_between(lo, hi):
                if not (is_split(rep, m) and has_j_components(rep, m)):
                    continue
                if all(
                    not any(mat_vec(g, col)) or m.member(mat_vec(g, col))
                    for g in lowering
                    for col in m.basis
                ):
                    assert m.contains(lo)
                if all(
                    not any(mat_vec(g, col)) or m.member(mat_vec(g, col))
                    for g in raising
                    for col in m.basis
                ):
                    assert hi.contains(m)


def test_criterion_5_orbit_finiteness():
    with _Budget("criterion 5: orbit finiteness", 60):
        cb = build_chevalley("A", 1)
        sym2 = build_irrep(cb, (2,))
        sym3 = build_irrep(cb, (3,))
        frozen = {
            (2, 2): (8, 4, 3),
            (2, 3): (1, 1, 1),
            (3, 2): (16, 3, 3),
            (3, 3): (81, 4, 4),
        }
        for (n, p), (idx, inv, orb) in sorted(frozen.items()):
            rep = sym2 if n == 2 else sym3
            report = count_invariant_orbits(rep, p)
            got = (report["sandwich_index"], report["invariant"], report["orbits"])
            assert got == (idx, inv, orb)
        # The two index-2-apart diagonal lattices are both invariant and
        # land in distinct orbit classes.
        lam = Lattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]], prime=2)
        lam2 = Lattice([[1, 0, 0], [0, 2, 0], [0, 0, 1]], prime=2)
        assert is_invariant(sym2, lam) and is_invariant(sym2, lam2)
        report = count_invariant_orbits(sym2, 2)
        invs = {
            normalize_profile(sym2, Lattice.from_json_obj(o))[1]
            for o in report["representatives"]
        }
        i1 = normalize_profile(sym2, lam)[1]
        i2 = normalize_profile(sym2, lam2)[1]
        assert i1 != i2
        assert i1 in invs and i2 in invs


def test_criterion_6_pgl2_case_study():
    with _Budget("criterion 6: rank-1 symmetric-square case study", 30):
        report = pgl2_sym2_report()
        assert report["status"] == "pass"
        a = report["assertions"]
        assert a["hopf_orders_equal"]["pass"]
        assert a["hopf_orders_equal"]["certificates"] > 0
        assert a["quotient_order"]["index"] == 2
        assert a["purity_obstruction"]["pass"]
        assert a["lie_invariants_agree"]["pass"]


def test_criterion_7_classgroup_case_study():
    with _Budget("criterion 7: class-group case study", 30):
        for disc, expected in ((-4, 1), (-8, 1), (-20, 2), (-23, 3)):
            count, _ = class_orbit_count(disc)
            oracle = reduced_forms_count(disc)
            assert count == expected == oracle


def test_criterion_8_lie_model_suite():
    with _Budget("criterion 8: Lie-model suite", 60):
        rng = random.Random(2027)
        cb = build_chevalley("A", 1)
        reps = [build_irrep(cb, (1,)), build_irrep(cb, (2,))]
        for rep in reps:
            for _ in range(20):
                lat = _random_lattice(rng, rep.dim, 3)
                model = lie_model(rep, lat)
                assert model.bracket_closed()
                # Scalar invariance.
                assert lie_model(rep, lat.scale(Fraction(3, 2))) == model
            # Ad-equivariance under diagonal conjugation: act on V by the
            # image of diag(2,1), i.e. 2^a on each weight vector with
            # h-eigenvalue 2a - n.
            h = dense_action(rep)["h", 0]
            n = max(h[i][i] for i in range(rep.dim))
            g = {(i, i): 2 ** ((n + h[i][i]) // 2) for i in range(rep.dim)}
            lat = _random_lattice(rng, rep.dim, 2)
            moved = lie_model(rep, lat.apply(g))
            ginv2 = mat_inv([[Fraction(2), 0], [0, 1]])
            g2 = [[Fraction(2), 0], [0, Fraction(1)]]
            cols = []
            for col in lie_model(rep, lat).lattice.basis:
                conj = mat_mul(g2, mat_mul(cb.from_coords(col), ginv2))
                cols.append(cb.coords_of(conj))
            assert moved.lattice == Lattice(cols)
        # Invariant records stable under 50 random unimodular rebasings.
        model = lie_model(reps[0], Lattice([[2, 1], [0, 3]]))
        reference = lie_invariants(model)
        m = 3
        for _ in range(50):
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
            mats = [cb.from_coords(col) for col in basis]
            binv = mat_inv(tuple(zip(*basis)))
            rows = []
            for i in range(m):
                for j in range(m):
                    rows.append(mat_vec(binv, cb.coords_of(bracket(mats[i], mats[j]))))
            assert [str(d) for d in snf(rows)] == reference["bracket_divisors"]
