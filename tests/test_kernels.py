"""The normal-form kernels against independent oracles."""

import itertools
import random
from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

import latmod
from latmod.exact import ZSpan
from latmod.kernels import hermite_coords, hnf_columns, snf_diagonal
from oracles import det, reduces_to_zero, snf_diagonal_unbounded, zspan_member


def _determinantal_divisors(rows):
    """Elementary divisors s_k = d_k / d_(k-1), where d_k is the gcd of
    the k×k minors."""
    nr, nc = len(rows), len(rows[0])
    out = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        d = 0
        for ri in itertools.combinations(range(nr), k):
            for ci in itertools.combinations(range(nc), k):
                minor = det([[Fraction(rows[i][j]) for j in ci] for i in ri])
                d = gcd(d, int(minor))
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return out


def _random_rows(rng, nr, nc, bound):
    return [[rng.randint(-bound, bound) for _ in range(nc)] for _ in range(nr)]


def test_snf_matches_determinantal_divisors_random_rectangular():
    rng = random.Random(11)
    for _ in range(200):
        rows = _random_rows(rng, rng.randint(1, 5), rng.randint(1, 5), 9)
        assert snf_diagonal(rows) == _determinantal_divisors(rows)


def test_snf_matches_determinantal_divisors_rank_deficient():
    rng = random.Random(12)
    for _ in range(100):
        nr, nc = rng.randint(2, 5), rng.randint(2, 5)
        r = rng.randint(0, min(nr, nc) - 1)
        u = _random_rows(rng, nr, r, 5)
        v = _random_rows(rng, r, nc, 5)
        rows = [[sum(u[i][k] * v[k][j] for k in range(r)) for j in range(nc)] for i in range(nr)]
        divs = snf_diagonal(rows)
        assert divs == _determinantal_divisors(rows)
        assert len(divs) <= r


def test_snf_matches_determinantal_divisors_big_entries():
    rng = random.Random(13)
    for nr, nc in [(4, 4)] * 10 + [(3, 5), (5, 3)] * 5:
        rows = _random_rows(rng, nr, nc, 10**30)
        assert snf_diagonal(rows) == _determinantal_divisors(rows)


def _unimodular(draw, n, bound):
    """A random n×n integer matrix of determinant ±1: the identity under
    a few row swaps and row additions with multipliers up to bound."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    if n < 2:
        return u
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if draw(st.booleans()):
            u[i], u[j] = u[j], u[i]
        else:
            c = draw(st.integers(-bound, bound))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def smith_inputs(draw):
    """Integer rows of shape 0–7 × 0–7 from four families: entries up to
    2⁶⁴ with zero rows and columns; rank-deficient rows (sums and
    multiples of other rows); diag(1, …, 1, pᵏ), where the last divisor
    is the modulus; and a small matrix under big unimodular transforms,
    whose minors are much larger than the product of its divisors."""
    nr, nc = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    family = draw(st.sampled_from(["entries", "dependent", "last_is_modulus", "large_minor"]))
    entry = st.one_of(st.integers(-9, 9), st.integers(-(2**64), 2**64))
    if family == "entries":
        rows = [[draw(entry) for _ in range(nc)] for _ in range(nr)]
        zero_rows = draw(st.sets(st.integers(0, max(nr - 1, 0))))
        zero_cols = draw(st.sets(st.integers(0, max(nc - 1, 0))))
        return [
            [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)
        ]
    if family == "dependent":
        rows = [[draw(entry) for _ in range(nc)] for _ in range(draw(st.integers(0, nr)))]
        while len(rows) < nr:
            if rows and draw(st.booleans()):
                c = draw(st.integers(-(2**64), 2**64))
                rows.append([c * x for x in rows[draw(st.integers(0, len(rows) - 1))]])
            else:
                coef = [draw(st.integers(-3, 3)) for _ in rows]
                rows.append([sum(c * row[j] for c, row in zip(coef, rows)) for j in range(nc)])
        perm = draw(st.permutations(range(nr)))
        return [rows[i] for i in perm]
    if family == "last_is_modulus":
        n = min(nr, nc)
        top = draw(st.sampled_from([2, 3, 5, 7])) ** draw(st.integers(1, 40))
        diag = [1] * (n - 1) + [top]
        rows = [[diag[i] if i == j else 0 for j in range(nc)] for i in range(nr)]
        rows = [rows[i] for i in draw(st.permutations(range(nr)))]
        cols = draw(st.permutations(range(nc)))
        return [[row[j] for j in cols] for row in rows]
    small = [[draw(st.integers(-3, 3)) for _ in range(nc)] for _ in range(nr)]
    if not nr or not nc:
        return small
    bound = 2 ** draw(st.integers(4, 32))
    return _product(_product(_unimodular(draw, nr, bound), small), _unimodular(draw, nc, bound))


@settings(max_examples=400, deadline=None)
@given(smith_inputs())
@example([])
@example([[], []])
@example([[0, 0, 0], [0, 0, 0]])
@example([[1, 0], [0, 3**40]])
@example([[2**64, 2**64 + 1]])
def test_snf_matches_the_unbounded_elimination(rows):
    before = [list(row) for row in rows]
    divs = snf_diagonal(rows)
    assert rows == before
    assert divs == snf_diagonal_unbounded(rows)


def _is_column_hermite(h, nrows):
    pivots = [next(i for i, x in enumerate(c) if x != 0) for c in h]
    if pivots != sorted(set(pivots)):
        return False
    for k, (c, p) in enumerate(zip(h, pivots)):
        if c[p] <= 0 or any(not 0 <= e[p] < c[p] for e in h[:k]):
            return False
    return all(len(c) == nrows for c in h)


def test_hnf_invariant_under_permutation_and_appended_combinations():
    rng = random.Random(14)
    for trial in range(200):
        n, k = rng.randint(1, 5), rng.randint(1, 6)
        bound = 10**30 if trial % 10 == 0 else 9
        cols = _random_rows(rng, k, n, bound)
        before = [list(c) for c in cols]
        h = hnf_columns(cols, n)
        assert cols == before
        assert _is_column_hermite(h, n)
        shuffled = list(cols)
        rng.shuffle(shuffled)
        assert hnf_columns(shuffled, n) == h
        combos = []
        for _ in range(rng.randint(1, 3)):
            coef = [rng.randint(-3, 3) for _ in cols]
            combos.append([sum(c * col[i] for c, col in zip(coef, cols)) for i in range(n)])
        assert hnf_columns(cols + combos, n) == h
        assert hnf_columns(combos + shuffled, n) == h


@st.composite
def integer_columns(draw):
    """(n, cols): up to 6 integer columns of length n, small or huge."""
    n = draw(st.integers(1, 5))
    entry = st.integers(-9, 9) | st.integers(-(10**30), 10**30)
    col = st.lists(entry, min_size=n, max_size=n)
    return n, draw(st.lists(col, max_size=6))


@settings(max_examples=200, deadline=None)
@given(integer_columns())
def test_hnf_carries_rows_past_nrows(case):
    # Identity tails below the heads: the heads are the Hermite form of
    # the bare columns, and each tail combines the inputs into its head.
    n, cols = case
    k = len(cols)
    carried = hnf_columns([c + [int(i == j) for j in range(k)] for i, c in enumerate(cols)], n)
    assert [c[:n] for c in carried] == hnf_columns(cols, n)
    for c in carried:
        assert c[:n] == [sum(t * col[r] for t, col in zip(c[n:], cols)) for r in range(n)]


def test_kernel_selection_reports_implementation():
    assert latmod.KERNEL_IMPLEMENTATION == "python"


def test_hermite_coords_against_the_forward_substitutions():
    # Random Hermite bases of any rank: coordinates combine back to v, and
    # None agrees with the Fraction forward substitution plus residual
    # check, and on full-rank bases with the old per-pivot reduction.
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randint(1, 4)
        cols = hnf_columns(_random_rows(rng, rng.randint(1, 4), n, 6), n)
        if not cols:
            continue
        pivots = [next(i for i, x in enumerate(c) if x) for c in cols]
        span = ZSpan(cols, n)
        assert [list(c) for c in span.columns] == cols
        for _ in range(5):
            coeffs = [rng.randint(-3, 3) for _ in cols]
            v = [sum(a * c[i] for a, c in zip(coeffs, cols)) for i in range(n)]
            if rng.random() < 0.5:
                v[rng.randrange(n)] += rng.randint(1, 3)
            x = hermite_coords(v, cols, pivots)
            if x is not None:
                assert [sum(a * c[i] for a, c in zip(x, cols)) for i in range(n)] == v
            assert (x is not None) == zspan_member(span, v)
            if pivots == list(range(n)):
                assert (x is not None) == reduces_to_zero(v, cols, 0)
    assert hermite_coords([0, 0], [], []) == []
    assert hermite_coords([0, 1], [], []) is None
    assert hermite_coords([2, 1], [[2, 0]], [0]) is None
    assert hermite_coords([4, 6], [[2, 3]], [0]) == [2]
