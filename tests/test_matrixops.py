"""Exact matrix helpers: the zero-skipping products, the sparse bracket,
the sparse product on an integer column and the Leibniz product on a
tensor of factors against the dense products they replaced, the span coordinates against per-vector solve
and the rref and mat_inv solver, mat_inv against Gauss–Jordan, the
relations, rref and inverses read off a QSpan against the dense
fraction-free elimination they replaced (tests/oracles.py: echelon), and
canonical results: an int where a value is integral, a Fraction only
where it is not."""

import itertools
import math
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmod.matrixops import (
    QSpan,
    bracket,
    column_index,
    mat_inv,
    mat_mul,
    mat_vec,
    primitive,
    ratio,
    ratio_text,
    relations,
    rref,
    scaled_inverse,
    sparse,
    sparse_bracket,
    sparse_mat_vec,
    tensor_mat_vec,
)
from oracles import (
    coordinate_solver_by_inverse,
    det,
    is_canonical,
    mat_inv_by_echelon,
    mat_inv_by_gauss_jordan,
    nullspace_by_echelon,
    rref_by_echelon,
    scaled_inverse_by_echelon,
    solve,
)


def dense_mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def dense_mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def dense_bracket(a, b):
    ab = dense_mat_mul(a, b)
    ba = dense_mat_mul(b, a)
    return tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(ab, ba))


nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=6).filter(bool)
ENTRIES = {
    "dense": nonzero,
    "sparse": st.integers(0, 9).flatmap(lambda k: nonzero if k == 0 else st.just(Fraction(0))),
    "mixed": st.just(Fraction(0)) | nonzero,
}


@st.composite
def matrices(draw, nr, nc):
    """nr×nc Fraction matrices, some of whose rows and columns are zero."""
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    zero_rows = draw(st.sets(st.integers(0, max(nr - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(nc - 1, 0)), max_size=2))
    return tuple(
        tuple(
            Fraction(0) if i in zero_rows or j in zero_cols else draw(entry)
            for j in range(nc)
        )
        for i in range(nr)
    )


@st.composite
def product_pairs(draw):
    """(a, b) with a n×k and b k×m; k = 0 gives a = n empty rows, b = ()."""
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    return draw(matrices(n, k)), draw(matrices(k, m))


@st.composite
def matrix_vector_pairs(draw):
    n, k = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    (v,) = draw(matrices(1, k))
    return draw(matrices(n, k)), v


def columns(a):
    """The columns of the dense matrix a as sparse vectors {row: entry}."""
    return [dict(enumerate(col)) for col in zip(*a)]


def types(m):
    return [[type(x) for x in row] for row in m]


def assert_canonical(m):
    assert all(is_canonical(x) for row in m for x in row)


def exact_nonzero(x):
    """The sparse products sum exactly from 0 and drop zeros; they do not
    canonicalise, so a product of Fractions may be an integral one."""
    return type(x) in (int, Fraction) and x


@settings(max_examples=150, deadline=None)
@given(product_pairs())
def test_mat_mul_matches_dense_product(pair):
    a, b = pair
    got = mat_mul(a, b)
    assert got == dense_mat_mul(a, b)
    assert_canonical(got)


@settings(max_examples=150, deadline=None)
@given(matrix_vector_pairs())
def test_mat_vec_matches_dense_product(pair):
    a, v = pair
    got = mat_vec(a, v)
    assert got == dense_mat_vec(a, v)
    assert all(map(is_canonical, got))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(matrices(n, n), matrices(n, n))))
def test_bracket_matches_dense_bracket(pair):
    a, b = pair
    got = bracket(a, b)
    assert got == dense_bracket(a, b)
    assert_canonical(got)
    sparse_got = sparse_bracket(sparse(a), sparse(b))
    assert sparse_got == sparse(got)
    assert all(map(exact_nonzero, sparse_got.values()))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=3).flatmap(
        lambda dims: st.tuples(st.tuples(*(matrices(n, n) for n in dims)), matrices(1, prod(dims)))
    )
)
def test_tensor_mat_vec_matches_dense_product(case):
    # One to three factors; the dense product is with the Leibniz action
    # a_1 ⊗ 1 ⊗ … + … + 1 ⊗ … ⊗ a_k on the index tuples in lexicographic
    # order.
    factors, (v,) = case
    tuples = list(itertools.product(*(range(len(a)) for a in factors)))

    def leibniz(s, t):
        return sum(
            (a[s[p]][t[p]] for p, a in enumerate(factors) if s[:p] + s[p + 1 :] == t[:p] + t[p + 1 :]),
            Fraction(0),
        )

    dense = tuple(tuple(leibniz(s, t) for t in tuples) for s in tuples)
    got = tensor_mat_vec([column_index(sparse(a)) for a in factors], {t: x for t, x in zip(tuples, v) if x})
    assert got == {t: x for t, x in zip(tuples, dense_mat_vec(dense, v)) if x}
    assert all(map(exact_nonzero, got.values()))


@st.composite
def sparse_matrix_vector_pairs(draw):
    """(g, v, nr): an nr×nc integer sparse matrix, nr and nc up to 5 and
    not equal in general, with its empty rows and zero columns, and an
    integer column v of nc entries."""
    nr, nc = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    positions = [(i, j) for i in range(nr) for j in range(nc)]
    g = draw(st.dictionaries(st.sampled_from(positions), st.integers(-9, 9).filter(bool))) if positions else {}
    return g, draw(st.lists(st.integers(-9, 9), min_size=nc, max_size=nc)), nr


def dense_rows(g, nr, nc):
    return tuple(tuple(g.get((i, j), 0) for j in range(nc)) for i in range(nr))


@settings(max_examples=300, deadline=None)
@given(sparse_matrix_vector_pairs())
def test_sparse_mat_vec_matches_the_dense_product(case):
    # The dense mat_vec, which no command runs, is the oracle.
    g, v, nr = case
    got = sparse_mat_vec(g, v, nr)
    assert got == list(mat_vec(dense_rows(g, nr, len(v)), v))
    assert all(type(x) is int for x in got)


def test_sparse_mat_vec_on_the_down_step_blocks():
    # The blocks of the oracle down_step (the step of
    # check_transition_surjectivity) are not square where a weight of the
    # component has multiplicity 2 (A2 (1,1)), and are over the
    # denominator 2 for B2 (1,0).
    from latmod.reps import build_irrep
    from latmod.rootdata import build_chevalley
    from oracles import down_step, weights_down

    shapes = set()
    for t, r, hw in (("A", 2, (1, 1)), ("B", 2, (1, 0)), ("C", 2, (1, 1))):
        rep = build_irrep(build_chevalley(t, r), hw)
        (psi,) = rep.distinct_highest_weights()
        for chi, _ in weights_down(rep, psi):
            for a in rep.cb.rs.simple:
                nr, nc = len(rep.block(psi, chi)), len(rep.block(psi, tuple(x + y for x, y in zip(chi, a))))
                for sign in (-1, 1):
                    g = down_step(rep, psi, a, chi, sign)
                    shapes.add((nr, nc))
                    for v in itertools.product(range(-1, 2), repeat=nc):
                        assert sparse_mat_vec(g, v, nr) == list(mat_vec(dense_rows(g, nr, nc), v))
    assert {(1, 2), (2, 1), (1, 0)} <= shapes


def test_products_of_all_zero_and_empty_shapes():
    z = ((Fraction(0),) * 3,) * 2
    assert mat_mul(z, ((Fraction(1),) * 4,) * 3) == ((Fraction(0),) * 4,) * 2
    assert_canonical(mat_mul(z, ((Fraction(1),) * 4,) * 3))
    assert mat_mul(((), ()), ()) == ((), ())  # empty inner dimension
    assert mat_mul((), ((Fraction(1),),)) == ()
    assert mat_vec(z, (Fraction(1), 0, 2)) == (0, 0)
    assert mat_vec(((), ()), ()) == (Fraction(0), Fraction(0))
    assert all(type(x) is int for x in mat_vec(((), ()), ()))


def test_integer_input_stays_exact():
    singular = ((-6, 8, 4), (2, -2, -2), (7, -17, 3))
    d = det(singular)
    assert d == 0 and type(d) is Fraction
    assert det(((2, 1), (1, 3))) == 5 and type(det(((2, 1), (1, 3)))) is Fraction
    inv = mat_inv(((2, 1), (1, 3)))
    assert inv == ((Fraction(3, 5), Fraction(-1, 5)), (Fraction(-1, 5), Fraction(2, 5)))
    assert_canonical(inv)
    assert scaled_inverse(((2, 1), (1, 3))) == (5, ((3, -1), (-1, 2)))
    assert mat_inv(((2, 1), (1, 1))) == ((1, -1), (-1, 2))
    assert_canonical(mat_inv(((2, 1), (1, 1))))
    x = solve(((2, 1), (1, 3)), (1, 2))
    assert x == (Fraction(1, 5), Fraction(3, 5))
    assert all(type(t) is Fraction for t in x)
    red, pivots = rref(((2, 4, 1), (1, 3, 0)))
    assert pivots == [0, 1]
    assert red == ((1, 0, Fraction(3, 2)), (0, 1, Fraction(-1, 2)))
    assert_canonical(red)
    (k,) = nullspace_by_echelon(singular)
    assert all(map(is_canonical, k))
    assert mat_vec(singular, k) == (0, 0, 0)
    assert relations(columns(singular)) == [dict(enumerate(k))]
    wide = ((2, 4, 1), (1, 3, 0))
    assert nullspace_by_echelon(wide) == ((Fraction(-3, 2), Fraction(1, 2), 1),)
    assert relations(columns(wide)) == [{0: -3, 1: 1, 2: 2}]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5).flatmap(lambda nr: st.integers(0, 6).flatmap(lambda nc: matrices(nr, nc))))
def test_kernel_rays_lie_on_the_nullspace_rays(a):
    # Each relation among the columns is an integer vector, a positive
    # multiple of the matching nullspace vector, so it is zero under a and
    # has the same primitive.
    kernel = nullspace_by_echelon(a)
    rays = [tuple(r.get(j, 0) for j in range(len(a[0]))) for r in relations(columns(a))]
    assert len(rays) == len(kernel)
    for v, k in zip(rays, kernel):
        assert all(type(x) is int for x in v) and all(map(is_canonical, k))
        (c,) = {Fraction(x) / y for x, y in zip(v, k) if y}
        assert c > 0 and v == tuple(c * y for y in k)
        assert not any(mat_vec(a, v))


@st.composite
def bases_and_vectors(draw):
    """(cols, vs): r linearly independent vectors of Q^d, and vectors that
    are combinations of them or arbitrary (mostly outside the span).  The
    basis is an echelon set (vector i is nonzero at its own pivot and zero
    at the pivots before it) with later vectors added to earlier ones."""
    d = draw(st.integers(1, 6))
    r = draw(st.integers(1, d))
    pivots = sorted(draw(st.sets(st.integers(0, d - 1), min_size=r, max_size=r)))
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    echelon = []
    for i, pc in enumerate(pivots):
        v = [Fraction(0) if c in pivots[:i] else draw(entry) for c in range(d)]
        v[pc] = draw(nonzero)
        echelon.append(v)
    cols = []
    for i, v in enumerate(echelon):
        for u in echelon[i + 1 :]:
            c = draw(entry)
            v = [x + c * y for x, y in zip(v, u)]
        cols.append(tuple(v))
    cols = tuple(draw(st.permutations(cols)))
    coeffs = draw(st.lists(matrices(1, r), min_size=1, max_size=3))
    vs = [mat_vec(tuple(zip(*cols)), c[0]) for c in coeffs]
    vs += [m[0] for m in draw(st.lists(matrices(1, d), max_size=3))]
    return cols, vs


def span_of(cols):
    """A QSpan with the dense vectors cols inserted in order; returns it
    and whether every one of them grew it."""
    span = QSpan()
    grew = [span.insert(dict(enumerate(c))) for c in cols]
    return span, all(grew)


def span_coords(span, v):
    """The sparse x with Σ x_k·u_k = v for the dense v, or None outside the
    span: the relation of v over its c."""
    rel = span.relation(dict(enumerate(v)))
    return None if rel is None else {k: ratio(y, rel[0]) for k, y in rel[1].items()}


def dense_coords(span, n, v):
    """The coordinates of the dense v in a span of n vectors as an n-tuple,
    or None outside the span."""
    x = span_coords(span, v)
    return None if x is None else tuple(x.get(k, 0) for k in range(n))


@settings(max_examples=100, deadline=None)
@given(bases_and_vectors())
def test_span_coords_match_solve(case):
    cols, vs = case
    span, independent = span_of(cols)
    assert independent
    a = tuple(zip(*cols))
    for v in vs:
        x = dense_coords(span, len(cols), v)
        assert x == solve(a, v)
        if x is not None:
            assert mat_vec(a, x) == v


@settings(max_examples=100, deadline=None)
@given(bases_and_vectors())
def test_span_coords_match_the_inverse_solver(case):
    # The coordinates a QSpan reads off its echelon rows, in the order the
    # basis was inserted, against the rref and mat_inv solver they
    # replaced; None outside the span.
    cols, vs = case
    span, independent = span_of(cols)
    assert independent
    old = coordinate_solver_by_inverse(cols)
    for v in list(cols) + vs:
        x = old(v)
        sparse_x = span_coords(span, v)
        assert sparse_x == (None if x is None else {k: t for k, t in enumerate(x) if t})
        assert x is None or all(map(is_canonical, x))


@settings(max_examples=60, deadline=None)
@given(bases_and_vectors(), st.data())
def test_dependent_basis_is_refused(case, data):
    cols, _ = case
    (c,) = data.draw(matrices(1, len(cols)))
    at = data.draw(st.integers(0, len(cols)))
    dependent = cols[:at] + (mat_vec(tuple(zip(*cols)), c),) + cols[at:]
    span, independent = span_of(dependent)
    assert not independent and span.rank == len(cols)
    with pytest.raises(ValueError, match="dependent"):
        coordinate_solver_by_inverse(dependent)


@st.composite
def square_matrices(draw):
    """n×n matrices, some made singular by a row that is a multiple of
    another."""
    n = draw(st.integers(0, 5))
    rows = list(draw(matrices(n, n)))
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(nonzero)
        rows[j] = tuple(c * x for x in rows[i])
    return tuple(rows)


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_mat_inv_matches_gauss_jordan(a):
    try:
        expected = mat_inv_by_gauss_jordan(a)
    except ZeroDivisionError:
        assert det(a) == 0
        with pytest.raises(ZeroDivisionError, match="singular matrix"):
            mat_inv(a)
        return
    got = mat_inv(a)
    assert got == expected
    assert_canonical(got)
    d, rows = scaled_inverse(a)
    assert rows == tuple(tuple(d * x for x in row) for row in expected)
    assert all(type(x) is int for row in rows for x in row)
    # d is the least common denominator of the inverse.
    assert d == math.lcm(*(x.denominator for row in expected for x in row))


def test_span_coords_out_of_span_and_dependent_basis():
    span, independent = span_of([(1, 0, 0), (0, 1, 1)])
    assert independent
    assert dense_coords(span, 2, (2, 3, 3)) == (2, 3)
    assert dense_coords(span, 2, (0, 1, 0)) is None
    assert solve(((1, 0), (0, 1), (0, 1)), (0, 1, 0)) is None
    assert span_of([(1, 2), (2, 4)])[1] is False
    span, _ = span_of([(0, 2, 0), (1, 0, 0)])
    assert dense_coords(span, 2, (3, 4, 0)) == (2, 3) and dense_coords(span, 2, (0, 0, 1)) is None
    # Coordinates are canonical: ints where integral, else Fractions.
    assert all(type(t) is int for t in dense_coords(span, 2, (3, 4, 0)))
    half = dense_coords(span, 2, (0, 1, 0))
    assert half == (Fraction(1, 2), 0) and list(map(type, half)) == [Fraction, int]


@st.composite
def sparse_vector_lists(draw):
    """(keys, vectors): up to seven sparse vectors over int keys or index
    tuples, with Fraction and int entries, explicit zeros, zero vectors,
    and vectors that are combinations of earlier ones."""
    keys = draw(st.sampled_from([list(range(5)), list(itertools.product(range(3), range(2)))]))
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))] | st.integers(-4, 4)
    vectors = []
    for _ in range(draw(st.integers(0, 7))):
        if vectors and draw(st.booleans()):
            v = {}
            for u in vectors:
                c = draw(entry)
                for key, x in u.items():
                    v[key] = v.get(key, 0) + c * x
        else:
            v = {key: draw(entry) for key in draw(st.sets(st.sampled_from(keys)))}
        vectors.append(v)
    return keys, vectors


@settings(max_examples=200, deadline=None)
@given(sparse_vector_lists())
def test_relations_are_the_primitive_nullspace_rays(case):
    # relations on sparse vectors gives, in order, the rays of the
    # nullspace of the matrix with these columns: each a primitive integer
    # relation, positive at its own vector, supported on it and on the
    # pivots before it.
    keys, vectors = case
    n = len(vectors)
    a = tuple(tuple(v.get(key, 0) for v in vectors) for key in keys)
    rels = relations(vectors)
    kernel = nullspace_by_echelon(a)
    _, pivots = rref_by_echelon(a)
    assert len(rels) == len(kernel) == n - len(pivots)
    for r, k in zip(rels, kernel):
        own = max(r)
        assert k[own] == 1 and not any(k[j] for j in range(own + 1, n))
        assert all(type(x) is int and x for x in r.values()) and r[own] > 0
        assert math.gcd(*r.values()) == 1 and primitive(r) == primitive(dict(enumerate(k)))
        assert set(r) <= {own} | {p for p in pivots if p < own}
        assert tuple(r.get(j, 0) for j in range(n)) == tuple(r[own] * x for x in k)
        total = {}
        for j, c in r.items():
            for key, x in vectors[j].items():
                total[key] = total.get(key, 0) + c * x
        assert not any(total.values())
    assert sorted(pivots + [max(r) for r in rels]) == list(range(n))


def test_relations_of_zero_and_no_vectors():
    assert relations([]) == []
    assert relations([{}, {(0, 1): Fraction(0)}, {(0, 1): 2}, {}]) == [{0: 1}, {1: 1}, {3: 1}]
    assert relations([{0: Fraction(1, 2)}, {0: Fraction(-3, 4)}]) == [{0: 3, 1: 2}]


@settings(max_examples=100, deadline=None)
@given(bases_and_vectors())
def test_span_relation_is_an_integer_combination(case):
    # relation(v) is (c, x) with c·v = Σ x_k·u_k, c a nonzero int and x
    # sparse over ints; None outside the span.
    cols, vs = case
    span = QSpan()
    assert all(span.insert(dict(enumerate(c))) for c in cols)
    for v in list(cols) + vs:
        rel = span.relation(dict(enumerate(v)))
        if rel is None:
            continue
        c, x = rel
        assert type(c) is int and c and all(type(y) is int and y for y in x.values())
        combo = tuple(sum((y * cols[k][i] for k, y in x.items()), 0) for i in range(len(v)))
        assert combo == tuple(c * t for t in v)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5).flatmap(lambda nr: st.integers(0, 6).flatmap(lambda nc: matrices(nr, nc))))
def test_rref_matches_the_echelon_oracle(a):
    got, expected = rref(a), rref_by_echelon(a)
    assert got == expected
    assert types(got[0]) == types(expected[0]) and type(got[0]) is tuple and type(got[1]) is list


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_inverses_match_the_echelon_oracle(a):
    try:
        expected = scaled_inverse_by_echelon(a)
    except ZeroDivisionError:
        for f in (scaled_inverse, mat_inv):
            with pytest.raises(ZeroDivisionError, match="singular matrix"):
                f(a)
        return
    got = scaled_inverse(a)
    assert got == expected and types(got[1]) == types(expected[1]) and type(got[0]) is int
    inv = mat_inv(a)
    assert inv == mat_inv_by_echelon(a) and types(inv) == types(mat_inv_by_echelon(a))


@given(st.integers(-(10**30), 10**30), st.integers(1, 10**20))
def test_ratio_text_is_str_of_the_fraction(a, b):
    assert ratio_text(a, b) == str(Fraction(a, b))
