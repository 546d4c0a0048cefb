"""Highest-weight representations with exact rational action matrices,
kept in ints wherever an entry is integral.

A Representation carries the action of every Chevalley generator in a
weight-adapted basis: each basis vector is a weight vector, assigned to an
isotypic component, so the (psi, chi) blocks are plain index lists and the
projections onto them are 0/1 diagonal matrices.

Irreducibles are built inside tensor products of symmetric and exterior
powers of the defining realization, kept as the list of factors: locate
a highest-weight vector as an integer ray of the joint kernel of the
raising operators in a weight space (the index tuples whose factor
weights sum to it): an integer relation among the raising images of
those tuples (matrixops.relations).  Then walk its cyclic span under the
lowering operators once into one fraction-free QSpan, whose coordinates
read the action.  Matrices are sparse {(i, j): entry}
on each factor, vectors sparse over index tuples, and every generator,
in the powers too, acts through tensor_mat_vec: no matrix of the tensor
ambient is built.  The generators, their powers, the walked vectors and
the adapted action are canonical (matrixops.canonical): an integral entry
is an int, and a Fraction is left only for a non-integral one, such as
the 1/2 entries of type B or an entry 1/3 of the adapted action of
C2 (2,1), so almost all of the arithmetic is on ints, and a
representation whose entries are all integral makes no Fraction.
Representation(cb, action, psi_of) checks a sparse adapted action and
keeps it in that one form, made dense only when it is written out;
adapt brings any sparse action to an adapted basis, and direct_sum and
tensor_product read the actions of their summands and factors.  The
powers are built on sorted index tuples, so the symmetric power keeps
the monomial basis (e1^k, e1^{k-1}e2, ...).
"""

import itertools
from math import lcm

from latmod.matrixops import (
    QSpan,
    canonical,
    column_index,
    dense,
    identity,
    mat_vec,
    primitive,
    ratio,
    relations,
    sparse_bracket,
    tensor_mat_vec,
)
from latmod.rootdata import killing_h


class RepError(ValueError):
    pass


# -----------------------------------------------------------------------
# Raw action triples (dim, sparse action dict, weights) used during
# construction
# -----------------------------------------------------------------------


def _power_raw(raw, k, exterior=False):
    """Sym^k (or Λ^k) of raw on the sorted index tuples t of length k (a
    monomial e_t1·…·e_tk, or e_t1∧…∧e_tk with t increasing): a generator
    acts on e_t1 ⊗ … ⊗ e_tk, and each image tuple is sorted again, with
    the sign of the sort in the exterior power, where a tuple with a
    repeated index is 0.  Sym^0 is the trivial representation."""
    d0, a0, w0 = raw
    tuples = itertools.combinations if exterior else itertools.combinations_with_replacement
    basis = list(tuples(range(d0), k))
    index = {t: n for n, t in enumerate(basis)}
    action = {}
    for key, g in a0.items():
        cols, m = [column_index(g)] * k, {}
        for src, t in enumerate(basis):
            for s, x in tensor_mat_vec(cols, {t: 1}).items():
                if exterior:
                    if len(set(s)) < k:
                        continue
                    x = -x if sum(i > j for i, j in itertools.combinations(s, 2)) % 2 else x
                p = (index[tuple(sorted(s))], src)
                m[p] = m.get(p, 0) + x
        action[key] = canonical(m)
    weights = tuple(tuple(sum(w0[j][c] for j in t) for c in range(len(w0[0]))) for t in basis)
    return (len(basis), action, weights)


# -----------------------------------------------------------------------
# Representation
# -----------------------------------------------------------------------


def _lowering_span(span, lowering, v):
    """Grow span by the cyclic span of the sparse vector v under the
    lowering operators (column indices on each factor); returns the
    primitive vectors that entered it, in insertion order."""
    queue = [primitive(v)]
    added = []
    for vec in queue:
        if span.insert(vec):
            added.append(vec)
            queue.extend(primitive(img) for g in lowering if (img := tensor_mat_vec(g, vec)))
    return added


def _ambient(factors):
    """The tensor product of the factors (dim, action, weights): each
    generator's column index on each factor, in factor order, and {w: the
    index tuples of weight w, in lexicographic order}, the weight of a
    tuple the sum of its factors' weights."""
    spaces = {}
    for t in itertools.product(*(range(d) for d, _, _ in factors)):
        w = tuple(map(sum, zip(*(f[2][i] for f, i in zip(factors, t)))))
        spaces.setdefault(w, []).append(t)
    return {key: [column_index(a[key]) for _, a, _ in factors] for key in factors[0][1]}, spaces


def _highest_weight_vectors(cb, columns, spaces, tops):
    """[(w, v), ...]: for each weight w of tops, in order, a basis of the
    joint kernel of the raising operators inside the weight-w space, as
    sparse integer vectors v over index tuples: the relations among the
    raising images of the tuples of the space (matrixops.relations), on
    the rays of the reduced basis."""
    out = []
    for w in tops:
        space = spaces.get(w, [])
        images = [
            {(k, r): x for k, a in enumerate(cb.rs.simple) for r, x in tensor_mat_vec(columns[a], {t: 1}).items()}
            for t in space
        ]
        out.extend((w, {space[n]: x for n, x in rel.items()}) for rel in relations(images))
    return out


def _diagonal_weights(cb, action, dim):
    """The diagonals of the Cartan generators, one weight per basis vector."""
    h = [action[("h", i)] for i in range(cb.rs.rank)]
    return tuple(tuple(int(m.get((k, k), 0)) for m in h) for k in range(dim))


def _integral(cols):
    """(d, the column indices of d·g on each factor) for g's column indices
    cols on each factor, d the least integer that makes them integral."""
    d = lcm(*(x.denominator for col in cols for entries in col.values() for _, x in entries))
    if d == 1:
        return d, cols
    return d, [{j: [(i, x.numerator * (d // x.denominator)) for i, x in e] for j, e in col.items()} for col in cols]


def _adapted(cb, columns, hw_vectors):
    """The Representation on the lowering spans of the highest-weight
    vectors [(psi, v), ...], walked in order into one QSpan.  The span's
    coordinates read the image of every basis vector under every
    generator (column indices on each factor) on the walked basis.  Each
    generator g acts as the integral d·g (the 1/2 entries of type B make
    d = 2), so the walk is on ints: d·g·v has the primitive vector of g·v,
    and the coordinates of g·v are those of d·g·v over d."""
    columns = {key: _integral(cols) for key, cols in columns.items()}
    lowering = [columns[tuple(-c for c in a)][1] for a in cb.rs.simple]
    span = QSpan()
    basis, psi_of = [], []
    for psi, v in hw_vectors:
        if any(c < 0 for c in psi):
            raise RepError("non-dominant highest weight: not completely adapted")
        walked = _lowering_span(span, lowering, v)
        basis.extend(walked)
        psi_of.extend([psi] * len(walked))
    adapted = {}
    for key, (d, g) in columns.items():
        m = adapted[key] = {}
        for c, b in enumerate(basis):
            x = span.coords(tensor_mat_vec(g, b))
            if x is None:
                raise RepError("cyclic span not invariant (construction bug)")
            m.update(((r, c), ratio(y, d)) for r, y in x.items())
    return Representation(cb, adapted, psi_of)


def _checked_weights(cb, action, dim):
    """The weight of each basis vector of the sparse action, once the
    Cartan generators act diagonally with integers and [ρ(b_i), ρ(b_j)]
    = Σ c_k·ρ(b_k) for every pair i < j of basis elements, the c_k read
    from the basis's bracket table."""
    for i in range(cb.rs.rank):
        for (r, c), x in action[("h", i)].items():
            if r != c:
                raise RepError("Cartan generators must act diagonally")
            if x.denominator != 1:
                raise RepError("non-integral weight")
    rho = [action[key] for key in cb.basis_order()]
    for i, row in enumerate(cb.bracket_table):
        for j in range(i + 1, len(rho)):
            expect = {}
            for k, c in row[j].items():
                for p, y in rho[k].items():
                    expect[p] = expect.get(p, 0) + c * y
            if sparse_bracket(rho[i], rho[j]) != {p: y for p, y in expect.items() if y}:
                raise RepError("not a representation")
    return _diagonal_weights(cb, action, dim)


class Representation:
    """Weight-adapted representation of a Chevalley basis.

    action maps each generator key (root fund-coords tuple, or ("h", i))
    to its dim×dim matrix as a canonical sparse matrix {(i, j): entry};
    weights[i] is the weight of basis vector i; psi_of[i] names its
    isotypic component; blocks[(psi, chi)] lists the basis indices of the
    chi-weight space of the psi-component.  Representation(cb, action,
    psi_of) takes the canonical sparse action on an adapted basis (as
    _adapted reads it), checks that it is a representation, and keeps it;
    to_json_obj alone makes its matrices dense.
    """

    __slots__ = ("cb", "dim", "action", "weights", "psi_of", "blocks", "highest_weights")

    def __init__(self, cb, action, psi_of):
        dim = len(psi_of)
        weights = _checked_weights(cb, action, dim)
        blocks = {}
        for i, w in enumerate(weights):
            blocks.setdefault((psi_of[i], w), []).append(i)
        # Multiset of highest weights: one entry per 1-dim highest block copy.
        hws = [psi for psi in sorted(set(psi_of), reverse=True) for _ in blocks[(psi, psi)]]
        self.cb = cb
        self.dim = dim
        self.action = action
        self.weights = weights
        self.psi_of = tuple(psi_of)
        self.blocks = {k: tuple(v) for k, v in blocks.items()}
        self.highest_weights = tuple(hws)

    # -- queries -------------------------------------------------------

    def block(self, psi, chi):
        return self.blocks.get((tuple(psi), tuple(chi)), ())

    def distinct_highest_weights(self):
        return tuple(sorted(set(self.highest_weights), reverse=True))

    def to_json_obj(self):
        def key2s(k):
            return "h%d" % k[1] if k[0] == "h" else ",".join(map(str, k))

        return {
            "dim": self.dim,
            "rootsystem": self.cb.rs.to_json_obj(),
            "action": {key2s(k): [[str(x) for x in row] for row in dense(v, self.dim)] for k, v in self.action.items()},
            "weights": [list(w) for w in self.weights],
            "highest_weights": [list(w) for w in self.highest_weights],
            "blocks": {
                "%s|%s" % (",".join(map(str, p)), ",".join(map(str, c))): list(ix)
                for (p, c), ix in sorted(self.blocks.items())
            },
        }


# -----------------------------------------------------------------------
# Constructors
# -----------------------------------------------------------------------


def build_irrep(cb, psi):
    """Irreducible representation with highest weight psi (fund coords)."""
    psi = tuple(int(x) for x in psi)
    rank = cb.rs.rank
    if len(psi) != rank or any(x < 0 for x in psi):
        raise RepError("highest weight must be a dominant integer vector")
    defining = (cb.N, cb.action, _diagonal_weights(cb, cb.action, cb.N))
    factors = [_power_raw(defining, psi[0])]
    for i in range(1, rank):
        if psi[i]:
            factors += [_power_raw(defining, i + 1, exterior=True)] * psi[i]
    columns, spaces = _ambient(factors)
    tops = _highest_weight_vectors(cb, columns, spaces, [psi])
    if not tops:
        raise RepError("highest weight (%s) is not reachable in this realization" % ",".join(map(str, psi)))
    # The psi weight space may hold more kernel vectors; the first spans the irreducible.
    return _adapted(cb, columns, tops[:1])


def weyl_dimension(cb, psi):
    """The dimension of the irreducible with highest weight psi (fund
    coords), by Weyl's formula: the product over the positive roots beta
    of <psi + rho, h_beta> / <rho, h_beta>, rho = (1, ..., 1); every
    pairing is an integer, and so is the quotient of the products."""
    rho = (1,) * cb.rs.rank
    num = den = 1
    for beta in cb.rs.positive:
        h = killing_h(cb.rs, beta)
        num *= cb.pairing([x + 1 for x in psi], h)
        den *= cb.pairing(rho, h)
    return num // den


def _adapt(cb, factors):
    """The Representation of the tensor product of the factors on the
    basis walked from the highest-weight vectors of every weight, top
    down: a change of basis, once the spans exhaust the space."""
    columns, spaces = _ambient(factors)
    rep = _adapted(cb, columns, _highest_weight_vectors(cb, columns, spaces, sorted(spaces, reverse=True)))
    if rep.dim != sum(map(len, spaces.values())):
        raise RepError("cyclic spans do not exhaust the space")
    return rep


def adapt(cb, action, dim):
    """The Representation of a sparse action of dim×dim matrices on an
    adapted basis; it is checked, and it is a representation exactly when
    action is one."""
    return _adapt(cb, [(dim, action, _diagonal_weights(cb, action, dim))])


def direct_sum(reps):
    if not reps:
        raise RepError("empty direct sum")
    cb = reps[0].cb
    if any(r.cb is not cb for r in reps):
        raise RepError("direct sum requires a common Chevalley basis")
    action = {key: {} for key in reps[0].action}
    off = 0
    for r in reps:
        for key, g in r.action.items():
            action[key].update(((i + off, j + off), x) for (i, j), x in g.items())
        off += r.dim
    return adapt(cb, action, off)


def tensor_product(r1, r2):
    if r1.cb is not r2.cb:
        raise RepError("tensor product requires a common Chevalley basis")
    return _adapt(r1.cb, [(r.dim, r.action, r.weights) for r in (r1, r2)])


def projector(rep, psi, chi):
    """0/1 diagonal projection onto the (psi, chi) block; zero if absent."""
    return dense({(i, i): 1 for i in rep.block(psi, chi)}, rep.dim)


# -----------------------------------------------------------------------
# Surjectivity of graded enveloping-algebra maps
# -----------------------------------------------------------------------


def weights_down(rep, psi):
    """The weights chi of the psi-component from the top down, in order of
    the height of psi - chi, each with the simple-root coordinates of
    psi - chi."""
    graded = []
    for (p, chi) in rep.blocks:
        if p == psi:
            m = rep.cb.rs.expansion(tuple(a - b for a, b in zip(psi, chi)))
            graded.append((sum(m), m, chi))
    return [(chi, m) for _, m, chi in sorted(graded)]


def down_step(rep, psi, a, chi, sign):
    """The map from the (psi, chi + a) block to the (psi, chi) block that
    takes a word one letter a further down: the block of x_(-a) when sign
    < 0, the transpose of the block of x_a from chi up when sign > 0."""
    lower = rep.block(psi, chi)
    upper = rep.block(psi, tuple(x + y for x, y in zip(chi, a)))
    if sign < 0:
        g = rep.action[tuple(-x for x in a)]
        return tuple(tuple(g.get((r, c), 0) for c in upper) for r in lower)
    g = rep.action[a]
    return tuple(tuple(g.get((c, r), 0) for c in upper) for r in lower)


def check_transition_surjectivity(rep, psi, chi, sign):
    """Do graded generator words span Hom(highest block, chi block)?

    sign -1 uses lowering words mapping the psi block to the chi block;
    sign +1 uses raising words mapping the chi block back up, walked
    transposed, which keeps the rank.  Returns (surjective, rank).  The
    words of degree psi - w span the maps at each w + a composed with
    down_step a, so the walk down to chi keeps a QSpan basis of block
    maps per weight, each map as its columns.
    """
    psi = tuple(psi)
    chi = tuple(chi)
    cb = rep.cb
    src = rep.block(psi, psi)
    tgt = rep.block(psi, chi)
    if not src or not tgt:
        raise RepError("chi is not a weight of the psi component")
    m = cb.rs.expansion(tuple(a - b for a, b in zip(psi, chi)))
    if m is None or any(x < 0 for x in m):
        raise RepError("chi not under psi in the root order")
    k = len(src)
    maps = {psi: [identity(k)]}
    for w, mw in weights_down(rep, psi)[1:]:
        if any(x > y for x, y in zip(mw, m)):
            continue
        span = QSpan()
        maps[w] = []
        for a in cb.rs.simple:
            above = maps.get(tuple(x + y for x, y in zip(w, a)))
            if above is None:
                continue
            step = down_step(rep, psi, a, w, sign)
            for cols in above:
                img = tuple(mat_vec(step, c) for c in cols)
                if span.insert(dict(enumerate(itertools.chain.from_iterable(img)))):
                    maps[w].append(img)
    rank = len(maps[chi])
    return rank == len(tgt) * k, rank


# -----------------------------------------------------------------------
# Chevalley-lattice generators
# -----------------------------------------------------------------------


def lattice_generators(rep):
    """Sparse action matrices of the generators of the Chevalley lattice:
    every root vector, then the simple coroots h_i, the basis of the
    coroot lattice (the simply connected form)."""
    return [rep.action[key] for key in rep.cb.basis_order()]
