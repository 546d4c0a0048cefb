"""Highest-weight representations with exact rational action matrices,
kept as integer matrices over one denominator.

A Representation carries the action of every Chevalley generator in a
weight-adapted basis: each basis vector is a weight vector, assigned to an
isotypic component, so the (psi, chi) blocks are plain index lists and the
projections onto them are 0/1 diagonal matrices.

Irreducibles are built inside tensor products of symmetric and exterior
powers of the defining realization, kept as the list of factors: locate
a highest-weight vector as an integer ray of the joint kernel of the
raising operators in a weight space (the index tuples whose factor
weights sum to it): an integer relation among the raising images of
those tuples (matrixops.relations).  A weight table, built once from
the last factor back, holds for each j the weights the factors from j
on sum to: its first entry is the weights of the ambient, and a weight
space is listed factor by factor, a prefix extended only by an index
that leaves a weight of the factors after it (_weight_space).  Then
walk its cyclic span into one fraction-free QSpan in one pass: each
simple generator x_{±alpha_i} acts once on each walked vector, a
lowering image that grows the span joins the walk, and the span's
coordinates read every image on the walked basis.  Matrices are sparse
{(i, j): entry} on each factor, vectors sparse over index tuples, and
only the 2·rank simple generators are powered into the factors and act
on them, through tensor_mat_vec: no matrix of the tensor ambient is
built, and no index tuple is listed outside the weight spaces asked
for.  Every other root vector and every h_i of the
adapted action comes from the simple generators by the recursion that
builds the Chevalley set itself (rootdata.chevalley_set), on
dim × dim sparse matrices.  Every action is integer sparse matrices
over one positive denominator: the generators of the Chevalley basis
over its denominator (2 for type B), their powers and tensor products
over the same one, and the adapted action over the least common
denominator of its entries (2 for B3 (1,0,0), 3 for C2 (2,1)).  So all
of the arithmetic is on ints and no Fraction is made.
Representation(cb, action, denominator, psi_of) checks a sparse adapted
action against the bracket table (rootdata.check_brackets, which checks
the defining action too) and keeps it in that one form, made dense only
when it is written out; adapt checks a sparse rational action against
the bracket table and brings it to an adapted basis, and direct_sum and
tensor_product read the actions of their summands and factors, brought
to one denominator.  The powers are indexed by exponent vectors, listed
in the order of the sorted index tuples, so the symmetric power keeps
the monomial basis (e1^k, e1^{k-1}e2, ...): a generator's entry at
(i, j) moves one unit of an exponent vector from j to i, times the
exponent of j, and in Λ^k with the sign of the ones it passes.
"""

import itertools
from math import lcm, prod

from latmod.matrixops import (
    QSpan,
    canonical,
    column_index,
    dense,
    primitive,
    ratio_text,
    relations,
    tensor_mat_vec,
)
from latmod.rootdata import chevalley_set, check_brackets


class RepError(ValueError):
    pass


# The most matrix entries a report writes (dim² per generator in rep build,
# per lattice in sandwich, per class in orbits).  The CLI refuses a report
# that its dimension alone puts past the cap before the representation is
# built, and the orbit search stops at the first class past it.  Peak
# memory grows by about 97 bytes an action entry and 83 a basis entry
# (CPython 3.11, x86-64), so a report stays under about 400 MB; the
# largest rep build of the tests and the benchmark, B4 (0,0,0,2), has
# 571,536 entries.
REPORT_ENTRY_CAP = 4_000_000

# The most index tuples of a tensor ambient build_irrep admits (the
# product of its factors' dimensions).  A build past it is refused once
# its weight is found reachable on the weight table, before its psi weight
# space is listed.  Nothing enumerates the ambient, so the cap bounds
# the input, not the work: a build lists only the psi weight space,
# and D4 (0,0,0,4), of dimension 294, has 24,010,000 tuples,
# 9,016 of weight psi.  Near the cap, D3 (1,0,4) (960,000 tuples,
# 1,416 of weight psi, dimension 140) builds as a CLI child in 2.2 s at a
# peak RSS of 35 MB, and D3 (1,3,1) (405,000 tuples, 885 of weight psi,
# dimension 256) in 4.9–5.0 s at 60 MB (CPython 3.11, 2-vCPU x86-64).
# The tests build D3 (1,3,1) and B4 (0,0,0,2) (15,876 tuples).
AMBIENT_TUPLE_CAP = 1_000_000


# -----------------------------------------------------------------------
# Raw action triples (dim, sparse action dict, weights) used during
# construction, the actions integral over a denominator kept beside them
# -----------------------------------------------------------------------


def _power_raw(raw, k, exterior=False):
    """Sym^k (or Λ^k) of raw on the exponent vectors a of length dim,
    Σ a = k (the monomial Π e_j^a_j, or the wedge of the e_j with a_j = 1
    in increasing j), listed in the order of the sorted index tuples.  A
    generator takes e_j to Σ x·e_i, so its entry x at (i, j) sends a to b,
    a with b_j − 1 and b_i + 1, with the coefficient a_j·x: the derivative
    of e_j^a_j, and the one e_j of a wedge, as a_j = 1 in Λ^k.  In Λ^k the
    term is 0 when b_i > 1, and e_i moved to its place passes the ones of
    a strictly between i and j, one sign each.  The weight of a is
    Σ a_j·w_j.  Sym^0 is the trivial representation.  The power of D·g is
    D times the power of g, so an action over D stays over D."""
    d0, a0, w0 = raw
    tuples = itertools.combinations if exterior else itertools.combinations_with_replacement
    basis = [tuple(map(t.count, range(d0))) for t in tuples(range(d0), k)]
    index = {a: n for n, a in enumerate(basis)}
    action = {}
    for key, g in a0.items():
        m = {}
        for src, a in enumerate(basis):
            for (i, j), x in g.items():
                if not a[j]:
                    continue
                b = list(a)
                b[j] -= 1
                b[i] += 1
                if exterior and b[i] > 1:
                    continue
                x = -x if exterior and sum(a[n] for n in range(min(i, j) + 1, max(i, j))) % 2 else x
                p = (index[tuple(b)], src)
                m[p] = m.get(p, 0) + a[j] * x
        action[key] = canonical(m)
    weights = tuple(tuple(sum(n * w[c] for n, w in zip(a, w0)) for c in range(len(w0[0]))) for a in basis)
    return (len(basis), action, weights)


# -----------------------------------------------------------------------
# Representation
# -----------------------------------------------------------------------


def _ambient(factors, rank):
    """The tensor product of the factors (dim, action, weights), without
    listing its index tuples: the column index of each generator of the
    factors (the simple ones) on each factor, in factor order, and the
    weight table, for each j the set of weights that the factors from j
    on sum to (a tuple's weight is the sum of its factors' weights).  The
    table is built from the last factor back, its last entry {0} and its
    first the weights of the ambient."""
    table = [{(0,) * rank}]
    for _, _, weights in reversed(factors):
        table.insert(0, {tuple(map(sum, zip(s, w))) for s in table[0] for w in set(weights)})
    return {key: [column_index(a[key]) for _, a, _ in factors] for key in factors[0][1]}, table


def _weight_space(factors, table, w):
    """The index tuples of weight w, in lexicographic order, listed factor
    by factor: a prefix is extended by an index of the next factor only
    when what is left of w lies in the table entry of the factors after
    it, so every prefix kept ends in some tuple of weight w, and a w off
    the table's first entry lists none."""
    space = [((), w)]
    for (_, _, ws), after in zip(factors, table[1:]):
        space = [(t + (i,), r) for t, v in space for i, u in enumerate(ws) if (r := tuple(x - y for x, y in zip(v, u))) in after]
    return [t for t, _ in space]


def _highest_weight_vectors(cb, columns, spaces):
    """[(w, v), ...]: for each (w, space) of spaces, in order, a basis of
    the joint kernel of the raising operators inside the weight-w space,
    spanned by the index tuples of space, as sparse integer vectors v
    over index tuples: the relations among the raising images of the
    tuples of the space (matrixops.relations), on the rays of the
    reduced basis."""
    out = []
    for w, space in spaces:
        images = [
            {(k, r): x for k, a in enumerate(cb.rs.simple) for r, x in tensor_mat_vec(columns[a], {t: 1}).items()}
            for t in space
        ]
        out.extend((w, {space[n]: x for n, x in rel.items()}) for rel in relations(images))
    return out


def _diagonal_weights(cb, action, dim, den):
    """The diagonals of the Cartan generators over den, one weight per
    basis vector."""
    h = [action[("h", i)] for i in range(cb.rs.rank)]
    return tuple(tuple(m.get((k, k), 0) // den for m in h) for k in range(dim))


def _adapted(cb, columns, den, hw_vectors):
    """The Representation on the lowering spans of the highest-weight
    vectors [(psi, v), ...], walked in order into one QSpan in one pass.
    Only the simple generators x_{±alpha_i} act, each g as D·g, given by
    its integer column indices on each factor over den = D, so the walk
    is on ints: D·g·v has the primitive vector of g·v.  Each walked b is
    taken in turn, and each simple generator acts on it once: a lowering
    image that grows the span joins the walk, as its primitive vector,
    and the span's relation c·(D·g·b) = Σ x_k·b_k then reads every image
    as the column x over c·D.  The walk is breadth first, so a raising
    image lies in a weight layer that is already complete, and a
    lowering image is in the span once it is inserted.  The columns of g
    over their lcm give g on the walked basis.  Every other root vector
    and every h_i is read off these by rootdata.chevalley_set, the
    recursion that builds the Chevalley set, over the least common
    denominator of the action."""
    lowering = set(cb.rs.generators[cb.rs.rank :])
    span = QSpan()
    psi_of, read = [], {key: [] for key in columns}
    for psi, v in hw_vectors:
        if any(c < 0 for c in psi):
            raise RepError("non-dominant highest weight: not completely adapted")
        walk = [v] if span.insert(v := primitive(v)) else []
        for b in walk:
            for key, g in columns.items():
                img = tensor_mat_vec(g, b)
                if key in lowering and img and span.insert(u := primitive(img)):
                    walk.append(u)
                read[key].append(span.relation(img))
        psi_of.extend([psi] * len(walk))
    simple = {}
    for key, cols in read.items():
        if None in cols:
            raise RepError("cyclic span not invariant (construction bug)")
        e = lcm(*(c for c, _ in cols))
        simple[key] = ({(r, k): e // c * y for k, (c, x) in enumerate(cols) for r, y in x.items()}, e * den)
    return Representation(cb, *chevalley_set(cb.rs, simple), psi_of)


def _checked_weights(cb, action, den, dim):
    """The weight of each basis vector of the integer sparse action A over
    den, once the Cartan generators act diagonally with integers and A
    satisfies the bracket table of the basis (rootdata.check_brackets)."""
    for i in range(cb.rs.rank):
        for (r, c), x in action[("h", i)].items():
            if r != c:
                raise RepError("Cartan generators must act diagonally")
            if x % den:
                raise RepError("non-integral weight")
    if check_brackets(cb, action, den):
        raise RepError("not a representation")
    return _diagonal_weights(cb, action, dim, den)


class Representation:
    """Weight-adapted representation of a Chevalley basis.

    Each generator key (root fund-coords tuple, or ("h", i)) acts by the
    dim×dim matrix action[key] / denominator: action[key] is an integer
    sparse matrix {(i, j): entry}, zeros left out, and denominator is a
    positive integer; weights[i] is the weight of basis vector i;
    psi_of[i] names its isotypic component; blocks[(psi, chi)] lists the
    basis indices of the chi-weight space of the psi-component.
    Representation(cb, action, denominator, psi_of) takes the action on
    an adapted basis (as _adapted reads it), checks that it is a
    representation, and keeps it; to_json_obj alone makes its matrices
    dense.
    """

    __slots__ = ("cb", "dim", "action", "denominator", "weights", "psi_of", "blocks", "highest_weights")

    def __init__(self, cb, action, denominator, psi_of):
        dim = len(psi_of)
        weights = _checked_weights(cb, action, denominator, dim)
        blocks = {}
        for i, w in enumerate(weights):
            blocks.setdefault((psi_of[i], w), []).append(i)
        # Multiset of highest weights: one entry per 1-dim highest block copy.
        hws = [psi for psi in sorted(set(psi_of), reverse=True) for _ in blocks[(psi, psi)]]
        self.cb = cb
        self.dim = dim
        self.action = action
        self.denominator = denominator
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

        d = self.denominator
        return {
            "dim": self.dim,
            "rootsystem": self.cb.rs.to_json_obj(),
            "action": {
                key2s(k): [[ratio_text(x, d) if x else "0" for x in row] for row in dense(v, self.dim)]
                for k, v in self.action.items()
            },
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
    psi = dominant(cb, psi)
    simple = {key: cb.action[key] for key in cb.rs.generators}
    defining = (cb.N, simple, _diagonal_weights(cb, cb.action, cb.N, cb.denominator))
    factors = [_power_raw(defining, psi[0])]
    for i in range(1, cb.rs.rank):
        if psi[i]:
            factors += [_power_raw(defining, i + 1, exterior=True)] * psi[i]
    unreachable = "highest weight (%s) is not reachable in this realization" % ",".join(map(str, psi))
    # A psi that is no sum of one weight per factor lies off the weight
    # table; it is refused before any weight space is listed.
    columns, table = _ambient(factors, cb.rs.rank)
    if psi not in table[0]:
        raise RepError(unreachable)
    if (tuples := prod(d for d, _, _ in factors)) > AMBIENT_TUPLE_CAP:
        msg = "highest weight (%s) has an ambient of %d index tuples, more than the cap of %d"
        raise RepError(msg % (",".join(map(str, psi)), tuples, AMBIENT_TUPLE_CAP))
    tops = _highest_weight_vectors(cb, columns, [(psi, _weight_space(factors, table, psi))])
    if not tops:
        raise RepError(unreachable)
    # The psi weight space may hold more kernel vectors; the first spans the irreducible.
    return _adapted(cb, columns, cb.denominator, tops[:1])


def dominant(cb, psi):
    """psi (fund coords) as a tuple of ints, refused unless it is a
    dominant integer vector of the rank of cb."""
    psi = tuple(int(x) for x in psi)
    if len(psi) != cb.rs.rank or any(x < 0 for x in psi):
        raise RepError("highest weight must be a dominant integer vector")
    return psi


def weyl_dimension(cb, psi):
    """The dimension of the irreducible with highest weight psi (fund
    coords), by Weyl's formula: the product over the positive roots beta
    of <psi + rho, h_beta> / <rho, h_beta>, rho = (1, ..., 1); every
    pairing is an integer, and so is the quotient of the products."""
    rho = (1,) * cb.rs.rank
    num = den = 1
    for beta in cb.rs.positive:
        h = cb.h_alpha_coords(beta)
        num *= cb.pairing([x + 1 for x in psi], h)
        den *= cb.pairing(rho, h)
    return num // den


def weight_set(cb, psi):
    """The weights of the irreducible V(psi) (tuples in fund coords, mu[i] =
    <mu, alpha_i^∨>), without building it: the closure of {psi} under the
    downward strings mu - j·alpha_i, 0 < j <= <mu, alpha_i^∨>.

    The alpha_i-string of weights through a weight mu is unbroken and
    holds s_i(mu) = mu - <mu, alpha_i^∨>·alpha_i, so it holds the whole
    downward string: the closure holds weights only.  Conversely, V(psi)
    is spanned by lowerings of a psi-vector, so each weight mu below psi
    has some mu + alpha_i among the weights.  Let nu = mu + k·alpha_i,
    k >= 1, be the top of the alpha_i-string through mu; it runs down to
    s_i(nu), so k <= <nu, alpha_i^∨>.  nu is higher than mu, so by
    induction on the height of psi - mu, nu and then mu lie in the
    closure.  V(psi) is free of multiplicities exactly when it has
    weyl_dimension(cb, psi) weights.

    Each alpha_i-string is walked once: mu skips its alpha_i walk when
    mu + alpha_i is already seen.  The closure is unchanged: let t =
    mu + k·alpha_i, k >= 1, be the highest weight of mu's string that is
    ever seen.  t + alpha_i is not, so t walks its <t, alpha_i^∨>
    steps down to s_i(t) = mu - (<t, alpha_i^∨> - k)·alpha_i, and
    s_i(mu) = mu - (<t, alpha_i^∨> - 2k)·alpha_i lies above it."""
    seen, todo = {psi}, [psi]
    while todo:
        mu = todo.pop()
        for i, alpha in enumerate(cb.rs.simple):
            if mu[i] > 0 and tuple(x + y for x, y in zip(mu, alpha)) in seen:
                continue
            nu = mu
            for _ in range(mu[i]):
                nu = tuple(x - y for x, y in zip(nu, alpha))
                if nu not in seen:
                    seen.add(nu)
                    todo.append(nu)
    return seen


def _adapt(cb, factors):
    """The Representation of the tensor product of the factors (dim,
    integer action, weights, denominator) on the basis walked from the
    highest-weight vectors of every weight, top down: a change of basis,
    once the spans exhaust the space.  Only the simple generators of the
    factors are kept, brought to the least common multiple of their
    denominators first."""
    den = lcm(*(f[3] for f in factors))
    factors = [(n, {key: {p: den // d * x for p, x in a[key].items()} for key in cb.rs.generators}, w) for n, a, w, d in factors]
    columns, table = _ambient(factors, cb.rs.rank)
    spaces = ((w, _weight_space(factors, table, w)) for w in sorted(table[0], reverse=True))
    rep = _adapted(cb, columns, den, _highest_weight_vectors(cb, columns, spaces))
    if rep.dim != prod(n for n, _, _ in factors):
        raise RepError("cyclic spans do not exhaust the space")
    return rep


def adapt(cb, action, dim):
    """The Representation of a sparse action of dim×dim matrices with
    rational entries (ints or Fractions) on an adapted basis.  The
    entries are read as integers over the least common multiple of their
    denominators, and the action is refused unless it satisfies the
    bracket table (rootdata.check_brackets): the adapted basis reads only
    the simple generators, so an entry off the representation in any
    other generator would not be seen there."""
    den = lcm(*(x.denominator for g in action.values() for x in g.values()))
    ints = {key: {p: x.numerator * (den // x.denominator) for p, x in g.items()} for key, g in action.items()}
    if check_brackets(cb, ints, den):
        raise RepError("not a representation")
    return _adapt(cb, [(dim, ints, _diagonal_weights(cb, ints, dim, den), den)])


def direct_sum(reps):
    if not reps:
        raise RepError("empty direct sum")
    cb = reps[0].cb
    if any(r.cb is not cb for r in reps):
        raise RepError("direct sum requires a common Chevalley basis")
    den = lcm(*(r.denominator for r in reps))
    action = {key: {} for key in reps[0].action}
    off = 0
    for r in reps:
        s = den // r.denominator
        for key, g in r.action.items():
            action[key].update(((i + off, j + off), s * x) for (i, j), x in g.items())
        off += r.dim
    return _adapt(cb, [(off, action, _diagonal_weights(cb, action, off, den), den)])


def tensor_product(r1, r2):
    if r1.cb is not r2.cb:
        raise RepError("tensor product requires a common Chevalley basis")
    return _adapt(r1.cb, [(r.dim, r.action, r.weights, r.denominator) for r in (r1, r2)])


def projector(rep, psi, chi):
    """0/1 diagonal projection onto the (psi, chi) block; zero if absent."""
    return dense({(i, i): 1 for i in rep.block(psi, chi)}, rep.dim)


# -----------------------------------------------------------------------
# Chevalley-lattice generators
# -----------------------------------------------------------------------


def lattice_generators(rep):
    """Sparse integer action matrices, over rep.denominator, of the
    generators of the Chevalley lattice: every root vector, then the
    simple coroots h_i, the basis of the coroot lattice (the simply
    connected form)."""
    return [rep.action[key] for key in rep.cb.basis_order()]
