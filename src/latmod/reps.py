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
those tuples (matrixops.relations).  Then walk its cyclic span under the
lowering operators once into one fraction-free QSpan, whose coordinates
read the action.  Matrices are sparse {(i, j): entry}
on each factor, vectors sparse over index tuples, and every generator
acts on the factors through tensor_mat_vec: no matrix of the tensor
ambient is built, though its index tuples are enumerated once to find
the weight spaces.  Every action is integer sparse matrices over one
positive denominator: the generators of the Chevalley basis over its
denominator (2 for type B), their powers and tensor products over the
same one, and the adapted action over the least common denominator of
its entries (2 for B3 (1,0,0), 3 for C2 (2,1)), each column read over
the multiplier of its QSpan relation.  So all of the arithmetic is on
ints and no Fraction is made.
Representation(cb, action, denominator, psi_of) checks a sparse adapted
action against the bracket table (rootdata.check_brackets, which checks
the defining action too) and keeps it in that one form, made dense only
when it is written out; adapt brings any sparse rational action to an adapted
basis, and direct_sum and tensor_product read the actions of their
summands and factors, brought to one denominator.  The
powers are built on sorted index tuples, so the symmetric power keeps
the monomial basis (e1^k, e1^{k-1}e2, ...): a generator replaces one
index per distinct entry of a tuple and puts the new one back in order,
times the entry's multiplicity in Sym^k and with the sign of the entries
it passes in Λ^k.
"""

import itertools
from bisect import bisect_left
from math import gcd, lcm

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
from latmod.rootdata import check_brackets


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


# -----------------------------------------------------------------------
# Raw action triples (dim, sparse action dict, weights) used during
# construction, the actions integral over a denominator kept beside them
# -----------------------------------------------------------------------


def _power_raw(raw, k, exterior=False):
    """Sym^k (or Λ^k) of raw on the sorted index tuples t of length k (a
    monomial e_t1·…·e_tk, or e_t1∧…∧e_tk with t increasing).  A generator
    takes e_j to Σ x·e_i, so on t it replaces one j by i, for each
    distinct j of t, and puts i back in sorted order: in Sym^k times the
    multiplicity of j in t, in Λ^k with the sign (−1)^(the entries of t
    strictly between i and j), and 0 when i ≠ j is already in t.  Sym^0
    is the trivial representation.  The power of D·g is D times the
    power of g, so an action over D stays over D."""
    d0, a0, w0 = raw
    tuples = itertools.combinations if exterior else itertools.combinations_with_replacement
    basis = list(tuples(range(d0), k))
    index = {t: n for n, t in enumerate(basis)}
    action = {}
    for key, g in a0.items():
        col, m = column_index(g), {}
        for src, t in enumerate(basis):
            for n, j in enumerate(t):
                if n and t[n - 1] == j:
                    continue
                rest, mult = t[:n] + t[n + 1 :], t.count(j)
                for i, x in col.get(j, ()):
                    q = bisect_left(rest, i)
                    if exterior:
                        if q < len(rest) and rest[q] == i:
                            continue
                        x = -x if (q - n) % 2 else x
                    p = (index[rest[:q] + (i,) + rest[q:]], src)
                    m[p] = m.get(p, 0) + mult * x
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


def _diagonal_weights(cb, action, dim, den):
    """The diagonals of the Cartan generators over den, one weight per
    basis vector."""
    h = [action[("h", i)] for i in range(cb.rs.rank)]
    return tuple(tuple(m.get((k, k), 0) // den for m in h) for k in range(dim))


def _adapted(cb, columns, den, hw_vectors):
    """The Representation on the lowering spans of the highest-weight
    vectors [(psi, v), ...], walked in order into one QSpan.  Each
    generator g acts as D·g, given by its integer column indices on each
    factor over den = D, so the walk is on ints: D·g·v has the primitive
    vector of g·v.  The span's relation c·(D·g·b) = Σ x_k·b_k reads the
    image of every walked b under every generator as the column x over
    c·D, in lowest terms; the action is then written over the least
    common denominator of the columns, the least one of its entries."""
    lowering = [columns[tuple(-c for c in a)] for a in cb.rs.simple]
    span = QSpan()
    basis, psi_of = [], []
    for psi, v in hw_vectors:
        if any(c < 0 for c in psi):
            raise RepError("non-dominant highest weight: not completely adapted")
        walked = _lowering_span(span, lowering, v)
        basis.extend(walked)
        psi_of.extend([psi] * len(walked))
    read = {}
    for key, g in columns.items():
        read[key] = cols = []
        for b in basis:
            rel = span.relation(tensor_mat_vec(g, b))
            if rel is None:
                raise RepError("cyclic span not invariant (construction bug)")
            c, x = rel
            e = c * den
            q = gcd(e, *x.values()) if e > 0 else -gcd(e, *x.values())
            cols.append((e // q, {r: y // q for r, y in x.items()}))
    d = lcm(*(e for cols in read.values() for e, _ in cols))
    adapted = {}
    for key, cols in read.items():
        m = adapted[key] = {}
        for c, (e, x) in enumerate(cols):
            s = d // e
            m.update(((r, c), s * y) for r, y in x.items())
    return Representation(cb, adapted, d, psi_of)


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
    rank = cb.rs.rank
    defining = (cb.N, cb.action, _diagonal_weights(cb, cb.action, cb.N, cb.denominator))
    factors = [_power_raw(defining, psi[0])]
    for i in range(1, rank):
        if psi[i]:
            factors += [_power_raw(defining, i + 1, exterior=True)] * psi[i]
    unreachable = "highest weight (%s) is not reachable in this realization" % ",".join(map(str, psi))
    # A psi that is no sum of one weight per factor has an empty weight
    # space; it is refused before the ambient is enumerated.
    sums = {(0,) * rank}
    for _, _, weights in factors:
        sums = {tuple(map(sum, zip(s, w))) for s in sums for w in set(weights)}
    if psi not in sums:
        raise RepError(unreachable)
    columns, spaces = _ambient(factors)
    tops = _highest_weight_vectors(cb, columns, spaces, [psi])
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
    weyl_dimension(cb, psi) weights."""
    seen, todo = {psi}, [psi]
    while todo:
        mu = todo.pop()
        for i, alpha in enumerate(cb.rs.simple):
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
    once the spans exhaust the space.  The actions are brought to the
    least common multiple of their denominators first."""
    den = lcm(*(f[3] for f in factors))
    factors = [(n, {key: {p: den // d * x for p, x in g.items()} for key, g in a.items()}, w) for n, a, w, d in factors]
    columns, spaces = _ambient(factors)
    rep = _adapted(cb, columns, den, _highest_weight_vectors(cb, columns, spaces, sorted(spaces, reverse=True)))
    if rep.dim != sum(map(len, spaces.values())):
        raise RepError("cyclic spans do not exhaust the space")
    return rep


def adapt(cb, action, dim):
    """The Representation of a sparse action of dim×dim matrices with
    rational entries (ints or Fractions) on an adapted basis; it is
    checked, and it is a representation exactly when action is one.  The
    entries are read as integers over the least common multiple of their
    denominators."""
    den = lcm(*(x.denominator for g in action.values() for x in g.values()))
    ints = {key: {p: x.numerator * (den // x.denominator) for p, x in g.items()} for key, g in action.items()}
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
