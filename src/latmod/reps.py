"""Highest-weight representations with exact rational action matrices.

A Representation carries the action of every Chevalley generator in a
weight-adapted basis: each basis vector is a weight vector, assigned to an
isotypic component, so the (psi, chi) blocks are plain index lists and the
projections onto them are 0/1 diagonal matrices.

Irreducibles are built inside tensor products of symmetric and exterior
powers of the defining realization: locate a highest-weight vector as a
joint kernel of the raising operators, then walk its cyclic span under the
lowering operators once into one QSpan, whose coordinates read the
action.  Every action stays sparse ({(i, j): entry}) until the adapted
one is published as dense matrices.  The powers are built on sorted index
tuples, so the symmetric power keeps the classical monomial basis
(e1^k, e1^{k-1}e2, ...) and rank-1 symmetric powers come out in the
textbook coordinates.
"""

import itertools
from bisect import bisect_left
from fractions import Fraction

from latmod.matrixops import (
    QSpan,
    dense,
    identity,
    mat,
    mat_vec,
    nullspace,
    primitive,
    sparse,
    sparse_bracket,
    sparse_mat_vec,
)


class RepError(ValueError):
    pass


# -----------------------------------------------------------------------
# Raw action triples (dim, sparse action dict, weights) used during
# construction
# -----------------------------------------------------------------------


def _defining_raw(cb):
    action = {a: sparse(m) for a, m in cb.x.items()}
    for i, hm in enumerate(cb.h):
        action[("h", i)] = sparse(hm)
    weights = tuple(
        tuple(int(cb.h[i][k][k]) for i in range(cb.rs.rank)) for k in range(cb.N)
    )
    return (cb.N, action, weights)


def _tensor_raw(r1, r2):
    d1, a1, w1 = r1
    d2, a2, w2 = r2
    action = {}
    for key, g1 in a1.items():
        m = {}
        for (i, j), x in g1.items():
            for k in range(d2):
                m[i * d2 + k, j * d2 + k] = x
        for (i, j), x in a2[key].items():
            for k in range(0, d1 * d2, d2):
                m[k + i, k + j] = m.get((k + i, k + j), 0) + x
        action[key] = {p: x for p, x in m.items() if x}
    weights = tuple(tuple(x + y for x, y in zip(u, v)) for u in w1 for v in w2)
    return (d1 * d2, action, weights)


def _power_raw(raw, k, exterior=False):
    """Sym^k (or Λ^k) of raw on the sorted index tuples t of length k (a
    monomial e_t1·…·e_tk, or e_t1∧…∧e_tk with t increasing), generators
    acting as derivations: position pos of t becomes i with g's (i, t_pos)
    entry, and the tuple is sorted again, with the sign of the sort in
    the exterior power.  Sym^0 is the trivial representation."""
    d0, a0, w0 = raw
    tuples = itertools.combinations if exterior else itertools.combinations_with_replacement
    basis = list(tuples(range(d0), k))
    index = {t: n for n, t in enumerate(basis)}
    action = {}
    for key, g in a0.items():
        column = {}
        for (i, j), x in g.items():
            column.setdefault(j, []).append((i, x))
        m = {}
        for src, t in enumerate(basis):
            for pos, j in enumerate(t):
                rest = t[:pos] + t[pos + 1 :]
                for i, x in column.get(j, ()):
                    if exterior and i in rest:
                        continue
                    at = bisect_left(rest, i)
                    p = (index[rest[:at] + (i,) + rest[at:]], src)
                    m[p] = m.get(p, 0) + (-x if exterior and (at - pos) % 2 else x)
        action[key] = {p: x for p, x in m.items() if x}
    weights = tuple(tuple(sum(w0[j][c] for j in t) for c in range(len(w0[0]))) for t in basis)
    return (len(basis), action, weights)


# -----------------------------------------------------------------------
# Representation
# -----------------------------------------------------------------------


def _lowering_span(span, lowering, v):
    """Grow span by the cyclic span of v under the lowering operators;
    returns the primitive vectors that entered it, in insertion order."""
    queue = [primitive(v)]
    added = []
    while queue:
        vec = queue.pop(0)
        if not span.insert(vec):
            continue
        added.append(vec)
        for g in lowering:
            img = sparse_mat_vec(g, vec)
            if any(img):
                queue.append(primitive(img))
    return added


def _highest_weight_vectors(raising, weights, w):
    """Basis of the joint kernel of the raising operators inside the
    weight-w space, as full vectors."""
    cols = {c: n for n, c in enumerate(i for i, u in enumerate(weights) if u == w)}
    rows = {}
    for k, g in enumerate(raising):
        for (r, c), x in g.items():
            if c in cols:
                rows.setdefault((k, r), [0] * len(cols))[cols[c]] = x
    out = []
    for kv in nullspace(mat(rows.values())) if rows else identity(len(cols)):
        full = [Fraction(0)] * len(weights)
        for c, x in zip(cols, kv):
            full[c] = x
        out.append(tuple(full))
    return out


def _diagonal_weights(cb, action, dim):
    """The diagonals of the Cartan generators, one weight per basis vector."""
    h = [action[("h", i)] for i in range(cb.rs.rank)]
    return tuple(tuple(int(m.get((k, k), 0)) for m in h) for k in range(dim))


def _adapted_action(cb, action, hw_vectors):
    """The action on the lowering spans of the highest-weight vectors
    [(psi, v), ...], walked in order into one QSpan, and the psi of each
    basis vector walked.  The span's coordinates read the image of every
    basis vector under every generator on the walked basis."""
    lowering = [action[tuple(-c for c in a)] for a in cb.rs.simple]
    span = QSpan()
    basis, psi_of = [], []
    for psi, v in hw_vectors:
        walked = _lowering_span(span, lowering, v)
        basis.extend(walked)
        psi_of.extend([psi] * len(walked))
    adapted = {}
    for key, g in action.items():
        m = adapted[key] = {}
        for c, b in enumerate(basis):
            x = span.coords(sparse_mat_vec(g, b))
            if x is None:
                raise RepError("cyclic span not invariant (construction bug)")
            m.update(((r, c), y) for r, y in enumerate(x) if y)
    return adapted, psi_of


class Representation:
    """Weight-adapted representation of a Chevalley basis.

    action maps each generator key (root fund-coords tuple, or ("h", i))
    to a dim×dim rational matrix; weights[i] is the weight of basis vector
    i; psi_of[i] names its isotypic component; blocks[(psi, chi)] lists the
    basis indices of the chi-weight space of the psi-component.
    Representation(cb, action) makes the action sparse, checks it, then
    keeps the one _adapted_action reads on the walks of all highest-weight
    vectors.
    """

    __slots__ = ("cb", "dim", "action", "weights", "psi_of", "blocks", "highest_weights")

    def __init__(self, cb, action):
        rho = {key: sparse(g) for key, g in action.items()}
        weights = self._checked_weights(cb, rho, len(action[("h", 0)]))
        raising = [rho[a] for a in cb.rs.simple]
        # Highest-weight vectors, per weight, echelon order.
        hw_vectors = [
            (w, v)
            for w in sorted(set(weights), reverse=True)
            for v in _highest_weight_vectors(raising, weights, w)
        ]
        if any(c < 0 for w, _ in hw_vectors for c in w):
            raise RepError("non-dominant highest weight: not completely adapted")
        adapted, psi_of = _adapted_action(cb, rho, hw_vectors)
        if len(psi_of) != len(weights):
            raise RepError("cyclic spans do not exhaust the space")
        self._set(cb, adapted, psi_of)

    @classmethod
    def _from_adapted(cls, cb, action, psi_of):
        """The representation on the basis _adapted_action walked: the
        checks of __init__ run on the action, the walk does not."""
        rep = object.__new__(cls)
        cls._checked_weights(cb, action, len(psi_of))
        rep._set(cb, action, psi_of)
        return rep

    def _set(self, cb, action, psi_of):
        """Store the sparse adapted action as dense matrices."""
        dim = len(psi_of)
        weights = _diagonal_weights(cb, action, dim)
        blocks = {}
        for i, w in enumerate(weights):
            blocks.setdefault((psi_of[i], w), []).append(i)
        # Multiset of highest weights: one entry per 1-dim highest block copy.
        hws = [psi for psi in sorted(set(psi_of), reverse=True) for _ in blocks[(psi, psi)]]
        self.cb = cb
        self.dim = dim
        self.action = {key: dense(m, dim) for key, m in action.items()}
        self.weights = weights
        self.psi_of = tuple(psi_of)
        self.blocks = {k: tuple(v) for k, v in blocks.items()}
        self.highest_weights = tuple(hws)

    @staticmethod
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

    # -- queries -------------------------------------------------------

    def block(self, psi, chi):
        return self.blocks.get((tuple(psi), tuple(chi)), ())

    def distinct_highest_weights(self):
        return tuple(sorted(set(self.highest_weights), reverse=True))

    def to_json_obj(self):
        def m2s(m):
            return [[str(x) for x in row] for row in m]

        def key2s(k):
            if isinstance(k, tuple) and k and k[0] == "h":
                return "h%d" % k[1]
            return ",".join(map(str, k))

        return {
            "dim": self.dim,
            "rootsystem": self.cb.rs.to_json_obj(),
            "action": {key2s(k): m2s(v) for k, v in self.action.items()},
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
    defining = _defining_raw(cb)
    ambient = _power_raw(defining, psi[0])
    for i in range(1, rank):
        if psi[i]:
            ext = _power_raw(defining, i + 1, exterior=True)
            for _ in range(psi[i]):
                ambient = _tensor_raw(ambient, ext)
    _, action, weights = ambient
    raising = [action[a] for a in cb.rs.simple]
    hw = _highest_weight_vectors(raising, weights, psi)
    if not hw:
        raise RepError("highest weight %r not reachable in this realization" % (psi,))
    return Representation._from_adapted(cb, *_adapted_action(cb, action, [(psi, hw[0])]))


def direct_sum(reps):
    if not reps:
        raise RepError("empty direct sum")
    cb = reps[0].cb
    if any(r.cb is not cb for r in reps):
        raise RepError("direct sum requires a common Chevalley basis")
    dim = sum(r.dim for r in reps)
    action = {}
    for key in reps[0].action:
        rows, off = [], 0
        for r in reps:
            rows.extend((0,) * off + row + (0,) * (dim - off - r.dim) for row in r.action[key])
            off += r.dim
        action[key] = mat(rows)
    return Representation(cb, action)


def tensor_product(r1, r2):
    if r1.cb is not r2.cb:
        raise RepError("tensor product requires a common Chevalley basis")
    d, action, _ = _tensor_raw(
        *((r.dim, {key: sparse(g) for key, g in r.action.items()}, r.weights) for r in (r1, r2))
    )
    return Representation(r1.cb, {key: dense(m, d) for key, m in action.items()})


def projector(rep, psi, chi):
    """0/1 diagonal projection onto the (psi, chi) block; zero if absent."""
    ix = set(rep.block(psi, chi))
    return tuple(
        tuple(Fraction(int(i == j and i in ix)) for j in range(rep.dim))
        for i in range(rep.dim)
    )


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
        return tuple(tuple(g[r][c] for c in upper) for r in lower)
    g = rep.action[a]
    return tuple(tuple(g[c][r] for c in upper) for r in lower)


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
                if span.insert(itertools.chain.from_iterable(img)):
                    maps[w].append(img)
    rank = len(maps[chi])
    return rank == len(tgt) * k, rank


# -----------------------------------------------------------------------
# Chevalley-lattice generators
# -----------------------------------------------------------------------


def lattice_generators(rep):
    """Action matrices of the generators of the Chevalley lattice: every
    root vector, then the simple coroots h_i, the basis of the coroot
    lattice (the simply connected form)."""
    return [rep.action[key] for key in rep.cb.basis_order()]
