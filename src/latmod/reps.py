"""Highest-weight representations with exact rational action matrices.

A Representation carries the action of every Chevalley generator in a
weight-adapted basis: each basis vector is a weight vector, assigned to an
isotypic component, so the (psi, chi) blocks are plain index lists and the
projections onto them are 0/1 diagonal matrices.

Irreducibles are built inside tensor products of symmetric and exterior
powers of the defining realization: locate a highest-weight vector as a
joint kernel of the raising operators, then walk its cyclic span under the
lowering operators once; one coordinate solve on that adapted basis reads
the action.  The symmetric-power path keeps the classical monomial basis
(e1^k, e1^{k-1}e2, ...) so rank-1 symmetric powers come out in the
textbook coordinates.
"""

import itertools
from fractions import Fraction

from latmod.matrixops import (
    QSpan,
    coordinate_solver,
    identity,
    mat,
    mat_vec,
    nullspace,
    primitive,
    sparse,
    sparse_bracket,
    zeros,
)


class RepError(ValueError):
    pass


# -----------------------------------------------------------------------
# Raw action triples (dim, action dict, weights) used during construction
# -----------------------------------------------------------------------


def _defining_raw(cb):
    action = dict(cb.x)
    for i, hm in enumerate(cb.h):
        action[("h", i)] = hm
    weights = tuple(
        tuple(int(cb.h[i][k][k]) for i in range(cb.rs.rank)) for k in range(cb.N)
    )
    return (cb.N, action, weights)


def _trivial_raw(cb):
    rank = cb.rs.rank
    action = {a: zeros(1, 1) for a in cb.rs.all_roots}
    for i in range(rank):
        action[("h", i)] = zeros(1, 1)
    return (1, action, ((0,) * rank,))


def _tensor_raw(r1, r2):
    d1, a1, w1 = r1
    d2, a2, w2 = r2
    d = d1 * d2
    action = {}
    for key in a1:
        g1 = a1[key]
        g2 = a2[key]
        m = [[Fraction(0)] * d for _ in range(d)]
        for i1 in range(d1):
            for j1 in range(d1):
                if g1[i1][j1]:
                    for k in range(d2):
                        m[i1 * d2 + k][j1 * d2 + k] += g1[i1][j1]
        for i2 in range(d2):
            for j2 in range(d2):
                if g2[i2][j2]:
                    for k in range(d1):
                        m[k * d2 + i2][k * d2 + j2] += g2[i2][j2]
        action[key] = mat(m)
    weights = tuple(
        tuple(x + y for x, y in zip(w1[i], w2[j]))
        for i in range(d1)
        for j in range(d2)
    )
    return (d, action, weights)


def _sym_power_raw(raw, k):
    """Symmetric power on the monomial basis, generators as derivations."""
    d0, a0, w0 = raw
    basis = sorted(
        (m for m in itertools.product(range(k + 1), repeat=d0) if sum(m) == k),
        reverse=True,
    )
    idx = {m: i for i, m in enumerate(basis)}
    d = len(basis)
    action = {}
    for key, g in a0.items():
        m = [[Fraction(0)] * d for _ in range(d)]
        for src, mono in enumerate(basis):
            for j in range(d0):
                if mono[j] == 0:
                    continue
                for i in range(d0):
                    if g[i][j] == 0:
                        continue
                    tgt = list(mono)
                    tgt[j] -= 1
                    tgt[i] += 1
                    m[idx[tuple(tgt)]][src] += mono[j] * g[i][j]
        action[key] = mat(m)
    weights = tuple(
        tuple(sum(e * w0[j][i] for j, e in enumerate(mono)) for i in range(len(w0[0])))
        for mono in basis
    )
    return (d, action, weights)


def _ext_power_raw(raw, k):
    d0, a0, w0 = raw
    basis = list(itertools.combinations(range(d0), k))
    idx = {s: i for i, s in enumerate(basis)}
    d = len(basis)
    action = {}
    for key, g in a0.items():
        m = [[Fraction(0)] * d for _ in range(d)]
        for src, sub in enumerate(basis):
            for t, j in enumerate(sub):
                for i in range(d0):
                    if g[i][j] == 0 or (i in sub and i != j):
                        continue
                    new = list(sub)
                    new[t] = i
                    # Re-sort and track the permutation sign.
                    sign = 1
                    pos = t
                    while pos > 0 and new[pos - 1] > new[pos]:
                        new[pos - 1], new[pos] = new[pos], new[pos - 1]
                        pos -= 1
                        sign = -sign
                    while pos < k - 1 and new[pos + 1] < new[pos]:
                        new[pos + 1], new[pos] = new[pos], new[pos + 1]
                        pos += 1
                        sign = -sign
                    m[idx[tuple(new)]][src] += sign * g[i][j]
        action[key] = mat(m)
    weights = tuple(
        tuple(sum(w0[j][i] for j in sub) for i in range(len(w0[0])))
        for sub in basis
    )
    return (d, action, weights)


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
            img = mat_vec(g, vec)
            if any(img):
                queue.append(primitive(img))
    return added


def _highest_weight_vectors(raising, weights, w):
    """Basis of the joint kernel of the raising operators inside the
    weight-w space, as full vectors."""
    dim = len(weights)
    cols = [i for i in range(dim) if weights[i] == w]
    rows = [tuple(g[r][c] for c in cols) for g in raising for r in range(dim)]
    out = []
    for kv in nullspace(mat(rows)):
        full = [Fraction(0)] * dim
        for c, x in zip(cols, kv):
            full[c] = x
        out.append(tuple(full))
    return out


def _diagonal_weights(cb, action):
    """The diagonals of the Cartan generators, one weight per basis vector."""
    h = [action[("h", i)] for i in range(cb.rs.rank)]
    return tuple(tuple(int(m[k][k]) for m in h) for k in range(len(h[0])))


def _adapted_action(cb, action, hw_vectors):
    """The action on the lowering spans of the highest-weight vectors
    [(psi, v), ...], walked in order into one QSpan, and the psi of each
    basis vector walked.  One coordinate_solver on the walked basis reads
    the image of every basis vector under every generator."""
    lowering = [action[tuple(-c for c in a)] for a in cb.rs.simple]
    span = QSpan(len(action[("h", 0)]))
    basis, psi_of = [], []
    for psi, v in hw_vectors:
        walked = _lowering_span(span, lowering, v)
        basis.extend(walked)
        psi_of.extend([psi] * len(walked))
    coords = coordinate_solver(basis)
    images = {key: [coords(mat_vec(g, b)) for b in basis] for key, g in action.items()}
    if any(x is None for cols in images.values() for x in cols):
        raise RepError("cyclic span not invariant (construction bug)")
    return {key: tuple(zip(*cols)) for key, cols in images.items()}, psi_of


class Representation:
    """Weight-adapted representation of a Chevalley basis.

    action maps each generator key (root fund-coords tuple, or ("h", i))
    to a dim×dim rational matrix; weights[i] is the weight of basis vector
    i; psi_of[i] names its isotypic component; blocks[(psi, chi)] lists the
    basis indices of the chi-weight space of the psi-component.
    Representation(cb, action) checks any action, then keeps the one
    _adapted_action reads on the walks of all highest-weight vectors.
    """

    __slots__ = ("cb", "dim", "action", "weights", "psi_of", "blocks", "highest_weights")

    def __init__(self, cb, action):
        weights = self._checked_weights(cb, action)
        raising = [action[a] for a in cb.rs.simple]
        # Highest-weight vectors, per weight, echelon order.
        hw_vectors = [
            (w, v)
            for w in sorted(set(weights), reverse=True)
            for v in _highest_weight_vectors(raising, weights, w)
        ]
        if any(c < 0 for w, _ in hw_vectors for c in w):
            raise RepError("non-dominant highest weight: not completely adapted")
        adapted, psi_of = _adapted_action(cb, action, hw_vectors)
        if len(psi_of) != len(weights):
            raise RepError("cyclic spans do not exhaust the space")
        self._set(cb, adapted, psi_of)

    @classmethod
    def _from_adapted(cls, cb, action, psi_of):
        """The representation on the basis _adapted_action walked: the
        checks of __init__ run on the action, the walk does not."""
        rep = object.__new__(cls)
        cls._checked_weights(cb, action)
        rep._set(cb, action, psi_of)
        return rep

    def _set(self, cb, action, psi_of):
        weights = _diagonal_weights(cb, action)
        blocks = {}
        for i, w in enumerate(weights):
            blocks.setdefault((psi_of[i], w), []).append(i)
        # Multiset of highest weights: one entry per 1-dim highest block copy.
        hws = [psi for psi in sorted(set(psi_of), reverse=True) for _ in blocks[(psi, psi)]]
        self.cb = cb
        self.dim = len(weights)
        self.action = action
        self.weights = weights
        self.psi_of = tuple(psi_of)
        self.blocks = {k: tuple(v) for k, v in blocks.items()}
        self.highest_weights = tuple(hws)

    @staticmethod
    def _checked_weights(cb, action):
        """The weight of each basis vector, once the Cartan generators act
        diagonally with integers and [ρ(b_i), ρ(b_j)] = Σ c_k·ρ(b_k) for
        every pair i < j of basis elements, the c_k read from the basis's
        bracket table; the matrices are compared sparse."""
        for i in range(cb.rs.rank):
            for r, row in enumerate(action[("h", i)]):
                if any(x for c, x in enumerate(row) if c != r):
                    raise RepError("Cartan generators must act diagonally")
                if row[r].denominator != 1:
                    raise RepError("non-integral weight")
        rho = [sparse(action[key]) for key in cb.basis_order()]
        for i, row in enumerate(cb.bracket_table):
            for j in range(i + 1, len(rho)):
                expect = {}
                for k, c in row[j].items():
                    for p, y in rho[k].items():
                        expect[p] = expect.get(p, 0) + c * y
                if sparse_bracket(rho[i], rho[j]) != {p: y for p, y in expect.items() if y}:
                    raise RepError("not a representation")
        return _diagonal_weights(cb, action)

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
    ambient = _trivial_raw(cb)
    if psi[0]:
        ambient = _tensor_raw(ambient, _sym_power_raw(defining, psi[0]))
    for i in range(1, rank):
        if psi[i]:
            ext = _ext_power_raw(defining, i + 1)
            for _ in range(psi[i]):
                ambient = _tensor_raw(ambient, ext)
    d, action, weights = ambient
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
        (r1.dim, r1.action, r1.weights), (r2.dim, r2.action, r2.weights)
    )
    return Representation(r1.cb, action)


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
        span = QSpan(len(rep.block(psi, w)) * k)
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
