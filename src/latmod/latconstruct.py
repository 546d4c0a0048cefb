"""Lattice constructions in a weight-adapted representation: graded
generator words, the minimal/maximal sandwich lattices with prescribed
highest-weight components, split hulls, the invariance filter, and orbit
enumeration.

Conventions: edge data assigns a nonzero scale to each simple raising and
lowering generator and a full-rank lattice J_psi to every highest-weight
block; s_minus is the smallest split lattice with those highest-weight
components invariant under the scaled lowering generators, s_plus the
largest one invariant under the scaled raising generators.  Over Z_(p)
the sandwich [s_minus, s_plus] is finite and every generator-invariant
split lattice with the same highest-weight components lives in it up to
the torus action, so exhaustive enumeration decides orbit counts.
"""

from fractions import Fraction

from latmod.exact import Lattice, LatticeError, ZSpan, enumerate_between, vp
from latmod.matrixops import F, identity, mat, mat_inv, mat_mul, mat_scale, mat_vec
from latmod.reps import _root_coords, distinct_words, lattice_generators, word_products


class EdgeData:
    """Scales for the simple generator lattices and highest-weight lattices.

    l_plus[alpha] scales x_alpha, l_minus[alpha] scales x_{-alpha} (both
    keyed by the simple root); j[psi] is a Lattice in the coordinates of
    the (psi, psi) block.
    """

    __slots__ = ("rep", "prime", "l_plus", "l_minus", "j")

    def __init__(self, rep, l_plus=None, l_minus=None, j=None, prime=None):
        simple = rep.cb.rs.simple
        lp = {a: F((l_plus or {}).get(a, 1)) for a in simple}
        lm = {a: F((l_minus or {}).get(a, 1)) for a in simple}
        if any(x == 0 for x in lp.values()) or any(x == 0 for x in lm.values()):
            raise LatticeError("edge scales must be nonzero")
        jj = {}
        for psi in rep.distinct_highest_weights():
            k = len(rep.block(psi, psi))
            lat = (j or {}).get(psi)
            if lat is None:
                lat = Lattice(identity(k), prime)
            if lat.ambient != k or lat.prime != prime:
                raise LatticeError("J lattice has wrong ambient or ring")
            jj[psi] = lat
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "l_plus", lp)
        object.__setattr__(self, "l_minus", lm)
        object.__setattr__(self, "j", jj)

    def __setattr__(self, *a):
        raise AttributeError("EdgeData is immutable")


def unit_edge(rep, prime=None):
    return EdgeData(rep, prime=prime)


def _words(rep, degree):
    """Each distinct ordering of the simple-letter multiset with the given
    root-lattice degree (nonnegative integer coordinates)."""
    letters = []
    for i, a in enumerate(rep.cb.rs.simple):
        letters.extend([a] * degree[i])
    return distinct_words(letters)


def _degrees_of_component(rep, psi):
    """Root-coordinate degrees psi - chi over the weights of V_(psi)."""
    out = set()
    for (p, chi) in rep.blocks:
        if p != psi:
            continue
        m = _root_coords(rep.cb, tuple(a - b for a, b in zip(psi, chi)))
        if m is not None and all(x >= 0 for x in m):
            out.add(m)
    return sorted(out)


def _word_matrices(rep, degrees, sign, scales):
    """The action matrix of each word of each degree, in order: x_(a_k)···
    x_(a_1) for the word (a_1, ..., a_k) of simple roots (x_(-a) when sign
    < 0), times the product of scales[a_i]."""
    gens = {
        a: rep.action[a if sign > 0 else tuple(-x for x in a)]
        for a in rep.cb.rs.simple
    }
    words = (w for degree in degrees for w in _words(rep, degree))
    for word, prod in word_products(gens, words):
        c = Fraction(1)
        for a in word:
            c *= scales[a]
        yield mat_scale(c, prod) if c != 1 else prod


def _block_embed(rep, psi, block_vec):
    ix = rep.block(psi, psi)
    v = [Fraction(0)] * rep.dim
    for i, x in zip(ix, block_vec):
        v[i] = F(x)
    return tuple(v)


def s_minus(rep, edge):
    """Sum over psi of the lowering-word images of J_psi."""
    gens = []
    for psi, j in edge.j.items():
        jvecs = [_block_embed(rep, psi, col) for col in j.basis]
        degrees = _degrees_of_component(rep, psi)
        for m in _word_matrices(rep, degrees, -1, edge.l_minus):
            for v in jvecs:
                img = mat_vec(m, v)
                if any(img):
                    gens.append(img)
    return Lattice(gens, edge.prime, ambient=rep.dim)


def s_plus(rep, edge):
    """Largest lattice whose raising-word images project into each J_psi.

    The constraints "pr_(psi),psi(u·x) in J_psi" stack into an integer-
    valuedness condition U·x integral; the solution set is the dual of
    the lattice generated by the rows of U.
    """
    rows = []
    for psi, j in edge.j.items():
        ix = rep.block(psi, psi)
        binv = mat_inv(j.basis_matrix())
        degrees = _degrees_of_component(rep, psi)
        for m in _word_matrices(rep, degrees, +1, edge.l_plus):
            block_rows = tuple(m[i] for i in ix)
            for row in mat_mul(binv, block_rows):
                if any(row):
                    rows.append(row)
    # Rows generate a full-rank lattice (the identity word pins each
    # highest block and the raising words reach every other block).
    return Lattice(rows, edge.prime, ambient=rep.dim).dual()


def is_split(rep, lat):
    return split_hull(rep, lat) == lat


def split_hull(rep, lat):
    """Direct sum of the block projections of the lattice.

    The basis is weight-adapted, so projecting onto a block keeps the
    block's coordinates and zeroes the rest; the projections of the
    integer columns stay over the lattice's denominator.
    """
    gens = []
    for ix in rep.blocks.values():
        for col in lat.columns:
            if any(col[i] for i in ix):
                v = [0] * lat.ambient
                for i in ix:
                    v[i] = col[i]
                gens.append(v)
    return Lattice.from_integers(gens, lat.denominator, lat.prime, lat.ambient)


def is_invariant(rep, lat):
    """Is the lattice preserved by every Chevalley generator action?"""
    return all(lat.stable_under(g) for g in lattice_generators(rep))


# -----------------------------------------------------------------------
# Orbit bookkeeping for multiplicity-free block structures
# -----------------------------------------------------------------------


def _block_order(rep):
    return sorted(rep.blocks)


def _shift_lattice_columns(rep):
    """Integer shift vectors realizable by the torus actions: per-psi
    uniform shifts plus coweight evaluations against chi - psi."""
    order = _block_order(rep)
    cols = []
    for psi in rep.distinct_highest_weights():
        cols.append([1 if p == psi else 0 for (p, _) in order])
    # Coweights pairing integrally with the root lattice: columns of the
    # inverse-transpose Cartan matrix.
    cinv = mat_inv(mat(tuple(zip(*rep.cb.rs.cartan_matrix))))
    rank = rep.cb.rs.rank
    for k in range(rank):
        mu = tuple(row[k] for row in cinv)
        col = []
        for (psi, chi) in order:
            val = sum(F(c - p) * m for c, p, m in zip(chi, psi, mu))
            assert val.denominator == 1
            col.append(int(val))
        cols.append(col)
    return [c for c in cols if any(c)]


def _reduce_mod_columns(v, span):
    """Canonical representative of v modulo the span of integer vectors."""
    v = list(v)
    for col, piv in zip(span.columns, span.pivots):
        q = v[piv] // col[piv]
        if q:
            for i in range(len(v)):
                v[i] -= q * col[i]
    return tuple(v)


def _check_multiplicity_free(rep):
    if any(len(ix) != 1 for ix in rep.blocks.values()):
        raise LatticeError(
            "orbit grouping implemented for multiplicity-free blocks only"
        )


def _profile(rep, lat, span):
    """Valuation profile of a split lattice and its class modulo span."""
    p = lat.prime
    s = vp(lat.denominator, p)
    profile = []
    for (psi, chi) in _block_order(rep):
        i = rep.block(psi, chi)[0]
        profile.append(min(vp(col[i], p) for col in lat.columns if col[i]) - s)
    return tuple(profile), _reduce_mod_columns(profile, span)


def _shift_span(rep):
    return ZSpan(_shift_lattice_columns(rep), len(rep.blocks))


def normalize_profile(rep, lat):
    """Valuation profile of a split lattice and its torus-orbit invariant."""
    if lat.prime is None:
        raise LatticeError("profiles are defined over localized lattices")
    _check_multiplicity_free(rep)
    if not is_split(rep, lat):
        raise LatticeError("profile requires a split lattice")
    return _profile(rep, lat, _shift_span(rep))


def count_invariant_orbits(rep, edge):
    """Exhaustive orbit report between the sandwich lattices.

    Returns a dict with the sandwich index, the number of intermediate
    lattices, the number of generator-invariant split lattices with the
    prescribed highest-weight components, the number of torus-orbit
    classes among them, and one representative per class: the lattice
    with the smallest canonical basis, whatever the enumeration order.
    """
    if edge.prime is None:
        raise LatticeError("orbit enumeration requires a localized edge")
    lo = s_minus(rep, edge)
    hi = s_plus(rep, edge)
    if not hi.contains(lo):
        raise LatticeError("sandwich is empty (construction bug)")
    sandwich_index = lo.index_in(hi)
    mids = enumerate_between(lo, hi)
    gens = lattice_generators(rep)
    invariant = []
    for m in mids:
        if not all(m.stable_under(g) for g in gens):
            continue
        if not is_split(rep, m):
            continue
        if not _has_j_components(rep, edge, m):
            continue
        invariant.append(m)
    orbits = {}
    if invariant:
        _check_multiplicity_free(rep)
        span = _shift_span(rep)
        for m in invariant:
            _, inv = _profile(rep, m, span)
            if inv not in orbits or m.basis < orbits[inv].basis:
                orbits[inv] = m
    reps_sorted = [orbits[k] for k in sorted(orbits)]
    return {
        "sandwich_index": int(sandwich_index),
        "total_between": len(mids),
        "invariant": len(invariant),
        "orbits": len(orbits),
        "representatives": [m.to_json_obj() for m in reps_sorted],
    }


def _has_j_components(rep, edge, lat):
    for psi, j in edge.j.items():
        ix = rep.block(psi, psi)
        gens = [[col[i] for i in ix] for col in lat.columns]
        if Lattice.from_integers(gens, lat.denominator, lat.prime, len(ix)) != j:
            return False
    return True
