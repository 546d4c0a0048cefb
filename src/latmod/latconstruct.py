"""Lattice constructions in a weight-adapted representation: the
minimal/maximal sandwich lattices with prescribed highest-weight
components, built block by block down the weights, split hulls, the
invariance filter, and orbit enumeration.

Conventions: edge data assigns a nonzero scale to each simple raising and
lowering generator and a full-rank lattice J_psi to every highest-weight
block; s_minus is the smallest split lattice with those highest-weight
components invariant under the scaled lowering generators, s_plus the
largest one invariant under the scaled raising generators.  Over Z_(p)
the sandwich [s_minus, s_plus] is finite and every generator-invariant
split lattice with the same highest-weight components lives in it up to
the torus action, so exhaustive enumeration decides orbit counts.
"""

from latmod.exact import Lattice, LatticeError, ZSpan, enumerate_between, vp
from latmod.matrixops import F, identity, mat, mat_inv, mat_scale, mat_vec
from latmod.reps import down_step, lattice_generators, weights_down


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


def _block_lattices(rep, psi, top, sign, scales):
    """Block lattices of the psi-component, walked down the weights: top
    at psi, and at each lower chi the span of the images under
    scales[a]·down_step a of the lattices at chi + a."""
    blocks = {psi: top}
    for chi, _ in weights_down(rep, psi)[1:]:
        gens = []
        for a in rep.cb.rs.simple:
            above = blocks.get(tuple(x + y for x, y in zip(chi, a)))
            if above is not None:
                step = mat_scale(scales[a], down_step(rep, psi, a, chi, sign))
                gens.extend(mat_vec(step, col) for col in above.basis)
        blocks[chi] = Lattice(gens, top.prime, ambient=len(rep.block(psi, chi)))
    return blocks


def _from_blocks(rep, prime, blocks):
    """The lattice of Q^dim that is blocks[(psi, chi)] on each block."""
    gens = []
    for (psi, chi), lat in blocks.items():
        for col in lat.basis:
            v = [0] * rep.dim
            for i, x in zip(rep.block(psi, chi), col):
                v[i] = x
            gens.append(v)
    return Lattice(gens, prime, ambient=rep.dim)


def s_minus(rep, edge):
    """U⁻·J block by block: J_psi at each highest weight psi, and at each
    lower chi the sum of the images under l_minus[a]·x_(-a) of the blocks
    at chi + a."""
    blocks = {}
    for psi, j in edge.j.items():
        for chi, lat in _block_lattices(rep, psi, j, -1, edge.l_minus).items():
            blocks[psi, chi] = lat
    return _from_blocks(rep, edge.prime, blocks)


def s_plus(rep, edge):
    """Largest lattice whose raising-word images project into each J_psi.

    On the (psi, chi) block the constraints "pr_(psi),psi(u·x) in J_psi"
    over the raising words u of degree psi - chi ask x to pair integrally
    with u^T·J_psi^∨, so the block is the dual of the lattice those
    transposed words span: the same walk as s_minus, from J_psi^∨ with the
    transposed l_plus[a]·x_a, each block dualised.
    """
    blocks = {}
    for psi, j in edge.j.items():
        for chi, lat in _block_lattices(rep, psi, j.dual(), +1, edge.l_plus).items():
            blocks[psi, chi] = lat.dual()
    return _from_blocks(rep, edge.prime, blocks)


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
