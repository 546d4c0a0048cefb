"""Lattice constructions in a weight-adapted representation: the
minimal/maximal sandwich lattices with prescribed highest-weight
components, built block by block down the weights, split hulls, the
invariance filter, and orbit reports.

Conventions: edge data assigns a nonzero scale to each simple raising and
lowering generator and a full-rank lattice J_psi to every highest-weight
block; s_minus is the smallest split lattice with those highest-weight
components invariant under the scaled lowering generators, s_plus the
largest one invariant under the scaled raising generators.  Over Z_(p)
the sandwich [s_minus, s_plus] is finite and every generator-invariant
split lattice with the same highest-weight components lives in it up to
the torus action.  For a multiplicity-free representation such a lattice
is one p-adic valuation per block, in the box between the valuations of
s_plus and s_minus, and invariance is a system of difference constraints
on them; so the orbit report searches that box and counts the lattices
of the sandwich by Birkhoff's formula, without listing them.

exact.Lattice writes every canonical pair used here: each block lattice
comes from a Hermite pass on the block's few coordinates, S± are their
direct sum by Lattice.from_blocks, and the orbit representatives are
Lattice.diagonal of their valuation vectors, read back by
Lattice.valuations; the latter three run no Hermite form.
"""

from math import lcm

from latmod.exact import Lattice, LatticeError, ZSpan, vp
from latmod.matrixops import F, clear_denominators, identity, sparse_mat_vec
from latmod.reps import REPORT_ENTRY_CAP, down_step, lattice_generators, weights_down


class EdgeData:
    """Scales for the simple generator lattices and highest-weight lattices.

    l_plus[alpha] scales x_alpha, l_minus[alpha] scales x_{-alpha} (both
    keyed by the simple root); j[psi] is a Lattice in the coordinates of
    the (psi, psi) block.
    """

    __slots__ = ("prime", "l_plus", "l_minus", "j")

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
    scales[a]·down_step a of the lattices at chi + a, taken on their
    integer columns over the least common multiple d of their
    denominators; down_step is an integer sparse matrix over
    rep.denominator, which joins d in the denominator of the images."""
    blocks = {psi: top}
    for chi, _ in weights_down(rep, psi)[1:]:
        above = []
        for a in rep.cb.rs.simple:
            lat = blocks.get(tuple(x + y for x, y in zip(chi, a)))
            if lat is not None:
                above.append((a, lat))
        d = lcm(*(lat.denominator for _, lat in above))
        k = len(rep.block(psi, chi))
        gens = []
        for a, lat in above:
            step, c = down_step(rep, psi, a, chi, sign), scales[a] * (d // lat.denominator)
            gens.extend([c * x for x in sparse_mat_vec(step, col, k)] for col in lat.columns)
        ints, e = clear_denominators(gens)
        blocks[chi] = Lattice.from_integers(ints, e * d * rep.denominator, top.prime, k)
    return blocks


def s_minus(rep, edge):
    """U⁻·J block by block: J_psi at each highest weight psi, and at each
    lower chi the sum of the images under l_minus[a]·x_(-a) of the blocks
    at chi + a."""
    walks = [(psi, _block_lattices(rep, psi, j, -1, edge.l_minus)) for psi, j in edge.j.items()]
    return Lattice.from_blocks([(rep.block(psi, chi), lat) for psi, w in walks for chi, lat in w.items()], rep.dim)


def s_plus(rep, edge):
    """Largest lattice whose raising-word images project into each J_psi.

    On the (psi, chi) block the constraints "pr_(psi),psi(u·x) in J_psi"
    over the raising words u of degree psi - chi ask x to pair integrally
    with u^T·J_psi^∨, so the block is the dual of the lattice those
    transposed words span: the same walk as s_minus, from J_psi^∨ with the
    transposed l_plus[a]·x_a, each block dualised.
    """
    walks = [(psi, _block_lattices(rep, psi, j.dual(), +1, edge.l_plus)) for psi, j in edge.j.items()]
    return Lattice.from_blocks([(rep.block(psi, chi), lat.dual()) for psi, w in walks for chi, lat in w.items()], rep.dim)


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
    return all(lat.stable_under(g, rep.denominator) for g in lattice_generators(rep))


# -----------------------------------------------------------------------
# Orbit bookkeeping for multiplicity-free block structures
# -----------------------------------------------------------------------


def _block_order(rep):
    return sorted(rep.blocks)


def _shift_lattice_columns(rep):
    """Integer shift vectors realizable by the torus actions, one entry per
    block (psi, chi) in _block_order: per-psi uniform shifts, and for each
    fundamental coweight ω_k^∨ the pairing ⟨chi - psi, ω_k^∨⟩ = -m_k, m
    the simple-root coordinates of psi - chi (an integer vector, as the
    weights of the psi-component lie in psi minus the root lattice).
    Zero columns are left to ZSpan, which drops them."""
    order = _block_order(rep)
    rs = rep.cb.rs
    cols = [[int(p == psi) for p, _ in order] for psi in rep.distinct_highest_weights()]
    ms = [rs.expansion(tuple(a - b for a, b in zip(psi, chi))) for psi, chi in order]
    return cols + [[-m[k] for m in ms] for k in range(rs.rank)]


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
    v = lat.valuations()
    profile = tuple(v[rep.block(psi, chi)[0]] for psi, chi in _block_order(rep))
    return profile, _reduce_mod_columns(profile, span)


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
    """Orbit report between the sandwich lattices, read off the valuation
    box.

    The representation must be multiplicity-free, so every (psi, chi)
    block is one basis vector e_i and a split lattice is ⊕ p^(v_i)·Z_(p)·e_i,
    one valuation per block.  Between S₋ and S₊ (both split) v lies in the
    box v(S₊) ≤ v ≤ v(S₋), fixed by J at each highest weight; the lattice
    is invariant under a generator g exactly when v_r ≤ v_c + v_p(g[r][c])
    for every nonzero off-diagonal entry and no diagonal entry has a
    negative valuation.  So the invariant split lattices with the J
    components are the integer points of a system of difference
    constraints, found by a search down the weights, and no intermediate
    lattice is built.  The number of lattices between S₋ and S₊ is the
    number of subgroups of S₊/S₋, which has type {v(S₋)_i - v(S₊)_i}; it
    comes from Birkhoff's formula (subgroup_count).

    Returns a dict with the sandwich index, the number of intermediate
    lattices, the number of generator-invariant split lattices with the
    prescribed highest-weight components, the number of torus-orbit
    classes among them (modulo _shift_span), and one representative per
    class: the lattice with the smallest canonical basis.  A report of
    more than REPORT_ENTRY_CAP basis entries (dim² per class) is refused
    after the search, before any representative is built.
    """
    _check_multiplicity_free(rep)
    if edge.prime is None:
        raise LatticeError("orbit enumeration requires a localized edge")
    p = edge.prime
    lo = s_minus(rep, edge)
    hi = s_plus(rep, edge)
    vlo, vhi = lo.valuations(), hi.valuations()
    lam = [b - a for a, b in zip(vhi, vlo)]  # S₋ ⊆ S₊ iff lam ≥ 0; S₊/S₋ has type lam
    if min(lam) < 0:
        raise LatticeError("sandwich is empty: S₋ is not inside S₊ for these edge scales")
    box = list(zip(vhi, vlo))
    span = _shift_span(rep)
    ix = [rep.block(psi, chi)[0] for psi, chi in _block_order(rep)]
    invariant = 0
    orbits = {}
    for v in _invariant_valuations(rep, p, box):
        invariant += 1
        inv = _reduce_mod_columns([v[i] for i in ix], span)
        # The canonical basis of a split lattice is diag(p^v_i), so bases
        # compare as the valuation vectors do.
        if inv not in orbits or v < orbits[inv]:
            orbits[inv] = v
    entries = len(orbits) * rep.dim**2
    if entries > REPORT_ENTRY_CAP:
        msg = "the report of %d classes of dimension %d has %d basis entries, more than the cap of %d"
        raise LatticeError(msg % (len(orbits), rep.dim, entries, REPORT_ENTRY_CAP))
    return {
        "sandwich_index": p ** sum(lam),
        "total_between": subgroup_count(lam, p),
        "invariant": invariant,
        "orbits": len(orbits),
        "representatives": [Lattice.diagonal(orbits[k], p).to_json_obj() for k in sorted(orbits)],
    }


def _invariant_valuations(rep, p, box):
    """Every valuation vector v (indexed like the basis) inside box[i] =
    (low, high) that satisfies the invariance constraints of
    lattice_generators(rep), as tuples.

    The blocks are fixed down the weights, by the height of psi - chi, and
    each constraint v_r ≤ v_c + w bounds whichever of its two ends is fixed
    second, so a branch stops as soon as its range is empty.  An entry x
    of a generator over the denominator D has w = v_p(x) − v_p(D).
    """
    bound = {}
    shift = vp(rep.denominator, p)
    for g in lattice_generators(rep):
        for (r, c), x in g.items():
            w = vp(x, p) - shift
            if r == c:
                if w < 0:
                    return
            elif bound.get((r, c), w) >= w:
                bound[r, c] = w
    graded = []
    for psi in rep.distinct_highest_weights():
        for chi, m in weights_down(rep, psi):
            graded.append((sum(m), rep.block(psi, chi)[0]))
    order = [i for _, i in sorted(graded)]
    pos = {i: k for k, i in enumerate(order)}
    ups = [[] for _ in order]  # v_i ≤ v_j + w
    lows = [[] for _ in order]  # v_i ≥ v_j - w
    for (r, c), w in bound.items():
        if pos[r] > pos[c]:
            ups[pos[r]].append((c, w))
        else:
            lows[pos[c]].append((r, w))
    v = [0] * rep.dim

    def walk(k):
        if k == len(order):
            yield tuple(v)
            return
        i = order[k]
        low = max([box[i][0]] + [v[j] - w for j, w in lows[k]])
        high = min([box[i][1]] + [v[j] + w for j, w in ups[k]])
        for x in range(low, high + 1):
            v[i] = x
            yield from walk(k + 1)

    yield from walk(0)


def _gaussian_binomial(n, k, p):
    """[n choose k]_p, the number of k-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def subgroup_count(lam, p):
    """Number of subgroups of ⊕ Z/p^(lam_i), by Birkhoff's formula.

    The subgroups of type mu of a group of type lam number
    ∏_i p^(mu'_(i+1)·(lam'_i - mu'_i)) · [lam'_i - mu'_(i+1) choose
    mu'_i - mu'_(i+1)]_p over the columns i, mu' and lam' the conjugate
    partitions (G. Birkhoff 1935; L. Butler, Subgroup lattices and
    symmetric functions, Mem. AMS 1994).  Each factor depends only on two
    neighbouring columns (mu'_i, mu'_(i+1)), so the sum over mu ⊆ lam is
    taken column by column from the last: after column i, f[a] is the sum,
    over the columns mu'_(i+1), mu'_(i+2), ... below a, of the product of
    the factors of columns i and beyond with mu'_i = a.
    """
    lam = [x for x in lam if x]
    conj = [sum(1 for x in lam if x > i) for i in range(max(lam, default=0))]
    f = {0: 1}
    for li in reversed(conj):
        f = {
            a: sum(
                p ** (b * (li - a)) * _gaussian_binomial(li - b, a - b, p) * fb
                for b, fb in f.items()
                if b <= a
            )
            for a in range(li + 1)
        }
    return sum(f.values())

