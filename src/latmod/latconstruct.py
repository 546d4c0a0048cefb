"""Lattice constructions in a weight-adapted representation: the
minimal/maximal sandwich lattices with the standard highest-weight
components, built block by block in basis order by applying the simple
generators of rep.action to the block lattices above, split hulls, the
invariance filter, and orbit reports.

Conventions: the ring is Z (p None) or Z_(p), G acts through its simple
Chevalley generators x_(±a), and J_psi is the standard lattice of every
highest-weight block; s_minus is the smallest split lattice with those
highest-weight components invariant under the lowering generators, s_plus
the largest one invariant under the raising generators.  Over Z_(p) the
sandwich [s_minus, s_plus] is finite and every generator-invariant split
lattice with the same highest-weight components lives in it up to the
torus action.  For a multiplicity-free representation such a lattice is
one p-adic valuation per block, in the box between the valuations of
s_plus and s_minus, and invariance is a system of difference constraints
on them; so the orbit report searches that box and counts the lattices
of the sandwich by Birkhoff's formula, without listing them.

exact.Lattice writes every canonical pair used here: each block lattice
comes from a Hermite pass on the block's few coordinates, and one walk
(_sandwich_blocks) yields the blocks of S₋ or of S₊.  s_minus and s_plus,
which the sandwich command prints, are their direct sum by
Lattice.from_blocks; the orbit report builds neither, but reads the box
off the blocks, each one coordinate, by Lattice.valuations.  The orbit
representatives are Lattice.diagonal of their valuation vectors.
Lattice.from_blocks, Lattice.diagonal and Lattice.valuations run no
Hermite form.
"""

from math import lcm

from latmod.exact import Lattice, LatticeError, ZSpan, vp
from latmod.matrixops import column_index, identity
from latmod.reps import REPORT_ENTRY_CAP, lattice_generators


def _sandwich_blocks(rep, sign, p):
    """(coordinates, lattice) of every block of S₋ (sign < 0) or S₊
    (sign > 0), walked component by component over the psi of
    rep.distinct_highest_weights(), which key every block, and in basis
    order within each: the standard lattice at psi, and at each lower chi
    the span of the images of the lattices at chi + a under g_a = x_(-a)
    (sign < 0) or the transpose of x_a (sign > 0), g_a applied to their
    integer columns over the least common multiple d of their
    denominators, and the chi-block coordinates kept; g_a is over
    rep.denominator, which joins d in the denominator of the images.  The
    breadth-first lowering walk lists the basis by the height of
    psi - chi, so every block above chi is walked first.  The blocks of
    S₊ are yielded dualised (see s_plus), except J_psi, which is its own
    dual; the walk goes on from the undualised ones."""
    simple = rep.cb.rs.simple
    if sign < 0:
        steps = [column_index(rep.action[tuple(-x for x in a)]) for a in simple]
    else:
        steps = [column_index({(j, i): x for (i, j), x in rep.action[a].items()}) for a in simple]
    for psi in rep.distinct_highest_weights():
        blocks = {psi: Lattice(identity(len(rep.block(psi, psi))), p)}
        yield rep.block(psi, psi), blocks[psi]
        for (q, chi), lower in rep.blocks.items():
            if q != psi or chi == psi:
                continue
            above = []
            for a, step in zip(simple, steps):
                up = tuple(x + y for x, y in zip(chi, a))
                if up in blocks:
                    above.append((step, rep.blocks[psi, up], blocks[up]))
                elif (psi, up) in rep.blocks:
                    raise AssertionError("weight %s of %s is walked before the weight %s above it" % (chi, psi, up))
            d = lcm(*(lat.denominator for _, _, lat in above))
            gens = []
            for step, upper, lat in above:
                for col in lat.columns:
                    img = {}
                    for j, y in zip(upper, col):
                        for r, x in step.get(j, ()):
                            img[r] = img.get(r, 0) + x * y
                    gens.append([d // lat.denominator * img.get(r, 0) for r in lower])
            blocks[chi] = Lattice.from_integers(gens, d * rep.denominator, p, len(lower))
            yield lower, blocks[chi] if sign < 0 else blocks[chi].dual()


def s_minus(rep, p=None):
    """U⁻·J block by block, over Z (p None) or Z_(p): J_psi at each highest
    weight psi, and at each lower chi the sum of the images under x_(-a)
    of the blocks at chi + a."""
    return Lattice.from_blocks(list(_sandwich_blocks(rep, -1, p)), rep.dim)


def s_plus(rep, p=None):
    """Largest lattice whose raising-word images project into each J_psi,
    over Z (p None) or Z_(p).

    On the (psi, chi) block the constraints "pr_(psi),psi(u·x) in J_psi"
    over the raising words u of degree psi - chi ask x to pair integrally
    with u^T·J_psi^∨, so the block is the dual of the lattice those
    transposed words span.  The standard J_psi is its own dual, so this is
    the walk of s_minus from J_psi with the transposed x_a, each block
    dualised.
    """
    return Lattice.from_blocks(list(_sandwich_blocks(rep, +1, p)), rep.dim)


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


def count_invariant_orbits(rep, p):
    """Orbit report between the sandwich lattices over Z_(p), read off the
    valuation box.

    The representation must be multiplicity-free, so every (psi, chi)
    block is one basis vector e_i and a split lattice is ⊕ p^(v_i)·Z_(p)·e_i,
    one valuation per block.  Between S₋ and S₊ (both split) v lies in the
    box v(S₊) ≤ v ≤ v(S₋), fixed by J at each highest weight, whose
    bounds are read off the 1×1 blocks that _sandwich_blocks walks, so
    neither S₋ nor S₊ is built on the whole space; the lattice
    is invariant under a generator g exactly when v_r ≤ v_c + v_p(g[r][c])
    for every nonzero off-diagonal entry (the diagonal is integral).  So
    the invariant split lattices with the J components are the integer
    points of a system of difference constraints, found by a search in
    basis order (_invariant_valuations); no intermediate lattice is built.  The number of lattices between
    S₋ and S₊ is the number of subgroups of S₊/S₋, which has type
    {v(S₋)_i - v(S₊)_i}; it comes from Birkhoff's formula (subgroup_count).

    The box is never empty, as S₋ ⊆ S₊ (R. Steinberg, Lectures on
    Chevalley Groups, §2).  Let v⁺ span J_psi (the (psi, psi) block is one
    vector here), u a raising word and w a lowering word of the same
    degree.  Kostant's Z-form U_Z is U_Z⁻·U_Z⁰·U_Z⁺; U_Z⁺ acts on v⁺
    through its constant term and U_Z⁰ by integers, so U_Z·v⁺ = U_Z⁻·v⁺
    and every x_a preserves M = U_Z⁻·v⁺.  Then u·w·v⁺ lies in M and has
    weight psi, and the weight-psi part of M is Z·v⁺, so u·w·v⁺ = c·v⁺
    with c in Z.  That is, every lowering image of J_psi projects into
    J_psi under every raising word: S₋ ⊆ S₊, over Z and over every Z_(p).

    Returns a dict with the sandwich index, the number of intermediate
    lattices, the number of generator-invariant split lattices with the
    prescribed highest-weight components, the number of torus-orbit
    classes among them (modulo _shift_span), and one representative per
    class: the lattice with the smallest canonical basis.  A report of
    more than REPORT_ENTRY_CAP basis entries (dim² per class) is refused
    during the search, at the first vector that opens a class past the
    REPORT_ENTRY_CAP // dim² the cap admits, so the search holds at most
    that many vectors and no representative is built.
    """
    _check_multiplicity_free(rep)
    if p is None:
        raise LatticeError("orbit reports are defined over Z_(p), not over Z")
    # Each block is one coordinate e_i and its 1×1 lattice p^(v_i)·Z_(p);
    # sorting by the (distinct) coordinates puts the valuations in order.
    vlo, vhi = ([lat.valuations()[0] for _, lat in sorted(_sandwich_blocks(rep, s, p))] for s in (-1, +1))
    lam = [b - a for a, b in zip(vhi, vlo)]  # S₊/S₋ has type lam
    if min(lam) < 0:
        raise AssertionError("S₋ is not inside S₊")
    box = list(zip(vhi, vlo))
    span = _shift_span(rep)
    ix = [rep.block(psi, chi)[0] for psi, chi in _block_order(rep)]
    admitted = REPORT_ENTRY_CAP // rep.dim**2
    invariant = 0
    orbits = {}
    for v in _invariant_valuations(rep, p, box):
        invariant += 1
        inv = _reduce_mod_columns([v[i] for i in ix], span)
        if inv not in orbits and len(orbits) == admitted:
            msg = "the report has more than the %d classes of dimension %d that the cap of %d basis entries admits"
            raise LatticeError(msg % (admitted, rep.dim, REPORT_ENTRY_CAP))
        # The canonical basis of a split lattice is diag(p^v_i), so bases
        # compare as the valuation vectors do.
        if inv not in orbits or v < orbits[inv]:
            orbits[inv] = v
    return {
        "sandwich_index": p ** sum(lam),
        "total_between": subgroup_count(lam, p),
        "invariant": invariant,
        "orbits": len(orbits),
        "representatives": [Lattice.diagonal(orbits[k], p).to_json_obj() for k in sorted(orbits)],
    }


def _invariant_valuations(rep, p, box):
    """The valuation vectors v with box[i][0] ≤ v_i ≤ box[i][1] that meet the
    invariance constraints of lattice_generators(rep), in lexicographic order.

    An entry x at (r, c), r ≠ c, of a generator over the denominator D
    asks v_r ≤ v_c + v_p(x) − v_p(D), read in one pass.  No two generators
    share an off-diagonal position: x_γ maps weight μ to μ + γ, so (r, c)
    is γ = wt(r) − wt(c)'s alone, and the Cartan generators are diagonal.
    No diagonal entry bounds anything: x_γ has a zero diagonal (γ ≠ 0),
    and Representation refuses a Cartan entry that D does not divide.

    One loop fixes the coordinates in basis order on a stack of the ranges
    that box[i] and the coordinates before i allow, so a branch stops as
    soon as its range is empty, and no frame is held per coordinate.  The
    order decides the pruning, not the vectors: the lowering walk of an
    irreducible runs down the weights by the height of psi - chi, so a
    block is fixed after the blocks above it that bound it.
    """
    shift = vp(rep.denominator, p)
    ups = [[] for _ in range(rep.dim)]  # v_i ≤ v_j + w
    lows = [[] for _ in range(rep.dim)]  # v_i ≥ v_j - w
    for g in lattice_generators(rep):
        for (r, c), x in g.items():
            if r > c:
                ups[r].append((c, vp(x, p) - shift))
            elif r < c:
                lows[c].append((r, vp(x, p) - shift))
    v = [0] * rep.dim

    def allowed(i):
        low = max([box[i][0]] + [v[j] - w for j, w in lows[i]])
        high = min([box[i][1]] + [v[j] + w for j, w in ups[i]])
        return iter(range(low, high + 1))

    stack = [allowed(0)]
    while stack:
        i = len(stack) - 1
        v[i] = next(stack[i], None)
        if v[i] is None:
            stack.pop()
        elif i + 1 < rep.dim:
            stack.append(allowed(i + 1))
        else:
            yield tuple(v)


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

    The columns lam'_i grow as they are read, so every b of the column
    before is at most li = lam'_i, and for each b the q-binomials
    [li - b choose a - b]_p are one row from a = b upward, by
    [n, k+1] = [n, k]·(p^(n-k) - 1)/(p^(k+1) - 1), an exact division: a
    column takes O(li²) products.
    """
    lam = [x for x in lam if x]
    conj = [sum(1 for x in lam if x > i) for i in range(max(lam, default=0))]
    f = [1]
    for li in reversed(conj):
        g = [0] * (li + 1)
        for b, fb in enumerate(f):
            binom = 1  # [li - b choose a - b]_p
            for a in range(b, li + 1):
                g[a] += p ** (b * (li - a)) * binom * fb
                binom = binom * (p ** (li - a) - 1) // (p ** (a - b + 1) - 1)
        f = g
    return sum(f)
