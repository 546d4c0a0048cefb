"""Self times and per-layer metrics from the shim's span files."""

from collections import defaultdict


def covered(intervals, start, end):
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans, aggregates):
    """``{name: [calls, total_s, self_s]}`` for one request.

    A span's self time is its duration minus the part of it covered by its
    child spans and by the aggregated helpers called directly from it.
    An aggregated helper's self time is its total minus the time of the
    aggregated helpers it called.
    """
    children = defaultdict(list)
    for _, _, start, end, parent in spans:
        children[parent].append((start, end))
    helper_time = defaultdict(float)
    for parent, _, _, _, _, top in aggregates:
        helper_time[parent] += top
    out = {}
    for sid, name, start, end, _ in spans:
        own = (end - start) - covered(children[sid], start, end) - helper_time[sid]
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += end - start
        acc[2] += own
    for _, name, calls, total, nested, _ in aggregates:
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += total
        acc[2] += total - nested
    return out


# Per-layer metrics: (name, unit, source).  ``("calls", span)`` and
# ``("self", span)`` sum over requests; ``("sum", counter)`` and
# ``("max", counter)`` combine the shim's counters; ``("derived", key)``
# are computed by ``layer_metrics`` from outputs and counters.
PER_LAYER = [
    ("kernels.hnf_columns.calls", "count", ("calls", "kernels.hnf_columns")),
    ("kernels.hnf_columns.self_s", "s", ("self", "kernels.hnf_columns")),
    ("kernels.snf_diagonal.calls", "count", ("calls", "kernels.snf_diagonal")),
    ("kernels.snf_diagonal.self_s", "s", ("self", "kernels.snf_diagonal")),
    ("kernels.snf_diagonal.max_in_bits", "bits", ("max", "kernels.snf_diagonal.max_in_bits")),
    ("kernels.snf_diagonal.max_out_bits", "bits", ("max", "kernels.snf_diagonal.max_out_bits")),
    ("kernels.snf_diagonal.stalled_bits", "bits", ("max", "kernels.snf_diagonal.stalled_bits")),
    ("exact.Lattice.constructs", "count", ("calls", "exact.Lattice")),
    ("exact.Lattice.self_s", "s", ("self", "exact.Lattice")),
    ("exact.enumerate_between.self_s", "s", ("self", "exact.enumerate_between")),
    ("exact.enumerate_between.lattices_out", "count", ("sum", "exact.enumerate_between.lattices_out")),
    ("exact.snf.self_s", "s", ("self", "exact.snf")),
    ("exact.ZSpan.self_s", "s", ("self", "exact.ZSpan")),
    ("matrixops.mat_vec.calls", "count", ("calls", "matrixops.mat_vec")),
    ("matrixops.mat_vec.self_s", "s", ("self", "matrixops.mat_vec")),
    ("matrixops.mat_mul.calls", "count", ("calls", "matrixops.mat_mul")),
    ("matrixops.mat_mul.self_s", "s", ("self", "matrixops.mat_mul")),
    ("matrixops.mat_inv.self_s", "s", ("self", "matrixops.mat_inv")),
    ("matrixops.rref.self_s", "s", ("self", "matrixops.rref")),
    ("rootdata.build_chevalley.self_s", "s", ("self", "rootdata.build_chevalley")),
    ("rootdata.build_chevalley.misses", "count", ("sum", "rootdata.build_chevalley.misses")),
    ("reps.build_irrep.self_s", "s", ("self", "reps.build_irrep")),
    ("reps.Representation.self_s", "s", ("self", "reps.Representation")),
    ("reps.projector.calls", "count", ("calls", "reps.projector")),
    ("reps.projector.self_s", "s", ("self", "reps.projector")),
    ("latconstruct.s_minus.self_s", "s", ("self", "latconstruct.s_minus")),
    ("latconstruct.s_plus.self_s", "s", ("self", "latconstruct.s_plus")),
    ("latconstruct.is_invariant.self_s", "s", ("self", "latconstruct.is_invariant")),
    ("latconstruct.is_invariant.rejects", "count", ("sum", "latconstruct.is_invariant.rejects")),
    ("latconstruct.is_split.self_s", "s", ("self", "latconstruct.is_split")),
    ("latconstruct.is_split.rejects", "count", ("sum", "latconstruct.is_split.rejects")),
    ("latconstruct.split_hull.self_s", "s", ("self", "latconstruct.split_hull")),
    ("latconstruct.normalize_profile.self_s", "s", ("self", "latconstruct.normalize_profile")),
    ("latconstruct.invariant_yield", "ratio", ("derived", "invariant_yield")),
    ("latconstruct.cap_headroom", "ratio", ("derived", "cap_headroom")),
    ("models.lie_model.self_s", "s", ("self", "models.lie_model")),
    ("models.lie_invariants.self_s", "s", ("self", "models.lie_invariants")),
    ("models.hopf_generators.self_s", "s", ("self", "models.hopf_generators")),
    ("models.order_equal_bounded.self_s", "s", ("self", "models.order_equal_bounded")),
    ("casestudies.class_orbit_count.self_s", "s", ("self", "casestudies.class_orbit_count")),
    ("casestudies.multiplier_ring.calls", "count", ("calls", "casestudies.multiplier_ring")),
    ("casestudies.multiplier_ring.self_s", "s", ("self", "casestudies.multiplier_ring")),
    ("casestudies.class_yield", "ratio", ("derived", "class_yield")),
    ("cli.main.self_s", "s", ("self", "cli.main")),
    ("trace.overhead", "ratio", ("derived", "overhead")),
]


def layer_metrics(traced, rounds, host_factor, derived):
    """Combine per-request trace files into the per-layer metrics.

    ``traced`` is a list of ``(stats, counters)`` pairs, ``stats`` from
    ``self_times``.  Sums are per round (per request list), so runs with
    different round counts compare; times are also divided by the run's
    host factor.  ``derived`` holds the values computed from outputs and
    timings.
    """
    stats = defaultdict(lambda: [0, 0.0, 0.0])
    sums = defaultdict(float)
    maxes = defaultdict(float)
    for per_name, counters in traced:
        for name, (calls, total, own) in per_name.items():
            acc = stats[name]
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for key, value in counters.items():
            sums[key] += value
            maxes[key] = max(maxes[key], value)
    out = {}
    for name, unit, (kind, key) in PER_LAYER:
        if kind == "calls":
            value = stats[key][0] / rounds
        elif kind == "self":
            value = stats[key][2] / (rounds * host_factor)
        elif kind == "sum":
            value = sums[key] / rounds
        elif kind == "max":
            value = maxes[key]
        else:
            value = derived[key]
        out[name] = {"value": value, "unit": unit}
    return out
