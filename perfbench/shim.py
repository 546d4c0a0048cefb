"""Tracing shim: run one ``latmod`` CLI request with spans around each
layer's public entry points.

    python perfbench/shim.py SPANS.json REQUEST_ID -- <latmod cli arguments>

The shim imports the package, then replaces each traced function in every
``latmod`` module namespace that holds it, so callers that did ``from
latmod.x import f`` call the wrapper too.  Classes are traced through
``__init__``.  Spans stay in memory and are written once, when the request
ends; SIGTERM (the benchmark's time limit) unwinds the stack so the open
spans are closed and written as well.

Spans are ``[id, name, start, end, parent_id]`` with ``perf_counter``
times.  The matrix helpers are called up to 10^5 times per request, so
they are not kept as spans: they are aggregated per parent span as
``[parent_id, name, calls, total_s, nested_s, top_s]``, where ``nested_s``
is time spent in other aggregated helpers they called and ``top_s`` the
part of ``total_s`` not already inside another aggregated helper.

``kernels.snf_diagonal.max_out_bits`` covers the calls that returned.  A
call stopped at the time limit never returns, so on SIGTERM the shim
reads the working matrix of a pure-Python ``snf_diagonal`` frame still on
the stack and records its largest entry as ``stalled_bits``; the bit
size of every call's input is recorded on entry as ``max_in_bits``.
"""

import functools
import importlib
import json
import signal
import sys
import time

# layer -> public entry points timed as full spans.
SPANNED = {
    "kernels": ("hnf_columns", "snf_diagonal"),
    "exact": ("Lattice", "ZSpan", "enumerate_between", "snf"),
    "rootdata": ("build_chevalley",),
    "reps": ("build_irrep", "Representation", "projector"),
    "latconstruct": (
        "s_minus",
        "s_plus",
        "is_invariant",
        "is_split",
        "split_hull",
        "normalize_profile",
        "count_invariant_orbits",
    ),
    "models": ("lie_model", "lie_invariants", "hopf_generators", "order_equal_bounded"),
    "casestudies": ("class_orbit_count", "multiplier_ring", "pgl2_sym2_report"),
    "cli": ("main",),
}
# layer -> leaf helpers aggregated per parent span.
AGGREGATED = {"matrixops": ("mat_vec", "mat_mul", "mat_inv", "rref")}

def _is_maximal_order(lat):
    return lat.prime is None and lat.basis == ((1, 0), (0, 1))


def _max_bits(values):
    return max((abs(int(x)).bit_length() for x in values), default=0)


def _matrix_bits(value):
    """Largest entry in bits of a list of integer lists, else 0."""
    if isinstance(value, list) and value and all(isinstance(r, list) for r in value):
        return _max_bits(x for r in value for x in r if isinstance(x, int))
    return 0


# Counters derived from return values: name -> (counter, kind, function).
RESULT_COUNTERS = {
    "exact.enumerate_between": ("lattices_out", "sum", len),
    "latconstruct.is_invariant": ("rejects", "sum", lambda r: int(not r)),
    "latconstruct.is_split": ("rejects", "sum", lambda r: int(not r)),
    "kernels.snf_diagonal": ("max_out_bits", "max", _max_bits),
    "casestudies.multiplier_ring": ("maximal", "sum", lambda r: int(_is_maximal_order(r))),
}
# Counters derived from the first argument, on entry.
ARGUMENT_COUNTERS = {
    "kernels.snf_diagonal": ("max_in_bits", "max", _matrix_bits),
}


class Recorder:
    def __init__(self):
        self.spans = []
        self.aggregates = {}
        self.counters = {}
        # Open frames: [span_id or None, start, nested_s]; None marks an
        # aggregated helper.  The bottom frame stands for the request.
        self.stack = [[0, 0.0, 0.0]]
        self.next_id = 1

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[0] is not None:
                return frame[0]
        return 0

    def spanned(self, name, fn):
        counter = RESULT_COUNTERS.get(name)
        on_entry = ARGUMENT_COUNTERS.get(name)
        rec = self

        def wrapper(*args, **kwargs):
            if on_entry is not None:
                rec.count(name + "." + on_entry[0], on_entry[1], on_entry[2](args[0]))
            sid = rec.next_id
            rec.next_id += 1
            parent = rec._parent_span()
            frame = [sid, time.perf_counter(), 0.0]
            rec.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec.stack.pop()
                rec.spans.append([sid, name, frame[1], end, parent])
            if counter is not None:
                rec.count(name + "." + counter[0], counter[1], counter[2](result))
            return result

        return functools.wraps(fn)(wrapper)

    def aggregated(self, name, fn):
        rec = self

        def wrapper(*args, **kwargs):
            outer = rec.stack[-1]
            frame = [None, time.perf_counter(), 0.0]
            rec.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[1]
                rec.stack.pop()
                key = (rec._parent_span(), name)
                agg = rec.aggregates.get(key)
                if agg is None:
                    agg = rec.aggregates[key] = [0, 0.0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += frame[2]
                if outer[0] is None:
                    outer[2] += dur
                else:
                    agg[3] += dur

        return functools.wraps(fn)(wrapper)

    def count(self, key, kind, value):
        if kind == "max":
            self.counters[key] = max(self.counters.get(key, 0), value)
        else:
            self.counters[key] = self.counters.get(key, 0) + value

    def to_json_obj(self, request_id):
        return {
            "request": request_id,
            "spans": self.spans,
            "aggregates": [[p, n] + v for (p, n), v in self.aggregates.items()],
            "counters": self.counters,
        }


def install(rec):
    """Wrap every traced entry point; return the imported modules."""
    mods = {m: importlib.import_module("latmod." + m) for m in list(SPANNED) + list(AGGREGATED)}
    everywhere = [sys.modules[k] for k in list(sys.modules) if k.startswith("latmod")]
    originals = {}
    for layer, names in list(SPANNED.items()) + list(AGGREGATED.items()):
        for attr in names:
            name = "%s.%s" % (layer, attr)
            obj = getattr(mods[layer], attr)
            if isinstance(obj, type):
                obj.__init__ = rec.spanned(name, obj.__init__)
                continue
            make = rec.aggregated if layer in AGGREGATED else rec.spanned
            originals[name] = obj
            wrapped = make(name, obj)
            for mod in everywhere:
                for key, val in list(vars(mod).items()):
                    if val is obj:
                        setattr(mod, key, wrapped)
    return mods, originals


def _stalled_bits(frame):
    """Largest matrix entry in bits held by an ``snf_diagonal`` frame on
    the stack (0 if there is none)."""
    bits = 0
    while frame is not None:
        if frame.f_code.co_name == "snf_diagonal":
            bits = max([bits] + [_matrix_bits(v) for v in frame.f_locals.values()])
        frame = frame.f_back
    return bits


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 1
    spans_path, request_id, cli_args = argv[0], argv[1], argv[3:]
    rec = Recorder()
    mods, originals = install(rec)

    def terminate(signum, frame):
        rec.count("kernels.snf_diagonal.stalled_bits", "max", _stalled_bits(frame))
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    code = 1
    try:
        code = mods["cli"].main(cli_args)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        rec.counters["rootdata.build_chevalley.misses"] = originals[
            "rootdata.build_chevalley"
        ].cache_info().misses
        with open(spans_path, "w") as f:
            json.dump(rec.to_json_obj(request_id), f, separators=(",", ":"))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
