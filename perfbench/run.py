"""Benchmark of the ``latmod`` CLI pipelines.

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One client sends one request at a time
(closed loop); every request is a fresh ``python -m latmod.cli`` child,
as a CLI user runs it, with a time limit past which it is killed and
counted as failed.  Outputs are checked against oracles between rounds,
outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half as
many rounds, each request once plainly and once through ``shim.py``, and
reports the per-layer metrics and the tracing overhead.  Human-readable
lines come first; the last line of standard output is the JSON result.
Each run's full record is written to ``.perfbench_work/runs/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
IMPORT_WARMUP = 3
PROBE = (
    "import json, latmod, latmod.exact as e; "
    "print(json.dumps({'kernel': latmod.KERNEL_IMPLEMENTATION, "
    "'enum_order_cap': e.ENUM_ORDER_CAP}))"
)
E2E_UNITS = {
    "wall_s": "s",
    "req_p50_s": "s",
    "req_tail_s": "s",
    "setup_s": "s",
    "import_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _setup(runner, workload, seed, rounds, workdir, env):
    """Everything before the first request: the header probe, the request
    list, its input files and the oracle values."""
    probe_out = os.path.join(workdir, "probe.json")
    res = runner([sys.executable, "-c", PROBE], 60, workdir, env, probe_out)
    if res["returncode"] != 0:
        raise BenchError("cannot import latmod from %s" % os.path.join(ROOT, "src"))
    with open(probe_out) as f:
        probe = json.load(f)
    pool = workloads.load_pool()
    requests = workloads.plan(workload, seed, rounds, pool)
    workloads.write_inputs(requests, pool, workdir)
    return probe, requests


def _source_digest():
    h = hashlib.sha256()
    base = os.path.join(ROOT, "src", "latmod")
    for name in sorted(os.listdir(base)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(base, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return h.hexdigest()[:16]


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    res = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return res.stdout.strip() or None


def _run(runner, req, workdir, env, traced=False, factor=1.0):
    """Run one request with ``runner`` (``harness.run_child`` or a
    ``Spawner``'s ``run``) and its limit scaled by the host ``factor``;
    return its record (output checked later)."""
    tag = ".traced" if traced else ""
    out_path = os.path.join(workdir, "out", req["id"] + tag + ".json")
    if traced:
        spans_path = os.path.join(workdir, "spans", req["id"] + ".json")
        argv = [sys.executable, os.path.join(HERE, "shim.py"), spans_path, req["id"], "--"]
        argv += req["args"]
    else:
        argv = harness.cli_argv(req["args"])
    res = runner(argv, req["limit_s"] * factor, workdir, env, out_path)
    res.update(id=req["id"], traced=traced, args=req["args"], out_path=out_path, limit_s=req["limit_s"] * factor)
    return res


def _check(req, rec):
    """Fill in ``error`` and ``wrong`` (a wrong output, not just a
    failure) and drop the output file."""
    rec["wrong"] = False
    if rec["timed_out"]:
        rec["error"] = "past the %.3g s limit" % rec["limit_s"]
    elif rec["returncode"] != 0:
        rec["error"] = "exit code %d" % rec["returncode"]
    else:
        with open(rec["out_path"], "rb") as f:
            rec["output"] = f.read()
        rec["error"] = workloads.check(req, rec["output"])
        rec["wrong"] = rec["error"] is not None
    os.unlink(rec.pop("out_path"))


def _derived(pairs, cap):
    """Yields and cap headroom from the traced requests' own JSON output
    and the shim's counters."""
    invariant = between = classes = maximal = 0
    top_index = 0
    for req, rec in pairs:
        if not rec["traced"] or rec["error"]:
            continue
        out = json.loads(rec["output"])
        maximal += rec.get("counters", {}).get("casestudies.multiplier_ring.maximal", 0)
        if req["kind"] == "orbits":
            invariant += out["invariant"]
            between += out["total_between"]
            top_index = max(top_index, out["sandwich_index"])
        elif req["kind"] == "sandwich":
            top_index = max(top_index, int(out["index"]))
        elif req["kind"] == "classgroup":
            classes += out["orbit_count"]
    return {
        "invariant_yield": invariant / between if between else 0.0,
        "cap_headroom": top_index / cap,
        "class_yield": classes / maximal if maximal else 0.0,
    }


def _overhead(pairs):
    """Traced over plain latency, summed over the requests that finished
    both times (a killed request's latency is its limit either way)."""
    plain, traced = {}, {}
    for req, rec in pairs:
        if not rec["error"]:
            (traced if rec["traced"] else plain)[req["id"]] = rec["latency_s"]
    both = sorted(set(plain) & set(traced))
    return sum(traced[i] for i in both) / sum(plain[i] for i in both)


def main(argv=None):
    ap = argparse.ArgumentParser(description="Benchmark of the latmod CLI pipelines.")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "latmod", "cli.py")):
        raise BenchError("no latmod sources under %s" % os.path.join(ROOT, "src"))

    t_start = time.perf_counter()
    base = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(base, args.workload)
    for sub in ("out", "spans"):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)
    env = harness.child_env(ROOT, workdir)
    rounds = workloads.rounds_for(args.workload, args.seconds, args.trace, harness.TAIL_BEYOND + 1)

    spawner = harness.Spawner()
    try:
        return _measure(args, spawner.run, t_start, base, workdir, env, rounds)
    finally:
        spawner.close()


def _measure(args, runner, t_start, base, workdir, env, rounds):
    setup_times = []
    setup_references = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        probe, requests = _setup(runner, args.workload, args.seed, rounds, workdir, env)
        setup_times.append(time.perf_counter() - t0)
        setup_references.append(runner(harness.REFERENCE_ARGV, 60, workdir, env)["latency_s"])
    header = {
        "kernel_implementation": probe["kernel"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "commit": _commit(),
        "source_digest": _source_digest(),
        "request_limit_normalised_s": {
            "model lie": workloads.MODEL_LIE_LIMIT_S,
            "other": workloads.DEFAULT_LIMIT_S,
        },
    }
    print("header " + json.dumps(header, sort_keys=True), flush=True)

    # Import probes: a few before the first request (they also fill the
    # byte-code cache), then one after every other request, so that the
    # median spans the whole run as the requests do.  A reference child
    # follows every request (see harness.REFERENCE_S).
    probe_argv = [sys.executable, "-c", "import latmod.cli"]
    import_times = []
    reference_times = []

    def probes():
        if len(reference_times) % 2:
            import_times.append(runner(probe_argv, 60, workdir, env)["latency_s"])
        reference_times.append(runner(harness.REFERENCE_ARGV, 60, workdir, env)["latency_s"])

    for _ in range(IMPORT_WARMUP):
        import_times.append(runner(probe_argv, 60, workdir, env)["latency_s"])

    def recent_factor():
        # Limits follow the host's speed of the moment: the last few
        # reference children (those timed at set-up to begin with).
        return statistics.mean((setup_references + reference_times)[-3:]) / harness.REFERENCE_S

    pairs = []  # (request, record) for every child run
    traced_stats = []
    for r, batch in enumerate(requests):
        done = []
        for req in batch:
            done.append((req, _run(runner, req, workdir, env, factor=recent_factor())))
            if args.trace:
                done.append((req, _run(runner, req, workdir, env, traced=True, factor=recent_factor())))
            for _, rec in done[-2 if args.trace else -1 :]:
                rec["slot"] = len(reference_times)  # the reference child that follows it
            probes()
        for req, rec in done:
            rec["round"] = r
            _check(req, rec)
            path = os.path.join(workdir, "spans", req["id"] + ".json")
            # A traced child killed outright (not unwound by SIGTERM) wrote no spans.
            if rec["traced"] and os.path.exists(path):
                with open(path) as f:
                    trace = json.load(f)
                os.unlink(path)
                rec["counters"] = trace["counters"]
                traced_stats.append((spans.self_times(trace["spans"], trace["aggregates"]), trace["counters"]))
        pairs.extend(done)

    # A finished request's latency is divided by the host factor around
    # it: the mean of the reference children just before and after it and
    # the next one, as the host's speed drifts within a run.  A request
    # killed at its limit counts as the (normalised) limit, whatever the
    # host's speed.  The run's mean factor scales everything else.
    host_factor = statistics.mean(reference_times) / harness.REFERENCE_S
    for req, rec in pairs:
        window = reference_times[max(0, rec["slot"] - 1) : rec["slot"] + 2]
        local = statistics.mean(window) / harness.REFERENCE_S
        rec["normalised_s"] = req["limit_s"] if rec["timed_out"] else rec["latency_s"] / local
    records = [rec for _, rec in pairs]
    failed = [rec for rec in records if rec["error"]]
    correct = not any(rec["wrong"] for rec in records)
    plain = [rec for rec in records if not rec["traced"]]

    def median_round(key):
        return statistics.median(sum(rec[key] for rec in plain if rec["round"] == r) for r in range(len(requests)))

    samples = [(bool(rec["error"]), rec["normalised_s"]) for rec in plain]
    tail_value, tail_pct, tail_n = harness.tail(samples)
    e2e = {
        "wall_s": median_round("normalised_s"),
        "req_p50_s": harness.p50(samples),
        "req_tail_s": tail_value,
        # Set-up runs before the requests; scale it by the reference
        # children timed between set-ups.
        "setup_s": statistics.median(setup_times) * harness.REFERENCE_S / statistics.mean(setup_references),
        "import_s": statistics.median(import_times) / host_factor,
        "peak_rss_mb": max(rec["maxrss_kb"] for rec in plain if not rec["error"]) / 1024,
    }
    raw = {
        "wall_s": median_round("latency_s"),
        "setup_s": statistics.median(setup_times),
        "import_s": statistics.median(import_times),
    }
    print("workload %s: %d rounds, %d requests, %d failed, fail_frac %.4f (1), tail is p%d of %d requests"
          % (args.workload, rounds, len(records), len(failed), len(failed) / len(records), tail_pct, tail_n))
    print("host factor %.4f: reference child %.4f s against %.4f s; times below are divided by it,"
          " killed requests count as their limit"
          % (host_factor, statistics.mean(reference_times), harness.REFERENCE_S))
    for name, value in e2e.items():
        measured = " (measured %.4f)" % raw[name] if name in raw else ""
        print("  %-12s %12.4f %s%s" % (name, value, E2E_UNITS[name], measured))
    for rec in failed:
        print("  failed %s: latmod %s (%s%s)"
              % (rec["id"], " ".join(rec["args"]), rec["error"], ", traced" if rec["traced"] else ""))

    if args.trace:
        derived = _derived(pairs, probe["enum_order_cap"])
        derived["overhead"] = _overhead(pairs)
        metrics = spans.layer_metrics(traced_stats, rounds, host_factor, derived)
        for name, m in metrics.items():
            print("  %-42s %14.6g %s" % (name, m["value"], m["unit"]))
    else:
        metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in e2e.items()}

    result = {"correct": correct, "attempted": len(records), "failed": len(failed), "metrics": metrics}
    runs = os.path.join(base, "runs")
    os.makedirs(runs, exist_ok=True)
    for rec in records:
        rec.pop("output", None)
    with open(os.path.join(runs, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"header": header, "e2e": e2e, "e2e_measured": raw, "host_factor": host_factor,
                   "reference_s": reference_times, "tail_percentile": tail_pct, "tail_samples": tail_n,
                   "result": result, "requests": records,
                   "elapsed_s": time.perf_counter() - t_start}, f, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(2)
