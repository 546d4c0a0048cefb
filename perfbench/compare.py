"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds run records as ``run.py`` writes them to
``.perfbench_work/runs/`` (``perfbench/baseline/`` holds the seed
commit's).  For every workload and end-to-end metric it prints each
side's median and quartiles and whether the new median is worse than the
base median by more than the bound in ``BENCHMARK.json``.  Runs made with
different kernel implementations (pure Python against compiled) are
refused rather than compared.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """``{(workload, trace): [record, ...]}`` for every record in a directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as f:
                rec = json.load(f)
            key = (rec["header"]["workload"], rec["header"]["trace"])
            runs.setdefault(key, []).append(rec)
    return runs


def kernels(runs):
    return {rec["header"]["kernel_implementation"] for recs in runs.values() for rec in recs}


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 1
    base, new = load(argv[0]), load(argv[1])
    kb, kn = kernels(base), kernels(new)
    if len(kb | kn) != 1:
        sys.stderr.write("refusing to compare kernel implementations %s with %s\n" % (sorted(kb), sorted(kn)))
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    worse = 0
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1 if metric["better"] == "lower" else -1
        for key in sorted(base):
            if key[1] != 0 or key not in new:
                continue
            b = summary([r["result"]["metrics"][name]["value"] for r in base[key]])
            n = summary([r["result"]["metrics"][name]["value"] for r in new[key]])
            change = (n[1] - b[1]) / b[1]
            verdict = "WORSE" if sign * change > bound else "ok"
            worse += verdict == "WORSE"
            print("%-8s %-12s base %.4g [%.4g, %.4g]  new %.4g [%.4g, %.4g]  %+.1f%% (bound %.0f%%) %s"
                  % (key[0], name, b[1], b[0], b[2], n[1], n[0], n[2], 100 * change, 100 * bound, verdict))
    return 3 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
