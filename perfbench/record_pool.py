"""Regenerate ``data/model_lie_pool.json``: the random lattices the
``cases`` workload's ``model lie`` requests draw from, with the divisors
and run time the program gave for each when the pool was recorded.

    python3 perfbench/record_pool.py

Run from the root of the repository.  Each lattice is a dense integer
basis with entries in [-3, 3] (degenerate draws are redrawn), the same
family the test suite's random-lattice helper uses.  Every lattice's
divisors are also computed by ``lieoracle.py``, whose Smith form cannot
stall; where the program finished the two must agree.  A lattice on
which the program ran past ``RECORD_LIMIT_S`` is recorded with
``"finished": false`` and the oracle's divisors, so that the benchmark
checks a later commit that finishes it against them.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import lieoracle  # noqa: E402
import workloads  # noqa: E402

# name -> (type, rank, hw, representation dim)
REPS = {
    "A1_2": ("A", 1, [2], 3),
    "A1_4": ("A", 1, [4], 5),
    "A2_10": ("A", 2, [1, 0], 3),
    "C2_10": ("C", 2, [1, 0], 4),
    "A2_11": ("A", 2, [1, 1], 8),
}
PER_REP = 12
GENERATOR_SEED = 2027
RECORD_LIMIT_S = 10.0


def main():
    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    from latmod.exact import Lattice, LatticeError

    workdir = os.path.join(root, ".perfbench_work", "record")
    os.makedirs(workdir, exist_ok=True)
    env = harness.child_env(root, workdir)
    rng = random.Random(GENERATOR_SEED)
    pool = {"generator_seed": GENERATOR_SEED, "record_limit_s": RECORD_LIMIT_S, "reps": {}}
    for name, (t, rank, hw, dim) in REPS.items():
        descriptor = {"type": t, "rank": rank, "hw": hw}
        rep_path = os.path.join(workdir, "rep.json")
        lat_path = os.path.join(workdir, "lat.json")
        out_path = os.path.join(workdir, "out.json")
        with open(rep_path, "w") as f:
            json.dump(descriptor, f)
        entries = []
        while len(entries) < PER_REP:
            cols = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
            try:
                lattice = Lattice(cols).to_json_obj()
            except LatticeError:
                continue
            with open(lat_path, "w") as f:
                json.dump(lattice, f)
            res = harness.run_child(
                harness.cli_argv(["model", "lie", "--rep", rep_path, "--lattice", lat_path]),
                RECORD_LIMIT_S,
                workdir,
                env,
                out_path,
            )
            divisors = lieoracle.lie_divisors(descriptor, lattice)
            finished = res["returncode"] == 0 and not res["timed_out"]
            if finished:
                with open(out_path) as f:
                    inv = json.load(f)["invariants"]
                got = {k: inv[k] for k in divisors}
                if got != divisors:
                    raise SystemExit("%s: program gives %s, oracle %s" % (name, got, divisors))
            entries.append(
                {
                    "lattice": lattice,
                    "divisors": divisors,
                    "finished": finished,
                    "seconds": round(res["latency_s"], 2),
                }
            )
            print(name, len(entries), finished, round(res["latency_s"], 2), flush=True)
        pool["reps"][name] = {"descriptor": descriptor, "lattices": entries}
    with open(workloads.POOL_PATH, "w") as f:
        json.dump(pool, f, sort_keys=True, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
