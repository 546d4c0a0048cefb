"""Workload definitions, seeded request lists and output oracles.

A workload is a list of request kinds, each with a weight (how often it
appears in one request list, the "round").  The seed fixes the order of
every round and which recorded random lattice each ``model lie`` request
gets, within its stratum.  The program only sees the generated arguments
and input files.

Weights and strata keep each round's mix fixed, so that medians compare
across seeds.
"""

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "data", "model_lie_pool.json")

# Time limits, in host-normalised seconds (see ``harness.REFERENCE_S``):
# a request gets its limit times the host factor of the moment.
# ``model lie`` gets 4 s: at the seed commit every pool lattice that
# finishes does so within 2.4 s normalised (the slowest A2 (1,0)
# lattices), while the Smith-form stalls run without bound.  Everything else gets 30 s, over three times the slowest request
# the workloads include.
MODEL_LIE_LIMIT_S = 4.0
DEFAULT_LIMIT_S = 30.0

# (type, rank, hw, p) -> (sandwich_index, total_between, invariant, orbits)
# at the seed commit.
ORBITS = {
    ("A", 1, "2", 2): (8, 8, 4, 3),
    ("A", 1, "3", 2): (16, 15, 3, 3),
    ("A", 1, "3", 3): (81, 50, 4, 4),
    ("A", 1, "4", 3): (243, 126, 4, 4),
    ("A", 1, "5", 3): (729, 445, 3, 3),
    ("C", 2, "0,1", 2): (32, 54, 2, 2),
    ("A", 2, "2,0", 2): (128, 1500, 8, 8),
}

# (type, rank, hw) -> Weyl dimension.  D4 (1,0,0,0) (8.8 s) and the
# sandwiches on A2 (2,1) (6.9 s), B3 (1,0,0) (6.1 s), C2 (1,1) (19 s) and
# D4 (18 s) are left out: with them a run outgrows its time.  C3 (1,0,0)
# is not built on its own; its sandwich builds it.
REP_BUILD = {
    ("A", 2, "1,1"): 8,
    ("A", 2, "2,1"): 15,
    ("A", 3, "0,1,0"): 6,
    ("B", 3, "1,0,0"): 7,
    ("C", 2, "1,1"): 16,
}

# (type, rank, hw) -> [S+ : S-] at p = 2, recorded at the seed commit.
SANDWICH = {
    ("A", 2, "1,1"): "1",
    ("A", 3, "0,1,0"): "1",
    ("C", 3, "1,0,0"): "1",
}

CLASSGROUP = (-47, -71, -95, -119)

# ``model lie``: pool name -> sizes of its strata, one request a round
# per stratum.  A rep's pool lattices, sorted by the time they took when
# the pool was recorded (stalls last), are cut into consecutive strata of
# these sizes, and the seed picks one lattice in each.  So every run has
# the same mix of fast, slow and stalling lattices: for A2 (1,0) one of
# the fast half and one of each slower quarter, for C2 (1,0) one of the
# two that finish and one of the ten that stall.
MODEL_LIE_STRATA = {
    "A1_2": (2,) * 6,
    "A1_4": (2,) * 6,
    "A2_10": (6, 3, 3),
    "C2_10": (2, 10),
    "A2_11": (12,),
}

# workload -> [(kind, key, weight)]: one round is ``weight`` requests of
# each kind.  The weights put a run's median and its tail rank (the 11th
# largest latency) inside groups of identical requests, so that both are
# quantiles of one kind's latency and do not jump between kinds, and the
# tail's group is slower than the median's.  With normalised latencies
# of about (in s):
#   orbits: A2 (2,0) 3.2, A1 hw 5 1.2, C2 (0,1) 0.42 (x9), A1 hw 4 p=3
#     0.29 (x9), the rest under 0.2; tail C2 (0,1), median A1 hw 4.
#   reps: B3 3.2, C3 sandwich 2.6, C2 (1,1) 2.1, A2 (2,1) 1.0, A3
#     sandwich 0.65 and build 0.58, A2 (1,1) sandwich 0.40 and build
#     0.25; tail A3, median A2 (1,1) sandwich.
#   cases: the two stalls at the 4 s limit, A2 (1,0) 2.3 (slowest
#     quarter), D = -119 1.8, D = -95 1.0 with A2 (1,0) 0.4-1.2 and
#     C2 (1,0) 0.9, D = -71 0.75, pgl2 0.37 with A2 (1,0) 0.37, D = -47
#     0.2, A1 model lie 0.07; tail D = -95, median pgl2.
# ``cases`` has two ``model lie`` requests a run that stall at the seed
# commit, so that the time spent at the limit does not dominate the run.
WORKLOADS = {
    "orbits": [
        ("orbits", key, 3 if key in (("A", 1, "4", 3), ("C", 2, "0,1", 2)) else 1) for key in ORBITS
    ],
    "reps": [
        ("rep_build", ("B", 3, "1,0,0"), 1),
        ("rep_build", ("C", 2, "1,1"), 1),
        ("sandwich", ("C", 3, "1,0,0"), 1),
        ("rep_build", ("A", 2, "2,1"), 2),
        ("sandwich", ("A", 3, "0,1,0"), 6),
        ("rep_build", ("A", 3, "0,1,0"), 2),
        ("sandwich", ("A", 2, "1,1"), 8),
        ("rep_build", ("A", 2, "1,1"), 11),
    ],
    "cases": [
        ("classgroup", -47, 2),
        ("classgroup", -71, 2),
        ("classgroup", -95, 8),
        ("classgroup", -119, 2),
        ("pgl2", None, 6),
    ]
    + [("model_lie", name, len(sizes)) for name, sizes in MODEL_LIE_STRATA.items()],
}

# About the seconds one round takes at the seed commit (pure-Python
# kernels on a 2-vCPU x86-64 container whose speed varies by a third over
# minutes).  A run makes ``seconds / nominal`` rounds, rounded, so two
# commits run identical request lists.
NOMINAL_ROUND_S = {"orbits": 9.0, "reps": 30.0, "cases": 30.0}


def rounds_for(workload, seconds, trace, min_requests):
    """Rounds in one run: enough to fill ``seconds`` at the seed commit
    (half that when traced, as each request then runs twice), and at
    least ``min_requests`` requests."""
    rounds = max(1, round(seconds / NOMINAL_ROUND_S[workload]))
    if trace:
        rounds = max(1, rounds // 2)
    size = sum(weight for _, _, weight in WORKLOADS[workload])
    return max(rounds, -(-min_requests // size))


def load_pool():
    with open(POOL_PATH) as f:
        return json.load(f)


def strata(pool, name):
    """Lattice indices of each of ``name``'s strata (see
    ``MODEL_LIE_STRATA``)."""
    lats = pool["reps"][name]["lattices"]
    order = sorted(range(len(lats)), key=lambda i: (not lats[i]["finished"], lats[i]["seconds"], i))
    out = []
    for size in MODEL_LIE_STRATA[name]:
        out.append(order[:size])
        order = order[size:]
    if order:
        raise ValueError("the strata of %s do not cover its pool" % name)
    return out


def _args(kind, key, lattice_file=None):
    if kind in ("orbits", "rep_build", "sandwich"):
        t, rank, hw = key[:3]
        flags = ["--type", t, "--rank", str(rank), "--hw", hw]
        if kind == "orbits":
            return ["orbits"] + flags + ["--p", str(key[3])]
        if kind == "sandwich":
            return ["sandwich"] + flags + ["--p", "2"]
        return ["rep", "build"] + flags
    if kind == "classgroup":
        return ["case", "classgroup", "--disc", str(key)]
    if kind == "pgl2":
        return ["case", "pgl2"]
    return ["model", "lie", "--rep", "inputs/%s.rep.json" % key, "--lattice", lattice_file]


def _expect(kind, key, pool, lattice_index):
    if kind == "orbits":
        return list(ORBITS[key])
    if kind == "rep_build":
        return REP_BUILD[key]
    if kind == "sandwich":
        return SANDWICH[key]
    if kind == "classgroup":
        return reduced_forms_count(key)
    if kind == "pgl2":
        return "pass"
    return pool["reps"][key]["lattices"][lattice_index]["divisors"]


def plan(workload, seed, rounds, pool):
    """The request list: ``rounds`` rounds, each the workload's weighted
    multiset in a seeded order.  Requests are plain JSON-able dicts."""
    rng = random.Random("%s:%d" % (workload, seed))
    out = []
    for r in range(rounds):
        items = []
        for kind, key, weight in WORKLOADS[workload]:
            parts = strata(pool, key) if kind == "model_lie" else [None] * weight
            for part in parts:
                items.append((kind, key, None if part is None else rng.choice(part)))
        rng.shuffle(items)
        batch = []
        for i, (kind, key, lat) in enumerate(items):
            lattice_file = None if lat is None else "inputs/%s.%02d.lat.json" % (key, lat)
            batch.append(
                {
                    "id": "r%d-%02d" % (r, i),
                    "kind": kind,
                    "args": _args(kind, key, lattice_file),
                    "limit_s": MODEL_LIE_LIMIT_S if kind == "model_lie" else DEFAULT_LIMIT_S,
                    "expect": _expect(kind, key, pool, lat),
                }
            )
        out.append(batch)
    return out


def write_inputs(requests, pool, workdir):
    """Write the descriptor and lattice files the request list names."""
    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    needed = set()
    for batch in requests:
        for req in batch:
            if req["kind"] == "model_lie":
                needed.add((req["args"][3], req["args"][5]))
    for rep_file, lat_file in sorted(needed):
        name = os.path.basename(rep_file).split(".")[0]
        index = int(os.path.basename(lat_file).split(".")[1])
        entry = pool["reps"][name]
        _write(os.path.join(workdir, rep_file), entry["descriptor"])
        _write(os.path.join(workdir, lat_file), entry["lattices"][index]["lattice"])
    _write(os.path.join(workdir, "requests.json"), requests)


def _write(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=1)
        f.write("\n")


def reduced_forms_count(disc):
    """Class number of the fundamental discriminant ``disc`` < 0, counted
    as reduced forms (a, b, c): b² - 4ac = disc, |b| <= a <= c, and b >= 0
    when |b| = a or a = c.  Independent of the program under test."""
    count = 0
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (b < 0 and a == c):
                continue
            count += 1
        a += 1
    return count


def check(req, stdout):
    """Return None if the output matches the oracle, else a reason."""
    try:
        out = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    kind, want = req["kind"], req["expect"]
    if kind == "orbits":
        got = [out.get(k) for k in ("sandwich_index", "total_between", "invariant", "orbits")]
        return None if got == want else "orbit counts %s, expected %s" % (got, want)
    if kind == "rep_build":
        if out.get("dim") != want:
            return "dim %s, expected %s" % (out.get("dim"), want)
        covered = sorted(i for ix in out.get("blocks", {}).values() for i in ix)
        return None if covered == list(range(want)) else "blocks do not partition the basis"
    if kind == "sandwich":
        return None if out.get("index") == want else "index %s, expected %s" % (out.get("index"), want)
    if kind == "classgroup":
        got = out.get("orbit_count")
        if got != want or len(out.get("representatives", ())) != want:
            return "class count %s, expected %s" % (got, want)
        return None
    if kind == "pgl2":
        return None if out.get("status") == want else "status %s" % out.get("status")
    inv = out.get("invariants", {})
    got = {k: inv.get(k) for k in want}
    return None if got == want else "divisors %s, expected %s" % (got, want)
