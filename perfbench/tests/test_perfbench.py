"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import harness  # noqa: E402
import lieoracle  # noqa: E402
import run  # noqa: E402
import shim  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _generate(workload, seed, workdir):
    pool = workloads.load_pool()
    requests = workloads.plan(workload, seed, 2, pool)
    workloads.write_inputs(requests, pool, str(workdir))
    files = {}
    for dirpath, _, names in os.walk(str(workdir)):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, str(workdir))] = f.read()
    return files


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_requests_and_inputs(tmp_path, workload):
    a = _generate(workload, 7, tmp_path / "a")
    b = _generate(workload, 7, tmp_path / "b")
    c = _generate(workload, 8, tmp_path / "c")
    assert a == b
    assert a["requests.json"] != c["requests.json"]


def test_cases_inputs_are_only_the_named_files(tmp_path):
    files = _generate("cases", 3, tmp_path)
    named = {"requests.json"}
    for batch in json.loads(files["requests.json"]):
        for req in batch:
            if req["kind"] == "model_lie":
                named.update((req["args"][3], req["args"][5]))
    assert set(files) == named


def test_model_lie_draws_one_lattice_per_stratum():
    pool = workloads.load_pool()
    batch = workloads.plan("cases", 3, 1, pool)[0]
    for name in workloads.MODEL_LIE_STRATA:
        lie = [req["args"] for req in batch if req["kind"] == "model_lie"]
        drawn = [int(a[5].split(".")[1]) for a in lie if a[3] == "inputs/%s.rep.json" % name]
        parts = workloads.strata(pool, name)
        assert sorted(len(p) for p in parts) == sorted(workloads.MODEL_LIE_STRATA[name])
        assert sorted(i for p in parts for i in p) == list(range(len(pool["reps"][name]["lattices"])))
        assert [sum(i in p for i in drawn) for p in parts] == [1] * len(parts)
    finished = [lat["finished"] for lat in pool["reps"]["C2_10"]["lattices"]]
    assert [{finished[i] for i in p} for p in workloads.strata(pool, "C2_10")] == [{True}, {False}]


def test_request_past_limit_is_killed_and_failed(tmp_path):
    # A real request that takes about 3 s at the seed commit.
    req = {
        "id": "slow",
        "kind": "orbits",
        "args": ["orbits", "--type", "A", "--rank", "2", "--hw", "2,0", "--p", "2"],
        "limit_s": 0.5,
        "expect": list(workloads.ORBITS[("A", 2, "2,0", 2)]),
    }
    (tmp_path / "out").mkdir()
    env = harness.child_env(ROOT, str(tmp_path))
    rec = run._run(harness.run_child, req, str(tmp_path), env)
    assert rec["timed_out"]
    assert 0.5 <= rec["latency_s"] < 0.5 + harness.KILL_GRACE_S + 1.0
    run._check(req, rec)
    assert rec["error"] == "past the 0.5 s limit"
    assert not rec["wrong"]


def test_self_time_on_nested_spans():
    # root 1 covers [0, 10]; children 2 [1, 4] and 3 [3, 6] overlap, so
    # they cover 5 s of it; span 4 [2, 3] sits inside span 2.  Aggregated
    # helpers called from span 1 take 1 s at top level.
    span_set = [
        [4, "d", 2.0, 3.0, 2],
        [2, "b", 1.0, 4.0, 1],
        [3, "c", 3.0, 6.0, 1],
        [1, "a", 0.0, 10.0, 0],
    ]
    aggregates = [
        [1, "m", 3, 1.25, 0.25, 1.0],
        [2, "m", 1, 0.5, 0.0, 0.0],
    ]
    got = spans.self_times(span_set, aggregates)
    assert got["a"] == [1, 10.0, 4.0]
    assert got["b"] == [1, 3.0, 2.0]
    assert got["c"] == [1, 3.0, 3.0]
    assert got["d"] == [1, 1.0, 1.0]
    assert got["m"] == [4, 1.75, 1.5]


def test_failed_requests_rank_above_finished_ones():
    samples = [(False, 0.1 * i) for i in range(1, 12)] + [(True, 0.05)]
    assert harness.p50(samples) == pytest.approx(0.65)
    value, pct, n = harness.tail(samples)
    assert (pct, n) == (16, 12)
    assert value == pytest.approx(0.2)
    with pytest.raises(ValueError):
        harness.tail(samples[:10])


def test_class_number_oracle():
    assert [workloads.reduced_forms_count(d) for d in (-3, -4, -20, -23, -479)] == [1, 1, 2, 3, 25]
    assert [workloads.reduced_forms_count(d) for d in (-47, -71, -95, -119, -143)] == [5, 7, 8, 10, 10]


def test_check_flags_wrong_output():
    req = {"kind": "orbits", "expect": [8, 8, 4, 3]}
    good = {"sandwich_index": 8, "total_between": 8, "invariant": 4, "orbits": 3}
    assert workloads.check(req, json.dumps(good)) is None
    assert workloads.check(req, json.dumps(dict(good, orbits=2))) is not None
    assert workloads.check(req, "not json") is not None


def test_check_compares_model_lie_divisors():
    want = {"killing_divisors": ["1", "2"], "bracket_divisors": ["1", "3"]}
    req = {"kind": "model_lie", "expect": want}
    assert workloads.check(req, json.dumps({"invariants": want})) is None
    wrong = dict(want, bracket_divisors=["1", "6"])
    assert workloads.check(req, json.dumps({"invariants": wrong})) is not None


def test_every_pool_lattice_has_divisors():
    pool = workloads.load_pool()
    for entry in pool["reps"].values():
        for lat in entry["lattices"]:
            assert set(lat["divisors"]) == {"killing_divisors", "bracket_divisors"}


def _determinantal_divisors(rows):
    """Elementary divisors as quotients of gcds of k x k minors."""
    from fractions import Fraction
    from itertools import combinations
    from math import gcd

    def det(m):
        m = [[Fraction(x) for x in r] for r in m]
        d = Fraction(1)
        for k in range(len(m)):
            p = next((i for i in range(k, len(m)) if m[i][k]), None)
            if p is None:
                return 0
            if p != k:
                m[k], m[p] = m[p], m[k]
                d = -d
            d *= m[k][k]
            for i in range(k + 1, len(m)):
                f = m[i][k] / m[k][k]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
        return int(d)

    out, prev = [], 1
    for k in range(1, len(rows[0]) + 1):
        g = 0
        for r in combinations(range(len(rows)), k):
            for c in combinations(range(len(rows[0])), k):
                g = gcd(g, det([[rows[i][j] for j in c] for i in r]))
        out.append(g // prev if g else 0)
        prev = g or 1
    return out


def test_modular_smith_form_matches_determinantal_divisors():
    import random

    rng = random.Random(5)
    checked = 0
    while checked < 150:
        nr = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, 1, -1, 2, 3, -4, 6, 12, -9)) for _ in range(rng.randint(1, nr))]]
        rows += [[rng.choice((0, 1, -2, 4, 6, -9)) for _ in rows[0]] for _ in range(nr - 1)]
        want = _determinantal_divisors(rows)
        if 0 in want:
            with pytest.raises(ValueError):
                lieoracle.snf_int(rows)
            continue
        assert lieoracle.snf_int(rows) == want
        checked += 1


def test_oracle_agrees_with_program_on_finished_lattices():
    pool = workloads.load_pool()
    for name in ("A1_2", "A1_4", "A2_10"):
        entry = pool["reps"][name]
        for lat in entry["lattices"][:3]:
            assert lat["finished"]
            assert lieoracle.lie_divisors(entry["descriptor"], lat["lattice"]) == lat["divisors"]


def test_stalled_bits_reads_the_working_matrix():
    def snf_diagonal(rows):
        m = [list(r) for r in rows]
        m[0][0] = 1 << 100
        return shim._stalled_bits(sys._getframe())

    assert snf_diagonal([[1, 2], [3, 4]]) == 101
    assert shim._stalled_bits(sys._getframe()) == 0


def test_overhead_counts_only_requests_finished_both_times():
    def rec(traced, latency, error=None):
        return {"traced": traced, "latency_s": latency, "error": error}

    pairs = [
        ({"id": "a"}, rec(False, 1.0)),
        ({"id": "a"}, rec(True, 1.5)),
        ({"id": "b"}, rec(False, 4.0, "past the 4 s limit")),
        ({"id": "b"}, rec(True, 4.0, "past the 4 s limit")),
        ({"id": "c"}, rec(False, 1.0)),
        ({"id": "c"}, rec(True, 4.0, "past the 4 s limit")),
    ]
    assert run._overhead(pairs) == pytest.approx(1.5)


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, u, _ in spans.PER_LAYER]


def test_compare_refuses_mixed_kernel_implementations(tmp_path):
    metrics = {name: {"value": 1.0, "unit": unit} for name, unit in run.E2E_UNITS.items()}
    for side, kernel in (("base", "python"), ("new", "cython")):
        (tmp_path / side).mkdir()
        record = {
            "header": {"workload": "orbits", "trace": 0, "kernel_implementation": kernel},
            "result": {"metrics": metrics},
        }
        (tmp_path / side / "orbits-seed1-trace0.json").write_text(json.dumps(record))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 2
