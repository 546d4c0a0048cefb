"""Command-line interface: JSON output, exit codes, determinism."""

import contextlib
import hashlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latmod
from latmod import cli, kernels, latconstruct, reps, rootdata
from latmod.cli import main
from latmod.exact import Lattice
from latmod.latconstruct import is_invariant, is_split, s_minus, s_plus
from latmod.reps import build_irrep
from latmod.rootdata import build_chevalley, root_system
from oracles import has_j_components, sandwich_type, subgroup_count_by_gaussian_binomials
from test_reps import PINNED


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_rep_build(capsys):
    code, out, _ = run(["rep", "build", "--type", "A", "--rank", "1", "--hw", "2"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["dim"] == 3


def test_rep_build_past_the_entry_cap_exits_1_before_building(monkeypatch, capsys):
    # B4 (0,0,2,0) has dimension 1980, so 141 M action entries over its 36
    # generators, about 14 GB of report; it is refused before it is built.
    monkeypatch.setattr(reps, "build_irrep", lambda *a: pytest.fail("built a representation"))
    code, out, err = run(["rep", "build", "--type", "B", "--rank", "4", "--hw", "0,0,2,0"], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: the report of dimension 1980 with 36 generators has 141134400 action entries, more than the cap of %d\n"
        % reps.REPORT_ENTRY_CAP
    )


def test_entry_cap_admits_every_known_report(capsys):
    # The count the cap is checked on is the number of entries a report
    # writes, and it admits the golden rep builds, the pinned large
    # ambients and the builds of the benchmark's workloads, the largest of
    # them B3 (1,0,2) with 750,141 entries.
    def entries(t, r, hw):
        rs = root_system(t, r)
        return reps.weyl_dimension(rs, hw) ** 2 * len(rs.basis_order())

    for t, r, hw in (("A", 2, (1, 1)), ("C", 2, (1, 1)), ("B", 3, (1, 0, 0))):
        code, out, _ = run(["rep", "build", "--type", t, "--rank", str(r), "--hw", ",".join(map(str, hw))], capsys)
        action = json.loads(out)["action"]
        assert code == 0 and sum(len(row) for m in action.values() for row in m) == entries(t, r, hw)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    known = [(t, r, hw) for t, r, hw, _ in PINNED]
    known += [(t, r, tuple(map(int, hw.split(",")))) for t, r, hw in workloads.REP_BUILD]
    known += [
        (c["argv"][3], int(c["argv"][5]), tuple(map(int, c["argv"][7].split(","))))
        for c in GOLDEN["cases"]
        if c["argv"][:2] == ["rep", "build"]
    ]
    assert max(entries(*k) for k in known) == entries("B", 3, (1, 0, 2)) == 750141
    assert entries("B", 3, (1, 0, 2)) <= reps.REPORT_ENTRY_CAP
    # A sandwich writes 2·dim² basis entries and an orbits report dim² per
    # class; the golden ones are admitted and written.
    for c in GOLDEN["cases"]:
        if c["argv"][0] in ("sandwich", "orbits"):
            code, out, _ = run(c["argv"], capsys)
            obj = json.loads(out)
            lattices = [obj["s_minus"], obj["s_plus"]] if "s_minus" in obj else obj["representatives"]
            written = sum(len(col) for lat in lattices for col in lat["basis"])
            assert code == 0 and written == len(lattices) * lattices[0]["ambient"] ** 2 <= reps.REPORT_ENTRY_CAP


def test_orbits_past_the_entry_cap_exits_1_before_building(monkeypatch, capsys):
    # A1 hw 4 at p = 2 has 32 classes of dimension 5: 800 basis entries.
    # Past the cap the report is refused during the search, at the first
    # class past the 31 that 799 entries admit, before any representative
    # is built; at the cap it is written.
    argv = ["orbits", "--type", "A", "--rank", "1", "--hw", "4", "--p", "2"]
    monkeypatch.setattr(latconstruct, "REPORT_ENTRY_CAP", 799)
    with monkeypatch.context() as m:
        m.setattr(Lattice, "diagonal", lambda *a: pytest.fail("built a representative"))
        code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err == "error: the report has more than the 31 classes of dimension 5 that the cap of 799 basis entries admits\n"
    monkeypatch.setattr(latconstruct, "REPORT_ENTRY_CAP", 800)
    code, out, _ = run(argv, capsys)
    assert code == 0 and json.loads(out)["orbits"] == 32


@pytest.mark.parametrize(
    "argv, dim, matrices",
    [
        ("sandwich --type C --rank 3 --hw 2,2,2 --p 2", 19683, "with 2 lattices has 774840978"),
        ("orbits --type A --rank 1 --hw 2000 --p 2", 2001, "with at least 1 class has 4004001"),
    ],
    ids=["sandwich", "orbits"],
)
def test_reports_past_the_entry_cap_exit_1_before_building(argv, dim, matrices, monkeypatch, capsys):
    # A sandwich writes 2·dim² basis entries and an orbits report at least
    # dim²; C3 (2,2,2) has dimension 19,683 and built until a MemoryError.
    # Both are refused from the Weyl dimension, as rep build is.
    monkeypatch.setattr(reps, "build_irrep", lambda *a: pytest.fail("built a representation"))
    code, out, err = run(argv.split(), capsys)
    assert (code, out) == (1, "")
    msg = "error: the report of dimension %d %s basis entries, more than the cap of %d\n"
    assert err == msg % (dim, matrices, reps.REPORT_ENTRY_CAP)


def test_sandwich_and_orbits_check_the_entries_they_write(monkeypatch, capsys):
    # A1 hw 2 has dimension 3: a sandwich writes 18 basis entries and an
    # orbits report at least 9.
    for command, entries in (("sandwich", 18), ("orbits", 9)):
        argv = [command, "--type", "A", "--rank", "1", "--hw", "2", "--p", "2"]
        monkeypatch.setattr(reps, "REPORT_ENTRY_CAP", entries - 1)
        code, _, err = run(argv, capsys)
        assert code == 1 and "more than the cap of %d" % (entries - 1) in err
        monkeypatch.setattr(reps, "REPORT_ENTRY_CAP", entries)
        assert run(argv, capsys)[0] == 0


@pytest.mark.parametrize("rank, hw, dim", [(1, "40", 41), (2, "9,0", 55)])
def test_orbits_past_the_cap_exit_1_in_bounded_memory(rank, hw, dim):
    # The search stops at the first class past the cap; while every
    # invariant vector was kept first, A1 hw 40 reached 7.66 GB.  Each
    # request runs as a child under a 512 MB address space.
    import resource

    def bounded():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    argv = ["orbits", "--type", "A", "--rank", str(rank), "--hw", hw, "--p", "2"]
    proc = run_child(["-m", "latmod.cli"] + argv, preexec_fn=bounded)
    cap = reps.REPORT_ENTRY_CAP
    msg = "error: the report has more than the %d classes of dimension %d that the cap of %d basis entries admits\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", msg % (cap // dim**2, dim, cap))


def test_model_lie_refuses_a_lattice_in_the_wrong_space_before_building(tmp_path, monkeypatch, capsys):
    # C3 (2,2,2) has dimension 19,683, and its build ran to a MemoryError
    # before a 3-dimensional lattice was found to live in the wrong space.
    repf, latf = tmp_path / "rep.json", tmp_path / "lat.json"
    repf.write_text(json.dumps({"type": "C", "rank": 3, "hw": [2, 2, 2]}))
    latf.write_text(Lattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).to_json())
    monkeypatch.setattr(reps, "build_irrep", lambda *a: pytest.fail("built a representation"))
    code, out, err = run(["model", "lie", "--rep", str(repf), "--lattice", str(latf)], capsys)
    assert (code, out, err) == (1, "", "error: lattice lives in the wrong space\n")


def test_lattice_dist_identical_files(tmp_path, capsys):
    f = tmp_path / "lat.json"
    f.write_text(Lattice([[1, 0], [0, 1]]).to_json())
    code, out, _ = run(["lattice", "dist", "--p", "2", "--a", str(f), "--b", str(f)], capsys)
    assert code == 0
    assert json.loads(out) == {"p": 2, "distance": 0}


def test_lattice_dist_nontrivial(tmp_path, capsys):
    fa = tmp_path / "a.json"
    fb = tmp_path / "b.json"
    fa.write_text(Lattice([[1, 0], [0, 1]]).to_json())
    fb.write_text(Lattice([[4, 0], [0, 1]]).to_json())
    code, out, _ = run(["lattice", "dist", "--p", "2", "--a", str(fa), "--b", str(fb)], capsys)
    assert code == 0
    assert json.loads(out)["distance"] == 2


def test_lattice_dist_on_two_local_planes(tmp_path, capsys):
    # b's coordinates in a are the columns (4, 0), (2, 8), whose divisors 2
    # and 16 have 2-adic valuations 1 and 4.
    fa, fb = tmp_path / "a.json", tmp_path / "b.json"
    fa.write_text('{"ambient": 2, "ring": {"Zp": 2}, "basis": [["1/2", "0"], ["0", "1"]]}\n')
    fb.write_text('{"ambient": 2, "ring": {"Zp": 2}, "basis": [["2", "1"], ["0", "8"]]}\n')
    code, out, _ = run(["lattice", "dist", "--p", "2", "--a", str(fa), "--b", str(fb)], capsys)
    assert code == 0 and json.loads(out) == {"p": 2, "distance": 3}


def test_lattice_dist_refuses_a_lattice_over_another_prime(tmp_path, capsys):
    # A Z_(3) lattice is not read as a Z_(2) one; a Z lattice is localised.
    z3, z2, z = (tmp_path / name for name in ("z3.json", "z2.json", "z.json"))
    z3.write_text(Lattice([[3, 0], [0, 1]], 3).to_json())
    z2.write_text(Lattice([[1, 0], [0, 1]], 2).to_json())
    z.write_text(Lattice([[4, 0], [0, 1]]).to_json())
    for a, b in ((z3, z2), (z2, z3)):
        code, out, err = run(["lattice", "dist", "--p", "2", "--a", str(a), "--b", str(b)], capsys)
        flag = "--a" if a == z3 else "--b"
        assert (code, out) == (1, "")
        assert err == "error: %s is a lattice over Z_(3), not over Z_(2) as --p says\n" % flag
    code, out, _ = run(["lattice", "dist", "--p", "2", "--a", str(z), "--b", str(z2)], capsys)
    assert code == 0 and json.loads(out) == {"p": 2, "distance": 2}


def test_sandwich(capsys):
    code, out, _ = run(
        ["sandwich", "--type", "A", "--rank", "1", "--hw", "2", "--p", "2"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["index"] == "8"
    assert Lattice.from_json_obj(obj["s_minus"]).prime == 2


def test_orbits(capsys):
    code, out, _ = run(
        ["orbits", "--type", "A", "--rank", "1", "--hw", "2", "--p", "2"], capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["orbits"] == 3 and obj["invariant"] == 4


def test_orbits_past_the_former_enumeration_cap(capsys):
    # [S+ : S-] = 3^14 exceeded ENUM_ORDER_CAP while every lattice of the
    # sandwich was listed; the request exited 1 then.
    start = time.monotonic()
    code, out, err = run(["orbits", "--type", "A", "--rank", "1", "--hw", "6", "--p", "3"], capsys)
    assert time.monotonic() - start < 10
    assert code == 0, err
    obj = json.loads(out)
    counts = (obj["sandwich_index"], obj["total_between"], obj["invariant"], obj["orbits"])
    assert counts == (4782969, 309701016, 16, 16)
    rep = build_irrep(build_chevalley("A", 1), (6,))
    lo, hi = s_minus(rep, 3), s_plus(rep, 3)
    for m in map(Lattice.from_json_obj, obj["representatives"]):
        assert is_invariant(rep, m) and is_split(rep, m) and has_j_components(rep, m)
        assert m.contains(lo) and hi.contains(m)


def test_orbits_exits_2_when_s_minus_is_not_inside_s_plus(monkeypatch, capsys):
    # S₋ ⊆ S₊ is proved in count_invariant_orbits' docstring, so a
    # violation is an internal fault (exit 2), not a validation error.
    walk = latconstruct._sandwich_blocks

    def shrunk(rep, sign, p):
        # S₊ walks as S₋ with each block scaled by p.
        for ix, lat in walk(rep, -1, p):
            yield ix, lat if sign < 0 else lat.scale(p)

    monkeypatch.setattr(latconstruct, "_sandwich_blocks", shrunk)
    code, out, err = run(["orbits", "--type", "A", "--rank", "1", "--hw", "2", "--p", "2"], capsys)
    assert (code, out, err) == (2, "", "internal assertion failure: S₋ is not inside S₊\n")


def int_digit_limit():
    """CPython's limit on the digits of an int-str conversion, None where
    there is none (before 3.11)."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@contextlib.contextmanager
def int_digits_lifted():
    """The digit limit lifted, as a reader of a report whose integers pass
    it must lift it, and then restored."""
    limit = int_digit_limit()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_sandwich_index_past_the_int_digit_limit(capsys):
    # [S₊ : S₋] of A1 (122) at p = 2 has 4,333 digits, past the 4,300 that
    # CPython's str() writes by default; the report exited 1 once it was
    # built.  The limit is the same after the command as before.
    limit = int_digit_limit()
    code, out, err = run(["sandwich", "--type", "A", "--rank", "1", "--hw", "122", "--p", "2"], capsys)
    assert (code, err) == (0, "")
    assert int_digit_limit() == limit
    lam = sandwich_type(build_irrep(build_chevalley("A", 1), (122,)), 2)
    with int_digits_lifted():
        text = json.loads(out)["index"]
        assert int(text) == 2 ** sum(lam) and len(text) == 4333


def test_orbit_counts_past_the_int_digit_limit(capsys):
    # The sandwich of A1 (80) at p = 17 holds a number of lattices of 4,936
    # digits, written as JSON and by --pretty: Birkhoff's sum with every
    # Gaussian binomial taken from scratch.
    limit = int_digit_limit()
    argv = ["orbits", "--type", "A", "--rank", "1", "--hw", "80", "--p", "17"]
    lam = sandwich_type(build_irrep(build_chevalley("A", 1), (80,)), 17)
    expected = subgroup_count_by_gaussian_binomials(lam, 17)
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    with int_digits_lifted():
        obj = json.loads(out)
        pretty = "%-40s %s" % ("total_between", expected)
    assert obj["total_between"] == expected and obj["sandwich_index"] == 17 ** sum(lam)
    code, out, err = run(argv + ["--pretty"], capsys)
    assert (code, err) == (0, "")
    assert pretty in out.split("\n")
    assert int_digit_limit() == limit


def test_model_lie_invariants_past_the_int_digit_limit(tmp_path, capsys):
    # Z⊕cZ⊕Z in Sym² of A1 has bracket divisors 1, 1, c²/2 and Killing
    # divisors 2, c², c² (c = 2 gives 1, 1, 2 and 2, 4, 4); at c = 10³⁰⁰⁰
    # they have 6,000 and 6,001 digits.  The input entry, of 3,001 digits,
    # is read under the limit.
    limit = int_digit_limit()
    repf, latf = tmp_path / "rep.json", tmp_path / "lat.json"
    repf.write_text(json.dumps({"type": "A", "rank": 1, "hw": [2]}))
    c = "1" + "0" * 3000
    latf.write_text(json.dumps({"ambient": 3, "ring": "Z", "basis": [["1", "0", "0"], ["0", c, "0"], ["0", "0", "1"]]}))
    code, out, err = run(["model", "lie", "--rep", str(repf), "--lattice", str(latf)], capsys)
    assert (code, err) == (0, "")
    assert int_digit_limit() == limit
    c2 = "1" + "0" * 6000
    assert json.loads(out)["invariants"] == {
        "bracket_divisors": ["1", "1", "5" + "0" * 5999],
        "killing_divisors": ["2", c2, c2],
    }


# Sandwiches and orbit reports past the golden set (sandwiches up to
# dimension 21, orbit reports up to 32 classes), each stdout pinned by its
# sha256 as the Hermite assembly of the split lattices wrote it: S± of B4
# (0,0,0,2) (dimension 126) and D4 (0,0,1,1) (56), and the 2,268 classes
# of A1 hw 8.  Then two reports pinned as the search in height order with
# the cap checked after it wrote them: the 6,400 classes of A1 hw 13
# (14,170,236 bytes, the largest A1 report at p = 2 under the cap) and the
# 540 of A2 (5,0).
PINNED_REPORTS = [
    ("sandwich --type B --rank 4 --hw 0,0,0,2 --p 2", "452f9bb43d6b24b94bab07b57b986001a48aa487d2dac837b0a4a825835dee95"),
    ("sandwich --type D --rank 4 --hw 0,0,1,1 --p 2", "bd4518d7d2f6a4281d81755fae04c5aa0cbdd58096a4b3400c7e8af0f5ad29d0"),
    ("orbits --type A --rank 1 --hw 8 --p 2", "e2650e57356a691b8ff42f92d3d26d60b354f83dc02dff2c51e6fb430ca98411"),
    ("orbits --type A --rank 1 --hw 13 --p 2", "125a9b32abde0587c9547557507010c9aaaad0f65399f6f179e1825fe0202d28"),
    ("orbits --type A --rank 2 --hw 5,0 --p 2", "6b1cbb9293a34c74c38e88cd6ca061233b807d65dd86b90bb703adb913ed665f"),
]


@pytest.mark.parametrize("argv, digest", PINNED_REPORTS, ids=[a for a, _ in PINNED_REPORTS])
def test_large_report_output_pinned(argv, digest, capsys):
    code, out, _ = run(argv.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, calls",
    [
        ("sandwich --type B --rank 4 --hw 0,0,0,2 --p 2", 0),
        ("sandwich --type B --rank 3 --hw 0,1,0 --p 2", 0),
        ("orbits --type A --rank 2 --hw 2,0 --p 2", 1),
    ],
)
def test_split_lattices_take_no_hermite_form_of_the_whole_space(argv, calls, monkeypatch, capsys):
    # S± are placed from their canonical blocks and the orbit
    # representatives are diagonal, so no Hermite form runs on as many rows
    # as the representation has dimensions; the one an orbit report takes
    # is its torus-shift span, one row per block.  The whole-space
    # assembly took 4 for a sandwich and 5 for this report.
    real, rows = kernels.hnf_columns, []

    def counted(cols, nrows):
        rows.append(nrows)
        return real(cols, nrows)

    for info in pkgutil.iter_modules(latmod.__path__):
        module = importlib.import_module("latmod." + info.name)
        if getattr(module, "hnf_columns", None) is real:
            monkeypatch.setattr(module, "hnf_columns", counted)
    code, out, _ = run(argv.split(), capsys)
    assert code == 0
    obj = json.loads(out)
    dim = obj["s_minus"]["ambient"] if "s_minus" in obj else obj["representatives"][0]["ambient"]
    assert rows and rows.count(dim) == calls


def test_model_lie(tmp_path, capsys):
    repf = tmp_path / "rep.json"
    latf = tmp_path / "lat.json"
    repf.write_text(json.dumps({"type": "A", "rank": 1, "hw": [1]}))
    latf.write_text(Lattice([[1, 0], [0, 2]]).to_json())
    code, out, _ = run(["model", "lie", "--rep", str(repf), "--lattice", str(latf)], capsys)
    assert code == 0
    obj = json.loads(out)
    assert "invariants" in obj and "model" in obj


ROOT = Path(__file__).resolve().parent.parent


def run_child(args, timeout=60, stdout=subprocess.PIPE, preexec_fn=None):
    """A fresh interpreter on this checkout's src/, as the benchmark runs the CLI."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    return subprocess.run(
        [sys.executable] + args, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=timeout, preexec_fn=preexec_fn
    )


@pytest.mark.parametrize("name, index", [("A2_11", 0), ("C2_10", 0)])
def test_model_lie_former_stalls(name, index, tmp_path):
    # Two benchmark pool lattices on which `model lie` never finished
    # while the Smith form was taken with unbounded entries, run as the
    # benchmark runs them: a fresh `python -m latmod.cli` process.
    pool = json.loads((ROOT / "perfbench" / "data" / "model_lie_pool.json").read_text())
    entry = pool["reps"][name]
    record = entry["lattices"][index]
    assert not record["finished"]
    repf = tmp_path / "rep.json"
    latf = tmp_path / "lat.json"
    repf.write_text(json.dumps(entry["descriptor"]))
    latf.write_text(json.dumps(record["lattice"]))
    argv = ["model", "lie", "--rep", str(repf), "--lattice", str(latf)]
    proc = run_child(["-m", "latmod.cli"] + argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["invariants"] == record["divisors"]


POOL_MODEL_LIE = """
import sys
import latmod.cli
code = latmod.cli.main(["model", "lie", "--rep", sys.argv[1], "--lattice", sys.argv[2]])
sys.stderr.write(repr([code, "fractions" in sys.modules]))
"""


@pytest.mark.parametrize("name", ["A2_10", "C2_10"])
def test_model_lie_on_a_finished_pool_lattice(name, tmp_path):
    # The first finished A2 (1,0) and C2 (1,0) lattice of the benchmark
    # pool, in files written as json.dumps writes them: `model lie` gives
    # the recorded divisors and imports no fractions, the lattice being
    # integral.
    entry = json.loads((ROOT / "perfbench" / "data" / "model_lie_pool.json").read_text())["reps"][name]
    record = next(r for r in entry["lattices"] if r["finished"])
    repf, latf = tmp_path / "rep.json", tmp_path / "lat.json"
    repf.write_text(json.dumps(entry["descriptor"]))
    latf.write_text(json.dumps(record["lattice"]))
    proc = run_child(["-c", POOL_MODEL_LIE, str(repf), str(latf)])
    assert proc.stderr == repr([0, False])
    assert json.loads(proc.stdout)["invariants"] == record["divisors"]


def test_case_classgroup(capsys):
    code, out, _ = run(["case", "classgroup", "--disc", "-20"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["disc"] == -20 and obj["orbit_count"] == 2


# Representatives' bases at D = -95 and D = -119, in output order, as the
# pairwise scaling search printed them.
CLASSGROUP_REPRESENTATIVES = {
    -95: [
        [["1", "0"], ["0", "1"]],
        [["2", "0"], ["0", "1"]],
        [["1", "0"], ["1", "2"]],
        [["3", "0"], ["0", "1"]],
        [["1", "0"], ["2", "3"]],
        [["4", "0"], ["0", "1"]],
        [["1", "0"], ["3", "4"]],
        [["5", "0"], ["0", "1"]],
    ],
    -119: [
        [["1", "0"], ["0", "1"]],
        [["2", "0"], ["0", "1"]],
        [["1", "0"], ["1", "2"]],
        [["3", "0"], ["0", "1"]],
        [["1", "0"], ["2", "3"]],
        [["1", "0"], ["1", "4"]],
        [["2", "0"], ["1", "2"]],
        [["5", "0"], ["0", "1"]],
        [["1", "0"], ["4", "5"]],
        [["2", "0"], ["1", "3"]],
    ],
}


@pytest.mark.parametrize("t, r, hw", [("D", 4, (0, 0, 1, 1)), ("B", 4, (0, 0, 0, 2))])
def test_large_rep_build_writes_the_pinned_representation(t, r, hw, capsys):
    # The report of the CLI is the representation whose digest is pinned.
    (digest,) = [d for pt, pr, phw, d in PINNED if (pt, pr, phw) == (t, r, hw)]
    code, out, _ = run(["rep", "build", "--type", t, "--rank", str(r), "--hw", ",".join(map(str, hw))], capsys)
    assert code == 0
    assert hashlib.sha256(json.dumps(json.loads(out), sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize("disc", sorted(CLASSGROUP_REPRESENTATIVES))
def test_case_classgroup_output_pinned(disc, capsys):
    code, out, _ = run(["case", "classgroup", "--disc", str(disc)], capsys)
    assert code == 0
    bases = CLASSGROUP_REPRESENTATIVES[disc]
    assert json.loads(out) == {
        "disc": disc,
        "orbit_count": len(bases),
        "representatives": [{"ambient": 2, "basis": b, "ring": "Z"} for b in bases],
    }


def test_case_pgl2(capsys):
    code, out, _ = run(["case", "pgl2"], capsys)
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_deterministic_output(capsys):
    argv = ["orbits", "--type", "A", "--rank", "1", "--hw", "3", "--p", "2"]
    _, out1, _ = run(argv, capsys)
    _, out2, _ = run(argv, capsys)
    assert out1 == out2


def test_out_flag(tmp_path, capsys):
    dest = tmp_path / "out.json"
    code, out, _ = run(
        ["rep", "build", "--type", "A", "--rank", "1", "--hw", "1", "--out", str(dest)],
        capsys,
    )
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["dim"] == 2


def test_pretty_flag(capsys):
    code, out, _ = run(["case", "classgroup", "--disc", "-4", "--pretty"], capsys)
    assert code == 0
    assert "orbit_count" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = run(["frobnicate"], capsys)
    assert code == 1


def test_validation_error_exits_1(capsys):
    code, _, err = run(["rep", "build", "--type", "A", "--rank", "1", "--hw", "-2"], capsys)
    assert code == 1
    assert "error" in err


def test_unsupported_rank_exits_1(capsys):
    code, _, err = run(["rep", "build", "--type", "D", "--rank", "9", "--hw", "1,0,0,0,0,0,0,0,0"], capsys)
    assert code == 1


def test_nonfundamental_disc_exits_0(capsys):
    # -12 = 2²·(-3): the order Z[sqrt(-3)] has one class, its own.
    code, out, err = run(["case", "classgroup", "--disc", "-12"], capsys)
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert (obj["disc"], obj["orbit_count"]) == (-12, 1)
    assert [Lattice.from_json_obj(x) for x in obj["representatives"]] == [Lattice([[1, 0], [0, 1]])]


@pytest.mark.parametrize("disc", ["-1", "-5", "-6"])
def test_disc_of_no_order_exits_1(disc, capsys):
    code, out, err = run(["case", "classgroup", "--disc", disc], capsys)
    assert (code, out) == (1, "")
    assert err == "error: expected a negative discriminant = 0,1 mod 4\n"


@pytest.mark.parametrize("disc", ["5", "0"])
def test_non_negative_disc_exits_1(disc, capsys):
    code, out, err = run(["case", "classgroup", "--disc", disc], capsys)
    assert (code, out) == (1, "")
    assert "only negative discriminants" in err and "out of scope" not in err


def test_bad_prime_exits_1_before_building(monkeypatch, capsys):
    def fail(args):
        raise AssertionError("representation built before --p was checked")

    monkeypatch.setattr(cli, "_build_rep", fail)
    for argv in (
        ["orbits", "--type", "A", "--rank", "1", "--hw", "2", "--p", "4"],
        ["sandwich", "--type", "A", "--rank", "1", "--hw", "2", "--p", "1"],
        ["lattice", "dist", "--p", "x", "--a", "a.json", "--b", "b.json"],
    ):
        code, _, err = run(argv, capsys)
        assert code == 1
        assert "prime must be prime" in err


MULTIPLICITY_ERROR = "error: orbit grouping implemented for multiplicity-free blocks only\n"


@pytest.mark.parametrize("t, r, hw", [("A", "2", "1,1"), ("C", "2", "1,1"), ("B", "3", "0,1,0"), ("B", "4", "0,2,0,0")])
def test_weight_multiplicity_exits_1_before_building(t, r, hw, monkeypatch, capsys):
    # The weights of the irreducible are read off its highest weight, so a
    # weight of multiplicity > 1 is refused without building it.
    monkeypatch.setattr(reps, "build_irrep", lambda *a: pytest.fail("built a representation"))
    argv = ["orbits", "--type", t, "--rank", r, "--hw", hw, "--p", "2"]
    assert run(argv, capsys) == (1, "", MULTIPLICITY_ERROR)


def test_weight_multiplicity_child_exits_1_within_a_second():
    # B4 (0,1,1,0), of dimension 1,650 under the entry cap, took 13.5 s to
    # build before it was refused.
    start = time.perf_counter()
    proc = run_child(["-m", "latmod.cli", "orbits", "--type", "B", "--rank", "4", "--hw", "0,1,1,0", "--p", "2"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", MULTIPLICITY_ERROR)
    assert time.perf_counter() - start < 1


def test_capped_orbit_report_child_exits_1_within_two_seconds():
    # A1 (400), dimension 401, is built before the cap refuses its report;
    # Sym^400 took 4.9 s while each generator acted at all 400 positions
    # of each index tuple.
    start = time.perf_counter()
    proc = run_child(["-m", "latmod.cli", "orbits", "--type", "A", "--rank", "1", "--hw", "400", "--p", "2"])
    cap = reps.REPORT_ENTRY_CAP
    msg = "error: the report has more than the %d classes of dimension %d that the cap of %d basis entries admits\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", msg % (cap // 401**2, 401, cap))
    assert time.perf_counter() - start < 2


def test_orbit_report_past_the_recursion_limit_child_exits_1_with_the_cap_line():
    # A1 (990) has 991 coordinates, and a search that nested one frame per
    # coordinate exited 1 with "maximum recursion depth exceeded".
    proc = run_child(["-m", "latmod.cli", "orbits", "--type", "A", "--rank", "1", "--hw", "990", "--p", "2"])
    cap = reps.REPORT_ENTRY_CAP
    msg = "error: the report has more than the %d classes of dimension %d that the cap of %d basis entries admits\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", msg % (cap // 991**2, 991, cap))


@pytest.mark.parametrize("hw", ["1,2", "-1"])
def test_highest_weight_is_refused_by_one_check_before_building(hw, monkeypatch, tmp_path, capsys):
    # A weight of the wrong length or with a negative coordinate, given as
    # --hw of rep build, sandwich and orbits or in a model lie spec, is
    # refused by reps.dominant with one message, before any build.
    monkeypatch.setattr(reps, "build_irrep", lambda *a: pytest.fail("built a representation"))
    flags = ["--type", "A", "--rank", "1", "--hw", hw]
    repf = tmp_path / "rep.json"
    repf.write_text(json.dumps({"type": "A", "rank": 1, "hw": [int(x) for x in hw.split(",")]}))
    lat = tmp_path / "lat.json"
    lat.write_text(Lattice([[1, 0], [0, 1]]).to_json())
    for argv in (
        ["rep", "build"] + flags,
        ["sandwich"] + flags + ["--p", "2"],
        ["orbits"] + flags + ["--p", "2"],
        ["model", "lie", "--rep", str(repf), "--lattice", str(lat)],
    ):
        assert run(argv, capsys) == (1, "", "error: highest weight must be a dominant integer vector\n"), argv


def _built(argv, monkeypatch, capsys):
    """The exit code, stdout and stderr of one request, and the number of
    each of RootSystem and ChevalleyBasis it constructs, counted on empty
    caches of rootdata.root_system and rootdata.build_chevalley."""
    built = Counter()

    def counting(init):
        def wrapper(self, *args):
            built[type(self).__name__] += 1
            init(self, *args)

        return wrapper

    with monkeypatch.context() as m:
        for cls in (rootdata.RootSystem, rootdata.ChevalleyBasis):
            m.setattr(cls, "__init__", counting(cls.__init__))
        m.setattr(rootdata, "root_system", lru_cache(maxsize=None)(rootdata.RootSystem))
        m.setattr(rootdata, "build_chevalley", lru_cache(maxsize=None)(rootdata.build_chevalley.__wrapped__))
        return run(argv, capsys), built


def test_refusals_come_before_the_chevalley_basis(monkeypatch, tmp_path, capsys):
    # Each refusal of a representation request reads the root system
    # alone: a weight that is not dominant, a report past the entry cap, a
    # weight multiplicity and a model lie lattice in the wrong space.  A
    # refused request builds no Chevalley basis and exits as it did; a
    # request that succeeds builds one root system and one basis.
    spec, lat2, lat3 = tmp_path / "spec.json", tmp_path / "lat2.json", tmp_path / "lat3.json"
    spec.write_text(json.dumps({"type": "A", "rank": 1, "hw": [2]}))
    lat2.write_text(Lattice([[1, 0], [0, 1]]).to_json())
    lat3.write_text(Lattice([[1, 0, 0], [0, 2, 0], [0, 0, 1]]).to_json())
    dominant = "error: highest weight must be a dominant integer vector\n"
    cap = "error: the report of dimension 1980 with 36 generators has 141134400 action entries, more than the cap of %d\n"
    refused = [
        ("rep build --type B --rank 4 --hw 0,0,0,-1", dominant),
        ("sandwich --type A --rank 2 --hw 1,-1 --p 2", dominant),
        ("orbits --type C --rank 3 --hw=-1,0,0 --p 2", dominant),
        ("rep build --type B --rank 4 --hw 0,0,2,0", cap % reps.REPORT_ENTRY_CAP),
        ("orbits --type B --rank 4 --hw 0,1,1,0 --p 2", MULTIPLICITY_ERROR),
        ("model lie --rep %s --lattice %s" % (spec, lat2), "error: lattice lives in the wrong space\n"),
    ]
    for argv, err in refused:
        assert _built(argv.split(), monkeypatch, capsys) == ((1, "", err), {"RootSystem": 1}), argv
    for argv in (
        "rep build --type A --rank 2 --hw 1,1",
        "sandwich --type A --rank 1 --hw 2 --p 2",
        "orbits --type B --rank 2 --hw 1,0 --p 2",
        "model lie --rep %s --lattice %s" % (spec, lat3),
    ):
        (code, _, err), built = _built(argv.split(), monkeypatch, capsys)
        assert (code, err, built) == (0, "", {"RootSystem": 1, "ChevalleyBasis": 1}), argv


def test_ragged_lattice_file_exits_1(tmp_path, capsys):
    # zip(*rows) would silently drop the third entry of the first row.
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"ambient": 2, "ring": "Z", "basis": [["1", "0", "5"], ["0", "1"]]}))
    good = tmp_path / "good.json"
    good.write_text(Lattice([[1, 0], [0, 1]]).to_json())
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"type": "A", "rank": 1, "hw": [1]}))
    for argv in (
        ["lattice", "dist", "--p", "2", "--a", str(ragged), "--b", str(good)],
        ["lattice", "dist", "--p", "2", "--a", str(good), "--b", str(ragged)],
        ["model", "lie", "--rep", str(rep), "--lattice", str(ragged)],
    ):
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err == "error: ragged basis rows\n"


def test_misshapen_input_files_exit_1(tmp_path, capsys):
    # A scalar where the file format has a list (or a list where it has an
    # entry) is refused where the file is read, not met later as a
    # TypeError.
    good = tmp_path / "good.json"
    good.write_text(Lattice([[1, 0], [0, 1]]).to_json())
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"type": "A", "rank": 1, "hw": [1]}))
    spec_error = 'error: representation spec must be {"type": ..., "rank": ..., "hw": [...]}\n'
    basis_error = "error: basis must be a list of rows of entries\n"
    cases = [
        ({"type": "A", "rank": 1, "hw": 2}, None, spec_error),
        ({"type": ["A"], "rank": 1, "hw": [1]}, None, spec_error),
        ({"type": "A", "rank": [1], "hw": [1]}, None, spec_error),
        ({"type": "A", "rank": 1, "hw": [[1]]}, None, spec_error),
        ([1], None, spec_error),
        (None, {"ambient": 2, "ring": "Z", "basis": 5}, basis_error),
        (None, {"ambient": 2, "ring": "Z", "basis": [5, 6]}, basis_error),
        (None, {"ambient": 2, "ring": "Z", "basis": [["1", "0"], ["0", None]]}, basis_error),
        (None, {"ambient": 2, "ring": 2, "basis": [["1", "0"], ["0", "1"]]}, 'error: ring must be "Z" or {"Zp": p}\n'),
        (None, [["1", "0"], ["0", "1"]], "error: a lattice file holds one object\n"),
    ]
    for spec, lattice, message in cases:
        repf, latf = rep, good
        if spec is not None:
            repf = tmp_path / "bad_rep.json"
            repf.write_text(json.dumps(spec))
        if lattice is not None:
            latf = tmp_path / "bad_lattice.json"
            latf.write_text(json.dumps(lattice))
            code, out, err = run(["lattice", "dist", "--p", "2", "--a", str(latf), "--b", str(good)], capsys)
            assert (code, out, err) == (1, "", message), lattice
        code, out, err = run(["model", "lie", "--rep", str(repf), "--lattice", str(latf)], capsys)
        assert (code, out, err) == (1, "", message), (spec, lattice)


SPEC_ERROR = 'error: representation spec must be {"type": ..., "rank": ..., "hw": [...]}\n'
I2 = [["1", "0"], ["0", "1"]]


def lattice_file_errors(tmp_path, capsys, text):
    """The (code, stdout, stderr) of lattice dist and model lie on a
    lattice file holding text; good.json and rep.json in tmp_path are
    the good lattice and rep files they are run with."""
    good = tmp_path / "good.json"
    good.write_text(Lattice([[1, 0], [0, 1]]).to_json())
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"type": "A", "rank": 1, "hw": [1]}))
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    return [
        run(["lattice", "dist", "--p", "2", "--a", str(bad), "--b", str(good)], capsys),
        run(["model", "lie", "--rep", str(rep), "--lattice", str(bad)], capsys),
    ]


@pytest.mark.parametrize(
    "lattice, message",
    [
        ({"ring": "Z", "basis": I2}, "lattice file lacks the field 'ambient'"),
        ({"ambient": 2, "basis": I2}, "lattice file lacks the field 'ring'"),
        ({"ambient": 2, "ring": "Z"}, "lattice file lacks the field 'basis'"),
        ({}, "lattice file lacks the field 'ambient', 'ring', 'basis'"),
        ({"ambient": "2", "ring": "Z", "basis": I2}, 'ambient must be a positive integer, not "2"'),
        ({"ambient": 2.0, "ring": "Z", "basis": I2}, "ambient must be a positive integer, not 2.0"),
        ({"ambient": 0, "ring": "Z", "basis": []}, "ambient must be a positive integer, not 0"),
        ({"ambient": [2], "ring": "Z", "basis": I2}, "ambient must be a positive integer, not [2]"),
        ({"ambient": 3, "ring": "Z", "basis": I2}, "basis has 2 rows, ambient is 3"),
        ({"ambient": 2, "ring": {"Zp": "abc"}, "basis": I2}, 'Zp must be an integer, not "abc"'),
    ],
)
def test_lattice_file_names_the_bad_field(lattice, message, tmp_path, capsys):
    # A missing field or a mistyped ambient is named where the file is
    # read, not met later as a KeyError or as ragged generators.
    for result in lattice_file_errors(tmp_path, capsys, json.dumps(lattice)):
        assert result == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize(
    "lattice, message",
    [
        ({"ambient": True, "ring": "Z", "basis": [["1"]]}, "ambient must be a positive integer, not true"),
        ({"ambient": 2, "ring": "Z", "basis": [[1, True], [0, 1]]}, "basis must be a list of rows of entries"),
        ({"ambient": 2, "ring": {"Zp": True}, "basis": I2}, 'ring must be "Z" or {"Zp": p}'),
    ],
)
def test_booleans_are_not_integers_in_lattice_files(lattice, message, tmp_path, capsys):
    # JSON true is not the integer 1 (Python's bool is an int).
    for result in lattice_file_errors(tmp_path, capsys, json.dumps(lattice)):
        assert result == (1, "", "error: %s\n" % message)


# Texts json.loads rejects (malformed, nested past the recursion limit,
# an integer past int's digit limit) or reads as a value that is not an
# object (a float, a list, NaN, a string holding a control character).
BAD_JSON = [
    "01",
    "-01",
    "00",
    "1.0",
    "[-0.5e-3]",
    "1e3",
    "\x0c1",
    "[1,\u00a02]",
    "-",
    "[-]",
    "[1,]",
    "[1 2]",
    '{"a" 1}',
    '{"a": 1,}',
    "{1: 2}",
    '"\\u0001"',
    '"\u0001"',
    '"open',
    "NaN",
    "tru",
    "﻿[]",
    "[1] 2",
    "{}x",
    "",
    " \n",
    "[" * 100_000,
    "1" * 5000,
]


@pytest.mark.parametrize("text", BAD_JSON, ids=range(len(BAD_JSON)))
def test_bad_json_input_files_exit_1(text, tmp_path, capsys):
    # Each text, written raw as a lattice file of lattice dist and model
    # lie and as the rep file of model lie, exits 1 with one error line:
    # json.loads's own message where it refuses the text, the shape the
    # file needs where it reads a value that is not an object.
    try:
        json.loads(text)
    except (ValueError, RecursionError) as e:
        lattice_error = spec_error = "error: %s\n" % e
    else:
        lattice_error, spec_error = "error: a lattice file holds one object\n", SPEC_ERROR
    assert lattice_error.count("\n") == spec_error.count("\n") == 1
    assert lattice_file_errors(tmp_path, capsys, text) == [(1, "", lattice_error)] * 2
    repf = tmp_path / "bad_rep.json"
    repf.write_text(text)
    argv = ["model", "lie", "--rep", str(repf), "--lattice", str(tmp_path / "good.json")]
    assert run(argv, capsys) == (1, "", spec_error)


def _escaped(obj):
    """The JSON of obj indented by tabs, with \\r\\n line ends and every
    character of every string written as a \\u escape."""
    text = json.dumps(obj, indent="\t")
    text = re.sub(r'"([^"]*)"', lambda m: '"%s"' % "".join("\\u%04x" % ord(c) for c in m.group(1)), text)
    return text.replace("\n", "\r\n")


def test_escaped_input_files_read_as_plain_ones(tmp_path, capsys):
    # A lattice and a descriptor (its rank and weight as digit strings)
    # written with escapes, tabs and CRLF line ends give the report that
    # their plain files give.
    entry = json.loads((ROOT / "perfbench" / "data" / "model_lie_pool.json").read_text())["reps"]["C2_10"]
    d = entry["descriptor"]
    spec = {"type": d["type"], "rank": str(d["rank"]), "hw": [str(x) for x in d["hw"]]}
    lattice = entry["lattices"][0]["lattice"]
    other = Lattice([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 4, 0], [0, 0, 0, 1]]).to_json_obj()
    files = {}
    for name, obj in (("rep", spec), ("lat", lattice), ("other", other)):
        for form, text in (("plain", json.dumps(obj)), ("escaped", _escaped(obj))):
            files[name, form] = tmp_path / ("%s_%s.json" % (name, form))
            files[name, form].write_bytes(text.encode())
    assert "\\u0031" in files["lat", "escaped"].read_text() and "\\u0031" in files["rep", "escaped"].read_text()
    for argv in (
        ["lattice", "dist", "--p", "2", "--a", "lat", "--b", "other"],
        ["model", "lie", "--rep", "rep", "--lattice", "lat"],
    ):
        plain, escaped = [
            run([str(files[a, form]) if (a, form) in files else a for a in argv], capsys) for form in ("plain", "escaped")
        ]
        assert plain[0] == 0 and plain == escaped, argv


@pytest.mark.parametrize(
    "spec",
    [
        {"type": "A", "rank": True, "hw": [True]},
        {"type": "A", "rank": True, "hw": [1]},
        {"type": "A", "rank": 1, "hw": [True]},
        {"type": "A", "rank": 2, "hw": [1, False]},
    ],
)
def test_booleans_are_not_integers_in_rep_specs(spec, tmp_path, capsys):
    lat = tmp_path / "lat.json"
    lat.write_text(Lattice([[1, 0], [0, 1]]).to_json())
    repf = tmp_path / "rep.json"
    repf.write_text(json.dumps(spec))
    assert run(["model", "lie", "--rep", str(repf), "--lattice", str(lat)], capsys) == (1, "", SPEC_ERROR)


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"type": "A", "rank": "x", "hw": [1]}, 'rank must be an integer, not "x"'),
        ({"type": "A", "rank": 1, "hw": ["y"]}, 'hw entry must be an integer, not "y"'),
    ],
)
def test_rep_spec_names_the_bad_field(spec, message, tmp_path, capsys):
    lat = tmp_path / "lat.json"
    lat.write_text(Lattice([[1, 0], [0, 1]]).to_json())
    repf = tmp_path / "rep.json"
    repf.write_text(json.dumps(spec))
    assert run(["model", "lie", "--rep", str(repf), "--lattice", str(lat)], capsys) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("t, r, hw", [("B", "3", "0,0,1"), ("B", "4", "0,0,0,1"), ("D", "4", "0,0,1,0"), ("D", "4", "0,0,0,1")])
def test_unreachable_weight_exits_1(t, r, hw, capsys):
    # Spin weights lie in no tensor power of the defining realization.
    code, out, err = run(["rep", "build", "--type", t, "--rank", r, "--hw", hw], capsys)
    assert (code, out, err) == (1, "", "error: highest weight (%s) is not reachable in this realization\n" % hw)


def test_unreachable_weight_child_exits_1_within_a_second():
    # D3 (0,2,3) is no sum of one weight per factor of Λ²^2 ⊗ Λ³^3; it took
    # 4.8 s to enumerate that ambient before it was refused.
    start = time.perf_counter()
    proc = run_child(["-m", "latmod.cli", "rep", "build", "--type", "D", "--rank", "3", "--hw", "0,2,3"])
    msg = "error: highest weight (0,2,3) is not reachable in this realization\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", msg)
    assert time.perf_counter() - start < 1


def test_ambient_past_the_cap_child_exits_1_within_seconds():
    # D4 (0,0,0,4) has dimension 294, a report the entry cap admits, and
    # its weight is reachable, but its ambient (Λ⁴)^⊗4 has 70⁴ =
    # 24,010,000 index tuples: it is refused by the ambient cap before
    # its psi weight space is listed.
    start = time.perf_counter()
    proc = run_child(["-m", "latmod.cli", "rep", "build", "--type", "D", "--rank", "4", "--hw", "0,0,0,4"])
    msg = "error: highest weight (0,0,0,4) has an ambient of 24010000 index tuples, more than the cap of %d\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", msg % reps.AMBIENT_TUPLE_CAP)
    assert time.perf_counter() - start < 2


def test_prime_past_the_primality_bound_exits_1(capsys):
    from latmod.exact import PRIME_BOUND

    code, _, err = run(["orbits", "--type", "A", "--rank", "1", "--hw", "2", "--p", str(PRIME_BOUND)], capsys)
    assert code == 1
    assert err.endswith("error: argument --p: primality is decided only below %d\n" % PRIME_BOUND)


def test_unwritable_out_exits_1(tmp_path):
    # --out is written inside the error handler: a missing directory or a
    # directory as the file prints one error line, no traceback.
    for out, reason in ((tmp_path / "missing" / "x.json", "No such file or directory"), (tmp_path, "Is a directory")):
        proc = run_child(["-m", "latmod.cli", "case", "classgroup", "--disc", "-4", "--out", str(out)])
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and reason in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1


def test_huge_disc_is_refused_before_trial_division():
    # The limit on |D| comes before any work: the ideal loop runs to a norm
    # bound of about sqrt|D|, which would not end for this D (= 1 mod 4).
    disc = -(10**30) - 3
    proc = run_child(["-m", "latmod.cli", "case", "classgroup", "--disc", str(disc)], timeout=20)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: |D| = %d exceeds the supported limit 100000\n" % -disc


def test_zero_denominator_in_lattice_file_exits_1(tmp_path):
    # Fraction("1/0") raises ZeroDivisionError; the file reader refuses the
    # entry as a lattice error, so both commands that read lattice files
    # print one error line and no traceback.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"ambient": 2, "ring": "Z", "basis": [["1/0", "0"], ["0", "1"]]}))
    good = tmp_path / "good.json"
    good.write_text(Lattice([[1, 0], [0, 1]]).to_json())
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"type": "A", "rank": 1, "hw": [1]}))
    for args in (
        ["lattice", "dist", "--p", "2", "--a", str(good), "--b", str(bad)],
        ["model", "lie", "--rep", str(rep), "--lattice", str(bad)],
    ):
        proc = run_child(["-m", "latmod.cli"] + args)
        assert proc.returncode == 1 and proc.stdout == "", args
        assert proc.stderr == "error: basis entry with a zero denominator\n", proc.stderr


def test_deeply_nested_input_files_exit_1(tmp_path):
    # json.loads raises RecursionError on a file nested past the recursion
    # limit, a rep spec's hw or a lattice 100,000 deep (Python 3.13's json
    # parses a 5,000-deep array); both commands that read input files print
    # one error line and no traceback.
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"type": "A", "rank": 1, "hw": [1]}))
    deep_rep = tmp_path / "deep_rep.json"
    deep_rep.write_text('{"type": "A", "rank": 1, "hw": %s}' % ("[" * 100_000 + "]" * 100_000))
    deep_lat = tmp_path / "deep_lat.json"
    deep_lat.write_text("[" * 100_000 + "]" * 100_000)
    good = tmp_path / "good.json"
    good.write_text(Lattice([[1, 0], [0, 1]]).to_json())
    for args in (
        ["model", "lie", "--rep", str(deep_rep), "--lattice", str(good)],
        ["model", "lie", "--rep", str(rep), "--lattice", str(deep_lat)],
        ["lattice", "dist", "--p", "2", "--a", str(good), "--b", str(deep_lat)],
    ):
        proc = run_child(["-m", "latmod.cli"] + args)
        assert proc.returncode == 1 and proc.stdout == "", args
        assert proc.stderr.startswith("error: maximum recursion depth exceeded"), proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr


def test_missing_file_exits_1(tmp_path, capsys):
    code, _, _ = run(
        ["lattice", "dist", "--p", "2", "--a", str(tmp_path / "no.json"), "--b", str(tmp_path / "no.json")],
        capsys,
    )
    assert code == 1


# stdout and exit codes of a fixed command set, recorded from the CLI
# before the canonicaliser and coordinate-solver merges (`orbits` A2
# (2,0) and a local `lattice dist` before lattices were stored as
# integer columns, `sandwich` B3 (0,1,0) before the sandwich lattices
# were walked down the weights, `orbits` A1 hw 4 at p = 2 while every
# lattice of the sandwich was enumerated, over a minute); every later
# change must reproduce them byte for byte.  "<name>" in an argv is the
# path of the input file of that name, written to tmp_path.
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text())


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=[" ".join(c["argv"]) for c in GOLDEN["cases"]]
)
def test_golden_cli_output(case, tmp_path, capsys):
    for name, obj in GOLDEN["inputs"].items():
        (tmp_path / name).write_text(json.dumps(obj))
    argv = [str(tmp_path / a[1:-1]) if a.startswith("<") else a for a in case["argv"]]
    code, out, _ = run(argv, capsys)
    assert code == case["exit_code"]
    assert out.encode() == case["stdout"].encode()


# Exit codes of the argparse front end that the command table replaced,
# recorded from it; "<out>" is a file in tmp_path.
REP_A1 = ["--type", "A", "--rank", "1", "--hw", "2"]
PINNED_EXIT_CODES = [
    ([], 1),
    (["frobnicate"], 1),
    (["orb"], 1),
    (["--pretty"], 1),
    (["rep"], 1),
    (["case"], 1),
    (["rep", "bulid"], 1),
    (["rep", "build", "--type", "A", "--rank", "1"], 1),
    (["orbits", "--type", "A", "--rank", "1", "--hw", "2"], 1),
    (["case", "classgroup"], 1),
    (["case", "pgl2", "--bogus"], 1),
    (["case", "pgl2", "extra"], 1),
    (["case", "pgl2", "--"], 1),
    (["case", "classgroup", "-95"], 1),
    (["case", "classgroup", "--disc"], 1),
    (["rep", "build", "--type", "A", "--rank", "1", "--hw"], 1),
    (["rep", "build", "--type", "A", "--rank", "--hw", "2"], 1),
    (["case", "classgroup", "--disc", "-x"], 1),
    (["rep", "build", "--type", "E", "--rank", "1", "--hw", "2"], 1),
    (["rep", "build", "--type", "A", "--rank", "x", "--hw", "2"], 1),
    (["case", "classgroup", "--disc", "x"], 1),
    (["orbits"] + REP_A1 + ["--p", "4"], 1),
    (["orbits", "--p", "4"], 1),
    (["case", "pgl2", "--pretty=1"], 1),
    (["orbits", "--h"], 1),
    (["orbits", "--type", "E", "--help"], 1),
    (["rep", "build", "--type=A", "--rank", "1", "--hw", "2"], 0),
    (["rep", "build", "--ty", "A", "--ra=1", "--hw", "2"], 0),
    (["rep", "build", "--type", "A", "--rank", "1", "--hw", "1", "--hw", "2"], 0),
    (["case", "classgroup", "--disc", "-95"], 0),
    (["case", "classgroup", "--disc=-95"], 0),
    (["case", "classgroup", "--pretty", "--out", "<out>", "--disc", "-4"], 0),
    (["case", "pgl2", "--pr"], 0),
    (["orbits"] + REP_A1 + ["--p", "2", "--p", "3"], 0),
    (["sandwich", "--p", "2"] + REP_A1, 0),
    (["--help"], 0),
    (["-h"], 0),
    (["--he"], 0),
    (["rep", "--help"], 0),
    (["rep", "build", "-h"], 0),
    (["orbits", "--help"], 0),
    (["orbits", "--help", "--type", "E"], 0),
    (["model", "lie", "--help"], 0),
    (["lattice", "dist", "--help"], 0),
    (["case", "classgroup", "--help"], 0),
]


@pytest.mark.parametrize("argv, code", PINNED_EXIT_CODES, ids=[" ".join(a) or "<empty>" for a, _ in PINNED_EXIT_CODES])
def test_argument_handling_pinned(argv, code, tmp_path, capsys):
    argv = [str(tmp_path / "out.json") if a == "<out>" else a for a in argv]
    got, out, err = run(argv, capsys)
    assert got == code, err
    if code:
        assert out == "" and "error: " in err


def test_usage_error_before_help_exits_1(capsys):
    # The one departure from argparse: it set an unrecognized word aside
    # and still printed help for a later --help (exit 0), and failed on an
    # ambiguous prefix anywhere in argv; flags are now read in order, and
    # the first usage error or help ends the parse.
    for argv, code in (
        (["case", "pgl2", "--bogus", "--help"], 1),
        (["--bogus", "--help"], 1),
        (["orbits", "--help", "--h"], 0),
    ):
        assert run(argv, capsys)[0] == code, argv


def test_flag_forms_read_as_argparse_read_them(tmp_path, capsys):
    def obj(argv):
        code, out, err = run(argv, capsys)
        assert code == 0, err
        return json.loads(out)

    for argv in (
        ["rep", "build", "--type=A", "--rank", "1", "--hw", "2"],
        ["rep", "build", "--ty", "A", "--ra=1", "--hw", "2"],
        ["rep", "build", "--type", "A", "--rank", "1", "--hw", "1", "--hw", "2"],  # the last wins
    ):
        assert obj(argv)["dim"] == 3
    assert obj(["case", "classgroup", "--disc", "-95"])["orbit_count"] == 8
    assert obj(["case", "classgroup", "--disc=-95"])["orbit_count"] == 8
    ring = obj(["orbits"] + REP_A1 + ["--p", "2", "--p", "3"])["representatives"][0]["ring"]
    assert ring == {"Zp": 3}
    dest = tmp_path / "out.txt"
    code, out, _ = run(["case", "classgroup", "--pretty", "--out", str(dest), "--disc", "-4"], capsys)
    assert code == 0 and out == ""
    assert "orbit_count" in dest.read_text()


@pytest.mark.parametrize(
    "value, error",
    [
        ("-5", "error: expected a negative discriminant = 0,1 mod 4\n"),
        ("-1.5", "error: argument --disc: invalid literal for int() with base 10: '-1.5'\n"),
        ("-.5", "error: argument --disc: invalid literal for int() with base 10: '-.5'\n"),
        ("-1e3", "error: --disc needs a value\n"),
        ("-1,2", "error: --disc needs a value\n"),
        ("-1 2", "error: argument --disc: invalid literal for int() with base 10: '-1 2'\n"),
        ("-x y", "error: argument --disc: invalid literal for int() with base 10: '-x y'\n"),
        ("--pre tty", "error: argument --disc: invalid literal for int() with base 10: '--pre tty'\n"),
        ("--out=x y", "error: --disc needs a value\n"),
        ("-h x", "error: --disc needs a value\n"),
    ],
    ids=["-5", "-1.5", "-.5", "-1e3", "-1,2", "-1 2", "-x y", "--pre tty", "--out=x y", "-h x"],
)
def test_negative_numbers_read_as_argparse_reads_them(value, error, capsys):
    # argparse reads a word starting with "-" as a flag when it names one
    # (in full, with "=" and a value, by a unique "--" prefix, or "-h" and
    # anything after it), and otherwise as a value when it is a negative
    # number ("-" and digits, or "-", optional digits, "." and digits) or
    # holds a space; any other such word is a flag, so the flag before it
    # has no value.
    code, out, err = run(["case", "classgroup", "--disc", value], capsys)
    assert (code, out) == (1, "")
    assert err.endswith(error) and err.count("error: ") == 1


def test_help_names_every_command_and_flag(capsys):
    code, out, _ = run(["--help"], capsys)
    assert code == 0
    for command, (_, flags, _) in cli.COMMANDS.items():
        assert "latmod " + command in out
        assert all("--" + f in out for f in flags)
    assert all(f in out for f in ("--out", "--pretty", "-h"))
    code, out, _ = run(["orbits", "--help"], capsys)
    assert code == 0
    assert all(f in out for f in ("--type", "--rank", "--hw", "--p", "--out", "--pretty"))
    assert "classgroup" not in out


IMPORT_SCOPE = """
import json, os, sys
before = set(sys.modules)
import latmod.cli
on_import = sorted(set(sys.modules) - before)
latmod.cli.main(["orbits", "--type", "A", "--rank", "1", "--hw", "4", "--p", "3", "--out", os.devnull])
print(json.dumps([on_import, sorted(m for m in sys.modules if m.startswith("latmod"))]))
"""


CLASSGROUP_SCOPE = """
import json, os, sys
import latmod.cli
latmod.cli.main(["case", "classgroup", "--disc", "-95", "--out", os.devnull])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("latmod"))))
"""


REP_BUILD_SCOPE = """
import json, os, sys
import latmod.cli
latmod.cli.main(["rep", "build", "--type", "A", "--rank", "2", "--hw", "1,1", "--out", os.devnull])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("latmod"))))
"""


def test_import_scope():
    # The command table and its converters need only sys; each pipeline is
    # imported by the handler that runs it.  The class-group pipeline needs
    # exact arithmetic only: the Lie and representation modules are
    # imported by the pgl2 report when it runs.
    proc = run_child(["-c", IMPORT_SCOPE])
    assert proc.returncode == 0, proc.stderr
    on_import, after_orbits = json.loads(proc.stdout)
    assert "argparse" not in on_import and "gettext" not in on_import
    assert [m for m in on_import if m.startswith("latmod")] == ["latmod", "latmod.cli"]
    assert "latmod.latconstruct" in after_orbits
    assert "latmod.models" not in after_orbits and "latmod.casestudies" not in after_orbits
    proc = run_child(["-c", CLASSGROUP_SCOPE])
    assert proc.returncode == 0, proc.stderr
    after_classgroup = json.loads(proc.stdout)
    assert "latmod.casestudies" in after_classgroup
    assert not {"latmod.models", "latmod.reps", "latmod.rootdata"} & set(after_classgroup)
    # The package root imports no module of its own, so rep build does not
    # load the lattice kernels.
    proc = run_child(["-c", REP_BUILD_SCOPE])
    assert proc.returncode == 0, proc.stderr
    after_rep_build = json.loads(proc.stdout)
    assert "latmod.reps" in after_rep_build and "latmod.kernels" not in after_rep_build


NO_JSON = """
import os, sys
import latmod.cli
seen = ["json" in sys.modules]
code = latmod.cli.main(["rep", "build", "--type", "A", "--rank", "2", "--hw", "1,1"])
seen.append("json" in sys.modules)
for argv in (
    ["sandwich", "--type", "A", "--rank", "1", "--hw", "4", "--p", "2"],
    ["orbits", "--type", "A", "--rank", "1", "--hw", "4", "--p", "3"],
    ["case", "pgl2"],
):
    code += latmod.cli.main(argv + ["--out", os.devnull])
    seen.append("json" in sys.modules)
sys.stderr.write("%d %s" % (code, seen))
"""


def _pool_files(tmp_path):
    """The descriptor and first lattice of the benchmark pool's C2 (1,0)
    entry, written as json.dumps writes them."""
    entry = json.loads((ROOT / "perfbench" / "data" / "model_lie_pool.json").read_text())["reps"]["C2_10"]
    rep, lat = tmp_path / "rep.json", tmp_path / "lat.json"
    rep.write_text(json.dumps(entry["descriptor"]))
    lat.write_text(json.dumps(entry["lattices"][0]["lattice"]))
    return str(rep), str(lat)


def test_output_path_does_not_import_json():
    # json is imported to read an input file or to write a string that
    # needs an escape: not by the command table, nor by the reports of rep
    # build, the lattice pipelines or case pgl2.
    proc = run_child(["-c", NO_JSON])
    assert proc.stderr == "0 %s" % ([False] * 5)
    assert json.loads(proc.stdout)["dim"] == 8


NO_FRACTIONS = """
import os, sys
import latmod.cli
seen = []
for argv in (
    ["rep", "build", "--type", "A", "--rank", "2", "--hw", "1,1"],
    ["rep", "build", "--type", "C", "--rank", "2", "--hw", "1,1"],
    ["rep", "build", "--type", "C", "--rank", "2", "--hw", "2,1"],
    ["sandwich", "--type", "C", "--rank", "3", "--hw", "1,0,0", "--p", "2"],
    ["sandwich", "--type", "B", "--rank", "3", "--hw", "0,1,0", "--p", "2"],
    ["orbits", "--type", "A", "--rank", "1", "--hw", "4", "--p", "3"],
    ["orbits", "--type", "C", "--rank", "2", "--hw", "0,1", "--p", "2"],
    ["orbits", "--type", "A", "--rank", "2", "--hw", "2,0", "--p", "2"],
    ["case", "classgroup", "--disc", "-119"],
    ["case", "pgl2"],
    ["model", "lie", "--rep", sys.argv[1], "--lattice", sys.argv[2]],
):
    seen.append([latmod.cli.main(argv + ["--out", os.devnull]), "fractions" in sys.modules])
code = latmod.cli.main(["rep", "build", "--type", "B", "--rank", "3", "--hw", "1,0,0"])
seen.append([code, "fractions" in sys.modules])
sys.stderr.write(repr(seen))
"""


def test_integral_requests_do_not_import_fractions(tmp_path):
    # Every action is integers over one denominator, so no representation
    # request makes a Fraction or imports fractions: not types A, C and
    # D, not C2 (2,1), whose adapted action has entries in thirds, nor
    # the sandwich of B3 (0,1,0) and the rep build of B3 (1,0,0), whose
    # actions have entries 1/2 and which write their golden output.
    # Neither does a class group, whose ring and ideals are integral, nor
    # case pgl2, whose Hopf generators and certificates are integral, nor
    # `model lie` on an integral lattice (the first C2 (1,0) lattice of
    # the benchmark pool), whose invariants are written over one
    # denominator.
    proc = run_child(["-c", NO_FRACTIONS, *_pool_files(tmp_path)])
    assert proc.stderr == repr([[0, False]] * 12)
    (golden,) = [c for c in GOLDEN["cases"] if c["argv"] == ["rep", "build", "--type", "B", "--rank", "3", "--hw", "1,0,0"]]
    assert proc.stdout == golden["stdout"]


NO_DENSE_PRODUCTS = """
import contextlib, io, json, sys
from latmod import matrixops


def refuse(name):
    def stub(*args):
        raise RuntimeError("a command ran matrixops." + name)

    return stub


for name in ("mat_vec", "mat_mul", "mat_sub", "bracket", "rref", "mat_inv"):
    setattr(matrixops, name, refuse(name))
import latmod.cli

got = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got.append([latmod.cli.main(argv), out.getvalue()])
print(json.dumps(got))
"""


def test_commands_run_no_dense_product(tmp_path):
    # The dense helpers stay for the benchmark's Lie oracle and tracer
    # only: with each replaced by a stub that raises, before any pipeline
    # module is imported, every golden argv and every pinned exit code
    # comes out as before.
    # "<name>" in an argv is a file in tmp_path: an input, or the --out file.
    for name, obj in GOLDEN["inputs"].items():
        (tmp_path / name).write_text(json.dumps(obj))
    cases = [(c["argv"], c["exit_code"], c["stdout"]) for c in GOLDEN["cases"]]
    cases += [(argv, code, None) for argv, code in PINNED_EXIT_CODES]
    argvs = [[str(tmp_path / a[1:-1]) if a.startswith("<") else a for a in argv] for argv, _, _ in cases]
    proc = run_child(["-c", NO_DENSE_PRODUCTS, json.dumps(argvs)])
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert [code for code, _ in got] == [code for _, code, _ in cases]
    for (argv, _, stdout), (_, out) in zip(cases, got):
        assert stdout is None or out == stdout, argv


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


def test_writer_matches_json_dumps_on_golden_output():
    for case in GOLDEN["cases"]:
        obj = json.loads(case["stdout"])
        assert cli._dump(obj) == dumps(obj), case["argv"]


# Strings the writer hands to json.dumps (a quote, a backslash, control
# characters, DEL, non-ASCII and non-BMP characters) mixed with the
# printable ASCII it writes itself.
SPECIAL = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "/", "\u00e9", "\u2028", "\U0001f600"])
TEXT = st.text(alphabet=st.one_of(SPECIAL, st.characters(min_codepoint=32, max_codepoint=126), st.characters()), max_size=6)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-(10**40), 10**40), TEXT)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4), max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(VALUES)
def test_writer_matches_json_dumps(obj):
    assert cli._dump(obj) == dumps(obj)


def test_writer_on_empty_and_nested_containers():
    for obj in ({}, [], [{}], {"a": []}, [[[]]], {"b": {"a": [None, True, False, -1, 10**30]}}, ['q"uote', "\u00e9"]):
        assert cli._dump(obj) == dumps(obj), obj


def test_module_entry_point_matches_main(tmp_path, capsys, monkeypatch):
    # One argv of each command, an output longer than a pipe buffer (91 KB),
    # an --out file, two usage errors and help, each run as
    # `python -m latmod.cli`, as the `latmod` script runs (its target
    # called under sys.exit, as the generated wrapper does) and through
    # main in-process.  The children's stdout is block-buffered, as in a
    # shell without PYTHONUNBUFFERED, so output left unflushed at exit
    # would be lost.
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    lat = tmp_path / "lat.json"
    lat.write_text(Lattice([[1, 0], [0, 2]]).to_json())
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"type": "A", "rank": 1, "hw": [1]}))
    out_file = tmp_path / "out.json"
    # The function pyproject.toml names as the `latmod` script.
    (entry,) = re.findall(r'^latmod = "latmod\.cli:(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    script = "import sys; from latmod.cli import %s as entry; sys.argv[0] = 'latmod'; sys.exit(entry())" % entry
    for argv in (
        ["rep", "build"] + REP_A1,
        ["lattice", "dist", "--p", "2", "--a", str(lat), "--b", str(lat)],
        ["sandwich"] + REP_A1 + ["--p", "2"],
        ["orbits"] + REP_A1 + ["--p", "3"],
        ["orbits", "--type", "A", "--rank", "1", "--hw", "6", "--p", "2"],
        ["model", "lie", "--rep", str(rep), "--lattice", str(lat)],
        ["case", "pgl2"],
        ["case", "classgroup", "--disc", "-20"],
        ["case", "classgroup", "--disc", "-95", "--out", str(out_file)],
        ["orbits", "--p", "4"],
        ["case", "nope"],
        ["--help"],
    ):
        code, out, err = run(argv, capsys)
        written = out_file.read_text() if out_file.exists() else None
        for child in (["-m", "latmod.cli"], ["-c", script]):
            out_file.unlink(missing_ok=True)
            proc = run_child(child + argv)
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), (child, argv)
            assert (out_file.read_text() if out_file.exists() else None) == written, (child, argv)
        out_file.unlink(missing_ok=True)
    # The A1 hw 6 report is longer than a 64 KiB pipe buffer.
    assert len(run(["orbits", "--type", "A", "--rank", "1", "--hw", "6", "--p", "2"], capsys)[1]) > 2**16


class _ClosedStdout:
    def write(self, text):
        return len(text)

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


def test_run_ends_the_process_with_the_code_of_main(monkeypatch, capsys):
    # run flushes both streams and hands main's code to os._exit, which
    # here records it instead of ending the test process.
    exits = []

    def fake_exit(code):
        exits.append((code, capsys.readouterr()))
        raise SystemExit("os._exit")

    monkeypatch.setattr(os, "_exit", fake_exit)
    for argv, code in ((["case", "classgroup", "--disc", "-20"], 0), (["orbits", "--p", "4"], 1)):
        monkeypatch.setattr(sys, "argv", ["latmod"] + argv)
        with pytest.raises(SystemExit, match="os._exit"):
            cli.run()
        ((got, (out, err)),) = exits
        assert got == code and (out, err) == run(argv, capsys)[1:]
        exits.clear()


def test_run_reports_a_failed_flush_and_exits_1(monkeypatch, capsys):
    # A flush that fails (a closed pipe) ends the process through os._exit
    # with code 1, after main's own output, and an error line on stderr.
    exits = []

    def fake_exit(code):
        exits.append((code, capsys.readouterr().err))
        raise SystemExit("os._exit")

    monkeypatch.setattr(os, "_exit", fake_exit)
    for argv in (["case", "classgroup", "--disc", "-20"], ["orbits", "--p", "4"], ["--help"]):
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        monkeypatch.setattr(sys, "argv", ["latmod"] + argv)
        with pytest.raises(SystemExit, match="os._exit"):
            cli.run()
        ((code, err),) = exits
        assert code == 1 and err == run(argv, capsys)[2] + "error: [Errno 32] Broken pipe\n"
        exits.clear()


@pytest.mark.parametrize("unbuffered", [False, True])
def test_help_to_a_closed_pipe_is_an_error_not_a_traceback(unbuffered, monkeypatch):
    # `latmod --help | true`: the reader of stdout is gone before the help
    # is written.  Help, a short report and one longer than a pipe buffer
    # all exit 1 with one error line: unbuffered or long, main's write
    # fails; buffered and short, the write fails at run's flush.
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    got = []
    long_report = ["orbits", "--type", "A", "--rank", "1", "--hw", "6", "--p", "2"]
    for argv in (["--help"], ["case", "classgroup", "--disc", "-20"], long_report):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_child(["-m", "latmod.cli"] + argv, stdout=write)
        finally:
            os.close(write)
        got.append((proc.returncode, proc.stderr))
    assert got == [(1, "error: [Errno 32] Broken pipe\n")] * 3


def test_main_never_ends_the_process(monkeypatch, capsys):
    # main returns its code, also after help and usage errors: the
    # benchmark's tracing shim calls it and writes its spans afterwards.
    monkeypatch.setattr(os, "_exit", lambda code: pytest.fail("main called os._exit"))
    for argv, code in ((["case", "pgl2"], 0), (["orbits", "--p", "4"], 1), (["--help"], 0)):
        assert main(argv) == code
    capsys.readouterr()
