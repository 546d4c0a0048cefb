"""The names the benchmark in perfbench/ looks up in latmod still resolve.

The traced mode wraps functions by name (perfbench/shim.py), run.py
probes two constants, and the benchmark's oracles import library
functions.  A deleted or renamed name breaks those runs without failing
any other test, so each one is checked here, and one traced request is
run end to end.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src"


def _load_shim():
    spec = importlib.util.spec_from_file_location("perfbench_shim", PERFBENCH / "shim.py")
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    return shim


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def test_shim_names_resolve():
    shim = _load_shim()
    for layer, names in list(shim.SPANNED.items()) + list(shim.AGGREGATED.items()):
        mod = importlib.import_module("latmod." + layer)
        for name in names:
            assert callable(getattr(mod, name, None)), "latmod.%s.%s" % (layer, name)
    assert importlib.import_module("latmod.rootdata").build_chevalley.cache_info().misses >= 0


def _latmod_imports():
    """(module, name) of every `from latmod... import name` in perfbench/."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("latmod"):
                for alias in node.names:
                    yield node.module, alias.name


def test_perfbench_imports_resolve():
    found = list(_latmod_imports())
    assert ("latmod.models", "killing_gram") in found
    for module, name in found:
        assert hasattr(importlib.import_module(module), name), "%s.%s" % (module, name)


def test_run_probe_resolves():
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    probe = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PROBE"]
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_env(), check=True
    )
    info = json.loads(out.stdout)
    assert info["kernel"] == "python" and info["enum_order_cap"] > 0


def test_traced_request_writes_spans(tmp_path):
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "shim.py"), str(spans), "req-1", "--"]
        + ["case", "classgroup", "--disc", "-47"],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["orbit_count"] == 5
    obj = json.loads(spans.read_text())
    assert obj["request"] == "req-1"
    names = {s[1] for s in obj["spans"]}
    assert {"cli.main", "casestudies.class_orbit_count", "casestudies.multiplier_ring"} <= names
