"""src/latmod holds only what a command, the benchmark or the public API
reaches.

Every module-level function, class and constant of src/latmod, and every
method that is not a dunder, must be reached from a root: the module-level
statements of each module (cli.py's `if __name__ == "__main__"` runs every
command), a name the benchmark in perfbench/ looks up (BENCHMARK_NAMES),
or a name kept as public API with a reason (PUBLIC_API).  Oracles and
checks that only tests use live in tests/oracles.py.

Reach is decided by name.  A module-level definition is reached through a
Name in its module, a name bound by `from latmod... import` or an
attribute of a module; a method only through an attribute of its name, on
any object.  Reaching a class reaches its dunder methods, and reaching a
method reaches its class.  This over-approximates: it can keep dead code
alive, but it never fails live code.  An entry of either list that names
no definition fails, and so does a BENCHMARK_NAMES entry that no file of
perfbench/ names, so when the benchmark drops a lookup the test names the
code that goes with it.
"""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "latmod"
SRC = ROOT / "src" / PACKAGE
PERFBENCH = ROOT / "perfbench"

PUBLIC_API = {
    "latmod.exact.Lattice.intersect": "a lattice operation of the library",
    "latmod.exact.Lattice.apply": "a lattice operation of the library (acceptance criterion 8)",
    "latmod.exact.Lattice.to_json": "writes the lattice file format that Lattice.from_json reads",
    "latmod.reps.adapt": "builds reducible representations, which the CLI does not take yet",
    "latmod.reps.direct_sum": "builds reducible representations, which the CLI does not take yet",
    "latmod.reps.tensor_product": "builds reducible representations, which the CLI does not take yet",
}


def _shim_names():
    """The names perfbench/shim.py traces, read from its SPANNED and
    AGGREGATED tables."""
    spec = importlib.util.spec_from_file_location("perfbench_shim", PERFBENCH / "shim.py")
    shim = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(shim)
    tables = list(shim.SPANNED.items()) + list(shim.AGGREGATED.items())
    return {"latmod.%s.%s" % (layer, name) for layer, names in tables for name in names}


BENCHMARK_NAMES = _shim_names() | {
    # perfbench/lieoracle.py
    "latmod.exact.Lattice.from_json",
    "latmod.exact.Lattice.basis_matrix",
    "latmod.models.LieLattice.element",
    "latmod.rootdata.ChevalleyBasis.coords_of",
    "latmod.matrixops.bracket",
    "latmod.models.killing_gram",
    # the probe of perfbench/run.py
    "latmod.KERNEL_IMPLEMENTATION",
    "latmod.exact.ENUM_ORDER_CAP",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _is_function(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _imports(tree):
    """{local name: qualified name} for every `import latmod...` and
    `from latmod... import` in the module, at any depth."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = PACKAGE + ("." + node.module if node.module else "") if node.level else node.module
            if module and module.split(".")[0] == PACKAGE:
                found.update((a.asname or a.name, module + "." + a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == PACKAGE:
                    found[a.asname or PACKAGE] = a.name if a.asname else PACKAGE
    return found


def _qualified(node, module, imports):
    """The qualified name a Name or a chain of attributes on a Name
    stands for, read through the module's imports."""
    if isinstance(node, ast.Name):
        return imports.get(node.id, module + "." + node.id)
    if isinstance(node, ast.Attribute):
        base = _qualified(node.value, module, imports)
        return base and base + "." + node.attr
    return None


def _references(nodes, module, imports):
    """Qualified names the nodes refer to, and ".name" for each attribute
    `name`, which may be a method of any class."""
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                yield "." + node.attr
            name = _qualified(node, module, imports)
            if name:
                yield name


def scan(sources):
    """Parse `sources` ({module: text}, the package's __init__ being
    PACKAGE) into (definitions, imports, roots): definitions maps each
    qualified name to (module, the nodes its reach walks, its class or
    None), imports maps each module to its `_imports`, and roots are the
    module-level statements that are neither definitions nor imports."""
    definitions, imports, roots = {}, {}, []
    for module, text in sources.items():
        tree = ast.parse(text)
        imports[module] = _imports(tree)
        for node in tree.body:
            if _is_function(node):
                definitions[module + "." + node.name] = (module, [node], None)
            elif isinstance(node, ast.ClassDef):
                qualified = module + "." + node.name
                walked = node.decorator_list + node.bases + node.keywords
                for item in node.body:
                    if _is_function(item) and not _is_dunder(item.name):
                        definitions[qualified + "." + item.name] = (module, [item], qualified)
                    else:
                        walked.append(item)
                definitions[qualified] = (module, walked, None)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name) and not _is_dunder(name.id):
                            definitions[module + "." + name.id] = (module, [node], None)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots.append((module, node))
    return definitions, imports, roots


def unreached(sources, names):
    """Sorted qualified names of the definitions in `sources` that neither
    the module-level statements nor `names` reach."""
    definitions, imports, roots = scan(sources)
    methods = {}
    for qualified, (_, _, cls) in definitions.items():
        if cls is not None:
            methods.setdefault("." + qualified.rsplit(".", 1)[1], []).append(qualified)
    todo = list(names)
    for module, node in roots:
        todo.extend(_references([node], module, imports[module]))
    seen, reached = set(), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        # A name read through a module that imported it from another.
        parts = name.split(".")
        for i in range(1, len(parts)):
            bound = imports.get(".".join(parts[:i]), {}).get(parts[i])
            if bound:
                todo.append(".".join([bound] + parts[i + 1 :]))
        for target in methods.get(name, [name]):
            if target in definitions and target not in reached:
                reached.add(target)
                module, nodes, cls = definitions[target]
                todo.extend(_references(nodes, module, imports[module]))
                if cls is not None:
                    todo.append(cls)
    return sorted(set(definitions) - reached)


def naming_nothing(entries, sources):
    """Sorted entries that are not the qualified name of a definition."""
    definitions = scan(sources)[0]
    return sorted(set(entries) - set(definitions))


def named_nowhere(entries, texts):
    """Sorted entries whose last part is not a word of any of the texts."""
    words = set(re.findall(r"\w+", "\n".join(texts)))
    return sorted(e for e in entries if e.rsplit(".", 1)[-1] not in words)


def _sources():
    files = sorted(SRC.glob("*.py"))
    assert files
    return {
        PACKAGE if path.stem == "__init__" else PACKAGE + "." + path.stem: path.read_text()
        for path in files
    }


def test_every_definition_is_reached():
    assert unreached(_sources(), BENCHMARK_NAMES | set(PUBLIC_API)) == []


def test_allow_lists_name_definitions():
    assert naming_nothing(BENCHMARK_NAMES | set(PUBLIC_API), _sources()) == []
    assert all(reason for reason in PUBLIC_API.values())


def test_benchmark_names_are_looked_up_by_perfbench():
    texts = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    assert named_nowhere(BENCHMARK_NAMES, texts) == []


TOY = {
    "latmod.cli": (
        "from latmod.a import f\n"
        "from latmod import b\n"
        "def main():\n    return f() + b.K\n"
        "def _unused():\n    pass\n"
        'if __name__ == "__main__":\n    main()\n'
    ),
    "latmod.a": (
        "from latmod.b import g as h\n"
        "def f():\n    return C().m()\n"
        "class C:\n"
        "    def __init__(self):\n        h()\n"
        "    def m(self):\n        pass\n"
        "    def dead(self):\n        pass\n"
        "def only_public():\n    pass\n"
        "LIMIT = 3\n"
    ),
    "latmod.b": "K = 1\ndef g():\n    pass\ndef dead():\n    pass\nclass D:\n    def m(self):\n        pass\n",
}


def test_scan_flags_unreached_definitions_and_stale_entries():
    # b.D.m shares its name with a.C.m, which f reaches, so b.D.m and its
    # class count as reached: the scan over-approximates.
    assert unreached(TOY, {"latmod.a.only_public"}) == [
        "latmod.a.C.dead",
        "latmod.a.LIMIT",
        "latmod.b.dead",
        "latmod.cli._unused",
    ]
    assert "latmod.a.only_public" in unreached(TOY, set())
    assert naming_nothing({"latmod.a.f", "latmod.a.C.m", "latmod.a.gone"}, TOY) == ["latmod.a.gone"]
    texts = ["from latmod.a import f\nprint(C.m)\n"]
    assert named_nowhere({"latmod.a.f", "latmod.a.C.m", "latmod.a.LIMIT"}, texts) == ["latmod.a.LIMIT"]
