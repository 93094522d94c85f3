"""The package namespace holds the names README documents and no others, and
src/dimlab holds only code that the package or its benchmark runs, class
members included."""

import ast
import inspect
import re
from pathlib import Path

import dimlab

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

PUBLIC = [
    "AltReport",
    "CountReport",
    "SizeLimitError",
    "a2",
    "a_circ",
    "alternating_oracle",
    "count_odd",
    "delta",
    "delta_circ",
    "enumerate_odd_partitions",
    "formula_alt_counts",
    "formula_counts",
    "hat_m2",
    "m4",
    "oracle_counts",
]


def test_public_surface_is_the_documented_one():
    assert sorted(dimlab.__all__) == PUBLIC
    # a re-export left out of __all__ would still widen the surface
    exported = {name for name, value in vars(dimlab).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == set(PUBLIC)
    documented = set(re.findall(r"`(\w+)", README.read_text()))
    for name in PUBLIC:
        assert callable(getattr(dimlab, name)), name
        assert name in documented, name


def _package_modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted((ROOT / "src" / "dimlab").glob("*.py"))}


def _benchmark_reads():
    # the attributes perfbench reads, also as "owner.attr" (dl.alternating.clear_caches
    # gives "alternating.clear_caches"), and the names it spells as strings, such
    # as the "__init__" its tracer patches; a word in its prose does not count
    reads = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Attribute):
                reads.add(n.attr)
                owner = n.value
                if isinstance(owner, ast.Name):
                    reads.add(f"{owner.id}.{n.attr}")
                elif isinstance(owner, ast.Attribute):
                    reads.add(f"{owner.attr}.{n.attr}")
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                reads.add(n.value)
    return reads


def _referenced(node):
    # every name the code under node reads, bare or as an attribute
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_definition_is_run_by_the_package_or_the_benchmark():
    # a fact only the tests check belongs in the tests (tests/paper_facts.py)
    modules = _package_modules()
    benchmark = _benchmark_reads()
    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            # a reference from the definition's own body, as in a recursion, does not count
            used = any(node.name in _referenced(other)
                       for body in modules.values() for other in body.body if other is not node)
            if not used and node.name not in benchmark:
                unused.append(f"{module}.{node.name}")
    assert unused == []


def test_every_public_class_member_is_read_outside_its_class():
    # the same rule for a class's public methods and properties: a member read
    # only by the tests, or only by its own class, belongs in the tests
    modules = _package_modules()
    benchmark = _benchmark_reads()
    unused = []
    for module, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            read = {n.attr for body in modules.values() for other in body.body
                    if other is not cls for n in ast.walk(other) if isinstance(n, ast.Attribute)}
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and node.name not in read | benchmark):
                    unused.append(f"{module}.{cls.name}.{node.name}")
    assert unused == []


def test_no_module_imports_a_name_it_never_reads():
    # the one exception is a name the benchmark reads through the module,
    # such as alternating.clear_caches
    benchmark = _benchmark_reads()
    unread = []
    for module, tree in _package_modules().items():
        if module == "__init__":
            continue
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        for name in sorted(imported - _referenced(tree)):
            if f"{module}.{name}" not in benchmark:
                unread.append(f"{module}: {name}")
    assert unread == []


def test_no_other_module_imports_beta_sets():
    # the abacus codec lives in partitions, so beta_sets is a leaf that only the
    # tests and the benchmark read, and can be retired as one module
    importers = []
    for module, tree in _package_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if module != "beta_sets" and any(name.split(".")[-1] == "beta_sets" for name in names):
                importers.append(module)
    assert importers == []
