"""No dead code in src/extensor: every public name has a caller, every import a use.

The public names are the top-level functions and classes and the public
methods of every class.  A caller is a reference, as a name or an attribute,
from the package itself, the demos or the benchmark's workloads; the tests do
not count, so a function that only its own tests call is flagged.  A top-level
name is called when it is referenced as a name or an attribute; a method only
when it is referenced as an attribute, so a local variable or a function that
shares its name does not count.  Both scans read the source with `ast` and
import nothing.  The exemption lists are held to the scans as well: an entry
that a scan no longer flags, because its name is gone or now has a use, fails.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "extensor"
CALLERS = [
    *SRC.glob("*.py"),
    *(ROOT / "demos").glob("*.py"),
    ROOT / "perfbench" / "workloads.py",
]

# public names (methods as Class.method) that nothing in the program calls,
# kept on purpose
UNCALLED = {
    "_CubeRelation.from_tuples": "the validated entry point for relations given as tuples",
    "SubsetMap.replace": "the tests build single-entry mutants with it",
    "RelationalStructure.relation": "the tests read one relation of a view with it",
    "SplitMix64.choice": "the tests draw seeded inputs and mutants with it",
}

# (module, name) imports that the module itself does not use, kept on purpose
UNUSED_IMPORTS = {
    ("eqrel", "verify_one_point_extension"): (
        "perfbench/test_perfbench.py checks that the tracer patches this binding "
        "(ROADMAP item 0)"
    ),
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _references(tree):
    """(names, attributes) the module reads or writes: bare names, and the
    attribute part of every `x.attr`."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return names, attributes


def _referenced(tree):
    """Every identifier the module reads or writes, as a name or an attribute."""
    return set().union(*_references(tree))


def _public_definitions(tree):
    """(qualified name, bare name, is method) of each public top-level
    definition and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node.name, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name, True


def _uncalled(modules, callers):
    """`module.qualified` of each public definition in `modules` ({stem: tree})
    that no tree in `callers` references."""
    names, attributes = set(), set()
    for tree in callers:
        n, a = _references(tree)
        names |= n
        attributes |= a
    return [
        f"{stem}.{qualified}"
        for stem, tree in modules.items()
        for qualified, name, is_method in _public_definitions(tree)
        if name not in attributes and (is_method or name not in names)
    ]


def test_every_public_definition_has_a_caller():
    modules = {path.stem: _tree(path) for path in sorted(SRC.glob("*.py"))}
    uncalled = _uncalled(modules, [_tree(path) for path in CALLERS])
    names = [u.split(".", 1)[1] for u in uncalled]
    assert [name for name in names if name not in UNCALLED] == []
    # and every exemption still names a public definition that has no caller
    assert _stale(UNCALLED, names) == []


def _stale(exempt, flagged):
    """The exemptions that the scan no longer flags: the name is gone, or it
    is now called or used."""
    return sorted(set(exempt) - set(flagged))


def test_a_name_shared_with_a_variable_does_not_call_a_method():
    modules = {"m": ast.parse("class Box:\n    def size(self):\n        return 1\n")}
    local = ast.parse("def f():\n    size = Box()\n    return size\n")
    assert _uncalled(modules, [local]) == ["m.Box.size"]
    call = ast.parse("def g(box):\n    return box.size()\n")
    assert _uncalled(modules, [local, call]) == []


def test_an_exemption_for_a_called_or_missing_name_is_stale():
    modules = {"m": ast.parse("def kept():\n    pass\n\ndef used():\n    pass\n")}
    assert _uncalled(modules, [ast.parse("used()\n")]) == ["m.kept"]
    exempt = {"kept": "", "used": "now called", "gone": "no such definition"}
    assert _stale(exempt, ["kept"]) == ["gone", "used"]


def _unused_imports(modules):
    """(module, bound name) of each import that its module does not reference."""
    unused = []
    for stem, tree in modules.items():
        used = _referenced(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append((stem, bound))
    return unused


def test_every_module_import_is_used():
    modules = {
        path.stem: _tree(path)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }
    unused = _unused_imports(modules)
    assert [u for u in unused if u not in UNUSED_IMPORTS] == []
    # and every exemption still names an import that is unused
    assert _stale(UNUSED_IMPORTS, unused) == []


def test_an_import_exemption_for_a_used_or_missing_import_is_stale():
    source = "import os\nfrom json import dumps, loads\n\nloads('1')\n"
    unused = _unused_imports({"m": ast.parse(source)})
    assert unused == [("m", "os"), ("m", "dumps")]
    exempt = {("m", "os"): "", ("m", "loads"): "now used", ("m", "sys"): "gone"}
    assert _stale(exempt, unused) == [("m", "loads"), ("m", "sys")]
