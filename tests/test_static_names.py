"""Static name checks: every global a function reads exists, every
private module-level function has a caller, and every import between
package modules goes down the layer stack.

No linter ships with the project, so this walks each module's symbol table
with the stdlib ``symtable`` and flags free names that are neither defined
at module level (assignment, def, class, import) nor builtins.  A missing
import in a rarely taken branch fails here instead of at run time.  The
package's syntax trees, read with ``ast``, show which private functions no
module names any more, and which caps the modules define: README names
exactly those.
"""

import ast
import builtins
import re
import symtable
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "frobpow"
MODULES = sorted(SRC.glob("*.py"))
# The package's layers, bottom first; ``__init__`` re-exports from all of them.
LAYERS = (
    ("errors",),
    ("arith",),
    ("poly",),
    ("groebner", "monomial"),
    ("ideal",),
    ("frobpower",),
    ("thresholds", "generic"),
    ("cli",),
)
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}


def unresolved_globals(source: str, filename: str) -> list[str]:
    """``function -> name`` for each unresolvable global read in the source."""
    top = symtable.symtable(source, filename, "exec")
    known = set(dir(builtins)) | {
        sym.get_name()
        for sym in top.get_symbols()
        if sym.is_assigned() or sym.is_imported()
    }
    out: list[str] = []

    def walk(table, qualname):
        for child in table.get_children():
            name = f"{qualname}.{child.get_name()}" if qualname else child.get_name()
            if child.get_type() == "function":
                out.extend(
                    f"{name} -> {sym.get_name()}"
                    for sym in child.get_symbols()
                    if sym.is_referenced()
                    and sym.is_global()
                    and sym.get_name() not in known
                )
            walk(child, name)

    walk(top, "")
    return out


def orphaned_private_functions(sources: dict[str, str]) -> list[str]:
    """``module.function`` for each private module-level function that no
    source names outside its own definition (a read, an attribute or an
    import)."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    named: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in named
    ]


def _package_modules(node: ast.AST) -> list[str]:
    """The package modules an import statement names, without the prefix."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        module = ".".join(filter(None, ["frobpow" if node.level else "", node.module]))
        names = [f"{module}.{a.name}" for a in node.names] if module == "frobpow" else [module]
    else:
        return []
    return [n.split(".")[1] for n in names if n.startswith("frobpow.")]


def imports_not_going_down(sources: dict[str, str]) -> list[str]:
    """``importer -> imported`` for each import of one package module by
    another, at module level or inside a function, whose target is not in a
    lower layer than the importer (a module missing from LAYERS has none)."""
    return [
        f"{name} -> {target}"
        for name, text in sources.items()
        for node in ast.walk(ast.parse(text))
        for target in _package_modules(node)
        if RANK.get(target, len(LAYERS)) >= RANK.get(name, -1)
    ]


def test_modules_found():
    assert {"ideal.py", "frobpower.py", "thresholds.py"} <= {m.name for m in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda m: m.name)
def test_function_globals_resolve(path):
    assert unresolved_globals(path.read_text(), str(path)) == []


def test_guard_flags_a_missing_import():
    source = (
        "import os\n"
        "LIMIT = 3\n"
        "class C:\n"
        "    def m(self):\n"
        "        return [os.sep * LIMIT for _ in range(2)], missing_name\n"
    )
    assert unresolved_globals(source, "<probe>") == ["C.m -> missing_name"]


def test_private_functions_have_callers():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert orphaned_private_functions(sources) == []


def test_guard_flags_an_orphaned_private_function():
    sources = {
        "a": "def _used():\n    return 1\n\ndef _orphan():\n    return 2\n",
        "b": "from .a import _used\n\ndef public():\n    return _used()\n",
        "c": "from . import a\n\ndef _helper():\n    return a._used()\n\nVALUE = _helper()\n",
    }
    assert orphaned_private_functions(sources) == ["a._orphan"]


def test_layers_name_every_module():
    assert {path.stem for path in MODULES} - {"__init__"} == set(RANK)


def test_imports_go_down_the_layer_stack():
    sources = {path.stem: path.read_text() for path in MODULES if path.stem != "__init__"}
    assert imports_not_going_down(sources) == []


def test_guard_flags_an_import_up_or_across_the_stack():
    sources = {
        "poly": "from .arith import base_p_digits\nfrom . import errors\n",
        "ideal": "def f():\n    from .thresholds import mu\n    return mu\n",
        "generic": "import frobpow.thresholds\nfrom frobpow.monomial import mono_member\n",
        "thresholds": "from .newmodule import helper\n",
    }
    assert imports_not_going_down(sources) == [
        "ideal -> thresholds",
        "generic -> thresholds",
        "thresholds -> newmodule",
    ]


def module_caps(sources: dict[str, str]) -> set[str]:
    """The ``*_CAP`` names assigned at module level in the sources."""
    return {
        target.id
        for text in sources.values()
        for node in ast.parse(text).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.endswith("_CAP")
    }


def test_readme_names_exactly_the_caps_that_exist():
    sources = {path.stem: path.read_text() for path in MODULES}
    readme = (SRC.parent.parent / "README.md").read_text()
    assert module_caps(sources) == set(re.findall(r"\b[A-Z_]+_CAP\b", readme))


def test_guard_reads_caps_from_module_level_assignments():
    sources = {
        "a": "A_CAP = 3\nB_CAP: int = 4\nfrom .c import C_CAP\n",
        "b": "def f():\n    D_CAP = 1\n    return D_CAP\nLIMIT = 2\n",
    }
    assert module_caps(sources) == {"A_CAP", "B_CAP"}
