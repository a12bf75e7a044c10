"""Static name check: every global a function reads exists.

No linter ships with the project, so this walks each module's symbol table
with the stdlib ``symtable`` and flags free names that are neither defined
at module level (assignment, def, class, import) nor builtins.  A missing
import in a rarely taken branch fails here instead of at run time.
"""

import builtins
import symtable
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "frobpow"
MODULES = sorted(SRC.glob("*.py"))


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
