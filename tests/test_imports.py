"""Every name a package module imports is used in it.

The package has no linter, so this is the check for imports left behind
when code moves. It reads each module under `src/ssgsolve/` with `ast`:
a name counts as used when the module reads it anywhere (annotations
included) or, in `__init__.py`, lists it in `__all__`. `from __future__`
imports do not count. A name imported only so that other code can find
it under this module (a shim) is marked `# noqa: F401` on its import,
and the shims are pinned below, so a new one is a deliberate edit.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ssgsolve"

#: The shims: names imported but not used, kept because the benchmark's
#: layer trace (`perfbench/layers.py`) patches them under these modules.
SHIMS = {("baselines", "mec_decompose"), ("oracle", "partition_states")}


def unused_imports(source: str, filename: str) -> list[tuple[str, bool]]:
    """Each imported name the module never reads, with whether its import is marked `# noqa: F401`."""
    tree = ast.parse(source, filename)
    lines = source.splitlines()
    imported: list[tuple[str, bool]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            marked = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names:
                imported.append(((alias.asname or alias.name).split(".")[0], marked))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts)
    return [(name, marked) for name, marked in imported if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    unused, shims, marked_lines = [], set(), 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        marked_lines += sum("# noqa: F401" in line for line in source.splitlines())
        for name, marked in unused_imports(source, str(path)):
            if marked:
                shims.add((path.stem, name))
            else:
                unused.append(f"{path.name}: {name}")
    assert not unused
    assert shims == SHIMS
    assert marked_lines == len(SHIMS)


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "from .model import MAX, MIN  # noqa: F401\n"
              "from .svi import solve_svi as run\n"
              "__all__ = ['run']\n"
              "def f(x: MAX) -> None:\n"
              "    pass\n")
    assert unused_imports(source, "<test>") == [("math", False), ("MIN", True)]
