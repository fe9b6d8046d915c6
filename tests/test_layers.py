"""The package's layers each import only the layers below them.

Every import a layer makes of the package is read from its source: at
module level, under `TYPE_CHECKING` and inside a function alike.  The
package's `__init__` imports no layer, so `import mmp_elliptic` loads none;
`cli`, which loads each command's layers on demand, is exempt.
"""

import ast
from pathlib import Path

import mmp_elliptic

PACKAGE = Path(mmp_elliptic.__file__).parent

# each layer -> the layers it may import
BELOW = {
    "__init__": set(),
    "rationals": set(),
    "kodaira": {"rationals"},
    "curves": {"rationals"},
    "surfaces": {"curves", "kodaira"},
    "walls": {"curves", "kodaira"},
    "reduction": {"curves", "kodaira", "surfaces", "walls"},
    "modeljson": {"curves", "kodaira", "rationals", "surfaces"},
    "dot": {"surfaces"},
}
EXEMPT = {"cli"}


def imported_layers(path: Path) -> set[str]:
    """The package modules a source file imports, relatively or by the
    package's name, wherever the import stands."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "mmp_elliptic":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # `from . import x`
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "mmp_elliptic" and len(parts) > 1:
                    found.add(parts[1])
    return found


def test_every_layer_imports_only_the_layers_below_it():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    assert modules == BELOW.keys() | EXEMPT
    upward = {
        (layer, other)
        for layer, allowed in BELOW.items()
        for other in imported_layers(PACKAGE / f"{layer}.py") - allowed
    }
    assert upward == set()


def test_the_import_reader_sees_every_form_of_import(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from typing import TYPE_CHECKING\n"
        "from .curves import WeightVector\n"
        "from . import kodaira\n"
        "import mmp_elliptic.dot\n"
        "if TYPE_CHECKING:\n"
        "    from .surfaces import Component\n"
        "def f():\n"
        "    from mmp_elliptic.walls import Wall\n"
    )
    assert imported_layers(source) == {"curves", "kodaira", "dot", "surfaces", "walls"}
