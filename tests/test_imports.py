"""No module of the package imports a name it never uses.

A stdlib `ast` walk, in place of a linter: an imported name must appear
somewhere in the module as a name, or as the head of a dotted name inside
a quoted annotation. `__init__.py` is left out, since its imports are the
package's public surface.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "submax")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py") and f != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that it never references."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            head = node.value.split(".")[0].split("[")[0]
            if head.isidentifier():
                used.add(head)  # a quoted annotation such as "Solution"
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    with open(os.path.join(PACKAGE, module)) as fh:
        assert unused_imports(fh.read()) == []


def test_the_walk_sees_an_unused_import():
    source = "import os\nimport sys\nfrom math import ceil, floor\nprint(sys.argv, floor)\n"
    assert unused_imports(source) == ["ceil (line 3)", "os (line 1)"]
