"""Every import is used: each name an import binds in a module of
src/apfmpc, tools or tests is read in that module or listed in its
`__all__`. No module of src/apfmpc imports another's private names, and
importing one loads only what it needs: the package root exports nothing."""

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for folder in ("src/apfmpc", "tools", "tests")
                 for path in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that the imports of `source` bind and it never reads."""
    tree = ast.parse(source)
    bound, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue  # a compiler directive, not a name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds a; `from m import *` binds nothing it names
            bound.update(alias.asname or alias.name.partition(".")[0]
                         for alias in node.names if alias.name != "*")
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read.update(item.value for item in ast.walk(node.value)
                        if isinstance(item, ast.Constant) and isinstance(item.value, str))
    return sorted(bound - read)


def test_no_unused_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from math import pi, tau as t\n__all__ = ['pi']\nprint(sys)\n")
    assert unused_imports(source) == ["os", "t"]
    assert len(MODULES) > 20
    unused = {str(path.relative_to(ROOT)): names for path in MODULES
              if (names := unused_imports(path.read_text()))}
    assert unused == {}


def private_imports(source: str) -> list[str]:
    """The underscore-prefixed names that `source` imports from a module of
    the package, relatively or as `apfmpc...`."""
    return sorted(alias.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level or (node.module or "").partition(".")[0] == "apfmpc")
                  for alias in node.names if alias.name.startswith("_"))


def test_no_private_imports_between_package_modules():
    source = ("from __future__ import annotations\nfrom math import _x\n"
              "from .kinematics import _body_rates, rollout\nfrom . import _private\n"
              "from apfmpc.qp import _held_point\n")
    assert private_imports(source) == ["_body_rates", "_held_point", "_private"]
    package = [path for path in MODULES if path.parent == ROOT / "src/apfmpc"]
    assert len(package) > 5
    private = {str(path.relative_to(ROOT)): names for path in package
               if (names := private_imports(path.read_text()))}
    assert private == {}


def modules_after_import(module: str) -> set[str]:
    """Every module a fresh interpreter holds once it has imported `module`
    from src."""
    code = f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; print(*sys.modules)"
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60, check=True)
    return set(done.stdout.split())


def test_a_module_loads_only_what_it_needs():
    # the geometry that infrastructure-side code builds footprints with
    # needs neither numpy nor YAML, and the solver no YAML
    geometry = modules_after_import("apfmpc.geometry")
    assert "math" in geometry
    assert {name for name in geometry if name.startswith("apfmpc")} == {"apfmpc", "apfmpc.geometry"}
    assert not {"numpy", "yaml"} & {name.partition(".")[0] for name in geometry}
    qp = modules_after_import("apfmpc.qp")
    assert "numpy" in qp and "yaml" not in {name.partition(".")[0] for name in qp}
