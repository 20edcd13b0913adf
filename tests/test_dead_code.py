"""Code with no caller stays out of the package.

The package is parsed with ast.  A function or method is uncalled when no
Name or Attribute anywhere in src/ outside its own body carries its name.
It may stay only if it is public API: exported by socle_verify/__init__.py
or named in the README's "Library use" section.  Dunder methods are
exempt.  Test-only helpers live in tests/oracle_helpers.py instead.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "socle_verify"


def _library_use_names() -> set[str]:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"\w+", section))


def _exported_names(package: Path) -> set[str]:
    tree = ast.parse((package / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}


def uncalled_functions(package: Path = PACKAGE) -> list[str]:
    """'module.py:line name' for every uncalled function or method of the
    package that is not public API."""
    defs, refs = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((path, node))
            elif isinstance(node, ast.Name):
                refs.append((path, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.attr, node.lineno))
    public = _exported_names(package) | _library_use_names()
    return [
        f"{path.name}:{f.lineno} {f.name}"
        for path, f in defs
        if not (f.name.startswith("__") and f.name.endswith("__")) and f.name not in public
        and not any(name == f.name and not (where == path and f.lineno <= line <= f.end_lineno)
                    for where, name, line in refs)
    ]


def test_every_src_function_has_a_caller_or_is_public():
    assert uncalled_functions() == []


def test_the_scan_sees_a_function_called_only_from_its_own_body(tmp_path):
    """A recursive function with no other caller is listed; one called
    from elsewhere is not."""
    (tmp_path / "__init__.py").write_text("from .mod import exported\n")
    (tmp_path / "mod.py").write_text(
        "def exported():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def lonely(n):\n    return lonely(n - 1) if n else 0\n\n"
        "class A:\n    def __repr__(self):\n        return 'A'\n\n"
        "    def method(self):\n        return self.method\n"
    )
    assert uncalled_functions(tmp_path) == ["mod.py:7 lonely", "mod.py:14 method"]
