"""Every third-party module imported under src/ is a declared dependency."""
import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "coexpress"


def imported_top_level_modules(src: Path) -> dict[str, str]:
    """Top-level module name -> first file importing it, over absolute imports."""
    found: dict[str, str] = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.partition(".")[0], path.relative_to(src).as_posix())
    return found


def declared_dependencies() -> set[str]:
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    # "numpy>=1.24" -> "numpy"; distribution names compare case- and -/_ -insensitively
    return {re.split(r"[\s<>=!~;\[(]", req, maxsplit=1)[0].lower().replace("-", "_")
            for req in project.get("dependencies", [])}


def test_third_party_imports_are_declared():
    third_party = {
        name: where for name, where in imported_top_level_modules(ROOT / "src").items()
        if name not in sys.stdlib_module_names and name not in ("__future__", PACKAGE)
    }
    assert third_party, "the scan found no third-party import; is src/ where it was?"
    undeclared = {name: where for name, where in third_party.items()
                  if name.lower() not in declared_dependencies()}
    assert not undeclared, f"imported under src/ but not in pyproject.toml dependencies: {undeclared}"


def test_scan_sees_function_level_and_from_imports(tmp_path):
    (tmp_path / "m.py").write_text("def f():\n    import a.b\n    from c.d import e\nfrom . import g\n")
    found = imported_top_level_modules(tmp_path)
    assert set(found) == {"a", "c"}
