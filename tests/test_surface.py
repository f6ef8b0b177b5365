"""Every module-level function and class under src/coexpress/ has a program caller.

A name counts as used when some other code of the package refers to it (its
own definition and `__init__`'s re-export do not count), or a `perfbench/`
script or the README does. A name that only tests reach is surface that every
later change has to keep working; delete it, or list it in `UNCALLED` with the
reason it stays.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coexpress"

# name -> why it stays without a program caller
UNCALLED = {
    "pearson": "the scalar reference that tests check build_weighted against",
    "ensemble_from_json": "reads the model files that the pipeline and `coexpress train` write",
    "spec_to_json": "writes the generator-spec files that `coexpress synth --spec` reads",
}


def module_level_names(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def referenced_names(tree: ast.AST) -> set[str]:
    """Identifiers read as a name or an attribute anywhere in `tree`."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def uncalled_names(package: Path, callers: list[Path], readme: str) -> list[str]:
    """Module-level names of `package` that nothing but their own definition,
    `__init__` and tests refers to, as `module.name`."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(package.glob("*.py")) if p.name != "__init__.py"}
    used = set(re.findall(r"\w+", readme)).union(
        *(referenced_names(ast.parse(p.read_text(encoding="utf-8"), filename=str(p)))
          for p in callers))
    # the names each top-level statement of the package refers to, keyed by
    # (module, the name the statement defines, if any)
    statements = [((path, getattr(stmt, "name", None)), referenced_names(stmt))
                  for path, tree in trees.items() for stmt in tree.body]
    return [f"{path.stem}.{name}"
            for path, tree in trees.items() for name in module_level_names(tree)
            if name not in used
            and not any(name in refs for key, refs in statements if key != (path, name))]


def test_every_module_level_name_has_a_program_caller():
    callers = sorted((ROOT / "perfbench").glob("*.py"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [q for q in uncalled_names(PACKAGE, callers, readme)
               if q.partition(".")[2] not in UNCALLED]
    assert not missing, f"only tests reach these; delete them or list them in UNCALLED: {missing}"


def test_exceptions_still_exist():
    defined = set()
    for path in PACKAGE.glob("*.py"):
        defined.update(module_level_names(ast.parse(path.read_text(encoding="utf-8"))))
    assert set(UNCALLED) <= defined, f"stale UNCALLED entries: {sorted(set(UNCALLED) - defined)}"


def test_scan_counts_other_modules_callers_and_readme(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import unused\n")
    (pkg / "a.py").write_text("def used(): pass\ndef unused(): unused()\n"
                              "def by_caller(): pass\ndef documented(): pass\nclass Used: pass\n"
                              "def _helper(): pass\nX = _helper()\n")
    (pkg / "b.py").write_text("from .a import used, Used\nused()\nx: Used\n")
    caller = tmp_path / "run.py"
    caller.write_text("import pkg.a as m\nm.by_caller()\n")
    assert uncalled_names(pkg, [caller], "call `documented()`") == ["a.unused"]
