"""Every module-level function and class under src/coexpress/ has a program
caller, every class member has a program reader, and only the text layer
(`textio.py`) writes files.

A name counts as used when some other code of the package refers to it (its
own definition and `__init__`'s re-export do not count), or a `perfbench/`
script or the README does. A class member (a dataclass or named-tuple field, a
method or a property; dunder methods are skipped) counts as read when an
attribute access or a keyword argument with its name appears outside its own
class body in the package or a `perfbench/` script; README words do not count
for members, as common words such as "cell" would pass. A read inside the body
of a class that defines a member of that name counts for no class, so
`self.excluded` in one class does not keep another class's `excluded`. Other
reads go by name alone, so a member that shares its name with another class's
member (`Partition.communities` and `AtlasEntry.communities`) passes when either
is read outside those classes, and can hide an unused one. A name that only
tests reach is surface that every later change has to keep working; delete it,
or list it in `UNCALLED` or `UNREAD_MEMBERS` with the reason it stays.

The text layer owns the encoding, line ends, quoting and JSON layout of every
file: outside `textio.py` no function opens a file for writing, calls
`.write_text`, `.write_bytes` or `csv.writer`, except those in `OWN_WRITERS`,
and the readers (`read_text`, `text_lines`) and the writers (`write_text`,
`write_rows`, `write_json`, `csv_writer`) are defined nowhere else. It also
owns the JSON parse and layout: outside `textio.py` no function refers to
`json.loads`, `json.load`, `json.dumps` or `json.dump`, by any import form,
except those in `OWN_JSON`.

A module-level `ContextVar` is state that a public function's result can
depend on without its signature showing it, so the package defines none; such
state is passed as a parameter.
"""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coexpress"

# name -> why it stays without a program caller
UNCALLED = {
    "pearson": "the scalar reference that tests check build_weighted against",
    "ensemble_from_json": "reads the model files that the pipeline and `coexpress train` write",
    "spec_to_json": "writes the generator-spec files that `coexpress synth --spec` reads",
}

# Class.member -> why it stays without a program reader
UNREAD_MEMBERS = {
    **{f"ClassMetrics.{field}": "the CV report export reads the fields through `_asdict()`"
       for field in ("precision", "recall", "f1")},
    "FoldPlan.assignment": "`plan_to_json` writes the fields through `asdict()`, and the "
                           "class's own `_rows` reads it for `expanded` and `cv_split`",
    **{f"PipelineConfig.{field}": "`pipeline.call_step` reads each setting of a stage's step by its "
                                  "`SETTINGS` field name, through `vars(cfg)`"
       for field in ("select_sweep", "t_intersect", "t_combined")},
}


# module.function -> why it writes its file without the text layer
OWN_WRITERS = {
    "matrix.write_matrix": "writes each row's numbers as orjson bytes after the csv-quoted gene ID",
    "graph.write_graphml": "writes XML, where a character UTF-8 cannot hold becomes a character "
                           "reference (errors='xmlcharrefreplace')",
}

# module.function -> why it calls the json module itself
OWN_JSON = {
    "booster.ensemble_to_json": "writes the model file as one line with sorted keys, not the "
                                "indented layout of `textio.json_text`",
}

JSON_FUNCTIONS = ("loads", "load", "dumps", "dump")

TEXT_LAYER = "textio"
TEXT_FUNCTIONS = ("read_text", "text_lines", "write_text", "write_rows", "write_json", "csv_writer")


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


def class_members(cls: ast.ClassDef) -> list[str]:
    """The fields (annotated class-level names), methods and properties of `cls`."""
    out = []
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("__"):
            out.append(node.name)
    return out


def member_uses(tree: ast.AST) -> Counter:
    """How often each name appears in `tree` as an attribute or a keyword argument."""
    return Counter(node.attr if isinstance(node, ast.Attribute) else node.arg
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) or isinstance(node, ast.keyword) and node.arg)


def unread_members(package: Path, callers: list[Path]) -> list[str]:
    """Members of the module-level classes of `package` whose name appears as an
    attribute or a keyword argument only inside the bodies of classes that
    define a member of that name, as `Class.member`."""
    trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(package.glob("*.py"))]
    callers_trees = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in callers]
    total = sum(map(member_uses, trees + callers_trees), Counter())
    classes = [node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)]
    inside = Counter()
    for cls in classes:
        uses = member_uses(cls)
        inside.update({name: uses[name] for name in set(class_members(cls))})
    return [f"{cls.name}.{name}" for cls in classes for name in class_members(cls)
            if total[name] == inside[name]]


def writes_file(call: ast.Call) -> bool:
    """Whether `call` writes a file: `open(path, mode)` or `path.open(mode)` with
    a mode that is not a read-only literal, `.write_text`, `.write_bytes` or
    `csv.writer`."""
    f = call.func
    if isinstance(f, ast.Attribute) and (f.attr in ("write_text", "write_bytes") or
                                         f.attr == "writer" and getattr(f.value, "id", "") == "csv"):
        return True
    if isinstance(f, ast.Name) and f.id == "open":
        mode = call.args[1:2]
    elif isinstance(f, ast.Attribute) and f.attr == "open":
        mode = call.args[:1]
    else:
        return False
    mode = [kw.value for kw in call.keywords if kw.arg == "mode"] or mode
    return bool(mode) and not (isinstance(mode[0], ast.Constant) and isinstance(mode[0].value, str)
                               and not set(mode[0].value) & set("wax+"))


def file_writers(package: Path) -> list[str]:
    """Each top-level definition outside the text layer that writes a file, as
    `module.name`."""
    out = []
    for path in sorted(package.glob("*.py")):
        if path.stem != TEXT_LAYER:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            out += [f"{path.stem}.{getattr(stmt, 'name', '<module>')}" for stmt in tree.body
                    if any(isinstance(n, ast.Call) and writes_file(n) for n in ast.walk(stmt))]
    return out


def json_users(package: Path) -> list[str]:
    """Each top-level definition outside the text layer that refers to one of
    `JSON_FUNCTIONS` of the json module, as `module.name`: an attribute of a
    name bound by `import json [as x]`, or a name bound by `from json import`."""
    out = []
    for path in sorted(package.glob("*.py")):
        if path.stem == TEXT_LAYER:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        modules = {a.asname or a.name for n in imports if isinstance(n, ast.Import)
                   for a in n.names if a.name == "json"}
        functions = {a.asname or a.name for n in imports
                     if isinstance(n, ast.ImportFrom) and n.module == "json"
                     for a in n.names if a.name in JSON_FUNCTIONS}

        def uses_json(node: ast.AST) -> bool:
            if isinstance(node, ast.Attribute):
                return (node.attr in JSON_FUNCTIONS and isinstance(node.value, ast.Name)
                        and node.value.id in modules)
            return isinstance(node, ast.Name) and node.id in functions

        out += [f"{path.stem}.{getattr(stmt, 'name', '<module>')}" for stmt in tree.body
                if any(map(uses_json, ast.walk(stmt)))]
    return out


def definers(package: Path, names: tuple[str, ...]) -> dict[str, list[str]]:
    """The modules that define a function of each of `names`, at any depth."""
    found: dict[str, list[str]] = {name: [] for name in names}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in found:
                found[node.name].append(path.stem)
    return found


def context_vars(package: Path) -> list[str]:
    """Each module-level `ContextVar` of `package`, as `module.name`: a
    top-level assignment whose value calls `ContextVar` by name or attribute."""
    found = []
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            call = getattr(stmt, "value", None)
            target = stmt.targets[0] if isinstance(stmt, ast.Assign) else getattr(stmt, "target", None)
            if (isinstance(call, ast.Call) and isinstance(target, ast.Name)
                    and "ContextVar" in referenced_names(call.func)):
                found.append(f"{path.stem}.{target.id}")
    return found


def test_every_module_level_name_has_a_program_caller():
    callers = sorted((ROOT / "perfbench").glob("*.py"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = [q for q in uncalled_names(PACKAGE, callers, readme)
               if q.partition(".")[2] not in UNCALLED]
    assert not missing, f"only tests reach these; delete them or list them in UNCALLED: {missing}"


def test_every_class_member_has_a_program_reader():
    callers = sorted((ROOT / "perfbench").glob("*.py"))
    missing = [q for q in unread_members(PACKAGE, callers) if q not in UNREAD_MEMBERS]
    assert not missing, f"only tests read these; delete them or list them in UNREAD_MEMBERS: {missing}"


def test_only_the_text_layer_writes_files():
    extra = [q for q in file_writers(PACKAGE) if q not in OWN_WRITERS]
    assert not extra, f"write through coexpress.textio, or list in OWN_WRITERS with a reason: {extra}"


def test_only_the_text_layer_parses_and_lays_out_json():
    extra = [q for q in json_users(PACKAGE) if q not in OWN_JSON]
    assert not extra, f"go through coexpress.textio, or list in OWN_JSON with a reason: {extra}"


def test_text_functions_are_defined_once_in_the_text_layer():
    assert definers(PACKAGE, TEXT_FUNCTIONS) == {name: [TEXT_LAYER] for name in TEXT_FUNCTIONS}


def test_no_module_level_context_var():
    found = context_vars(PACKAGE)
    assert not found, f"pass the state as a parameter instead: {found}"


def test_exceptions_still_exist():
    defined, members = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(module_level_names(tree))
        members.update(f"{cls.name}.{name}" for cls in tree.body if isinstance(cls, ast.ClassDef)
                       for name in class_members(cls))
    assert set(UNCALLED) <= defined, f"stale UNCALLED entries: {sorted(set(UNCALLED) - defined)}"
    assert set(UNREAD_MEMBERS) <= members, \
        f"stale UNREAD_MEMBERS entries: {sorted(set(UNREAD_MEMBERS) - members)}"
    writers = set(file_writers(PACKAGE))
    assert set(OWN_WRITERS) <= writers, f"stale OWN_WRITERS entries: {sorted(set(OWN_WRITERS) - writers)}"
    users = set(json_users(PACKAGE))
    assert set(OWN_JSON) <= users, f"stale OWN_JSON entries: {sorted(set(OWN_JSON) - users)}"


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


def test_member_scan_counts_reads_outside_the_class_body(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "from typing import NamedTuple\n"
        "class Row(NamedTuple):\n"
        "    read: int\n    by_keyword: int\n    by_caller: int\n    own_only: int\n"
        "    def __len__(self): return self.own_only\n"
        "    @property\n    def unused(self): return self.own_only\n"
        "    def used(self): return 0\n"
        "def f(r): return r.read + r.used()\n"
        "ROW = Row(0, 0, 0, 0)._replace(by_keyword=1)\n"
        "class Left:\n    shared: int\n    def __len__(self): return self.shared\n"
        "class Right:\n    shared: int\n    def __len__(self): return self.shared\n")
    caller = tmp_path / "run.py"
    caller.write_text("import pkg.a as m\nm.ROW.by_caller\n")
    assert unread_members(pkg, [caller]) == ["Row.own_only", "Row.unused",
                                             "Left.shared", "Right.shared"]
    caller.write_text("import pkg.a as m\nm.ROW.by_caller\nm.Left(0).shared\n")
    assert unread_members(pkg, [caller]) == ["Row.own_only", "Row.unused"]


def test_context_var_scan_finds_each_form(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "import contextvars\nfrom contextvars import ContextVar\n"
        "_STATE: ContextVar[int] = ContextVar('state', default=0)\n"
        "OTHER = contextvars.ContextVar('other')\n"
        "PLAIN = dict()\n"
        "def getter(): return _STATE.get()\n")
    (pkg / "b.py").write_text("import contextvars\nLATER = contextvars.ContextVar('later')\n")
    assert context_vars(pkg) == ["a._STATE", "a.OTHER", "b.LATER"]


def test_write_scan_finds_each_kind_of_write(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "textio.py").write_text("def write_text(path, text):\n    open(path, 'w').write(text)\n")
    (pkg / "a.py").write_text(
        "import csv\nfrom pathlib import Path\n"
        "def reads(p):\n"
        "    return open(p).read(), open(p, 'rb').read(), open(p, mode='r').read(), Path(p).open()\n"
        "def by_open(p): open(p, 'a')\n"
        "def by_mode_name(p, mode): open(p, mode=mode)\n"
        "def by_path_open(p): Path(p).open('w')\n"
        "def by_write_text(p): Path(p).write_text('')\n"
        "def by_write_bytes(p): Path(p).write_bytes(b'')\n"
        "class Writer:\n    def save(self, fh): csv.writer(fh)\n")
    assert file_writers(pkg) == ["a.by_open", "a.by_mode_name", "a.by_path_open",
                                 "a.by_write_text", "a.by_write_bytes", "a.Writer"]
    assert definers(pkg, ("write_text", "read_text")) == {"write_text": ["textio"], "read_text": []}


def test_json_scan_finds_each_form(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "textio.py").write_text("import json\ndef read_json(text): return json.loads(text)\n")
    (pkg / "a.py").write_text(
        "import json\nimport json as js\nimport orjson\n"
        "from json import load, dumps as to_text\n"
        "def by_attribute(text): return json.loads(text)\n"
        "def by_alias(obj, fh): js.dump(obj, fh)\n"
        "def by_from_import(fh): return load(fh)\n"
        "def by_from_alias(obj): return to_text(obj)\n"
        "PARSE = json.loads\n"
        "class Model:\n    def save(self): return json.dumps(self.__dict__)\n"
        "def others(obj, fh): return orjson.dumps(obj), json.JSONDecodeError, fh.load()\n")
    assert json_users(pkg) == ["a.by_attribute", "a.by_alias", "a.by_from_import",
                               "a.by_from_alias", "a.<module>", "a.Model"]
