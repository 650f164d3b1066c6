"""Checks on the package as a whole: its README example runs, and src/ holds only what the package uses."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "aggrex"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()


def test_the_package_exports_what_readme_documents():
    # the package's surface is the pipeline README's library section shows; every other name is internal
    # to its module, so a later export of an internal step fails here until README documents it
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.name for stmt in init.body if isinstance(stmt, ast.ImportFrom) for alias in stmt.names]
    library = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    assert [name for name in exported if not re.search(rf"`{name}`", library)] == []
    assert len(exported) == 12


def referenced(node) -> set[str]:
    """Every name node uses: bare names, attribute names and the names it imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def defined(stmt) -> list[str]:
    """The names a top-level statement defines: a function's, a class's, or an assignment's targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]


# Functions that only the benchmark (perfbench/) calls from outside the package: the stages parse the bytes they
# read, and these read a run's file by path for perfbench's tracer and solution check.
CALLED_BY_PERFBENCH = {"blackbox.py:load_model", "cli.py:_load_bundle_explainers"}


def test_every_top_level_definition_is_used_by_the_package():
    # A function, class or constant that only __init__ re-exports, or only
    # the tests use, belongs in the tests (tests/oracles.py holds the
    # reference implementations).
    statements = [
        (path.name, stmt)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    uses = [(stmt, referenced(stmt)) for _, stmt in statements]
    unused = [
        f"{module}:{name}"
        for module, stmt in statements
        for name in defined(stmt)
        if not any(name in names for other, names in uses if other is not stmt)
    ]
    assert set(unused) == CALLED_BY_PERFBENCH, f"used by no module of the package but __init__: {', '.join(unused)}"


# Members that only the benchmark (perfbench/) reads from outside the package.
READ_BY_PERFBENCH = {"disagree_pair_count"}
# Members that no code reads yet, each kept for the reader named beside it.
KEPT_UNREAD = {
    "scores": "RoundRecord.scores, each filter round's candidate scores: the selection.json of ROADMAP item 5",
}


def member_uses(node) -> set[str]:
    """The member names node reads: attribute reads and string constants.

    A bare name is a local or a global, never a member, so it does not
    count; nor does a keyword argument's name, which sets a field rather
    than reads it. A string constant does, as `getattr` and `vars` take one.
    """
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def member_name(stmt) -> str | None:
    """The member a class-body statement defines: a method, a property or a field; None for dunders and the rest."""
    if isinstance(stmt, ast.FunctionDef):
        name = stmt.name
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        name = stmt.target.id
    else:
        return None
    return None if name.startswith("__") else name


def test_every_class_member_is_used_by_the_package():
    # A method, property or dataclass / NamedTuple field that only the tests
    # read belongs in the tests. Only what `member_uses` finds counts as a
    # use, so a local variable that shares a member's name does not. A
    # member's own body does not count as a use, nor does a use inside a
    # member that is itself unused.
    units, members = [], []  # the package's statements, each class cut into its body's; (label, name, statement)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(stmt, ast.ClassDef):
                units.append(stmt)
                continue
            units += [*stmt.body, *stmt.bases, *stmt.keywords, *stmt.decorator_list]
            members += [(f"{path.name}:{stmt.name}.{name}", name, s) for s in stmt.body if (name := member_name(s))]
    uses = [(id(unit), member_uses(unit)) for unit in units]
    unused: set[str] = set()
    while True:  # until no member is left whose only uses lie in unused members
        dead = {id(stmt) for label, _, stmt in members if label in unused}
        found = {
            label
            for label, name, stmt in members
            if not any(name in names for unit, names in uses if unit != id(stmt) and unit not in dead)
        }
        if found == unused:
            break
        unused = found
    assert {label.rsplit(".", 1)[1] for label in unused} == READ_BY_PERFBENCH | KEPT_UNREAD.keys(), (
        f"class members read by no other code of the package: {', '.join(sorted(unused))}"
    )
