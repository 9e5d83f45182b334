"""Every public name in `src/abelslab` has a caller in the program.

A public top-level function or class, or a public method of a top-level
class, counts as used when its name appears in `src/` or `perfbench/`
outside its own definition: as a name or an attribute, or, in
`perfbench/` only, as a string (the benchmark's tracer names the
functions it wraps as strings).  A string in `src/` is no use: a report's
suite or check id that spells a name does not call it.  Names are
matched by spelling only, so two methods called `add` share their uses.
A function wanted only by tests belongs in a `tests/reference_*.py`
module; the click commands below are the only exceptions.  Every
private top-level function or class, and every private method of a
top-level class, must likewise be referenced in `src/` outside its own
definition (dunder methods are exempt), so that a helper left behind by
a refactor fails here.  Every module-level import of `src/abelslab`
must also be read by its module.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALLOWED = {
    # click command functions, reached through their decorators
    "cli.verify_steinberg",
    "cli.verify_commutators",
    "cli.verify_forms",
    "cli.verify_borel",
    "cli.verify_abels_cmd",
    "cli.verify_presentations_cmd",
    "cli.verify_complex_cmd",
    "cli.verify_tits",
    "cli.verify_all",
    "cli.export_complex_cmd",
    "cli.report_merge",
}


def _uses(tree, strings=False):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _definitions(module, tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item


def _unused_names(private):
    """Definitions of `src/abelslab` named nowhere else: public ones in
    `src/` and `perfbench/`, or private ones, dunders aside, in `src/`."""
    parts = ("src",) if private else ("src", "perfbench")
    trees = {
        path: ast.parse(path.read_text())
        for part in parts
        for path in sorted((ROOT / part).rglob("*.py"))
    }
    uses = Counter(
        name
        for path, tree in trees.items()
        for name in _uses(tree, strings=ROOT / "perfbench" in path.parents)
    )
    unused = set()
    for path, tree in trees.items():
        if path.parent != ROOT / "src" / "abelslab":
            continue
        for qualified, node in _definitions(path.stem, tree):
            name = node.name
            dunder = name.startswith("__") and name.endswith("__")
            if dunder or name.startswith("_") != private:
                continue
            own = sum(1 for used in _uses(node) if used == name)
            if uses[name] == own:
                unused.add(qualified)
    return unused


def test_public_names_have_a_caller_outside_tests():
    assert _unused_names(private=False) == ALLOWED


def test_private_helpers_are_referenced_in_src():
    assert _unused_names(private=True) == set()


def unread_imports():
    unread = set()
    for path in sorted((ROOT / "src" / "abelslab").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.add(f"{path.stem}.{name}")
    return unread


def test_src_imports_are_used():
    assert unread_imports() == set()
