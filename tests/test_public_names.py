"""Every function, class and method of the package, public or private, is
used by the package itself, so that no API or helper exists for the tests
alone. Only a read of a name counts as a use: importing it, as a re-export
does, does not. Dunder methods are called by Python itself."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dwspectral"

ALLOWED = {
    # The schema of a phantom spec file: load_phantom_spec's docstring points
    # to it, and the tests and the benchmark write spec files with it.
    "physics.phantom_spec_to_json",
}


def definitions(tree):
    """(name, node) of each module-level function or class, and of each
    method of a module-level class but its dunder methods, named
    Class.method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item


def referenced_names(tree) -> Counter:
    """How often each name is read, as a variable or an attribute, in
    ``tree``. An ``import`` binds a name but does not read it."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
    return names


def unreferenced(src: Path) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    everywhere = sum((referenced_names(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            bare = name.rsplit(".", 1)[-1]
            # A reference inside the definition itself does not count.
            if everywhere[bare] - referenced_names(node)[bare] == 0:
                found.append(f"{module}.{name}")
    return found


def private(name: str) -> bool:
    return name.rsplit(".", 1)[-1].startswith("_")


def test_every_public_name_is_used_in_src():
    assert sorted(name for name in unreferenced(SRC) if not private(name)) == sorted(ALLOWED)


def test_every_private_name_is_used_in_src():
    assert [name for name in unreferenced(SRC) if private(name)] == []
