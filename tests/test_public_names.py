"""Every function, class and method of the package, public or private, is
used by the package itself, so that no API or helper exists for the tests
alone. Only a read of a name counts as a use: importing it, as a re-export
does, does not. Dunder methods are called by Python itself. And
classifiers.py reads each model's kind from the model, never from its
class. Every Python name README.md quotes is a name of the code."""

import ast
import re
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


MODEL_CLASSES = {"PolyModel", "MlpModel", "SomModel"}


def test_classifiers_makes_no_type_dispatch_on_models():
    """Each model class carries its kind's facts; classifiers.py reads
    them instead of asking which class it holds: no isinstance on a model
    class, no dict keyed by one, and no lookup by a model's type()."""
    tree = ast.parse((SRC / "classifiers.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            classes = node.args[1]
            names = classes.elts if isinstance(classes, ast.Tuple) else [classes]
            found += [(node.lineno, n.id) for n in names if getattr(n, "id", None) in MODEL_CLASSES]
        elif isinstance(node, ast.Dict):
            found += [(node.lineno, k.id) for k in node.keys if getattr(k, "id", None) in MODEL_CLASSES]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "type":
            if [getattr(a, "id", None) for a in node.args] == ["model"]:
                found.append((node.lineno, "type(model)"))
    assert found == []


ROOT = SRC.parent.parent


def defined_names() -> set:
    """Every name the code of src/, tests/ and perfbench/ defines, reads,
    imports or spells in a string that is not a docstring, and every word
    of pyproject.toml."""
    names = set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()))
    for path in sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.keyword) and node.arg:
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.update(node.module.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in docstrings:
                    names.update(re.findall(r"\w+", node.value))
    return names


def test_readme_names_resolve():
    """Every Python identifier README.md quotes in backticks, dotted or
    called, names a file at the top of the repository or is, part by
    part, a name of the code: a name the code drops fails here until the
    README drops it too."""
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    dotted = r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*(\(\))?"
    quoted = sorted({s for s in spans if re.fullmatch(dotted, s)})
    assert len(quoted) > 100
    names = defined_names()
    unknown = [
        s for s in quoted
        if not (ROOT / s).is_file() and not set(s.removesuffix("()").split(".")) <= names
    ]
    assert unknown == []
