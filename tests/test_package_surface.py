"""No public function, class, method or dataclass field of the package exists only for its tests.

The scan reads the AST of every module of ``src/robustgd`` but
``__init__.py`` (whose re-exports call nothing), and collects the public
top-level functions and classes and the public methods of those classes. Each
must be referenced by name (a name, an attribute or an imported name)
somewhere in the package outside its own definition. The few that are not
are listed in ``KEPT`` with the reason they stay; an entry kept because the
bench calls it must be referenced in ``perfbench/``, and an entry the package
has come to reference is stale.

Every field of a top-level dataclass must be read as an attribute
(``value.field``, not an assignment to it) somewhere in ``src/robustgd`` or
``perfbench/``: a field that is only set carries nothing to any reader.
"""

import ast
from pathlib import Path

import robustgd

SRC = Path(robustgd.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"

BENCH = "the bench calls it"
KEPT = {
    "ExperimentConfig.resolved": BENCH,
    "write_records": BENCH,
    "required_iterations": "acceptance criterion 4 checks the ascent against the count it gives",
}


def _modules():
    return {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
            if path.name != "__init__.py"}


def _public_definitions(tree):
    """(qualified name, name, node) of each public top-level function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub.name, sub


def _referenced_names(tree, skip=None):
    """The names ``tree`` references, leaving out the subtree ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        stack.extend(ast.iter_child_nodes(node))
    return names


def _unreferenced():
    modules = _modules()
    everywhere = {path: _referenced_names(tree) for path, tree in modules.items()}
    found = []
    for path, tree in modules.items():
        others = set().union(*(names for p, names in everywhere.items() if p != path))
        for qualname, name, node in _public_definitions(tree):
            if name not in others and name not in _referenced_names(tree, skip=node):
                found.append(qualname)
    return found


def test_every_public_name_has_a_caller_in_the_package():
    assert sorted(_unreferenced()) == sorted(KEPT)


def test_the_names_kept_for_the_bench_are_the_ones_it_calls():
    bench = set().union(*(_referenced_names(ast.parse(path.read_text()))
                          for path in PERFBENCH.glob("*.py")))
    for qualname, reason in KEPT.items():
        if reason == BENCH:
            assert qualname.rpartition(".")[2] in bench, qualname


def _dataclass_fields(tree):
    """(class.field) of each field of each top-level dataclass of ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in _referenced_names(decorator) for decorator in node.decorator_list):
            for sub in node.body:
                if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                    yield f"{node.name}.{sub.target.id}"


def _unread_fields():
    """The dataclass fields of the package that no module of it or of the bench reads."""
    trees = list(_modules().values())
    bench = [ast.parse(path.read_text()) for path in PERFBENCH.glob("*.py")]
    read = {node.attr for tree in trees + bench for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [qualname for tree in trees for qualname in _dataclass_fields(tree)
            if qualname.rpartition(".")[2] not in read]


def test_every_dataclass_field_is_read_in_the_package_or_the_bench():
    assert _unread_fields() == []
