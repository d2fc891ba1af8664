"""Static checks on src/spgrad/ and tests/ that need no linter: unused
module-level imports, and private module-level names that nothing reads.
An import kept unused for the benchmark is allowed only while the
benchmark still patches it."""
import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spgrad"
TESTS = Path(__file__).resolve().parent

# bound for the benchmark, which patches them by name
KEPT = {"safe_updates.py": {"sample_trajectory", "substream"}}
PERFBENCH = PACKAGE.parents[1] / "perfbench"


def _bound_names(node: "ast.Import | ast.ImportFrom") -> "list[str]":
    """The names an import statement binds (none for a __future__ import)."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if node.module == "__future__":
        return []
    return [alias.asname or alias.name for alias in node.names]


def _module_level(tree: ast.Module):
    """The statements outside any function or class body, nested ones included."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, ast.ClassDef | ast.FunctionDef | ast.AsyncFunctionDef):
            stack.extend(n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt))


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            yield from (a.annotation for a in every if a is not None and a.annotation)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> "set[str]":
    """Every name read outside an import statement, quoted annotations included."""
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str, allowed: "set[str]" = frozenset()) -> "list[str]":
    """'name (line n)' for each module-level import that nothing uses."""
    tree = ast.parse(source)
    imported = {
        name: node.lineno
        for node in _module_level(tree)
        if isinstance(node, ast.Import | ast.ImportFrom)
        for name in _bound_names(node)
    }
    used = _used_names(tree) | allowed
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"{name} (line {line})" for line, name in unused]


def _bound_here(node: ast.stmt) -> "list[tuple[str, int]]":
    """(name, line) for each name that a def, a class or an assignment binds."""
    if isinstance(node, ast.ClassDef | ast.FunctionDef | ast.AsyncFunctionDef):
        return [(node.name, node.lineno)]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [
        (n.id, n.lineno) for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)
    ]


def orphaned_private_names(source: str) -> "list[str]":
    """'name (line n)' for each module-level def, class or assignment target
    named with one leading underscore that nothing in the module reads."""
    tree = ast.parse(source)
    used = _used_names(tree)
    orphans: "dict[str, int]" = {}  # name -> line of its first binding
    for statement in _module_level(tree):
        for name, line in _bound_here(statement):
            if name.startswith("_") and not name.startswith("__") and name not in used:
                orphans[name] = min(line, orphans.get(name, line))
    return [f"{name} (line {line})" for name, line in sorted(orphans.items(), key=lambda x: x[1])]


def _exported(init: Path) -> "set[str]":
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _source_id(path: Path) -> str:
    """A package module by its name, a test module as tests/<name>."""
    return path.name if path.parent == PACKAGE else f"tests/{path.name}"


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=_source_id
)
def test_no_unused_module_imports(path):
    allowed = KEPT.get(_source_id(path), set())
    if _source_id(path) == "__init__.py":
        allowed = allowed | _exported(path)
    assert unused_imports(path.read_text(), allowed) == []


def test_kept_names_are_still_patched_by_the_benchmark():
    # an allowance outlives its reason once perfbench stops patching the name
    sys.path.insert(0, str(PERFBENCH))
    import spans

    targets = {(owner.__name__, attr) for owner, attr, _ in spans._FUNCTION_TARGETS}
    for source, names in KEPT.items():
        module = "spgrad." + source.removesuffix(".py")
        assert {(module, name) for name in names} <= targets


def test_unused_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Any, Callable as Fn, Sequence\n"
        "def f(x: 'Sequence[int]') -> Fn:\n"
        "    return math.floor(x)\n"
    )
    assert unused_imports(source) == ["os (line 3)", "Any (line 4)"]
    assert unused_imports(source, {"os", "Any"}) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=_source_id)
def test_no_orphaned_private_names(path):
    assert orphaned_private_names(path.read_text()) == []


def test_orphaned_private_name_is_caught():
    source = (
        "_USED = 1\n"
        "_UNUSED, public = 2, 3\n"
        "__dunder__ = 4\n"
        "_annotated: int = 5\n"
        "def _helper():\n"
        "    return _USED\n"
        "def _orphan():\n"
        "    _local = _helper()\n"
        "class _Quoted:\n"
        "    _attribute = 6\n"
        "def f(x: '_Quoted'):\n"
        "    pass\n"
        "if public:\n"
        "    _stored = 7\n"
        "    _stored += 1\n"
    )
    assert orphaned_private_names(source) == [
        "_UNUSED (line 2)",
        "_annotated (line 4)",
        "_orphan (line 7)",
        "_stored (line 14)",
    ]
