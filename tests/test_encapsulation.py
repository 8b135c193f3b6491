"""No code in ``src/repro`` writes another object's private state.

An underscore attribute belongs to the object that owns it: only code
reaching it through ``self`` or ``cls`` may assign it or change it in
place. A stdlib ``ast`` pass over every module of ``src/repro`` fails on
any assignment, augmented assignment or ``del`` whose target is
``x._name`` (or an item or slice of it) with ``x`` not ``self`` or
``cls``, and on any call of a mutating method (``clear``, ``add``,
``append``, ...) on such an attribute. Reading another object's private
attribute is not flagged; dunder attributes are not private.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "repro"
OWNERS = {"self", "cls"}
MUTATORS = {
    "clear", "add", "append", "update", "pop", "remove", "extend", "discard",
    "setdefault",
}


def _foreign_private(node: ast.AST) -> bool:
    """Whether ``node`` is ``x._name``, or an item or slice of it, with
    ``x`` anything but ``self`` or ``cls``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return (
        isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.endswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in OWNERS)
    )


def _written(node: ast.AST) -> list:
    """The targets ``node`` assigns or deletes, tuples unpacked."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    flat = []
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets += target.elts
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        else:
            flat.append(target)
    return flat


def foreign_writes(tree: ast.AST) -> list:
    """``(line, code)`` of every write to another object's private
    attribute in ``tree``."""
    sites = []
    for node in ast.walk(tree):
        if any(_foreign_private(target) for target in _written(node)):
            sites.append((node.lineno, ast.unparse(node)))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
            and _foreign_private(node.func.value)
        ):
            sites.append((node.lineno, ast.unparse(node)))
    return sorted(sites)


MODULES = sorted(SRC.rglob("*.py"))


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda path: path.relative_to(SRC.parent).as_posix()
)
def test_no_writes_to_foreign_private_state(path):
    assert foreign_writes(ast.parse(path.read_text())) == []


@pytest.mark.parametrize(
    "code",
    [
        "other._x = 1",
        "other._x += 1",
        "a, other._x = 1, 2",
        "other._x[k] = v",
        "del other._x[k]",
        "self.child._x = 1",
        "other._x.clear()",
        "other._x[k].add(v)",
    ],
)
def test_guard_sees_each_kind_of_write(code):
    assert len(foreign_writes(ast.parse(code))) == 1


@pytest.mark.parametrize(
    "code",
    ["self._x = 1", "cls._x[k] = v", "self._x.clear()", "y = other._x",
     "other._x.get(k)", "other.x = 1", "state = other.__dict__"],
)
def test_guard_allows_owner_writes_and_reads(code):
    assert foreign_writes(ast.parse(code)) == []
