"""Every name a ``repro`` package exports is reached by code that runs.

A name in a package's ``__all__`` must be referenced from ``src/repro``,
``benchmarks/``, ``examples/`` or a ``scenarios/*.json`` bundle. A
reference in the module that defines the name, in an ``__init__.py``,
in a comment or docstring, or in a test does not count: code that only
tests call is code nothing runs. Deleting such a name deletes its
re-export, its docs and its tests with it.
"""

import ast
import io
import re
import tokenize
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "repro"
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

EXEMPT = (
    "__version__",  # package metadata, read by packaging tools
    "make_id_server_query",  # fixture: tests of the resolvers' id.server answers
    "QUIRKY_STRINGS",  # data: tests of the software catalogue's version strings
)


def _is_test(path: Path) -> bool:
    return path.name.startswith("test_") or path.name == "conftest.py"


def _docstring_lines(tree: ast.AST) -> list:
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                spans.append((first.lineno, first.end_lineno))
    return spans


def _code_words(path: Path) -> Counter:
    """The identifiers in ``path``, leaving out comments and docstrings."""
    text = path.read_text()
    if path.suffix != ".py":
        return Counter(WORD.findall(text))
    docs = _docstring_lines(ast.parse(text))
    words = Counter()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            continue
        in_docstring = any(a <= token.start[0] <= b for a, b in docs)
        if token.type == tokenize.STRING and in_docstring:
            continue
        words.update(WORD.findall(token.string))
    return words


def _reaching_files() -> list:
    files = [*SRC.rglob("*.py"), *(ROOT / "benchmarks").rglob("*.py")]
    files += [*(ROOT / "examples").rglob("*.py"), *(ROOT / "scenarios").glob("*.json")]
    return [path for path in files if not _is_test(path) and path.name != "__init__.py"]


def _exports(init: Path) -> dict:
    """Map each name in ``init``'s ``__all__`` to the file that defines it."""
    tree = ast.parse(init.read_text())
    defined_in, exported = {}, []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            base = init.parent if node.level == 1 else SRC.parent
            module = base.joinpath(*node.module.split("."))
            source = module.with_suffix(".py")
            if not source.exists():
                source = module / "__init__.py"
            for alias in node.names:
                defined_in[alias.asname or alias.name] = source
        elif isinstance(node, ast.Assign):
            if getattr(node.targets[0], "id", "") == "__all__":
                exported = ast.literal_eval(node.value)
    return {name: defined_in.get(name, init) for name in exported}


WORDS = {path: _code_words(path) for path in _reaching_files()}
EXPORTS = {
    (init.parent.relative_to(SRC.parent).as_posix().replace("/", "."), name): source
    for init in sorted(SRC.rglob("__init__.py"))
    for name, source in _exports(init).items()
}


def test_exemptions_are_still_exported():
    exported = {name for _, name in EXPORTS}
    assert sorted(set(EXEMPT) - exported) == []


@pytest.mark.parametrize(
    "package,name", sorted(key for key in EXPORTS if key[1] not in EXEMPT)
)
def test_exported_name_is_reached(package, name):
    source = EXPORTS[package, name]
    users = sorted(
        str(path.relative_to(ROOT)) for path, words in WORDS.items()
        if path != source and words[name]
    )
    assert users, f"{package}.{name} is referenced only by tests or its own module"
