"""Every name in ``src/repro`` is reached by code that runs.

A name in a package's ``__all__`` must be referenced from ``src/repro``,
``benchmarks/``, ``examples/`` or a ``scenarios/*.json`` bundle. A
reference in the module that defines the name, in an ``__init__.py``,
in a comment or docstring, or in a test does not count: code that only
tests call is code nothing runs. Deleting such a name deletes its
re-export, its docs and its tests with it.

Below ``__all__``, two ``ast`` passes hold the same line. Every
module-level import of a non-``__init__`` module is used in that module
or listed in its ``__all__``; the same holds for every file under
``tests/``, where a fixture imported to be injected by parameter name
counts as used. Every public function, method and property
is referenced outside ``tests/`` and outside its own definition. A
module-level function counts as referenced in its own module, or in a
file that imports it, imports its module or package and reads it as an
attribute, or spells that module's dotted path in a string as the
tracer's patch sites do; a same-named function elsewhere does not
count. A method or property counts as referenced by any ``.name``
attribute or any string naming it.
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


# -- Below ``__all__``: imports, functions, methods and properties -----------

IMPORT_EXEMPT = (
    # benchmarks/perf/trace.py patches the name where this module reads it
    ("repro.campaigns.aggregate", "read_journal"),
)

DEFINITION_EXEMPT = (
    # stdlib hooks: http.server calls them by name
    ("repro.serve.app", "_StoreRequestHandler.do_GET"),
    ("repro.serve.app", "_StoreRequestHandler.log_message"),
    ("repro.serve.app", "_ReusedThreadHTTPServer.process_request"),
    # the impairment tests' fault-injection hook
    ("repro.net.sim", "Network.set_link_profile"),
)


def _annotation_names(tree: ast.AST) -> set:
    """Names read inside string annotations such as ``"str | IPAddress"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [arg.annotation for arg in (
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *filter(None, (args.vararg, args.kwarg)))]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _top_level(body: list):
    """The statements of a module body, ``if TYPE_CHECKING:`` blocks included."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from _top_level(node.body + node.orelse)


class _Source:
    """One reaching file: what it imports, reads and spells in strings."""

    def __init__(self, path: Path):
        base = SRC.parent if SRC in path.parents else ROOT
        self.module = ".".join(path.relative_to(base).with_suffix("").parts)
        self.tree = ast.parse(path.read_text())
        docs = _docstring_lines(self.tree)
        nodes = list(ast.walk(self.tree))
        self.strings = {
            node.value for node in nodes
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and not any(a <= node.lineno <= b for a, b in docs)
        }
        self.names = [(n.id, n.lineno) for n in nodes if isinstance(n, ast.Name)]
        self.attrs = [(n.attr, n.lineno) for n in nodes if isinstance(n, ast.Attribute)]
        self.imported = {}  # binding -> the dotted path it was imported from
        for node in nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imported[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom):
                origin = self._absolute(node)
                for alias in node.names:
                    self.imported[alias.asname or alias.name] = f"{origin}.{alias.name}"

    def _absolute(self, node: ast.ImportFrom) -> str:
        if not node.level:
            return node.module
        package = self.module.split(".")[: -node.level]
        return ".".join(package + ([node.module] if node.module else []))

    def names_string(self, name: str) -> bool:
        return any(s == name or s.endswith("." + name) for s in self.strings)

    def module_imports(self) -> list:
        """The names bound by this module's module-level imports."""
        bound = []
        for node in _top_level(self.tree.body):
            if isinstance(node, ast.Import):
                bound += [alias.asname or alias.name.partition(".")[0]
                          for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound += [alias.asname or alias.name for alias in node.names]
        return bound

    def definitions(self) -> dict:
        """Map each public function, method and property to its line span."""
        spans = {}

        def visit(body, prefix):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    visit(node.body, f"{prefix}{node.name}.")
                elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not node.name.startswith("_")):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    span = (first, node.end_lineno)
                    previous = spans.get(prefix + node.name)  # property setters
                    spans[prefix + node.name] = (
                        (min(previous[0], first), max(previous[1], node.end_lineno))
                        if previous else span)

        visit(self.tree.body, "")
        return spans


SOURCES = [_Source(path) for path in _reaching_files() if path.suffix == ".py"]
MODULES = {
    source.module: source for source in SOURCES if source.module.startswith("repro.")
}


def _function_reached(module: str, name: str, span: tuple) -> bool:
    """Whether a module-level function is referenced from code that runs."""
    own = MODULES[module]
    if any(word == name and not span[0] <= line <= span[1]
           for word, line in own.names + own.attrs):
        return True
    parts = module.split(".")
    homes = {".".join(parts[:i]) for i in range(2, len(parts) + 1)}
    for source in SOURCES:
        if source is own:
            continue
        origins = set(source.imported.values())
        if {f"{home}.{name}" for home in homes} & origins:
            return True
        attrs = {attr for attr, _ in source.attrs}
        if homes & origins and name in attrs:
            return True
        if homes & source.strings and source.names_string(name):
            return True
    return False


def _method_reached(module: str, qualname: str, span: tuple) -> bool:
    """Whether a method or property is referenced from code that runs."""
    name = qualname.rpartition(".")[2]
    own = MODULES[module]
    for source in SOURCES:
        if source.names_string(name):
            return True
        if any(attr == name and not (source is own and span[0] <= line <= span[1])
               for attr, line in source.attrs):
            return True
    return False


def _unused_imports(source: _Source, used: set) -> list:
    """The names ``source`` imports at module level and neither reads
    nor lists in ``used``."""
    used = used | {name for name, _ in source.names} | _annotation_names(source.tree)
    return [name for name in source.module_imports() if name not in used]


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_imports_are_used(module):
    source = MODULES[module]
    exported = set()
    for node in source.tree.body:
        if isinstance(node, ast.Assign):
            if getattr(node.targets[0], "id", "") == "__all__":
                exported |= set(ast.literal_eval(node.value))
    unused = [
        name for name in _unused_imports(source, exported)
        if (module, name) not in IMPORT_EXEMPT
    ]
    assert unused == [], f"{module} imports names it never uses"


TEST_FILES = sorted((ROOT / "tests").rglob("*.py"))


@pytest.mark.parametrize(
    "path", TEST_FILES, ids=lambda path: path.relative_to(ROOT).as_posix()
)
def test_test_module_imports_are_used(path):
    """The same pass over ``tests/``. pytest injects a fixture by
    parameter name, so an imported name that some function of the file
    takes as a parameter counts as used."""
    source = _Source(path)
    parameters = {
        arg.arg
        for node in ast.walk(source.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
    }
    unused = _unused_imports(source, parameters)
    assert unused == [], f"{source.module} imports names it never uses"


@pytest.mark.parametrize("module", sorted(MODULES))
def test_definitions_are_reached(module):
    unreached = [
        qualname for qualname, span in MODULES[module].definitions().items()
        if (module, qualname) not in DEFINITION_EXEMPT
        and not (_method_reached if "." in qualname else _function_reached)(
            module, qualname, span)
    ]
    assert unreached == [], f"{module} defines names only tests reach"


def test_exemptions_still_exist():
    imports = {(module, name) for module in MODULES
               for name in MODULES[module].module_imports()}
    definitions = {(module, qualname) for module in MODULES
                   for qualname in MODULES[module].definitions()}
    assert sorted(set(IMPORT_EXEMPT) - imports) == []
    assert sorted(set(DEFINITION_EXEMPT) - definitions) == []
