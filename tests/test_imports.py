"""Every name a package or test module imports at module level is read
there, every function and class the package defines is read in the
package, every helper a test module defines is read in the tests, no
package module states an invariant with ``assert`` or reads ``__debug__``,
none reads or sets a random stream's position, and every file the package
writes fixes its line ends. The one exception to the first two rules is a
name the benchmark rebinds, as ``perfbench/child.py`` states it."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fringelock"
CHILD = TESTS.parent / "perfbench" / "child.py"


def _hooked() -> set[tuple[str, str]]:
    """(module, name) of the package that ``child.py``'s ``install_tracing``
    rebinds to time it: each ``module.name = ...`` and each name of a
    ``for name in (...): setattr(module, name, ...)`` loop."""
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    install = [node for node in tree.body if getattr(node, "name", None) == "install_tracing"]
    hooked = set()
    for node in (node for function in install for node in ast.walk(function)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            hooked.add((ast.unparse(node.value), node.attr))
        elif isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple):
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and ast.unparse(call.func) == "setattr"
                        and ast.unparse(call.args[1]) == ast.unparse(node.target)):
                    module = ast.unparse(call.args[0])
                    hooked.update((module, element.value) for element in node.iter.elts)
    return {(module, name) for module, name in hooked if (SRC / f"{module}.py").is_file()}


HOOKED = _hooked()


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def _read(tree: ast.Module) -> set[str]:
    return {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")), ids=lambda p: p.stem
)
def test_module_reads_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = {name for name in _imported(tree) - _read(tree) if (path.stem, name) not in HOOKED}
    assert not unread, f"{path.name} imports names it never reads: {sorted(unread)}"


def _parse(directory: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in directory.glob("*.py")}


def _definitions(modules: dict[str, ast.Module]) -> list[tuple[str, ast.stmt]]:
    return [
        (module, node) for module, tree in modules.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]


def _loaded(modules: dict[str, ast.Module]) -> set[str]:
    # a name counts as read when loaded bare or as an attribute (``drift_mod.advance``)
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in modules.values() for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


PACKAGE = _parse(SRC)
DEFINED = {(module, node.name) for module, node in _definitions(PACKAGE)}
READ_IN_PACKAGE = _loaded(PACKAGE)


def test_package_reads_every_function_and_class_it_defines():
    allowed = READ_IN_PACKAGE | {name for _, name in HOOKED}
    dead = {(module, name) for module, name in DEFINED if name not in allowed}
    assert not dead, f"defined in src/fringelock, never read there: {sorted(dead)}"


def _is_fixture(node: ast.stmt) -> bool:
    return any(
        ast.unparse(d.func if isinstance(d, ast.Call) else d) in ("pytest.fixture", "fixture")
        for d in node.decorator_list
    )


def test_tests_read_every_helper_they_define():
    # test* functions and Test* classes are collected, not read; a fixture is
    # read when a test takes it as a parameter
    modules = _parse(TESTS)
    loaded = _loaded(modules)
    parameters = {
        node.arg for tree in modules.values() for node in ast.walk(tree) if isinstance(node, ast.arg)
    }
    dead = sorted(
        f"{module}.{node.name}" for module, node in _definitions(modules)
        if not node.name.startswith("test" if isinstance(node, ast.FunctionDef) else "Test")
        and node.name not in (parameters if _is_fixture(node) else loaded)
    )
    assert not dead, f"defined in tests/, never read there: {dead}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_has_no_assert_statement(path):
    # python -O strips assert and sets __debug__ to False: an invariant must
    # raise a real exception, and no code may run only without -O
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "__debug__"
    ]
    assert not lines, f"{path.name} has assert statements or reads __debug__ at lines {lines}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_module_never_touches_a_stream_position(path):
    # streams only move forward: reading or assigning bit_generator.state
    # is how a rewind would come back
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "state"
        and isinstance(node.value, ast.Attribute) and node.value.attr == "bit_generator"
    ]
    assert not lines, f"{path.name} reads or sets bit_generator.state at lines {lines}"


def _writes_a_file(call: ast.Call) -> bool:
    """A ``.write_text(...)`` call, or an ``open(...)`` whose mode writes."""
    name = ast.unparse(call.func)
    modes = call.args[1:2] + [keyword.value for keyword in call.keywords if keyword.arg == "mode"]
    return name.endswith(".write_text") or name == "open" and any(
        set("wax+") & set(ast.literal_eval(mode)) for mode in modes
    )


def test_package_fixes_the_line_ends_of_every_file_it_writes():
    # a file written without newline= ends its lines as the platform does,
    # so its bytes would leave the pinned digests on Windows
    calls = [
        f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _writes_a_file(node)
        and "newline" not in {keyword.arg for keyword in node.keywords}
    ]
    assert not calls, f"files written without newline= at {calls}"
