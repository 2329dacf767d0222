"""Every name a package or test module imports at module level is read
there, every function and class the package defines is read in the
package, every helper a test module defines is read in the tests, no
package module states an invariant with ``assert`` or reads ``__debug__``,
and none reads or sets a random stream's position."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fringelock"

#: (module, name) imported but never read. perfbench/child.py --trace 1
#: rebinds these names to time them; each goes when its span is dropped from
#: the benchmark. ``Plant.counter`` inlines ``sample_counts`` and
#: ``port_intensities``; the window-by-window model the tests compare against
#: is ``tests/reference_model.py``.
ALLOWED_UNREAD = {
    ("controller", "select_delay"),
    ("plant", "sample_counts"),
    ("plant", "port_intensities"),
}


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
    unread = {
        name for name in _imported(tree) - _read(tree) if (path.stem, name) not in ALLOWED_UNREAD
    }
    assert not unread, f"{path.name} imports names it never reads: {sorted(unread)}"


def test_allowed_names_are_still_unread():
    # an allowance outlives its reason once the module reads the name again
    for module, name in ALLOWED_UNREAD:
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        assert name in _imported(tree) - _read(tree), f"{module}.{name} no longer needs its allowance"


#: (module, name) defined at module level but read nowhere in the package.
#: perfbench/child.py --trace 1 rebinds these names to time them, and
#: tests/reference_model.py builds its window-by-window plant on them.
ALLOWED_DEAD = {
    ("drift", "true_phase"), ("hardware", "sample_counts"), ("optics", "port_intensities")
}


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
    dead = {(module, name) for module, name in DEFINED if name not in READ_IN_PACKAGE}
    dead -= ALLOWED_DEAD
    assert not dead, f"defined in src/fringelock, never read there: {sorted(dead)}"


def test_allowed_definitions_are_still_unread():
    # an allowance outlives its reason once the package reads the name again
    for module, name in ALLOWED_DEAD:
        assert (module, name) in DEFINED and name not in READ_IN_PACKAGE, f"{module}.{name}"


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
