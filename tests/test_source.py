"""Properties of the package source itself."""

import ast
import pathlib
import sys

SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "choosability").glob("*.py"))


def _self_calls(tree):
    """Every call by which a function, nested ones included, calls its own
    name as `f(...)` or `self.f(...)`, as "f (line N)"."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if ((isinstance(callee, ast.Name) and callee.id == func.name)
                    or (isinstance(callee, ast.Attribute) and callee.attr == func.name
                        and isinstance(callee.value, ast.Name) and callee.value.id == "self")):
                found.append(f"{func.name} (line {node.lineno})")
    return found


def test_no_function_calls_itself():
    """Searches run on explicit stacks, so no depth of input can exhaust
    the interpreter's recursion limit."""
    assert SOURCES
    calls = {path.name: _self_calls(ast.parse(path.read_text(), filename=str(path)))
             for path in SOURCES}
    assert {name: found for name, found in calls.items() if found} == {}


def test_imports_are_stdlib_or_package():
    """The package keeps zero runtime dependencies: every import names a
    standard-library module or is relative to the package."""
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_search_too_large_is_built_only_for_the_cap():
    """`cli._capped_search` tells every SearchTooLarge to raise
    CHOOSABILITY_SEARCH_CAP, which is right only while the enumerator's
    n * k check is the one place that builds one."""
    path = SOURCES[0].parent / "oracle.py"
    tree = ast.parse(path.read_text(), filename=str(path))

    def built(node):
        return [call for call in ast.walk(node) if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name) and call.func.id == "SearchTooLarge"]

    (enumerator,) = [func for func in tree.body if isinstance(func, ast.FunctionDef)
                     and func.name == "iter_canonical_assignments"]
    assert built(enumerator) and len(built(tree)) == len(built(enumerator))


def test_lru_cache_only_in_bounds():
    """`bounds` remembers its two prime searches, which `bounds --range`
    repeats; a cache anywhere else must first show traffic that repeats,
    and the benchmark's fresh imports assume every other module starts
    without remembered state."""
    assert SOURCES
    found = []
    for path in SOURCES:
        if path.name == "bounds.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "functools"):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name in ("lru_cache", "cache")]
    assert found == []


def test_finite_field_methods_all_have_callers():
    """`FiniteField` is the arithmetic the construction needs, not a general
    field library: every public method is called as an attribute from
    another module of the package."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    (field_class,) = [node for node in trees["gf.py"].body
                      if isinstance(node, ast.ClassDef) and node.name == "FiniteField"]
    public = {node.name for node in field_class.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = {node.func.attr for name, tree in trees.items() if name != "gf.py"
              for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert public and sorted(public - called) == []
