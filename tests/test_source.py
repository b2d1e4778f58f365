"""Properties of the package source itself."""

import ast
import dataclasses
import inspect
import pathlib
import re
import sys

import choosability
from choosability import gf
from choosability.construction import hard_instance
from choosability.gf import FiniteField
from choosability.instances import ListAssignment
from conftest import ADMISSIBLE_16

ROOT = pathlib.Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "choosability").glob("*.py"))

# exported functions with no caller in another module, in perfbench/ or in
# README's library example, each with the reason it stays public
KEPT = {
    "johnson_threshold": "the criterion-5 red check calls it as written",
    "vertex_count_bound": "the criterion-5 red check calls it as written",
    "johnson_bound": "a bound source for the planned `chi` command",
    "lower_bound_constructive": "a bound source for the planned `chi` command",
    "upper_bound": "a bound source for the planned `chi` command",
    "iter_canonical_assignments": "the enumerator that exact chi from packings reuses",
    "list_colorable_graph": "the colorer for graphs that are not complete",
    "is_admissible": "the predicate behind check_admissible; the conftest references call it",
}


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


def test_construction_does_not_decode_bit_positions():
    """`solver.pair_overlaps` builds the entry columns and is the one reader
    of the overlap planes, so `construction` neither shifts nor asks for a
    bit position or a bit count, and `solver` hands out no columns."""
    path = SOURCES[0].parent / "construction.py"
    found = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.BinOp, ast.AugAssign))
             and isinstance(node.op, (ast.LShift, ast.RShift))
             or isinstance(node, ast.Attribute) and node.attr in ("bit_length", "bit_count")]
    assert found == []
    assert not hasattr(choosability.solver, "entry_columns")


def _list_checks(tree):
    """Every ColorOutOfRange built, `operator.lt` read and `_increasing`
    named in `tree`, as "name (line N)"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ColorOutOfRange":
            names = ["ColorOutOfRange"]
        elif isinstance(node, ast.ImportFrom) and node.module == "operator":
            names = [alias.name for alias in node.names if alias.name == "lt"]
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "operator":
            names = [node.attr] if node.attr == "lt" else []
        elif isinstance(node, (ast.FunctionDef, ast.Name)):
            names = [name for name in (getattr(node, "name", None), getattr(node, "id", None))
                     if name == "_increasing"]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names]
    return found


def test_only_the_list_assignment_checks_colors():
    """`ListAssignment` checks every family's colors when it is built, so
    no other module builds ColorOutOfRange or tests a list for strict
    increase, and `colorable`, `pair_overlaps`, `verify_design` and
    `loads_instance` read the lists as well formed."""
    found = {path.name: _list_checks(ast.parse(path.read_text(), filename=str(path)))
             for path in SOURCES}
    assert found.pop("instances.py")
    assert {name: lines for name, lines in found.items() if lines} == {}


def _header_messages(tree):
    """The text of every string literal in `tree` that says a field must be
    a nonnegative integer, with each f-string placeholder as "{}"."""
    found, parts = [], set()
    for node in ast.walk(tree):  # an f-string comes before its parts
        if isinstance(node, ast.JoinedStr):
            parts.update(map(id, node.values))
            text = "".join(part.value if isinstance(part, ast.Constant) else "{}"
                           for part in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in parts:
            text = node.value
        else:
            continue
        if "must be a nonnegative integer" in text:
            found.append(text)
    return found


def test_only_the_list_assignment_checks_its_header():
    """`ListAssignment` derives `n` from its lists and checks `c`, `k` and
    `num_colors` when it is built, so it has no field `n`, the instance
    loader checks only the file's own `n`, and no other module says that a
    header field must be a nonnegative integer."""
    assert "n" not in {field.name for field in dataclasses.fields(ListAssignment)}
    found = {path.name: _header_messages(ast.parse(path.read_text(), filename=str(path)))
             for path in SOURCES}
    assert found.pop("instances.py") == ["field '{}' must be a nonnegative integer, got {}"]
    assert found.pop("formats.py") == ["field 'n' must be a nonnegative integer, got {}"]
    assert {name: texts for name, texts in found.items() if texts} == {}
    assert not any("_is_int" in path.read_text() for path in SOURCES)


def _callers(tree, names):
    """The top-level definitions of `tree` ("<module>" for other statements)
    that call one of `names` as `f(...)` or `module.f(...)`."""
    return sorted({getattr(top, "name", "<module>") for top in tree.body
                   for node in ast.walk(top) if isinstance(node, ast.Call)
                   and getattr(node.func, "id", getattr(node.func, "attr", None)) in names})


def test_only_the_walker_composes_bounds_reports():
    """`bounds.bounds_reports` is the one composition of a `BoundsReport`:
    it alone builds one, `bounds_report` is its single row, and `cli` reads
    a range's rows from it instead of calling a bound once per n."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    builders = [f"{stem}.{name}" for stem, tree in trees.items()
                for name in _callers(tree, {"BoundsReport"})]
    per_n = _callers(trees["cli"], {"bounds_report", "lower_bound_constructive", "upper_bound"})
    assert builders + [f"cli.{name}" for name in per_n] == ["bounds.bounds_reports"]


def test_no_module_imports_a_cache():
    """No module imports `functools.lru_cache` or `functools.cache`: a cache
    must first show traffic that repeats, and the benchmark's fresh imports
    assume every module starts without remembered state. `bounds --range`
    derives each search once per step without one."""
    assert SOURCES
    found = []
    for path in SOURCES:
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


# public FiniteField methods that no other module of the package calls, each
# with the reason it stays
FIELD_KEPT = {
    "add": "perfbench/tracing.exercise_layers calls it; ROADMAP item 6",
}


def test_finite_field_methods_all_have_callers(monkeypatch):
    """`FiniteField` is the arithmetic the construction needs, not a general
    field library: building every hard instance with q <= 16 calls each
    public method from another module of the package, except the names in
    FIELD_KEPT, which stay uncalled. The calls are counted at run time, so
    a method of another type with the same name (`set.add`) is no caller."""
    public = sorted(name for name, value in vars(FiniteField).items()
                    if inspect.isfunction(value) and not name.startswith("_"))
    called = set()

    def counted(name, method):
        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals["__name__"] != gf.__name__:
                called.add(name)
            return method(*args, **kwargs)
        return wrapper

    for name in public:
        monkeypatch.setattr(FiniteField, name, counted(name, getattr(FiniteField, name)))
    for q, c in ADMISSIBLE_16:
        hard_instance(q, c)
    assert public and FIELD_KEPT.keys() <= set(public)
    assert sorted(set(public) - called - FIELD_KEPT.keys()) == []
    assert sorted(called & FIELD_KEPT.keys()) == []


def _references(tree):
    """Every name read as `name` or as `something.name`."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_exported_functions_have_callers():
    """Every function the package exports is used by another of its
    modules, by the benchmark scripts or by README's library example, or
    is in KEPT with its reason; a kept name that gains a caller or stops
    being exported leaves KEPT."""
    init = ast.parse((SOURCES[0].parent / "__init__.py").read_text())
    exported = {alias.name: node.module for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    functions = {name: module for name, module in exported.items()
                 if inspect.isfunction(getattr(choosability, name))}
    modules = {path.stem: _references(ast.parse(path.read_text(), filename=str(path)))
               for path in SOURCES if path.stem != "__init__"}
    outside = set().union(*(_references(ast.parse(path.read_text(), filename=str(path)))
                            for path in sorted((ROOT / "perfbench").glob("*.py"))))
    example = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    outside |= _references(ast.parse(example.group(1)))
    uncalled = {name for name, module in functions.items() if name not in outside
                and not any(name in refs for stem, refs in modules.items() if stem != module)}
    assert sorted(uncalled - KEPT.keys()) == []
    assert sorted(KEPT.keys() - uncalled) == []
