"""Repository hygiene: the library keeps no code that only its tests call,
no parameter default that no call overrides, and no module imports a name
it never reads."""

import ast
from collections import Counter
from pathlib import Path

import semind

PACKAGE = Path(semind.__file__).parent
TESTS = Path(__file__).parent

# Reference implementations with no caller in the package: the acceptance
# criteria compare `count_injections` against them.
TEST_ORACLES = {
    "degree_stats",  # criterion 04 (path-count bound), criterion 12 (degree formulas)
    "sum_blue_degree_products",  # criterion 12 (degree formulas)
    "pattern_automorphism_order",  # criterion 12 (automorphism divisibility)
}


def _names_used(tree: ast.AST) -> Counter:
    """How often each name or attribute is read in tree."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
    return used


def test_every_top_level_name_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = sum(map(_names_used, trees.values()), Counter())
    unused = []
    for fname, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            # a reference inside the definition itself (recursion) is no caller
            if node.name not in TEST_ORACLES and used[node.name] == _names_used(node)[node.name]:
                unused.append(f"{fname}: {node.name}")
    assert not unused, f"no caller in the package: {unused}"


def _functions(body, owner=None):
    """Each function under body, with the name of the class whose method it
    is (None for a plain function)."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, owner
            yield from _functions(node.body)


def _namedtuple_defaults(nodes):
    """(class name, field index, field name) of each field with a default of
    each NamedTuple class among nodes."""
    for node in nodes:
        if isinstance(node, ast.ClassDef) and any(
            getattr(base, "id", None) == "NamedTuple" for base in node.bases
        ):
            fields = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
            for index, field in enumerate(fields):
                if field.value is not None:
                    yield node.name, index, field.target.id


def test_every_parameter_default_is_overridden_by_some_call():
    # a default that every call leaves alone is a knob nothing turns: the
    # value belongs in the body.  Calls match by name, a class's __init__ and
    # __new__ and a NamedTuple's fields by the class name, and a field also
    # by `_replace(field=...)`; a call with *args or **kwargs may pass
    # anything, except to `_replace`, which may be any NamedTuple's
    calls = {}
    for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)

    def overridden(name, index, param):
        return any(
            any(kw.arg in (param, None) for kw in call.keywords)
            or any(isinstance(arg, ast.Starred) for arg in call.args)
            or index is not None and len(call.args) > index
            for call in calls.get(name, ())
        )

    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn, owner in _functions(tree.body):
            a = fn.args
            positional = a.posonlyargs + a.args
            # a method's first parameter is bound, not passed, unless it is static
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            bound = 1 if owner and not static else 0
            first_default = len(positional) - len(a.defaults)
            params = [(i - bound, p.arg) for i, p in enumerate(positional) if i >= first_default]
            params += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            name = owner if fn.name in ("__init__", "__new__") else fn.name
            for index, param in params:
                if not overridden(name, index, param):
                    unused.append(f"{path.name}: {fn.name}({param})")
        for owner, index, field in _namedtuple_defaults(ast.walk(tree)):
            replaced = any(kw.arg == field for call in calls.get("_replace", ()) for kw in call.keywords)
            if not (overridden(owner, index, field) or replaced):
                unused.append(f"{path.name}: {owner}.{field}")
    assert not unused, f"a default that no call overrides: {unused}"


def test_every_imported_name_is_read():
    unread = []
    for path in sorted([*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]):
        tree = ast.parse(path.read_text())
        used = Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if not used[name]:
                        unread.append(f"{path.parent.name}/{path.name}: {name}")
    assert not unread, f"imported but never read: {unread}"


def test_no_module_imports_dataclasses():
    # dataclasses loads inspect, ast, dis and tokenize: about 10 ms of every
    # short command, for types that NamedTuple or __slots__ give as well
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "dataclasses" in modules:
                importers.append(f"{path.name}:{node.lineno}")
    assert not importers, f"dataclasses imported at {importers}"


def test_only_small_tables_list_every_pair():
    # lex_pairs(n) holds n^2 / 2 tuples, about 200 MiB at n = 2,002, so only
    # the tables over k <= 6 vertices may build it, never a host-sized path
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) and _names_used(node)["lex_pairs"]:
                callers.add(getattr(node, "name", f"{path.name} at module level"))
    assert callers == {"_mask_class_table", "_profile_layout", "brute_force_profile"}


def test_readme_lists_every_curve_tag():
    from semind.profiles import _CURVES, _form

    readme = (TESTS.parent / "README.md").read_text()
    missing = [tag for tag in _CURVES if f"`{_form(tag)}`" not in readme]
    assert not missing, f"curve tags missing from README: {missing}"
