"""Repository hygiene: the library keeps no code that only its tests call,
and no module imports a name it never reads."""

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
