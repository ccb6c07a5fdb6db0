"""The public API is the README's "Public API" table.  Every public
top-level name of a module in src/homspace is listed there or imported by
another module of the package, every listed name exists, the package
imports nothing outside the standard library, no ``typing`` and nothing it
does not use,
no query checks an identity at run time (the tests prove them instead),
every cache states a finite bound and is one of a listed few, so is every
import inside a function, only the readers and writers of fractions import
``fractions``, cli imports no model layer, nothing moved to
tests/oracles.py is left defined in the package too, every public method
of a class has a reader in the package or in the README example, the
oracles take from intlinalg only ``IntMatrix`` and the Smith loop, and only
abgroups reaches the lattice solver and the Smith loop of intlinalg."""

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "homspace"


def modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def readme_table():
    """Module name -> the names its row of the Public API table lists."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        row = re.fullmatch(r"\| `homspace\.(\w+)` \| (.*) \|", line)
        if row:
            table[row.group(1)] = set(re.findall(r"`(\w+)`", row.group(2)))
    return table


def top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (target.id for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def imports(tree):
    """(level, module, imported names) of every import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield node.level, node.module or "", [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name, []


def test_every_public_name_is_listed_or_shared():
    trees = modules()
    table = readme_table()
    assert set(table) == set(trees) - {"__init__"}
    shared = {}
    for name, tree in trees.items():
        for level, module, names in imports(tree):
            if level == 1 and module != name:
                shared.setdefault(module or "__init__", set()).update(names)
    stray = [
        f"{name}.{top}"
        for name, tree in trees.items()
        for top in top_level_names(tree)
        if not top.startswith("_") and top not in table.get(name, ()) and top not in shared.get(name, ())
    ]
    assert not stray, f"public names neither in the README's Public API table nor imported by another module: {stray}"


def test_every_listed_name_exists():
    trees = modules()
    missing = [
        f"{name}.{listed}"
        for name, listed_names in readme_table().items()
        for listed in sorted(listed_names - set(top_level_names(trees[name])))
    ]
    assert not missing


def test_imports_stay_in_the_standard_library():
    outside = [
        f"{name}: {module}"
        for name, tree in modules().items()
        for level, module, _ in imports(tree)
        if level == 0 and module.split(".")[0] not in sys.stdlib_module_names | {"homspace"}
    ]
    assert not outside


def test_no_module_imports_typing():
    # every module reads its annotations as strings (from __future__ import
    # annotations), so collections.abc and ``X | None`` spell them, and a
    # cold query under ``python -S`` does not pay for importing typing
    found = [
        f"{name}: {module}"
        for name, tree in modules().items()
        for _, module, _ in imports(tree)
        if module.split(".")[0] == "typing"
    ]
    assert modules(), "the scan reads nothing"
    assert not found, found


def late_imports(tree, scope=None):
    """(scope, module) of every import statement below the top level of a
    module's ``tree``, the module with its leading dots: scope names the
    innermost function or class around the statement, or is "" in a
    top-level block such as an ``if`` or ``try``."""
    for node in ast.iter_child_nodes(tree):
        if scope is not None and isinstance(node, (ast.Import, ast.ImportFrom)):
            dots = "." * getattr(node, "level", 0)
            module = getattr(node, "module", None)
            yield from ((scope, dots + (module or alias.name)) for alias in node.names)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from late_imports(node, node.name)
        else:
            yield from late_imports(node, "" if scope is None else scope)


def test_the_late_imports_are_these():
    # an import inside a function is paid by the query that first runs it,
    # and then looked up again on every call: each one is a deliberate edit
    # of this list.  The front end loads the modules of the model commands
    # and of ext, and through them the layers they read, only for their
    # queries, and never names a model layer itself.  json, fractions and re
    # are read only where a spec document is parsed, a fraction spelling is
    # read or an exponent is split off, so a preset query loads none of them
    late = {f"{name}.{scope}: {module}" for name, tree in modules().items() for scope, module in late_imports(tree)}
    assert late == {
        "cli._parse_fraction: fractions",
        "cli._split_exponent: re",
        "cli._parser: argparse",
        "cli.run: contextlib",
        "cli._first_query: .ext",
        "cli._first_query: .spec",
        "spec.parse_spec: json",
    }
    named = set()
    for _, module, names in imports(modules()["cli"]):
        named.update(module.split("."), names)
    assert {"spec", "ext"} <= named and not named & {"groups", "rootdata", "invariants"}


def test_only_the_readers_and_writers_of_fractions_import_fractions():
    # a model keeps its torus parts as integer rows over N, so only the
    # modules that read or write a fraction import fractions: the fraction
    # reader (cli), the spec format, ext and the characters of extensions;
    # an import at module level and one inside a function count alike
    allowed = {"cli", "spec", "ext", "extensions"}
    importers = set()
    for name, tree in modules().items():
        for level, module, _ in imports(tree):
            if level == 0 and module.split(".")[0] == "fractions":
                importers.add(name)
    assert "cli" in importers, "the scan reads nothing"
    assert importers <= allowed, sorted(importers - allowed)


def test_no_runtime_self_checks():
    # an assert or a raise RuntimeError repeats at run time what a test
    # should prove; input errors raise ValueError or CliError instead
    found = []
    for name, tree in modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{name}.py:{node.lineno}: assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "RuntimeError":
                    found.append(f"{name}.py:{node.lineno}: raise RuntimeError")
    assert not found, found


def test_no_unused_imports():
    # __init__ imports to re-export; every other module uses what it binds
    unused = []
    for name, tree in modules().items():
        if name == "__init__":
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}.py:{node.lineno}: {bound}")
    assert not unused, f"unused imports: {unused}"


def _names(node, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name)


def test_every_cache_is_bounded():
    # a cache with no finite maxsize grows the process without end on a
    # stream of unique queries: every lru_cache states its bound as a
    # positive integer, and functools.cache, which has none, is not used
    bounded, unbounded = [], []
    for name, tree in modules().items():
        stated = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _names(node.func, "lru_cache"):
                size = [k.value for k in node.keywords if k.arg == "maxsize"]
                if (
                    not node.args
                    and len(size) == 1
                    and isinstance(size[0], ast.Constant)
                    and type(size[0].value) is int
                    and size[0].value > 0
                ):
                    stated.add(node.func)
        for node in ast.walk(tree):
            if _names(node, "lru_cache"):
                (bounded if node in stated else unbounded).append(f"{name}.py:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                unbounded += [f"{name}.py:{node.lineno}: functools.{a.name}" for a in node.names if a.name == "cache"]
            elif isinstance(node, ast.Attribute) and node.attr == "cache":
                if getattr(node.value, "id", None) == "functools":
                    unbounded.append(f"{name}.py:{node.lineno}: functools.cache")
    assert bounded, "no lru_cache found: the scan reads nothing"
    assert not unbounded, f"caches without an explicit finite maxsize: {unbounded}"


def test_the_caches_are_these():
    # each global cache holds what it keys on alive until it is evicted, so
    # a new one is a deliberate edit of this list; what a model derives is
    # kept on the model instead.  Every lru_cache in the package decorates
    # one of these functions.
    decorated, seen = set(), []
    for name, tree in modules().items():
        for node in ast.walk(tree):
            if _names(node, "lru_cache"):
                seen.append(f"{name}.py:{node.lineno}")
            if isinstance(node, ast.FunctionDef):
                for decorator in node.decorator_list:
                    if _names(decorator.func if isinstance(decorator, ast.Call) else decorator, "lru_cache"):
                        decorated.add(f"{name}.{node.name}")
    assert decorated == {
        "rootdata.build_datum",
        "groups.preset",
        "spec._spec_model",
        "ext._payload",
        "cli._parser",
    }
    assert len(seen) == len(decorated), seen


def test_the_kept_values_and_hashes_are_these():
    # what a model derives is kept on the object as a cached property, and
    # since no cache is keyed by a model, no value class writes its own
    # __eq__ or __hash__: the frozen-record base that every value class of
    # the package shares is the one class that defines either; a new one
    # is a deliberate edit of these lists
    kept, seen, hashes, equalities = set(), [], set(), set()
    for name, tree in modules().items():
        for node in ast.walk(tree):
            if _names(node, "cached_property"):
                seen.append(f"{name}.py:{node.lineno}")
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    if any(_names(d, "cached_property") for d in member.decorator_list):
                        kept.add(f"{node.name}.{member.name}")
                    defined = [member.name]
                else:
                    targets = member.targets if isinstance(member, ast.Assign) else [getattr(member, "target", None)]
                    defined = [t.id for t in targets if isinstance(t, ast.Name)]
                if "__hash__" in defined:
                    hashes.add(f"{node.name}.__hash__")
                if "__eq__" in defined:
                    equalities.add(f"{node.name}.__eq__")
    assert kept == {
        "ReductiveModel.gluing_type",
        "ReductiveModel.kernel_type",
        "ReductiveModel.derived",
        "SemisimpleModel.restriction_matrix",
        "RootDatumSS.node_labels",
    }
    assert len(seen) == len(kept), seen
    assert hashes == {"_Record.__hash__"}
    assert equalities == {"_Record.__eq__"}


def defined_names(tree):
    """Every function and class defined anywhere in ``tree``, methods
    included."""
    return {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_oracles_define_nothing_the_package_defines():
    # a helper moved to tests/oracles.py leaves the package: no top-level
    # function or class of the oracles shares its name with a function,
    # method or class of src/homspace, so a copy cannot stay behind
    package = set().union(*map(defined_names, modules().values()))
    oracles = ast.parse((REPO / "tests" / "oracles.py").read_text(encoding="utf-8"))
    moved = {node.name for node in oracles.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert moved and package, "the scan reads nothing"
    assert not moved & package, sorted(moved & package)


def test_every_public_method_has_a_reader():
    # value API that no query reads moves to tests/oracles.py or leaves:
    # every public method or property of a class in the package is read as
    # an attribute by the package or by the README's Python example
    trees = modules()
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    examples = [ast.parse(code) for code in re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)]
    read = {
        node.attr for tree in [*trees.values(), *examples] for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    methods = {
        f"{name}.{cls.name}.{member.name}": member.name
        for name, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for member in cls.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
    }
    assert examples and "from_rows" in methods.values(), "the scan reads nothing"
    unread = sorted(key for key, attr in methods.items() if attr not in read)
    assert not unread, f"public methods that neither the package nor the README example reads: {unread}"


def test_oracles_take_from_intlinalg_only_the_matrix_and_the_smith_loop():
    # the oracles' Hermite eliminations and extended gcd are their own, so
    # a test that compares the library with them compares two codes: of
    # intlinalg they import IntMatrix and the Smith loop, nothing else
    oracles = ast.parse((REPO / "tests" / "oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(oracles):
        if isinstance(node, ast.ImportFrom) and node.module == "homspace.intlinalg":
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            assert all(not alias.name.startswith("homspace.intlinalg") for alias in node.names)
    assert imported == {"IntMatrix", "_snf_transform"}


def test_only_abgroups_reaches_the_lattice_solver_and_the_smith_loop():
    # abgroups' docstring claims that other modules never call
    # solution_lattice, _span_orders_mod or _snf_transform themselves, and
    # only cli prints a Smith form with its transforms: every import or
    # attribute read of those names in src/homspace is counted
    allowed = {
        "solution_lattice": {"abgroups"},
        "_span_orders_mod": {"abgroups"},
        "_snf_transform": {"abgroups"},
        "smith_normal_form": {"cli"},
    }
    readers = {name: set() for name in allowed}
    for module, tree in modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            for name in names:
                if name in readers:
                    readers[name].add(module)
    assert readers == allowed
