"""Properties of the library source itself."""

import ast
import sys
from pathlib import Path

import semimod

SOURCES = sorted(Path(semimod.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_library():
    """Invariants are real checks: `assert` vanishes under `python -O`."""
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_imports_only_the_standard_library():
    """The README promises no runtime dependencies: every import is relative or
    names a top-level module of the standard library."""
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_every_imported_name_is_used():
    """A module uses each name it imports; `__init__.py` re-exports its imports."""
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                bound = [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
                unused += [f"{path.name}:{node.lineno} {name}" for name in bound
                           if name not in used]
    assert unused == []


# validation stays at the boundary: tables from outside, the enumerator's
# fillings, C(i, p) (ROADMAP item 1) and the acceptance literals; a table the
# library builds from validated monoids or a checked congruence is not re-validated
VALIDATING = {"core.monoid_from_json", "core.enumerate_comm_monoid_tables",
              "core.CyclicMonoid.to_monoid", "acceptance.direct_sum_counterexamples"}


def _scopes(tree):
    """Each top-level function and method by qualified name; other statements too."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield f"{node.name}.{getattr(item, 'name', '<body>')}", item
        else:
            yield getattr(node, "name", "<module>"), node


def test_only_the_boundary_calls_validate_monoid():
    callers = {f"{path.stem}.{name}"
               for path in SOURCES
               for name, scope in _scopes(ast.parse(path.read_text(), str(path)))
               for node in ast.walk(scope)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None)) == "validate_monoid"}
    assert "core.monoid_from_json" in callers
    assert callers <= VALIDATING


def test_the_naturals_layer_imports_only_core_and_semiideal():
    """`natcoeq` and `semiideal` compute on residues, with no finite congruence
    machinery.  Library imports of the package are relative (see above)."""
    imports = {}
    for path in SOURCES:
        if path.stem in ("natcoeq", "semiideal"):
            imports[path.stem] = set()
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.ImportFrom) and node.level:
                    imports[path.stem] |= ({node.module} if node.module
                                           else {alias.name for alias in node.names})
    assert set(imports) == {"natcoeq", "semiideal"}
    assert {name: modules - {"core", "semiideal"} for name, modules in imports.items()} == {
        "natcoeq": set(), "semiideal": set()}


def test_only_core_memo_touches_a_monoids_memo():
    """Memos are read and written through `core._memo` alone: no other scope
    calls `vars`, reads `__dict__` or names the instance-dict entry."""
    touching = {f"{path.stem}.{name}"
                for path in SOURCES
                for name, scope in _scopes(ast.parse(path.read_text(), str(path)))
                for node in ast.walk(scope)
                if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars")
                or (isinstance(node, ast.Attribute) and node.attr == "__dict__")
                or (isinstance(node, ast.Constant) and node.value == "_memo")}
    assert touching == {"core._memo"}


def test_no_module_defines_a_union_find_class():
    """The library's one union-find is the parent list inside
    `congruence._closure`: no class has both a find and a union method."""
    found = [f"{path.name}:{node.lineno} {node.name}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.ClassDef)
             and {"find", "union"} <= {f.name for f in node.body if isinstance(f, ast.FunctionDef)}]
    assert found == []
    assert not hasattr(semimod.congruence, "UnionFind")


def _million(node) -> bool:
    """Whether node is the literal 10**6 or 1000000."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return [getattr(node.left, "value", None), getattr(node.right, "value", None)] == [10, 6]
    return isinstance(node, ast.Constant) and type(node.value) is int and node.value == 10**6


def test_every_budget_refusal_is_built_from_phase_spent_and_limit():
    """`BudgetExceeded` builds the one message from (phase, spent, limit), so a
    raise site passes exactly three positional values and writes no message of
    its own; `tensor._table_budget` stays gone; and the one default budget is
    `DEFAULT_BUDGET`, the only literal 10**6."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        default = [node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["DEFAULT_BUDGET"]]
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            name = getattr(getattr(node, "func", None), "id",
                           getattr(getattr(node, "func", None), "attr", None))
            if (isinstance(node, ast.Call) and name in ("BudgetExceeded", "BoundCapExceeded")
                    and (len(node.args) != 3 or node.keywords
                         or any(isinstance(a, ast.Starred) for a in node.args))):
                found.append(f"{where} {name}(...)")
            elif isinstance(node, ast.FunctionDef) and node.name == "_table_budget":
                found.append(f"{where} def _table_budget")
            elif _million(node) and not any(node is d for d in default):
                found.append(f"{where} 10**6")
    assert found == []


def test_one_additive_closure():
    """`core._close` is the one loop that grows a member set under +: the
    generating set and `submonoid_generated` close through it, and the two
    per-representation copies of the generating set stay gone."""
    tree = ast.parse((SOURCES[0].parent / "core.py").read_text())
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_close" in defined
    assert not defined & {"_generating_set_bytes", "_generating_set_sets"}
    callers = {f"{path.stem}.{name}"
               for path in SOURCES
               for name, scope in _scopes(ast.parse(path.read_text(), str(path)))
               for node in ast.walk(scope)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_close"}
    assert callers == {"core._generating_set", "core.submonoid_generated"}


def test_no_import_inside_a_function():
    """Every import of the library sits at the top of its module."""
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for scope in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(scope)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_the_corpus_functions_nest_no_function():
    """The corpus is one product loop, one least relabelling and one dict of
    classes: none of the three defines a function inside it."""
    tree = ast.parse((SOURCES[0].parent / "core.py").read_text())
    corpus = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name in ("enumerate_comm_monoid_tables", "_canonical_form",
                                "small_monoid_corpus")}
    assert len(corpus) == 3
    nested = [f"{name}:{node.lineno}" for name, scope in corpus.items()
              for node in ast.walk(scope) if node is not scope
              and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
    assert nested == []
