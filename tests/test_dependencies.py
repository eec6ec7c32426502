"""numpy is the only runtime dependency: every module of the package
imports only from the standard library, numpy or martbench itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "martbench"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "martbench"}


def test_imports_are_stdlib_numpy_or_martbench():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # relative: martbench
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert not foreign, f"imports outside stdlib, numpy and martbench: {foreign}"


def test_gathers_index_and_never_take():
    # on numpy 2.4, `a.take(idx)` with a read-only idx copies it before the
    # gather (65,536 entries: 2.7 times the time of `a[idx]`), and the kept
    # index arrays (stopping-time flat indices, support entry indices) are
    # read-only
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "take"):
                calls.append(f"{path.name}:{node.lineno}")
    assert not calls, f"take calls, where a gather should index: {calls}"


def test_one_entry_caches_drop_their_entry_before_a_build():
    # lru_cache(maxsize=1) keeps the last result alive while the next one
    # builds, two entries at the peak; holder._keep_last drops it first and
    # is the package's one-entry cache
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call) and "lru_cache" in ast.unparse(node.func)):
                continue
            sizes = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "maxsize")]
            if any(isinstance(v, ast.Constant) and v.value == 1 for v in sizes):
                sites.append(f"{path.name}:{node.lineno}")
    assert not sites, f"lru_cache(maxsize=1), where holder._keep_last should keep it: {sites}"


def _is_instance_dict(node) -> bool:
    """vars(...) or any `x.__dict__`."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "vars" or isinstance(node, ast.Attribute)
            and node.attr == "__dict__")


def test_no_hand_written_cache_in_an_instance_dict():
    # a value kept per instance is a functools.cached_property, not a
    # store into vars(self) or self.__dict__: one home per cache lifetime
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            stored = (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                      and _is_instance_dict(node.value))
            updated = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                       and node.func.attr in ("update", "setdefault", "__setitem__")
                       and _is_instance_dict(node.func.value))
            if stored or updated:
                sites.append(f"{path.name}:{node.lineno}")
    assert not sites, f"stores into an instance dict, where cached_property should keep it: {sites}"


def test_the_scan_budget_is_read_only_by_weights_chunks():
    # weights._chunks turns SCAN_CHUNK_FLOATS into row slices; every other
    # chunked scan takes its slices from it instead of dividing the budget
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        enclosing = {}  # node id -> innermost enclosing function (ast.walk goes outside in)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                enclosing.update((id(sub), getattr(func, "name", "<lambda>"))
                                 for sub in ast.walk(func))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            where = (path.name, enclosing.get(id(node)))
            if name == "SCAN_CHUNK_FLOATS" and where != ("weights.py", "_chunks"):
                reads.append(f"{path.name}:{node.lineno}")
    assert not reads, f"SCAN_CHUNK_FLOATS read outside weights._chunks: {reads}"


def test_lru_cache_keeps_only_the_tree_shapes_and_the_support_families():
    # one home per cache lifetime: every per-shape table is a cached property
    # of filtration.TreeShape, whose constructor keeps the last KEPT_SHAPES
    # shapes, and the support families live in weights._family_store
    # (KEPT_FAMILIES); any other lru_cache, as a decorator or called, is refused
    allowed = {("filtration.py", "_tree_shape"), ("weights.py", "_family_store")}
    found, stray = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        decorating = {id(sub): node.name for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                      for decorator in node.decorator_list for sub in ast.walk(decorator)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Name) and node.id == "lru_cache"
                    or isinstance(node, ast.Attribute) and node.attr == "lru_cache"):
                if id(node) in decorating:
                    found.add((path.name, decorating[id(node)]))
                else:
                    stray.append(f"{path.name}:{node.lineno}")
    assert not stray, f"lru_cache outside a decorator: {stray}"
    assert found == allowed, f"lru_cache decorates {sorted(found)}"
