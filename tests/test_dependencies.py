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
