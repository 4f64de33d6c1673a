import ast
from pathlib import Path

import rmms


def modules():
    for path in sorted(Path(rmms.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def names_a_cache(node):
    # lru_cache, functools.cache, lru_cache(maxsize=1), lru_cache(...)(fn)
    while isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return name in ("lru_cache", "cache")


def test_library_has_only_the_allowed_caches():
    # Results keyed by whole valuations live on the valuation, not in
    # module-level caches. Caches made inside a function body go with the
    # call and are not looked at.
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for stem, tree in modules():
        for node in tree.body:
            defs = [node]
            if isinstance(node, ast.ClassDef):
                defs = node.body
            found.update(f"{stem}.{d.name}" for d in defs
                         if isinstance(d, functions)
                         and any(map(names_a_cache, d.decorator_list)))
            if isinstance(node, ast.Assign) and names_a_cache(node.value):
                found.update(f"{stem}.{t.id}" for t in node.targets)
    assert found == {"cli._parser"}


def test_library_has_no_assert():
    # Invariant checks must raise: ``python -O`` strips assert statements.
    found = [f"{stem}.py:{node.lineno}"
             for stem, tree in modules()
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert found == []


def test_only_core_item_pairs_reshapes():
    # Arrays over all 2^m masks have one owner of their layout: every
    # per-item pass goes through core._item_pairs.
    found = set()
    for stem, tree in modules():
        for node in tree.body:
            for call in ast.walk(node):
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "reshape"):
                    found.add(f"{stem}.{getattr(node, 'name', call.lineno)}")
    assert found == {"core._item_pairs"}


def test_only_core_kept_reads_a_valuations_dict():
    # State derived from a valuation lives in its own dict under one name
    # per module: every module reaches that dict through core._kept.
    found = set()
    for stem, tree in modules():
        for node in tree.body:
            for call in ast.walk(node):
                if (isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)
                        and call.func.id == "vars"):
                    found.add(f"{stem}.{getattr(node, 'name', call.lineno)}")
    assert found == {"core._kept"}
