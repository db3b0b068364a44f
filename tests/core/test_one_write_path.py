"""Every write in the package is a merge.

Both serving tiers commit a batch the same way: ``absorb_batch``
(``query/service.py``) absorbs it into a ``DeltaIndex`` over the base,
and the drained delta goes to ``merged``, which returns a new index and
leaves the served one as it is.  The in-place write API that adopted a
merge into an existing object is gone from ``ShardedFLATIndex``.
``FLATIndex.fork`` and ``FLATIndex.apply_batch`` (with ``insert`` /
``delete`` over it) stay only because the repository benchmark's tracer
wraps them (ROADMAP item 1); nothing in the package may call them.
This test parses every module under ``src/repro`` and fails on any
``.fork()`` or ``.apply_batch(`` call outside ``core/flat_index.py``.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
#: The module that defines the kept methods (``insert`` and ``delete``
#: call ``apply_batch``).
OWNER = "core/flat_index.py"
#: Methods that change an index in place.
IN_PLACE = {"fork", "apply_batch"}


def in_place_calls(tree: ast.AST) -> list:
    """``(line, method)`` for every ``.fork(`` / ``.apply_batch(`` call."""
    return [
        (node.lineno, node.func.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in IN_PLACE
    ]


def package_calls() -> dict:
    """Module path (relative to the package) -> its in-place calls."""
    return {
        path.relative_to(PACKAGE).as_posix(): in_place_calls(
            ast.parse(path.read_text())
        )
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def test_no_module_writes_in_place():
    stray = [
        f"{module}:{line}: .{method}("
        for module, calls in package_calls().items()
        if module != OWNER
        for line, method in calls
    ]
    assert stray == []


def test_the_detector_sees_the_kept_wrappers():
    assert {method for _line, method in package_calls()[OWNER]} == {
        "apply_batch"
    }


def test_the_detector_sees_every_in_place_call():
    source = """
clone = index.fork()
clone.apply_batch(insert_mbrs=boxes)
self._control.fork().apply_batch(delete_ids=ids)
index.merged(ids, boxes, deletes, watermark)
delta.insert(boxes); os.fork; fork(); apply_batch(boxes)
"""
    methods = [method for _line, method in in_place_calls(ast.parse(source))]
    assert sorted(methods) == ["apply_batch", "apply_batch", "fork", "fork"]
