"""Only the store writer writes files.

``storage/filestore.py`` publishes every generation: an export, a
rebuild's publish, a replica ship and the shard root's small files.
The crash harness (``test_publish_crash.py``) interposes on that
module's ``open`` and ``os`` alone, so its guarantees cover every
publish only while no other module of the package fsyncs, renames,
truncates or opens a file for writing.  This test parses every module
under ``src/repro`` and pins that.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
WRITER = "storage/filestore.py"
#: Writes that are no part of a store: the experiments CLI's CSV report.
EXEMPT = {("experiments/runner.py", "open for writing")}
#: ``os`` calls that make data durable or move it into place.
OS_CALLS = {"fsync", "replace", "rename"}
#: Flags that open a file descriptor for writing.
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _opens_for_writing(call: ast.Call, position: int) -> bool:
    """Whether an ``open`` call's mode (keyword, or the argument at
    *position*) writes.  A computed mode counts as writing for the
    builtin (*position* 1); a method's first argument counts only as a
    string (``Path.open("w")``), since ``Backend.open(directory)`` is
    no file mode."""
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None and len(call.args) > position:
        mode = call.args[position]
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(flag in mode.value for flag in "wax+")
    return mode is not None and position == 1


def writes(tree: ast.AST) -> list:
    """``(line, kind)`` for every call in *tree* that writes a file."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "open" and _opens_for_writing(node, 1):
                found.append((node.lineno, "open for writing"))
            continue
        if not isinstance(func, ast.Attribute):
            continue
        on_os = isinstance(func.value, ast.Name) and func.value.id == "os"
        if on_os and func.attr in OS_CALLS:
            found.append((node.lineno, f"os.{func.attr}"))
        elif on_os and func.attr == "open":
            flags = {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if flags & WRITE_FLAGS:
                found.append((node.lineno, "open for writing"))
        elif func.attr == "open" and _opens_for_writing(node, 0):
            found.append((node.lineno, "open for writing"))
        elif func.attr == "truncate":
            found.append((node.lineno, "truncate"))
        elif func.attr in ("write_text", "write_bytes"):
            found.append((node.lineno, func.attr))
    return found


def package_writes() -> dict:
    """Module path (relative to the package) -> its writes."""
    return {
        path.relative_to(PACKAGE).as_posix(): writes(ast.parse(path.read_text()))
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def test_only_the_store_writer_writes_files():
    stray = [
        f"{module}:{line}: {kind}"
        for module, calls in package_writes().items()
        if module != WRITER
        for line, kind in calls
        if (module, kind) not in EXEMPT
    ]
    assert stray == []


def test_the_detector_sees_the_store_writer():
    kinds = {kind for _line, kind in package_writes()[WRITER]}
    assert kinds == {"open for writing", "os.fsync", "os.replace", "truncate"}


def test_the_detector_sees_every_kind_of_write():
    source = """
import os
open(path, "ab"); open(path, mode="w"); open(path, chosen)
path.open("wb"); path.write_text("x"); path.write_bytes(b"x")
handle.truncate(0); os.fsync(fd); os.replace(a, b); os.rename(a, b)
os.open(path, os.O_WRONLY | os.O_CREAT)
open(path); open(path, "rb"); path.open(); os.open(path, os.O_RDONLY)
FilePageBackend.open(directory, generation)
"""
    kinds = [kind for _line, kind in writes(ast.parse(source))]
    assert sorted(kinds) == sorted(
        ["open for writing"] * 5
        + ["write_text", "write_bytes", "truncate", "os.fsync", "os.replace",
           "os.rename"]
    )
