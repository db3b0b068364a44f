"""One worker start: every worker process begins in one function.

A ``QueryService`` pool process and a ``ClusterRouter`` shard server
are the same worker: ``query/service.py``'s ``_start_worker`` opens a
duplex Pipe, starts a daemon process running ``_pool_worker`` and
closes the child's end.  Both tiers then talk over the same wire and
differ only in dispatch.  This test parses every module under
``src/repro`` and fails on any ``Process(`` or ``Pipe(`` call outside
that function, and on any import of a socket transport
(``multiprocessing.connection``'s ``Listener`` or ``Client``, or
``socket``).
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
START = ("query/service.py", "_start_worker")
#: Calls that start a process or open its Pipe.
STARTS = {"Process", "Pipe"}
#: Names of the socket transport ``multiprocessing.connection`` offers.
TRANSPORT = {"Listener", "Client"}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def starts(tree: ast.AST) -> list:
    """``(line, kind, enclosing function)`` for every process start,
    Pipe or socket-transport import in *tree*."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and _callee(node) in STARTS:
            found.append((node.lineno, f"{_callee(node)}(", function))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "socket" or alias.name.startswith("socket."):
                    found.append((node.lineno, "import socket", function))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if module == "socket" or module.startswith("socket."):
                found.append((node.lineno, "import socket", function))
            elif module == "multiprocessing.connection" and names & TRANSPORT:
                for name in sorted(names & TRANSPORT):
                    found.append((node.lineno, f"import {name}", function))
        elif (isinstance(node, ast.Attribute) and node.attr in TRANSPORT
              and isinstance(node.value, ast.Attribute)
              and node.value.attr == "connection"):
            found.append((node.lineno, f"import {node.attr}", function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def package_starts() -> dict:
    """Module path (relative to the package) -> its starts."""
    return {
        path.relative_to(PACKAGE).as_posix(): starts(ast.parse(path.read_text()))
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def test_every_worker_process_starts_in_one_function():
    stray = [
        f"{module}:{line}: {kind} in {function}"
        for module, found in package_starts().items()
        for line, kind, function in found
        if (module, function) != START or not kind.endswith("(")
    ]
    assert stray == []


def test_the_detector_sees_the_start_function():
    module, function = START
    kinds = {kind for _line, kind, where in package_starts()[module]
             if where == function}
    assert kinds == {"Process(", "Pipe("}


def test_the_detector_sees_every_kind_of_start():
    source = """
import multiprocessing, socket
import socket as raw
from socket import socketpair
from multiprocessing.connection import Client, Listener, wait
def launch():
    multiprocessing.Process(target=f).start()
    context.Process(target=f)
    Process(target=f)
    multiprocessing.Pipe(duplex=False)
    context.Pipe()
    multiprocessing.connection.Listener(address)
    multiprocessing.connection.Client(address)
ProcessPoolExecutor(2); Pipeline(); wait([conn])
"""
    kinds = sorted(kind for _line, kind, _where in starts(ast.parse(source)))
    assert kinds == sorted(
        ["Process("] * 3 + ["Pipe("] * 2 + ["import socket"] * 3
        + ["import Client", "import Listener"] * 2
    )
    assert {where for _line, kind, where in starts(ast.parse(source))
            if kind.endswith("(")} == {"launch"}
