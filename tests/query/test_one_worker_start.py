"""One worker start: every worker process begins in one function.

A ``QueryService`` pool process and a ``ClusterRouter`` shard server
are the same worker: ``query/service.py``'s ``_start_worker`` opens a
duplex Pipe, starts a daemon process running ``_pool_worker`` and
closes the child's end.  Both tiers then talk over the same wire and
differ only in dispatch.  This test parses every module under
``src/repro`` and fails on any ``Process(`` or ``Pipe(`` call outside
that function, and on any import of a socket transport
(``multiprocessing.connection``'s ``Listener`` or ``Client``, or
``socket``).  Every worker also ends with its front: a front killed
with SIGKILL leaves no worker running.
"""

import ast
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.query.service import _STOP, _start_worker

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


#: A front holding both kinds of worker: a 2-worker process-mode
#: service, then a 2-shard router with replicas, whose servers fork
#: while the pool's Pipes are open.  It prints its six worker pids and
#: waits for its stdin to close.
FRONT = """
import multiprocessing, sys
import numpy as np
from repro.core import FLATIndex, ShardedFLATIndex
from repro.query import MODE_PROCESS, ClusterRouter, QueryService
from repro.storage import PageStore

root, replicas = sys.argv[1:]
lo = np.random.default_rng(0).uniform(0, 100, size=(400, 3))
mbrs = np.concatenate([lo, lo + 1.0], axis=1)
ShardedFLATIndex.build(mbrs, 2).snapshot(root)
service = QueryService(FLATIndex.build(PageStore(), mbrs), workers=2,
                       mode=MODE_PROCESS)
router = ClusterRouter.launch(root, replica_root=replicas)
print(*(child.pid for child in multiprocessing.active_children()), flush=True)
sys.stdin.read()
"""

#: Seconds the workers get to notice their front's death.
EXIT_WAIT = 10.0


def start_time(pid: int) -> int | None:
    """The start time of *pid* while it runs (a zombie is not running),
    from ``/proc/<pid>/stat``; ``None`` once it is gone."""
    try:
        stat = (Path("/proc") / str(pid) / "stat").read_text()
    except OSError:
        return None
    fields = stat[stat.rindex(")") + 2:].split()
    return None if fields[0] == "Z" else int(fields[19])


def test_workers_exit_when_their_front_dies(tmp_path):
    if not Path("/proc/self/stat").exists():
        pytest.skip("reads process states from /proc")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    command = [sys.executable, "-c", FRONT,
               str(tmp_path / "root"), str(tmp_path / "replicas")]
    with subprocess.Popen(command, env=env, text=True, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE) as front:
        try:
            ready, _, _ = select.select([front.stdout], [], [], 120.0)
            line = front.stdout.readline() if ready else ""
            # Read while the front, their parent, still waits on them.
            started = {int(pid): start_time(int(pid)) for pid in line.split()}
        finally:
            front.kill()
            front.wait(60.0)
    workers = {pid: start for pid, start in started.items() if start is not None}
    deadline = time.monotonic() + EXIT_WAIT
    while time.monotonic() < deadline and any(
            start_time(pid) == start for pid, start in workers.items()):
        time.sleep(0.05)
    # A pid whose start time still matches is the worker the front started.
    survivors = [pid for pid, start in workers.items() if start_time(pid) == start]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    assert len(workers) == 6
    assert survivors == []


def test_a_worker_holds_no_other_workers_front_end():
    """A worker closes the front ends it inherited: the first worker
    sees its front's end close while a second one, forked with that end
    open, still serves."""
    context = multiprocessing.get_context()
    first, first_end = _start_worker(context, None, False)
    second, second_end = _start_worker(context, None, False)
    try:
        first_end.close()
        first.join(EXIT_WAIT)
        assert first.exitcode == 0
        assert second.is_alive()
    finally:
        if first.is_alive():
            first.kill()
        second_end.send_bytes(_STOP)
        second_end.recv_bytes()  # the stopped worker's last report
        second.join(EXIT_WAIT)
        second_end.close()
    assert second.exitcode == 0
