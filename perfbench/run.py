"""The repository benchmark: one named workload, closed loop, checked answers.

Run from the repository root (no build step; the program is imported
from ``src/``)::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 30 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs the timed phase untraced and prints every end-to-end
metric; timings are wall clock with the hypervisor's steal taken out,
at reference speed (:class:`perfbench.measure.SpeedProbe`).
``--trace 1`` sets up once with tracing on, runs half the time untraced
and half traced, and prints every per-layer metric (see
:mod:`perfbench.layers`).  Either way every answer is compared to the
brute-force oracle after the clock stops; a mismatch makes the exit
code 1.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Scratch files (snapshot directories) live under ``.perfbench_work/``
in the repository root and are removed before exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Percentile of ``wall.latency_tail_ms`` in traced runs.
TRACE_TAIL = 90.0


def units(kind: str) -> dict:
    """``{name: unit}`` of BENCHMARK.json's ``end_to_end`` or ``per_layer`` list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _import_program():
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, str(src))
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workdir: Path, scale: dict | None = None, out=print) -> dict:
    """Run one workload; print its report through *out*; return the result."""
    from perfbench.layers import modeled_io_ms
    from perfbench.measure import (
        CpuTimer,
        PeakMemory,
        SpeedProbe,
        child_pids,
        cpu_ticks,
        directory_bytes,
        percentile_ms,
        stolen_share,
        tail_percentile,
    )
    from perfbench.workloads import ELEMENT_BYTES, WORKLOADS

    workload = WORKLOADS[workload_name](**(scale or {}))
    inputs = workload.inputs(seed)
    out(f"workload {workload.name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    if trace:
        return _run_traced(workload, inputs, seconds, workdir, out)

    probe = SpeedProbe()
    setup_times, setup_walls, setup_cpus = [], [], []
    state = None
    for i in range(workload.setups):
        if state is not None:
            workload.close(state)
        ticks = cpu_ticks()
        c0 = time.process_time()
        t0 = time.perf_counter()
        state = workload.setup(inputs, workdir / f"setup-{i}")
        setup_walls.append(time.perf_counter() - t0)
        setup_times.append(setup_walls[-1] * (1.0 - stolen_share(ticks, cpu_ticks())))
        # Worker processes the set-up started spent all their CPU on it.
        setup_cpus.append(CpuTimer(child_pids())() - c0)
    try:
        memory = PeakMemory()
        memory.reset()
        phase = _timed(workload, state, inputs, seconds, probe)
        # One factor for the run, set-up included: a few probe samples
        # around a set-up tracked its speed worse than the timed phase's
        # hundreds taken right after it.
        speed = probe.factor()
        if not phase.peak_rss_mib:
            phase.peak_rss_mib = memory.sample()
        verdict = workload.verify(state, inputs, [phase])
        regime = workload.regime(state, inputs)
        if "stored_bytes" in phase.extras:
            stored, live = phase.extras["stored_bytes"], phase.extras["live"]
        else:
            stored, live = directory_bytes(state["dir"]), state["live"]
        reads = phase.pass_reads / phase.pass_queries
        modeled = modeled_io_ms(state["index"].store, reads)
    finally:
        workload.close(state)

    tail = workload.tail_percentile
    p50 = percentile_ms(phase.latencies, 50.0)
    unstolen = 1.0 - phase.stolen
    # Wall clock with the hypervisor's steal taken out, at reference speed.
    values = {
        "setup_s": statistics.median(setup_times) * speed,
        "ref_speed_qps": phase.queries / (phase.wall * unstolen * speed),
        "ref_speed_latency_p50_ms": p50 * unstolen * speed,
        "page_reads_per_query": reads,
        "peak_rss_mb": phase.peak_rss_mib,
        "stored_bytes_per_user_byte": stored / (ELEMENT_BYTES * live),
        "success_rate": 1.0 - verdict.failed / verdict.attempted,
    }
    regime.update({
        "seed": seed,
        "nproc": os.cpu_count(),
        "setup_s_samples": [round(t, 4) for t in setup_times],
        "setup_wall_s_samples": [round(t, 4) for t in setup_walls],
        "setup_cpu_s_samples": [round(t, 4) for t in setup_cpus],
        "timed_wall_s": round(phase.wall, 3),
        "passes": phase.passes,
        "latency_tail": (
            f"p{tail:g} of {phase.queries} queries (the tail rule supports up to "
            f"p{tail_percentile(phase.queries):g})"
        ),
        "wall_clock": (
            f"as measured {phase.queries / phase.wall:.2f} queries/s, latency p50 "
            f"{p50:.3f} ms, p{tail:g} {percentile_ms(phase.latencies, tail):.3f} ms; "
            f"the hypervisor stole {phase.stolen:.1%} of the busy CPU time"
        ),
        "latency_tail_ms": (
            f"p{tail:g} {percentile_ms(phase.latencies, tail) * unstolen * speed:.3f} "
            f"ms steal-adjusted at reference speed, "
            f"{percentile_ms(phase.cpu_latencies, tail) * speed:.3f} ms of CPU at "
            "reference speed (printed, not gated: see perfbench/README.md)"
        ),
        "cpu_time": (
            f"as measured {phase.cpu * 1e3 / phase.queries:.3f} ms per query, "
            f"latency p50 {percentile_ms(phase.cpu_latencies, 50.0):.3f} ms, "
            f"p{tail:g} {percentile_ms(phase.cpu_latencies, tail):.3f} ms"
        ),
        "reference_speed": (
            f"timings x {speed:.4f} (probe kernel median "
            f"{SpeedProbe.NOMINAL / speed * 1e3:.4f} ms over {len(probe.samples)} "
            f"samples in the timed phase, nominal {SpeedProbe.NOMINAL * 1e3:g} ms)"
        ),
    })
    for key, value in regime.items():
        out(f"  regime {key}: {value}")
    if phase.commits:
        wall = sum(c["seconds"] for c in phase.commits)
        out(f"  commits (outside the per-query figures): {len(phase.commits)} "
            f"({sum(c['merged'] for c in phase.commits)} merges), ingest "
            f"{sum(c['elements'] for c in phase.commits) / wall:.1f} elements/s, "
            f"commit p50 "
            f"{statistics.median(c['seconds'] for c in phase.commits) * 1e3:.3f} ms, "
            f"CPU per commit {statistics.mean(c['cpu'] for c in phase.commits) * 1e3:.3f} ms")
    out(f"  measured latency_p50_ms {p50:.4f} (steal-adjusted, at reference speed "
        f"{values['ref_speed_latency_p50_ms']:.4f}) | modelled "
        f"storage.diskmodel.modeled_io_ms_per_query {modeled:.4f} "
        "(DiskModel, 10 kRPM disk; a model, not a measurement)")
    out(f"  error_rate {verdict.failed / verdict.attempted:g} "
        f"({verdict.failed} of {verdict.attempted} operations)")
    return _result(values, units("end_to_end"), verdict, out)


def _timed(workload, state, inputs, seconds, probe=None):
    """The workload's untraced timed phase.

    The time *probe* spends sampling between operations is taken out of
    the phase's wall and CPU time.
    """
    if probe is None:
        return workload.timed(state, inputs, seconds)
    wall, cpu = probe.wall, probe.cpu
    phase = workload.timed(state, inputs, seconds, probe=probe)
    phase.wall -= probe.wall - wall
    phase.cpu -= probe.cpu - cpu
    return phase


def _run_traced(workload, inputs, seconds, workdir, out) -> dict:
    from perfbench.layers import LAYERS, per_layer_metrics
    from perfbench.tracing import Tracer

    # Each half of a traced run is only long enough for a p90 wall tail.
    workload.tail_percentile = TRACE_TAIL
    tracer = Tracer()
    with tracer.installed():
        state = workload.setup(inputs, workdir / "setup-0")
    # Services started under the tracer may hold wrapped worker processes.
    state["fresh"] = False
    try:
        untraced = _timed(workload, state, inputs, seconds / 2)
        with tracer.installed():
            traced = workload.timed(state, inputs, seconds / 2, tracer)
        verdict = workload.verify(state, inputs, [untraced, traced])
        values = per_layer_metrics(state, tracer, traced, untraced,
                                   state["index"].store, workload.tail_percentile)
    finally:
        workload.close(state)
    out(f"  traced {traced.queries} queries, {len(tracer.spans)} spans; "
        f"untraced {untraced.queries} queries")
    for layer in LAYERS:
        out(f"  layer {layer.name}: should move {layer.moves}; works in "
            f"{layer.works_in}; bypassed in {layer.bypassed_in}")
    if workload.name == "hotspot-delta64":
        out(f"  codec decode is {values['storage.codec.decode_share']:.1%} of query "
            f"time, {values['storage.codec.decodes_per_physical_read']:.2f} decodes "
            "per physical read")
    return _result(values, units("per_layer"), verdict, out)


def _result(values: dict, units: dict, verdict, out) -> dict:
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        out(f"  {name} = {value!r} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    for note in verdict.notes:
        out(f"  check failed: {note}")
    if verdict.mismatches:
        out(f"  check failed: {verdict.mismatches} answers differ from the oracle")
    return {
        "correct": verdict.failed == 0,
        "attempted": int(verdict.attempted),
        "failed": int(verdict.failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like a failed one: services close and
    # their worker processes are joined.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    _import_program()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    sys.stdout.flush()
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
