"""Shared CLI plumbing for the benchmark scripts.

Every ``benchmarks/bench_*.py`` entry point takes the same workload
knobs (element count, volume side, query count, seed) and emits a JSON
artifact under ``benchmarks/`` whose ``checks`` section doubles as the
exit code.  This
module holds that boilerplate once; each benchmark adds only its own
flags (worker sweeps, shard counts, ...) on top.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

#: Where every benchmark writes its artifact unless ``--out`` says
#: otherwise: this directory, whatever the working directory.
ARTIFACT_DIR = Path(__file__).resolve().parent


def workload_parser(
    description: str,
    *,
    elements: int,
    side: float,
    queries: int,
    seed: int,
    out: str,
) -> argparse.ArgumentParser:
    """An argument parser with the shared workload flags, defaults filled.

    *out* is the artifact's file name; ``--out`` defaults to it inside
    :data:`ARTIFACT_DIR`.
    """
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--elements", type=int, default=elements)
    parser.add_argument("--side", type=float, default=side)
    parser.add_argument("--queries", type=int, default=queries)
    parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument(
        "--out", type=Path, default=ARTIFACT_DIR / out,
        help="where to write the JSON artifact (default: %(default)s)",
    )
    return parser


def describe_workload(report: dict) -> str:
    """The one-line workload banner every benchmark prints first."""
    workload = report["workload"]
    return (
        f"workload: {workload['benchmark']} x{workload['query_count']} on "
        f"{workload['n_elements']} elements"
    )


def finish(report: dict, out: Path) -> int:
    """Write the artifact, print the checks, derive the exit code."""
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"checks: {report['checks']}")
    print(f"wrote {out}")
    return 0 if all(report["checks"].values()) else 1
