"""Shared builders for the SN/LSS use-case figures (Figs. 12–19).

The eight figures are four views (total page reads, execution time,
retrieved-data breakdown, reads per result element) over two benchmarks
(SN, LSS); these helpers produce each view from the memoized sweep.
"""

from __future__ import annotations

from repro.storage.diskmodel import DiskModel
from repro.storage.stats import (
    CATEGORY_METADATA,
    CATEGORY_OBJECT,
    CATEGORY_RTREE_INTERNAL,
    CATEGORY_RTREE_LEAF,
    CATEGORY_SEED_INTERNAL,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweeps import FLAT, cached_sweep


def _runs(step, which: str):
    return {name: getattr(obs, which) for name, obs in step.indexes.items()}


def total_page_reads(
    config: ExperimentConfig, which: str, experiment_id: str, title: str
) -> ExperimentResult:
    """Figs. 12/16: total page reads per index vs density.

    Page *decodes* (the CPU work of parsing fetched pages, counted by
    the store's decode memo) are reported next to the reads: FLAT's
    batched crawl decodes each touched page once per query, so its
    decode column tracks its read column instead of its frontier sizes.
    """
    sweep = cached_sweep(config)
    names = [FLAT] + list(config.variants)
    headers = (
        ["elements"]
        + [f"{n} reads" for n in names]
        + [f"{n} decodes" for n in names]
    )
    rows = []
    for step in sweep.steps:
        runs = _runs(step, which)
        rows.append(
            [step.n_elements]
            + [runs[n].total_page_reads for n in names]
            + [runs[n].total_page_decodes for n in names]
        )

    first, last = rows[0], rows[-1]
    col = {n: 1 + i for i, n in enumerate(names)}
    decode_col = {n: 1 + len(names) + i for i, n in enumerate(names)}
    first_factor = first[col["prtree"]] / first[col[FLAT]]
    last_factor = last[col["prtree"]] / last[col[FLAT]]
    checks = {
        "flat reads fewer pages than the prtree at max density": last[col[FLAT]]
        < last[col["prtree"]],
        "flat-vs-prtree advantage does not degrade with density": last_factor
        >= 0.9 * first_factor,
        "flat decodes at most one page per page read": last[decode_col[FLAT]]
        <= last[col[FLAT]],
    }
    return ExperimentResult(
        experiment_id,
        title,
        headers,
        rows,
        notes=(
            "Paper: FLAT reads up to 8x fewer pages than the PR-Tree (its "
            "best baseline) on SN and 2-6x fewer on LSS at 450M elements. "
            f"Here FLAT beats the PR-Tree by {last_factor:.2f}x at the "
            "densest step (the paper-scale factors need paper-depth trees; "
            "see the depth-matched configuration). Clean-room STR/Hilbert "
            "trees share FLAT's exact leaf packing and stay competitive at "
            "reproduction scale."
        ),
        checks=checks,
    )


def execution_time(
    config: ExperimentConfig, which: str, experiment_id: str, title: str
) -> ExperimentResult:
    """Figs. 13/17: simulated execution time (I/O model + measured CPU).

    The paper observes the time curves mirror the page-read curves
    because queries are ~98 % I/O bound; our simulated time reproduces
    exactly that relation (and we report measured CPU separately).
    """
    sweep = cached_sweep(config)
    disk = DiskModel()
    names = [FLAT] + list(config.variants)
    headers = (
        ["elements"]
        + [f"{n} sim s" for n in names]
        + [f"{n} cpu s" for n in names]
    )
    rows = []
    for step in sweep.steps:
        runs = _runs(step, which)
        row = [step.n_elements]
        row += [runs[n].simulated_seconds(disk) for n in names]
        row += [runs[n].cpu_seconds for n in names]
        rows.append(row)

    last = rows[-1]
    col = {n: 1 + i for i, n in enumerate(names)}
    checks = {
        "flat is faster than the prtree at max density": last[col[FLAT]]
        < last[col["prtree"]],
    }
    # Verify the paper's mirror property explicitly: the time ordering
    # matches the page-read ordering because queries are I/O bound.
    reads = {n: _runs(sweep.steps[-1], which)[n].total_page_reads for n in names}
    time_order = sorted(names, key=lambda n: last[col[n]])
    read_order = sorted(names, key=lambda n: reads[n])
    checks["time ordering matches page-read ordering"] = time_order == read_order
    return ExperimentResult(
        experiment_id,
        title,
        headers,
        rows,
        notes=(
            "Simulated time = page reads x 7.5 ms SAS random-read latency "
            "+ measured CPU; the paper's queries are 97.8-98.8% I/O bound."
        ),
        checks=checks,
    )


def breakdown(
    config: ExperimentConfig, which: str, experiment_id: str, title: str
) -> ExperimentResult:
    """Figs. 14/18: retrieved-data breakdown, FLAT vs PR-Tree (MB)."""
    sweep = cached_sweep(config)
    headers = [
        "elements",
        "flat seed MB",
        "flat metadata MB",
        "flat object MB",
        "prtree non-leaf MB",
        "prtree leaf MB",
    ]
    rows = []
    for step in sweep.steps:
        flat_run = getattr(step.indexes[FLAT], which)
        pr_run = getattr(step.indexes["prtree"], which)
        mb = 4096 / 1e6
        rows.append(
            [
                step.n_elements,
                flat_run.reads_by_category.get(CATEGORY_SEED_INTERNAL, 0) * mb,
                flat_run.reads_by_category.get(CATEGORY_METADATA, 0) * mb,
                flat_run.reads_by_category.get(CATEGORY_OBJECT, 0) * mb,
                pr_run.reads_by_category.get(CATEGORY_RTREE_INTERNAL, 0) * mb,
                pr_run.reads_by_category.get(CATEGORY_RTREE_LEAF, 0) * mb,
            ]
        )

    first, last = rows[0], rows[-1]
    flat_hier_ratio_first = (first[1] + first[2]) / max(first[4], 1e-9)
    flat_hier_ratio_last = (last[1] + last[2]) / max(last[4], 1e-9)
    checks = {
        "flat seed reads stay ~constant with density": last[1]
        <= max(2.5 * first[1], first[1] + 0.5),
        "flat object reads grow with density": last[3] > first[3],
        "prtree nonleaf/leaf ratio roughly stable or growing with density": (
            last[4] / max(last[5], 1e-9) >= 0.8 * first[4] / max(first[5], 1e-9)
            if which == "sn_run"
            else True
        ),
        "flat hierarchy overhead does not outgrow prtree's": (
            flat_hier_ratio_last <= 1.3 * flat_hier_ratio_first
        ),
    }
    return ExperimentResult(
        experiment_id,
        title,
        headers,
        rows,
        notes=(
            "Paper (SN): PR-Tree non-leaf/leaf read ratio grows 2 -> 2.8 "
            "with density; FLAT's seed cost is flat and metadata+object "
            "track the result size."
        ),
        checks=checks,
    )


def per_result(
    config: ExperimentConfig, which: str, experiment_id: str, title: str
) -> ExperimentResult:
    """Figs. 15/19: page reads per result element vs density."""
    sweep = cached_sweep(config)
    names = [FLAT] + list(config.variants)
    headers = ["elements"] + [f"{n} reads/result" for n in names]
    rows = []
    for step in sweep.steps:
        runs = _runs(step, which)
        rows.append([step.n_elements] + [runs[n].pages_per_result for n in names])

    col = {n: 1 + i for i, n in enumerate(names)}
    first, last = rows[0], rows[-1]
    checks = {
        "flat per-result cost decreases with density": last[col[FLAT]]
        < first[col[FLAT]],
        "flat per-result cost below the prtree's at max density": last[col[FLAT]]
        < last[col["prtree"]],
    }
    return ExperimentResult(
        experiment_id,
        title,
        headers,
        rows,
        notes=(
            "Paper: FLAT amortizes the fixed seed cost over growing result "
            "sets (cost/result falls); R-Tree overlap makes cost/result rise."
        ),
        checks=checks,
    )
