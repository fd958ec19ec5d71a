"""Experiment reporting: aligned text tables and speedup summaries.

The benchmark harness prints, for every figure of the paper, the same
series the figure plots (total time per algorithm over the swept
parameter) plus the speedup factors the paper quotes in its text.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

Cell = Union[str, int, float, None]


def format_value(value: Cell, precision: int = 4) -> str:
    """Human-readable cell rendering (compact floats, '-' for missing)."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 10000 or abs(value) < 0.001:
            return f"{value:.{precision - 1}e}"
        return f"{value:.{precision}g}"
    return str(value)


def format_table(rows: Sequence[Mapping[str, Cell]],
                 columns: Optional[Sequence[str]] = None,
                 title: Optional[str] = None) -> str:
    """Render dict rows as an aligned, pipe-separated text table."""
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    rendered = [[format_value(row.get(col)) for col in columns]
                for row in rows]
    widths = [max([len(col)] + [len(r[i]) for r in rendered])
              for i, col in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(col.ljust(w) for col, w in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for r in rendered:
        lines.append(" | ".join(cell.rjust(w)
                                for cell, w in zip(r, widths)))
    return "\n".join(lines)


def speedup_summary(times: Mapping[str, Sequence[float]],
                    reference: str) -> Dict[str, str]:
    """Min–max speedup of ``reference`` over every other algorithm.

    ``times`` maps algorithm name to its time series (same sweep order);
    the result maps each competitor to a "``lo``x – ``hi``x" string,
    mirroring statements like "EGO outperforms … the MuX-Join by factors
    between 6 and 9".
    """
    if reference not in times:
        raise KeyError(f"reference {reference!r} not in series")
    ref = times[reference]
    out: Dict[str, str] = {}
    for name, series in times.items():
        if name == reference:
            continue
        factors = [s / r for s, r in zip(series, ref)
                   if r > 0 and s is not None]
        if not factors:
            out[name] = "-"
            continue
        lo, hi = min(factors), max(factors)
        out[name] = f"{lo:.1f}x - {hi:.1f}x"
    return out


def robustness_summary(report) -> Sequence[Mapping[str, Cell]]:
    """Rows describing the fault/recovery behaviour of one join run.

    ``report`` is usually an
    :class:`~repro.core.ego_join.ExternalJoinReport`; the rows pair the
    faults the plan injected with what the detection and recovery layers
    did about them, ready for :func:`format_table`::

        print(format_table(robustness_summary(report),
                           title="robustness"))

    Every attribute is read tolerantly, so reports of other shapes —
    in particular the approximate :class:`~repro.joins.lsh_join.
    LSHJoinReport`, which has no fault plan, schedule or resume state —
    render their applicable subset (including recall/candidate rows)
    instead of raising.
    """
    rows = []
    log = getattr(report, "faults", None)
    if log is not None:
        rows.append({"metric": "injected transient read errors",
                     "value": log.transient_read_errors})
        rows.append({"metric": "injected corrupted reads",
                     "value": log.corrupted_reads})
        rows.append({"metric": "injected torn writes",
                     "value": log.torn_writes})
        rows.append({"metric": "injected crashes", "value": log.crashes})
    io = getattr(report, "io", None)
    if io is not None:
        rows.append({"metric": "read faults seen", "value": io.read_faults})
        rows.append({"metric": "reads retried", "value": io.read_retries})
        rows.append({"metric": "corrupt pages detected",
                     "value": io.corrupt_pages})
        rows.append({"metric": "retry backoff (simulated s)",
                     "value": io.retry_backoff_s})
    resumed = getattr(report, "resumed", None)
    if resumed is not None:
        rows.append({"metric": "resumed run", "value": resumed})
    schedule = getattr(report, "schedule_stats", None)
    if resumed and schedule is not None:
        rows.append({"metric": "unit pairs skipped as done",
                     "value": schedule.pairs_resumed})
    if schedule is not None:
        rows.append({"metric": "buffer shrinks under pressure",
                     "value": schedule.pressure_shrinks})
    lsh = getattr(report, "lsh", None)
    if lsh is not None:
        rows.append({"metric": "lsh tables (k per table)",
                     "value": f"{lsh.tables} ({lsh.k})"})
        rows.append({"metric": "lsh buckets scanned",
                     "value": lsh.buckets})
        rows.append({"metric": "lsh candidate pairs",
                     "value": lsh.candidates})
        rows.append({"metric": "lsh candidates verified in-ε",
                     "value": lsh.verified})
        rows.append({"metric": "lsh duplicate pairs dropped",
                     "value": lsh.duplicates})
        rows.append({"metric": "lsh model recall at ε",
                     "value": round(lsh.model_recall, 4)})
    wf = getattr(report, "worker_faults", None)
    if wf is not None:
        rows.append({"metric": "injected worker crashes",
                     "value": wf.crashes})
        rows.append({"metric": "injected worker stalls",
                     "value": wf.stalls})
        rows.append({"metric": "injected corrupted task results",
                     "value": wf.corrupted_results})
        rows.append({"metric": "injected task errors",
                     "value": wf.task_errors})
    sup = getattr(report, "supervisor", None)
    if sup is not None:
        rows.append({"metric": "tasks retried", "value": sup.retries})
        rows.append({"metric": "task timeouts", "value": sup.timeouts})
        rows.append({"metric": "worker crashes detected",
                     "value": sup.crashes_detected})
        rows.append({"metric": "corrupt task results detected",
                     "value": sup.corrupt_results})
        rows.append({"metric": "worker pools recycled",
                     "value": sup.pool_recycles})
        rows.append({"metric": "tasks quarantined",
                     "value": sup.quarantined})
        rows.append({"metric": "tasks drained in-process",
                     "value": sup.inline_tasks})
        rows.append({"metric": "degraded to serial",
                     "value": sup.degraded})
        rows.append({"metric": "task backoff (simulated s)",
                     "value": round(sup.backoff_simulated_s, 6)})
    total_pairs = getattr(report, "total_pairs", None)
    if total_pairs is None:
        result = getattr(report, "result", None)
        if result is not None:
            total_pairs = result.count
    if total_pairs is not None:
        rows.append({"metric": "total result pairs",
                     "value": total_pairs})
    return rows


def series_markdown(rows: Sequence[Mapping[str, Cell]],
                    columns: Optional[Sequence[str]] = None) -> str:
    """Render rows as a GitHub-markdown table (for EXPERIMENTS.md)."""
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
    lines = ["| " + " | ".join(columns) + " |",
             "|" + "|".join("---" for _ in columns) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(format_value(row.get(c))
                                       for c in columns) + " |")
    return "\n".join(lines)
