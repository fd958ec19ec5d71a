"""Append a kernel benchmark run to ``results/BENCH_kernels.json``.

The text tables under ``results/`` are for humans; this keeps a
machine-readable history of the same numbers so speedup regressions can
be charted across commits.  Each run appends one record::

    {"timestamp": ..., "mode": "full"|"tiny", "cores": ...,
     "kernels": [<sweep rows>], "workers": [<worker rows>],
     "batched_e2e": [<auto-vs-vector end-to-end rows>]}

Usage: ``python benchmarks/record_kernels.py [--tiny]``.
"""

import argparse
import json
import os
import time

from _harness import RESULTS_DIR

JSON_PATH = os.path.join(RESULTS_DIR, "BENCH_kernels.json")


def append_record(kernel_rows, worker_rows, mode, path=JSON_PATH,
                  batched_rows=None):
    history = []
    if os.path.exists(path):
        with open(path) as fh:
            history = json.load(fh)
    history.append({
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "mode": mode,
        "cores": os.cpu_count(),
        "kernels": kernel_rows,
        "workers": worker_rows,
        "batched_e2e": batched_rows or [],
    })
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(history, fh, indent=2)
        fh.write("\n")
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tiny", action="store_true",
                        help="CI smoke configuration (small sweep)")
    args = parser.parse_args()
    from bench_kernels import run_suite
    kernel_rows, worker_rows, batched_rows = run_suite(tiny=args.tiny)
    path = append_record(kernel_rows, worker_rows,
                         "tiny" if args.tiny else "full",
                         batched_rows=batched_rows)
    for row in batched_rows:
        verdict = "beats" if row["auto"] < row["vector"] else "trails"
        print(f"auto {verdict} vector at n={row['n']} d={row['d']} "
              f"minlen={row['minlen']}: {row['auto']:.3f}s vs "
              f"{row['vector']:.3f}s")
    print(f"appended to {path}")


if __name__ == "__main__":
    main()
