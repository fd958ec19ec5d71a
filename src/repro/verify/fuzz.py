"""Seeded differential fuzzing with shrinking and replayable artifacts.

``run_fuzz`` draws adversarial workloads (see
:mod:`repro.verify.workloads`), sweeps join configurations through the
oracle registry and the metamorphic relations, and stops at a time
budget.  Everything is a pure function of the seed: trial ``i`` of seed
``s`` is always the same workload and configuration, so a CI failure
line (seed + trial) is already a reproducer.

When a trial fails, the driver first **shrinks** the workload — greedy
chunk removal, re-running the failed check after each bite — to a
minimal point set that still fails, then dumps a **replayable
artifact**: an ``.npz`` with the points next to a ``.json`` with the
seed, epsilon, implementation and options.  ``replay_artifact`` loads
the pair and re-runs the exact check, so a nightly-fuzz failure can be
triaged locally with one command::

    python -m repro verify --replay artifacts/fail-....json
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .canonical import pair_digest
from .metamorphic import (run_lsh_relations, run_relations,
                          run_store_relations)
from .oracle import REGISTRY, differential_check, run_impl
from .workloads import WORKLOAD_KINDS, generate_workload

#: Implementations the fuzz driver sweeps by default.  The external
#: pipeline runs with every storage wrapper; competitors at defaults.
DEFAULT_CONFIGS: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("ego", {"engine": "scalar"}),
    ("ego", {"engine": "vector", "invariants": True}),
    ("ego", {"engine": "auto"}),
    ("ego", {"engine": "vector", "split_strategy": "boundary"}),
    ("ego_external", {"storage": "plain", "invariants": True}),
    ("ego_external", {"storage": "plain", "workers": 2}),
    ("ego_external", {"storage": "checksummed"}),
    ("ego_external", {"storage": "crash_resume"}),
    ("ego_external", {"storage": "worker_faults", "workers": 2}),
    ("ego_external", {"engine": "auto", "storage": "crash_resume"}),
    ("ego_rs_files", {}),
    ("ego_store", {"mode": "fresh"}),
    ("ego_store", {"mode": "churn"}),
    ("ego_store", {"mode": "churn", "compact_threshold": 12}),
    ("ego_store_replay", {}),
    ("grid_hash", {}),
    ("spatial_hash", {}),
    ("msj", {}),
    ("epskdb", {}),
    ("rsj", {}),
    ("mux", {}),
    ("zorder_rsj", {}),
    # The approximate engine is judged by the recall floor, not digest
    # equality.  Fuzz workloads are tiny (tens of pairs), so two guards
    # keep the seeded runs deterministic-safe: a high recall_target
    # (0.999 — the auto-sized L makes each miss a ≤1e-3 event) plus a
    # miss_allowance of 2, because the model *permits* rare misses and
    # on a 3-pair workload a single one would crater a relative floor.
    # Failing now needs ≥3 misses in one trial (~1e-9 per run).
    ("lsh", {"recall_target": 0.999, "seed": 1, "miss_allowance": 2}),
    ("lsh", {"recall_target": 0.999, "seed": 2, "engine": "matmul",
             "backend": "memory", "miss_allowance": 2}),
    ("lsh", {"k": 1, "tables": 8, "seed": 3, "backend": "file",
             "miss_allowance": 2}),
)

#: Metamorphic relations checked per trial (on the in-memory EGO join;
#: the differential sweep extends their reach to every implementation).
FUZZ_RELATIONS = ("permutation", "translation", "epsilon_nesting",
                  "self_vs_rr")

#: Update-sequence relations checked per trial on the incremental store.
FUZZ_STORE_RELATIONS = ("store_insert_union", "store_insert_delete",
                        "store_epsilon_nesting")

#: Approximate-join relations checked per trial on the LSH engine.
FUZZ_LSH_RELATIONS = ("lsh_precision", "lsh_tables_monotone",
                      "lsh_determinism")


@dataclass
class FuzzFailure:
    """One failing trial, after shrinking."""

    trial: int
    seed: int
    kind: str
    epsilon: float
    n_original: int
    n_shrunk: int
    detail: str
    artifact: Optional[str] = None

    def describe(self) -> str:
        text = (f"trial {self.trial} (seed {self.seed}, {self.kind}, "
                f"ε={self.epsilon:g}, n={self.n_original}"
                f"→{self.n_shrunk}): {self.detail}")
        if self.artifact:
            text += f" [artifact: {self.artifact}]"
        return text


@dataclass
class FuzzReport:
    """Outcome of one fuzzing session."""

    seed: int
    budget_s: float
    trials: int = 0
    checks: int = 0
    elapsed_s: float = 0.0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        lines = [f"fuzz seed {self.seed}: {self.trials} trials, "
                 f"{self.checks} checks in {self.elapsed_s:.1f}s — "
                 f"{'OK' if self.ok else f'{len(self.failures)} FAILURE(S)'}"]
        lines += ["  " + f.describe() for f in self.failures]
        return "\n".join(lines)


def parse_budget(spec: str) -> float:
    """Parse a time budget like ``60s``, ``2m`` or a bare second count."""
    text = spec.strip().lower()
    factor = 1.0
    if text.endswith("ms"):
        text, factor = text[:-2], 1e-3
    elif text.endswith("s"):
        text = text[:-1]
    elif text.endswith("m"):
        text, factor = text[:-1], 60.0
    try:
        value = float(text) * factor
    except ValueError:
        raise ValueError(f"cannot parse time budget {spec!r}") from None
    if value <= 0:
        raise ValueError(f"time budget must be positive, got {spec!r}")
    return value


def _check_workload(points: np.ndarray, epsilon: float,
                    configs: Sequence) -> Tuple[bool, str, int]:
    """Differential sweep + metamorphic relations on one workload.

    Returns ``(ok, detail, checks_run)`` where ``detail`` names the
    first failure.
    """
    checks = 0
    report = differential_check(points, epsilon, configs)
    checks += len(report.outcomes)
    if not report.ok:
        return False, report.failures[0].describe(), checks
    relations = run_relations("ego", points, epsilon,
                              relations=FUZZ_RELATIONS)
    relations += run_store_relations(points, epsilon,
                                     relations=FUZZ_STORE_RELATIONS)
    relations += run_lsh_relations(points, epsilon,
                                   relations=FUZZ_LSH_RELATIONS,
                                   seed=1)
    checks += len(relations)
    for rel in relations:
        if not rel.ok:
            return False, rel.describe(), checks
    return True, "", checks


def shrink_workload(points: np.ndarray, epsilon: float,
                    fails: Callable[[np.ndarray], bool],
                    max_rounds: int = 12) -> np.ndarray:
    """Greedy chunk-removal shrinking of a failing point set.

    Repeatedly tries to delete contiguous chunks (halving the chunk
    size each round) while ``fails`` keeps returning ``True``.  The
    result is 1-minimal with respect to chunk removal at the final
    granularity — small enough to eyeball, cheap enough to run inline.
    """
    current = points
    chunk = max(1, len(current) // 2)
    rounds = 0
    while rounds < max_rounds and len(current) > 2:
        rounds += 1
        removed_any = False
        start = 0
        while start < len(current) and len(current) > 2:
            candidate = np.concatenate(
                [current[:start], current[start + chunk:]])
            if len(candidate) >= 2 and fails(candidate):
                current = candidate
                removed_any = True
            else:
                start += chunk
        if chunk == 1 and not removed_any:
            break
        chunk = max(1, chunk // 2)
    return current


def dump_artifact(directory: str, failure_id: str, points: np.ndarray,
                  epsilon: float, seed: int, kind: str,
                  configs: Sequence, detail: str) -> str:
    """Write a replayable (json + npz) failure artifact; returns json path."""
    os.makedirs(directory, exist_ok=True)
    npz_path = os.path.join(directory, f"{failure_id}.npz")
    json_path = os.path.join(directory, f"{failure_id}.json")
    np.savez_compressed(npz_path, points=points)
    meta = {
        "format": 1,
        "seed": int(seed),
        "kind": kind,
        "epsilon": float(epsilon),
        "n": int(len(points)),
        "points_file": os.path.basename(npz_path),
        "configs": [[name, options] for name, options in _as_pairs(configs)],
        "detail": detail,
    }
    with open(json_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    return json_path


def _as_pairs(configs: Sequence) -> List[Tuple[str, Dict[str, object]]]:
    pairs = []
    for config in configs:
        if isinstance(config, str):
            pairs.append((config, {}))
        else:
            pairs.append((config[0], dict(config[1])))
    return pairs


def replay_artifact(json_path: str) -> Tuple[bool, str]:
    """Re-run the check recorded in a fuzz artifact.

    Returns ``(still_fails, detail)`` — a fixed bug replays as
    ``(False, ...)``.
    """
    with open(json_path) as fh:
        meta = json.load(fh)
    npz_path = os.path.join(os.path.dirname(json_path),
                            meta["points_file"])
    points = np.load(npz_path)["points"]
    configs = [(name, options) for name, options in meta["configs"]]
    ok, detail, _ = _check_workload(points, float(meta["epsilon"]),
                                    configs)
    return (not ok), detail or "check passes now"


def _trial_parameters(rng: np.random.Generator, dimensions: int,
                      max_points: int):
    kind = WORKLOAD_KINDS[int(rng.integers(0, len(WORKLOAD_KINDS)))]
    n = int(rng.integers(8, max(9, max_points + 1)))
    d = int(rng.integers(2, dimensions + 1))
    epsilon = float(rng.uniform(0.05, 0.4))
    return kind, n, d, epsilon


def run_fuzz(seed: int = 0, budget_s: float = 60.0,
             dimensions: int = 5, max_points: int = 120,
             configs: Sequence = DEFAULT_CONFIGS,
             artifact_dir: Optional[str] = None,
             max_failures: int = 5,
             max_trials: Optional[int] = None,
             log: Optional[Callable[[str], None]] = None) -> FuzzReport:
    """Fuzz the join implementations until the time budget runs out."""
    rng = np.random.default_rng(seed)
    report = FuzzReport(seed=seed, budget_s=budget_s)
    deadline = time.monotonic() + budget_s
    while time.monotonic() < deadline:
        if max_trials is not None and report.trials >= max_trials:
            break
        if len(report.failures) >= max_failures:
            break
        trial = report.trials
        report.trials += 1
        kind, n, d, epsilon = _trial_parameters(rng, dimensions,
                                                max_points)
        trial_seed = seed * 1_000_003 + trial
        workload = generate_workload(kind, n, d, epsilon, trial_seed)
        ok, detail, checks = _check_workload(workload.points, epsilon,
                                             configs)
        report.checks += checks
        if ok:
            if log is not None:
                log(f"trial {trial}: {kind} n={n} d={d} "
                    f"ε={epsilon:.3f} ok ({checks} checks)")
            continue

        shrunk = shrink_workload(workload.points, epsilon,
                                 lambda pts: not _check_workload(
                                     pts, epsilon, configs)[0])
        _, shrunk_detail, _ = _check_workload(shrunk, epsilon, configs)
        failure = FuzzFailure(trial=trial, seed=trial_seed, kind=kind,
                              epsilon=epsilon, n_original=n,
                              n_shrunk=len(shrunk),
                              detail=shrunk_detail or detail)
        if artifact_dir is not None:
            failure_id = f"fail-seed{seed}-trial{trial}"
            failure.artifact = dump_artifact(
                artifact_dir, failure_id, shrunk, epsilon, trial_seed,
                kind, configs, failure.detail)
        report.failures.append(failure)
        if log is not None:
            log(failure.describe())
    report.elapsed_s = max(0.0, time.monotonic() - (deadline - budget_s))
    return report


def acceptance_matrix(points: np.ndarray, epsilon: float,
                      engines: Sequence[str] = ("scalar", "vector",
                                                "auto"),
                      workers: Sequence[int] = (1, 4),
                      storages: Sequence[str] = ("plain", "checksummed",
                                                 "crash_resume")):
    """The acceptance-criteria sweep: engine × workers × storage.

    Returns ``(ok, digests)`` where ``digests`` maps each configuration
    label to the canonical pair digest; ``ok`` means every digest —
    including the in-memory reference — is identical.
    """
    reference = run_impl("ego", points, epsilon)
    digests = {"ego[reference]": pair_digest(reference)}
    for engine in engines:
        for w in workers:
            for storage in storages:
                canon = run_impl("ego_external", points, epsilon,
                                 engine=engine, workers=w,
                                 storage=storage)
                digests[f"ego_external[{engine},w{w},{storage}]"] = \
                    pair_digest(canon)
    unique = set(digests.values())
    return len(unique) == 1, digests


# Re-export for CLI convenience.
__all__ = [
    "DEFAULT_CONFIGS", "FUZZ_LSH_RELATIONS", "FUZZ_RELATIONS",
    "FUZZ_STORE_RELATIONS",
    "FuzzFailure", "FuzzReport", "REGISTRY", "acceptance_matrix",
    "dump_artifact", "parse_budget", "replay_artifact", "run_fuzz",
    "shrink_workload",
]
