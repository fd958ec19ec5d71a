"""One ``KernelConfig`` from the entry point to every worker.

The kernel knobs (engine, minlen, metric, dimension ordering, split
strategy) are validated once into a frozen :class:`KernelConfig`; the
context, the store and the parallel workers all receive that object.
The parallel test sets each knob in turn to a non-default value and
checks that a ``workers=2`` run reproduces the serial run exactly —
pair stream, CPU counters and metrics dump.  The worker-side part of
those observables comes from the worker processes, and each knob is
first shown to change them, so a knob dropped on its way to the
workers fails the test.
"""

import dataclasses
import pickle

import pytest

from repro.core.ego_join import ego_self_join, ego_self_join_file
from repro.core.metrics import CHEBYSHEV, EUCLIDEAN
from repro.core.parallel import UnitJoinSpec
from repro.core.result import JoinResult
from repro.core.sequence_join import (DEFAULT_MINLEN, JoinContext,
                                      KernelConfig)
from repro.data.synthetic import gaussian_clusters
from repro.obs.metrics import MetricsRegistry
from repro.storage.disk import SimulatedDisk

from conftest import make_file

EPS = 0.08

#: One non-default value per KernelConfig field.
NON_DEFAULT = {"engine": "auto", "minlen": 4, "metric": "chebyshev",
               "order_dimensions": False, "split_strategy": "boundary"}


class TestKernelConfig:
    def test_defaults(self):
        config = KernelConfig()
        assert (config.engine, config.minlen, config.metric,
                config.order_dimensions, config.split_strategy) == (
            "vector", DEFAULT_MINLEN, EUCLIDEAN, True, "half")

    def test_covers_every_knob(self):
        names = [f.name for f in dataclasses.fields(KernelConfig)]
        assert sorted(names) == sorted(NON_DEFAULT)

    @pytest.mark.parametrize("engine", ["matmul", "batched", "gpu"])
    def test_removed_engine_names_refused(self, engine):
        with pytest.raises(ValueError) as exc:
            KernelConfig(engine=engine)
        assert str(exc.value) == (f"unknown engine {engine!r}; accepted "
                                  f"engines: scalar, vector, auto")

    def test_metric_resolved_once(self):
        config = KernelConfig(metric="chebyshev")
        assert config.metric is CHEBYSHEV
        assert config.engine_metric is CHEBYSHEV
        assert KernelConfig().engine_metric is None

    def test_frozen_and_picklable(self):
        config = KernelConfig(**NON_DEFAULT)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.minlen = 8
        assert pickle.loads(pickle.dumps(config)) == config

    def test_entry_points_reject_unknown_knob(self, rng):
        with pytest.raises(TypeError):
            ego_self_join(rng.random((10, 2)), 0.1, batch_points=8)

    def test_unit_join_spec_carries_the_context_kernel(self):
        config = KernelConfig(**NON_DEFAULT)
        ctx = JoinContext(epsilon=EPS, result=JoinResult(), kernel=config)
        spec = UnitJoinSpec.of(ctx)
        assert spec.kernel is config
        assert pickle.loads(pickle.dumps(spec)) == spec


@pytest.fixture(scope="module")
def points():
    return gaussian_clusters(1500, 5, clusters=6, seed=3)


def observe(points, workers, **kernel):
    """Pair stream bytes, CPU counters and metrics dump of one run."""
    registry = MetricsRegistry()
    with SimulatedDisk() as disk:
        pf = make_file(disk, points)
        report = ego_self_join_file(pf, EPS, unit_bytes=2048,
                                    buffer_units=4, workers=workers,
                                    metrics=registry, **kernel)
    a, b = report.result.pairs()
    return (a.tobytes() + b.tobytes(), dataclasses.astuple(report.cpu),
            registry.to_prometheus_text())


@pytest.fixture(scope="module")
def default_run(points):
    return observe(points, 1)


class TestKernelReachesWorkers:
    @pytest.mark.parametrize("field,value", list(NON_DEFAULT.items()))
    def test_parallel_run_matches_serial(self, points, default_run, field,
                                         value):
        serial = observe(points, 1, **{field: value})
        # The knob changes what the unit-pair joins produce ...
        assert serial != default_run
        # ... and the workers, which produce all of it, reproduce it.
        parallel = observe(points, 2, **{field: value})
        assert parallel[0] == serial[0]
        assert parallel[1] == serial[1]
        assert parallel[2] == serial[2]
