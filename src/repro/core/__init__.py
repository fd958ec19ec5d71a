"""The paper's contribution: the Epsilon Grid Order similarity join."""

from .distance import (dimension_ordering, distance_below_eps,
                       natural_ordering, pairs_within_scalar,
                       pairs_within_vector, pairwise_sq_distances)
from .ego_join import (ExternalJoinReport, ExternalRSJoinReport, ego_join,
                       ego_join_files, ego_key_function, ego_self_join,
                       ego_self_join_file)
from .ego_order import (ego_compare, ego_key, ego_less, ego_sort_order,
                        ego_sorted, epsilon_interval, grid_cells,
                        is_ego_sorted, lex_less, outside_interval_high,
                        outside_interval_low, validate_epsilon)
from .kernels import (ScratchBuffers, candidate_windows,
                      pairs_within_matmul)
from .metrics import (CHEBYSHEV, EUCLIDEAN, MANHATTAN, Metric,
                      get_metric)
from .parallel import SerialUnitJoiner
from .result import JoinResult
from .rs_scheduler import RSScheduleStats, TwoFileScheduler
from .scheduler import EGOScheduler, ScheduleStats
from .sequence import Sequence
from .sequence_join import (DEFAULT_MINLEN, ENGINES, EXCLUSION_CELL_DISTANCE,
                            JoinContext, KernelConfig, join_sequences,
                            simple_join)
from .units import SortedUnits, UnitMeta

__all__ = [
    "DEFAULT_MINLEN",
    "ENGINES",
    "EXCLUSION_CELL_DISTANCE",
    "ScratchBuffers",
    "SerialUnitJoiner",
    "EGOScheduler",
    "ExternalJoinReport",
    "ExternalRSJoinReport",
    "RSScheduleStats",
    "TwoFileScheduler",
    "CHEBYSHEV",
    "EUCLIDEAN",
    "MANHATTAN",
    "Metric",
    "get_metric",
    "JoinContext",
    "KernelConfig",
    "JoinResult",
    "ScheduleStats",
    "Sequence",
    "SortedUnits",
    "UnitMeta",
    "dimension_ordering",
    "distance_below_eps",
    "ego_compare",
    "ego_join",
    "ego_join_files",
    "ego_key",
    "ego_key_function",
    "ego_less",
    "ego_self_join",
    "ego_self_join_file",
    "ego_sort_order",
    "ego_sorted",
    "epsilon_interval",
    "grid_cells",
    "is_ego_sorted",
    "join_sequences",
    "lex_less",
    "natural_ordering",
    "candidate_windows",
    "outside_interval_high",
    "outside_interval_low",
    "pairs_within_matmul",
    "pairs_within_scalar",
    "pairs_within_vector",
    "pairwise_sq_distances",
    "simple_join",
    "validate_epsilon",
]
