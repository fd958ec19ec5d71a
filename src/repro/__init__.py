"""repro — Epsilon Grid Order similarity join (SIGMOD 2001 reproduction).

A from-scratch implementation of Böhm, Braunmüller, Krebs & Kriegel,
"Epsilon Grid Order: An Algorithm for the Similarity Join on Massive
High-Dimensional Data", including every substrate the paper depends on
(simulated disk, external sorting, buffer management) and every
competitor of its evaluation (nested loop, RSJ, Z-Order-RSJ, MuX,
ε-kdB-tree).

Quick start::

    import numpy as np
    from repro import ego_self_join

    points = np.random.default_rng(0).random((10_000, 8))
    result = ego_self_join(points, epsilon=0.1)
    ids_a, ids_b = result.pairs()

See README.md for the architecture overview, DESIGN.md for the system
inventory and EXPERIMENTS.md for the reproduced evaluation.
"""

from .apps import (DBSCANResult, KNNGraph, NeighborhoodGraph,
                   OPTICSResult, OutlierResult, dbscan,
                   distance_based_outliers, epsilon_graph, knn_graph,
                   optics)
from .core import (JoinResult, Metric, ego_join, ego_join_files,
                   ego_self_join, ego_self_join_file, ego_sorted,
                   get_metric, grid_cells)
from .data import (cad_like, dft_features, epsilon_for_average_neighbors,
                   gaussian_clusters, load_points, make_point_file,
                   random_walks, save_points, seasonal_series, uniform)
from .joins import (brute_force_self_join, epskdb_self_join,
                    grid_hash_self_join, msj_self_join, mux_self_join,
                    nested_loop_self_join_file, rsj_self_join,
                    spatial_hash_self_join, zorder_rsj_self_join)
from .storage import DiskModel, PointFile, SimulatedDisk

__version__ = "1.0.0"

__all__ = [
    "DBSCANResult",
    "DiskModel",
    "JoinResult",
    "KNNGraph",
    "Metric",
    "NeighborhoodGraph",
    "OPTICSResult",
    "OutlierResult",
    "PointFile",
    "SimulatedDisk",
    "__version__",
    "brute_force_self_join",
    "cad_like",
    "dbscan",
    "dft_features",
    "distance_based_outliers",
    "ego_join",
    "ego_join_files",
    "ego_self_join",
    "ego_self_join_file",
    "ego_sorted",
    "epsilon_for_average_neighbors",
    "epsilon_graph",
    "epskdb_self_join",
    "gaussian_clusters",
    "get_metric",
    "grid_cells",
    "grid_hash_self_join",
    "knn_graph",
    "load_points",
    "make_point_file",
    "msj_self_join",
    "mux_self_join",
    "nested_loop_self_join_file",
    "random_walks",
    "seasonal_series",
    "optics",
    "rsj_self_join",
    "spatial_hash_self_join",
    "save_points",
    "uniform",
    "zorder_rsj_self_join",
]
