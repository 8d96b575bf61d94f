"""2-D multigroup thermal radiative transfer with quasidiffusion closures,
snapshot compression (POD/DMD) and data-driven reduced-order re-solves."""

from .config import RunConfig, load_config, preset
from .drivers import (
    RunRecord,
    TimeGrid,
    build_problem,
    closure_unknowns,
    playback_models,
    record_snapshots,
    run_fom,
    run_rom,
)
from .lowrank import (
    ClosureModel,
    SnapshotMatrix,
    compress,
    pod_compress,
    select_rank,
    truncated_svd,
)
from .materials import FrequencyGrid, MaterialModel
from .mesh import SpatialMesh
from .quadrature import AngularQuadrature, build_quadrature
from .transport import ClosureRecord, TransportSolver

__version__ = "0.1.0"

__all__ = [
    "AngularQuadrature", "ClosureModel", "ClosureRecord",
    "FrequencyGrid", "MaterialModel", "RunConfig", "RunRecord", "SnapshotMatrix",
    "SpatialMesh", "TimeGrid", "TransportSolver", "build_problem",
    "build_quadrature", "closure_unknowns", "compress",
    "load_config", "playback_models", "pod_compress",
    "preset", "record_snapshots", "run_fom", "run_rom",
    "select_rank", "truncated_svd",
]
