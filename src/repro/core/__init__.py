"""DDR core: the paper's contribution (descriptor, mapping, reorganization)."""

from .api import (
    DDR_NewDataDescriptor,
    DDR_ReorganizeData,
    DDR_SetupDataMapping,
    Redistributor,
    ResizeResult,
)
from .box import Box, boxes_from_flat, intersect_many
from .halo import GhostExchanger, inflate_box
from .descriptor import (
    DATA_TYPE_1D,
    DATA_TYPE_2D,
    DATA_TYPE_3D,
    DataDescriptor,
    DataLayout,
)
from .engine import (
    ENGINES,
    AlltoallwEngine,
    AutoEngine,
    ExchangeEngine,
    ExchangeProgress,
    P2PEngine,
    default_backend,
    get_engine,
)
from .mapcache import MappingCache
from .mapping import (
    LocalMapping,
    StaleMappingError,
    plan_from_declarations,
    setup_data_mapping,
)
from .packing import BufferCache, check_buffers, check_buffers_cached
from .plan import GlobalPlan, RankPlan, RecvEntry, SendEntry, compute_global_plan
from .schedule import (
    MIN_CHUNK_BYTES,
    PIECE_INFLIGHT,
    ExchangeSchedule,
    Lane,
    RoundSchedule,
    build_schedule,
    chunk_bytes_for,
    collective_preferred,
    global_schedules,
    round_max_partners,
    round_peak_stats,
)
from .serialize import (
    attach_loaded_plan,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    save_plan,
)
from .validate import MappingValidationError, check_send_coverage, infer_domain

__all__ = [
    "ENGINES",
    "MIN_CHUNK_BYTES",
    "PIECE_INFLIGHT",
    "AlltoallwEngine",
    "AutoEngine",
    "Box",
    "BufferCache",
    "DATA_TYPE_1D",
    "DATA_TYPE_2D",
    "DATA_TYPE_3D",
    "DDR_NewDataDescriptor",
    "DDR_ReorganizeData",
    "DDR_SetupDataMapping",
    "DataDescriptor",
    "DataLayout",
    "ExchangeEngine",
    "ExchangeProgress",
    "ExchangeSchedule",
    "GhostExchanger",
    "GlobalPlan",
    "Lane",
    "LocalMapping",
    "MappingCache",
    "MappingValidationError",
    "P2PEngine",
    "RankPlan",
    "RecvEntry",
    "Redistributor",
    "ResizeResult",
    "RoundSchedule",
    "SendEntry",
    "StaleMappingError",
    "attach_loaded_plan",
    "boxes_from_flat",
    "build_schedule",
    "check_buffers",
    "check_buffers_cached",
    "check_send_coverage",
    "chunk_bytes_for",
    "collective_preferred",
    "compute_global_plan",
    "default_backend",
    "get_engine",
    "global_schedules",
    "infer_domain",
    "inflate_box",
    "intersect_many",
    "load_plan",
    "plan_from_declarations",
    "plan_from_dict",
    "plan_to_dict",
    "round_max_partners",
    "round_peak_stats",
    "save_plan",
    "setup_data_mapping",
]
