"""Cycle-count job profiles and quadratic cost-surface prediction.

The pipeline: per-machine CPU-second traces are accounted into total
clock cycles (core, ingest), repeated runs are averaged and fitted with a
quadratic surface over (mappers, reducers) and a line over input sizes
(regression), which CostModel.predict combines, and metrics scores it.
synth generates seeded synthetic workloads for validation, store persists
runs and models, cli ties it together.
"""

from .core import (
    ClusterSpec,
    CyclecastError,
    EmptyInputError,
    NegativePredictionWarning,
    ProfileTable,
    RunTable,
    SampleExceedsCoresError,
    ShapeMismatchError,
    TraceSet,
    UnknownMachineError,
    aggregate_repetitions,
    total_cpu_cycles,
)
from .ingest import (
    IngestWarning,
    WarningKind,
    account_trace,
    parse_cluster_spec,
    parse_trace_csv,
    write_trace_csv,
)
from .metrics import (
    EvaluationReport,
    ZeroActualError,
    evaluate,
    mape,
    pred25,
    r2_paper,
    r2_standard,
    rmse,
)
from .regression import (
    CostModel,
    DegenerateInputError,
    IllConditionedError,
    MixedApplicationsError,
    MixedInputSizesError,
    NonPositiveReferenceError,
    RankDeficientError,
    fit_least_squares,
)
from .store import (
    CorruptRecordError,
    IoFailureError,
    TornRecordWarning,
    UnsupportedSchemaError,
    append_runs,
    load_model,
    load_runs,
    save_model,
)
from .synth import SynthSpec, generate_profiles, generate_trace

__version__ = "0.1.0"

__all__ = [
    "ClusterSpec",
    "CorruptRecordError",
    "CostModel",
    "CyclecastError",
    "DegenerateInputError",
    "EmptyInputError",
    "EvaluationReport",
    "IllConditionedError",
    "IngestWarning",
    "IoFailureError",
    "MixedApplicationsError",
    "MixedInputSizesError",
    "NegativePredictionWarning",
    "NonPositiveReferenceError",
    "ProfileTable",
    "RankDeficientError",
    "RunTable",
    "SampleExceedsCoresError",
    "ShapeMismatchError",
    "SynthSpec",
    "TornRecordWarning",
    "TraceSet",
    "UnknownMachineError",
    "UnsupportedSchemaError",
    "WarningKind",
    "ZeroActualError",
    "account_trace",
    "aggregate_repetitions",
    "append_runs",
    "evaluate",
    "fit_least_squares",
    "generate_profiles",
    "generate_trace",
    "load_model",
    "load_runs",
    "mape",
    "parse_cluster_spec",
    "parse_trace_csv",
    "pred25",
    "r2_paper",
    "r2_standard",
    "rmse",
    "save_model",
    "total_cpu_cycles",
    "write_trace_csv",
]
