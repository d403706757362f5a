import cyclecast

EXPORTS = [
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
    "aggregate_repetitions",
    "append_runs",
    "build_design_matrix",
    "evaluate",
    "fit_least_squares",
    "fit_scaling",
    "generate_profiles",
    "generate_trace",
    "load_model",
    "load_runs",
    "mape",
    "parse_cluster_spec",
    "parse_trace_csv",
    "pred25",
    "predict",
    "r2_paper",
    "r2_standard",
    "rmse",
    "save_model",
    "total_cpu_cycles",
    "write_trace_csv",
]


def test_the_public_surface_is_pinned():
    assert len(EXPORTS) == 47
    assert sorted(cyclecast.__all__) == EXPORTS
    for name in EXPORTS:
        assert getattr(cyclecast, name) is not None
