import pytest
from hypothesis import given, settings, strategies as st

from cyclecast.core import (
    ClusterSpec,
    EmptyInputError,
    JobConfig,
    JobRun,
    Machine,
    total_cpu_cycles,
)
from cyclecast.regression import ModelCoefficients, predict
from cyclecast.scaling import CostModel, ScalingModel
from cyclecast.synth import (
    DEFAULT_GRID,
    DEFAULT_INPUT_BYTES,
    SynthSpec,
    generate_profiles,
    generate_trace,
)

TRUTH = ModelCoefficients(
    a=(1.0e12, 2.0e10, 3.0e8, 4.0e10, 5.0e8),
    condition_estimate=1.0,
    training_residual=0.0,
    ref_input_bytes=DEFAULT_INPUT_BYTES,
)

CLUSTER = ClusterSpec(
    machines=(
        Machine("fast-0", 3.2e9, 16),
        Machine("fast-1", 3.2e9, 16),
        Machine("slow-0", 1.8e9, 4),
    )
)


def _spec(**kwargs):
    defaults = dict(truth=CostModel(TRUTH), repetitions=2, noise_rel_sigma=0.02, seed=11)
    defaults.update(kwargs)
    return SynthSpec(**defaults)


def test_default_grid():
    assert DEFAULT_GRID == (4, 8, 12, 16, 20, 24, 28, 32)
    assert _spec().grid_mappers == DEFAULT_GRID


def test_run_count_and_order():
    spec = _spec(grid_mappers=(4, 8), grid_reducers=(4, 8), repetitions=3)
    runs = generate_profiles(spec)
    assert len(runs) == 2 * 2 * 3
    keys = [(r.config.mappers, r.config.reducers) for r in runs[::3]]
    assert keys == [(4, 4), (4, 8), (8, 4), (8, 8)]
    assert len({r.run_id for r in runs}) == len(runs)


def test_determinism():
    spec = _spec()
    assert generate_profiles(spec) == generate_profiles(spec)


def test_noiseless_runs_equal_the_surface_exactly():
    spec = _spec(noise_rel_sigma=0.0, repetitions=2)
    for run in generate_profiles(spec):
        assert run.total_cycles == predict(TRUTH, run.config.mappers, run.config.reducers)


def test_noiseless_runs_follow_the_truth_size_line():
    line = ScalingModel(slope=150.0, intercept=5.0e11, ref_bytes=DEFAULT_INPUT_BYTES)
    truth = CostModel(TRUTH, line)
    spec = _spec(truth=truth, noise_rel_sigma=0.0, input_bytes=2 * DEFAULT_INPUT_BYTES)
    for run in generate_profiles(spec):
        expected = truth.predict(run.config.mappers, run.config.reducers, spec.input_bytes)
        assert run.total_cycles == expected != predict(
            TRUTH, run.config.mappers, run.config.reducers
        )


def test_cell_substreams_are_independent_of_grid_shape():
    # Any cell regenerated alone must reproduce the full-grid draw.
    full = generate_profiles(_spec(grid_mappers=(4, 8, 12), grid_reducers=(4, 8)))
    alone = generate_profiles(_spec(grid_mappers=(12,), grid_reducers=(8,)))
    full_cell = [
        r for r in full if (r.config.mappers, r.config.reducers) == (12, 8)
    ]
    assert [r.total_cycles for r in full_cell] == [r.total_cycles for r in alone]


def test_different_seeds_differ():
    a = generate_profiles(_spec(seed=1))
    b = generate_profiles(_spec(seed=2))
    assert [r.total_cycles for r in a] != [r.total_cycles for r in b]


def test_noise_floor_keeps_cycles_non_negative():
    spec = _spec(noise_rel_sigma=50.0, grid_mappers=(4,), grid_reducers=(4,),
                 repetitions=200)
    cycles = [r.total_cycles for r in generate_profiles(spec)]
    assert min(cycles) == 0.0  # sigma 50 puts much of the mass below -1
    assert all(c >= 0.0 for c in cycles)


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(grid_mappers=())
    with pytest.raises(ValueError):
        _spec(grid_mappers=(0, 4))
    with pytest.raises(ValueError):
        _spec(repetitions=0)
    with pytest.raises(ValueError):
        _spec(noise_rel_sigma=-0.1)
    with pytest.raises(ValueError):
        _spec(seed=-1)
    with pytest.raises(ValueError):
        _spec(app="")
    with pytest.raises(ValueError):
        _spec(input_bytes=0)


def _run(cycles: float, run_id="job-001") -> JobRun:
    return JobRun(
        app="synthetic",
        run_id=run_id,
        config=JobConfig(4, 4, 2**30),
        total_cycles=cycles,
    )


class TestGenerateTrace:
    def test_traces_account_back_to_the_total(self):
        run = _run(7.3e13)
        traces = generate_trace(run, CLUSTER, seed=5)
        total = total_cpu_cycles(traces, CLUSTER)
        assert total == pytest.approx(run.total_cycles, rel=1e-9)

    def test_every_machine_appears(self):
        traces = generate_trace(_run(7.3e13), CLUSTER, seed=5)
        assert {t.machine_id for t in traces} == {m.machine_id for m in CLUSTER.machines}

    def test_samples_respect_core_bounds(self):
        traces = generate_trace(_run(9.9e14), CLUSTER, seed=5)
        for trace in traces:
            cores = CLUSTER.machine(trace.machine_id).cores
            for cpu_seconds in trace.samples:
                assert 0.0 <= cpu_seconds <= cores

    def test_offsets_are_consecutive_from_zero(self):
        traces = generate_trace(_run(7.3e13), CLUSTER, seed=5)
        for trace in traces:
            assert trace.offsets == range(len(trace.samples))

    def test_deterministic_per_run_id_and_seed(self):
        run = _run(7.3e13)
        assert generate_trace(run, CLUSTER, seed=5) == generate_trace(run, CLUSTER, seed=5)
        assert generate_trace(run, CLUSTER, seed=5) != generate_trace(run, CLUSTER, seed=6)
        other = _run(7.3e13, run_id="job-002")
        assert generate_trace(run, CLUSTER, seed=5) != generate_trace(other, CLUSTER, seed=5)

    def test_zero_cycle_run_yields_no_traces(self):
        assert generate_trace(_run(0.0), CLUSTER, seed=5) == []

    def test_empty_cluster_rejected(self):
        with pytest.raises(EmptyInputError):
            generate_trace(_run(1.0e12), ClusterSpec(machines=()), seed=5)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(1e9, 2e13),
        st.integers(0, 2**32),
        st.integers(1, 4),
    )
    def test_closure_property(self, cycles, seed, n_machines):
        cluster = ClusterSpec(
            machines=tuple(
                Machine(f"m{i}", 1.5e9 + 0.7e9 * i, 2 ** (i + 2))
                for i in range(n_machines)
            )
        )
        run = _run(cycles)
        traces = generate_trace(run, cluster, seed=seed)
        assert total_cpu_cycles(traces, cluster) == pytest.approx(cycles, rel=1e-9)
