import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
import oracle
from oracle import rows, segments

from cyclecast import synth
from cyclecast.core import ClusterSpec, EmptyInputError, total_cpu_cycles
from cyclecast.regression import CostModel, predict
from cyclecast.synth import (
    DEFAULT_GRID,
    DEFAULT_INPUT_BYTES,
    SynthSpec,
    _pcg64_states,
    _words,
    generate_profiles,
    generate_trace,
    simulate,
    write_traces,
)

TRUTH = CostModel(
    app="synthetic",
    a=(1.0e12, 2.0e10, 3.0e8, 4.0e10, 5.0e8),
    condition_estimate=1.0,
    training_residual=0.0,
    ref_input_bytes=DEFAULT_INPUT_BYTES,
)

CLUSTER = ClusterSpec(("fast-0", "fast-1", "slow-0"), clock_hz=[3.2e9, 3.2e9, 1.8e9], cores=[16, 16, 4])


def _spec(**kwargs):
    defaults = dict(truth=TRUTH, repetitions=2, noise_rel_sigma=0.02, seed=11)
    defaults.update(kwargs)
    return SynthSpec(**defaults)


def test_default_grid():
    assert DEFAULT_GRID == (4, 8, 12, 16, 20, 24, 28, 32)
    assert _spec().grid_mappers == DEFAULT_GRID


def test_run_count_and_order():
    spec = _spec(grid_mappers=(4, 8), grid_reducers=(4, 8), repetitions=3)
    table = generate_profiles(spec)
    assert len(table) == 2 * 2 * 3
    keys = list(zip(table.mappers[::3].tolist(), table.reducers[::3].tolist()))
    assert keys == [(4, 4), (4, 8), (8, 4), (8, 8)]
    assert len(set(table.run_ids)) == len(table)
    assert table.run_ids[:3] == ("synthetic-m004-r004-rep00", "synthetic-m004-r004-rep01",
                                 "synthetic-m004-r004-rep02")
    assert set(table.apps) == {"synthetic"}
    assert set(table.input_bytes.tolist()) == {DEFAULT_INPUT_BYTES}


def test_determinism():
    spec = _spec()
    assert rows(generate_profiles(spec)) == rows(generate_profiles(spec))


def test_noiseless_runs_equal_the_surface_exactly():
    spec = _spec(noise_rel_sigma=0.0, repetitions=2)
    table = generate_profiles(spec)
    assert table.total_cycles.tolist() == predict(TRUTH, table.mappers, table.reducers).tolist()


def test_noiseless_runs_follow_the_truth_size_line():
    truth = dataclasses.replace(TRUTH, line=(150.0, 5.0e11))
    spec = _spec(truth=truth, noise_rel_sigma=0.0, input_bytes=2 * DEFAULT_INPUT_BYTES)
    table = generate_profiles(spec)
    expected = truth.predict(table.mappers, table.reducers, spec.input_bytes)
    assert table.total_cycles.tolist() == expected.tolist()
    assert (expected != predict(TRUTH, table.mappers, table.reducers)).all()


def test_cell_substreams_are_independent_of_grid_shape():
    # Any cell regenerated alone must reproduce the full-grid draw.
    full = generate_profiles(_spec(grid_mappers=(4, 8, 12), grid_reducers=(4, 8)))
    alone = generate_profiles(_spec(grid_mappers=(12,), grid_reducers=(8,)))
    in_cell = (full.mappers == 12) & (full.reducers == 8)
    assert full.total_cycles[in_cell].tolist() == alone.total_cycles.tolist()


def test_different_seeds_differ():
    a = generate_profiles(_spec(seed=1))
    b = generate_profiles(_spec(seed=2))
    assert a.total_cycles.tolist() != b.total_cycles.tolist()


def test_noise_floor_keeps_cycles_non_negative():
    spec = _spec(noise_rel_sigma=50.0, grid_mappers=(4,), grid_reducers=(4,),
                 repetitions=200)
    cycles = generate_profiles(spec).total_cycles
    assert cycles.min() == 0.0  # sigma 50 puts much of the mass below -1
    assert (cycles >= 0.0).all()


_SEEDS = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1)
_GRID_VALUES = st.integers(1, 2**63 - 1)


@settings(max_examples=200, deadline=None)
@given(_SEEDS, _GRID_VALUES, _GRID_VALUES, st.integers(0, 20))
def test_cell_words_seed_as_the_int_list_does(seed, mappers, reducers, rep):
    words = np.array(
        _words(seed) + _words(mappers) + _words(reducers) + _words(rep), dtype=np.uint32
    )
    assert np.array_equal(
        np.random.SeedSequence(words).generate_state(4),
        np.random.SeedSequence([seed, mappers, reducers, rep]).generate_state(4),
    )


_WORDS = st.sampled_from([0, 2**32 - 1]) | st.integers(0, 2**32 - 1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(4, 8).flatmap(lambda width: st.lists(_WORDS, min_size=width,
                                                                max_size=width)),
                min_size=1, max_size=12))
def test_bulk_states_are_pcg64_s_seeding_of_each_key(keys):
    expected = []
    for key in keys:
        state = np.random.PCG64(np.random.SeedSequence(np.array(key, dtype=np.uint32))).state
        assert (state["has_uint32"], state["uinteger"]) == (0, 0)
        expected.append((state["state"]["state"], state["state"]["inc"]))
    assert _pcg64_states(keys) == expected


def _oracle_cycles(spec):
    """The per-cell formula: one default_rng per (mappers, reducers, rep),
    seeded from the Python int list."""
    cells = [(m, r) for m in spec.grid_mappers for r in spec.grid_reducers]
    truth = spec.truth.predict(*zip(*cells), spec.input_bytes).tolist()
    cycles = []
    for (m, r), true_cycles in zip(cells, truth):
        for rep in range(spec.repetitions):
            rng = np.random.default_rng(np.random.SeedSequence([spec.seed, m, r, rep]))
            eps = rng.normal(0.0, spec.noise_rel_sigma)
            cycles.append(true_cycles * max(0.0, 1.0 + eps))
    return cycles


@settings(max_examples=50, deadline=None)
@given(
    _SEEDS,
    st.lists(_GRID_VALUES, min_size=1, max_size=3, unique=True),
    st.lists(_GRID_VALUES, min_size=1, max_size=3, unique=True),
    st.integers(1, 3),
    st.sampled_from([0.0, 0.02, 50.0]),
)
def test_profiles_equal_the_per_cell_formula(seed, grid_m, grid_r, reps, sigma):
    spec = _spec(seed=seed, grid_mappers=tuple(grid_m), grid_reducers=tuple(grid_r),
                 repetitions=reps, noise_rel_sigma=sigma)
    table = generate_profiles(spec)
    assert table.total_cycles.tolist() == _oracle_cycles(spec)
    cells = [(m, r) for m in grid_m for r in grid_r for _ in range(reps)]
    assert list(zip(table.mappers.tolist(), table.reducers.tolist())) == cells


def test_simulate_is_generate_profiles_then_write_traces(tmp_path):
    spec = _spec(grid_mappers=(4, 8), grid_reducers=(4, 12, 16))
    expected = generate_profiles(spec)
    assert rows(simulate(spec)) == rows(expected)
    write_traces(expected, CLUSTER, spec.seed, tmp_path / "expected")
    assert rows(simulate(spec, tmp_path / "traces", CLUSTER)) == rows(expected)
    names = sorted(path.name for path in (tmp_path / "expected").iterdir())
    assert names == sorted(f"{run_id}.csv" for run_id in expected.run_ids)
    assert sorted(path.name for path in (tmp_path / "traces").iterdir()) == names
    for name in names:
        assert (tmp_path / "traces" / name).read_bytes() == (
            tmp_path / "expected" / name).read_bytes()


@pytest.mark.parametrize("half", ["trace_dir", "cluster"])
def test_simulate_refuses_half_a_pair_before_it_simulates(tmp_path, monkeypatch, half):
    def refuse(spec):
        raise AssertionError("simulated before the pair was checked")

    monkeypatch.setattr(synth, "generate_profiles", refuse)
    pair = {"trace_dir": tmp_path / "traces", "cluster": CLUSTER}
    with pytest.raises(ValueError, match="cluster is required with trace_dir"):
        simulate(_spec(), **{half: pair[half]})
    assert not (tmp_path / "traces").exists()


def test_spec_validation():
    with pytest.raises(ValueError):
        _spec(grid_mappers=())
    with pytest.raises(ValueError):
        _spec(grid_mappers=(0, 4))
    with pytest.raises(ValueError, match="grid_reducers must be < 2"):
        _spec(grid_reducers=(2**63,))
    for grid in ((True, 4), (4.5, 8)):
        with pytest.raises(TypeError, match="grid_mappers must be an int"):
            _spec(grid_mappers=grid)
    with pytest.raises(ValueError):
        _spec(repetitions=0)
    with pytest.raises(TypeError, match="repetitions must be an int"):
        _spec(repetitions=2.5)
    with pytest.raises(ValueError, match="input_bytes must be < 2"):
        _spec(input_bytes=2**63)
    with pytest.raises(ValueError):
        _spec(noise_rel_sigma=-0.1)
    for seed in (2.5, True, np.float64(3), -1, 2**64):
        with pytest.raises((TypeError, ValueError), match="^seed must be"):
            _spec(seed=seed)
    with pytest.raises(ValueError):
        _spec(app="")
    with pytest.raises(ValueError):
        _spec(input_bytes=0)


def test_a_spec_holds_at_most_2_to_the_20_runs():
    axis = tuple(range(1, 1025))
    assert synth._MOST_RUNS == len(axis) ** 2 == 2**20
    assert _spec(grid_mappers=axis, grid_reducers=axis, repetitions=1).repetitions == 1
    with pytest.raises(ValueError, match=r"^the spec holds 2097152 runs; at most 1048576$"):
        _spec(grid_mappers=axis, grid_reducers=axis, repetitions=2)
    with pytest.raises(ValueError, match=r"^the spec holds 400000000000 runs; at most 1048576$"):
        _spec(grid_mappers=(4, 8), grid_reducers=(4, 8), repetitions=10**11)


class TestGenerateTrace:
    def test_traces_account_back_to_the_total(self):
        traces = generate_trace("job-001", 7.3e13, CLUSTER, seed=5)
        total = total_cpu_cycles(traces, CLUSTER)
        assert total == pytest.approx(7.3e13, rel=1e-9)

    def test_every_machine_appears(self):
        traces = generate_trace("job-001", 7.3e13, CLUSTER, seed=5)
        assert {t.machine_id for t in traces} == set(CLUSTER.machines)

    def test_samples_respect_core_bounds(self):
        traces = generate_trace("job-001", 9.9e14, CLUSTER, seed=5)
        for trace in traces:
            cores = CLUSTER.cores[CLUSTER.machines.index(trace.machine_id)]
            for cpu_seconds in trace.samples:
                assert 0.0 <= cpu_seconds <= cores

    def test_offsets_are_consecutive_from_zero(self):
        traces = generate_trace("job-001", 7.3e13, CLUSTER, seed=5)
        for trace in traces:
            assert trace.offsets.tolist() == list(range(len(trace.samples)))

    def test_deterministic_per_run_id_and_seed(self):
        def trace(run, seed):
            return segments(generate_trace(*run, CLUSTER, seed=seed))

        run = ("job-001", 7.3e13)
        assert trace(run, seed=5) == trace(run, seed=5)
        assert trace(run, seed=5) != trace(run, seed=6)
        other = ("job-002", 7.3e13)
        assert trace(run, seed=5) != trace(other, seed=5)

    def test_zero_cycle_run_yields_no_traces(self):
        assert segments(generate_trace("job-001", 0.0, CLUSTER, seed=5)) == []

    def test_empty_cluster_rejected(self):
        with pytest.raises(EmptyInputError):
            generate_trace("job-001", 1.0e12, ClusterSpec((), [], []), seed=5)

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((5, 1.0e12, 5), TypeError, "run_id must be a str, got int"),
            (("", 1.0e12, 5), ValueError, "run_id must be non-empty"),
            (("job-001", "1e12", 5), TypeError, "total_cycles must be a number, got str"),
            (("job-001", True, 5), TypeError, "total_cycles must be a number, got bool"),
            (("job-001", -500.0, 5), ValueError, "total_cycles must be finite and >= 0, got -500.0"),
            (("job-001", math.inf, 5), ValueError, "total_cycles must be finite and >= 0, got inf"),
            (("job-001", 1.0e12, True), TypeError, "seed must be an int, got bool"),
            (("job-001", 1.0e12, 2.5), TypeError, "seed must be an int, got float"),
            (("job-001", 1.0e12, -1), ValueError, "seed must be >= 0, got -1"),
            (("job-001", 1.0e12, 2**64), ValueError, f"seed must be < 2\\*\\*64, got {2**64}"),
        ],
        ids=["int-run-id", "empty-run-id", "str-total", "bool-total", "negative-total",
             "infinite-total", "bool-seed", "float-seed", "negative-seed", "seed-2**64"],
    )
    def test_arguments_follow_core_s_rules(self, args, error, message):
        run_id, total_cycles, seed = args
        with pytest.raises(error, match=f"^{message}$"):
            generate_trace(run_id, total_cycles, CLUSTER, seed)

    def test_numpy_arguments_draw_as_python_ones(self):
        python = generate_trace("job-001", 7.3e13, CLUSTER, 5)
        numpy = generate_trace("job-001", np.float64(7.3e13), CLUSTER, np.uint64(5))
        assert segments(numpy) == segments(python)

    @pytest.mark.parametrize("clock_hz", [1e-300, 5e-324])
    def test_a_clock_too_slow_for_the_total_names_its_machine(self, clock_hz):
        cluster = ClusterSpec(("fast-0", "crawl"), clock_hz=[3.2e9, clock_hz], cores=[16, 4])
        with pytest.raises(ValueError, match="^machine 'crawl' at .* Hz would need inf CPU-seconds"):
            generate_trace("job-001", 1.0e12, cluster, seed=5)

    def test_a_share_of_2_63_or_more_samples_names_its_machine(self):
        # 1e300 cycles at 1 Hz: about 1e300 samples, which nothing allocates.
        cluster = ClusterSpec(("fast-0", "crawl"), clock_hz=[1e300, 1.0], cores=[16, 4])
        with pytest.raises(ValueError, match="^machine 'crawl' with 4 cores would need .* samples"):
            generate_trace("job-001", 1.0e300, cluster, seed=5)

    def test_a_trace_of_2_63_or_more_samples_in_all_is_refused(self):
        # Every share is below 2**63 samples; together they are not.
        cluster = ClusterSpec([f"crawl-{i}" for i in range(4)], clock_hz=[1.0] * 4, cores=[1] * 4)
        with pytest.raises(ValueError, match="^the trace would need .* samples in all"):
            generate_trace("job-001", 8.0e18, cluster, seed=5)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(1e8, 5e9), st.sampled_from([1, 2, 4, 16, 2**40, 2**62])),
            min_size=1,
            max_size=6,
        ),
        # At most about 2e4 samples a machine; small totals take one sample.
        st.sampled_from([1e7, 1e10, 1e12]) | st.floats(1e6, 1e12),
        st.integers(0, 2**64 - 1),
        st.text(min_size=1, max_size=8),
    )
    # Segments of thousands of samples, a few, and one.
    @example([(1e8, 1), (2e9, 4), (3e9, 2**40)], 1e12, 0, "job-001")
    def test_one_draw_for_all_machines_is_the_per_machine_formula(
        self, machines, total_cycles, seed, run_id
    ):
        cluster = ClusterSpec(
            [f"m{i}" for i in range(len(machines))],
            [clock_hz for clock_hz, _ in machines],
            [cores for _, cores in machines],
        )
        got = generate_trace(run_id, total_cycles, cluster, seed)
        expected = oracle.generate_trace(run_id, total_cycles, cluster, seed)
        assert got.machine_ids == expected.machine_ids
        assert got.ends.tolist() == expected.ends.tolist()
        assert got.offsets.tolist() == expected.offsets.tolist()
        assert got.samples.tobytes() == expected.samples.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(1e9, 2e13),
        st.integers(0, 2**32),
        st.integers(1, 4),
    )
    def test_closure_property(self, cycles, seed, n_machines):
        cluster = ClusterSpec(
            [f"m{i}" for i in range(n_machines)],
            [1.5e9 + 0.7e9 * i for i in range(n_machines)],
            [2 ** (i + 2) for i in range(n_machines)],
        )
        traces = generate_trace("job-001", cycles, cluster, seed=seed)
        assert total_cpu_cycles(traces, cluster) == pytest.approx(cycles, rel=1e-9)
