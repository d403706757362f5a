import math

import pytest
from hypothesis import given, strategies as st

from cyclecast.core import (
    ClusterSpec,
    EmptyInputError,
    JobConfig,
    JobProfile,
    JobRun,
    Machine,
    MachineTrace,
    SampleExceedsCoresError,
    UnknownMachineError,
    aggregate_repetitions,
    total_cpu_cycles,
)


def _trace(machine_id, values, start=0):
    return MachineTrace(machine_id, range(start, start + len(values)), values)


TWO_MACHINE_CLUSTER = ClusterSpec(
    machines=(
        Machine(machine_id="node-a", clock_hz=3.0e9, cores=4),
        Machine(machine_id="node-b", clock_hz=2.0e9, cores=2),
    )
)


class TestTotalCpuCycles:
    def test_two_machine_hand_example(self):
        # 2.0 CPU-s at 3 GHz plus 1.0 CPU-s at 2 GHz: 6e9 + 2e9 cycles.
        traces = [_trace("node-a", [0.5, 1.5]), _trace("node-b", [1.0])]
        assert total_cpu_cycles(traces, TWO_MACHINE_CLUSTER) == 8.0e9

    def test_no_traces_is_zero(self):
        assert total_cpu_cycles([], TWO_MACHINE_CLUSTER) == 0.0

    def test_empty_trace_contributes_nothing(self):
        traces = [_trace("node-a", []), _trace("node-b", [1.0])]
        assert total_cpu_cycles(traces, TWO_MACHINE_CLUSTER) == 2.0e9

    def test_unknown_machine(self):
        with pytest.raises(UnknownMachineError):
            total_cpu_cycles([_trace("ghost", [1.0])], TWO_MACHINE_CLUSTER)

    def test_sample_over_core_count(self):
        with pytest.raises(SampleExceedsCoresError):
            total_cpu_cycles([_trace("node-b", [2.5])], TWO_MACHINE_CLUSTER)

    def test_sample_at_core_count_is_fine(self):
        assert total_cpu_cycles([_trace("node-b", [2.0])], TWO_MACHINE_CLUSTER) == 4.0e9

    @given(st.lists(st.floats(0.0, 4.0), min_size=1, max_size=40), st.data())
    def test_partition_invariance(self, values, data):
        # Splitting one machine's samples across several trace records must
        # not move the total by more than accumulated rounding.
        cut = data.draw(st.integers(0, len(values)))
        whole = total_cpu_cycles([_trace("node-a", values)], TWO_MACHINE_CLUSTER)
        split = total_cpu_cycles(
            [
                _trace("node-a", values[:cut]),
                _trace("node-a", values[cut:], start=cut),
            ],
            TWO_MACHINE_CLUSTER,
        )
        assert split == pytest.approx(whole, rel=1e-12)

    @given(
        st.lists(st.floats(0.0, 2.0), min_size=1, max_size=20),
        st.floats(0.125, 8.0),
    )
    def test_frequency_linearity(self, values, factor):
        base_cluster = ClusterSpec(
            machines=(Machine(machine_id="m0", clock_hz=2.5e9, cores=2),)
        )
        scaled_cluster = ClusterSpec(
            machines=(Machine(machine_id="m0", clock_hz=2.5e9 * factor, cores=2),)
        )
        traces = [_trace("m0", values)]
        base = total_cpu_cycles(traces, base_cluster)
        scaled = total_cpu_cycles(traces, scaled_cluster)
        assert scaled == pytest.approx(factor * base, rel=1e-12)

    @given(st.permutations(range(5)))
    def test_trace_order_is_irrelevant(self, order):
        machines = tuple(
            Machine(machine_id=f"m{i}", clock_hz=1e9 * (i + 1), cores=8)
            for i in range(5)
        )
        cluster = ClusterSpec(machines=machines)
        traces = [_trace(f"m{i}", [0.1 * (i + 1), 0.7]) for i in range(5)]
        reference = total_cpu_cycles(traces, cluster)
        shuffled = total_cpu_cycles([traces[i] for i in order], cluster)
        assert shuffled == reference


class TestAggregateRepetitions:
    def test_mean_hand_example(self):
        config = JobConfig(mappers=4, reducers=2, input_bytes=1024)
        runs = [
            JobRun(app="sort", run_id=f"r{i}", config=config, total_cycles=c)
            for i, c in enumerate([100.0, 200.0, 300.0])
        ]
        profiles = aggregate_repetitions(runs)
        assert len(profiles) == 1
        assert profiles[0].mean_cycles == 200.0
        assert profiles[0].repetitions == 3
        assert profiles[0].app == "sort"

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            aggregate_repetitions([])

    def test_groups_by_app_and_config(self):
        c1 = JobConfig(mappers=4, reducers=2, input_bytes=1024)
        c2 = JobConfig(mappers=8, reducers=2, input_bytes=1024)
        runs = [
            JobRun(app="sort", run_id="a", config=c1, total_cycles=10.0),
            JobRun(app="grep", run_id="b", config=c1, total_cycles=20.0),
            JobRun(app="sort", run_id="c", config=c2, total_cycles=30.0),
            JobRun(app="sort", run_id="d", config=c1, total_cycles=30.0),
        ]
        profiles = aggregate_repetitions(runs)
        keys = [(p.app, p.config.mappers) for p in profiles]
        assert keys == [("grep", 4), ("sort", 4), ("sort", 8)]
        assert profiles[1].mean_cycles == 20.0
        assert profiles[1].repetitions == 2

    @given(st.permutations(range(7)))
    def test_permutation_changes_nothing_bitwise(self, order):
        config = JobConfig(mappers=2, reducers=2, input_bytes=512)
        cycles = [1.1e12, 2.3e12, 0.9e12, 1.7e12, 3.1e12, 2.2e12, 1.05e12]
        runs = [
            JobRun(app="x", run_id=f"r{i}", config=config, total_cycles=c)
            for i, c in enumerate(cycles)
        ]
        reference = aggregate_repetitions(runs)
        permuted = aggregate_repetitions([runs[i] for i in order])
        assert permuted[0].mean_cycles == reference[0].mean_cycles


class TestValidation:
    def test_negative_offset(self):
        with pytest.raises(ValueError):
            MachineTrace("m", offsets=(-1,), samples=(0.5,))

    def test_negative_cpu_seconds(self):
        with pytest.raises(ValueError):
            MachineTrace("m", offsets=(0,), samples=(-0.5,))

    def test_non_finite_cpu_seconds(self):
        with pytest.raises(ValueError):
            MachineTrace("m", offsets=(0,), samples=(math.nan,))

    @pytest.mark.parametrize(
        "samples, bad",
        [((0.5, -0.5), "-0.5"), ((0.5, math.nan), "nan"), ((math.inf, 0.5), "inf")],
    )
    def test_sample_check_names_the_first_bad_value(self, samples, bad):
        message = f"samples must be finite and >= 0, got {bad}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            MachineTrace("m", offsets=(0, 1), samples=samples)

    @pytest.mark.parametrize("samples", [(-0.0,), (0.5, -0.0), (1e308, 1e308)])
    def test_sample_check_accepts_negative_zero_and_large_sums(self, samples):
        assert MachineTrace("m", range(len(samples)), samples).samples == samples

    def test_non_monotonic_offsets(self):
        with pytest.raises(ValueError):
            MachineTrace("m", offsets=(1, 1), samples=(0.5, 0.5))

    def test_columns_of_unequal_length(self):
        with pytest.raises(ValueError):
            MachineTrace("m", offsets=(0, 1), samples=(0.5,))

    def test_duplicate_machine_ids_in_cluster(self):
        with pytest.raises(ValueError):
            ClusterSpec(
                machines=(
                    Machine("m", 1e9, 1),
                    Machine("m", 2e9, 1),
                )
            )

    def test_non_positive_clock(self):
        with pytest.raises(ValueError):
            Machine(machine_id="m", clock_hz=0.0, cores=1)

    @pytest.mark.parametrize("field", ["mappers", "reducers", "input_bytes"])
    def test_config_requires_positive(self, field):
        kwargs = {"mappers": 1, "reducers": 1, "input_bytes": 1}
        kwargs[field] = 0
        with pytest.raises(ValueError):
            JobConfig(**kwargs)

    def test_run_rejects_negative_cycles(self):
        with pytest.raises(ValueError):
            JobRun(
                app="a",
                run_id="r",
                config=JobConfig(1, 1, 1),
                total_cycles=-1.0,
            )

    def test_profile_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            JobProfile(
                app="a",
                config=JobConfig(1, 1, 1),
                mean_cycles=1.0,
                repetitions=0,
            )
