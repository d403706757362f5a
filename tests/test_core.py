import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracle import rows, table

from cyclecast.core import (
    ClusterSpec,
    EmptyInputError,
    Machine,
    MachineTrace,
    ProfileTable,
    RunTable,
    SampleExceedsCoresError,
    ShapeMismatchError,
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


def _runs(*rows):
    """A RunTable of (app, run_id, mappers, reducers, input_bytes, total_cycles) rows."""
    return table(RunTable, rows)


class TestAggregateRepetitions:
    def test_mean_hand_example(self):
        runs = _runs(*[("sort", f"r{i}", 4, 2, 1024, c) for i, c in enumerate([1e2, 2e2, 3e2])])
        profiles = aggregate_repetitions(runs)
        assert isinstance(profiles, ProfileTable)
        assert rows(profiles) == [("sort", 4, 2, 1024, 200.0, 3)]

    def test_empty_raises(self):
        with pytest.raises(EmptyInputError):
            aggregate_repetitions(_runs())

    def test_groups_by_app_and_config(self):
        runs = _runs(
            ("sort", "a", 4, 2, 1024, 10.0),
            ("grep", "b", 4, 2, 1024, 20.0),
            ("sort", "c", 8, 2, 1024, 30.0),
            ("sort", "d", 4, 2, 1024, 30.0),
        )
        assert rows(aggregate_repetitions(runs)) == [
            ("grep", 4, 2, 1024, 20.0, 1),
            ("sort", 4, 2, 1024, 20.0, 2),
            ("sort", 8, 2, 1024, 30.0, 1),
        ]

    @given(st.permutations(range(7)))
    def test_permutation_changes_nothing_bitwise(self, order):
        cycles = [1.1e12, 2.3e12, 0.9e12, 1.7e12, 3.1e12, 2.2e12, 1.05e12]
        runs = [("x", f"r{i}", 2, 2, 512, c) for i, c in enumerate(cycles)]
        reference = aggregate_repetitions(_runs(*runs))
        permuted = aggregate_repetitions(_runs(*[runs[i] for i in order]))
        assert permuted.mean_cycles.tolist() == reference.mean_cycles.tolist()


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

    @pytest.mark.parametrize(
        "offsets, stored",
        [
            ([3], range(3, 4)),
            ([0, 1, 2], range(0, 3)),
            ((5, 6), range(5, 7)),
            (range(2, 6), range(2, 6)),
            ([0, 2], (0, 2)),
            ((), ()),
            (range(0), ()),
            (range(0, 10, 3), (0, 3, 6, 9)),
            (range(7, 6, -1), range(7, 8)),
            (np.arange(4, 7), range(4, 7)),
            (np.array([1, 5]), (1, 5)),
        ],
        ids=["one", "list", "tuple", "range", "gap", "empty", "empty-range", "step-3",
             "one-step-back", "numpy-contiguous", "numpy-gap"],
    )
    def test_offsets_take_one_canonical_form(self, offsets, stored):
        trace = MachineTrace("m", offsets, [0.5] * len(offsets))
        assert trace.offsets == stored and type(trace.offsets) is type(stored)
        assert all(type(o) is int for o in trace.offsets)
        assert trace == MachineTrace("m", list(stored), (0.5,) * len(stored))
        assert repr(trace) == repr(MachineTrace("m", tuple(stored), (0.5,) * len(stored)))

    def test_offsets_descending_by_range_step(self):
        with pytest.raises(ValueError):
            MachineTrace("m", range(3, 1, -1), (0.5, 0.5))

    @pytest.mark.parametrize("offsets", [(0.0, 1.0), (0.5,), ("0",)])
    def test_offsets_must_be_integers(self, offsets):
        with pytest.raises(TypeError):
            MachineTrace("m", offsets, (0.5,) * len(offsets))

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

    # One valid row of each table, as columns.
    COLUMNS = {
        RunTable: {"apps": ["a"], "run_ids": ["r"], "mappers": [1], "reducers": [1],
                   "input_bytes": [1], "total_cycles": [1.0]},
        ProfileTable: {"apps": ["a"], "mappers": [1], "reducers": [1], "input_bytes": [1],
                       "mean_cycles": [1.0], "repetitions": [1]},
    }

    def _with(self, cls, **change):
        return cls(**{**self.COLUMNS[cls], **change})

    @pytest.mark.parametrize("field", ["mappers", "reducers", "input_bytes"])
    def test_config_requires_positive(self, field):
        for cls in (RunTable, ProfileTable):
            self._with(cls)
            for column in ([0], np.array([0]), np.array([-1], dtype=np.int8)):
                with pytest.raises(ValueError, match=f"^{field} must be >= 1, got"):
                    self._with(cls, **{field: column})

    @pytest.mark.parametrize("value", [True, 4.0, "4"])
    def test_config_requires_ints(self, value):
        for cls in (RunTable, ProfileTable):
            for field in ("mappers", "reducers", "input_bytes"):
                with pytest.raises(TypeError, match=f"^{field} must be an int"):
                    self._with(cls, **{field: [value]})
                with pytest.raises(TypeError):
                    self._with(cls, **{field: np.array([value])})

    def test_config_fits_int64(self):
        for cls in (RunTable, ProfileTable):
            for column in ([2**63 - 1], np.array([2**63 - 1], dtype=np.uint64)):
                assert self._with(cls, input_bytes=column).input_bytes.tolist() == [2**63 - 1]
            for column in ([2**63], [2**70], np.array([2**63], dtype=np.uint64)):
                with pytest.raises(ValueError, match="^input_bytes must be < 2\\*\\*63"):
                    self._with(cls, input_bytes=column)

    def test_run_cycles_become_a_plain_float(self):
        runs = self._with(RunTable, total_cycles=[np.float64(0.1)])
        (cycles,) = runs.total_cycles.tolist()
        assert type(cycles) is float and cycles == 0.1

    def test_run_rejects_negative_cycles(self):
        with pytest.raises(ValueError):
            self._with(RunTable, total_cycles=[-1.0])
        with pytest.raises(ValueError):
            self._with(ProfileTable, mean_cycles=[-1.0])

    def test_profile_rejects_zero_repetitions(self):
        for repetitions in ([0], np.array([0]), [1.0], [True], [2**63]):
            with pytest.raises((ValueError, TypeError), match="^repetitions must be"):
                self._with(ProfileTable, repetitions=repetitions)


class TestRunTable:
    ROWS = [("sort", "a", 4, 2, 1024, 10.0), ("grep", "b", 8, 2, 2**62, 0.1)]

    def test_runs_round_trip_in_order(self):
        runs = table(RunTable, self.ROWS)
        assert len(runs) == 2
        assert runs.mappers.dtype == np.int64 and runs.total_cycles.dtype == np.float64
        assert rows(runs) == self.ROWS
        assert rows(table(RunTable, [])) == []

    def test_columns_are_read_only(self):
        with pytest.raises(ValueError):
            table(RunTable, self.ROWS).mappers[0] = 5

    def test_columns_are_copies(self):
        mappers = np.array([4, 8])
        runs = RunTable(("sort", "grep"), ("a", "b"), mappers, [2, 2], [1, 1], [1.0, 2.0])
        mappers[0] = 5
        assert mappers.flags.writeable and runs.mappers.tolist() == [4, 8]

    @pytest.mark.parametrize(
        "change",
        [
            {"apps": ("sort", "")},
            {"run_ids": ("a",)},
            {"reducers": [2, 0]},
            {"input_bytes": [1, 2, 3]},
            {"total_cycles": [1.0, math.nan]},
            {"total_cycles": [1.0, -0.5]},
            {"total_cycles": [math.inf, 1.0]},
        ],
    )
    def test_rows_obey_the_run_rules(self, change):
        columns = {
            "apps": ("sort", "grep"),
            "run_ids": ("a", "b"),
            "mappers": [4, 8],
            "reducers": [2, 2],
            "input_bytes": [1, 1],
            "total_cycles": [1.0, 2.0],
        }
        RunTable(**columns)
        columns.update(change)
        with pytest.raises((ValueError, ShapeMismatchError)):
            RunTable(**columns)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["sort", "grep", "a"]),
                st.integers(1, 3),
                st.integers(1, 3),
                st.sampled_from([1, 2**40, 2**63 - 1]),
                st.floats(0.0, 1e15),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(deadline=None)
    def test_table_and_runs_aggregate_alike(self, drawn):
        groups = {}
        for app, m, r, b, c in drawn:
            groups.setdefault((app, m, r, b), []).append(c)
        expected = sorted(
            (*key, math.fsum(v) / len(v), len(v)) for key, v in groups.items()
        )
        runs = _runs(*[(app, f"r{i}", m, r, b, c) for i, (app, m, r, b, c) in enumerate(drawn)])
        assert rows(aggregate_repetitions(runs)) == expected
