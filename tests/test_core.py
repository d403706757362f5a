import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracle import rows, segments, table, trace_set
from oracle import total_cpu_cycles as per_trace_cycles

from cyclecast.core import (
    ClusterSpec,
    CyclecastError,
    EmptyInputError,
    ProfileTable,
    RunTable,
    SampleExceedsCoresError,
    ShapeMismatchError,
    TraceSet,
    UnknownMachineError,
    aggregate_repetitions,
    total_cpu_cycles,
)


def _trace(machine_id, values, start=0):
    return machine_id, range(start, start + len(values)), values


def _one(offsets, samples):
    """A TraceSet of one segment on machine "m"."""
    return TraceSet(("m",), [len(offsets)], offsets, samples)


TWO_MACHINE_CLUSTER = ClusterSpec(("node-a", "node-b"), clock_hz=[3.0e9, 2.0e9], cores=[4, 2])


class TestTotalCpuCycles:
    def test_two_machine_hand_example(self):
        # 2.0 CPU-s at 3 GHz plus 1.0 CPU-s at 2 GHz: 6e9 + 2e9 cycles.
        traces = trace_set([_trace("node-a", [0.5, 1.5]), _trace("node-b", [1.0])])
        assert total_cpu_cycles(traces, TWO_MACHINE_CLUSTER) == 8.0e9

    def test_no_traces_is_zero(self):
        assert total_cpu_cycles(trace_set([]), TWO_MACHINE_CLUSTER) == 0.0

    def test_empty_trace_contributes_nothing(self):
        traces = trace_set([_trace("node-a", []), _trace("node-b", [1.0])])
        assert total_cpu_cycles(traces, TWO_MACHINE_CLUSTER) == 2.0e9

    def test_unknown_machine(self):
        with pytest.raises(UnknownMachineError):
            total_cpu_cycles(trace_set([_trace("ghost", [1.0])]), TWO_MACHINE_CLUSTER)

    def test_sample_over_core_count(self):
        with pytest.raises(SampleExceedsCoresError):
            total_cpu_cycles(trace_set([_trace("node-b", [2.5])]), TWO_MACHINE_CLUSTER)

    def test_sample_at_core_count_is_fine(self):
        assert total_cpu_cycles(trace_set([_trace("node-b", [2.0])]), TWO_MACHINE_CLUSTER) == 4.0e9

    @given(st.lists(st.floats(0.0, 4.0), min_size=1, max_size=40), st.data())
    def test_partition_invariance(self, values, data):
        # Splitting one machine's samples across several trace records must
        # not move the total by more than accumulated rounding.
        cut = data.draw(st.integers(0, len(values)))
        whole = total_cpu_cycles(trace_set([_trace("node-a", values)]), TWO_MACHINE_CLUSTER)
        split = total_cpu_cycles(
            trace_set([
                _trace("node-a", values[:cut]),
                _trace("node-a", values[cut:], start=cut),
            ]),
            TWO_MACHINE_CLUSTER,
        )
        assert split == pytest.approx(whole, rel=1e-12)

    @given(
        st.lists(st.floats(0.0, 2.0), min_size=1, max_size=20),
        st.floats(0.125, 8.0),
    )
    def test_frequency_linearity(self, values, factor):
        base_cluster = ClusterSpec(("m0",), clock_hz=[2.5e9], cores=[2])
        scaled_cluster = ClusterSpec(("m0",), clock_hz=[2.5e9 * factor], cores=[2])
        traces = trace_set([_trace("m0", values)])
        base = total_cpu_cycles(traces, base_cluster)
        scaled = total_cpu_cycles(traces, scaled_cluster)
        assert scaled == pytest.approx(factor * base, rel=1e-12)

    @given(st.permutations(range(5)))
    def test_trace_order_is_irrelevant(self, order):
        cluster = ClusterSpec(
            [f"m{i}" for i in range(5)], [1e9 * (i + 1) for i in range(5)], [8] * 5
        )
        traces = [_trace(f"m{i}", [0.1 * (i + 1), 0.7]) for i in range(5)]
        reference = total_cpu_cycles(trace_set(traces), cluster)
        shuffled = total_cpu_cycles(trace_set([traces[i] for i in order]), cluster)
        assert shuffled == reference

    def test_the_first_bad_segment_raises(self):
        # Segments are checked in set order: a sample over its machine's
        # cores before an unknown machine raises first, and the other way round.
        over, ghost = _trace("node-b", [0.5, 2.5]), _trace("ghost", [1.0])
        message = "^machine 'node-b' has 2 cores but a sample at offset 1 claims 2.5 CPU-seconds$"
        with pytest.raises(SampleExceedsCoresError, match=message):
            total_cpu_cycles(trace_set([over, ghost]), TWO_MACHINE_CLUSTER)
        with pytest.raises(UnknownMachineError, match="^machine 'ghost' is not in the cluster spec$"):
            total_cpu_cycles(trace_set([ghost, over]), TWO_MACHINE_CLUSTER)

    # Samples where a sum or the core screen could go wrong: signed zeros,
    # subnormals, the halfway cases 1 + 2**-53 and 1 + 3 * 2**-53 (ties to
    # even), TWO_MACHINE_CLUSTER's core counts and the next float above 2.
    _EDGES = [0.0, -0.0, 5e-324, 2.0**-1060, 1.0, 2.0**-53, 3 * 2.0**-53, 2.0, 4.0,
              math.nextafter(2.0, 3.0)]
    _SEGMENTS = st.lists(st.tuples(
        st.sampled_from(["node-a", "node-b", "ghost"]),
        st.lists(st.sampled_from(_EDGES) | st.floats(0.0, 4.0), max_size=4),
    ), max_size=6)

    @given(_SEGMENTS)
    @example([("node-a", [1.0, 2.0**-53]), ("node-b", [1.0, 3 * 2.0**-53]), ("node-a", [])])
    @example([("node-a", [-0.0, -0.0]), ("node-b", [-0.0]), ("node-a", [5e-324, 5e-324])])
    @example([("node-b", [1.0, 2.0, 2.0]), ("node-b", [0.5, 2.5]), ("ghost", [])])
    def test_short_and_long_segments_sum_as_the_per_trace_rule(self, drawn):
        # Segments of up to two samples and longer ones are summed two ways;
        # either must give the per-trace rule's fsum bit for bit, or its error.
        traces = TraceSet(
            machine_ids=[machine_id for machine_id, _ in drawn],
            ends=np.cumsum([len(samples) for _, samples in drawn], dtype=np.int64),
            offsets=[offset for _, samples in drawn for offset in range(len(samples))],
            samples=[sample for _, samples in drawn for sample in samples],
        )
        per_trace = [(machine_id, range(len(samples)), samples) for machine_id, samples in drawn]

        def accounted(account, traces):
            try:
                return repr(account(traces, TWO_MACHINE_CLUSTER))
            except CyclecastError as exc:
                return type(exc), str(exc)

        assert accounted(total_cpu_cycles, traces) == accounted(per_trace_cycles, per_trace)

    def test_the_error_spells_the_sample_as_repr_does(self):
        # 2.0000000000000004 needs all 17 significant digits.
        over = trace_set([_trace("node-b", [1.0, math.nextafter(2.0, 3.0)])])
        message = "^machine 'node-b' has 2 cores but a sample at offset 1 claims 2.0000000000000004 CPU-seconds$"
        with pytest.raises(SampleExceedsCoresError, match=message):
            total_cpu_cycles(over, TWO_MACHINE_CLUSTER)

    def test_core_counts_past_float_precision_compare_exactly(self):
        # float(2**53 + 3) rounds up to 2**53 + 4, which is still over.
        cluster = ClusterSpec(("m",), [1.0], [2**53 + 3])
        for sample in (2.0**53, 2.0**53 + 2):
            assert total_cpu_cycles(trace_set([("m", [0], [sample])]), cluster) == sample
        with pytest.raises(SampleExceedsCoresError):
            total_cpu_cycles(trace_set([("m", [0], [2.0**53 + 4])]), cluster)
        # float(2**63 - 1) rounds up to 2**63, which a sample may not reach.
        widest = ClusterSpec(("m",), [1.0], [2**63 - 1])
        below = math.nextafter(2.0**63, 0)
        assert total_cpu_cycles(trace_set([("m", [0], [below])]), widest) == below
        with pytest.raises(SampleExceedsCoresError, match=f"^machine 'm' has {2**63 - 1} cores"):
            total_cpu_cycles(trace_set([("m", [0], [2.0**63])]), widest)
        # Cores are int64, so a count of 2**63 or more is refused when built.
        with pytest.raises(ValueError, match="cores must be < 2\\*\\*63"):
            ClusterSpec(("m",), [1.0], [10**400])


class TestTraceSet:
    # "a" in two segments, around an empty one on "b".
    COLUMNS = {"machine_ids": ("a", "b", "a"), "ends": [2, 2, 3], "offsets": [0, 1, 0],
               "samples": [0.5, 1.5, 2.0]}

    def test_segments_and_len(self):
        traces = TraceSet(**self.COLUMNS)
        assert len(traces) == 3
        assert segments(traces) == [("a", [0, 1], [0.5, 1.5]), ("b", [], []), ("a", [0], [2.0])]
        assert [segment.machine_id for segment in traces] == ["a", "b", "a"]

    def test_columns_are_read_only_copies(self):
        offsets, samples = np.array([0, 1, 0]), np.array([0.5, 1.5, 2.0])
        traces = TraceSet(("a", "b", "a"), np.array([2, 2, 3]), offsets, samples)
        offsets[0], samples[0] = 7, 9.0
        assert traces.offsets.tolist() == [0, 1, 0] and traces.samples.tolist() == [0.5, 1.5, 2.0]
        _, first_offsets, first_samples = next(iter(traces))
        for column in (traces.ends, traces.offsets, traces.samples, first_offsets, first_samples):
            assert column.dtype in (np.int64, np.float64)
            with pytest.raises(ValueError):
                column[0] = 1

    def test_read_only_arrays_handed_over_are_kept_and_views_copied(self):
        # A read-only, C-contiguous array of the column's dtype that owns
        # its data is kept as it is, as the parser hands its columns over.
        ends, offsets, samples = np.array([2, 2, 3]), np.array([0, 1, 0]), np.array([0.5, 1.5, 2.0])
        for column in (ends, offsets, samples):
            column.setflags(write=False)
        traces = TraceSet(("a", "b", "a"), ends, offsets, samples)
        assert traces.ends is ends and traces.offsets is offsets and traces.samples is samples
        # A read-only view is copied, so writing through its base leaves
        # the set unchanged; so is an array of another dtype.
        base_offsets, base_samples = np.array([0, 1, 0, 9]), np.array([0.5, 1.5, 2.0, 9.0])
        views = base_offsets[:3], base_samples[:3]
        for view in views:
            view.setflags(write=False)
        narrow = np.array([2, 2, 3], np.int32)
        narrow.setflags(write=False)
        traces = TraceSet(("a", "b", "a"), narrow, *views)
        base_offsets[0], base_samples[0] = 7, 9.0
        assert traces.ends.dtype == np.int64 and traces.ends.tolist() == [2, 2, 3]
        assert traces.offsets.tolist() == [0, 1, 0] and traces.samples.tolist() == [0.5, 1.5, 2.0]

    @pytest.mark.parametrize(
        "change, error, message",
        [
            ({"machine_ids": ("a", "", "a")}, ValueError, "machine_id must be non-empty"),
            ({"ends": [2, 3]}, ValueError, "ends must be 3 non-decreasing row ends"),
            ({"ends": [2, 1, 3]}, ValueError, "ends must be 3 non-decreasing row ends"),
            ({"ends": [2, 2, 4]}, ValueError, "offsets and samples must have 4 rows"),
            ({"ends": [2, 2, 3.0]}, TypeError, "ends must be an int"),
            ({"ends": [-1, 2, 3]}, ValueError, "ends must be >= 0, got -1"),
            ({"offsets": [0, 0, 0]}, ValueError, "sample offsets must be strictly increasing on 'a'"),
            ({"offsets": [0, 1, 2**63]}, ValueError, "offsets must be < 2\\*\\*63"),
            ({"samples": [0.5, "1.5", 2.0]}, TypeError, "samples must hold numbers, got str"),
            ({"samples": np.array([True, False, True])}, TypeError, "samples must hold numbers"),
        ],
    )
    def test_columns_obey_the_set_rules(self, change, error, message):
        with pytest.raises(error, match=f"^{message}"):
            TraceSet(**{**self.COLUMNS, **change})

    def test_offsets_rise_within_each_segment(self):
        traces = TraceSet(("a", "b", "c"), [1, 3, 4], [5, 2, 3, 0], [0.5] * 4)
        assert segments(traces)[1] == ("b", [2, 3], [0.5, 0.5])
        with pytest.raises(ValueError, match="^sample offsets must be strictly increasing on 'b'$"):
            TraceSet(("a", "b", "c"), [1, 3, 4], [5, 2, 2, 0], [0.5] * 4)


class TestClusterSpec:
    COLUMNS = {"machines": ("a", "b"), "clock_hz": [3.0e9, 2.0e9], "cores": [4, 2]}

    def test_columns_are_read_only_copies(self):
        clocks, cores = np.array([3.0e9, 2.0e9]), np.array([4, 2])
        cluster = ClusterSpec(["a", "b"], clocks, cores)
        clocks[0], cores[0] = 1.0, 1
        assert cluster.machines == ("a", "b")
        assert cluster.clock_hz.tolist() == [3.0e9, 2.0e9] and cluster.cores.tolist() == [4, 2]
        assert cluster.clock_hz.dtype == np.float64 and cluster.cores.dtype == np.int64
        for column in (cluster.clock_hz, cluster.cores):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_an_empty_cluster_has_empty_columns(self):
        cluster = ClusterSpec((), [], [])
        assert cluster.machines == () and cluster.clock_hz.shape == cluster.cores.shape == (0,)

    @pytest.mark.parametrize(
        "change, error, message",
        [
            ({"machines": ("a", "")}, ValueError, "every item of machines must be non-empty"),
            ({"machines": ("a",)}, ShapeMismatchError, "column cores has shape"),
            ({"clock_hz": [3.0e9, -1.0]}, ValueError, "clock_hz must be finite and >= 0"),
            ({"clock_hz": [math.inf, 1.0]}, ValueError, "clock_hz must be finite"),
            ({"clock_hz": [math.nan, 1.0]}, ValueError, "clock_hz must be finite"),
            ({"clock_hz": ["3e9", 1.0]}, TypeError, "clock_hz must hold numbers, got str"),
            ({"cores": [4, 0]}, ValueError, "cores must be >= 1, got 0$"),
            ({"cores": [4, 2**63]}, ValueError, "cores must be < 2\\*\\*63"),
            ({"cores": [4, 2.0]}, TypeError, "cores must be an int, got float"),
            ({"cores": [4, True]}, TypeError, "cores must be an int, got bool"),
        ],
    )
    def test_columns_obey_the_cluster_rules(self, change, error, message):
        with pytest.raises(error, match=f"^{message}"):
            ClusterSpec(**{**self.COLUMNS, **change})


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
            _one(offsets=(-1,), samples=(0.5,))

    def test_negative_cpu_seconds(self):
        with pytest.raises(ValueError):
            _one(offsets=(0,), samples=(-0.5,))

    def test_non_finite_cpu_seconds(self):
        with pytest.raises(ValueError):
            _one(offsets=(0,), samples=(math.nan,))

    @pytest.mark.parametrize(
        "samples, bad",
        [((0.5, -0.5), "-0.5"), ((0.5, math.nan), "nan"), ((math.inf, 0.5), "inf")],
    )
    def test_sample_check_names_the_first_bad_value(self, samples, bad):
        message = f"samples must be finite and >= 0, got {bad}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            _one(offsets=(0, 1), samples=samples)

    @pytest.mark.parametrize("samples", [(-0.0,), (0.5, -0.0), (1e308, 1e308)])
    def test_sample_check_accepts_negative_zero_and_large_sums(self, samples):
        assert tuple(_one(range(len(samples)), samples).samples.tolist()) == samples

    def test_non_monotonic_offsets(self):
        with pytest.raises(ValueError):
            _one(offsets=(1, 1), samples=(0.5, 0.5))

    def test_columns_of_unequal_length(self):
        with pytest.raises(ValueError):
            _one(offsets=(0, 1), samples=(0.5,))

    @pytest.mark.parametrize(
        "offsets, stored",
        [
            ([3], [3]),
            ([0, 1, 2], [0, 1, 2]),
            ((5, 6), [5, 6]),
            (range(2, 6), [2, 3, 4, 5]),
            ([0, 2], [0, 2]),
            ((), []),
            (range(0), []),
            (range(0, 10, 3), [0, 3, 6, 9]),
            (range(7, 6, -1), [7]),
            (np.arange(4, 7), [4, 5, 6]),
            (np.array([1, 5]), [1, 5]),
        ],
        ids=["one", "list", "tuple", "range", "gap", "empty", "empty-range", "step-3",
             "one-step-back", "numpy-contiguous", "numpy-gap"],
    )
    def test_offsets_take_one_canonical_form(self, offsets, stored):
        # Whatever was passed, the offsets are stored as a read-only int64 column.
        traces = _one(offsets, [0.5] * len(offsets))
        assert traces.offsets.tolist() == stored and traces.offsets.dtype == np.int64
        assert not traces.offsets.flags.writeable
        assert segments(traces) == segments(_one(tuple(stored), (0.5,) * len(stored)))

    def test_offsets_descending_by_range_step(self):
        with pytest.raises(ValueError):
            _one(range(3, 1, -1), (0.5, 0.5))

    @pytest.mark.parametrize("offsets", [(0.0, 1.0), (0.5,), ("0",)])
    def test_offsets_must_be_integers(self, offsets):
        with pytest.raises(TypeError):
            _one(offsets, (0.5,) * len(offsets))

    def test_duplicate_machine_ids_in_cluster(self):
        with pytest.raises(ValueError, match="^duplicate machine_id 'm'$"):
            ClusterSpec(("a", "m", "b", "m"), [1e9] * 4, [1] * 4)

    def test_non_positive_clock(self):
        with pytest.raises(ValueError):
            ClusterSpec(("m",), clock_hz=[0.0], cores=[1])
        with pytest.raises(ValueError, match="^clock_hz must be > 0, got -0.0$"):
            ClusterSpec(("a", "m"), clock_hz=[1.0, -0.0], cores=[1, 1])

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

    def test_counts_take_numpy_integer_scalars(self):
        for cls in (RunTable, ProfileTable):
            counts = self._with(cls, mappers=[np.int64(3)], reducers=[np.uint16(2)])
            assert counts.mappers.tolist() == [3] and counts.reducers.tolist() == [2]
            with pytest.raises(TypeError, match="^mappers must be an int"):
                self._with(cls, mappers=[np.bool_(True)])

    @pytest.mark.parametrize("value", ["1.5", b"1.5", True, np.bool_(True)])
    def test_real_column_requires_numbers(self, value):
        for cls, real in ((RunTable, "total_cycles"), (ProfileTable, "mean_cycles")):
            for column in ([value], np.array([value])):
                with pytest.raises(TypeError, match=f"^{real} must hold numbers"):
                    self._with(cls, **{real: column})
            assert getattr(self._with(cls, **{real: [3]}), real).tolist() == [3.0]

    def test_a_real_too_large_for_a_float_is_a_value_error(self):
        for cls, real in ((RunTable, "total_cycles"), (ProfileTable, "mean_cycles")):
            with pytest.raises(ValueError, match=f"^{real} is too large for a float$"):
                self._with(cls, **{real: [1.0, 10**400]})

    def test_run_cycles_become_a_plain_float(self):
        runs = self._with(RunTable, total_cycles=[np.float64(0.1)])
        (cycles,) = runs.total_cycles.tolist()
        assert type(cycles) is float and cycles == 0.1

    def test_run_rejects_negative_cycles(self):
        with pytest.raises(ValueError):
            self._with(RunTable, total_cycles=[-1.0])
        with pytest.raises(ValueError):
            self._with(ProfileTable, mean_cycles=[-1.0])

    @pytest.mark.parametrize(
        "cls, change, column",
        [
            (RunTable, {"apps": [5]}, "apps"),
            (RunTable, {"run_ids": [b"r"]}, "run_ids"),
            (RunTable, {"run_ids": [None]}, "run_ids"),
            (ProfileTable, {"apps": [np.int64(1)]}, "apps"),
        ],
    )
    def test_text_columns_hold_str(self, cls, change, column):
        with pytest.raises(TypeError, match=f"^every item of {column} must be a str, got "):
            self._with(cls, **change)

    @pytest.mark.parametrize("text", ["sort", b"sort"], ids=["str", "bytes"])
    def test_a_text_column_is_not_a_bare_str(self, text):
        # A bare str or bytes would otherwise be a column of its characters
        # (or byte values), one per row.
        kind = type(text).__name__
        four = [1] * 4
        with pytest.raises(TypeError, match=f"^apps must be a sequence of str, got {kind}$"):
            RunTable(apps=text, run_ids=["r1", "r2", "r3", "r4"], mappers=four, reducers=four,
                     input_bytes=four, total_cycles=[1.0] * 4)
        with pytest.raises(TypeError, match=f"^run_ids must be a sequence of str, got {kind}$"):
            self._with(RunTable, run_ids=text[:1])
        with pytest.raises(TypeError, match=f"^machines must be a sequence of str, got {kind}$"):
            ClusterSpec(text[:2], [1.0, 1.0], [1, 1])
        with pytest.raises(TypeError, match=f"^machine_ids must be a sequence of str, got {kind}$"):
            TraceSet(text[:2], [1, 2], [0, 0], [0.5, 0.5])

    @pytest.mark.parametrize("machine", [7, b"a", None, ("a",)])
    def test_machine_ids_are_str(self, machine):
        with pytest.raises(TypeError, match="^every item of machines must be a str, got "):
            ClusterSpec(("a", machine), [1.0, 1.0], [1, 1])
        with pytest.raises(TypeError, match="^machine_id must be a str, got "):
            TraceSet(("a", machine), [1, 2], [0, 0], [0.5, 0.5])

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
