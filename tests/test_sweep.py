import math
import re
import tempfile
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadsim.dynamics import (
    ContextMatrix, ModelParams, NonFiniteStateError, simulate, simulate_rows,
)
from dyadsim import sweep
from dyadsim.metrics import UndefinedCorrelationError, pearson_r
from dyadsim.report import analyze, report_json_text, write_report
from dyadsim.sweep import (
    TAIL_LABELS,
    InvalidSweepError,
    SweepConfig,
    SweepTable,
    derive_run_seed,
    enumerate_contexts,
    read_sweep_csv,
    run_sweep,
    sweep_csv_text,
    tail_counts,
    write_sweep_csv,
)

from helpers import DIVERGING, assert_same_text, classify_tail

SMALL = SweepConfig(master_seed=7, runs_per_context=2, params=ModelParams(turns=60))

CSV_COLUMNS = ("context_index", "run_index", "run_seed", "r")


def _scalar_r(context, params, seed) -> float:
    """r of one run through ``simulate`` and ``pearson_r``; nan where they
    report divergence or an undefined correlation."""
    try:
        trajectory = simulate(context, params, seed)
        return pearson_r(trajectory.b1, trajectory.b2)
    except (NonFiniteStateError, UndefinedCorrelationError):
        return math.nan


def _kernel_calls(monkeypatch) -> list:
    """The row count of each simulate_rows call sweep makes from now on."""
    calls = []

    def counted(coefficients, params, seeds):
        calls.append(len(seeds))
        return simulate_rows(coefficients, params, seeds)

    monkeypatch.setattr(sweep, "simulate_rows", counted)
    return calls


class TestEnumerateContexts:
    def test_cardinality_and_order_anchors(self):
        contexts = enumerate_contexts()
        assert len(contexts) == 81
        assert contexts[0].as_tuple() == (-1, -1, -1, -1)
        assert contexts[40].as_tuple() == (0, 0, 0, 0)
        assert contexts[80].as_tuple() == (1, 1, 1, 1)

    def test_each_value_appears_27_times_per_parameter(self):
        contexts = enumerate_contexts()
        for field in ("s1", "o1", "o2", "s2"):
            for value in (-1, 0, 1):
                assert sum(getattr(c, field) == value for c in contexts) == 27

    def test_sixteen_contexts_without_inhibition(self):
        assert sum(not c.has_inhibition for c in enumerate_contexts()) == 16

    def test_stable_across_calls(self):
        assert enumerate_contexts() == enumerate_contexts()


class TestDeriveRunSeed:
    def test_deterministic(self):
        assert derive_run_seed(42, 3, 9) == derive_run_seed(42, 3, 9)

    def test_frozen_anchors(self):
        # pinned values guard the derivation against accidental change
        assert derive_run_seed(42, 0, 0) == 7138415436909018950
        assert derive_run_seed(42, 80, 99) == 15683243284565682325
        assert derive_run_seed(0, 0, 0) == 2558736989570252433

    def test_run_separation(self):
        assert derive_run_seed(5, 0, 0) != derive_run_seed(5, 0, 1)
        assert derive_run_seed(5, 0, 0) != derive_run_seed(5, 1, 0)

    def test_no_collisions_over_full_grid(self):
        seeds = {
            derive_run_seed(42, ci, ri) for ci in range(81) for ri in range(100)
        }
        assert len(seeds) == 8100

    def test_64_bit_range(self):
        s = derive_run_seed(2**64 - 1, 80, 99)
        assert 0 <= s < 2**64

    # unchecked, -1 gave the chain of 2**64 - 1, 2**64 + 5 that of 5, 0.9
    # that of 0 and True that of 1
    @pytest.mark.parametrize("args, message", [
        ((-1, 0, 0), "master_seed -1 outside [0, 2**64)"),
        ((2**64 + 5, 0, 0), "master_seed 18446744073709551621 outside [0, 2**64)"),
        ((42, 0.9, 0), "context_index 0.9 is not an integer"),
        ((42, True, 0), "context_index True is not an integer"),
        ((42, 0, -1), "run_index -1 outside [0, 2**64)"),
        ((42, 0, 2**64), "run_index 18446744073709551616 outside [0, 2**64)"),
    ], ids=["master_seed=-1", "master_seed=2**64+5", "context_index=0.9",
            "context_index=True", "run_index=-1", "run_index=2**64"])
    def test_input_outside_the_seed_rule_is_named(self, args, message):
        with pytest.raises(ValueError) as caught:
            derive_run_seed(*args)
        assert str(caught.value) == message

    @pytest.mark.parametrize("master_seed", [-1, 0, 42, 2**64 + 5, 2**64 - 1])
    @pytest.mark.parametrize("runs", [1, 400])
    def test_array_chain_equals_scalar(self, master_seed, runs):
        if not 0 <= master_seed < 2**64:
            # the array chain is reached only through a SweepConfig; both
            # refuse a seed outside the rule, so neither gives an aliased chain
            with pytest.raises(ValueError, match=rf"^seed {master_seed} outside"):
                SweepConfig(master_seed=master_seed, runs_per_context=runs)
            with pytest.raises(ValueError, match=rf"^master_seed {master_seed} outside"):
                derive_run_seed(master_seed, 0, 0)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seeds = sweep._run_seeds(master_seed, range(81), runs)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [
            derive_run_seed(master_seed, ci, j) for ci in range(81) for j in range(runs)
        ]


class TestSweepConfig:
    @pytest.mark.parametrize("seed", [7.9, 42.0, "42", np.float64(42.0), True, False],
                             ids=["7.9", "42.0", "str", "np.float64", "True", "False"])
    def test_non_integer_master_seed_rejected(self, seed):
        message = f"^seed {re.escape(repr(seed))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            SweepConfig(master_seed=seed)

    @pytest.mark.parametrize("runs", [2.5, 2.0, "2", np.float64(2.0)],
                             ids=["2.5", "2.0", "str", "np.float64"])
    def test_non_integer_runs_rejected(self, runs):
        message = f"^runs_per_context must be an integer, got {re.escape(repr(runs))}$"
        with pytest.raises(ValueError, match=message):
            SweepConfig(master_seed=1, runs_per_context=runs)

    @pytest.mark.parametrize("params,found", [({"turns": 5}, "dict"), (None, "NoneType"),
                                              (ContextMatrix(1, 0, 0, 1), "ContextMatrix")],
                             ids=["dict", "None", "ContextMatrix"])
    def test_params_of_another_type_rejected(self, params, found):
        # accepted, run_sweep failed with AttributeError: 'dict' object has no
        # attribute 'coefficients'
        with pytest.raises(ValueError, match=f"^params must be a ModelParams, got {found}$"):
            SweepConfig(master_seed=1, params=params)

    def test_numpy_integer_fields_stored_as_int(self):
        config = SweepConfig(master_seed=np.uint64(1), runs_per_context=np.int64(2),
                             params=ModelParams(turns=np.int64(40)))
        reference = SweepConfig(master_seed=1, runs_per_context=2, params=ModelParams(turns=40))
        assert type(config.master_seed) is int and type(config.runs_per_context) is int
        table, reference_table = run_sweep(config), run_sweep(reference)
        assert_same_text(sweep_csv_text(table), sweep_csv_text(reference_table))
        # the report's provenance holds the config's integers
        assert_same_text(report_json_text(analyze(table)),
                         report_json_text(analyze(reference_table)))

    def test_real_float_fields_stored_as_float(self, tmp_path):
        params = ModelParams(alpha=0, influence=np.float32(0.5), noise_half_width=Fraction(1, 2),
                             turns=40)
        config = SweepConfig(master_seed=1, runs_per_context=2, params=params,
                             tail_threshold=np.float32(0.25))
        reference = SweepConfig(master_seed=1, runs_per_context=2,
                                params=ModelParams(alpha=0.0, turns=40))
        table, reference_table = run_sweep(config), run_sweep(reference)
        assert_same_text(sweep_csv_text(table), sweep_csv_text(reference_table))
        # numpy floats reach report.json as Python floats, and an int alpha is spelled 0.0
        write_report(analyze(table), tmp_path)
        expected = report_json_text(analyze(reference_table))
        assert_same_text((tmp_path / "report.json").read_text(), expected)
        assert '"alpha": 0.0,' in expected

    def test_numpy_integer_master_seed_accepted(self):
        config = SweepConfig(master_seed=np.uint64(3), runs_per_context=1,
                             params=ModelParams(turns=40))
        reference = replace(config, master_seed=3)
        assert_same_text(sweep_csv_text(run_sweep(config)), sweep_csv_text(run_sweep(reference)))


_TAIL_CASES = [
    (-0.9, "complementary"),
    (-0.25, "neutral"),  # strict inequality
    (0.0, "neutral"),
    (0.25, "neutral"),
    (0.26, "synchronous"),
    (float("nan"), "undefined"),
]


class TestClassifyTail:
    @pytest.mark.parametrize("r,expected", _TAIL_CASES)
    def test_thresholds(self, r, expected):
        assert classify_tail(r, 0.25) == expected

    @pytest.mark.parametrize("r,expected", _TAIL_CASES)
    def test_product_tail_codes(self, r, expected):
        assert TAIL_LABELS[sweep._tail_codes(np.array([r]), 0.25)[0]] == expected


class TestRunSweep:
    def test_single_run_per_context_cardinality(self):
        config = SweepConfig(master_seed=3, runs_per_context=1, params=ModelParams(turns=40))
        table = run_sweep(config)
        assert len(table) == 81
        assert table.context_index.tolist() == list(range(81))
        assert table.run_index.tolist() == [0] * 81

    def test_canonical_order_and_no_duplicates(self):
        table = run_sweep(SMALL)
        keys = list(zip(table.context_index.tolist(), table.run_index.tolist()))
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys) == 162

    # the diverging sweep's sampled rows 0 and 170 are nan, the others finite
    @pytest.mark.parametrize("config", [SMALL, DIVERGING], ids=["small", "diverging"])
    def test_records_match_scalar_recomputation(self, config):
        table = run_sweep(config)
        contexts = enumerate_contexts()
        csv_rows = sweep_csv_text(table).split("\n")[1:]
        for i in range(0, len(table), 17):
            ci, run_index = int(table.context_index[i]), int(table.run_index[i])
            run_seed, r = int(table.run_seed[i]), float(table.r[i])
            assert run_seed == derive_run_seed(config.master_seed, ci, run_index)
            assert r.hex() == _scalar_r(contexts[ci], config.params, run_seed).hex()
            assert csv_rows[i].split(",")[9] == classify_tail(r, config.tail_threshold)

    def test_schedule_independence(self):
        serial = run_sweep(SMALL, workers=1)
        threaded = run_sweep(SMALL, workers=4)
        assert_same_text(sweep_csv_text(threaded), sweep_csv_text(serial))

    def test_null_context_runs_are_uncorrelated(self, default_table):
        rows = default_table.r[default_table.context_index == 40]
        assert len(rows) == 100
        assert abs(np.mean(rows)) < 0.05

    def test_tails_partition_finite_records(self, default_table):
        counts = tail_counts(default_table)
        finite = int(default_table.finite.sum())
        tail_sum = sum(
            counts.counts[label] for label in ("complementary", "neutral", "synchronous")
        )
        assert tail_sum == finite
        assert counts.counts["undefined"] == len(default_table) - finite

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            run_sweep(SMALL, workers=0)


class TestDivergenceEdge:
    """At unit gain and 1,107 turns some series stay finite while their sums
    overflow; such a run has an r, and only diverged runs are undefined."""

    CONFIG = SweepConfig(42, 5, ModelParams(influence=1.0, turns=1107))

    def test_undefined_runs_are_the_diverged_runs(self):
        table = run_sweep(self.CONFIG)
        diverged = np.concatenate([
            ~finite for *_, finite in sweep.context_batches(self.CONFIG, enumerate_contexts())
        ])
        assert np.array_equal(~table.finite, diverged)
        assert np.count_nonzero(~table.finite) == 10


class TestRowBlocks:
    CONFIG = DIVERGING
    ROWS, CELLS_PER_ROW = 81 * 3, 1201

    def _run(self, monkeypatch, budget):
        calls = _kernel_calls(monkeypatch)
        monkeypatch.setattr(sweep, "_CELL_BUDGET", budget)
        monkeypatch.setattr(sweep, "_MIN_BLOCK_ROWS", 1)  # else every block takes 81 rows
        table = run_sweep(self.CONFIG)
        assert sum(calls) == self.ROWS
        assert len(calls) <= math.ceil(self.ROWS * self.CELLS_PER_ROW / budget)
        return table

    def test_output_does_not_depend_on_block_size(self, monkeypatch):
        reference = run_sweep(self.CONFIG)
        assert np.isnan(reference.r).any() and not np.isnan(reference.r).all()
        # one row per block; 2 rows, so blocks split contexts and span two;
        # the whole sweep in one block
        for budget in (1, 2 * self.CELLS_PER_ROW, self.ROWS * self.CELLS_PER_ROW):
            table = self._run(monkeypatch, budget)
            assert table.r.tobytes() == reference.r.tobytes()
            assert table.run_seed.tobytes() == reference.run_seed.tobytes()

    def test_wide_power_of_two_stride_blocks_match_scalar(self, monkeypatch):
        # 63 turns: 4,096-row blocks whose row stride is 64 doubles
        config = SweepConfig(master_seed=42, runs_per_context=400, params=ModelParams(turns=63))
        calls = _kernel_calls(monkeypatch)
        table = run_sweep(config)
        assert calls[0] == 4096 and sum(calls) == 81 * 400
        contexts = enumerate_contexts()
        for i in range(0, len(table), 400):
            for row in (i, i + 399):
                ci, seed = int(table.context_index[row]), int(table.run_seed[row])
                assert table.r[row].hex() == _scalar_r(contexts[ci], config.params, seed).hex()

    def test_long_runs_take_at_least_81_rows_per_block(self, monkeypatch):
        # 4,000 turns: 65 rows fit the cell budget, so the row floor sets the
        # blocks, and at 2 runs a context they split context 40
        config = SweepConfig(master_seed=9, runs_per_context=2, params=ModelParams(turns=4000))
        calls = _kernel_calls(monkeypatch)
        table = run_sweep(config)
        assert sweep._CELL_BUDGET // 4001 < 81
        assert calls == [81] * math.ceil(len(table) / 81)
        contexts = enumerate_contexts()
        for lo in range(0, len(table), 81):
            for row in (lo, lo + 80):
                ci, seed = int(table.context_index[row]), int(table.run_seed[row])
                assert table.r[row].hex() == _scalar_r(contexts[ci], config.params, seed).hex()


class TestContextGroups:
    """Figure batches are simulated as groups of whole contexts, one
    simulate_rows call per group, and equal the per-context kernel call."""

    CONFIG = DIVERGING
    CONTEXTS = [enumerate_contexts()[i] for i in (80, 40, 0, 80, 67)]  # 80 is (1, 1, 1, 1)

    def _batches(self, monkeypatch, budget):
        calls = _kernel_calls(monkeypatch)
        monkeypatch.setattr(sweep, "_CELL_BUDGET", budget)
        monkeypatch.setattr(sweep, "_MIN_BLOCK_ROWS", 1)  # else a group takes 81 rows
        return list(sweep.context_batches(self.CONFIG, self.CONTEXTS)), calls

    @staticmethod
    def _check_per_context(config, batches):
        """Each batch equals its context's own simulate_rows call."""
        runs, params = config.runs_per_context, config.params
        for context, seeds, B1, B2, finite in batches:
            index = enumerate_contexts().index(context)
            assert seeds == [derive_run_seed(config.master_seed, index, run) for run in range(runs)]
            want = simulate_rows([params.coefficients(context)] * runs, params, seeds)
            assert B1.tobytes() == want[0].tobytes() and B2.tobytes() == want[1].tobytes()
            assert B1.flags.c_contiguous and B2.flags.c_contiguous
            want_finite = (np.isfinite(want[0]) & np.isfinite(want[1])).all(1)
            assert finite.tobytes() == want_finite.tobytes()

    @pytest.mark.parametrize("per_group", [1, 2, 5])
    def test_batches_do_not_depend_on_the_group(self, monkeypatch, per_group):
        runs, params = self.CONFIG.runs_per_context, self.CONFIG.params
        budget = 2 * per_group * runs * (params.turns + 1)  # groups take half the budget
        batches, calls = self._batches(monkeypatch, budget)
        assert calls == [runs * min(per_group, 5 - g0) for g0 in range(0, 5, per_group)]
        assert [batch[0] for batch in batches] == self.CONTEXTS  # 80 twice, in order
        assert not batches[0][4].all() and batches[1][4].all()  # (1, 1, 1, 1) diverges
        self._check_per_context(self.CONFIG, batches)

    def test_long_runs_take_at_least_81_rows_per_group(self, monkeypatch):
        # 4,000 turns: half the cell budget holds 32 rows, so the row floor
        # sets the group, and six contexts of 10 runs take one call
        params = replace(self.CONFIG.params, turns=4000)
        config = replace(self.CONFIG, runs_per_context=10, params=params)
        contexts = [enumerate_contexts()[i] for i in (80, 40, 0, 67, 13, 26)]
        calls = _kernel_calls(monkeypatch)
        batches = list(sweep.context_batches(config, contexts))
        assert sweep._CELL_BUDGET // 2 // 4001 < 81
        assert calls == [60]
        assert [batch[0] for batch in batches] == contexts
        assert not batches[0][4].any() and batches[1][4].all()  # (1, 1, 1, 1) diverges
        self._check_per_context(config, batches)

    def test_a_context_over_the_budget_is_its_own_group(self, monkeypatch):
        batches, calls = self._batches(monkeypatch, 1)
        assert calls == [self.CONFIG.runs_per_context] * 5
        assert [batch[0] for batch in batches] == self.CONTEXTS

    def test_an_iterator_of_contexts_is_read_once(self, monkeypatch):
        runs, params = self.CONFIG.runs_per_context, self.CONFIG.params
        listed, calls = self._batches(monkeypatch, 2 * 2 * runs * (params.turns + 1))
        read = list(sweep.context_batches(self.CONFIG, iter(self.CONTEXTS)))
        assert calls == [2 * runs, 2 * runs, runs] * 2  # groups of two contexts, both times
        assert [batch[0] for batch in read] == self.CONTEXTS
        for (_, seeds, B1, B2, finite), want in zip(read, listed):
            assert seeds == want[1] and finite.tolist() == want[4].tolist()
            assert B1.tobytes() == want[2].tobytes() and B2.tobytes() == want[3].tobytes()


    def test_bad_context_is_named_before_any_group_is_simulated(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sweep, "simulate_rows", lambda *args: calls.append(args))
        with pytest.raises(ValueError) as caught:
            next(sweep.context_batches(self.CONFIG, [*self.CONTEXTS, (1, 0, 0, 1)]))
        assert str(caught.value) == "contexts[5] is (1, 0, 0, 1), not a ContextMatrix"
        assert calls == []


class TestTailCounts:
    def _table(self, r_values):
        """A one-run-per-context table: ``r_values``, then 0.0 up to 81 runs."""
        r = np.zeros(81)
        r[:len(r_values)] = r_values
        return SweepTable(SweepConfig(master_seed=1, runs_per_context=1), r)

    def test_all_zero_r_has_empty_tails(self):
        counts = tail_counts(self._table([0.0] * 81))
        assert counts.counts["complementary"] == 0
        assert counts.counts["synchronous"] == 0
        assert counts.counts["neutral"] == 81

    def test_undefined_counted_not_dropped(self):
        counts = tail_counts(self._table([0.5, float("nan"), -0.5]))
        assert counts.counts["undefined"] == 1
        assert counts.counts["synchronous"] == 1
        assert counts.counts["complementary"] == 1

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("shape", ["empty", "three", "short", "long", "2d"])
    def test_r_off_the_grid_rejected(self, runs, shape):
        config = SweepConfig(master_seed=1, runs_per_context=runs)
        r = {"empty": [], "three": [0.1, 0.2, 0.3], "short": np.zeros(81 * runs - 1),
             "long": np.zeros(81 * runs + 1), "2d": np.zeros((81, runs))}[shape]
        with pytest.raises(ValueError, match=rf"81 x {runs} = {81 * runs} values, found shape"):
            SweepTable(config, r)

    @pytest.mark.parametrize("config,found", [({"runs_per_context": 1}, "dict"),
                                              (None, "NoneType"), (ModelParams(), "ModelParams")],
                             ids=["dict", "None", "ModelParams"])
    def test_config_of_another_type_rejected(self, config, found):
        # accepted, a dict failed with AttributeError on runs_per_context
        with pytest.raises(ValueError, match=f"^config must be a SweepConfig, got {found}$"):
            SweepTable(config, np.zeros(81))

    @pytest.mark.parametrize("value", [1.5, np.inf, -np.inf, -1.0000000000000002])
    def test_r_outside_the_unit_interval_rejected(self, value):
        # accepted, r = 2.0 was written as a record the reader rejects, and an
        # infinite r counted as finite and synchronous
        config, r = SweepConfig(master_seed=1, runs_per_context=1), np.zeros(81)
        r[4] = math.copysign(1.0, value)
        SweepTable(config, r)
        r[4] = value
        with pytest.raises(ValueError) as caught:
            SweepTable(config, r)
        assert str(caught.value) == f"r[4] = {value!r} outside [-1, 1]"

    def test_replaced_r_keeps_the_grid(self):
        table = SweepTable(SweepConfig(master_seed=2, runs_per_context=2), np.zeros(162))
        replaced = replace(table, r=np.full(162, 0.5))
        assert replaced.r.tolist() == [0.5] * 162
        for column in ("context_index", "run_index", "run_seed"):
            assert getattr(replaced, column).tobytes() == getattr(table, column).tobytes()
        assert tail_counts(replaced).counts["synchronous"] == 162


class TestSweepCsv:
    def test_round_trip(self, tmp_path):
        table = run_sweep(SMALL)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(table, path)
        loaded = read_sweep_csv(path, SMALL)
        for column in ("context_index", "run_index", "run_seed", "r"):
            assert getattr(loaded, column).tobytes() == getattr(table, column).tobytes()

    def test_header_format(self):
        text = sweep_csv_text(run_sweep(SMALL))
        assert text.startswith("context_index,s1,o1,o2,s2,run_index,run_seed,r,finite,tail\n")

    def test_truncated_file_rejected(self, tmp_path):
        table = run_sweep(SMALL)
        path = tmp_path / "sweep.csv"
        text = sweep_csv_text(table)
        path.write_text("\n".join(text.split("\n")[:100]) + "\n")
        with pytest.raises(InvalidSweepError, match="expected 162 records"):
            read_sweep_csv(path, SMALL)

    def test_wrong_master_seed_rejected(self, tmp_path):
        table = run_sweep(SMALL)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(table, path)
        other = SweepConfig(
            master_seed=8, runs_per_context=2, params=ModelParams(turns=60)
        )
        with pytest.raises(InvalidSweepError, match="run_seed"):
            read_sweep_csv(path, other)

    def test_first_wrong_run_seed_names_its_row(self, tmp_path):
        lines = sweep_csv_text(run_sweep(SMALL)).split("\n")
        for row in (101, 7):
            parts = lines[row + 1].split(",")
            parts[6] = str(int(parts[6]) ^ 1)
            lines[row + 1] = ",".join(parts)
        path = tmp_path / "sweep.csv"
        path.write_text("\n".join(lines))
        with pytest.raises(InvalidSweepError, match="^sweep CSV row 7: run_seed does not match"):
            read_sweep_csv(path, SMALL)

    def test_corrupted_tail_rejected(self, tmp_path):
        table = run_sweep(SMALL)
        path = tmp_path / "sweep.csv"
        lines = sweep_csv_text(table).split("\n")
        parts = lines[1].split(",")
        parts[9] = "synchronous" if parts[9] != "synchronous" else "neutral"
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines))
        with pytest.raises(InvalidSweepError, match="tail"):
            read_sweep_csv(path, SMALL)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("nonsense\n")
        with pytest.raises(InvalidSweepError, match="header"):
            read_sweep_csv(path, SMALL)

    @pytest.mark.parametrize("bad_r", ["2.0", "-1.5", "inf"])
    def test_impossible_correlation_rejected(self, tmp_path, bad_r):
        # finite flag and tail label agree with the bad r, so only the range fails
        lines = sweep_csv_text(run_sweep(SMALL)).split("\n")
        parts = lines[3].split(",")
        parts[7:10] = [bad_r, "true", classify_tail(float(bad_r), SMALL.tail_threshold)]
        lines[3] = ",".join(parts)
        path = tmp_path / "sweep.csv"
        path.write_text("\n".join(lines))
        with pytest.raises(InvalidSweepError, match=rf"row 2: r={bad_r} outside \[-1, 1\]"):
            read_sweep_csv(path, SMALL)

    # row 5 of SMALL is context 2, (-1, -1, -1, 1), run 1, with a finite r
    @pytest.mark.parametrize(
        "edits, message",
        [
            ({10: "x"}, "expected 10 fields, found 11"),
            ({5: "a"}, "run_index does not match: found 'a', sweep writes '1'"),
            ({7: "abc"}, "r 'abc' is not a number"),
            ({5: "0", 7: "abc"}, "r 'abc' is not a number"),
            ({5: "0"}, "run_index does not match: found '0', sweep writes '1'"),
            ({0: "3"}, "context_index does not match: found '3', sweep writes '2'"),
            ({1: "0"}, "s1 does not match: found '0', sweep writes '-1'"),
            ({8: "yes"}, "finite does not match: found 'yes', sweep writes 'true'"),
            ({7: "0.5", 8: "false", 9: "synchronous"},
             "finite does not match: found 'false', sweep writes 'true'"),
            ({7: "nan", 9: "undefined"}, "finite does not match: found 'true', sweep writes 'false'"),
        ],
        ids=lambda value: value.split(":")[0] if isinstance(value, str) else None,
    )
    def test_first_violation_message(self, tmp_path, edits, message):
        lines = sweep_csv_text(run_sweep(SMALL)).split("\n")
        parts = lines[6].split(",")
        for field, value in edits.items():
            if field < len(parts):
                parts[field] = value
            else:
                parts.append(value)
        lines[6] = ",".join(parts)
        path = tmp_path / "sweep.csv"
        path.write_text("\n".join(lines))
        with pytest.raises(InvalidSweepError) as caught:
            read_sweep_csv(path, SMALL)
        assert str(caught.value) == "sweep CSV row 5: " + message

    # integer spellings that int() reads as the canonical value; sweep never writes them
    @pytest.mark.parametrize("row, field, value, message", [
        (108, 1, "+1", "s1 does not match: found '+1', sweep writes '1'"),
        (1, 5, "01", "run_index does not match: found '01', sweep writes '1'"),
        (3, 0, "+01", "context_index does not match: found '+01', sweep writes '1'"),
        (3, 0, " 1", "context_index does not match: found ' 1', sweep writes '1'"),
        (2, 6, "0" + str(derive_run_seed(7, 1, 0)),
         f"run_seed does not match: found '0{derive_run_seed(7, 1, 0)}', "
         f"sweep writes '{derive_run_seed(7, 1, 0)}'"),
        (3, 5, "\u0661", "run_index '\u0661' holds '\u0661', which sweep never writes"),
        (4, 5, "0\r", "run_index '0\\r' holds '\\r', which sweep never writes"),
    ], ids=["s1+1", "run01", "ci+01", "ci-space", "seed0", "run-arabic-one", "run-cr"])
    def test_non_canonical_spellings_rejected(self, tmp_path, row, field, value, message):
        lines = sweep_csv_text(run_sweep(SMALL)).split("\n")
        parts = lines[row + 1].split(",")
        assert int(parts[field]) == int(value)
        parts[field] = value
        lines[row + 1] = ",".join(parts)
        path = tmp_path / "sweep.csv"
        path.write_text("\n".join(lines))
        with pytest.raises(InvalidSweepError) as caught:
            read_sweep_csv(path, SMALL)
        assert str(caught.value) == f"sweep CSV row {row}: {message}"

    def test_canonical_file_skips_the_row_loop(self, tmp_path, monkeypatch):
        table = run_sweep(DIVERGING)  # nan rows as well as finite ones
        path = tmp_path / "sweep.csv"
        write_sweep_csv(table, path)

        def row_loop(*args):
            raise AssertionError("a canonical file entered the per-row failure loop")

        monkeypatch.setattr(sweep, "_fail_unreadable", row_loop)
        loaded = read_sweep_csv(path, DIVERGING)
        for column in CSV_COLUMNS:
            assert getattr(loaded, column).tobytes() == getattr(table, column).tobytes()
        assert loaded.r.flags.c_contiguous


@st.composite
def sweep_tables(draw):
    """Tables on the canonical grid whose r column mixes random values with
    nan, exactly +-threshold, +-1 and -0.0."""
    runs = draw(st.integers(min_value=1, max_value=3))
    threshold = draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    config = SweepConfig(
        master_seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
        runs_per_context=runs,
        tail_threshold=threshold,
    )
    special = st.sampled_from([math.nan, threshold, -threshold, 1.0, -1.0, -0.0])
    r = draw(
        st.lists(
            st.one_of(special, st.floats(min_value=-1.0, max_value=1.0)),
            min_size=81 * runs,
            max_size=81 * runs,
        )
    )
    return SweepTable(config, r)


class TestSweepProperties:
    @settings(deadline=None, max_examples=60)
    @given(sweep_tables())
    def test_csv_round_trip_is_bitwise(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sweep.csv"
            write_sweep_csv(table, path)
            loaded = read_sweep_csv(path, table.config)
            written = path.read_text()
        for column in ("context_index", "run_index", "run_seed", "r"):
            assert getattr(loaded, column).tobytes() == getattr(table, column).tobytes()
        assert_same_text(sweep_csv_text(loaded), written)

    @settings(deadline=None, max_examples=60)
    @given(sweep_tables())
    def test_tail_counts_match_per_row_classification(self, table):
        contexts = enumerate_contexts()
        counts, with_negative = Counter(), Counter()
        for ci, r in zip(table.context_index.tolist(), table.r.tolist()):
            tail = classify_tail(r, table.config.tail_threshold)
            counts[tail] += 1
            if contexts[ci].has_inhibition:
                with_negative[tail] += 1
        result = tail_counts(table)
        assert result.counts == {label: counts[label] for label in TAIL_LABELS}
        assert result.with_negative == {label: with_negative[label] for label in TAIL_LABELS}


def _read_sweep_csv_reference(path, config):
    """Reference sweep CSV reader: one loop over the rows, with the canonical
    first-seven-fields shortcut; frozen to check read_sweep_csv against."""
    with open(path, "r", newline="") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != sweep.SWEEP_CSV_HEADER:
        raise InvalidSweepError("bad or missing sweep CSV header")
    runs = config.runs_per_context
    if len(lines) - 1 != 81 * runs:
        raise InvalidSweepError(
            f"expected {81 * runs} records (81 x {runs}), found {len(lines) - 1}"
        )
    contexts = enumerate_contexts()
    expected_seeds = [
        derive_run_seed(config.master_seed, ci, j) for ci in range(81) for j in range(runs)
    ]

    def fail(row, message):
        raise InvalidSweepError(f"sweep CSV row {row}: {message}")

    rs = []
    for row, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != 10:
            fail(row, f"expected 10 fields, found {len(parts)}")
        expected_ci, expected_run = divmod(row, runs)
        ctx = contexts[expected_ci]
        canonical = line.startswith(
            f"{expected_ci},{ctx.s1},{ctx.o1},{ctx.o2},{ctx.s2},"
            f"{expected_run},{expected_seeds[row]},"
        )
        try:
            if not canonical:
                ci = int(parts[0])
                entries = tuple(int(p) for p in parts[1:5])
                run_index = int(parts[5])
                run_seed = int(parts[6])
            r = float(parts[7])
        except ValueError:
            fail(row, f"unparseable field in {line!r}")
        if not canonical:
            if ci != expected_ci or run_index != expected_run:
                fail(row, f"canonical order violated: ({ci}, {run_index})")
            if entries != contexts[ci].as_tuple():
                fail(row, f"context {entries} does not match enumeration index {ci}")
            if run_seed != expected_seeds[row]:
                fail(row, "run_seed does not match the master seed derivation")
        finite_str, tail = parts[8], parts[9]
        if finite_str not in ("true", "false"):
            fail(row, f"bad finite flag {finite_str!r}")
        if (finite_str == "true") == math.isnan(r):
            fail(row, "finite flag inconsistent with r")
        if abs(r) > 1.0:
            fail(row, f"r={r!r} outside [-1, 1]")
        if tail != classify_tail(r, config.tail_threshold):
            fail(row, f"tail label {tail!r} inconsistent with r={r!r}")
        rs.append(r)
    return SweepTable(config, rs)


# respellings of an integer field and of r; some keep the value, some do not
_INT_SPELLINGS = (
    lambda v: "+" + v, lambda v: "0" + v, lambda v: v + ".0", lambda v: v[:-1] + "_" + v[-1:],
)
_R_SPELLINGS = (
    lambda v: "nan(1)", lambda v: "infinity", lambda v: " " + v, lambda v: v + "0",
    lambda v: "-0.0", lambda v: "0.2_5", lambda v: " 0.5",
)


@st.composite
def corrupted_csvs(draw):
    """(config, text): a canonical sweep CSV with one to three edits, each a
    CR or empty line, padding, a respelled field, an r outside [-1, 1], a
    wrong label, an extra or missing field, or two swapped rows."""
    table = draw(sweep_tables())
    threshold = table.config.tail_threshold
    lines = sweep_csv_text(table).split("\n")[:-1]
    newline = "\n"
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        kind = draw(st.sampled_from(
            ["cr", "crlf", "empty", "pad", "int", "r", "range", "label", "extra", "missing",
             "swap"]
        ))
        row = draw(st.integers(min_value=1, max_value=len(lines) - 1))
        parts = lines[row].split(",")
        if kind == "cr":
            lines[draw(st.integers(min_value=0, max_value=len(lines) - 1))] += "\r"
        elif kind == "crlf":
            newline = "\r\n"
        elif kind == "empty":
            lines.insert(row, "")
        elif kind == "swap":
            other = draw(st.integers(min_value=1, max_value=len(lines) - 1))
            lines[row], lines[other] = lines[other], lines[row]
        else:
            if kind == "pad":
                field = draw(st.integers(min_value=0, max_value=len(parts) - 1))
                pad = draw(st.sampled_from(
                    [" ", "\t", "\x0c", "\x1c", "\x1f", "\x00", "\xa0", "\u2028"]
                ))
                parts[field] = draw(st.sampled_from([pad + parts[field], parts[field] + pad]))
            elif kind == "int" and len(parts) > 6:
                field = draw(st.integers(min_value=0, max_value=6))
                parts[field] = draw(st.sampled_from(_INT_SPELLINGS))(parts[field])
            elif kind == "r" and len(parts) > 7:
                parts[7] = draw(st.sampled_from(_R_SPELLINGS))(parts[7])
            elif kind == "range" and len(parts) > 9:
                bad = draw(st.sampled_from(["1.5", "-2.0", "inf", "-inf", "1e400",
                                            "1.0000000000000002"]))
                parts[7] = bad
                if draw(st.booleans()):  # labels that agree with the bad r
                    parts[8:10] = ["true", classify_tail(float(bad), threshold)]
            elif kind == "label" and len(parts) > 9:
                field = draw(st.sampled_from([8, 9]))
                parts[field] = draw(st.sampled_from(["true", "false", *TAIL_LABELS]))
            elif kind == "extra":
                parts.append(draw(st.sampled_from(["", "x", "0"])))
            elif kind == "missing":
                del parts[draw(st.integers(min_value=0, max_value=len(parts) - 1))]
            lines[row] = ",".join(parts)
    return table.config, newline.join(lines) + newline


def _read_outcome(reader, path, config):
    """The table's columns as (dtype, bytes) pairs, or the error text."""
    try:
        table = reader(path, config)
    except InvalidSweepError as exc:
        return "error", str(exc)
    return "table", [(getattr(table, c).dtype.str, getattr(table, c).tobytes())
                     for c in CSV_COLUMNS]


_COUNT_MESSAGE = re.compile(r"expected \d+ records \(81 x \d+\), found \d+")


def _without_r(text: str) -> list[list[str]]:
    """Every field of every line but the eighth, ``r``."""
    return [fields[:7] + fields[8:]
            for fields in (line.split(",") for line in text.removesuffix("\n").split("\n"))]


def _check_against_reference(path, config):
    """Hold the reader to the frozen reference, which also accepts spellings
    sweep never writes: a file the reader accepts is accepted there with the
    same columns, a file the reference rejects is rejected, a file only the
    reader rejects has a non-r field spelled otherwise than sweep writes it
    or holds a character sweep never writes, and every message is the
    header or count message or names its row."""
    got = _read_outcome(read_sweep_csv, path, config)
    expected = _read_outcome(_read_sweep_csv_reference, path, config)
    if got[0] == "table":
        assert got == expected
        return
    message = got[1]
    assert (message == "bad or missing sweep CSV header" or _COUNT_MESSAGE.fullmatch(message)
            or re.match(r"sweep CSV row \d+: ", message)), message
    if expected[0] == "table":
        text = path.read_bytes().decode()
        canonical = sweep_csv_text(_read_sweep_csv_reference(path, config))
        stray = not text.isascii() or any(c in text for c in sweep._STRAY)
        assert stray or _without_r(text) != _without_r(canonical), message


class TestReaderMatchesReference:
    # edits that a field check one character short, or a check that lets
    # through what float() strips or reads in a non-canonical field, would accept;
    # each is made on the first row whose fields pass ``where``, and both
    # readers reject it, read_sweep_csv naming that row and field
    @pytest.mark.parametrize("field, edit, where", [
        (7, lambda v: v + "\x1c", lambda f: f[8] == "true"),
        (7, lambda v: "\x1f" + v, lambda f: f[8] == "true"),
        (9, lambda v: v + "\x00", lambda f: True),
        (9, lambda v: v + " ", lambda f: f[9] == "complementary"),
        (8, lambda v: v + "e", lambda f: f[8] == "false"),
        (6, lambda v: v + ".0", lambda f: len(f[6]) == 20),
        (6, lambda v: v + "0", lambda f: len(f[6]) == 20),
        (5, lambda v: v + "0", lambda f: f[5] == "1"),
        (1, lambda v: v + "0", lambda f: f[1] == "-1"),
        (0, lambda v: v + "0", lambda f: f[0] == "1"),
        (9, lambda v: v + "\r", lambda f: True),
    ], ids=["r+x1c", "x1f+r", "tail+nul", "tail+space", "finite+e", "seed+.0", "seed+0",
            "run+0", "s1+0", "ci+0", "tail+cr"])
    def test_same_outcome_at_each_check_boundary(self, tmp_path, field, edit, where):
        lines = sweep_csv_text(run_sweep(DIVERGING)).split("\n")
        row = next(i for i, line in enumerate(lines[1:], 1) if where(line.split(",")))
        parts = lines[row].split(",")
        parts[field] = edit(parts[field])
        lines[row] = ",".join(parts)
        path = tmp_path / "sweep.csv"
        path.write_bytes("\n".join(lines).encode())
        assert _read_outcome(_read_sweep_csv_reference, path, DIVERGING)[0] == "error"
        name = sweep.SWEEP_CSV_HEADER.split(",")[field]
        with pytest.raises(InvalidSweepError, match=rf"^sweep CSV row {row - 1}: {name} "):
            read_sweep_csv(path, DIVERGING)

    # r spellings float() reads that sweep never writes: both readers accept
    # them, with labels that agree, as the same table
    @pytest.mark.parametrize("spelling, value", [("0.2_5", 0.25), (" 0.5", 0.5)],
                             ids=["underscore", "leading-space"])
    def test_same_table_for_a_float_spelling(self, tmp_path, spelling, value):
        lines = sweep_csv_text(run_sweep(SMALL)).split("\n")
        parts = lines[3].split(",")
        parts[7:10] = [spelling, "true", classify_tail(value, SMALL.tail_threshold)]
        lines[3] = ",".join(parts)
        path = tmp_path / "sweep.csv"
        path.write_text("\n".join(lines))
        _check_against_reference(path, SMALL)
        assert read_sweep_csv(path, SMALL).r[2] == value

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(corrupted_csvs())
    def test_same_table_or_same_error(self, case):
        config, text = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sweep.csv"
            path.write_bytes(text.encode())
            _check_against_reference(path, config)
