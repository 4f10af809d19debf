"""Ingestion, scaling, windowing, and synthetic-generator contracts."""

import csv
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tglrn import data as dmod
from tglrn.config import load_config
from tglrn.errors import ConfigError, DataError


def oracle_load_flows(path, num_nodes, impute=True):
    """The csv-module parser: one ``float()`` per cell."""
    rows = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        width = None
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or not any(cell.strip() for cell in row):
                continue
            if lineno == 1 and not dmod._is_number(row[0].strip()):
                width = len(row)
                continue
            if width is None:
                width = len(row)
            if len(row) != width:
                raise DataError(f"load_flows: line {lineno}: ragged row ({len(row)} vs {width} columns)")
            try:
                vals = [float(c) if c.strip() else np.nan for c in row]
            except ValueError:
                raise DataError(f"load_flows: line {lineno}: non-numeric cell") from None
            rows.append(vals)
    if not rows:
        raise DataError(f"load_flows: {path} holds no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    if arr.shape[1] == num_nodes + 1:
        arr = arr[:, 1:]
    if arr.shape[1] != num_nodes:
        raise DataError(
            f"load_flows: expected {num_nodes} sensor columns (+1 optional index), got {arr.shape[1]}"
        )
    values = arr[:, :, None]
    if impute:
        values = oracle_interpolate_missing(values)
    return dmod.FlowSeries(values=values)


def oracle_interpolate_missing(values):
    """The per-sensor loop: one ``np.interp`` call over each sensor's strided column."""
    t_total, n, _ = values.shape
    idx = np.arange(t_total)
    for s in range(n):
        col = values[:, s, 0]
        bad = ~np.isfinite(col) | (col == 0.0)
        if not bad.any():
            continue
        good = ~bad
        if good.sum() == 0:
            warnings.warn(f"sensor {s}: no valid samples, filled with zeros")
            col[:] = 0.0
            continue
        col[bad] = np.interp(idx[bad], idx[good], col[good])
    return values


def oracle_make_windows(series, t_in, t_out, ratios=(0.6, 0.2, 0.2)):
    """Per-start split loop and ``np.stack`` copies."""
    values = series.values
    t_total = values.shape[0]
    if t_total < t_in + t_out:
        raise DataError("too short")
    b1, b2 = dmod.split_boundaries(t_total, ratios)
    buckets = {"train": [], "val": [], "test": []}
    for s in range(t_total - (t_in + t_out) + 1):
        end = s + t_in + t_out - 1
        buckets["train" if end < b1 else ("val" if end < b2 else "test")].append(s)
    out = []
    for split in ("train", "val", "test"):
        starts = np.asarray(buckets[split], dtype=np.int64)
        if starts.size:
            inputs = np.stack([values[s : s + t_in] for s in starts])
            targets = np.stack([values[s + t_in : s + t_in + t_out] for s in starts])
        else:
            inputs = np.zeros((0, t_in) + values.shape[1:])
            targets = np.zeros((0, t_out) + values.shape[1:])
        out.append(dmod.WindowedDataset(inputs, targets, starts + t_in - 1, split))
    return tuple(out)


def assert_bitwise(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, width=64).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-Infinity", "-0", "+1.5", ".5", "5.", "1e3", "1E-3", "0"]),
)
BAD_CELLS = ["x", '"1,5"', "1.2.3", "#3", "1e", '"1""5"', "0x10", "nan nan"]
SPARE_LINES = ["", ",", " , ", ",,,", '""', '"",""', "\t"]


@st.composite
def flow_cell(draw):
    number = draw(NUMBER_TEXT)
    pad = draw(st.sampled_from([" ", "\t", "  "]))
    kind = draw(st.sampled_from(["plain"] * 4 + ["empty", "blank", "padded", "quoted", "quoted_empty"]))
    return {
        "plain": number,
        "empty": "",
        "blank": pad,
        "padded": pad + number + pad[::-1],
        "quoted": f'"{number}"',
        "quoted_empty": '""',
    }[kind]


@st.composite
def flow_files(draw):
    """(CSV text, num_nodes): header or none, index column or none, blank and
    all-empty lines, empty/padded/quoted cells, LF or CRLF, maybe one bad row."""
    n = draw(st.integers(1, 4))
    index = draw(st.booleans())
    lines = []
    if draw(st.booleans()):
        names = (["t"] if index else []) + [f"s{i}" for i in range(n)]
        quote = draw(st.booleans())
        lines.append(",".join(f'"{c}"' if quote else c for c in names))
    for t in range(draw(st.integers(0, 6))):
        cells = ([str(t)] if index else []) + draw(st.lists(flow_cell(), min_size=n, max_size=n))
        lines.append(cells)
    data_rows = [k for k, line in enumerate(lines) if isinstance(line, list)]
    fault = draw(st.sampled_from(["none", "none", "ragged_short", "ragged_long", "bad_cell"]))
    if fault != "none" and data_rows:
        row = lines[draw(st.sampled_from(data_rows))]
        col = draw(st.integers(0, len(row) - 1))
        if fault == "ragged_short":
            del row[col]
        elif fault == "ragged_long":
            row.insert(col, draw(flow_cell()))
        else:
            row[col] = draw(st.sampled_from(BAD_CELLS))
    lines = [line if isinstance(line, str) else ",".join(line) for line in lines]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(SPARE_LINES)))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join(lines) + (eol if draw(st.booleans()) else "")
    text = ("\ufeff" if draw(st.booleans()) else "") + text  # a UTF-8 byte-order mark, or none
    return text, max(1, n + draw(st.sampled_from([0, 0, 0, 1, -1])))


def load_outcome(loader, path, num_nodes, impute):
    """The loaded values, or the DataError message."""
    try:
        return loader(path, num_nodes, impute=impute).values
    except DataError as e:
        return str(e)


def write_flow_csv(path, values, header=True, index_col=True):
    t_total, n = values.shape
    lines = []
    if header:
        lines.append("t," + ",".join(f"s{i}" for i in range(n)) if index_col else ",".join(f"s{i}" for i in range(n)))
    for t in range(t_total):
        row = ",".join(repr(float(v)) for v in values[t])
        lines.append(f"{t},{row}" if index_col else row)
    path.write_text("\n".join(lines) + "\n")


class TestLoadFlows:
    def test_small_shape(self, tmp_path):
        path = tmp_path / "flow.csv"
        write_flow_csv(path, np.arange(6.0).reshape(3, 2) + 1.0)
        series = dmod.load_flows(path, 2)
        assert series.values.shape == (3, 2, 1)

    def test_headerless_no_index(self, tmp_path):
        path = tmp_path / "flow.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        series = dmod.load_flows(path, 2)
        np.testing.assert_array_equal(series.values[:, :, 0], [[1, 2], [3, 4]])

    @pytest.mark.parametrize("t_total,n", [(17856, 170), (16992, 307)])
    def test_benchmark_scale_shapes(self, tmp_path, t_total, n):
        # PeMS08-sized (170 x 17856) and PeMS04-sized (307 x 16992) matrices
        rng = np.random.default_rng(0)
        values = rng.uniform(1.0, 100.0, size=(t_total, n))
        path = tmp_path / "flow.csv"
        write_flow_csv(path, values)
        series = dmod.load_flows(path, n)
        assert series.values.shape == (t_total, n, 1)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "flow.csv"
        path.write_text("t,s0,s1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(DataError, match="line 3"):
            dmod.load_flows(path, 2)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "flow.csv"
        path.write_text("t,s0,s1\n0,1.0,oops\n")
        with pytest.raises(DataError, match="line 2"):
            dmod.load_flows(path, 2)

    def test_bom_headerless_file_keeps_its_first_step(self, tmp_path):
        path = tmp_path / "flow.csv"
        path.write_text("\ufeff0.5,1.0\n2.0,3.0\n", encoding="utf-8")
        series = dmod.load_flows(path, 2)
        np.testing.assert_array_equal(series.values[:, :, 0], [[0.5, 1.0], [2.0, 3.0]])

    def test_zero_sentinels_interpolated(self, tmp_path):
        path = tmp_path / "flow.csv"
        path.write_text("t,s0\n0,2.0\n1,0\n2,4.0\n")
        series = dmod.load_flows(path, 1)
        np.testing.assert_allclose(series.values[:, 0, 0], [2.0, 3.0, 4.0])

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "flow.csv"
        path.write_text("1.0,2.0,3.0,9.0\n")
        with pytest.raises(DataError, match="columns"):
            dmod.load_flows(path, 2)

    @settings(max_examples=200)
    @given(flow_files(), st.booleans())
    def test_matches_csv_oracle(self, tmp_path_factory, case, impute):
        text, num_nodes = case
        path = tmp_path_factory.mktemp("flows") / "flow.csv"
        path.write_bytes(text.encode())
        got, want = load_outcome(dmod.load_flows, path, num_nodes, impute), load_outcome(
            oracle_load_flows, path, num_nodes, impute
        )
        if isinstance(want, str):
            assert got == want
        else:
            assert_bitwise(got, want)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("t,a,b\r\n0,1,2\r\n\r\n1,3\r\n", "line 4: ragged row (2 vs 3 columns)"),
            ("t,a,b\n0,1\n", "line 2: ragged row (2 vs 3 columns)"),
            ("0,1,2\n1,x,2\n2,3\n", "line 2: non-numeric cell"),
            ("0,1,2\n1,3\n2,x,2\n", "line 2: ragged row (2 vs 3 columns)"),
            ('0,1,2\n,,\n\n1,"1,5",2\n', "line 4: non-numeric cell"),
            ("0,1,2\n1,1_0,2\n", "line 2: non-numeric cell"),
        ],
    )
    def test_errors_name_the_file_line(self, tmp_path, text, message):
        path = tmp_path / "flow.csv"
        path.write_bytes(text.encode())
        with pytest.raises(DataError) as err:
            dmod.load_flows(path, 2)
        assert str(err.value) == f"load_flows: {message}"

    def test_undecodable_file_is_data_error(self, tmp_path):
        path = tmp_path / "flow.csv"
        path.write_bytes(b"t,s0\n0,\xff\xfe\n")
        with pytest.raises(DataError):  # "cannot open" under UTF-8, a non-numeric cell under Latin-1
            dmod.load_flows(path, 1)

    def test_quoted_blank_and_padded_cells(self, tmp_path):
        path = tmp_path / "flow.csv"
        path.write_bytes(b'"t","s0","s1"\r\n\r\n,\r\n0, 1.5 ,""\r\n1,"2",\t\r\n2, ,4\r\n3,5,')
        series = dmod.load_flows(path, 2, impute=False)
        np.testing.assert_array_equal(
            series.values[:, :, 0], [[1.5, np.nan], [2.0, np.nan], [np.nan, 4.0], [5.0, np.nan]]
        )


SENTINELS = [np.nan, np.inf, -np.inf, 0.0, -0.0]


@st.composite
def gappy_series(draw):
    """(T, N, 1) flows with sentinel cells, leading and trailing gaps, dead sensors and huge values."""
    t_total, n = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    scale = draw(st.sampled_from([1.0, 1e5, 1e100, 1e300, 1e307]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((t_total, n, 1)) * scale
    missing = rng.uniform(size=values.shape) < draw(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]))
    values[missing] = rng.choice(SENTINELS, size=missing.sum())
    return values


class TestInterpolateMissing:
    @settings(max_examples=300, deadline=None)
    @given(gappy_series())
    def test_matches_per_sensor_interp_oracle(self, values):
        results = []
        for fill in (dmod._interpolate_missing, oracle_interpolate_missing):
            arr = values.copy()
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                out = fill(arr)
            assert out is arr
            results.append((arr, [(w.category, str(w.message)) for w in seen]))
        (got, got_warned), (want, want_warned) = results
        assert_bitwise(got, want)
        assert got_warned == want_warned  # one per dead sensor, in sensor order, and nothing else

    def test_gaps_at_both_ends_and_between(self):
        values = np.array([np.nan, 2.0, 0.0, 0.0, 8.0, np.inf])[:, None, None]
        np.testing.assert_array_equal(dmod._interpolate_missing(values)[:, 0, 0], [2, 2, 4, 6, 8, 8])


class TestScaler:
    def test_constant_series_maps_to_zero(self):
        values = np.full((10, 3, 1), 5.0)
        scaler = dmod.fit_scaler(values)
        np.testing.assert_array_equal(scaler.apply(values), np.zeros_like(values))

    def test_closed_form_population_std(self):
        values = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1)
        scaler = dmod.fit_scaler(values)
        assert scaler.mean[0, 0] == 2.0
        np.testing.assert_allclose(scaler.std[0, 0], np.sqrt(2.0 / 3.0), rtol=1e-15)
        expected = np.array([-1.224744871391589, 0.0, 1.224744871391589])
        np.testing.assert_allclose(scaler.apply(values)[:, 0, 0], expected, atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(0.0, 300.0, size=(50, 4, 1))
        scaler = dmod.fit_scaler(values)
        np.testing.assert_allclose(scaler.invert(scaler.apply(values)), values, atol=1e-12)

    @given(st.integers(0, 100))
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(100.0, 30.0, size=(20, 3, 1))
        scaler = dmod.fit_scaler(values)
        np.testing.assert_allclose(scaler.invert(scaler.apply(values)), values, atol=1e-10)

    def test_train_apply_is_standard(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(10.0, 50.0, size=(200, 3, 1))
        z = dmod.fit_scaler(values).apply(values)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_zero_variance_floored_with_warning(self):
        values = np.concatenate(
            [np.full((10, 1, 1), 7.0), np.arange(10.0).reshape(10, 1, 1)], axis=1
        )
        with pytest.warns(UserWarning, match="zero-variance"):
            scaler = dmod.fit_scaler(values)
        assert scaler.std[0, 0] == dmod.STD_FLOOR

    def test_unknown_scope_is_the_config_error(self):
        values = np.random.default_rng(4).uniform(0, 10, size=(30, 4, 1))
        with pytest.raises(ConfigError) as from_config:
            load_config(overrides=["scaler_scope=median"])
        with pytest.raises(ConfigError) as from_library:
            dmod.fit_scaler(values, scope="median")
        assert str(from_library.value) == str(from_config.value)
        assert "per_sensor or global" in str(from_config.value)

    def test_global_scope(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 10, size=(30, 4, 1))
        scaler = dmod.fit_scaler(values, scope="global")
        assert scaler.mean.shape == (1, 1)
        np.testing.assert_allclose(scaler.apply(values).mean(), 0.0, atol=1e-12)


class TestWindows:
    def _series(self, t_total, n=2):
        return dmod.FlowSeries(values=np.arange(float(t_total * n)).reshape(t_total, n, 1))

    def test_window_count_formula_small(self):
        splits = dmod.make_windows(self._series(30), 12, 12)
        assert sum(len(s) for s in splits) == 30 - 24 + 1 == 7

    def test_window_count_formula_pems08_scale(self):
        splits = dmod.make_windows(self._series(17856, n=1), 12, 12)
        assert sum(len(s) for s in splits) == 17856 - 23

    def test_bad_ratios(self):
        with pytest.raises(ConfigError, match="train_frac"):
            dmod.make_windows(self._series(100), 12, 12, ratios=(0.5, 0.2, 0.2))

    def test_too_short(self):
        with pytest.raises(DataError):
            dmod.make_windows(self._series(20), 12, 12)

    @pytest.mark.parametrize(
        "t_in, t_out, key", [(-1, 3, "t_in"), (0, 2, "t_in"), (3, 0, "t_out"), (3, -2, "t_out")]
    )
    def test_lengths_below_one_rejected(self, t_in, t_out, key):
        # (-1, 3) would otherwise give 1-step inputs that overlap their own targets.
        with pytest.raises(ConfigError, match=f"{key} must be at least 1"):
            dmod.make_windows(self._series(40), t_in, t_out)

    def test_chronological_and_leak_free(self):
        t_total = 200
        splits = dmod.make_windows(self._series(t_total), 6, 6)
        b1, b2 = dmod.split_boundaries(t_total)
        train, val, test = splits
        # target end (anchor + t_out) stays inside the assigned segment
        assert np.all(train.anchors + 6 < b1)
        assert np.all((val.anchors + 6 >= b1) & (val.anchors + 6 < b2))
        assert np.all(test.anchors + 6 >= b2)
        # window contents come from the positions the anchors claim
        w = 3
        s = train.anchors[w] - 5
        np.testing.assert_array_equal(
            train.inputs[w], self._series(t_total).values[s : s + 6]
        )

    @given(
        st.integers(1, 60),
        st.integers(1, 3),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 10),
        st.integers(0, 10),
    )
    def test_views_match_stack_oracle(self, t_total, n, t_in, t_out, train_tenths, val_tenths):
        val_tenths = min(val_tenths, 10 - train_tenths)
        ratios = (train_tenths / 10, val_tenths / 10, (10 - train_tenths - val_tenths) / 10)
        series = dmod.FlowSeries(
            values=np.random.default_rng(t_total).standard_normal((t_total, n, 1))
        )
        if t_total < t_in + t_out:
            for make in (dmod.make_windows, oracle_make_windows):
                with pytest.raises(DataError):
                    make(series, t_in, t_out, ratios)
            return
        got = dmod.make_windows(series, t_in, t_out, ratios)
        want = oracle_make_windows(series, t_in, t_out, ratios)
        for g, w in zip(got, want):
            assert g.split == w.split
            assert_bitwise(g.inputs, w.inputs)
            assert_bitwise(g.targets, w.targets)
            assert_bitwise(g.anchors, w.anchors)

    def test_splits_are_read_only_views(self):
        series = self._series(50, n=3)
        for ds in dmod.make_windows(series, 6, 3):
            for arr in (ds.inputs, ds.targets):
                assert np.shares_memory(arr, series.values)
                assert not arr.flags.writeable
            assert ds.inputs[np.arange(len(ds))].flags.c_contiguous  # a batch is a copy

    def test_pems08_windowing_allocates_under_1mb(self):
        series = dmod.FlowSeries(values=np.zeros((17856, 170, 1)))
        tracemalloc.start()
        try:
            splits = dmod.make_windows(series, 12, 12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(len(ds) for ds in splits) == 17856 - 23
        assert peak < 1_000_000, peak

    def test_scaler_ignores_val_test(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 100, size=(100, 3, 1))
        b1, _ = dmod.split_boundaries(100)
        ref = dmod.fit_scaler(values[:b1])
        mutated = values.copy()
        mutated[b1:] = 999.0
        alt = dmod.fit_scaler(mutated[:b1])
        np.testing.assert_array_equal(ref.mean, alt.mean)
        np.testing.assert_array_equal(ref.std, alt.std)


class TestSynth:
    def test_deterministic(self):
        settings = dmod.SynthSettings(synth_nodes=8, synth_steps=100)
        a = dmod.synth_generate(settings, 42)
        b = dmod.synth_generate(settings, 42)
        np.testing.assert_array_equal(a[1].values, b[1].values)

    def test_pure_sinusoid_when_quiet(self):
        settings = dmod.SynthSettings(
            synth_nodes=6, synth_steps=400, synth_noise_std=0.0, synth_coupling_a=0.0, synth_coupling_b=0.0
        )
        net, series, planted = dmod.synth_generate(settings, 1)
        assert not np.any(planted.coeff_by_step != 0.0)  # no pair carries coupling at any step
        # reconstructable as offset + amp*sin: check exact periodicity
        np.testing.assert_allclose(series.values[0:50], series.values[288 : 288 + 50], atol=1e-9)

    def test_ha_near_zero_mae_on_aligned_periods(self):
        # sampling aligned with the period makes each quiet sensor constant
        from tglrn.trainer import baseline_ha

        settings = dmod.SynthSettings(
            synth_nodes=4, synth_steps=600, synth_period=1,
            synth_noise_std=0.0, synth_coupling_a=0.0, synth_coupling_b=0.0,
        )
        _, series, _ = dmod.synth_generate(settings, 3)
        splits = dmod.make_windows(series, 12, 12)
        report = baseline_ha(splits[0])
        assert report.mae < 1e-9

    def test_regime_correlation_gap(self):
        # flat base + strong coupling: neighbor lag-1 correlation differs across regimes
        settings = dmod.SynthSettings(
            synth_nodes=8,
            synth_steps=2000,
            synth_noise_std=1.0,
            synth_coupling_a=0.8,
            synth_coupling_b=0.0,
            synth_regime_period=100,
            synth_amplitude=0.0,
        )
        net, series, planted = dmod.synth_generate(settings, 7)
        flows = series.values[:, :, 0]
        regime = planted.coeff_by_step
        corr_a, corr_b = [], []
        for u, v in planted.pairs:
            x_prev = flows[:-1, u]
            y_next = flows[1:, v]
            active = regime[1:] != 0.0
            corr_a.append(np.corrcoef(x_prev[active], y_next[active])[0, 1])
            corr_b.append(np.corrcoef(x_prev[~active], y_next[~active])[0, 1])
        gap = np.mean(corr_a) - np.mean(corr_b)
        assert gap > 0.3, f"regime correlation gap {gap:.3f}"

    def test_planted_records_format(self):
        _, _, planted = dmod.synth_generate(dmod.SynthSettings(synth_nodes=4, synth_steps=10, synth_regime_period=5), 0)
        rows = planted.records()
        assert all(len(r) == 4 for r in rows)
        ts = {r[0] for r in rows}
        assert ts == set(range(5))  # regime A active on the first half only

    def test_topologies(self):
        for topo, n in (("chain", 8), ("ring", 8), ("grid", 9)):
            settings = dmod.SynthSettings(synth_topology=topo, synth_nodes=n, synth_steps=50)
            net, series, planted = dmod.synth_generate(settings, 0)
            assert series.values.shape == (50, n, 1)
            assert len(planted.pairs) >= n - 1 - (1 if topo == "chain" else 0)
        with pytest.raises(ConfigError, match="synth_topology grid"):  # 8 is not square
            dmod.synth_generate(dmod.SynthSettings(synth_topology="grid", synth_nodes=8, synth_steps=50), 0)

    def test_minimum_nodes(self):
        with pytest.raises(ConfigError, match="synth_nodes"):
            dmod.synth_generate(dmod.SynthSettings(synth_nodes=3, synth_steps=50), 0)
