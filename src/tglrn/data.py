"""Flow ingestion, z-score normalization, windowing, and synthetic generation.

Flow files are CSVs with one time step per row (optional leading ``t``
index column). Missing or zero sentinel cells are linearly interpolated
per sensor. Windows slide with stride 1 and are split chronologically
by the index of their last target step, so no window assigned to an
earlier split ever reads values from a later split's targets. Each
split's windows are read-only strided views of the series.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import roadnet
from .errors import ConfigError, DataError

__all__ = [
    "FlowSeries",
    "Scaler",
    "WindowedDataset",
    "PlantedCoupling",
    "SynthSettings",
    "load_flows",
    "fit_scaler",
    "make_windows",
    "synth_generate",
]

STD_FLOOR = 1e-8
SPLIT_RATIOS = (0.6, 0.2, 0.2)  # default chronological train, validation and test shares
SCALER_SCOPES = ("per_sensor", "global")  # z-score statistics per sensor, or one pair for all


@dataclass
class FlowSeries:
    """Raw flow tensor, shape (T_total, N, F) with F = 1."""

    values: np.ndarray

    @property
    def num_steps(self):
        return self.values.shape[0]

    @property
    def num_nodes(self):
        return self.values.shape[1]


@dataclass
class Scaler:
    """Z-score statistics; shapes broadcast against (..., N, F) arrays."""

    mean: np.ndarray
    std: np.ndarray
    scope: str = "per_sensor"

    def apply(self, x):
        return (x - self.mean) / self.std

    def invert(self, x):
        return x * self.std + self.mean


@dataclass
class WindowedDataset:
    """(input, target) windows in raw units for one split."""

    inputs: np.ndarray  # (M, T_in, N, F)
    targets: np.ndarray  # (M, T_out, N, F)
    anchors: np.ndarray  # (M,) index of the last input step in the source series
    split: str

    def __len__(self):
        return self.inputs.shape[0]


@dataclass
class PlantedCoupling:
    """Ground-truth lag-1 dependencies injected by the synthetic generator."""

    pairs: list  # directed (upstream, downstream) pairs
    coeff_by_step: np.ndarray  # (T_total,) coupling coefficient active at each step

    def records(self):
        """(t, from, to, coeff) rows for every step with active coupling."""
        rows = []
        for t, c in enumerate(self.coeff_by_step):
            if c != 0.0:
                for u, v in self.pairs:
                    rows.append((t, u, v, float(c)))
        return rows


@dataclass
class SynthSettings:
    """Synthetic generator settings; each field is the run config key of the same name."""

    synth_topology: str = "chain"  # chain, ring, or grid
    synth_nodes: int = 8  # synthetic sensor count (>= 4; a square for grid)
    synth_steps: int = 372  # synthetic series length
    synth_period: int = 288  # sinusoid period in steps
    synth_noise_std: float = 0.05  # innovation noise level
    synth_regime_period: int = 48  # steps between coupling regime switches
    synth_coupling_a: float = 0.8  # lag-1 coupling coefficient in regime A
    synth_coupling_b: float = 0.0  # lag-1 coupling coefficient in regime B
    synth_amplitude: float = 20.0  # sinusoid amplitude scale
    synth_offset: float = 50.0  # baseline flow level

    def check_fields(self):
        """Raise ConfigError naming the first field out of range."""
        if self.synth_topology not in ("chain", "ring", "grid"):
            raise ConfigError(f"synth_topology must be chain, ring or grid, got {self.synth_topology!r}")
        if self.synth_nodes < 4:
            raise ConfigError(f"synth_nodes must be at least 4, got {self.synth_nodes}")
        if self.synth_topology == "grid" and math.isqrt(self.synth_nodes) ** 2 != self.synth_nodes:
            raise ConfigError(f"synth_topology grid needs a square synth_nodes, got {self.synth_nodes}")
        for key in ("synth_steps", "synth_period", "synth_regime_period"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be at least 1, got {getattr(self, key)}")
        coefficients = ("synth_noise_std", "synth_coupling_a", "synth_coupling_b", "synth_amplitude", "synth_offset")
        for key in coefficients:
            if not 0.0 <= getattr(self, key) < float("inf"):
                raise ConfigError(f"{key} must be non-negative and finite, got {getattr(self, key)}")


def _interpolate_missing(values):
    """Linear per-sensor interpolation of NaN/inf/zero sentinel cells, in place, for all sensors at once.

    Each bad cell takes ``np.interp``'s value, bitwise, from the nearest good
    steps before and after it, or from the one good step beside a gap at either
    end. A sensor without a good step is filled with zeros, with a warning.
    """
    col = values[..., 0]  # (T, N), a view
    bad = ~np.isfinite(col) | (col == 0.0)
    for s in np.flatnonzero(bad.all(axis=0)):
        warnings.warn(f"sensor {s}: no valid samples, filled with zeros")
        col[:, s] = 0.0
        bad[:, s] = False
    s, t = np.divmod(np.flatnonzero(bad.T), col.shape[0])  # sensor by sensor, each in step order
    if not t.size:
        return values
    # A gap is a run of consecutive bad steps of one sensor; its cells share the good steps
    # around it, lo before and hi after, or -1 and T where the series ends first.
    starts = np.ones(t.size, dtype=bool)
    starts[1:] = (s[1:] != s[:-1]) | (t[1:] != t[:-1] + 1)
    first = np.flatnonzero(starts)
    gap = np.cumsum(starts) - 1
    lo = t[first][gap] - 1
    hi = t[np.append(first[1:], t.size) - 1][gap] + 1
    has_lo, has_hi = lo >= 0, hi < col.shape[0]
    y_lo = col[np.where(has_lo, lo, hi), s]  # a gap at either end takes its one good neighbour
    y_hi = col[np.where(has_hi, hi, lo), s]
    # Huge values overflow to inf and nan here, as inside np.interp; its fallbacks follow.
    with np.errstate(over="ignore", invalid="ignore"):
        slope = (y_hi - y_lo) / (hi - lo)
        est = slope * (t - lo) + y_lo
        retry = np.isnan(est)  # as np.interp: from the right end, then the left value if both agree
        est[retry] = slope[retry] * (t - hi)[retry] + y_hi[retry]
        level = retry & np.isnan(est) & (y_lo == y_hi)
        est[level] = y_lo[level]
    col[t, s] = np.where(has_lo & has_hi, est, y_lo)
    return values


def load_flows(path, num_nodes, impute=True):
    """Parse a flow CSV into a FlowSeries of shape (T, N, 1).

    Blank and all-empty rows are skipped, a first line whose first cell
    is not a number is a header, and empty cells are NaN. Numbers go
    through numpy's C parser; a ragged row or a non-numeric cell raises
    DataError naming its line (cells may be quoted, but not span lines).
    """
    try:
        # Universal newlines: \r\n and \r end a row, as for the csv module; a UTF-8 BOM is dropped.
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"load_flows: cannot open {path}: {e}") from None
    width, rows, linenos = _data_rows(lines)
    if not rows:
        raise DataError(f"load_flows: {path} holds no data rows")
    try:
        arr = np.loadtxt(rows, dtype=np.float64, **_LOADTXT)
    except ValueError as e:
        _raise_first_bad_row(rows, linenos, width)
        raise DataError(f"load_flows: {e}") from None
    if width is not None and arr.shape[1] != width:
        raise DataError(f"load_flows: line {linenos[0]}: ragged row ({arr.shape[1]} vs {width} columns)")
    if arr.shape[1] == num_nodes + 1:
        arr = arr[:, 1:]  # leading time-index column
    if arr.shape[1] != num_nodes:
        raise DataError(
            f"load_flows: expected {num_nodes} sensor columns (+1 optional index), got {arr.shape[1]}"
        )
    values = arr[:, :, None]
    if impute:
        values = _interpolate_missing(values)
    return FlowSeries(values=values)


_LOADTXT = dict(delimiter=",", quotechar='"', comments=None, ndmin=2)
# A whitespace-only cell: preceded by a comma or the line start, followed by a comma or the line end.
_EMPTY_CELL = re.compile(r"(?<![^,])\s*(?![^,])")


def _data_rows(lines):
    """(header width or None, data rows ready for np.loadtxt, their file line numbers).

    One cheap pass per line: rows with a quote go through the csv module
    and come back canonical; in the others, only lines that can hold an
    empty cell are searched for one, which becomes ``nan``.
    """
    width, rows, linenos = None, [], []
    for lineno, line in enumerate(lines, start=1):
        if '"' in line:
            cells = next(csv.reader([line]))
            if not any(cell.strip() for cell in cells):
                continue
            head, n_cells = cells[0], len(cells)
            line = ",".join(map(_canonical_cell, cells))
        else:
            first = line[:1]
            if (not first or first == "," or first.isspace()) and not line.replace(",", "").strip():
                continue
            if lineno == 1:
                head, n_cells = line.split(",", 1)[0], line.count(",") + 1
            if ",," in line or first == "," or line[-1] == "," or line.split() != [line]:
                line = _EMPTY_CELL.sub("nan", line)
        if lineno == 1 and not _is_number(head.strip()):
            width = n_cells
            continue
        rows.append(line)
        linenos.append(lineno)
    return width, rows, linenos


def _canonical_cell(cell):
    if not cell.strip():
        return "nan"
    if "," in cell or '"' in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _raise_first_bad_row(rows, linenos, width):
    """Name the first row the bulk parse rejected; runs only after it raised."""
    for row, lineno in zip(rows, linenos):
        n_cells = len(next(csv.reader([row])))
        width = width or n_cells
        if n_cells != width:
            raise DataError(f"load_flows: line {lineno}: ragged row ({n_cells} vs {width} columns)")
        try:
            np.loadtxt([row], **_LOADTXT)
        except ValueError:
            raise DataError(f"load_flows: line {lineno}: non-numeric cell") from None


def _is_number(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def check_scaler_scope(scope):
    """Raise ConfigError unless ``scope`` is one of SCALER_SCOPES."""
    if scope not in SCALER_SCOPES:
        raise ConfigError(f"scaler_scope must be {' or '.join(SCALER_SCOPES)}, got {scope!r}")


def fit_scaler(train_values, scope=Scaler.scope):
    """Population-moment z-score statistics from the train portion only."""
    check_scaler_scope(scope)
    if scope == "per_sensor":
        mean = train_values.mean(axis=0, keepdims=False)  # (N, F)
        std = train_values.std(axis=0, keepdims=False)
    else:
        mean = np.full((1, 1), train_values.mean())
        std = np.full((1, 1), train_values.std())
    if np.any(std <= STD_FLOOR):
        warnings.warn("fit_scaler: zero-variance sensor column, flooring std at 1e-8")
        std = np.maximum(std, STD_FLOOR)
    return Scaler(mean=mean, std=std, scope=scope)


def check_split_ratios(ratios):
    """Raise ConfigError unless ``ratios`` are three non-negative shares that sum to 1."""
    if len(ratios) != 3 or not (all(r >= 0 for r in ratios) and abs(sum(ratios) - 1.0) <= 1e-9):
        raise ConfigError(
            f"train_frac, val_frac and test_frac must be non-negative and sum to 1, got {tuple(ratios)}"
        )


def split_boundaries(t_total, ratios=SPLIT_RATIOS):
    """First validation step and first test step of a ``t_total``-step series."""
    check_split_ratios(ratios)
    b1 = int(np.floor(ratios[0] * t_total))
    b2 = int(np.floor((ratios[0] + ratios[1]) * t_total))
    return b1, b2


def make_windows(series, t_in, t_out, ratios=SPLIT_RATIOS):
    """Stride-1 sliding windows split chronologically into train/val/test.

    A window starting at s consumes inputs [s, s+t_in) and targets
    [s+t_in, s+t_in+t_out); it belongs to the split containing its final
    target index. Total window count is T_total - (t_in + t_out) + 1.
    Each split's inputs and targets are read-only strided views of
    ``series.values``: no window is copied, and indexing a batch out of
    them yields a contiguous copy.
    """
    for key, value in (("t_in", t_in), ("t_out", t_out)):
        if value < 1:
            raise ConfigError(f"{key} must be at least 1, got {value}")
    values = series.values
    t_total = values.shape[0]
    width = t_in + t_out
    if t_total < width:
        raise DataError(f"make_windows: series length {t_total} < t_in + t_out = {width}")
    b1, b2 = split_boundaries(t_total, ratios)

    # (windows, N, F, width) -> (windows, width, N, F); window s ends at s + width - 1
    windows = np.moveaxis(np.lib.stride_tricks.sliding_window_view(values, width, axis=0), -1, 1)
    cuts = np.searchsorted(np.arange(width - 1, t_total), (0, b1, b2, t_total))
    out = []
    for split, lo, hi in zip(("train", "val", "test"), cuts[:-1], cuts[1:]):
        out.append(
            WindowedDataset(
                inputs=windows[lo:hi, :t_in],
                targets=windows[lo:hi, t_in:],
                anchors=np.arange(lo, hi, dtype=np.int64) + (t_in - 1),
                split=split,
            )
        )
    return tuple(out)


def _upstream_map(topology, n):
    """Directed edges plus the single upstream feeder per node (or None)."""
    if topology == "chain":
        edges = [(i, i + 1) for i in range(n - 1)]
        upstream = [None] + list(range(n - 1))
    elif topology == "ring":
        edges = [(i, (i + 1) % n) for i in range(n)]
        upstream = [(i - 1) % n for i in range(n)]
    else:  # grid
        side = math.isqrt(n)
        edges = []
        upstream = [None] * n
        for r in range(side):
            for c in range(side):
                u = r * side + c
                if c + 1 < side:
                    edges.append((u, u + 1))
                if r + 1 < side:
                    edges.append((u, u + side))
                if c > 0:
                    upstream[u] = u - 1
                elif r > 0:
                    upstream[u] = u - side
    return edges, upstream


def synth_generate(settings, seed):
    """Synthetic flows from ``SynthSettings``: daily sinusoid + regime-switching lag-1 coupling + noise.

    Each sensor carries a sinusoid with its own phase and amplitude. On top
    rides a deviation process dev_i(t) = c(t) * dev_up(i)(t-1) + noise, where
    the coefficient c alternates between ``synth_coupling_a`` and
    ``synth_coupling_b`` every ``synth_regime_period`` steps. Fixed seed
    gives bitwise identical output.
    """
    settings.check_fields()
    n, t_total = settings.synth_nodes, settings.synth_steps
    rng = np.random.default_rng(seed)
    edges, upstream = _upstream_map(settings.synth_topology, n)
    net = roadnet.build_asp(edges, n)

    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    amps = settings.synth_amplitude * rng.uniform(0.5, 1.0, size=n)

    steps = np.arange(t_total)
    regime_a = (steps // settings.synth_regime_period) % 2 == 0
    coeff = np.where(regime_a, settings.synth_coupling_a, settings.synth_coupling_b)

    wave = np.sin(2.0 * np.pi * steps[:, None] / settings.synth_period + phases[None, :])
    base = settings.synth_offset + amps[None, :] * wave

    noise_std = settings.synth_noise_std
    noise = rng.normal(0.0, noise_std, size=(t_total, n)) if noise_std > 0 else np.zeros((t_total, n))
    dev = np.zeros((t_total, n))
    dev[0] = noise[0]
    for t in range(1, t_total):
        dev[t] = noise[t]
        c = coeff[t]
        if c != 0.0:
            for v in range(n):
                u = upstream[v]
                if u is not None:
                    dev[t, v] += c * dev[t - 1, u]

    flows = (base + dev)[:, :, None]
    pairs = [(u, v) for v, u in enumerate(upstream) if u is not None]
    planted = PlantedCoupling(pairs=pairs, coeff_by_step=coeff.astype(np.float64))
    return net, FlowSeries(values=flows), planted
