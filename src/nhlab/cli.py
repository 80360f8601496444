"""Deterministic figure/scan reproduction as CSV/JSON artifacts.

Every subcommand reads a JSON config (schema version 1, unknown keys
rejected) and writes flat files into an output directory. Energies are
expressed in units of gamma and times in units of 1/gamma, so configs
normally set gamma = 1.0; the value must still be given explicitly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import dynamics, spectra
from .dynamics import SweepDirection, SweepMode, adiabatic_sweep, evolve, fourier_detect
from .errors import ConfigError, NhlabError, NoZeroModeError
from .model import (Boundary, DisorderConfig, DisorderTarget, LatticeParams, build_real_space,
                    reduced_chain)
from .topology import DEFAULT_SAMPLES, count_enclosed_eps, track_band, winding_number

SCHEMA_VERSION = 1

EVOLVE_PRESETS = {
    # Quench benchmarks: N=5 open chain, excitation on alpha_1.
    "zero-mode-present": {"n_cells": 5, "v": 0.5, "r": 0.5, "gamma": 1.0,
                          "t_max": 60.0, "dt": 0.01},
    "zero-mode-absent": {"n_cells": 5, "v": 1.5, "r": 0.5, "gamma": 1.0,
                         "t_max": 60.0, "dt": 0.01},
}

# First d-grid value at which min |E| exceeds this marks the zero-mode
# transition in disorder sweeps (plot-resolvable splitting).
TRANSITION_TOL = 1e-6

SVG_WIDTH, SVG_HEIGHT = 640, 400

# Rows that write_csv formats with one %; a block, not the whole file,
# bounds the text it holds in memory.
_CSV_BLOCK_ROWS = 4096


def write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    """Stream {header: 1-D array} columns as CSV rows with LF endings; floats get
    17 significant digits, so they read back bit for bit, other values str.

    A float column whose runs of bit-equal values (0.0 and -0.0 differ) at
    least halve its row count is formatted once per run, and each run
    repeats its string; other columns are formatted row by row. The cells
    fill one (rows, columns) object table, where numpy turns each value
    into the Python scalar that tolist gives, and each block of
    _CSV_BLOCK_ROWS rows of it is formatted with one %. Columns of unequal
    length raise ValueError before the file is touched.
    """
    lengths = {name: len(col) for name, col in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"{path.name}: columns of unequal length {lengths}")
    n_rows = next(iter(lengths.values()), 0)
    table = np.empty((n_rows, len(columns)), dtype=object)
    fields = []
    for j, col in enumerate(columns.values()):
        if col.dtype.kind == "f" and n_rows > 1:
            bits = np.ascontiguousarray(col).view(np.uint8).reshape(n_rows, -1)
            starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)])
            if 2 * len(starts) <= n_rows:
                text = np.array(["%.17g" % x for x in col[starts].tolist()], dtype=object)
                fields.append("%s")
                table[:, j] = np.repeat(text, np.diff(starts, append=n_rows))
                continue
        fields.append("%.17g" if col.dtype.kind == "f" else "%s")
        table[:, j] = col
    fmt = ",".join(fields) + "\n"
    # Each writer unlinks an existing artifact instead of truncating it: on
    # ext4 (auto_da_alloc), truncating a file just written forces it to disk
    # on close, which made reruns into the same directory several times slower.
    path.unlink(missing_ok=True)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, n_rows, _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            fh.write(fmt * len(block) % tuple(block.ravel().tolist()))


def write_json(path: Path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    path.unlink(missing_ok=True)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


def write_svg(path: Path, xs, ys_list, labels=None) -> None:
    """Self-contained polyline plot; plumbing convenience, not an app."""
    xs = np.asarray(xs, dtype=float)
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    all_y = np.concatenate([np.asarray(y, dtype=float) for y in ys_list])
    x0, x1 = xs.min(), xs.max()
    y0, y1 = all_y.min(), all_y.max()
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 40
    sx = lambda x: pad + (x - x0) / (x1 - x0) * (SVG_WIDTH - 2 * pad)
    sy = lambda y: SVG_HEIGHT - pad - (y - y0) / (y1 - y0) * (SVG_HEIGHT - 2 * pad)
    size = f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}"'
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" {size}>', f'<rect {size} fill="white"/>']
    for i, ys in enumerate(ys_list):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{colors[i % len(colors)]}" stroke-width="1"/>')
        if labels:
            parts.append(f'<text x="{pad}" y="{15 + 14 * i}" font-size="12" '
                         f'fill="{colors[i % len(colors)]}">{labels[i]}</text>')
    parts.append("</svg>")
    path.unlink(missing_ok=True)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def _write_artifacts(out: Path, artifacts: dict, svg: bool) -> list[Path]:
    """Write {file name: content} into out in order; return the paths written.

    A .csv entry holds write_csv's columns, a .json entry write_json's object
    and a .svg entry write_svg's positional arguments, written only if svg.
    Commands hand over their artifacts once everything is solved, so a run
    that fails writes none. The writers are looked up at call time, so a
    wrapper set on this module sees every write. An OSError of a writer
    is raised as a ConfigError that names the file.
    """
    paths = [out / name for name in artifacts if svg or not name.endswith(".svg")]
    for path in paths:
        content = artifacts[path.name]
        try:
            if path.suffix == ".csv":
                write_csv(path, content)
            elif path.suffix == ".json":
                write_json(path, content)
            else:
                write_svg(path, *content)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
    return paths


def _check_keys(cfg: dict, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {cfg!r}")
    keys = set(cfg)
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def _integer(value, where: str) -> int:
    """A JSON integer config value; floats, bools and strings are refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def _number(value, where: str) -> float:
    """A finite JSON number config value as a float; bools and strings are refused."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):  # not a number, or an integer beyond float range
        pass
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _positive(value, where: str, below: float = math.inf) -> float:
    """A number config value in the open interval (0, below)."""
    x = _number(value, where)
    if not 0.0 < x < below:
        raise ConfigError(f"{where} must lie in (0, {below:g}), got {value!r}")
    return x


def _choice(value, enum: type[Enum], where: str):
    """The member of enum whose value a JSON string config value names."""
    choices = [m.value for m in enum]
    if isinstance(value, str) and value in choices:
        return enum(value)
    raise ConfigError(f"{where} must be one of {choices}, got {value!r}")


def _non_empty_list(value, where: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list")
    return value


def load_config(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    version = cfg.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # True and 1.0 equal 1 too
        raise ConfigError(f"schema_version must be the integer {SCHEMA_VERSION}, "
                          f"got {version!r}")
    return cfg


def _grid(spec, where: str) -> np.ndarray:
    if isinstance(spec, list):
        if not spec:
            raise ConfigError(f"{where}: grid must be non-empty")
        return np.array([_number(x, f"{where}[{i}]") for i, x in enumerate(spec)])
    if isinstance(spec, dict):
        _check_keys(spec, {"start", "stop", "num"}, set(), where)
        num = _integer(spec["num"], f"{where}.num")
        if num < 1:
            raise ConfigError(f"{where}: num must be >= 1")
        return np.linspace(_number(spec["start"], f"{where}.start"),
                           _number(spec["stop"], f"{where}.stop"), num)
    raise ConfigError(f"{where}: grid must be a list or {{start, stop, num}}")


def _sheet(grid_header: str, grid: np.ndarray, energies: np.ndarray) -> dict:
    """CSV columns of one sorted spectrum (a row of energies) per grid value."""
    n, dim = energies.shape
    return {grid_header: np.repeat(grid, dim), "index": np.tile(np.arange(dim), n),
            "re_E_over_gamma": energies.real.ravel(),
            "im_E_over_gamma": energies.imag.ravel()}


def cmd_spectrum(cfg: dict, out: Path, svg: bool = False) -> list[Path]:
    _check_keys(cfg, {"boundary", "n_cells", "r", "gamma", "v_grid"},
                {"zero_mode_tol"}, "spectrum")
    boundary = _choice(cfg["boundary"], Boundary, "spectrum.boundary")
    n_cells = _integer(cfg["n_cells"], "spectrum.n_cells")
    r, gamma = (_number(cfg[k], f"spectrum.{k}") for k in ("r", "gamma"))
    v_grid = _grid(cfg["v_grid"], "spectrum.v_grid")
    tol = _positive(cfg.get("zero_mode_tol", spectra.ZERO_MODE_TOL), "spectrum.zero_mode_tol",
                    below=1.0)
    base = LatticeParams(v=float(v_grid[0]), r=r, gamma=gamma, n_cells=n_cells,
                         boundary=boundary)
    energies = np.empty((len(v_grid), base.dim), dtype=complex)
    flags = []
    for v, w in zip(v_grid, energies):
        form = spectra.chain(replace(base, v=float(v)))
        w[:] = np.sort_complex(spectra.chain_spectrum(form))
        entry = {"v": float(v)}
        if boundary is Boundary.OPEN:
            try:
                zm = spectra.zero_mode_analysis(form, tol, eigenvalues=w)
            except NoZeroModeError:
                entry["zero_mode_present"] = False
            else:
                entry.update(zero_mode_present=True, side=spectra.edge_profile(zm.u0).side,
                             defective=zm.defective)
        else:
            entry["zero_mode_present"] = _zero_mode_present(np.abs(w).min(), form, tol)
        flags.append(entry)
    return _write_artifacts(out, {
        "spectrum.csv": _sheet("v_over_gamma", v_grid, energies),
        "zero_modes.json": {"zero_mode_tol": tol, "tracks": flags},
        "spectrum.svg": (v_grid, list(energies.real.T)),
    }, svg)


def cmd_winding(cfg: dict, out: Path, svg: bool = False) -> list[Path]:
    _check_keys(cfg, {"param_sets"}, {"samples"}, "winding")
    samples = _integer(cfg.get("samples", DEFAULT_SAMPLES), "winding.samples")
    artifacts, summary = {}, []
    for i, ps in enumerate(_non_empty_list(cfg["param_sets"], "winding.param_sets")):
        where = f"winding.param_sets[{i}]"
        _check_keys(ps, {"v", "r", "gamma"}, {"label"}, where)
        v, r, gamma = (_number(ps[k], f"{where}.{k}") for k in ("v", "r", "gamma"))
        params = LatticeParams(v=v, r=r, gamma=gamma, n_cells=1, boundary=Boundary.PERIODIC)
        tracked = track_band(params, samples=samples)
        res = winding_number(tracked)
        x, z = res.trajectory.T
        artifacts[f"winding_{i}.csv"] = {"k": tracked.ks, "sigma_x_expect": x,
                                         "sigma_z_expect": z}
        artifacts[f"winding_{i}.svg"] = (x, [z])
        summary.append({
            "label": ps.get("label", f"set_{i}"),
            "v": ps["v"], "r": ps["r"], "gamma": ps["gamma"],
            "winding": res.winding,
            "closure_period": res.closure_period,
            "eps_enclosed": count_enclosed_eps(params),
        })
    artifacts["winding_summary.json"] = {"samples": samples, "results": summary}
    return _write_artifacts(out, artifacts, svg)


# Disorder targets by config name; bench/workloads.py maps names through it.
_TARGET_ALIASES = {t.value: t for t in DisorderTarget}


def disorder_transition(params: LatticeParams, target: DisorderTarget,
                        d_grid: np.ndarray, seeds, tol: float = TRANSITION_TOL) -> list:
    """First disorder strength on the grid where each seed's zero mode has split.

    The criterion is min |E| > tol (in gamma units); a seed whose mode
    survives the whole grid gets None. The draws of all seeds are made
    once, as one stack, and spectra.first_splits searches the grid of
    strengths over it: it settles every (d, seed) it can from the hops up
    front and solves, d by d, only the seeds not yet split that are left.
    """
    grid = DisorderConfig.from_seeds(target, d_grid, seeds, params.n_cells)
    first = spectra.first_splits(params, grid, tol)
    return [float(d_grid[j]) if j < len(d_grid) else None for j in first.tolist()]


# Bound on the relative error of the sigma_max that chain_norm bisects for,
# with room to spare: dstebz at LAPACK's default tolerance stops within a few
# ulp of ||T||, and its Sturm counts are exact for a matrix a few ulp away.
_NORM_SLACK = 1e-12


def _zero_mode_present(min_abs: float, form, tol: float) -> bool:
    """below_cut(min_abs, chain_norm(form), tol), bit for bit, where hops
    bisect for sigma_max only when bounds on it leave the flag open.

    Every hop of the path is an entry of a matrix unitarily similar to H,
    so max |hop| <= ||H||_2, and the path is the sum of its cells' 2 x 2
    blocks and its bonds' ones, so ||H||_2 <= max(|a|, |b|) + max |r|.
    Widened by _NORM_SLACK, each bound brackets the bisected sigma_max, and
    rounding keeps tol times them in the same order. Hops whose largest is
    not a normal number, H = 0 among them, bisect.
    """
    if isinstance(form, tuple):
        a, b, r = (np.abs(x).max(initial=0.0) for x in form)
        if max(a, b, r) >= np.finfo(float).tiny:
            if spectra.below_cut(min_abs, max(a, b, r) * (1.0 - _NORM_SLACK), tol):
                return True
            if not spectra.below_cut(min_abs, (max(a, b) + r) * (1.0 + _NORM_SLACK), tol):
                return False
    return bool(spectra.below_cut(min_abs, spectra.chain_norm(form), tol))


def cmd_disorder(cfg: dict, out: Path, svg: bool = False) -> list[Path]:
    _check_keys(cfg, {"n_cells", "r", "v", "gamma", "targets", "d_grid", "n_seeds"},
                {"seed", "transition_tol", "zero_mode_tol"}, "disorder")
    v, r, gamma = (_number(cfg[k], f"disorder.{k}") for k in ("v", "r", "gamma"))
    params = LatticeParams(v=v, r=r, gamma=gamma,
                           n_cells=_integer(cfg["n_cells"], "disorder.n_cells"),
                           boundary=Boundary.OPEN)
    d_grid = _grid(cfg["d_grid"], "disorder.d_grid")
    if (d_grid < 0).any():
        raise ConfigError(f"disorder.d_grid: strengths must be >= 0, got {d_grid.min():g}")
    base_seed = _integer(cfg.get("seed", 0), "disorder.seed")
    n_seeds = _integer(cfg["n_seeds"], "disorder.n_seeds")
    if n_seeds < 0:
        raise ConfigError(f"disorder: n_seeds must be >= 0, got {n_seeds}")
    targets = [_choice(name, DisorderTarget, f"disorder.targets[{i}]")
               for i, name in enumerate(_non_empty_list(cfg["targets"], "disorder.targets"))]
    trans_tol = _positive(cfg.get("transition_tol", TRANSITION_TOL), "disorder.transition_tol")
    zm_tol = _positive(cfg.get("zero_mode_tol", spectra.ZERO_MODE_TOL), "disorder.zero_mode_tol",
                       below=1.0)
    artifacts, summary = {}, {}
    for target in targets:
        name = target.value
        energies = np.empty((len(d_grid), params.dim), dtype=complex)
        present = np.zeros(len(d_grid), dtype=int)
        side = np.full(len(d_grid), "", dtype=object)
        draws = DisorderConfig.from_seed(target, d_grid, base_seed, params.n_cells)
        hops = reduced_chain(params, draws)     # every d at once; None for onsite past d = 0
        for j, d in enumerate(d_grid):
            form = (tuple(x[j] for x in hops) if hops is not None
                    else spectra.chain(params, replace(draws, strength=float(d))))
            energies[j] = np.sort_complex(spectra.chain_spectrum(form))
            present[j] = _zero_mode_present(np.abs(energies[j]).min(), form, zm_tol)
            if present[j]:
                zm = spectra.zero_mode_analysis(form, zm_tol, require_chiral=False,
                                                eigenvalues=energies[j])
                side[j] = spectra.edge_profile(zm.u0).side
        artifacts[f"disorder_{name}.csv"] = _sheet("d_over_gamma", d_grid, energies) | {
            "zero_mode_present": np.repeat(present, params.dim),
            "zero_mode_side": np.repeat(side, params.dim)}
        transitions = disorder_transition(params, target, d_grid,
                                          range(base_seed, base_seed + n_seeds), tol=trans_tol)
        finite = [t for t in transitions if t is not None]
        summary[name] = {
            "per_seed_transitions": transitions,
            "median_transition": float(np.median(finite)) if finite else None,
            "n_surviving_full_grid": len(transitions) - len(finite),
        }
    artifacts["disorder_summary.json"] = {"base_seed": base_seed, "n_seeds": n_seeds,
                                          "transition_tol": trans_tol, "targets": summary}
    return _write_artifacts(out, artifacts, svg)


def cmd_svd_scan(cfg: dict, out: Path, svg: bool = False) -> list[Path]:
    _check_keys(cfg, {"n_list", "v_grid", "r", "gamma"}, set(), "svd-scan")
    r, gamma = (_number(cfg[k], f"svd-scan.{k}") for k in ("r", "gamma"))
    v_grid = _grid(cfg["v_grid"], "svd-scan.v_grid")
    n_list = [_integer(n, f"svd-scan.n_list[{i}]")
              for i, n in enumerate(_non_empty_list(cfg["n_list"], "svd-scan.n_list"))]
    sigma = np.empty((len(n_list), len(v_grid), 2))
    for n, sigma_n in zip(n_list, sigma):
        # v sits only in the intracell entries, which no bond of an open
        # chain touches, so H0 + v * P is build_real_space at v bit for bit.
        params = LatticeParams(v=0.0, r=r, gamma=gamma, n_cells=n, boundary=Boundary.OPEN)
        H0 = build_real_space(params)
        P = build_real_space(replace(params, v=1.0)) - H0
        for v, sigma_nv in zip(v_grid, sigma_n):
            sigma_nv[:] = spectra.smallest_singular_values(H0 + v * P, count=2)
    return _write_artifacts(out, {
        "svd_scan.csv": {"N": np.repeat(n_list, len(v_grid)),
                         "v_over_gamma": np.tile(v_grid, len(n_list)),
                         "sigma_min": sigma[..., 0].ravel(), "sigma_2nd": sigma[..., 1].ravel()},
        "svd_scan.svg": (v_grid, list(np.log10(np.maximum(sigma[..., 0], 1e-300))),
                         [f"N={n}" for n in n_list]),
    }, svg)


def cmd_evolve(cfg: dict, out: Path, svg: bool = False) -> list[Path]:
    if "preset" in cfg:
        _check_keys(cfg, {"preset"}, {"excite_site", "threshold", "freq_window"},
                    "evolve")
        if cfg["preset"] not in EVOLVE_PRESETS:
            raise ConfigError(f"evolve: unknown preset {cfg['preset']!r}; "
                              f"choose from {sorted(EVOLVE_PRESETS)}")
        body = EVOLVE_PRESETS[cfg["preset"]]
    else:
        _check_keys(cfg, {"n_cells", "v", "r", "gamma", "t_max", "dt"},
                    {"excite_site", "threshold", "freq_window"}, "evolve")
        body = cfg
    nums = {k: _number(body[k], f"evolve.{k}") for k in ("v", "r", "gamma", "t_max", "dt")}
    params = LatticeParams(v=nums["v"], r=nums["r"], gamma=nums["gamma"],
                           n_cells=_integer(body["n_cells"], "evolve.n_cells"),
                           boundary=Boundary.OPEN)
    site = _integer(cfg.get("excite_site", 0), "evolve.excite_site")
    if not 0 <= site < params.dim:
        raise ConfigError(f"evolve: excite_site must lie in [0, {params.dim}), got {site}")
    # Keys left out of the config keep the library's defaults.
    detect = {k: _positive(cfg[k], f"evolve.{k}") for k in ("threshold", "freq_window")
              if k in cfg}
    H = build_real_space(params)
    psi0 = np.zeros(params.dim, dtype=complex)
    psi0[site] = 1.0
    series = evolve(H, psi0, nums["t_max"], nums["dt"])
    report = fourier_detect(series, site=site, **detect)
    return _write_artifacts(out, {
        "populations.csv": {"t_gamma": np.repeat(series.times, params.n_cells),
                            "cell": np.tile(np.arange(params.n_cells), len(series.times)),
                            "population": series.cell_populations.ravel()},
        "site_series.csv": {"t_gamma": series.times, "re_amplitude": series.states[:, site].real,
                            "im_amplitude": series.states[:, site].imag},
        "fourier.csv": {"freq_over_gamma": report.frequencies, "magnitude": report.magnitudes},
        "evolve_summary.json": {
            "params": nums | {"n_cells": params.n_cells, "excite_site": site},
            "zero_peak": report.zero_peak,
            # inf where the window's median magnitude is 0 (H = 0); JSON has no inf
            "peak_ratio": report.peak_ratio if math.isfinite(report.peak_ratio) else None,
        },
        "fourier.svg": (report.frequencies, [report.magnitudes]),
    }, svg)


def cmd_sweep_phase(cfg: dict, out: Path, svg: bool = False) -> list[Path]:
    _check_keys(cfg, {"v", "r", "gamma", "k", "mode"},
                {"direction", "omega", "samples", "total_phase"}, "sweep-phase")
    nums = {k: _number(cfg[k], f"sweep-phase.{k}") for k in ("v", "r", "gamma", "k")}
    params = LatticeParams(v=nums["v"], r=nums["r"], gamma=nums["gamma"], n_cells=1,
                           boundary=Boundary.PERIODIC)
    direction = _choice(cfg.get("direction", dynamics.DEFAULT_DIRECTION.value),
                        SweepDirection, "sweep-phase.direction")
    mode = _choice(cfg["mode"], SweepMode, "sweep-phase.mode")
    # Keys left out of the config keep the library's defaults.
    opts = {key: read(cfg[key], f"sweep-phase.{key}") for key, read in
            (("omega", _number), ("samples", _integer), ("total_phase", _number))
            if key in cfg}
    result = adiabatic_sweep(params, k=nums["k"], direction=direction,
                             mode=mode, **opts)
    return _write_artifacts(out, {"sweep_summary.json": {
        "params": nums,
        "mode": mode.value,
        "direction": direction.value,
        "eps_enclosed": count_enclosed_eps(params),
        "initial_band": result.initial_band,
        "final_overlaps": result.final_overlaps,
    }}, svg)


COMMANDS = {
    "spectrum": cmd_spectrum,
    "winding": cmd_winding,
    "disorder": cmd_disorder,
    "svd-scan": cmd_svd_scan,
    "evolve": cmd_evolve,
    "sweep-phase": cmd_sweep_phase,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nhlab",
        description="Non-Hermitian lattice laboratory: deterministic CSV/JSON artifacts.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--svg", action="store_true",
                        help="also write SVG line plots (spectrum, winding, svd-scan, evolve)")
    args = parser.parse_args(argv)
    out = Path(args.out)
    # Directories this run creates, deepest first; a failed run that wrote
    # nothing into them removes them again.
    created = [d for d in (out, *out.parents) if not d.exists()]
    try:
        cfg = load_config(args.config)
        del cfg["schema_version"]       # top level only; the commands reject it elsewhere
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:      # --out names a file, or a path through one
            raise ConfigError(f"cannot create {out}: {exc}") from exc
        files = COMMANDS[args.command](cfg, out, svg=args.svg)
    # TypeError: an ill-typed config value; MemoryError: a size no host can
    # allocate; OverflowError: a size beyond the index range (a count of 2**63).
    except (NhlabError, ValueError, TypeError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        for d in created:
            if not d.is_dir() or any(d.iterdir()):
                break
            d.rmdir()
        return 2
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
