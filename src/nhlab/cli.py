"""Deterministic figure/scan reproduction as CSV/JSON artifacts.

Every subcommand reads a JSON config (schema version 1, unknown keys
rejected) and writes flat files into an output directory. Energies are
expressed in units of gamma and times in units of 1/gamma, so configs
normally set gamma = 1.0; the value must still be given explicitly.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dynamics, spectra
from .dynamics import SweepDirection, SweepMode, adiabatic_sweep, evolve, fourier_detect
from .errors import ConfigError, NhlabError, NoZeroModeError
from .model import (Boundary, DisorderConfig, DisorderTarget, LatticeParams,
                    build_real_space)
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


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])


def write_json(path: Path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


def write_svg(path: Path, xs, ys_list, labels=None, width=640, height=400) -> None:
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
    sx = lambda x: pad + (x - x0) / (x1 - x0) * (width - 2 * pad)
    sy = lambda y: height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    for i, ys in enumerate(ys_list):
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{colors[i % len(colors)]}" stroke-width="1"/>')
        if labels:
            parts.append(f'<text x="{pad}" y="{15 + 14 * i}" font-size="12" '
                         f'fill="{colors[i % len(colors)]}">{labels[i]}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def _check_keys(cfg: dict, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {cfg!r}")
    keys = set(cfg)
    unknown = keys - required - optional - {"schema_version"}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")


def load_config(path: str | Path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    return cfg


def _grid(spec, where: str) -> np.ndarray:
    if isinstance(spec, list):
        if not spec:
            raise ConfigError(f"{where}: grid must be non-empty")
        return np.asarray(spec, dtype=float)
    if isinstance(spec, dict):
        _check_keys(spec, {"start", "stop", "num"}, set(), where)
        if spec["num"] < 1:
            raise ConfigError(f"{where}: num must be >= 1")
        return np.linspace(spec["start"], spec["stop"], int(spec["num"]))
    raise ConfigError(f"{where}: grid must be a list or {{start, stop, num}}")


def cmd_spectrum(cfg: dict, out: Path, svg: bool = False) -> list[Path]:
    _check_keys(cfg, {"boundary", "n_cells", "r", "gamma", "v_grid"},
                {"zero_mode_tol"}, "spectrum")
    boundary = Boundary(cfg["boundary"])
    v_grid = _grid(cfg["v_grid"], "spectrum.v_grid")
    tol = float(cfg.get("zero_mode_tol", spectra.ZERO_MODE_TOL))
    rows = []
    flags = []
    for v in v_grid:
        params = LatticeParams(v=float(v), r=float(cfg["r"]), gamma=float(cfg["gamma"]),
                               n_cells=int(cfg["n_cells"]), boundary=boundary)
        H = build_real_space(params)
        w = np.sort_complex(np.linalg.eigvals(H))
        for i, e in enumerate(w):
            rows.append((v, i, e.real, e.imag))
        entry = {"v": float(v)}
        if boundary is Boundary.OPEN:
            try:
                zm = spectra.zero_mode_analysis(H, tol=tol, require_chiral=False)
                entry["zero_mode_present"] = True
                entry["side"] = spectra.edge_profile(zm.u0).side
                entry["defective"] = zm.defective
            except NoZeroModeError:
                entry["zero_mode_present"] = False
        else:
            entry["zero_mode_present"] = bool(np.abs(w).min() < tol * np.linalg.norm(H, 2))
        flags.append(entry)
    csv_path = out / "spectrum.csv"
    write_csv(csv_path, ["v_over_gamma", "index", "re_E_over_gamma", "im_E_over_gamma"], rows)
    json_path = out / "zero_modes.json"
    write_json(json_path, {"zero_mode_tol": tol, "tracks": flags})
    files = [csv_path, json_path]
    if svg:
        dim = 2 * int(cfg["n_cells"])
        res = np.array([r[2] for r in rows]).reshape(len(v_grid), dim)
        svg_path = out / "spectrum.svg"
        write_svg(svg_path, v_grid, list(res.T))
        files.append(svg_path)
    return files


def cmd_winding(cfg: dict, out: Path, svg: bool = False) -> list[Path]:
    _check_keys(cfg, {"param_sets"}, {"samples"}, "winding")
    samples = int(cfg.get("samples", DEFAULT_SAMPLES))
    if not cfg["param_sets"]:
        raise ConfigError("winding: param_sets must be non-empty")
    summary = []
    files = []
    for i, ps in enumerate(cfg["param_sets"]):
        _check_keys(ps, {"v", "r", "gamma"}, {"label"}, f"winding.param_sets[{i}]")
        params = LatticeParams(v=float(ps["v"]), r=float(ps["r"]),
                               gamma=float(ps["gamma"]), n_cells=1,
                               boundary=Boundary.PERIODIC)
        tracked = track_band(params, samples=samples)
        res = winding_number(tracked)
        csv_path = out / f"winding_{i}.csv"
        write_csv(csv_path, ["k", "sigma_x_expect", "sigma_z_expect"],
                  [(k, x, z) for k, (x, z) in zip(tracked.ks, res.trajectory)])
        files.append(csv_path)
        summary.append({
            "label": ps.get("label", f"set_{i}"),
            "v": ps["v"], "r": ps["r"], "gamma": ps["gamma"],
            "winding": res.winding,
            "closure_period": res.closure_period,
            "eps_enclosed": count_enclosed_eps(params),
        })
        if svg:
            svg_path = out / f"winding_{i}.svg"
            write_svg(svg_path, res.trajectory[:, 0], [res.trajectory[:, 1]])
            files.append(svg_path)
    json_path = out / "winding_summary.json"
    write_json(json_path, {"samples": samples, "results": summary})
    files.append(json_path)
    return files


_TARGET_ALIASES = {t.value: t for t in DisorderTarget}


def disorder_transition(params: LatticeParams, target: DisorderTarget,
                        d_grid: np.ndarray, seed: int,
                        tol: float = TRANSITION_TOL):
    """First disorder strength on the grid where the zero mode has split.

    The criterion is min |E| > tol (in gamma units); returns None when
    the mode survives the whole grid. The seed's draws are made once and
    scaled by each d; min |E| comes from spectra.smallest_abs_eigenvalue,
    in real arithmetic unless the target is onsite.
    """
    draws = DisorderConfig.from_seed(target, 0.0, seed, params.n_cells)
    for d in d_grid:
        H = build_real_space(params, disorder=replace(draws, strength=float(d)))
        if spectra.smallest_abs_eigenvalue(H) > tol:
            return float(d)
    return None


def cmd_disorder(cfg: dict, out: Path, svg: bool = False,
                 seed_override: int | None = None) -> list[Path]:
    _check_keys(cfg, {"n_cells", "r", "v", "gamma", "targets", "d_grid", "n_seeds"},
                {"seed", "transition_tol", "zero_mode_tol"}, "disorder")
    params = LatticeParams(v=float(cfg["v"]), r=float(cfg["r"]),
                           gamma=float(cfg["gamma"]), n_cells=int(cfg["n_cells"]),
                           boundary=Boundary.OPEN)
    d_grid = _grid(cfg["d_grid"], "disorder.d_grid")
    base_seed = int(seed_override if seed_override is not None else cfg.get("seed", 0))
    n_seeds = int(cfg["n_seeds"])
    if n_seeds < 0:
        raise ConfigError(f"disorder: n_seeds must be >= 0, got {n_seeds}")
    if not isinstance(cfg["targets"], list) or not cfg["targets"]:
        raise ConfigError("disorder: targets must be a non-empty list")
    unknown = [name for name in cfg["targets"] if name not in _TARGET_ALIASES]
    if unknown:
        raise ConfigError(f"disorder: unknown targets {unknown}")
    trans_tol = float(cfg.get("transition_tol", TRANSITION_TOL))
    zm_tol = float(cfg.get("zero_mode_tol", spectra.ZERO_MODE_TOL))
    files = []
    summary = {}
    for name in cfg["targets"]:
        target = _TARGET_ALIASES[name]
        rows = []
        # The base-seed sweep is seed 0 of the transition statistics too.
        first_split = None
        draws = DisorderConfig.from_seed(target, 0.0, base_seed, params.n_cells)
        for d in d_grid:
            H = build_real_space(params, disorder=replace(draws, strength=float(d)))
            w = np.sort_complex(np.linalg.eigvals(H))
            scale = np.linalg.norm(H, 2)
            min_abs = np.abs(w).min()
            if first_split is None and min_abs > trans_tol:
                first_split = float(d)
            present = bool(min_abs < zm_tol * scale)
            side = ""
            if present:
                _, _, vh = np.linalg.svd(H)
                side = spectra.edge_profile(spectra.fix_phase(vh[-1].conj())).side
            for i, e in enumerate(w):
                rows.append((d, i, e.real, e.imag, int(present), side))
        csv_path = out / f"disorder_{name}.csv"
        write_csv(csv_path, ["d_over_gamma", "index", "re_E_over_gamma",
                             "im_E_over_gamma", "zero_mode_present", "zero_mode_side"],
                  rows)
        files.append(csv_path)
        transitions = [first_split] if n_seeds > 0 else []
        transitions += [disorder_transition(params, target, d_grid, base_seed + i,
                                            tol=trans_tol)
                        for i in range(1, n_seeds)]
        finite = [t for t in transitions if t is not None]
        summary[name] = {
            "per_seed_transitions": transitions,
            "median_transition": float(np.median(finite)) if finite else None,
            "n_surviving_full_grid": len(transitions) - len(finite),
        }
    json_path = out / "disorder_summary.json"
    write_json(json_path, {"base_seed": base_seed, "n_seeds": n_seeds,
                           "transition_tol": trans_tol, "targets": summary})
    files.append(json_path)
    return files


def cmd_svd_scan(cfg: dict, out: Path, svg: bool = False) -> list[Path]:
    _check_keys(cfg, {"n_list", "v_grid", "r", "gamma"}, set(), "svd-scan")
    v_grid = _grid(cfg["v_grid"], "svd-scan.v_grid")
    if not cfg["n_list"]:
        raise ConfigError("svd-scan: n_list must be non-empty")
    rows = []
    for n in cfg["n_list"]:
        for v in v_grid:
            params = LatticeParams(v=float(v), r=float(cfg["r"]),
                                   gamma=float(cfg["gamma"]), n_cells=int(n),
                                   boundary=Boundary.OPEN)
            s = spectra.smallest_singular_values(build_real_space(params), count=2)
            rows.append((int(n), v, s[0], s[1]))
    csv_path = out / "svd_scan.csv"
    write_csv(csv_path, ["N", "v_over_gamma", "sigma_min", "sigma_2nd"], rows)
    files = [csv_path]
    if svg:
        svg_path = out / "svd_scan.svg"
        by_n = {}
        for n, v, s0, _ in rows:
            by_n.setdefault(n, []).append(np.log10(max(s0, 1e-300)))
        write_svg(svg_path, v_grid, list(by_n.values()),
                  labels=[f"N={n}" for n in by_n])
        files.append(svg_path)
    return files


def cmd_evolve(cfg: dict, out: Path, svg: bool = False) -> list[Path]:
    if "preset" in cfg:
        _check_keys(cfg, {"preset"}, {"excite_site", "threshold", "freq_window"},
                    "evolve")
        if cfg["preset"] not in EVOLVE_PRESETS:
            raise ConfigError(f"evolve: unknown preset {cfg['preset']!r}; "
                              f"choose from {sorted(EVOLVE_PRESETS)}")
        body = dict(EVOLVE_PRESETS[cfg["preset"]])
    else:
        _check_keys(cfg, {"n_cells", "v", "r", "gamma", "t_max", "dt"},
                    {"excite_site", "threshold", "freq_window"}, "evolve")
        body = {k: cfg[k] for k in ("n_cells", "v", "r", "gamma", "t_max", "dt")}
    params = LatticeParams(v=float(body["v"]), r=float(body["r"]),
                           gamma=float(body["gamma"]), n_cells=int(body["n_cells"]),
                           boundary=Boundary.OPEN)
    site = int(cfg.get("excite_site", 0))
    if not 0 <= site < params.dim:
        raise ConfigError(f"evolve: excite_site must lie in [0, {params.dim}), got {site}")
    H = build_real_space(params)
    psi0 = np.zeros(params.dim, dtype=complex)
    psi0[site] = 1.0
    series = evolve(H, psi0, float(body["t_max"]), float(body["dt"]))
    kwargs = {}
    if "threshold" in cfg:
        kwargs["threshold"] = float(cfg["threshold"])
    if "freq_window" in cfg:
        kwargs["freq_window"] = float(cfg["freq_window"])
    report = fourier_detect(series, site=site, **kwargs)
    pop_rows = [(t, c, series.cell_populations[i, c])
                for i, t in enumerate(series.times)
                for c in range(params.n_cells)]
    pop_path = out / "populations.csv"
    write_csv(pop_path, ["t_gamma", "cell", "population"], pop_rows)
    site_path = out / "site_series.csv"
    write_csv(site_path, ["t_gamma", "re_amplitude", "im_amplitude"],
              [(t, s.real, s.imag) for t, s in zip(series.times, series.states[:, site])])
    fourier_path = out / "fourier.csv"
    write_csv(fourier_path, ["freq_over_gamma", "magnitude"],
              list(zip(report.frequencies, report.magnitudes)))
    json_path = out / "evolve_summary.json"
    write_json(json_path, {
        "params": {k: float(body[k]) for k in ("v", "r", "gamma", "t_max", "dt")}
        | {"n_cells": int(body["n_cells"]), "excite_site": site},
        "zero_peak": report.zero_peak,
        "peak_ratio": report.peak_ratio,
    })
    files = [pop_path, site_path, fourier_path, json_path]
    if svg:
        svg_path = out / "fourier.svg"
        write_svg(svg_path, report.frequencies, [report.magnitudes])
        files.append(svg_path)
    return files


def cmd_sweep_phase(cfg: dict, out: Path, svg: bool = False) -> list[Path]:
    _check_keys(cfg, {"v", "r", "gamma", "k", "mode"},
                {"direction", "omega", "samples", "total_phase"}, "sweep-phase")
    params = LatticeParams(v=float(cfg["v"]), r=float(cfg["r"]),
                           gamma=float(cfg["gamma"]), n_cells=1,
                           boundary=Boundary.PERIODIC)
    direction = SweepDirection(cfg.get("direction", dynamics.DEFAULT_DIRECTION))
    # Keys left out of the config keep the library's defaults.
    opts = {key: conv(cfg[key]) for key, conv in
            (("omega", float), ("samples", int), ("total_phase", float)) if key in cfg}
    result = adiabatic_sweep(params, k=float(cfg["k"]), direction=direction,
                             mode=SweepMode(cfg["mode"]), **opts)
    json_path = out / "sweep_summary.json"
    write_json(json_path, {
        "params": {k: float(cfg[k]) for k in ("v", "r", "gamma", "k")},
        "mode": cfg["mode"],
        "direction": direction.value,
        "eps_enclosed": count_enclosed_eps(params),
        "initial_band": result.initial_band,
        "final_overlaps": result.final_overlaps,
    })
    return [json_path]


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
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's base seed (disorder only)")
    parser.add_argument("--svg", action="store_true",
                        help="also write simple SVG line plots")
    args = parser.parse_args(argv)
    out = Path(args.out)
    # Directories this run creates, deepest first; a failed run that wrote
    # nothing into them removes them again.
    created = [d for d in (out, *out.parents) if not d.exists()]
    try:
        if args.seed is not None and args.command != "disorder":
            raise ConfigError(f"--seed applies to disorder only, not {args.command}")
        cfg = load_config(args.config)
        out.mkdir(parents=True, exist_ok=True)
        seed = {} if args.seed is None else {"seed_override": args.seed}
        files = COMMANDS[args.command](cfg, out, svg=args.svg, **seed)
    except (NhlabError, ValueError, TypeError) as exc:  # TypeError: ill-typed config value
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
