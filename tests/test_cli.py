import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhlab import (ConfigError, DisorderConfig, DisorderTarget, LatticeParams,
                   build_real_space)
from nhlab.cli import (TRANSITION_TOL, cmd_disorder, cmd_spectrum, cmd_svd_scan,
                       cmd_winding, disorder_transition, load_config, main, write_csv,
                       write_json)

FIG2C_PARAM_SETS = [
    {"v": 0.3, "r": 0.18, "gamma": 1.0, "label": "zero_eps"},
    {"v": 0.3, "r": 0.3, "gamma": 1.0, "label": "one_ep"},
    {"v": 0.3, "r": 1.0, "gamma": 1.0, "label": "two_eps"},
]


def write_config(tmp_path, cfg, name="config.json"):
    cfg = {"schema_version": 1} | cfg
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def run(command, config_path, out_dir, *extra):
    return main([command, "--config", str(config_path), "--out", str(out_dir), *extra])


class TestConfigLoading:
    def test_missing_schema_version(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"v": 1.0}', encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"schema_version": 2}', encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_non_object_config(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unreadable_config(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")

    def test_round_trip_identity(self, tmp_path):
        cfg = {"schema_version": 1, "v": 0.5, "r": 0.5, "gamma": 1.0,
               "n_cells": 30, "boundary": "open", "v_grid": [0.5]}
        path = write_config(tmp_path, cfg)
        loaded = load_config(path)
        reserialized = tmp_path / "again.json"
        reserialized.write_text(json.dumps(loaded), encoding="utf-8")
        assert load_config(reserialized) == loaded

    def test_unknown_key_fails_closed(self, tmp_path):
        cfg = {"boundary": "open", "n_cells": 4, "r": 0.5, "gamma": 1.0,
               "v_grid": [0.5], "typo_key": 1}
        with pytest.raises(ConfigError, match="typo_key"):
            cmd_spectrum(cfg, tmp_path)

    def test_missing_key_reported(self, tmp_path):
        cfg = {"boundary": "open", "n_cells": 4, "gamma": 1.0, "v_grid": [0.5]}
        with pytest.raises(ConfigError, match="r"):
            cmd_spectrum(cfg, tmp_path)


def row_write_csv(path, header, rows):
    """The per-row writer write_csv replaced; the reference it must match byte for byte."""
    def fmt(x):
        if isinstance(x, (float, np.floating)):
            return format(float(x), ".17g")
        return str(x)

    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(x) for x in row])


CSV_CELLS = {
    "float": (st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 0.1, 1.7e308, -1.7e308]),
                        st.floats()), [float]),
    "int": (st.integers(-2**63, 2**63 - 1), [np.int64]),
    "side": (st.sampled_from(["left", "right", "delocalized", ""]), [object, str]),
}


@st.composite
def csv_columns(draw):
    # csv quotes a row that is a single empty field; every table the CLI
    # writes has two or more columns.
    n_rows = draw(st.integers(0, 20))
    kinds = draw(st.lists(st.sampled_from(sorted(CSV_CELLS)), min_size=2, max_size=6))
    columns = {}
    for i, kind in enumerate(kinds):
        cells, dtypes = CSV_CELLS[kind]
        values = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
        columns[f"{kind}_{i}"] = np.array(values, dtype=draw(st.sampled_from(dtypes)))
    return columns


class TestWriteCsv:
    @given(csv_columns())
    @settings(max_examples=200, deadline=None)
    def test_matches_row_writer_byte_for_byte(self, tmp_path_factory, columns):
        out = tmp_path_factory.mktemp("csv")
        write_csv(out / "columns.csv", columns)
        row_write_csv(out / "rows.csv", list(columns), zip(*columns.values()))
        assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()


class TestSpectrum:
    def _config(self, boundary, v_grid):
        return {"boundary": boundary, "n_cells": 30, "r": 0.5, "gamma": 1.0,
                "v_grid": v_grid}

    def test_periodic_row_count(self, tmp_path):
        grid = {"start": 0.0, "stop": 2.0, "num": 21}
        cmd_spectrum(self._config("periodic", grid), tmp_path)
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "v_over_gamma,index,re_E_over_gamma,im_E_over_gamma"
        assert len(lines) == 1 + 21 * 60  # 60 eigenvalue rows per v

    def test_open_zero_mode_flags(self, tmp_path):
        cmd_spectrum(self._config("open", [0.5, 1.5]), tmp_path)
        tracks = json.loads((tmp_path / "zero_modes.json").read_text())["tracks"]
        by_v = {t["v"]: t for t in tracks}
        assert by_v[0.5]["zero_mode_present"]
        assert by_v[0.5]["side"] == "left"
        assert by_v[0.5]["defective"]
        assert not by_v[1.5]["zero_mode_present"]

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_spectrum(self._config("open", []), tmp_path)

    def test_csv_floats_round_trip_exactly(self, tmp_path):
        cmd_spectrum(self._config("periodic", [0.7]), tmp_path)
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
        p = LatticeParams(v=0.7, r=0.5, gamma=1.0, n_cells=30, boundary="periodic")
        w = np.sort_complex(np.linalg.eigvals(build_real_space(p)))
        for line, e in zip(lines, w):
            _, _, re_s, im_s = line.split(",")
            assert float(re_s) == e.real  # 17 significant digits: bit-exact
            assert float(im_s) == e.imag

    def test_lf_line_endings(self, tmp_path):
        cmd_spectrum(self._config("open", [0.5]), tmp_path)
        raw = (tmp_path / "spectrum.csv").read_bytes()
        assert b"\r" not in raw


class TestWinding:
    def test_figure_sets_summary(self, tmp_path):
        cfg = {"param_sets": FIG2C_PARAM_SETS, "samples": 2001}
        cmd_winding(cfg, tmp_path)
        results = json.loads((tmp_path / "winding_summary.json").read_text())["results"]
        assert [r["winding"] for r in results] == [0.0, 0.5, 1.0]
        assert [r["closure_period"] for r in results] == ["2pi", "4pi", "2pi"]
        assert [r["eps_enclosed"] for r in results] == [0, 1, 2]

    def test_trajectory_csv_rows(self, tmp_path):
        cfg = {"param_sets": [FIG2C_PARAM_SETS[0]], "samples": 801}
        cmd_winding(cfg, tmp_path)
        lines = (tmp_path / "winding_0.csv").read_text().splitlines()
        assert lines[0] == "k,sigma_x_expect,sigma_z_expect"
        assert len(lines) == 1 + 801

    def test_hermitian_case(self, tmp_path):
        cfg = {"param_sets": [{"v": 0.3, "r": 1.0, "gamma": 0.0}], "samples": 2001}
        cmd_winding(cfg, tmp_path)
        results = json.loads((tmp_path / "winding_summary.json").read_text())["results"]
        assert results[0]["winding"] == 1.0

    def test_empty_param_sets_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_winding({"param_sets": []}, tmp_path)


class TestDisorder:
    def _config(self, **over):
        return {"n_cells": 10, "r": 0.5, "v": 0.5, "gamma": 1.0,
                "targets": ["v"], "d_grid": [0.0, 0.3, 0.8], "n_seeds": 3,
                "seed": 0} | over

    def test_d_zero_equals_clean_spectrum(self, tmp_path):
        cmd_disorder(self._config(), tmp_path)
        lines = (tmp_path / "disorder_v.csv").read_text().splitlines()[1:]
        rows = [line.split(",") for line in lines if float(line.split(",")[0]) == 0.0]
        got = np.array([complex(float(r[2]), float(r[3])) for r in rows])
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=10)
        clean = np.sort_complex(np.linalg.eigvals(build_real_space(p)))
        np.testing.assert_array_equal(got, clean)

    def test_summary_structure(self, tmp_path):
        cmd_disorder(self._config(), tmp_path)
        summary = json.loads((tmp_path / "disorder_summary.json").read_text())
        entry = summary["targets"]["v"]
        assert len(entry["per_seed_transitions"]) == 3
        assert summary["n_seeds"] == 3
        assert summary["base_seed"] == 0
        # seed 0 comes from the CSV sweep, the others from disorder_transition
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=10)
        assert entry["per_seed_transitions"] == [
            disorder_transition(p, DisorderTarget.HOPPING_V, np.array([0.0, 0.3, 0.8]), seed)
            for seed in range(3)]
        cmd_disorder(self._config(n_seeds=0), tmp_path)
        summary = json.loads((tmp_path / "disorder_summary.json").read_text())
        assert summary["targets"]["v"]["per_seed_transitions"] == []

    def test_r_disorder_never_splits(self, tmp_path):
        cmd_disorder(self._config(targets=["r"], d_grid=[0.5, 1.0]), tmp_path)
        summary = json.loads((tmp_path / "disorder_summary.json").read_text())
        entry = summary["targets"]["r"]
        assert entry["per_seed_transitions"] == [None, None, None]
        assert entry["n_surviving_full_grid"] == 3

    def test_seed_override_changes_output(self, tmp_path):
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        for out in (out1, out2, out3):
            out.mkdir()
        cfg_path = write_config(tmp_path, self._config(d_grid=[0.3]))
        assert run("disorder", cfg_path, out1) == 0
        assert run("disorder", cfg_path, out2, "--seed", "5") == 0
        assert run("disorder", cfg_path, out3) == 0
        a = (out1 / "disorder_v.csv").read_bytes()
        b = (out2 / "disorder_v.csv").read_bytes()
        c = (out3 / "disorder_v.csv").read_bytes()
        assert a != b
        assert a == c  # determinism: same config + seed, byte-identical

    def test_unknown_target_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_disorder(self._config(targets=["bogus"]), tmp_path)

    def test_unknown_target_rejected_before_any_sweep(self, tmp_path):
        with pytest.raises(ConfigError, match="bogus"):
            cmd_disorder(self._config(targets=["v", "bogus"]), tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target", [DisorderTarget.HOPPING_V, DisorderTarget.GAIN_LOSS])
    def test_transition_matches_complex_solves(self, target):
        # Each d: fresh draws and min |E| from complex LAPACK on H itself.
        params = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=30)
        d_grid = np.round(np.arange(0.05, 2.01, 0.05), 10)

        def reference(seed):
            for d in d_grid:
                dis = DisorderConfig.from_seed(target, float(d), seed, 30)
                w = np.linalg.eigvals(build_real_space(params, disorder=dis))
                if np.abs(w).min() > TRANSITION_TOL:
                    return float(d)
            return None

        for seed in range(20):
            assert disorder_transition(params, target, d_grid, seed) == reference(seed)


class TestSvdScan:
    def test_n1_matches_closed_form(self, tmp_path):
        # open 2x2 chain: singular values are |v - gamma/2| and |v + gamma/2|
        cfg = {"n_list": [1], "v_grid": [0.1, 0.5, 0.9, 1.4], "r": 0.5, "gamma": 1.0}
        cmd_svd_scan(cfg, tmp_path)
        lines = (tmp_path / "svd_scan.csv").read_text().splitlines()
        assert lines[0] == "N,v_over_gamma,sigma_min,sigma_2nd"
        for line in lines[1:]:
            _, v_s, s0, s1 = line.split(",")
            v = float(v_s)
            expected = sorted([abs(v - 0.5), abs(v + 0.5)])
            assert float(s0) == pytest.approx(expected[0], abs=1e-14)
            assert float(s1) == pytest.approx(expected[1], abs=1e-14)

    def test_defective_point_floor(self, tmp_path):
        cfg = {"n_list": [20], "v_grid": [0.5], "r": 0.5, "gamma": 1.0}
        cmd_svd_scan(cfg, tmp_path)
        line = (tmp_path / "svd_scan.csv").read_text().splitlines()[1]
        assert float(line.split(",")[2]) < 1e-12

    def test_empty_n_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_svd_scan({"n_list": [], "v_grid": [0.5], "r": 0.5, "gamma": 1.0},
                         tmp_path)


class TestEvolve:
    @pytest.mark.parametrize("preset,expected", [("zero-mode-present", True),
                                                 ("zero-mode-absent", False)])
    def test_presets(self, tmp_path, preset, expected):
        cfg_path = write_config(tmp_path, {"preset": preset})
        out = tmp_path / "out"
        assert run("evolve", cfg_path, out) == 0
        summary = json.loads((out / "evolve_summary.json").read_text())
        assert summary["zero_peak"] is expected
        for name in ("populations.csv", "site_series.csv", "fourier.csv"):
            assert (out / name).exists()

    def test_unknown_preset(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"preset": "nope"})
        assert run("evolve", cfg_path, tmp_path / "out") == 2
        assert "unknown preset" in capsys.readouterr().err

    @pytest.mark.parametrize("site", [99, -1, 10])
    def test_excite_site_out_of_range(self, tmp_path, capsys, site):
        # the preset chain has N = 5 cells, so sites 0..9
        cfg_path = write_config(tmp_path, {"preset": "zero-mode-present",
                                           "excite_site": site})
        assert run("evolve", cfg_path, tmp_path / "out") == 2
        assert "excite_site" in capsys.readouterr().err


class TestSweepPhase:
    def test_one_ep_transport(self, tmp_path):
        cfg_path = write_config(tmp_path, {"v": 0.3, "r": 0.3, "gamma": 1.0,
                                           "k": 0.0, "mode": "transport",
                                           "samples": 2001})
        out = tmp_path / "out"
        assert run("sweep-phase", cfg_path, out) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["eps_enclosed"] == 1
        assert summary["initial_band"] == "minus"
        assert summary["final_overlaps"]["plus"] > 1 - 1e-6

    @pytest.mark.parametrize("mode,samples", [("dynamical", 1), ("transport", 1),
                                              ("transport", 399)])
    def test_too_few_samples_rejected(self, tmp_path, capsys, mode, samples):
        cfg_path = write_config(tmp_path, {"v": 0.3, "r": 0.3, "gamma": 1.0,
                                           "k": 0.0, "mode": mode,
                                           "samples": samples})
        assert run("sweep-phase", cfg_path, tmp_path / "out") == 2
        assert "samples" in capsys.readouterr().err

    def test_too_slow_dynamical_sweep_rejected(self, tmp_path, capsys):
        # At omega 1e-6 one of the 4000 steps has ||H_k||_1 dt of about 1700.
        cfg_path = write_config(tmp_path, {"v": 0.3, "r": 0.3, "gamma": 1.0,
                                           "k": 0.0, "mode": "dynamical",
                                           "omega": 1e-6})
        assert run("sweep-phase", cfg_path, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "exceeds cap" in err and "substeps" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("omega", [1e-3, 1e-4])
    def test_slow_dynamical_sweep_stays_finite(self, tmp_path, omega):
        # A slow sweep amplifies the state over a long time; it must not overflow.
        cfg_path = write_config(tmp_path, {"v": 0.3, "r": 0.3, "gamma": 1.0,
                                           "k": 0.0, "mode": "dynamical",
                                           "omega": omega})
        out = tmp_path / "out"
        assert run("sweep-phase", cfg_path, out) == 0
        w = json.loads((out / "sweep_summary.json").read_text())["final_overlaps"]
        assert np.all(np.isfinite([w["plus"], w["minus"]]))
        assert w["plus"] ** 2 + w["minus"] ** 2 == pytest.approx(1.0, abs=1e-12)


SPECTRUM_CFG = {"boundary": "open", "n_cells": 4, "r": 0.5, "gamma": 1.0, "v_grid": [0.5]}
DISORDER_CFG = {"n_cells": 4, "r": 0.5, "v": 0.5, "gamma": 1.0, "targets": ["v"],
                "d_grid": [0.3], "n_seeds": 2}
SVD_SCAN_CFG = {"n_list": [2, 3], "v_grid": [0.0, 0.5, 1.0], "r": 0.5, "gamma": 1.0}
SWEEP_CFG = {"v": 0.3, "r": 0.3, "gamma": 1.0, "k": 0.0, "mode": "transport"}


class TestMainPlumbing:
    def test_bad_config_path_exits_2(self, tmp_path, capsys):
        assert run("spectrum", tmp_path / "missing.json", tmp_path / "out") == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,cfg,extra,key", [
        ("spectrum", SPECTRUM_CFG | {"n_cells": None}, (), "spectrum.n_cells"),
        ("spectrum", SPECTRUM_CFG | {"v_grid": {"start": 0.0, "stop": 1.0, "num": "3"}}, (),
         "spectrum.v_grid.num"),
        ("winding", {"param_sets": [1]}, (), "winding.param_sets[0]"),
        ("disorder", DISORDER_CFG | {"n_seeds": -3}, (), "n_seeds"),
        ("disorder", DISORDER_CFG | {"targets": "v"}, (), "targets"),
        ("disorder", DISORDER_CFG | {"targets": []}, (), "targets"),
        ("spectrum", SPECTRUM_CFG, ("--seed", "5"), "--seed"),
        # Integer keys refuse floats and bools rather than truncating them.
        ("spectrum", SPECTRUM_CFG | {"n_cells": 2.7}, (), "spectrum.n_cells"),
        ("spectrum", SPECTRUM_CFG | {"n_cells": True}, (), "spectrum.n_cells"),
        ("disorder", DISORDER_CFG | {"n_seeds": 2.5}, (), "disorder.n_seeds"),
        ("disorder", DISORDER_CFG | {"seed": 1.9}, (), "disorder.seed"),
        ("winding", {"param_sets": [FIG2C_PARAM_SETS[0]], "samples": 2000.9}, (),
         "winding.samples"),
        ("evolve", {"preset": "zero-mode-present", "excite_site": 1.5}, (),
         "evolve.excite_site"),
        ("spectrum", SPECTRUM_CFG | {"v_grid": {"start": 0.0, "stop": 1.0, "num": 2.5}}, (),
         "spectrum.v_grid.num"),
        ("svd-scan", SVD_SCAN_CFG | {"n_list": [2.5]}, (), "svd-scan.n_list[0]"),
        # Number keys refuse strings and non-finite values.
        ("spectrum", SPECTRUM_CFG | {"r": "0.5"}, (), "spectrum.r"),
        ("spectrum", SPECTRUM_CFG | {"v_grid": ["0.5"]}, (), "spectrum.v_grid[0]"),
        ("spectrum", SPECTRUM_CFG | {"zero_mode_tol": "1e-8"}, (), "spectrum.zero_mode_tol"),
        ("evolve", {"preset": "zero-mode-present", "threshold": float("nan")}, (),
         "evolve.threshold"),
        ("spectrum", SPECTRUM_CFG | {"zero_mode_tol": float("nan")}, (),
         "spectrum.zero_mode_tol"),
        ("disorder", DISORDER_CFG | {"transition_tol": float("nan")}, (),
         "disorder.transition_tol"),
        ("spectrum", SPECTRUM_CFG | {"r": 10 ** 400}, (), "spectrum.r"),
        # Enum-valued keys name the key too.
        ("spectrum", SPECTRUM_CFG | {"boundary": "closed"}, (), "spectrum.boundary"),
        ("sweep-phase", SWEEP_CFG | {"mode": "fast"}, (), "sweep-phase.mode"),
        ("sweep-phase", SWEEP_CFG | {"direction": "up"}, (), "sweep-phase.direction"),
        ("disorder", DISORDER_CFG | {"targets": ["v", ["v"]]}, (), "disorder.targets[1]"),
    ], ids=["null-n_cells", "string-num", "non-object-param-set", "negative-n_seeds",
            "string-targets", "empty-targets", "seed-outside-disorder",
            "float-n_cells", "bool-n_cells", "float-n_seeds", "float-seed", "float-samples",
            "float-excite_site", "float-num", "float-n_list", "string-r", "string-v_grid",
            "string-zero_mode_tol", "nan-threshold", "nan-zero_mode_tol",
            "nan-transition_tol", "huge-int-r", "unknown-boundary", "unknown-mode",
            "unknown-direction", "list-target"])
    def test_malformed_input_exits_2(self, tmp_path, capsys, command, cfg, extra, key):
        cfg_path = write_config(tmp_path, cfg)
        assert run(command, cfg_path, tmp_path / "out", *extra) == 2
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,cfg", [
        ("spectrum", SPECTRUM_CFG | {"n_cells": None}),
        ("disorder", DISORDER_CFG | {"targets": ["v", "bogus"]}),
        # The second hopping circle passes through the exceptional point at gamma/2.
        ("winding", {"param_sets": [{"v": 0.3, "r": 0.3, "gamma": 1.0},
                                    {"v": 0.3, "r": 0.2, "gamma": 1.0}]}),
    ], ids=["bad-value", "bad-second-target", "bad-second-param-set"])
    def test_rejected_run_leaves_no_directory(self, tmp_path, command, cfg):
        cfg_path = write_config(tmp_path, cfg)
        assert run(command, cfg_path, tmp_path / "new" / "out") == 2
        assert not (tmp_path / "new").exists()

    def test_rejected_run_keeps_existing_directory(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("x")
        cfg_path = write_config(tmp_path, SPECTRUM_CFG | {"n_cells": None})
        assert run("spectrum", cfg_path, out) == 2
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run("spectrum", cfg_path, empty) == 2
        assert empty.is_dir()

    def test_json_artifacts_reject_nan(self, tmp_path):
        with pytest.raises(ValueError):
            write_json(tmp_path / "x.json", {"x": float("nan")})

    def test_success_prints_artifacts(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"boundary": "open", "n_cells": 4,
                                           "r": 0.5, "gamma": 1.0, "v_grid": [0.5]})
        out = tmp_path / "out"
        assert run("spectrum", cfg_path, out) == 0
        printed = capsys.readouterr().out.splitlines()
        assert str(out / "spectrum.csv") in printed
        assert str(out / "zero_modes.json") in printed

    def test_byte_identical_determinism(self, tmp_path):
        cfg_path = write_config(tmp_path, {"boundary": "open", "n_cells": 10,
                                           "r": 0.5, "gamma": 1.0,
                                           "v_grid": {"start": 0.0, "stop": 2.0,
                                                      "num": 9}})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run("spectrum", cfg_path, out1) == 0
        assert run("spectrum", cfg_path, out2) == 0
        for name in ("spectrum.csv", "zero_modes.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("command,cfg,name,curves", [
        ("spectrum", SPECTRUM_CFG | {"v_grid": [0.0, 0.5, 1.0]}, "spectrum.svg", 8),
        ("svd-scan", SVD_SCAN_CFG, "svd_scan.svg", 2),
        ("winding", {"param_sets": [FIG2C_PARAM_SETS[1]], "samples": 401}, "winding_0.svg", 1),
        ("evolve", {"preset": "zero-mode-present"}, "fourier.svg", 1),
    ], ids=["spectrum", "svd-scan", "winding", "evolve"])
    def test_svg_flag(self, tmp_path, command, cfg, name, curves):
        out = tmp_path / "out"
        assert run(command, write_config(tmp_path, cfg), out, "--svg") == 0
        svg = (out / name).read_text()
        assert svg.startswith("<svg") and svg.count("<polyline") == curves
