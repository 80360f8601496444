import csv
import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhlab import (ConfigError, DisorderConfig, DisorderTarget, LatticeParams,
                   build_real_space, chain, chain_spectrum, edge_profile)
from nhlab import cli, spectra
from nhlab.cli import (TRANSITION_TOL, _grid, cmd_disorder, cmd_spectrum, cmd_svd_scan,
                       cmd_winding, disorder_transition, load_config, main, write_csv,
                       write_json, write_svg)
from nhlab.model import reduced_chain
from nhlab.spectra import ZERO_MODE_TOL, fix_phase

from conftest import dense_zero_mode

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


def template_write_csv(path, columns):
    """The one-template-per-row writer that run formatting replaced; the
    reference write_csv must match byte for byte."""
    fmt = ",".join("%.17g" if col.dtype.kind == "f" else "%s"
                   for col in columns.values()) + "\n"
    rows = zip(*(col.tolist() for col in columns.values()), strict=True)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(map(fmt.__mod__, rows))


@st.composite
def run_columns(draw):
    # Each column is a sequence of runs of one drawn cell, 1 to 12 rows
    # long, so some float columns pass the halving rule and some do not.
    n_rows = draw(st.sampled_from([0, 1]) | st.integers(2, 60))
    kinds = draw(st.lists(st.sampled_from(sorted(CSV_CELLS)), min_size=2, max_size=5))
    columns = {}
    for i, kind in enumerate(kinds):
        cells, dtypes = CSV_CELLS[kind]
        values = []
        while len(values) < n_rows:
            values += [draw(cells)] * draw(st.integers(1, 12))
        columns[f"{kind}_{i}"] = np.array(values[:n_rows], dtype=draw(st.sampled_from(dtypes)))
    return columns


class TestWriteCsv:
    @given(csv_columns())
    @settings(max_examples=200, deadline=None)
    def test_matches_row_writer_byte_for_byte(self, tmp_path_factory, columns):
        out = tmp_path_factory.mktemp("csv")
        write_csv(out / "columns.csv", columns)
        row_write_csv(out / "rows.csv", list(columns), zip(*columns.values()))
        assert (out / "columns.csv").read_bytes() == (out / "rows.csv").read_bytes()

    @given(run_columns())
    @example({"zero": np.array([0.0, 0.0, -0.0, -0.0, -0.0, 0.0]),
              "side": np.array(["left"] * 6, dtype=object)})
    @example({"edge": np.array([np.inf] * 3 + [5e-324] * 3 + [-np.inf, 2.5e-310]),
              "cell": np.arange(8)})
    @example({"empty": np.array([]), "side": np.array([], dtype=str)})
    @example({"one": np.array([-0.0]), "cell": np.array([7])})
    @settings(max_examples=300, deadline=None)
    def test_run_formatting_matches_template_writer(self, tmp_path_factory, columns):
        out = tmp_path_factory.mktemp("csv")
        write_csv(out / "runs.csv", columns)
        template_write_csv(out / "template.csv", columns)
        assert (out / "runs.csv").read_bytes() == (out / "template.csv").read_bytes()

    @pytest.mark.parametrize("write", [
        lambda path: write_csv(path, {"x": np.zeros(3), "n": np.arange(3)}),
        lambda path: write_json(path, {"x": 1}),
        lambda path: write_svg(path, [0.0, 1.0], [[1.0, 2.0]]),
    ], ids=["csv", "json", "svg"])
    def test_writers_replace_the_file_rather_than_truncate_it(self, tmp_path, write):
        # A hard link keeps the old file's contents only if the writer
        # unlinks the artifact and writes a new file in its place.
        path = tmp_path / "artifact"
        path.write_text("old contents\n" * 100)
        (tmp_path / "link").hardlink_to(path)
        write(path)
        write(tmp_path / "fresh")
        assert (tmp_path / "link").read_text() == "old contents\n" * 100
        assert path.read_bytes() == (tmp_path / "fresh").read_bytes()


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

    def test_open_flags_match_dense_eigvals_on_figure_grid(self, tmp_path):
        grid = {"start": 0.0, "stop": 2.0, "num": 81}
        cmd_spectrum(self._config("open", grid), tmp_path)
        tracks = json.loads((tmp_path / "zero_modes.json").read_text())["tracks"]
        want = []
        for v in np.linspace(0.0, 2.0, 81):
            # zero_mode_analysis itself takes the reduced hops of a clean
            # chain, so the reference solves H densely here.
            H = build_real_space(LatticeParams(v=float(v), r=0.5, gamma=1.0, n_cells=30))
            zm = dense_zero_mode(H, ZERO_MODE_TOL)
            if zm is None:
                want.append({"v": float(v), "zero_mode_present": False})
            else:
                want.append({"v": float(v), "zero_mode_present": True,
                             "side": edge_profile(zm.u0).side, "defective": zm.defective})
        assert tracks == want
        assert sum(t.get("defective", False) for t in tracks) == 15

    def test_structurally_defective_point_n40(self, tmp_path):
        # At v = -gamma/2 every b_n = v + gamma/2 is 0: det H = 0 with a
        # one-dimensional null space, a defective zero pair. Dense eigvals(H)
        # scatters the pair here (algebraic count 1); chain_spectrum does not.
        cmd_spectrum(self._config("open", [-0.5]) | {"n_cells": 40}, tmp_path)
        tracks = json.loads((tmp_path / "zero_modes.json").read_text())["tracks"]
        assert tracks == [{"v": -0.5, "zero_mode_present": True, "side": "right",
                           "defective": True}]

    def test_open_run_makes_no_redundant_solves(self, tmp_path, monkeypatch):
        calls = {"eigvals": 0, "lstsq": 0, "svd_values": 0, "svd_full": 0, "bisect_index": 0}
        eigvals, lstsq, svd = np.linalg.eigvals, np.linalg.lstsq, np.linalg.svd
        bisect = spectra._bisect

        def counted_bisect(off, select, *args, **kwargs):
            calls["bisect_index"] += select == 2
            return bisect(off, select, *args, **kwargs)

        def counted_eigvals(a):
            calls["eigvals"] += 1
            return eigvals(a)

        def counted_lstsq(*args, **kwargs):
            calls["lstsq"] += 1
            return lstsq(*args, **kwargs)

        def counted_svd(a, *args, compute_uv=True, **kwargs):
            calls["svd_full" if compute_uv else "svd_values"] += 1
            assert np.shape(a) == (30, 30)      # one N x N bidiagonal factor
            return svd(a, *args, compute_uv=compute_uv, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(spectra, "_bisect", counted_bisect)
        grid = np.linspace(0.0, 2.0, 81)
        cfg = write_config(tmp_path, self._config("open", grid.tolist()))
        assert run("spectrum", cfg, tmp_path / "out") == 0
        tracks = json.loads((tmp_path / "out" / "zero_modes.json").read_text())["tracks"]
        # chain_spectrum's one eigvals is for the non-symmetric path, where
        # a_n b_n = v^2 - gamma^2/4 < 0; |v| >= gamma/2 takes eigvalsh_tridiagonal.
        # The singular values come from bisection on the reduced chain's
        # bidiagonal factors; only the side of a present mode takes an SVD,
        # of the N x N factor that holds sigma_min. Each point bisects one
        # eigenvalue by index, sigma_max: the factor that holds sigma_min
        # comes from the values below the cut, not from a second bisection.
        present = sum(t["zero_mode_present"] for t in tracks)
        assert present > 0
        assert calls == {"eigvals": int(np.sum(np.abs(grid) < 0.5)), "lstsq": 0,
                         "svd_values": 0, "svd_full": present, "bisect_index": len(grid)}

    def test_tied_factors_take_the_left_vector(self, tmp_path):
        # At v = 0, r = 1 the factors X and Y share their singular values,
        # and H's pseudo-null space is two-dimensional; the dense SVD's
        # vector was a rounding-dependent mix ("delocalized" at N = 30,
        # "right" at N = 40). X's vector, at the left edge, is taken.
        for n in (30, 40):
            cmd_spectrum(self._config("open", [0.0]) | {"n_cells": n, "r": 1.0}, tmp_path)
            tracks = json.loads((tmp_path / "zero_modes.json").read_text())["tracks"]
            assert tracks == [{"v": 0.0, "zero_mode_present": True, "side": "left",
                               "defective": False}]

    @pytest.mark.parametrize("boundary,v,want", [
        ("open", 0.0, {"v": 0.0, "zero_mode_present": True, "side": "delocalized",
                       "defective": False}),
        ("periodic", -0.5, {"v": -0.5, "zero_mode_present": True}),
    ])
    def test_zero_hamiltonian_has_a_zero_mode(self, tmp_path, boundary, v, want):
        # N = 1, gamma = 0 and v = 0 (open) or v = -r (periodic) give H = 0,
        # where every vector is a null vector. The single cell is both
        # edges, so the mode sits at neither.
        cmd_spectrum(self._config(boundary, [v]) | {"n_cells": 1, "gamma": 0.0}, tmp_path)
        rows = list(csv.DictReader((tmp_path / "spectrum.csv").read_text().splitlines()))
        assert [float(r["re_E_over_gamma"]) for r in rows] == [0.0, 0.0]
        tracks = json.loads((tmp_path / "zero_modes.json").read_text())["tracks"]
        assert tracks == [want]

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_spectrum(self._config("open", []), tmp_path)

    def test_csv_floats_round_trip_exactly(self, tmp_path):
        cmd_spectrum(self._config("periodic", [0.7]), tmp_path)
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()[1:]
        p = LatticeParams(v=0.7, r=0.5, gamma=1.0, n_cells=30, boundary="periodic")
        w = np.sort_complex(chain_spectrum(chain(p)))
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

    @pytest.mark.parametrize("ps", [
        {"v": 1.4808447034732346, "r": 1.252552825250444, "gamma": 0.4565823864455857},
        {"v": -1.085972496303503, "r": 1.148110314527169, "gamma": 0.1238723241370771},
    ], ids=["no-ep-read-as-one", "two-eps-read-as-three-halves"])
    def test_undecidable_sampling_exits_2(self, tmp_path, capsys, ps):
        # At 400 samples a step near an EP cannot be decided on either circle (the
        # first encloses no EP, the second two); guessing it gives 0.5 and 0.75.
        out = tmp_path / "new" / "out"
        assert run("winding", write_config(tmp_path, {"param_sets": [ps], "samples": 400}),
                   out) == 2
        err = capsys.readouterr().err
        assert "refine sampling" in err and "Traceback" not in err
        assert not (tmp_path / "new").exists()


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
        clean = np.sort_complex(chain_spectrum(chain(p)))
        np.testing.assert_array_equal(got, clean)

    def test_summary_structure(self, tmp_path):
        cmd_disorder(self._config(), tmp_path)
        summary = json.loads((tmp_path / "disorder_summary.json").read_text())
        entry = summary["targets"]["v"]
        assert len(entry["per_seed_transitions"]) == 3
        assert summary["n_seeds"] == 3
        assert summary["base_seed"] == 0
        # every seed, the CSV's base seed too, comes from disorder_transition
        p = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=10)
        assert entry["per_seed_transitions"] == disorder_transition(
            p, DisorderTarget.HOPPING_V, np.array([0.0, 0.3, 0.8]), [0, 1, 2])
        cmd_disorder(self._config(n_seeds=0), tmp_path)
        summary = json.loads((tmp_path / "disorder_summary.json").read_text())
        assert summary["targets"]["v"]["per_seed_transitions"] == []

    @pytest.mark.parametrize("target", ["v", "onsite"])
    def test_zero_hamiltonian_has_a_zero_mode(self, tmp_path, target):
        # At d = 0 the N = 1 chain with v = gamma = 0 is H = 0.
        cmd_disorder(self._config(n_cells=1, v=0.0, gamma=0.0, targets=[target],
                                  d_grid=[0.0], n_seeds=0), tmp_path)
        rows = list(csv.DictReader((tmp_path / f"disorder_{target}.csv").read_text().splitlines()))
        assert [(float(r["re_E_over_gamma"]), r["zero_mode_present"]) for r in rows] == \
            [(0.0, "1"), (0.0, "1")]

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

    @staticmethod
    def _dense_flags(params, name, d_grid, seed):
        """(zero_mode_present, zero_mode_side) of each grid point, from dense
        solves of H: min |E| of eigvals against norm(H, 2), and the side of
        H's own sigma_min right vector. eigvals(H) resolves a zero pair at
        the left edge (v > 0) and scatters one at the right edge (v < 0) to
        about 2e-4 ||H||_2 at N = 30; H^T has the same spectrum, with the
        edges of its vectors swapped, so v < 0 takes eigvals(H^T)."""
        flags = []
        for d in d_grid:
            dis = DisorderConfig.from_seed(DisorderTarget(name), d, seed, params.n_cells)
            H = build_real_space(params, disorder=dis)
            w = np.linalg.eigvals(H if params.v > 0 else H.T)
            present = np.abs(w).min() < ZERO_MODE_TOL * np.linalg.norm(H, 2)
            side = ""
            if present:
                _, _, vh = np.linalg.svd(H)
                side = edge_profile(fix_phase(vh[-1].conj())).side
            flags.append((str(int(present)), side))
        return flags

    def test_zero_mode_flags_match_dense_reference(self, tmp_path):
        # The CSV takes ||H||_2 from chain_norm and the side from u0 of
        # zero_mode_analysis on the chain's form; the reference solves and
        # decomposes H itself at every grid point. v = 0.5 puts the mode in
        # X's null space, at the left edge, and v = -0.5 in Y's, at the
        # right. onsite at v = -0.5 is test_onsite_flags_at_the_right_edge.
        d_grid = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0]
        sides = set()
        for v, targets in ((0.5, ["r", "v", "gamma", "onsite"]), (-0.5, ["r", "v", "gamma"])):
            params = LatticeParams(v=v, r=0.5, gamma=1.0, n_cells=30)
            for seed in range(20):
                cmd_disorder(self._config(n_cells=30, v=v, targets=targets, d_grid=d_grid,
                                          n_seeds=0, seed=seed), tmp_path)
                for name in targets:
                    with open(tmp_path / f"disorder_{name}.csv", encoding="utf-8") as fh:
                        rows = list(csv.DictReader(fh))[::params.dim]
                    want = self._dense_flags(params, name, d_grid, seed)
                    assert [(r["zero_mode_present"], r["zero_mode_side"]) for r in rows] == want
                    sides |= {(v, side) for _, side in want if side}
        assert sides == {(0.5, "left"), (-0.5, "right")}

    @pytest.mark.xfail(reason=(
        "ROADMAP item 2: on-site disorder does not reduce, so the CSV takes "
        "eigvals(H) even at d = 0, which scatters the right-edge zero pair "
        "of v = -gamma/2 to 1.6e-4 ||H||_2 and reports no mode."))
    def test_onsite_flags_at_the_right_edge(self, tmp_path):
        params = LatticeParams(v=-0.5, r=0.5, gamma=1.0, n_cells=30)
        d_grid = [0.0, 0.05, 0.3]
        for seed in range(3):
            cmd_disorder(self._config(n_cells=30, v=-0.5, targets=["onsite"], d_grid=d_grid,
                                      n_seeds=0, seed=seed), tmp_path)
            with open(tmp_path / "disorder_onsite.csv", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))[::params.dim]
            assert ([(r["zero_mode_present"], r["zero_mode_side"]) for r in rows]
                    == self._dense_flags(params, "onsite", d_grid, seed))

    def test_no_dense_svd_where_the_chain_reduces(self, tmp_path, monkeypatch):
        # r, v and gamma chains take sigma_max and the zero mode's side from
        # the N x N bidiagonal factors. onsite disorder takes norm(H, 2) and,
        # where a mode is present, zero_mode_analysis's values-only SVD of H
        # and then its full SVD; at d = 0 the chain is clean, and
        # zero_mode_analysis solves it on its hops.
        calls = []
        svd, norm = np.linalg.svd, np.linalg.norm

        def counted_svd(a, *args, **kwargs):
            calls.append(("svd", np.shape(a)))
            return svd(a, *args, **kwargs)

        def counted_norm(x, ord=None, *args, **kwargs):
            calls.append(("norm", np.shape(x), ord))
            return norm(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        d_grid = [0.0, 1e-9, 0.05, 0.3, 1.0]
        for name in ("r", "v", "gamma", "onsite"):
            calls.clear()
            cmd_disorder(self._config(n_cells=30, targets=[name], d_grid=d_grid, n_seeds=0),
                         tmp_path)
            with open(tmp_path / f"disorder_{name}.csv", encoding="utf-8") as fh:
                present = sum(r["zero_mode_present"] == "1"
                              for r in list(csv.DictReader(fh))[::60])
            dense = [c for c in calls if c[1] == (60, 60)]
            assert present >= 1
            if name == "onsite":
                assert present >= 2
                assert sorted(dense) == sorted([("norm", (60, 60), 2)] * len(d_grid)
                                               + [("svd", (60, 60))] * 2 * (present - 1))
                assert [c for c in calls if c[0] == "svd" and c[1] != (60, 60)] == [
                    ("svd", (30, 30))]
            else:
                assert dense == [] and [c for c in calls if c[0] == "svd"] == (
                    [("svd", (30, 30))] * present)

    def test_one_form_per_grid_point(self, tmp_path, monkeypatch):
        # onsite builds H once per grid point, and r, v and gamma reduce
        # once per grid point; n_seeds = 0 leaves the transition search
        # nothing to build. Where an onsite mode is present,
        # zero_mode_analysis's exact test for a clean chain (_reduced)
        # builds H once more.
        calls = []
        for name in ("build_real_space", "reduced_chain"):
            real = getattr(spectra, name)
            monkeypatch.setattr(spectra, name, lambda *a, _f=real, _n=name, **k:
                                calls.append(_n) or _f(*a, **k))
        d_grid = np.linspace(0.0, 2.0, 31).tolist()
        for target, built in (("onsite", "build_real_space"), ("r", "reduced_chain"),
                              ("v", "reduced_chain"), ("gamma", "reduced_chain")):
            calls.clear()
            cmd_disorder(self._config(n_cells=30, targets=[target], d_grid=d_grid, n_seeds=0),
                         tmp_path)
            with open(tmp_path / f"disorder_{target}.csv", encoding="utf-8") as fh:
                present = sum(r["zero_mode_present"] == "1"
                              for r in list(csv.DictReader(fh))[::60])
            assert present >= 1
            assert calls.count(built) == 31 + (present if target == "onsite" else 0)
            assert target == "onsite" or "build_real_space" not in calls

    def test_bisects_below_the_cut_only_where_a_mode_is_present(self, tmp_path, monkeypatch):
        # The CSV reads ||H||_2 at every grid point and, where a mode is
        # present, its side from zero_mode_analysis, which bisects each
        # factor for its singular values below the cut (select 1).
        selects, bisect = [], spectra._bisect

        def counted_bisect(off, select, *args, **kwargs):
            selects.append(select)
            return bisect(off, select, *args, **kwargs)

        monkeypatch.setattr(spectra, "_bisect", counted_bisect)
        targets = ["r", "v", "gamma"]
        cmd_disorder(self._config(n_cells=30, targets=targets,
                                  d_grid=[0.0, 0.05, 0.3, 1.0], n_seeds=0), tmp_path)
        present = 0
        for name in targets:
            with open(tmp_path / f"disorder_{name}.csv", encoding="utf-8") as fh:
                present += sum(r["zero_mode_present"] == "1"
                               for r in list(csv.DictReader(fh))[::60])
        assert 0 < present < 12
        assert selects.count(1) == 2 * present

    @pytest.mark.parametrize("target", [DisorderTarget.HOPPING_R, DisorderTarget.HOPPING_V,
                                        DisorderTarget.GAIN_LOSS, DisorderTarget.ON_SITE])
    def test_transition_matches_complex_solves(self, target):
        # Each d: fresh draws and min |E| from complex LAPACK on H itself.
        params = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=30)
        d_grid = np.round(np.arange(0.05, 2.01, 0.05), 10)
        assert disorder_transition(params, target, d_grid, range(20)) == [
            dense_transition(params, target, d_grid, seed) for seed in range(20)]

    @pytest.mark.parametrize("n_cells", [1, 2])
    def test_short_chains_and_no_seeds(self, n_cells):
        params = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=n_cells)
        d_grid = np.array([0.0, 0.3, 0.8, 1.5])
        for target in DisorderTarget:
            assert disorder_transition(params, target, d_grid, []) == []
            assert disorder_transition(params, target, d_grid, range(5)) == [
                dense_transition(params, target, d_grid, seed) for seed in range(5)]

    def test_r_target_at_v_half_makes_no_eigvals_call(self, monkeypatch):
        # v = gamma/2 makes every a_n zero, so every seed's min |E| is
        # exactly 0.0, settled for the whole stack with nothing to solve.
        shapes, eigvals = [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(np.shape(a)) or eigvals(a))
        params = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=30)
        d_grid = np.round(np.arange(0.05, 2.01, 0.05), 10)
        assert disorder_transition(params, DisorderTarget.HOPPING_R, d_grid,
                                   range(20)) == [None] * 20
        assert shapes == []

    def test_v_search_makes_one_stacked_call_per_grid_point(self, monkeypatch):
        # Each grid point visited solves the seeds not yet split that the
        # trace bound leaves open, all in one (k, N, N) call (one seed
        # alone as (N, N)), and a point with none makes no call; the search
        # stops at the last seed's transition.
        shapes, eigvals = [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: shapes.append(np.shape(a)) or eigvals(a))
        params = LatticeParams(v=0.5, r=0.5, gamma=1.0, n_cells=30)
        d_grid = np.round(np.arange(0.05, 2.01, 0.05), 10)
        found = disorder_transition(params, DisorderTarget.HOPPING_V, d_grid, range(20))
        assert None not in found and max(found) < d_grid[-1]
        undecided = [sum(t >= d and not trace_bound_settles(params, DisorderTarget.HOPPING_V,
                                                            d, seed, TRANSITION_TOL)
                         for seed, t in enumerate(found))
                     for d in d_grid if d <= max(found)]
        assert 0 in undecided and undecided[-1] >= 1
        assert shapes == [(k, 30, 30) if k > 1 else (30, 30) for k in undecided if k]

    def test_bound_solves_fewer_rows_than_every_live_seed(self, tmp_path, monkeypatch):
        # scripts/disorder_scan.py's config at seeds 0-19. Solving every
        # seed not yet split hands eigvals 442 matrices, CSV sweep included;
        # the trace bound leaves most of them out, with the same files.
        cfg = {"n_cells": 30, "r": 0.5, "v": 0.5, "gamma": 1.0,
               "targets": ["r", "v", "gamma"],
               "d_grid": {"start": 0.05, "stop": 2.0, "num": 40}, "n_seeds": 20, "seed": 0}
        counts, eigvals = [], np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda a: counts.append(len(a) if np.ndim(a) == 3 else 1) or eigvals(a))
        bound, every = tmp_path / "bound", tmp_path / "every"
        bound.mkdir()
        every.mkdir()
        cmd_disorder(cfg, bound)
        with_bound = sum(counts)
        counts.clear()
        monkeypatch.setattr(spectra, "zero_mode_split", lambda params, dis, tol:
                            spectra.smallest_abs_eigenvalue(params, dis) > tol)
        cmd_disorder(cfg, every)
        assert sum(counts) == 442 and with_bound < 442
        for path in every.iterdir():
            assert (bound / path.name).read_bytes() == path.read_bytes()


def trace_bound_settles(params, target, d, seed, tol):
    """Whether |trace K| / N, less 2 N^2 eps ||K||_F, shows min |E| <= tol
    for K = Y^-1 X^-1 of one seed's reduced chain."""
    dis = DisorderConfig.from_seed(target, float(d), seed, params.n_cells)
    a, b, r = reduced_chain(params, dis)
    n = params.n_cells
    x = -np.diag(a) - np.diag(r, 1)
    y = np.diag(b) + np.diag(r, -1)
    k = (scipy.linalg.solve_triangular(y, np.eye(n), lower=True)
         @ scipy.linalg.solve_triangular(x, np.eye(n)))
    bound = (abs(np.trace(k)) - 2 * n ** 2 * np.finfo(float).eps * np.linalg.norm(k)) / n
    return bool(bound > 0 and 1.0 / np.sqrt(bound) <= tol)


def dense_transition(params, target, d_grid, seed):
    """The first d of d_grid with min |eigvals(H)| > TRANSITION_TOL, each
    d with fresh draws and a dense complex solve; None if there is none."""
    for d in d_grid:
        dis = DisorderConfig.from_seed(target, float(d), seed, params.n_cells)
        w = np.linalg.eigvals(build_real_space(params, disorder=dis))
        if np.abs(w).min() > TRANSITION_TOL:
            return float(d)
    return None


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

    # The figure config, then signed zeros, negative and tiny v, gamma = 0
    # and N = 1 (no bond).
    SCANS = [
        {"n_list": [10, 20, 30], "v_grid": {"start": 0.0, "stop": 2.0, "num": 201},
         "r": 0.5, "gamma": 1.0},
        {"n_list": [1, 4], "v_grid": [-0.0, 0.0, -2.5, -0.5, -1e-300, 5e-324, 0.5, 3.0],
         "r": 0.5, "gamma": 1.0},
        {"n_list": [1, 3], "v_grid": [-0.0, 0.0, -0.7, 0.25, 1.5], "r": 0.7, "gamma": 0.0},
    ]

    @staticmethod
    def _points(cfg):
        v_grid = _grid(cfg["v_grid"], "v_grid")
        for n in cfg["n_list"]:
            for v in v_grid:
                yield build_real_space(LatticeParams(v=float(v), r=cfg["r"],
                                                     gamma=cfg["gamma"], n_cells=n))

    @pytest.mark.parametrize("cfg", SCANS)
    def test_each_h_is_build_real_space_bit_for_bit(self, tmp_path, monkeypatch, cfg):
        solved = []
        svd = spectra.smallest_singular_values
        monkeypatch.setattr(spectra, "smallest_singular_values",
                            lambda H, count: solved.append(H.copy()) or svd(H, count))
        cmd_svd_scan(cfg, tmp_path)
        expected = list(self._points(cfg))
        assert len(solved) == len(expected)
        for got, want in zip(solved, expected):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cfg", SCANS)
    def test_csv_matches_per_point_loop(self, tmp_path, cfg):
        cmd_svd_scan(cfg, tmp_path)
        v_grid = _grid(cfg["v_grid"], "v_grid")
        sigma = np.array([spectra.smallest_singular_values(H, count=2)
                          for H in self._points(cfg)])
        template_write_csv(tmp_path / "loop.csv", {
            "N": np.repeat(cfg["n_list"], len(v_grid)),
            "v_over_gamma": np.tile(v_grid, len(cfg["n_list"])),
            "sigma_min": sigma[:, 0], "sigma_2nd": sigma[:, 1]})
        assert (tmp_path / "svd_scan.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    def test_two_builds_per_chain_length(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_real_space",
                            lambda params: built.append(params) or build_real_space(params))
        cmd_svd_scan(self.SCANS[0], tmp_path)
        assert [(p.n_cells, p.v) for p in built] == [(n, v) for n in (10, 20, 30)
                                                     for v in (0.0, 1.0)]


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

    def test_zero_hamiltonian_writes_null_peak_ratio(self, tmp_path):
        # H = 0 holds the amplitude constant, and 1024 samples take no zero
        # padding, so the FFT is exactly 0 off the zero bin: the window's
        # median is 0 and peak_ratio is inf, which JSON cannot hold.
        cfg_path = write_config(tmp_path, {"n_cells": 1, "v": 0.0, "r": 0.5, "gamma": 0.0,
                                           "t_max": 10.23, "dt": 0.01})
        out = tmp_path / "out"
        assert run("evolve", cfg_path, out) == 0
        summary = json.loads((out / "evolve_summary.json").read_text())
        assert summary["peak_ratio"] is None
        assert summary["zero_peak"] is True

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

    @pytest.mark.parametrize("t_max, dt", [(1e300, 1e-300), (-1.0, 0.01)])
    def test_step_count_must_be_finite_and_non_negative(self, tmp_path, capsys, t_max, dt):
        cfg_path = write_config(tmp_path, {"n_cells": 5, "v": 0.5, "r": 0.5, "gamma": 1.0,
                                           "t_max": t_max, "dt": dt})
        out = tmp_path / "out"
        assert run("evolve", cfg_path, out) == 2
        err = capsys.readouterr().err
        assert "t_max" in err and "dt" in err and "Traceback" not in err
        assert not out.exists()


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
        # Disorder strengths are magnitudes; the draws carry the sign.
        ("disorder", DISORDER_CFG | {"d_grid": [-0.3, 0.2]}, (), "disorder.d_grid"),
        ("disorder", DISORDER_CFG | {"d_grid": {"start": -0.5, "stop": 1.0, "num": 3}}, (),
         "disorder.d_grid"),
        # schema_version is the top-level integer 1 (True == 1.0 == 1 in
        # Python) and appears nowhere else.
        ("spectrum", SPECTRUM_CFG | {"schema_version": True}, (), "schema_version"),
        ("spectrum", SPECTRUM_CFG | {"schema_version": 1.0}, (), "schema_version"),
        ("winding", {"param_sets": [FIG2C_PARAM_SETS[1] | {"schema_version": 1}]}, (),
         "winding.param_sets[0]: unknown keys ['schema_version']"),
        ("spectrum", SPECTRUM_CFG | {"v_grid": {"start": 0.0, "stop": 1.0, "num": 3,
                                                "schema_version": 1}}, (),
         "spectrum.v_grid: unknown keys ['schema_version']"),
        # direction carries the sign of the sweep, so total_phase may not.
        ("sweep-phase", SWEEP_CFG | {"total_phase": -1.0}, (), "total_phase"),
        ("sweep-phase", SWEEP_CFG | {"mode": "dynamical", "total_phase": -1.0}, (),
         "total_phase"),
        # Tolerances outside their range would flip verdicts: zero_mode_tol
        # 0 reports the exact v = 0.5 mode absent, 5 reports v = 1.5 present.
        ("spectrum", SPECTRUM_CFG | {"zero_mode_tol": 0}, (), "spectrum.zero_mode_tol"),
        ("spectrum", SPECTRUM_CFG | {"zero_mode_tol": -1}, (), "spectrum.zero_mode_tol"),
        ("spectrum", SPECTRUM_CFG | {"zero_mode_tol": 1}, (), "spectrum.zero_mode_tol"),
        ("spectrum", SPECTRUM_CFG | {"zero_mode_tol": 5}, (), "spectrum.zero_mode_tol"),
        ("disorder", DISORDER_CFG | {"zero_mode_tol": 0.0}, (), "disorder.zero_mode_tol"),
        ("disorder", DISORDER_CFG | {"zero_mode_tol": 5.0}, (), "disorder.zero_mode_tol"),
        ("disorder", DISORDER_CFG | {"transition_tol": 0}, (), "disorder.transition_tol"),
        ("disorder", DISORDER_CFG | {"transition_tol": -1e-6}, (), "disorder.transition_tol"),
        ("evolve", {"preset": "zero-mode-present", "threshold": -1}, (), "evolve.threshold"),
        ("evolve", {"preset": "zero-mode-present", "threshold": 0}, (), "evolve.threshold"),
        ("evolve", {"preset": "zero-mode-present", "freq_window": -3}, (),
         "evolve.freq_window"),
        ("evolve", {"preset": "zero-mode-present", "freq_window": 0}, (),
         "evolve.freq_window"),
    ], ids=["null-n_cells", "string-num", "non-object-param-set", "negative-n_seeds",
            "string-targets", "empty-targets", "seed-outside-disorder",
            "float-n_cells", "bool-n_cells", "float-n_seeds", "float-seed", "float-samples",
            "float-excite_site", "float-num", "float-n_list", "string-r", "string-v_grid",
            "string-zero_mode_tol", "nan-threshold", "nan-zero_mode_tol",
            "nan-transition_tol", "huge-int-r", "unknown-boundary", "unknown-mode",
            "unknown-direction", "list-target", "negative-d_grid-list",
            "negative-d_grid-range", "bool-schema_version",
            "float-schema_version", "param-set-schema_version", "grid-schema_version",
            "negative-total_phase-transport", "negative-total_phase-dynamical",
            "zero-zero_mode_tol", "negative-zero_mode_tol", "one-zero_mode_tol",
            "five-zero_mode_tol", "zero-disorder-zero_mode_tol", "five-disorder-zero_mode_tol",
            "zero-transition_tol", "negative-transition_tol", "negative-threshold",
            "zero-threshold", "negative-freq_window", "zero-freq_window"])
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

    @pytest.mark.parametrize("command,cfg", [
        ("evolve", {"n_cells": 5, "v": 0.5, "r": 0.5, "gamma": 1.0, "t_max": 1e12,
                    "dt": 1e-3}),
        ("winding", {"param_sets": [FIG2C_PARAM_SETS[1]], "samples": 10 ** 15}),
        ("sweep-phase", SWEEP_CFG | {"samples": 10 ** 15}),
        # The seed stack of the first target is allocated before any file is written.
        ("disorder", DISORDER_CFG | {"targets": ["v", "gamma"], "n_seeds": 10 ** 15}),
    ], ids=["evolve", "winding", "sweep-phase", "disorder"])
    def test_unallocatable_size_exits_2(self, tmp_path, capsys, command, cfg):
        # Each run asks for an array of 1 PiB or more, beyond the 128 TiB x86-64
        # user address space, so the allocation fails at once on any host.
        out = tmp_path / "new" / "out"
        assert run(command, write_config(tmp_path, cfg), out) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "allocate" in err
        assert not (tmp_path / "new").exists()

    def test_count_beyond_index_range_exits_2(self, tmp_path, capsys):
        cfg = DISORDER_CFG | {"n_seeds": 2 ** 63}
        assert run("disorder", write_config(tmp_path, cfg), tmp_path / "new" / "out") == 2
        assert "error:" in capsys.readouterr().err
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
