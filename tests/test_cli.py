import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import confocal_opo
from confocal_opo import cli, errors, homodyne, iosolver, kernels, params
from confocal_opo.cli import main, parse_config, scenario_from_config
from confocal_opo.errors import ConfigurationError

GOOD_CONFIG = """\
# near-field pixel-pair scan
lambda_s = 1.064e-6
n_s = 2.12
l_c = 0.01
z_C = 0.05
A_p = 0.85
pump = gaussian
w_p = 2.4e-4
plane = near
detector = pixel_pair
sweep_min = 0.0
sweep_max = 3.2e-4
sweep_points = 5
"""
PLANE_NEAR_CONFIG = GOOD_CONFIG.replace("pump = gaussian\nw_p = 2.4e-4\n", "pump = plane\n").replace(
    "detector = pixel_pair", "detector = interval"
)
PLANE_FAR_RADIAL_CONFIG = PLANE_NEAR_CONFIG.replace("plane = near", "plane = far").replace(
    "detector = interval", "detector = radial"
)


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_curve(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# ")
    header = lines[1].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
    return header, rows


class TestConfigParsing:
    def test_valid_config(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, GOOD_CONFIG))
        assert cfg["pump"] == "gaussian"
        assert cfg["sweep_points"] == 5
        sc = scenario_from_config(cfg)
        assert sc.plane == "near"
        assert sc.pixel_width is not None  # defaulted to the coherence length

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG + "wavelength = 1\n")
        with pytest.raises(ConfigurationError, match="wavelength"):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG + "A_p = 0.2\n")
        with pytest.raises(ConfigurationError, match="A_p"):
            parse_config(path)

    def test_bad_number(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG.replace("0.85", "lots"))
        with pytest.raises(ConfigurationError, match="A_p"):
            parse_config(path)

    def test_missing_required_key(self, tmp_path):
        text = GOOD_CONFIG.replace("plane = near\n", "")
        with pytest.raises(ConfigurationError, match="plane"):
            scenario_from_config(parse_config(write_config(tmp_path, text)))

    def test_sweep_validation(self, tmp_path):
        text = GOOD_CONFIG.replace("sweep_points = 5", "sweep_points = 1")
        with pytest.raises(ConfigurationError, match="sweep_points"):
            scenario_from_config(parse_config(write_config(tmp_path, text)))


class TestRunCommand:
    def test_successful_run(self, tmp_path):
        cfg = write_config(tmp_path, GOOD_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_curve(out / "curve.csv")
        assert header == ["abscissa", "vn_squeezed", "vn_antisqueezed", "shot"]
        assert rows.shape == (5, 4)
        assert np.all(rows[:, 1] > 0)
        summary = (out / "summary.txt").read_text()
        for token in ("l_coh", "b =", "r0", "threshold_margin"):
            assert token in summary

    def test_far_field_run_and_abscissa_scaling(self, tmp_path):
        text = GOOD_CONFIG.replace("plane = near", "plane = far").replace(
            "detector = pixel_pair", "detector = interval"
        ).replace("sweep_min = 0.0", "sweep_min = 1e-5")
        cfg = write_config(tmp_path, text)
        out = tmp_path / "far"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_curve(out / "curve.csv")
        # abscissa is q w_p: value (m) -> q = 2 pi x / (lambda f), times w_p
        qx = 2 * math.pi / (1.064e-6 * 0.1)
        assert rows[0, 0] == pytest.approx(1e-5 * qx * 2.4e-4, rel=1e-10)

    def test_above_threshold_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GOOD_CONFIG.replace("A_p = 0.85", "A_p = 1.2"))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "A_p" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        # phi_lo is not a key: every run writes both quadratures
        for key in ("foo", "phi_lo"):
            cfg = write_config(tmp_path, GOOD_CONFIG + f"{key} = 1\n")
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
            assert code == 2
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("line,key", [
        ("grid_n = 1", "grid_n"), ("grid_n = 0", "grid_n"), ("grid_L = -1", "grid_L"),
        # refused before any grid is allocated
        ("grid_n = 1000000000", "grid_n"),
    ])
    def test_bad_grid_exits_2(self, tmp_path, capsys, line, key):
        cfg = write_config(tmp_path, GOOD_CONFIG + line + "\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"configuration error: key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("text,key,value", [
        (PLANE_NEAR_CONFIG, "sweep_max", "inf"),
        (PLANE_FAR_RADIAL_CONFIG, "sweep_max", "inf"),
        (GOOD_CONFIG, "sweep_min", "nan"),
        (GOOD_CONFIG, "pixel_width", "nan"),
        (GOOD_CONFIG, "A_p", "-inf"),
    ], ids=["plane-near-sweep_max", "plane-far-radial-sweep_max", "sweep_min",
            "pixel_width", "A_p"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, text, key, value):
        lines = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
        cfg = write_config(tmp_path, "\n".join(lines + [f"{key} = {value}"]) + "\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"configuration error: key '{key}': not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["grid_L = 1e5", "grid_n = 101", "grid_n = 101\ngrid_L = 1e5"],
                             ids=["grid_L", "grid_n", "both"])
    @pytest.mark.parametrize("detector", ["interval", "radial"])
    def test_plane_pump_far_ignores_grid_keys(self, tmp_path, grid, detector):
        # no plane-pump route uses a grid, so explicit grid keys leave the
        # closed-form far-field curve as it is
        text = PLANE_FAR_RADIAL_CONFIG.replace("detector = radial", f"detector = {detector}")
        text = text.replace("sweep_min = 0.0", "sweep_min = 1e-5")
        plain, gridded = tmp_path / "plain", tmp_path / "gridded"
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", str(cfg), "--out", str(plain)]) == 0
        cfg = write_config(tmp_path, text + grid + "\n", name="grid.cfg")
        assert main(["run", "--config", str(cfg), "--out", str(gridded)]) == 0
        assert (gridded / "curve.csv").read_bytes() == (plain / "curve.csv").read_bytes()

    def test_auto_grid_extent(self, tmp_path):
        # explicit grid size, half extent left to the sizing rule
        text = GOOD_CONFIG.replace("w_p = 2.4e-4", "w_p = 1e-4").replace(
            "sweep_max = 3.2e-4", "sweep_max = 1e-4"
        )
        cfg = write_config(tmp_path, text + "grid_n = 301\ngrid_L = auto\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_curve(out / "curve.csv")
        assert rows.shape == (5, 4) and np.all(np.isfinite(rows))

    def test_grid_L_alone_takes_n_from_sizing_rule(self, tmp_path, capsys):
        # grid_L without grid_n: the step rule on grid_L gives n = 401 here
        text = GOOD_CONFIG.replace("w_p = 2.4e-4", "w_p = 2e-4").replace(
            "detector = pixel_pair", "detector = interval"
        ).replace("sweep_max = 3.2e-4", "sweep_max = 0.4e-3")
        for name, grid in (("alone", "grid_L = 1e-3"), ("both", "grid_L = 1e-3\ngrid_n = 401")):
            cfg = write_config(tmp_path, text + grid + "\n", name=f"{name}.cfg")
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        alone = (tmp_path / "alone" / "curve.csv").read_bytes()
        assert alone == (tmp_path / "both" / "curve.csv").read_bytes()
        # an extent the sizing rule cannot serve within MAX_GRID_N points,
        # up to one whose point count overflows an integer
        for huge in ("1.0", "1.7e308"):
            cfg = write_config(tmp_path, text + f"grid_L = {huge}\n", name="huge.cfg")
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "huge")]) == 1
            assert "sizing rule demands" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        GOOD_CONFIG.replace("pixel_pair", "interval") + "lo_amplitude = 1e200\n",
        PLANE_NEAR_CONFIG + "omega_bar = 1e200\n",
        PLANE_FAR_RADIAL_CONFIG.replace("sweep_min = 0.0", "sweep_min = 1e-5")
        + "omega_bar = 1e200\n",
        GOOD_CONFIG + "omega_bar = 1e200\n",
    ], ids=["gaussian-lo_amplitude", "plane-omega_bar", "plane-far-omega_bar",
            "gaussian-omega_bar"])
    def test_non_finite_result_exits_1(self, tmp_path, text):
        # finite inputs that overflow inside a route or the solve's gate end
        # in a numerical failure, not in nan rows; the user's stderr is that
        # one line, with no numpy RuntimeWarning before it
        env = dict(os.environ, PYTHONPATH=str(Path(confocal_opo.__file__).parents[1]))
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "confocal_opo.cli", "run",
             "--config", str(write_config(tmp_path, text)), "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: "), proc.stderr
        assert not (out / "curve.csv").exists()

    @pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "out-under-file"])
    def test_unreadable_path_exits_2(self, tmp_path, case):
        # a path the CLI cannot read or write ends in one configuration
        # error line naming it, not in a traceback
        cfg = write_config(tmp_path, GOOD_CONFIG)
        out = tmp_path / "o"
        if case == "missing":
            cfg = tmp_path / "missing.cfg"
        elif case == "directory":
            cfg = tmp_path
        elif case == "not-utf8":
            cfg.write_bytes(GOOD_CONFIG.encode() + b"# \xff\n")
        else:
            out = cfg / "x"
        env = dict(os.environ, PYTHONPATH=str(Path(confocal_opo.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "confocal_opo.cli", "run", "--config", str(cfg),
             "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("configuration error: "), proc.stderr
        assert str(out if case == "out-under-file" else cfg) in lines[0]

    def test_coarse_grid_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, GOOD_CONFIG + "grid_n = 16\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "grid" in capsys.readouterr().err.lower()


class TestFigPresets:
    def test_fig2_kernel_curve(self, tmp_path):
        out = tmp_path / "fig2"
        assert main(["fig", "--id", "2", "--out", str(out)]) == 0
        header, rows = read_curve(out / "curve.csv")
        assert header == ["r_over_lcoh", "delta_lcoh2"]
        assert rows[0, 1] == pytest.approx(0.5, abs=1e-12)
        # first zero of the scaled kernel profile at 1.37 +- 0.03
        sign_change = np.where(np.diff(np.sign(rows[:, 1])) != 0)[0]
        first_zero = rows[sign_change[0], 0]
        assert abs(first_zero - 1.37) <= 0.03

    def test_fig5_with_zero_pump_override_is_flat(self, tmp_path):
        out = tmp_path / "fig5"
        assert main(["fig", "--id", "5", "--set", "A_p=0", "--out", str(out)]) == 0
        _, rows = read_curve(out / "curve.csv")
        assert np.abs(rows[:, 1] - 1.0).max() <= 1e-9
        assert np.abs(rows[:, 2] - 1.0).max() <= 1e-9

    def test_fig2_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["fig", "--id", "2", "--out", str(out1)]) == 0
        assert main(["fig", "--id", "2", "--out", str(out2)]) == 0
        assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()

    def test_fig8_writes_both_curves(self, tmp_path):
        out = tmp_path / "fig8"
        assert main(["fig", "--id", "8", "--out", str(out)]) == 0
        header_v, rows_v = read_curve(out / "curve_V.csv")
        header_r, rows_r = read_curve(out / "curve_R.csv")
        assert header_v[0] == "abscissa"
        # circular-detector curve starts deeply squeezed and degrades
        assert rows_v[0, 1] < 0.01
        assert rows_v[-1, 1] > rows_v[0, 1]
        # density curve returns to shot noise beyond r0
        assert abs(rows_r[-1, 1] - 1.0) < 0.1

    def test_fig5_near_threshold_stays_squeezed(self, tmp_path):
        # R - 1 keeps its accuracy near threshold: no row collapses to shot
        # noise or goes negative
        out = tmp_path / "fig5"
        assert main(["fig", "--id", "5", "--set", "A_p=0.999999999", "--out", str(out)]) == 0
        _, rows = read_curve(out / "curve.csv")
        assert np.all((rows[:, 1] > 0) & (rows[:, 1] < 1))

    @pytest.mark.parametrize("fig_id", ["5", "8"])
    def test_plane_pump_at_threshold_exits_1(self, tmp_path, capsys, fig_id):
        # the strongest plane-pump mode is checked once, before any curve
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fig", "--id", fig_id, "--set", "A_p=0.999999999999999",
                         "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: "), lines
        assert not list(out.glob("curve*.csv"))

    def test_fig9_small_detector_reaches_shot_noise(self, tmp_path):
        out = tmp_path / "fig9"
        assert main(["fig", "--id", "9", "--set", "b=4", "--out", str(out)]) == 0
        _, rows = read_curve(out / "curve_b4.csv")
        assert rows[0, 1] > 0.9  # shot noise for a vanishing detector
        assert rows[-1, 1] < 0.2  # squeezing within the phase-matching band

    def test_unknown_override_exits_2(self, tmp_path, capsys):
        # config keys that no preset reads are refused too, not ignored
        for item in ("nope=1", "grid_n=101", "w_p=1e-4", "plane=far",
                     "sweep_max=1e-3", "phi_lo=0.3"):
            key = item.split("=")[0]
            code = main(["fig", "--id", "5", "--set", item, "--out", str(tmp_path / "x")])
            assert code == 2
            assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("fig_id", ["2", "5", "8"])
    def test_b_refused_without_b_family(self, tmp_path, capsys, fig_id):
        # a preset with no b family refuses b rather than ignoring it, and
        # still takes the preset keys
        code = main(["fig", "--id", fig_id, "--set", "b=4", "--out", str(tmp_path / "b")])
        assert code == 2
        assert "'b'" in capsys.readouterr().err
        args = ["fig", "--id", fig_id, "--set", "A_p=0.95", "--out", str(tmp_path / "a")]
        assert main(args) == 0

    @pytest.mark.parametrize("value", ["abc", "-4", "4,,25", "", "0", "nan", "inf"])
    def test_bad_b_exits_2(self, tmp_path, capsys, value):
        # every comma item of b must be a finite positive number
        code = main(["fig", "--id", "6", "--set", f"b={value}", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "'b'" in capsys.readouterr().err

    def test_fig6_b_below_its_sweep_start_exits_2(self, tmp_path, capsys):
        # fig 6 sweeps from 0.1 to 3 sqrt(b): a b at or below (0.1 / 3)^2
        # would write an abscissa that runs backwards
        code = main(["fig", "--id", "6", "--set", "b=1e-4", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "'b'" in err and "0.00111111" in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_degenerate_band_message_has_plain_floats(self, tmp_path, capsys):
        # at b = 1e300 a fig 7 pixel one l_coh wide vanishes next to its
        # center distance, and the refused band prints as plain numbers
        code = main(["fig", "--id", "7", "--set", "b=1e300", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2 and "detector band" in err
        assert "np.float64" not in err

    # (label stem, plane, detector, points, first, last, pixel width, LO waist,
    # abscissa name) of each preset; lengths in the plane's coherence unit:
    # l_coh near, r0 far for a plane pump, the detection-plane size of 1/w_p
    # far for a Gaussian pump; None for "not set"
    PRESETS = {
        5: ("fig5", "near", "interval", 100, 0.05, lambda b: 5.0, None, None,
            "radius_over_lcoh"),
        6: ("fig6", "near", "interval", 30, 0.1, lambda b: 3.0 * math.sqrt(b), None, None,
            "radius_over_lcoh"),
        7: ("fig7", "near", "pixel_pair", 31, 0.0, lambda b: 3.0 * math.sqrt(b), 1.0, None,
            "pixel_distance_over_lcoh"),
        8: ("fig8", "far", "radial", 75, 0.02, lambda b: 3.0, None, 1.0, "r_over_r0"),
        9: ("fig9", "far", "interval", 30, 0.1, lambda b: 5.0, None, None,
            "radius_times_qcoh"),
        10: ("fig10", "far", "pixel_pair", 26, 0.0, lambda b: 5.0, 1.0, None,
             "pixel_distance_times_qcoh"),
    }

    @pytest.mark.parametrize("fig_id,b_set", [
        (5, None), (6, None), (7, None), (8, None), (9, None), (10, None),
        (6, (4.0, 25.0)), (9, (4.0, 25.0)),
    ])
    def test_preset_scenarios_pinned(self, tmp_path, monkeypatch, fig_id, b_set):
        # the geometry of every preset curve, read from fig_scenarios and from
        # the CSV names run_fig hands to run_scenario; nothing is solved
        stem, plane, detector, points, first, last, pixel, waist, name = self.PRESETS[fig_id]
        overrides = {} if b_set is None else {"b": b_set}
        scenarios = cli.fig_scenarios(fig_id, overrides)
        if fig_id in (5, 8):
            bs, labels = [math.inf], [stem if fig_id == 5 else "fig8_V"]
            csv_names = ["curve.csv"] if fig_id == 5 else ["curve_V.csv", "curve_R.csv"]
        else:
            bs = list(b_set or (4.0, 25.0, 100.0))
            labels = [f"{stem}_b{b:g}" for b in bs]
            csv_names = [f"curve_b{b:g}.csv" for b in bs]
        assert [sc.label for sc in scenarios] == labels
        for sc, b in zip(scenarios, bs):
            p = sc.params
            if plane == "near":
                unit = p.l_coh
            elif p.plane_pump:
                unit = p.r0
            else:
                unit = p.lambda_s * p.f_lens / p.w_p / (2.0 * math.pi)
            assert p.b == pytest.approx(b, rel=1e-12) if math.isfinite(b) else p.b == b
            assert (sc.plane, sc.detector, len(sc.values)) == (plane, detector, points)
            assert sc.values[0] / unit == pytest.approx(first, rel=1e-12, abs=1e-15)
            assert sc.values[-1] / unit == pytest.approx(last(b), rel=1e-12)
            assert sc.abscissa_scale == pytest.approx(unit, rel=1e-12)
            assert sc.abscissa_name == name
            if pixel is None:
                assert sc.pixel_width is None
            else:
                assert sc.pixel_width / unit == pytest.approx(pixel, rel=1e-12)
            if waist is None:
                assert sc.lo.waist == math.inf
            else:
                assert sc.lo.waist / unit == pytest.approx(waist, rel=1e-12)

        written = []
        monkeypatch.setattr(cli, "run_scenario",
                            lambda sc, outdir, csv_name: written.append(csv_name))
        monkeypatch.setattr(cli, "write_summary", lambda outdir, sc_list: None)
        cli.run_fig(fig_id, overrides, tmp_path)
        written += sorted(path.name for path in tmp_path.iterdir())
        assert written == csv_names

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "confocal-opo" in capsys.readouterr().out


ROUTES_CODE = """\
import math
import sys
from dataclasses import replace
import numpy as np
from confocal_opo import LocalOscillator, OpoParams, delta_2d, sweep
from confocal_opo.cli import main

plane = OpoParams(lambda_s=1.064e-6, n_s=2.12, l_c=0.01, z_C=0.05, A_p=0.9,
                  w_p=math.inf)
gauss = replace(plane, w_p=2.0 * plane.l_coh)
delta_2d(np.linspace(0.0, 4.0, 41) * plane.l_coh, plane)
sweep(plane, "near", "interval", [0.5 * plane.l_coh, 20.0 * plane.l_coh], LocalOscillator())
sweep(gauss, "near", "interval", [0.5 * plane.l_coh, plane.l_coh], LocalOscillator())
sweep(gauss, "far", "interval", [0.5 * plane.r0, plane.r0], LocalOscillator())
sweep(plane, "far", "radial", [0.5 * plane.r0], LocalOscillator(waist=plane.r0))
for fig in ("2", "5", "8"):
    assert main(["fig", "--id", fig, "--out", f"{sys.argv[1]}/fig{fig}"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_every_route_leaves_out_scipy(tmp_path):
    # the library runs on numpy alone: the fig 2 profile (Si on both
    # branches), the plane-pump near route, the dense solves in either
    # plane, the far-field disk and figs 2, 5 and 8 end to end
    env = dict(os.environ, PYTHONPATH=str(Path(confocal_opo.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", ROUTES_CODE, str(tmp_path)],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.splitlines()[-1] == "[]"


def test_package_all_is_union_of_submodules():
    # the package exports exactly what its submodules export, and every
    # exported name resolves
    union = {"__version__"}
    for module in (errors, params, kernels, iosolver, homodyne):
        union |= set(module.__all__)
        assert all(hasattr(module, name) for name in module.__all__)
    assert len(confocal_opo.__all__) == len(set(confocal_opo.__all__))
    assert set(confocal_opo.__all__) == union
    assert all(hasattr(confocal_opo, name) for name in confocal_opo.__all__)


#: --set keys and extreme values of the exit-code grid: the float range's
#: ends, subnormals and a pump amplitude 1e-15 below threshold
EXTREME_KEYS = ("lambda_s", "n_s", "l_c", "z_C", "f_lens", "A_p")
EXTREME_VALUES = ("5e-324", "1e-320", "1e-300", "1e300", "1.7e308", "0.999999999999999")


#: the keys of the grid per figure: figs 6 and 9, the dense Gaussian-pump
#: presets of each plane, are run over their pump size b and the two keys
#: whose extremes overflow the coupling kernel
EXTREME_FIG_KEYS = {"2": EXTREME_KEYS, "5": EXTREME_KEYS, "8": EXTREME_KEYS,
                    "6": ("b", "n_s", "l_c"), "9": ("b", "n_s", "l_c")}


@pytest.mark.parametrize("fig_id", list(EXTREME_FIG_KEYS))
def test_extreme_overrides_exit_with_a_code(tmp_path, capsys, fig_id):
    # every valid-looking value ends in exit 0, 1 or 2 with no exception
    # escaping main: out-of-range derived scales are refused as non-physical
    escaped = []
    for key in EXTREME_FIG_KEYS[fig_id]:
        for value in EXTREME_VALUES:
            argv = ["fig", "--id", fig_id, "--set", f"{key}={value}", "--out", str(tmp_path)]
            try:
                code = main(argv)
            except Exception as exc:  # reported with every other escape below
                escaped.append((key, value, repr(exc)))
            else:
                if code not in (0, 1, 2):
                    escaped.append((key, value, code))
    capsys.readouterr()
    assert escaped == []


def _one_line_exit(tmp_path, argv):
    """(exit code, the one stderr line) of the CLI run in its own process."""
    env = dict(os.environ, PYTHONPATH=str(Path(confocal_opo.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "confocal_opo.cli", *argv,
                           "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=env)
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    return proc.returncode, lines[0]


@pytest.mark.parametrize("argv,config,code,prefix", [
    (["fig", "--id", "6", "--set", "b=1e300"], None, 1, "numerical failure: "),
    (["run"], GOOD_CONFIG + "grid_L = 1.7e308\n", 1, "numerical failure: "),
    (["run"], GOOD_CONFIG.replace("sweep_points = 5", "sweep_points = 1000000000000"),
     2, "configuration error: "),
    (["run"], GOOD_CONFIG.replace("sweep_points = 5", "sweep_points = " + "1" + "0" * 29),
     2, "configuration error: "),
], ids=["fig6-b-1e300", "grid_L-1.7e308", "sweep_points-1e12", "sweep_points-1e29"])
def test_out_of_range_size_exits_with_one_line(tmp_path, argv, config, code, prefix):
    # a grid or sweep size no machine can hold ends in one stderr line with
    # its exit code: no traceback, no allocation tried, and no number printed
    # with a hundred digits
    if config is not None:
        argv = argv + ["--config", str(write_config(tmp_path, config))]
    got, line = _one_line_exit(tmp_path, argv)
    assert got == code and line.startswith(prefix), line
    assert len(line) < 200


@pytest.mark.parametrize("fig_id,item", [
    ("6", "n_s=1e300"), ("7", "l_c=1e-300"), ("9", "n_s=1e300"), ("10", "l_c=1e-300"),
])
def test_overflowing_kernel_exits_with_one_line(tmp_path, fig_id, item):
    # a coupling kernel that overflows is refused before the eigensolver,
    # with no numpy warning ahead of its one line
    code, line = _one_line_exit(tmp_path, ["fig", "--id", fig_id, "--set", item])
    assert code == 1 and line.startswith("numerical failure: coupling kernel is not finite")


@pytest.mark.parametrize("sets", [
    ["b=4", "b=25"], ["A_p=0.9", "A_p=0.95"], ["b=4,4"], ["b=4,4.0000001"],
], ids=["repeated-b", "repeated-A_p", "b-list-repeat", "b-list-same-label"])
def test_repeated_fig_set_exits_2(tmp_path, sets):
    # a repeated --set key, or b values whose curves would share a label and
    # file, is refused: neither is silently dropped or overwritten
    argv = ["fig", "--id", "6"] + [arg for item in sets for arg in ("--set", item)]
    code, line = _one_line_exit(tmp_path, argv)
    assert code == 2 and line.startswith("configuration error: ")
    assert not list(tmp_path.rglob("*.csv")) and not list(tmp_path.rglob("summary.txt"))


@pytest.mark.parametrize("text,key", [
    (PLANE_NEAR_CONFIG + "pixel_width = 4e-5\n", "pixel_width"),
    (PLANE_FAR_RADIAL_CONFIG + "pixel_width = 4e-5\n", "pixel_width"),
    (PLANE_NEAR_CONFIG + "lo_waist = 1e-4\n", "lo_waist"),
    (GOOD_CONFIG + "lo = plane\nlo_waist = 1e-4\n", "lo_waist"),
    (PLANE_NEAR_CONFIG + "w_p = 2.4e-4\n", "w_p"),
], ids=["pixel_width-interval", "pixel_width-radial", "lo_waist-default-lo",
        "lo_waist-plane-lo", "w_p-plane-pump"])
def test_run_key_that_changes_nothing_exits_2(tmp_path, text, key):
    # a key the scenario does not read would be echoed into curve.csv and
    # summary.txt as if it applied; it is refused instead
    code, line = _one_line_exit(tmp_path, ["run", "--config", str(write_config(tmp_path, text))])
    assert code == 2 and line.startswith(f"configuration error: key '{key}'")
    assert not (tmp_path / "o" / "curve.csv").exists()
    # where the key applies, it is taken
    sc = scenario_from_config(parse_config(write_config(
        tmp_path, GOOD_CONFIG + "pixel_width = 4e-5\nlo = gaussian\nlo_waist = 1e-4\n",
        name="applies.cfg")))
    assert (sc.pixel_width, sc.lo.waist, sc.params.w_p) == (4e-5, 1e-4, 2.4e-4)


RADIAL_1D_CONFIGS = [
    GOOD_CONFIG.replace("detector = pixel_pair", "detector = radial"),
    GOOD_CONFIG.replace("detector = pixel_pair", "detector = radial").replace(
        "plane = near", "plane = far"),
    PLANE_NEAR_CONFIG.replace("detector = interval", "detector = radial"),
]


@pytest.mark.parametrize("text", RADIAL_1D_CONFIGS,
                         ids=["gaussian-near", "gaussian-far", "plane-near"])
def test_radial_off_the_disk_route_exits_2(tmp_path, text):
    # radial is a 2-D disk, which only the plane-pump far quadrature
    # computes; elsewhere it would run as the 1-D interval of the same half
    # width, so it is refused while the scenario is read, before any solve
    cfg = write_config(tmp_path, text)
    with pytest.raises(ConfigurationError, match="radial"):
        scenario_from_config(parse_config(cfg))
    code, line = _one_line_exit(tmp_path, ["run", "--config", str(cfg)])
    assert code == 2 and line.startswith("configuration error: key 'detector'"), line
    assert not (tmp_path / "o" / "curve.csv").exists()


def test_plane_pump_near_gaussian_lo_exits_2(tmp_path):
    # the plane-pump near-field window sum takes a plane LO only: a Gaussian
    # LO is refused while the scenario is read, and the message names its key
    cfg = write_config(tmp_path, PLANE_NEAR_CONFIG + "lo = gaussian\nlo_waist = 1e-4\n")
    with pytest.raises(ConfigurationError, match="^key 'lo': "):
        scenario_from_config(parse_config(cfg))
    code, line = _one_line_exit(tmp_path, ["run", "--config", str(cfg)])
    assert code == 2 and line.startswith("configuration error: key 'lo': "), line
    assert not (tmp_path / "o" / "curve.csv").exists()


@pytest.mark.parametrize("key,value", [
    ("z_C", "0.07"), ("f_lens", "0.3"), ("detuning", "0.4"), ("omega_bar", "0.2"),
])
def test_fig2_refuses_keys_it_does_not_read(tmp_path, capsys, key, value):
    # the kernel profile reads l_coh alone: a key that leaves its bytes as
    # they are is refused, not accepted and ignored
    assert main(["fig", "--id", "2", "--set", f"{key}={value}", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"configuration error: key '{key}'")
    assert not list(tmp_path.iterdir())
    # the keys it reads, and A_p, are taken
    for ok in ("l_c=0.02", "A_p=0.3"):
        assert main(["fig", "--id", "2", "--set", ok, "--out", str(tmp_path / ok)]) == 0
