import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import confocal_opo
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
        # an extent the sizing rule cannot serve within MAX_GRID_N points
        cfg = write_config(tmp_path, text + "grid_L = 1.0\n", name="huge.cfg")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "huge")]) == 1
        assert "sizing rule demands" in capsys.readouterr().err

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

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "confocal-opo" in capsys.readouterr().out


def test_import_leaves_out_scipy_integrate():
    # no route integrates adaptively, so start-up skips scipy.integrate
    code = "import sys, confocal_opo.cli; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(confocal_opo.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
