"""Every command in ``helpers.golden_commands`` writes its golden outputs.

The goldens in ``golden/`` hold the curves and summary of each command: the
figure presets, figs 6 and 9 at b = 900, and ``run`` on each config there.
``helpers.deviations`` compares them: text must match exactly and every
number x within 1e-11 max(|x|, |new|), one unit in its 12th printed digit,
so an exact 0 stays 0.  ``tools/update_goldens.py`` rewrites them and
prints the same deviations.
"""

import pytest

from confocal_opo.cli import main
from helpers import GOLDEN, describe, deviations, golden_commands, output_files

TOL = 1e-11


@pytest.mark.parametrize("name", sorted(golden_commands()))
def test_outputs_match_goldens(name, tmp_path):
    assert main([*golden_commands()[name], "--out", str(tmp_path)]) == 0
    report = deviations(output_files(GOLDEN / name), output_files(tmp_path))
    beyond = {fname: describe(cols) for fname, cols in report.items()
              if isinstance(cols, str) or max(cols.values(), default=0.0) > TOL}
    assert report and not beyond, beyond


def test_every_golden_has_a_command():
    assert {d.name for d in GOLDEN.iterdir() if d.is_dir()} == set(golden_commands())


def test_deviations_per_file_and_column():
    want = {"curve.csv": "# b=25\nabscissa,vn\n0.5,0.25\n1,0\n", "summary.txt": "  b = 25\n"}
    assert deviations(want, dict(want)) == {
        "curve.csv": {"echo": 0.0, "abscissa": 0.0, "vn": 0.0}, "summary.txt": {"all": 0.0}}
    # a text change is reported as such, wherever the numbers stand
    assert deviations(want, {**want, "summary.txt": "  w = 25\n"})["summary.txt"] == (
        "text differs on line 1")
    # a number change is measured in its own column, relative to its magnitude
    report = deviations(want, {**want, "curve.csv": "# b=25\nabscissa,vn\n0.5,0.2500001\n1,0\n"})
    assert report["curve.csv"]["abscissa"] == 0.0
    assert report["curve.csv"]["vn"] == pytest.approx(4e-7)
    # an exact 0 must stay 0: any new value deviates by 1
    report = deviations(want, {**want, "curve.csv": "# b=25\nabscissa,vn\n0.5,0.25\n1,1e-300\n"})
    assert report["curve.csv"]["vn"] == 1.0
