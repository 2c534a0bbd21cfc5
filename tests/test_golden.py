"""Every figure preset and explicit-grid run writes its golden outputs.

The goldens in ``golden/`` hold the curves and summary of each command in
``helpers.golden_commands``.  Text must match exactly and every number
within 1e-11 max(1, |x|), one unit in the 12th printed digit.
``tools/update_goldens.py`` rewrites them and reports how far they moved.
"""

import pytest

from confocal_opo.cli import main
from helpers import GOLDEN, golden_commands, output_files, split_numbers

TOL = 1e-11


@pytest.mark.parametrize("name", sorted(golden_commands()))
def test_outputs_match_goldens(name, tmp_path):
    assert main([*golden_commands()[name], "--out", str(tmp_path)]) == 0
    want, got = output_files(GOLDEN / name), output_files(tmp_path)
    assert want and sorted(got) == sorted(want)
    for fname, text in want.items():
        lines, new_lines = text.splitlines(), got[fname].splitlines()
        assert len(new_lines) == len(lines), fname
        for row, (line, new_line) in enumerate(zip(lines, new_lines), 1):
            (pieces, xs), (new_pieces, new_xs) = split_numbers(line), split_numbers(new_line)
            assert new_pieces == pieces and len(new_xs) == len(xs), (fname, row, new_line)
            for x, new in zip(xs, new_xs):
                assert abs(new - x) <= TOL * max(1.0, abs(x)), (fname, row, x, new)
