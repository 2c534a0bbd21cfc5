"""Rewrite the golden outputs that ``tests/test_golden.py`` checks.

    python tools/update_goldens.py

Runs every command of ``tests/helpers.golden_commands`` (the figure presets
and each explicit-grid ``run`` config in ``tests/golden``) in this process,
with this checkout's ``src`` first on the path, and writes its curves and
summary into ``tests/golden/<name>/``.  For each file that was already
there it prints the largest |new - old| per column: per CSV column of the
data rows, and over all numbers of any other file.  A file whose text
around the numbers changed is reported as such.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
sys.dont_write_bytecode = True  # leave the test directory as checked out

from confocal_opo.cli import main as cli_main  # noqa: E402
from helpers import GOLDEN, golden_commands, output_files, split_numbers  # noqa: E402


def deviations(fname: str, old: str, new: str) -> str:
    """The largest |new - old| per column, or why the texts do not compare."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return f"{len(old_lines)} -> {len(new_lines)} lines"
    csv = fname.endswith(".csv")
    names = old_lines[1].split(",") if csv else ["all"]
    worst = dict.fromkeys(names, 0.0)
    for row, (line, new_line) in enumerate(zip(old_lines, new_lines)):
        (pieces, xs), (new_pieces, new_xs) = split_numbers(line), split_numbers(new_line)
        if new_pieces != pieces or len(new_xs) != len(xs):
            return f"text differs on line {row + 1}"
        if csv and row < 2:  # the echo comment and the header: text only
            continue
        for j, (x, y) in enumerate(zip(xs, new_xs)):
            name = names[j] if csv else "all"
            worst[name] = max(worst[name], abs(y - x))
    return ", ".join(f"{name} {value:.3g}" for name, value in worst.items())


def main() -> int:
    for name, args in golden_commands().items():
        target = GOLDEN / name
        with tempfile.TemporaryDirectory() as tmp:
            code = cli_main([*args, "--out", tmp])
            if code != 0:
                print(f"{name}: exit {code}, goldens left as they were")
                return 1
            old, new = output_files(target), output_files(Path(tmp))
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for fname, text in new.items():
                (target / fname).write_text(text)
        for fname in sorted(old.keys() | new.keys()):
            if fname not in new:
                print(f"{name}/{fname}: removed")
            elif fname not in old:
                print(f"{name}/{fname}: new")
            else:
                print(f"{name}/{fname}: {deviations(fname, old[fname], new[fname])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
