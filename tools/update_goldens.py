"""Rewrite the golden outputs that ``tests/test_golden.py`` checks.

    python tools/update_goldens.py

Runs every command of ``tests/helpers.golden_commands`` (the figure presets,
figs 6 and 9 at b = 900, and ``run`` on each config in ``tests/golden``) in
this process, with this checkout's ``src`` first on the path, and writes its
curves and summary into ``tests/golden/<name>/``.  For each file it prints
``identical`` when the new bytes equal the old, and otherwise what
``helpers.deviations`` finds, as the golden test does: the largest relative
deviation per column, or why the text does not compare.  A run that changes
no output thus states a byte claim for this tree.  A directory under
``tests/golden`` that no command writes is reported, and left as it is.
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
from helpers import GOLDEN, describe, deviations, golden_commands, output_files  # noqa: E402


def main() -> int:
    cmds = golden_commands()
    for name, args in cmds.items():
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
                (target / fname).write_bytes(text.encode())
        for fname, deviation in deviations(old, new).items():
            same = old.get(fname) == new.get(fname)
            print(f"{name}/{fname}: {'identical' if same else describe(deviation)}")
    for stale in sorted(d.name for d in GOLDEN.iterdir() if d.is_dir() and d.name not in cmds):
        print(f"{stale}: no command writes it; remove it or add its command")
    return 0


if __name__ == "__main__":
    sys.exit(main())
