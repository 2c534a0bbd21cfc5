"""Check that two source trees write the same curves and summaries, byte for byte.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that holds the ``confocal_opo`` package (a
checkout's ``src``).  Both trees run every command of
``tests/helpers.golden_commands``, the list the golden test checks: the
figure presets, figs 6 and 9 at b = 900 (the largest near and far dense
solves, n = 1,921 and 2,881), and ``run`` on each config in
``tests/golden`` (the benchmark's seed-0 run configs and the explicit-grid
configs).  The list is read from this checkout, with its ``src`` and
``tests`` first on this process's path.  Each command runs in its own
fresh Python process with the tree under test first on ``PYTHONPATH``.

Every ``curve*.csv`` and ``summary.txt`` is then compared.  The script
prints one line per command and exits 1 on any difference: a file that
differs or that one side lacks, or a differing exit code.  For each such
file it prints what ``helpers.deviations`` finds.  It exits 0 when every
output is byte-identical.

It first prints the size of each tree: the ``wc -l`` total of
``confocal_opo/*.py`` and the number of names in ``confocal_opo.__all__``.
These lines are informational and leave the exit code as it is.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import describe, deviations, golden_commands, output_files  # noqa: E402


def run(src: Path, args: list[str], outdir: Path) -> int:
    """Exit code of the CLI from ``src`` writing into ``outdir``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-m", "confocal_opo.cli", *args, "--out", str(outdir)],
                          env=env, capture_output=True).returncode


def size(src: Path) -> str:
    """The ``wc -l`` total of the package's modules and the length of its
    ``__all__``, read in a fresh process with ``src`` first on the path."""
    lines = sum(f.read_bytes().count(b"\n") for f in (src / "confocal_opo").glob("*.py"))
    code = "import confocal_opo; print(len(confocal_opo.__all__))"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    names = proc.stdout.strip() if proc.returncode == 0 else "?"
    return f"{lines} lines in confocal_opo/*.py, {names} names in confocal_opo.__all__"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    srcs = [args.parent_src.resolve(), args.change_src.resolve()]
    for src in srcs:
        if not (src / "confocal_opo" / "__init__.py").is_file():
            parser.error(f"{src} holds no confocal_opo package")
    for side, src in zip(("parent", "change"), srcs):
        print(f"{side}: {size(src)}")
    cmds, failed = golden_commands(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, cli_args) in enumerate(cmds.items()):
            codes, files = [], []
            for side, src in zip(("parent", "change"), srcs):
                outdir = Path(tmp) / f"{i}_{side}"
                codes.append(run(src, cli_args, outdir))
                files.append(output_files(outdir))
            problems = [f"  {fname}: {describe(deviation)}"
                        for fname, deviation in deviations(*files).items()
                        if files[0].get(fname) != files[1].get(fname)]
            if not files[0]:
                problems.append("  no outputs written")
            if codes[0] != codes[1]:
                problems.insert(0, f"  exit code {codes[0]} (parent) != {codes[1]} (change)")
            count = len(files[1])
            print(f"{'DIFFERS' if problems else 'identical'}: {name} "
                  f"({count} file{'s' * (count != 1)}, exit {codes[1]})")
            for line in problems:
                print(line)
            failed += bool(problems)
    print(f"{failed} of {len(cmds)} commands differ" if failed
          else "every output is byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
