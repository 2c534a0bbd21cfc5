"""Check that two source trees write the same curves and summaries, byte for byte.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that holds the ``confocal_opo`` package (a
checkout's ``src``).  Both trees run the same commands, each in its own
fresh Python process with that tree first on ``PYTHONPATH``:

* ``fig --id N`` for every figure preset, 2 and 5-10;
* ``fig --id 6 --set b=900`` and ``fig --id 9 --set b=900``, the largest
  near and far dense solves (n = 1,921 and 2,881);
* every ``run`` invocation of the benchmark's workloads at seed 0, read
  through ``perfbench/workloads.invocations(name, 0)``;
* the Gaussian-pump ``run`` configs at b = 25 in ``tests/golden/*.cfg``,
  which set ``grid_n`` only, ``grid_L`` only, and both, so the CLI's
  explicit-grid solves are compared too.

Every ``curve*.csv`` and ``summary.txt`` is then compared.  The script
prints one line per command and exits 1 on any difference: a file that
differs or that one side lacks, or a differing exit code.  It exits 0 when
every output is byte-identical.

It first prints the size of each tree: the ``wc -l`` total of
``confocal_opo/*.py`` and the number of names in ``confocal_opo.__all__``.
These lines are informational and leave the exit code as it is.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave the benchmark's directory as checked out

import workloads  # noqa: E402

FIGURES = [["fig", "--id", str(i)] for i in (2, 5, 6, 7, 8, 9, 10)]
FIGURES += [["fig", "--id", str(i), "--set", "b=900"] for i in (6, 9)]
SEED = 0
#: the explicit-grid run configs, shared with the golden-output test
EXPLICIT_GRID_RUNS = sorted((ROOT / "tests" / "golden").glob("*.cfg"))


def commands() -> list[tuple[str, list[str], str | None]]:
    """(name, CLI arguments without --config/--out, config text or None)."""
    out = [(" ".join(args), args, None) for args in FIGURES]
    for workload in workloads.WORKLOADS:
        for inv in workloads.invocations(workload, SEED):
            if inv.config is not None:
                out.append((f"run {inv.name} (seed {SEED})", list(inv.args), inv.config))
    out += [(f"run {cfg.stem}", ["run"], cfg.read_text()) for cfg in EXPLICIT_GRID_RUNS]
    return out


def run(src: Path, args: list[str], config: str | None, outdir: Path) -> int:
    """Exit code of the CLI from ``src`` writing into ``outdir``."""
    outdir.mkdir(parents=True)
    argv = list(args)
    if config is not None:
        path = outdir.parent / f"{outdir.name}.cfg"
        path.write_text(config)
        argv += ["--config", str(path)]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "confocal_opo.cli", *argv,
                           "--out", str(outdir)], env=env, capture_output=True, text=True)
    return proc.returncode


def size(src: Path) -> str:
    """The ``wc -l`` total of the package's modules and the length of its
    ``__all__``, read in a fresh process with ``src`` first on the path."""
    lines = sum(f.read_bytes().count(b"\n") for f in (src / "confocal_opo").glob("*.py"))
    code = "import confocal_opo; print(len(confocal_opo.__all__))"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    names = proc.stdout.strip() if proc.returncode == 0 else "?"
    return f"{lines} lines in confocal_opo/*.py, {names} names in confocal_opo.__all__"


def outputs(outdir: Path) -> dict[str, bytes]:
    files = sorted(outdir.glob("curve*.csv")) + sorted(outdir.glob("summary.txt"))
    return {f.name: f.read_bytes() for f in files}


def compare(old: dict, new: dict) -> list[str]:
    """One line per difference between two output sets, with a short diff."""
    problems = []
    for fname in sorted(old.keys() | new.keys()):
        if fname not in old or fname not in new:
            side = "parent" if fname not in old else "change"
            problems.append(f"  {fname}: missing in the {side} tree")
        elif old[fname] != new[fname]:
            diff = difflib.unified_diff(old[fname].decode().splitlines(),
                                        new[fname].decode().splitlines(),
                                        "parent", "change", n=0, lineterm="")
            problems.append(f"  {fname}: differs")
            problems.extend(f"    {line}" for line in list(diff)[:8])
    if not old:
        problems.append("  no outputs written")
    return problems


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
    cmds, failed = commands(), 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (name, cli_args, config) in enumerate(cmds):
            codes, files = [], []
            for side, src in zip(("parent", "change"), srcs):
                outdir = Path(tmp) / f"{i}_{side}"
                codes.append(run(src, cli_args, config, outdir))
                files.append(outputs(outdir))
            problems = compare(*files)
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
