"""Check that two source trees give byte-identical run outputs.

Usage:

    python tools/cmp_runs.py PARENT_TREE [--tree TREE]

runs every command of ``RUNS`` once with ``PYTHONPATH=<tree>/src`` for each
tree (``--tree`` defaults to the checkout holding this script), with BLAS on
one thread, in a temporary directory, and compares every file the runs
write: ``checkpoint.final``, ``metrics.csv``, ``adapt.jsonl``,
``artifacts.json``, ``config.snapshot`` and the sweep's ``comparison.csv``.
It prints the files that differ or exist on one side only and exits 1 if
there are any, 0 otherwise. Nothing is written into either tree.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# (name, config document, CLI arguments); the config path and --out follow
# the subcommand.
RUNS = (
    ("default", {}, ["train"]),
    ("adapt_seed2", {}, ["train", "--seed", "2", "--max-experts", "6"]),
    ("topk", {"router": {"kind": "topk", "n_experts": 4, "top_k": 2}}, ["train"]),
    ("two_layers", {"train": {"n_layers": 2}}, ["train"]),
    ("topk_two_layers", {"router": {"kind": "topk", "n_experts": 4, "top_k": 2},
                         "train": {"n_layers": 2}}, ["train"]),
    ("baseline", {}, ["baseline", "--K", "3", "--k", "2"]),
    ("sweep", {}, ["sweep"]),
    # every step records, 35 windows close, and the run ends inside the 36th
    ("window_edges", {"train": {"steps": 250},
                      "adapt": {"check_interval": 7, "record_window": [0.0, 1.0]}}, ["train"]),
    ("no_adapt", {"adapt": None}, ["train"]),
)

# one BLAS thread on both sides; no __pycache__ written into the trees
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "PYTHONDONTWRITEBYTECODE": "1"}


def _start(tree: Path, config: Path, args: list[str], out: Path) -> subprocess.Popen:
    env = {**os.environ, **ENV, "PYTHONPATH": str(tree.resolve() / "src")}
    argv = [sys.executable, "-m", "dynmoe.cli", args[0], str(config), *args[1:], "--out", str(out)]
    return subprocess.Popen(argv, cwd=out.parent, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)


def diff_dirs(a: Path, b: Path) -> list[str]:
    """Relative paths of the files under ``a`` and ``b`` that differ in
    content or exist on one side only, sorted."""
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    return sorted(str(rel) for rel in files[0] ^ files[1]) + sorted(
        str(rel) for rel in files[0] & files[1]
        if not filecmp.cmp(a / rel, b / rel, shallow=False))


def compare(tree_a: Path, tree_b: Path, runs=RUNS) -> list[str]:
    """Run ``runs`` on both trees (the two sides of a run at once) and
    return the differing output files as ``<run>/<file>``. Raises
    ``RuntimeError`` if a command fails on either side."""
    differing = []
    with tempfile.TemporaryDirectory(prefix="cmp_runs_") as tmp:
        for name, doc, args in runs:
            run_dir = Path(tmp) / name
            run_dir.mkdir()
            config = run_dir / "config.json"
            config.write_text(json.dumps(doc))
            sides = [run_dir / side / "out" for side in ("a", "b")]
            procs = []
            for tree, out in zip((tree_a, tree_b), sides):
                out.parent.mkdir()
                procs.append(_start(Path(tree), config, args, out))
            for tree, proc in zip((tree_a, tree_b), procs):
                err = proc.communicate()[1]
                if proc.returncode:
                    raise RuntimeError(f"{name} failed on {tree} (exit {proc.returncode}):\n{err}")
            differing += [f"{name}/{rel}" for rel in diff_dirs(*sides)]
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    differing = compare(args.parent_tree, args.tree)
    for rel in differing:
        print(f"differs: {rel}")
    print(f"{len(RUNS)} runs, {len(differing)} differing file(s)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
