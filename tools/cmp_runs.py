"""Check that two source trees give byte-identical run outputs.

Usage:

    python tools/cmp_runs.py PARENT_TREE [--tree TREE] [--expect FILE ...]

runs every command of ``RUNS`` once with ``PYTHONPATH=<tree>/src`` for each
tree (``--tree`` defaults to the checkout holding this script), with BLAS on
one thread, in a temporary directory. After each ``train`` or ``baseline``
run, each tree runs ``dynmoe eval`` on its own ``checkpoint.final`` into
``eval/``. After every run, each tree runs ``dynmoe report`` on its
output directory into ``report/``. Each command gets its output paths
relative to its working directory, so the paths it prints are the same on
both sides, and its standard output is kept in the output directory as
``<command>.stdout``. Last, each tree runs its own copy of every demo of
``DEMOS`` and keeps its standard output as ``demos/<demo>.stdout``. It
compares every file the runs write: ``checkpoint.final``, ``metrics.csv``,
``adapt.jsonl``, ``artifacts.json``, ``config.snapshot``, the sweep's
``comparison.csv``, the eval's ``metrics.csv`` and ``artifacts.json``, the
report's tables, the commands' standard output and the demo outputs. It
prints the files that differ or exist on one side only, those named by an
``--expect FILE`` (repeatable; matched against the end of each path, as
``PurePath.match`` does, so ``config.snapshot`` names every run's snapshot)
apart from the rest, then a summary line, and then each tree's line count
of ``src/dynmoe/*.py`` as ``src/dynmoe: <parent> -> <tree> lines``. It exits
1 if any file differs that no ``--expect`` names, 0 otherwise. Nothing is
written into either tree.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path, PurePosixPath

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
    # the benchmark's mid-adaptive sizes: BLAS takes other kernels past d=16
    # and batch 32
    ("mid_adaptive", {"task": {"n_skills": 8, "d": 64, "n_samples": 8000, "seed": 7},
                      "train": {"steps": 300, "batch_size": 256, "hidden": 64,
                                "init_experts": 8, "eval_every": 100},
                      "adapt": {"max_experts": 16, "check_interval": 100}}, ["train"]),
)

# the scripts under demos/; each tree runs its own copy
DEMOS = ("01_top_any_gating.py", "02_aux_loss_and_gradients.py", "03_adaptive_experts.py",
         "04_skill_discovery.py")

# one BLAS thread on both sides; no __pycache__ written into the trees
ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
       "PYTHONDONTWRITEBYTECODE": "1"}


def _both(name: str, trees: list[Path], sides: list[Path], argv) -> list[bytes]:
    """Run ``python`` with the arguments ``argv(tree, out)`` for each tree
    and its output path, both at once, with the tree's ``src`` on
    ``PYTHONPATH``. Returns their standard outputs. Raises ``RuntimeError``
    if either fails."""
    procs = []
    for tree, out in zip(trees, sides):
        env = {**os.environ, **ENV, "PYTHONPATH": str(tree.resolve() / "src")}
        procs.append(subprocess.Popen([sys.executable, *argv(tree, out)], cwd=out.parent,
                                      env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    outputs = []
    for tree, proc in zip(trees, procs):
        stdout, err = proc.communicate()
        if proc.returncode:
            raise RuntimeError(f"{name} failed on {tree} (exit {proc.returncode}):\n"
                               f"{err.decode()}")
        outputs.append(stdout)
    return outputs


def diff_dirs(a: Path, b: Path) -> list[str]:
    """Relative paths of the files under ``a`` and ``b`` that differ in
    content or exist on one side only, sorted."""
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()} for root in (a, b)]
    return sorted(str(rel) for rel in files[0] ^ files[1]) + sorted(
        str(rel) for rel in files[0] & files[1]
        if not filecmp.cmp(a / rel, b / rel, shallow=False))


def compare(tree_a: Path, tree_b: Path, runs=RUNS, demos=DEMOS) -> list[str]:
    """Run ``runs`` and ``demos`` on both trees (the two sides of each at
    once) and return the differing output files as ``<run>/<file>`` and
    ``demos/<demo>.stdout``. Raises ``RuntimeError`` if a command fails on
    either side."""
    differing = []
    trees = [Path(tree_a), Path(tree_b)]
    with tempfile.TemporaryDirectory(prefix="cmp_runs_") as tmp:
        for name, doc, args in runs:
            run_dir = Path(tmp) / name
            run_dir.mkdir()
            config = run_dir / "config.json"
            config.write_text(json.dumps(doc))
            sides = [run_dir / side / "out" for side in ("a", "b")]
            for out in sides:
                out.parent.mkdir()
            # each command runs in out.parent, so "out" is its output directory
            stdouts = {args[0]: _both(name, trees, sides, lambda tree, out: [
                "-m", "dynmoe.cli", args[0], str(config), *args[1:], "--out", "out"])}
            if args[0] in ("train", "baseline"):
                stdouts["eval"] = _both(f"{name} eval", trees, sides, lambda tree, out: [
                    "-m", "dynmoe.cli", "eval", "out/checkpoint.final", str(config),
                    "--out", "out/eval"])
            stdouts["report"] = _both(f"{name} report", trees, sides,
                                      lambda tree, out: ["-m", "dynmoe.cli", "report", "out"])
            for command, outputs in stdouts.items():
                for out, stdout in zip(sides, outputs):
                    (out / f"{command}.stdout").write_bytes(stdout)
            differing += [f"{name}/{rel}" for rel in diff_dirs(*sides)]
        sides = [Path(tmp) / "demos" / side for side in ("a", "b")]
        for out in sides:
            out.mkdir(parents=True)
        for demo in demos:
            outputs = _both(demo, trees, sides,
                            lambda tree, out: [str(tree.resolve() / "demos" / demo)])
            for out, stdout in zip(sides, outputs):
                (out / demo).with_suffix(".stdout").write_bytes(stdout)
        differing += [f"demos/{rel}" for rel in diff_dirs(*sides)]
    return differing


def src_lines(tree: Path) -> int:
    """Lines of the package sources ``src/dynmoe/*.py`` under ``tree``, as
    ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (Path(tree) / "src" / "dynmoe").glob("*.py"))


def split_expected(differing: list[str], expect) -> tuple[list[str], list[str]]:
    """``differing`` split into the paths some pattern of ``expect`` matches
    and the rest."""
    matched = [rel for rel in differing if any(PurePosixPath(rel).match(e) for e in expect)]
    return matched, [rel for rel in differing if rel not in matched]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--expect", action="append", default=[], metavar="FILE",
                        help="an output file this change is meant to alter (repeatable)")
    args = parser.parse_args(argv)
    differing = compare(args.parent_tree, args.tree)
    expected, unexpected = split_expected(differing, args.expect)
    for label, group in (("expected", expected), ("unexpected", unexpected)):
        for rel in group:
            print(f"differs ({label}): {rel}")
    print(f"{len(RUNS)} runs, {len(DEMOS)} demos, {len(differing)} differing file(s), "
          f"{len(unexpected)} unexpected")
    print(f"src/dynmoe: {src_lines(args.parent_tree)} -> {src_lines(args.tree)} lines")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
