"""Compare the training-step speed of two source trees in one process.

Usage:

    python tools/lockstep.py PARENT_TREE [--tree TREE] [--workload NAME]

loads ``<tree>/src/dynmoe`` of each tree under its own package name
(``--tree`` defaults to the checkout holding this script), reads the
workload ``NAME`` (default ``desk-discovery``) from this checkout's
``bench/workloads.py`` and trains it once per tree, each in its own thread,
as the benchmark's worker does (``train_loop``, or ``run_baseline`` for a
top-k workload). A turn token passed at each tree's ``harness.train_step``
lets exactly one tree run at a time, so the two alternate step by step and
share whatever the machine's speed does meanwhile. It trains twice: first
with the parent taking the first step of every pair, then with the tree
taking it, so that neither order favours one side. BLAS is pinned to one
thread before numpy loads.

For each order, and for the step times of both orders pooled, it prints
each tree's median and upper-quartile step time and their ratios (tree over
parent). Last, it prints whether the final checkpoints (``model_to_doc``,
serialized as ``save_model`` writes it) are identical in both orders. It
exits 0 if they are, 1 if they differ. Nothing is written into either tree.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_module(name: str, path: Path, package_dir: Path | None = None):
    """Import the file ``path`` as the module ``name``; with
    ``package_dir``, as a package whose submodules live there."""
    locations = None if package_dir is None else [str(package_dir)]
    spec = importlib.util.spec_from_file_location(name, path,
                                                  submodule_search_locations=locations)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(tree: Path, name: str):
    """The ``harness`` and ``adaptive`` modules of ``tree``'s dynmoe,
    imported as the package ``name``."""
    package_dir = Path(tree).resolve() / "src" / "dynmoe"
    load_module(name, package_dir / "__init__.py", package_dir)
    return importlib.import_module(f"{name}.harness"), importlib.import_module(f"{name}.adaptive")


class Turns:
    """A token held by one of two sides at a time, first by side ``lead``.
    ``swap`` hands it to the other side, unless that side has finished, and
    waits to get it back."""

    def __init__(self, lead: int = 0) -> None:
        self.cond = threading.Condition()
        self.holder = lead
        self.finished = [False, False]

    def wait(self, side: int) -> None:
        with self.cond:
            self.cond.wait_for(lambda: self.holder == side)

    def swap(self, side: int) -> None:
        with self.cond:
            if not self.finished[1 - side]:
                self.holder = 1 - side
                self.cond.notify_all()
            self.cond.wait_for(lambda: self.holder == side)

    def finish(self, side: int) -> None:
        with self.cond:
            self.finished[side] = True
            self.holder = 1 - side
            self.cond.notify_all()


def run_side(side: int, harness, adaptive, spec: dict, turns: Turns, out: dict) -> None:
    """Train ``spec`` with one tree, timing each ``train_step`` call it
    makes while holding the token; puts the step times and the serialized
    final model into ``out``, or the exception that stopped it."""
    step, times = harness.train_step, []

    def timed(*args, **kwargs):
        turns.swap(side)
        t = time.perf_counter()
        try:
            return step(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - t)

    harness.train_step = timed
    turns.wait(side)
    try:
        task = harness.gen_task(**spec["task"])
        adapt = adaptive.AdaptConfig(**spec["adapt"]) if "adapt" in spec else adaptive.AdaptConfig()
        cfg = harness.TrainConfig(**spec["train"], adapt=adapt)
        if spec["kind"] == "topk":
            result = harness.run_baseline(task, cfg, spec["n_experts"], spec["top_k"])
        else:
            result = harness.train_loop(task, cfg)
        out["doc"] = json.dumps(harness.model_to_doc(result.model), sort_keys=True)
    except Exception as exc:  # reported by lockstep once both sides stop
        out["error"] = exc
    finally:
        out["times"] = times
        harness.train_step = step
        turns.finish(side)


def lockstep(parent_tree: Path, tree: Path, spec: dict, lead: int = 0) -> dict:
    """Train ``spec`` with both trees in alternating steps, side ``lead``
    (0 the parent, 1 the tree) taking the first step of each pair. Returns,
    per side (``"parent"``, ``"tree"``), the list of step times in seconds,
    and ``"identical"``, whether the final checkpoints match byte for byte.
    Raises the first side's exception if either side failed."""
    turns = Turns(lead)
    outs = [{}, {}]
    threads = []
    for side, (path, name) in enumerate(((parent_tree, "lockstep_parent"),
                                         (tree, "lockstep_tree"))):
        harness, adaptive = load_tree(path, name)
        threads.append(threading.Thread(target=run_side, name=name,
                                        args=(side, harness, adaptive, spec, turns, outs[side])))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for out in outs:
        if "error" in out:
            raise out["error"]
    return {"parent": outs[0]["times"], "tree": outs[1]["times"],
            "identical": outs[0]["doc"] == outs[1]["doc"]}


def quartiles(times: list[float]) -> tuple[float, float]:
    """The median and the upper quartile."""
    q = statistics.quantiles(times, n=4, method="inclusive")
    return q[1], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("--tree", type=Path, default=ROOT)
    parser.add_argument("--workload", default="desk-discovery")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    workloads = load_module("lockstep_workloads", ROOT / "bench" / "workloads.py").WORKLOADS
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads)}")

    results = [lockstep(args.parent_tree, args.tree, workloads[args.workload], lead)
               for lead in (0, 1)]
    pooled = {side: [t for result in results for t in result[side]] for side in ("parent", "tree")}
    print(f"workload {args.workload}: {len(results[0]['parent'])} steps per tree and order, "
          f"alternating")
    for title, times in (("parent leads", results[0]), ("tree leads", results[1]),
                         ("both orders", pooled)):
        parent, tree = quartiles(times["parent"]), quartiles(times["tree"])
        print(f"{title}:")
        for label, path, (median, upper) in (("parent", args.parent_tree, parent),
                                             ("tree", args.tree, tree)):
            print(f"  {label:6s} {path}: median {median * 1e3:.4f} ms, "
                  f"upper quartile {upper * 1e3:.4f} ms")
        print(f"  ratio tree/parent: median {tree[0] / parent[0]:.4f}, "
              f"upper quartile {tree[1] / parent[1]:.4f}")
    identical = all(result["identical"] for result in results)
    print(f"checkpoints: {'identical' if identical else 'differ'}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
