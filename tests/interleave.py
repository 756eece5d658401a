"""Time one benchmark workload's items on two trees in one process.

    python tests/interleave.py --root ../parent --workload entail --reps 9

Each tree's ``src/mvdl`` is imported under a package name of its own
(``mvdl_root`` for ``--root``, ``mvdl_here`` for the checkout holding this
script), and the workload of ``perfbench/mvdlbench/workloads.py`` in this
checkout builds its items once per tree.  Every repetition runs each item
on both trees, one right after the other, the tree that goes first
alternating from one repetition to the next, and checks each result with
the item's ``expect``; a call that raises or disagrees is reported and
ends the run with exit code 1.  It prints each item's median seconds on
both trees, their ratio and how many repetitions the checkout won, then
the same for the whole workload.  ``perfbench/`` is only read.  Not
collected by pytest.
"""

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parents[1]
MODULES = (
    "algebra", "syntax", "functors", "semantics", "actions", "presets", "reduction",
    "harness", "jsonio", "cli",
)


def load(src: Path, name: str) -> dict:
    """The modules of the mvdl package under ``src``, imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, src / "mvdl" / "__init__.py", submodule_search_locations=[str(src / "mvdl")]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    mods = {short: importlib.import_module(f"{name}.{short}") for short in MODULES}
    mods["mvdl"] = pkg
    return mods


def timed(item) -> float:
    """Seconds one call of ``item`` takes; raises if its answer is wrong."""
    t = time.perf_counter()
    result = item.call()
    seconds = time.perf_counter() - t
    error, _ = item.expect(result)
    if error:
        raise AssertionError(f"{item.label}: {error}")
    return seconds


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, required=True, help="the other checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--reps", type=int, default=9)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    sys.path.insert(0, str(CHECKOUT / "perfbench"))
    from mvdlbench.workloads import WORKLOADS

    trees = {"root": args.root.resolve() / "src", "here": CHECKOUT / "src"}
    items = {}
    with tempfile.TemporaryDirectory() as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        for tree, src in trees.items():
            m = load(src, f"mvdl_{tree}")
            items[tree] = workload.items(m, workload.setup(m))
        labels = [item.label for item in items["here"]]
        if labels != [item.label for item in items["root"]]:
            print("the trees' items differ", file=sys.stderr)
            return 1
        times = {tree: [[] for _ in labels] for tree in trees}
        try:
            for rep in range(args.reps):
                order = ("root", "here") if rep % 2 == 0 else ("here", "root")
                for i in range(len(labels)):
                    for tree in order:
                        gc.collect()
                        times[tree][i].append(timed(items[tree][i]))
        except Exception as exc:
            print(f"FAILED {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    rows = list(zip(labels, times["root"], times["here"]))
    totals = [list(map(sum, zip(*times[tree]))) for tree in ("root", "here")]
    print(f"# {args.workload}, seed {args.seed}, {args.reps} reps; ms root, ms here, ratio, here wins")
    for label, root, here in rows + [("TOTAL", *totals)]:
        a, b = statistics.median(root), statistics.median(here)
        wins = sum(y < x for x, y in zip(root, here))
        print(f"{a * 1e3:10.2f} {b * 1e3:10.2f} {b / a:6.3f} {wins:3d}/{len(root)}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
