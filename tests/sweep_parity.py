"""Print one canonical JSON line per sweep call, for comparing two trees.

Each line holds the call's label, status, case count and counterexample
(the time is left out), so two checkouts agree exactly when their outputs
are byte-identical:

    python tests/sweep_parity.py > new.txt
    (cd ../parent && python /path/to/tests/sweep_parity.py --root .) > old.txt
    cmp old.txt new.txt

The calls are, in order:

* every item of the ``safety``, ``rule-sweep`` and ``entail`` benchmark
  workloads (mutants and sampled sweeps included, seeded as
  ``perfbench/run.py --seed SEED`` seeds them);
* ``check_safety`` on every test target of every preset at max_n=2;
* ``verify_reduction_rule`` on every builtin rule of the five presets (game
  and instantial over B2, the others over L2) at n=1 and n=2, exhaustive
  and sampled at the default seed, and on its mutant (``/\\`` and ``\\/``
  swapped, ``*`` read as ``/\\``) at n=2.

A call that raises prints its error in place of a verdict.  mvdl is
imported from ``src`` under the root (by default the checkout holding this
script), and the workload definitions from its ``perfbench``.
"""

import argparse
import importlib
import json
import sys
from pathlib import Path

WORKLOADS = ("Safety", "RuleSweep", "Entail")
MODULES = ("actions", "algebra", "harness", "jsonio", "presets", "reduction", "semantics", "syntax")


def calls(root: Path, seed: int):
    """``(label, thunk)`` for every call, in output order."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    m = {name: importlib.import_module(f"mvdl.{name}") for name in MODULES}
    workloads = importlib.import_module("mvdlbench.workloads")
    for name in WORKLOADS:
        workload = getattr(workloads, name)(seed, None)
        for item in workload.items(m, workload.setup(m)):
            yield f"{workload.name}: {item.label}", item.call
    h, L2, B2 = m["harness"], m["algebra"].algebra_by_name("L2"), m["algebra"].algebra_by_name("B2")
    presets = m["presets"]
    # game over L2 has too many monotone values at two states to sweep
    configs = [
        presets.make_preset(name, B2 if name in ("game", "instantial") else L2)
        for name in presets.PRESET_NAMES
    ]
    for config in configs:
        tag = f"{config.name}/{config.truth.name}"
        for spec in config.tests.values():
            yield f"safety {tag} {spec.id}", lambda c=config, s=spec: h.check_safety(s, c, max_n=2)
    sx, reduction = m["syntax"], m["reduction"]
    for config in configs:
        tag = f"{config.name}/{config.truth.name}"
        for rule in reduction.builtin_rules(config).rules.values():
            template = rule.template
            mutant = reduction.ReductionRule(
                *rule.key, sx.Template(template.n, template.k, _mutate(sx, template.body))
            )
            for r, label, sizes in ((rule, "rule", (1, 2)), (mutant, "mutant", (2,))):
                for n in sizes:
                    for mode in ("exhaustive", "random"):
                        yield (
                            f"{label} {tag} {' '.join(rule.key)} n={n} {mode}",
                            lambda c=config, r=r, n=n, mode=mode: h.verify_reduction_rule(
                                r, c, n=n, mode=mode
                            ),
                        )


def _mutate(sx, node):
    """``node`` with /\\ and \\/ swapped and * read as /\\."""
    if isinstance(node, sx.Conn):
        symbol = {"/\\": "\\/", "\\/": "/\\", "*": "/\\"}.get(node.symbol, node.symbol)
        return sx.Conn(symbol, tuple(_mutate(sx, a) for a in node.args))
    if isinstance(node, sx.Modal):
        return sx.Modal(node.lifting, node.action, tuple(_mutate(sx, a) for a in node.args))
    return node


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7, help="benchmark seed of the sampled sweeps")
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="checkout whose src and perfbench to import")
    args = ap.parse_args()
    for label, call in calls(args.root.resolve(), args.seed):
        try:
            verdict = call()
            line = {
                "status": verdict.status,
                "cases": verdict.cases,
                "counterexample": verdict.counterexample,
            }
        except Exception as exc:  # the error is the outcome to compare
            line = {"status": f"error: {type(exc).__name__}: {exc}"}
        print(json.dumps({"call": label, **line}, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
