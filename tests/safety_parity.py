"""Print one canonical JSON line per safety check, for comparing two trees.

Each line holds the call's label, status, case count and counterexample
(the time is left out), so two checkouts agree exactly when their outputs
are byte-identical:

    python tests/safety_parity.py > new.txt
    (cd ../parent && python tests/safety_parity.py) > old.txt
    cmp old.txt new.txt

The calls are the seventeen of the ``safety`` benchmark workload (its
sampled sweep seeded as ``perfbench/run.py --seed SEED`` seeds it), then
every test target of every preset, all at max_n=2.  mvdl is imported from
the ``src`` directory of the checkout that holds this script.
"""

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mvdl.actions import OperationSpec  # noqa: E402
from mvdl.algebra import algebra_by_name  # noqa: E402
from mvdl.harness import check_safety  # noqa: E402
from mvdl.presets import PRESET_NAMES, make_preset  # noqa: E402


def calls(seed: int):
    L2, B2 = algebra_by_name("L2"), algebra_by_name("B2")
    crisp, labelled, game = (
        make_preset("pdl-crisp", L2), make_preset("pdl-labelled", L2), make_preset("game", B2)
    )
    for op in ("+", ";", "*", "~"):
        yield "pdl-crisp/L2", crisp, crisp.ops[op], {}
    yield "pdl-crisp/L2", crisp, crisp.tests["t"], {}
    for op in ("+", ";", "*"):
        yield "pdl-labelled/L2", labelled, labelled.ops[op], {}
    yield "pdl-labelled/L2", labelled, labelled.tests["t"], {}
    yield "pdl-labelled/L2", labelled, OperationSpec("meet", 2, "meet-pw"), {}
    for op in ("+", "&", "^d", ";", "*"):
        yield "game/B2", game, game.ops[op], {}
    sample_seed = random.Random(seed).randrange(1 << 31)
    yield (
        "pdl-labelled/L2", labelled, labelled.ops[";"],
        {"mode": "random", "trials": 4000, "seed": sample_seed},
    )
    yield "game/B2", game, game.tests["t"], {}
    for name in PRESET_NAMES:
        alg = B2 if name == "instantial" else L2
        config = make_preset(name, alg)
        for spec in config.tests.values():
            yield f"{name}/{alg.name}", config, spec, {}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7, help="benchmark seed of the sampled sweep")
    args = ap.parse_args()
    for tag, config, spec, options in calls(args.seed):
        verdict = check_safety(spec, config, max_n=2, **options)
        line = {
            "call": " ".join([tag, spec.id, *(f"{k}={v}" for k, v in options.items())]),
            "status": verdict.status,
            "cases": verdict.cases,
            "counterexample": verdict.counterexample,
        }
        print(json.dumps(line, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
