"""Regenerate the pinned answers for the ``eval`` requests.

    python3 perfbench/pin_eval.py

Draws 12 models and formulas per preset from a fixed seed with the
benchmark's own generators, evaluates each formula with mvdl from ``src/``
and writes mvdlbench/data/eval_cases.json.  The requests workload then
checks every ``mvdl eval`` reply against these values, so rerun this only
when a change to the semantics is intended.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from mvdl import eval_formula, model_from_json, parse  # noqa: E402
from mvdl import __version__  # noqa: E402

from mvdlbench import gen  # noqa: E402

PIN_SEED = 20261017


def main() -> None:
    rng = random.Random(PIN_SEED)
    cases = []
    for preset in gen.PRESETS:
        for j in range(12):
            model = gen.random_model(rng, preset, 2 + j % 2)
            phi = gen.FormulaGen(rng, preset, star=True).formula(rng.randint(3, 5), 3)
            loaded = model_from_json(model)
            values = eval_formula(loaded, parse(phi, loaded.config.signature))
            cases.append({
                "id": f"{preset}-{j}",
                "model": model,
                "phi": phi,
                "values": list(values),
            })
    out = HERE / "mvdlbench" / "data" / "eval_cases.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(
        {"pinned_with": f"mvdl {__version__}", "seed": PIN_SEED, "cases": cases},
        indent=1,
    ) + "\n")
    print(f"wrote {len(cases)} cases to {out}")


if __name__ == "__main__":
    main()
