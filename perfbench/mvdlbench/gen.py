"""Seeded generators owned by the benchmark: formulas, models, axiom texts.

Everything here is plain Python on plain data (formula text, model JSON,
argv lists); mvdl is not imported, so the program under test receives only
the generated inputs.
"""

from __future__ import annotations

import random
from itertools import product

# The five shipped presets as the README documents them, over the algebras
# the benchmark uses.  ``truth_m`` is the size of the algebra formulas take
# values in, ``struct_m`` the size of the algebra labelling transitions.
PRESETS = {
    "pdl-crisp": {
        "algebra": "B2", "kind": "powerset", "truth_m": 2, "struct_m": 2,
        "ops": {"+": 2, ";": 2, "~": 1}, "modal": "box-dia",
        "liftings": {"box": 1, "dia": 1},
    },
    "pdl-labelled": {
        "algebra": "L2", "kind": "apowerset", "truth_m": 3, "struct_m": 3,
        "ops": {"+": 2, ";": 2, "~": 1}, "modal": "box-dia",
        "liftings": {"box": 1, "dia": 1},
    },
    "pdl-threshold": {
        "algebra": "L2", "kind": "apowerset", "truth_m": 2, "struct_m": 3,
        "ops": {"+": 2, ";": 2}, "modal": "explicit",
        "liftings": {"dia_1_2": 1, "dia_1": 1},
    },
    "game": {
        "algebra": "L2", "kind": "monotone-aneighbourhood", "truth_m": 3,
        "struct_m": 3, "ops": {"+": 2, "&": 2, ";": 2, "^d": 1},
        "modal": "diamond", "liftings": {"dia": 1},
    },
    "instantial": {
        "algebra": "B2", "kind": "double-powerset", "truth_m": 2, "struct_m": 2,
        "ops": {"+": 2, ";": 2, "&": 2, "~": 1}, "modal": "explicit",
        # make_preset's default max_k=2: inst1..inst3, inst_j takes j arguments
        "liftings": {"inst1": 1, "inst2": 2, "inst3": 3},
    },
}

PROPS = ("p", "q", "r")
ATOMS = ("a", "b", "c")
CONNS = ("/\\", "\\/", "->", "*")


# -- formulas ---------------------------------------------------------------


class FormulaGen:
    """Random formula text for one preset.

    ``depth`` is the height of the formula tree (a proposition has height
    1); ``op_budget`` caps the operation nodes in all actions together, which
    bounds the size of the reduced normal form.
    """

    def __init__(self, rng: random.Random, preset: str, star: bool = False):
        self.rng = rng
        self.p = PRESETS[preset]
        self.star = star

    def formula(self, depth: int, op_budget: int) -> str:
        text, _ = self._formula(depth, [op_budget])
        return text

    def _formula(self, depth: int, budget: list) -> tuple[str, int]:
        rng = self.rng
        if depth <= 1:
            return rng.choice(PROPS + PROPS + ("0", "1")), 1
        roll = rng.random()
        if roll < 0.5:
            return self._modal(depth, budget), depth
        if roll < 0.6:
            inner, _ = self._formula(depth - 1, budget)
            return f"!({inner})", depth
        conn = rng.choice(CONNS)
        deep = rng.randrange(2)
        parts = []
        for i in range(2):
            d = depth - 1 if i == deep else rng.randint(1, depth - 1)
            parts.append(self._formula(d, budget)[0])
        return f"({parts[0]} {conn} {parts[1]})", depth

    def _modal(self, depth: int, budget: list) -> str:
        rng, p = self.rng, self.p
        action = self.action(budget, 2)
        lid = rng.choice(sorted(p["liftings"]))
        arity = p["liftings"][lid]
        deep = rng.randrange(arity)
        args = []
        for i in range(arity):
            d = depth - 1 if i == deep else rng.randint(1, depth - 1)
            args.append(self._formula(d, budget)[0])
        if p["modal"] == "box-dia":
            bracket = "[{}]" if lid == "box" else "<{}>"
            return bracket.format(action) + f"({args[0]})"
        if p["modal"] == "diamond":
            return f"<{action}>({args[0]})"
        return f"<{action}:{lid}>({', '.join(args)})"

    def action(self, budget: list, depth: int) -> str:
        rng, p = self.rng, self.p
        roll = rng.random()
        if depth > 0 and budget[0] > 0 and roll < 0.55:
            budget[0] -= 1
            op = rng.choice(sorted(p["ops"]))
            if p["ops"][op] == 2:
                left = self.action(budget, depth - 1)
                right = self.action(budget, depth - 1)
                return f"({left}{op}{right})"
            inner = self.action(budget, depth - 1)
            return f"~({inner})" if op == "~" else f"({inner})^d"
        if depth > 0 and budget[0] > 0 and roll < 0.65:
            budget[0] -= 1
            inner, _ = self._formula(rng.randint(1, 2), [0])
            return f"?t({inner})"
        if self.star and roll < 0.75:
            return f"({rng.choice(ATOMS)})*"
        return rng.choice(ATOMS)


# -- models -----------------------------------------------------------------


def _monotone_table(rng: random.Random, m: int, n: int) -> list[int]:
    """A monotone table over the predicates m^n in lexicographic order:
    N(s) = max { c_i : t_i <= s pointwise } for random generators (t_i, c_i).
    On a chain, max is the join, so N is monotone by construction."""
    preds = list(product(range(m), repeat=n))
    gens = [(rng.choice(preds), rng.randrange(1, m)) for _ in range(rng.randint(0, 3))]
    out = []
    for s in preds:
        best = 0
        for t, c in gens:
            if all(a <= b for a, b in zip(t, s)) and c > best:
                best = c
        out.append(best)
    return out


def random_fvalue(rng: random.Random, preset: str, n: int):
    p = PRESETS[preset]
    kind, m = p["kind"], p["struct_m"]
    if kind == "powerset":
        return rng.randrange(1 << n)
    if kind == "apowerset":
        return [rng.randrange(m) for _ in range(n)]
    if kind == "monotone-aneighbourhood":
        return _monotone_table(rng, m, n)
    masks = [mask for mask in range(1 << n) if rng.random() < 0.5]
    return masks


def random_model(rng: random.Random, preset: str, n: int) -> dict:
    """A model in mvdl's JSON format over atoms a, b, c and props p, q, r."""
    p = PRESETS[preset]
    return {
        "n": n,
        "preset": preset,
        "kind": p["kind"],
        "algebra": p["algebra"],
        "atoms": {
            a: [random_fvalue(rng, preset, n) for _ in range(n)] for a in ATOMS
        },
        "valuation": {
            q: [rng.randrange(p["truth_m"]) for _ in range(n)] for q in PROPS
        },
    }


# -- axiom schemata, as text ------------------------------------------------

# Reduction axioms from the paper, written out by hand for the entail
# requests: each entry is (preset, lhs, rhs) and the request asks whether
# lhs <-> rhs holds in every model up to one state.
AXIOMS = [
    ("pdl-crisp", "[a+b]p", "[a]p /\\ [b]p"),
    ("pdl-crisp", "<a;b>p", "<a><b>p"),
    ("pdl-labelled", "<a+b>p", "<a>p \\/ <b>p"),
    ("pdl-labelled", "[a;b]p", "[a][b]p"),
    ("pdl-threshold", "<a+b:dia_1_2>p", "<a:dia_1_2>p \\/ <b:dia_1_2>p"),
    ("pdl-threshold", "<a;b:dia_1>p", "<a:dia_1><b:dia_1>p"),
    ("game", "<a&b>p", "<a>p /\\ <b>p"),
    ("game", "<a;b>p", "<a><b>p"),
    ("instantial", "<a+b:inst1>p", "<a:inst1>p /\\ <b:inst1>p"),
    ("instantial", "<a;b:inst1>p", "<a:inst1><b:inst1>p"),
]

# Formulas refuted by a one-state model, and one that holds there:
# p -> [a]p is valid on one state (the only successor is the state itself)
# and fails from two states on.  Entries are (preset, formula, atoms used).
REFUTED_AT_ONE = [
    ("pdl-crisp", "p", 0),
    ("pdl-labelled", "[a]p", 1),
    ("game", "<a>1", 1),
    ("instantial", "<a:inst1>p", 1),
]
HOLDS_AT_ONE = [("pdl-crisp", "p -> [a]p", 1)]


def iff(lhs: str, rhs: str) -> str:
    return f"(({lhs}) -> ({rhs})) /\\ (({rhs}) -> ({lhs}))"
