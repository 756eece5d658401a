"""Known answers that do not come from the code under test.

Case counts are closed forms over the sizes of the functor value spaces.
Those sizes are counted here directly; the monotone neighbourhood tables
are counted by a brute-force filter over all tables, not by mvdl's
backtracking enumerator.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product


@lru_cache(maxsize=None)
def monotone_table_count(m: int, n: int) -> int:
    """Tables N: m^n -> m with N(s) <= N(t) whenever s <= t pointwise, for a
    chain whose order is the index order."""
    preds = list(product(range(m), repeat=n))
    below = [
        (i, j)
        for i, s in enumerate(preds)
        for j, t in enumerate(preds)
        if i != j and all(a <= b for a, b in zip(s, t))
    ]
    return sum(
        1
        for table in product(range(m), repeat=len(preds))
        if all(table[i] <= table[j] for i, j in below)
    )


def fvalue_space(kind: str, n: int, m: int) -> int:
    """|FX| for a carrier of n states, m the structure algebra size."""
    if kind == "powerset":
        return 2**n
    if kind == "apowerset":
        return m**n
    if kind == "monotone-aneighbourhood":
        return monotone_table_count(m, n)
    if kind == "double-powerset":
        return 2 ** (2**n)
    raise ValueError(kind)


def rule_sweep_cases(kind: str, n: int, struct_m: int, truth_m: int,
                     op_arity: int | None, lifting_arity: int) -> int:
    """Cases of an exhaustive rule-soundness sweep at carrier size n: every
    coalgebra tuple (or test argument), every predicate tuple, every state."""
    sigmas = (truth_m**n) ** lifting_arity
    if op_arity is None:  # test rule: the test argument is one more predicate
        return truth_m**n * sigmas * n
    coalgebras = fvalue_space(kind, n, struct_m) ** n
    return coalgebras**op_arity * sigmas * n


def entailment_cases(kind: str, max_n: int, struct_m: int, truth_m: int,
                     atoms: int, props: int) -> int:
    """Standard models with up to max_n states over the given atoms/props."""
    return sum(
        (fvalue_space(kind, n, struct_m) ** n) ** atoms * (truth_m**n) ** props
        for n in range(1, max_n + 1)
    )


def test_safety_cases(max_n: int, truth_m: int) -> int:
    """Naturality cases of a test: every map f and target predicate."""
    return sum(
        n_tgt**n_src * truth_m**n_tgt
        for n_src in range(1, max_n + 1)
        for n_tgt in range(1, max_n + 1)
    )


def separation_pairs(kind: str, n: int, struct_m: int) -> int:
    size = fvalue_space(kind, n, struct_m)
    return size * (size - 1) // 2


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it (p99 of 1000 samples leaves 10 above it)."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(sorted_values) - 1e-9))
    return sorted_values[rank - 1]
