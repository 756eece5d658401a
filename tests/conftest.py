"""Shared fixtures and the seeded structural fuzzers."""

from __future__ import annotations

import random

import pytest

from mvdl import syntax as sx
from mvdl.algebra import build_builtin
from mvdl.presets import make_preset


# a budget that admits any case space a test sets up and then runs only at
# the cids it picks (``run_at``)
ANY_SPACE = 1 << 62


def run_at(plan, outer, blocks) -> None:
    """Run a canonical plan whose sweep has set up its case space at one
    assignment of the slots, as the sweep runs each of its own: the outer
    slots at the cids ``outer``, slot 2 first, then slot 1 at the block
    list ``blocks``."""
    plan.cids[1:] = outer
    plan.run(1)
    plan.cids[0] = blocks
    plan.run(2)


@pytest.fixture(scope="session")
def B2():
    return build_builtin("boolean")


@pytest.fixture(scope="session")
def L2():
    return build_builtin("lukasiewicz", 2)


@pytest.fixture(scope="session")
def L3():
    return build_builtin("lukasiewicz", 3)


@pytest.fixture(scope="session")
def G2():
    return build_builtin("goedel", 2)


@pytest.fixture(scope="session")
def crisp_b2(B2):
    return make_preset("pdl-crisp", B2)


@pytest.fixture(scope="session")
def crisp_l2(L2):
    return make_preset("pdl-crisp", L2)


@pytest.fixture(scope="session")
def labelled_l2(L2):
    return make_preset("pdl-labelled", L2)


@pytest.fixture(scope="session")
def threshold_l2(L2):
    return make_preset("pdl-threshold", L2)


@pytest.fixture(scope="session")
def game_l2(L2):
    return make_preset("game", L2)


@pytest.fixture(scope="session")
def game_b2(B2):
    return make_preset("game", B2)


@pytest.fixture(scope="session")
def instantial():
    return make_preset("instantial", max_k=2)


# -- structural fuzzers ---------------------------------------------------


def random_action(rng: random.Random, config, depth: int, allow_star: bool = True,
                  atoms=("a", "b")):
    ops = [
        spec for spec in config.ops.values()
        if allow_star or spec.variant != "star"
    ]
    if depth <= 0 or rng.random() < 0.4:
        return sx.Atomic(rng.choice(atoms))
    roll = rng.random()
    if roll < 0.25 and config.tests:
        tid = rng.choice(sorted(config.tests))
        return sx.Test(tid, random_formula(rng, config, depth - 1, allow_star, atoms))
    spec = rng.choice(ops)
    args = tuple(
        random_action(rng, config, depth - 1, allow_star, atoms)
        for _ in range(spec.arity)
    )
    return sx.Op(spec.id, args)


def random_formula(rng: random.Random, config, depth: int, allow_star: bool = True,
                   atoms=("a", "b"), props=("p", "q")):
    if depth <= 0 or rng.random() < 0.3:
        return sx.Prop(rng.choice(props))
    roll = rng.random()
    truth = config.truth
    if roll < 0.12:
        return rng.choice([sx.TOP, sx.BOT])
    if roll < 0.5:
        extras = sorted(truth.extras) + sorted(truth.constants)
        if extras and rng.random() < 0.2:
            name = rng.choice(extras)
            if name in truth.constants:
                return sx.Conn(name)
            return sx.Conn(name, (random_formula(rng, config, depth - 1, allow_star, atoms, props),))
        symbol = rng.choice(["/\\", "\\/", "*", "->"])
        return sx.Conn(
            symbol,
            (
                random_formula(rng, config, depth - 1, allow_star, atoms, props),
                random_formula(rng, config, depth - 1, allow_star, atoms, props),
            ),
        )
    lid = rng.choice(sorted(config.liftings))
    spec = config.liftings[lid]
    return sx.Modal(
        lid,
        random_action(rng, config, depth - 1, allow_star, atoms),
        tuple(
            random_formula(rng, config, depth - 1, allow_star, atoms, props)
            for _ in range(spec.arity)
        ),
    )


def random_template(rng: random.Random, config, n: int, k: int, depth: int):
    def body(d):
        if d <= 0 or rng.random() < 0.35:
            return sx.Var(rng.randint(1, k))
        roll = rng.random()
        if roll < 0.4:
            symbol = rng.choice(["/\\", "\\/", "*", "->"])
            return sx.Conn(symbol, (body(d - 1), body(d - 1)))
        if roll < 0.5:
            return sx.Conn(rng.choice(["0", "1"]))
        lid = rng.choice(sorted(config.liftings))
        spec = config.liftings[lid]
        return sx.Modal(
            lid, rng.randint(1, n), tuple(body(d - 1) for _ in range(spec.arity))
        )

    return sx.Template(n, k, body(depth))


def random_model(rng: random.Random, config, n: int, props=("p", "q"), atoms=("a", "b")):
    from mvdl.semantics import Model

    value = config.fops(n).drawer(rng)
    truth = config.truth
    return Model(
        n,
        config,
        atoms={name: tuple(value() for _ in range(n)) for name in atoms},
        valuation={
            name: tuple(rng.randrange(truth.m) for _ in range(n)) for name in props
        },
    )
