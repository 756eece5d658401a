"""Acceptance suite: one test per criterion, one printed line per criterion.

Every tolerance is pinned here.  Values are exact algebra elements, so all
equality checks are exact; the only numeric tolerances are the stated wall
clock budgets.
"""

import random
import sys
import time
from itertools import product

import pytest

from mvdl import syntax as sx
from mvdl.actions import OperationSpec, apply_op
from mvdl.algebra import (
    algebra_by_name,
    build_builtin,
    derive_residuum,
    is_chi_definable,
    is_semiprimal,
    validate_flew,
)
from mvdl.functors import Kind, functor_ops
from mvdl.harness import (
    bounded_entailment,
    check_invariance,
    check_safety,
    check_separation,
    one_step_witness,
    pullback_model,
    verify_reduction_rule,
)
from mvdl.presets import make_preset
from mvdl.reduction import builtin_rules, _rewrite_modal
from mvdl.semantics import Model
from mvdl.syntax import parse

from conftest import random_formula, random_model


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status}: {detail}", file=sys.__stdout__, flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_algebra_laws():
    t0 = time.perf_counter()
    names = ["B2"] + [f"L{n}" for n in range(1, 6)] + [f"G{n}" for n in range(1, 6)]
    ok = True
    for name in names:
        alg = algebra_by_name(name)
        ok &= validate_flew(alg).ok
        ok &= derive_residuum(alg.m, alg.join_table, alg.tensor_table) == alg.impl_table
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"laws + residua for {len(names)} algebras in {elapsed:.3f}s (< 1s)")


def test_criterion_02_semiprimality():
    t0 = time.perf_counter()
    ok = is_semiprimal(algebra_by_name("B2"))
    for n in (1, 2, 3):
        ok &= is_semiprimal(algebra_by_name(f"L{n}"))
    ok &= is_chi_definable(algebra_by_name("L2"), {2})
    # pinned regression value, first computed by the closure oracle:
    # the 4-element Goedel chain is not semi-primal
    ok &= is_semiprimal(algebra_by_name("G3")) is False
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(2, ok, f"B2/L1-3 semi-primal, G3 pinned False in {elapsed:.3f}s (< 5s)")


def test_criterion_03_labelled_reduction_soundness():
    t0 = time.perf_counter()
    config = make_preset("pdl-labelled", algebra_by_name("L2"))
    registry = builtin_rules(config)
    keys = [
        ("op", "+", "box"),
        ("op", "+", "dia"),
        ("op", ";", "box"),
        ("op", ";", "dia"),
        ("test", "t", "box"),
        ("test", "t", "dia"),
    ]
    ok = True
    cases = {}
    for key in keys:
        verdict = verify_reduction_rule(registry.rules[key], config, n=2)
        ok &= verdict.status == "holds"
        cases[key] = verdict.cases
    # the op sweeps cover all 81^2 coalgebra pairs, 9 predicates, 2 states
    for key in keys[:4]:
        ok &= cases[key] == 81 * 81 * 9 * 2
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(3, ok, f"6 labelled rules exhaustive at n=2 ({cases[keys[2]]} cases each op rule) in {elapsed:.1f}s (< 60s)")


def test_criterion_04_threshold_rules():
    t0 = time.perf_counter()
    config = make_preset("pdl-threshold", algebra_by_name("L2"))
    registry = builtin_rules(config)
    ok = True
    checked = 0
    for r_id in ("dia_1_2", "dia_1"):
        for key in (("op", ";", r_id), ("test", "t", r_id), ("op", "+", r_id)):
            verdict = verify_reduction_rule(registry.rules[key], config, n=2)
            ok &= verdict.status == "holds"
            checked += 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(4, ok, f"{checked} threshold rules exhaustive over L2 at n=2 in {elapsed:.1f}s (< 60s)")


def test_criterion_05_instantial_rules():
    t0 = time.perf_counter()
    config = make_preset("instantial", max_k=1)
    registry = builtin_rules(config)
    ok = True
    checked = 0
    for lid in ("inst1", "inst2"):
        for key in (
            ("op", ";", lid),
            ("op", "&", lid),
            ("op", "+", lid),
            ("op", "~", lid),
            ("test", "t", lid),
        ):
            verdict = verify_reduction_rule(registry.rules[key], config, n=2)
            ok &= verdict.status == "holds"
            checked += 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(5, ok, f"{checked} instantial rules exhaustive at n=2 (16 values/state) in {elapsed:.1f}s (< 120s)")


def test_criterion_06_game_rules():
    t0 = time.perf_counter()
    config = make_preset("game", algebra_by_name("L2"))
    registry = builtin_rules(config)
    keys = [
        ("op", "+", "dia"),
        ("op", "&", "dia"),
        ("op", "^d", "dia"),
        ("op", ";", "dia"),
        ("test", "t", "dia"),
    ]
    ok = True
    for key in keys:
        exhaustive = verify_reduction_rule(registry.rules[key], config, n=1)
        ok &= exhaustive.status == "holds"
        sampled = verify_reduction_rule(
            registry.rules[key], config, n=2, mode="random", trials=10_000, seed=0xC0A1
        )
        ok &= sampled.status == "holds-up-to-bound"
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(6, ok, f"5 game rules: n=1 exhaustive + 10^4 samples at n=2 in {elapsed:.1f}s (< 120s)")


def test_criterion_07_safety():
    t0 = time.perf_counter()
    L2 = algebra_by_name("L2")
    crisp = make_preset("pdl-crisp", L2)
    labelled = make_preset("pdl-labelled", L2)
    ok = True
    for op_id in ("+", ";", "*", "~"):
        ok &= check_safety(crisp.ops[op_id], crisp, max_n=2).status == "holds-up-to-bound"
    ok &= check_safety(crisp.tests["t"], crisp, max_n=2).status == "holds-up-to-bound"
    for op_id in ("+", ";", "*"):
        ok &= check_safety(labelled.ops[op_id], labelled, max_n=2).status == "holds-up-to-bound"
    ok &= check_safety(labelled.tests["t"], labelled, max_n=2).status == "holds-up-to-bound"
    meet = OperationSpec("meet", 2, "meet-pw")
    verdict = check_safety(meet, labelled, max_n=2)
    ok &= verdict.status == "fails" and verdict.counterexample is not None
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    report(7, ok, f"powerset/apowerset targets safe, meet-pw refuted with witness in {elapsed:.1f}s (< 120s)")


def test_criterion_08_iteration_oracle():
    t0 = time.perf_counter()
    B2 = algebra_by_name("B2")
    rng = random.Random(0xC0A1)
    ok = True
    for _ in range(200):
        n = rng.randint(1, 6)
        fops = functor_ops(Kind.POWERSET, n, B2)
        gamma = tuple(rng.randrange(1 << n) for _ in range(n))
        star = apply_op(OperationSpec("*", 1, "star"), (gamma,), fops)
        # independent Floyd-Warshall reflexive-transitive closure
        reach = [[bool(gamma[i] >> j & 1) for j in range(n)] for i in range(n)]
        for i in range(n):
            reach[i][i] = True
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if reach[i][k] and reach[k][j]:
                        reach[i][j] = True
        oracle = tuple(
            sum(1 << j for j in range(n) if reach[i][j]) for i in range(n)
        )
        ok &= star == oracle
    elapsed = time.perf_counter() - t0
    report(8, ok, f"star equals Floyd-Warshall closure on 200 digraphs (n <= 6) in {elapsed:.2f}s")


def test_criterion_09_separation():
    t0 = time.perf_counter()
    L2 = algebra_by_name("L2")
    ok = True
    crisp = make_preset("pdl-crisp", L2)
    for n in (1, 2, 3):
        ok &= check_separation([crisp.liftings["box"]], crisp, n=n).status == "holds"
        ok &= check_separation([crisp.liftings["dia"]], crisp, n=n).status == "holds"
    threshold = make_preset("pdl-threshold", L2)
    ok &= check_separation(list(threshold.liftings.values()), threshold, n=2).status == "holds"
    instantial = make_preset("instantial", max_k=2)
    ok &= check_separation(list(instantial.liftings.values()), instantial, n=2).status == "holds"
    elapsed = time.perf_counter() - t0
    report(9, ok, f"box/diamond (n<=3), thresholds and instantials (n=2) separate in {elapsed:.2f}s")


def test_criterion_10_one_step_witnesses():
    t0 = time.perf_counter()
    L2 = algebra_by_name("L2")
    rng = random.Random(0xC0A1)
    ok = True
    fops_row = functor_ops(Kind.APOWERSET, 2, L2)
    from mvdl.functors import predicate_space

    preds = predicate_space(3, 2)
    row = fops_row.drawer(rng)
    for _ in range(500):
        alpha = row()
        H = {
            p: L2.bigjoin(L2.tensor(p[x], alpha[x]) for x in range(2)) for p in preds
        }
        result = one_step_witness("labelled-diamond", L2, 2, H)
        ok &= result.satisfiable and result.alpha == alpha
    for _ in range(500):
        alpha = tuple(rng.randrange(3) for _ in range(2))
        H = {}
        for r in (1, 2):
            for s in range(4):
                acc = L2.bigjoin(alpha[x] for x in range(2) if s >> x & 1)
                H[(r, s)] = 1 if L2.leq(r, acc) else 0
        result = one_step_witness("threshold", L2, 2, H)
        ok &= result.satisfiable and result.alpha == alpha
    fops_mono = functor_ops(Kind.MONOTONE_NEIGHBOURHOOD, 2, L2)
    mono = fops_mono.drawer(rng)
    for _ in range(500):
        alpha = mono()
        H = {p: alpha[i] for i, p in enumerate(preds)}
        result = one_step_witness("monotone-eval", L2, 2, H)
        ok &= result.satisfiable and result.alpha == alpha
    # corrupted inputs name the violated rank-1 axiom
    H = {p: L2.bigjoin(L2.tensor(p[x], (1, 2)[x]) for x in range(2)) for p in preds}
    H[(2, 2)] = 0
    ok &= one_step_witness("labelled-diamond", L2, 2, H).violation.axiom == "diamond-join"
    H = {(r, s): 1 if (r == 2 and s & 1) else 0 for r in (1, 2) for s in range(4)}
    ok &= one_step_witness("threshold", L2, 2, H).violation.axiom == "threshold-monotonicity"
    H = {p: 0 for p in preds}
    H[(0, 1)] = 2
    ok &= one_step_witness("monotone-eval", L2, 2, H).violation.axiom == "eval-monotonicity"
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(10, ok, f"3x500 witness roundtrips exact + named axiom rejections in {elapsed:.1f}s (< 30s)")


def test_criterion_11_invariance():
    t0 = time.perf_counter()
    rng = random.Random(0xC0A1)
    ok = True
    configs = [
        make_preset("pdl-crisp", algebra_by_name("B2")),
        make_preset("pdl-labelled", algebra_by_name("L2")),
    ]
    maps_done = 0
    for config in configs:
        for _ in range(50):
            n_tgt = rng.randint(1, 3)
            n_src = rng.randint(n_tgt, 4)
            # random surjection: hit every target state, then fill freely
            f = list(range(n_tgt)) + [
                rng.randrange(n_tgt) for _ in range(n_src - n_tgt)
            ]
            rng.shuffle(f)
            target = random_model(rng, config, n_tgt)
            source = pullback_model(target, f, n_src)
            formulas = [
                parse("<a;b> p", config.signature),
                parse("[a+b] q", config.signature),
                parse("<(a;?t(q))*> p", config.signature),
                parse("[~a] (p -> q)", config.signature),
            ] + [random_formula(rng, config, depth=3) for _ in range(3)]
            verdict = check_invariance(source, target, f, formulas)
            ok &= verdict.status == "holds"
            maps_done += 1
    elapsed = time.perf_counter() - t0
    report(11, ok, f"{maps_done} quotient maps preserve fuzzed formulas exactly in {elapsed:.1f}s")


def test_criterion_12_entailment():
    t0 = time.perf_counter()
    ok = True
    crisp = make_preset("pdl-crisp", algebra_by_name("B2"))
    phi = parse("p -> [a]p", crisp.signature)
    verdict = bounded_entailment([], phi, crisp, max_n=2)
    ok &= verdict.status == "fails"
    ok &= verdict.counterexample["model"]["n"] == 2

    # every builtin reduction axiom reports holds-up-to-bound; per-preset
    # bounds: exhaustive n<=2 where the model space is enumerable, else
    # exhaustive n=1 plus seeded samples at n<=2
    def axiom_instance(config, rule):
        atoms = [sx.Atomic(name) for name in ("a", "b")[: 0 if rule.target_kind == "test" else config.ops[rule.target].arity]]
        k = config.liftings[rule.lifting].arity
        props = [sx.Prop(f"p{i}" if i else "p") for i in range(k)]
        if rule.target_kind == "op":
            action = sx.Op(rule.target, tuple(atoms))
        else:
            action = sx.Test(rule.target, sx.Prop("q"))
        lhs = sx.Modal(rule.lifting, action, tuple(props))
        rhs = _rewrite_modal(lhs, registry)
        return sx.Conn("/\\", (sx.Conn("->", (lhs, rhs)), sx.Conn("->", (rhs, lhs))))

    checked = 0
    plans = [
        (make_preset("pdl-crisp", algebra_by_name("B2")), "exhaustive", 2),
        (make_preset("pdl-labelled", algebra_by_name("L2")), "exhaustive", 2),
        (make_preset("pdl-threshold", algebra_by_name("L2")), "exhaustive", 2),
        (make_preset("game", algebra_by_name("L2")), "split", 2),
        (make_preset("instantial", max_k=1), "split", 2),
    ]
    for config, plan, max_n in plans:
        registry = builtin_rules(config)
        for rule in registry.rules.values():
            both = axiom_instance(config, rule)
            if plan == "exhaustive":
                verdict = bounded_entailment([], both, config, max_n=max_n)
                ok &= verdict.status == "holds-up-to-bound"
            else:
                verdict = bounded_entailment([], both, config, max_n=1)
                ok &= verdict.status == "holds-up-to-bound"
                sampled = bounded_entailment(
                    [], both, config, max_n=max_n, mode="random", trials=800,
                    seed=0xC0A1,
                )
                ok &= sampled.status == "holds-up-to-bound"
            checked += 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(12, ok, f"n=2 countermodel found; {checked} axiom instances hold-up-to-bound in {elapsed:.1f}s (< 30s)")
