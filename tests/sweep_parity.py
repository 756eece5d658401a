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
* sampled ``check_safety`` (300 trials, seeds SEED..SEED+2, max_n 1-3) on
  every operation of every preset, on meet-pw over pdl-labelled/L2 and on
  counter-domain over aneighbourhood/B2;
* ``verify_reduction_rule`` on every builtin rule of the five presets (game
  and instantial over B2, the others over L2) at n=1 and n=2, exhaustive
  and sampled at the default seed, and on its mutant (``/\\`` and ``\\/``
  swapped, ``*`` read as ``/\\``) at n=2;
* sampled ``bounded_entailment`` on the same presets at max_n 2 and 3 and
  seeds SEED and SEED+1: each builtin rule's axiom instance (lhs <-> rhs,
  which holds) and ``p -> <a>p`` under the preset's first lifting, which
  is refuted;
* ``check_invariance`` of the formulas of ``perfbench``'s pinned eval cases
  along the map (0, 1, 1) from ``pullback_model`` onto each preset's first
  two-state model (game: the identity, since it has no pullback);
* one ``EvalSession`` row per pinned eval case: ``eval`` of its formula and
  ``interpret`` of each of the formula's actions.  The cases file is only
  read;
* ``verify_reduction_rule`` at n=2, exhaustive and sampled, on every
  binary operation rule of the five presets with its template replaced by
  two shapes of the plan's slot-1 block layout: ``<1:L> <1:L> w1..``
  (a modality over slot 1 reading keys that read slot 1) and ``<2:L> w1..``
  (a side that never reads slot 1);
* exhaustive ``bounded_entailment`` on the same presets at max_n=2
  (instantial: 1 for the axioms): each builtin rule's axiom instance,
  ``p -> <a>p``, ``<a;b>p -> <b>p`` (``b``, the last atom, is slot 1) and
  ``<b;?t(<b>p)>p -> <b>p`` (a test whose argument reads slot 1, beside
  slot 1), ``<a;(b;a)>p <-> <a><b;a>p`` (a composition whose right
  operand reads slot 1 through another one) and ``<b+?t(p)>p -> <b>p``
  with the preset's first pointwise operation for ``+`` (a test operand
  beside slot 1), and the proposition-free ``<a>1 -> <a;b>1``,
  ``<a;b>1 -> <a>1``, ``<a;b>1 -> <b>1`` and ``<b>1 -> <b><b>1`` (one
  valuation, so each block of a block list is read at a single key);
* ``one_step_witness`` of every kind over L2, L3 and G3 at n = 1..3, on
  ten seeded H each: a roundtrip from a random witness, with 0-3 entries
  set to another value (flipped between 0 and 1 for threshold);
* exhaustive ``check_safety`` at max_n=2 of every operation of
  pdl-threshold/L2 and of instantial (``max_k=1``), of ``join-pw``,
  ``meet-pw``, ``kleisli``, ``dual``, ``counter-domain`` and ``star`` on
  aneighbourhood/B2, of ``meet-pw`` on pdl-labelled/L3, and of ``+`` and
  ``&`` on game/L2, whose local form fits the default budget;
* sampled refutations whose first failure lies many trials in (1000
  trials, fixed seeds), on pdl-labelled/L2: the ``+ dia`` rule with
  ``\\/ ([1]0 /\\ [2]0) * ([1]0 /\\ [2]0)`` added to its template, at
  n=3, and ``p * p * q * q * r * r * [a]0 * [a]0 -> 0`` at max_n=3, each
  under seeds whose first failure lies from trial 3 to trial 589;
* ``bounded_entailment`` with each unary operation u of each preset
  inside the plan, ``b`` being slot 1: ``<u(b)>p -> <b>p`` and
  ``<a;u(b)>p <-> <a><u(b)>p`` over slot 1, ``<u(a);b>p -> <b>p`` and
  ``<u(a);b>p <-> <u(a)><b>p`` over a fixed slot; exhaustive at max_n=2
  (instantial: 1) and sampled at max_n 2 and 3, seeds SEED and SEED+1;
* ``verify_registry`` at n=1 on the builtin registry of each preset and on
  its mutant (every other rule with ``/\\`` and ``\\/`` swapped, ``*``
  read as ``/\\``, and slots 1 and 2 swapped where it has two), exhaustive
  and sampled (300 trials) at seeds SEED and SEED+1: one line per
  registry, each rule with its status, cases, counterexample and blocks;
  then the same calls again on the same registry objects, in another mode
  order, labelled ``registry again``: each must equal its first-pass row;
* ``check_separation`` of each preset's lifting family at n=1 and n=2,
  exhaustive and sampled (300 trials) at seeds SEED and SEED+1;
* the sampled ``verify_reduction_rule`` and ``bounded_entailment`` rows
  above again, labelled ``forget ...``, with ``functors.DRAW_TABLE_ENTRIES``
  (and ``harness.SAMPLED_COALGEBRAS``, in a tree that has it) at 4, so
  each plan forgets its ids between batches and refills its tables, and
  each drawer starts its table afresh every few draws.

A call that raises prints its error in place of a verdict.  mvdl is
imported from ``src`` under the root (by default the checkout holding this
script), and the workload definitions from its ``perfbench``.
"""

import argparse
import importlib
import json
import random
import sys
from functools import partial
from itertools import chain
from pathlib import Path

WORKLOADS = ("Safety", "RuleSweep", "Entail")
MODULES = (
    "actions", "algebra", "functors", "harness", "jsonio", "presets", "reduction", "semantics",
    "syntax",
)
# the binary operations that act state by state
POINTWISE = ("union", "nbh-union", "join-pw", "meet-pw")
EVAL_CASES = Path("perfbench", "mvdlbench", "data", "eval_cases.json")


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
    yield from _sampled_safety_rows(m, configs, seed)
    yield from _rule_rows(m, configs, ("exhaustive", "random"))
    entail = workloads.Entail._axiom_instance
    yield from _sampled_entail_rows(m, configs, entail, seed)
    sx, jsonio = m["syntax"], m["jsonio"]
    cases = json.loads((root / EVAL_CASES).read_text())["cases"]
    for config in configs:
        mine = [c for c in cases if c["model"]["preset"] == config.name]
        target = jsonio.model_from_json(next(c["model"] for c in mine if c["model"]["n"] == 2))
        formulas = [sx.parse(c["phi"], target.config.signature) for c in mine]

        def invariance(target=target, formulas=formulas):
            if target.config.kind.value.endswith("aneighbourhood"):
                return h.check_invariance(target, target, (0, 1), formulas)
            return h.check_invariance(
                h.pullback_model(target, (0, 1, 1), 3), target, (0, 1, 1), formulas
            )

        yield f"invariance {target.config.name}/{target.config.truth.name}", invariance
    for case in cases:
        yield f"eval {case['id']}", lambda case=case: _session_row(m, case)
    yield from _block_rows(m, configs, entail)
    yield from _one_step_rows(m, seed)
    yield from _exhaustive_safety_rows(m)
    yield from _late_failure_rows(m)
    yield from _unary_rows(m, configs, seed)
    yield from _registry_rows(m, configs, seed)
    yield from _separation_rows(m, configs, seed)
    yield from _forget_rows(m, configs, entail, seed)


def _rule_rows(m, configs, modes):
    """``verify_reduction_rule`` in each of ``modes`` on every builtin rule
    at n=1 and n=2 and on its mutant at n=2."""
    h, sx, reduction = m["harness"], m["syntax"], m["reduction"]
    for config in configs:
        tag = f"{config.name}/{config.truth.name}"
        for rule in reduction.builtin_rules(config).rules.values():
            template = rule.template
            mutant = reduction.ReductionRule(
                *rule.key, sx.Template(template.n, template.k, _mutate(sx, template.body))
            )
            for r, label, sizes in ((rule, "rule", (1, 2)), (mutant, "mutant", (2,))):
                for n in sizes:
                    for mode in modes:
                        yield (
                            f"{label} {tag} {' '.join(rule.key)} n={n} {mode}",
                            lambda c=config, r=r, n=n, mode=mode: h.verify_reduction_rule(
                                r, c, n=n, mode=mode
                            ),
                        )


def _sampled_entail_rows(m, configs, entail, seed):
    """Sampled ``bounded_entailment`` of each builtin rule's axiom instance
    and of ``p -> <a>p`` at max_n 2 and 3, seeds SEED and SEED+1."""
    h, sx, reduction = m["harness"], m["syntax"], m["reduction"]
    for config in configs:
        tag = f"{config.name}/{config.truth.name}"
        lid = sorted(config.liftings)[0]
        p = sx.Prop("p")
        refuted = sx.Conn("->", (p, sx.Modal(lid, sx.Atomic("a"), (p,) * config.liftings[lid].arity)))
        phis = [(" ".join(key), entail(sx, config, rule)[0])
                for key, rule in reduction.builtin_rules(config).rules.items()]
        for label, phi in phis + [("p -> <a>p", refuted)]:
            for max_n in (2, 3):
                for s in (seed, seed + 1):
                    yield (
                        f"entail {tag} {label} max_n={max_n} seed={s}",
                        lambda c=config, phi=phi, max_n=max_n, s=s: h.bounded_entailment(
                            [], phi, c, max_n=max_n, mode="random", trials=300, seed=s
                        ),
                    )


def _forget_rows(m, configs, entail, seed):
    """The sampled rule and entailment rows again with every sampled bound
    at 4, so a plan forgets its ids before almost every batch and its
    tables, like the drawers', fill afresh."""
    rows = chain(
        _rule_rows(m, configs, ("random",)), _sampled_entail_rows(m, configs, entail, seed)
    )
    for label, call in rows:
        yield f"forget {label}", partial(_forgetting, m, call)


def _forgetting(m, call):
    """``call()`` with ``functors.DRAW_TABLE_ENTRIES`` and, where the tree
    has it, ``harness.SAMPLED_COALGEBRAS`` at 4, restored after."""
    bounds = [(m["functors"], "DRAW_TABLE_ENTRIES"), (m["harness"], "SAMPLED_COALGEBRAS")]
    bounds = [(module, name, getattr(module, name)) for module, name in bounds
              if hasattr(module, name)]
    for module, name, _ in bounds:
        setattr(module, name, 4)
    try:
        return call()
    finally:
        for module, name, bound in bounds:
            setattr(module, name, bound)


def _sampled_safety_rows(m, configs, seed):
    """Sampled ``check_safety`` of every operation of the presets, of meet-pw
    on pdl-labelled/L2 and of counter-domain on aneighbourhood/B2."""
    h, OperationSpec = m["harness"], m["actions"].OperationSpec
    labelled = next(c for c in configs if c.name == "pdl-labelled")
    nbh = m["jsonio"].config_from_json({"kind": "aneighbourhood"}, m["algebra"].algebra_by_name("B2"))
    targets = [(c, op) for c in configs for op in c.ops.values()]
    targets += [
        (labelled, OperationSpec("meet", 2, "meet-pw")),
        (nbh, OperationSpec("~", 1, "counter-domain")),
    ]
    for config, op in targets:
        tag = f"{config.name}/{config.truth.name} {op.id} {op.variant}"
        for max_n in (1, 2, 3):
            for s in (seed, seed + 1, seed + 2):
                yield (
                    f"safety {tag} max_n={max_n} seed={s} sampled",
                    lambda c=config, op=op, max_n=max_n, s=s: h.check_safety(
                        op, c, max_n=max_n, mode="random", trials=300, seed=s
                    ),
                )


def _block_rows(m, configs, entail):
    """The rule and exhaustive entailment rows for the slot-1 block shapes."""
    h, sx, reduction = m["harness"], m["syntax"], m["reduction"]
    for config in configs:
        tag = f"{config.name}/{config.truth.name}"
        for rule in reduction.builtin_rules(config).rules.values():
            if rule.target_kind != "op" or config.ops[rule.target].arity != 2:
                continue
            k = config.liftings[rule.lifting].arity
            ws = tuple(map(sx.Var, range(1, k + 1)))
            shapes = {
                "<1><1>": sx.Modal(rule.lifting, 1, (sx.Modal(rule.lifting, 1, ws),) + ws[1:]),
                "<2>": sx.Modal(rule.lifting, 2, ws),
            }
            for shape, body in shapes.items():
                r = reduction.ReductionRule(*rule.key, sx.Template(2, k, body))
                for mode in ("exhaustive", "random"):
                    yield (
                        f"shape {shape} {tag} {' '.join(rule.key)} n=2 {mode}",
                        lambda c=config, r=r, mode=mode: h.verify_reduction_rule(
                            r, c, n=2, mode=mode, trials=2000
                        ),
                    )
    for config in configs:
        tag = f"{config.name}/{config.truth.name}"
        lid = sorted(config.liftings)[0]
        p, a, b = sx.Prop("p"), sx.Atomic("a"), sx.Atomic("b")

        def dia(action, arg=p, lid=lid, k=config.liftings[lid].arity):
            return sx.Modal(lid, action, (arg,) * k)

        beside = sx.Op(";", (b, sx.Test(sorted(config.tests)[0], dia(b))))
        plus = min(o.id for o in config.ops.values() if o.variant in POINTWISE)
        test_plus = sx.Op(plus, (b, sx.Test(sorted(config.tests)[0], p)))
        nested = dia(sx.Op(";", (a, sx.Op(";", (b, a)))))
        split = dia(a, dia(sx.Op(";", (b, a))))
        phis = [(" ".join(key), entail(sx, config, rule)[0], 1 if config.name == "instantial" else 2)
                for key, rule in reduction.builtin_rules(config).rules.items()]
        phis += [
            ("p -> <a>p", sx.Conn("->", (p, dia(a))), 2),
            ("<a;b>p -> <b>p", sx.Conn("->", (dia(sx.Op(";", (a, b))), dia(b))), 2),
            ("<b;?t(<b>p)>p -> <b>p", sx.Conn("->", (dia(beside), dia(b))), 2),
            ("<a;(b;a)>p <-> <a><b;a>p", sx.Conn("/\\", (
                sx.Conn("->", (nested, split)), sx.Conn("->", (split, nested))
            )), 2),
            (f"<b{plus}?t(p)>p -> <b>p", sx.Conn("->", (dia(test_plus), dia(b))), 2),
        ]
        ab, top = sx.Op(";", (a, b)), sx.Conn("1")
        phis += [  # proposition-free: each block is read at a single key
            ("<a>1 -> <a;b>1", sx.Conn("->", (dia(a, top), dia(ab, top))), 2),
            ("<a;b>1 -> <a>1", sx.Conn("->", (dia(ab, top), dia(a, top))), 2),
            ("<a;b>1 -> <b>1", sx.Conn("->", (dia(ab, top), dia(b, top))), 2),
            ("<b>1 -> <b><b>1", sx.Conn("->", (dia(b, top), dia(b, dia(b, top)))), 2),
        ]
        for label, phi, max_n in phis:
            yield (
                f"entail {tag} {label} max_n={max_n} exhaustive",
                lambda c=config, phi=phi, max_n=max_n: h.bounded_entailment(
                    [], phi, c, max_n=max_n
                ),
            )


def _one_step_rows(m, seed):
    """The one-step witness or named violation of seeded roundtrip H, some
    with entries changed."""
    h, functors = m["harness"], m["functors"]
    for name in ("L2", "L3", "G3"):
        alg = m["algebra"].algebra_by_name(name)
        for kind in ("labelled-diamond", "threshold", "monotone-eval"):
            fkind = functors.Kind.APOWERSET
            if kind == "monotone-eval":
                fkind = functors.Kind.MONOTONE_NEIGHBOURHOOD
            values = range(2 if kind == "threshold" else alg.m)
            for n in (1, 2, 3):
                rng = random.Random(f"{seed} {name} {kind} {n}")
                draw = functors.functor_ops(fkind, n, alg).drawer(rng)
                for i in range(10):
                    alpha = draw()
                    H = _h_alpha(functors, kind, alg, n, alpha)
                    atoms = sorted(H)
                    for _ in range(rng.randrange(4)):
                        atom = rng.choice(atoms)
                        H[atom] = rng.choice([v for v in values if v != H[atom]])
                    yield (
                        f"one-step {name} {kind} n={n} #{i}",
                        lambda kind=kind, alg=alg, n=n, H=H: _one_step_row(h, kind, alg, n, H),
                    )


def _exhaustive_safety_rows(m):
    """Exhaustive ``check_safety`` at max_n=2 of operations the benchmark's
    safety items leave out, every variant among them."""
    h, OperationSpec, presets = m["harness"], m["actions"].OperationSpec, m["presets"]
    alg = m["algebra"].algebra_by_name
    threshold = presets.make_preset("pdl-threshold", alg("L2"))
    instantial = presets.make_preset("instantial", max_k=1)
    targets = [(c, op) for c in (threshold, instantial) for op in c.ops.values()]
    nbh = m["jsonio"].config_from_json({"kind": "aneighbourhood"}, alg("B2"))
    targets += [
        (nbh, OperationSpec(variant, m["actions"].OP_ARITIES[variant], variant))
        for variant in ("join-pw", "meet-pw", "kleisli", "dual", "counter-domain", "star")
    ]
    targets.append((presets.make_preset("pdl-labelled", alg("L3")), OperationSpec("meet", 2, "meet-pw")))
    game = presets.make_preset("game", alg("L2"))
    targets += [(game, game.ops["+"]), (game, game.ops["&"])]
    for config, op in targets:
        yield (
            f"safety {config.name}/{config.truth.name} {op.id} {op.variant} max_n=2 exhaustive",
            lambda c=config, op=op: h.check_safety(op, c, max_n=2),
        )


def _late_failure_rows(m):
    """Sampled rule and entailment refutations on pdl-labelled/L2 whose
    first failure lies past the first trials, some many trials in."""
    h, sx, reduction = m["harness"], m["syntax"], m["reduction"]
    config = m["presets"].make_preset("pdl-labelled", m["algebra"].algebra_by_name("L2"))
    key = ("op", "+", "dia")
    text = "<1>w1 \\/ <2>w1 \\/ ([1]0 /\\ [2]0) * ([1]0 /\\ [2]0)"
    rule = reduction.ReductionRule(*key, sx.parse(text, config.signature, "template"))
    for s in (14, 5, 0, 1, 17, 18):
        yield (
            f"late rule pdl-labelled/L2 {' '.join(key)} n=3 seed={s}",
            lambda s=s: h.verify_reduction_rule(
                rule, config, n=3, mode="random", trials=1000, seed=s
            ),
        )
    phi = sx.parse("p * p * q * q * r * r * [a]0 * [a]0 -> 0", config.signature)
    for s in (28, 2, 7, 6, 4):
        yield (
            f"late entail pdl-labelled/L2 max_n=3 seed={s}",
            lambda s=s: h.bounded_entailment(
                [], phi, config, max_n=3, mode="random", trials=1000, seed=s
            ),
        )


def _unary_rows(m, configs, seed):
    """``bounded_entailment`` with each unary operation u of each preset
    inside the plan, ``b`` being slot 1: ``<u(b)>p -> <b>p`` and
    ``<a;u(b)>p <-> <a><u(b)>p`` over slot 1, ``<u(a);b>p -> <b>p`` and
    ``<u(a);b>p <-> <u(a)><b>p`` over a fixed slot, under the preset's
    first lifting; exhaustive at max_n=2 (instantial: 1), and sampled at
    max_n 2 and 3 under seeds SEED and SEED+1."""
    h, sx = m["harness"], m["syntax"]
    p, a, b = sx.Prop("p"), sx.Atomic("a"), sx.Atomic("b")
    for config in configs:
        tag = f"{config.name}/{config.truth.name}"
        lid = sorted(config.liftings)[0]

        def dia(action, arg=p, lid=lid, k=config.liftings[lid].arity):
            return sx.Modal(lid, action, (arg,) * k)

        def iff(x, y):
            return sx.Conn("/\\", (sx.Conn("->", (x, y)), sx.Conn("->", (y, x))))

        for u in (o.id for o in config.ops.values() if o.arity == 1):
            ua, ub = sx.Op(u, (a,)), sx.Op(u, (b,))
            phis = {
                f"<{u}(b)>p -> <b>p": sx.Conn("->", (dia(ub), dia(b))),
                f"<a;{u}(b)>p <-> <a><{u}(b)>p": iff(dia(sx.Op(";", (a, ub))), dia(a, dia(ub))),
                f"<{u}(a);b>p -> <b>p": sx.Conn("->", (dia(sx.Op(";", (ua, b))), dia(b))),
                f"<{u}(a);b>p <-> <{u}(a)><b>p": iff(dia(sx.Op(";", (ua, b))), dia(ua, dia(b))),
            }
            for label, phi in phis.items():
                max_n = 1 if config.name == "instantial" else 2
                yield (
                    f"unary {tag} {label} max_n={max_n} exhaustive",
                    lambda c=config, phi=phi, max_n=max_n: h.bounded_entailment(
                        [], phi, c, max_n=max_n
                    ),
                )
                for max_n in (2, 3):
                    for s in (seed, seed + 1):
                        yield (
                            f"unary {tag} {label} max_n={max_n} seed={s}",
                            lambda c=config, phi=phi, max_n=max_n, s=s: h.bounded_entailment(
                                [], phi, c, max_n=max_n, mode="random", trials=300, seed=s
                            ),
                        )


def mutant_registry(m, config):
    """The builtin registry of ``config`` with every other rule ``_mutate``d,
    slots swapped where it has two, so its groups mix rules that hold with
    rules that fail."""
    sx, reduction = m["syntax"], m["reduction"]
    mutant = reduction.RuleRegistry(config)
    for i, rule in enumerate(reduction.builtin_rules(config).rules.values()):
        if i % 2 == 0:
            t = rule.template
            body = _mutate(sx, t.body, swap=t.n == 2)
            rule = reduction.ReductionRule(*rule.key, sx.Template(t.n, t.k, body))
        mutant.add(rule)
    return mutant


def _registry_rows(m, configs, seed):
    """``verify_registry`` at n=1 on each preset's builtin registry and on
    its mutant, exhaustive and sampled at seeds SEED and SEED+1; then the
    same calls on the same registry objects again, labelled ``again``, in
    the order SEED+1, exhaustive, SEED, so each runs on plans another mode
    swept last."""
    h, reduction = m["harness"], m["reduction"]
    registries = []
    for config in configs:
        tag = f"{config.name}/{config.truth.name}"
        registries += [
            (f"builtin {tag}", reduction.builtin_rules(config)),
            (f"mutant {tag}", mutant_registry(m, config)),
        ]
    sweeps = [("exhaustive", seed), ("random", seed), ("random", seed + 1)]
    for again, order in (("", sweeps), ("again ", [sweeps[2], sweeps[0], sweeps[1]])):
        for label, registry in registries:
            for mode, s in order:
                row = f"registry {again}{label} n=1 {mode}"
                if mode == "random":
                    row += f" seed={s}"
                yield row, lambda r=registry, mode=mode, s=s: {
                    " ".join(key): [v.status, v.cases, v.counterexample, v.detail.get("blocks")]
                    for key, v in h.verify_registry(r, n=1, mode=mode, trials=300, seed=s).items()
                }


def _separation_rows(m, configs, seed):
    """``check_separation`` of each preset's liftings at n=1 and n=2, whose
    pairs of values all fit the default budget, exhaustive and sampled at
    seeds SEED and SEED+1."""
    h = m["harness"]
    for config in configs:
        tag = f"{config.name}/{config.truth.name}"
        liftings = list(config.liftings.values())
        for n in (1, 2):
            for mode, s in (("exhaustive", seed), ("random", seed), ("random", seed + 1)):
                row = f"separation {tag} n={n} {mode}"
                if mode == "random":
                    row += f" seed={s}"
                yield row, lambda c=config, ls=liftings, n=n, mode=mode, s=s: h.check_separation(
                    ls, c, n, mode=mode, trials=300, seed=s
                )


def _h_alpha(functors, kind, alg, n, alpha) -> dict:
    """The rank-1 assignment the witness alpha induces."""
    if kind == "labelled-diamond":
        return {
            p: alg.bigjoin(alg.tensor(p[x], alpha[x]) for x in range(n))
            for p in functors.predicate_space(alg.m, n)
        }
    if kind == "threshold":
        return {
            (r, s): 1 if alg.leq(r, alg.bigjoin(alpha[x] for x in range(n) if s >> x & 1)) else 0
            for r in range(1, alg.m)
            for s in range(1 << n)
        }
    return dict(zip(functors.predicate_space(alg.m, n), alpha))


def _one_step_row(h, kind, alg, n, H) -> dict:
    result = h.one_step_witness(kind, alg, n, H)
    violation = result.violation
    return dict(
        alpha=None if result.alpha is None else list(result.alpha),
        violation=None if violation is None else [violation.axiom, violation.instance],
    )


def _session_row(m, case) -> dict:
    """The values a session gives a pinned case's formula and actions."""
    sx, jsonio = m["syntax"], m["jsonio"]
    model = jsonio.model_from_json(case["model"])
    phi = sx.parse(case["phi"], model.config.signature)
    session = m["semantics"].EvalSession(model)
    return dict(
        values=list(session.eval(phi)),
        actions=[
            [sx.render(a, model.config.signature),
             [jsonio.fvalue_to_json(model.config.kind, v) for v in session.interpret(a)]]
            for a in sx.formula_actions(phi)
        ],
    )


def _mutate(sx, node, swap: bool = False):
    """``node`` with /\\ and \\/ swapped and * read as /\\, and with
    ``swap`` slots 1 and 2 swapped."""
    if isinstance(node, sx.Conn):
        symbol = {"/\\": "\\/", "\\/": "/\\", "*": "/\\"}.get(node.symbol, node.symbol)
        return sx.Conn(symbol, tuple(_mutate(sx, a, swap) for a in node.args))
    if isinstance(node, sx.Modal):
        action = 3 - node.action if swap else node.action
        return sx.Modal(node.lifting, action, tuple(_mutate(sx, a, swap) for a in node.args))
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
            line = verdict if isinstance(verdict, dict) else {
                "status": verdict.status,
                "cases": verdict.cases,
                "counterexample": verdict.counterexample,
            }
        except Exception as exc:  # the error is the outcome to compare
            line = {"status": f"error: {type(exc).__name__}: {exc}"}
        print(json.dumps({"call": label, **line}, sort_keys=True), flush=True)


if __name__ == "__main__":
    main()
