"""The straightforward recursive evaluators, kept as test-only references.

These are the evaluators mvdl shipped before formulas and rule templates
were compiled: memoizing walks over the AST that dispatch on node type and
apply each lifting by its closed formula, one state at a time, and the
case-by-case rule-soundness and entailment sweeps built on them; the
exhaustive and sampled safety sweeps as they ran on FValues before they
ran on ids; the monotonicity check as a scan over all pairs of
predicates; a pseudo-random FValue drawn through ``rng.randrange``,
``rng.choice`` and ``rng.random`` (``reference_random_value``), and a
monotone table drawn by joining over every predicate below, not only the
covers; the double powerset composition as a walk over every
subfamily; the binary pointwise operations as ``apply_op`` wrote them out
per variant; and the one-step witness checks that scan every rank-1 axiom
before they build the witness.  The differential tests check the compiled plans, the
id sweeps, the predicate-poset check, ``FunctorOps.drawer``,
``functors.predicate_drawer``,
``actions.double_seq_map``, ``actions.pointwise_step`` and
``harness.one_step_witness`` against them; nothing in ``src/`` imports
them.
"""

from __future__ import annotations

import random
from itertools import product

from mvdl.actions import apply_op, apply_test
from mvdl.errors import (
    ArityMismatch,
    InvalidParameter,
    NonlinearAlgebra,
    UnknownAtom,
    UnknownIdentifier,
    UnsupportedKind,
)
from mvdl.functors import Kind, _monotone_steps, _pred_poset, predicate_index, predicate_space
from mvdl.harness import AxiomViolation, OneStepResult
from mvdl.jsonio import fvalue_to_json, model_to_json
from mvdl.semantics import Model, crisp_mask
from mvdl.syntax import Atomic, Conn, Op, Prop, Test, Var, atoms_of, props_of, render


def reference_lifting(spec, preds, value, config, n: int) -> int:
    """lambda_X(preds)(value), by the closed formula of the variant."""
    spec.check_kind(config.kind)
    if len(preds) != spec.arity:
        raise ArityMismatch(
            f"lifting {spec.id!r} expects {spec.arity} predicate(s), got {len(preds)}"
        )
    truth, struct = config.truth, config.struct
    variant = spec.variant
    if variant == "box-crisp":
        acc = truth.top
        for x in range(n):
            if value >> x & 1:
                acc = truth.meet(acc, preds[0][x])
        return acc
    if variant == "diamond-crisp":
        acc = 0
        for x in range(n):
            if value >> x & 1:
                acc = truth.join(acc, preds[0][x])
        return acc
    if variant == "box-labelled":
        acc = struct.top
        for x in range(n):
            acc = struct.meet(acc, struct.impl(value[x], preds[0][x]))
        return acc
    if variant == "diamond-labelled":
        acc = 0
        for x in range(n):
            acc = struct.join(acc, struct.tensor(value[x], preds[0][x]))
        return acc
    if variant == "threshold":
        mask = crisp_mask(truth, preds[0])
        acc = 0
        for x in range(n):
            if mask >> x & 1:
                acc = struct.join(acc, value[x])
        return truth.top if struct.leq(spec.param, acc) else 0
    if variant == "eval":
        return value[predicate_index(struct.m, n)[tuple(preds[0])]]
    if variant == "instantial":
        smask = crisp_mask(truth, preds[-1])
        imasks = [crisp_mask(truth, p) for p in preds[:-1]]
        for z in value:
            if z & ~smask:
                continue
            if all(z & im for im in imasks):
                return truth.top
        return 0
    raise AssertionError(f"unknown lifting variant {variant!r}")


class ReferenceSession:
    """Memoizing recursive evaluation of formulas and actions over one model."""

    def __init__(self, model):
        self.model = model
        self._formulas: dict = {}
        self._actions: dict = {}

    def eval(self, formula):
        cached = self._formulas.get(formula)
        if cached is not None:
            return cached
        out = self._eval(formula)
        self._formulas[formula] = out
        return out

    def _eval(self, formula):
        model = self.model
        truth = model.config.truth
        if isinstance(formula, Prop):
            try:
                return model.valuation[formula.name]
            except KeyError:
                raise UnknownIdentifier(
                    f"proposition {formula.name!r} is not interpreted"
                ) from None
        if isinstance(formula, Conn):
            sym = formula.symbol
            if sym == "0":
                return (0,) * model.n
            if sym == "1":
                return (truth.top,) * model.n
            if sym in truth.constants:
                return (truth.constants[sym],) * model.n
            args = [self.eval(a) for a in formula.args]
            if sym == "/\\":
                t = truth.meet_table
            elif sym == "\\/":
                t = truth.join_table
            elif sym == "*":
                t = truth.tensor_table
            elif sym == "->":
                t = truth.impl_table
            elif sym in truth.extras:
                tab = truth.extras[sym]
                return tuple(tab[v] for v in args[0])
            else:
                raise UnknownIdentifier(f"connective {sym!r} is not interpreted")
            a, b = args
            return tuple(t[u][v] for u, v in zip(a, b))
        spec = model.config.lifting(formula.lifting)
        gamma = self.interpret(formula.action)
        preds = [self.eval(a) for a in formula.args]
        return tuple(
            reference_lifting(spec, preds, gamma[x], model.config, model.n)
            for x in range(model.n)
        )

    def interpret(self, action):
        cached = self._actions.get(action)
        if cached is not None:
            return cached
        out = self._interpret(action)
        self._actions[action] = out
        return out

    def _interpret(self, action):
        model = self.model
        if isinstance(action, Atomic):
            try:
                return model.atoms[action.name]
            except KeyError:
                raise UnknownAtom(
                    f"atomic action {action.name!r} is not interpreted"
                ) from None
        if isinstance(action, Op):
            spec = model.config.op(action.op)
            gammas = [self.interpret(a) for a in action.args]
            return apply_op(spec, gammas, model.fops)
        if isinstance(action, Test):
            spec = model.config.test(action.test)
            sigma = self.eval(action.arg)
            return apply_test(spec, sigma, model.fops, model.config.truth)
        raise InvalidParameter(f"not an action node: {action!r}")


# -- reduction-rule templates ----------------------------------------------


class ReferenceTemplateEval:
    """Template evaluation case by case, as the rule sweep did before
    templates were compiled into id tables: a memoizing walk over the
    template for one coalgebra tuple and one variable assignment.

    Subtrees touching at most one action slot are cached on (node, the
    slot's coalgebra, the variable assignment); wider nodes are recomputed.
    Liftings are applied by ``reference_lifting``, one state at a time.
    """

    def __init__(self, config, n: int):
        self.config = config
        self.n = n
        self.truth = config.truth
        self.memo: dict = {}
        self._slots: dict = {}

    def slots(self, node) -> tuple[int, ...]:
        got = self._slots.get(node)
        if got is None:
            acc = set() if isinstance(node, (Var, Conn)) else {node.action}
            for a in getattr(node, "args", ()):
                acc.update(self.slots(a))
            got = self._slots[node] = tuple(sorted(acc))
        return got

    def eval(self, node, gammas: tuple, sigmas: tuple) -> tuple:
        if isinstance(node, Var):
            return tuple(sigmas[node.index - 1])
        used = self.slots(node)
        key = None
        if len(used) <= 1:
            key = (node, tuple(gammas[j - 1] for j in used), sigmas)
            hit = self.memo.get(key)
            if hit is not None:
                return hit
        truth, n = self.truth, self.n
        if isinstance(node, Conn):
            sym = node.symbol
            if sym == "0":
                out = (0,) * n
            elif sym == "1":
                out = (truth.top,) * n
            elif sym in truth.constants:
                out = (truth.constants[sym],) * n
            elif sym in truth.extras:
                tab = truth.extras[sym]
                out = tuple(tab[v] for v in self.eval(node.args[0], gammas, sigmas))
            else:
                table = {
                    "/\\": truth.meet_table,
                    "\\/": truth.join_table,
                    "*": truth.tensor_table,
                    "->": truth.impl_table,
                }[sym]
                a = self.eval(node.args[0], gammas, sigmas)
                b = self.eval(node.args[1], gammas, sigmas)
                out = tuple(table[u][v] for u, v in zip(a, b))
        else:
            spec = self.config.lifting(node.lifting)
            preds = [self.eval(a, gammas, sigmas) for a in node.args]
            gamma = gammas[node.action - 1]
            out = tuple(
                reference_lifting(spec, preds, gamma[x], self.config, n) for x in range(n)
            )
        if key is not None:
            self.memo[key] = out
        return out


def reference_rule_sweep(rule, config, n: int, mode: str = "exhaustive",
                         trials: int = 10_000, seed: int = 0xC0A1,
                         budget: int = 1_000_000):
    """The case-by-case soundness sweep: (status, cases, counterexample).

    Same case order, counts and counterexample fields as
    ``verify_reduction_rule``; the counterexample keeps coalgebras as
    FValues instead of JSON.
    """
    fops = config.fops(n)
    truth = config.truth
    spec = config.lifting(rule.lifting)
    sigma_space = list(product(predicate_space(truth.m, n), repeat=spec.arity))
    tev = ReferenceTemplateEval(config, n)
    body = rule.template.body

    def lhs_row(out, sigmas):
        return tuple(reference_lifting(spec, sigmas, v, config, n) for v in out)

    def fail(cases, gammas, sigma_t, sigmas, lrow, rrow):
        counter = {"sigmas": [list(s) for s in sigmas], "lhs": list(lrow), "rhs": list(rrow)}
        if gammas is not None:
            counter["gammas"] = gammas
        if sigma_t is not None:
            counter["test_argument"] = list(sigma_t)
        return "fails", cases, counter

    cases = 0
    rng = random.Random(seed)
    if rule.target_kind == "test":
        test = config.test(rule.target)
        if mode == "exhaustive":
            draws = ((s, sigmas) for s in predicate_space(truth.m, n) for sigmas in sigma_space)
        else:
            draws = (
                (tuple(rng.randrange(truth.m) for _ in range(n)),
                 tuple(tuple(rng.randrange(truth.m) for _ in range(n))
                       for _ in range(spec.arity)))
                for _ in range(trials)
            )
        for sigma_t, sigmas in draws:
            gamma = apply_test(test, sigma_t, fops, truth)
            cases += n
            lrow = lhs_row(gamma, sigmas)
            rrow = tev.eval(body, (), (sigma_t,) + sigmas)
            if lrow != rrow:
                return fail(cases, None, sigma_t, sigmas, lrow, rrow)
        return ("holds" if mode == "exhaustive" else "holds-up-to-bound"), cases, None
    op = config.op(rule.target)
    if mode == "exhaustive":
        coalgs = list(product(list(fops.enumerate(budget)), repeat=n))
        if op.arity == 1:
            tuples = [(g,) for g in coalgs]
        else:
            tuples = [(g1, g2) for g2 in coalgs for g1 in coalgs]
        draws = ((gammas, sigmas) for gammas in tuples for sigmas in sigma_space)
    else:
        def sample():
            for _ in range(trials):
                gammas = tuple(
                    tuple(reference_random_value(fops, rng) for _ in range(n))
                    for _ in range(op.arity)
                )
                sigmas = tuple(
                    tuple(rng.randrange(truth.m) for _ in range(n))
                    for _ in range(spec.arity)
                )
                yield gammas, sigmas

        draws = sample()
    for gammas, sigmas in draws:
        out = apply_op(op, gammas, fops)
        cases += n
        lrow = lhs_row(out, sigmas)
        rrow = tev.eval(body, gammas, sigmas)
        if lrow != rrow:
            return fail(cases, gammas, None, sigmas, lrow, rrow)
    return ("holds" if mode == "exhaustive" else "holds-up-to-bound"), cases, None


# -- bounded entailment ------------------------------------------------------


def reference_entailment(gamma, phi, config, max_n: int, mode: str = "exhaustive",
                         trials: int = 10_000, seed: int = 0xC0A1,
                         budget: int = 1_000_000):
    """The model-by-model countermodel search: (status, cases, counterexample).

    Same model order, counts and counterexample as ``bounded_entailment``;
    each model is a fresh ``Model`` evaluated by ``ReferenceSession``.
    """
    formulas = list(gamma) + [phi]
    props = sorted(set().union(*(props_of(f) for f in formulas)))
    atoms = sorted(set().union(*(atoms_of(f) for f in formulas)))
    truth = config.truth

    def models():
        if mode == "exhaustive":
            for n in range(1, max_n + 1):
                coalgs = list(product(list(config.fops(n).enumerate(budget)), repeat=n))
                for atom_assign in product(coalgs, repeat=len(atoms)):
                    for val_assign in product(predicate_space(truth.m, n), repeat=len(props)):
                        yield Model(n, config, dict(zip(atoms, atom_assign)),
                                    dict(zip(props, val_assign)))
            return
        rng = random.Random(seed)
        for _ in range(trials):
            n = rng.randint(1, max_n)
            fops = config.fops(n)
            atom_assign = {
                a: tuple(reference_random_value(fops, rng) for _ in range(n)) for a in atoms
            }
            valuation = {p: tuple(rng.randrange(truth.m) for _ in range(n)) for p in props}
            yield Model(n, config, atom_assign, valuation)

    cases = 0
    for model in models():
        cases += 1
        session = ReferenceSession(model)
        rows = [session.eval(g) for g in gamma]
        row = session.eval(phi)
        for x in range(model.n):
            if row[x] != truth.top and all(r[x] == truth.top for r in rows):
                return "fails", cases, {
                    "model": model_to_json(model),
                    "state": x,
                    "phi": render(phi, config.signature),
                    "gamma": [render(g, config.signature) for g in gamma],
                }
    return "holds-up-to-bound", cases, None


# -- safety ------------------------------------------------------------------


def reference_forced_targets(fops_src, fops_tgt, f, gammas):
    """Forced values of each target coalgebra on the image of f, or None
    when f cannot be a joint morphism for these sources."""
    forced = []
    for g in gammas:
        d = {}
        for x in range(fops_src.n):
            img = fops_src.map(f, fops_tgt.n, g[x])
            if d.setdefault(f[x], img) != img:
                return None
        forced.append(d)
    return forced


def reference_safety_pairs(op, fops_src, fops_tgt, vals_src, vals_tgt):
    """Every (f, gammas, gammas') premise of the exhaustive safety sweep, as
    FValue coalgebras: the forced target values on the image of f, and every
    fill of the free states, slots ordered operand-major."""
    n_src, n_tgt = fops_src.n, fops_tgt.n
    coalgs_src = list(product(vals_src, repeat=n_src))
    for f in product(range(n_tgt), repeat=n_src):
        free = [y for y in range(n_tgt) if y not in set(f)]
        for gammas in product(coalgs_src, repeat=op.arity):
            forced = reference_forced_targets(fops_src, fops_tgt, f, gammas)
            if forced is None:
                continue
            if not free:
                yield f, gammas, tuple(
                    tuple(d[y] for y in range(n_tgt)) for d in forced
                )
                continue
            slots = [(i, y) for i in range(op.arity) for y in free]
            for fill in product(vals_tgt, repeat=len(slots)):
                gammas2 = []
                for i in range(op.arity):
                    row = dict(forced[i])
                    for (j, y), v in zip(slots, fill):
                        if j == i:
                            row[y] = v
                    gammas2.append(tuple(row[y] for y in range(n_tgt)))
                yield f, gammas, tuple(gammas2)


def reference_safety(target, config, max_n: int, budget: int = 1_000_000):
    """The exhaustive safety sweep on FValues: (status, cases, counterexample).

    Same case order, counts and counterexample as ``check_safety`` in
    exhaustive mode, for an operation target.
    """
    target.check_kind(config.kind)
    cases = 0
    for n_src in range(1, max_n + 1):
        for n_tgt in range(1, max_n + 1):
            fops_src = config.fops(n_src)
            fops_tgt = config.fops(n_tgt)
            vals_src = list(fops_src.enumerate(budget))
            vals_tgt = list(fops_tgt.enumerate(budget))
            pairs = reference_safety_pairs(target, fops_src, fops_tgt, vals_src, vals_tgt)
            out_cache_src: dict = {}
            out_cache_tgt: dict = {}
            for f, gammas, gammas2 in pairs:
                cases += 1
                out_src = out_cache_src.get(gammas)
                if out_src is None:
                    out_src = out_cache_src[gammas] = apply_op(target, gammas, fops_src)
                out_tgt = out_cache_tgt.get(gammas2)
                if out_tgt is None:
                    out_tgt = out_cache_tgt[gammas2] = apply_op(target, gammas2, fops_tgt)
                for x in range(n_src):
                    if fops_src.map(f, n_tgt, out_src[x]) != out_tgt[f[x]]:
                        return "fails", cases, {
                            "f": list(f),
                            "gammas": [
                                [fvalue_to_json(config.kind, v) for v in g] for g in gammas
                            ],
                            "gammas_target": [
                                [fvalue_to_json(config.kind, v) for v in g] for g in gammas2
                            ],
                            "state": x,
                        }
    return "holds-up-to-bound", cases, None


def reference_safety_sampled(target, config, max_n: int, trials: int, seed: int):
    """The sampled safety sweep on FValues: (status, cases, counterexample).

    Same draws, counts and counterexample as ``check_safety`` in random
    mode, for an operation target: one RNG over the carrier pairs,
    ``trials // max_n**2 + 1`` draws per pair, each f, then the source
    operands, then the unforced target states; a draw whose sources force
    two values on one target state is no case.
    """
    target.check_kind(config.kind)
    rng = random.Random(seed)
    cases = 0
    for n_src in range(1, max_n + 1):
        for n_tgt in range(1, max_n + 1):
            fops_src, fops_tgt = config.fops(n_src), config.fops(n_tgt)
            for _ in range(trials // (max_n * max_n) + 1):
                f = tuple(rng.randrange(n_tgt) for _ in range(n_src))
                gammas = tuple(
                    tuple(reference_random_value(fops_src, rng) for _ in range(n_src))
                    for _ in range(target.arity)
                )
                forced = reference_forced_targets(fops_src, fops_tgt, f, gammas)
                if forced is None:
                    continue
                gammas2 = tuple(
                    tuple(
                        d[y] if y in d else reference_random_value(fops_tgt, rng)
                        for y in range(n_tgt)
                    )
                    for d in forced
                )
                cases += 1
                out_src = apply_op(target, gammas, fops_src)
                out_tgt = apply_op(target, gammas2, fops_tgt)
                for x in range(n_src):
                    if fops_src.map(f, n_tgt, out_src[x]) != out_tgt[f[x]]:
                        return "fails", cases, {
                            "f": list(f),
                            "gammas": [
                                [fvalue_to_json(config.kind, v) for v in g] for g in gammas
                            ],
                            "gammas_target": [
                                [fvalue_to_json(config.kind, v) for v in g] for g in gammas2
                            ],
                            "state": x,
                        }
    return "holds-up-to-bound", cases, None


# -- functors ----------------------------------------------------------------


def reference_is_monotone(fops, table) -> bool:
    """N(s1) <= N(s2) whenever s1 <= s2 pointwise, over all P^2 predicate pairs."""
    alg = fops.alg
    preds = predicate_space(alg.m, fops.n)
    leq = alg.leq
    for i, p in enumerate(preds):
        for j, q in enumerate(preds):
            if all(leq(a, b) for a, b in zip(p, q)) and not leq(table[i], table[j]):
                return False
    return True


def reference_random_value(fops, rng):
    """One pseudo-random FValue through the ``random.Random`` methods, as
    mvdl drew it before ``FunctorOps.drawer`` inlined the draws; monotone
    tables are built in a linear extension so the result is always
    valid (not uniform)."""
    kind, n, alg = fops.kind, fops.n, fops.alg
    if kind is Kind.POWERSET:
        return rng.randrange(1 << n)
    if kind is Kind.APOWERSET:
        return tuple(rng.randrange(alg.m) for _ in range(n))
    if kind is Kind.A_NEIGHBOURHOOD:
        return tuple(rng.randrange(alg.m) for _ in range(alg.m**n))
    if kind is Kind.DOUBLE_POWERSET:
        return frozenset(mask for mask in range(1 << n) if rng.random() < 0.5)
    steps, ups = _monotone_steps(alg, n)
    jt, choice = alg.join_table, rng.choice
    table = [0] * len(steps)
    for i, covers in steps:
        lower = 0
        for j in covers:
            lower = jt[lower][table[j]]
        table[i] = choice(ups[lower])
    return tuple(table)


def reference_monotone_draw(fops, rng) -> tuple:
    """A monotone table as ``FunctorOps.drawer`` draws it: in the
    predicate poset's linear extension, each entry is drawn from the
    elements above the join of the entries at every predicate strictly
    below it."""
    alg = fops.alg
    _, order, below = _pred_poset(alg, fops.n)
    jt, leq, m = alg.join_table, alg._leq, alg.m
    table = [0] * len(order)
    for i in order:
        lower = 0
        for j in below[i]:
            lower = jt[lower][table[j]]
        above = leq[lower]
        table[i] = rng.choice([v for v in range(m) if above[v]])
    return tuple(table)


# -- actions -----------------------------------------------------------------


def reference_pointwise(variant: str, alg, g1, g2):
    """A binary pointwise operation on two coalgebras, state by state."""
    n = len(g1)
    if variant == "union":
        return tuple(g1[x] | g2[x] for x in range(n))
    if variant == "nbh-union":
        return tuple(
            frozenset(z1 | z2 for z1 in g1[x] for z2 in g2[x]) for x in range(n)
        )
    table = alg.join_table if variant == "join-pw" else alg.meet_table
    return tuple(
        tuple(table[u][v] for u, v in zip(g1[x], g2[x])) for x in range(n)
    )


def reference_double_seq_map(fops, g2):
    """t |-> (t ; g2) for the double powerset, trying each subfamily of
    every member's successor families and testing each state's cover."""
    n = fops.n

    def dmap(t: frozenset) -> frozenset:
        out = set()
        for zmask in t:
            states = [y for y in range(n) if zmask >> y & 1]
            family = sorted({u for y in states for u in g2[y]})
            fam_len = len(family)
            for pick in range(1 << fam_len):
                chosen = [family[i] for i in range(fam_len) if pick >> i & 1]
                ok = True
                for y in states:
                    if not any(u in g2[y] for u in chosen):
                        ok = False
                        break
                if ok:
                    union = 0
                    for u in chosen:
                        union |= u
                    out.add(union)
        return frozenset(out)

    return dmap


# -- one-step witnesses ------------------------------------------------------


def reference_one_step_witness(kind: str, alg, n: int, H) -> OneStepResult:
    """``one_step_witness`` scan-first: every rank-1 axiom instance over all
    predicate (or state-set) pairs is checked in canonical order, and only
    then is the witness built and H compared with the assignment it induces."""
    if kind == "labelled-diamond":
        return _reference_witness_diamond(alg, n, H)
    if kind == "threshold":
        return _reference_witness_threshold(alg, n, H)
    if kind == "monotone-eval":
        return _reference_witness_eval(alg, n, H)
    raise UnsupportedKind(f"no one-step witness for kind {kind!r}")


def _reference_witness_diamond(alg, n: int, H) -> OneStepResult:
    preds = predicate_space(alg.m, n)
    for p in preds:
        if p not in H:
            raise InvalidParameter(f"H is not total: missing diamond atom {p}")
    jt, tt = alg.join_table, alg.tensor_table
    # join axiom: H(dia(p \/ q)) = H(dia p) \/ H(dia q)
    for p in preds:
        for q in preds:
            joined = tuple(jt[u][v] for u, v in zip(p, q))
            if H[joined] != jt[H[p]][H[q]]:
                return OneStepResult(
                    None,
                    AxiomViolation(
                        "diamond-join",
                        {"p": list(p), "q": list(q), "axiom": "dia(p \\/ q) <-> dia p \\/ dia q"},
                    ),
                )
    # constant axiom: H(dia(p (*) c)) = H(dia p) (*) c
    for p in preds:
        for c in range(alg.m):
            scaled = tuple(tt[v][c] for v in p)
            if H[scaled] != tt[H[p]][c]:
                return OneStepResult(
                    None,
                    AxiomViolation(
                        "diamond-constant",
                        {"p": list(p), "c": c, "axiom": "dia(p (*) c) <-> dia p (*) c"},
                    ),
                )
    alpha = tuple(H[tuple(alg.top if y == x else 0 for y in range(n))] for x in range(n))
    for p in preds:
        acc = 0
        for x in range(n):
            acc = jt[acc][tt[p[x]][alpha[x]]]
        if acc != H[p]:
            return OneStepResult(
                None,
                AxiomViolation(
                    "one-step-satisfaction", {"p": list(p), "expected": H[p], "got": acc}
                ),
            )
    return OneStepResult(alpha, None)


def _reference_witness_threshold(alg, n: int, H) -> OneStepResult:
    if not alg.linear:
        raise NonlinearAlgebra("threshold witnesses require a linear algebra")
    rs = range(1, alg.m)
    masks = range(1 << n)
    for r in rs:
        for s in masks:
            if (r, s) not in H:
                raise InvalidParameter(f"H is not total: missing atom (r={r}, S={s})")
            if H[(r, s)] not in (0, 1):
                raise InvalidParameter("threshold H must be two-valued")
    for r in rs:
        if H[(r, 0)] != 0:
            return OneStepResult(
                None,
                AxiomViolation(
                    "threshold-bottom", {"r": r, "axiom": "dia_r bot <-> bot"}
                ),
            )
        for s1 in masks:
            for s2 in masks:
                if H[(r, s1 | s2)] != max(H[(r, s1)], H[(r, s2)]):
                    return OneStepResult(
                        None,
                        AxiomViolation(
                            "threshold-join",
                            {
                                "r": r,
                                "S1": s1,
                                "S2": s2,
                                "axiom": "dia_r(p \\/ q) <-> dia_r p \\/ dia_r q",
                            },
                        ),
                    )
    for s in masks:
        for r1 in rs:
            for r2 in rs:
                if alg.leq(r2, r1) and H[(r1, s)] > H[(r2, s)]:
                    return OneStepResult(
                        None,
                        AxiomViolation(
                            "threshold-monotonicity",
                            {
                                "r1": r1,
                                "r2": r2,
                                "S": s,
                                "axiom": "dia_r1 p -> dia_r2 p for all r2 <= r1",
                            },
                        ),
                    )
    alpha = tuple(
        alg.bigjoin(r for r in rs if H[(r, 1 << x)] == 1) for x in range(n)
    )
    for r in rs:
        for s in masks:
            acc = alg.bigjoin(alpha[x] for x in range(n) if s >> x & 1)
            got = 1 if alg.leq(r, acc) else 0
            if got != H[(r, s)]:
                return OneStepResult(
                    None,
                    AxiomViolation(
                        "one-step-satisfaction",
                        {"r": r, "S": s, "expected": H[(r, s)], "got": got},
                    ),
                )
    return OneStepResult(alpha, None)


def _reference_witness_eval(alg, n: int, H) -> OneStepResult:
    preds = predicate_space(alg.m, n)
    for p in preds:
        if p not in H:
            raise InvalidParameter(f"H is not total: missing eval atom {p}")
    leq = alg.leq
    for p in preds:
        for q in preds:
            if all(leq(u, v) for u, v in zip(p, q)) and not leq(H[p], H[q]):
                return OneStepResult(
                    None,
                    AxiomViolation(
                        "eval-monotonicity",
                        {"p": list(p), "q": list(q), "axiom": "dia p -> dia(p \\/ q)"},
                    ),
                )
    return OneStepResult(tuple(H[p] for p in preds), None)
