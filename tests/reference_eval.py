"""The straightforward recursive evaluator, kept as a test-only reference.

This is the evaluator mvdl shipped before formulas were compiled into plans:
a memoizing walk over the AST that dispatches on node type and applies each
lifting by its closed formula, one state at a time.  The differential tests
check the compiled plan against it; nothing in ``src/`` imports it.
"""

from __future__ import annotations

from mvdl.actions import DEFAULT_ITERATE_CAP, apply_op, apply_test
from mvdl.errors import (
    ArityMismatch,
    InvalidParameter,
    UnknownAtom,
    UnknownIdentifier,
)
from mvdl.functors import predicate_index
from mvdl.semantics import crisp_mask
from mvdl.syntax import Atomic, Conn, Op, Prop, Test


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

    def __init__(self, model, iterate_cap: int = DEFAULT_ITERATE_CAP):
        self.model = model
        self.iterate_cap = iterate_cap
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
            return apply_op(spec, gammas, model.fops, cap=self.iterate_cap)
        if isinstance(action, Test):
            spec = model.config.test(action.test)
            sigma = self.eval(action.arg)
            return apply_test(spec, sigma, model.fops, model.config.truth)
        raise InvalidParameter(f"not an action node: {action!r}")
