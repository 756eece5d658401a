"""Reduction-axiom registry and the rewriting to atomic-modality normal form.

Operation rules carry a template with action slots; test rules carry a
modal-free template whose first variable is the test argument.  Rewriting
picks the innermost-leftmost modality whose action is headed by an operation
or a test and splices in the instantiated right-hand side.  Iteration is not
reducible and is rejected up front.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import count, product

from .algebra import Algebra, Term, chi_term
from .errors import (
    InvalidParameter,
    IterationPresent,
    MissingChi,
    NonlinearAlgebra,
    NoRule,
    RewriteBudgetExceeded,
)
from .semantics import LogicConfig
from .syntax import (
    Atomic,
    Conn,
    Formula,
    Modal,
    Op,
    Prop,
    Template,
    Test,
    Var,
    big_and,
    big_or,
    contains_star,
    instantiate,
    neg,
    subterms,
)

DEFAULT_REWRITE_BUDGET = 10_000

RuleKey = tuple[str, str, str]  # ("op"|"test", target id, lifting id)


@dataclass(frozen=True)
class ReductionRule:
    target_kind: str  # "op" or "test"
    target: str
    lifting: str
    template: Template

    @property
    def key(self) -> RuleKey:
        return (self.target_kind, self.target, self.lifting)


@dataclass
class RuleRegistry:
    config: LogicConfig
    rules: dict[RuleKey, ReductionRule] = field(default_factory=dict)
    gaps: list[tuple[RuleKey, str]] = field(default_factory=list)
    # (n, mode, a shape group's rules) -> its compiled plan and positions,
    # kept by ``harness.verify_registry``
    plans: dict = field(default_factory=dict, repr=False, compare=False)

    def add(self, rule: ReductionRule) -> None:
        if rule.key in self.rules:
            warnings.warn(
                f"replacing existing reduction rule for {rule.key}", stacklevel=2
            )
        self.rules[rule.key] = rule

    def get(self, kind: str, target: str, lifting: str) -> ReductionRule:
        try:
            return self.rules[(kind, target, lifting)]
        except KeyError:
            raise NoRule(
                f"no reduction rule for {kind} {target!r} under lifting {lifting!r}",
                key=(kind, target, lifting),
            ) from None

    @property
    def complete(self) -> bool:
        """Every iteration-free (target, lifting) pair is covered."""
        if self.gaps:
            return False
        for lid in self.config.liftings:
            for oid, spec in self.config.ops.items():
                if spec.variant == "star":
                    continue
                if ("op", oid, lid) not in self.rules:
                    return False
            for tid in self.config.tests:
                if ("test", tid, lid) not in self.rules:
                    return False
        return True


def _term_body(term: Term, arg: Formula) -> Formula:
    """Splice an algebra term (over one variable) into template position."""
    if term[0] == "x":
        return arg
    if term[0] == "const":
        return Conn(term[1])
    return Conn(term[1], tuple(_term_body(t, arg) for t in term[2:]))


def _chi_body(alg: Algebra, subset: frozenset[int], arg: Formula) -> Formula:
    term = chi_term(alg, subset)
    if term is None:
        raise MissingChi(
            f"characteristic function of {sorted(subset)} is neither installed "
            "nor term-definable"
        )
    return _term_body(term, arg)


def builtin_rules(config: LogicConfig) -> RuleRegistry:
    """The paper-backed rule set for one preset over its algebra.

    Big joins are expanded into explicit finite disjunction trees over the
    algebra.  Rules that need an unavailable characteristic function are
    recorded as gaps instead of being invented.
    """
    reg = RuleRegistry(config)
    builders = {
        "pdl-crisp": _rules_pdl_crisp,
        "pdl-labelled": _rules_pdl_labelled,
        "pdl-threshold": _rules_threshold,
        "game": _rules_game,
        "instantial": _rules_instantial,
    }
    try:
        builders[config.name](reg)
    except KeyError:
        raise InvalidParameter(
            f"no builtin rules for configuration {config.name!r}"
        ) from None
    return reg


def _op_rule(reg: RuleRegistry, op: str, lifting: str, n: int, k: int, body) -> None:
    reg.add(ReductionRule("op", op, lifting, Template(n, k, body)))


def _test_rule(reg: RuleRegistry, test: str, lifting: str, k: int, body) -> None:
    # k + 1 variables: w1 is the test argument, w2.. are the lifting arguments
    reg.add(ReductionRule("test", test, lifting, Template(0, k + 1, body)))


def _nest(lifting: str) -> Formula:
    return Modal(lifting, 1, (Modal(lifting, 2, (Var(1),)),))


def _choice(lifting: str, conn: str) -> Formula:
    return Conn(conn, (Modal(lifting, 1, (Var(1),)), Modal(lifting, 2, (Var(1),))))


def _rules_pdl_crisp(reg: RuleRegistry) -> None:
    alg = reg.config.truth
    for lid, conn in (("box", "/\\"), ("dia", "\\/")):
        _op_rule(reg, "+", lid, 2, 1, _choice(lid, conn))
        _op_rule(reg, ";", lid, 2, 1, _nest(lid))
    _op_rule(
        reg, "~", "box", 1, 1,
        Conn("->", (Modal("box", 1, (Conn("0"),)), Var(1))),
    )
    _op_rule(
        reg, "~", "dia", 1, 1,
        Conn("/\\", (neg(Modal("dia", 1, (Conn("1"),))), Var(1))),
    )
    subset = reg.config.tests["t"].subset
    for lid, conn in (("box", "->"), ("dia", "/\\")):
        try:
            chi = _chi_body(alg, subset, Var(1))
        except MissingChi as exc:
            reg.gaps.append((("test", "t", lid), str(exc)))
            continue
        _test_rule(reg, "t", lid, 1, Conn(conn, (chi, Var(2))))


def _rules_pdl_labelled(reg: RuleRegistry) -> None:
    alg = reg.config.truth
    for lid, conn in (("box", "/\\"), ("dia", "\\/")):
        _op_rule(reg, "+", lid, 2, 1, _choice(lid, conn))
        _op_rule(reg, ";", lid, 2, 1, _nest(lid))
    _test_rule(reg, "t", "box", 1, Conn("->", (Var(1), Var(2))))
    _test_rule(reg, "t", "dia", 1, Conn("*", (Var(1), Var(2))))
    # counter-support needs chi_{top} under box and chi_{bot} under diamond
    for lid, chi_set, inner, conn in (
        ("box", frozenset({alg.top}), Modal("box", 1, (Conn("0"),)), "->"),
        ("dia", frozenset({0}), Modal("dia", 1, (Conn("1"),)), "/\\"),
    ):
        try:
            chi = _chi_body(alg, chi_set, inner)
        except MissingChi as exc:
            reg.gaps.append((("op", "~", lid), str(exc)))
            continue
        _op_rule(reg, "~", lid, 1, 1, Conn(conn, (chi, Var(1))))


def _rules_threshold(reg: RuleRegistry) -> None:
    alg = reg.config.struct
    if not alg.linear:
        raise NonlinearAlgebra(
            "threshold reduction rules require a linear structure algebra"
        )
    from .presets import threshold_lifting_id

    nonzero = range(1, alg.m)
    for r in nonzero:
        lid = threshold_lifting_id(alg, r)
        _op_rule(reg, "+", lid, 2, 1, _choice(lid, "\\/"))
        disjuncts = [
            Modal(
                threshold_lifting_id(alg, r1),
                1,
                (Modal(threshold_lifting_id(alg, r2), 2, (Var(1),)),),
            )
            for r1 in nonzero
            for r2 in nonzero
            if alg.leq(r, alg.tensor(r1, r2))
        ]
        _op_rule(reg, ";", lid, 2, 1, big_or(disjuncts))
        _test_rule(reg, "t", lid, 1, Conn("/\\", (Var(1), Var(2))))


def _rules_game(reg: RuleRegistry) -> None:
    _op_rule(reg, "+", "dia", 2, 1, _choice("dia", "\\/"))
    _op_rule(reg, "&", "dia", 2, 1, _choice("dia", "/\\"))
    _op_rule(reg, ";", "dia", 2, 1, _nest("dia"))
    _op_rule(reg, "^d", "dia", 1, 1, neg(Modal("dia", 1, (neg(Var(1)),))))
    _test_rule(reg, "t", "dia", 1, Conn("*", (Var(1), Var(2))))


def _rules_instantial(reg: RuleRegistry) -> None:
    have_two = "inst2" in reg.config.liftings
    for lid, spec in reg.config.liftings.items():
        k = spec.arity - 1
        vars_front = [Var(i + 1) for i in range(k)]
        last = Var(k + 1)
        # neighbourhood-wise union: split the witnessed arguments two ways,
        # dropping (not padding) the positions handed to the other side, so a
        # side whose member is the empty set still satisfies its conjunct
        disjuncts = []
        for chosen in product((True, False), repeat=k):
            left = tuple(vars_front[i] for i in range(k) if chosen[i]) + (last,)
            right = tuple(vars_front[i] for i in range(k) if not chosen[i]) + (last,)
            disjuncts.append(
                Conn(
                    "/\\",
                    (
                        Modal(f"inst{len(left)}", 1, left),
                        Modal(f"inst{len(right)}", 2, right),
                    ),
                )
            )
        _op_rule(reg, "+", lid, 2, k + 1, big_or(disjuncts))
        if have_two:
            # sequential composition threads the bound through inst2
            seq_args = tuple(
                Modal("inst2", 2, (vars_front[i], last)) for i in range(k)
            ) + (Modal("inst1", 2, (last,)),)
            _op_rule(reg, ";", lid, 2, k + 1, Modal(lid, 1, seq_args))
            _op_rule(
                reg, "&", lid, 2, k + 1,
                Modal("inst2", 1, (Modal(lid, 2, tuple(vars_front) + (last,)), Conn("1"))),
            )
        else:
            reason = "composition rules need the binary lifting inst2"
            reg.gaps.append((("op", ";", lid), reason))
            reg.gaps.append((("op", "&", lid), reason))
        # counter-domain: empty family at the state, all arguments true
        _op_rule(
            reg, "~", lid, 1, k + 1,
            big_and([neg(Modal("inst1", 1, (Conn("1"),)))] + vars_front + [last]),
        )
        # test: w1 is the test argument, w2..w_{k+2} the lifting arguments
        _test_rule(
            reg, "t", lid, k + 1,
            big_and([Var(1), Var(k + 2)] + [Var(i + 2) for i in range(k)]),
        )


# -- rewriting -----------------------------------------------------------


def reduce_step(formula: Formula, registry: RuleRegistry) -> Formula | None:
    """Rewrite one innermost-leftmost redex; None when already normal."""
    if contains_star(formula):
        raise IterationPresent("iteration is not reducible; formula contains *")
    return _step_formula(formula, registry)


def _rewrite_modal(node: Modal, registry: RuleRegistry) -> Formula:
    action = node.action
    if isinstance(action, Op):
        rule = registry.get("op", action.op, node.lifting)
        return instantiate(rule.template, action.args, node.args)
    rule = registry.get("test", action.test, node.lifting)
    return instantiate(rule.template, (), (action.arg,) + node.args)


def _step_formula(node: Formula, registry: RuleRegistry) -> Formula | None:
    if isinstance(node, Prop):
        return None
    if isinstance(node, Conn):
        for i, arg in enumerate(node.args):
            changed = _step_formula(arg, registry)
            if changed is not None:
                args = list(node.args)
                args[i] = changed
                return Conn(node.symbol, tuple(args))
        return None
    # modal: first the action's test arguments, then the formula arguments,
    # then the node itself
    changed_action = _step_action(node.action, registry)
    if changed_action is not None:
        return Modal(node.lifting, changed_action, node.args)
    for i, arg in enumerate(node.args):
        changed = _step_formula(arg, registry)
        if changed is not None:
            args = list(node.args)
            args[i] = changed
            return Modal(node.lifting, node.action, tuple(args))
    if isinstance(node.action, (Op, Test)):
        return _rewrite_modal(node, registry)
    return None


def _step_action(node, registry: RuleRegistry):
    if isinstance(node, Atomic):
        return None
    if isinstance(node, Op):
        for i, arg in enumerate(node.args):
            changed = _step_action(arg, registry)
            if changed is not None:
                args = list(node.args)
                args[i] = changed
                return Op(node.op, tuple(args))
        return None
    changed = _step_formula(node.arg, registry)
    if changed is not None:
        return Test(node.test, changed)
    return None


def reduce_full(
    formula: Formula,
    registry: RuleRegistry,
    budget: int = DEFAULT_REWRITE_BUDGET,
) -> Formula:
    """Iterate reduce_step to the atomic-modality normal form."""
    if contains_star(formula):
        raise IterationPresent("iteration is not reducible; formula contains *")
    current = formula
    for done in count():
        nxt = _step_formula(current, registry)
        if nxt is None:
            return current
        if done == budget:  # a rewrite more than the budget allows
            raise RewriteBudgetExceeded(f"rewriting did not terminate within {budget} steps")
        current = nxt


def is_normal_form(formula: Formula) -> bool:
    """No operation or test nodes remain under any modality."""
    return all(isinstance(s.action, Atomic) for s in subterms(formula) if isinstance(s, Modal))
