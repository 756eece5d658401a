"""The five shipped logic configurations.

  pdl-crisp      powerset structures, A-valued box/diamond, ops + ; * ~, test t
  pdl-labelled   A-labelled structures, A-valued box/diamond, ops + ; * ~, test t
  pdl-threshold  A-labelled structures, two-valued threshold diamonds dia_r,
                 ops + ; *, test t   (formulas live in the Boolean algebra)
  game           monotone A-neighbourhoods, evaluation diamond, ops + & ^d ; *,
                 angelic test t
  instantial     double powerset, two-valued liftings inst1..inst{K+1},
                 ops + (neighbourhood-wise union) ; (sequence) & (collect) * ~,
                 test t
"""

from __future__ import annotations

from .actions import OperationSpec, TestSpec
from .algebra import Algebra, algebra_by_name, sanitize_label
from .errors import InvalidParameter
from .functors import Kind
from .semantics import LiftingSpec, LogicConfig
from .syntax import make_signature

PRESET_NAMES = ("pdl-crisp", "pdl-labelled", "pdl-threshold", "game", "instantial")

DEFAULT_PROPS = ("p", "q", "r", "s") + tuple(f"p{i}" for i in range(10))
DEFAULT_ATOMS = ("a", "b", "c", "d") + tuple(f"a{i}" for i in range(10))


def _extra_conns(alg: Algebra) -> dict[str, int]:
    conns = {name: 1 for name in alg.extras}
    conns.update({name: 0 for name in alg.constants})
    return conns


def threshold_lifting_id(alg: Algebra, r: int) -> str:
    return "dia_" + sanitize_label(alg.labels[r])


def make_preset(
    name: str,
    alg: Algebra | None = None,
    props=DEFAULT_PROPS,
    atoms=DEFAULT_ATOMS,
    max_k: int = 2,
) -> LogicConfig:
    """Instantiate a named preset over a truth/structure algebra."""
    if name not in PRESET_NAMES:
        raise InvalidParameter(f"unknown preset {name!r}")
    if alg is None:
        alg = algebra_by_name("B2")

    if name == "pdl-crisp":
        liftings = {
            "box": LiftingSpec("box", 1, "box-crisp"),
            "dia": LiftingSpec("dia", 1, "diamond-crisp"),
        }
        ops = {
            "+": OperationSpec("+", 2, "union"),
            ";": OperationSpec(";", 2, "kleisli"),
            "*": OperationSpec("*", 1, "star"),
            "~": OperationSpec("~", 1, "counter-domain"),
        }
        tests = {"t": TestSpec("t", "test-p", frozenset({alg.top}))}
        kind, truth, struct, box, dia = Kind.POWERSET, alg, alg, "box", "dia"
    elif name == "pdl-labelled":
        liftings = {
            "box": LiftingSpec("box", 1, "box-labelled"),
            "dia": LiftingSpec("dia", 1, "diamond-labelled"),
        }
        ops = {
            "+": OperationSpec("+", 2, "join-pw"),
            ";": OperationSpec(";", 2, "kleisli"),
            "*": OperationSpec("*", 1, "star"),
            "~": OperationSpec("~", 1, "counter-domain"),
        }
        tests = {"t": TestSpec("t", "labelled-unit")}
        kind, truth, struct, box, dia = Kind.APOWERSET, alg, alg, "box", "dia"
    elif name == "pdl-threshold":
        truth = algebra_by_name("B2")
        liftings = {
            threshold_lifting_id(alg, r): LiftingSpec(
                threshold_lifting_id(alg, r), 1, "threshold", param=r
            )
            for r in range(1, alg.m)
        }
        ops = {
            "+": OperationSpec("+", 2, "join-pw"),
            ";": OperationSpec(";", 2, "kleisli"),
            "*": OperationSpec("*", 1, "star"),
        }
        tests = {"t": TestSpec("t", "labelled-unit")}
        kind, struct, box, dia = Kind.APOWERSET, alg, None, None
    elif name == "game":
        liftings = {"dia": LiftingSpec("dia", 1, "eval")}
        ops = {
            "+": OperationSpec("+", 2, "join-pw"),
            "&": OperationSpec("&", 2, "meet-pw"),
            "^d": OperationSpec("^d", 1, "dual"),
            ";": OperationSpec(";", 2, "kleisli"),
            "*": OperationSpec("*", 1, "star"),
        }
        tests = {"t": TestSpec("t", "angelic")}
        kind, truth, struct, box, dia = Kind.MONOTONE_NEIGHBOURHOOD, alg, alg, None, "dia"
    else:  # instantial
        if alg.m != 2:
            raise InvalidParameter("the instantial preset is two-valued; use B2")
        liftings = {
            f"inst{k + 1}": LiftingSpec(f"inst{k + 1}", k + 1, "instantial")
            for k in range(max_k + 1)
        }
        ops = {
            "+": OperationSpec("+", 2, "nbh-union"),
            ";": OperationSpec(";", 2, "double-seq"),
            "&": OperationSpec("&", 2, "double-star"),
            "*": OperationSpec("*", 1, "star"),
            "~": OperationSpec("~", 1, "counter-domain"),
        }
        tests = {"t": TestSpec("t", "instantial-p", frozenset({alg.top}))}
        kind, truth, struct, box, dia = Kind.DOUBLE_POWERSET, alg, alg, None, "inst1"

    signature = make_signature(
        props=props,
        atoms=atoms,
        liftings={lid: spec.arity for lid, spec in liftings.items()},
        ops={oid: spec.arity for oid, spec in ops.items()},
        tests=tests.keys(),
        extra_conns=_extra_conns(truth),
        box=box,
        diamond=dia,
    )
    return LogicConfig(
        name=name,
        kind=kind,
        truth=truth,
        struct=struct,
        liftings=liftings,
        ops=ops,
        tests=tests,
        signature=signature,
    )
