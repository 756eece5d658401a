"""JSON encodings for algebras, models, rules and verdicts.

FValue encodings by functor kind:
  powerset                 int bitmask over the carrier
  apowerset                list of algebra indices, one per state
  aneighbourhood[, monotone] list of algebra indices in canonical predicate
                           order (lexicographic on predicate rows)
  double-powerset          list of int bitmasks

An algebra is referenced by builtin name ("B2", "L2", "G3") or inlined.
Truth constants travel in a separate "constants" key next to "extras".
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .actions import OP_ARITIES, OperationSpec, TestSpec
from .algebra import Algebra, algebra_by_name, validate_flew
from .errors import InvalidParameter
from .functors import Kind
from .presets import DEFAULT_ATOMS, DEFAULT_PROPS, PRESET_NAMES, make_preset
from .semantics import LiftingSpec, LogicConfig, Model
from .syntax import Template, make_signature, parse, render


def load_json(path: str):
    """Parse a JSON file; malformed content raises InvalidParameter."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise InvalidParameter(f"{path} is not valid JSON: {exc}") from None


def _field(data, key: str, where: str):
    """``data[key]``, or InvalidParameter naming the missing field."""
    if not isinstance(data, Mapping):
        raise InvalidParameter(f"{where}: expected a JSON object")
    if key not in data:
        raise InvalidParameter(f"{where}: missing field {key!r}")
    return data[key]


def _text(data, key: str, where: str) -> str:
    """``data[key]`` as a string, or InvalidParameter naming the field."""
    value = _field(data, key, where)
    if not isinstance(value, str):
        raise InvalidParameter(f"{where} field {key!r}: expected a string, got {value!r}")
    return value


def _optional(data: Mapping, key: str, where: str, check, expected: str, default=None):
    """``data[key]``, ``default`` when it is missing or null, or
    InvalidParameter naming the field when the value fails ``check``."""
    value = data.get(key)
    if value is None:
        return default
    if not check(value):
        raise InvalidParameter(f"{where} field {key!r}: expected {expected}, got {value!r}")
    return value


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_int(value) -> bool:
    """A JSON integer: a bool, which Python counts as an int, is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _list_of(check):
    return lambda value: isinstance(value, list) and all(check(v) for v in value)


def _object_of(check):
    return lambda value: isinstance(value, Mapping) and all(check(v) for v in value.values())


def _table(data, key: str, m: int):
    """An m x m operation table of elements, or InvalidParameter naming it."""
    t = _field(data, key, "algebra")
    if not (
        isinstance(t, list)
        and len(t) == m
        and all(
            isinstance(r, list) and len(r) == m
            and all(_is_int(v) and 0 <= v < m for v in r)
            for r in t
        )
    ):
        raise InvalidParameter(
            f"algebra field {key!r}: expected a {m}x{m} table of elements 0..{m - 1}"
        )
    return t


def _rows(rows, key: str, decode) -> dict:
    """A ``{name: [value, ...]}`` model field with each value decoded, or
    InvalidParameter naming the offending ``key.name`` field."""
    if not isinstance(rows, Mapping):
        raise InvalidParameter(f"model field {key!r}: expected an object of rows")
    out = {}
    for name, row in rows.items():
        try:
            out[name] = tuple(decode(v) for v in row)
        except (TypeError, ValueError) as exc:
            raise InvalidParameter(f"model field '{key}.{name}': {exc}") from None
    return out


def algebra_to_json(alg: Algebra) -> dict:
    out: dict[str, Any] = {
        "m": alg.m,
        "meet": [list(r) for r in alg.meet_table],
        "join": [list(r) for r in alg.join_table],
        "tensor": [list(r) for r in alg.tensor_table],
        "impl": [list(r) for r in alg.impl_table],
        "labels": list(alg.labels),
        "extras": {k: list(v) for k, v in alg.extras.items()},
    }
    if alg.constants:
        out["constants"] = dict(alg.constants)
    if alg.name:
        out["name"] = alg.name
    return out


def algebra_from_json(data: Mapping | str) -> Algebra:
    if isinstance(data, str):
        return algebra_by_name(data)
    m = _field(data, "m", "algebra")
    if not _is_int(m) or m < 1:
        raise InvalidParameter(f"algebra field 'm': expected a positive integer, got {m!r}")
    meet, join, tensor = (_table(data, key, m) for key in ("meet", "join", "tensor"))
    if "impl" in data:
        impl = _table(data, "impl", m)
    else:
        # residuate the tensor against the joins (quantale presentation)
        from .algebra import derive_residuum

        impl = derive_residuum(m, join, tensor)
    alg = Algebra(
        m=m,
        meet=meet,
        join=join,
        tensor=tensor,
        impl=impl,
        labels=_optional(data, "labels", "algebra", _list_of(_is_str), "a list of strings"),
        extras=_optional(
            data, "extras", "algebra", _object_of(_list_of(_is_int)), "an object of unary tables"
        ),
        constants=_optional(
            data, "constants", "algebra", _object_of(_is_int), "an object of elements"
        ),
        name=_optional(data, "name", "algebra", _is_str, "a string"),
    )
    report = validate_flew(alg)
    if not report.ok:
        bad = report.failures()[0]
        raise InvalidParameter(
            f"algebra fails {bad.family} law {bad.law!r} at {bad.witness}"
        )
    return alg


def config_from_json(data: Mapping, alg: Algebra) -> LogicConfig:
    """Build a custom logic configuration from a declaration object.

    Lifting entries: {"variant": ..., "param"?: element, "arity"?: int}
    (arity defaults to 1; instantial liftings must state theirs).  Operation
    entries: {"variant": ...}; test entries: {"variant": ..., "subset"?: [int]}.
    """
    kind = _field(data, "kind", "config")
    try:
        kind = Kind(kind)
    except ValueError:
        raise InvalidParameter(f"config field 'kind': unknown functor kind {kind!r}") from None
    truth = alg
    if "truth_algebra" in data:
        truth = algebra_from_json(data["truth_algebra"])

    def entries(key: str) -> dict:
        return _optional(data, key, "config", lambda v: isinstance(v, Mapping), "an object", {})

    liftings = {}
    for lid, entry in entries("liftings").items():
        where = f"config lifting {lid!r}"
        variant = _text(entry, "variant", where)
        arity = _optional(entry, "arity", where, _is_int, "an integer", 1)
        param = _optional(entry, "param", where, _is_int, "an element", 0)
        if not 0 <= param < alg.m:
            raise InvalidParameter(f"{where} field 'param': {param} is not an element")
        liftings[lid] = LiftingSpec(lid, arity, variant, param=param)
        liftings[lid].check_kind(kind)
    ops = {}
    for oid, entry in entries("ops").items():
        variant = _text(entry, "variant", f"config op {oid!r}")
        if variant not in OP_ARITIES:
            raise InvalidParameter(f"unknown operation variant {variant!r}")
        ops[oid] = OperationSpec(oid, OP_ARITIES[variant], variant)
        ops[oid].check_kind(kind)
    tests = {}
    for tid, entry in entries("tests").items():
        where = f"config test {tid!r}"
        variant = _text(entry, "variant", where)
        subset = _optional(entry, "subset", where, _list_of(_is_int), "a list of integers")
        if subset is not None:
            subset = frozenset(subset)
        elif variant in ("test-p", "instantial-p"):
            subset = frozenset({truth.top})
        else:
            subset = frozenset()
        tests[tid] = TestSpec(tid, variant, subset)
        tests[tid].check_kind(kind)
    names = _list_of(_is_str)
    signature = make_signature(
        props=_optional(data, "props", "config", names, "a list of strings", DEFAULT_PROPS),
        atoms=_optional(data, "atoms", "config", names, "a list of strings", DEFAULT_ATOMS),
        liftings={lid: spec.arity for lid, spec in liftings.items()},
        ops={oid: spec.arity for oid, spec in ops.items()},
        tests=tests.keys(),
        extra_conns={name: 1 for name in truth.extras}
        | {name: 0 for name in truth.constants},
        box=_optional(data, "box", "config", _is_str, "a string"),
        diamond=_optional(data, "diamond", "config", _is_str, "a string"),
    )
    return LogicConfig(
        name=_optional(data, "name", "config", _is_str, "a string", "custom"),
        kind=kind,
        truth=truth,
        struct=alg,
        liftings=liftings,
        ops=ops,
        tests=tests,
        signature=signature,
    )


def config_to_json(config: LogicConfig) -> dict:
    out: dict[str, Any] = {
        "name": config.name,
        "kind": config.kind.value,
        "liftings": {
            lid: {
                k: v
                for k, v in (
                    ("variant", spec.variant),
                    ("arity", spec.arity),
                    ("param", spec.param),
                )
                if not (k == "param" and v == 0)
            }
            for lid, spec in config.liftings.items()
        },
        "ops": {oid: {"variant": spec.variant} for oid, spec in config.ops.items()},
        "tests": {
            tid: {"variant": spec.variant, "subset": sorted(spec.subset)}
            for tid, spec in config.tests.items()
        },
        "box": config.signature.box,
        "diamond": config.signature.diamond,
    }
    if config.truth != config.struct:
        out["truth_algebra"] = config.truth.name or algebra_to_json(config.truth)
    return out


def fvalue_to_json(kind: Kind, value):
    if kind is Kind.POWERSET:
        return value
    if kind is Kind.DOUBLE_POWERSET:
        return sorted(value)
    return list(value)


def _integer(value) -> int:
    """A JSON integer as it is; anything else, a boolean too, raises TypeError."""
    if not _is_int(value):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def fvalue_from_json(kind: Kind, data):
    if kind is Kind.POWERSET:
        return _integer(data)
    if kind is Kind.DOUBLE_POWERSET:
        return frozenset(map(_integer, data))
    return tuple(map(_integer, data))


def model_to_json(model: Model) -> dict:
    config = model.config
    out = {
        "n": model.n,
        "kind": config.kind.value,
        "algebra": config.struct.name or algebra_to_json(config.struct),
        "atoms": {
            name: [fvalue_to_json(config.kind, v) for v in gamma]
            for name, gamma in model.atoms.items()
        },
        "valuation": {name: list(row) for name, row in model.valuation.items()},
    }
    if config.name in PRESET_NAMES:
        out["preset"] = config.name
    else:
        out["config"] = config_to_json(config)
    return out


def model_from_json(data: Mapping, config: LogicConfig | None = None) -> Model:
    n = _field(data, "n", "model")
    if not _is_int(n):
        raise InvalidParameter(f"model field 'n': expected an integer, got {n!r}")
    if config is None:
        alg = algebra_from_json(_field(data, "algebra", "model"))
        if "config" in data:
            config = config_from_json(data["config"], alg)
        else:
            config = make_preset(_field(data, "preset", "model"), alg)
    kind = config.kind
    if "kind" in data and data["kind"] != kind.value:
        raise InvalidParameter(
            f"model kind {data['kind']!r} does not match preset kind {kind.value!r}"
        )
    atoms = _rows(
        _field(data, "atoms", "model"), "atoms", lambda v: fvalue_from_json(kind, v)
    )
    valuation = _rows(data.get("valuation", {}), "valuation", _integer)
    return Model(n, config, atoms, valuation)


def formula_to_json(node) -> dict:
    """Formulas and actions as {"kind": ...} trees for machine interchange."""
    from .syntax import Atomic, Conn, Modal, Op, Prop, Test

    if isinstance(node, Prop):
        return {"kind": "prop", "name": node.name}
    if isinstance(node, Conn):
        return {
            "kind": "conn",
            "symbol": node.symbol,
            "args": [formula_to_json(a) for a in node.args],
        }
    if isinstance(node, Modal):
        return {
            "kind": "modal",
            "lifting": node.lifting,
            "action": formula_to_json(node.action),
            "args": [formula_to_json(a) for a in node.args],
        }
    if isinstance(node, Atomic):
        return {"kind": "atomic", "name": node.name}
    if isinstance(node, Op):
        return {
            "kind": "op",
            "op": node.op,
            "args": [formula_to_json(a) for a in node.args],
        }
    if isinstance(node, Test):
        return {
            "kind": "test",
            "test": node.test,
            "arg": formula_to_json(node.arg),
        }
    raise InvalidParameter(f"not a formula or action node: {node!r}")


def formula_from_json(data: Mapping):
    """The inverse of formula_to_json; a malformed tree, or an action where
    a formula belongs or the reverse, raises InvalidParameter naming the
    node kind and field."""
    from .syntax import Atomic, Conn, Modal, Op, Prop, Test

    kind = _field(data, "kind", "formula node")
    where = f"{kind!r} node"
    formula, action = (Prop, Conn, Modal), (Atomic, Op, Test)

    def text(key: str) -> str:
        return _text(data, key, where)

    def node(value, key: str, category: tuple):
        got = formula_from_json(value)
        if not isinstance(got, category):
            expected = "a formula" if category is formula else "an action"
            raise InvalidParameter(
                f"{where} field {key!r}: expected {expected}, got a {value['kind']!r} node"
            )
        return got

    def nodes(key: str, category: tuple) -> tuple:
        value = _field(data, key, where)
        if not isinstance(value, list):
            raise InvalidParameter(f"{where} field {key!r}: expected a list of nodes")
        return tuple(node(a, key, category) for a in value)

    if kind == "prop":
        return Prop(text("name"))
    if kind == "conn":
        return Conn(text("symbol"), nodes("args", formula))
    if kind == "modal":
        act = node(_field(data, "action", where), "action", action)
        return Modal(text("lifting"), act, nodes("args", formula))
    if kind == "atomic":
        return Atomic(text("name"))
    if kind == "op":
        return Op(text("op"), nodes("args", action))
    if kind == "test":
        return Test(text("test"), node(_field(data, "arg", where), "arg", formula))
    raise InvalidParameter(f"unknown node kind {kind!r}")


def rule_to_json(rule) -> dict:
    out = {
        rule.target_kind: rule.target,
        "lifting": rule.lifting,
        "template": render(rule.template),
    }
    return out


def rule_from_json(data: Mapping, config: LogicConfig):
    """A rule object; its template may use no slot beyond the operation's
    arity and no variable beyond the lifting's arity (+1 for a test rule)."""
    from .reduction import ReductionRule

    template = parse(_text(data, "template", "rule"), config.signature, "template")
    lid = _text(data, "lifting", "rule")
    if "op" in data:
        kind, target = "op", _text(data, "op", "rule")
        n, k = config.op(target).arity, config.lifting(lid).arity
    else:
        kind, target = "test", _text(data, "test", "rule")
        n, k = 0, config.lifting(lid).arity + 1
    if template.n > n:
        raise InvalidParameter(
            f"rule field 'template': slot {template.n} is beyond the {n} action(s) "
            f"of {kind} {target!r}"
        )
    if template.k > k:
        raise InvalidParameter(
            f"rule field 'template': variable w{template.k} is beyond the {k} formula(s) "
            f"of a {kind} rule under lifting {lid!r}"
        )
    return ReductionRule(kind, target, lid, Template(n, k, template.body))


def verdict_to_json(verdict) -> dict:
    out = {
        "status": verdict.status,
        "cases": verdict.cases,
        "seconds": round(verdict.seconds, 6),
    }
    if verdict.counterexample is not None:
        out["counterexample"] = verdict.counterexample
    if verdict.detail:
        out["detail"] = verdict.detail
    return out


def dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)
