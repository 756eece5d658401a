"""One AST for formulas, actions and templates, with a parser and
pretty-printer.

Concrete syntax (PDL-flavoured):

  formulas    p, q, ...      propositional variables
              0, 1           bottom / top constants
              !f             sugar for f -> 0
              f /\\ g   f \\/ g   f * g   f -> g
              name(f, ...)   declared algebra extras (chi_*, constants)
              [a]f  <a>f     default box / diamond modality
              <a:lift>f      explicit lifting, <a:lift>(f1, ..., fk) if k > 1
  actions     a, b, ...      atomic actions
              a;b  a+b  a&b  sequencing, choice, second composition
              a*   a^d  ~a   iteration, dual, counter-domain
              ?t(f)          test t on formula f
  templates   w1, ..., wk    formula variables; action slots are numerals,
              e.g. <1:dia><2:dia> w1

Binary connectives parse left-associatively, -> right-associatively.

A template is an ordinary formula whose leaves are variables ``Var(i)``
instead of propositions and whose modalities hold a 1-based action slot, a
bare ``int``, instead of an action; ``instantiate`` substitutes formulas for
the variables and actions for the slots.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import ArityMismatch, FormulaSyntaxError, LengthMismatch, UnknownIdentifier

# -- AST nodes ----------------------------------------------------------


def _node(cls):
    """A frozen dataclass whose hash is computed on first use and kept on the
    instance, so a memo lookup costs O(1) instead of a walk over the subtree.
    Equality stays structural."""
    cls = dataclass(frozen=True)(cls)
    values = attrgetter(*(f.name for f in fields(cls)))

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((cls, values(self)))
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        # string hashes differ between processes: never carry one over
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_node
class Prop:
    name: str


@_node
class Var:
    index: int  # 1-based template variable


@_node
class Conn:
    symbol: str
    args: tuple["Formula", ...] = ()


@_node
class Modal:
    lifting: str
    action: "Action | int"  # an int is a template's action slot, 1-based
    args: tuple["Formula", ...]


@_node
class Atomic:
    name: str


@_node
class Op:
    op: str
    args: tuple["Action", ...]


@_node
class Test:
    test: str
    arg: "Formula"


# `|` builds a fresh union; typing.Union[...] would sit in typing's global
# cache and keep this module alive after mvdl is removed from sys.modules
Formula = Prop | Var | Conn | Modal
Action = Atomic | Op | Test

TOP = Conn("1")
BOT = Conn("0")


@_node
class Template:
    """A reduction scheme over n action slots and k formula variables."""

    n: int
    k: int
    body: Formula

    @property
    def independent(self) -> bool:
        """True iff at most one distinct lifting occurs under the modal nodes."""
        return len({s.lifting for s in subterms(self.body) if isinstance(s, Modal)}) <= 1


def neg(f: Formula) -> Formula:
    return Conn("->", (f, BOT))


def big_or(args: list) -> Formula:
    """Left-associated finite disjunction; empty join is bottom."""
    if not args:
        return BOT
    out = args[0]
    for a in args[1:]:
        out = Conn("\\/", (out, a))
    return out


def big_and(args: list) -> Formula:
    if not args:
        return TOP
    out = args[0]
    for a in args[1:]:
        out = Conn("/\\", (out, a))
    return out


# -- signature ----------------------------------------------------------

BASE_CONNS: dict[str, int] = {"/\\": 2, "\\/": 2, "*": 2, "->": 2, "0": 0, "1": 0}


@dataclass(frozen=True)
class Signature:
    """Names and arities the parser validates against."""

    props: frozenset[str] = frozenset()
    atoms: frozenset[str] = frozenset()
    liftings: tuple[tuple[str, int], ...] = ()
    ops: tuple[tuple[str, int], ...] = ()
    tests: frozenset[str] = frozenset()
    conns: tuple[tuple[str, int], ...] = tuple(BASE_CONNS.items())
    box: str | None = None
    diamond: str | None = None

    def lifting_arity(self, name: str) -> int | None:
        return dict(self.liftings).get(name)

    def op_arity(self, name: str) -> int | None:
        return dict(self.ops).get(name)

    def conn_arity(self, name: str) -> int | None:
        return dict(self.conns).get(name)


def make_signature(
    props: Iterable[str],
    atoms: Iterable[str],
    liftings: dict[str, int],
    ops: dict[str, int],
    tests: Iterable[str],
    extra_conns: dict[str, int] | None = None,
    box: str | None = None,
    diamond: str | None = None,
) -> Signature:
    for name, arity in list(liftings.items()) + list(ops.items()):
        if arity < 1:
            raise ArityMismatch(f"{name!r} declared with arity {arity}; minimum is 1")
    conns = dict(BASE_CONNS)
    conns.update(extra_conns or {})
    return Signature(
        props=frozenset(props),
        atoms=frozenset(atoms),
        liftings=tuple(sorted(liftings.items())),
        ops=tuple(sorted(ops.items())),
        tests=frozenset(tests),
        conns=tuple(sorted(conns.items())),
        box=box,
        diamond=diamond,
    )


# -- lexer --------------------------------------------------------------

_MULTI = ("->", "/\\", "\\/", "^d")
_SINGLE = "()[]<>,:;+&*~?!"


@dataclass(frozen=True)
class _Tok:
    kind: str  # 'ident' | 'num' | 'sym' | 'end'
    text: str
    pos: int


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        two = text[i : i + 2]
        if two in _MULTI:
            toks.append(_Tok("sym", two, i))
            i += 2
            continue
        if c in _SINGLE:
            toks.append(_Tok("sym", c, i))
            i += 1
            continue
        if c.isdecimal():  # not isdigit: int() refuses digits such as '²'
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(_Tok("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("ident", text[i:j], i))
            i = j
            continue
        raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    toks.append(_Tok("end", "", n))
    return toks


# -- parser -------------------------------------------------------------


class _Parser:
    def __init__(self, text: str, sig: Signature, template: bool):
        self.toks = _lex(text)
        self.i = 0
        self.sig = sig
        self.template = template
        self.max_slot = 0
        self.max_var = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            raise FormulaSyntaxError(f"expected {text!r}, found {t.text!r}", t.pos)
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.i += 1
            return True
        return False

    # formulas, lowest precedence first
    def formula(self):
        left = self.disj()
        if self.eat("->"):
            return Conn("->", (left, self.formula()))
        return left

    def disj(self):
        left = self.conj()
        while self.at("\\/"):
            self.next()
            left = Conn("\\/", (left, self.conj()))
        return left

    def conj(self):
        left = self.tens()
        while self.at("/\\"):
            self.next()
            left = Conn("/\\", (left, self.tens()))
        return left

    def tens(self):
        left = self.funary()
        while self.at("*"):
            self.next()
            left = Conn("*", (left, self.funary()))
        return left

    def funary(self):
        tok = self.peek()
        if tok.text == "!":
            self.next()
            return neg(self.funary())
        if tok.text in ("<", "["):
            return self.modal()
        return self.fprimary()

    def modal(self):
        opener = self.next()
        box = opener.text == "["
        action = self.action()
        lifting = None
        if not box and self.eat(":"):
            lid = self.next()
            if lid.kind != "ident":
                raise FormulaSyntaxError("expected a lifting name", lid.pos)
            lifting = lid.text
        self.expect("]" if box else ">")
        if lifting is None:
            lifting = self.sig.box if box else self.sig.diamond
            if lifting is None:
                raise UnknownIdentifier(
                    f"no default {'box' if box else 'diamond'} lifting in this signature"
                )
        arity = self.sig.lifting_arity(lifting)
        if arity is None:
            raise UnknownIdentifier(f"unknown lifting {lifting!r}")
        if self.at("("):
            self.next()
            args = [self.formula()]
            while self.eat(","):
                args.append(self.formula())
            self.expect(")")
        else:
            args = [self.funary()]
        if len(args) != arity:
            raise ArityMismatch(
                f"lifting {lifting!r} expects {arity} argument(s), got {len(args)}"
            )
        if self.template:  # aprimary admits nothing but a numeric slot here
            self.max_slot = max(self.max_slot, action)
        return Modal(lifting, action, tuple(args))

    def fprimary(self):
        tok = self.next()
        if tok.text == "(":
            f = self.formula()
            self.expect(")")
            return f
        if tok.kind == "num":
            if tok.text in ("0", "1"):
                return Conn(tok.text)
            raise FormulaSyntaxError(f"unexpected number {tok.text!r} in formula", tok.pos)
        if tok.kind != "ident":
            raise FormulaSyntaxError(f"unexpected token {tok.text!r} in formula", tok.pos)
        name = tok.text
        if self.template and len(name) > 1 and name[0] == "w" and name[1:].isdecimal():
            idx = self.numeral(name[1:], tok.pos)
            if idx < 1:
                raise FormulaSyntaxError("template variables start at w1", tok.pos)
            self.max_var = max(self.max_var, idx)
            return Var(idx)
        arity = self.sig.conn_arity(name)
        if arity is not None:
            if arity == 0:
                return Conn(name)
            self.expect("(")
            args = [self.formula()]
            while self.eat(","):
                args.append(self.formula())
            self.expect(")")
            if len(args) != arity:
                raise ArityMismatch(
                    f"connective {name!r} expects {arity} argument(s), got {len(args)}"
                )
            return Conn(name, tuple(args))
        if not self.template and name in self.sig.props:
            return Prop(name)
        raise UnknownIdentifier(f"unknown identifier {name!r} in formula position")

    # actions
    def action(self):
        left = self.seq()
        while self.peek().text in ("+", "&"):
            op = self.next().text
            self.check_op(op, 2)
            left = self.mk_op(op, (left, self.seq()))
        return left

    def seq(self):
        left = self.aprefix()
        while self.at(";"):
            self.next()
            self.check_op(";", 2)
            left = self.mk_op(";", (left, self.aprefix()))
        return left

    def aprefix(self):
        if self.at("~"):
            self.next()
            self.check_op("~", 1)
            return self.mk_op("~", (self.aprefix(),))
        return self.apostfix()

    def apostfix(self):
        out = self.aprimary()
        while self.peek().text in ("*", "^d"):
            op = self.next().text
            self.check_op(op, 1)
            out = self.mk_op(op, (out,))
        return out

    def aprimary(self):
        tok = self.next()
        if tok.text == "(":
            a = self.action()
            self.expect(")")
            return a
        if tok.text == "?":
            tid = self.next()
            if tid.kind != "ident" or tid.text not in self.sig.tests:
                raise UnknownIdentifier(f"unknown test {tid.text!r}")
            self.expect("(")
            arg = self.formula()
            self.expect(")")
            if self.template:
                raise FormulaSyntaxError("templates cannot contain tests", tok.pos)
            return Test(tid.text, arg)
        if tok.kind == "num":
            if not self.template:
                raise FormulaSyntaxError(
                    f"unexpected number {tok.text!r} in action", tok.pos
                )
            return self.numeral(tok.text, tok.pos)
        if tok.kind == "ident":
            if self.template:
                raise FormulaSyntaxError(
                    "template actions are numeric slots", tok.pos
                )
            if tok.text in self.sig.atoms:
                return Atomic(tok.text)
            raise UnknownIdentifier(f"unknown atomic action {tok.text!r}")
        raise FormulaSyntaxError(f"unexpected token {tok.text!r} in action", tok.pos)

    @staticmethod
    def numeral(text: str, pos: int) -> int:
        try:
            return int(text)
        except ValueError:  # longer than int() converts
            raise FormulaSyntaxError(f"numeral of {len(text)} digits", pos) from None

    def check_op(self, op: str, arity: int) -> None:
        declared = self.sig.op_arity(op)
        if declared is None:
            raise UnknownIdentifier(f"operation {op!r} not in signature")
        if declared != arity:
            raise ArityMismatch(f"operation {op!r} declared with arity {declared}")

    def mk_op(self, op: str, args: tuple):
        if self.template:
            raise FormulaSyntaxError(
                f"template actions are bare slots, found operation {op!r}",
                self.toks[self.i - 1].pos,
            )
        return Op(op, args)


def parse(text: str, sig: Signature, category: str = "formula"):
    """Parse ``text`` as a formula, action or template against ``sig``."""
    if category not in ("formula", "action", "template"):
        raise ValueError(f"unknown category {category!r}")
    p = _Parser(text, sig, template=category == "template")
    try:
        out = p.action() if category == "action" else p.formula()
    except RecursionError:
        raise FormulaSyntaxError("input nested too deeply", p.peek().pos) from None
    tok = p.peek()
    if tok.kind != "end":
        raise FormulaSyntaxError(f"trailing input {tok.text!r}", tok.pos)
    if category == "template":
        return Template(p.max_slot, p.max_var, out)
    return out


# -- renderer -----------------------------------------------------------

_LEVEL = {"->": 1, "\\/": 2, "/\\": 3, "*": 4}
_UNARY_LEVEL = 5


def _is_neg(node) -> bool:
    return (
        isinstance(node, Conn)
        and node.symbol == "->"
        and len(node.args) == 2
        and isinstance(node.args[1], Conn)
        and node.args[1].symbol == "0"
    )


def render(ast, sig: Signature | None = None) -> str:
    """Pretty-print with minimal parentheses; inverse of parse on ASTs."""
    if isinstance(ast, Template):
        return _render_formula(ast.body, sig, 0)
    if isinstance(ast, (Atomic, Op, Test, int)):
        return _render_action(ast, sig, 0)
    return _render_formula(ast, sig, 0)


def _render_formula(node, sig, level: int) -> str:
    if isinstance(node, Prop):
        return node.name
    if isinstance(node, Var):
        return f"w{node.index}"
    if isinstance(node, Conn):
        if _is_neg(node):
            return f"!{_render_formula(node.args[0], sig, _UNARY_LEVEL)}"
        if not node.args:
            return node.symbol
        if node.symbol in _LEVEL:
            mine = _LEVEL[node.symbol]
            if node.symbol == "->":
                left = _render_formula(node.args[0], sig, mine + 1)
                right = _render_formula(node.args[1], sig, mine)
            else:
                left = _render_formula(node.args[0], sig, mine)
                right = _render_formula(node.args[1], sig, mine + 1)
            text = f"{left} {node.symbol} {right}"
            return f"({text})" if mine < level else text
        args = ", ".join(_render_formula(a, sig, 0) for a in node.args)
        return f"{node.symbol}({args})"
    if isinstance(node, Modal):
        atext = _render_action(node.action, sig, 0)
        if sig is not None and node.lifting == sig.box and len(node.args) == 1:
            head = f"[{atext}]"
        elif sig is not None and node.lifting == sig.diamond and len(node.args) == 1:
            head = f"<{atext}>"
        else:
            head = f"<{atext}:{node.lifting}>"
        if len(node.args) == 1:
            return f"{head} {_render_formula(node.args[0], sig, _UNARY_LEVEL)}"
        args = ", ".join(_render_formula(a, sig, 0) for a in node.args)
        return f"{head}({args})"
    raise TypeError(f"cannot render {node!r}")


_ALEVEL = {"+": 1, "&": 1, ";": 2}
_APREFIX = 3
_APOSTFIX = 4


def _render_action(node, sig, level: int) -> str:
    if isinstance(node, int):
        return str(node)
    if isinstance(node, Atomic):
        return node.name
    if isinstance(node, Test):
        return f"?{node.test}({_render_formula(node.arg, sig, 0)})"
    if node.op in ("*", "^d"):
        return f"{_render_action(node.args[0], sig, _APOSTFIX)}{node.op}"
    if node.op == "~":
        inner = _render_action(node.args[0], sig, _APREFIX)
        text = f"~{inner}"
        return f"({text})" if _APREFIX < level else text
    mine = _ALEVEL[node.op]
    left = _render_action(node.args[0], sig, mine)
    right = _render_action(node.args[1], sig, mine + 1)
    text = f"{left}{node.op}{right}" if node.op == ";" else f"{left} {node.op} {right}"
    return f"({text})" if mine < level else text


# -- substitution and traversal ------------------------------------------


def instantiate(template: Template, actions: Iterable[Action], formulas: Iterable[Formula]) -> Formula:
    """Fill action slots and formula variables; shape is otherwise preserved."""
    acts = tuple(actions)
    forms = tuple(formulas)
    if len(acts) != template.n:
        raise LengthMismatch(
            f"template expects {template.n} action(s), got {len(acts)}"
        )
    if len(forms) != template.k:
        raise LengthMismatch(
            f"template expects {template.k} formula(s), got {len(forms)}"
        )
    return _subst(template.body, acts, forms)


def _subst(node: Formula, acts: tuple, forms: tuple) -> Formula:
    if isinstance(node, Var):
        return forms[node.index - 1]
    if isinstance(node, Conn):
        return Conn(node.symbol, tuple(_subst(a, acts, forms) for a in node.args))
    return Modal(
        node.lifting, acts[node.action - 1], tuple(_subst(a, acts, forms) for a in node.args)
    )


def _children(node) -> tuple:
    """A node's direct subterms; a modality's action comes before its
    arguments.  Leaves, template slots included, have none."""
    if isinstance(node, Modal):
        return (node.action, *node.args)
    if isinstance(node, Test):
        return (node.arg,)
    return getattr(node, "args", ())


def subterms(node) -> Iterator:
    """Every subterm of a formula, action or template, ``node`` first, in
    pre-order."""
    todo = [node]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(reversed(_children(node)))


def formula_actions(f: Formula) -> list[Action]:
    """The actions under modalities, each after those inside its own tests
    and before those in the modality's arguments."""
    out: list[Action] = []

    def walk(node) -> None:
        if isinstance(node, Modal):
            walk(node.action)
            out.append(node.action)
            for a in node.args:
                walk(a)
        else:
            for a in _children(node):
                walk(a)

    walk(f)
    return out


def contains_star(node) -> bool:
    """Does any action in the formula/action use the iteration operation?"""
    return any(isinstance(s, Op) and s.op == "*" for s in subterms(node))


def props_of(node) -> set[str]:
    return {s.name for s in subterms(node) if isinstance(s, Prop)}


def atoms_of(node) -> set[str]:
    return {s.name for s in subterms(node) if isinstance(s, Atomic)}
