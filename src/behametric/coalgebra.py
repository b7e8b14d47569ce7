"""Finite coalgebra systems and JSON ingestion.

One JSON parser covers three document kinds: generic systems ("system"),
probabilistic transition systems ("prob_ts") and metric transition systems
("metric_ts").  The two specialized kinds are sugar compiled down to a
generic System over the functor grammar.  Rationals travel as "p/q" strings
("inf" for infinity); atoms are strings; files are UTF-8 JSON.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .functors import (
    Coproduct,
    Const,
    DiagSquare,
    Dist,
    Distribution,
    FinPow,
    FunctorExpr,
    Id,
    MaxEval,
    PNormEval,
    Product,
    PseudometricTable,
    ShapeError,
    Tagged,
    check_expr_bound,
    sorted_structs,
    validate,
)
from .values import (
    EXACT,
    INF,
    ConfigurationError,
    NumericMode,
    TOP_INF,
    TOP_ONE,
    TopBound,
    Value,
    format_magnitude,
    over_common_denominator,
)

TERMINATED = "✓"


class SchemaError(ValueError):
    """Document rejected; the message carries a path into the document."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


# ---------------------------------------------------------------------------
# rational parsing with a symbolic epsilon

# Fraction builds 10**e exactly, so "1e100000000" would stall for minutes;
# larger exponents (already far past any double) are refused before it runs,
# and so is a larger p of a p-norm, whose exact power sum grows the same way
MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")
# Fraction reads "1_000" from Python 3.11 on and "1 / 3" from 3.12 on; an
# underscore between two digits and the spaces around "/" are dropped before
# it runs, so every Python reads one grammar
_SPELLING = re.compile(r"(?<=\d)_(?=\d)|\s+(?=/)|(?<=/)\s+")


def _fraction(s: str, text, path, problem: str) -> Fraction:
    """Fraction(s) for a string taken from ``text``; errors name ``path``."""
    exp = _EXPONENT.search(s) if "e" in s or "E" in s else None
    if exp:
        digits = exp.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or "0") > MAX_EXPONENT:
            raise SchemaError(path, f"exponent of {text!r} exceeds {MAX_EXPONENT}")
    try:
        # digits, or digits/digits, as ints: Fraction's regex parser gives the
        # same value and the same errors, slower
        num, slash, den = s.partition("/")
        if num.isdecimal() and (den.isdecimal() or not slash):
            return Fraction(int(num), int(den) if slash else 1)
        return Fraction(_SPELLING.sub("", s))
    except (ValueError, ZeroDivisionError) as exc:
        # Python's cap on int(str) digits, a guard like MAX_EXPONENT, kept as is
        if str(exc).startswith("Exceeds the limit"):
            limit = f"{sys.get_int_max_str_digits():,}-digit limit"
            raise SchemaError(path, f"an integer past Python's {limit}") from None
        raise SchemaError(path, f"{problem} {text!r}") from None


def parse_weight(text, eps: Fraction | None = None, path="weight") -> Fraction:
    """Parse "p/q" optionally combined with a symbolic eps, e.g. "1/2-eps".

    Terms are rationals or "eps" joined by + and -; eps must be supplied
    when the symbol occurs.  Errors name ``path``; a JSON boolean is no
    weight.
    """
    if isinstance(text, bool):
        raise SchemaError(path, f"malformed weight {text!r}")
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    s = str(text).replace(" ", "")
    if "eps" not in s and "+" not in s[1:] and "-" not in s[1:]:  # one term
        return _fraction(s, text, path, "malformed weight")
    total = Fraction(0)
    sign = 1
    token = ""

    def flush():
        nonlocal total, token
        if not token:
            raise SchemaError(path, f"malformed weight {text!r}")
        if token == "eps":
            if eps is None:
                raise SchemaError(path, f"{text!r} needs an eps value")
            term = eps
        else:
            term = _fraction(token, text, path, "malformed weight")
        total += sign * term
        token = ""

    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "eE":  # not an exponent sign
            flush()
            sign = 1 if ch == "+" else -1
        else:
            token += ch
    flush()
    return total


def parse_rational_or_inf(text, path="value"):
    s = str(text).strip()
    if s in ("inf", "infinity", "∞"):
        return INF
    return _fraction(s, text, path, "not a rational:")


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict, refused where a key repeats, since the dict
    would keep only the last of its values."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError("$", f"repeated key {key!r}")
            seen.add(key)
    return obj


def parse_json(text):
    """json.loads with every failure, Python's 4,300-digit limit on integers,
    deep nesting and a repeated key included, raised as a SchemaError at "$"."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except SchemaError:
        raise
    except (ValueError, RecursionError) as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# systems


@dataclass
class System:
    states: tuple
    expr: FunctorExpr
    alpha: dict
    top: TopBound
    mode: NumericMode = EXACT

    def __post_init__(self):
        self.states = tuple(self.states)
        carrier = frozenset(self.states)  # one set validates every state
        if len(carrier) != len(self.states):
            raise SchemaError("states", "duplicate state names")
        _check_bound(self.expr, self.top)
        missing = [s for s in self.states if s not in self.alpha]
        if missing:
            raise SchemaError("alpha", f"missing transitions for {missing}")
        for s in self.states:
            _validated(self.expr, carrier, self.alpha[s], f"alpha[{s}]")

    def __eq__(self, other):
        return (
            isinstance(other, System)
            and self.states == other.states
            and self.expr == other.expr
            and self.top == other.top
            and all(self.alpha[s] == other.alpha[s] for s in self.states)
        )


@dataclass
class ProbTS:
    """States moving to successor distributions with explicit termination
    mass; weights per state sum exactly to 1.  A zero transition weight
    means no transition and is dropped."""

    states: tuple
    transitions: dict  # state -> {state: Fraction}
    terminate: dict  # state -> Fraction
    c: Fraction

    def __post_init__(self):
        self.states = tuple(self.states)
        _known_sources(self.transitions, self.states, "transitions")
        _known_sources(self.terminate, self.states, "terminate")
        self.transitions = {
            s: {tgt: w for tgt, w in trans.items() if w != 0}
            for s, trans in self.transitions.items()
        }
        self.c = Fraction(self.c)
        if not 0 < self.c < 1:
            raise SchemaError("c", f"discount {self.c} not in (0, 1)")
        known = frozenset(self.states)
        for s in self.states:
            trans = self.transitions.get(s, {})
            for tgt in trans:
                if tgt not in known:
                    raise SchemaError(f"transitions[{s}]", f"unknown state {tgt!r}")
            weights = [w if type(w) is Fraction else Fraction(w)
                       for w in (*trans.values(), self.terminate.get(s, 0))]
            nums, den = over_common_denominator(weights)
            if sum(nums) != den:
                total = Fraction(sum(nums), den)
                raise SchemaError(f"transitions[{s}]", f"weights sum to {total}, not 1")
        for s in self.states:
            for tgt, w in self.transitions.get(s, {}).items():
                if w < 0:
                    raise SchemaError(f"transitions[{s}][{tgt}]", f"negative weight {w}")
            tw = Fraction(self.terminate.get(s, 0))
            if tw < 0:
                raise SchemaError(f"terminate[{s}]", f"negative weight {tw}")


@dataclass
class MetricTS:
    """States with per-proposition valuations into metric spaces plus a
    finite successor set."""

    states: tuple
    propositions: list  # [(name, PseudometricTable)] under TOP_INF
    valuation: dict  # state -> {prop name: atom}
    tau: dict  # state -> frozenset of states

    def __post_init__(self):
        self.states = tuple(self.states)
        _known_sources(self.valuation, self.states, "valuation")
        _known_sources(self.tau, self.states, "tau")
        if not self.propositions:
            raise SchemaError("propositions", "at least one proposition required")
        for name, table in self.propositions:
            if table.bound != TOP_INF:
                raise SchemaError(f"propositions[{name}]", "tables must use top = inf")
        known = frozenset(self.states)
        for s in self.states:
            vals = self.valuation.get(s, {})
            for name, table in self.propositions:
                atom = vals.get(name)
                if atom not in table.carrier:
                    raise SchemaError(
                        f"valuation[{s}][{name}]", f"{atom!r} not in the carrier"
                    )
            for tgt in self.tau.get(s, frozenset()):
                if tgt not in known:
                    raise SchemaError(f"tau[{s}]", f"unknown state {tgt!r}")


def from_prob_ts(p: ProbTS, mode: NumericMode = EXACT) -> System:
    """Compile to distributions over (next state + termination):
    Dist(Coproduct(Id(c), Const(singleton))) with top = 1."""
    term_space = PseudometricTable([TERMINATED], {}, TOP_ONE, check=False)
    expr = Dist(Coproduct(Id(p.c), Const(term_space, name="term")))
    alpha = {}
    for s in p.states:
        weights = {Tagged("left", tgt): w for tgt, w in p.transitions.get(s, {}).items()}
        tw = p.terminate.get(s, 0)
        if type(tw) is not Fraction:
            tw = Fraction(tw)
        if tw > 0:
            weights[Tagged("right", TERMINATED)] = tw
        alpha[s] = Distribution(weights)
    return System(p.states, expr, alpha, TOP_ONE, mode)


def from_metric_ts(m: MetricTS, mode: NumericMode = EXACT) -> System:
    """Compile to (valuation atoms, successor set): a max-product of the
    proposition spaces paired with the finite powerset of states, top = inf."""
    names = [name for name, _ in m.propositions]
    val_expr = Const(m.propositions[-1][1], name=m.propositions[-1][0])
    for name, table in reversed(m.propositions[:-1]):
        val_expr = Product(Const(table, name=name), val_expr, MaxEval())

    def val_struct(s):
        atoms = [m.valuation[s][name] for name in names]
        out = atoms[-1]
        for atom in reversed(atoms[:-1]):
            out = (atom, out)
        return out

    expr = Product(val_expr, FinPow(Id(Fraction(1))), MaxEval())
    alpha = {
        s: (val_struct(s), frozenset(m.tau.get(s, frozenset()))) for s in m.states
    }
    return System(m.states, expr, alpha, TOP_INF, mode)


# ---------------------------------------------------------------------------
# JSON: expressions

# the nodes with one child, by their JSON name
_UNARY_NODES = {"dist": Dist, "finpow": FinPow, "diagsquare": DiagSquare}
_UNARY_NAMES = {node: name for name, node in _UNARY_NODES.items()}


def expr_from_json(doc, spaces, bound, path="expr") -> FunctorExpr:
    if doc == "id":
        return Id(Fraction(1))
    if not isinstance(doc, dict) or len(doc) != 1:
        raise SchemaError(path, f"expected a single-key expression object, got {doc!r}")
    (kind, body), = doc.items()
    sub = f"{path}.{kind}"
    if kind == "id":
        if not isinstance(body, dict):
            raise SchemaError(sub, f"expected {{discount?}}, got {body!r}")
        try:
            return Id(parse_weight(body.get("discount", "1"), path=sub + ".discount"))
        except ConfigurationError as exc:
            raise SchemaError(sub + ".discount", str(exc)) from None
    if kind in _UNARY_NODES:
        return _UNARY_NODES[kind](expr_from_json(body, spaces, bound, sub))
    if kind == "coproduct":
        if not (isinstance(body, list) and len(body) == 2):
            raise SchemaError(sub, "coproduct takes [left, right]")
        return Coproduct(
            expr_from_json(body[0], spaces, bound, sub + "[0]"),
            expr_from_json(body[1], spaces, bound, sub + "[1]"),
        )
    if kind == "product":
        if not (isinstance(body, dict) and "left" in body and "right" in body):
            raise SchemaError(sub, "product takes {left, right, eval?}")
        ev_doc = body.get("eval", "max")
        if ev_doc == "max":
            ev = MaxEval()
        elif isinstance(ev_doc, dict) and isinstance(ev_doc.get("pnorm"), dict):
            pn, pn_path = ev_doc["pnorm"], sub + ".eval.pnorm"
            c1 = parse_weight(pn.get("c1"), path=pn_path + ".c1")
            c2 = parse_weight(pn.get("c2"), path=pn_path + ".c2")
            if type(pn.get("p")) is not int:  # a JSON boolean is no integer
                raise SchemaError(pn_path + ".p", f"expected an integer, got {pn.get('p')!r}")
            if pn["p"] > MAX_EXPONENT:  # the power sum holds p times its entries' bits
                raise SchemaError(pn_path + ".p", f"p = {pn['p']} exceeds {MAX_EXPONENT}")
            try:
                ev = PNormEval(pn["p"], c1, c2)
            except ConfigurationError as exc:
                raise SchemaError(pn_path, str(exc)) from None
        else:
            raise SchemaError(sub + ".eval", f"unknown evaluation {ev_doc!r}")
        return Product(
            expr_from_json(body["left"], spaces, bound, sub + ".left"),
            expr_from_json(body["right"], spaces, bound, sub + ".right"),
            ev,
        )
    if kind == "const":
        if not isinstance(body, str) or body not in spaces:
            raise SchemaError(sub, f"unknown constant space {body!r}")
        return Const(spaces[body], name=body)
    raise SchemaError(path, f"unknown expression node {kind!r}")


def expr_to_json(expr: FunctorExpr):
    if isinstance(expr, Id):
        return {"id": {"discount": format_magnitude(expr.discount)}}
    if type(expr) in _UNARY_NAMES:
        return {_UNARY_NAMES[type(expr)]: expr_to_json(expr.sub)}
    if isinstance(expr, Coproduct):
        return {"coproduct": [expr_to_json(expr.left), expr_to_json(expr.right)]}
    if isinstance(expr, Product):
        ev = expr.eval
        ev_doc = (
            "max"
            if isinstance(ev, MaxEval)
            else {
                "pnorm": {
                    "p": ev.p,
                    "c1": format_magnitude(ev.c1),
                    "c2": format_magnitude(ev.c2),
                }
            }
        )
        return {
            "product": {
                "left": expr_to_json(expr.left),
                "right": expr_to_json(expr.right),
                "eval": ev_doc,
            }
        }
    if isinstance(expr, Const):
        return {"const": expr.name}
    raise ShapeError(f"unknown expression node {expr!r}")


# ---------------------------------------------------------------------------
# JSON: pseudometric tables


def table_from_json(doc, bound, path="space") -> PseudometricTable:
    if not isinstance(doc, dict) or "carrier" not in doc:
        raise SchemaError(path, "expected {carrier: [...], d: [[a, b, value], ...]}")
    carrier = _atom_list(doc["carrier"], f"{path}.carrier")
    rows = doc.get("d", [])
    if not isinstance(rows, list):
        raise SchemaError(f"{path}.d", f"expected a list of [a, b, value], got {rows!r}")
    entries = {}
    for k, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 3):
            raise SchemaError(f"{path}.d[{k}]", f"expected [a, b, value], got {row!r}")
        a, b, raw = row
        if not (isinstance(a, str) and isinstance(b, str)):
            raise SchemaError(f"{path}.d[{k}]", f"atoms must be strings, got {a!r}, {b!r}")
        mag = parse_rational_or_inf(raw, f"{path}.d[{k}]")
        try:
            entries[(a, b)] = bound.check(Value(mag))
        except ConfigurationError as exc:
            raise SchemaError(f"{path}.d[{k}]", str(exc)) from exc
    try:
        return PseudometricTable(carrier, entries, bound)
    except (ShapeError, ConfigurationError) as exc:
        raise SchemaError(path, str(exc)) from exc


def table_to_json(table: PseudometricTable):
    return {
        "carrier": list(table.carrier),
        "d": [
            [a, b, format_magnitude(v.mag)]
            for a, b, v in table.entries()
            if not v.is_zero
        ],
    }


# ---------------------------------------------------------------------------
# JSON: structures


def struct_from_json(doc, path="t", eps=None):
    if isinstance(doc, str):
        return doc
    if not isinstance(doc, dict) or len(doc) != 1:
        raise SchemaError(path, f"expected an atom or single-key object, got {doc!r}")
    (kind, body), = doc.items()
    sub = f"{path}.{kind}"
    if kind == "dist":
        if not isinstance(body, list):
            raise SchemaError(sub, f"expected [[item, weight], ...], got {body!r}")
        pairs = []
        for k, pair in enumerate(body):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise SchemaError(f"{sub}[{k}]", f"expected [item, weight], got {pair!r}")
            item, w = pair
            where = f"{sub}[{k}]"
            pairs.append((struct_from_json(item, where, eps), parse_weight(w, eps, where)))
        try:
            return Distribution(pairs)
        except ShapeError as exc:
            raise SchemaError(sub, str(exc)) from exc
    if kind == "set":
        if not isinstance(body, list):
            raise SchemaError(sub, f"expected a list, got {body!r}")
        return frozenset(
            struct_from_json(item, f"{sub}[{k}]", eps) for k, item in enumerate(body)
        )
    if kind == "pair":
        if not (isinstance(body, list) and len(body) == 2):
            raise SchemaError(sub, "pair takes [left, right]")
        return (
            struct_from_json(body[0], sub + "[0]", eps),
            struct_from_json(body[1], sub + "[1]", eps),
        )
    if kind in ("left", "right"):
        return Tagged(kind, struct_from_json(body, sub, eps))
    raise SchemaError(path, f"unknown structure kind {kind!r}")


def struct_to_json(t):
    if isinstance(t, str):
        return t
    if isinstance(t, Distribution):
        return {
            "dist": [[struct_to_json(x), format_magnitude(p)] for x, p in t.items]
        }
    if isinstance(t, frozenset):
        return {"set": [struct_to_json(x) for x in sorted_structs(t)]}
    if isinstance(t, Tagged):
        return {t.tag: struct_to_json(t.value)}
    if isinstance(t, tuple):
        return {"pair": [struct_to_json(t[0]), struct_to_json(t[1])]}
    raise ShapeError(f"unknown structure value {t!r}")


# ---------------------------------------------------------------------------
# documents


def _parse_top(doc, path="top") -> TopBound:
    raw = doc.get("top")
    if raw is None:
        raise SchemaError(path, 'missing "top" ("p/q" or "inf")')
    mag = parse_rational_or_inf(raw, path)
    try:
        return TOP_INF if mag == INF else TopBound.finite(mag)
    except ConfigurationError as exc:
        raise SchemaError(path, str(exc)) from None


def load_system(
    doc, mode: NumericMode = EXACT, eps: Fraction | None = None, c: Fraction | None = None
) -> System:
    """Parse a system document (dict or JSON text) of any supported kind."""
    if isinstance(doc, (str, bytes)):
        doc = parse_json(doc)
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    kind = doc.get("kind", "system")
    if c is not None and kind in ("system", "metric_ts"):
        raise SchemaError("--c", "only a prob_ts document has a discount")
    if kind == "prob_ts":
        return from_prob_ts(_parse_prob_ts(doc, eps=eps, c=c), mode)
    if kind == "metric_ts":
        return from_metric_ts(_parse_metric_ts(doc), mode)
    if kind != "system":
        raise SchemaError("kind", f"unknown document kind {kind!r}")
    bound = _parse_top(doc)
    spaces = {
        name: table_from_json(sdoc, bound, f"spaces.{name}")
        for name, sdoc in _object_field(doc, "spaces").items()
    }
    expr = expr_from_json(doc.get("expr"), spaces, bound)
    states = _atom_list(doc.get("states"), "states")
    alpha_doc = _object_field(doc, "alpha")
    alpha = {
        s: struct_from_json(alpha_doc.get(s), f"alpha.{s}", eps)
        for s in states
        if s in alpha_doc
    }
    return System(states, expr, alpha, bound, mode)


def _atom_list(value, path) -> list:
    """A JSON list of strings (state names, atoms), else a SchemaError.  The
    names are interned, so every load of a document shares their strings."""
    if not isinstance(value, list):
        raise SchemaError(path, f"expected a list of names, got {value!r}")
    for k, x in enumerate(value):
        if not isinstance(x, str):
            raise SchemaError(f"{path}[{k}]", f"expected a name, got {x!r}")
    return [sys.intern(str(x)) for x in value]  # str(): intern takes no subclass


def _object_field(doc: dict, key, path=None) -> dict:
    """doc[key] when it is a JSON object, {} when absent; anything else is
    rejected with its path."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise SchemaError(path or key, f"expected a JSON object, got {value!r}")
    return value


def _known_sources(field: dict, states, name) -> None:
    """Every key of a per-state field is a state: an entry for any other
    name would be dropped without a word."""
    known = set(states)
    for s in field:
        if s not in known:
            raise SchemaError(f"{name}[{s}]", f"unknown state {s!r}")


def _parse_prob_ts(doc, eps=None, c=None) -> ProbTS:
    c_val = Fraction(c) if c is not None else parse_weight(doc.get("c", "1/2"), eps, "c")
    states = _atom_list(doc.get("states"), "states")
    transitions_doc = _object_field(doc, "transitions")
    terminate_doc = _object_field(doc, "terminate")
    _known_sources(transitions_doc, states, "transitions")
    _known_sources(terminate_doc, states, "terminate")
    transitions = {
        s: {
            tgt: parse_weight(w, eps, f"transitions[{s}][{tgt}]")
            for tgt, w in _object_field(
                transitions_doc, s, f"transitions[{s}]"
            ).items()
        }
        for s in states
    }
    terminate = {
        s: parse_weight(terminate_doc.get(s, 0), eps, f"terminate[{s}]") for s in states
    }
    return ProbTS(states, transitions, terminate, c_val)


def _parse_metric_ts(doc) -> MetricTS:
    states = _atom_list(doc.get("states"), "states")
    props = [
        (name, table_from_json(sdoc, TOP_INF, f"propositions.{name}"))
        for name, sdoc in _object_field(doc, "propositions").items()
    ]
    valuation_doc = _object_field(doc, "valuation")
    _known_sources(valuation_doc, states, "valuation")
    valuation = {
        s: dict(_object_field(valuation_doc, s, f"valuation[{s}]"))
        for s in states
    }
    tau_doc = _object_field(doc, "tau")
    _known_sources(tau_doc, states, "tau")
    tau = {s: frozenset(_atom_list(tau_doc.get(s, []), f"tau[{s}]")) for s in states}
    return MetricTS(states, props, valuation, tau)


def serialize(sys: System) -> dict:
    """Generic-system document; load_system(serialize(s)) == s."""
    consts = [e for e in sys.expr.subexprs() if isinstance(e, Const)]
    spaces = {const.name: table_to_json(const.space) for const in consts}
    return {
        "kind": "system",
        "top": "inf" if sys.top.is_infinite else format_magnitude(sys.top.limit),
        "spaces": spaces,
        "expr": expr_to_json(sys.expr),
        "states": list(sys.states),
        "alpha": {s: struct_to_json(sys.alpha[s]) for s in sys.states},
    }


@dataclass
class LiftInstance:
    """One-shot lifting problem: a ground space, an expression, two
    structures."""

    space: PseudometricTable
    expr: FunctorExpr
    t1: object
    t2: object
    top: TopBound


def load_lift_instance(doc) -> LiftInstance:
    if isinstance(doc, (str, bytes)):
        doc = parse_json(doc)
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    bound = _parse_top(doc)
    space = table_from_json(doc.get("space"), bound, "space")
    spaces = {
        name: table_from_json(sdoc, bound, f"spaces.{name}")
        for name, sdoc in _object_field(doc, "spaces").items()
    }
    expr = expr_from_json(doc.get("expr"), spaces, bound)
    _check_bound(expr, bound)
    t1 = struct_from_json(doc.get("t1"), "t1")
    t2 = struct_from_json(doc.get("t2"), "t2")
    _validated(expr, space.carrier, t1, "t1")
    _validated(expr, space.carrier, t2, "t2")
    return LiftInstance(space, expr, t1, t2, bound)


def _check_bound(expr, bound) -> None:
    try:
        check_expr_bound(expr, bound)
    except ConfigurationError as exc:
        raise SchemaError("expr", str(exc)) from exc


def _validated(expr, carrier, t, path) -> None:
    """validate() with its failure raised as a SchemaError at the failing
    part, so the message reads as validate() wrote it."""
    try:
        validate(expr, carrier, t, path=path)
    except ShapeError as exc:
        raise SchemaError(exc.path, exc.detail) from exc
