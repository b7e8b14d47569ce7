import copy
import json
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from behametric import coalgebra
from behametric.coalgebra import (
    MetricTS,
    ProbTS,
    SchemaError,
    System,
    from_metric_ts,
    from_prob_ts,
    load_lift_instance,
    load_system,
    parse_rational_or_inf,
    parse_weight,
    serialize,
)
from behametric.functors import (
    Distribution,
    PseudometricTable,
    ShapeError,
    Tagged,
    validate,
)
from behametric.values import (
    INF,
    TOP_INF,
    TOP_ONE,
    ConfigurationError,
    Value,
    format_magnitude,
)


FIG1_LEFT = {
    "kind": "prob_ts",
    "c": "9/10",
    "states": ["x", "y", "u", "z"],
    "transitions": {
        "x": {"u": "1/2-eps", "z": "1/2+eps"},
        "y": {"u": "1/2", "z": "1/2"},
        "u": {"u": "1"},
    },
    "terminate": {"z": "1"},
}


class TestParseWeight:
    def test_plain(self):
        assert parse_weight("3/7") == F(3, 7)

    def test_eps_terms(self):
        assert parse_weight("1/2-eps", F(1, 20)) == F(9, 20)
        assert parse_weight("1/2+eps", F(1, 20)) == F(11, 20)

    def test_eps_required(self):
        with pytest.raises(SchemaError):
            parse_weight("1/2-eps")

    def test_malformed(self):
        with pytest.raises(SchemaError):
            parse_weight("1/2-")

    def test_signed_exponents(self):
        assert parse_weight("1e-5") == F(1, 100000)
        assert parse_weight("1/2-5E-1") == 0
        assert parse_weight("2.5e+1-eps", F(1, 2)) == F(49, 2)


# weights and rationals for the int fast path and Fraction's regex parser,
# each with what both parsers make of it on every Python: a Fraction, MALFORMED
# or LIMIT (an integer past Python's default digit limit)
MALFORMED, LIMIT = "malformed", "limit"
LONG = "1" * 4301
PARSE_TABLE = {
    "3/7": F(3, 7), "42": F(42), "007/010": F(7, 10), "-1/3": F(-1, 3), "+1/3": F(1, 3),
    "1_000/3": F(1000, 3), "1 / 3": F(1, 3), " 1/3 ": F(1, 3), "1e-3": F(1, 1000),
    "1/0": MALFORMED, "": MALFORMED, "/3": MALFORMED, "3/": MALFORMED, "1//2": MALFORMED,
    "0x10": MALFORMED, "1.5": F(3, 2), "\u0663/\u0664": F(3, 4), "\u00b2/3": MALFORMED,
    # an underscore only between two digits, in any run of them; any space
    # around the slash
    "1_000.2_5e1_0": F(100025, 100) * 10**10, "-1_0/3_0": F(-1, 3), "1\t/\t3": F(1, 3),
    "1__000": MALFORMED, "_1": MALFORMED, "1_": MALFORMED, "1_/3": MALFORMED,
    "1/_3": MALFORMED, "1_.5": MALFORMED,
    LONG + "/3": LIMIT, "3/" + LONG: LIMIT,
}
PARSE_IDS = {LONG + "/3": "4301-digit-numerator", "3/" + LONG: "4301-digit-denominator"}
PARSE_TEXTS = [pytest.param(t, id=PARSE_IDS[t]) if t in PARSE_IDS else t for t in PARSE_TABLE]


class TestParseFastPath:
    """Digits, or digits/digits, are read on ints; every string gives the
    value or the refusal PARSE_TABLE records for it, whichever Python runs
    the test."""

    @staticmethod
    def check(parse, text, problem):
        want = PARSE_TABLE[text]
        if isinstance(want, F):
            got = parse()
            assert type(got) is F and got == want
            return
        if want == LIMIT:
            message = "an integer past Python's 4,300-digit limit"
        else:
            message = f"{problem} {text!r}"
        with pytest.raises(SchemaError) as err:
            parse()
        assert str(err.value) == f"p: {message}"

    @pytest.mark.parametrize("text", PARSE_TEXTS)
    def test_weight(self, text):
        self.check(lambda: parse_weight(text, path="p"), text, "malformed weight")

    @pytest.mark.parametrize("text", PARSE_TEXTS)
    def test_rational(self, text):
        self.check(lambda: parse_rational_or_inf(text, "p"), text, "not a rational:")

    def test_eps_sum_is_no_rational(self):
        with pytest.raises(SchemaError, match=r"^p: not a rational: '2\.5e\+1-eps'$"):
            parse_rational_or_inf("2.5e+1-eps", "p")


class TestHugeNumbers:
    """Exponents past MAX_EXPONENT and integers past Python's digit limit
    are rejected at once, with a path."""

    HUGE = "1e100000000"

    def test_exponent_in_weight(self):
        doc = dict(FIG1_LEFT, transitions=dict(FIG1_LEFT["transitions"], y={"u": self.HUGE}))
        with pytest.raises(SchemaError) as err:
            load_system(doc, eps=F(1, 20))
        assert err.value.path == "transitions[y][u]"
        assert "exponent" in str(err.value)

    def test_exponent_in_d_entry(self):
        doc = {
            "kind": "system", "top": "inf",
            "spaces": {"k": {"carrier": ["a", "b"], "d": [["a", "b", self.HUGE]]}},
            "expr": {"const": "k"}, "states": ["s"], "alpha": {"s": "a"},
        }
        with pytest.raises(SchemaError) as err:
            load_system(doc)
        assert err.value.path == "spaces.k.d[0]"

    def test_exponent_bound(self):
        from behametric.coalgebra import MAX_EXPONENT

        assert parse_weight(f"1e-{MAX_EXPONENT}") == F(1, 10**MAX_EXPONENT)
        for text in (f"1e{MAX_EXPONENT + 1}", "1e" + "9" * 5000, "1/2-1e99999"):
            with pytest.raises(SchemaError, match="exponent"):
                parse_weight(text)

    def test_rational_past_the_digit_limit(self):
        # dist --exact prints such a magnitude; reading it back names the cause
        text = format_magnitude(F(1, 10**4300))
        with pytest.raises(SchemaError, match="4,300-digit limit") as err:
            parse_rational_or_inf(text, "space.d[0][2]")
        assert err.value.path == "space.d[0][2]"

    def test_long_but_malformed_rational_is_malformed(self):
        with pytest.raises(SchemaError, match="not a rational") as err:
            parse_rational_or_inf("1" * 4301 + "/x", "space.d[0][2]")
        assert "digit limit" not in str(err.value)

    def test_digit_limit_named_as_python_has_it(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            assert parse_rational_or_inf("1/1" + "0" * 4400, "d") == F(1, 10**4400)
            with pytest.raises(SchemaError, match="5,000-digit limit"):
                parse_rational_or_inf("1/1" + "0" * 5000, "d")
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("load", [load_system, load_lift_instance])
    def test_oversized_json_integer(self, load):
        text = '{"kind": "prob_ts", "top": "1", "c": ' + "9" * 5000 + "}"
        with pytest.raises(SchemaError) as err:
            load(text)
        assert err.value.path == "$"


class TestProbTs:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(SchemaError) as err:
            ProbTS(("x",), {"x": {"x": F(9, 10)}}, {}, F(1, 2))
        assert "x" in str(err.value)

    def test_discount_in_open_interval(self):
        with pytest.raises(SchemaError):
            ProbTS(("x",), {}, {"x": F(1)}, F(1))

    @pytest.mark.parametrize(
        "transitions, terminate, path",
        [
            ({"s": {"t": F(3, 2)}, "t": {"t": F(1)}}, {"s": F(-1, 2)}, "terminate[s]"),
            ({"s": {"s": F(-1, 2), "t": F(3, 2)}, "t": {"t": F(1)}}, {}, "transitions[s][s]"),
        ],
    )
    def test_negative_weights_rejected_on_construction(self, transitions, terminate, path):
        # the weights sum to 1, so only the sign check can refuse them
        with pytest.raises(SchemaError) as err:
            ProbTS(("s", "t"), transitions, terminate, F(1, 2))
        assert err.value.path == path

    @pytest.mark.parametrize(
        "transitions, terminate, path, name",
        [
            ({"a": {"b": F(1)}, "zz": {"a": F(1)}}, {"b": F(1), "qq": F(1)}, "transitions", "zz"),
            ({"a": {"b": F(1)}}, {"b": F(1), "qq": F(1)}, "terminate", "qq"),
        ],
    )
    def test_entry_of_unknown_state_rejected(self, transitions, terminate, path, name):
        # the loader's check, made by the library constructor too
        with pytest.raises(SchemaError) as err:
            ProbTS(("a", "b"), transitions, terminate, F(1, 2))
        assert err.value.path == f"{path}[{name}]"
        assert str(err.value) == f"{path}[{name}]: unknown state {name!r}"

    def test_compiles_to_expected_transition_structures(self):
        p = ProbTS(
            states=("x", "y", "u", "z"),
            transitions={
                "x": {"u": F(9, 20), "z": F(11, 20)},
                "y": {"u": F(1, 2), "z": F(1, 2)},
                "u": {"u": F(1)},
            },
            terminate={"z": F(1)},
            c=F(9, 10),
        )
        sys_ = from_prob_ts(p)
        assert sys_.alpha["x"] == Distribution(
            {Tagged("left", "u"): F(9, 20), Tagged("left", "z"): F(11, 20)}
        )
        assert sys_.alpha["u"] == Distribution({Tagged("left", "u"): F(1)})
        assert sys_.alpha["z"] == Distribution({Tagged("right", "✓"): F(1)})
        assert sys_.top == TOP_ONE

    def test_pure_termination_state(self):
        p = ProbTS(("s",), {}, {"s": F(1)}, F(1, 2))
        sys_ = from_prob_ts(p)
        assert sys_.alpha["s"] == Distribution({Tagged("right", "✓"): F(1)})

    def test_weights_other_than_fractions(self):
        # doubles, ints and a string terminate weight, each read at its
        # exact value
        p = ProbTS(("x", "y"), {"x": {"x": 0.5, "y": 0.25}, "y": {"y": 1}},
                   {"x": "1/4"}, F(1, 2))
        assert from_prob_ts(p).alpha["x"] == Distribution(
            {Tagged("left", "x"): F(1, 2), Tagged("left", "y"): F(1, 4),
             Tagged("right", "✓"): F(1, 4)})
        assert from_prob_ts(ProbTS(("x",), {"x": {"x": 1.0}}, {}, F(1, 2))).alpha["x"] == (
            Distribution({Tagged("left", "x"): F(1)}))
        with pytest.raises(SchemaError, match=r"^transitions\[x\]\[y\]: negative weight -0.5$"):
            ProbTS(("x", "y"), {"x": {"x": 1.5, "y": -0.5}}, {"y": "1"}, F(1, 2))
        with pytest.raises(SchemaError, match=r"^terminate\[x\]: negative weight -1/4$"):
            ProbTS(("x",), {"x": {"x": 1.25}}, {"x": "-1/4"}, F(1, 2))


class TestStateSets:
    """Each constructor builds its set of states once."""

    def test_validate_sees_one_carrier_for_every_state(self, monkeypatch):
        seen = []

        def spy(expr, carrier, t, path="t"):
            seen.append(carrier)
            return validate(expr, carrier, t, path=path)

        monkeypatch.setattr(coalgebra, "validate", spy)
        states = tuple(f"s{k}" for k in range(5))
        p = ProbTS(states, {s: {t: F(1, 5) for t in states} for s in states}, {}, F(1, 2))
        from_prob_ts(p)
        assert len(seen) == len(states)
        assert all(c is seen[0] for c in seen)
        assert seen[0] == frozenset(states) and type(seen[0]) is frozenset

    def test_unknown_targets_named_in_state_order(self):
        with pytest.raises(SchemaError) as err:
            ProbTS(("x", "y"), {"x": {"x": F(1)}, "y": {"q": F(1)}}, {}, F(1, 2))
        assert str(err.value) == "transitions[y]: unknown state 'q'"
        table = PseudometricTable(["p"], {}, TOP_INF)
        with pytest.raises(SchemaError) as err:
            MetricTS(("s", "t"), [("r", table)], {"s": {"r": "p"}, "t": {"r": "p"}},
                     {"s": frozenset({"t"}), "t": frozenset({"q"})})
        assert str(err.value) == "tau[t]: unknown state 'q'"


class TestMetricTs:
    def test_valuation_atoms_checked(self):
        table = PseudometricTable(
            ["p", "q"], {("p", "q"): Value(F(1))}, TOP_INF
        )
        with pytest.raises(SchemaError):
            MetricTS(("s",), [("r", table)], {"s": {"r": "nope"}}, {"s": frozenset()})

    @pytest.mark.parametrize("field", ["valuation", "tau"])
    def test_entry_of_unknown_state_rejected(self, field):
        table = PseudometricTable(["p"], {}, TOP_INF)
        fields = {"valuation": {"s": {"r": "p"}}, "tau": {"s": frozenset()}}
        fields[field]["ghost"] = fields[field]["s"]
        with pytest.raises(SchemaError) as err:
            MetricTS(("s",), [("r", table)], fields["valuation"], fields["tau"])
        assert err.value.path == f"{field}[ghost]"
        assert str(err.value) == f"{field}[ghost]: unknown state 'ghost'"

    def test_finite_top_table_rejected(self):
        # JSON propositions are always read under top = inf
        table = PseudometricTable(["p", "q"], {("p", "q"): Value(F(1))}, TOP_ONE)
        with pytest.raises(SchemaError) as err:
            MetricTS(("s",), [("r", table)], {"s": {"r": "p"}}, {"s": frozenset()})
        assert str(err.value) == "propositions[r]: tables must use top = inf"

    def test_compiles_and_validates(self):
        table = PseudometricTable(
            ["p", "q"], {("p", "q"): Value(F(1))}, TOP_INF
        )
        m = MetricTS(
            ("s", "t"),
            [("r", table)],
            {"s": {"r": "p"}, "t": {"r": "q"}},
            {"s": frozenset({"t"}), "t": frozenset()},
        )
        sys_ = from_metric_ts(m)
        assert sys_.top == TOP_INF
        assert sys_.alpha["s"] == ("p", frozenset({"t"}))

    def test_two_propositions_nest(self):
        t1 = PseudometricTable(["p", "q"], {("p", "q"): Value(F(1))}, TOP_INF)
        t2 = PseudometricTable(["m", "n"], {("m", "n"): Value(F(2))}, TOP_INF)
        m = MetricTS(
            ("s",),
            [("r1", t1), ("r2", t2)],
            {"s": {"r1": "p", "r2": "n"}},
            {"s": frozenset()},
        )
        sys_ = from_metric_ts(m)
        assert sys_.alpha["s"] == (("p", "n"), frozenset())


class TestLoadSystem:
    def test_fig1_left_document(self):
        sys_ = load_system(FIG1_LEFT, eps=F(1, 20))
        assert len(sys_.states) == 4
        assert sys_.alpha["x"].prob(Tagged("left", "u")) == F(9, 20)

    def test_loads_share_the_state_names(self):
        # names are interned, so a kept result holds no copy of its state
        # names (one-character strings are shared anyway: these have more)
        text = json.dumps({"kind": "prob_ts", "c": "1/2", "states": ["start", "stop"],
                           "transitions": {"start": {"stop": "1"}}, "terminate": {"stop": "1"}})
        first, second = (load_system(text).states for _ in range(2))
        assert first == ("start", "stop")
        assert all(a is b for a, b in zip(first, second))

    def test_names_of_a_str_subclass_load(self):
        class Name(str):
            pass

        doc = dict(FIG1_LEFT, states=[Name(s) for s in FIG1_LEFT["states"]])
        assert load_system(doc, eps=F(1, 20)).states == ("x", "y", "u", "z")

    def test_c_override(self):
        sys_ = load_system(FIG1_LEFT, eps=F(1, 20), c=F(1, 2))
        # the discount lives in the expression's identity leaf
        assert sys_.expr.sub.left.discount == F(1, 2)

    def test_bad_weight_sum_names_state(self):
        doc = dict(FIG1_LEFT, transitions={"x": {"u": "1/2"}, "y": {"u": "1/2", "z": "1/2"}, "u": {"u": "1"}})
        with pytest.raises(SchemaError) as err:
            load_system(doc, eps=F(1, 20))
        assert "x" in str(err.value)

    @pytest.mark.parametrize(
        "top, raw, message",
        [
            ("2", "3", "value 3 exceeds top 2"),
            ("2", "-1/2", "negative value -1/2"),
            ("2", "inf", "infinite value under a finite bound"),
            ("inf", "-1/2", "negative value -1/2"),
        ],
    )
    def test_table_entry_outside_top_names_its_row(self, top, raw, message):
        doc = {
            "kind": "system", "top": top,
            "spaces": {"k": {"carrier": ["a", "b", "c"], "d": [["a", "b", "1"], ["b", "c", raw]]}},
            "expr": {"const": "k"}, "states": ["s"], "alpha": {"s": "a"},
        }
        with pytest.raises(SchemaError) as err:
            load_system(doc)
        assert err.value.path == "spaces.k.d[1]"
        assert str(err.value) == f"spaces.k.d[1]: {message}"

    @pytest.mark.parametrize(
        "field, value, path",
        [
            ("transitions", ["x", "y"], "transitions"),
            ("transitions", "x", "transitions"),
            ("terminate", ["z"], "terminate"),
            ("transitions", {"x": ["u", "z"]}, "transitions[x]"),
        ],
    )
    def test_prob_ts_non_object_rejected_with_path(self, field, value, path):
        doc = dict(FIG1_LEFT, **{field: value})
        with pytest.raises(SchemaError) as err:
            load_system(doc, eps=F(1, 20))
        assert err.value.path == path
        assert str(err.value).startswith(f"{path}: expected a JSON object")

    def test_non_object_id_body_rejected_with_path(self):
        doc = {"top": "1", "expr": {"dist": {"id": "junk"}}, "states": [], "alpha": {}}
        with pytest.raises(SchemaError) as err:
            load_system(doc)
        assert err.value.path == "expr.dist.id"
        assert str(err.value) == "expr.dist.id: expected {discount?}, got 'junk'"

    @pytest.mark.parametrize(
        "field, value, path",
        [
            ("transitions", {"x": {"u": "1"}, "q": {"u": "1"}}, "transitions[q]"),
            ("terminate", {"z": "1", "q": "1"}, "terminate[q]"),
        ],
    )
    def test_prob_ts_entry_of_unknown_state_rejected(self, field, value, path):
        doc = dict(FIG1_LEFT, **{field: value})
        with pytest.raises(SchemaError) as err:
            load_system(doc, eps=F(1, 20))
        assert err.value.path == path
        assert str(err.value) == f"{path}: unknown state 'q'"

    @pytest.mark.parametrize(
        "field, value, path",
        [
            ("valuation", {"s": {"r": "a"}, "q": {"r": "a"}}, "valuation[q]"),
            ("tau", {"s": ["s"], "q": ["s"]}, "tau[q]"),
        ],
    )
    def test_metric_ts_entry_of_unknown_state_rejected(self, field, value, path):
        doc = {
            "kind": "metric_ts", "states": ["s"],
            "propositions": {"r": {"carrier": ["a"]}},
            "valuation": {"s": {"r": "a"}}, "tau": {"s": ["s"]},
        }
        load_system(doc)
        with pytest.raises(SchemaError) as err:
            load_system(dict(doc, **{field: value}))
        assert err.value.path == path
        assert str(err.value) == f"{path}: unknown state 'q'"

    def test_metric_ts_non_object_rejected_with_path(self):
        doc = {"kind": "metric_ts", "states": ["s"], "tau": ["s"]}
        with pytest.raises(SchemaError) as err:
            load_system(doc)
        assert err.value.path == "tau"

    def test_empty_system(self):
        doc = {
            "kind": "system",
            "top": "1",
            "expr": {"dist": {"id": {"discount": "1"}}},
            "states": [],
            "alpha": {},
        }
        sys_ = load_system(doc)
        assert sys_.states == ()

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            load_system({"kind": "wat"})

    def test_const_triangle_failure_reported_with_path(self):
        doc = {
            "kind": "system",
            "top": "inf",
            "spaces": {
                "k": {
                    "carrier": ["a", "b", "c"],
                    "d": [["a", "b", "1"], ["b", "c", "1"], ["a", "c", "5"]],
                }
            },
            "expr": {"const": "k"},
            "states": ["s"],
            "alpha": {"s": "a"},
        }
        with pytest.raises(SchemaError) as err:
            load_system(doc)
        assert "spaces.k" in str(err.value)

    def test_shape_error_reports_state(self):
        doc = {
            "kind": "system",
            "top": "1",
            "expr": {"dist": {"id": {"discount": "1"}}},
            "states": ["s"],
            "alpha": {"s": {"set": []}},
        }
        with pytest.raises(SchemaError) as err:
            load_system(doc)
        assert "alpha[s]" in str(err.value)


class TestRoundTrip:
    def test_generic_round_trip(self):
        sys_ = load_system(FIG1_LEFT, eps=F(1, 20))
        doc = serialize(sys_)
        again = load_system(json.dumps(doc))
        assert again == sys_

    def test_metric_ts_round_trip(self):
        table = PseudometricTable(
            ["p", "q"], {("p", "q"): Value(INF)}, TOP_INF
        )
        m = MetricTS(
            ("s", "t"),
            [("r", table)],
            {"s": {"r": "p"}, "t": {"r": "q"}},
            {"s": frozenset({"s", "t"}), "t": frozenset()},
        )
        sys_ = from_metric_ts(m)
        assert load_system(serialize(sys_)) == sys_

    def test_diag_square_round_trip(self):
        doc = {
            "kind": "system", "top": "inf",
            "spaces": {"k": {"carrier": ["a", "b"], "d": [["a", "b", "2"]]}},
            "expr": {"diagsquare": {"coproduct": [{"id": {"discount": "1/2"}}, {"const": "k"}]}},
            "states": ["s", "t"],
            "alpha": {"s": {"pair": [{"left": "t"}, {"right": "a"}]},
                      "t": {"pair": [{"right": "b"}, {"left": "s"}]}},
        }
        sys_ = load_system(doc)
        assert serialize(sys_) == doc
        assert load_system(json.dumps(serialize(sys_))) == sys_

    def test_loader_outputs_validate(self):
        sys_ = load_system(FIG1_LEFT, eps=F(1, 20))
        for s in sys_.states:
            validate(sys_.expr, sys_.states, sys_.alpha[s])


class TestLiftInstance:
    def test_counterexample_document(self):
        doc = {
            "top": "inf",
            "space": {"carrier": ["x1", "x2"], "d": [["x1", "x2", "1"]]},
            "expr": {"diagsquare": {"id": {"discount": "1"}}},
            "t1": {"pair": ["x1", "x2"]},
            "t2": {"pair": ["x2", "x1"]},
        }
        inst = load_lift_instance(doc)
        assert inst.t1 == ("x1", "x2")
        assert inst.space.get("x1", "x2") == Value(F(1))

    def test_non_object_document(self):
        with pytest.raises(SchemaError) as err:
            load_lift_instance([])
        assert err.value.path == "$"

    def test_structures_validated(self):
        doc = {
            "top": "1",
            "space": {"carrier": ["a"], "d": []},
            "expr": {"finpow": "id"},
            "t1": {"set": ["a"]},
            "t2": "a",
        }
        with pytest.raises(SchemaError) as err:
            load_lift_instance(doc)
        assert "t2" in str(err.value)


DEMO_DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
FUZZ_DOCS = [json.loads(f.read_text()) for f in sorted(DEMO_DATA.glob("*.json"))]
# the generic form of a demo system, so the fuzz also reaches expressions
# and structures
FUZZ_DOCS.append(serialize(load_system(FUZZ_DOCS[1], eps=F(1, 20))))
DOC_ROOTS = {
    "$", "kind", "top", "c", "states", "transitions", "terminate",
    "propositions", "valuation", "tau", "spaces", "expr", "alpha",
}
LIFT_FUZZ_DOCS = [
    json.loads((DEMO_DATA / "counterexample.json").read_text()),
    {
        "top": "1",
        "space": {
            "carrier": ["a", "b", "c"],
            "d": [["a", "b", "1/2"], ["b", "c", "1/3"], ["a", "c", "2/3"]],
        },
        "spaces": {"k": {"carrier": ["p", "q"], "d": [["p", "q", "1/4"]]}},
        "expr": {"product": {
            "left": {"dist": {"coproduct": [{"id": {"discount": "9/10"}}, {"const": "k"}]}},
            "right": {"finpow": "id"},
            "eval": {"pnorm": {"p": 2, "c1": "1/2", "c2": "1/2"}},
        }},
        "t1": {"pair": [{"dist": [[{"left": "a"}, "1/2"], [{"right": "p"}, "1/2"]]}, {"set": ["a", "b"]}]},
        "t2": {"pair": [{"dist": [[{"left": "c"}, "1"]]}, {"set": ["c"]}]},
    },
]
LIFT_ROOTS = {"$", "top", "space", "spaces", "expr", "t1", "t2"}
DROP = object()
OTHER_TYPES = [None, True, 0, 3, -1, 2.5, 10**30, "", "s", [], [1, 2], [[1]], {}, {"a": 1}]
BAD_RATIONALS = ["1/0", "abc", "1//2", "nan", "-inf", "1e999", " ", "--1", "eps/2", "1/2+", "0x10", "-1/2", "2", "inf"]


def _json_paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


def _mutate(doc, where, replacement):
    paths = list(_json_paths(doc))
    if not paths:
        return
    path = paths[where % len(paths)]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if replacement is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(replacement)


class TestLoaderFuzz:
    """Mutated demo documents: drop a key or element, swap a value for one
    of another JSON type, or put in a malformed rational."""

    @settings(
        derandomize=True,
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        doc_index=st.integers(0, len(FUZZ_DOCS) - 1),
        mutations=st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.sampled_from([DROP] + OTHER_TYPES + BAD_RATIONALS),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_only_path_bearing_loader_errors_escape(self, doc_index, mutations):
        doc = copy.deepcopy(FUZZ_DOCS[doc_index])
        for where, replacement in mutations:
            _mutate(doc, where, replacement)
        try:
            load_system(doc, eps=F(1, 20))
        except (SchemaError, ShapeError, ConfigurationError) as exc:
            head = re.match(r"[^.\[:\s]+", str(exc))
            assert head and head.group(0) in DOC_ROOTS, str(exc)

    @pytest.mark.parametrize(
        "doc, path",
        [
            (dict(FIG1_LEFT, states=["x", ["y"]]), "states[1]"),
            (dict(FIG1_LEFT, c="1//2"), "c"),
            (dict(FIG1_LEFT, terminate={"z": {}}), "terminate[z]"),
            (
                dict(FIG1_LEFT, transitions={"x": {"u": "-1/2", "z": "3/2"}, "y": {"u": "1"}, "u": {"u": "1"}}),
                "transitions[x][u]",
            ),
            ({"kind": "metric_ts", "states": ["s"], "tau": {"s": 2.5}}, "tau[s]"),
            ({"kind": "metric_ts", "states": [], "propositions": {"r": {"carrier": ["a", None]}}}, "propositions.r.carrier[1]"),
            ({"kind": "metric_ts", "states": [], "propositions": {"r": {"carrier": ["a"], "d": 3}}}, "propositions.r.d"),
            ({"kind": "metric_ts", "states": [], "propositions": {"r": {"carrier": ["a"], "d": [["a", [], "1"]]}}}, "propositions.r.d[0]"),
            ({"top": "-1/2"}, "top"),
            ({"top": "1", "expr": {"id": {"discount": "2"}}}, "expr.id.discount"),
            ({"top": "1", "expr": {"const": []}}, "expr.const"),
            ({"top": "1", "expr": {"diagsquare": "id"}, "states": []}, "expr"),
        ],
    )
    def test_found_by_the_fuzz(self, doc, path):
        with pytest.raises(SchemaError) as err:
            load_system(doc, eps=F(1, 20))
        assert err.value.path == path

    @settings(
        derandomize=True,
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        doc_index=st.integers(0, len(LIFT_FUZZ_DOCS) - 1),
        mutations=st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.sampled_from([DROP] + OTHER_TYPES + BAD_RATIONALS),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_only_path_bearing_lift_errors_escape(self, doc_index, mutations):
        doc = copy.deepcopy(LIFT_FUZZ_DOCS[doc_index])
        for where, replacement in mutations:
            _mutate(doc, where, replacement)
        try:
            load_lift_instance(doc)
        except (SchemaError, ShapeError, ConfigurationError) as exc:
            head = re.match(r"[^.\[:\s]+", str(exc))
            assert head and head.group(0) in LIFT_ROOTS, str(exc)

    @pytest.mark.parametrize(
        "doc, path, message",
        [
            (
                dict(LIFT_FUZZ_DOCS[0], top="1"),
                "expr",
                "expr: diagonal square requires top = inf",
            ),
            (
                dict(LIFT_FUZZ_DOCS[1], expr={"product": {
                    "left": "id", "right": "id",
                    "eval": {"pnorm": {"p": 2, "c1": "1", "c2": "1/2"}},
                }}),
                "expr",
                "expr: p-norm weights must sum to <= 1 under a finite top",
            ),
            (
                dict(LIFT_FUZZ_DOCS[0], t1={"pair": ["x1", "z"]}),
                "t1[1]",
                "t1[1]: 'z' is not a carrier atom",
            ),
            (dict(LIFT_FUZZ_DOCS[0], t2="x1"), "t2", "t2: expected a pair, got 'x1'"),
        ],
    )
    def test_lift_instance_errors_name_their_path_once(self, doc, path, message):
        with pytest.raises(SchemaError) as err:
            load_lift_instance(doc)
        assert err.value.path == path
        assert str(err.value) == message

    def test_paths_holding_colon_space_survive_whole(self):
        # a state name and a Distribution repr both put ": " inside the path
        doc = {
            "kind": "system", "top": "1", "expr": {"dist": {"id": {"discount": "1"}}},
            "states": ["x: y"], "alpha": {"x: y": {"dist": [["z", "1"]]}},
        }
        with pytest.raises(SchemaError) as err:
            load_system(doc)
        assert err.value.path == "alpha[x: y].support['z']"
        assert str(err.value) == "alpha[x: y].support['z']: 'z' is not a carrier atom"
        lift = {
            "top": "1", "space": {"carrier": ["a"], "d": []},
            "expr": {"finpow": {"dist": "id"}},
            "t1": {"set": [{"dist": [["a", "1/2"], ["z", "1/2"]]}]}, "t2": {"set": []},
        }
        with pytest.raises(SchemaError) as err:
            load_lift_instance(lift)
        path = "t1.Distribution({'a': 1/2, 'z': 1/2}).support['z']"
        assert err.value.path == path
        assert str(err.value) == f"{path}: 'z' is not a carrier atom"
