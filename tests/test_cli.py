import json
import math
import os
from pathlib import Path

import pytest

from behametric import lifting
from behametric.cli import main

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
FIXTURES = Path(__file__).resolve().parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDist:
    def test_left_example_exact_csv(self, capsys):
        code, out, _ = run(
            capsys, "dist", str(DATA / "fig1_left.json"), "--c", "9/10",
            "--eps", "1/20", "--exact",
        )
        assert code == 0
        row_x = next(l for l in out.splitlines() if l.startswith("x,"))
        assert "9/200" in row_x

    def test_json_output_round_trips(self, capsys, tmp_path):
        out_file = tmp_path / "m.json"
        code, _, _ = run(
            capsys, "dist", str(DATA / "fig1_right.json"), "--exact",
            "--json", "--out", str(out_file),
        )
        assert code == 0
        doc = json.loads(out_file.read_text())
        assert doc["converged"] and doc["mode"] == "exact"
        assert ["x1", "y1", "3/10"] in doc["entries"]

    def test_validation_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "prob_ts", "c": "1/2", "states": ["s"],
                                   "transitions": {"s": {"s": "1/2"}}, "terminate": {}}))
        code, _, err = run(capsys, "dist", str(bad))
        assert code == 1 and "s" in err

    def test_non_object_transitions_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "prob_ts", "c": "1/2", "states": ["x", "y"],
                                   "transitions": ["x", "y"]}))
        code, out, err = run(capsys, "dist", str(bad))
        assert code == 1 and out == ""
        assert "transitions: expected a JSON object" in err
        assert "Traceback" not in err

    def test_huge_eps_exponent_rejected(self, capsys):
        code, out, err = run(
            capsys, "dist", str(DATA / "fig1_left.json"), "--eps", "1e100000000"
        )
        assert code == 1 and out == ""
        assert "--eps: exponent" in err and "Traceback" not in err

    def test_oversized_json_integer_rejected(self, capsys, tmp_path):
        big = tmp_path / "big.json"
        big.write_text('{"kind": "prob_ts", "c": ' + "9" * 5000 + "}")
        for argv in (("dist", str(big)), ("lift", str(big))):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("error: $: ") and "Traceback" not in err

    def test_infinite_tolerance_rejected(self, capsys):
        code, out, err = run(
            capsys, "dist", str(DATA / "fig1_left.json"), "--eps", "1/20", "--float", "inf"
        )
        assert code == 1 and out == ""
        assert err == "error: float-mode tolerance must be finite and positive, got inf\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            (
                {"top": "1", "expr": "id", "states": ["s", "s"], "alpha": {"s": "s"}},
                "states: duplicate state names",
            ),
            (
                {"kind": "prob_ts", "states": ["x"], "transitions": {"x": {"w": "1"}}},
                "transitions[x]: unknown state 'w'",
            ),
            (
                {"kind": "metric_ts", "states": ["s"], "propositions": {}},
                "propositions: at least one proposition required",
            ),
            (
                {"top": "1", "expr": {"product": {"left": "id"}}},
                "expr.product: product takes {left, right, eval?}",
            ),
            (
                {"top": "1", "expr": {"product": {"left": "id", "right": "id", "eval": {
                    "pnorm": {"p": 0, "c1": "1/2", "c2": "1/2"}}}}},
                "expr.product.eval.pnorm: p must be >= 1",
            ),
            (
                {"top": "1", "expr": {"product": {"left": "id", "right": "id", "eval": {
                    "pnorm": {"p": 2, "c1": "3/2", "c2": "1/2"}}}}},
                "expr.product.eval.pnorm: weight 3/2 not in (0, 1]",
            ),
            (
                {"top": "1", "expr": {"finpow": "id"}, "states": ["s"],
                 "alpha": {"s": {"set": "s"}}},
                "alpha.s.set: expected a list, got 's'",
            ),
            (["x", "y"], "$: expected a JSON object"),
            (
                {"top": "1", "expr": {"dist": {"id": "junk"}}, "states": [], "alpha": {}},
                "expr.dist.id: expected {discount?}, got 'junk'",
            ),
            (
                {"kind": "prob_ts", "states": ["x"], "transitions": {"x": {"x": "1"}},
                 "terminate": {"q": "1"}},
                "terminate[q]: unknown state 'q'",
            ),
        ],
        ids=["duplicate-states", "unknown-target", "no-propositions", "product-sides",
             "pnorm-p", "pnorm-weight", "set-body", "non-object", "id-body",
             "unknown-source"],
    )
    def test_malformed_document_names_its_path(self, capsys, tmp_path, doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "dist", str(bad))
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run(capsys, "dist", "no-such-file.json")
        assert code == 1 and "error" in err

    def test_strict_unconverged_exit_code(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "dist", str(DATA / "fig1_left.json"), "--eps", "1/20",
            "--c", "1/2", "--exact", "--max-iter", "1", "--strict",
        )
        assert code == 3

    @pytest.mark.parametrize(
        "mode, residual", [("--exact", "3/10"), ("--float=1e-9", "0.3")], ids=["exact", "float"]
    )
    def test_unconverged_warning_renders_the_residual(self, capsys, mode, residual):
        args = ("dist", str(DATA / "fig1_right.json"), mode)
        _, converged_out, _ = run(capsys, *args)
        code, out, err = run(capsys, *args, "--max-iter", "2")
        assert code == 0 and out == converged_out
        assert err == f"warning: no fixed point within 2 iterations (residual {residual})\n"

    def test_pnorm_power_past_the_float_range(self, capsys, tmp_path):
        # top = inf and d(p, q) = 1e200: the double's square overflows
        doc = json.loads((DATA / "pnorm_top2.json").read_text())
        doc["top"] = "inf"
        doc["spaces"]["obs"]["d"] = [["p", "q", "1e200"]]
        path = tmp_path / "pnorm_huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "dist", str(path), "--float", "1e-9")
        assert code == 0 and err == ""
        rows = dict(line.split(",", 1) for line in out.splitlines())
        assert rows["u"].split(",")[1] == rows["x"].split(",")[3] == "1e+200"

    @pytest.mark.parametrize("doc", ["fig1_right.json", "pnorm_top2.json"])
    def test_discount_refused_without_a_prob_ts(self, capsys, doc):
        # a metric_ts or system document has no discount for --c to override
        code, out, err = run(capsys, "dist", str(DATA / doc), "--exact", "--c", "1/3")
        assert code == 1 and out == ""
        assert err == "error: --c: only a prob_ts document has a discount\n"

    def test_determinism_byte_identical(self, capsys):
        args = ("dist", str(DATA / "fig1_left.json"), "--eps", "1/20")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_threads_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dist", str(DATA / "fig1_left.json"), "--threads", "2"])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


    def test_exact_entry_followed_by_its_double(self, capsys, tmp_path):
        # an exact entry 11/48 is followed by its p-norm double, just below it
        doc = tmp_path / "pnorm.json"
        doc.write_text("""{"kind": "system", "top": "1", "spaces": {"k": {"carrier": ["p", "q", "r"], "d": [["p", "q", "1/8"], ["p", "r", "1/8"], ["q", "r", "1/4"]]}}, "expr": {"dist": {"coproduct": [{"product": {"left": {"id": {"discount": "2/5"}}, "right": {"id": {"discount": "3/10"}}, "eval": {"pnorm": {"p": 2, "c1": "1/2", "c2": "1/2"}}}}, {"const": "k"}]}}, "states": ["s0", "s1", "s2", "s3"], "alpha": {"s0": {"dist": [[{"left": {"pair": ["s2", "s3"]}}, "1/2"], [{"right": "r"}, "1/2"]]}, "s1": {"dist": [[{"left": {"pair": ["s1", "s1"]}}, "2/5"], [{"left": {"pair": ["s3", "s0"]}}, "1/10"], [{"right": "r"}, "1/2"]]}, "s2": {"dist": [[{"right": "q"}, "1"]]}, "s3": {"dist": [[{"left": {"pair": ["s1", "s0"]}}, "1/3"], [{"right": "p"}, "2/3"]]}}}""")
        code, out, err = run(capsys, "dist", str(doc), "--exact")
        assert code == 0 and err == ""
        assert out.splitlines()[3] == "s2,5/8,5/8,0,5/12"

    @pytest.mark.parametrize(
        "mode, csv",
        [
            (["--exact"], "u,0,19/10,2,2\nv,19/10,0,2,2\nx,2,2,0,19/10\ny,2,2,19/10,0\n"),
            (["--float", "1e-9"],
             "u,0.0,1.9,2.0,2.0\nv,1.9,0.0,2.0,2.0\nx,2.0,2.0,0.0,1.9\ny,2.0,2.0,1.9,0.0\n"),
        ],
        ids=["exact", "float"],
    )
    def test_pnorm_powers_may_pass_a_finite_top(self, capsys, mode, csv):
        # top = 2: d(u, v) is the p-norm of (19/10, 19/10), whose squares
        # 361/100 pass top while the root does not
        code, out, err = run(capsys, "dist", str(DATA / "pnorm_top2.json"), *mode)
        assert code == 0 and err == ""
        assert out == "state,u,v,x,y\n" + csv


class TestLift:
    def test_counterexample_both(self, capsys):
        code, out, _ = run(capsys, "lift", str(DATA / "counterexample.json"), "--both")
        assert code == 0
        assert "kantorovich 0" in out
        assert "wasserstein 2" in out
        assert "gap 2" in out

    def test_both_lifts_each_method_once(self, capsys, monkeypatch):
        built = []

        class Counting(lifting.LiftingEngine):
            def __init__(self, *args, **kwargs):
                built.append(args[2])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(lifting, "LiftingEngine", Counting)
        code, out, err = run(capsys, "lift", str(DATA / "counterexample.json"), "--both")
        assert code == 0 and err == ""
        assert out == "kantorovich 0\nwasserstein 2\ngap 2\n"
        assert sorted(built) == ["kantorovich", "wasserstein"]

    def test_single_method(self, capsys):
        code, out, _ = run(
            capsys, "lift", str(DATA / "counterexample.json"),
            "--method", "kantorovich",
        )
        assert code == 0 and out.strip() == "kantorovich 0"

    def test_pnorm_powers_may_pass_a_finite_top(self, capsys, tmp_path):
        doc = tmp_path / "lift.json"
        doc.write_text(json.dumps({
            "top": "2",
            "space": {"carrier": ["a", "b"], "d": [["a", "b", "19/10"]]},
            "expr": {"product": {"left": "id", "right": "id",
                                 "eval": {"pnorm": {"p": 2, "c1": "1/2", "c2": "1/2"}}}},
            "t1": {"pair": ["a", "a"]},
            "t2": {"pair": ["b", "b"]},
        }))
        code, out, err = run(capsys, "lift", str(doc))
        assert code == 0 and err == "" and out == "wasserstein 19/10\n"

    @pytest.mark.parametrize("flag", [["--exact"], ["--float", "1e-9"]])
    def test_mode_flags_rejected(self, capsys, flag):
        # a lift is exact in every mode, so lift takes no mode flag
        with pytest.raises(SystemExit) as exc:
            main(["lift", str(DATA / "counterexample.json"), *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err


class TestCheck:
    def test_suite_passes(self, capsys):
        code, out, _ = run(capsys, "check", "duality", "--seed", "7", "--n", "5")
        assert code == 0 and "pass" in out

    def test_unknown_suite_is_validation_error(self, capsys):
        code, _, err = run(capsys, "check", "bogus")
        assert code == 1

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_no_instances_is_validation_error(self, capsys, n):
        code, out, err = run(capsys, "check", "k-le-w", "--n", n)
        assert code == 1 and out == ""
        assert err == f"error: n must be >= 1, got {n}\n"

    def test_check_determinism(self, capsys):
        _, out1, _ = run(capsys, "check", "k-le-w", "--seed", "3", "--n", "4")
        _, out2, _ = run(capsys, "check", "k-le-w", "--seed", "3", "--n", "4")
        assert out1 == out2


# stderr of the pinned runs that end unconverged at their cap
PINNED_WARNINGS = {
    "fig1_left_exact_cap1.json": "warning: no fixed point within 1 iterations (residual 1)\n",
    "fig1_left_exact_cap2.json": "warning: no fixed point within 2 iterations (residual 99/200)\n",
}


@pytest.mark.parametrize("golden, args", [
    ("fig1_left_float.csv", ("dist", DATA / "fig1_left.json", "--eps", "1/20", "--float", "1e-9")),
    ("fig1_right_float.csv", ("dist", DATA / "fig1_right.json", "--float", "1e-9")),
    ("fig1_left_trace_float.csv",
     ("trace", DATA / "fig1_left.json", "--eps", "1/20", "--float", "1e-9")),
    # an exact step only detects movement, and the residual is measured at
    # the cap: recorded when every step measured its residual
    *((f"fig1_left_exact_cap{cap}.json", ("dist", DATA / "fig1_left.json", "--eps", "1/20",
                                          "--exact", "--json", "--max-iter", str(cap)))
      for cap in (1, 2, 3)),
    # verdicts and counts recorded when each instance was lifted once per method
    *((f"check_all_seed{seed}.txt", ("check", "all", "--seed", str(seed))) for seed in (0, 3)),
    ("pnorm_top2_exact.csv", ("dist", DATA / "pnorm_top2.json", "--exact")),
    ("pnorm_top2_float.csv", ("dist", DATA / "pnorm_top2.json", "--float", "1e-9")),
    ("pnorm_top_past_double_exact.csv", ("dist", FIXTURES / "pnorm_top_past_double.json", "--exact")),
])
def test_float_mode_output_pinned(capsys, golden, args):
    # the float goldens were recorded before the triangle check screened
    # doubles as integers; CI diffs the same runs
    code, out, err = run(capsys, *map(str, args))
    assert (code, err) == (0, PINNED_WARNINGS.get(golden, ""))
    assert out == (FIXTURES / golden).read_text()


class TestTrace:
    def test_strict_unconverged_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "trace", str(DATA / "fig1_left.json"), "--eps", "1/20",
            "--exact", "--max-iter", "1", "--strict",
        )
        assert code == 3 and out.startswith("iteration,state1,state2,distance\n")

    def test_trace_csv(self, capsys):
        code, out, _ = run(
            capsys, "trace", str(DATA / "fig1_left.json"), "--eps", "1/20", "--exact"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "iteration,state1,state2,distance"
        # final iterate contains the fixed-point value
        assert any("9/200" in l for l in lines)


# states s0..s2 at finite distance, s3 infinitely far: its proposition
# value is at distance inf from the others and it has no successors
INF_METRIC_TS = {
    "kind": "metric_ts",
    "states": ["s0", "s1", "s2", "s3"],
    "propositions": {
        "r": {
            "carrier": ["a", "b", "c"],
            "d": [["a", "b", "1/3"], ["a", "c", "inf"], ["b", "c", "inf"]],
        }
    },
    "valuation": {"s0": {"r": "a"}, "s1": {"r": "b"}, "s2": {"r": "a"}, "s3": {"r": "c"}},
    "tau": {"s0": ["s1"], "s1": ["s1"], "s2": ["s2"], "s3": []},
}
INF_PAIRS = [("s0", "s1"), ("s0", "s2"), ("s0", "s3"), ("s1", "s2"), ("s1", "s3"), ("s2", "s3")]


class TestInfinityRendering:
    @pytest.fixture
    def system(self, tmp_path):
        path = tmp_path / "inf_metric_ts.json"
        path.write_text(json.dumps(INF_METRIC_TS))
        return str(path)

    @staticmethod
    def as_json(third, residual, mode):
        doc = {
            "states": ["s0", "s1", "s2", "s3"],
            "entries": [
                [a, b, "inf" if b == "s3" else third] for a, b in INF_PAIRS
            ],
            "iterations": 3,
            "converged": True,
            "residual": residual,
            "method": "wasserstein",
            "mode": mode,
        }
        return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"

    def test_exact_csv(self, capsys, system):
        code, out, _ = run(capsys, "dist", system, "--exact")
        assert code == 0
        assert out == (
            "state,s0,s1,s2,s3\n"
            "s0,0,1/3,1/3,inf\n"
            "s1,1/3,0,1/3,inf\n"
            "s2,1/3,1/3,0,inf\n"
            "s3,inf,inf,inf,0\n"
        )

    def test_exact_json(self, capsys, system):
        code, out, _ = run(capsys, "dist", system, "--exact", "--json")
        assert code == 0
        assert out == self.as_json("1/3", "0", "exact")

    def test_float_json(self, capsys, system):
        code, out, _ = run(capsys, "dist", system, "--float", "1e-9", "--json")
        assert code == 0
        assert out == self.as_json("0.3333333333333333", "0.0", "float")

    def test_exact_trace(self, capsys, system):
        code, out, _ = run(capsys, "trace", system, "--exact")
        assert code == 0
        iterates = [
            ["0", "0", "0", "0", "0", "0"],
            ["1/3", "0", "inf", "1/3", "inf", "inf"],
            ["1/3", "1/3", "inf", "1/3", "inf", "inf"],
            ["1/3", "1/3", "inf", "1/3", "inf", "inf"],
        ]
        expected = "iteration,state1,state2,distance\n" + "".join(
            f"{k},{a},{b},{v}\n"
            for k, row in enumerate(iterates)
            for (a, b), v in zip(INF_PAIRS, row)
        )
        assert out == expected


# float-mode `dist --json` text, with {method} for the method's name; the
# entries are the doubles nearest the transports' exact optima, so a change
# in how a transport rounds its total shows here
FIG1_LEFT_EPS_1_20_FLOAT = """\
{{
  "states": [
    "x",
    "y",
    "u",
    "z"
  ],
  "entries": [
    [
      "x",
      "y",
      "0.045"
    ],
    [
      "x",
      "u",
      "0.495"
    ],
    [
      "x",
      "z",
      "1.0"
    ],
    [
      "y",
      "u",
      "0.45"
    ],
    [
      "y",
      "z",
      "1.0"
    ],
    [
      "u",
      "z",
      "1.0"
    ]
  ],
  "iterations": 3,
  "converged": true,
  "residual": "0.0",
  "method": "{method}",
  "mode": "float"
}}
"""

FIG1_RIGHT_FLOAT = """\
{{
  "states": [
    "x1",
    "x2",
    "x3",
    "y1",
    "y2",
    "y3"
  ],
  "entries": [
    [
      "x1",
      "x2",
      "0.4"
    ],
    [
      "x1",
      "x3",
      "0.7"
    ],
    [
      "x1",
      "y1",
      "0.3"
    ],
    [
      "x1",
      "y2",
      "0.5"
    ],
    [
      "x1",
      "y3",
      "1.0"
    ],
    [
      "x2",
      "x3",
      "0.3"
    ],
    [
      "x2",
      "y1",
      "0.6"
    ],
    [
      "x2",
      "y2",
      "0.1"
    ],
    [
      "x2",
      "y3",
      "0.6"
    ],
    [
      "x3",
      "y1",
      "0.7"
    ],
    [
      "x3",
      "y2",
      "0.2"
    ],
    [
      "x3",
      "y3",
      "0.3"
    ],
    [
      "y1",
      "y2",
      "0.5"
    ],
    [
      "y1",
      "y3",
      "1.0"
    ],
    [
      "y2",
      "y3",
      "0.5"
    ]
  ],
  "iterations": 3,
  "converged": true,
  "residual": "0.0",
  "method": "{method}",
  "mode": "float"
}}
"""


class TestFloatOutputPinned:
    @pytest.mark.parametrize("method", ["wasserstein", "kantorovich"])
    @pytest.mark.parametrize("args, text", [
        (["fig1_left.json", "--eps", "1/20"], FIG1_LEFT_EPS_1_20_FLOAT),
        (["fig1_right.json"], FIG1_RIGHT_FLOAT),
    ], ids=["fig1-left-eps-1/20", "fig1-right"])
    def test_dist_json_text(self, capsys, args, text, method):
        code, out, _ = run(
            capsys, "dist", str(DATA / args[0]), *args[1:], "--float", "1e-9",
            "--json", "--method", method,
        )
        assert code == 0
        assert out == text.format(method=method)


class TestPastTheDoubleRange:
    """Distances past the double range: exact mode prints them, float mode
    refuses them in one line."""

    OVERFLOW_DOCS = {
        # top = 1e400: an empty set against a nonempty one is at top
        "overflow_top_finpow.json": "1" + "0" * 400,
        # top = inf: a constant entry 1e400
        "overflow_const_entry.json": "1" + "0" * 400,
        # top = inf: the diagonal square sums 1e308 twice
        "overflow_diagsquare_sum.json": "2" + "0" * 308,
    }

    @pytest.mark.parametrize("command", ["dist", "trace"])
    @pytest.mark.parametrize("doc", OVERFLOW_DOCS)
    @pytest.mark.parametrize("mode", [["--float", "1e-9"], []], ids=["float", "default"])
    def test_float_mode_exits_with_one_line(self, capsys, command, doc, mode):
        code, out, err = run(capsys, command, str(FIXTURES / doc), *mode)
        assert code == 1 and out == ""
        assert err == ("error: distance of (x,y) exceeds the float range; "
                       "compute it in exact mode (--exact)\n")

    @pytest.mark.parametrize("doc", OVERFLOW_DOCS)
    def test_exact_mode_prints_the_distance(self, capsys, doc):
        distance = self.OVERFLOW_DOCS[doc]
        code, out, err = run(capsys, "dist", str(FIXTURES / doc), "--exact")
        assert code == 0 and err == ""
        assert out == f"state,x,y\nx,0,{distance}\ny,{distance},0\n"

    @pytest.mark.parametrize("method", ["wasserstein", "kantorovich"])
    def test_two_doubles_summed_past_the_range(self, capsys, method):
        # top = inf: the diagonal square sums the double 1e308 twice
        doc = str(FIXTURES / "overflow_double_sum.json")
        code, out, err = run(capsys, "dist", doc, "--float", "1e-9", "--method", method)
        assert code == 1 and out == ""
        assert err == ("error: distance of (u,v) exceeds the float range; "
                       "compute it in exact mode (--exact)\n")
        code, out, err = run(capsys, "dist", doc, "--exact", "--method", method)
        assert code == 0 and err == ""
        two, one = "2" + "0" * 308, "1" + "0" * 308
        assert out == (f"state,u,v,x,y\nu,0,{two},inf,inf\nv,{two},0,inf,inf\n"
                       f"x,inf,inf,0,{one}\ny,inf,inf,{one},0\n")

    @pytest.mark.parametrize("mode", [["--exact"], ["--float", "1e-9"]], ids=["exact", "float"])
    def test_pnorm_of_doubles_whose_squares_sum_past_the_range(self, capsys, mode):
        # top = inf: the squares of 1.3e154 sum to 3.38e308, their root does
        # not; exact mode reads the entry 13e153 as an int, float mode as the
        # double 1.3e154, which is an int too
        doc = str(FIXTURES / "pnorm_squares_past_double.json")
        code, out, err = run(capsys, "dist", doc, *mode)
        assert code == 0 and err == ""
        side = 13 * 10**153 if mode == ["--exact"] else int(1.3e154)
        assert out.splitlines()[1].split(",")[2] == repr(float(math.isqrt(2 * side**2)))

    def test_returned_table_check_of_a_double_beside_1e400(self, capsys):
        # the p-norm root of (1 + 4) / 2 shares a table with 1e400
        doc = str(FIXTURES / "overflow_triangle_screen.json")
        code, out, err = run(capsys, "dist", doc, "--exact")
        assert code == 0 and err == ""
        d, big = repr(math.sqrt(2.5)), "1" + "0" * 400
        assert out == (f"state,a,b,c,e\na,0,{d},inf,inf\nb,{d},0,inf,inf\n"
                       f"c,inf,inf,0,{big}\ne,inf,inf,{big},0\n")

    def test_trace_table_checks_of_a_double_beside_1e400(self, capsys):
        # each trace table is checked: two hold the root beside 1e400
        doc = str(FIXTURES / "overflow_triangle_screen.json")
        code, out, err = run(capsys, "trace", doc, "--exact")
        assert code == 0 and err == ""
        d, big = repr(math.sqrt(2.5)), "1" + "0" * 400
        rows = out.splitlines()
        assert len(rows) == 1 + 3 * 6
        assert rows[-6:] == ([f"2,a,b,{d}"] + [f"2,{p},inf" for p in ["a,c", "a,e", "b,c", "b,e"]]
                             + [f"2,c,e,{big}"])

    @pytest.mark.parametrize("mode, zero", [(["--exact"], "0"), (["--float", "1e-9"], "0.0")])
    def test_pnorm_under_a_top_past_the_double_range(self, capsys, mode, zero):
        # top = 1e400 has no double; the root of (1 + 4) / 2 is one
        code, out, err = run(capsys, "dist", str(FIXTURES / "pnorm_top_past_double.json"), *mode)
        assert code == 0 and err == ""
        d = repr(math.sqrt(2.5))
        assert out == f"state,x,y\nx,{zero},{d}\ny,{d},{zero}\n"
