"""Smoke test of the benchmark itself: the tiny corpus on every workload,
traced and untraced, plus the span arithmetic on a synthetic tree.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def quiet(*_):
    pass


def test_self_time_on_synthetic_tree():
    # fixpoint [0,10] holds lifting [1,4] and lp [5,9]; lp nests another lp [6,8]
    spans = [
        ("fixpoint.solve", -1, 0.0, 10.0, 0, True),
        ("lifting.dist", 0, 1.0, 4.0, 0, True),
        ("lp.transport", 0, 5.0, 9.0, 7, True),
        ("lp.transport", 2, 6.0, 8.0, 3, False),
    ]
    by_name, self_s = tracing.summarize(spans)
    assert self_s == {"fixpoint": 3.0, "lifting": 3.0, "lp": 4.0}
    assert sum(self_s.values()) == 10.0
    # calls, seconds of the outermost span only, summed and max size
    assert by_name["lp.transport"] == [2, 4.0, 10, 7]


def test_tracer_nests_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap("lp.inner", lambda x: x, size=lambda x: x)

    def body():
        return inner(2) + inner(3)

    assert tracer.wrap("fixpoint.outer", body)() == 5
    assert [(s[0], s[1], s[4], s[5]) for s in tracer.spans] == [
        ("fixpoint.outer", -1, 0, True),
        ("lp.inner", 0, 2, True),
        ("lp.inner", 0, 3, True),
    ]
    _, self_s = tracing.summarize(tracer.spans)
    root = tracer.spans[0]
    assert sum(self_s.values()) == pytest.approx(root[3] - root[2])


def test_corpus_is_a_function_of_the_seed():
    assert corpus.document_text("prob_ts", 4, 6) == corpus.document_text("prob_ts", 4, 6)
    assert corpus.document_text("metric_ts", 4, 6) != corpus.document_text("metric_ts", 5, 6)
    corpora = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert corpus.pick(corpora, "w", 1) == corpus.pick(corpora, "w", 1)
    assert sorted(corpus.pick(corpora, "w", 2)) in corpora


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_workload(workload, trace):
    result = run.run(workload, seed=5, seconds=0.2, trace=trace, scale="tiny", log=quiet)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_missing_hook_target_is_reported(monkeypatch):
    bm = run.import_program()
    monkeypatch.delattr(bm.fixpoint, "_round_value")  # exact mode never rounds
    lines = []
    result = run.run("metric_exact", 5, 0.1, True, "tiny", log=lines.append)
    assert result["correct"]
    assert "fixpoint.round_s" not in result["metrics"]
    assert "lp.transport_calls" in result["metrics"]
    assert any("behametric.fixpoint._round_value" in line for line in lines)


def test_count_mismatch_fails_loudly(monkeypatch):
    monkeypatch.setattr(run, "child_counts", lambda *args: {"fixpoint.calls": -1})
    with pytest.raises(run.BenchError, match="counts differ"):
        run.run("metric_exact", 5, 0.1, True, "tiny", log=quiet)


def test_no_program_no_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", HERE / "no-such-src")
    argv = ["--workload", "prob_float", "--seed", "1", "--seconds", "1", "--trace", "0"]
    assert run.main(argv) != 0
    assert capsys.readouterr().out == ""
