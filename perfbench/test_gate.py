"""The count gate must fail a run whose results disagree with the reference.

Run with ``python -m pytest perfbench/test_gate.py``.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_gate_counts_a_wrong_count_as_failed():
    g = gate.CountGate()
    assert g.check("right", 805, 805)
    assert not g.check("wrong", 806, 805)
    assert (g.attempted, g.failed, g.ok) == (2, 1, False)
    assert "expected 806, got 805" in g.problems[0]


def test_wrong_expected_count_fails_the_run(monkeypatch, capsys):
    # tiny graphs keep the end-to-end run to a few seconds
    monkeypatch.setattr(
        workloads.CountHeavy, "graph_specs",
        {"wv": ("WV", 0.02), "as": ("AS", 0.02)},
    )
    true_counts = gate.reference_counts

    def off_by_one(jobs):
        return {k: v + 1 for k, v in true_counts(jobs).items()}

    monkeypatch.setattr(gate, "reference_counts", off_by_one)
    code = run.main(
        ["--workload", "count-heavy", "--seed", "3", "--seconds", "0.5"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]


def test_right_counts_pass_the_same_run(monkeypatch, capsys):
    monkeypatch.setattr(
        workloads.CountHeavy, "graph_specs",
        {"wv": ("WV", 0.02), "as": ("AS", 0.02)},
    )
    code = run.main(
        ["--workload", "count-heavy", "--seed", "3", "--seconds", "0.5"]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0
