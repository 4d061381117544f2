"""Tests of the benchmark itself.

Run from the repository root:  python -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Every operation kind at n = 3, N <= 1."""
    for name, value in (("CERTIFY_N", (3,)), ("PRESENTATION_N", 3), ("BASIS_CHANGE_N", 3),
                        ("TABLE", (3, 1)), ("ORDERS", ((3, 0), (3, 1)))):
        monkeypatch.setattr(workloads, name, value)


def run_main(argv) -> list:
    """Run the benchmark in this process; return its stdout lines."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_every_metric_emitted_with_its_unit(tiny, workload, trace):
    lines = run_main(["--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace)])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    cyclo = [result["metrics"].get(f"intmath.cyclo_{op}.calls", {}).get("value")
             for op in ("mul", "add", "conj")]
    if trace and workload != "certify":
        assert cyclo == [0, 0, 0]
    elif trace:
        assert all(c > 0 for c in cyclo)


def test_planted_wrong_answer_counts_in_failed_ratio(tiny, monkeypatch):
    build = workloads.build

    def planted(workload, seed, qkring):
        ops = build(workload, seed, qkring)
        first = ops[0]
        wrong = dict(first.expect, order="2^999") if "order" in first.expect else {
            "orders": dict(first.expect["orders"], **{"3,0": "2^999"})}
        return [workloads.Op(first.name, first.call, wrong)] + ops[1:]

    monkeypatch.setattr(workloads, "build", planted)
    lines = run_main(["--workload", "truncation", "--seed", "0", "--seconds", "0.1"])
    result = json.loads(lines[-1])
    passes = result["attempted"] // 3
    assert result["failed"] == passes and result["correct"] is False
    ratio = [line for line in lines if line.startswith("failed_ratio ")]
    assert ratio == [f"failed_ratio {run.fmt(passes / result['attempted'])} ratio "
                     f"({passes} of {result['attempted']} operations)"]


def test_verdict_rejects_timeout_exit_code_and_bad_output():
    op = workloads.Op("order --n 3 --N 0", {"cli": ["order"]},
                      {"n": 3, "N": 0, "order": "2^3"})
    good = '{"n": 3, "N": 0, "order": "2^3", "expected": "2^3", "match": true}'
    assert workloads.verdict(op, 0, good) is None
    assert workloads.verdict(op, None, good) == "timed out"
    assert workloads.verdict(op, 1, good) == "exit code 1"
    assert workloads.verdict(op, 0, "").startswith("answer")
    assert workloads.verdict(op, 0, "not json").startswith("unreadable")


def test_check_counts_known_at_n6_and_cover_every_suite():
    from qkring.cli import SUITES

    assert workloads.verify_check_count(6, "all", SUITES) == 1150
    with pytest.raises(ValueError):
        workloads.verify_check_count(6, "all", SUITES + ("new-suite",))


def test_check_counts_match_cli_per_suite_at_n4():
    from qkring.cli import SUITES

    for suite in SUITES:
        out = subprocess.run([sys.executable, "-m", "qkring", "verify", "--n", "4",
                              "--suite", suite, "--format", "json"],
                             cwd=ROOT, capture_output=True, text=True,
                             env={"PYTHONPATH": str(ROOT / "src")}, check=True)
        checks = json.loads(out.stdout)["checks"]
        assert len(checks) == workloads.verify_check_count(4, suite, SUITES), suite


def test_presentation_certifiers_found_by_import():
    import qkring

    found = workloads.library_certifiers(qkring)
    assert [(m, f) for m, f, _ in found] == [
        ("kring", "verify_relations_in_R"), ("kring", "verify_relation3_redundant"),
        ("kring", "verify_minimality_witness"), ("kring", "verify_local_confluence"),
        ("kring", "verify_embedding"), ("lens", "verify_restriction_hom"),
        ("lens", "verify_relations_vanish")]
    assert [f for _, f, seeded in found if seeded] == ["verify_restriction_hom"]


def test_trace_max_bits_match_the_returned_smith_form(tmp_path):
    from qkring.truncation import truncated_quotient

    trace_file = tmp_path / "trace.json"
    call = {"cli": ["order", "--n", "4", "--N", "1", "--format", "json"]}
    subprocess.run([sys.executable, str(BENCH_DIR / "shim.py"), str(trace_file), "t",
                    json.dumps(call)], cwd=ROOT, check=True, capture_output=True,
                   env={"PYTHONPATH": str(ROOT / "src")})
    trace = json.loads(trace_file.read_text())
    snf = truncated_quotient(4, 1).snf
    bits = max(abs(x).bit_length() for m in (snf.D, snf.U, snf.V) for row in m for x in row)
    assert trace["snf_max_bits"] == bits > 0
    summed = layers.PassTrace([trace])
    assert summed.value("intmatrix.smith_normal_form.calls") == 1
    assert summed.value("cli.self_s") > 0


def test_declared_metrics_match_the_code():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == [(m.name, m.unit, m.better) for m in layers.METRICS]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_tail_is_the_maximum_below_twenty_samples():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max")
    samples = [float(i) for i in range(1, 21)]
    assert run.tail(samples) == (10.0, "p50")
