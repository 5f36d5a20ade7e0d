"""Tests of the benchmark itself: smoke runs, the correctness gate,
determinism of outputs, and agreement with BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def result_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_passes_and_reports_every_metric(workload, trace):
    line = result_line(bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                             "--trace", trace, "--tiny"))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    units = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    assert all(math.isfinite(v["value"]) for v in line["metrics"].values())


def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", ["exact_large", "monte_carlo"])
def test_same_seed_gives_same_output_digest(workload):
    def digest(seed):
        result_line(bench("--workload", workload, "--seed", str(seed),
                          "--seconds", "0.2", "--tiny"))
        return json.loads((HERE / "out" / f"{workload}-seed{seed}-trace0.json")
                          .read_text())["digest"]
    first = digest(5)
    assert digest(5) == first
    assert digest(6) != first


def test_without_package_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "exact_large", "--seed", "1", "--seconds", "1",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _moment_op(k=3, r=1, a=5):
    return {"kind": "moment", "k": k, "r": r, "a": a, "lam": "1"}


def test_perturbed_exact_value_counts_as_failure():
    op = _moment_op()
    expected = checks.expected_value(op)
    good = [str(expected.numerator), str(expected.denominator)]
    bad = [str(expected.numerator + 1), str(expected.denominator)]
    verdict = run.evaluate([op], [expected],
                           [{"records": [[0, 1000, good, None], [0, 1000, bad, None]]}])
    assert (verdict["attempted"], verdict["failed"]) == (2, 1)
    assert "oracle" in verdict["failures"][0]["reason"]


def test_perturbed_partial_sum_counts_as_failure():
    op = {"kind": "sum", "n": 7, "a": 3}
    expected = checks.expected_value(op)
    total = expected["prev"] + expected["diag"]
    assert checks.check(op, [str(total.numerator), str(total.denominator)], expected) is None
    wrong = total + Fraction(1, total.denominator)
    assert checks.check(op, [str(wrong.numerator), str(wrong.denominator)], expected)


def test_z_score_gate():
    op = {"kind": "mc_moment", "k": 2, "r": 1, "b": 2, "lam": 1.0,
          "samples": 4096, "seed": 0}
    exact = checks.expected_value(op)
    assert checks.check(op, [exact + 4.9 * 0.01, 0.01], exact) is None
    assert checks.check(op, [exact + 5.1 * 0.01, 0.01], exact)
    assert checks.check(op, [math.nan, 0.01], exact)
    non_integer = dict(op, b=1.5)
    assert checks.expected_value(non_integer) is None
    assert checks.check(non_integer, [1.0, 0.01], None) is None
    assert checks.check(non_integer, [1.0, math.inf], None)
    verdict = run.evaluate([op], [exact], [{"records": [[0, 1, [exact + 6 * 0.01, 0.01], None]]}])
    assert verdict["failed"] == 1


def test_cli_gate_rejects_bad_exit_and_non_finite_json():
    op = {"kind": "cli", "argv": ["simulate", "--k", "1", "--r", "0", "--b", "1.5",
                                  "--lambda", "1", "--samples", "4096", "--seed", "1"]}
    expected = checks.expected_value(op)
    record = {"command": "simulate", "results": {"mean": expected["mean"],
                                                 "stderr": expected["stderr"]},
              "timing_ms": 1.0}
    ok = {"rc": 0, "stdout": json.dumps(record), "stderr": ""}
    assert checks.check(op, ok, expected) is None
    assert checks.check(op, dict(ok, rc=1), expected)
    nan = json.dumps(dict(record, results={"mean": math.nan, "stderr": 1.0}))
    assert "non-finite" in checks.check(op, dict(ok, stdout=nan), expected)


def test_raised_op_and_changed_repeat_count_as_failures():
    op = _moment_op()
    expected = checks.expected_value(op)
    good = [str(expected.numerator), str(expected.denominator)]
    verdict = run.evaluate([op], [expected], [{"records": [
        [0, 1, good, None], [0, 1, None, "ValueError: boom"]]}])
    assert verdict["failed"] == 1
    mc = {"kind": "mc_moment", "k": 2, "r": 1, "b": 1.5, "lam": 1.0,
          "samples": 4096, "seed": 0}
    verdict = run.evaluate([mc], [None], [{"records": [
        [0, 1, [1.0, 0.01], None], [0, 1, [1.0 + 1e-12, 0.01], None]]}])
    assert verdict["failures"] == [{"op": 0, "reason": "output differs from the op's first run"}]


def test_failed_cli_probe_counts_as_failure(monkeypatch, capsys):
    real = run.run_worker

    def broken_cli(workload, job):
        result = real(workload, job)
        result["cli_probes"][0][2]["rc"] = 1
        return result

    monkeypatch.setattr(run, "run_worker", broken_cli)
    assert run.main(["--workload", "exact_large", "--seed", "3", "--seconds", "0.2",
                     "--trace", "1", "--tiny"]) == 0
    line = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (line["correct"], line["failed"]) == (False, 1)


def test_zero_ops_is_a_failure(monkeypatch, capsys):
    monkeypatch.setattr(run, "setup_samples", lambda workload, repeats: [1.0])
    monkeypatch.setattr(run, "run_worker", lambda workload, job: {
        "loops": [{"traced": False, "records": [], "elapsed_ns": 1}],
        "spans": [], "peak_rss_mb": 1.0})
    assert run.main(["--workload", "exact_large", "--seed", "1", "--seconds", "1",
                     "--tiny"]) == 1
    assert '"correct"' not in capsys.readouterr().out


@pytest.mark.parametrize("bounds", [{}, {"max_a": 3, "max_k": 2, "max_n": 4}])
def test_identity_grid_matches_run_suite(bounds):
    from poisson_moments import identities
    for suite in workloads.SUITES:
        assert workloads.identity_grid(suite, **bounds) == \
            identities.run_suite(suite, **bounds).parameter_set
    if not bounds:
        assert sum(len(workloads.identity_grid(s)) for s in workloads.SUITES) == 1188


def test_generators_are_seeded():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 1) == workloads.generate(w, 1)
        assert workloads.generate(w, 1) != workloads.generate(w, 2)


def test_parse_importtime_counts_each_package_once():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        400 |   numpy",
        "import time:        30 |         30 |       scipy._lib",
        "import time:        20 |         70 |     scipy",
        "import time:        10 |        500 |   poisson_moments.oracles",
        "import time:         5 |        910 | poisson_moments",
        "import time:         7 |         90 | poisson_moments.cli",
    ])
    assert spans.parse_importtime(stderr) == {
        "poisson_moments": 1000, "numpy": 400, "scipy": 70}
