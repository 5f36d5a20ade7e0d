"""Runs one workload's ops in a fresh interpreter.

    python perfbench/worker.py probe <workload>
    python perfbench/worker.py run <workload>   < job.json

Both modes first import the layers the workload calls and make one
fixed warm-up call per op kind (the lazy first-call work a user pays),
then print `ready`.  The time from spawning the process to that line is
one sample of `setup_s`; `probe` exits there.

`run` reads the job (ops, run length, trace flag, probe plan) from
stdin and cycles through the ops in a closed loop, one call at a time,
in whole passes until the run length has passed.  With tracing, half
the run length is untraced and half traced, and a probe phase then
times each layer's public functions on the sizes the plan gives.  The
last stdout line is one JSON object with every op's latency and output,
the CLI probes' outputs, the spans, and the peak resident memory.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import is_dataclass
from fractions import Fraction
from pathlib import Path

import workloads
from spans import Tracer, parse_importtime

ROOT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT_S = 60


def src_env() -> dict:
    """The environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_cli(argv: list) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "poisson_moments.cli", "--format", "json", *argv],
        capture_output=True, text=True, env=src_env(), cwd=ROOT,
        timeout=CLI_TIMEOUT_S)


class Layers:
    """The package modules a workload calls, imported once at set-up."""

    def __init__(self, workload: str) -> None:
        from poisson_moments import closed_forms, matching_lab, oracles
        self.closed_forms, self.oracles, self.matching_lab = closed_forms, oracles, matching_lab
        self._warm_up(workload)

    def _warm_up(self, workload: str) -> None:
        cf = self.closed_forms
        if workload == "exact_large":
            cf.moment(cf.MomentQuery(50, 1, 15))
            cf.sum_moments(64, 3)
        elif workload == "monte_carlo":
            self.oracles.mc_moment(2, 1, 2.0, 1.0, 1024, 0)
            self.matching_lab.mc_sorted_cost(8, 1.0, 200, 0)

    def prepare(self, op: dict):
        """A zero-argument callable making the op's one public call."""
        kind, cf = op["kind"], self.closed_forms
        if kind == "moment":
            q = (op["k"], op["r"], op["a"], Fraction(op["lam"]))
            return lambda: cf.moment(cf.MomentQuery(*q)).value
        if kind == "sum":
            return lambda: cf.sum_moments(op["n"], op["a"]).value
        if kind == "mc_moment":
            return lambda: self.oracles.mc_moment(
                op["k"], op["r"], float(op["b"]), op["lam"], op["samples"], op["seed"])
        if kind == "mc_sorted_cost":
            return lambda: self.matching_lab.mc_sorted_cost(
                op["n"], float(op["b"]), op["trials"], op["seed"])
        raise ValueError(f"unknown op kind: {kind}")


def encode(value):
    """The op's output in JSON form: exact values as num/den strings."""
    if isinstance(value, Fraction):
        return [str(value.numerator), str(value.denominator)]
    if isinstance(value, subprocess.CompletedProcess):
        return {"rc": value.returncode, "stdout": value.stdout,
                "stderr": value.stderr[-2000:]}
    if is_dataclass(value):  # an MCEstimate
        return [value.mean, value.stderr]
    return value


SPAN_NAMES = {"moment": "closed_forms.moment", "sum": "closed_forms.sum_moments",
              "mc_moment": "oracles.mc_moment",
              "mc_sorted_cost": "matching_lab.mc_sorted_cost"}


def span_name(op: dict) -> str:
    return f"cli.{op['argv'][0]}" if op["kind"] == "cli" else SPAN_NAMES[op["kind"]]


def op_work(op: dict, output) -> dict:
    """Counts taken at the op's boundary, for its span."""
    if op["kind"] == "mc_moment":
        return {"uniforms": workloads.mc_uniforms(op)}
    if op["kind"] == "mc_sorted_cost":
        return {"points": workloads.sorted_points(op)}
    if op["kind"] == "cli":
        try:
            return {"timing_ms": json.loads(output["stdout"])["timing_ms"]}
        except (ValueError, KeyError, TypeError):
            return {}
    return {}


def closed_loop(ops: list, calls: list, seconds: float,
                tracer: Tracer | None) -> dict:
    """Run ops in order, cycling, until `seconds` have passed; stop only
    at the end of a pass, so every op has the same weight.  Only the
    call itself is timed."""
    records = []
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    i = 0
    while True:
        idx = i % len(ops)
        t0 = time.perf_counter_ns()
        try:
            value, error = calls[idx](), None
        except Exception as exc:  # a failed op is counted, not fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        output = None if error else encode(value)
        if tracer is not None:
            tracer.add(span_name(ops[idx]), t0, t1, op=i,
                       work=op_work(ops[idx], output))
        records.append([idx, t1 - t0, output, error])
        i += 1
        if t1 >= deadline and i % len(ops) == 0:
            return {"traced": tracer is not None, "records": records,
                    "elapsed_ns": t1 - start}


def _bits(q: Fraction) -> int:
    return q.numerator.bit_length() + q.denominator.bit_length()


def probe_layers(layers: Layers, plan: dict, tracer: Tracer) -> list:
    """Per-layer calls made only in the traced run.  Returns the CLI
    probes as loop records, for the parent to check."""
    import numpy as np
    from poisson_moments import exact_arith, identities
    from poisson_moments.prng import uniform_block
    cf, orc, ml = layers.closed_forms, layers.oracles, layers.matching_lab

    for j, op in enumerate(plan["decompose"]):
        k, r, a, lam = op["k"], op["r"], op["a"], Fraction(op["lam"])
        with tracer.span("closed_forms.decompose", op=j) as work:
            if a % 2:
                with tracer.span("closed_forms.odd_moment_theorem4", op=j):
                    value = cf.odd_moment_theorem4(k, r, a, lam).value
            else:
                with tracer.span("closed_forms.even_moment_general", op=j):
                    value = cf.even_moment_general(k + r, k, a, lam).value
            if r == 0:
                with tracer.span("closed_forms.diagonal_moment", op=j):
                    cf.diagonal_moment(k, a, lam)
            work["bits"] = _bits(value)
        # Argument sizes of the parity forms' inner loops.
        with tracer.span("exact_arith.pochhammer", op=j, calls=3):
            exact_arith.pochhammer(k + r, a)
            exact_arith.pochhammer(k, a)
            exact_arith.pochhammer(2 * k, r + a - 1)
        with tracer.span("exact_arith.binomial", op=j, calls=a + 1):
            for i in range(a + 1):
                exact_arith.binomial(a, i)

    for j, op in enumerate(plan["moment"]):
        with tracer.span("closed_forms.moment", op=j):
            cf.moment(cf.MomentQuery(op["k"], op["r"], op["a"], Fraction(op["lam"])))
    for j, op in enumerate(plan["sum"]):
        with tracer.span("closed_forms.sum_moments", op=j) as work:
            work["bits"] = _bits(cf.sum_moments(op["n"], op["a"], Fraction(op["lam"])).value)
    for j, op in enumerate(plan["first_principles"]):
        with tracer.span("oracles.first_principles", op=j):
            orc.exact_moment_first_principles(op["k"] + op["r"], op["k"], op["a"],
                                              Fraction(op["lam"]))
    for j, op in enumerate(plan["mc"]):
        with tracer.span("oracles.mc_moment", op=j, uniforms=workloads.mc_uniforms(op)):
            orc.mc_moment(op["k"], op["r"], float(op["b"]), op["lam"], op["samples"], op["seed"])
    for j, op in enumerate(plan["sorted"]):
        with tracer.span("matching_lab.mc_sorted_cost", op=j,
                         points=workloads.sorted_points(op)):
            ml.mc_sorted_cost(op["n"], float(op["b"]), op["trials"], op["seed"])

    # The PRNG on the block shapes the MC ops draw: one chunk of pairs,
    # k + r columns for X and k for Y.
    for j, op in enumerate(plan["prng"]):
        rows = min(op["samples"], workloads.MC_CHUNK)
        pairs = np.arange(rows, dtype=np.uint64)
        for cols, streams in ((op["k"] + op["r"], 2 * pairs), (op["k"], 2 * pairs + 1)):
            with tracer.span("prng.uniform_block", op=j, uniforms=rows * cols):
                uniform_block(op["seed"], streams, cols)

    for name in identities.SUITES:
        with tracer.span(f"identities.{name}") as work:
            work["cases"] = len(identities.run_suite(name).parameter_set)

    cli_records = []
    for j, op in enumerate(plan["cli"]):
        t0 = time.perf_counter_ns()
        try:
            output, error = encode(run_cli(op["argv"])), None
        except subprocess.TimeoutExpired as exc:
            output, error = None, f"TimeoutExpired: {exc}"
        t1 = time.perf_counter_ns()
        tracer.add(span_name(op), t0, t1, op=j, work=op_work(op, output))
        cli_records.append([j, t1 - t0, output, error])

    for j in range(3):
        with tracer.span("cli.importtime", op=j) as work:
            done = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import poisson_moments.cli"],
                capture_output=True, text=True, env=src_env(), cwd=ROOT,
                timeout=CLI_TIMEOUT_S)
        work.update(parse_importtime(done.stderr))
    return cli_records


def main(argv: list) -> int:
    mode, workload = argv
    layers = Layers(workload)
    print("ready", flush=True)
    if mode == "probe":
        return 0
    job = json.load(sys.stdin)
    ops = job["ops"]
    calls = [layers.prepare(op) for op in ops]
    loops, spans, cli_records = [], [], []
    if job["trace"]:
        loops.append(closed_loop(ops, calls, job["seconds"] / 2, None))
        tracer = Tracer("loop")
        loops.append(closed_loop(ops, calls, job["seconds"] / 2, tracer))
        probes = Tracer("probe")
        cli_records = probe_layers(layers, job["plan"], probes)
        tracer.extend(probes.spans)
        spans = tracer.spans
    else:
        loops.append(closed_loop(ops, calls, job["seconds"], None))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB
    print(json.dumps({"loops": loops, "cli_probes": cli_records, "spans": spans,
                      "peak_rss_mb": peak_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
