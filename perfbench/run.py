"""Benchmark for poisson-moments: one workload, one run, one result line.

    python3 perfbench/run.py --workload exact_large --seed 1 --seconds 35 --trace 0

Run from the repository root.  The package is imported from `src/`
beside this directory; without it the benchmark exits with code 2.

A run generates the workload's ops from `--seed` (workloads.py),
computes every check value with the package's oracles (checks.py),
times `setup_s` over several fresh interpreters, then runs the ops in a
closed loop with one client in a fresh worker interpreter (worker.py)
and checks every output.  The last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for `--trace 0` and the per-layer metrics,
derived from spans, for `--trace 1`.  The full record, with provenance,
failures and the output digest, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import workloads
from spans import Tracer
from worker import src_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_ms.p50": "ms",
              "latency_ms.p90": "ms", "peak_rss_mb": "MB", "success_rate": "ratio"}

CLI_SUBS = ("moment", "sum", "verify", "simulate", "matching")
CLOSED_FORMS = ("moment", "odd_moment_theorem4", "even_moment_general",
                "diagonal_moment", "sum_moments")
PER_LAYER = {
    "cli.import_ms": "ms", "cli.import_ms.scipy": "ms", "cli.import_ms.numpy": "ms",
    "cli.startup_ms": "ms",
    **{f"cli.compute_ms.{s}": "ms" for s in CLI_SUBS},
    **{f"closed_forms.{f}.ms": "ms" for f in CLOSED_FORMS},
    "closed_forms.result_bits": "count",
    "exact_arith.pochhammer.us": "us", "exact_arith.binomial.us": "us",
    **{f"identities.{s}.ms": "ms" for s in workloads.SUITES},
    "identities.cases": "count",
    "oracles.first_principles.ms": "ms",
    "oracles.mc_moment.ms": "ms", "oracles.mc_moment.ns_per_uniform": "ns",
    "oracles.mc_moment.uniforms": "count", "oracles.mc_moment.block_mb": "MB",
    "prng.uniform_block.ns_per_uniform": "ns", "prng.share_of_mc": "ratio",
    "matching_lab.mc_sorted_cost.ms": "ms", "matching_lab.points_per_s": "1/s",
    "matching_lab.block_mb": "MB",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a few small ops and one setup sample (smoke tests)")
    return p.parse_args(argv)


def _worker_cmd(mode: str, workload: str) -> list:
    return [sys.executable, str(HERE / "worker.py"), mode, workload]


def setup_samples(workload: str, repeats: int) -> list:
    """Seconds from spawning a fresh interpreter to the worker's `ready`."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(_worker_cmd("probe", workload), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=src_env(),
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {err.strip()[-500:]}")
        samples.append(elapsed)
    return samples


def run_worker(workload: str, job: dict) -> dict:
    with subprocess.Popen(_worker_cmd("run", workload), stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=src_env(), cwd=ROOT) as proc:
        try:
            out, err = proc.communicate(json.dumps(job), timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1])


def evaluate(ops: list, expected: list, loops: list) -> dict:
    """Check every op of every loop; an op fails when it raised, failed
    its check, or gave a different output than its first run did."""
    import checks
    attempted, failures, first = 0, [], {}
    for loop in loops:
        for idx, _ns, output, error in loop["records"]:
            attempted += 1
            reason = error
            if reason is None:
                try:
                    reason = checks.check(ops[idx], output, expected[idx])
                    canon = checks.canonical(ops[idx], output)
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    reason, canon = f"malformed output: {exc!r}", None
                if reason is None and first.setdefault(idx, canon) != canon:
                    reason = "output differs from the op's first run"
            if reason is not None:
                failures.append({"op": idx, "reason": reason[:300]})
    outputs = [None] * len(ops)
    for loop in loops:
        for idx, _ns, output, _err in loop["records"]:
            if outputs[idx] is None:
                outputs[idx] = output
    return {"attempted": attempted, "failed": len(failures), "failures": failures,
            "digest": checks.digest(ops, outputs)}


def end_to_end(loop: dict, setup: list, peak_mb: float, attempted: int, failed: int) -> dict:
    lat = [ns / 1e6 for _idx, ns, _out, _err in loop["records"]]
    q = statistics.quantiles(lat, n=100, method="inclusive")
    return {"setup_s": statistics.median(setup),
            "ops_per_s": len(lat) / (loop["elapsed_ns"] / 1e9),
            "latency_ms.p50": q[49], "latency_ms.p90": q[89],
            "peak_rss_mb": peak_mb,
            "success_rate": (attempted - failed) / attempted}


def _moment_queries(workload: str, ops: list) -> list:
    """The (k, r, a, lam) moments a workload's ops imply."""
    if workload == "monte_carlo":
        return [{"k": op["k"], "r": op["r"], "a": int(op["b"]), "lam": op["lam"]}
                for op in ops if op["kind"] == "mc_moment" and workloads.is_integer_b(op["b"])]
    return [op for op in ops if op["kind"] == "moment"]


def probe_plan(workload: str, seed: int, ops: list) -> dict:
    """Inputs for the traced run's per-layer probes.

    A layer the workload's own ops reach is probed on those ops' sizes.
    A layer they never reach is probed on the small CLI probe inputs for
    the same seed, so every per-layer metric exists on every workload.
    The CLI itself is always probed on those inputs, one cold process
    per subcommand variant.
    """
    ref = workloads.cli_probe_ops(seed)
    ref_flags = [(op["argv"][0], workloads.cli_flags(op)) for op in ref]
    kinds = {op["kind"] for op in ops}
    queries = _moment_queries(workload, ops)

    if workload == "exact_large":
        sums = [dict(op, lam="1") for op in ops if op["kind"] == "sum"]
    else:
        sums = [{"n": op["n"], "a": int(op["b"]), "lam": str(op["n"])} for op in ops
                if op["kind"] == "mc_sorted_cost" and workloads.is_integer_b(op["b"])]

    mc = [op for op in ops if op["kind"] == "mc_moment"]
    mc_fallback = [] if mc else [
        {"kind": "mc_moment", "k": int(f["k"]), "r": int(f["r"]), "b": float(f["b"]),
         "lam": float(Fraction(f["lambda"])), "samples": int(f["samples"]),
         "seed": int(f["seed"])} for sub, f in ref_flags if sub == "simulate"]
    sorted_fallback = [] if "mc_sorted_cost" in kinds else [
        {"kind": "mc_sorted_cost", "n": n, "b": float(f["b"]), "trials": int(f["trials"]),
         "seed": int(f["seed"])}
        for sub, f in ref_flags if sub == "matching"
        for n in (8, 16, 32)]
    return {
        "decompose": queries,
        "moment": [] if "moment" in kinds else queries,
        "sum": sums,
        # exact_large checks already call the oracle, traced.
        "first_principles": queries if workload == "monte_carlo" else [],
        "mc": mc_fallback,
        "prng": mc or mc_fallback,
        "sorted": sorted_fallback,
        "cli": ref,
    }


def _dur(span: dict) -> int:
    return span["end_ns"] - span["start_ns"]


def layer_metrics(ops: list, plan: dict, spans: list, loops: list) -> dict:
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def pick(names):
        """The spans of the first phase that made any: the traced loop,
        then the probes, then the check-value computations."""
        found = [s for n in names for s in by_name[n]]
        for phase in ("loop", "probe", "check"):
            if any(s["phase"] == phase for s in found):
                return [s for s in found if s["phase"] == phase]
        return []

    def mean_ms(name):
        return statistics.fmean(_dur(s) for s in pick([name])) / 1e6

    def per_unit(name, unit):
        ss = pick([name])
        return sum(_dur(s) for s in ss) / sum(s["work"][unit] for s in ss)

    m = {}
    imports = [s["work"] for s in by_name["cli.importtime"]]
    for key, pkg in (("cli.import_ms", "poisson_moments"), ("cli.import_ms.scipy", "scipy"),
                     ("cli.import_ms.numpy", "numpy")):
        m[key] = statistics.median(w.get(pkg, 0) for w in imports) / 1000
    cli_spans = [s for s in pick([f"cli.{sub}" for sub in CLI_SUBS]) if "timing_ms" in s["work"]]
    m["cli.startup_ms"] = statistics.fmean(_dur(s) / 1e6 - s["work"]["timing_ms"]
                                           for s in cli_spans)
    for sub in CLI_SUBS:
        m[f"cli.compute_ms.{sub}"] = statistics.fmean(
            s["work"]["timing_ms"] for s in cli_spans if s["name"] == f"cli.{sub}")
    for f in CLOSED_FORMS:
        m[f"closed_forms.{f}.ms"] = mean_ms(f"closed_forms.{f}")
    m["closed_forms.result_bits"] = sum(
        s["work"]["bits"] for s in spans
        if s["name"] in ("closed_forms.decompose", "closed_forms.sum_moments")
        and s["phase"] == "probe")
    m["exact_arith.pochhammer.us"] = per_unit("exact_arith.pochhammer", "calls") / 1e3
    m["exact_arith.binomial.us"] = per_unit("exact_arith.binomial", "calls") / 1e3
    for suite in workloads.SUITES:
        m[f"identities.{suite}.ms"] = mean_ms(f"identities.{suite}")
    m["identities.cases"] = sum(s["work"]["cases"] for suite in workloads.SUITES
                                for s in by_name[f"identities.{suite}"])
    m["oracles.first_principles.ms"] = mean_ms("oracles.first_principles")

    mc_ops = plan["prng"]
    m["oracles.mc_moment.ms"] = mean_ms("oracles.mc_moment")
    m["oracles.mc_moment.ns_per_uniform"] = per_unit("oracles.mc_moment", "uniforms")
    m["oracles.mc_moment.uniforms"] = sum(workloads.mc_uniforms(op) for op in mc_ops)
    m["oracles.mc_moment.block_mb"] = max(workloads.mc_block_mb(op) for op in mc_ops)
    m["prng.uniform_block.ns_per_uniform"] = per_unit("prng.uniform_block", "uniforms")
    m["prng.share_of_mc"] = (m["prng.uniform_block.ns_per_uniform"]
                             / m["oracles.mc_moment.ns_per_uniform"])
    sorted_ops = [op for op in ops if op["kind"] == "mc_sorted_cost"] or plan["sorted"]
    m["matching_lab.mc_sorted_cost.ms"] = mean_ms("matching_lab.mc_sorted_cost")
    m["matching_lab.points_per_s"] = 1e9 / per_unit("matching_lab.mc_sorted_cost", "points")
    m["matching_lab.block_mb"] = max(workloads.sorted_block_mb(op) for op in sorted_ops)

    untraced, traced = (len(lp["records"]) / lp["elapsed_ns"] for lp in loops)
    m["trace.overhead_frac"] = untraced / traced - 1
    return m


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, if it is a git work tree (never a parent's)."""
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                          cwd=ROOT, env=dict(os.environ, GIT_DIR=str(ROOT / ".git")))
    return done.stdout.strip() or None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "run_seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny,
            "git_commit": git_commit(), "src_sha256": source_digest(),
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "client": "closed loop, 1 client"}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "poisson_moments" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks  # imports the package from SRC

    ops = workloads.generate(args.workload, args.seed, args.tiny)
    check_tracer = Tracer("check") if args.trace else None
    expected = [checks.expected_value(op, check_tracer) for op in ops]
    plan = probe_plan(args.workload, args.seed, ops) if args.trace else None
    try:
        setup = [] if args.trace else setup_samples(args.workload,
                                                    1 if args.tiny else SETUP_REPEATS)
        result = run_worker(args.workload, {"ops": ops, "seconds": args.seconds,
                                            "trace": args.trace, "plan": plan})
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    verdict = evaluate(ops, expected, result["loops"])
    if verdict["attempted"] == 0:
        print("error: the workload ran no ops", file=sys.stderr)
        return 1
    if args.trace:
        # The CLI probes' check values are computed untraced, so their small
        # oracle calls stay out of the workload's per-layer means.
        cli_ops = plan["cli"]
        cli = evaluate(cli_ops, [checks.expected_value(op) for op in cli_ops],
                       [{"records": result["cli_probes"]}])
        verdict["attempted"] += cli["attempted"]
        verdict["failed"] += cli["failed"]
        verdict["failures"] += [dict(f, op=f"cli probe {f['op']}") for f in cli["failures"]]
        check_tracer.extend(result["spans"])
        values = layer_metrics(ops, plan, check_tracer.spans, result["loops"])
        units = PER_LAYER
    else:
        values = end_to_end(result["loops"][0], setup, result["peak_rss_mb"],
                            verdict["attempted"], verdict["failed"])
        units = END_TO_END
    line = {"correct": verdict["failed"] == 0, "attempted": verdict["attempted"],
            "failed": verdict["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        check_tracer.write(OUT / f"{stem}-spans.jsonl")
    record = {"result": line, "provenance": provenance(args),
              "error_rate": verdict["failed"] / verdict["attempted"],
              "latency_samples": sum(len(lp["records"]) for lp in result["loops"]
                                     if not lp["traced"]),
              "ops_per_pass": len(ops), "setup_samples_s": setup,
              "digest": verdict["digest"], "failures": verdict["failures"][:50]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
