"""Check values and the per-op correctness gate.

Check values come from the package's independent oracles and are
computed once per run, before and outside any timing:

* exact moments, and the diagonal terms behind a partial sum, from
  `oracles.exact_moment_first_principles`, which shares no code with
  the closed forms;
* Monte Carlo means with an integer exponent against the exact moment
  (`closed_forms.moment`, `matching_lab.expected_sorted_cost_exact`);
* CLI records against the same values computed in-process.

`check` returns None for a passing op and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from poisson_moments import closed_forms, matching_lab, oracles

import workloads

Z_LIMIT = 5.0


def _call(tracer, name: str, fn, *args):
    """fn(*args), inside a span named after the layer call when tracing."""
    if tracer is None:
        return fn(*args)
    with tracer.span(name):
        return fn(*args)


def _first_principles(k: int, r: int, a: int, lam, tracer=None) -> Fraction:
    return _call(tracer, "oracles.first_principles",
                 oracles.exact_moment_first_principles, k + r, k, a, lam)


def expected_value(op: dict, tracer=None):
    """What a correct output of `op` is checked against."""
    kind = op["kind"]
    if kind == "moment":
        return _first_principles(op["k"], op["r"], op["a"], Fraction(op["lam"]), tracer)
    if kind == "sum":
        n, a = op["n"], op["a"]
        prev = (_call(tracer, "closed_forms.sum_moments", closed_forms.sum_moments,
                      n - 1, a).value if n > 1 else Fraction(0))
        return {"prev": prev, "diag": _first_principles(n, 0, a, 1, tracer)}
    if kind == "mc_moment" and workloads.is_integer_b(op["b"]):
        q = closed_forms.MomentQuery(op["k"], op["r"], int(op["b"]), Fraction(op["lam"]))
        return float(_call(tracer, "closed_forms.moment", closed_forms.moment, q).value)
    if kind == "mc_sorted_cost" and workloads.is_integer_b(op["b"]):
        return float(_call(tracer, "matching_lab.expected_sorted_cost_exact",
                           matching_lab.expected_sorted_cost_exact, op["n"], int(op["b"])))
    if kind == "cli":
        return _expected_cli(op, tracer)
    return None


def _expected_cli(op: dict, tracer) -> dict:
    sub, f = op["argv"][0], workloads.cli_flags(op)
    lam = Fraction(f.get("lambda", "1"))
    if sub == "moment":
        return {"value": _first_principles(int(f["k"]), int(f["r"]), int(f["a"]), lam, tracer)}
    if sub == "sum":
        return {"value": sum(_first_principles(k, 0, int(f["a"]), lam, tracer)
                             for k in range(1, int(f["n"]) + 1))}
    if sub == "verify":
        bounds = {key: int(f[key]) for key in ("max_a", "max_k", "max_n")}
        return {"suite": f["suite"],
                "cases": len(workloads.identity_grid(f["suite"], **bounds))}
    if sub == "simulate":
        k, r, b = int(f["k"]), int(f["r"]), float(f["b"])
        est = _call(tracer, "oracles.mc_moment", oracles.mc_moment,
                    k, r, b, float(lam), int(f["samples"]), int(f["seed"]))
        exact = _first_principles(k, r, int(b), lam, tracer) if b.is_integer() else None
        return {"mean": est.mean, "stderr": est.stderr, "exact": exact}
    if sub == "matching":
        n_grid, n = [], int(f["n_min"])
        while n <= int(f["n_max"]):
            n_grid.append(n)
            n *= int(f["grid_factor"])
        fit = _call(tracer, "matching_lab.scaling_experiment", matching_lab.scaling_experiment,
                    float(f["b"]), n_grid, int(f["trials"]), int(f["seed"]))
        return {"n_grid": fit.n_grid, "mean_costs": fit.mean_costs, "slope": fit.slope}
    raise ValueError(f"unknown subcommand: {sub}")


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _rat(fields) -> Fraction:
    return Fraction(int(fields[0]), int(fields[1]))


def _z_reason(mean: float, stderr: float, exact) -> str | None:
    if not (math.isfinite(mean) and math.isfinite(stderr) and stderr > 0):
        return f"non-finite estimate: mean={mean!r} stderr={stderr!r}"
    if exact is not None and abs(mean - exact) > Z_LIMIT * stderr:
        return f"|z| = {abs(mean - exact) / stderr:.2f} > {Z_LIMIT} against {exact!r}"
    return None


def check(op: dict, output, expected) -> str | None:
    """None if `output` is a correct result of `op`, else the reason."""
    kind = op["kind"]
    if kind == "moment":
        got = _rat(output)
        return None if got == expected else f"moment {got} != oracle {expected}"
    if kind == "sum":
        diff = _rat(output) - expected["prev"]
        return None if diff == expected["diag"] else (
            f"sum difference {diff} != oracle diagonal {expected['diag']}")
    if kind in ("mc_moment", "mc_sorted_cost"):
        return _z_reason(output[0], output[1], expected)
    return _check_cli(op["argv"], output, expected)


def _check_cli(argv: list, output: dict, expected: dict) -> str | None:
    if output["rc"] != 0:
        return f"exit code {output['rc']}: {output['stderr'].strip()[-200:]}"
    try:
        record = json.loads(output["stdout"], parse_constant=_reject_constant)
    except ValueError as exc:
        return f"invalid JSON: {exc}"
    res = record["results"]
    sub = argv[0]
    if sub in ("moment", "sum"):
        got = _rat((res[sub]["num"], res[sub]["den"]))
        if got != expected["value"]:
            return f"{sub} {got} != oracle {expected['value']}"
        if "--cross-check" in argv and res["cross_check"]["agree"] is not True:
            return "cross-check disagreed"
        return None
    if sub == "verify":
        rep = res.get(expected["suite"], {})
        if rep.get("all_passed") is not True or rep.get("cases") != expected["cases"]:
            return f"verify {expected['suite']}: {rep} (want {expected['cases']} cases passed)"
        return None
    if sub == "simulate":
        if (res["mean"], res["stderr"]) != (expected["mean"], expected["stderr"]):
            return "simulate differs from the in-process estimate"
        if expected["exact"] is not None and _rat(
                (res["exact"]["num"], res["exact"]["den"])) != expected["exact"]:
            return "simulate exact value differs from the oracle"
        return _z_reason(res["mean"], res["stderr"],
                         None if expected["exact"] is None else float(expected["exact"]))
    if (res["n_grid"], res["mean_costs"], res["slope"]) != (
            expected["n_grid"], expected["mean_costs"], expected["slope"]):
        return "matching differs from the in-process experiment"
    if not all(math.isfinite(c) and c > 0 for c in res["mean_costs"]):
        return "matching produced a non-finite or non-positive cost"
    return None


def canonical(op: dict, output):
    """The deterministic part of an output, for the run digest.

    Floats are written as their exact bits; a CLI record loses its
    wall-clock `timing_ms`, which the package excludes from determinism.
    """
    if op["kind"] == "cli":
        try:
            record = json.loads(output["stdout"])
            record.pop("timing_ms", None)
        except ValueError:
            record = output["stdout"]
        return [output["rc"], record]
    if op["kind"] in ("mc_moment", "mc_sorted_cost"):
        return [float(x).hex() for x in output]
    return output


def digest(ops: list, outputs: list) -> str:
    """sha256 over every op's output, in op order."""
    h = hashlib.sha256()
    for op, out in zip(ops, outputs):
        h.update(json.dumps(canonical(op, out), sort_keys=True).encode())
    return h.hexdigest()
