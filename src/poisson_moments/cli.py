"""Command-line front-end.

Subcommands: moment, sum, verify, simulate, matching.  Results go to
stdout as text, JSON, or CSV; diagnostics go to stderr.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 internal
cross-check mismatch, 141 (128 + SIGPIPE) stdout closed by its reader.

Rationals are always emitted losslessly as numerator/denominator
strings, however many digits they have; decimal renderings are labeled
approximate and are null when the value is outside float range.
Column layouts for CSV are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from collections import namedtuple
from fractions import Fraction

from . import closed_forms, identities, matching_lab, oracles
from .exact_arith import Rat

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CROSS_CHECK = 3
EXIT_BROKEN_PIPE = 141


def _fmt_float(x: float) -> str:
    return format(x, ".17g")


def _rat_fields(q: Rat) -> dict:
    try:
        approx = float(q)
    except OverflowError:
        approx = None
    return {"num": str(q.numerator), "den": str(q.denominator),
            "approx": approx}


def _in_float_range(name: str, value) -> float:
    """float(value) for a quantity that must be positive, or ValueError when
    it overflows, underflows to 0 or is nan."""
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not 0 < x < math.inf:
        raise ValueError(f"{name} is outside float range")
    return x


def _arg(convert, kind: str, ok, rule: str):
    """An argparse type: convert(text), rejected unless ok(value)."""
    def parse(text: str):
        try:
            value = convert(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(f"not {kind}: {text!r}") from exc
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}: {text}")
        return value
    return parse


_positive_int = _arg(int, "an integer", lambda v: v >= 1, ">= 1")
_exponent = _arg(float, "a number", lambda v: 0 < v < math.inf, "finite and > 0")


class _Parser(argparse.ArgumentParser):
    """Usage errors print one stderr line, without the usage block."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# CSV columns per command, as listed in docs/formats.md.
_COLUMNS = {
    "moment": "command,k,r,a,lambda,num,den,approx,cross_check",
    "sum": "command,n,a,lambda,num,den,approx,verified",
    "verify": "command,suite,cases,all_passed,first_failure",
    "simulate": "command,k,r,b,lambda,samples,seed,mean,stderr,"
                "exact_num,exact_den,zscore",
    "matching": "command,b,n,mean_cost,slope,intercept,r_squared,trials,seed",
}


# What one command computed; `main` builds the record from it.  `rows` holds
# each CSV row's cells beyond the record's, and `failure` a failed identity
# suite's stderr line.
_Outcome = namedtuple("_Outcome", "parameters results rows failure",
                      defaults=(({},), None))


def _emit(record: dict, rows, fmt: str) -> None:
    """Write one result record.  A CSV row holds `command`, the parameters,
    the results (a rational as num/den/approx under the command's own key,
    as <key>_num/<key>_den/<key>_approx otherwise) and the row's cells."""
    if fmt == "json":
        print(json.dumps(record, indent=2, allow_nan=False))
    elif fmt == "csv":
        command = record["command"]
        cells = {"command": command, **record["parameters"]}
        for key, value in record["results"].items():
            if isinstance(value, dict) and "num" in value:
                prefix = "" if key == command else f"{key}_"
                cells.update({prefix + part: v for part, v in value.items()})
            else:
                cells[key] = value
        columns = _COLUMNS[command].split(",")
        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        for row in rows:
            row = {**cells, **row}
            writer.writerow([_fmt_float(v) if isinstance(v, float) else v
                             for v in (row.get(c, "") for c in columns)])
    else:
        print(f"command: {record['command']}")
        for key, value in record["parameters"].items():
            print(f"  {key} = {value}")
        for key, value in record["results"].items():
            if isinstance(value, dict) and "num" in value:
                approx = ("" if value["approx"] is None
                          else f" (approx {_fmt_float(value['approx'])})")
                value = f"{value['num']}/{value['den']}{approx}"
            print(f"  {key} = {value}")
        print(f"  timing_ms = {record['timing_ms']:.3f}")


def cmd_moment(args) -> _Outcome:
    q = closed_forms.MomentQuery(k=args.k, r=args.r, a=args.a, lam=args.lam)
    value = closed_forms.moment(q).value
    results = {"moment": _rat_fields(value)}
    if args.cross_check:
        i = args.k + args.r
        methods = {"first_principles":
                   oracles.exact_moment_first_principles(i, args.k, args.a, args.lam)}
        if args.a % 2:  # the value is even_moment_general itself for even a
            methods["lemma2"] = closed_forms.odd_moment_lemma2(
                i, args.k, args.a, args.lam).value
            methods["lemma3"] = closed_forms.odd_moment_lemma3(
                i, args.k, args.a, args.lam).value
        # moment() has already compared an r = 0 value with diagonal_moment.
        mismatches = {name: str(v) for name, v in methods.items() if v != value}
        if mismatches:
            raise closed_forms.CrossCheckError(mismatches)
        results["cross_check"] = {"methods": sorted(methods), "agree": True}
    return _Outcome({"k": args.k, "r": args.r, "a": args.a,
                     "lambda": str(args.lam)}, results,
                    rows=({"cross_check": args.cross_check},))


def cmd_sum(args) -> _Outcome:
    value = closed_forms.sum_moments(args.n, args.a, args.lam).value
    results = {"sum": _rat_fields(value)}
    if args.verify:
        by_terms = (math.factorial(args.a) * identities.telescoping_lhs(args.n, args.a)
                    / args.lam ** args.a)
        if by_terms != value:
            raise closed_forms.CrossCheckError(
                f"term-by-term sum {by_terms} != {value}")
        results["verified"] = True
    return _Outcome({"n": args.n, "a": args.a, "lambda": str(args.lam)},
                    results)


def cmd_verify(args) -> _Outcome:
    suites = list(identities.SUITES) if args.suite == "all" else [args.suite]
    reports = [identities.run_suite(name, max_a=args.max_a, max_k=args.max_k,
                                    max_n=args.max_n)
               for name in suites]
    results = {r.name: {"cases": len(r.parameter_set),
                        "all_passed": r.all_passed,
                        "first_failure": (None if r.first_failure is None
                                          else [str(p) for p in r.first_failure])}
               for r in reports}
    rows = tuple({"suite": name, **res,
                  "first_failure": "/".join(res["first_failure"] or [])}
                 for name, res in results.items())
    failure = next((f"identity suite {row['suite']} FAILED at "
                    f"{row['first_failure']}"
                    for row in rows if not row["all_passed"]), None)
    return _Outcome({"suite": args.suite}, results, rows, failure)


def cmd_simulate(args) -> _Outcome:
    est = oracles.mc_moment(args.k, args.r, args.b,
                            _in_float_range("lambda", args.lam),
                            args.samples, args.seed)
    _in_float_range("Monte Carlo mean", est.mean)
    _in_float_range("Monte Carlo stderr", est.stderr)
    results = {"mean": est.mean, "stderr": est.stderr}
    if args.b.is_integer():
        exact = closed_forms.moment(closed_forms.MomentQuery(
            k=args.k, r=args.r, a=int(args.b), lam=args.lam)).value
        results["exact"] = _rat_fields(exact)
        results["zscore"] = est.zscore(_in_float_range("exact moment", exact))
    return _Outcome({"k": args.k, "r": args.r, "b": args.b,
                     "lambda": str(args.lam), "samples": args.samples,
                     "seed": args.seed}, results)


def cmd_matching(args) -> _Outcome:
    if args.n_max < args.n_min * args.grid_factor:
        raise ValueError("--n-max must be >= --n-min * --grid-factor "
                         "so that the fit has at least 2 grid points")
    n_grid = []
    n = args.n_min
    while n <= args.n_max:
        n_grid.append(n)
        n *= args.grid_factor
    fit = matching_lab.scaling_experiment(args.b, n_grid, args.trials, args.seed)
    results = {"n_grid": fit.n_grid, "mean_costs": fit.mean_costs,
               "slope": fit.slope, "intercept": fit.intercept,
               "r_squared": fit.r_squared}
    return _Outcome({"b": args.b, "n_min": args.n_min, "n_max": args.n_max,
                     "grid_factor": args.grid_factor, "trials": args.trials,
                     "seed": args.seed}, results,
                    rows=tuple({"n": n, "mean_cost": c}
                               for n, c in zip(fit.n_grid, fit.mean_costs)))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="poisson-moments",
        description="Exact Poisson event-distance moments, identity "
                    "verification, Monte Carlo cross-checks, and matching "
                    "scaling experiments.")
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default="text")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    lam = argparse.ArgumentParser(add_help=False)
    lam.add_argument("--lambda", dest="lam", default=Fraction(1),
                     type=_arg(Fraction, "a rational", lambda v: v > 0, "positive"))
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    pair = argparse.ArgumentParser(add_help=False)  # X_{k+r} and Y_k
    pair.add_argument("--k", type=int, required=True)
    pair.add_argument("--r", type=int, default=0)

    p = sub.add_parser("moment", parents=[lam, pair],
                       help="exact moment E|X_{k+r} - Y_k|^a")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--cross-check", action="store_true")
    p.set_defaults(func=cmd_moment)

    p = sub.add_parser("sum", parents=[lam],
                       help="exact partial sum of diagonal moments")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("verify", help="run identity suites")
    p.add_argument("--suite", choices=("all",) + identities.SUITES,
                   default="all")
    for bound in ("--max-a", "--max-k", "--max-n"):
        p.add_argument(bound, type=_positive_int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", parents=[lam, seed, pair],
                       help="Monte Carlo moment estimate")
    p.add_argument("--b", type=_exponent, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("matching", parents=[seed],
                       help="matching-cost scaling experiment")
    p.add_argument("--b", type=_exponent, required=True)
    p.add_argument("--n-min", type=_positive_int, default=8)
    p.add_argument("--n-max", type=_positive_int, default=4096)
    p.add_argument("--grid-factor", default=2,
                   type=_arg(int, "an integer", lambda v: v >= 2, ">= 2"))
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=cmd_matching)
    return parser


def main(argv=None) -> int:
    # Exact results may run to any number of digits; num/den carry them all.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        t0 = time.perf_counter()
        outcome = args.func(args)
        record = {"command": args.subcommand,
                  "parameters": outcome.parameters,
                  "results": outcome.results,
                  "timing_ms": (time.perf_counter() - t0) * 1000.0}
        _emit(record, outcome.rows, args.format)
    except closed_forms.CrossCheckError as exc:
        print(f"cross-check mismatch: {exc}", file=sys.stderr)
        return EXIT_CROSS_CHECK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if outcome.failure:
        print(outcome.failure, file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone; point stdout at devnull so that the
        # interpreter's flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)


if __name__ == "__main__":
    run()
