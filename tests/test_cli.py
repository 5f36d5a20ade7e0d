import io
import json
import math
import os
import subprocess
import sys
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from poisson_moments import cli, closed_forms


def run_cli(*args, env=None):
    return subprocess.run([sys.executable, "-m", "poisson_moments.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def json_out(*args):
    proc = run_cli("--format", "json", *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestMoment:
    def test_basic(self):
        doc = json_out("moment", "--k", "1", "--a", "1")
        assert doc["results"]["moment"] == {"num": "1", "den": "1", "approx": 1.0}

    def test_cross_check(self):
        doc = json_out("moment", "--k", "1", "--r", "1", "--a", "1",
                       "--cross-check")
        assert doc["results"]["moment"]["num"] == "3"
        assert doc["results"]["moment"]["den"] == "2"
        assert doc["results"]["cross_check"]["agree"] is True

    def test_rational_lambda(self):
        doc = json_out("moment", "--k", "3", "--a", "2", "--lambda", "2")
        assert (doc["results"]["moment"]["num"],
                doc["results"]["moment"]["den"]) == ("3", "2")

    def test_usage_error_exit_code(self):
        assert run_cli("moment", "--k", "0", "--a", "1").returncode == 2
        assert run_cli("moment", "--k", "1", "--a", "1",
                       "--lambda", "-1").returncode == 2
        assert run_cli("moment", "--k", "1").returncode == 2

    def test_cross_check_failure_exits_3(self, monkeypatch, capsys):
        wrong = closed_forms.MomentValue(Fraction(-1), Fraction(-1))
        monkeypatch.setattr(closed_forms, "diagonal_moment",
                            lambda k, a, lam=1: wrong)
        assert cli.main(["--format", "json", "moment", "--k", "2",
                         "--a", "3"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("cross-check mismatch:")
        assert len(err.strip().splitlines()) == 1

    def test_value_outside_float_range(self, capsys):
        argv = ("moment", "--k", "1", "--a", "200", "--lambda", "1/1000")
        moment = json_out(*argv)["results"]["moment"]
        assert moment["approx"] is None
        exact = closed_forms.diagonal_moment(1, 200, Fraction(1, 1000)).value
        assert Fraction(int(moment["num"]), int(moment["den"])) == exact
        assert cli.main(["--format", "csv", *argv]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[7] == ""  # approx
        assert cli.main(list(argv)) == 0
        assert "approx" not in capsys.readouterr().out


class TestSum:
    def test_verify(self):
        doc = json_out("sum", "--n", "3", "--a", "1", "--verify")
        assert doc["results"]["sum"] == {"num": "35", "den": "8",
                                         "approx": 4.375}
        assert doc["results"]["verified"] is True

    def test_trivial(self):
        doc = json_out("sum", "--n", "1", "--a", "1")
        assert doc["results"]["sum"]["num"] == "1"

    def test_result_beyond_the_int_digit_limit(self):
        # The numerator has more digits than Python's default str() limit.
        total = json_out("sum", "--n", "10000", "--a", "3")["results"]["sum"]
        assert len(total["num"]) > 4300
        assert total["approx"] == float(closed_forms.sum_moments(10000, 3).value)


class TestVerify:
    def test_single_suite(self):
        proc = run_cli("verify", "--suite", "binomial", "--max-a", "10")
        assert proc.returncode == 0

    def test_all_suites_small(self):
        doc = json_out("verify", "--suite", "all", "--max-a", "5",
                       "--max-k", "4", "--max-n", "4")
        assert all(suite["all_passed"] for suite in doc["results"].values())

    def test_all_suites_with_numpy_as_the_only_dependency(self):
        # Any import outside the standard library, numpy and the package fails.
        code = textwrap.dedent("""
            import sys

            class OnlyNumpy:
                def find_spec(self, name, path=None, target=None):
                    top = name.partition(".")[0]
                    if top not in (*sys.stdlib_module_names, "numpy",
                                   "poisson_moments"):
                        raise ImportError(f"unexpected dependency: {name}")

            sys.meta_path.insert(0, OnlyNumpy())
            from poisson_moments import cli
            sys.exit(cli.main(["--format", "json", "verify"]))
            """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)["results"]
        assert sum(suite["cases"] for suite in results.values()) == 1188

    def test_unknown_suite_is_usage_error(self):
        assert run_cli("verify", "--suite", "bogus").returncode == 2

    @pytest.mark.parametrize("flag", ["--max-a", "--max-k", "--max-n"])
    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_bound_below_one_is_usage_error(self, flag, bound):
        # 0 used to run the full default grid, a negative bound zero cases.
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "gould", flag, bound])
        assert exc.value.code == 2


class TestSimulate:
    def test_integer_exponent_reports_exact(self):
        doc = json_out("simulate", "--k", "1", "--b", "1",
                       "--samples", "100000", "--seed", "1")
        assert doc["results"]["exact"]["num"] == "1"
        assert abs(doc["results"]["zscore"]) <= 4

    def test_fractional_exponent_has_no_exact(self):
        doc = json_out("simulate", "--k", "1", "--b", "0.5",
                       "--samples", "10000", "--seed", "1")
        assert "exact" not in doc["results"]

    def test_stderr_of_values_near_the_float_floor(self):
        # Samples near 1e-300 have squares that underflow to 0; the stderr
        # used to be lost with them.
        doc = json_out("simulate", "--k", "1", "--b", "2", "--lambda", "1e150",
                       "--samples", "100", "--seed", "1")
        assert 0 < doc["results"]["stderr"] < doc["results"]["mean"] < math.inf

    def test_values_that_overflow_at_rate_one(self):
        # |D|^100 at rate 1 reaches ~1e167 and its square overflows; divided
        # by lambda = 100 before the power, every value is far inside range.
        doc = json_out("simulate", "--k", "100", "--b", "100", "--lambda", "100",
                       "--samples", "1000", "--seed", "1")
        assert 0 < doc["results"]["stderr"] < doc["results"]["mean"] < 1e-30

    def test_seed_env_default(self, tmp_path):
        env = dict(os.environ, POISSON_MOMENTS_SEED="77")
        proc = run_cli("--format", "json", "simulate", "--k", "1", "--b", "1",
                       "--samples", "1000", env=env)
        assert json.loads(proc.stdout)["parameters"]["seed"] == 77

    def test_bad_seed_env_is_usage_error(self):
        env = dict(os.environ, POISSON_MOMENTS_SEED="abc")
        proc = run_cli("simulate", "--k", "1", "--b", "1", env=env)
        assert proc.returncode == 2
        assert proc.stderr.strip().splitlines() == [
            "error: POISSON_MOMENTS_SEED must be an integer, got 'abc'"]


class TestMatching:
    def test_csv_rows(self):
        proc = run_cli("--format", "csv", "matching", "--b", "2",
                       "--n-max", "64", "--trials", "50", "--seed", "3")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("command,b,n,mean_cost,slope")
        assert len(lines) == 1 + 4  # header + n in {8,16,32,64}

    def test_large_exponent(self):
        # n^-90 alone is 0.0 at n = 4096; each |x - y| / n raised to the
        # power 90 is a normal float.
        doc = json_out("matching", "--b", "90", "--trials", "2", "--seed", "0")
        assert doc["results"]["n_grid"][-1] == 4096
        assert all(0 < c < math.inf for c in doc["results"]["mean_costs"])


class TestInputDomain:
    """Every input gives a result or exits 2 with one stderr line: no hang,
    no traceback, no NaN/Infinity on stdout."""

    @pytest.mark.parametrize("argv", [
        # used to loop forever
        ["matching", "--b", "1", "--grid-factor", "1", "--trials", "2"],
        ["matching", "--b", "1", "--n-min", "0", "--trials", "2"],
        # used to raise IndexError on an empty grid, or fit one point
        ["matching", "--b", "1", "--n-min", "64", "--n-max", "8", "--trials", "2"],
        ["matching", "--b", "1", "--n-min", "8", "--n-max", "8", "--trials", "2"],
        # used to be accepted, emitting NaN/Infinity for simulate
        ["simulate", "--k", "1", "--b", "nan"],
        ["simulate", "--k", "1", "--b", "inf"],
        ["matching", "--b", "-1"],
        # used to raise OverflowError (exit 1) from float(exact)
        ["simulate", "--k", "1", "--b", "200", "--lambda", "1/1000",
         "--samples", "1000", "--seed", "1"],
        ["simulate", "--k", "1", "--b", "1.5", "--lambda", "1e400",
         "--samples", "10"],
        # every (|d| / lambda)^b overflows to inf
        ["simulate", "--k", "1", "--b", "2", "--lambda", "1e-200",
         "--samples", "100", "--seed", "1"],
        # used to report stderr 0.0 when the sum of squares overflowed
        ["simulate", "--k", "1", "--b", "400.5", "--samples", "10", "--seed", "1"],
    ])
    def test_rejected_with_one_line(self, argv):
        proc = run_cli("--format", "json", *argv)
        assert proc.returncode == 2, proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_argv_exits_cleanly(self, data):
        # Each value is valid four times in five, so most draws get past
        # argparse; the invalid ones span 0, negatives, nan, inf and junk.
        def pick(*values):
            return data.draw(st.sampled_from(values))

        def value(valid, invalid):
            return pick(*valid) if data.draw(st.integers(0, 4)) else pick(*invalid)

        def optional(flag, valid, invalid):
            return [flag, value(valid, invalid)] if data.draw(st.booleans()) else []

        def switch(flag):
            return [flag] if data.draw(st.booleans()) else []

        size = ("-1", "0", "x")
        lam = (("1", "2", "1/1000", "3/7", "1e400", "1e-400"),
               ("0", "-1", "nan", "inf", "1/0"))
        b = (("1", "2", "3", "0.5", "2.5", "200", "400.5", "1e-320", "1e20"),
             ("0", "-1", "nan", "inf", "-inf", "x"))
        seed = (("-1", "0", "7", str(2 ** 70)), ("x",))
        fmt = pick("json", "csv", "text")
        sub = pick("moment", "sum", "verify", "simulate", "matching")
        if sub == "moment":
            argv = ["--k", value(("1", "2", "5"), size),
                    "--a", value(("1", "2", "7"), size),
                    *optional("--r", ("0", "1", "3"), size),
                    *optional("--lambda", *lam), *switch("--cross-check")]
        elif sub == "sum":
            argv = ["--n", value(("1", "3", "20"), size),
                    "--a", value(("1", "2", "7"), size),
                    *optional("--lambda", *lam), *switch("--verify")]
        elif sub == "verify":
            bound = (("1", "2", "5"), size)
            argv = ["--suite", value(("all", *cli.identities.SUITES), ("bogus",)),
                    "--max-a", value(*bound), "--max-k", value(*bound),
                    "--max-n", value(*bound)]
        elif sub == "simulate":
            argv = ["--k", value(("1", "3"), size), "--b", value(*b),
                    *optional("--r", ("0", "2"), size),
                    *optional("--lambda", *lam),
                    "--samples", value(("2", "500"), (*size, "1")),
                    *optional("--seed", *seed)]
        else:
            argv = ["--b", value(*b), "--n-min", value(("1", "4"), size),
                    "--n-max", value(("8", "32"), size),
                    "--grid-factor", value(("2", "3"), (*size, "1")),
                    "--trials", value(("2", "5"), (*size, "1")),
                    *optional("--seed", *seed)]
        argv = ["--format", fmt, sub, *argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, code)
        if code:
            assert len(err.getvalue().strip().splitlines()) == 1, (argv, err.getvalue())
        if fmt == "json" and (code == 0 or out.getvalue()):
            json.loads(out.getvalue(), parse_constant=_reject_constant)


class TestOutputContract:
    def _strip_timing(self, doc):
        doc = dict(doc)
        doc.pop("timing_ms")
        return doc

    def test_deterministic_output(self):
        a = json_out("simulate", "--k", "2", "--b", "2",
                     "--samples", "20000", "--seed", "4")
        b = json_out("simulate", "--k", "2", "--b", "2",
                     "--samples", "20000", "--seed", "4")
        assert self._strip_timing(a) == self._strip_timing(b)

    def test_json_round_trips(self):
        doc = json_out("moment", "--k", "2", "--a", "3")
        assert json.loads(json.dumps(doc)) == doc

    def test_in_process_main(self, capsys):
        assert cli.main(["--format", "json", "moment", "--k", "1",
                         "--a", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["moment"]["num"] == "2"

    def test_text_format(self):
        proc = run_cli("moment", "--k", "2", "--a", "1")
        assert proc.returncode == 0
        assert "3/2" in proc.stdout
