import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from poisson_moments import cli, closed_forms, oracles


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

    def test_cross_check_at_the_top_size(self, capsys):
        assert cli.main(["--format", "json", "moment", "--k", "285", "--r",
                         "170", "--a", "41", "--cross-check"]) == 0
        check = json.loads(capsys.readouterr().out)["results"]["cross_check"]
        assert check == {"methods": ["first_principles", "lemma2", "lemma3"],
                         "agree": True}

    def test_even_cross_check_is_against_the_oracle(self, capsys):
        # An even moment is even_moment_general itself, so only the
        # independent oracle can disagree with it.
        assert cli.main(["--format", "json", "moment", "--k", "3", "--r", "2",
                         "--a", "4", "--cross-check"]) == 0
        check = json.loads(capsys.readouterr().out)["results"]["cross_check"]
        assert check == {"methods": ["first_principles"], "agree": True}

    def test_cross_check_leaves_the_diagonal_to_moment(self, capsys):
        # closed_forms.moment compares every r = 0 value with
        # diagonal_moment itself, so listing it again would compare the
        # value with itself.
        assert cli.main(["--format", "json", "moment", "--k", "2", "--a", "3",
                         "--cross-check"]) == 0
        check = json.loads(capsys.readouterr().out)["results"]["cross_check"]
        assert check == {"methods": ["first_principles", "lemma2", "lemma3"],
                         "agree": True}

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
        wrong = closed_forms.MomentValue(Fraction(-1))
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

    def test_unknown_suite_is_usage_error(self):
        assert run_cli("verify", "--suite", "bogus").returncode == 2

    @pytest.mark.parametrize("flag", ["--max-a", "--max-k", "--max-n"])
    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_bound_below_one_is_usage_error(self, flag, bound):
        # 0 used to run the full default grid, a negative bound zero cases.
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "gould", flag, bound])
        assert exc.value.code == 2


class TestDependencies:
    # Any import outside the standard library, the package and the modules
    # named in argv fails; only the sampling commands may load numpy, and
    # their blocks here are too small for a thread pool (concurrent.futures).
    # The exact commands must not load dataclasses, typing or inspect (with
    # what they pull in, about half of a cold import); numpy imports inspect
    # itself.  Those run under -S, because site may load typing through a
    # .pth file before the hook is in place, and the hook would not see it.
    _HOOK = textwrap.dedent("""
        import sys

        extra = sys.argv[1].split()
        denied = set() if extra else {"dataclasses", "typing", "inspect"}
        allowed = ({*sys.stdlib_module_names} - {"concurrent"} - denied
                   | {"poisson_moments", *extra})

        class OnlyAllowed:
            def find_spec(self, name, path=None, target=None):
                if name.partition(".")[0] not in allowed:
                    raise ImportError(f"unexpected dependency: {name}")

        sys.meta_path.insert(0, OnlyAllowed())
        from poisson_moments import cli
        sys.exit(cli.main(["--format", "json", *sys.argv[2:]]))
        """)

    @pytest.mark.parametrize("allowed, argv", [
        pytest.param("", ["verify"], id="verify"),
        # --cross-check also runs every other formula for that parity
        pytest.param("", ["moment", "--k", "3", "--r", "2", "--a", "5",
                          "--cross-check"], id="moment-odd"),
        pytest.param("", ["moment", "--k", "3", "--a", "4", "--cross-check"],
                     id="moment-even"),
        pytest.param("", ["sum", "--n", "20", "--a", "3", "--verify"],
                     id="sum-verify"),
        pytest.param("numpy", ["simulate", "--k", "2", "--b", "1.5",
                               "--samples", "1000"], id="simulate"),
        pytest.param("numpy", ["matching", "--b", "1", "--n-max", "32",
                               "--trials", "5"], id="matching"),
    ])
    def test_imports(self, allowed, argv):
        # -S also drops site-packages from sys.path, so the package's own
        # directory goes on PYTHONPATH.
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, *([] if allowed else ["-S"]),
                               "-c", self._HOOK, allowed, *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        results = json.loads(proc.stdout)["results"]
        if argv == ["verify"]:
            assert sum(suite["cases"] for suite in results.values()) == 1188

    @pytest.mark.parametrize("k, loaded", [(12, False), (13, True)])
    def test_only_the_gamma_route_loads_numpy_random(self, k, loaded):
        # numpy.random brings in OpenSSL (through secrets), ~6 MB of RSS that
        # simulate at k + r <= 12 does not need.
        code = ("import sys; from poisson_moments import cli; "
                f"cli.main(['simulate', '--k', '{k}', '--b', '1.5', "
                "'--samples', '100']); "
                "print('numpy.random' in sys.modules, file=sys.stderr)")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == f"{loaded}\n"


class TestBrokenPipe:
    @pytest.mark.parametrize("argv", [
        ["moment", "--k", "1", "--a", "1"],  # fits the stdout buffer
        ["--format", "json", "sum", "--n", "2000", "--a", "3"],  # does not
    ], ids=["short", "long"])
    def test_closed_stdout_exits_141(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child writes
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "poisson_moments.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
        assert proc.stderr == ""


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
        # |D|^100 at rate 1 reaches ~1e170 and its square overflows; divided
        # by lambda = 100 before the power, every value is far inside range.
        # The draw does not depend on the rate, so the mean is the rate-1
        # mean over 100^100, not over 100 as with the power taken first.
        doc = json_out("simulate", "--k", "100", "--b", "100", "--lambda", "100",
                       "--samples", "1000", "--seed", "1")
        at_rate_one = oracles.mc_moment(100, 0, 100.0, 1.0, 1000, 1)
        assert 0 < doc["results"]["stderr"] < doc["results"]["mean"]
        assert doc["results"]["mean"] == pytest.approx(
            at_rate_one.mean / 100.0 ** 100, rel=1e-12, abs=0)

    def test_a_shape_of_a_million_draws_one_variate_per_arrival(self):
        # As sums of gaps, these arrival times would hash ~2e10 uniforms;
        # each is one Gamma variate instead.
        doc = json_out("simulate", "--k", "1000000", "--r", "1", "--b", "2",
                       "--samples", "10000")
        assert abs(doc["results"]["zscore"]) <= 4

    def test_a_diagonal_shape_of_a_million_has_an_exact_value(self):
        # r = 0: moment cross-checks the even form against the diagonal
        # one, whose Gamma ratio for even b is C(k - 1 + b/2, b/2), b/2
        # factors, not a Pochhammer product of k - 1.
        doc = json_out("simulate", "--k", "1000000", "--b", "2",
                       "--samples", "10000")
        assert doc["results"]["exact"]["num"] == "2000000"
        assert abs(doc["results"]["zscore"]) <= 4

    @pytest.mark.parametrize("value", ["77", "abc"])
    def test_seed_defaults_to_0_whatever_the_environment(self, value):
        env = dict(os.environ, POISSON_MOMENTS_SEED=value)
        proc = run_cli("--format", "json", "simulate", "--k", "1", "--b", "1",
                       "--samples", "1000", env=env)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["parameters"]["seed"] == 0


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

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    @pytest.mark.parametrize("sub", [["simulate", "--k", "1"],
                                     ["matching", "--n-max", "16"],
                                     ["simulate", "--k", "13"]],
                             ids=["simulate", "matching", "simulate-k13"])
    def test_seed_outside_64_bits(self, sub, seed, capsys):
        # -1 used to draw the streams of seed 2^64 - 1, and be recorded as -1.
        # At k = 13 the Gamma route checks the seed itself.
        assert cli.main([*sub, "--b", "1", "--seed", seed]) == 2
        assert capsys.readouterr() == (
            "", f"error: seed must be in [0, 2^64), got {seed}\n")

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
        seed = (("0", "7", str(2 ** 64 - 1)), ("-1", str(2 ** 64), "x"))
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



class TestExitPaths:
    """Exit codes that `main` maps, run in process with stdout and stderr
    sharing one buffer, so the order of their lines shows too."""

    def _run(self, argv):
        buf = io.StringIO(newline="")
        with redirect_stdout(buf), redirect_stderr(buf):
            code = cli.main(argv)
        return code, buf.getvalue().splitlines()

    def test_failed_suite_exits_1_after_the_record(self, monkeypatch):
        real = cli.identities.check_partial_geometric
        monkeypatch.setattr(cli.identities, "check_partial_geometric",
                            lambda m: m != 3 and real(m))
        code, lines = self._run(["--format", "csv", "verify",
                                 "--suite", "geometric", "--max-n", "5"])
        assert code == cli.EXIT_VERIFY_FAILED == 1
        assert lines == ["command,suite,cases,all_passed,first_failure",
                         "verify,geometric,6,False,3",
                         "identity suite geometric FAILED at 3"]

    def test_sum_term_by_term_mismatch_exits_3(self, monkeypatch):
        real = cli.identities.telescoping_lhs
        monkeypatch.setattr(cli.identities, "telescoping_lhs",
                            lambda n, a: real(n, a) + 1)
        code, lines = self._run(["--format", "json", "sum", "--n", "3",
                                 "--a", "1", "--verify"])
        assert code == cli.EXIT_CROSS_CHECK == 3
        assert lines == ["cross-check mismatch: term-by-term sum 43/8 != 35/8"]


class TestCsvColumns:
    _ARGVS = {
        "moment": ["moment", "--k", "1", "--a", "1"],
        "sum": ["sum", "--n", "1", "--a", "1"],
        "verify": ["verify", "--suite", "geometric", "--max-n", "1"],
        "simulate": ["simulate", "--k", "1", "--b", "1", "--samples", "10"],
        "matching": ["matching", "--b", "1", "--n-max", "16", "--trials", "2"],
    }

    def test_docs_list_the_header_each_command_writes(self, capsys):
        doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
        section = doc.split("## CSV columns per command")[1].split("\n## ")[0]
        documented = dict(re.findall(r"^- `(\w+)`.*?`(command,[\w,]+)`",
                                     section, re.MULTILINE | re.DOTALL))
        written = {}
        for command, argv in self._ARGVS.items():
            assert cli.main(["--format", "csv", *argv]) == 0
            written[command] = capsys.readouterr().out.splitlines()[0]
        assert documented == written

# Each argv runs in every format; tests/data/cli/<id>.<format> holds its
# stdout as the CLI wrote it before the one-record rewrite, minus timing_ms.
# The exact outputs must match it byte for byte, the Monte Carlo outputs
# (simulate-*, matching) up to rounding, by _same_up_to_rounding.
_GOLDEN_ARGVS = {
    "moment-odd-cross-check": ["moment", "--k", "3", "--r", "2", "--a", "5",
                               "--cross-check"],
    "moment-even-cross-check": ["moment", "--k", "3", "--a", "4",
                                "--lambda", "2/3", "--cross-check"],
    "moment-approx-null": ["moment", "--k", "1", "--a", "200",
                           "--lambda", "1/1000"],
    "sum": ["sum", "--n", "20", "--a", "3"],
    "sum-verify": ["sum", "--n", "20", "--a", "3", "--lambda", "3/2",
                   "--verify"],
    "verify-all": ["verify"],
    "verify-one": ["verify", "--suite", "gould", "--max-a", "9"],
    "simulate-integer-b": ["simulate", "--k", "2", "--r", "1", "--b", "2",
                           "--samples", "2000", "--seed", "5"],
    "simulate-fractional-b": ["simulate", "--k", "3", "--b", "1.5",
                              "--lambda", "2/3", "--samples", "2000",
                              "--seed", "5"],
    "matching": ["matching", "--b", "1.5", "--n-max", "64", "--trials", "10",
                 "--seed", "3"],
}
_GOLDEN_DIR = Path(__file__).parent / "data" / "cli"


def _without_timing(out, fmt):
    """stdout with its one timing_ms JSON key or text line removed."""
    out, count = re.subn(r',?\n *("timing_ms": |timing_ms = )[^\n]*', "", out)
    assert count == (fmt != "csv"), out
    return out


# numpy's SIMD kernels of log and power may round the gaps and powers
# differently in the last bit.  numpy 2.4.6's AVX2 and baseline kernels
# write the Monte Carlo goldens, made under AVX-512, byte for byte, but
# they moved an earlier stream's by up to 1.9e-16 relative, and another
# CPU's kernels may move these.  This tolerance is over 5000 times that.
# The uniforms and the samplers are pinned bit for bit in
# tests/test_oracles.py, so a change beyond rounding moves a float far more.
_FLOAT_RTOL = 1e-12
_FLOAT = re.compile(r"(-?\d+(?:\.\d+(?:e[-+]?\d+)?|e[-+]?\d+))")


def _same_up_to_rounding(out, golden):
    """Whether out equals golden byte for byte outside its float literals,
    and each float literal within _FLOAT_RTOL relative."""
    outs, goldens = _FLOAT.split(out), _FLOAT.split(golden)
    return (len(outs) == len(goldens) and outs[::2] == goldens[::2]
            and all(math.isclose(float(x), float(y), rel_tol=_FLOAT_RTOL)
                    for x, y in zip(outs[1::2], goldens[1::2])))


def _golden(name, fmt):
    return (_GOLDEN_DIR / f"{name}.{fmt}").read_bytes().decode()


class TestGoldenOutput:
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("name", sorted(_GOLDEN_ARGVS))
    def test_stdout_is_unchanged(self, name, fmt, capsys):
        assert cli.main(["--format", fmt, *_GOLDEN_ARGVS[name]]) == 0
        out = _without_timing(capsys.readouterr().out, fmt)
        if name.startswith(("simulate", "matching")):
            assert _same_up_to_rounding(out, _golden(name, fmt)), out
        else:
            assert out == _golden(name, fmt)


class TestSameUpToRounding:
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    def test_passes_the_recorded_dispatch_pairs(self, fmt):
        # numpy 2.4.6's AVX2 and baseline kernels write this golden byte for
        # byte.  They moved an earlier stream's matching golden by one ulp
        # in its first mean cost (up), slope and intercept (down), in
        # every format: these are the same moves, in repr and in CSV's 17
        # digits.
        golden = out = _golden("matching", fmt)
        for old, new in [("1.159878277485418", "1.1598782774854182"),
                         ("1.1598782774854179", "1.1598782774854182"),
                         ("0.2661157545501865", "0.26611575455018643"),
                         ("0.26611575455018649", "0.26611575455018643"),
                         ("-0.24353085062003577", "-0.24353085062003579")]:
            out = out.replace(old, new)
        assert out != golden and _same_up_to_rounding(out, golden)

    @pytest.mark.parametrize("name, fmt, old, new, same", [
        ("matching", "json", "1.159878277485418", "1.159878277485988", True),
        ("matching", "json", "1.159878277485418", "1.159878277487858", False),
        ("matching", "json", ": -0.243", ": 0.243", False),
        ("matching", "text", "slope = ", "slope : ", False),
        ("matching", "json", '"trials": 10', '"trials": 11', False),
        ("simulate-fractional-b", "json", '"b": 1.5', '"b": 1.6', False),
        ("simulate-integer-b", "json", '"num": "6"', '"num": "7"', False),
        ("simulate-integer-b", "csv", ",6,1,", ",6,2,", False),
    ], ids=["float-4.9e-13", "float-2.1e-12", "sign", "layout-byte",
            "int-parameter", "float-parameter", "num", "den"])
    def test_one_edit(self, name, fmt, old, new, same):
        golden = _golden(name, fmt)
        assert golden.count(old) == 1
        assert _same_up_to_rounding(golden.replace(old, new), golden) is same
