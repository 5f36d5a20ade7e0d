import json
import subprocess
import sys
from fractions import Fraction

import pytest

from poisson_moments import cli, closed_forms


def run_cli(*args, env=None):
    return subprocess.run([sys.executable, "-m", "poisson_moments.cli", *args],
                          capture_output=True, text=True, env=env)


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

    def test_seed_env_default(self, tmp_path):
        import os
        env = dict(os.environ, POISSON_MOMENTS_SEED="77")
        proc = run_cli("--format", "json", "simulate", "--k", "1", "--b", "1",
                       "--samples", "1000", env=env)
        assert json.loads(proc.stdout)["parameters"]["seed"] == 77


class TestMatching:
    def test_csv_rows(self):
        proc = run_cli("--format", "csv", "matching", "--b", "2",
                       "--n-max", "64", "--trials", "50", "--seed", "3")
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert lines[0].startswith("command,b,n,mean_cost,slope")
        assert len(lines) == 1 + 4  # header + n in {8,16,32,64}


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
