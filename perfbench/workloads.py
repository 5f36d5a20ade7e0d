"""Seeded input generators for the benchmark workloads and the CLI probes.

An op is one timed call, written as a JSON-able dict so the parent can
hand it to a fresh worker interpreter.  Every generator draws from
`random.Random(f"{workload}:{seed}")`, so the same (workload, seed)
always yields the same ops; the program under test sees only the ops.

Where op cost varies widely (exact_large, monte_carlo), each op sits at
a fixed anchor of the input space and the seed moves it by a few units
or percent.  That keeps the cost mix, and so the latency quantiles, the
same from seed to seed while the inputs themselves change.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("exact_large", "monte_carlo")

SUITES = ("telescoping", "binomial", "dpoly", "gould", "geometric",
          "gamma-incomplete")

# The package's fixed Monte Carlo chunk: pairs reduced per numpy block.
MC_CHUNK = 1 << 16

_RATIONAL_LAMS = ("1/2", "3/2", "2", "5/3", "7/4", "3")


def identity_grid(suite: str, max_a: int | None = None,
                  max_k: int | None = None, max_n: int | None = None) -> list:
    """The parameter tuples `identities.run_suite` visits, in its order."""
    if suite == "telescoping":
        return [(n, a) for n in range(1, (max_n or 50) + 1)
                for a in range(1, (max_a or 12) + 1)]
    if suite == "binomial":
        return [(a, k) for a in range(0, (max_a or 20) + 1)
                for k in range(1, (max_k or 12) + 1)]
    if suite == "dpoly":
        return [(k, a) for a in range(1, (max_a or 11) + 1, 2)
                for k in range(1, (max_k or 20) + 1)]
    if suite == "gould":
        return [(a, b) for a in range(1, (max_a or 25) + 1)
                for b in range((a - 1) // 2 + 1)]
    if suite == "geometric":
        return [(m,) for m in range((max_n or 40) + 1)]
    if suite == "gamma-incomplete":
        return [(1, Fraction(1), Fraction(700)), (1, Fraction(1), Fraction(1)),
                (2, Fraction(1), Fraction(1)), (3, Fraction(2), Fraction(1, 2)),
                (4, Fraction(1, 2), Fraction(3)), (6, Fraction(3), Fraction(2))]
    raise ValueError(f"unknown identity suite: {suite}")


def _non_integer(rng: random.Random, lo: float, hi: float) -> float:
    while True:
        b = round(rng.uniform(lo, hi), 3)
        if not b.is_integer():
            return b


def _near(rng: random.Random, anchor: int, spread: int) -> int:
    return anchor + rng.randint(-spread, spread)


# exact_large cost groups, as (k, r, a) anchors.  The seed moves k and r
# by up to 2, which changes an op's cost by a few percent only.
_LIGHT_ODD = ((55, 0, 15), (60, 30, 15), (100, 0, 17), (50, 20, 19))
_EVENS = ((60, 0, 16), (110, 100, 20), (160, 200, 24), (210, 0, 30),
          (260, 50, 36), (298, 150, 40))
_MID = ((145, 60, 23), (215, 0, 33))
_UPPER = ((285, 60, 29), (145, 60, 31), (110, 100, 25), (75, 170, 23),
          (285, 0, 41), (145, 170, 27), (215, 170, 29), (285, 170, 33))
_TOP = ((285, 170, 41), (250, 200, 41))
# Sum sizes stop near 660: the first-principles check of one sum op
# costs ~0.4 s at n = 600 and grows like n^2.5.
_SUMS = ((64, 1), (100, 3), (160, 5), (256, 1), (400, 3), (640, 5))


def _exact_large(rng: random.Random, tiny: bool) -> list:
    # One pass is 40 ops in four cost groups, each at least 1.4x apart:
    # 16 light (sums, even a, small odd a), 8 mid, 8 upper and 8 top.
    # Sorted by cost, the mid group holds positions 16-23 and the top
    # group 32-39, so p50 (19.5) and p90 (35.1) each fall inside a group
    # of near-equal ops rather than on a step between two unlike ones.
    # The top ops each appear twice, which halves their check cost.
    def moment(k, r, a):
        return {"kind": "moment", "k": _near(rng, k, 2), "r": r and _near(rng, r, 2),
                "a": a, "lam": "1"}

    if tiny:
        return [moment(55, 0, 15), moment(55, 5, 16),
                {"kind": "sum", "n": _near(rng, 64, 2), "a": 3}]
    ops = [moment(*anchor) for anchor in _LIGHT_ODD + _EVENS + _MID * 4 + _UPPER]
    ops += [{"kind": "sum", "n": _near(rng, n, n // 32), "a": a} for n, a in _SUMS]
    top = [moment(*anchor) for anchor in _TOP * 2]
    ops += top + [dict(op) for op in top]
    rng.shuffle(ops)
    return ops


def _mc_b(rng: random.Random, i: int):
    """Integer b for even i, alternating even (2) and odd (1 or 3) so
    the exact checks meet both parities; non-integer b for odd i."""
    if i % 2:
        return _non_integer(rng, 0.5, 3.5)
    return 2 if i % 4 == 0 else rng.choice((1, 3))


def _mc_moment(rng: random.Random, i: int, anchor: int, budget: int) -> dict:
    """An mc_moment op with k near `anchor` and about `budget` uniforms."""
    k = max(1, _near(rng, anchor, anchor // 10))
    r = 0 if i % 3 == 0 else _near(rng, 4 * (i % 4) + 3, 1)
    samples = min(max(budget // (2 * k + r), 8192), 4 * MC_CHUNK)
    return {"kind": "mc_moment", "k": k, "r": r, "b": _mc_b(rng, i),
            "lam": rng.choice((0.5, 1.0, 2.0)), "samples": samples,
            "seed": rng.getrandbits(32)}


def _mc_sorted(rng: random.Random, i: int, anchor: int, points: int) -> dict:
    """An mc_sorted_cost op with n near `anchor` and about `points` points."""
    n = min(_near(rng, anchor, anchor // 20), 4096)
    trials = min(max(points // (2 * n), 200), 20000)
    return {"kind": "mc_sorted_cost", "n": n, "b": _mc_b(rng, i),
            "trials": trials, "seed": rng.getrandbits(32)}


def _monte_carlo(rng: random.Random, tiny: bool) -> list:
    # As in exact_large, sizes sit at fixed anchors that the seed moves
    # by a few percent, and the pass is grouped by cost.  Sorted by cost,
    # its 32 ops are 12 light ones (positions 0-11: small-k mc_moment at
    # 2^20 uniforms, small-n mc_sorted_cost at 2^19 points), 8
    # mc_sorted_cost at 2^21 points, whose cost does not depend on n
    # (12-19), 11 mc_moment at 2^22 uniforms with k >= 10, so no sample
    # cap cuts their budget (20-30), and the k = 256 chunk (31).  p50
    # (15.5) falls inside the 2^21-point group, p90 (27.9) inside the
    # 2^22-uniform group.
    if tiny:
        return [_mc_moment(rng, 0, 3, 1 << 16), _mc_moment(rng, 2, 11, 1 << 18),
                _mc_sorted(rng, 0, 8, 1 << 15), _mc_sorted(rng, 1, 64, 1 << 16)]
    # The peak-memory op: one full chunk at the largest k; every seed
    # runs it, so peak RSS reflects the chunk shape, not the draw.
    ops = [{"kind": "mc_moment", "k": 256, "r": 16, "b": _mc_b(rng, 0),
            "lam": 1.0, "samples": MC_CHUNK, "seed": rng.getrandbits(32)}]
    ops += [_mc_moment(rng, i, (1, 3, 6)[i // 2 % 3], 1 << 20) for i in range(8)]
    ops += [_mc_sorted(rng, i, anchor, 1 << 19) for i, anchor in enumerate((8, 16, 24, 40))]
    ops += [_mc_sorted(rng, i, anchor, 1 << 21)
            for i, anchor in enumerate((64, 118, 217, 400, 737, 1358, 2503, 4096))]
    ops += [_mc_moment(rng, i, (11, 23, 45, 91, 181)[i % 5], 1 << 22) for i in range(11)]
    rng.shuffle(ops)
    return ops


def _cli_op(rng: random.Random, sub: str, i: int) -> dict:
    lam = rng.choice(_RATIONAL_LAMS) if i % 2 else "1"
    if sub in ("moment", "moment-cc"):
        # Plain moments take r = 0 and cross-checked ones r > 0; the
        # parity of a differs between the two and alternates with i.
        odd = (i + (sub == "moment")) % 2
        argv = ["moment", "--k", str(rng.randint(1, 12)),
                "--r", str(0 if sub == "moment" else rng.randint(1, 8)),
                "--a", str(2 * rng.randint(1, 6) - odd), "--lambda", lam]
        if sub == "moment-cc":
            argv.append("--cross-check")
    elif sub == "sum":
        argv = ["sum", "--n", str(rng.randint(1, 30)),
                "--a", str(rng.randint(1, 9)), "--lambda", lam]
    elif sub == "verify":
        argv = ["verify", "--suite", rng.choice(SUITES),
                "--max-a", str(rng.randint(2, 6)),
                "--max-k", str(rng.randint(2, 6)),
                "--max-n", str(rng.randint(2, 10))]
    elif sub == "simulate":
        argv = ["simulate", "--k", str(rng.randint(1, 8)),
                "--r", str(rng.randint(0, 4)), "--b", str(_mc_b(rng, i)),
                "--lambda", lam, "--samples", str(rng.randint(4096, 8192)),
                "--seed", str(rng.getrandbits(32))]
    else:
        argv = ["matching", "--b", str(_mc_b(rng, i)), "--n-min", "8",
                "--n-max", str(rng.randint(32, 128)), "--grid-factor", "2",
                "--trials", str(rng.randint(20, 100)),
                "--seed", str(rng.getrandbits(32))]
    return {"kind": "cli", "argv": argv}


_CLI_VARIANTS = ("moment", "moment-cc", "sum", "verify", "simulate", "matching")


def cli_probe_ops(seed: int) -> list:
    """One small CLI op per subcommand variant, for the traced run's
    cold-process probes of the `cli` layer."""
    rng = random.Random(f"cli:{seed}")
    return [_cli_op(rng, sub, 0) for sub in _CLI_VARIANTS]


_GENERATORS = {"exact_large": _exact_large, "monte_carlo": _monte_carlo}


def generate(workload: str, seed: int, tiny: bool = False) -> list:
    """The op list of one pass of `workload` for `seed`."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), tiny)


def is_integer_b(b) -> bool:
    return float(b).is_integer()


def mc_uniforms(op: dict) -> int:
    """Uniforms one mc_moment op draws: k+r for X and k for Y, per pair."""
    return op["samples"] * (2 * op["k"] + op["r"])


def mc_block_mb(op: dict) -> float:
    """Size of the largest float64 array one mc_moment chunk allocates."""
    return min(op["samples"], MC_CHUNK) * (op["k"] + op["r"]) * 8 / 2 ** 20


def sorted_points(op: dict) -> int:
    return 2 * op["n"] * op["trials"]


def sorted_block_mb(op: dict) -> float:
    return op["trials"] * op["n"] * 8 / 2 ** 20


def cli_flags(op: dict) -> dict:
    """A CLI op's flag values by name: `--max-a 4` gives {"max_a": "4"}."""
    argv = op["argv"]
    return {flag[2:].replace("-", "_"): value
            for flag, value in zip(argv[1:], argv[2:]) if flag.startswith("--")
            and not value.startswith("--")}
