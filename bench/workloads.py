"""The benchmark's workloads: seeded inputs, the commands a user would type,
and the checker bound to each command.

All three load the program from one process, serially (a closed loop with
one client).  ``verify`` is exhaustive and ignores the seed; the other two
draw their inputs from it, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

# growth: the criterion-08 runs of the seed "1", then random seeds in bases
# 4..10 run until their final iterate is about FINAL_DIGITS long (about 52
# steps for a one-digit seed), so every workload seed asks for the same work
# and no run outgrows the base-10 seed "1" at 60 steps.
SEED1_RUNS = ((3, 60), (2, 50), (10, 60))
RANDOM_SEEDS = 2          # short random seeds
LONG_RUN = 100_000        # a run this long takes the general numpy step path
FINAL_DIGITS = 2_000_000
ORACLE_DIGITS = 20_000    # first iterates checked against the oracle step

# seeds: decompose gets DECOMPOSE_STRINGS long in-domain strings, each the
# first iterate of a random length-10 essential ancient string to reach
# DECOMPOSE_DIGITS (about the 36th), cut back to that length after a 0 (a
# valid split, so the prefix stays in the domain); kvalue gets short random
# strings.
DECOMPOSE_STRINGS = 8
DECOMPOSE_SEED_LENGTH = 10
DECOMPOSE_DIGITS = 300_000
KVALUE_STRINGS = 300
KVALUE_LENGTHS = (6, 20)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[str], str | None]  # stdout -> None, or why it is wrong


@dataclass
class Workload:
    name: str
    commands: list[Command]
    # Probes (``layers.PROBES``) its traced child runs after the commands,
    # with their inputs.
    probes: dict = field(default_factory=dict)


def _essential_ancient(rng: random.Random, length: int) -> str:
    """Uniform draw of an essential ancient string: runs <= 3, one final 0 at most."""
    while True:
        text = "".join(rng.choice("12") for _ in range(length - 1)) + rng.choice("012")
        if not any(len(list(g)) > 3 for _, g in itertools.groupby(text)):
            return text


_BASE3_NUMERAL = {1: "1", 2: "2", 3: "10", 4: "11", 5: "12", 6: "20", 7: "21", 8: "22"}


def _step3(text: str) -> str:
    """Base-3 describing step for strings whose runs are at most 8 long."""
    return "".join([_BASE3_NUMERAL[len(list(g))] + d for d, g in itertools.groupby(text)])


def _grows(seed: str, base: int) -> bool:
    """False for seeds whose orbit reaches a fixed string such as 22."""
    text = seed
    for _ in range(8):
        nxt = checks.oracles.reference_step(text, base)
        if nxt == text:
            return False
        text = nxt
    return True


def _random_growth_seed(rng: random.Random, base: int) -> str:
    digits = "0123456789"[:base]
    while True:
        seed = "".join(rng.choice(digits) for _ in range(rng.randint(1, 3)))
        if _grows(seed, base):
            return seed


def _long_run_seed(rng: random.Random, base: int) -> str:
    digits = "0123456789"[:base]
    d = rng.choice(digits)
    others = digits.replace(d, "")
    head = "".join(rng.choice(others) for _ in range(rng.randint(1, 3)))
    tail = "".join(rng.choice(others) for _ in range(rng.randint(1, 3)))
    return head + d * (LONG_RUN + rng.randrange(1000)) + tail


def _steps_to(first: list[int], digits: int) -> int:
    """Steps until a base >= 4 orbit, known up to ``first``, is ``digits`` long."""
    growth = math.log(checks.ref.HIGH_BASE_GROWTH)
    return len(first) - 1 + max(0, round(math.log(digits / first[-1]) / growth))


def _growth_command(seed: str, base: int, iters: int | None = None) -> Command:
    first = checks.reference_lengths(seed, base, iters or 1000, ORACLE_DIGITS)
    iters = iters or _steps_to(first, FINAL_DIGITS)
    argv = ("growth", "--seed", seed, "--base", str(base), "--iters", str(iters), "--format", "json")
    return Command(argv, lambda out: checks.check_growth(out, seed, base, iters, first))


def verify(seed: int, work: Path) -> Workload:
    csv_path = work / "decay.csv"

    def check(out: str) -> str | None:
        try:
            csv_text = csv_path.read_text(encoding="ascii")
        except OSError:
            return "verify wrote no decay table"
        return checks.check_verify(out, csv_text)

    commands = [Command(("verify", "--out", str(csv_path)), check)]
    return Workload("verify", commands, {"verify_warm": None, "memo_replay": None})


def growth(seed: int, work: Path) -> Workload:
    rng = random.Random(f"growth:{seed}")
    commands = [_growth_command("1", base, iters) for base, iters in SEED1_RUNS]
    for _ in range(RANDOM_SEEDS):
        base = rng.randint(4, 10)
        commands.append(_growth_command(_random_growth_seed(rng, base), base))
    base = rng.randint(4, 10)
    commands.append(_growth_command(_long_run_seed(rng, base), base))
    step_runs = [
        (c.argv[2], int(c.argv[4]), int(c.argv[6])) for c in commands if int(c.argv[4]) >= 4
    ]
    commands.append(Command(("spectrum", "--format", "json"), checks.check_spectrum))
    commands.append(Command(("frequencies", "--format", "json"), checks.check_frequencies))
    return Workload("growth", commands, {"step_replay": step_runs})


def seeds(seed: int, work: Path) -> Workload:
    rng = random.Random(f"seeds:{seed}")
    long_strings = []
    for _ in range(DECOMPOSE_STRINGS):
        text = _essential_ancient(rng, DECOMPOSE_SEED_LENGTH)
        while len(text) < DECOMPOSE_DIGITS:
            text = _step3(text)
        long_strings.append(text[: text.rindex("0", 0, DECOMPOSE_DIGITS) + 1])
    short_strings = [
        "".join(rng.choice("012") for _ in range(rng.randint(*KVALUE_LENGTHS)))
        for _ in range(KVALUE_STRINGS)
    ]
    commands = [
        Command(("decompose", text, "--format", "json"), lambda out, t=text: checks.check_decompose(out, t))
        for text in long_strings
    ]
    commands += [
        Command(("kvalue", text, "--format", "json"), lambda out, t=text: checks.check_kvalue(out, t))
        for text in short_strings
    ]
    return Workload("seeds", commands, {"conservative": long_strings})


WORKLOADS = {"verify": verify, "growth": growth, "seeds": seeds}
