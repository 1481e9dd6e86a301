"""The CLI's stdout, pinned byte for byte.

``tests/data/cli_stdout.json`` maps each command below to the stdout it must
print. ``tests/data/three_boxes.json`` is the instance of the ``evaluate``
and ``ratio`` commands. Its support is {0, 1, 3, 6, 7}, so the baselines 3,
4.5 and 10 sit on a support point, between two points and above the largest.
``ratio`` sweeps order-unaware rules only, so ``opt-maxprob`` appears under
``evaluate`` alone. Under win probability ``golden``, ``opt-exp`` and the
four single-threshold specs, under ``evaluate`` and ``ratio``, and
``reproduce single-threshold`` run the threshold-rule pass of ``eval_exact``.

Each command prints through one of the CLI's output shapes, and each shape is
pinned in both formats: a flat result (``constants``; ``evaluate`` exact, and
Monte Carlo with ``samples`` and ``stderr``, including the one-sample run
whose stderr is 0.0), the per-order table of ``ratio``, and a ``reproduce``
report, whose CSV keeps its scalar items only.

Regenerate the expected file only for an intended change of output:

    PYTHONPATH=src python tests/test_cli_bytes.py

It prints each command whose stdout was added, changed or removed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import pytest

from prophet_order import cli
from prophet_order.cli import main

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
INSTANCE = os.path.join(DATA, "three_boxes.json")
EXPECTED = os.path.join(DATA, "cli_stdout.json")

OBJECTIVES = ("winprob", "winprob:3", "winprob:4.5", "winprob:10")

COMMANDS = [
    "constants",
    "constants --format csv",
    "reproduce example1",
    "reproduce example1 --format csv",
    "reproduce golden-lb",
    "reproduce maxprob-lb --n 25",
    "reproduce maxprob-lb --n 25 --format csv",
    "reproduce single-threshold --n 400",
    "reproduce single-threshold --n 400 --format csv",
    "reproduce single-threshold --n 10000",
    "evaluate -i INSTANCE -o 0,1,2 -p golden --obj expectation",
    "evaluate -i INSTANCE -o 0,1,2 -p golden --obj expectation --format csv",
    "evaluate -i INSTANCE -o 0,1,2 -p maxprob --obj winprob --mc 500 --seed 7",
    "evaluate -i INSTANCE -o 0,1,2 -p golden --obj expectation --mc 1 --seed 0 --format csv",
    *(
        f"evaluate -i INSTANCE -o 0,1,2 -p {spec} --obj {obj}"
        for spec in ("maxprob", "opt-maxprob", "median", "half-emax", "inv-e", "threshold:3")
        for obj in OBJECTIVES
    ),
    "evaluate -i INSTANCE -o 2,0,1 -p opt-maxprob --obj winprob:4.5 --format csv",
    *(
        f"evaluate -i INSTANCE -o 0,1,2 -p {spec} --obj {obj}"
        for spec in ("golden", "opt-exp")
        for obj in OBJECTIVES
    ),
    *(f"ratio -i INSTANCE -p maxprob --obj {obj}" for obj in OBJECTIVES),
    "ratio -i INSTANCE -p maxprob --obj winprob:4.5 --format csv",
    "ratio -i INSTANCE -p golden --obj expectation",
    "ratio -i INSTANCE -p golden --obj expectation --format csv",
    "ratio -i INSTANCE -p golden --obj winprob",
]


def _argv(command: str) -> list[str]:
    return [INSTANCE if word == "INSTANCE" else word for word in command.split()]


def _stdout(command: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(_argv(command))
    assert code == 0, command
    return buf.getvalue()


def _expected() -> dict[str, str]:
    with open(EXPECTED, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_every_command_is_pinned():
    assert list(_expected()) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_the_pinned_bytes(command):
    assert _stdout(command) == _expected()[command]


def _exit_code(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("bad", [
    # refused by argparse at the family's parser, after it parsed --n
    "reproduce maxprob-lb --n 3 --eps 0.5",
    "reproduce mystery-family",
    # parsed, then refused by the order check: flags set away from their defaults
    "evaluate -i INSTANCE -o 0,1 -p maxprob --obj winprob:3 --mc 3 --seed 9 --format csv",
])
def test_a_command_after_an_exit_2_in_the_same_process_prints_the_pinned_bytes(capsys, bad):
    # main parses every call with one tree; no flag of a refused call may
    # reach the next one.
    expected = _expected()
    for command in ("evaluate -i INSTANCE -o 0,1,2 -p maxprob --obj winprob --mc 500 --seed 7",
                    "evaluate -i INSTANCE -o 0,1,2 -p golden --obj expectation",
                    "reproduce maxprob-lb --n 25"):
        assert _exit_code(_argv(bad)) == 2
        capsys.readouterr()
        assert _stdout(command) == expected[command], (bad, command)


def test_main_reuses_one_parser_and_build_parser_builds_a_fresh_one():
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


if __name__ == "__main__":
    old = _expected() if os.path.exists(EXPECTED) else {}
    pinned = {command: _stdout(command) for command in COMMANDS}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")
    for command in pinned:
        if command not in old:
            print(f"added: {command}")
        elif pinned[command] != old[command]:
            print(f"changed: {command}")
    for command in old:
        if command not in pinned:
            print(f"removed: {command}")
    print(f"{len(pinned)} commands pinned")
