"""The benchmark's own output checks, run on the program's outputs.

``perfbench/check.py`` judges every op the benchmark times.  Running it here
makes a broken report layout fail the test suite instead of only the
benchmark.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import advot.cli
from advot.distributed import MessageLog, replay
from conftest import SCENARIO_DIR

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("solve-ot", "static-eq", "dynamic-sim", "distributed-sim")


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check = _load_perfbench("check")
generate = _load_perfbench("generate")

# Instance -> the ops the benchmark's workloads run on instances of its kind.
INSTANCES = {
    "paper": (None, COMMANDS),
    "dense-5x10": (lambda: generate.dense_pool(5, 10, 1, 1)[0], COMMANDS),
    "sparse": (lambda: generate.sparse_pool(1, 1)[0], ("static-eq",)),
}


def test_checker_self_test_passes(tmp_path):
    assert check.self_test(advot.cli.main, tmp_path) == []


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_every_op_passes_the_benchmark_checks(tmp_path, name):
    make, commands = INSTANCES[name]
    if make is None:
        path = SCENARIO_DIR / "paper_2x3.json"
    else:
        path = tmp_path / f"{name}.json"
        path.write_text(generate.scenario_text(make()), encoding="utf-8")
    scenario = check.Scenario.load(path)
    for command in commands:
        out = tmp_path / command
        status = advot.cli.main([command, "--config", str(path), "--out", str(out)])
        assert check.check_cli(command, status, out, scenario) == [], command
        if command == "distributed-sim":
            log = MessageLog.from_text((out / "messages.log").read_text(encoding="utf-8"))
            assert check.check_replay(replay(log), out) == []
