"""The benchmark's own output checks, run on the program's outputs.

``perfbench/check.py`` judges every op the benchmark times.  Running it here
makes a broken report layout fail the test suite instead of only the
benchmark.
"""

from __future__ import annotations

import pytest

import advot.cli
from advot.distributed import MessageLog, replay
from conftest import SCENARIO_DIR, load_perfbench

COMMANDS = ("solve-ot", "static-eq", "dynamic-sim", "distributed-sim")

check = load_perfbench("check")
generate = load_perfbench("generate")

# Instance -> the ops the benchmark's workloads run on instances of its kind.
INSTANCES = {
    "paper": (None, COMMANDS),
    "dense-5x10": (lambda: generate.dense_pool(5, 10, 1, 1)[0], COMMANDS),
    "sparse": (lambda: generate.sparse_pool(1, 1)[0], ("static-eq",)),
}


def _scenario_path(tmp_path, name):
    make = INSTANCES[name][0]
    if make is None:
        return SCENARIO_DIR / "paper_2x3.json"
    path = tmp_path / f"{name}.json"
    path.write_text(generate.scenario_text(make()), encoding="utf-8")
    return path


def _check_distributed_log(out):
    log = MessageLog.from_text((out / "messages.log").read_text(encoding="utf-8"))
    assert check.check_replay(replay(log), out) == []


def test_checker_self_test_passes(tmp_path):
    assert check.self_test(advot.cli.main, tmp_path) == []


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_every_op_passes_the_benchmark_checks(tmp_path, name):
    path = _scenario_path(tmp_path, name)
    scenario = check.Scenario.load(path)
    for command in INSTANCES[name][1]:
        out = tmp_path / command
        status = advot.cli.main([command, "--config", str(path), "--out", str(out)])
        assert check.check_cli(command, status, out, scenario) == [], command
        if command == "distributed-sim":
            _check_distributed_log(out)


@pytest.mark.parametrize("schedule", ["sync", "async", "roundrobin"])
@pytest.mark.parametrize("name", ["paper", "dense-5x10"])
def test_distributed_sim_passes_the_benchmark_checks_on_every_schedule(tmp_path, name, schedule):
    # the checker counts messages.log's lines against report["messages"]
    path = _scenario_path(tmp_path, name)
    out = tmp_path / schedule
    status = advot.cli.main(
        ["distributed-sim", "--config", str(path), "--out", str(out), "--schedule", schedule]
    )
    assert check.check_cli("distributed-sim", status, out, check.Scenario.load(path)) == []
    _check_distributed_log(out)
