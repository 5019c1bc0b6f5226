"""Spans and work counters around the program's public entry points.

The tracer replaces entry points with wrappers *where their callers look them
up* (``advot.static_game.solve_regularized_ot`` is a different binding from
``advot.dynamic_game.solve_regularized_ot``), only while ``installed`` is
active, so calls made outside it run the unmodified program.

In timed mode every wrapped call records a span ``(name, start, end, parent,
op_id)``; spans stay in memory until the run ends and ``layer_times`` derives
self times from them: a span's duration minus the time its child spans
cover.  In counting mode no clock is read and no span is kept; only the work
counters advance.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from time import perf_counter

# Span name -> per-layer metric that receives its self time.
SELF_TIME_METRICS = {
    "cli.main": "cli.self_s",
    "scenario.parse": "scenario.parse_s",
    "scenario.run_command": "scenario.self_s",
    "scenario.trace_records": "scenario.trace_records_s",
    "scenario.emit": "scenario.emit_s",
    "transport.solve": "transport.self_s",
    "static_game.equilibrium": "static_game.self_s",
    "static_game.cert": "static_game.cert_s",
    "static_game.adversary_br": "static_game.adversary_br_s",
    "dynamic_game.run": "dynamic_game.self_s",
    "dynamic_game.adversary_br": "dynamic_game.adversary_br_s",
    "dynamic_game.belief_update": "dynamic_game.belief_update_s",
    "distributed.run": "distributed.self_s",
    "distributed.agent_tick": "distributed.agent_tick_s",
    "distributed.refresh_br": "distributed.refresh_br_s",
    "distributed.log_append": "distributed.log_append_s",
    "distributed.log_write": "distributed.log_write_s",
    "distributed.log_read": "distributed.log_read_s",
    "distributed.replay": "distributed.replay_s",
}

COUNT_METRICS = (
    "transport.calls",
    "transport.iters",
    "transport.unconverged",
    "static_game.rounds",
    "dynamic_game.stages",
    "dynamic_game.rounds",
    "distributed.ticks",
    "distributed.agent_ticks",
    "distributed.messages",
    "distributed.log_bytes",
)


def _count_transport(counts: Counter, report) -> None:
    counts["transport.calls"] += 1
    counts["transport.iters"] += report.iterations
    counts["transport.unconverged"] += not report.converged


def _count_static(counts: Counter, profile) -> None:
    counts["static_game.rounds"] += profile.iterations


def _count_dynamic(counts: Counter, outcomes) -> None:
    counts["dynamic_game.stages"] += len(outcomes)
    counts["dynamic_game.rounds"] += sum(o.profile.iterations for o in outcomes)


def _count_distributed(counts: Counter, result) -> None:
    counts["distributed.ticks"] += result[0].iterations


def _count_agent_tick(counts: Counter, _result) -> None:
    counts["distributed.agent_ticks"] += 1


def _count_append(counts: Counter, _result) -> None:
    counts["distributed.messages"] += 1


def _count_log_bytes(counts: Counter, text: str) -> None:
    # to_text emits ASCII-only JSON, so characters are bytes.
    counts["distributed.log_bytes"] += len(text)


def _targets(advot):
    """(owner, attribute, span name, counter) for every wrapped entry point."""
    cli, scenario = advot.cli, advot.scenario
    static_game, dynamic_game, distributed = advot.static_game, advot.dynamic_game, advot.distributed
    return [
        (cli, "main", "cli.main", None),
        (cli, "parse_scenario", "scenario.parse", None),
        (scenario.ScenarioConfig, "with_overrides", "scenario.parse", None),
        (cli, "run_command", "scenario.run_command", None),
        (scenario, "ot_trace_records", "scenario.trace_records", None),
        (scenario, "static_trace_records", "scenario.trace_records", None),
        (scenario, "dynamic_trace_records", "scenario.trace_records", None),
        (scenario, "distributed_trace_records", "scenario.trace_records", None),
        (scenario, "emit_trace", "scenario.emit", None),
        (scenario, "solve_regularized_ot", "transport.solve", _count_transport),
        (static_game, "solve_regularized_ot", "transport.solve", _count_transport),
        (dynamic_game, "solve_regularized_ot", "transport.solve", _count_transport),
        (scenario, "solve_bayesian_equilibrium", "static_game.equilibrium", _count_static),
        (static_game, "deviation_check", "static_game.cert", None),
        (static_game, "best_response_strategy", "static_game.adversary_br", None),
        (scenario, "run_dynamic_game", "dynamic_game.run", _count_dynamic),
        (dynamic_game, "stage_adversary_best_response", "dynamic_game.adversary_br", None),
        (dynamic_game, "belief_update", "dynamic_game.belief_update", None),
        (scenario, "run_distributed", "distributed.run", _count_distributed),
        (distributed.SourceAgent, "tick", "distributed.agent_tick", _count_agent_tick),
        (distributed, "minimize_node_cost", "distributed.refresh_br", None),
        (distributed.MessageLog, "append", "distributed.log_append", _count_append),
        (distributed.MessageLog, "to_text", "distributed.log_write", _count_log_bytes),
        (distributed.MessageLog, "from_text", "distributed.log_read", None),
        (distributed, "replay", "distributed.replay", None),
    ]


class Tracer:
    """Records spans (timed mode) and work counts for the calls it wraps."""

    def __init__(self, advot, timed: bool):
        self.timed = timed
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op_id = -1
        self._targets = _targets(advot)

    def _wrap(self, fn, name: str, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        if not self.timed:
            if count is None:
                return fn

            def counting(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(counts, result)
                return result

            return counting

        def timed(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op_id)
            if count is not None:
                count(counts, result)
            return result

        return timed

    @contextlib.contextmanager
    def installed(self, op_id: int):
        """Wrap every entry point for the duration of one op, then restore them."""
        self._op_id = op_id
        saved = []
        try:
            for owner, attr, name, count in self._targets:
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(original.__func__, name, count))
                else:
                    replacement = self._wrap(original, name, count)
                saved.append((owner, attr, original))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._stack.clear()

    def layer_times(self) -> dict[str, float]:
        """Self time per layer metric, summed over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[SELF_TIME_METRICS[name]] += (end - start) - child_time[index]
        return totals

    def span_seconds(self, name: str) -> float:
        """Total duration of the spans with this name (children included)."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)
