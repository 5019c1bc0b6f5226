"""Simulated asynchronous dual pricing.

Each source node is an agent owning only its own price, capacity and plan
row; target nodes recompute the adversary's per-node actions from the rates
they have received.  A seeded scheduler drives activations and every exchange
goes through an append-only message log, so a run is fully determined by
(scenario, schedule, seed) and can be reconstructed from the log alone.  An
activated agent with no new weights stays silent: its tick would reproduce
the price and rates it last sent, so the log holds only new values and
the replayed report is still bit-exact.

The hub refreshes the targets' actions as soon as every agent has answered
its latest weights (an event-triggered refresh), so each refresh sees the
exact Jacobi iterate whatever the schedule, and it takes the same
Anderson-accelerated step as the centralized equilibrium loop.  The plan,
the prices, the message count and every trace row apart from its tick are
therefore the same under every schedule.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .errors import CorruptLog, NonFiniteIterate, ValidationError
from .network import PERTURBATION_FLOOR
from .static_game import TYPE_VALUES, GameSpec, _aggregates, _anderson_step, _perceived
from .static_game import minimize_node_cost  # the benchmark's tracer wraps it by this name
from .transport import SolveReport, _check_integer, row_prices

logger = logging.getLogger(__name__)

SCHEDULE_MODES = ("synchronous", "random-subset", "round-robin")


@dataclass(frozen=True)
class Schedule:
    """Activation policy for the simulated agents.

    ``activation`` is the per-agent probability per tick in random-subset
    mode; it must stay positive so every agent keeps activating.
    """

    mode: str = "random-subset"
    activation: float = 0.5
    seed: int = 0
    max_ticks: int = 50_000

    def __post_init__(self):
        if self.mode not in SCHEDULE_MODES:
            raise ValidationError(f"unknown schedule mode {self.mode!r}")
        if not (0.0 < self.activation <= 1.0):
            raise ValidationError("activation probability must lie in (0, 1]")
        _check_integer(self.max_ticks, "max_ticks")
        if self.max_ticks < 1:
            raise ValidationError("max_ticks must be >= 1")
        _check_integer(self.seed, "seed")
        if self.seed < 0:  # numpy's generator takes no negative seed
            raise ValidationError("seed must be >= 0")


@dataclass(frozen=True)
class Message:
    """One exchange, built on demand when a :class:`MessageLog` is iterated."""

    tick: int
    sender: str
    receiver: str
    kind: str
    payload: dict


# Message kind codes.  Codes below TOPOLOGY are rows of a log's table; the
# topology and the final marker are held once per log.
STRATEGY, PRICE, RATE, WEIGHT, TRACE, TOPOLOGY, FINAL = range(7)

_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(value) -> str:
    """``value`` as one canonical log record writes it."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _json_float(value: float) -> str:
    """A float as ``json.dumps`` writes it: its repr, or NaN/Infinity/-Infinity."""
    text = float.__repr__(value)
    return _JSON_NON_FINITE.get(text, text)


def _record_line(message: Message) -> str:
    return _json({
        "tick": message.tick,
        "sender": message.sender,
        "receiver": message.receiver,
        "kind": message.kind,
        "payload": message.payload,
    })


def _fragments(sources, targets, edges) -> tuple[list, list, list, list]:
    """Per-target, per-source and per-edge text of the canonical row records.

    Each strategy, price and rate fragment runs from the comma after the
    row's values up to its tick; a weight record's value sits between the
    two parts of its edge's fragment pair.  Sender and receiver follow from
    the node or edge, so the fragments carry them too.
    """
    # each node's id and its src:/tgt: label as JSON text, encoded once
    src = {s: (_json(s), _json(f"src:{s}")) for s in sources}
    tgt = {t: (_json(t), _json(f"tgt:{t}")) for t in targets}
    strategy = [f',"target":{t}}},"receiver":"hub","sender":{tl},"tick":' for t, tl in tgt.values()]
    price = [f',"source":{s}}},"receiver":"hub","sender":{sl},"tick":' for s, sl in src.values()]
    rate, weight = [], []
    for s, t in edges:
        (s, s_label), (t, t_label) = src[s], tgt[t]
        rate.append(f',"source":{s},"target":{t}}},"receiver":{t_label},"sender":{s_label},"tick":')
        weight.append((f'"source":{s},"target":{t},"weight":',
                       f'}},"receiver":{s_label},"sender":{t_label},"tick":'))
    return strategy, price, rate, weight


_TICK = r"(0|[1-9][0-9]*)\}"
_VALUE = r"([^,}]+)"
_STRATEGY_LINE = re.compile(
    r'\{"kind":"strategy","payload":\{"major":' + _VALUE + ',"minor":' + _VALUE
    + r'(,"target":.*"tick":)' + _TICK
)
_PRICE_LINE = re.compile(
    r'\{"kind":"price","payload":\{"price":' + _VALUE + r'(,"source":.*"tick":)' + _TICK
)
_RATE_LINE = re.compile(
    r'\{"kind":"rate","payload":\{"rate":' + _VALUE + r'(,"source":.*"tick":)' + _TICK
)
_WEIGHT_LINE = re.compile(
    r'\{"kind":"weight","payload":\{("source":.*,"weight":)' + _VALUE
    + r'(\},"receiver":.*"tick":)' + _TICK
)
_TRACE_LINE = re.compile(
    r'\{"kind":"trace","payload":\{"objective":' + _VALUE + ',"residual":' + _VALUE
    + r'\},"receiver":"hub","sender":"hub","tick":' + _TICK
)
_FINAL_LINE = re.compile(
    r'\{"kind":"final","payload":\{"converged":(true|false),"residual":' + _VALUE
    + r',"ticks":(0|[1-9][0-9]*)\},"receiver":"hub","sender":"hub","tick":' + _TICK
)


def _read_float(text: str) -> float:
    """The float whose canonical text is ``text``; ValueError for any other text."""
    value = float(text)
    if _json_float(value) != text:
        raise ValueError(f"{text!r} is not a canonical float")
    return value


def _read_topology(line: str) -> tuple:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorruptLog(f"malformed log line 1: {exc.msg}") from exc
    if not isinstance(obj, dict) or obj.get("kind") != "topology":
        raise CorruptLog("log line 1 is not a topology record")
    try:
        payload = obj["payload"]
        sources, targets = tuple(payload["sources"]), tuple(payload["targets"])
        # each edge takes its ends' listed ids: a dangling or respelled end fails
        source_of, target_of = dict(zip(sources, sources)), dict(zip(targets, targets))
        edges = tuple((source_of[s], target_of[t]) for s, t in payload["edges"])
        topology = (sources, targets, edges)
        unique = all(len(set(part)) == len(part) for part in topology)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptLog("log line 1: topology record is malformed") from exc
    if not unique or line != _record_line(_topology_message(topology)):
        raise CorruptLog("log line 1: topology record is malformed")
    return topology


def _topology_message(topology) -> Message:
    sources, targets, edges = topology
    return Message(
        0, "hub", "hub", "topology",
        {"sources": list(sources), "targets": list(targets), "edges": [list(e) for e in edges]},
    )


def _final_message(final) -> Message:
    ticks, residual, converged = final
    return Message(
        ticks, "hub", "hub", "final",
        {"ticks": ticks, "residual": residual, "converged": converged},
    )


class MessageLog:
    """Append-only, replayable record of every exchange in a run, one row per message.

    The topology (source ids, target ids, edges) is held once.  Every other
    message is a row of five columns: ``ticks``, ``kinds`` (a kind code),
    ``index`` (the target of a strategy, the source of a price, the edge of
    a rate or weight) and two floats, ``value`` and ``value2`` (minor and
    major; price; rate; weight; residual and objective; a one-value kind
    leaves ``value2`` at 0.0).  The final marker is ``final = (ticks,
    residual, converged)``.  Sender, receiver and payload keys follow from
    kind and index; iterating a log builds :class:`Message` views of its
    records.
    """

    def __init__(self):
        self.topology: tuple | None = None
        self.ticks: list[int] = []
        self.kinds: list[int] = []
        self.index: list[int] = []
        self.value: list[float] = []
        self.value2: list[float] = []
        self.final: tuple | None = None

    def append(self, tick: int, kind: int, index: int = 0, value=None, value2=0.0) -> None:
        """Record one message.

        The topology record passes ``value = (sources, targets, edges)``, each
        edge a pair of listed ids; the final marker passes the residual and
        the converged flag, at the tick count.
        """
        if kind < TOPOLOGY:
            self.ticks.append(tick)
            self.kinds.append(kind)
            self.index.append(index)
            self.value.append(value)
            self.value2.append(value2)
        elif kind == TOPOLOGY:
            sources, targets, edges = value
            self.topology = (tuple(sources), tuple(targets), tuple(tuple(e) for e in edges))
        else:
            self.final = (tick, value, value2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MessageLog):
            return NotImplemented
        return vars(self) == vars(other)

    def __len__(self) -> int:
        return len(self.ticks) + (self.topology is not None) + (self.final is not None)

    def __iter__(self):
        if self.topology is not None:
            yield _topology_message(self.topology)
        sources, targets, edges = self.topology or ((), (), ())
        for tick, kind, i, value, value2 in zip(
            self.ticks, self.kinds, self.index, self.value, self.value2
        ):
            if kind == RATE:
                s, t = edges[i]
                yield Message(
                    tick, f"src:{s}", f"tgt:{t}", "rate", {"source": s, "target": t, "rate": value}
                )
            elif kind == WEIGHT:
                s, t = edges[i]
                yield Message(
                    tick, f"tgt:{t}", f"src:{s}", "weight",
                    {"source": s, "target": t, "weight": value},
                )
            elif kind == PRICE:
                s = sources[i]
                yield Message(tick, f"src:{s}", "hub", "price", {"source": s, "price": value})
            elif kind == STRATEGY:
                t = targets[i]
                yield Message(
                    tick, f"tgt:{t}", "hub", "strategy",
                    {"target": t, "minor": value, "major": value2},
                )
            else:
                yield Message(tick, "hub", "hub", "trace", {"residual": value, "objective": value2})
        if self.final is not None:
            yield _final_message(self.final)

    def to_text(self) -> str:
        """Newline-delimited canonical JSON records; floats round-trip exactly.

        Each line is ``json.dumps(record, sort_keys=True, separators=(",", ":"))``
        of the message; the node and edge parts of the row records are built
        once per call.
        """
        if self.topology is None:
            return ""
        strategy, price, rate, weight = _fragments(*self.topology)
        fmt = _json_float
        lines = [_record_line(_topology_message(self.topology))]
        add = lines.append
        for tick, kind, i, value, value2 in zip(
            self.ticks, self.kinds, self.index, self.value, self.value2
        ):
            if kind == RATE:
                add(f'{{"kind":"rate","payload":{{"rate":{fmt(value)}{rate[i]}{tick}}}')
            elif kind == WEIGHT:
                head, tail = weight[i]
                add(f'{{"kind":"weight","payload":{{{head}{fmt(value)}{tail}{tick}}}')
            elif kind == PRICE:
                add(f'{{"kind":"price","payload":{{"price":{fmt(value)}{price[i]}{tick}}}')
            elif kind == STRATEGY:
                add(f'{{"kind":"strategy","payload":{{"major":{fmt(value2)},"minor":{fmt(value)}'
                    f'{strategy[i]}{tick}}}')
            else:
                add(f'{{"kind":"trace","payload":{{"objective":{fmt(value2)},'
                    f'"residual":{fmt(value)}}},"receiver":"hub","sender":"hub","tick":{tick}}}')
        if self.final is not None:
            add(_record_line(_final_message(self.final)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "MessageLog":
        """Read a log written by :meth:`to_text`.

        The first line must be a topology record.  Every later line must be
        exactly the canonical record of one message over that topology, and
        nothing may follow the final marker; any other line raises
        :class:`CorruptLog` naming its line number.
        """
        log = cls()
        lines = text.splitlines()
        if not lines:
            return log
        log.topology = _read_topology(lines[0])
        strategy, price, rate, weight = (
            {fragment: i for i, fragment in enumerate(part)} for part in _fragments(*log.topology)
        )
        ticks, kinds, index, values, values2 = (
            log.ticks, log.kinds, log.index, log.value, log.value2
        )
        for lineno, line in enumerate(lines[1:], start=2):
            if log.final is not None:
                raise CorruptLog(f"log line {lineno} follows the final marker")
            value2 = 0.0
            try:
                if match := _RATE_LINE.fullmatch(line):
                    kind, i, value, tick = RATE, rate[match[2]], _read_float(match[1]), match[3]
                elif match := _WEIGHT_LINE.fullmatch(line):
                    kind, i, tick = WEIGHT, weight[match.group(1, 3)], match[4]
                    value = _read_float(match[2])
                elif match := _PRICE_LINE.fullmatch(line):
                    kind, i, value, tick = PRICE, price[match[2]], _read_float(match[1]), match[3]
                elif match := _STRATEGY_LINE.fullmatch(line):
                    kind, i, tick = STRATEGY, strategy[match[3]], match[4]
                    value, value2 = _read_float(match[2]), _read_float(match[1])
                elif match := _TRACE_LINE.fullmatch(line):
                    kind, i, tick = TRACE, 0, match[3]
                    value, value2 = _read_float(match[2]), _read_float(match[1])
                elif match := _FINAL_LINE.fullmatch(line):
                    if match[3] != match[4]:
                        raise ValueError("the final marker's tick is not its tick count")
                    log.final = (int(match[4]), _read_float(match[2]), match[1] == "true")
                    continue
                else:
                    raise CorruptLog(f"log line {lineno} is not a message record")
            except (KeyError, ValueError) as exc:
                raise CorruptLog(
                    f"log line {lineno} is not a canonical record of its topology"
                ) from exc
            ticks.append(int(tick))
            kinds.append(kind)
            index.append(i)
            values.append(value)
            values2.append(value2)
        return log


@dataclass
class SourceAgent:
    """One source node; reads and writes nothing but its own row and price."""

    capacity: float
    lam: float
    weights: np.ndarray  # effective weights on this agent's edges
    rates: np.ndarray  # this agent's plan row, same edge order as weights
    price: float = 0.0
    inbox: list[tuple[int, float]] = field(default_factory=list)

    def deliver(self, local_edge: int, weight: float) -> None:
        self.inbox.append((local_edge, weight))

    def tick(self) -> None:
        """Apply pending weight updates, then set the exact price of this row and its rates."""
        for local_edge, weight in self.inbox:
            self.weights[local_edge] = weight
        self.inbox.clear()
        rows = np.zeros(len(self.weights), dtype=int)
        self.price = float(row_prices(self.weights, rows, np.array([self.capacity]), self.lam)[0])
        self.rates = np.exp((self.weights - self.price) / self.lam - 1.0)


def _active_agents(schedule: Schedule, tick: int, rng: np.random.Generator, n: int) -> list[int]:
    if schedule.mode == "synchronous":
        return list(range(n))
    if schedule.mode == "round-robin":
        return [(tick - 1) % n]
    draws = rng.random(n)
    return [j for j in range(n) if draws[j] < schedule.activation]


def _snapshot_row(tick, plan, prices, xi, residual, objective) -> dict:
    return {
        "tick": int(tick),
        "plan": tuple(plan.tolist()),
        "prices": tuple(prices.tolist()),
        "xi_minor": tuple(xi[:, 0].tolist()),
        "xi_major": tuple(xi[:, 1].tolist()),
        "residual": float(residual),
        "objective": float(objective),
    }


def run_distributed(spec: GameSpec, schedule: Schedule) -> tuple[SolveReport, MessageLog]:
    """Drive the agents to the centralized fixed point through messages only.

    Activated agents set the exact price of their own row (:func:`row_prices`
    on that row alone) and mail their new rates to the target nodes they
    touch.  An agent ticks and sends only while it holds weights it has not
    priced (at first, and after each refresh); any other tick would resend
    the same values, so it stays silent, and the trajectory and :func:`replay`
    of the log stay bit-exact.  The hub refreshes as soon as every agent has
    priced its latest weights, so it sees exact Jacobi iterates and the
    result does not depend on the schedule.  At a refresh each target takes
    its per-type best response ``g`` to the rates seen, and the next action,
    :func:`_anderson_step` of ``g`` and ``f = g - xi`` clipped into ``[floor,
    caps]``, is mailed back as effective weights.  Terminates once the global
    residual, the complementary slackness of the prices and rates the hub
    received and ``max|f|``, drops to ``spec.settings.tol`` (each refresh
    waits until every agent has priced the weights it was last sent, so no
    stationarity term is needed), returning the assembled plan; comes back with
    ``converged=False`` when ``g`` equals the action held bit for bit while
    the residual is above ``tol`` (every later tick would repeat the state),
    or at ``max_ticks``.  Raises :class:`NonFiniteIterate` at a refresh whose
    rates are not finite.
    """
    network = spec.network
    settings = spec.settings
    n, m = network.n_sources, network.n_targets
    caps = spec.caps()
    params = spec.cost_params

    log = MessageLog()
    append = log.append
    append(0, TOPOLOGY, value=(network.source_ids, network.target_ids, network.edges))

    xi = caps.copy()
    for q, (minor, major) in enumerate(xi.tolist()):
        append(0, STRATEGY, q, minor, major)

    # Edges are in row-major order: agent j's row is the block start[j]:start[j + 1].
    start = network.row_starts
    capacities = network.capacities.tolist()
    weights = _perceived(network, spec.weights, xi, spec.belief)
    agents = [
        SourceAgent(
            capacity=capacities[j],
            lam=settings.lam,
            weights=weights[start[j]:start[j + 1]].copy(),
            rates=np.zeros(start[j + 1] - start[j]),
        )
        for j in range(n)
    ]
    # (edge, agent, slot in the agent's row) of every edge into each target, in edge order
    edge_source = network.edge_source.tolist()
    into = np.argsort(network.edge_target, kind="stable").tolist()
    bounds = [0, *accumulate(np.bincount(network.edge_target, minlength=m).tolist())]
    inbound = [
        [(e, edge_source[e], e - start[edge_source[e]]) for e in into[bounds[q]:bounds[q + 1]]]
        for q in range(m)
    ]

    rates_seen = np.zeros(network.n_edges)  # latest rate message per edge
    prices_seen = np.zeros(n)  # latest price message per agent
    rng = np.random.default_rng(schedule.seed)
    history: list = []  # the hub's Anderson memory
    trace: list[dict] = []
    converged = False
    residual = float("inf")
    tick = 0
    # Agents that have not priced their latest weights.  Every source has an
    # edge, so each refresh mails every agent new weights.
    waiting = set(range(n))
    for tick in range(1, schedule.max_ticks + 1):
        for j in _active_agents(schedule, tick, rng, n):
            if j not in waiting:
                continue  # a tick would resend the same price and rates
            waiting.discard(j)
            agent = agents[j]
            agent.tick()
            append(tick, PRICE, j, agent.price)
            prices_seen[j] = agent.price
            for e, rate in enumerate(agent.rates.tolist(), start[j]):
                append(tick, RATE, e, rate)
            rates_seen[start[j]:start[j + 1]] = agent.rates
        if waiting:
            continue

        if not np.all(np.isfinite(rates_seen)):
            raise NonFiniteIterate(tick, f"rates became non-finite at tick {tick}")
        scale, flow = _aggregates(network, rates_seen, params)
        g = minimize_node_cost(scale[:, None], flow[:, None] * TYPE_VALUES, params.beta2, caps)
        f = g - xi

        slackness = max(
            abs(min(price, capacity - float(np.sum(rates_seen[a:b]))))
            for price, capacity, a, b in zip(prices_seen.tolist(), capacities, start, start[1:])
        )
        residual = max(slackness, float(np.max(np.abs(f))))
        stalled = np.array_equal(g, xi)

        xi = np.clip(_anderson_step(history, g, f), PERTURBATION_FLOOR, caps)
        weights = _perceived(network, spec.weights, xi, spec.belief).tolist()
        for q, (minor, major) in enumerate(xi.tolist()):
            append(tick, STRATEGY, q, minor, major)
            for e, j, local in inbound[q]:
                weight = weights[e]
                append(tick, WEIGHT, e, weight)
                agents[j].deliver(local, weight)
        waiting.update(range(n))

        objective = float(np.dot(spec.weights, rates_seen))
        append(tick, TRACE, 0, residual, objective)
        trace.append(_snapshot_row(tick, rates_seen, prices_seen, xi, residual, objective))
        if residual <= settings.tol:
            converged = True
            break
        if stalled:
            # f = 0 fits gamma = 0, so the mailed weights are the ones held and
            # every later tick would repeat this state
            logger.warning(
                "distributed run stalled at tick %d: the targets' best response equals the "
                "action held, with residual %.3e above tol %.3e",
                tick, residual, settings.tol,
            )
            break
    else:
        logger.info("distributed run hit max_ticks=%d (residual %.3e)", schedule.max_ticks, residual)

    append(tick, FINAL, 0, residual, converged)
    report = SolveReport(
        plan=rates_seen.copy(),
        prices=prices_seen.copy(),
        iterations=tick,
        residual=residual,
        converged=converged,
        trace=trace,
    )
    return report, log


def replay(log: MessageLog) -> SolveReport:
    """Rebuild the final report from the message log alone.

    The reconstruction is purely mechanical (latest rate per edge, latest
    price per source, logged trace scalars), so it matches the original
    report bit-exactly; a log without its topology or its final marker
    raises :class:`CorruptLog`.
    """
    if log.topology is None:
        raise CorruptLog("log does not start with a topology record")
    if log.final is None:
        raise CorruptLog("log is truncated: no final marker")
    sources, targets, edges = log.topology
    plan = np.zeros(len(edges))
    prices = np.zeros(len(sources))
    xi = np.zeros((len(targets), 2))
    trace: list[dict] = []
    for tick, kind, i, value, value2 in zip(log.ticks, log.kinds, log.index, log.value, log.value2):
        if kind == RATE:
            plan[i] = value
        elif kind == PRICE:
            prices[i] = value
        elif kind == STRATEGY:
            xi[i, 0] = value
            xi[i, 1] = value2
        elif kind == TRACE:
            trace.append(_snapshot_row(tick, plan, prices, xi, value, value2))
        # weights influence agents, not the assembled state
    ticks, residual, converged = log.final
    return SolveReport(
        plan=plan,
        prices=prices,
        iterations=int(ticks),
        residual=float(residual),
        converged=bool(converged),
        trace=trace,
    )
