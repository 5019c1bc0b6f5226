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
exact Jacobi iterate whatever the schedule.  The refreshes are the rounds of
the static equilibrium loop at ``tau = 0``: the agents first price the
adversary-free weights, the first refresh plays the targets' best response
to those rates, where the loop starts, and every later one is a round of
the loop, its stop rule included.  So refresh ``k + 1`` sees the loop's
round-``k`` plan bit for bit, the run ends on the loop's profile, and every
result apart from the ticks is the same under every schedule.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np

from .errors import CorruptLog, NonFiniteIterate, ValidationError
from .static_game import GameSpec, _cost_table, _next_trial, _perceived
from .static_game import minimize_node_cost  # the benchmark's tracer wraps it by this name
from .transport import SolveReport, _check_count, _plan, _slackness, row_prices

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
        _check_count(self.max_ticks, "max_ticks", 1)
        _check_count(self.seed, "seed", 0)  # numpy's generator takes no negative seed


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


#: ``json.dumps(value, sort_keys=True, separators=(",", ":"))``, with its encoder built once.
_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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


#: Characters of a log that :meth:`MessageLog.from_text` splits into lines and
#: checks at once: about 500 records.
_BLOCK_CHARS = 1 << 16


def _line_blocks(text: str, size: int):
    """``text.splitlines()`` in blocks of lines, each from about ``size`` characters.

    A block ends just after a newline, so it never splits a line or a
    ``"\r\n"`` pair.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + size) + 1 or len(text)
        yield text[start:end].splitlines()
        start = end


#: Encodes a list of floats as their canonical texts, comma-separated, in one C call.
_FLOAT_LIST = json.JSONEncoder(separators=(",", ":"))


def _first_misspelled(values: list, texts: list) -> int | None:
    """The position of the first value whose canonical text is not its text, or None.

    One encode of the whole list decides; only a failed list is walked value
    by value.  No float text holds a comma, so the joined texts are equal
    exactly when every pair is.
    """
    if _FLOAT_LIST.encode(values) == "[" + ",".join(texts) + "]":
        return None
    return next(k for k, pair in enumerate(zip(values, texts)) if _json_float(pair[0]) != pair[1])


_NOT_CANONICAL = "log line {} is not a canonical record of its topology"


def _read_topology(line: str) -> tuple:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorruptLog(f"malformed log line 1: {exc.msg}") from exc
    except RecursionError as exc:  # the decoder's depth limit
        raise CorruptLog("malformed log line 1: it nests too deeply") from exc
    if not isinstance(obj, dict) or obj.get("kind") != "topology":
        raise CorruptLog("log line 1 is not a topology record")
    try:
        payload = obj["payload"]
        sources, targets = tuple(payload["sources"]), tuple(payload["targets"])
        # each edge takes its ends' listed ids: a dangling or respelled end fails
        source_of, target_of = dict(zip(sources, sources)), dict(zip(targets, targets))
        edges = tuple((source_of[s], target_of[t]) for s, t in payload["edges"])
        topology = (sources, targets, edges)
        if (not all(len(set(part)) == len(part) for part in topology)
                or line != _record_line(_topology_message(topology))):
            raise ValueError("the topology is not unique or not canonical")
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptLog("log line 1: topology record is malformed") from exc
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
    kind and index; iterating a log reads its :meth:`to_text` records back
    as :class:`Message` values.
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
        # NaN equals NaN in the floats, so a log equals its own read-back.
        exact, floats = zip(*(
            ((log.topology, log.ticks, log.kinds, log.index, log.final and log.final[::2]),
             [*log.value, *log.value2, *(log.final or ())[1:2]])
            for log in (self, other)
        ))
        return exact[0] == exact[1] and np.array_equal(*floats, equal_nan=True)

    def __len__(self) -> int:
        return len(self.ticks) + (self.topology is not None) + (self.final is not None)

    def __iter__(self):
        return (Message(**json.loads(line)) for line in self.to_text().splitlines())

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
        exactly the canonical record of one message over that topology, no
        tick may be below the tick of the line before it (the final
        marker's included), and nothing may follow the final marker; any
        other line raises :class:`CorruptLog` naming its line number.  Each
        line is matched against the pattern of the kind it names.  Float
        spellings are checked once per block of lines, by one encode of the
        block's values compared with their texts, and before a fault on a
        later line of the block is raised, so the error always names the
        first bad line.  The text is split into lines one block at a time,
        so its lines are never all held beside the rows read from them.
        """
        log = cls()
        blocks = _line_blocks(text, _BLOCK_CHARS)
        lines = next(blocks, None)
        if lines is None:
            return log
        log.topology = _read_topology(lines[0])
        strategy, price, rate, weight = (
            {fragment: i for i, fragment in enumerate(part)} for part in _fragments(*log.topology)
        )
        ticks, kinds, index, values, values2 = (
            log.ticks, log.kinds, log.index, log.value, log.value2
        )
        final = None
        tick, stamp = 0, "0"  # the tick of the line before, and its text
        lineno = 1
        for block in chain([lines[1:]], blocks):
            first = lineno - 1  # the block's first row: row r is on line r + 2
            texts, seconds, texts2 = [], [], []  # value texts; strategy and trace value2s and texts
            try:
                for lineno, line in enumerate(block, lineno + 1):
                    if final is not None:
                        raise CorruptLog(f"log line {lineno} follows the final marker")
                    kind = line[9:10]  # after '{"kind":"', each kind's first letter names it
                    text2 = None
                    try:
                        if kind == "r" and (match := _RATE_LINE.fullmatch(line)):
                            text, key, line_stamp = match.groups()
                            code, i = RATE, rate[key]
                        elif kind == "w" and (match := _WEIGHT_LINE.fullmatch(line)):
                            head, text, tail, line_stamp = match.groups()
                            code, i = WEIGHT, weight[head, tail]
                        elif kind == "p" and (match := _PRICE_LINE.fullmatch(line)):
                            text, key, line_stamp = match.groups()
                            code, i = PRICE, price[key]
                        elif kind == "s" and (match := _STRATEGY_LINE.fullmatch(line)):
                            text2, text, key, line_stamp = match.groups()
                            code, i = STRATEGY, strategy[key]
                        elif kind == "t" and (match := _TRACE_LINE.fullmatch(line)):
                            text2, text, line_stamp = match.groups()
                            code, i = TRACE, 0
                        elif kind == "f" and (match := _FINAL_LINE.fullmatch(line)):
                            converged, text, count, line_stamp = match.groups()
                            if count != line_stamp:
                                raise ValueError("the final marker's tick is not its tick count")
                            code = FINAL
                        else:
                            raise CorruptLog(f"log line {lineno} is not a message record")
                        value = float(text)
                        value2 = 0.0 if text2 is None else float(text2)
                    except (KeyError, ValueError) as exc:
                        raise CorruptLog(_NOT_CANONICAL.format(lineno)) from exc
                    if stamp != line_stamp:  # a tick's text is read once per run of equal ticks
                        if int(line_stamp) < tick:
                            raise CorruptLog(f"log line {lineno} goes back in time: "
                                             f"tick {line_stamp} after tick {tick}")
                        tick, stamp = int(line_stamp), line_stamp
                    if code == FINAL:
                        if _json_float(value) != text:
                            raise CorruptLog(_NOT_CANONICAL.format(lineno))
                        final = log.final = (tick, value, converged == "true")
                        continue
                    texts.append(text)
                    if text2 is not None:
                        seconds.append(value2)
                        texts2.append(text2)
                    ticks.append(tick)
                    kinds.append(code)
                    index.append(i)
                    values.append(value)
                    values2.append(value2)
            except CorruptLog:
                _check_spelling(log, first, texts, seconds, texts2)  # the block's earlier lines
                raise
            _check_spelling(log, first, texts, seconds, texts2)
        return log


def _check_spelling(log: MessageLog, start: int, texts: list, seconds: list, texts2: list) -> None:
    """Raise :class:`CorruptLog` at the first row from ``start`` on with a non-canonical float.

    ``texts`` are the texts of the rows' values; ``seconds`` and ``texts2`` the
    second values of the strategy and trace rows among them, and their texts.
    """
    rows = []
    k = _first_misspelled(log.value[start:], texts)
    if k is not None:
        rows.append(start + k)
    k = _first_misspelled(seconds, texts2)
    if k is not None:
        pairs = [r for r in range(start, len(log.kinds)) if log.kinds[r] in (STRATEGY, TRACE)]
        rows.append(pairs[k])
    if rows:
        raise CorruptLog(_NOT_CANONICAL.format(min(rows) + 2))


@dataclass
class SourceAgent:
    """One source node; reads and writes nothing but its own row and price.

    The hub sends the whole weight row at each refresh, in one
    :meth:`deliver`, and the agent ticks at most once between refreshes, so
    a delivery is written into ``weights`` at once and the next
    :meth:`tick` prices it.
    """

    capacity: float
    lam: float
    weights: np.ndarray  # effective weights on this agent's edges
    rates: np.ndarray  # this agent's plan row, same edge order as weights
    price: float = 0.0

    def deliver(self, weights) -> None:
        """Write a new weight row, in this agent's edge order, for the next tick to price."""
        self.weights[:] = weights

    def tick(self) -> None:
        """Set the exact price of this row at its weights, and its rates."""
        rows = np.zeros(len(self.weights), dtype=int)
        self.price = float(row_prices(self.weights, rows, np.array([self.capacity]), self.lam)[0])
        self.rates = _plan(self.weights, self.price, self.lam)


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
    touch.  An agent ticks only while it holds weights it has not priced, the
    adversary-free ``spec.weights`` at first; any other tick would resend the
    same values, so it stays silent and :func:`replay` of the log stays
    bit-exact.  The hub refreshes as soon as every agent has priced its latest
    weights, so the result does not depend on the schedule.  At a refresh
    each target takes its per-type best response ``g`` to the rates seen and
    mails the next action back as effective weights.  The first refresh mails
    ``g`` itself, the equilibrium loop's start, and logs no residual and no
    trace row.  Every later one mails the loop's next trial action,
    ``_next_trial`` of the action held, ``g`` and the rates of this refresh
    and the last; once that stop rule holds it mails ``g`` and ends the run,
    converged if the residual, the complementary slackness of the prices and
    rates received, is at most ``spec.settings.tol`` (else with a WARNING).
    A run that never settles ends unconverged at ``max_ticks``.  Raises
    :class:`NonFiniteIterate` at a refresh whose rates are not finite.
    """
    network, settings, params, caps = spec.network, spec.settings, spec.cost_params, spec.caps()
    n, m = network.n_sources, network.n_targets

    log = MessageLog()
    append = log.append
    append(0, TOPOLOGY, value=(network.source_ids, network.target_ids, network.edges))

    # Edges are in row-major order: agent j's row is the block start[j]:start[j + 1].
    start = network.row_starts
    agents = [
        SourceAgent(
            capacity=float(network.capacities[j]),
            lam=settings.lam,
            weights=spec.weights[start[j]:start[j + 1]].copy(),
            rates=np.zeros(start[j + 1] - start[j]),
        )
        for j in range(n)
    ]
    # the edges into each target, in edge order
    into = np.argsort(network.edge_target, kind="stable").tolist()
    bounds = [0, *accumulate(np.bincount(network.edge_target, minlength=m).tolist())]
    inbound = [into[bounds[q]:bounds[q + 1]] for q in range(m)]

    rates_seen = np.zeros(network.n_edges)  # latest rate message per edge
    prices_seen = np.zeros(n)  # latest price message per agent
    rng = np.random.default_rng(schedule.seed)
    history: list = []  # the hub's Anderson memory
    xi = rates_before = None  # the action held and the rates the last refresh saw
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
        g = minimize_node_cost(*_cost_table(network, rates_seen, params), params.beta2, caps)
        first = xi is None  # the loop's start: the best response to the adversary-free rates
        if first:
            xi = g
        else:
            residual = _slackness(network, prices_seen, rates_seen)
            step = _next_trial(history, xi, g, rates_seen, rates_before, caps)
            xi = g if step is None else step  # a settled refresh mails the profile's strategy
        rates_before = rates_seen.copy()
        weights = _perceived(network, spec.weights, xi, spec.belief)
        mailed = weights.tolist()
        for q, (minor, major) in enumerate(xi.tolist()):
            append(tick, STRATEGY, q, minor, major)
            for e in inbound[q]:
                append(tick, WEIGHT, e, mailed[e])
        for agent, a, b in zip(agents, start, start[1:]):
            agent.deliver(weights[a:b])  # the row its weight messages carry
        waiting.update(range(n))
        if first:
            continue

        objective = float(np.dot(spec.weights, rates_seen))
        append(tick, TRACE, 0, residual, objective)
        trace.append(_snapshot_row(tick, rates_seen, prices_seen, xi, residual, objective))
        if step is None:
            converged = residual <= settings.tol
            if not converged:
                logger.warning("distributed run settled at tick %d with slackness %.3e above tol %.3e",
                               tick, residual, settings.tol)
            break
    else:
        logger.info("distributed run hit max_ticks=%d (residual %.3e)", schedule.max_ticks, residual)

    append(tick, FINAL, 0, residual, converged)
    return SolveReport(rates_seen.copy(), prices_seen.copy(), tick, residual, converged, trace), log


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
