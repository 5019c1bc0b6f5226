"""Scenario files, experiment orchestration and trace emission.

A scenario is a JSON key-value tree (network, weights, adversary, solver,
dynamic, distributed).  Parsing validates every model invariant up front,
with the solver, schedule and stage ranges and the caps' floor, so no run
writes a file for input it then rejects.  It fills documented defaults and
produces a normalized form, so the echo of an effective config re-parses to
an equal config and runs are reproducible byte-for-byte.  Each subcommand's
runner returns its trace table and report fields, and :func:`run_command`
alone writes them and derives the exit status.
"""

from __future__ import annotations

import functools
import json
import logging
from dataclasses import dataclass, replace
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .distributed import SCHEDULE_MODES, Schedule, run_distributed
from .dynamic_game import StageOutcome, check_stage_count, run_dynamic_game
from .errors import ParseError, StageNotConverged, ValidationError
from .network import AdversaryCostParams, BipartiteNetwork, build_network, check_edge_vector, uniform_belief
from .static_game import GameSpec, best_response_strategy, check_tau, deviation_check, solve_bayesian_equilibrium
from .transport import SolveReport, SolverSettings, planner_objective, solve_regularized_ot, unregularized_solve

logger = logging.getLogger(__name__)

SUBCOMMANDS = ("solve-ot", "static-eq", "dynamic-sim", "distributed-sim")

#: The names of the files a run writes; the trace's depends on ``--emit``.
_ECHO_NAME = "config_echo.json"
_TRACE_NAMES = {"csv": "trace.csv", "json": "trace.jsonl"}
_REPORT_NAME = "report.json"
_MESSAGES_NAME = "messages.log"

TRACE_FORMATS = tuple(_TRACE_NAMES)

#: Every file a run can write into its output directory.  A run removes these,
#: and nothing else there, before it writes, so each output is a new file.
OUTPUT_NAMES = (_ECHO_NAME, *_TRACE_NAMES.values(), _REPORT_NAME, _MESSAGES_NAME)

#: The types of a node id: JSON strings and integers, not booleans.
_ID_TYPES = frozenset((str, int))


def _check_block(block: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(block, dict):
        raise ValidationError(f"'{where}' must be a key-value block")
    unknown = set(block) - allowed
    if unknown:
        raise ValidationError(f"unknown field {sorted(unknown)[0]!r} in '{where}'")
    missing = required - set(block)
    if missing:
        raise ValidationError(f"missing field {sorted(missing)[0]!r} in '{where}'")


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"'{where}' must be a number")
    return float(value)


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"'{where}' must be an integer")
    return value


def _one_of(choices, phrase: str):
    """Reader for a field whose value must be one of ``choices``."""

    def read(value, where: str):
        if value not in choices:
            raise ValidationError(f"{where} must be {phrase}")
        return value

    return read


# The scalar blocks: field -> (default, reader), checked in this order.  The
# solver and schedule defaults are those of SolverSettings and Schedule.
_SCALAR_BLOCKS = {
    "solver": {
        "lambda": (SolverSettings.lam, _as_float),
        "tol": (SolverSettings.tol, _as_float),
    },
    "dynamic": {
        "on_failure": ("abort", _one_of(("abort", "continue"), "'abort' or 'continue'")),
        "stages": (5, _as_int),
        "tau": (0.5, _as_float),
    },
    "distributed": {
        "mode": (Schedule.mode, _one_of(SCHEDULE_MODES, f"one of {', '.join(SCHEDULE_MODES)}")),
        "activation": (Schedule.activation, _as_float),
        "seed": (Schedule.seed, _as_int),
        "max_ticks": (Schedule.max_ticks, _as_int),
    },
}

# Solver fields of the former price ascent, which perfbench/generate.py still
# writes: accepted so those files parse, but never read and left out of the echo.
_RETIRED_FIELDS = {"solver": {"gamma", "max_iter"}}


def _as_array(value, where: str) -> np.ndarray:
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"'{where}' must be numeric") from exc


def _edge_values(network: BipartiteNetwork, raw, where: str) -> np.ndarray:
    """Normalize a matrix or flat per-edge list onto canonical edge order, finite values only."""
    arr = _as_array(raw, where)
    if arr.ndim == 2:
        arr = network.edge_vector(arr)
    elif arr.shape != (network.n_edges,):
        raise ValidationError(
            f"'{where}' must be a {network.n_sources}x{network.n_targets} matrix "
            f"or a flat list of {network.n_edges} per-edge values"
        )
    flat = check_edge_vector(arr, network.n_edges, where)
    flat.setflags(write=False)
    return flat


def _normalize(raw: dict) -> "ScenarioConfig":
    _check_block(
        raw,
        {"network", "weights", "adversary", "solver", "dynamic", "distributed"},
        {"network", "weights"},
        "scenario",
    )
    net_raw = raw["network"]
    _check_block(
        net_raw,
        {"sources", "targets", "edges", "capacities"},
        {"sources", "targets", "edges", "capacities"},
        "network",
    )
    id_types = set()
    for key in ("sources", "targets"):
        ids = net_raw[key]
        if not isinstance(ids, list) or not _ID_TYPES.issuperset(types := set(map(type, ids))):
            raise ValidationError(f"'network.{key}' must be a list of string or integer ids")
        id_types |= types
    if not isinstance(edges := net_raw["edges"], list):
        raise ValidationError("'network.edges' must be a list of [source, target] pairs")

    def check_endpoints():
        # build_network names an edge that is not a list or tuple pair; the rest are scanned
        pairs = (edge for edge in edges if isinstance(edge, (list, tuple)))
        if not _ID_TYPES.issuperset(map(type, chain.from_iterable(pairs))):
            raise ValidationError("edge endpoints must be string or integer ids")

    # Of the JSON values only a string equals a string id, so without integer
    # ids an endpoint of another type fails to build; the scan then runs
    # before the failure is raised, and its message still comes first.
    if int in id_types:
        check_endpoints()
    try:
        capacities = _as_array(net_raw["capacities"], "network.capacities")
        network = build_network(net_raw["sources"], net_raw["targets"], edges, capacities)
    except (ValidationError, TypeError):
        check_endpoints()
        raise
    _check_columns(network)
    weights = _edge_values(network, raw["weights"], "weights")
    data = _scalar_blocks(raw)
    spec = None
    if "adversary" in raw:
        adv = raw["adversary"]
        _check_block(
            adv,
            {"lower_caps", "upper_caps", "punishment_coeff", "beta1", "beta2", "prior"},
            {"lower_caps", "upper_caps", "punishment_coeff", "beta1", "beta2"},
            "adversary",
        )
        prior = adv.get("prior", "uniform")
        if isinstance(prior, str):
            if prior != "uniform":
                raise ValidationError("prior must be 'uniform' or an explicit table")
            prior = uniform_belief(network.n_targets)
        # GameSpec owns the caps, prior and coefficient rules.  Only solve-ot takes
        # lambda = 0: the game is checked at the default lambda; game_spec() rejects it.
        spec = GameSpec(
            network=network,
            weights=weights,
            lower_caps=_as_array(adv["lower_caps"], "adversary.lower_caps"),
            upper_caps=_as_array(adv["upper_caps"], "adversary.upper_caps"),
            cost_params=AdversaryCostParams.for_network(
                network,
                _as_array(adv["punishment_coeff"], "adversary.punishment_coeff"),
                _as_float(adv["beta1"], "adversary.beta1"),
                _as_float(adv["beta2"], "adversary.beta2"),
            ),
            belief=_as_array(prior, "adversary.prior"),
            settings=SolverSettings(data["solver"]["lambda"] or SolverSettings.lam,
                                    data["solver"]["tol"]),
        )
    return ScenarioConfig(data, network, weights if spec is None else spec.weights, spec)


def _scalar_blocks(raw: dict) -> dict:
    """The solver, dynamic and distributed blocks with defaults filled, range-checked."""
    data = {}
    for name, fields in _SCALAR_BLOCKS.items():
        block = raw.get(name, {})
        _check_block(block, set(fields) | _RETIRED_FIELDS.get(name, set()), set(), name)
        data[name] = {
            key: read(block.get(key, default), f"{name}.{key}")
            for key, (default, read) in fields.items()
        }
    # Range rules, checked here so that no run writes an echo it then rejects.
    SolverSettings(data["solver"]["lambda"], data["solver"]["tol"])
    Schedule(**data["distributed"])
    check_stage_count(data["dynamic"]["stages"])
    check_tau(data["dynamic"]["tau"])
    return data


@dataclass(eq=False)
class ScenarioConfig:
    """Validated scenario with defaults materialized, each input held once.

    ``data`` holds the solver, dynamic and distributed blocks, ``weights``
    the read-only per-edge weights, and ``spec`` the checked game of the
    adversary block under the solver settings parsed with it, or None when
    the scenario has no such block.  Only :meth:`tree` knows the echo's
    shape; two configs are equal exactly when their echoes are.
    """

    data: dict
    network: BipartiteNetwork
    weights: np.ndarray
    spec: GameSpec | None

    def __eq__(self, other) -> bool:
        return isinstance(other, ScenarioConfig) and _json_text(self.tree()) == _json_text(other.tree())

    def settings(self) -> SolverSettings:
        return SolverSettings(self.data["solver"]["lambda"], self.data["solver"]["tol"])

    def game_spec(self) -> GameSpec:
        """:attr:`spec` under the current solver settings; rejects ``lambda = 0``."""
        if self.spec is None:
            raise ValidationError("this run needs an 'adversary' block in the scenario")
        settings = self.settings()
        return self.spec if self.spec.settings == settings else replace(self.spec, settings=settings)

    def schedule(self) -> Schedule:
        return Schedule(**self.data["distributed"])

    def dynamic_params(self) -> tuple[int, float, str]:
        block = self.data["dynamic"]
        return block["stages"], block["tau"], block["on_failure"]

    def tree(self) -> dict:
        """The echo's tree: the arrays as they are, for :func:`_indented`, and the edges encoded once."""
        network, spec = self.network, self.spec
        tree = {**self.data, "weights": self.weights, "network": {
            "sources": list(network.source_ids), "targets": list(network.target_ids),
            "edges": _edge_list(network), "capacities": network.capacities,
        }}
        if spec is not None:
            params = spec.cost_params
            tree["adversary"] = {
                "lower_caps": spec.lower_caps, "upper_caps": spec.upper_caps, "prior": spec.belief,
                "punishment_coeff": params.punishment_coeff, "beta1": params.beta1, "beta2": params.beta2,
            }
        return tree

    def with_overrides(
        self,
        lam: float | None = None,
        tol: float | None = None,
        stages: int | None = None,
        tau: float | None = None,
        mode: str | None = None,
        seed: int | None = None,
    ) -> "ScenarioConfig":
        """New config with command-line overrides applied and revalidated.

        Overrides touch only the scalar blocks, so only those are read and
        checked again, by the same readers as a scenario file's values; the
        network, weights and adversary are shared with this config.  Returns
        this config itself when every override is ``None``.
        """
        if all(v is None for v in (lam, tol, stages, tau, mode, seed)):
            return self
        raw = {name: dict(self.data[name]) for name in _SCALAR_BLOCKS}
        for block, key, value in (
            ("solver", "lambda", lam), ("solver", "tol", tol),
            ("dynamic", "stages", stages), ("dynamic", "tau", tau),
            ("distributed", "mode", mode), ("distributed", "seed", seed),
        ):
            if value is not None:
                raw[block][key] = value
        return ScenarioConfig(_scalar_blocks(raw), self.network, self.weights, self.spec)


#: Leaf types the C encoder writes as ``json.dumps`` does: ``float.__repr__``,
#: ``int.__repr__``, ``true``/``false``/``null`` and ASCII-escaped strings.
_LEAF_TYPES = frozenset((str, int, float, bool, type(None)))

#: Encodes a leaf, or a list of leaves in one C call with one value per line:
#: encoded JSON never holds a raw newline, so ``"\n"`` splits it into values.
_LEAF_LINES = json.JSONEncoder(separators=("\n", ": "))


class _Encoded(str):
    """JSON text that :func:`_indented` laid out at the top level, with ``newline = "\\n"``."""


def _edge_list(network: BipartiteNetwork) -> _Encoded:
    """:func:`_json_text` of ``network.edges`` without its newline, from each node id encoded once."""
    sources, targets = (np.array(_LEAF_LINES.encode(list(ids))[1:-1].split("\n"), dtype=object)
                        for ids in (network.source_ids, network.target_ids))
    rows = sources[network.edge_source] + ",\n    " + targets[network.edge_target]
    return _Encoded("[\n  [\n    " + "\n  ],\n  [\n    ".join(rows.tolist()) + "\n  ]\n]")


def _json_text(payload: dict) -> str:
    """The layout of every JSON file a run writes: sorted keys, two-space indent.

    Exactly ``json.dumps(payload, indent=2, sort_keys=True)`` plus a newline,
    an array in ``payload`` read as its ``tolist()``.  ``indent=2`` alone would
    put every value through the pure-Python encoder; here each list of leaves
    is encoded in one C call and only the containers around them are laid out.
    """
    pieces = []
    _indented(payload, "\n", pieces.append)
    return "".join(pieces) + "\n"


def _write_json(payload: dict, path: Path) -> None:
    """Write :func:`_json_text` of ``payload`` to ``path``.

    Each piece goes straight to the file (a key's head, a list of leaves, a
    closing bracket), so no container's text is ever joined.
    """
    with path.open("w", encoding="utf-8") as handle:
        _indented(payload, "\n", handle.write)
        handle.write("\n")


def _leaf_rows(rows: list) -> list | None:
    """The leaves of equal-width rows of leaves, row by row, or None for any other list."""
    if not {list, tuple}.issuperset(map(type, rows)):
        return None
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        return None
    flat = list(chain.from_iterable(rows))
    return flat if _LEAF_TYPES.issuperset(map(type, flat)) else None


#: The encoder, per indent, of a list of leaves in one C call with ``"," + inner`` between values.
_leaf_list_encoder = functools.cache(lambda inner: json.JSONEncoder(separators=("," + inner, ": ")))


def _indented(value, newline: str, write) -> None:
    """Write ``value`` as indented JSON whose lines start with ``newline``, piece by piece."""
    kind = type(value)
    inner = newline + "  "
    if kind in _LEAF_TYPES:
        write(_LEAF_LINES.encode(value))
    elif kind is _Encoded:  # encoded JSON holds no raw newline, so only its layout moves
        write(value.replace("\n", newline))
    elif kind is np.ndarray:  # listed here, so only the array being laid out is Python floats
        _indented(value.tolist(), newline, write)
    elif kind is dict and value and all(type(key) is str for key in value):
        head = "{"
        for key in sorted(value):
            write(f"{head}{inner}{encode_basestring_ascii(key)}: ")
            _indented(value[key], inner, write)
            head = ","
        write(newline + "}")
    elif (kind is list or kind is tuple) and value:
        if _LEAF_TYPES.issuperset(map(type, value)):
            write("[" + inner)
            write(_leaf_list_encoder(inner).encode(value)[1:-1])
        elif (flat := _leaf_rows(value)) is not None:
            # Every leaf in one C call, then the rows cut back out of its lines.
            cell = inner + "  "
            leaves = _LEAF_LINES.encode(flat)[1:-1].split("\n")
            rows = map(("," + cell).join, zip(*[iter(leaves)] * len(value[0])))
            write("[" + inner + "[" + cell)
            write((inner + "]," + inner + "[" + cell).join(rows))
            write(inner + "]")
        else:
            head = "["
            for item in value:
                write(head + inner)
                _indented(item, inner, write)
                head = ","
        write(newline + "]")
    else:  # empty containers, other keys and other leaf types: the reference encoder itself
        write(json.dumps(value, indent=2, sort_keys=True).replace("\n", newline))


def _unique_keys(pairs: list) -> dict:
    """A JSON object's key-value pairs as a dict, raising :class:`ParseError` on a repeated key."""
    block = dict(pairs)
    if len(block) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for k, key in enumerate(keys) if key in keys[:k])
        raise ParseError(f"duplicate key {repeated!r}")
    return block


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a scenario file's contents.

    Raises :class:`ParseError` (position-annotated) for malformed JSON and
    for a key that an object repeats, and :class:`ValidationError` naming the
    violated invariant otherwise.
    """
    if not text.strip():
        raise ParseError("scenario file is empty")
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError as exc:  # the decoder's depth limit: name where the value starts
        start = json.JSONDecodeError("", text, len(text) - len(text.lstrip(" \t\n\r")))
        raise ParseError("value nests too deeply", start.lineno, start.colno) from exc
    if not isinstance(raw, dict):
        raise ParseError("scenario must be a key-value tree")
    return _normalize(raw)


# ---------------------------------------------------------------------------
# Trace tables and emission

#: Characters that would split or quote a CSV field if they reached a column name.
_CSV_SEPARATORS = (",", '"', "\n", "\r")


def _columns(
    network: BipartiteNetwork, source_prefixes=(), target_prefixes=(), scalars=()
) -> list[str]:
    """A run's trace column names, built once per run.

    ``x_<s>_<t>`` per edge in canonical order, then one column per source for
    each source group (``p_<s>``), one per target for each target group
    (``xi1_<t>``), then the scalars.
    """
    heads = np.array([f"x_{sid}_" for sid in network.source_ids], dtype=object)
    tails = np.array([f"{tid}" for tid in network.target_ids], dtype=object)
    names = (heads[network.edge_source] + tails[network.edge_target]).tolist()
    names += [f"{prefix}_{sid}" for prefix in source_prefixes for sid in network.source_ids]
    names += [f"{prefix}_{tid}" for prefix in target_prefixes for tid in network.target_ids]
    return names + list(scalars)


def _check_columns(network: BipartiteNetwork) -> None:
    """Reject ids whose trace columns would clash or break a CSV row.

    Each name starts with its group's prefix and an underscore (``x_``,
    ``p_``, ``xi1_``, ...), so names of different groups never clash and one
    check over every group covers each run kind's table.  Ids with unique
    texts free of underscores and separators give clean, unique names
    (``x_<s>_<t>`` splits back into its edge); other ids have the names built
    to name the first bad column.
    """
    texts = [list(map(str, ids)) for ids in (network.source_ids, network.target_ids)]
    unique = all(len(set(part)) == len(part) for part in texts)
    if unique and not set("".join(chain(*texts))).intersection(("_", *_CSV_SEPARATORS)):
        return
    seen = set()
    for name in _columns(network, ("p",), ("xi1", "xi2", "mu2")):
        if name in seen:
            raise ValidationError(f"node ids give the trace column {name!r} twice")
        if any(sep in name for sep in _CSV_SEPARATORS):
            raise ValidationError(f"trace column {name!r} contains a comma, a quote or a line break")
        seen.add(name)


def _check_trace_format(fmt: str) -> None:
    if fmt not in TRACE_FORMATS:
        raise ValidationError(f"unknown trace format {fmt!r}")


def emit_trace(kind: str, columns: list[str], rows: list, fmt: str, path: Path) -> Path:
    """Write a run's trace table as CSV or JSON-lines with 12-digit floats.

    ``rows`` holds ``(step, values)`` pairs whose float ``values`` (a list or
    an array, listed only for its own line) line up with ``columns``.  Each
    row is one ``%``-template with a ``%.12g`` field per value, which writes
    what ``format(v, ".12g")`` writes, so identical inputs give identical
    bytes.  Every row's length is checked before the file is opened, so a
    bad row writes nothing; the rows are then written one at a time.
    """
    _check_trace_format(fmt)
    for step, values in rows:
        if len(values) != len(columns):
            raise ValidationError(
                f"trace row {step} has {len(values)} values for {len(columns)} columns"
            )
    path = Path(path)
    if fmt == "csv":
        header = ",".join(["kind", "step", *(columns if rows else ())]) + "\n"
        template = ",".join([_escape_percent(kind), "%s"] + ["%.12g"] * len(columns)) + "\n"
    else:
        header = ""
        template = (
            f'{{"kind": {_escape_percent(json.dumps(kind))}, "step": %s'
            + "".join(f", {_escape_percent(json.dumps(name))}: %.12g" for name in columns)
            + "}\n"
        )
    with path.open("w", encoding="utf-8") as handle:
        handle.write(header)
        for step, values in rows:
            handle.write(template % (step, *np.asarray(values).tolist()))
    return path


def _escape_percent(text: str) -> str:
    return text.replace("%", "%%")


def ot_trace_records(network: BipartiteNetwork, report: SolveReport) -> tuple[list[str], list]:
    columns = _columns(network, ("p",), (), ("residual", "objective"))
    return columns, [
        (row["iteration"],
         np.hstack((row["plan"], row["prices"], row["residual"], row["objective"])))
        for row in report.trace
    ]


def static_trace_records(network: BipartiteNetwork, trace: list[dict]) -> tuple[list[str], list]:
    columns = _columns(
        network, (), ("xi1", "xi2"),
        ("dispatcher_utility", "adversary_cost_minor", "adversary_cost_major"),
    )
    return columns, [
        (row["round"],
         np.hstack((row["plan"], row["xi_minor"], row["xi_major"], row["dispatcher_utility"],
                    row["adversary_cost_minor"], row["adversary_cost_major"])))
        for row in trace
    ]


def dynamic_trace_records(
    network: BipartiteNetwork, outcomes: list[StageOutcome]
) -> tuple[list[str], list]:
    columns = _columns(
        network, (), ("xi1", "xi2", "mu2"),
        ("dispatcher_utility", "adversary_cost_minor", "adversary_cost_major"),
    )
    return columns, [
        (outcome.state.stage,
         np.hstack((outcome.profile.plan, outcome.profile.strategy.T.ravel(),
                    outcome.state.belief[:, 1], outcome.dispatcher_utility,
                    outcome.adversary_cost_minor, outcome.adversary_cost_major)))
        for outcome in outcomes
    ]


def distributed_trace_records(
    network: BipartiteNetwork, report: SolveReport
) -> tuple[list[str], list]:
    columns = _columns(network, ("p",), ("xi1", "xi2"), ("residual", "objective"))
    return columns, [
        (row["tick"],
         np.hstack((row["plan"], row["prices"], row["xi_minor"], row["xi_major"],
                    row["residual"], row["objective"])))
        for row in report.trace
    ]


# ---------------------------------------------------------------------------
# Orchestration: each runner returns ((columns, rows), report fields).
# A game's runner is given its checked GameSpec; solve-ot's is given None.


def _run_solve_ot(config: ScenarioConfig, spec: None, out_dir: Path):
    network, weights = config.network, config.weights
    settings = config.settings()
    if settings.lam == 0:
        plan, prices = unregularized_solve(network, weights), np.zeros(network.n_sources)
        row = {"iteration": 0, "plan": plan, "prices": prices, "residual": 0.0,
               "objective": planner_objective(plan, weights, 0.0)}
        report = SolveReport(plan, prices, 0, 0.0, True, [row])
    else:
        report = solve_regularized_ot(network, weights, settings, record_trace=True)
    return ot_trace_records(network, report), {
        "converged": report.converged,
        "iterations": report.iterations,
        "residual": report.residual,
        "objective": planner_objective(report.plan, weights, settings.lam),
        "plan": report.plan,
        "prices": report.prices,
    }


def _run_static_eq(config: ScenarioConfig, spec: GameSpec, out_dir: Path):
    profile = solve_bayesian_equilibrium(spec, record_trace=True)
    return static_trace_records(spec.network, profile.trace), {
        "converged": profile.converged,
        "rounds": profile.iterations,
        "deviation_gap": profile.deviation_gap,
        "plan": profile.plan,
        "xi_minor": profile.strategy[:, 0],
        "xi_major": profile.strategy[:, 1],
    }


def _run_dynamic_sim(config: ScenarioConfig, spec: GameSpec, out_dir: Path):
    stages, tau, on_failure = config.dynamic_params()
    failed_stage, failure = None, {}
    try:
        outcomes = run_dynamic_game(spec, stages, tau, abort_on_failure=(on_failure == "abort"))
    except StageNotConverged as exc:
        outcomes, failed_stage, profile = exc.outcomes, exc.stage, exc.profile
        failure = {"failed_profile": {
            "rounds": profile.iterations,
            "deviation_gap": profile.deviation_gap,
            "plan": profile.plan,
        }}
    return dynamic_trace_records(spec.network, outcomes), {
        "converged": failed_stage is None and all(o.profile.converged for o in outcomes),
        "failed_stage": failed_stage,
        **failure,
        "stages": [
            {
                "stage": o.state.stage,
                "converged": o.profile.converged,
                "rounds": o.profile.iterations,
                "deviation_gap": o.profile.deviation_gap,
                "dispatcher_utility": o.dispatcher_utility,
                "adversary_cost_minor": o.adversary_cost_minor,
                "adversary_cost_major": o.adversary_cost_major,
                "plan": o.profile.plan,
                "xi_minor": o.profile.strategy[:, 0],
                "xi_major": o.profile.strategy[:, 1],
                "belief_major": o.belief_after[:, 1],
            }
            for o in outcomes
        ],
    }


def _run_distributed_sim(config: ScenarioConfig, spec: GameSpec, out_dir: Path):
    report, log = run_distributed(spec, config.schedule())
    (out_dir / _MESSAGES_NAME).write_text(log.to_text(), encoding="utf-8")
    # the static game's certificate of the final plan against the adversary's best response
    gap = deviation_check(spec, report.plan, best_response_strategy(spec, report.plan))
    return distributed_trace_records(spec.network, report), {
        "converged": report.converged,
        "ticks": report.iterations,
        "residual": report.residual,
        "messages": len(log),
        "plan": report.plan,
        "prices": report.prices,
        "deviation_gap": gap,
    }


_RUNNERS = {
    "solve-ot": _run_solve_ot,
    "static-eq": _run_static_eq,
    "dynamic-sim": _run_dynamic_sim,
    "distributed-sim": _run_distributed_sim,
}


def run_command(subcommand: str, config: ScenarioConfig, out_dir, emit: str = "csv") -> int:
    """Execute one experiment and write config echo, trace and report.

    Once the inputs are checked, the outputs of an earlier run in
    ``out_dir`` (the files named in :data:`OUTPUT_NAMES`, and no other) are
    removed, so the directory then holds this run's outputs alone, even when
    the run fails.  The report is the runner's fields plus the run's
    ``kind`` and the network's ids and edges.  Returns the process exit
    status: 0 on convergence, 2 when the run ended without converging.
    Input errors raise and are mapped by the CLI.
    """
    if subcommand not in _RUNNERS:
        raise ValidationError(f"unknown subcommand {subcommand!r}")
    _check_trace_format(emit)
    # The games' inputs (the adversary block, lam > 0) are checked before any file is written.
    spec = None if subcommand == "solve-ot" else config.game_spec()
    out_dir = Path(out_dir)
    if out_dir.is_dir():
        # No output of an earlier run may survive beside this run's.  Removing
        # them, rather than truncating them on open, also keeps each write from
        # waiting on the disk work the earlier run's files still have pending.
        for name in OUTPUT_NAMES:
            (out_dir / name).unlink(missing_ok=True)
    else:
        out_dir.mkdir(parents=True, exist_ok=True)
    # The echo and the report both list the edges: encoded once, laid out twice.
    tree = config.tree()
    _write_json(tree, out_dir / _ECHO_NAME)
    (columns, rows), fields = _RUNNERS[subcommand](config, spec, out_dir)
    emit_trace(subcommand, columns, rows, emit, out_dir / _TRACE_NAMES[emit])
    del columns, rows  # free the table before the report is laid out
    header = {key: tree["network"][key] for key in ("sources", "targets", "edges")}
    report = {"kind": subcommand, **fields, **header}
    _write_json(report, out_dir / _REPORT_NAME)
    status = 0 if fields["converged"] else 2
    logger.info("%s finished with status %d (outputs in %s)", subcommand, status, out_dir)
    return status
