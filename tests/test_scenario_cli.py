from __future__ import annotations

import hashlib
import json
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from advot import (
    GameSpec,
    ParseError,
    Schedule,
    SolverSettings,
    StageNotConverged,
    ValidationError,
    build_network,
    emit_trace,
    parse_scenario,
    run_command,
    run_distributed,
    run_dynamic_game,
)
from advot.scenario import (
    OUTPUT_NAMES,
    SUBCOMMANDS,
    TRACE_FORMATS,
    _check_columns,
    _columns,
    _edge_list,
    _json_text,
    _write_json,
    distributed_trace_records,
)
from advot.cli import main
from advot.static_game import DEVIATION_TOL
from advot.transport import row_prices
from conftest import SCENARIO_DIR, load_perfbench

PAPER = SCENARIO_DIR / "paper_2x3.json"
MINIMAL = SCENARIO_DIR / "minimal_1x1.json"
generate = load_perfbench("generate")


def dense_5x10(tmp_path):
    """The scenario file of ``dense_pool(5, 10, 7, 1)[0]``, the benchmark's generated 5x10 game."""
    path = tmp_path / "dense_5x10.json"
    path.write_text(generate.scenario_text(generate.dense_pool(5, 10, 7, 1)[0]), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# parsing


def test_parse_bundled_paper_scenario():
    config = parse_scenario(PAPER.read_text())
    assert config.network.n_sources == 2
    assert config.network.n_targets == 3
    np.testing.assert_array_equal(config.weights, [1, 3, 5, 2, 5, 1])
    spec = config.game_spec()
    np.testing.assert_array_equal(spec.lower_caps, [6, 4, 4])
    np.testing.assert_array_equal(spec.upper_caps, [8, 10, 10])
    np.testing.assert_array_equal(spec.cost_params.punishment_coeff, [1, 2, 3, 1, 2, 3])
    assert spec.settings.lam == 3.0


def test_parse_bundled_minimal_scenario_fills_defaults():
    config = parse_scenario(MINIMAL.read_text())
    assert config.data["solver"] == {"lambda": 3.0, "tol": 1e-8}
    assert config.data["dynamic"]["tau"] == 0.5
    assert config.spec.belief.tolist() == [[0.5, 0.5]]


def test_retired_solver_fields_parse_to_nothing():
    # the benchmark generator still writes the retired ascent's step and budget
    game = generate.dense_pool(5, 10, 7, 1)[0]
    assert game["solver"] == {"lambda": 3.0, "gamma": 0.05, "tol": 1e-8, "max_iter": 50000}
    config = parse_scenario(json.dumps(game))
    assert config == parse_scenario(json.dumps({**game, "solver": {"lambda": 3.0, "tol": 1e-8}}))
    assert json.loads(_json_text(config.tree()))["solver"] == {"lambda": 3.0, "tol": 1e-8}


# Values the ascent's range rules used to reject: the parser no longer reads them.
RETIRED_VALUES = {
    "gamma-inf": ("gamma", float("inf")),
    "gamma-zero": ("gamma", 0),
    "max_iter-zero": ("max_iter", 0),
    "max_iter-fractional": ("max_iter", 2.5),
}


@pytest.mark.parametrize("name", sorted(RETIRED_VALUES))
def test_retired_solver_fields_ignore_their_values(name):
    key, value = RETIRED_VALUES[name]
    data = json.loads(PAPER.read_text())
    data["solver"][key] = value
    config = parse_scenario(json.dumps(data))
    assert config == parse_scenario(PAPER.read_text())
    assert key not in json.loads(_json_text(config.tree()))["solver"]


def test_parse_empty_file_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_scenario("")
    with pytest.raises(ParseError):
        parse_scenario("   \n  ")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as excinfo:
        parse_scenario('{"network": }')
    assert excinfo.value.line == 1
    assert excinfo.value.column is not None


def test_parse_of_json_nested_past_the_decoder_depth_is_a_parse_error():
    with pytest.raises(ParseError, match=r"nests too deeply \(line 1, column 1\)"):
        parse_scenario("[" * 200_000 + "]" * 200_000)
    with pytest.raises(ParseError, match=r"\(line 3, column 2\)"):
        parse_scenario("\n\r\n\t" + "[" * 200_000 + "]" * 200_000)


def test_capacity_mismatch_names_the_field():
    raw = json.loads(PAPER.read_text())
    raw["network"]["capacities"] = [4.0]
    with pytest.raises(ValidationError, match="capacities"):
        parse_scenario(json.dumps(raw))


def test_unknown_fields_rejected():
    raw = json.loads(PAPER.read_text())
    raw["surprise"] = 1
    with pytest.raises(ValidationError, match="surprise"):
        parse_scenario(json.dumps(raw))
    raw = json.loads(PAPER.read_text())
    raw["solver"]["stepsize"] = 0.1
    with pytest.raises(ValidationError, match="stepsize"):
        parse_scenario(json.dumps(raw))


def test_echo_round_trip():
    config = parse_scenario(PAPER.read_text())
    assert parse_scenario(_json_text(config.tree())) == config
    minimal = parse_scenario(MINIMAL.read_text())
    assert parse_scenario(_json_text(minimal.tree())) == minimal


def _paper_with(**changes) -> dict:
    """The paper scenario's tree with top-level blocks or adversary fields replaced."""
    data = json.loads(PAPER.read_text())
    for key, value in changes.items():
        if key in data["adversary"]:
            data["adversary"][key] = value
        else:
            data[key] = value
    return data


# Every input form the parser normalizes, each echoed through solve-ot.
ECHO_FORMS = {
    "weights-matrix-coeff-per-target": _paper_with(),
    "weights-flat-coeff-scalar": _paper_with(weights=[1, 3.5, -0.0, 2, 1e-300, -7.25],
                                             punishment_coeff=2),
    "coeff-matrix": _paper_with(punishment_coeff=[[1, 0.5, 3], [2.25, 2, 1e3]]),
    "coeff-per-edge": _paper_with(punishment_coeff=[1, 2, 3, 4, 5, 6.5]),
    "prior-table": _paper_with(prior=[[0.25, 0.75], [0.5, 0.5], [1, 0]], lower_caps=[1, 2.5, 3]),
    "integer-ids": _paper_with(network={
        "sources": [7, 3],
        "targets": [30, 10, 20],
        "edges": [[3, 20], [7, 10], [3, 30], [7, 20], [7, 30], [3, 10]],
        "capacities": [4, 0.5],
    }, weights=[[1, 3, 5], [2, 5, 1]]),
    "mixed-ids-no-adversary": {
        "network": {
            "sources": ["b", 1],
            "targets": [0, "a"],
            "edges": [[1, "a"], ["b", 0], [1, 0]],
            "capacities": [2, 1e-3],
        },
        "weights": [0.1, 0.2, 0.3],
        "solver": {"lambda": 0.5},
    },
}

# sha256 of each form's config_echo.json, recorded when the echo was laid
# out from Python lists kept beside the parsed arrays.
ECHO_FORM_SHA256 = {
    "coeff-matrix": "1f7bfaf79031cf342a0e911847563a9c3a62edb09448cd94410137426eb20856",
    "coeff-per-edge": "49c2af65f300ac8a58127daf2481fbfcd65a9fbba52b1412b81a8d11579649ee",
    "integer-ids": "e6f5803dba392a6539f9e25d22247685814b879841d8ed6a468f6e211b3bb30a",
    "mixed-ids-no-adversary": "163e15eebe25f2516fb48a32c7181c189d0effe529021bf3926aede158ce2911",
    "prior-table": "f335bf1ff5ad95776a1d283c2c8dc9fbf6a9d278fa9f3fe8e5c5c3e09e114e17",
    "weights-flat-coeff-scalar": "3b16a9adce27315d1aa22e9ad8ed7bd058fe179c8de45d837ba5ecdbf20098a9",
    "weights-matrix-coeff-per-target": "19e2b3644e2d0704187f2224f83308709cd0ac90eb95c8965c748d014c560b35",
}


@pytest.mark.parametrize("form", sorted(ECHO_FORMS))
def test_echo_bytes_of_every_input_form_are_pinned(tmp_path, form):
    config = parse_scenario(json.dumps(ECHO_FORMS[form]))
    run_command("solve-ot", config, tmp_path)
    echo = (tmp_path / "config_echo.json").read_text()
    assert hashlib.sha256(echo.encode()).hexdigest() == ECHO_FORM_SHA256[form]
    assert echo == json.dumps(json.loads(echo), indent=2, sort_keys=True) + "\n"
    assert parse_scenario(echo) == config


def test_configs_that_differ_only_in_their_edges_are_unequal():
    crossed = [["r", "u"], ["s", "t"]]
    straight = parse_scenario(_scenario_with_ids(["r", "s"], ["t", "u"], [["r", "t"], ["s", "u"]]))
    assert straight != parse_scenario(_scenario_with_ids(["r", "s"], ["t", "u"], crossed))
    assert straight.data == parse_scenario(_scenario_with_ids(["r", "s"], ["t", "u"], crossed)).data


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.integers(-9, 10**15), st.text(max_size=4)), min_size=1, max_size=4,
             unique=True),
    st.lists(st.one_of(st.integers(-9, 10**15), st.text(max_size=4)), min_size=1, max_size=5,
             unique=True),
    st.randoms(use_true_random=False),
)
def test_edge_list_and_columns_from_ids_match_the_edge_tuples(sources, targets, rng):
    """The echo's edge list and the x_<s>_<t> names, built from the ids, as from each edge."""
    edges = [(s, t) for s in sources for t in targets]
    rng.shuffle(edges)
    network = build_network(sources, targets, edges, [1.0] * len(sources))
    assert _edge_list(network) + "\n" == _json_text(network.edges)
    names = _columns(network)
    assert names == [f"x_{s}_{t}" for s, t in network.edges]


def _scenario_with_ids(sources, targets, edges) -> str:
    return json.dumps({
        "network": {
            "sources": sources,
            "targets": targets,
            "edges": edges,
            "capacities": [1.0] * len(sources),
        },
        "weights": [1.0] * len(edges),
    })


CLASHING_IDS = [
    # 4 edges, but x_a_b_c names both (a, b_c) and (a_b, c)
    (["a", "a_b"], ["c", "b_c"], [["a", "c"], ["a", "b_c"], ["a_b", "c"], ["a_b", "b_c"]], "x_a_b_c"),
    # an integer id and its string spelling
    ([1, "1"], ["t", "u"], [[1, "t"], ["1", "u"]], "p_1"),
    (["s"], [0, "0"], [["s", 0], ["s", "0"]], "x_s_0"),
    # separators would split or quote a CSV field
    (["s,0"], ["t0"], [["s,0", "t0"]], "x_s,0_t0"),
    (['s"0'], ["t0"], [['s"0', "t0"]], 'x_s"0_t0'),
    (["s0"], ["t\n0"], [["s0", "t\n0"]], "x_s0_t\n0"),
    (["s\r0"], ["t0"], [["s\r0", "t0"]], "x_s\r0_t0"),
]


@pytest.mark.parametrize(
    "sources, targets, edges, column", CLASHING_IDS,
    ids=["underscore", "int-source", "int-target", "comma", "quote", "newline", "return"],
)
def test_ids_with_clashing_trace_columns_are_rejected(sources, targets, edges, column):
    with pytest.raises(ValidationError, match=re.escape(repr(column))):
        parse_scenario(_scenario_with_ids(sources, targets, edges))


def test_cli_rejects_clashing_ids_before_any_solve(tmp_path, capsys):
    sources, targets, edges, column = CLASHING_IDS[0]
    path = tmp_path / "clash.json"
    path.write_text(_scenario_with_ids(sources, targets, edges))
    out = tmp_path / "run"
    assert run_cli("solve-ot", "--config", path, "--out", out) == 1
    assert not out.exists()
    assert repr(column) in capsys.readouterr().err


# 1 beside "1", underscores that can make x_<s>_<t> ambiguous, and the CSV separators
COLUMN_IDS = st.one_of(
    st.integers(-1, 2),
    st.sampled_from(
        ["0", "1", "a", "a_", "a_b", "b", "_b", "b_c", "c", "", "_", "a,", 'b"', "c\n", "\r"]
    ),
)


def _first_bad_column(names: list[str]) -> str | None:
    """The message for the first name seen twice or holding a separator, or None."""
    seen = set()
    for name in names:
        if name in seen:
            return f"node ids give the trace column {name!r} twice"
        if any(sep in name for sep in (",", '"', "\n", "\r")):
            return f"trace column {name!r} contains a comma, a quote or a line break"
        seen.add(name)
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(COLUMN_IDS, min_size=1, max_size=4, unique=True),
    st.lists(COLUMN_IDS, min_size=1, max_size=4, unique=True),
)
@example(["a", "a_b"], ["c", "b_c"])
@example([1, "1"], ["a"])
@example(["a"], [0, "0"])
@example(["a_"], ["_b", "b"])
def test_column_check_accepts_exactly_unique_clean_names(sources, targets):
    edges = [(s, t) for s in sources for t in targets]
    network = build_network(sources, targets, edges, [1.0] * len(sources))
    expected = _first_bad_column(_columns(network, ("p",), ("xi1", "xi2", "mu2")))
    if expected is None:
        _check_columns(network)
    else:
        with pytest.raises(ValidationError) as info:
            _check_columns(network)
        assert str(info.value) == expected


def test_plain_ids_keep_their_column_names(tmp_path):
    path = tmp_path / "plain.json"
    path.write_text(_scenario_with_ids(["s0", "j1"], ["t0", "q1"], [["s0", "t0"], ["j1", "q1"]]))
    assert run_cli("solve-ot", "--config", path, "--out", tmp_path / "run") == 0
    header = (tmp_path / "run" / "trace.csv").read_text().splitlines()[0]
    assert header == "kind,step,x_s0_t0,x_j1_q1,p_s0,p_j1,residual,objective"


def test_overrides_apply_and_revalidate():
    config = parse_scenario(PAPER.read_text())
    changed = config.with_overrides(lam=1.0, stages=2, mode="synchronous", seed=7)
    assert changed.settings().lam == 1.0
    assert changed.dynamic_params()[0] == 2
    assert changed.schedule().mode == "synchronous"
    assert changed.schedule().seed == 7
    # original untouched
    assert config.settings().lam == 3.0
    with pytest.raises(ValidationError):
        config.with_overrides(mode="bogus")


# Override values of the wrong type: the scenario file rejects each of them.
WRONG_TYPE_OVERRIDES = {
    "stages-float": ("dynamic", "stages", "stages", 2.7),
    "seed-float": ("distributed", "seed", "seed", 3.9),
    "seed-bool": ("distributed", "seed", "seed", True),
    "tau-string": ("dynamic", "tau", "tau", "0.25"),
    "lambda-string": ("solver", "lambda", "lam", "3"),
    "tol-bool": ("solver", "tol", "tol", True),
}


@pytest.mark.parametrize("name", sorted(WRONG_TYPE_OVERRIDES))
def test_overrides_are_read_as_the_scenario_file_reads_them(name):
    block, key, keyword, value = WRONG_TYPE_OVERRIDES[name]
    data = json.loads(PAPER.read_text())
    data[block][key] = value
    with pytest.raises(ValidationError) as from_file:
        parse_scenario(json.dumps(data))
    with pytest.raises(ValidationError) as from_override:
        parse_scenario(PAPER.read_text()).with_overrides(**{keyword: value})
    assert str(from_override.value) == str(from_file.value)
    assert str(from_file.value).startswith(f"'{block}.{key}' must be")


def test_overrides_have_no_ascent_step():
    with pytest.raises(TypeError, match="gamma"):
        parse_scenario(PAPER.read_text()).with_overrides(gamma=0.05)


def test_no_overrides_keep_the_config():
    config = parse_scenario(PAPER.read_text())
    assert config.with_overrides() is config


def test_a_scenario_that_sets_the_retired_refresh_clock_is_rejected(tmp_path, capsys):
    # the hub refreshes once every agent has answered, so refresh_every sets nothing
    data = json.loads(PAPER.read_text())
    data["distributed"]["refresh_every"] = 10
    with pytest.raises(ValidationError, match="unknown field 'refresh_every' in 'distributed'"):
        parse_scenario(json.dumps(data))
    path = tmp_path / "old.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert run_cli("distributed-sim", "--config", path, "--out", out) == 1
    assert not out.exists()
    assert "refresh_every" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# trace emission


def test_emit_trace_empty_is_header_only(tmp_path):
    path = emit_trace("solve-ot", ["x"], [], "csv", tmp_path / "trace.csv")
    assert path.read_text() == "kind,step\n"


def test_emit_trace_single_record(tmp_path):
    path = emit_trace(
        "solve-ot", ["x", "residual"], [(1, [0.125, 1e-9])], "csv", tmp_path / "trace.csv"
    )
    lines = path.read_text().splitlines()
    assert lines == ["kind,step,x,residual", "solve-ot,1,0.125,1e-09"]


def test_emit_trace_twelve_significant_digits(tmp_path):
    path = emit_trace("solve-ot", ["x"], [(1, [0.3678794411714423215955])], "csv", tmp_path / "t.csv")
    assert "0.367879441171" in path.read_text()


def test_emit_trace_json_lines(tmp_path):
    rows = [(1, [1.5]), (2, [2.0])]
    path = emit_trace("static-eq", ["u"], rows, "json", tmp_path / "trace.jsonl")
    lines = path.read_text().splitlines()
    assert [json.loads(line) for line in lines] == [
        {"kind": "static-eq", "step": 1, "u": 1.5},
        {"kind": "static-eq", "step": 2, "u": 2.0},
    ]


def reference_trace_text(kind, columns, rows, fmt) -> str:
    """A trace table with one ``format(v, ".12g")`` call per value."""
    if fmt == "csv":
        lines = [",".join(["kind", "step", *(columns if rows else ())])]
        lines += [",".join([kind, str(step), *(format(v, ".12g") for v in values)])
                  for step, values in rows]
        return "\n".join(lines) + "\n"
    lines = [
        f'{{"kind": {json.dumps(kind)}, "step": {step}'
        + "".join(f", {json.dumps(name)}: {format(v, '.12g')}" for name, v in zip(columns, values))
        + "}"
        for step, values in rows
    ]
    return "\n".join(lines) + ("\n" if lines else "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_trace_with_percent_ids_matches_per_value_format(tmp_path, fmt):
    sources, targets = ["s%d", "%"], ["t%%s", "q%(x)s", "%.12g"]
    data = json.loads(PAPER.read_text())
    data["network"] = {
        "sources": sources,
        "targets": targets,
        "edges": [[s, t] for s in sources for t in targets],
        "capacities": data["network"]["capacities"],
    }
    config = parse_scenario(json.dumps(data))
    report, _ = run_distributed(config.game_spec(), Schedule(seed=1, max_ticks=40))
    columns, rows = distributed_trace_records(config.network, report)
    assert any("%" in name for name in columns) and len(rows) == 5
    assert all(type(values) is np.ndarray for _, values in rows)
    special = [float("inf"), float("-inf"), float("nan"), -0.0, 0.0, 1e-300, 123456789012.5]
    values = np.array((special * len(columns))[: len(columns)])
    # the same values as a list, a contiguous array and two strided views
    table = np.stack([values, values[::-1]], axis=1)
    rows += [(41, values.tolist()), (42, values), (43, table[:, 0]), (44, np.repeat(values, 2)[::2])]
    assert not table[:, 0].flags.c_contiguous
    path = emit_trace("distributed-sim", columns, rows, fmt, tmp_path / f"trace.{fmt}")
    listed = [(step, np.asarray(row).tolist()) for step, row in rows]
    assert path.read_text() == reference_trace_text("distributed-sim", columns, listed, fmt)
    as_lists = emit_trace("distributed-sim", columns, listed, fmt, tmp_path / f"lists.{fmt}")
    assert path.read_bytes() == as_lists.read_bytes()


def test_emit_trace_rejects_mixed_schemas(tmp_path):
    # a row whose length differs from the columns
    rows = [(1, [1.5]), (2, [2.0, 3.0])]
    with pytest.raises(ValidationError):
        emit_trace("static-eq", ["u"], rows, "csv", tmp_path / "trace.csv")
    assert list(tmp_path.glob("*")) == []


# ---------------------------------------------------------------------------
# JSON layout


def reference_json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


JSON_LEAVES = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e-300, 5e-324]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
    st.text(alphabet='"\\\n\t\x00\x1f\x7f\u00e9\u20ac\U0001f600\ud800a '),
)
# Lists of rows that share one width, as `edges` and `prior` are.
JSON_ROWS = st.integers(1, 3).flatmap(lambda width: st.lists(
    st.one_of(
        st.lists(JSON_LEAVES, min_size=width, max_size=width),
        st.tuples(*[JSON_LEAVES] * width),
    ),
    min_size=1,
    max_size=6,
))
# Lists of rows of any widths, mostly ragged.
JSON_RAGGED = st.lists(st.lists(JSON_LEAVES, max_size=3), min_size=1, max_size=6)
JSON_VALUES = st.recursive(
    st.one_of(JSON_LEAVES, JSON_ROWS, JSON_RAGGED, st.just([]), st.just({}), st.just([[]])),
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=6))
def test_json_text_matches_json_dumps(payload):
    assert _json_text(payload) == reference_json_text(payload)


def _listed(value):
    """``value`` with every ndarray in it replaced by its ``tolist()``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _listed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_listed(item) for item in value]
    return value


FLOAT64 = st.one_of(st.floats(), st.sampled_from([float("nan"), -0.0, 1e-300, 5e-324]))
# 0-d, 1-D and 2-D arrays, empty ones among them, and column views of 2-D ones.
ARRAYS = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
               elements=FLOAT64),
    hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 3)), elements=FLOAT64)
    .map(lambda table: table[:, 0]),
)
ARRAY_VALUES = st.one_of(
    ARRAYS,
    st.lists(ARRAYS, max_size=3),
    st.lists(st.dictionaries(st.text(max_size=4), st.one_of(ARRAYS, JSON_LEAVES), max_size=3),
             max_size=3),
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=8), st.one_of(ARRAY_VALUES, JSON_VALUES), max_size=6))
@example({
    "plan": np.array([0.5, -0.0, 1e-300]),
    "xi_minor": np.array([[1.0, 2.0], [np.inf, np.nan]])[:, 0],
    "prior": np.array([[0.5, 0.5], [0.25, 0.75]]),
    "empty": np.array([]),
    "no_rows": np.zeros((0, 2)),
    "scalar": np.array(-np.inf),
    "stages": [{"plan": np.array([1.5]), "rounds": 3}],
})
def test_json_text_of_arrays_matches_json_dumps_of_their_lists(payload):
    assert _json_text(payload) == reference_json_text(_listed(payload))


def test_write_json_writes_the_json_text(tmp_path):
    # a dynamic-sim-shaped report: stage dicts holding arrays, three levels deep
    rng = np.random.default_rng(5)
    stage = {"plan": rng.random(7), "xi_minor": np.array([[1.5, -0.0], [np.inf, 2.0]])[:, 0],
             "rounds": 4, "converged": True, "failed": None, "ids": ["a\u00e9", 3], "empty": []}
    report = {
        "kind": "dynamic-sim", "failed_stage": None, "options": {},
        "stages": [stage, {**stage, "belief_major": rng.random(3), "nested": {"deep": [{}, []]}}],
        "edges": [["s1", "t1"], ["s1", "t2"]], "prior": np.full((2, 2), 0.5),
    }
    path = tmp_path / "report.json"
    _write_json(report, path)
    assert path.read_text(encoding="utf-8") == _json_text(report)
    assert _json_text(report) == reference_json_text(_listed(report))


def test_json_text_falls_back_for_other_types():
    payload = {"b": np.float64(0.1), "a": {1: [2.5]}, "c": [np.float64(1.0), 2], "d": [[1], 2]}
    assert _json_text(payload) == reference_json_text(payload)
    with pytest.raises(TypeError):
        _json_text({"n": [np.int64(1)]})


def _mixed_id_scenario(n_sources: int, n_targets: int, seed: int) -> dict:
    """A dense game whose ids mix integers, backslashes and non-ASCII text."""
    rng = np.random.default_rng(seed)
    sources = [j if j % 2 else f"s\\{j}\u00e9" for j in range(n_sources)]
    targets = [100 + q if q % 3 else f"t{q}\u20ac\\" for q in range(n_targets)]
    n_edges = n_sources * n_targets
    lower = rng.uniform(3.0, 6.0, n_targets)
    return {
        "network": {
            "sources": sources,
            "targets": targets,
            "edges": [[s, t] for s in sources for t in targets],
            "capacities": rng.uniform(1.0, 5.0, n_sources).tolist(),
        },
        "weights": rng.uniform(1.0, 5.0, n_edges).tolist(),
        "adversary": {
            "lower_caps": lower.tolist(),
            "upper_caps": (lower + rng.uniform(1.0, 5.0, n_targets)).tolist(),
            "punishment_coeff": rng.uniform(1.0, 3.0, n_edges).tolist(),
            "beta1": 0.5,
            "beta2": 0.5,
        },
        "dynamic": {"stages": 2},
    }


def test_cli_json_files_match_json_dumps_at_scale(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(_mixed_id_scenario(20, 50, seed=3)))
    for command in SUBCOMMANDS:
        out = tmp_path / command
        assert run_cli(command, "--config", path, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["edges"]) == 1000
        for name in ("config_echo.json", "report.json"):
            text = (out / name).read_text(encoding="utf-8")
            assert text == reference_json_text(json.loads(text)), f"{command}/{name}"


# ---------------------------------------------------------------------------
# run_command / CLI


def run_cli(*args) -> int:
    return main([str(a) for a in args])


def test_cli_solve_ot(tmp_path):
    out = tmp_path / "run"
    assert run_cli("solve-ot", "--config", PAPER, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["kind"] == "solve-ot"
    assert report["converged"] is True
    assert min(report["plan"]) > 0.01
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header.startswith("kind,step,x_j1_q1")
    echoed = parse_scenario((out / "config_echo.json").read_text())
    assert echoed == parse_scenario(PAPER.read_text())


def test_cli_solve_ot_lambda_zero_is_greedy(tmp_path):
    out = tmp_path / "run"
    assert run_cli("solve-ot", "--config", PAPER, "--out", out, "--lambda", 0) == 0
    report = json.loads((out / "report.json").read_text())
    plan = np.array(report["plan"]).reshape(2, 3)
    np.testing.assert_array_equal(plan, [[0, 0, 4.0], [0, 3.0, 0]])
    assert np.count_nonzero(plan, axis=1).tolist() == [1, 1]


def test_cli_static_eq(tmp_path):
    out = tmp_path / "eq"
    assert run_cli("static-eq", "--config", PAPER, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["deviation_gap"] <= 1e-4
    assert len(report["xi_minor"]) == 3
    rows = (out / "trace.csv").read_text().splitlines()
    assert rows[0].startswith("kind,step,x_j1_q1")
    assert rows[1].startswith("static-eq,1,")


def test_cli_dynamic_sim_single_stage_matches_static(tmp_path):
    static_out = tmp_path / "static"
    dynamic_out = tmp_path / "dynamic"
    assert run_cli("static-eq", "--config", PAPER, "--out", static_out) == 0
    assert run_cli(
        "dynamic-sim", "--config", PAPER, "--out", dynamic_out,
        "--stages", 1, "--tau", 0,
    ) == 0
    static_report = json.loads((static_out / "report.json").read_text())
    dynamic_report = json.loads((dynamic_out / "report.json").read_text())
    final = dynamic_report["stages"][-1]
    np.testing.assert_allclose(final["plan"], static_report["plan"], atol=1e-8)
    np.testing.assert_allclose(final["xi_minor"], static_report["xi_minor"], atol=1e-8)


def test_cli_dynamic_sim_default_run(tmp_path):
    out = tmp_path / "dyn"
    assert run_cli("dynamic-sim", "--config", PAPER, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["stages"]) == 5
    assert (out / "trace.csv").read_text().count("\n") == 6  # header + 5 stages


def test_cli_distributed_sim(tmp_path):
    out = tmp_path / "dist"
    assert run_cli(
        "distributed-sim", "--config", PAPER, "--out", out,
        "--schedule", "async", "--seed", 42,
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert (out / "messages.log").exists()
    from advot import MessageLog, replay

    log = MessageLog.from_text((out / "messages.log").read_text())
    rebuilt = replay(log)
    np.testing.assert_array_equal(rebuilt.plan, np.array(report["plan"]))


def test_cli_distributed_sim_log_bytes_are_pinned(tmp_path):
    out = tmp_path / "dist"
    assert run_cli("distributed-sim", "--config", PAPER, "--out", out, "--seed", 42) == 0
    data = (out / "messages.log").read_bytes()
    assert len(data) == 14_361
    assert data.count(b"\n") == 109
    assert json.loads((out / "report.json").read_text())["messages"] == 109
    assert hashlib.sha256(data).hexdigest() == (
        "2942d2f96d127e1d388afd6744db14efe3dd4508607676429bb8947f22245a44"
    )


# sha256 of each output of a run on the paper scenario with default flags
OUTPUT_SHA256 = {
    "solve-ot": {
        "report.json": "b313b2a3d522fe92c3c160e7eb30100eb6e95846e40bab41f929d87ea6108647",
        "trace.csv": "6f0db6a3b535dbf6c55989740dbbd27e485b45ed7ac69afa8695ba7afcfe9376",
    },
    "static-eq": {
        "report.json": "7cb1818a768e4457992645fca610b86c01eba7d1b70336d1f4da437f95c43939",
        "trace.csv": "97718259daf5330aa3ccbb107938c28212476a384f47101c01a3d00e6f489ba7",
    },
    "dynamic-sim": {
        "report.json": "cf36ef5cd0abe04872303c3cd5a29c1a11d66da2bc79d0a49856afcac6580db0",
        "trace.csv": "527750575cbb8a02d2d477ca730c184d480774e40e285f7e0f8d7c3906f4cdcf",
    },
    "distributed-sim": {
        "report.json": "0ef57e1905696c7991381656432f93a40df2198048f49f4602c62777acc8b331",
        "trace.csv": "7b5b15db21b6da812167d1f8d81695000fa2b9ad573a8d7089ec406e126a2f8c",
    },
}
PAPER_ECHO_SHA256 = "19e2b3644e2d0704187f2224f83308709cd0ac90eb95c8965c748d014c560b35"
STATIC_JSONL_SHA256 = "d3b6c7c513ef1aa084b5accf8f0033cf660fe99b708f0cf39fa414a508acbf48"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("command", sorted(OUTPUT_SHA256))
def test_cli_output_bytes_are_pinned(tmp_path, command):
    out = tmp_path / command
    assert run_cli(command, "--config", PAPER, "--out", out) == 0
    expected = {"config_echo.json": PAPER_ECHO_SHA256, **OUTPUT_SHA256[command]}
    assert {name: _sha256(out / name) for name in expected} == expected


def test_cli_json_trace_bytes_are_pinned(tmp_path):
    out = tmp_path / "json"
    assert run_cli("static-eq", "--config", PAPER, "--out", out, "--emit", "json") == 0
    assert _sha256(out / "trace.jsonl") == STATIC_JSONL_SHA256
    assert _sha256(out / "report.json") == OUTPUT_SHA256["static-eq"]["report.json"]


@pytest.mark.parametrize(
    ("schedule", "ticks", "messages"),
    [("sync", 6, 109), ("async", 18, 109), ("roundrobin", 12, 109)],
)
def test_cli_distributed_sim_work_counts_are_pinned(tmp_path, schedule, ticks, messages):
    # exact prices leave only the targets' refresh to converge: 6 refreshes, each
    # once both agents have priced their last weights, so the messages are the
    # same on every schedule.  The first refresh is the loop's start and logs
    # no trace record.
    out = tmp_path / schedule
    assert run_cli(
        "distributed-sim", "--config", PAPER, "--out", out, "--schedule", schedule, "--seed", 42,
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert (report["ticks"], report["messages"]) == (ticks, messages)


def _sha256_without_steps(path) -> str:
    """sha256 of a trace.csv with its step column (the tick of a distributed row) cut out."""
    rows = (line.split(",") for line in path.read_text().splitlines())
    return hashlib.sha256("\n".join(",".join(r[:1] + r[2:]) for r in rows).encode()).hexdigest()


# sha256 of a dense 5x10 run's trace.csv without its step column and of its
# report.json fields other than ``ticks``, ``messages`` and ``deviation_gap``.
# Every schedule meets the same iterates at each refresh, so all three share
# one pin; the ticks they take differ.
DENSE_TRACE_SHA256 = "fe887254d92b1fefb0127e85826e1988c0211d43d691c516003a679275f9372d"
DENSE_RESULT_SHA256 = "a54c265bbf3697055fe49f614a40968d4a60e053802ac4d33707a8dbc1ec0c72"
DENSE_TICKS = {"sync": 7, "async --seed 42": 23, "roundrobin --seed 3": 35}


@pytest.mark.parametrize("flags", sorted(DENSE_TICKS))
def test_cli_distributed_sim_results_are_pinned_apart_from_the_log(tmp_path, flags):
    out = tmp_path / "dense"
    assert run_cli(
        "distributed-sim", "--config", dense_5x10(tmp_path), "--out", out,
        "--schedule", *flags.split(),
    ) == 0
    report = json.loads((out / "report.json").read_text())
    ticks = report.pop("ticks")
    del report["messages"], report["deviation_gap"]
    result = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert (_sha256_without_steps(out / "trace.csv"), result, ticks) == (
        DENSE_TRACE_SHA256, DENSE_RESULT_SHA256, DENSE_TICKS[flags]
    )


# sha256 of each output of the centralized subcommands on dense_5x10, per
# trace format: the engine's bytes on a game of 50 edges, 10 per source.
DENSE_ECHO_SHA256 = "d82e688e93a7b7710130d278debcc25c10e2729bf3395d53fda0b694203e4b95"
DENSE_OUTPUT_SHA256 = {
    ("solve-ot", "csv"): {
        "report.json": "62443a151b5bc7cff87db3b06f18e7e3ab206e59ed61f4bfb264869cba23f934",
        "trace.csv": "a12eb8f7a2159a6f932d2b2067ca1032c98cd8bc73e42c5e4f60d77bb71eb621",
    },
    ("solve-ot", "json"): {
        "report.json": "62443a151b5bc7cff87db3b06f18e7e3ab206e59ed61f4bfb264869cba23f934",
        "trace.jsonl": "ced20a3a55f69d56ce13e81f4fd0ed7a907c23acefd61d2f0073280316d30aaf",
    },
    ("static-eq", "csv"): {
        "report.json": "8683e706dd2eb9e763616b76b0938d2ef0138dd5010e7ef32cd6ce2083a518b5",
        "trace.csv": "9b1c6fc06dd143525803f3164969850f500dcabf9c5f7fa30df9fb1bdfd7bd20",
    },
    ("static-eq", "json"): {
        "report.json": "8683e706dd2eb9e763616b76b0938d2ef0138dd5010e7ef32cd6ce2083a518b5",
        "trace.jsonl": "41d4f6fe61eeccb13826892276b56dd72f6eb5956221b632452d2f1e8b1c0abd",
    },
    ("dynamic-sim", "csv"): {
        "report.json": "6206ac9c085503f760d8801f458564c921e313e1121624e15db4da550d646213",
        "trace.csv": "372d9bd04048c3e9b1ec7d01da6216d4b7d227eec15a5348141c55742c7f9ca4",
    },
    ("dynamic-sim", "json"): {
        "report.json": "6206ac9c085503f760d8801f458564c921e313e1121624e15db4da550d646213",
        "trace.jsonl": "199059b3e2f6e3e4c9b14e4f9bd0f3fdd34aa21d1ecf1f2d665231f8d71baf87",
    },
}


@pytest.mark.parametrize(("command", "emit"), sorted(DENSE_OUTPUT_SHA256))
def test_cli_output_bytes_on_a_generated_game_are_pinned(tmp_path, command, emit):
    out = tmp_path / command
    assert run_cli(command, "--config", dense_5x10(tmp_path), "--out", out, "--emit", emit) == 0
    expected = {"config_echo.json": DENSE_ECHO_SHA256, **DENSE_OUTPUT_SHA256[command, emit]}
    assert {path.name: _sha256(path) for path in out.iterdir()} == expected


# Source s<j> of dense_pool(5, 10, 7, 1)[0] keeps these targets: degrees 10, 2, 6, 1, 3.
UNEVEN_TARGETS = [range(10), (0, 1), range(2, 8), (9,), (3, 5, 8)]


def uneven_5x10(tmp_path):
    """The dense 5x10 game with edges dropped, so the agents' rows have unequal widths."""
    data = generate.dense_pool(5, 10, 7, 1)[0]
    keep = [q in UNEVEN_TARGETS[j] for j in range(5) for q in range(10)]
    for holder, key in (
        (data["network"], "edges"), (data, "weights"), (data["adversary"], "punishment_coeff"),
    ):
        holder[key] = [value for value, kept in zip(holder[key], keep) if kept]
    path = tmp_path / "uneven_5x10.json"
    path.write_text(generate.scenario_text(data), encoding="utf-8")
    return path


# sha256 of trace.csv without its step column and of messages.log of
# distributed-sim on uneven_5x10, per schedule.  Every schedule meets the same
# iterates at each refresh (8 refreshes, 481 messages), so that part of the
# trace is shared; the logs' ticks and orders differ.
UNEVEN_TRACE_SHA256 = "2f65e74fa1ce3a3047662eccf581778b39938ae086f7b99b310cb2a2fa58afc3"
UNEVEN_LOG_SHA256 = {
    "sync": "d7e6f3d6b1e2267679c91fb41fe712d1c7ac019652fefbeab0775f797105dd39",
    "async --seed 42": "d002f12cdb0e71475e3bc7a122b362fae8afea5dc6864a7e35823e1f4c54b354",
    "roundrobin --seed 3": "fe570b783672bb8d83d86556de015db0800f297818c7116d2f0df0b51eddac9b",
}


@pytest.mark.parametrize("flags", sorted(UNEVEN_LOG_SHA256))
def test_cli_distributed_sim_bytes_on_uneven_source_degrees_are_pinned(tmp_path, flags):
    out = tmp_path / "uneven"
    assert run_cli(
        "distributed-sim", "--config", uneven_5x10(tmp_path), "--out", out,
        "--schedule", *flags.split(),
    ) == 0
    assert (_sha256_without_steps(out / "trace.csv"), _sha256(out / "messages.log")) == (
        UNEVEN_TRACE_SHA256, UNEVEN_LOG_SHA256[flags]
    )


def dense_20x50(tmp_path):
    """The scenario file of ``dense_pool(20, 50, 11, 2)[1]``, a generated 20x50 game."""
    path = tmp_path / "dense_20x50.json"
    path.write_text(generate.scenario_text(generate.dense_pool(20, 50, 11, 2)[1]),
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("dense", [False, True], ids=["paper", "dense-20x50"])
def test_cli_distributed_sim_reports_the_static_equilibrium(tmp_path, dense):
    # the hub stops by the equilibrium loop's rule, so it ends on the loop's plan
    config = dense_20x50(tmp_path) if dense else PAPER
    reports = []
    for command in ("static-eq", "distributed-sim"):
        assert run_cli(command, "--config", config, "--out", tmp_path / command) == 0
        reports.append(json.loads((tmp_path / command / "report.json").read_text()))
    static, distributed = reports
    assert (distributed["plan"], distributed["deviation_gap"]) == (
        static["plan"], static["deviation_gap"]
    )


@pytest.mark.parametrize("schedule", ["sync", "async", "roundrobin"])
@pytest.mark.parametrize("dense", [False, True], ids=["paper", "dense-5x10"])
def test_cli_distributed_sim_certifies_its_plan(tmp_path, dense, schedule):
    config = dense_5x10(tmp_path) if dense else PAPER
    out = tmp_path / schedule
    assert run_cli("distributed-sim", "--config", config, "--out", out, "--schedule", schedule) == 0
    assert 0.0 <= json.loads((out / "report.json").read_text())["deviation_gap"] <= DEVIATION_TOL


def test_cli_exit_code_on_not_converged(tmp_path):
    out = tmp_path / "short"
    config = json.loads(PAPER.read_text())
    config["solver"]["tol"] = 1e-300
    path = tmp_path / "short.json"
    path.write_text(json.dumps(config))
    assert run_cli("solve-ot", "--config", path, "--out", out) == 2
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False


def test_cli_exit_code_on_input_errors(tmp_path, capsys):
    out = tmp_path / "x"
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run_cli("solve-ot", "--config", bad, "--out", out) == 1
    assert run_cli("solve-ot", "--config", tmp_path / "missing.json", "--out", out) == 1
    # static equilibrium requires the adversary block
    config = json.loads(PAPER.read_text())
    del config["adversary"]
    stripped = tmp_path / "stripped.json"
    stripped.write_text(json.dumps(config))
    assert run_cli("static-eq", "--config", stripped, "--out", out) == 1
    err = capsys.readouterr().err
    assert "advot:" in err


def test_cli_reports_a_config_that_is_not_utf8_as_unreadable(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"a":1}')
    assert run_cli("static-eq", "--config", bad, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("advot: cannot read config: 'utf-8' codec can't decode")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


# NaN fails every comparison, so only an explicit finiteness check stops these
# inputs before a run ends in a NaN plan, a meaningless plan or the iteration limit.
NON_FINITE_INPUTS = {
    "lambda-nan": (("solver", "lambda", float("nan")), "lam must be finite"),
    "lambda-inf": (("solver", "lambda", float("inf")), "lam must be finite"),
    "tol-nan": (("solver", "tol", float("nan")), "tol must be finite"),
    "prior-nan": (("adversary", "prior", [[0.5, 0.5], [np.nan, np.nan], [0.5, 0.5]]),
                  "belief entries must be finite"),
}


@pytest.mark.parametrize("command", ["solve-ot", "static-eq", "dynamic-sim", "distributed-sim"])
@pytest.mark.parametrize("name", sorted(NON_FINITE_INPUTS))
def test_cli_rejects_non_finite_inputs(tmp_path, capsys, command, name):
    (block, field, value), message = NON_FINITE_INPUTS[name]
    config = json.loads(PAPER.read_text())
    config[block][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    assert run_cli(command, "--config", path, "--out", tmp_path / "out") == 1
    assert message in capsys.readouterr().err


def test_cli_rejects_a_nan_tau(tmp_path, capsys):
    assert run_cli("dynamic-sim", "--config", PAPER, "--out", tmp_path, "--tau", "nan") == 1
    assert "tau must be >= 0" in capsys.readouterr().err


# Weights about 1000*lam: the unpriced plan exp(m/lam - 1) overflows.
OVERFLOW = {
    "network": {
        "sources": ["j"],
        "targets": ["a", "b"],
        "edges": [["j", "a"], ["j", "b"]],
        "capacities": [1],
    },
    "weights": [3000, 2990],
    "adversary": {
        "lower_caps": [4, 4],
        "upper_caps": [6, 6],
        "punishment_coeff": [1, 1],
        "beta1": 0.5,
        "beta2": 0.5,
    },
    "solver": {"lambda": 3.0},
}


@pytest.fixture
def overflow_config(tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOW))
    return path


def test_cli_static_eq_solves_the_overflow_input(tmp_path, overflow_config):
    out = tmp_path / "eq"
    assert run_cli("static-eq", "--config", overflow_config, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["deviation_gap"] <= 1e-4
    assert sum(report["plan"]) == pytest.approx(1.0, abs=1e-12)


def test_cli_dynamic_sim_solves_the_overflow_input(tmp_path, overflow_config):
    out = tmp_path / "dyn"
    assert run_cli("dynamic-sim", "--config", overflow_config, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["failed_stage"] is None
    assert len(report["stages"]) == 5
    for stage in report["stages"]:
        assert stage["converged"] is True
        assert stage["deviation_gap"] <= 1e-4
        assert sum(stage["plan"]) == pytest.approx(1.0, abs=1e-12)


def test_cli_solve_ot_refuses_non_finite_prices(tmp_path, overflow_config, capsys):
    # at lambda 1e-300 the exact price rounds, and the plan overflows at once
    with np.errstate(over="ignore"):
        assert run_cli(
            "solve-ot", "--config", overflow_config, "--out", tmp_path / "ot", "--lambda", "1e-300",
        ) == 1
    assert "non-finite at iteration 1" in capsys.readouterr().err


def test_cli_solve_ot_solves_the_overflow_input(tmp_path, overflow_config):
    out = tmp_path / "ot"
    assert run_cli("solve-ot", "--config", overflow_config, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    config = parse_scenario(overflow_config.read_text())
    network = config.network
    expected = row_prices(config.weights, network.edge_source, network.capacities, 3.0)[0]
    assert np.isfinite(report["prices"][0])
    assert report["prices"][0] == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.fixture
def large_capacity_config(tmp_path):
    """``dense_pool(5, 10, 7, 1)[0]`` with every weight raised by 60 and every capacity times 1e8."""
    game = generate.dense_pool(5, 10, 7, 1)[0]
    game["weights"] = [w + 60 for w in game["weights"]]
    game["network"]["capacities"] = [c * 1e8 for c in game["network"]["capacities"]]
    path = tmp_path / "large_capacity.json"
    path.write_text(json.dumps(game))
    return path


def test_cli_large_capacities_keep_the_exact_prices(tmp_path, large_capacity_config):
    # the exact prices meet KKT to a relative 1e-15, but one ulp of c is above the
    # absolute tol: a fallback that steps away from them made the plans far worse
    out = tmp_path / "ot"
    assert run_cli("solve-ot", "--config", large_capacity_config, "--out", out) == 2
    report = json.loads((out / "report.json").read_text())
    capacities = parse_scenario(large_capacity_config.read_text()).network.capacities
    assert report["iterations"] == 1
    assert report["residual"] <= 1e-12 * max(capacities)
    out = tmp_path / "eq"
    run_cli("static-eq", "--config", large_capacity_config, "--out", out)
    assert json.loads((out / "report.json").read_text())["deviation_gap"] <= DEVIATION_TOL


@pytest.mark.parametrize("scenario", [PAPER, MINIMAL], ids=["paper", "minimal"])
def test_cli_solve_ot_work_counts_are_pinned(tmp_path, scenario):
    # a solve is one pass: one iteration and one trace row
    out = tmp_path / "ot"
    assert run_cli("solve-ot", "--config", scenario, "--out", out) == 0
    assert json.loads((out / "report.json").read_text())["iterations"] == 1
    assert (out / "trace.csv").read_text().count("\n") == 2  # header + 1 iteration


def test_cli_rejects_a_negative_seed(tmp_path, capsys):
    assert run_cli("distributed-sim", "--config", PAPER, "--out", tmp_path / "a", "--seed", -1) == 1
    config = json.loads(PAPER.read_text())
    config["distributed"] = {"seed": -1}
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(config))
    assert run_cli("distributed-sim", "--config", path, "--out", tmp_path / "b") == 1
    err = capsys.readouterr().err
    assert err.count("advot: seed must be >= 0") == 2
    assert "Traceback" not in err


# Values every run rejects; parsing rejects them first, so no file is written.
PARSE_PROBES = {
    "static-eq-lambda-negative": ("static-eq", ("--lambda", -1), {}, "lam must be finite and >= 0"),
    "solve-ot-lambda-nan": ("solve-ot", ("--lambda", "nan"), {}, "lam must be finite and >= 0"),
    "dynamic-sim-stages-zero": ("dynamic-sim", ("--stages", 0), {}, "stages must be >= 1"),
    "dynamic-sim-tau-negative": ("dynamic-sim", ("--tau", -1), {}, "tau must be >= 0"),
    "distributed-sim-seed-negative": ("distributed-sim", ("--seed", -1), {}, "seed must be >= 0"),
    "static-eq-seed-negative": ("static-eq", ("--seed", -1), {}, "seed must be >= 0"),
    "static-eq-stages-zero": ("static-eq", (), {"dynamic": {"stages": 0}}, "stages must be >= 1"),
    "static-eq-caps-below-floor": (
        "static-eq", (), {"adversary": {"lower_caps": [1e-7, 4, 4]}},
        "caps must be >= the action floor 1e-06",
    ),
}


@pytest.mark.parametrize("name", sorted(PARSE_PROBES))
def test_cli_rejects_invalid_values_before_writing(tmp_path, capsys, name):
    command, flags, edits, message = PARSE_PROBES[name]
    config = json.loads(PAPER.read_text())
    for block, fields in edits.items():
        config[block].update(fields)
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli(command, "--config", path, "--out", out, *flags) == 1
    assert capsys.readouterr().err == f"advot: {message}\n"
    assert list(out.glob("*")) == []


# The paper scenario's text with one key written twice: json.loads alone keeps the last value.
REPEATED_KEYS = {
    "top-level": ('{\n  "network"', '{\n  "weights": [[9, 9, 9], [9, 9, 9]],\n  "network"', "weights"),
    "nested": ('"dynamic": {"stages": 5', '"dynamic": {"stages": 2, "stages": 7', "stages"),
}


@pytest.mark.parametrize("name", sorted(REPEATED_KEYS))
def test_cli_rejects_a_repeated_key_before_writing(tmp_path, capsys, name):
    old, new, key = REPEATED_KEYS[name]
    text = PAPER.read_text()
    assert text.count(old) == 1
    with pytest.raises(ParseError, match=f"duplicate key '{key}'"):
        parse_scenario(text.replace(old, new))
    path = tmp_path / "repeated.json"
    path.write_text(text.replace(old, new))
    out = tmp_path / "out"
    assert run_cli("dynamic-sim", "--config", path, "--out", out) == 1
    assert capsys.readouterr().err == f"advot: duplicate key '{key}'\n"
    assert not out.exists()


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_cli_has_no_gamma_flag(tmp_path, capsys, command):
    # the ascent's step size is gone: an old command line fails rather than runs
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as excinfo:
        run_cli(command, "--config", PAPER, "--out", out, "--gamma", 0.05)
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --gamma" in capsys.readouterr().err
    assert not out.exists()


def test_cli_zero_lambda_rejected_for_games(tmp_path, capsys):
    for command in ("static-eq", "dynamic-sim", "distributed-sim"):
        out = tmp_path / command
        assert run_cli(command, "--config", PAPER, "--out", out, "--lambda", 0) == 1
        assert capsys.readouterr().err == "advot: the game needs a positive smoothing weight lam\n"
        assert list(out.glob("*")) == []


def test_cli_zero_lambda_in_the_scenario_file_is_rejected_for_games(tmp_path, capsys):
    data = json.loads(PAPER.read_text())
    data["solver"]["lambda"] = 0
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(data))
    assert parse_scenario(path.read_text()).spec.settings == SolverSettings()
    assert run_cli("solve-ot", "--config", path, "--out", tmp_path / "solve-ot") == 0
    for command in ("static-eq", "dynamic-sim", "distributed-sim"):
        out = tmp_path / command
        assert run_cli(command, "--config", path, "--out", out) == 1
        assert capsys.readouterr().err == "advot: the game needs a positive smoothing weight lam\n"
        assert list(out.glob("*")) == []


def test_scalar_blocks_are_checked_before_the_game():
    # the game is built under the solver settings, so they are read first
    data = json.loads(PAPER.read_text())
    data["solver"]["tol"] = -1
    data["adversary"]["lower_caps"] = [6, 4]
    with pytest.raises(ValidationError, match="tol must be finite and > 0"):
        parse_scenario(json.dumps(data))


def test_one_game_is_built_per_cli_call(tmp_path, monkeypatch):
    built = []
    post_init = GameSpec.__post_init__
    monkeypatch.setattr(GameSpec, "__post_init__", lambda spec: built.append(post_init(spec)))
    assert run_cli("static-eq", "--config", PAPER, "--out", tmp_path / "run") == 0
    assert len(built) == 1
    config = parse_scenario(PAPER.read_text())
    assert config.game_spec() is config.spec
    # overridden solver settings give a game under them, built once more
    overridden = config.with_overrides(lam=2.0, tol=1e-6)
    assert overridden.game_spec().settings == SolverSettings(2.0, 1e-6)
    assert len(built) == 3
    assert config.game_spec() is config.spec


@pytest.mark.parametrize("command, limit_mb", [("static-eq", 4.0), ("dynamic-sim", 3.5)])
def test_run_command_peak_memory_on_a_sparse_game(tmp_path, command, limit_mb):
    # Per-edge values stay float64 arrays until their own text is built; a
    # trace table or report of Python floats held to the end peaks at
    # about 6 MB (static-eq) and 8.8 MB (dynamic-sim) here.  The JSON files
    # are written piece by piece: a dynamic-sim report laid out as one text
    # peaks at about 4.9 MB.
    config = parse_scenario(generate.scenario_text(generate.sparse_pool(1, 1)[0]))
    run_command(command, config, tmp_path)
    tracemalloc.start()
    try:
        run_command(command, config, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mb * 2**20, f"{command} peaked at {peak / 2**20:.2f} MB"


def test_parse_holds_each_input_once_on_a_sparse_game():
    # The config keeps the network's index arrays, the weights and the
    # coefficients as float64 and intp arrays, about 38 bytes an edge here;
    # Python-list copies of the weights, coefficients and caps kept beside
    # them come to 1.15 MB.
    text = generate.scenario_text(generate.sparse_pool(1, 1)[0])
    parse_scenario(text)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        config = parse_scenario(text)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert config.network.n_edges >= 10_000
    assert held <= 0.6 * 2**20, f"the parsed config holds {held / 2**20:.2f} MB"
    assert config.weights is config.spec.weights and not config.weights.flags.writeable
    overridden = config.with_overrides(lam=1.0, seed=3)
    assert all(getattr(overridden, name) is getattr(config, name)
               for name in ("network", "weights", "spec"))


def test_cli_emit_json(tmp_path):
    out = tmp_path / "json-run"
    assert run_cli("static-eq", "--config", PAPER, "--out", out, "--emit", "json") == 0
    lines = (out / "trace.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    assert first["kind"] == "static-eq"
    assert "x_j1_q1" in first


@pytest.mark.parametrize("command", ["solve-ot", "static-eq", "dynamic-sim", "distributed-sim"])
def test_trace_reads_back_against_the_report(tmp_path, command):
    csv_out, json_out = tmp_path / "csv", tmp_path / "json"
    assert run_cli(command, "--config", PAPER, "--out", csv_out) == 0
    assert run_cli(command, "--config", PAPER, "--out", json_out, "--emit", "json") == 0
    header, *rows = [line.split(",") for line in (csv_out / "trace.csv").read_text().splitlines()]
    records = [json.loads(line) for line in (json_out / "trace.jsonl").read_text().splitlines()]
    assert rows and len(records) == len(rows)
    assert all(list(record) == header for record in records)
    assert all(len(row) == len(header) for row in rows)

    report = json.loads((csv_out / "report.json").read_text())
    plan = report["stages"][-1]["plan"] if command == "dynamic-sim" else report["plan"]
    edge_columns = [f"x_{s}_{t}" for s, t in report["edges"]]
    assert [name for name in header if name.startswith("x_")] == edge_columns
    expected = [float(format(v, ".12g")) for v in plan]
    last_csv = dict(zip(header, rows[-1]))
    assert [float(last_csv[name]) for name in edge_columns] == expected
    assert [records[-1][name] for name in edge_columns] == expected


def test_cli_runs_are_byte_identical(tmp_path):
    for command, extra in [
        ("solve-ot", ()),
        ("static-eq", ()),
        ("dynamic-sim", ("--stages", 3)),
        ("distributed-sim", ("--seed", 4)),
    ]:
        out_a = tmp_path / f"{command}-a"
        out_b = tmp_path / f"{command}-b"
        assert run_cli(command, "--config", PAPER, "--out", out_a, *extra) == 0
        assert run_cli(command, "--config", PAPER, "--out", out_b, *extra) == 0
        for name in ("trace.csv", "report.json", "config_echo.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (
                f"{command}/{name} differs between identical runs"
            )
        if command == "distributed-sim":
            assert (out_a / "messages.log").read_bytes() == (out_b / "messages.log").read_bytes()


def test_run_command_rejects_unknown_subcommand(tmp_path):
    config = parse_scenario(MINIMAL.read_text())
    with pytest.raises(ValidationError):
        run_command("fix-everything", config, tmp_path)


def test_run_command_rejects_an_unknown_trace_format_before_writing(tmp_path):
    config = parse_scenario(PAPER.read_text())
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(ValidationError, match="unknown trace format 'xml'"):
        run_command("distributed-sim", config, out, emit="xml")
    assert list(out.iterdir()) == []


def test_minimal_scenario_supports_all_commands(tmp_path):
    for command in ("solve-ot", "static-eq", "dynamic-sim", "distributed-sim"):
        out = tmp_path / command
        assert run_cli(command, "--config", MINIMAL, "--out", out) == 0


# ---------------------------------------------------------------------------
# reruns into an output directory an earlier run used


def _files(out) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in out.iterdir()}


def test_cli_aborted_dynamic_sim_reports_its_failed_stage(tmp_path, large_capacity_config):
    # stage 1's inner solve cannot meet the absolute tol at capacities near 1e8
    out = tmp_path / "dyn"
    assert run_cli("dynamic-sim", "--config", large_capacity_config, "--out", out) == 2
    report = json.loads((out / "report.json").read_text())
    assert (report["converged"], report["failed_stage"], report["stages"]) == (False, 1, [])
    spec = parse_scenario(large_capacity_config.read_text()).game_spec()
    with pytest.raises(StageNotConverged) as excinfo:
        run_dynamic_game(spec, 5, 0.5)
    profile = excinfo.value.profile
    assert report["failed_profile"] == {
        "rounds": profile.iterations,
        "deviation_gap": profile.deviation_gap,
        "plan": profile.plan.tolist(),
    }


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
def test_cli_failed_rerun_leaves_no_output_of_the_earlier_run(tmp_path, capsys):
    out = tmp_path / "d"
    assert run_cli("static-eq", "--config", PAPER, "--out", out) == 0
    assert run_cli("static-eq", "--config", PAPER, "--out", out, "--lambda", 1e-300) == 1
    assert "prices or plan became non-finite" in capsys.readouterr().err
    assert sorted(_files(out)) == ["config_echo.json"]
    assert parse_scenario((out / "config_echo.json").read_text()).settings().lam == 1e-300


@pytest.mark.parametrize(
    ("first", "second", "kept"),
    [
        (("static-eq",), ("static-eq", "--emit", "json"), "trace.jsonl"),  # the old trace.csv goes
        (("distributed-sim",), ("static-eq",), "trace.csv"),  # the old messages.log goes
    ],
    ids=["other-trace-format", "other-subcommand"],
)
def test_cli_rerun_drops_the_outputs_it_does_not_write(tmp_path, first, second, kept):
    out = tmp_path / "d"
    for command, *flags in (first, second):
        assert run_cli(command, "--config", PAPER, "--out", out, *flags) == 0
    assert sorted(_files(out)) == ["config_echo.json", "report.json", kept]


def test_output_names_are_exactly_the_files_runs_write(tmp_path):
    written = set()
    for command in SUBCOMMANDS:
        for emit in TRACE_FORMATS:
            out = tmp_path / f"{command}-{emit}"
            assert run_cli(command, "--config", PAPER, "--out", out, "--emit", emit) == 0
            written |= set(_files(out))
    assert written == set(OUTPUT_NAMES)


@pytest.mark.parametrize("emit", TRACE_FORMATS)
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_cli_rerun_writes_the_bytes_of_a_fresh_run(tmp_path, command, emit):
    fresh, used = tmp_path / "fresh", tmp_path / "used"
    assert run_cli(command, "--config", PAPER, "--out", fresh, "--emit", emit) == 0
    # every output name holds more bytes than any run writes, and one file is no output
    used.mkdir()
    for name in OUTPUT_NAMES:
        (used / name).write_bytes(b"stale\n" * 50_000)
    (used / "notes.txt").write_bytes(b"kept\n")
    assert run_cli(command, "--config", PAPER, "--out", used, "--emit", emit) == 0
    assert _files(used) == {**_files(fresh), "notes.txt": b"kept\n"}


def test_cli_rerun_leaves_a_hard_link_to_an_old_output_alone(tmp_path):
    out = tmp_path / "d"
    assert run_cli("static-eq", "--config", PAPER, "--out", out, "--lambda", 2) == 0
    old = (out / "report.json").read_bytes()
    os.link(out / "report.json", tmp_path / "kept.json")
    assert run_cli("static-eq", "--config", PAPER, "--out", out) == 0
    assert (tmp_path / "kept.json").read_bytes() == old
    assert (out / "report.json").read_bytes() != old


def test_cli_rerun_replaces_a_symlink_instead_of_writing_through_it(tmp_path):
    out, target = tmp_path / "d", tmp_path / "elsewhere.json"
    out.mkdir()
    target.write_text("not an output\n")
    (out / "report.json").symlink_to(target)
    assert run_cli("static-eq", "--config", PAPER, "--out", out) == 0
    assert target.read_text() == "not an output\n"
    assert not (out / "report.json").is_symlink()
    assert json.loads((out / "report.json").read_text())["converged"] is True


def test_cli_directory_at_an_output_name_is_an_output_error(tmp_path, capsys):
    out = tmp_path / "d"
    (out / "report.json").mkdir(parents=True)
    assert run_cli("static-eq", "--config", PAPER, "--out", out) == 1
    assert capsys.readouterr().err.startswith("advot: cannot write outputs")
    assert (out / "report.json").is_dir()


def test_cli_file_at_the_output_directory_is_an_output_error(tmp_path, capsys):
    out = tmp_path / "d"
    out.write_text("not a directory\n")
    assert run_cli("static-eq", "--config", PAPER, "--out", out) == 1
    assert capsys.readouterr().err.startswith("advot: cannot write outputs")
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("edge",[[["j1"], "q1"], ["j1", {"id": "q1"}], [True, "q1"]])
def test_cli_rejects_an_edge_endpoint_that_is_not_an_id(tmp_path, capsys, edge):
    config = json.loads(PAPER.read_text())
    config["network"]["edges"][0] = edge
    path = tmp_path / "endpoint.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run_cli("static-eq", "--config", path, "--out", out) == 1
    assert capsys.readouterr().err == "advot: edge endpoints must be string or integer ids\n"
    assert not out.exists()


def _integer_ids(config):
    """The scenario with sources and targets renamed to integers, edges to match."""
    network = config["network"]
    rename = {i: k for k, i in enumerate(network["sources"] + network["targets"])}
    for key in ("sources", "targets"):
        network[key] = [rename[i] for i in network[key]]
    network["edges"] = [[rename[a], rename[b]] for a, b in network["edges"]]
    return config


@pytest.mark.parametrize(
    ("integer_ids", "endpoint", "capacities"),
    [
        (False, 1.5, [4, 3]),
        (False, True, [4]),  # the endpoint's fault is named before the capacities'
        (False, None, [-1, 3]),
        (True, 1.0, [4, 3]),  # equal to the source id 1, so only the type scan rejects it
        (True, False, [4, 3]),  # equal to the source id 0
        (True, 1.5, "four"),
    ],
)
def test_an_endpoint_of_another_type_is_named_first(integer_ids, endpoint, capacities):
    config = json.loads(PAPER.read_text())
    if integer_ids:
        config = _integer_ids(config)
    config["network"]["edges"][-1][0] = endpoint
    config["network"]["capacities"] = capacities
    with pytest.raises(ValidationError) as excinfo:
        parse_scenario(json.dumps(config))
    assert str(excinfo.value) == "edge endpoints must be string or integer ids"
