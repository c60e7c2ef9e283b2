"""End-to-end CLI tests via click's runner."""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qlanroute
from qlanroute import __version__
from qlanroute.cli import main
from qlanroute.graph import complement_graph, graph_to_json
from qlanroute.scenario import load_bundled_scenario, scenario_graph


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


def assert_one_json_error(result, code):
    """A documented nonzero exit: the code, one JSON error line on stderr, no traceback."""
    assert result.exit_code == code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1, result.stderr
    return json.loads(lines[0])["error"]


SCENARIO = {
    "qlan1": 2, "qlan2": 2,
    "inter_links": [["1.1", "2.1"], ["1.2", "2.2"]],
    "physical_links": [["1.1", "2.1"], ["2.1", "1.2"], ["1.2", "2.2"]],
    "requests": [["1.1", "2.2"], ["1.2", "2.1"]],
    "case": "I",
    "seed": 4,
}


def write_scenario(tmp_path, name="sc.json", **overrides):
    data = {**SCENARIO, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


# -- complement ------------------------------------------------------------


def test_complement_fig2_matches_declarative_reference(runner, tmp_path):
    result = invoke(runner, "complement", "--scenario", "fig2", "--out", tmp_path)
    assert result.exit_code == 0, result.output
    produced = json.loads((tmp_path / "result_graph.json").read_text())
    reference = complement_graph(scenario_graph(load_bundled_scenario("fig2")))
    assert produced == graph_to_json(reference)
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert [t["measured"] for t in trace] == ["s2", "s1"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["measurements"] == 2
    assert summary["matches_declarative_complement"] is True


def test_complement_rejects_empty_qlan(runner, tmp_path):
    path = write_scenario(tmp_path, qlan1=0, inter_links=[], physical_links=[], requests=[])
    result = invoke(runner, "complement", "--scenario", path, "--out", tmp_path / "out")
    assert result.exit_code == 1
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["kind"] == "validation"
    assert "empty QLAN" in err["error"]["message"]


def test_complement_dot_export_is_well_formed(runner, tmp_path):
    result = invoke(runner, "complement", "--scenario", "fig1", "--out", tmp_path,
                    "--format", "dot")
    assert result.exit_code == 0
    dot = (tmp_path / "result_graph.dot").read_text()
    assert dot.startswith("graph ") and dot.rstrip().endswith("}")
    assert '"1.1"' in dot and '"2.1"' in dot
    # every line between the braces declares a node or joins two declared nodes
    nodes, edges = set(), []
    for line in dot.splitlines()[1:-1]:
        node = re.fullmatch(r'  "([^"]+)" \[[^\]]+\];', line)
        edge = re.fullmatch(r'  "([^"]+)" -- "([^"]+)";', line)
        assert node or edge, line
        if node:
            nodes.add(node[1])
        else:
            edges.append(edge.groups())
    assert nodes == {v.name for v in scenario_graph(load_bundled_scenario("fig1")).order}
    assert edges and all(u in nodes and v in nodes for u, v in edges)


def test_complement_with_oracle_flag(runner, tmp_path):
    result = invoke(runner, "complement", "--scenario", "exhaustive_small",
                    "--out", tmp_path, "--oracle")
    assert result.exit_code == 0
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report["passed"] is True


def test_complement_oracle_reports_are_byte_reproducible(runner, tmp_path):
    # complement has no --normalize: its verification.json never holds a clock
    texts = []
    for run in ("a", "b"):
        result = invoke(runner, "complement", "--scenario", "exhaustive_small",
                        "--out", tmp_path / run, "--oracle")
        assert result.exit_code == 0, result.output
        texts.append({p.name: p.read_bytes() for p in (tmp_path / run).iterdir()})
    assert texts[0] == texts[1]
    assert json.loads(texts[0]["verification.json"])["wall_time_s"] is None


def test_complement_retain_override_changes_result(runner, tmp_path):
    result = invoke(runner, "complement", "--scenario", "fig1", "--out", tmp_path,
                    "--retain", "1.2")
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["retained"] == ["1.2"]
    assert summary["matches_declarative_complement"] is None


@pytest.mark.parametrize("source", ["flag", "scenario"])
def test_summary_lists_each_retained_client_once(runner, tmp_path, source):
    # the switch holds the retained clients as a set; the summary names each
    # once, in the order of first occurrence
    names = ["2.2", "1.1", "2.2", "1.1"]
    if source == "flag":
        args = ("--scenario", write_scenario(tmp_path), "--retain", ",".join(names))
    else:
        args = ("--scenario", write_scenario(tmp_path, retain=names))
    result = invoke(runner, "complement", *args, "--out", tmp_path / "out")
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["retained"] == ["2.2", "1.1"]


def test_complement_k0_override(runner, tmp_path):
    result = invoke(runner, "complement", "--scenario", "fig2", "--out", tmp_path,
                    "--k0", "1.2")
    assert result.exit_code == 0
    assert json.loads((tmp_path / "summary.json").read_text())["k0"] == "1.2"


def test_complement_rejects_a_non_utf8_scenario_file(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    result = invoke(runner, "complement", "--scenario", path, "--out", tmp_path / "out")
    assert assert_one_json_error(result, 1)["kind"] == "validation"


def test_complement_rejects_a_too_deeply_nested_scenario_file(runner, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    result = invoke(runner, "complement", "--scenario", path, "--out", tmp_path / "out")
    assert "too deep" in assert_one_json_error(result, 1)["message"]


@pytest.mark.parametrize("flag", ["--k0=1.\u00b2", "--retain=2.\u00b2", "--retain=1.1,1.\u2460"])
def test_flag_names_with_non_decimal_digits_are_validation_errors(runner, tmp_path, flag):
    # "\u00b2".isdigit() is true but int() rejects it
    result = invoke(runner, "complement", "--scenario", "fig2", "--out", tmp_path, flag)
    assert "cannot parse" in assert_one_json_error(result, 1)["message"]


@pytest.mark.parametrize("flag", ["--retain=1.01", "--k0=1.02"])
def test_flag_names_must_be_canonical_vertex_names(runner, tmp_path, flag):
    # "1.01" would parse as client 1.1, and the summary would echo "1.01"
    out = tmp_path / "out"
    result = invoke(runner, "complement", "--scenario", "fig2", "--out", out, flag)
    assert "cannot parse" in assert_one_json_error(result, 1)["message"]
    assert not out.exists()


def test_complement_missing_scenario_file(runner, tmp_path):
    result = invoke(runner, "complement", "--scenario", tmp_path / "none.json",
                    "--out", tmp_path)
    assert result.exit_code == 1
    assert "does not exist" in result.stderr


# -- verify ------------------------------------------------------------------


def test_verify_passes_on_small_scenario(runner, tmp_path):
    result = invoke(runner, "verify", "--scenario", "exhaustive_small", "--out", tmp_path)
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report["passed"] is True
    assert len(report["branches"]) == 4
    assert all(b["fidelity"] == pytest.approx(1.0, abs=1e-9) for b in report["branches"])


def test_verify_corrupt_negative_control(runner, tmp_path):
    result = invoke(runner, "verify", "--scenario", "exhaustive_small", "--out", tmp_path,
                    "--corrupt")
    assert result.exit_code == 1
    report = json.loads((tmp_path / "verification.json").read_text())
    assert report["passed"] is False
    assert min(b["fidelity"] for b in report["branches"]) <= 0.5 + 1e-9
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["kind"] == "verification_failed"


def test_verify_capacity_exit_code(runner, tmp_path):
    path = write_scenario(
        tmp_path, qlan1=7, qlan2=7, inter_links=[["1.1", "2.1"]],
        physical_links=[], requests=[],
    )
    result = invoke(runner, "verify", "--scenario", path, "--out", tmp_path / "out")
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"]["kind"] == "capacity"
    assert "smaller" in err["error"]["message"]


def test_verify_writes_its_wall_time(runner, tmp_path):
    result = invoke(runner, "verify", "--scenario", "exhaustive_small", "--out", tmp_path)
    assert result.exit_code == 0, result.output
    wall = json.loads((tmp_path / "verification.json").read_text())["wall_time_s"]
    assert isinstance(wall, float) and wall >= 0


def test_verify_normalize_blanks_wall_time(runner, tmp_path):
    result = invoke(runner, "verify", "--scenario", "exhaustive_small", "--out", tmp_path,
                    "--normalize")
    assert result.exit_code == 0
    assert json.loads((tmp_path / "verification.json").read_text())["wall_time_s"] is None


# -- compare -------------------------------------------------------------------


def test_compare_fig1_shows_the_parallel_service_gap(runner, tmp_path):
    result = invoke(runner, "compare", "--scenario", "fig1", "--out", tmp_path)
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "comparison.json").read_text())
    assert report["complement"]["rounds"] == 1
    assert report["tqr"]["rounds"] >= 2
    assert report["complement"]["measurement_count"] == 2
    assert "proactive" in result.output and "reactive" in result.output


def test_compare_without_requests_writes_strict_json(runner, tmp_path):
    # no requests and run_when_empty false: the complement side runs 0 rounds,
    # so there is no rounds ratio; the report must say null, not Infinity
    path = write_scenario(tmp_path, requests=[], run_when_empty=False)
    result = invoke(runner, "compare", "--scenario", path, "--out", tmp_path / "out")
    assert result.exit_code == 0, result.output

    def reject(constant):
        raise ValueError(f"comparison.json holds the non-standard JSON constant {constant}")

    report = json.loads((tmp_path / "out" / "comparison.json").read_text(), parse_constant=reject)
    assert report["complement"]["rounds"] == 0
    assert report["rounds_ratio"] is None


def test_compare_csv_artifact(runner, tmp_path):
    result = invoke(runner, "compare", "--scenario", "fig1", "--out", tmp_path,
                    "--format", "csv")
    assert result.exit_code == 0
    lines = (tmp_path / "comparison.csv").read_text().splitlines()
    assert lines[0].startswith("index,seed,n1,n2")
    assert len(lines) == 2


def test_compare_csv_counts_each_inter_link_once(runner, tmp_path):
    # a file may list one link several times, in either direction
    path = write_scenario(tmp_path, inter_links=[["1.1", "2.1"], ["2.1", "1.1"], ["1.1", "2.1"]])
    result = invoke(runner, "compare", "--scenario", path, "--out", tmp_path / "out", "--format", "csv")
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(io.StringIO((tmp_path / "out" / "comparison.csv").read_text())))
    assert [row["inter_links"] for row in rows] == ["1"]


def test_compare_rejects_the_dot_format_as_a_usage_error(runner, tmp_path):
    # compare has no graph to draw: dot is a complement format only
    result = invoke(runner, "compare", "--scenario", "fig1", "--out", tmp_path, "--format", "dot")
    assert result.exit_code == 2
    assert "Invalid value for '--format'" in result.stderr
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["complement", "verify"])
def test_seed_is_a_usage_error_where_no_report_reads_it(runner, tmp_path, command):
    # only compare (the scenario seed it reports) and sweep (the master seed) take --seed
    result = invoke(runner, command, "--scenario", "exhaustive_small", "--out", tmp_path,
                    "--seed", 3)
    assert result.exit_code == 2
    assert "No such option" in result.stderr and "--seed" in result.stderr
    assert not any(tmp_path.iterdir())


# -- sweep ----------------------------------------------------------------------


def test_sweep_is_byte_deterministic(runner, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        result = invoke(runner, "sweep", "--count", 6, "--seed", 99, "--out", out,
                        "--normalize")
        assert result.exit_code == 0, result.output
    assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
    assert (a / "sweep.json").read_bytes() == (b / "sweep.json").read_bytes()


def test_sweep_rows_hold_the_constant_cost_invariant(runner, tmp_path):
    result = invoke(runner, "sweep", "--count", 10, "--seed", 3, "--out", tmp_path)
    assert result.exit_code == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 10
    for row in rows:
        cols = row.split(",")
        assert cols[10] == "1"  # complement_rounds
        assert cols[11] == "2"  # complement_measurements
    assert "constant at 1 round / 2 measurements: True" in result.output


def test_sweep_rejects_bad_count(runner, tmp_path):
    result = invoke(runner, "sweep", "--count", 0, "--out", tmp_path)
    assert result.exit_code == 1


@pytest.mark.parametrize("sizes", [("--n1", 0), ("--n2", -1), ("--n1", 1, "--n2", 1)])
def test_sweep_rejects_sizes_random_scenarios_cannot_fill(runner, tmp_path, sizes):
    result = invoke(runner, "sweep", "--count", 2, "--out", tmp_path, *sizes)
    assert assert_one_json_error(result, 1)["kind"] == "validation"


def test_version_option_prints_the_package_version(runner):
    result = invoke(runner, "--version")
    assert result.exit_code == 0
    assert __version__ in result.output


@pytest.mark.parametrize("args, usage, first_line", [
    (["--help"], "Usage: main [OPTIONS] COMMAND [ARGS]...", "Graph-complement switching"),
    (["complement", "--help"], "Usage: main complement [OPTIONS]", "Run the super-node measurement"),
])
def test_help_prints_the_command_help_once(runner, args, usage, first_line):
    result = invoke(runner, *args)
    assert result.exit_code == 0
    assert result.output.startswith(usage + "\n\n  " + first_line)
    assert result.output.count("Usage:") == 1 and "--help" in result.output
    assert result.output.endswith("\n") and not result.output.endswith("\n\n")


def _call_in_process(argv):
    """One in-process CLI call with its output sent to a fresh stream; returns
    the exit code and a weak reference to that stream."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            main(argv, prog_name="qlanroute")
        except SystemExit as exc:
            return exc.code, weakref.ref(sink)
    return 0, weakref.ref(sink)


def test_in_process_calls_do_not_keep_their_output_streams(tmp_path):
    # a library caller that captures each call's output in a fresh stream
    # must get every stream back once it drops it
    calls = [
        (["complement", "--scenario", "fig2", "--out", str(tmp_path / "a")], 0),
        (["complement", "--scenario", "fig2", "--out", str(tmp_path / "b")], 0),
        (["verify", "--scenario", "exhaustive_small", "--corrupt", "--out", str(tmp_path / "c")], 1),
        (["--version"], 0),
        (["--help"], 0),
        (["complement", "--help"], 0),
        ([], 2),
    ]
    refs = []
    for argv, expected in calls:
        code, ref = _call_in_process(argv)
        assert code == expected
        refs.append(ref)
    gc.collect()
    assert [ref() is None for ref in refs] == [True] * len(calls)


def test_no_arguments_print_the_group_help_on_stderr(runner):
    result = invoke(runner)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("Usage: main [OPTIONS] COMMAND [ARGS]...\n\n  Graph-complement")


# -- import boundary ------------------------------------------------------------

# Runs in a fresh interpreter, since this test process has numpy loaded: a
# module name is imported, an argv list is one in-process CLI call. Prints
# the call's exit code (null for an import) and whether numpy got loaded.
_IMPORT_PROBE = """
import contextlib, io, json, sys
target = json.loads(sys.argv[1])
code = None
if isinstance(target, str):
    __import__(target)
else:
    from qlanroute.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(target, prog_name="qlanroute")
        except SystemExit as exc:
            code = exc.code
print(json.dumps([code, "numpy" in sys.modules]))
"""


@pytest.mark.parametrize("target, code, loads_numpy", [
    ("qlanroute", None, False),
    ("qlanroute.cli", None, False),
    (["--help"], 0, False),
    (["complement", "--scenario", "{scenario}", "--format", "csv", "--out", "{out}"], 0, False),
    (["compare", "--scenario", "{scenario}", "--out", "{out}"], 0, False),
    (["sweep", "--count", "3", "--out", "{out}"], 0, False),
    (["verify", "--scenario", "{scenario}", "--out", "{out}"], 0, True),
    (["complement", "--scenario", "{scenario}", "--oracle", "--out", "{out}"], 0, True),
], ids=["import", "import-cli", "help", "complement", "compare", "sweep", "verify", "oracle"])
def test_only_the_oracle_commands_load_numpy(tmp_path, target, code, loads_numpy):
    if isinstance(target, list):
        scenario = write_scenario(tmp_path)
        target = [a.format(scenario=scenario, out=tmp_path / "out") for a in target]
    src = str(Path(qlanroute.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(target)],
                           capture_output=True, text=True, env=env, check=True)
    assert json.loads(probe.stdout) == [code, loads_numpy]


# -- report writing -------------------------------------------------------------


@pytest.mark.parametrize("args, reports", [
    (["complement", "--scenario", "fig2"], ["result_graph.json", "trace.json", "summary.json"]),
    (["verify", "--scenario", "exhaustive_small"], ["verification.json"]),
    (["compare", "--scenario", "fig1", "--format", "csv"], ["comparison.json", "comparison.csv"]),
    (["sweep", "--count", 1], ["sweep.csv", "sweep.json"]),
], ids=["complement", "verify", "compare", "sweep"])
def test_an_unwritable_report_is_a_validation_error(runner, tmp_path, args, reports):
    blocker = tmp_path / "file"
    blocker.write_text("")
    result = invoke(runner, *args, "--out", blocker / "sub")
    assert "cannot write report" in assert_one_json_error(result, 1)["message"]
    for blocked in reports:
        out = tmp_path / blocked
        (out / blocked).mkdir(parents=True)  # a directory sitting at one report's path
        result = invoke(runner, *args, "--out", out)
        assert f"cannot write report {out / blocked}" in assert_one_json_error(result, 1)["message"]
        # none of the run's other reports, and no .tmp file, is left behind
        assert [p.name for p in out.iterdir()] == [blocked]


# -- bundled scenarios --------------------------------------------------------


def test_every_bundled_scenario_runs_end_to_end_quickly(runner, tmp_path):
    import time

    from qlanroute.scenario import bundled_scenario_names, load_bundled_scenario

    t0 = time.perf_counter()
    for name in bundled_scenario_names():
        out = tmp_path / name
        assert invoke(runner, "complement", "--scenario", name, "--out", out).exit_code == 0
        assert invoke(runner, "compare", "--scenario", name, "--out", out).exit_code == 0
        sc = load_bundled_scenario(name)
        if sc.n1 + sc.n2 + 2 <= 14:
            assert invoke(runner, "verify", "--scenario", name, "--out", out).exit_code == 0
    assert time.perf_counter() - t0 < 60


# -- input fuzz ----------------------------------------------------------------

_NAMES = st.sampled_from(["1.1", "1.2", "1.4", "2.1", "2.3", "2.4", "1.0", "3.1", "s1", "x", ""])
_ANY = st.one_of(st.none(), st.booleans(), st.integers(-3, 5), st.floats(allow_nan=False),
                 st.text(max_size=4))
_PAIRS = st.one_of(
    st.lists(st.lists(_NAMES, min_size=2, max_size=2), max_size=5),
    st.lists(st.one_of(_NAMES, st.lists(_NAMES, max_size=3)), max_size=3),
    _ANY,
)
_FIELDS = {
    "qlan1": st.one_of(st.integers(-1, 4), _ANY),
    "qlan2": st.one_of(st.integers(-1, 4), _ANY),
    "inter_links": _PAIRS,
    "physical_links": _PAIRS,
    "requests": _PAIRS,
    "comm_qubits": st.one_of(st.dictionaries(_NAMES, st.one_of(st.integers(-1, 3), _ANY),
                                             max_size=3), _ANY),
    "retain": st.one_of(st.lists(_NAMES, max_size=3), _ANY),
    "case": st.one_of(st.sampled_from(["I", "II", "III"]), _ANY),
    "seed": _ANY,
    "run_when_empty": _ANY,
    "name": _ANY,
    "hops": _ANY,  # not a scenario field
}
_OVERRIDE = st.sampled_from(sorted(_FIELDS)).flatmap(lambda k: _FIELDS[k].map(lambda v: (k, v)))
# a valid scenario with a few fields replaced, any JSON value, or raw bytes
_SCENARIO_BYTES = st.one_of(
    st.lists(_OVERRIDE, max_size=3).map(lambda kv: json.dumps({**SCENARIO, **dict(kv)}).encode()),
    st.one_of(st.lists(st.integers()), _ANY).map(lambda v: json.dumps(v).encode()),
    st.binary(max_size=64),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=_SCENARIO_BYTES, command=st.sampled_from(["complement", "compare"]))
def test_any_scenario_file_takes_a_documented_exit_path(runner, tmp_path, content, command):
    path = tmp_path / "fuzz.json"
    path.write_bytes(content)
    result = invoke(runner, command, "--scenario", path, "--out", tmp_path / "out")
    assert result.exit_code in (0, 1, 2, 3), result.output
    if result.exit_code:
        assert_one_json_error(result, result.exit_code)
    else:
        assert result.exception is None


# The command-line flags: names from every class (valid, super, out of range,
# malformed, arbitrary text), repeated, on a valid scenario of at most 4+4
# clients. ``--case`` takes only I and II; click rejects any other value as a
# usage error before the command runs.
_FLAG_NAMES = st.one_of(
    st.sampled_from(["1.1", "1.2", "1.4", "2.1", "2.3", "2.4", "1.5", "2.9", "1.0", "01.1",
                     "1.01", "3.1", "s1", "s2", "1.-1", "1.\u00b2", "1.\u0663", "x", "", " 1.1"]),
    st.text(max_size=4),
)


@st.composite
def _flag_runs(draw):
    n1, n2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pairs = [(f"1.{i}", f"2.{j}") for i in range(1, n1 + 1) for j in range(1, n2 + 1)]
    links = [p for p in pairs if draw(st.booleans())]
    names = sorted(f"1.{i}" for i in range(1, n1 + 1)) + sorted(f"2.{j}" for j in range(1, n2 + 1))
    scenario = {
        "qlan1": n1, "qlan2": n2, "inter_links": links,
        "physical_links": list(zip(names, names[1:])),
        "requests": [p for p in pairs if p not in links][:draw(st.integers(0, 3))],
        "run_when_empty": draw(st.booleans()),
    }
    command = draw(st.sampled_from(["complement", "verify", "compare"]))
    flags = []
    if draw(st.booleans()):
        flags.append("--case=" + draw(st.sampled_from(["I", "II"])))
    if draw(st.booleans()):
        flags.append("--retain=" + ",".join(draw(st.lists(_FLAG_NAMES, max_size=4))))
    if command != "compare" and draw(st.booleans()):
        flags.append("--k0=" + draw(_FLAG_NAMES))
    return scenario, command, flags


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(run=_flag_runs())
def test_any_flag_value_takes_a_documented_exit_path(runner, tmp_path, run):
    scenario, command, flags = run
    path = tmp_path / "flags.json"
    path.write_text(json.dumps(scenario))
    result = invoke(runner, command, "--scenario", path, "--out", tmp_path / "out", *flags)
    assert result.exit_code in (0, 1, 2, 3), result.output
    if result.exit_code:
        assert_one_json_error(result, result.exit_code)
    else:
        assert result.exception is None
