"""Run one workload in this process and print its measurements as one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py --workload compare-32 --seed 1 --seconds 40 --trace 0

``run.py`` starts one worker process per workload, one at a time. The
worker is a single closed-loop client: it calls ``qlanroute.cli.main`` in
process, waits for it to return, checks the outputs outside the timed
region, and starts the next op.

With ``--trace 1`` every op runs twice in a row: untraced, then with every
function listed in ``WRAPS`` replaced, at the module attribute its callers
look up, by a wrapper that records a span (name, start, end, parent span,
op id) and, for some, a counter read from the arguments or the result. The
originals are put back after each traced op. The spans stay in memory
until the run ends and are then written to
``.perfbench_work/spans-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from workloads import CheckFailed, Op, build_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "workloads.json").read_text())


def _edges_toggled(counts, args, result):
    counts["graph.local_complement.edges_toggled"] += len(args[0].edges ^ result.edges)


def _measurements(counts, args, result):
    counts["switching.measurements"] += len(result[1])


def _branches(counts, args, result):
    counts["oracle.branches"] += len(result.branches)


def _routing(counts, args, result):
    for side in ("tqr", "complement"):
        report = getattr(result, side)
        counts[f"routing.{side}_served"] += len(report.served)
        counts[f"routing.{side}_requests"] += len(report.served) + len(report.failed)
    counts["routing.tqr_rounds"] += result.tqr.rounds
    counts["routing.tqr_swaps"] += result.tqr.swap_count


# (module, attribute its callers look up, span name, counter)
WRAPS = [
    ("qlanroute.cli", "load_scenario", "scenario.load_scenario", None),
    ("qlanroute.cli", "scenario_graph", "scenario.build", None),
    ("qlanroute.cli", "scenario_topology", "scenario.build", None),
    ("qlanroute.cli", "scenario_requests", "scenario.build", None),
    ("qlanroute.cli", "augment_case1", "switching.augment", None),
    ("qlanroute.cli", "augment_case2", "switching.augment", None),
    ("qlanroute.cli", "run_pipeline", "switching.run_pipeline", _measurements),
    ("qlanroute.cli", "records_to_json", "switching.records_to_json", None),
    ("qlanroute.cli", "graph_to_json", "graph.graph_to_json", None),
    ("qlanroute.cli", "complement_graph", "graph.complement_graph", None),
    ("qlanroute.cli", "verify_pipeline", "oracle.verify_pipeline", _branches),
    ("qlanroute.cli", "compare_strategies", "routing.compare", _routing),
    ("qlanroute.scenario", "client_graph", "graph.client_graph", None),
    ("qlanroute.switching", "measure_x", "switching.measure_x", None),
    ("qlanroute.switching", "local_complement", "graph.local_complement", _edges_toggled),
    ("qlanroute.switching", "delete_vertex", "graph.delete_vertex", None),
    ("qlanroute.routing", "run_tqr", "routing.run_tqr", None),
    ("qlanroute.routing", "find_path", "routing.find_path", None),
    ("qlanroute.routing", "execute_complement", "routing.execute_complement", None),
    ("qlanroute.routing", "augment_case1", "switching.augment", None),
    ("qlanroute.routing", "augment_case2", "switching.augment", None),
    ("qlanroute.routing", "run_pipeline", "switching.run_pipeline", _measurements),
    ("qlanroute.oracle", "measure_x", "oracle.replay", None),
    ("qlanroute.oracle", "prepare_graph_state", "oracle.prepare_graph_state", None),
    ("qlanroute.oracle", "project_x", "oracle.project_x", None),
    ("qlanroute.oracle", "apply_x_corrections", "oracle.apply_x_corrections", None),
]


class Tracer:
    """Spans and counters recorded by wrappers around the package's functions.

    An attribute in WRAPS that the package no longer has is skipped and
    listed in ``missing``, so its layer reads 0 instead of the traced run
    failing.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.patches = []  # (module, attribute, original, wrapper)
        self.missing = []
        for module_name, attr, span, count in WRAPS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                original = getattr(module, attr)
                self.patches.append((module, attr, original, self.wrap(span, original, count)))
            else:
                self.missing.append(f"{module_name}.{attr}")

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """The wrappers in place of the originals for the duration of the block."""
        try:
            for module, attr, _, wrapper in self.patches:
                setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, original, _ in self.patches:
                setattr(module, attr, original)


# -- the closed loop ---------------------------------------------------------


@dataclass
class Phase:
    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    bytes_written: int = 0
    busy: float = 0.0  # summed wall time of the ops

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.busy


def _invoke(main, argv: list[str]) -> tuple[int | None, str]:
    """One in-process CLI call: (exit code, captured output), code None on an exception."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            main(argv, prog_name="qlanroute")
        except SystemExit as exc:
            code = 1 if isinstance(exc.code, str) else exc.code or 0  # as the interpreter maps it
            return code, sink.getvalue()
        except Exception as exc:  # an op that raises counts as failed; the loop goes on
            return None, f"{type(exc).__name__}: {exc}"
    return 0, sink.getvalue()


def _run_op(op: Op, k: int, out: Path, main, phase: Phase) -> None:
    for name in op.outputs:
        (out / name).unlink(missing_ok=True)
    t0 = time.perf_counter()
    code, output = _invoke(main, op.argv)
    phase.latencies.append(time.perf_counter() - t0)
    phase.busy += phase.latencies[-1]
    try:
        if code != op.expect_code:
            tail = output.strip().splitlines()[-1:] or [""]
            raise CheckFailed(f"exit code {code}, expected {op.expect_code}: {tail[0]}")
        op.check(out)
    except CheckFailed as exc:
        phase.failures.append(f"op {k} ({op.argv[0]}): {exc}")
    phase.bytes_written += sum((out / n).stat().st_size for n in op.outputs if (out / n).exists())


def run_loop(ops: list[Op], seconds: float, min_ops: int, out: Path, main,
             tracer: Tracer | None = None) -> list[Phase]:
    """Run ops in turn until their summed wall time reaches ``seconds``.

    With a tracer every op runs twice in a row, untraced and then traced,
    so a drift in machine speed cannot pass for tracing overhead. Returns
    one Phase per mode.
    """
    phases = [Phase()] if tracer is None else [Phase(), Phase()]
    traced_main = None if tracer is None else tracer.wrap("cli", main)
    k = 0
    while sum(p.busy for p in phases) < seconds or k < min_ops:
        op = ops[k % len(ops)]
        _run_op(op, k, out, main, phases[0])
        if tracer is not None:
            tracer.op = k
            with tracer.installed():
                _run_op(op, k, out, traced_main, phases[1])
        k += 1
    return phases


# -- metrics -----------------------------------------------------------------


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(phase: Phase) -> dict:
    return {
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "latency_p90_ms": (_p90([t * 1000 for t in phase.latencies]), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# per-layer metric -> unit; "<span>.ms_per_op" and "<span>.calls_per_op" come
# from the spans, the rest from counters
PER_LAYER = {
    "graph.local_complement.ms_per_op": "ms/op",
    "graph.local_complement.calls_per_op": "calls/op",
    "graph.local_complement.edges_toggled_per_op": "edges/op",
    "graph.delete_vertex.ms_per_op": "ms/op",
    "graph.client_graph.ms_per_op": "ms/op",
    "graph.complement_graph.ms_per_op": "ms/op",
    "graph.graph_to_json.ms_per_op": "ms/op",
    "switching.augment.ms_per_op": "ms/op",
    "switching.run_pipeline.ms_per_op": "ms/op",
    "switching.measure_x.calls_per_op": "calls/op",
    "switching.measurements_per_op": "count/op",
    "switching.records_to_json.ms_per_op": "ms/op",
    "routing.compare.ms_per_op": "ms/op",
    "routing.run_tqr.ms_per_op": "ms/op",
    "routing.find_path.ms_per_op": "ms/op",
    "routing.find_path.calls_per_op": "calls/op",
    "routing.execute_complement.ms_per_op": "ms/op",
    "routing.tqr_rounds_per_op": "count/op",
    "routing.tqr_swaps_per_op": "count/op",
    "routing.tqr_served_ratio": "ratio",
    "routing.complement_served_ratio": "ratio",
    "oracle.verify_pipeline.ms_per_op": "ms/op",
    "oracle.replay.ms_per_op": "ms/op",
    "oracle.prepare_graph_state.ms_per_op": "ms/op",
    "oracle.prepare_graph_state.calls_per_op": "calls/op",
    "oracle.project_x.ms_per_op": "ms/op",
    "oracle.project_x.calls_per_op": "calls/op",
    "oracle.apply_x_corrections.ms_per_op": "ms/op",
    "oracle.branches_per_op": "count/op",
    "scenario.load_scenario.ms_per_op": "ms/op",
    "scenario.build.ms_per_op": "ms/op",
    "cli.self_ms_per_op": "ms/op",
    "cli.op_ms_per_op": "ms/op",
    "cli.bytes_written_per_op": "bytes/op",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, traced: Phase, untraced: Phase) -> tuple[dict, dict]:
    """Per-op layer metrics, plus self times and the nesting check for the details."""
    spans = tracer.spans
    ms, calls, self_ms = defaultdict(float), Counter(), defaultdict(float)
    child_ms = defaultdict(float)
    nested = True
    for name, t0, t1, parent, _ in spans:
        ms[name] += (t1 - t0) * 1000
        calls[name] += 1
        if parent >= 0:
            child_ms[parent] += (t1 - t0) * 1000
            p = spans[parent]
            nested &= p[1] <= t0 and t1 <= p[2]
    for i, (name, t0, t1, _, _) in enumerate(spans):
        self_ms[name] += (t1 - t0) * 1000 - child_ms[i]
    n = len(traced.latencies)
    c = tracer.counts
    values = {
        "routing.tqr_served_ratio": _ratio(c["routing.tqr_served"], c["routing.tqr_requests"]),
        "routing.complement_served_ratio": _ratio(c["routing.complement_served"],
                                                  c["routing.complement_requests"]),
        "graph.local_complement.edges_toggled_per_op": c["graph.local_complement.edges_toggled"] / n,
        "switching.measurements_per_op": c["switching.measurements"] / n,
        "routing.tqr_rounds_per_op": c["routing.tqr_rounds"] / n,
        "routing.tqr_swaps_per_op": c["routing.tqr_swaps"] / n,
        "oracle.branches_per_op": c["oracle.branches"] / n,
        "cli.self_ms_per_op": self_ms["cli"] / n,
        "cli.op_ms_per_op": ms["cli"] / n,
        "cli.bytes_written_per_op": traced.bytes_written / n,
        "trace.overhead_ratio": traced.ops_per_s / untraced.ops_per_s,
    }
    for name in PER_LAYER:
        if name.endswith(".ms_per_op") and name not in values:
            values[name] = ms[name[: -len(".ms_per_op")]] / n
        elif name.endswith(".calls_per_op"):
            values[name] = calls[name[: -len(".calls_per_op")]] / n
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER.items()}
    details = {
        "self_ms_per_op": {name: v / n for name, v in sorted(self_ms.items())},
        "self_sum_ms_per_op": sum(self_ms.values()) / n,
        "spans_nested": nested,
    }
    return metrics, details


# -- entry point -------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import qlanroute
    import qlanroute.cli

    if not Path(qlanroute.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"qlanroute was imported from {qlanroute.__file__}, not from {ROOT / 'src'}")
    spec = SPEC["workloads"][workload]
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    out = work / "out"
    out.mkdir(parents=True)
    try:
        ops = build_ops(workload, spec, seed, smoke, work, out)
        min_ops = len(ops) if smoke else 1
        details: dict = {"workload": workload, "seed": seed, "size": spec["smoke_size" if smoke else "size"]}
        tracer = Tracer() if trace else None
        phases = run_loop(ops, seconds, min_ops, out, qlanroute.cli.main, tracer)
        details["samples"] = len(phases[-1].latencies)
        details["latency_p50_ms"] = statistics.median(phases[-1].latencies) * 1000
        if tracer is None:
            metrics = end_to_end(phases[0])
        else:
            metrics, trace_details = per_layer(tracer, traced=phases[1], untraced=phases[0])
            details.update(trace_details, unwrapped=tracer.missing)
            spans_path = ROOT / ".perfbench_work" / f"spans-{workload}-{seed}.json"
            spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                              "spans": tracer.spans}))
            details["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]
    details.update(error_rate=len(failures) / attempted, failures=failures[:5])
    return {
        "correct": not failures and details.get("spans_nested", True),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "details": details,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every op of the pool once")
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
