"""Batch front-end: run complement switches, oracle verification and
strategy comparisons from scenario files and write machine-readable reports.

Exit codes: 0 success, 1 validation failure, 2 oracle capacity exceeded,
3 internal assertion (a bug, never bad input). Every nonzero exit prints a
one-line JSON error object on stderr. A command writes its reports all
or none: each is staged as a temporary file, then renamed over its target.
A report that cannot be written, say under an ``--out`` below a regular
file or over a directory, is a validation failure and leaves none of the
run's reports and no temporary file. Every JSON report goes through one
stdlib writer, ``_json_report``, whose bytes equal
``json.dumps(obj, indent=2, sort_keys=True)`` and a newline. It builds
each report as one flat list of text pieces, joined once; it renders the
graph reports' edge blocks straight from the adjacency rows, and appends
a block the report repeats again from its pieces instead of rendering it
twice. ``--help``, ``--version`` and the help shown for no arguments (on
stderr, exit 2) print with ``print``, so an in-process caller's output
stream is not kept alive. Only ``verify`` and ``complement --oracle``
load numpy: the oracle imports it inside the functions that build
amplitudes.

The library returns plain results: ``wall_time_s`` is timed here, around
the library call a command makes, and ``--normalize`` writes it as ``null``.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import os
import random
import sys
import time
from dataclasses import replace
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import click

from . import __version__
from .errors import CapacityError, InternalAssertionError, ValidationError
from .graph import (
    EdgeRows,
    complement_graph,
    edges_as_names,
    graph_to_json,
    to_dot,
    upper_neighbors,
    vertex_from_name,
)
from .oracle import verify_pipeline
from .routing import compare as compare_strategies
from .scenario import (
    Scenario,
    load_bundled_scenario,
    load_scenario,
    random_scenario,
    retained_vertices,
    scenario_graph,
    scenario_requests,
    scenario_topology,
)
from .switching import (
    AugmentationCase,
    augment_case1,
    augment_case2,
    records_to_json,
    run_pipeline,
)


def _fail(code: int, kind: str, exc: Exception) -> None:
    sys.stdout.flush()  # what a command printed comes before its error line
    print(json.dumps({"error": {"kind": kind, "message": str(exc)}}, sort_keys=True), file=sys.stderr)
    sys.exit(code)


def _write_reports(out: Path, reports: dict[str, str]) -> None:
    """Write one run's reports into ``out``: all of them or none.

    Every target is checked and every report staged as ``<name>.tmp``
    before any report is replaced, so a report that cannot be written
    leaves the run's other reports unwritten and no temporary file behind.
    """
    for name in reports:
        if (out / name).is_dir():
            raise ValidationError(f"cannot write report {out / name}: Is a directory")
    staged = []
    path = out
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, text in reports.items():
            path = out / name
            tmp = path.with_name(name + ".tmp")
            staged.append((tmp, path))
            tmp.write_text(text)
        for tmp, path in staged:
            os.replace(tmp, path)
    except OSError as exc:
        for tmp, _ in staged:
            with contextlib.suppress(OSError):
                tmp.unlink()
        raise ValidationError(f"cannot write report {path}: {exc.strerror or exc}") from None


_LITERALS = {True: "true", False: "false", None: "null"}


def _json_report(obj) -> str:
    """A JSON report's text, joined once: ``json.dumps(obj, indent=2,
    sort_keys=True)`` byte for byte, and a final newline."""
    parts: list[str] = []
    _emit(obj, 0, parts, {})
    parts.append("\n")
    return "".join(parts)


def _emit(obj, depth: int, parts: list[str], blocks: dict) -> None:
    """Append the pieces of ``obj``'s text at ``depth`` to ``parts``.

    A report is one flat piece list, joined once by its caller: a nested
    level never builds a string of its own, which a large report would
    copy again at every level. With an indent, CPython before 3.13 encodes
    in pure Python. Here strings are quoted by the C
    ``encode_basestring_ascii``, and a flat list of strings or of ints is
    one ``join``. An :class:`EdgeRows` block, most of a trace, is rendered
    as the list of its name pairs straight from the graph's rows: each
    vertex's name is quoted once per ``order`` and depth, into the texts
    that open and close a pair, and each row is one piece, one ``join`` of
    the texts its bits select. ``blocks`` maps each block already rendered
    in this report, by (graph identity, mask, depth), to its slice of
    ``parts``, so a block the report repeats is appended again, not
    rendered again; the report holds every graph it names, so no identity
    is reused while it renders. Floats and other scalars go through
    ``json.dumps``, so their spelling is the encoder's own.
    """
    kind = type(obj)
    if kind is str:
        parts.append(_quote(obj))
    elif kind is int:
        parts.append(int.__repr__(obj))
    elif kind is bool or obj is None:
        parts.append(_LITERALS[obj])
    elif kind is EdgeRows:
        key = (id(obj.graph), obj.mask, depth)
        if key in blocks:
            parts += parts[blocks[key]]
            return
        start = len(parts)
        heads, tails = _pair_texts(obj.graph.order, depth)
        parts += [heads[i] + heads[i].join(tail) for i, tail in upper_neighbors(obj.graph, obj.mask, tails)]
        if len(parts) == start:
            parts.append("[]")
        else:  # the first pair has no comma before it
            parts[start] = "[" + parts[start][1:]
            parts.append("\n" + "  " * depth + "]")
        blocks[key] = slice(start, len(parts))
    elif not isinstance(obj, (list, tuple, dict)):
        parts.append(json.dumps(obj))
    elif not obj:
        parts.append("{}" if isinstance(obj, dict) else "[]")
    else:
        is_list = not isinstance(obj, dict)
        inner = "\n" + "  " * (depth + 1)
        sep = "," + inner
        close = "\n" + "  " * depth + ("]" if is_list else "}")
        if is_list:
            kinds = set(map(type, obj))
            if kinds in ({str}, {int}):
                parts.append("[" + inner + sep.join(map(_quote if str in kinds else int.__repr__, obj)) + close)
                return
            items = (("", x) for x in obj)
        else:
            items = ((_quote(k if isinstance(k, str) else _key(k)) + ": ", v) for k, v in sorted(obj.items()))
        lead = ("[" if is_list else "{") + inner
        for label, v in items:
            parts.append(lead + label)
            _emit(v, depth + 1, parts, blocks)
            lead = sep
        parts.append(close)


@functools.lru_cache(maxsize=16)
def _pair_texts(order: tuple, depth: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The text around each vertex of ``order`` in an edge block at ``depth``.

    A pair ``[a, b]`` is ``heads[a] + tails[b]``: ``heads`` opens the pair
    (after the comma and line break that precede every pair) and quotes
    ``a``; ``tails`` quotes ``b`` and closes the pair.
    """
    inner = "\n" + "  " * (depth + 1)
    quoted = [_quote(v.name) for v in order]
    heads = tuple("," + inner + "[" + inner + "  " + q + "," + inner + "  " for q in quoted)
    tails = tuple(q + inner + "]" for q in quoted)
    return heads, tails


def _key(key) -> str:
    """A non-string dict key as the encoder spells it."""
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _resolve_scenario(ref: str) -> Scenario:
    path = Path(ref)
    if path.exists():
        return load_scenario(path)
    if "/" not in ref and "\\" not in ref and not ref.endswith(".json"):
        return load_bundled_scenario(ref)
    raise ValidationError(f"scenario file {ref!r} does not exist")


def _apply_overrides(sc: Scenario, case: str | None, retain: str | None, seed: int | None = None) -> Scenario:
    updates = {}
    if case is not None:
        updates["case"] = case
    if retain is not None:
        updates["retain"] = tuple(x for x in (part.strip() for part in retain.split(",")) if x)
    if seed is not None:
        updates["seed"] = seed
    return replace(sc, **updates) if updates else sc


def _switch(scenario_ref: str, case: str | None, retain: str | None, k0_name: str | None):
    """Resolve the scenario, apply the overrides, augment its graph and run the switch.

    Returns ``(scenario, client graph, augmented graph, final graph, records)``.
    """
    sc = _apply_overrides(_resolve_scenario(scenario_ref), case, retain)
    g = scenario_graph(sc)
    build = augment_case1 if sc.augmentation_case is AugmentationCase.CASE_I else augment_case2
    aug = build(g, retained_vertices(sc))
    k0 = vertex_from_name(k0_name) if k0_name else None
    final, records = run_pipeline(aug, k0)
    return sc, g, aug, final, records


scenario_option = click.option("--scenario", "scenario_ref", required=True,
                               help="Scenario file path, or the name of a bundled scenario.")
out_option = click.option("--out", default="out", show_default=True,
                          type=click.Path(file_okay=False, path_type=Path), help="Output directory.")
case_option = click.option("--case", type=click.Choice(["I", "II"]), default=None,
                           help="Override the augmentation case.")
retain_option = click.option("--retain", default=None,
                             help="Comma-separated client names to exclude from the switch.")
k0_option = click.option("--k0", "k0_name", default=None,
                         help="Special-neighbor client name (default: lowest-index eligible).")


def format_option(*choices: str):
    return click.option("--format", "fmt", type=click.Choice(choices), default="json",
                        show_default=True, help="Extra artifact format; JSON reports are always written.")


normalize_option = click.option("--normalize", is_flag=True,
                                help="Blank wall-clock fields so reports are byte-reproducible.")


# click's own --version and --help echo through its per-stream cache, which
# keeps an in-process caller's output stream alive; these print instead
def _print_version(ctx: click.Context, _param, value: bool) -> None:
    if value and not ctx.resilient_parsing:
        print(f"{ctx.find_root().info_name}, version {__version__}")
        ctx.exit()


def _print_help(ctx: click.Context, _param, value: bool) -> None:
    if value and not ctx.resilient_parsing:
        print(ctx.get_help())
        ctx.exit()


class _PrintedHelp:
    def get_help_option(self, ctx: click.Context) -> click.Option | None:
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _print_help
        return option


class _Command(_PrintedHelp, click.Command):
    def invoke(self, ctx: click.Context):
        """Run the command; a package error exits with its code and one JSON line."""
        try:
            return super().invoke(ctx)
        except InternalAssertionError as exc:
            _fail(3, "internal_assertion", exc)
        except CapacityError as exc:
            _fail(2, "capacity", exc)
        except ValidationError as exc:
            _fail(1, "validation", exc)


class _Group(_PrintedHelp, click.Group):
    command_class = _Command

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        # no arguments: click would raise NoArgsIsHelpError, which echoes too
        if not args and self.no_args_is_help and not ctx.resilient_parsing:
            print(ctx.get_help(), file=sys.stderr)
            ctx.exit(2)
        return super().parse_args(ctx, args)


@click.group(cls=_Group)
@click.option("--version", is_flag=True, expose_value=False, is_eager=True,
              callback=_print_version, help="Show the version and exit.")
def main() -> None:
    """Graph-complement switching and routing comparison for two-QLAN networks."""


@main.command("complement")
@scenario_option
@out_option
@case_option
@retain_option
@k0_option
@format_option("json", "csv", "dot")
@click.option("--oracle", is_flag=True, help="Also certify the run with the state-vector oracle.")
def cmd_complement(scenario_ref, out, case, retain, k0_name, fmt, oracle):
    """Run the super-node measurement pipeline and write the switched graph."""
    sc, g, aug, final, records = _switch(scenario_ref, case, retain, k0_name)
    matches = None
    if not sc.retain:
        matches = final == complement_graph(g)
        if not matches:
            raise InternalAssertionError("full switch output differs from the declarative complement")
    reports = {
        "result_graph.json": _json_report(graph_to_json(final)),
        "trace.json": _json_report(records_to_json(records)),
    }
    if fmt == "dot":
        reports["result_graph.dot"] = to_dot(final)
        reports["input_graph.dot"] = to_dot(g)
    if fmt == "csv":
        reports["result_edges.csv"] = _csv(["endpoint_a", "endpoint_b"], sorted(edges_as_names(final)))
    summary = {
        "scenario": sc.name or scenario_ref,
        "case": sc.case,
        "qlan1": sc.n1,
        "qlan2": sc.n2,
        "retained": list(dict.fromkeys(sc.retain)),  # the switch holds a set
        "k0": records[0].special_neighbor.name,
        "measurements": len(records),
        "result_edges": final.edge_count,
        "matches_declarative_complement": matches,
    }
    reports["summary.json"] = _json_report(summary)
    if oracle:
        report = verify_pipeline(aug.graph, records, final)
        # complement has no clock in its reports: the oracle's wall time is blank
        reports["verification.json"] = _json_report(dict(report.to_json(), wall_time_s=None))
    _write_reports(out, reports)
    if oracle and not report.passed:
        raise InternalAssertionError(
            f"oracle rejected the pipeline output (min fidelity {report.min_fidelity})"
        )
    print(f"switched {sc.n1}+{sc.n2} network (case {sc.case}) "
          f"with {len(records)} measurements; k0 = {summary['k0']}")
    print(f"result: {final.edge_count} inter-links"
          + ("" if matches is None else f"; matches declarative complement: {matches}")
          + (f"; oracle: pass" if oracle else ""))
    print(f"reports written to {out}/")


@main.command("verify")
@scenario_option
@out_option
@case_option
@retain_option
@k0_option
@normalize_option
@click.option("--corrupt", is_flag=True,
              help="Negative control: toggle one edge in the claimed graph before verifying.")
def cmd_verify(scenario_ref, out, case, retain, k0_name, normalize, corrupt):
    """Replay the pipeline on the state-vector oracle over every outcome branch."""
    _, _, aug, final, records = _switch(scenario_ref, case, retain, k0_name)
    claimed = final
    if corrupt:  # toggle the edge between the first client of each QLAN
        rows, n1 = list(final.rows), final.n1
        rows[0] ^= 1 << n1
        rows[n1] ^= 1
        claimed = final._with_rows(rows)
    t0 = time.perf_counter()
    report = verify_pipeline(aug.graph, records, claimed)
    wall = None if normalize else time.perf_counter() - t0
    payload = dict(report.to_json(), wall_time_s=wall)
    _write_reports(out, {"verification.json": _json_report(payload)})
    for b in report.branches:
        print(f"branch {b.outcome_string}: fidelity {b.fidelity:.12f} "
              f"{'pass' if b.passed else 'FAIL'}")
    print(f"verification {'passed' if report.passed else 'FAILED'} "
          f"({len(report.branches)} branches, min fidelity {report.min_fidelity:.12f})")
    if not report.passed:
        _fail(1, "verification_failed",
              ValidationError(f"{sum(not b.passed for b in report.branches)} branch(es) below tolerance"))


@main.command("compare")
@scenario_option
@out_option
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@case_option
@retain_option
@format_option("json", "csv")
@normalize_option
def cmd_compare(scenario_ref, out, seed, case, retain, fmt, normalize):
    """Run both strategies on one scenario and write the side-by-side report."""
    sc = _apply_overrides(_resolve_scenario(scenario_ref), case, retain, seed)
    t0 = time.perf_counter()
    report = _compare(sc)
    wall = time.perf_counter() - t0
    payload = report.to_json()
    payload["scenario"] = sc.name or scenario_ref
    payload["seed"] = sc.seed
    payload["wall_time_s"] = None if normalize else wall
    reports = {"comparison.json": _json_report(payload)}
    if fmt == "csv":
        row = _sweep_row(0, sc.seed, sc, report)
        reports["comparison.csv"] = _csv(row.keys(), [row.values()])
    _write_reports(out, reports)
    width = max(len(a["axis"]) for a in report.axes)
    print(f"{'':{width}}  {'TQR':34}  Complement")
    for axis in report.axes:
        print(f"{axis['axis']:{width}}  {axis['tqr']:34}  {axis['complement']}")
    print(f"{'rounds':{width}}  {report.tqr.rounds:<34}  {report.complement.rounds}")
    print(
        f"{'served':{width}}  "
        f"{f'{len(report.tqr.served)}/{len(sc.requests)}':<34}  "
        f"{len(report.complement.served)}/{len(sc.requests)}"
    )
    print(f"report written to {out / 'comparison.json'}")


def _compare(sc: Scenario):
    """Both strategies on one scenario, built from its own fields."""
    return compare_strategies(
        scenario_topology(sc),
        scenario_graph(sc),
        scenario_requests(sc),
        case=sc.augmentation_case,
        retain=retained_vertices(sc),
        run_when_empty=sc.run_when_empty,
    )


def _sweep_row(index: int, seed: int, sc: Scenario, report) -> dict:
    return {
        "index": index,
        "seed": seed,
        "n1": sc.n1,
        "n2": sc.n2,
        "inter_links": len(set(map(frozenset, sc.inter_links))),  # a file may list a link twice
        "requests": len(sc.requests),
        "tqr_rounds": report.tqr.rounds,
        "tqr_swaps": report.tqr.swap_count,
        "tqr_served": len(report.tqr.served),
        "tqr_failed": len(report.tqr.failed),
        "complement_rounds": report.complement.rounds,
        "complement_measurements": report.complement.measurement_count,
        "complement_served": len(report.complement.served),
        "complement_failed": len(report.complement.failed),
        "rounds_ratio": report.rounds_ratio,
    }


def _csv(header, rows) -> str:
    """A CSV report: the ``header`` row, then ``rows``, each line ending in a newline."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@main.command("sweep")
@out_option
@click.option("--count", type=int, default=100, show_default=True,
              help="Number of seeded random scenarios to run.")
@click.option("--seed", type=int, default=0, show_default=True, help="Master seed.")
@click.option("--n1", type=int, default=3, show_default=True)
@click.option("--n2", type=int, default=4, show_default=True)
@normalize_option
def cmd_sweep(out, count, seed, n1, n2, normalize):
    """Batch-compare seeded random scenarios; one CSV row per scenario."""
    if count < 1:
        raise ValidationError(f"sweep count must be >= 1, got {count}")
    rng = random.Random(seed)
    rows = []
    reports = []
    t0 = time.perf_counter()
    for i in range(count):
        sc_seed = rng.randrange(2**31)
        sc = random_scenario(sc_seed, n1=n1, n2=n2)
        report = _compare(sc)
        rows.append(_sweep_row(i, sc_seed, sc, report))
        entry = report.to_json()
        entry["index"] = i
        entry["seed"] = sc_seed
        reports.append(entry)
    wall = time.perf_counter() - t0
    _write_reports(out, {
        "sweep.csv": _csv(rows[0].keys(), [r.values() for r in rows]),
        "sweep.json": _json_report({
            "master_seed": seed,
            "count": count,
            "wall_time_s": None if normalize else wall,
            "comparisons": reports,
        }),
    })
    all_const = all(r["complement_rounds"] == 1 and r["complement_measurements"] == 2 for r in rows)
    print(f"swept {count} scenarios (master seed {seed})")
    print(f"complement cost constant at 1 round / 2 measurements: {all_const}")
    print(f"reports written to {out}/")


if __name__ == "__main__":
    main()
