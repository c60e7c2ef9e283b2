"""Golden report digests: the CLI's report files, byte for byte.

Each case runs one CLI command in process and hashes every file it
writes. The recorded sha256 digests live in ``golden_digests.json``; a
change to the graph core, the switch, routing or serialization that
alters a single report byte fails here. After a deliberate change to the
report format, print fresh digests with

    PYTHONPATH=src python tests/test_golden.py

and replace the fixture with the output.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from qlanroute.cli import main

FIXTURE = Path(__file__).with_name("golden_digests.json")


def _write_seeded_scenario(work: Path, n: int) -> Path:
    """A seeded n+n network, random inter-links at p = 0.5, seeded by n."""
    rng = random.Random(n)
    links = [[f"1.{i}", f"2.{j}"] for i in range(1, n + 1) for j in range(1, n + 1) if rng.random() < 0.5]
    path = work / f"golden{n}.json"
    path.write_text(json.dumps({"name": f"golden-{n}", "qlan1": n, "qlan2": n,
                                "inter_links": links, "case": "I", "seed": n}))
    return path


def _write_mixed_compare_scenario(work: Path, n: int) -> Path:
    """A seeded n+n compare scenario, seeded by n: inter-links at p = 0.5,
    a random spanning path plus extra physical links at p = 0.3, every
    complement pair requested in seeded order, and budgets drawn from
    {1, 1, 2, 3}, so 1-qubit time-sharing and 2- and 3-qubit nodes mix."""
    rng = random.Random(n)
    q1 = [f"1.{i}" for i in range(1, n + 1)]
    q2 = [f"2.{j}" for j in range(1, n + 1)]
    links = {(a, b) for a in q1 for b in q2 if rng.random() < 0.5}
    names = sorted(q1 + q2)
    order = names[:]
    rng.shuffle(order)
    physical = {tuple(sorted(p)) for p in zip(order, order[1:])}
    physical |= {(a, b) for a in names for b in names if a < b and rng.random() < 0.3}
    requests = [(a, b) for a in q1 for b in q2 if (a, b) not in links]
    rng.shuffle(requests)
    path = work / f"compare{n}.json"
    path.write_text(json.dumps({
        "name": f"compare-{n}-mixed", "qlan1": n, "qlan2": n,
        "inter_links": sorted(links), "physical_links": sorted(physical),
        "comm_qubits": {name: rng.choice([1, 1, 2, 3]) for name in names},
        "requests": requests, "case": "I",
    }))
    return path


CASES = {
    "sweep": lambda work: ["sweep", "--count", "100", "--seed", "7", "--normalize"],
    "complement-fig2-dot": lambda work: ["complement", "--scenario", "fig2", "--format", "dot"],
    "verify-exhaustive_small": lambda work: ["verify", "--scenario", "exhaustive_small", "--normalize"],
    "compare-fig1": lambda work: ["compare", "--scenario", "fig1", "--normalize"],
    # 32+32, every complement pair requested: the baseline at benchmark scale
    "compare-32-mixed": lambda work: [
        "compare", "--scenario", str(_write_mixed_compare_scenario(work, 32)), "--normalize",
    ],
    "compare-fig1-csv": lambda work: ["compare", "--scenario", "fig1", "--format", "csv", "--normalize"],
    "complement-fig2-csv": lambda work: ["complement", "--scenario", "fig2", "--format", "csv"],
    "complement-16-case-ii-retain": lambda work: [
        "complement", "--scenario", str(_write_seeded_scenario(work, 16)),
        "--case", "II", "--retain", "1.3,1.9,2.4",
    ],
    # 64+64, Case II, 4 retained clients per QLAN: the benchmark's complement shape
    "complement-64-case-ii-retain": lambda work: [
        "complement", "--scenario", str(_write_seeded_scenario(work, 64)),
        "--case", "II", "--retain", "1.5,1.17,1.40,1.64,2.1,2.22,2.33,2.58",
    ],
    # 6+6 clients and two super-nodes: 14 qubits, the dense oracle's capacity
    "verify-6-case-i-retain": lambda work: [
        "verify", "--scenario", str(_write_seeded_scenario(work, 6)),
        "--retain", "1.2,2.5", "--normalize",
    ],
}


def digests(case: str, work: Path) -> dict[str, str]:
    """Run one case with its reports written under ``work``; sha256 per report file."""
    out = work / "out"
    result = CliRunner().invoke(main, CASES[case](work) + ["--out", str(out)])
    assert result.exit_code == 0, result.output
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("case", sorted(CASES))
def test_reports_match_golden_digests(case, tmp_path):
    expected = json.loads(FIXTURE.read_text())[case]
    assert digests(case, tmp_path) == expected


if __name__ == "__main__":
    table = {}
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            table[name] = digests(name, Path(tmp))
    json.dump(table, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
