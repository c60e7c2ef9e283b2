"""The README's code runs against the package as it is."""

from __future__ import annotations

import re
import shlex
from pathlib import Path
from types import ModuleType

from click.testing import CliRunner

from qlanroute.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_api_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_the_top_level_exports_are_the_documented_ones():
    # the error types and the pipeline; every other name is imported from its submodule
    import qlanroute

    public = {n for n, obj in vars(qlanroute).items()
              if not n.startswith("_") and not isinstance(obj, ModuleType)}
    assert public == {
        "CapacityError", "InternalAssertionError", "QlanRouteError", "UnknownVertexError",
        "ValidationError", "client_graph", "augment_case1", "augment_case2", "run_pipeline",
        "replay_records", "verify_pipeline",
    }


def test_readme_cli_block_runs(tmp_path):
    # each documented command, in process, with --out under a temporary directory;
    # the --corrupt negative control is the one that must fail verification
    lines = re.findall(r"^\$ (qlanroute .*)$", README.read_text(), flags=re.M)
    assert len(lines) == 5
    for k, line in enumerate(lines):
        args = shlex.split(line, comments=True)[1:]
        args[args.index("--out") + 1] = str(tmp_path / str(k))
        result = CliRunner().invoke(main, args)
        assert result.exit_code == (1 if "--corrupt" in args else 0), (line, result.output)
