"""The README's code runs against the package as it is."""

from __future__ import annotations

import re
from pathlib import Path
from types import ModuleType

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
