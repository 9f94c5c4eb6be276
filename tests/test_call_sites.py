"""The benchmark tracer wraps lyapcert functions where they are looked up.

``benchmarks/tracing.py`` lists those call sites in ``CALL_SITES`` and
``getattr``s each one in a traced run, so a renamed or removed binding
breaks the traced benchmark.  The tuple is read from the file's source.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _call_sites():
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        names = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if isinstance(node, ast.Assign) and names == ["CALL_SITES"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no CALL_SITES assignment in {TRACING}")


def test_every_traced_call_site_resolves():
    sites = _call_sites()
    assert sites
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in sites
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"traced call sites without a binding: {missing}"
