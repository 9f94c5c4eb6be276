"""Only the dense realization loads scipy, on its first call into it.

The registered models are diagonal and none of their runs calls scipy,
while ``import scipy.linalg`` is most of a diagonal command's start-up.  So
``systems`` and ``dissipation`` import it inside each dense function.
``conftest`` imports scipy, so every check of that path starts a fresh
interpreter.
"""

import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_realizations import _dense_request

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src" / "lyapcert"
WARNINGS_AS_ERRORS = "error::RuntimeWarning,error::DeprecationWarning,error::FutureWarning"

# Prints, as its last stdout line, main(argv)'s exit code and the scipy
# modules loaded before and after the call.
_MAIN = """
import json, sys
{prelude}
from lyapcert.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

before = scipy_modules()
code = main(json.loads(sys.argv[1]))
print(json.dumps({{"code": code, "before": before, "after": scipy_modules()}}))
"""


def _fresh_main(argv, prelude=""):
    """``main(argv)`` in a new interpreter, warnings being errors: (result, stderr)."""
    run = subprocess.run(
        [sys.executable, "-c", _MAIN.format(prelude=prelude), json.dumps(argv)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(SOURCES.parent), PYTHONWARNINGS=WARNINGS_AS_ERRORS),
    )
    assert "Traceback" not in run.stderr, run.stderr
    return json.loads(run.stdout.splitlines()[-1]), run.stderr


def scipy_import_faults(source):
    """Line numbers of ``from scipy... import`` anywhere and of load-time ``import scipy...``."""
    def is_scipy(name):
        return (name or "").split(".")[0] == "scipy"

    def load_time(node):  # statements run on import: everything outside function bodies
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield child
                yield from load_time(child)

    tree = ast.parse(source)
    lines = {n.lineno for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and is_scipy(n.module)}
    lines |= {n.lineno for n in load_time(tree)
              if isinstance(n, ast.Import) and any(is_scipy(a.name) for a in n.names)}
    return sorted(lines)


def test_the_scipy_import_detector_finds_every_spelling():
    source = "\n".join([
        "import scipy.linalg",
        "import numpy as np, scipy",
        "from scipy.linalg import expm",
        "try:\n    import scipy as sp\nexcept ImportError:\n    pass",
        "class C:\n    import scipy.integrate",
        "def f():\n    from scipy import linalg",
        "def g():\n    import scipy.linalg",
        "import scipy_openblas",
        "from . import systems",
    ])
    assert scipy_import_faults(source) == [1, 2, 3, 5, 9, 11]


def test_no_module_imports_scipy_on_load_or_binds_its_functions():
    # ``from scipy.linalg import expm`` would also hide the call from the
    # tests and the benchmark tracer that patch ``scipy.linalg.expm``.
    found = {}
    for path in sorted(SOURCES.glob("*.py")):
        lines = scipy_import_faults(path.read_text(encoding="utf-8"))
        if lines:
            found[path.name] = lines
    assert found == {}


def _readme_commands():
    # The README CLI block's commands but selftest, with their documented exit codes.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        if argv[:1] == ["lyapcert"] and argv[1] != "selftest":
            marked = re.search(r"exits (\d+)", comment)
            yield pytest.param(argv[1:], int(marked.group(1)) if marked else 0, id=command.strip())


@pytest.mark.parametrize("argv, expected", list(_readme_commands()))
def test_a_readme_diagonal_command_never_loads_scipy(argv, expected, tmp_path):
    if "--out" in argv:
        at = argv.index("--out")
        argv = argv[:at] + argv[at + 2:]
    result, _ = _fresh_main(argv + ["--out", str(tmp_path / "out")])
    assert result == {"code": expected, "before": [], "after": []}


@pytest.mark.parametrize("command, refusal", [
    ("analyze", "Lyapunov solve refused"),
    ("lyapunov-eval", "matrix square root refused"),
])
def test_a_refusal_on_the_first_scipy_call_is_a_config_error(command, refusal, tmp_path):
    # Rates 2^0 to 2^300 make LAPACK perturb the Lyapunov problem and sqrtm
    # ill-conditioned; the warning each raises is turned into the refusal
    # even when scipy is imported by that very call.
    a = np.diag(-(2.0 ** np.linspace(0.0, 300.0, 8)))
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps({"system": {"type": "matrix", "a": a.tolist(), "b": [1.0] * 8}}))
    result, err = _fresh_main([command, "--config", str(path)])
    assert (result["code"], result["before"]) == (2, [])
    assert "scipy.linalg" in result["after"]
    assert err.startswith(f"config error: {refusal}") and err.count("\n") == 1


def test_dense_artifacts_do_not_depend_on_when_scipy_is_imported(tmp_path):
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(_dense_request()), encoding="utf-8")
    artifacts = {}
    for prelude in ("", "import scipy.linalg"):
        out = tmp_path / ("eager" if prelude else "lazy")
        result, _ = _fresh_main(["analyze", "--config", str(path), "--out", str(out)], prelude)
        assert result["code"] == 0
        assert ("scipy.linalg" in result["before"]) == bool(prelude)
        artifacts[out.name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert artifacts["lazy"] and artifacts["lazy"] == artifacts["eager"]
