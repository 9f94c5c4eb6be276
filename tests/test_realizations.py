"""The realization is the one dispatch point for diagonal-or-dense questions.

``SpectralSystem`` and ``MatrixSystem`` answer every question whose answer
differs between a diagonal and a dense generator, so no other module tests
a system's type.  These tests pin that boundary, the dense work it removed
(one W_0 solve per system, no quadrature in ``analyze``), and that dense
results do not depend on the basis.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lyapcert.analysis as analysis
from lyapcert.admissibility import admissibility_constant
from lyapcert.analysis import AnalysisConfig, run_analyze
from lyapcert.dissipation import exact_certificate
from lyapcert.lyapunov import build_v_half, build_w_plain, contraction_similarity
from lyapcert.systems import MatrixSystem, SpectralSystem
from test_systems import REALIZATION_RTOL, _nonnormal_dense

SOURCES = Path(__file__).resolve().parents[1] / "src" / "lyapcert"
REALIZATIONS = {"SpectralSystem", "MatrixSystem"}
# Attributes only one realization has; probing for them is a type test.
REALIZATION_ATTRIBUTES = {"eigenvalues", "a_matrix"}


def _names(node):
    return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}


def _mentions_realization(node):
    strings = {n.value for n in ast.walk(node) if isinstance(n, ast.Constant)}
    return bool((_names(node) | strings) & REALIZATIONS)


def _is_call_of(node, name):
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def realization_type_tests(source):
    """Line numbers of ``isinstance``, ``hasattr`` and ``type`` tests for a realization."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if _is_call_of(node, "isinstance") and len(node.args) == 2:
            found = _mentions_realization(node.args[1])
        elif _is_call_of(node, "hasattr") and len(node.args) == 2:
            found = getattr(node.args[1], "value", None) in REALIZATION_ATTRIBUTES
        elif isinstance(node, ast.Compare):
            typed = any(_is_call_of(n, "type") for n in ast.walk(node))
            found = typed and _mentions_realization(node)
        else:
            found = False
        if found:
            lines.append(node.lineno)
    return lines


def test_the_detector_finds_every_spelling():
    source = "\n".join([
        "isinstance(sys, SpectralSystem)",
        "isinstance(s, (MatrixSystem, int))",
        "isinstance(s, systems.SpectralSystem)",
        "hasattr(sys, 'eigenvalues')",
        "type(sys) is MatrixSystem",
        "type(sys).__name__ == 'SpectralSystem'",
        "isinstance(u, InputSignal)",
        "type(node.op) in OPS",
    ])
    assert realization_type_tests(source) == [1, 2, 3, 4, 5, 6]


def test_no_module_but_systems_tests_the_realization_type():
    found = {}
    for path in sorted(SOURCES.glob("*.py")):
        if path.name != "systems.py":
            lines = realization_type_tests(path.read_text(encoding="utf-8"))
            if lines:
                found[path.name] = lines
    assert found == {}


# Where the library may still convert to float by hand, as (file, function,
# callee): the array door, the config door, and the two mode grids of models.
FLOAT_DOORS = [
    ("models.py", "heat_system", "arange"),
    ("models.py", "counterexample_system", "arange"),
    ("systems.py", "_real_array", "astype"),
    ("systems.py", "_number_array", "astype"),
]


def _is_float_type(node):
    return (
        getattr(node, "id", None) == "float"
        or getattr(node, "attr", None) in {"float64", "double"}
        or getattr(node, "value", None) in {"float", "float64", "f8"}
    )


def float_conversions(source):
    """``(function, callee)`` of each ``dtype=float``, ``dtype=np.float64`` or ``.astype(float)``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = getattr(child.func, "attr", None) or getattr(child.func, "id", None)
                dtypes = [k.value for k in child.keywords if k.arg == "dtype"]
                if any(map(_is_float_type, dtypes + child.args[:1] * (callee == "astype"))):
                    found.append((function, callee))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if named else function)

    visit(ast.parse(source), None)
    return found


def test_the_float_detector_finds_every_spelling():
    source = "\n".join([
        "def f(x):",
        "    a = np.asarray(x, dtype=float)",
        "    b = np.array(x, dtype=np.float64)",
        "    c = x.astype(float, copy=False)",
        "    d = np.zeros(3, dtype='float64')",
        "    g = lambda y: y.astype(np.double)",
        "    return float(x), np.asarray(x), x.astype(int), np.arange(3, dtype=int)",
    ])
    assert float_conversions(source) == [
        ("f", "asarray"), ("f", "array"), ("f", "astype"), ("f", "zeros"), ("f", "astype"),
    ]


def test_only_the_doors_convert_to_float():
    # Every other array, scalar parameter and record reads through
    # systems._real_array, so one function decides what a number is.
    found = [
        (path.name, *where)
        for path in sorted(SOURCES.glob("*.py"))
        for where in float_conversions(path.read_text(encoding="utf-8"))
    ]
    assert found == FLOAT_DOORS


def _dense_request(seed=3, n=8):
    """The benchmark's dense-nonnormal request: gap 0.5, unit input column."""
    rng = np.random.default_rng([seed, n])
    r = rng.standard_normal((n, n)) / np.sqrt(n)
    a = r - (np.linalg.eigvals(r).real.max() + 0.5) * np.eye(n)
    b = rng.standard_normal(n)
    b /= np.linalg.norm(b)
    system = {"type": "matrix", "a": a.tolist(), "b": [[v] for v in b.tolist()],
              "label": "dense-nonnormal"}
    return {"system": system, "seed": seed}


def test_dense_analyze_solves_w0_once_and_builds_v_half_without_expm(monkeypatch):
    import scipy.linalg

    config = _dense_request()
    n = len(config["system"]["a"])
    expms, w0_solves, v_half_expms = [], [], []
    expm, solve, v_half = scipy.linalg.expm, scipy.linalg.solve_continuous_lyapunov, build_v_half

    def counted_expm(a):
        expms.append(a.shape)
        return expm(a)

    def counted_solve(a, rhs):
        if np.array_equal(rhs, -np.eye(n)):
            w0_solves.append(a.shape)
        return solve(a, rhs)

    def counted_v_half(sys):
        before = len(expms)
        form = v_half(sys)
        v_half_expms.append(len(expms) - before)
        return form

    monkeypatch.setattr(scipy.linalg, "expm", counted_expm)
    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", counted_solve)
    monkeypatch.setattr(analysis, "build_v_half", counted_v_half)
    report, _ = run_analyze(AnalysisConfig(**config))
    assert report["slots"]["exponentially_stable"]["value"] is True
    assert w0_solves == [(n, n)]
    assert v_half_expms == [0]


def test_dense_analyze_leaves_scipy_integrate_unimported(tmp_path):
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(_dense_request()), encoding="utf-8")
    script = (
        "import sys\n"
        "from lyapcert.cli import main\n"
        f"code = main(['analyze', '--config', {str(path)!r}])\n"
        "print(code, 'scipy.integrate' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SOURCES.parent)),
    )
    assert result.stdout.splitlines()[-1] == "0 False"


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(2, 7), skew=st.sampled_from([0.0, 1.0, 3.0]))
def test_dense_results_are_invariant_under_orthogonal_similarity(seed, n, skew):
    # MatrixSystem(Q A Q^T, Q b) is the same system in another orthonormal
    # basis, so basis-free quantities agree to the realization tolerance.
    # The q = inf constant is left out: its aligned-sign sum takes absolute
    # values per coordinate, so it depends on the basis.
    base = _nonnormal_dense(n, seed, skew)
    q_matrix, _ = np.linalg.qr(np.random.default_rng([seed, 1]).normal(size=(n, n)))
    turned = MatrixSystem(q_matrix @ base.a_matrix @ q_matrix.T, q_matrix @ base.input_coeffs)

    ref, got = (exact_certificate(build_w_plain(s), s) for s in (base, turned))
    assert got.a3max == pytest.approx(ref.a3max, rel=REALIZATION_RTOL)
    assert got.a4 == pytest.approx(ref.a4, rel=REALIZATION_RTOL)
    horizons = [0.5, 4.0]
    assert turned.l2_input_constants(horizons) == pytest.approx(
        base.l2_input_constants(horizons), rel=REALIZATION_RTOL
    )
    ref_cond, got_cond = (contraction_similarity(s)[1].condition_number for s in (base, turned))
    assert got_cond == pytest.approx(ref_cond, rel=REALIZATION_RTOL)
    ref_k1, got_k1 = (admissibility_constant(s, 1, 4.0).constant for s in (base, turned))
    assert got_k1 == pytest.approx(ref_k1, rel=REALIZATION_RTOL)


@settings(max_examples=100, deadline=None)
@given(
    lam=st.lists(st.floats(0.1, 50.0), min_size=1, max_size=8).map(sorted),
    seed=st.integers(0, 2**32 - 1),
)
def test_diagonal_and_dense_enclosures_of_one_system_overlap(lam, seed):
    # SpectralSystem(lam, b) and MatrixSystem(-diag(lam), b) are one system,
    # so each exact pair lies in both enclosures: the intervals value +- radius
    # of a3max and of a4 must meet, for W_0 and for V_half.
    b = np.random.default_rng(seed).normal(size=len(lam))
    diagonal, dense = SpectralSystem(lam, b), MatrixSystem(np.diag(-np.array(lam)), b)
    for build in (build_w_plain, build_v_half):
        left, right = (exact_certificate(build(s), s) for s in (diagonal, dense))
        for name in ("a3max", "a4"):
            gap = abs(getattr(left, name) - getattr(right, name))
            reach = getattr(left, f"{name}_radius") + getattr(right, f"{name}_radius")
            assert gap <= reach, (build.__name__, name, gap, reach)
