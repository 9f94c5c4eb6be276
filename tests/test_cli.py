import csv
import dataclasses
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import dense_nonnormal
from lyapcert import analysis, cli, selftest
from lyapcert.analysis import (
    AnalysisConfig,
    ConfigError,
    InvariantViolationError,
    _check_edges,
    _family,
    _trajectory_table,
    _write_artifacts,
    admissibility_stages,
    run_analyze,
    run_simulate,
)
from lyapcert.cli import COMMAND_FLAGS, COMMON_FLAGS, _build_config, build_parser, main
from lyapcert.dissipation import DiniEstimate, InputSignal, gain_ensemble, simulate_mild
from lyapcert.models import heat_system
from lyapcert.selftest import FAULT_TARGETS, run_selftest
from lyapcert.systems import MatrixSystem, SpectralSystem, semigroup_apply


SMALL = "8,16,32"


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        AnalysisConfig.from_dict({"model": "heat-neumann", "bogus": 1})


@pytest.mark.parametrize(
    "key", ["steps", "input_levels", "bounded_ratio", "diverging_slope", "epsilon"]
)
def test_config_from_dict_rejects_library_parameters(key):
    with pytest.raises(ConfigError, match="unknown config keys"):
        AnalysisConfig.from_dict({"model": "heat-neumann", key: 1})


_RULE_DOC = {"type": "spectral", "eigenvalue_rule": "n^2", "coeff_rule": "1/n"}
_LIST_DOC = {"type": "spectral", "eigenvalues": [float(k * k) for k in range(1, 21)],
             "input_coeffs": [1.0 / k for k in range(1, 21)]}


@pytest.mark.parametrize("source", [
    {"model": "counterexample"}, {"system": _RULE_DOC}, {"system": _LIST_DOC},
])
def test_family_members_are_leading_sections_of_the_largest(source):
    _, family = _family(AnalysisConfig(modes=(4, 16, 8), **source))
    assert [s.dimension for s in family] == [4, 8, 16]
    largest = family[-1]
    for sys in family:
        n = sys.dimension
        assert np.array_equal(sys.eigenvalues, largest.eigenvalues[:n])
        assert np.array_equal(sys.input_coeffs, largest.input_coeffs[:n])


def test_family_builds_the_model_once(monkeypatch):
    import lyapcert.models as models

    sizes = []
    original = models.build_model

    def counting(name, modes):
        sizes.append(modes)
        return original(name, modes)

    monkeypatch.setattr(models, "build_model", counting)
    label, family = _family(AnalysisConfig(model="heat-neumann", modes=(8, 16, 32)))
    assert sizes == [32]
    assert label == "heat-neumann"
    assert [s.dimension for s in family] == [8, 16, 32]


@pytest.mark.parametrize("text, value", [
    ("1", 1.0), ("2", 2.0), ("2.0", 2.0), ("inf", math.inf), ("INF", math.inf),
])
def test_parse_q_accepts(text, value):
    parsed = _build_config(build_parser().parse_args(["analyze", "--q", text])).q
    assert parsed == value and type(parsed) is float


@pytest.mark.parametrize("text", ["3", "nan", "x"])
def test_parse_q_refuses(text, capsys):
    # --q is a plain float; AnalysisConfig is the one gate on its value.
    if text == "x":
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["analyze", "--q", text])
        assert info.value.code == 2
        assert "invalid float value: 'x'" in capsys.readouterr().err
        return
    args = build_parser().parse_args(["analyze", "--q", text])
    with pytest.raises(ConfigError, match="use 1, 2 or inf"):
        _build_config(args)


def test_config_requires_target():
    config = AnalysisConfig()
    with pytest.raises(ConfigError):
        run_analyze(config)


def test_inline_rule_system_config(tmp_path):
    config = AnalysisConfig.from_dict(
        {
            "system": {
                "type": "spectral",
                "eigenvalue_rule": "n^2",
                "coeff_rule": "1",
                "label": "quadratic-spectrum",
            },
            "modes": [8, 16, 32],
            "sample_count": 16,
        }
    )
    report, _ = run_analyze(config)
    assert report["system"] == "quadratic-spectrum"
    assert report["modes"] == [8, 16, 32]


def test_analyze_counterexample_pattern(tmp_path):
    config = AnalysisConfig(
        model="counterexample", modes=(64, 128, 256), sample_count=32,
        out_dir=str(tmp_path),
    )
    report, artifacts = run_analyze(config)
    slots = report["slots"]
    assert slots["two_admissibility"]["value"] == "bounded"
    assert slots["gamma_scans"]["value"]["0.5"]["verdict"] == "diverging"
    assert slots["l2_iss"]["value"] == "ISS"
    edge = {e["id"]: e["status"] for e in report["edges"]}
    assert edge["bounded-input-constant-does-not-imply-half-power-class"] == "witnessed"
    assert (
        edge["stability-plus-bounded-input-constant-does-not-imply-contraction-similarity"]
        == "not-checkable-at-finite-truncation"
    )
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "trends.csv").exists()
    assert (tmp_path / "trajectories.csv").exists()
    doc = json.loads(_read(artifacts["report"]))
    assert doc["schema"] == "1"
    for slot in doc["slots"].values():
        assert "provenance" in slot


def test_explicit_sequences_reject_oversized_modes():
    config = AnalysisConfig.from_dict(
        {
            "system": {
                "type": "spectral",
                "eigenvalues": [1.0, 2.0, 3.0],
                "input_coeffs": [1.0, 1.0, 1.0],
            },
            "modes": [64],
        }
    )
    with pytest.raises(ConfigError, match="only 3 modes"):
        run_analyze(config)


@pytest.mark.parametrize("mixed", ["eigenvalue-list", "coeff-list"])
def test_a_rule_next_to_a_list_follows_the_list_length(tmp_path, mixed):
    # A rule is evaluated at the other sequence's list length, so the family
    # is the list's leading sections, as for two lists; only the default
    # label differs.
    squares = [float(n * n) for n in range(1, 11)]
    docs = {"lists": {"eigenvalues": squares, "input_coeffs": [1] * 10},
            "eigenvalue-list": {"eigenvalues": squares, "coeff_rule": "1"},
            "coeff-list": {"eigenvalue_rule": "n^2", "input_coeffs": [1] * 10}}
    for name in ("lists", mixed):
        path = tmp_path / f"{name}.json"
        doc = {"system": dict(docs[name], type="spectral"), "modes": [4, 8]}
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("admissibility-scan", "analyze"):
            out = tmp_path / name / command
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
    for command in ("admissibility-scan", "analyze"):
        written = sorted(p.name for p in (tmp_path / "lists" / command).iterdir())
        assert written == sorted(p.name for p in (tmp_path / mixed / command).iterdir())
        for name in written:
            got = _read(tmp_path / mixed / command / name).replace(b"custom", b"spectral")
            assert got == _read(tmp_path / "lists" / command / name)


def test_multi_input_matrix_rejected_by_config():
    config = AnalysisConfig.from_dict(
        {
            "system": {
                "type": "matrix",
                "a": [[-1.0, 0.0], [0.0, -2.0]],
                "b": [[1.0, 0.0], [0.0, 1.0]],
            },
            "modes": [2],
        }
    )
    with pytest.raises(ConfigError, match="scalar-input"):
        run_analyze(config)


@pytest.mark.parametrize("command", ["analyze", "lyapunov-eval"])
def test_cli_multi_input_matrix_is_a_config_error(tmp_path, capsys, command):
    path = tmp_path / "multi.json"
    path.write_text(json.dumps({
        "system": {"type": "matrix", "a": [[-1.0, 0.0], [0.0, -2.0]],
                   "b": [[1.0, 0.0], [0.0, 1.0]]},
    }), encoding="utf-8")
    assert main([command, "--config", str(path)]) == 2
    assert "scalar-input" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "admissibility-scan", "lyapunov-eval", "simulate"])
def test_an_ill_conditioned_system_is_a_config_error(tmp_path, capsys, command):
    # Rates spread over 2^0 .. 2^300: the library refuses the Lyapunov solve,
    # or V_half's matrix square root, with ConditioningError.
    path = tmp_path / "stiff.json"
    a = np.diag(-(2.0 ** np.linspace(0.0, 300.0, 8)))
    path.write_text(json.dumps({"system": {"type": "matrix", "a": a.tolist(), "b": [1.0] * 8}}))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1 and "refused" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["admissibility-scan"], ["admissibility-scan", "--q", "1"], ["analyze", "--q", "inf"],
])
def test_a_horizon_whose_semigroup_is_not_finite_is_a_config_error(tmp_path, capsys, argv):
    argv = argv + ["--config", _dense8_config(tmp_path), "--out", str(tmp_path / "out")]
    assert main(argv + ["--horizon", "1e100"]) == 2
    err = capsys.readouterr().err
    # The one message of every dense e^(At) refusal; it read "... up to the
    # horizon T = 1e+100" before the semigroup was refused in one place.
    assert err == "config error: the semigroup is not finite at t = 1e+100\n"
    assert main(argv + ["--horizon", "1e20"]) == 0


def _dense8_config(tmp_path):
    a, b = dense_nonnormal(7, 8)
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"system": {"type": "matrix", "a": a.tolist(), "b": b.tolist()}}))
    return str(path)


@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_a_small_dense_delta_override_exits_zero_without_warning(tmp_path, command):
    # The sweep to 60/delta = 6e4 underflows semigroup norms to 0, whose
    # ceiling 0 * e^(mu (t - s)) = 0 * inf warned "invalid value".
    argv = [command, "--config", _dense8_config(tmp_path), "--delta-override", "1e-3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["simulate", "analyze"])
@pytest.mark.parametrize("delta", ["1e-40", "1e-60"])
def test_a_dense_delta_whose_sweep_semigroup_is_not_finite_is_a_config_error(
    tmp_path, capsys, command, delta
):
    # expm(A t) is NaN at the sweep's end 60/delta: analyze died with
    # "LinAlgError: SVD did not converge", simulate exited 2 with that text.
    argv = [command, "--config", _dense8_config(tmp_path), "--delta-override", delta]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: the semigroup is not finite at t = ")
    assert err.endswith(f"on the decay sweep to 60/delta, delta = {delta}\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["admissibility-scan", "--modes", "3"],
    ["admissibility-scan", "--modes", "1,2,3", "--gamma", ","],
    ["admissibility-scan", "--modes", "3", "--q", "1"],
    ["admissibility-scan", "--modes", "3", "--q", "inf"],
    ["analyze", "--modes", "3"],
], ids=["scan", "scan-sweep", "scan-q1", "scan-qinf", "analyze"])
def test_an_input_column_whose_square_overflows_is_a_config_error(tmp_path, capsys, argv):
    # b . b = inf: K2 read 0.0 and the sweep "bounded", "ISS"; the q = 1 and
    # q = inf constants were inf, which the JSON artifacts refused.
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"system": {
        "type": "spectral", "eigenvalues": [1, 2, 3], "input_coeffs": [1e300, 1, 1]}}))
    argv = argv + ["--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "config error: the input column's squared norm overflows double precision\n"


@pytest.mark.parametrize("argv", [
    ["admissibility-scan", "--model", "counterexample", "--modes", "64,128,256", "--horizon", "1e300"],
    ["admissibility-scan", "--model", "counterexample", "--modes", "64,128,256", "--horizon", "1e300",
     "--q", "inf"],
    ["analyze", "--model", "heat-neumann", "--modes", SMALL, "--horizon", "1e306"],
], ids=["scan-q2", "scan-qinf", "analyze"])
def test_huge_diagonal_horizons_exit_zero_without_warning(tmp_path, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--out", str(tmp_path)]) == 0
    for path in tmp_path.iterdir():
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text and ",inf" not in text


def _spectral_config(tmp_path, eigenvalues, coeffs):
    path = tmp_path / "spectral.json"
    path.write_text(json.dumps({"system": {
        "type": "spectral", "eigenvalues": eigenvalues, "input_coeffs": coeffs}}))
    return str(path)


def test_a_spectrum_too_stiff_for_any_dini_step_certifies_w0(tmp_path, capsys):
    # The exact W_0 a3max is 1; a Dini falsifier read it as infeasible.
    config = _spectral_config(tmp_path, [2.0**200, 2.0**201, 2.0**230], [1, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["analyze", "--config", config, "--modes", "2,3"]) == 0
    assert "slot noncoercive_w0: certified" in capsys.readouterr().out


def test_an_input_column_near_overflow_is_a_finding_with_warnings_as_errors(tmp_path, capsys):
    # The sampled fit's overflowing samples are violations, not warnings:
    # the run exits 3 with its finding, as it does without the filter.
    config = _spectral_config(tmp_path, [1, 2, 3], [1e154, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["analyze", "--config", config, "--modes", "2,3"]) == 3
    out = capsys.readouterr().out
    assert "finding: coercive_quadratic_l2: infeasible" in out
    assert "slot noncoercive_w0: certified" in out


def test_an_input_column_near_overflow_writes_a_finite_report(tmp_path, capsys):
    # A forced sample whose a4 slope overflows is a violation and never a
    # bound, so no infinite a4 reaches the strict-JSON report.
    config = _spectral_config(tmp_path, [1, 2, 3], [1e154, 1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["analyze", "--config", config, "--modes", "2,3",
                     "--out", str(tmp_path / "out")]) == 3
    assert "finding: coercive_quadratic_l2: infeasible" in capsys.readouterr().out
    with open(tmp_path / "out" / "report.json", encoding="utf-8") as handle:
        certificate = json.load(handle)["slots"]["coercive_quadratic_l2"]["certificate"]
    assert math.isfinite(certificate["a4"]) and certificate["violations"]


def test_analyze_flat_input_list_equals_column(tmp_path):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) / 2.0 - 2.0 * np.eye(4)
    b = rng.normal(size=4)
    outputs = []
    for name, column in (("flat", b.tolist()), ("column", [[v] for v in b.tolist()])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "system": {"type": "matrix", "a": a.tolist(), "b": column},
            "sample_count": 8,
        }), encoding="utf-8")
        assert main(["analyze", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        outputs.append(
            [_read(tmp_path / name / f) for f in ("report.json", "trends.csv", "trajectories.csv")]
        )
    assert outputs[0] == outputs[1]


def test_analyze_zero_input_system():
    config = AnalysisConfig.from_dict(
        {
            "system": {
                "type": "spectral",
                "eigenvalue_rule": "n^2",
                "coeff_rule": "0*n",
                "label": "silent",
            },
            "modes": [4, 8, 16],
            "sample_count": 8,
        }
    )
    report, _ = run_analyze(config)
    assert report["slots"]["l2_iss"]["value"] == "ISS"
    assert report["slots"]["two_admissibility"]["value"] == "bounded"
    assert report["findings"] == []


def test_exponent_bridge_reported():
    config = AnalysisConfig(model="heat-neumann", modes=(16, 64, 256), sample_count=8)
    report, _ = run_analyze(config)
    bridge = report["slots"]["gamma_scans"]["exponent_bridge"]
    # The finest bounded scan exponent 0.375 maps to 1/(1 - 0.375) = 1.6.
    assert "1.6" in bridge


def test_analyze_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        config = AnalysisConfig(
            model="heat-neumann", modes=(8, 16, 32), seed=123,
            sample_count=16, out_dir=str(out),
        )
        run_analyze(config)
    for name in ("report.json", "trends.csv", "trajectories.csv"):
        assert _read(out_a / name) == _read(out_b / name)


def test_trends_csv_shape(tmp_path):
    import csv as csv_mod
    import io

    config = AnalysisConfig(
        model="heat-neumann", modes=(8, 16, 32), sample_count=16, out_dir=str(tmp_path)
    )
    run_analyze(config)
    text = _read(tmp_path / "trends.csv").decode()
    assert "\r" not in text
    rows = list(csv_mod.reader(io.StringIO(text)))
    assert rows[0] == ["system", "label", "quantity", "gamma_or_q", "N", "T", "value"]
    quantities = {row[2] for row in rows[1:]}
    assert {"class_scan_norm", "admissibility_constant", "certificate_a3",
            "certificate_a4", "coercivity_lower", "condition_number"} <= quantities
    for row in rows[1:]:
        float(row[6])  # full-precision values round-trip


def test_trends_csv_numbers_equal_report_json(tmp_path):
    # Every CSV number is the repr of its float, so it parses back to the
    # report's value exactly; a row without a horizon leaves T empty.
    config = AnalysisConfig(
        model="heat-neumann", modes=(8, 16, 32), sample_count=16, out_dir=str(tmp_path)
    )
    report, artifacts = run_analyze(config)
    slots = json.loads(_read(artifacts["report"]))["slots"]
    expected = {}
    for gamma, scan in slots["gamma_scans"]["value"].items():
        for n, v in scan["norms"]:
            expected[("extrapolation", "class_scan_norm", gamma, n)] = v
    for n, v in slots["two_admissibility"]["constants"]:
        expected[("input-map", "admissibility_constant", "2", n)] = v
    for name in ("coercive_quadratic_l2", "noncoercive_w0"):
        label = slots[name]["provenance"].removeprefix("dissipation certificate for the ")
        for coeff in ("a3", "a4"):
            for n, v in slots[name][coeff]:
                expected[(label, f"certificate_{coeff}", "", n)] = v
    for n, v in slots["contraction_similarity"]["condition_numbers"]:
        expected[("similarity", "condition_number", "", n)] = v
    with open(artifacts["trends"], encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    matched = 0
    for row in rows:
        if row["quantity"] == "admissibility_constant":
            assert float(row["T"]) == config.horizon
        else:
            assert row["T"] == ""
        key = (row["label"], row["quantity"], row["gamma_or_q"], int(row["N"]))
        if key in expected:
            assert float(row["value"]) == expected[key]
            matched += 1
    assert matched == len(expected) > 0


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_number_is_not_written_as_json(tmp_path, value):
    # Every document is refused before any file of the call is opened: no
    # doc.json is left behind half written, an old one keeps its bytes, and
    # the CSV of the same call is not written either.
    for existing in (None, b'{"kept": true}\n'):
        out = tmp_path / ("fresh" if existing is None else "existing")
        out.mkdir()
        if existing is not None:
            (out / "doc.json").write_bytes(existing)
        with pytest.raises(ValueError, match="JSON compliant"):
            _write_artifacts(str(out), {"table": ("table.csv", (["x"], [[1.0]])),
                                        "doc": ("doc.json", {"value": value})})
        assert sorted(path.name for path in out.iterdir()) == ([] if existing is None else ["doc.json"])
        assert existing is None or (out / "doc.json").read_bytes() == existing


def test_main_reuses_one_parser_and_carries_no_state_between_calls(tmp_path, capsys):
    # --q inf and then no --q: a parser that kept the first call's value
    # would rerun the q = inf stage.  Each run must match a fresh parser's.
    model = ["--model", "heat-dirichlet", "--modes", "16,64,256"]
    argvs = [["admissibility-scan"] + model + ["--q", "inf"], ["admissibility-scan"] + model]

    def run(argv, out):
        code = main(argv + ["--out", str(out)])
        stdout = capsys.readouterr().out.replace(str(out), "OUT")
        return code, stdout, {path.name: path.read_bytes() for path in out.iterdir()}

    fresh = []
    for k, argv in enumerate(argvs):
        cli._parser.cache_clear()
        fresh.append(run(argv, tmp_path / f"fresh-{k}"))
    cli._parser.cache_clear()
    reused = [run(argv, tmp_path / f"reused-{k}") for k, argv in enumerate(argvs)]
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)  # one build, then one reuse
    assert "verdict at q=inf" in reused[0][1] and "q=inf" not in reused[1][1]
    assert reused == fresh


_OVERFLOWING_SCAN = {"model": None, "modes": [2, 3, 4], "system": {
    "type": "spectral", "eigenvalues": [0.1, 0.2, 0.3, 0.4], "input_coeffs": [1, 1, 1, 1],
}}


@pytest.mark.parametrize("gamma", ["300", "1000"])
@pytest.mark.parametrize("command", ["admissibility-scan", "analyze"])
@pytest.mark.parametrize("action", ["error", "default"])
def test_a_scan_that_overflows_is_a_config_error(tmp_path, capsys, action, command, gamma):
    # 0.1^-1000 overflows in the power, 0.1^-300 only in the norm; either
    # would write NaN and Infinity, which are not JSON.  The refusal must
    # not depend on whether RuntimeWarnings are errors.
    import warnings

    path = tmp_path / "config.json"
    path.write_text(json.dumps(_OVERFLOWING_SCAN), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        code = main([command, "--config", str(path), "--gamma", gamma,
                     "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: the class scan at gamma = {gamma} overflows")
    assert not (tmp_path / "out").exists()


def test_numeric_rows_are_written_as_the_csv_writer_writes_them(tmp_path):
    header = ["t", "mode_1", "mode_2", "u"]
    rows = np.array([[0.0, -0.0, 1e-300, 1.0 / 3.0], [2.5, np.nan, -np.inf, 5e-324]])
    joined = _write_artifacts(str(tmp_path / "a"), {"t": ("t.csv", (header, rows))})
    written = _write_artifacts(str(tmp_path / "b"), {"t": ("t.csv", (header, rows.tolist()))})
    with open(joined["t"], "rb") as a, open(written["t"], "rb") as b:
        assert a.read() == b.read()


def _bits_to_floats(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


def _analyze_step_response(sys):
    """The table ``run_analyze`` writes as ``trajectories.csv`` for ``sys``."""
    t_end = min(AnalysisConfig().horizon, max(1.0, 4.0 / sys.spectral_gap))
    grid = np.linspace(0.0, t_end, 101)
    response = simulate_mild(sys, np.zeros(sys.dimension), InputSignal.constant(1.0), grid)
    return _trajectory_table(response)


# Tables whose unchanged fields the array branch reuses: signed zeros that
# flip row to row (equal as floats, printed apart), NaNs whose payloads
# differ (unequal to themselves, printed alike), infinities, the smallest
# subnormal, repeated rows and degenerate shapes.
QUIET_NAN, PAYLOAD_NAN, NEGATIVE_NAN = _bits_to_floats(
    0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000123
)
EDGE_TABLES = {
    "signed-zero-flips": np.array([[0.0, -0.0, 1.0], [-0.0, 0.0, 1.0], [0.0, -0.0, -0.0],
                                   [0.0, 0.0, 0.0]]),
    "nan-payloads": np.array([[QUIET_NAN, np.inf, 5e-324], [PAYLOAD_NAN, -np.inf, 5e-324],
                              [NEGATIVE_NAN, np.inf, -5e-324], [NEGATIVE_NAN, np.inf, 0.0]]),
    "repeated-row": np.array([[1.0 / 3.0, 2.0], [1.0 / 3.0, 2.0], [1.0 / 3.0, 2.0]]),
    "one-row": np.array([[0.1, -0.0, np.nan, 1e300]]),
    "one-column": np.array([[0.0], [-0.0], [-0.0], [np.nan], [2.5]]),
}


def _real_tables():
    yield "heat-neumann-256", _analyze_step_response(heat_system("neumann", 256))
    yield "dense-n8-seed3", _analyze_step_response(MatrixSystem(*dense_nonnormal(3, 8)))
    yield "simulate-run", _trajectory_table(gain_ensemble(heat_system("dirichlet", 32), 5)[4])


@pytest.mark.parametrize("name", list(EDGE_TABLES) + ["real"])
def test_numeric_tables_match_the_csv_writer_byte_for_byte(tmp_path, name):
    if name == "real":
        tables = list(_real_tables())
    else:
        rows = EDGE_TABLES[name]
        tables = [(name, ([f"c{k}" for k in range(rows.shape[1])], rows))]
    for label, (header, rows) in tables:
        joined = _write_artifacts(str(tmp_path / "a"), {"t": ("t.csv", (header, rows))})
        written = _write_artifacts(str(tmp_path / "b"), {"t": ("t.csv", (header, rows.tolist()))})
        assert _read(joined["t"]) == _read(written["t"]), label


def test_the_writer_formats_only_the_fields_that_change(monkeypatch, tmp_path):
    formatted = []
    monkeypatch.setattr(analysis, "repr", lambda v: formatted.append(v) or repr(v), raising=False)

    def count(rows):
        formatted.clear()
        _write_artifacts(str(tmp_path), {"t": ("t.csv", ([""] * rows.shape[1], rows))})
        return len(formatted)

    _, rows = _analyze_step_response(heat_system("neumann", 256))
    assert rows.size == 26058
    assert count(rows) <= 0.05 * rows.size
    rows = np.random.default_rng(11).choice([0.0, -0.0, 1.5, np.nan], size=(40, 9))
    bits = rows.view(np.uint64)
    assert count(rows) == rows.shape[1] + np.count_nonzero(bits[1:] != bits[:-1])


@pytest.mark.parametrize("dtype", [np.complex128, np.int64])
def test_numeric_rows_of_another_dtype_are_refused(tmp_path, dtype):
    with pytest.raises(TypeError, match="must be float64"):
        _write_artifacts(str(tmp_path), {"t": ("t.csv", (["x"], np.ones((2, 1), dtype=dtype)))})


def test_trajectories_csv_parses_back_to_the_simulated_states(tmp_path):
    config = AnalysisConfig(
        model="heat-neumann", modes=(8, 16), sample_count=16, out_dir=str(tmp_path)
    )
    _, artifacts = run_analyze(config)
    sys = heat_system("neumann", 16)
    grid = np.linspace(0.0, min(config.horizon, max(1.0, 4.0 / sys.spectral_gap)), 101)
    traj = simulate_mild(sys, np.zeros(16), InputSignal.constant(1.0), grid)
    with open(artifacts["trajectories"], encoding="utf-8", newline="") as handle:
        header, *rows = list(csv.reader(handle))
    assert header == ["t"] + [f"mode_{k}" for k in range(1, 17)] + ["u"]
    table = np.array([[float(v) for v in row] for row in rows])
    assert np.array_equal(table[:, 0], traj.times)
    assert np.array_equal(table[:, 1:-1], traj.states)
    assert np.all(table[:, -1] == 1.0)


SHARED_FLAGS = [
    ("--config", None, None, None),
    ("--model", "heat-neumann", "model", "heat-neumann"),
    ("--modes", "8,16", "modes", (8, 16)),
    ("--gamma", "0.25,0.5", "gammas", (0.25, 0.5)),
    ("--q", "inf", "q", math.inf),
    ("--horizon", "7", "horizon", 7.0),
    ("--seed", "3", "seed", 3),
    ("--out", "from-flag", "out_dir", "from-flag"),
    ("--delta-override", "1.5", "delta_override", 1.5),
]


@pytest.mark.parametrize(
    "flag, text, field, value", SHARED_FLAGS, ids=[f[0] for f in SHARED_FLAGS]
)
def test_shared_flag_overrides_its_config_key(tmp_path, flag, text, field, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "model": "heat-dirichlet", "modes": [4, 8], "gammas": [0.1], "q": 1,
        "horizon": 3.0, "seed": 9, "out_dir": "from-config",
        "delta_override": 0.5, "sample_count": 12,
    }), encoding="utf-8")
    argv = ["analyze", "--config", str(path)]
    if field is not None:
        argv += [flag, text]
    config = _build_config(build_parser().parse_args(argv))
    from_file = AnalysisConfig.from_file(path)
    if field is None:
        assert config == from_file
    else:
        assert getattr(from_file, field) != value
        assert config == dataclasses.replace(from_file, **{field: value})


def test_cli_rule_config_past_the_ceiling_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps({
        "system": {"type": "spectral", "eigenvalue_rule": "2^n", "coeff_rule": "1"},
        "modes": [8, 16, 48],
    }), encoding="utf-8")
    assert main(["admissibility-scan", "--config", str(path)]) == 2
    assert "ceiling" in capsys.readouterr().err


def test_edge_violation_detection():
    # Synthetic slots in which the theorem edge fails must abort the run.
    slots = {
        "exponentially_stable": {"value": True},
        "two_admissibility": {"value": "bounded"},
        "l2_iss": {"value": "not-ISS"},
        "gamma_scans": {"value": {}},
        "coercive_quadratic_l2": {"value": "certified"},
        "noncoercive_w0": {"value": "certified"},
        "contraction_similarity": {"condition_numbers": []},
    }
    with pytest.raises(InvariantViolationError, match="stability-plus-bounded-input-constant-iff-l2-iss"):
        _check_edges(slots, AnalysisConfig())


IFF = "stability-plus-bounded-input-constant-iff-l2-iss"
BRIDGE = "weakened-class-below-half-implies-bounded-input-constant"
HALF = "half-power-class-implies-coercive-certificate"
ORBIT = "noncoercive-orbit-energy-certificate"
CROSSED = "bounded-input-constant-does-not-imply-half-power-class"
SIMILARITY = "stability-plus-bounded-input-constant-does-not-imply-contraction-similarity"


def _edge_slots(adm="bounded", iss="ISS", scans=None, coercive="certified",
                noncoercive="certified", stable=True, adm_q=None):
    # Synthetic slots: ``scans`` maps a gamma key to its scan verdict, and
    # ``adm_q`` is the verdict of the q != 2 constants, if any.
    extra = {} if adm_q is None else {"q_admissibility": {"value": adm_q}}
    return extra | {
        "exponentially_stable": {"value": stable},
        "two_admissibility": {"value": adm},
        "l2_iss": {"value": iss},
        "gamma_scans": {"value": {g: {"verdict": v} for g, v in (scans or {}).items()}},
        "coercive_quadratic_l2": {"value": coercive},
        "noncoercive_w0": {"value": noncoercive},
        "contraction_similarity": {"condition_numbers": [[8, 1.0], [16, 2.0]]},
    }


EDGE_BRANCHES = [
    pytest.param({}, IFF, "holds", "stable=True, constants bounded, verdict ISS",
                 id="iff-holds"),
    pytest.param({"adm": "diverging", "iss": "not-ISS"}, IFF, "holds",
                 "stable=True, constants diverging, verdict not-ISS", id="iff-holds-negative"),
    pytest.param({"iss": "not-ISS"}, IFF, "violated", None, id="iff-violated"),
    pytest.param({"adm": "inconclusive"}, IFF, "inconclusive",
                 "stable=True, constants inconclusive, verdict ISS", id="iff-inconclusive-adm"),
    pytest.param({"iss": "inconclusive"}, IFF, "inconclusive",
                 "stable=True, constants bounded, verdict inconclusive",
                 id="iff-inconclusive-iss"),
    pytest.param({}, BRIDGE, "vacuous",
                 "no bounded scan strictly below one half at these truncations",
                 id="bridge-vacuous"),
    pytest.param({"scans": {"0.5": "bounded", "0.75": "bounded"}}, BRIDGE, "vacuous",
                 "no bounded scan strictly below one half at these truncations",
                 id="bridge-vacuous-at-half"),
    pytest.param({"scans": {"0.25": "diverging", "0.375": "bounded", "0.4": "bounded"}},
                 BRIDGE, "holds", "bounded scan at gamma=0.375 and constants bounded",
                 id="bridge-holds"),
    pytest.param({"adm": "inconclusive", "scans": {"0.25": "bounded"}}, BRIDGE,
                 "inconclusive", "bounded scan at gamma=0.25 and constants inconclusive",
                 id="bridge-inconclusive"),
    pytest.param({"adm": "diverging", "iss": "not-ISS", "scans": {"0.25": "bounded"}},
                 BRIDGE, "violated", None, id="bridge-violated"),
    pytest.param({}, HALF, "vacuous", "no scan at gamma = 1/2 requested", id="half-not-requested"),
    pytest.param({"scans": {"0.5": "diverging"}}, HALF, "vacuous",
                 "half-power scan diverging; the hypothesis fails", id="half-hypothesis-fails"),
    # An inconclusive half-power scan decides nothing, so the edge cannot be vacuous.
    pytest.param({"scans": {"0.5": "inconclusive"}}, HALF, "inconclusive",
                 "no bounded scan at gamma = 1/2: a scan there is inconclusive",
                 id="half-hypothesis-inconclusive"),
    # A requested gamma whose scan did not run (fewer than three truncations)
    # leaves a premise unknown; one that was not requested leaves it failed.
    pytest.param({"gammas": (0.25, 0.5)}, HALF, "inconclusive",
                 "no bounded scan at gamma = 1/2: a scan needs three truncations",
                 id="half-not-scanned"),
    pytest.param({"gammas": (0.25,)}, HALF, "vacuous", "no scan at gamma = 1/2 requested",
                 id="half-not-requested-not-scanned"),
    pytest.param({"gammas": (0.25, 0.5)}, BRIDGE, "inconclusive",
                 "no bounded scan strictly below one half: a scan needs three truncations",
                 id="bridge-not-scanned"),
    pytest.param({"gammas": (0.5, 0.75)}, BRIDGE, "vacuous",
                 "no bounded scan strictly below one half at these truncations",
                 id="bridge-not-scanned-none-below-half"),
    pytest.param({"q": 1.0, "gammas": (0.0, 0.5)}, BRIDGE, "vacuous",
                 "no bounded scan strictly below 1 - 1/q = 0 at these truncations",
                 id="bridge-q1-not-scanned"),
    pytest.param({"scans": {"0.25": "inconclusive", "0.375": "diverging", "0.5": "bounded"}},
                 BRIDGE, "inconclusive",
                 "no bounded scan strictly below one half: a scan there is inconclusive",
                 id="bridge-scan-inconclusive"),
    pytest.param({"scans": {"0.5": "bounded"}}, HALF, "holds",
                 "half-power scan bounded and coercive certificate certified", id="half-holds"),
    pytest.param({"scans": {"0.5": "bounded"}, "coercive": "certified-single-truncation"},
                 HALF, "holds",
                 "half-power scan bounded and coercive certificate certified-single-truncation",
                 id="half-holds-single"),
    pytest.param({"scans": {"0.5": "bounded"}, "coercive": "input-coefficient-inconclusive"},
                 HALF, "inconclusive",
                 "half-power scan bounded and coercive certificate input-coefficient-inconclusive",
                 id="half-inconclusive"),
    pytest.param({"scans": {"0.5": "bounded"}, "coercive": "input-coefficient-diverging"},
                 HALF, "violated", None, id="half-violated"),
    pytest.param({"scans": {"0.5": "bounded"}, "coercive": "infeasible"},
                 HALF, "violated", None, id="half-violated-infeasible"),
    pytest.param({}, ORBIT, "holds", "orbit-energy certificate certified", id="orbit-holds"),
    pytest.param({"noncoercive": "input-coefficient-diverging"}, ORBIT, "not-observed",
                 "orbit-energy certificate input-coefficient-diverging", id="orbit-not-observed"),
    pytest.param({"noncoercive": "input-coefficient-inconclusive"}, ORBIT, "not-observed",
                 "orbit-energy certificate input-coefficient-inconclusive",
                 id="orbit-inconclusive-not-observed"),
    pytest.param({"scans": {"0.5": "diverging"}}, CROSSED, "witnessed",
                 "bounded empirical constants with a diverging half-power scan", id="witnessed"),
    pytest.param({"adm": "diverging", "iss": "not-ISS", "scans": {"0.5": "diverging"}},
                 CROSSED, "not-witnessed-here",
                 "this family does not witness the non-implication", id="not-witnessed"),
    pytest.param({}, SIMILARITY, "not-checkable-at-finite-truncation",
                 "every truncation admits a similarity scalar product; its distortion "
                 "trend is [[8, 1.0], [16, 2.0]]", id="similarity"),
    # The bridge premise is a bounded scan at some gamma < 1 - 1/q.
    pytest.param({"q": 1.0, "adm": "diverging", "iss": "not-ISS", "scans": {"0": "bounded"}},
                 BRIDGE, "vacuous",
                 "no bounded scan strictly below 1 - 1/q = 0 at these truncations",
                 id="bridge-q1-never"),
    pytest.param({"q": math.inf, "scans": {"0.5": "diverging", "0.75": "bounded"}}, BRIDGE,
                 "holds", "bounded scan at gamma=0.75 and constants bounded",
                 id="bridge-qinf-holds"),
    pytest.param({"q": math.inf, "adm": "inconclusive", "scans": {"0.75": "bounded"}}, BRIDGE,
                 "inconclusive", "bounded scan at gamma=0.75 and constants inconclusive",
                 id="bridge-qinf-inconclusive"),
    pytest.param({"q": math.inf, "adm": "diverging", "iss": "not-ISS",
                  "scans": {"0.75": "bounded"}}, BRIDGE, "violated", None,
                 id="bridge-qinf-violated"),
    # At q != 2 the bridge concludes on the q-constants, not the L2 ones.
    pytest.param({"q": math.inf, "adm": "diverging", "iss": "not-ISS", "adm_q": "bounded",
                  "scans": {"0.75": "bounded"}}, BRIDGE, "holds",
                 "bounded scan at gamma=0.75 and constants bounded", id="bridge-qinf-reads-q-slot"),
    pytest.param({"q": math.inf, "adm_q": "diverging", "scans": {"0.75": "bounded"}}, BRIDGE,
                 "violated", None, id="bridge-qinf-q-slot-violated"),
    pytest.param({"q": math.inf, "scans": {"1": "bounded"}}, BRIDGE, "vacuous",
                 "no bounded scan strictly below 1 - 1/q = 1 at these truncations",
                 id="bridge-qinf-not-at-gamma-1"),
]


@pytest.mark.parametrize("overrides, edge_id, status, detail", EDGE_BRANCHES)
def test_every_edge_branch(overrides, edge_id, status, detail):
    # The requested gammas default to those of the scans, each of which ran.
    overrides = dict(overrides)
    q = overrides.pop("q", 2.0)
    gammas = overrides.pop("gammas", tuple(float(g) for g in overrides.get("scans", {})))
    slots = _edge_slots(**overrides)
    config = AnalysisConfig(q=q, gammas=gammas)
    if status == "violated":
        with pytest.raises(InvariantViolationError) as caught:
            _check_edges(slots, config)
        assert str(caught.value) == f"theorem edge(s) reported violated: {edge_id}"
        return
    edges = _check_edges(slots, config)
    assert [e["id"] for e in edges] == [IFF, BRIDGE, HALF, ORBIT, CROSSED, SIMILARITY]
    assert all(sorted(e) == ["detail", "id", "provenance", "status"] for e in edges)
    edge = {e["id"]: e for e in edges}[edge_id]
    assert (edge["status"], edge["detail"]) == (status, detail)


@pytest.mark.parametrize("config", [
    {"model": "heat-neumann", "modes": (8, 16)},
    {"system": {"type": "matrix", "a": [[-1.0, 10.0], [0.0, -2.0]], "b": [1.0, 1.0]}},
])
def test_a_run_without_scans_leaves_both_scan_premises_unknown(config):
    # No scan runs below three truncations (a dense system is one), so the
    # default gammas 1/4, 3/8 and 1/2 decide neither premise: both edges
    # read inconclusive, where they used to read vacuous.
    report, _ = run_analyze(AnalysisConfig(**config))
    assert report["slots"]["gamma_scans"]["value"] == {}
    edges = {e["id"]: (e["status"], e["detail"]) for e in report["edges"]}
    unscanned = ": a scan needs three truncations"
    assert edges[BRIDGE] == ("inconclusive", f"no bounded scan strictly below one half{unscanned}")
    assert edges[HALF] == ("inconclusive", f"no bounded scan at gamma = 1/2{unscanned}")


def test_l1_run_on_heat_neumann_leaves_the_bridge_vacuous():
    config = AnalysisConfig(model="heat-neumann", modes=(16, 64, 256), q=1)
    report, _ = run_analyze(config)
    edges = {e["id"]: e for e in report["edges"]}
    assert edges[BRIDGE]["status"] == "vacuous"
    assert edges[BRIDGE]["detail"] == (
        "no bounded scan strictly below 1 - 1/q = 0 at these truncations"
    )
    # The L2 slots stay at q = 2; the diverging q = 1 constants (||b|| grows
    # like sqrt(N)) are reported in their own slot and as a finding.
    slots = report["slots"]
    assert (slots["two_admissibility"]["value"], slots["l2_iss"]["value"]) == ("bounded", "ISS")
    q_slot = slots["q_admissibility"]
    assert (q_slot["q"], q_slot["value"], q_slot["lq_iss"]["value"]) == (
        "1", "diverging", "not-ISS"
    )
    assert "q=1 input-map constants diverge across truncations" in report["findings"]


def test_cli_maps_an_invariant_violation_to_exit_4(monkeypatch, capsys):
    def violated(config):
        raise InvariantViolationError("theorem edge(s) reported violated: synthetic")

    monkeypatch.setattr("lyapcert.cli.run_analyze", violated)
    assert main(["analyze", "--model", "heat-neumann", "--modes", SMALL]) == 4
    err = capsys.readouterr().err
    assert err.startswith("invariant violation:") and "synthetic" in err


def _force_infeasible(monkeypatch, builder, modes):
    # Wraps the fit that analysis calls so that the fits of ``builder``'s
    # form at the listed truncation sizes come back infeasible.
    import lyapcert.analysis as analysis

    original = analysis.fit_dissipation
    provenance = builder(heat_system("neumann", 4)).provenance

    def fit(form, sys, cloud):
        report = original(form, sys, cloud)
        if form.provenance == provenance and sys.dimension in modes:
            return dataclasses.replace(report, a3=0.0, a4=0.0, infeasible_reason="forced")
        return report

    monkeypatch.setattr(analysis, "fit_dissipation", fit)


def test_infeasible_noncoercive_fit_is_a_finding(tmp_path, monkeypatch):
    # The W_0 slot is exact; its certificate is infeasible when the rounding
    # enclosure proves a3max <= 0, here with M negated at N = 16.
    from lyapcert.systems import SpectralSystem

    original = SpectralSystem.dissipation_operator

    def negated(sys, form):
        m = original(sys, form)
        return -m if form.generator_power == 0.0 and sys.dimension == 16 else m

    monkeypatch.setattr(SpectralSystem, "dissipation_operator", negated)
    out = tmp_path / "out"
    assert main(["analyze", "--model", "heat-neumann", "--modes", SMALL, "--out", str(out)]) == 3
    report = json.loads(_read(out / "report.json"))
    slot = report["slots"]["noncoercive_w0"]
    assert slot["value"] == "infeasible"
    assert [n for n, v in slot["a4"] if v is None] == [16]
    assert all(isinstance(v, float) for n, v in slot["a4"] if n != 16)
    assert dict(slot["a3"])[16] == 0.0
    assert report["findings"] == ["noncoercive_w0: infeasible"]
    statuses = {e["id"]: e["status"] for e in report["edges"]}
    assert statuses["noncoercive-orbit-energy-certificate"] == "not-observed"


def test_infeasible_coercive_fit_violates_the_half_power_edge(monkeypatch, capsys):
    from lyapcert.lyapunov import build_v_half

    _force_infeasible(monkeypatch, build_v_half, {8, 16, 32})
    assert main(["analyze", "--model", "heat-neumann", "--modes", SMALL]) == 4
    err = capsys.readouterr().err
    assert err.startswith("invariant violation:")
    assert "half-power-class-implies-coercive-certificate" in err


def test_importing_lyapcert_and_its_cli_leaves_scipy_unloaded():
    # Only dense systems and selftest load scipy, on their first call into it.
    import os
    import subprocess
    import sys

    import lyapcert

    src = os.path.dirname(os.path.dirname(os.path.abspath(lyapcert.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import lyapcert\n"
        "print(loaded())\n"
        "import lyapcert.cli\n"
        "print(loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]


def test_cli_analyze_exit_codes(tmp_path):
    assert main([
        "analyze", "--model", "heat-neumann", "--modes", SMALL, "--out",
        str(tmp_path / "n"),
    ]) == 0
    # Dirichlet carries infeasibility findings: exit code 3 by contract.
    assert main([
        "analyze", "--model", "heat-dirichlet", "--modes", SMALL, "--out",
        str(tmp_path / "d"),
    ]) == 3


BAD_VALUES = [
    pytest.param("analyze", ["--gamma", "-0.5"], {}, id="negative-gamma"),
    pytest.param("analyze", ["--gamma", "nan"], {}, id="nan-gamma"),
    pytest.param("admissibility-scan", ["--gamma", "-0.5"], {}, id="scan-negative-gamma"),
    pytest.param("admissibility-scan", ["--gamma", "nan"], {}, id="scan-nan-gamma"),
    pytest.param("analyze", ["--seed", "-1"], {}, id="negative-seed"),
    pytest.param("analyze", ["--horizon", "nan"], {}, id="nan-horizon"),
    pytest.param("analyze", [], {"modes": 5}, id="modes-not-a-list"),
    pytest.param("analyze", [], {"modes": ["a"]}, id="modes-not-integers"),
    pytest.param("analyze", [], {"sample_count": 1.5}, id="fractional-sample-count"),
    pytest.param("analyze", [], {"seed": 1.5}, id="fractional-seed"),
    pytest.param("analyze", [], {"delta_override": "a"}, id="delta-override-not-a-number"),
    pytest.param("analyze", [], {"out_dir": 5}, id="out-dir-not-a-path"),
    pytest.param("analyze", [], {"model": ["x"]}, id="model-not-a-name"),
    pytest.param("analyze", [], {"model": None, "system": "abc"}, id="system-a-string"),
    pytest.param("analyze", [], {"model": None, "system": [1, 2]}, id="system-a-list"),
    pytest.param("analyze", [], {"modes": [8.5, 16, 32]}, id="fractional-modes"),
    pytest.param("analyze", [], {"modes": [True, 16, 32]}, id="bool-modes"),
    pytest.param("analyze", [], {"modes": ["8", 16, 32]}, id="string-modes"),
    pytest.param("analyze", [], {"sample_count": True}, id="bool-sample-count"),
    pytest.param("admissibility-scan", [], {"model": None, "modes": [1, 2, 3], "system": {
        "type": "spectral", "eigenvalues": [True, 4.0, 9.0], "input_coeffs": [1, 1, 1],
    }}, id="bool-eigenvalue"),
    pytest.param("admissibility-scan", [], {"model": None, "modes": [1, 2, 3], "system": {
        "type": "spectral", "eigenvalues": [1.0, 4.0, 9.0], "input_coeffs": ["1", 1, 1],
    }}, id="string-input-coeff"),
    pytest.param("admissibility-scan", [], {"model": None, "modes": [1, 2, 3], "system": {
        "type": "spectral", "eigenvalues": [1.0, 4.0, 9.0], "input_coeffs": [1, 1, 1],
        "modes": "3",
    }}, id="string-system-modes"),
    pytest.param("analyze", [], {"model": None, "modes": [2], "system": {
        "type": "matrix", "a": [[-1.0, False], [0.0, -2.0]], "b": [[1.0], [1.0]],
    }}, id="bool-matrix-entry"),
    pytest.param("analyze", [], {"model": None, "modes": [2], "system": {
        "type": "matrix", "a": [[-1.0, 0.0], [0.0, -2.0]], "b": ["1", 1.0],
    }}, id="string-input-column-entry"),
    pytest.param("admissibility-scan", [], {"model": None, "modes": [1, 2, 3], "system": {
        "type": "spectral", "eigenvalue_rule": "n^2", "coeff_rule": "1", "modes": 5,
    }}, id="system-document-modes"),
    pytest.param("admissibility-scan", [], {"model": None, "modes": [1, 2, 3], "system": {
        "type": "spectral", "eigenvalues": [1.0, 4.0, 9.0], "input_coeffs": [1, 1, 1],
        "lable": "typo",
    }}, id="unknown-system-key"),
    pytest.param("admissibility-scan", [], {"model": None, "modes": [2], "system": {
        "type": "matrix", "a": [[-1.0, 0.0], [0.0, -2.0]], "b": [1.0, 1.0],
        "eigenvalues": [1.0, 2.0],
    }}, id="matrix-document-eigenvalues"),
    pytest.param("admissibility-scan", [], {"model": None, "modes": [1, 2, 3], "system": {
        "type": "spectral", "eigenvalues": [1.0, 4.0, 9.0], "eigenvalue_rule": "n^2",
        "input_coeffs": [1, 1, 1],
    }}, id="list-and-rule"),
    pytest.param("admissibility-scan", [], {"model": None, "modes": [1, 2, 3], "system": {
        "type": "spectral", "eigenvalues": [1.0, 4.0, 9.0], "input_coeffs": [1, 1, 1],
        "label": 5,
    }}, id="label-not-a-string"),
]
COMMANDS = ("analyze", "simulate", "admissibility-scan", "lyapunov-eval")


def _assert_config_error(tmp_path, capsys, command, flags, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": "counterexample", "modes": [8, 16, 32], **doc}),
                    encoding="utf-8")
    argv = [command, "--config", str(path)] + flags
    if flags and flags[0] not in COMMAND_FLAGS[command]:
        # A flag the subcommand does not read is argparse's usage error.
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        return
    assert main(argv) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, doc", BAD_VALUES)
def test_cli_bad_value_is_a_config_error(tmp_path, capsys, command, flags, doc):
    _assert_config_error(tmp_path, capsys, command, flags, doc)


@pytest.mark.parametrize("command, flags, doc", [
    pytest.param(other, *case.values[1:], id=f"{other}-{case.id}")
    for case in BAD_VALUES for other in COMMANDS if other != case.values[0]
])
def test_every_command_refuses_a_bad_value(tmp_path, capsys, command, flags, doc):
    # The config is checked where it is built, so no subcommand skips a check.
    _assert_config_error(tmp_path, capsys, command, flags, doc)


def test_repeated_gamma_gives_one_scan_and_one_set_of_rows(tmp_path):
    assert AnalysisConfig(gammas=[0.5, 0.25, 0.5, 0.25]).gammas == (0.5, 0.25)
    out = tmp_path / "out"
    argv = ["analyze", "--model", "heat-neumann", "--modes", SMALL, "--gamma", "0.25,0.25"]
    assert main(argv + ["--out", str(out)]) == 0
    report = json.loads(_read(out / "report.json"))
    assert list(report["slots"]["gamma_scans"]["value"]) == ["0.25"]
    with open(out / "trends.csv", newline="") as handle:
        rows = [r for r in csv.DictReader(handle) if r["quantity"] == "class_scan_norm"]
    assert [r["N"] for r in rows] == SMALL.split(",")


@pytest.mark.parametrize(
    "flag, text, noun", [("--modes", "8,x", "integer"), ("--gamma", "0.2,y", "float")]
)
def test_list_flags_name_their_element_type(flag, text, noun, capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["analyze", flag, text])
    assert info.value.code == 2
    assert f"not a comma-separated {noun} list: {text!r}" in capsys.readouterr().err


def _subcommands():
    import argparse

    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_each_subcommand_registers_exactly_its_table_flags():
    import re

    commands = _subcommands()
    assert sum(len(flags) for flags in COMMAND_FLAGS.values()) == 28
    for name, flags in COMMAND_FLAGS.items():
        registered = [s for a in commands[name]._actions for s in a.option_strings]
        assert registered == ["-h", "--help", *flags]
        listed = set(re.findall(r"(--[a-z-]+)", commands[name].format_help()))
        assert listed == set(flags) | {"--help"}


def test_readme_lists_the_flags_of_each_subcommand():
    import pathlib
    import re

    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text[text.index("Each takes only the flags it reads:"):]
    block = block[:block.index("\n\n", block.index("\n* "))]
    listed = {}
    for item in re.split(r"\n\* ", block)[1:]:
        names, _, flags = item.partition(":")
        for name in re.findall(r"`([a-z-]+)`", names):
            listed.setdefault(name, set()).update(re.findall(r"`(--[a-z-]+)", flags))
    assert listed.pop("selftest") == {"--seed", "--fault"}
    assert listed == {name: set(flags) for name, flags in COMMAND_FLAGS.items()}


@pytest.mark.parametrize("command, flag, value", [
    ("simulate", "--gamma", "0.3"),
    ("simulate", "--q", "inf"),
    ("simulate", "--horizon", "5"),
    ("lyapunov-eval", "--gamma", "0.3"),
    ("lyapunov-eval", "--q", "inf"),
    ("lyapunov-eval", "--horizon", "5"),
    ("lyapunov-eval", "--delta-override", "1e9"),
    ("admissibility-scan", "--delta-override", "1.0"),
])
def test_a_flag_the_subcommand_does_not_read_exits_2(command, flag, value, capsys):
    with pytest.raises(SystemExit) as info:
        main([command, "--model", "heat-neumann", "--modes", "8", flag, value])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


# One value per flag a subcommand reads beyond the common five, each
# different from its default, and the artifact that must show it.
FLAG_EFFECTS = [
    ("analyze", "--gamma", "0.1", "report.json"),
    ("analyze", "--q", "inf", "report.json"),
    ("analyze", "--horizon", "3", "trends.csv"),
    ("analyze", "--delta-override", "1.0", "trends.csv"),
    ("admissibility-scan", "--gamma", "0.1", "admissibility.json"),
    ("admissibility-scan", "--q", "1", "admissibility.json"),
    ("admissibility-scan", "--horizon", "3", "admissibility.json"),
    ("simulate", "--delta-override", "1.0", "gainfit.json"),
]


def test_flag_effects_cover_every_table_flag():
    covered = {(command, flag) for command, flag, _, _ in FLAG_EFFECTS}
    assert covered == {
        (command, flag) for command, flags in COMMAND_FLAGS.items()
        for flag in flags if flag not in COMMON_FLAGS
    }


@pytest.mark.parametrize(
    "command, flag, value, artifact", FLAG_EFFECTS, ids=[f"{c}{f}" for c, f, _, _ in FLAG_EFFECTS]
)
def test_every_table_flag_changes_an_artifact(tmp_path, command, flag, value, artifact):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sample_count": 8}), encoding="utf-8")
    argv = [command, "--model", "heat-neumann", "--modes", "4,8,16", "--config", str(path)]
    main(argv + ["--out", str(tmp_path / "default")])
    main(argv + [flag, value, "--out", str(tmp_path / "flag")])
    default = _read(tmp_path / "default" / artifact)
    assert _read(tmp_path / "flag" / artifact) != default


def test_config_integral_float_modes_become_ints(tmp_path):
    modes = AnalysisConfig(modes=(16.0, 8)).modes
    assert modes == (16, 8) and all(type(n) is int for n in modes)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": "counterexample", "modes": [8.0, 16, 32]}),
                    encoding="utf-8")
    assert main(["lyapunov-eval", "--config", str(path)]) == 0


def test_config_replace_is_checked():
    config = AnalysisConfig(model="counterexample")
    with pytest.raises(ConfigError, match="seed"):
        dataclasses.replace(config, seed=-1)


def test_cli_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["analyze", "--config", str(bad)]) == 2
    missing = main(["analyze"])  # neither model nor system
    assert missing == 2


def test_cli_delta_override(tmp_path):
    # Valid override sits inside the spectral gap and lands in trends.csv.
    code = main([
        "analyze", "--model", "heat-neumann", "--modes", SMALL,
        "--delta-override", "1.0", "--out", str(tmp_path),
    ])
    assert code == 0
    text = _read(tmp_path / "trends.csv").decode()
    assert "decay_prefactor" in text
    assert "decay rate 1" in text
    # An override outside the gap is a config error.
    assert main([
        "analyze", "--model", "heat-neumann", "--modes", SMALL,
        "--delta-override", "5.0",
    ]) == 2


def test_delta_override_at_the_gap_is_a_config_error(capsys):
    # heat-neumann's gap is (pi/2)^2; the decay bound is unbounded there.
    code = main([
        "analyze", "--model", "heat-neumann", "--modes", "16,64",
        "--delta-override", repr((math.pi / 2.0) ** 2),
    ])
    assert code == 2
    assert "strictly inside" in capsys.readouterr().err


def test_analyze_defective_dense_system(tmp_path):
    # A Jordan block: the r = 1/4 decay bound needs a fractional power that
    # the eigendecomposition cannot give.
    config = tmp_path / "jordan.json"
    config.write_text(json.dumps({
        "system": {"type": "matrix", "a": [[-1.0, 10.0], [0.0, -1.0]], "b": [[1.0], [1.0]]},
        "modes": [2], "sample_count": 8,
    }), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["analyze", "--config", str(config), "--out", str(out)]) in (0, 3)
    assert "decay_prefactor,0.25" in _read(out / "trends.csv").decode()


def test_seed_change_keeps_selftest_pattern():
    from lyapcert.selftest import run_selftest

    lines_a, lines_b = [], []
    assert run_selftest(seed=0, emit=lines_a.append)
    assert run_selftest(seed=321, emit=lines_b.append)
    pattern_a = [line.split(":")[0] for line in lines_a]
    pattern_b = [line.split(":")[0] for line in lines_b]
    assert pattern_a == pattern_b


def test_cli_admissibility_scan(tmp_path, capsys):
    code = main([
        "admissibility-scan", "--model", "counterexample", "--modes", "64,128,256",
        "--out", str(tmp_path),
    ])
    assert code == 0
    doc = json.loads(_read(tmp_path / "admissibility.json"))
    assert doc["constant_verdict"] == "bounded"
    assert doc["scans"]["0.5"]["verdict"] == "diverging"
    out = capsys.readouterr().out
    assert "gamma=0.5: diverging" in out


@pytest.mark.parametrize("q", [2, "inf"])
def test_scan_prints_q_alike_from_config_and_flag(tmp_path, capsys, q):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": "heat-neumann", "modes": [8, 16, 32], "q": q}),
                    encoding="utf-8")
    assert main(["admissibility-scan", "--config", str(path)]) == 0
    from_config = capsys.readouterr().out
    assert main([
        "admissibility-scan", "--model", "heat-neumann", "--modes", "8,16,32", "--q", str(q),
    ]) == 0
    assert capsys.readouterr().out == from_config


def test_analyze_builds_trend_only_rows_only_when_writing(tmp_path, monkeypatch):
    import lyapcert.analysis as analysis

    config = AnalysisConfig(model="heat-neumann", modes=(8, 16, 32), sample_count=16)
    written, _ = run_analyze(dataclasses.replace(config, out_dir=str(tmp_path)))

    def refuse(*args, **kwargs):
        raise AssertionError("rows that only trends.csv reads were built without --out")

    monkeypatch.setattr(analysis, "decay_bound_estimate", refuse)
    monkeypatch.setattr(analysis, "build_w_q", refuse)
    report, artifacts = run_analyze(config)
    assert artifacts == {}
    assert report == written


def test_dense_analyze_bytes_do_not_depend_on_a_warm_step_memo(tmp_path, monkeypatch):
    # The same system instance analyzed twice: the second run reads every
    # fit, falsifier and trajectory propagator from the first run's memo.
    import lyapcert.analysis as analysis

    rng = np.random.default_rng(11)
    raw = rng.normal(size=(6, 6)) / np.sqrt(6)
    a = raw - (np.linalg.eigvals(raw).real.max() + 0.5) * np.eye(6)
    doc = {"type": "matrix", "a": a.tolist(), "b": rng.normal(size=6).tolist()}
    config = AnalysisConfig(system=doc, modes=(6,), sample_count=8, seed=3)
    run_analyze(dataclasses.replace(config, out_dir=str(tmp_path / "cold")))
    family = analysis._family(config)
    monkeypatch.setattr(analysis, "_family", lambda config: family)
    for run in ("first", "warm"):
        run_analyze(dataclasses.replace(config, out_dir=str(tmp_path / run)))
    assert family[1][0]._propagators
    for name in ("report.json", "trends.csv", "trajectories.csv"):
        cold = (tmp_path / "cold" / name).read_bytes()
        assert (tmp_path / "first" / name).read_bytes() == cold
        assert (tmp_path / "warm" / name).read_bytes() == cold


def test_cli_admissibility_scan_runs_only_its_stages(tmp_path, monkeypatch):
    import lyapcert.analysis as analysis

    def refuse(*args, **kwargs):
        raise AssertionError("admissibility-scan must not fit dissipation certificates")

    monkeypatch.setattr(analysis, "fit_dissipation", refuse)
    code = main([
        "admissibility-scan", "--model", "counterexample", "--modes", "64,128,256",
        "--out", str(tmp_path),
    ])
    assert code == 0
    doc = json.loads(_read(tmp_path / "admissibility.json"))
    assert doc["constant_verdict"] == "bounded"
    # The config checks of the full analysis still apply.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"delta_override": 100}), encoding="utf-8")
    code = main([
        "admissibility-scan", "--model", "heat-neumann", "--modes", SMALL,
        "--config", str(path),
    ])
    assert code == 2


def test_cli_lyapunov_eval(tmp_path):
    code = main([
        "lyapunov-eval", "--model", "heat-neumann", "--modes", "8", "--out", str(tmp_path),
    ])
    assert code == 0
    doc = json.loads(_read(tmp_path / "forms.json"))
    forms = doc["forms"]
    assert forms["v_half"]["weights"] == [0.5] * 8
    assert forms["v_half"]["kind"] == "diagonal"
    assert all("provenance" in f for f in forms.values())
    assert forms["w_plain"]["a1"] < forms["w_plain"]["a2"]


def test_dense_lyapunov_eval_writes_the_half_norm_as_weights(tmp_path):
    argv = ["lyapunov-eval", "--config", _dense8_config(tmp_path), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    forms = json.loads(_read(tmp_path / "out" / "forms.json"))["forms"]
    assert forms["half_norm"] == {"kind": "diagonal", "weights": [0.5] * 8,
                                  "provenance": "half squared norm", "a1": 0.5, "a2": 0.5}
    assert forms["w_plain"]["provenance"].endswith(" (Lyapunov solve)")


def test_cli_simulate(tmp_path):
    out = tmp_path / "sim"
    code = main([
        "simulate", "--model", "heat-neumann", "--modes", "16", "--seed", "7",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(_read(out / "gainfit.json"))
    assert doc["certified"] is True
    header = _read(out / "trajectory_00.csv").decode().splitlines()[0]
    assert header.startswith("t,mode_1,") and header.endswith(",u")
    # Deterministic under the same seed.
    out2 = tmp_path / "sim2"
    main(["simulate", "--model", "heat-neumann", "--modes", "16", "--seed", "7",
          "--out", str(out2)])
    assert _read(out / "gainfit.json") == _read(out2 / "gainfit.json")
    assert _read(out / "trajectory_03.csv") == _read(out2 / "trajectory_03.csv")


def test_cli_simulate_prints_plain_floats(capsys):
    # The envelope's rate is the default decay rate, half the spectral gap.
    assert main(["simulate", "--model", "heat-neumann", "--modes", "16"]) == 0
    out = capsys.readouterr().out
    assert f"rate {heat_system('neumann', 16).spectral_gap / 2.0!r}," in out
    assert "np.float64" not in out


@pytest.mark.parametrize("delta", ["100", "0", "-1", "2.4674011002723395"])
def test_cli_simulate_refuses_a_delta_outside_the_gap(delta, capsys):
    args = ["simulate", "--model", "heat-neumann", "--modes", "16", "--delta-override", delta]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("config error: delta must lie strictly inside")


def test_cli_simulate_reads_the_delta_override(capsys):
    assert main(["simulate", "--model", "heat-neumann", "--modes", "16",
                 "--delta-override", "1.0"]) == 0
    assert "overshoot 1.0, rate 1.0, gain 0.65382" in capsys.readouterr().out


def test_simulate_gain_covers_the_top_gramian_input(tmp_path):
    # u(s) = b^T T(T - s) v for the top eigenvector v of W_T maximizes
    # ||x(T)|| / ||u||_{L2(0,T)} at sqrt(lambda_max(W_T)) <= K2(inf); 2,000
    # holds at the cell midpoints come within 2e-5 of it.
    sys, horizon = heat_system("neumann", 16), 2.0
    lam, b = sys.eigenvalues, sys.input_coeffs
    total = lam[:, None] + lam[None, :]
    top = np.linalg.eigh(np.outer(b, b) * -np.expm1(-total * horizon) / total)[1][:, -1]
    starts = np.linspace(0.0, horizon, 2001)[:-1]
    values = np.exp(-np.outer(horizon - (starts + horizon / 4000.0), lam)) @ (b * top)
    u = InputSignal(starts, values)
    reached = simulate_mild(sys, np.zeros(16), u, [0.0, horizon]).states[-1]
    ratio = np.linalg.norm(reached) / math.sqrt(u.energy([horizon])[0])
    assert ratio >= 0.6538
    out = tmp_path / "sim"
    assert main(["simulate", "--model", "heat-neumann", "--modes", "16", "--seed", "7",
                 "--out", str(out)]) == 0
    assert ratio <= json.loads(_read(out / "gainfit.json"))["envelope"]["gain"]


def test_simulate_dense_envelope_is_the_exact_constants():
    from lyapcert.systems import decay_bound_estimate
    from test_realizations import _dense_request

    config = AnalysisConfig(**_dense_request(seed=7, n=64))
    doc, _ = run_simulate(config)
    sys = _family(config)[1][-1]
    decay = decay_bound_estimate(sys, [0.0])[0]
    assert doc["envelope"] == {
        "overshoot": decay.prefactor,
        "rate": decay.rate,
        "gain": sys.l2_input_constants([math.inf])[0],
    }
    assert doc["certified"] is True


def test_cli_simulate_exits_4_on_a_falsified_envelope(tmp_path, monkeypatch, capsys):
    # Doubling every state doubles each zero-state response, which then
    # leaves the gain term behind; gainfit.json is written all the same.
    import lyapcert.analysis as analysis

    ensemble = analysis.gain_ensemble

    def doubled(sys, seed):
        return [dataclasses.replace(tr, states=2.0 * tr.states) for tr in ensemble(sys, seed)]

    monkeypatch.setattr(analysis, "gain_ensemble", doubled)
    out = tmp_path / "sim"
    code = main(["simulate", "--model", "heat-neumann", "--modes", "16", "--out", str(out)])
    assert code == 4
    assert capsys.readouterr().err.startswith("invariant violation: an ensemble node exceeds")
    doc = json.loads(_read(out / "gainfit.json"))
    assert doc["certified"] is False
    assert doc["max_violation"] > 0.5
    assert "not_iss" not in doc


def test_cli_selftest_fault_injection(capsys):
    code = main(["selftest", "--fault", "self-adjoint-identity"])
    captured = capsys.readouterr().out
    assert code == 4
    assert "FAIL  self-adjoint-identity" in captured
    passes = [line for line in captured.splitlines() if line.startswith("PASS")]
    assert len(passes) >= 20


def test_cli_selftest_negative_seed_is_a_config_error(capsys):
    assert main(["selftest", "--seed", "-1"]) == 2
    assert "config error:" in capsys.readouterr().err


def test_cli_selftest_fault_needs_a_corruption():
    # semigroup-law implements no corruption, so naming it is a usage error.
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--fault", "semigroup-law"])
    assert exc.value.code == 2
    with pytest.raises(ValueError):
        run_selftest(fault="semigroup-law", emit=lambda line: None)


@pytest.mark.parametrize("target", FAULT_TARGETS)
def test_cli_selftest_every_fault_target_trips(target, capsys):
    code = main(["selftest", "--fault", target])
    lines = capsys.readouterr().out.splitlines()
    assert code == 4
    assert any(line.startswith(f"FAIL  {target}:") for line in lines)


_ZERO_A3_SELFTEST = """
import dataclasses
import lyapcert.selftest as selftest

fit = selftest.fit_dissipation
selftest.fit_dissipation = lambda *a, **k: dataclasses.replace(fit(*a, **k), a3=0.0)
selftest._CHECKS = [c for c in selftest._CHECKS if c[0] == "homogeneous-value-decay"]
print(selftest.run_selftest())
"""


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_homogeneous_decay_check_fails_on_a_zero_a3(flags):
    # The a3 condition is part of the check's verdict, so ``python -O``
    # cannot strip it, and the failure line names it.
    import os
    import subprocess
    import sys

    import lyapcert

    src = os.path.dirname(os.path.dirname(os.path.abspath(lyapcert.__file__)))
    proc = subprocess.run([sys.executable, *flags, "-c", _ZERO_A3_SELFTEST],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line, verdict = proc.stdout.splitlines()
    assert line.startswith("FAIL  homogeneous-value-decay: a3 0;")
    assert verdict == "False"


def _nan_states(sys, t, x):
    return np.full(np.shape(x), np.nan)


def _nan_form(sys, *_):
    return SimpleNamespace(weights=np.full(sys.dimension, np.nan), value=lambda x: np.nan)


@pytest.mark.parametrize("check, owner, name, fake", [
    pytest.param("semigroup-law", selftest, "semigroup_apply",
                 lambda sys, t, x: (_nan_states if isinstance(sys, SpectralSystem)
                                    else semigroup_apply)(sys, t, x), id="semigroup-law"),
    pytest.param("fractional-power-commutation", selftest, "semigroup_apply", _nan_states,
                 id="fractional-power-commutation"),
    pytest.param("exponential-stability-bound", selftest, "semigroup_apply", _nan_states,
                 id="exponential-stability-bound"),
    pytest.param("extrapolation-gamma-zero", selftest, "extrapolation_norm",
                 lambda *_: np.nan, id="extrapolation-gamma-zero"),
    pytest.param("self-adjoint-identity", selftest, "build_v_half", _nan_form,
                 id="self-adjoint-identity"),
    pytest.param("inverse-generator-identity", selftest, "build_w_q", _nan_form,
                 id="inverse-generator-identity"),
    pytest.param("quadrature-consistency", selftest, "build_w_q", _nan_form,
                 id="quadrature-consistency"),
    pytest.param("form-homogeneity", selftest, "build_w_q", _nan_form, id="form-homogeneity"),
    pytest.param("diagonal-simulation-exactness", selftest, "simulate_mild",
                 lambda sys, x0, u, grid: SimpleNamespace(
                     states=np.full((len(grid), sys.dimension), np.nan)),
                 id="diagonal-simulation-exactness"),
    pytest.param("dini-analytic-consistency", selftest, "dini_derivative",
                 lambda *_: DiniEstimate(np.nan, 1.0), id="dini-nan-value"),
    pytest.param("dini-analytic-consistency", selftest, "dini_derivative",
                 lambda *_: DiniEstimate(0.0, np.inf), id="dini-infinite-bar"),
    pytest.param("log-norm-semigroup-step", MatrixSystem, "power_semigroup_norms",
                 lambda sys, powers, t: [np.nan] * len(powers), id="log-norm-semigroup-step"),
    pytest.param("w0-exact-certificate", selftest, "exact_certificate",
                 lambda form, sys: SimpleNamespace(a3max=np.nan, a3=0.5, a4=np.nan),
                 id="w0-exact-certificate"),
])
def test_a_defect_that_is_not_finite_fails_its_check(monkeypatch, check, owner, name, fake):
    # A running ``max(worst, d)`` kept ``worst`` when d was NaN, so each of
    # these checks passed on a NaN defect; an infinite Dini bar cannot see
    # any defect, so it never holds.
    monkeypatch.setattr(owner, name, fake)
    ok, detail = dict(selftest._CHECKS)[check](np.random.default_rng(0))
    assert not ok, detail


def test_simulate_run(tmp_path):
    config = AnalysisConfig(model="counterexample", modes=(8,), seed=1, out_dir=str(tmp_path))
    doc, artifacts = run_simulate(config)
    assert doc["certified"] is True
    assert len([k for k in artifacts if k.startswith("trajectory")]) == 6


@pytest.mark.parametrize("model, q, bridge", [
    pytest.param("counterexample", "inf",
                 "membership at exponent 0.75 implies admissibility for every "
                 "input-integrability exponent above 4 (bridge 2/(1+2p) with p = 1/2 - 0.75)",
                 id="counterexample-qinf"),
    pytest.param("heat-neumann", 1,
                 "weakened-class membership observed from exponent 0.375 on; the sufficient "
                 "bridge needs an exponent strictly below 1 - 1/q = 0", id="heat-neumann-q1"),
    pytest.param("counterexample", 2,
                 "weakened-class membership observed from exponent 0.75 on; the sufficient "
                 "bridge needs an exponent strictly below one half", id="counterexample-q2"),
])
def test_exponent_bridge_names_the_threshold_of_the_requested_q(model, q, bridge):
    config = AnalysisConfig(model=model, modes=(16, 64, 256), q=q)
    _, _, slots, _, _ = admissibility_stages(config)
    assert slots["gamma_scans"]["exponent_bridge"] == bridge


@pytest.mark.parametrize("model, q, findings", [
    ("heat-dirichlet", 2, ["input-map constants diverge across truncations"]),
    ("heat-dirichlet", math.inf, ["input-map constants diverge across truncations"]),
    ("heat-neumann", 1, ["q=1 input-map constants diverge across truncations"]),
    ("heat-neumann", 2, []),
])
def test_admissibility_stages_return_the_not_iss_findings(model, q, findings):
    config = AnalysisConfig(model=model, modes=(16, 64, 256), q=q)
    assert admissibility_stages(config)[4] == findings


def test_scan_keeps_l2_verdicts_at_q_two_and_adds_the_requested_q(tmp_path, capsys):
    # heat-dirichlet is not L2-ISS, but its q = inf constants are bounded;
    # the first is a finding whatever --q asks for.
    argv = ["admissibility-scan", "--model", "heat-dirichlet", "--modes", "16,64,256"]
    assert main(argv + ["--q", "inf", "--out", str(tmp_path)]) == 3
    doc = json.loads(_read(tmp_path / "admissibility.json"))
    assert (doc["q"], doc["constant_verdict"], doc["l2_iss"]["value"]) == ("inf", "diverging", "not-ISS")
    q_slot = doc["q_admissibility"]
    assert (q_slot["q"], q_slot["value"], q_slot["lq_iss"]["value"]) == ("inf", "bounded", "ISS")
    assert capsys.readouterr().out.endswith(
        "  q=2.0: diverging\n  verdict: not-ISS\n  q=inf: bounded\n  verdict at q=inf: ISS\n"
    )
    assert main(argv + ["--out", str(tmp_path)]) == 3
    doc = json.loads(_read(tmp_path / "admissibility.json"))
    assert doc["q"] == "2" and "q_admissibility" not in doc
