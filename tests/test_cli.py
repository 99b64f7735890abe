"""End-to-end checks of the command-line interface via subprocess."""

import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from conftest import cli_env, rel_dev
from gradqfi import (
    FisherReport, NoiseModel, PhysParams, ValidationError, apply_channel, make_chain,
    make_named_state, measurement, qfi_dfs_subspace, qfi_general,
)
from gradqfi import cli
from gradqfi.cli import _COMMANDS, _FLAGS, RunConfig, build_parser, emit_csv, main


def run_cli(*args, cwd=None):
    cmd = [sys.executable, "-m", "gradqfi", *map(str, args)]
    return subprocess.run(
        cmd, capture_output=True, text=True, encoding="utf-8", cwd=cwd,
        env=cli_env(),
    )


def resolved(*argv):
    """In-process argument resolution, as main() does it, without running."""
    args = build_parser().parse_args([str(a) for a in argv])
    return RunConfig(args.command, getattr(args, "target", None), args)


def test_a_failed_readout_self_check_exits_1(monkeypatch, capsys):
    real = measurement._walsh_hadamard
    monkeypatch.setattr(measurement, "_walsh_hadamard", lambda vec: 1.01 * real(vec))
    assert main(["cfi", "--observable", "jx", "--state", "ghz", "--n", "3", "--grad", "0.4"]) == 1
    assert "probabilities sum to" in capsys.readouterr().err


def test_csv_cells_keep_their_spelling_for_every_value_type():
    row = (0.1, -0.0, math.inf, np.float64(0.1), np.float32(0.5), 3, np.int64(-2), True,
           np.bool_(False), "odf")
    assert emit_csv([f"c{i}" for i in range(len(row))], [row]).splitlines()[2] == (
        "0.1,-0.0,inf,0.1,0.5,3,-2,true,false,odf"
    )


def test_qfi_ghz_reference_value():
    cp = run_cli(
        "qfi", "--state", "ghz", "--n", "4", "--placement", "equidistant",
        "--length", "3", "--gamma-t", "1",
    )
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout)
    assert payload["value"] == pytest.approx(36.0, rel=1e-12)
    assert payload["crb_variance"] == pytest.approx(1.0 / 36.0, rel=1e-12)
    assert isinstance(payload["path"], str) and payload["path"]
    echo = payload["params_echo"]
    assert echo["n"] == 4
    assert echo["gamma"] == 1.0 and echo["t"] == 1.0


def test_qfi_odf_reference_value():
    cp = run_cli(
        "qfi", "--state", "odf", "--k", "2", "--n", "4",
        "--placement", "equidistant", "--length", "3", "--gamma-t", "1",
    )
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["value"] == pytest.approx(16.0, rel=1e-12)


def test_qfi_csv_format():
    cp = run_cli(
        "qfi", "--state", "ghz", "--n", "4", "--length", "3",
        "--gamma-t", "1", "--format", "csv",
    )
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.splitlines()
    assert lines[0] == "# gradqfi v1"
    assert lines[1] == "value,path,crb_variance"
    assert len(lines) == 3
    assert float(lines[2].split(",")[0]) == pytest.approx(36.0, rel=1e-12)


def test_qfi_rejects_nonpositive_n():
    cp = run_cli("qfi", "--n", "0")
    assert cp.returncode == 2
    assert "n must be ≥ 1" in cp.stderr


def test_gamma_t_conflicts_with_gamma_and_t():
    for extra in (("--gamma", "2"), ("--t", "0.5")):
        cp = run_cli("qfi", "--gamma-t", "1", *extra)
        assert cp.returncode == 2
        assert "--gamma-t" in cp.stderr


def test_dimensionless_conflicts_with_explicit_time():
    cp = run_cli("qfi", "--dimensionless", "--t", "2")
    assert cp.returncode == 2
    assert "--dimensionless" in cp.stderr
    cp = run_cli("qfi", "--dimensionless", "--gamma-t", "1")
    assert cp.returncode == 2


def test_config_file_values_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# chain setup\n"
        "n = 6\n"
        "length = 2.0\n"
        "state = product\n"
        "gamma-t = 1\n",
        encoding="utf-8",
    )
    cp = run_cli("qfi", "--config", cfg)
    assert cp.returncode == 0, cp.stderr
    # equidistant f_i = 2i/5: sum of squares = (4/25) * 55
    assert json.loads(cp.stdout)["value"] == pytest.approx(8.8, rel=1e-12)

    cp = run_cli("qfi", "--config", cfg, "--n", "4")
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["value"] == pytest.approx(56.0 / 9.0, rel=1e-12)


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_qubits = 4\n", encoding="utf-8")
    cp = run_cli("qfi", "--config", cfg)
    assert cp.returncode == 2
    assert "unknown key" in cp.stderr


def test_positions_imply_explicit_placement():
    cp = run_cli("qfi", "--positions", "0,0.5,1", "--state", "ghz", "--gamma-t", "1")
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout)
    assert payload["value"] == pytest.approx(2.25, rel=1e-12)
    assert payload["params_echo"]["n"] == 3
    assert payload["params_echo"]["positions"] == [0.0, 0.5, 1.0]


def test_negative_float_with_exponent_is_a_flag_value():
    for flag, spec in _FLAGS.items():
        if spec.kind is float:
            args = build_parser().parse_args(["qfi", f"--{flag}", "-2.5e-3"])
            assert getattr(args, flag.replace("-", "_")) == -2.5e-3, flag
    spaced = run_cli("qfi", "--x0", "-1e2")
    assert spaced.returncode == 0, spaced.stderr
    assert spaced.stdout == run_cli("qfi", "--x0=-1e2").stdout
    assert json.loads(spaced.stdout)["params_echo"]["x0"] == -100.0


def test_negative_positions_are_a_flag_value():
    cp = run_cli("qfi", "--positions", "-1,-5e-1,0", "--state", "ghz", "--gamma-t", "1")
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout)
    assert payload["params_echo"]["positions"] == [-1.0, -0.5, 0.0]
    assert payload["value"] == pytest.approx(2.25, rel=1e-12)


def test_positions_with_mismatched_n():
    cp = run_cli("qfi", "--positions", "0,0.5,1", "--n", "2")
    assert cp.returncode == 2
    assert "--n 2" in cp.stderr and "--positions" in cp.stderr


def test_psi_m_requires_m():
    cp = run_cli("qfi", "--state", "psi-m", "--n", "4")
    assert cp.returncode == 2
    assert "--m" in cp.stderr


def test_unknown_b0_scenario_rejects_offset_sensitive_states():
    cp = run_cli("qfi", "--scenario", "unknown-b0", "--state", "ghz", "--n", "4")
    assert cp.returncode == 2
    assert "unknown-b0" in cp.stderr

    cp = run_cli(
        "qfi", "--scenario", "unknown-b0", "--state", "odf", "--k", "2",
        "--n", "4", "--length", "3", "--gamma-t", "1",
    )
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["value"] == pytest.approx(16.0, rel=1e-12)


@pytest.mark.parametrize(
    "probe,accepted",
    [
        (("odf", "--k", "1"), True),
        (("psi-m", "--m", "2"), True),
        (("ghz",), False),
        (("product",), False),
        (("psi-m", "--m", "1"), False),
        (("psi-m", "--m", "3"), False),
    ],
    ids=["odf-k1", "psi-m2", "ghz", "product", "psi-m1", "psi-m3"],
)
def test_unknown_b0_takes_the_sectors_from_the_state(probe, accepted, capsys):
    code = main(["qfi", "--scenario", "unknown-b0", "--state", *probe, "--n", "4"])
    captured = capsys.readouterr()
    if accepted:
        assert code == 0, captured.err
    else:
        assert code == 2
        assert "--scenario unknown-b0 needs an offset-insensitive probe" in captured.err


def test_noisy_scenario_limits_and_quiet_reduction():
    # both odf branches hold k excitations, so every odf probe is decoherence-free
    cp = run_cli("qfi", "--scenario", "noisy", "--state", "odf", "--k", "1", "--n", "4")
    assert cp.returncode == 0, cp.stderr
    want = qfi_dfs_subspace(make_chain([0.0, 1 / 3, 2 / 3, 1.0]), PhysParams(), 1)[0].value
    assert json.loads(cp.stdout)["value"] == pytest.approx(want, rel=1e-12)
    # default delta-e is 0: the channel is the identity and the GHZ value
    # matches the noiseless closed form
    cp = run_cli(
        "qfi", "--scenario", "noisy", "--state", "ghz", "--n", "4",
        "--length", "3", "--gamma-t", "1",
    )
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["value"] == pytest.approx(36.0, rel=1e-12)


def test_tcrit_reference_values():
    rate = 2.0 * math.pi * 50.0
    cp = run_cli(
        "tcrit", "--n", "8", "--placement", "equidistant", "--length", "1",
        "--gamma-prime", repr(rate), "--delta-e", "1",
    )
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout)
    assert payload["t_crit"] == pytest.approx(595.2989e-6, abs=1e-9)
    assert payload["t_opt"] == pytest.approx(math.sqrt(2.0) / (8 * rate), rel=1e-12)
    assert payload["qfi_opt"] > 0.0


@pytest.mark.parametrize("argv, message", [
    (("reproduce", "fig5a", "--n-max", "20"), "error: the ghz value overflows float64 at n = 2"),
    (("reproduce", "fig5b", "--n-max", "20"),
     "error: the odf-half value overflows float64 at n = 2"),
    (("qfi", "--state", "dicke", "--k", "3", "--n", "20"),
     "error: profile spread overflows float64 at n = 20"),
])
def test_an_overflowing_length_is_a_named_computation_error(argv, message, tmp_path):
    cp = run_cli(*argv, "--length", "1e155", cwd=tmp_path)
    assert cp.returncode == 1
    assert "Traceback" not in cp.stderr and cp.stderr.splitlines()[-1] == message
    if argv[0] == "reproduce":  # the sweep runs under one errstate: no numpy warning
        assert cp.stderr == message + "\n"
    assert not list(tmp_path.iterdir())


_QFI_AT_N20 = ("qfi", "--n", "20", "--length")


def _overflow(value, n):
    return f"error: the {value} value overflows float64 at n = {n}\n"


@pytest.mark.parametrize("argv, message", [
    (_QFI_AT_N20 + ("1e155", "--state", "product"), _overflow("closed-form:max-separable", 20)),
    (_QFI_AT_N20 + ("1e200", "--state", "product"), _overflow("closed-form:max-separable", 20)),
    (_QFI_AT_N20 + ("1e155", "--state", "odf", "--k", "3"),
     _overflow("closed-form:dfs-subspace", 20)),
    (_QFI_AT_N20 + ("1e200", "--state", "odf", "--k", "3"),
     _overflow("closed-form:dfs-subspace", 20)),
    (_QFI_AT_N20 + ("1e155", "--state", "dicke", "--k", "3"),
     "error: profile spread overflows float64 at n = 20\n"),
    (_QFI_AT_N20 + ("1e200", "--state", "dicke", "--k", "3"), _overflow("closed-form:dicke", 20)),
    (_QFI_AT_N20 + ("1e155", "--state", "ghz"), _overflow("pure-variance", 20)),
    (_QFI_AT_N20 + ("1e200", "--state", "ghz"), _overflow("pure-variance", 20)),
    (_QFI_AT_N20 + ("1e155", "--state", "psi-m", "--m", "3"), _overflow("pure-variance", 20)),
    (_QFI_AT_N20 + ("1e200", "--state", "psi-m", "--m", "3"), _overflow("pure-variance", 20)),
    (_QFI_AT_N20 + ("1e200", "--scenario", "noisy"), _overflow("closed-form:noisy-ghz", 20)),
    (("reproduce", "table1", "--length", "1e200"), _overflow("table1", 4)),
    (("reproduce", "table1", "--gamma-t", "1e200"), _overflow("general", 4)),
    (("reproduce", "fig3", "--length", "1e200"), _overflow("qfi", 50)),
    (("reproduce", "fig4", "--length", "1e200"), _overflow("half-half", 100)),
    (("tcrit", "--n", "20", "--delta-e", "1", "--length", "1e200"), _overflow("t_crit", 20)),
    # N gamma' delta_e > 0 whose square underflows to 0
    (("tcrit", "--n", "3", "--delta-e", "1e-320"), _overflow("t_crit", 3)),
    (("placement-search", "--n", "4", "--length", "1e200"), _overflow("closed-form:dfs-max", 4)),
    (("placement-search", "--n", "4", "--length", "1e200", "--objective", "product-steady"),
     _overflow("placement-search", 4)),
    (("noise-scan", "--n", "20", "--delta-e", "1e200", "--points", "3"),
     _overflow("correlation", 20)),
    # an evolution phase gamma t (B0 + G f_i) that is inf, or inf - inf
    (("parity", "--state", "ghz", "--n", "3", "--gamma", "1e300", "--t", "1e300", "--grad", "1"),
     "error: the evolution phase overflows float64 at n = 3\n"),
    (("cfi", "--observable", "jx", "--state", "product", "--n", "4", "--length", "1e300",
      "--grad", "1e300"), "error: the evolution phase overflows float64 at n = 4\n"),
    (("parity", "--state", "ghz", "--n", "3", "--gamma", "1e10", "--b0", "1e300", "--grad",
      "-1e300", "--x0", "-1"), "error: the evolution phase overflows float64 at n = 3\n"),
    (("cfi", "--state", "ghz", "--n", "3", "--gamma", "1e10", "--b0", "1e300", "--grad",
      "-1e300", "--x0", "-1"), "error: the evolution phase overflows float64 at n = 3\n"),
], ids=lambda value: "_".join(value) if isinstance(value, tuple) else "")
def test_an_overflowing_value_is_one_named_error_line(argv, message, tmp_path, monkeypatch,
                                                     capsys):
    # exit 1 with one stderr line: no traceback, no numpy warning, no stdout, no file
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(list(argv)) == 1
    assert capsys.readouterr() == ("", message)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ("cfi", "--state", "ghz", "--n", "20", "--length", "1e200", "--grad", "0.4"),
    ("cfi", "--scenario", "noisy", "--state", "dicke", "--k", "4", "--n", "8",
     "--length", "1e200", "--grad", "0.4", "--delta-e", "0.7"),
    ("cfi", "--observable", "jx", "--state", "ghz", "--n", "8", "--length", "1e200",
     "--grad", "0.4"),
], ids=lambda argv: "_".join(argv))
def test_an_overflowing_cfi_is_one_named_error_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(list(argv)) == 1
    n = argv[argv.index("--n") + 1]
    assert capsys.readouterr() == ("", _overflow("closed-form:cfi", n))
    assert not list(tmp_path.iterdir())


def test_a_divergent_cfi_still_prints_its_infinite_value(monkeypatch, capsys):
    def divergent(dist):
        return FisherReport(math.inf, "closed-form:cfi", divergent=True)

    monkeypatch.setattr(cli, "classical_fisher", divergent)
    assert main(["cfi", "--state", "ghz", "--n", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == math.inf and payload["crb_variance"] == 0.0


def _printed_value(capsys, *argv):
    assert main([str(a) for a in argv]) == 0
    return json.loads(capsys.readouterr().out)["value"]


@pytest.mark.parametrize("n", range(2, 7))
def test_noisy_psi_m_reports_the_gap_of_the_branches_it_flips(n, capsys):
    # noise-free it is the known-b0 value at every m, not only at the sign split;
    # with noise it is the QFI of the dephased probe
    point = ("--n", n, "--t", "0.8", "--length", "2", "--x0=0.6", "--grad", "0.4")
    for m in range(n + 1):
        probe = ("qfi", "--state", "psi-m", "--m", m, *point)
        clean = _printed_value(capsys, *probe, "--scenario", "noisy", "--delta-e", "0")
        assert rel_dev(clean, _printed_value(capsys, *probe, "--delta-e", "0")) < 1e-12, m
        noisy = (*probe, "--scenario", "noisy", "--delta-e", "0.7")
        cfg = resolved(*noisy)
        params = cfg.params()
        model = NoiseModel.from_params(params)
        state = apply_channel(make_named_state("psi-m", n, m=m), model, params.t)
        want = qfi_general(state, cfg.chain(), params).value
        assert rel_dev(_printed_value(capsys, *noisy), want) < 1e-12, m


def test_the_jx_cap_is_checked_before_any_state_is_built(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("a state was built")

    monkeypatch.setattr(cli, "apply_channel", fail)
    monkeypatch.setattr(cli, "make_named_state", fail)
    argv = ["cfi", "--observable", "jx", "--scenario", "noisy", "--state", "product",
            "--n", "18", "--delta-e", "0.7", "--t", "0.8"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: J_x distribution needs n <= 12, got 18\n"


def test_tcrit_without_noise_is_a_computation_error():
    cp = run_cli("tcrit", "--n", "8")
    assert cp.returncode == 1
    assert "error:" in cp.stderr


def test_reproduce_fig4_csv_structure(tmp_path):
    out = tmp_path / "fig4.csv"
    cp = run_cli("reproduce", "fig4", "--n", "12", "--out", out)
    assert cp.returncode == 0, cp.stderr
    assert f"wrote {out}" in cp.stdout
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# gradqfi v1"
    assert lines[1] == "k,half-half,tanh,equidistant,tan"
    data = [line.split(",") for line in lines[2:]]
    assert len(data) == 13
    # every float cell uses the shortest round-trip form
    for row in data:
        for cell in row:
            assert repr(float(cell)) == cell
    halfhalf = [float(row[1]) for row in data]
    assert halfhalf == halfhalf[::-1]
    assert max(halfhalf) == halfhalf[6] == pytest.approx(36.0, rel=1e-12)


def test_reproduce_rejects_json_format():
    cp = run_cli("reproduce", "fig4", "--format", "json")
    assert cp.returncode == 2
    assert "CSV only" in cp.stderr


@pytest.mark.parametrize("argv, message", [
    (("reproduce", "fig3", "--t-max", "-1"), "t_max must be finite and > 0, got -1.0"),
    (("reproduce", "fig3", "--t-max", "inf"), "t_max must be finite and > 0, got inf"),
    (("noise-scan", "--t-max", "inf"), "--t-max must be finite and > 0, got inf"),
    # the default 3 tau_c overflows: the flag the user gave is named
    (("noise-scan", "--tau-c", "1e308"),
     "the default --t-max, 3 × --tau-c, must be finite and > 0, got inf"),
    (("qfi", "--gamma-prime", "-1"), "gamma_prime must be >= 0, got -1.0"),
    (("qfi", "--state", "ghz-theta", "--theta", "inf"), "theta must be finite, got inf"),
    (("parity", "--state", "ghz-theta", "--theta", "nan", "--n", "3"),
     "theta must be finite, got nan"),
])
def test_a_bad_value_is_named_as_given(argv, message):
    cp = run_cli(*argv)
    assert cp.returncode == 2
    assert cp.stderr == f"error: {message}\n"


def test_reproduce_fig5_rejects_tiny_n_max():
    cp = run_cli("reproduce", "fig5a", "--n-max", "1")
    assert cp.returncode == 2


def test_reproduce_table1_writes_csv_and_text(tmp_path):
    cp = run_cli("reproduce", "table1", cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    assert "wrote table1.csv" in cp.stdout
    assert "wrote table1.txt" in cp.stdout
    lines = (tmp_path / "table1.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# gradqfi v1"
    assert lines[1] == "state,general,optimal,equidistant"
    assert len(lines) == 6
    by_label = {line.split(",")[0]: line.split(",") for line in lines[2:]}
    assert float(by_label["ghz"][3]) == pytest.approx(36.0, rel=1e-12)
    assert float(by_label["product"][3]) == pytest.approx(14.0, rel=1e-12)
    assert float(by_label["odf-half"][3]) == pytest.approx(16.0, rel=1e-12)
    assert float(by_label["steady-product"][3]) == pytest.approx(5.0, rel=1e-12)
    table_text = (tmp_path / "table1.txt").read_text(encoding="utf-8")
    assert table_text.splitlines()[0].split() == list(
        ("state", "general", "optimal", "equidistant")
    )
    # the aligned table is also printed to stdout
    assert table_text.splitlines()[0] in cp.stdout


def test_validate_runs_deterministically():
    first = run_cli("validate", "--n-traj", "64", "--seed", "7")
    second = run_cli("validate", "--n-traj", "64", "--seed", "7")
    assert first.returncode in (0, 1)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout
    lines = first.stdout.splitlines()
    assert len(lines) >= 2
    for line in lines[:-1]:
        assert line.startswith(("PASS", "FAIL"))
    assert lines[-1].endswith(("passed", "failed"))


def test_cfi_saturates_qfi_for_ghz():
    flags = (
        "--state", "ghz", "--n", "3", "--grad", "0.7", "--b0", "0.3",
        "--length", "1",
    )
    qfi_value = json.loads(run_cli("qfi", *flags).stdout)["value"]
    cfi = run_cli("cfi", *flags)
    assert cfi.returncode == 0, cfi.stderr
    cfi_value = json.loads(cfi.stdout)["value"]
    assert cfi_value == pytest.approx(qfi_value, rel=1e-9)

    jx = run_cli("cfi", *flags, "--observable", "jx")
    assert jx.returncode == 0, jx.stderr
    assert json.loads(jx.stdout)["value"] == pytest.approx(cfi_value, rel=1e-9)


@pytest.mark.parametrize(
    "state", [("ghz",), ("product",), ("psi-m", "--m", "2")], ids=["ghz", "product", "psi-m"]
)
def test_jx_cfi_far_from_x0_runs(state):
    # derivatives of order gamma t sum f cancel only to their own rounding
    flags = ("--state", *state, "--n", "6", "--grad", "0.4", "--x0=-1e8")
    jx = run_cli("cfi", *flags, "--observable", "jx")
    assert jx.returncode == 0, jx.stderr
    if state == ("ghz",):
        qfi_value = json.loads(run_cli("qfi", *flags).stdout)["value"]
        assert json.loads(jx.stdout)["value"] == qfi_value


def test_parity_json_structure():
    cp = run_cli(
        "parity", "--state", "ghz", "--n", "3", "--grad", "0.4",
        "--b0", "0.2", "--t", "1.1",
    )
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout)
    outcomes = payload["outcomes"]
    assert [o["label"] for o in outcomes] == ["+1", "-1"]
    total = sum(o["probability"] for o in outcomes)
    assert total == pytest.approx(1.0, abs=1e-12)
    assert payload["gradient"] == pytest.approx(2.0 * outcomes[0]["derivative"],
                                                rel=1e-12)
    spread = outcomes[0]["probability"] - outcomes[1]["probability"]
    assert payload["value"] == pytest.approx(spread, abs=1e-12)


@pytest.mark.parametrize("argv", [
    ("qfi", "--scenario", "noisy", "--state", "ghz", "--n", "3", "--tau-c", "1e-320",
     "--delta-e", "1"),
    ("noise-scan", "--n", "2", "--tau-c", "1e-320", "--delta-e", "1", "--t-max", "1",
     "--points", "3"),
], ids=["qfi", "noise-scan"])
def test_a_tiny_correlation_time_runs(argv, capsys):
    # t / tau_c overflows while (delta_e tau_c)^2 underflows: the white-noise limit, no nan
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    if argv[0] == "qfi":
        assert json.loads(out)["value"] == 2.25  # d = 1 to double precision: (sum f)^2
    else:
        assert out.splitlines()[2:] == ["0.0,0.0,1.0", "0.5,1e-320,1.0", "1.0,2e-320,1.0"]


def test_noise_scan_csv():
    cp = run_cli(
        "noise-scan", "--n", "2", "--gamma-prime", "1", "--delta-e", "1",
        "--tau-c", "1", "--points", "5", "--t-max", "2",
    )
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.splitlines()
    assert lines[0] == "# gradqfi v1"
    assert lines[1] == "t,correlation,coherence"
    rows = [tuple(float(c) for c in line.split(",")) for line in lines[2:]]
    assert len(rows) == 5
    assert rows[0] == (0.0, 0.0, 1.0)
    coherence = [row[2] for row in rows]
    assert all(a >= b for a, b in zip(coherence, coherence[1:]))


def test_placement_search_json():
    cp = run_cli("placement-search", "--objective", "dfs-max", "--n", "4")
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout)
    assert payload["kind"] == "half-half"
    assert payload["value"] == pytest.approx(4.0, rel=1e-12)
    assert payload["positions"] == [0.0, 0.0, 1.0, 1.0]

    cp = run_cli("placement-search", "--objective", "entangled-known-b0", "--n", "3")
    assert cp.returncode == 0, cp.stderr
    payload = json.loads(cp.stdout)
    assert payload["kind"] == "all-at-end"
    assert payload["value"] == pytest.approx(9.0, rel=1e-12)


def test_placement_search_size_limit():
    cp = run_cli("placement-search", "--n", "9")
    assert cp.returncode == 2


def test_out_file_matches_stdout(tmp_path):
    flags = ("qfi", "--state", "ghz", "--n", "4", "--length", "3", "--gamma-t", "1")
    inline = run_cli(*flags)
    out = tmp_path / "report.json"
    filed = run_cli(*flags, "--out", out)
    assert filed.returncode == 0, filed.stderr
    assert filed.stdout.strip() == f"wrote {out}"
    assert out.read_text(encoding="utf-8") == inline.stdout


def test_out_into_missing_directory_is_an_output_error(tmp_path):
    cp = run_cli("qfi", "--out", tmp_path / "missing" / "report.json")
    assert cp.returncode == 1
    assert "error: --out" in cp.stderr


def test_resolution_order_flag_file_target_command_table(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 11\nn = 6\n", encoding="utf-8")
    traj = tmp_path / "traj.cfg"
    traj.write_text("n-traj = 500\n", encoding="utf-8")
    # fig3 target default, then config file, then flag
    assert resolved("reproduce", "fig3").points == 20001
    assert resolved("reproduce", "fig3", "--config", cfg).points == 11
    assert resolved("reproduce", "fig3", "--config", cfg, "--points", 7).points == 7
    # a config file beats fig4's target default
    assert resolved("reproduce", "fig4").n == 100
    assert resolved("reproduce", "fig4", "--config", cfg).n == 6
    # validate's command default yields to any explicit value
    assert resolved("validate").n_traj == 20000
    assert resolved("validate", "--n-traj", 64).n_traj == 64
    assert resolved("validate", "--config", traj).n_traj == 500
    assert resolved("qfi").n_traj == 10000
    # command defaults beat the flag table's
    scan = resolved("noise-scan")
    assert (scan.points, scan.format) == (101, "csv")
    assert resolved("qfi").format == "json"


def test_every_command_help_lists_every_flag(capsys):
    for command in _COMMANDS:
        with pytest.raises(SystemExit) as stop:
            build_parser().parse_args([command, "--help"])
        assert stop.value.code == 0
        text = capsys.readouterr().out
        for flag in _FLAGS:
            assert re.search(rf"--{flag}[ \]\n]", text), (command, flag)
        # main puts the flags on the invoked command alone, and prints the same help
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        assert capsys.readouterr().out == text, command


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    ([], 2),
    (["bogus"], 2),
    (["qfi", "--bogus"], 2),
    (["qfi", "--n-tr", "5"], 0),  # an abbreviated flag
    (["-1", "qfi"], 2),
    (["reproduce", "--n-max", "5"], 2),
])
def test_main_reads_argv_as_the_full_parser_does(argv, code, capsys, monkeypatch):
    def outcome():
        try:
            status = main(argv)
        except SystemExit as stop:
            status = stop.code
        out = capsys.readouterr()
        return status, out.out, out.err

    per_command = outcome()
    assert per_command[0] == code
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert outcome() == per_command


@pytest.mark.parametrize("flag, limit", [
    ("n", 10_000),
    ("n-max", 10_000),
    ("points", 1_000_000),
    ("n-traj", 1_000_000),
    ("seed", (1 << 64) - 1),
])
def test_size_caps_reject_one_past_the_max(flag, limit):
    # resolution only: the value is rejected before any work could start
    with pytest.raises(ValidationError, match=f"--{flag} must be ≤ {limit}, got {limit + 1}"):
        resolved("noise-scan", f"--{flag}", limit + 1)
