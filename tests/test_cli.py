import json
import math

import pytest

from permfield import ratefn
from permfield.cli import run
from permfield.cycles import CycleCounts, read_cycles_csv, write_cycles_csv
from permfield.errors import AccuracyError, InvalidArgumentError
from permfield.reports import ExperimentReport
from permfield.svgplot import emit_plot


def test_constants_output(capsys):
    assert run(["constants"]) == 0
    out = capsys.readouterr().out
    lines = dict(ln.split(" = ") for ln in out.strip().splitlines())
    assert abs(float(lines["x_crit"]) - 0.6524) <= 5e-4
    assert abs(float(lines["beta_crit"]) - 11.746) <= 5e-3


def test_scan_rejects_zero_n(capsys):
    assert run(["scan", "--n", "0", "--seed", "1"]) == 2
    assert "error" in capsys.readouterr().err


def test_n_in_scientific_notation(tmp_path, capsys):
    # --n is an exact integer, in scientific notation too
    assert run(["scan", "--n", "1e3", "--seed", "1"]) == 0
    short = capsys.readouterr().out
    assert run(["scan", "--n", "1000", "--seed", "1"]) == 0
    assert short == capsys.readouterr().out
    assert "argmax_j" in short
    for text in ("2.5E3", "2500"):
        assert run(["sample", "--n", text, "--seed", "9", "--out",
                    str(tmp_path / f"{text}.csv")]) == 0
    assert (tmp_path / "2.5E3.csv").read_bytes() == (tmp_path / "2500.csv").read_bytes()


@pytest.mark.parametrize("text", ["1.5", "1e-3", "0", "-4", "0e5", "nan", "inf", "1e", "ten"])
@pytest.mark.parametrize("command", ["scan", "sample"])
def test_n_not_a_count_exits_2(command, text, capsys):
    assert run([command, "--n", text]) == 2
    assert f"error: argument --n: need an integer >= 1, got {text!r}" \
        in capsys.readouterr().err


def test_unknown_flag_and_command():
    assert run(["scan", "--n", "4", "--bogus", "1"]) == 2
    assert run(["no-such-command"]) == 2


def test_sample_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(["sample", "--n", "1000", "--seed", "9", "--out", str(out1)]) == 0
    assert run(["sample", "--n", "1000", "--seed", "9", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    cs = read_cycles_csv(out1.read_text())
    assert cs.size == 1000


def test_eval_singular_point(tmp_path, capsys):
    cycles = tmp_path / "fig.csv"
    cycles.write_text(write_cycles_csv(CycleCounts.from_dict(100, {56: 1, 22: 1, 9: 2, 4: 1})))
    assert run(["eval", "--cycles", str(cycles), "--t", "1/3"]) == 0
    assert capsys.readouterr().out.strip() == "-inf"
    assert run(["eval", "--cycles", str(cycles), "--t", "1/5"]) == 0
    v = float(capsys.readouterr().out)
    assert math.isfinite(v)
    assert run(["eval", "--cycles", str(cycles), "--t", "1/3", "--imag"]) == 0
    assert math.isfinite(float(capsys.readouterr().out))


def test_scan_outputs_and_trace(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    svg = tmp_path / "trace.svg"
    code = run(["scan", "--n", "2000", "--seed", "3", "--trace", str(trace),
                "--svg", str(svg)])
    assert code == 0
    out = capsys.readouterr().out
    assert "argmax_j" in out and "max = " in out
    lines = trace.read_text().splitlines()
    assert lines[1] == "j,t_float,value"
    assert len(lines) == 2 + 4000
    header = json.loads(lines[0][2:])
    assert header == {"q": 4000, "theta_num": 1, "theta_den": 7}
    assert svg.read_text().startswith("<svg")


def test_ratefn_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    svg = tmp_path / "table.svg"
    assert run(["ratefn-table", "--x-min", "0.1", "--x-max", "0.65",
                "--steps", "20", "--out", str(out), "--svg", str(svg)]) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x,lambda_star,beta_star"
    values = [tuple(map(float, r.split(","))) for r in rows[1:]]
    assert len(values) == 21
    # transform increasing and convex on the tabulated grid
    lam = [v[1] for v in values]
    assert all(b > a for a, b in zip(lam, lam[1:]))
    assert run(["ratefn-table", "--x-min", "0.5", "--x-max", "0.3"]) == 2


def test_arcs_classify(tmp_path, capsys):
    infile = tmp_path / "points.csv"
    infile.write_text("label,t\na,1/3\nb,golden\nc,0.5001\n")
    assert run(["arcs", "classify", "--xi0", "3", "--kappa", "0.01",
                "--in", str(infile)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "label,t,kind,witness"
    assert out[1].endswith("major,3")
    assert out[2].endswith("minor,")
    assert out[3].endswith("major,2")


def test_fourier_dump(capsys):
    assert run(["fourier", "dump", "--beta", "2", "--xi-max", "4"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "xi,re,im,abs"
    table = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
    assert table[0] == pytest.approx(2.0, abs=1e-9)
    assert table[1] == pytest.approx(-1.0, abs=1e-9)
    assert abs(table[3]) < 1e-9


@pytest.mark.parametrize("args", [["--beta", "nan"], ["--beta", "inf"],
                                  ["--beta", "2", "--tau", "nan"]])
def test_fourier_dump_non_finite_exits_2(args, capsys):
    assert run(["fourier", "dump", *args, "--xi-max", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Re z must be >= 0.5 and z finite")


def test_experiment_subcommand(tmp_path, capsys):
    code = run(["experiment", "occupancy", "--seed", "5", "--out-dir",
                str(tmp_path), "--svg", "--config", "-"]) if False else run(
        ["experiment", "occupancy", "--seed", "5", "--out-dir", str(tmp_path),
         "--svg"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert (tmp_path / "occupancy-5.json").exists()
    assert (tmp_path / "occupancy-5.csv").exists()
    assert (tmp_path / "occupancy-5.svg").exists()
    assert run(["experiment", "bogus"]) == 2


def test_experiment_config_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"replicas": 300, "rho": 0.1}))
    code = run(["experiment", "occupancy", "--seed", "6", "--config", str(cfg),
                "--out-dir", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "occupancy-6.json").read_text())
    assert data["config"]["replicas"] == 300
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus_key": 1}))
    assert run(["experiment", "occupancy", "--config", str(bad)]) == 2
    for name, overrides in (("two-point", {"samples": 0}), ("lln", {"n_values": []})):
        bad.write_text(json.dumps(overrides))
        assert run(["experiment", name, "--config", str(bad)]) == 2


@pytest.mark.parametrize("key, value, flag", [
    ("name", "lln", "the NAME argument"), ("seed", 3, "--seed"), ("threads", 1, "--threads"),
])
def test_config_file_may_not_set_a_command_line_key(key, value, flag, tmp_path, capsys):
    # the command line owns these: a file's seed or name made a TypeError
    # traceback, and a file's threads overrode --threads
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"replicas": 300, key: value}))
    out = tmp_path / "out"
    out.mkdir()
    assert run(["experiment", "occupancy", "--config", str(cfg), "--threads", "2",
                "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"key {key!r} is set on the command line; use {flag}" in err
    assert not list(out.iterdir())


@pytest.mark.parametrize("overrides, limit", [
    ({"rho": 0}, "occupancy needs rho > 0"),
    ({"rho": -0.1}, "occupancy needs rho > 0"),
    ({"n_blocks": -5}, "occupancy needs n_blocks >= 1"),
    ({"n_blocks": 0}, "occupancy needs n_blocks >= 1"),
], ids=["rho0", "rho-negative", "blocks-negative", "blocks0"])
def test_occupancy_config_out_of_domain_exits_2(overrides, limit, tmp_path, capsys):
    # refused before any arithmetic: no traceback, no vacuous pass
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(overrides))
    out = tmp_path / "out"
    out.mkdir()
    assert run(["experiment", "occupancy", "--config", str(bad), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and limit in err
    assert not list(out.iterdir())


@pytest.mark.parametrize("config, key", [
    ([], "--config"),
    ({"replicas": "5"}, "'replicas'"),
    ({"n_values": 1000}, "'n_values'"),
    ({"n_values": [1000, 2.5e3]}, "'n_values'"),
    ({"replicas": 2.5}, "'replicas'"),
    ({"samples": True}, "'samples'"),
    ({"rho": "0.1"}, "'rho'"),
    ({"t": 0.5}, "'t'"),
], ids=["list", "str-int", "int-list", "float-in-list", "float-int", "bool-int", "str-float",
        "float-str"])
def test_malformed_config_exits_2(config, key, tmp_path, capsys):
    # a value of the wrong JSON type is refused with its key named, not
    # left to fail (or pass) somewhere inside the run
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    out = tmp_path / "out"
    out.mkdir()
    assert run(["experiment", "occupancy", "--config", str(bad), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not list(out.iterdir())


@pytest.mark.parametrize("name, overrides, limit", [
    ("two-point", {"q": 0, "y": 0.25}, "q = 0: two-point needs q >= 1"),
    ("two-point", {"rho": 0}, "rho = 0: two-point needs rho > 0"),
    ("conditional-tail", {"q": 0}, "q = 0: conditional-tail needs q >= 1"),
    ("conditional-tail", {"rho": 0}, "rho = 0: conditional-tail needs rho > 0"),
    ("conditional-tail", {"m": 0}, "kappa = e^(-rho m/2) = 1.0, derived from rho = 0.05 "
                                   "and m = 0, must lie in (0, 1/2)"),
], ids=["two-point-q0", "two-point-rho0", "conditional-tail-q0", "conditional-tail-rho0",
        "conditional-tail-m0"])
def test_block_config_out_of_domain_exits_2(name, overrides, limit, tmp_path, capsys):
    # refused with the limit named: before, q = 0 failed to unpack an empty
    # zip, and rho = 0 or m = 0 blamed a kappa the config never set
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(overrides))
    out = tmp_path / "out"
    out.mkdir()
    assert run(["experiment", name, "--config", str(bad), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and limit in err
    assert not list(out.iterdir())


@pytest.mark.parametrize("name", ["clt", "lln", "arc-profile"])
def test_n_below_2_exits_2(name, tmp_path, capsys):
    # log N = 0: the CLT scale and every max/log N ratio are undefined
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_values": [1], "kappa": 0.04}))
    assert run(["experiment", name, "--config", str(bad)]) == 2
    assert "error: n = 1" in capsys.readouterr().err


def test_zero_denominator_exits_2(tmp_path, capsys):
    cycles = tmp_path / "fig.csv"
    cycles.write_text(write_cycles_csv(CycleCounts.from_dict(100, {56: 1, 22: 1, 9: 2, 4: 1})))
    points = tmp_path / "points.csv"
    points.write_text("label,t\na,1/0\n")
    for argv in (["scan", "--n", "100", "--theta", "1/0"],
                 ["eval", "--cycles", str(cycles), "--t", "1/0"],
                 ["arcs", "classify", "--xi0", "3", "--kappa", "0.01", "--in", str(points)]):
        assert run(argv) == 2
        assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("text", ["inf", "nan"])
def test_non_finite_torus_point_exits_2(text, tmp_path, capsys):
    cycles = tmp_path / "fig.csv"
    cycles.write_text(write_cycles_csv(CycleCounts.from_dict(100, {56: 1, 22: 1, 9: 2, 4: 1})))
    points = tmp_path / "points.csv"
    points.write_text(f"label,t\na,{text}\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"t": text}))
    for argv in (["eval", "--cycles", str(cycles), "--t", text],
                 ["experiment", "conditional-tail", "--config", str(config),
                  "--out-dir", str(tmp_path)],
                 ["arcs", "classify", "--xi0", "3", "--kappa", "0.01", "--in", str(points)]):
        assert run(argv) == 2, argv
        assert f"error: torus point {text!r} is not a finite number" in capsys.readouterr().err
    assert not list(tmp_path.glob("conditional-tail-*"))


@pytest.mark.parametrize("argv, limit", [
    (["scan", "--n", "10", "--theta", f"1/{2**62}"], "int64-safe range of the scan kernel"),
    (["eval", "--t", f"1/{2**130}"], "128-bit range"),
], ids=["scan", "eval"])
def test_capacity_error_exits_2(argv, limit, tmp_path, capsys):
    # a CapacityError is an OverflowError, not a ValueError: no traceback, exit 2
    cycles = tmp_path / "fig.csv"
    cycles.write_text(write_cycles_csv(CycleCounts.from_dict(100, {56: 1, 22: 1, 9: 2, 4: 1})))
    if argv[0] == "eval":
        argv = argv + ["--cycles", str(cycles)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and limit in err


def test_accuracy_error_exits_2(monkeypatch, tmp_path, capsys):
    # a quadrature that cannot certify its result is not an assertion failure
    def uncertified(y, q):
        raise AccuracyError(f"iid_tail(y={y!r}, q={q}): quadrature error too large")

    monkeypatch.setattr(ratefn, "iid_tail", uncertified)
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({"samples": 1000}))
    out = tmp_path / "out"
    out.mkdir()
    assert run(["experiment", "conditional-tail", "--config", str(cfg),
                "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: iid_tail(")
    assert not list(out.iterdir())


@pytest.mark.parametrize("name, kind", [("lln", "imag"), ("imag", "real")])
def test_scan_kind_of_the_other_experiment_exits_2(name, kind, tmp_path, capsys):
    # lln scans the real field and imag the imaginary one: a kind that
    # disagrees is refused before any scan, not echoed in a report
    cfg = tmp_path / "kind.json"
    cfg.write_text(json.dumps({"kind": kind, "replicas": 2, "n_values": [1000]}))
    out = tmp_path / "out"
    out.mkdir()
    assert run(["experiment", name, "--config", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: kind = {kind}: {name} scans")
    assert not list(out.iterdir())


def test_negative_threads_exits_2(capsys):
    # a negative count is refused, not clamped to one thread
    assert run(["scan", "--n", "1000", "--threads", "-2"]) == 2
    assert ("error: --threads must be an integer >= 0 (0 = automatic), got -2"
            in capsys.readouterr().err)


@pytest.mark.parametrize("name", ["lln", "occupancy", "clt", "conditional-tail"])
def test_bad_thread_variable_exits_2(name, monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("PERMFIELD_THREADS", "abc")
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({"replicas": 2, "n_values": [100]}))
    out = tmp_path / "out"
    out.mkdir()
    assert run(["experiment", name, "--config", str(cfg), "--out-dir", str(out)]) == 2
    assert ("error: PERMFIELD_THREADS must be an integer >= 0 (0 = automatic), got 'abc'"
            in capsys.readouterr().err)
    assert not list(out.iterdir())


def test_emit_plot_edge_cases():
    report = ExperimentReport(name="t", seed=0, config={})
    with pytest.raises(InvalidArgumentError):
        emit_plot(report)
    report.series = [{"name": "single", "x": [1.0], "y": [2.0]}]
    svg = emit_plot(report)
    assert svg.startswith("<svg") and "circle" in svg


def test_emit_plot_log_axis_for_wide_ranges():
    report = ExperimentReport(name="t", seed=0, config={})
    report.series = [{"name": "s", "x": [1e3, 1e4, 1e5, 1e6],
                      "y": [0.62, 0.64, 0.64, 0.65]}]
    svg = emit_plot(report)
    assert "1e+06" in svg or "1000000" in svg


def test_scan_imag_kind(capsys):
    assert run(["scan", "--n", "500", "--seed", "2", "--imag"]) == 0
    out = capsys.readouterr().out
    v = float(out.splitlines()[2].split(" = ")[1])
    assert math.isfinite(v) and v > 0
