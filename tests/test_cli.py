import json
import textwrap

import pytest

from kpplab.cli import main

DISCRETE_FRONT = """
[habitat]
kind = lattice
dim = 1
half_extent = 200

[reaction]
family = linear
r0 = 1.0
b = 1.0
amplitude = 0.5
radius = 2.0

[dispersal]
kind = discrete
a = 1.0

[solver]
scheme = rk4
T = 60
dt = auto

[experiment]
name = front_speed
direction = 1
sigma0 = 1.0
level_fraction = 0.5
burn_in = 0.5
seed = 0

[output]
directory = {out}
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(textwrap.dedent(text))
    return str(p)


def test_validate_and_list(tmp_path, capsys):
    cfg = _write(tmp_path, "ok.cfg", DISCRETE_FRONT.format(out=tmp_path / "out"))
    assert main(["validate", cfg]) == 0
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    assert "front_speed" in out and "invariance_sweep" in out


def test_schema_errors_exit_2(tmp_path, capsys):
    # missing dispersal section: exit 2 and the field path in the message
    broken = DISCRETE_FRONT.replace("[dispersal]", "[solver2]")
    cfg = _write(tmp_path, "broken.cfg", broken.format(out=tmp_path / "o"))
    assert main(["validate", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err

    bad_key = DISCRETE_FRONT.format(out=tmp_path / "o2").replace("kind = discrete", "kind = teleport")
    cfg = _write(tmp_path, "badkey.cfg", bad_key)
    assert main(["validate", cfg]) == 2
    assert "dispersal.kind" in capsys.readouterr().err

    missing = DISCRETE_FRONT.format(out=tmp_path / "o3").replace("r0 = 1.0", "")
    cfg = _write(tmp_path, "missing.cfg", missing)
    assert main(["validate", cfg]) == 2
    assert "reaction.r0" in capsys.readouterr().err

    # solver keys that fail to parse name themselves
    for line, key in [("dt = abc", "solver.dt"), ("record_every = x", "solver.record_every")]:
        text = DISCRETE_FRONT.format(out=tmp_path / "o4").replace("dt = auto", line)
        cfg = _write(tmp_path, "unparsable.cfg", text)
        assert main(["validate", cfg]) == 2, line
        assert key in capsys.readouterr().err


def test_unparsable_environment_exits_2(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path, "ok.cfg", DISCRETE_FRONT.format(out=tmp_path / "out"))
    for name, raw in [("KPPLAB_JOBS", "abc"), ("KPPLAB_SEED", "x")]:
        with monkeypatch.context() as m:
            m.setenv(name, raw)
            with pytest.raises(SystemExit) as exc:
                main(["validate", cfg])
            assert exc.value.code == 2
            assert name in capsys.readouterr().err
    monkeypatch.setenv("KPPLAB_JOBS", "2")
    assert main(["validate", cfg]) == 0


def test_dt_precheck_at_load_time(tmp_path, capsys):
    cfg_text = DISCRETE_FRONT.format(out=tmp_path / "o").replace("dt = auto", "dt = 10.0")
    cfg = _write(tmp_path, "fast.cfg", cfg_text)
    assert main(["validate", cfg]) == 2
    assert "stability bound" in capsys.readouterr().err


def test_front_speed_run_and_determinism(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    cfg1 = _write(tmp_path, "a.cfg", DISCRETE_FRONT.format(out=out1))
    cfg2 = _write(tmp_path, "b.cfg", DISCRETE_FRONT.format(out=out2))
    assert main(["run", cfg1, "--quiet"]) == 0
    assert main(["run", cfg2, "--quiet"]) == 0
    s1 = json.loads((out1 / "front_speed" / "summary.json").read_text())
    assert s1["verdict"] == "pass"
    assert s1["relative_error"] <= 0.05
    m = json.loads((out1 / "front_speed" / "manifest.json").read_text())
    assert "config_sha256" in m and "kpplab_version" in m and "wall_time_s" in m
    # identical config and seed: byte-identical CSV artifacts
    b1 = (out1 / "front_speed" / "front_trace.csv").read_bytes()
    b2 = (out2 / "front_speed" / "front_trace.csv").read_bytes()
    assert b1 == b2
    # refusing to overwrite an existing run directory is a runtime error
    assert main(["run", cfg1, "--quiet"]) == 3


def test_expected_fail_negative_control(tmp_path):
    out = tmp_path / "neg"
    text = """
    [habitat]
    kind = lattice
    dim = 1
    half_extent = 80

    [reaction]
    r0 = 1.0
    b = 1.0

    [dispersal]
    kind = discrete

    [solver]
    T = 25

    [experiment]
    name = spreading_features
    clause = 1
    support_radius = 3
    c_scale = 0.5
    expect = fail

    [output]
    directory = {out}
    """
    cfg = _write(tmp_path, "neg.cfg", text.format(out=out))
    assert main(["run", cfg, "--quiet"]) == 1
    summary = json.loads((out / "spreading_features" / "summary.json").read_text())
    assert summary["verdict"] == "expected-fail: confirmed"


def test_speed_and_eigen_subcommands(tmp_path):
    out = tmp_path / "sp"
    cfg = _write(tmp_path, "s.cfg", DISCRETE_FRONT.format(out=out))
    assert main(["speed", cfg, "--quiet"]) == 0
    data = json.loads((out / "speed" / "speed.json").read_text())
    assert data["c_star"] == pytest.approx(2.0734446, abs=1e-4)
    curve = (out / "speed" / "speed_curve.csv").read_text().splitlines()
    assert curve[0] == "mu,lambda_over_mu"
    assert len(curve) == 102

    assert main(["eigen", cfg, "--quiet"]) == 0
    disp = (out / "eigen" / "dispersion.csv").read_text().splitlines()
    assert disp[0] == "mu,lambda" and len(disp) == 102


def test_stationary_subcommand(tmp_path):
    out = tmp_path / "st"
    text = """
    [habitat]
    kind = continuum
    dim = 1
    half_extent = 10
    spacing = 0.25

    [reaction]
    r0 = 1.0
    b = 1.0
    amplitude = 0.5
    radius = 1.0

    [dispersal]
    kind = random

    [solver]
    T = 100

    [experiment]
    name = stationary_profile
    tail_radius = 4.0
    tail_threshold = 0.01

    [output]
    directory = {out}
    """
    cfg = _write(tmp_path, "st.cfg", text.format(out=out))
    assert main(["run", cfg, "--quiet"]) == 0
    summary = json.loads((out / "stationary_profile" / "summary.json").read_text())
    assert summary["routes_gap"] <= 1e-6
    assert summary["residual_from_above"] <= 1e-7
    profile = (out / "stationary_profile" / "profile.csv").read_text().splitlines()
    assert profile[0] == "x,u_star" and len(profile) == 82


def test_invariance_sweep_with_jobs(tmp_path):
    out = tmp_path / "sw"
    text = """
    [habitat]
    kind = lattice
    dim = 1
    half_extent = 150

    [reaction]
    r0 = 1.0
    b = 1.0
    radius = 2.0

    [dispersal]
    kind = discrete

    [solver]
    T = 50

    [experiment]
    name = invariance_sweep
    amplitudes = 0.0, 0.5

    [output]
    directory = {out}
    """
    cfg = _write(tmp_path, "sw.cfg", text.format(out=out))
    assert main(["run", cfg, "--jobs", "2", "--quiet"]) == 0
    summary = json.loads((out / "invariance_sweep" / "summary.json").read_text())
    assert summary["verdict"] == "pass"
    assert len(summary["cells"]) == 2
    sweep = (out / "invariance_sweep" / "sweep.csv").read_text().splitlines()
    assert sweep[0].startswith("amplitude,")


def test_output_dir_flag_overrides_config(tmp_path):
    other = tmp_path / "elsewhere"
    cfg = _write(tmp_path, "c.cfg", DISCRETE_FRONT.format(out=tmp_path / "ignored"))
    assert main(["speed", cfg, "--quiet", "--output-dir", str(other)]) == 0
    assert (other / "speed" / "speed.json").exists()


def test_shipped_configs_validate(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    for cfg in sorted(root.glob("*.cfg")):
        assert main(["validate", str(cfg), "--quiet"]) == 0, cfg.name


def test_shipped_negative_control_confirms(tmp_path):
    import pathlib

    cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "negative_control.cfg"
    out = tmp_path / "neg_out"
    assert main(["run", str(cfg), "--quiet", "--output-dir", str(out)]) == 1
    summary = json.loads((out / "spreading_features" / "summary.json").read_text())
    assert summary["verdict"] == "expected-fail: confirmed"


def test_failed_write_leaves_no_temp_dir(tmp_path, monkeypatch, capsys):
    out = tmp_path / "crash"
    cfg = _write(tmp_path, "c.cfg", DISCRETE_FRONT.format(out=out))

    def broken_write(path, header, rows):
        raise OSError("disk full")

    monkeypatch.setattr("kpplab.cli.write_csv", broken_write)
    assert main(["speed", cfg, "--quiet"]) == 3
    assert "disk full" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_front_speed_refuses_nonpositive_growth_at_zero(tmp_path, capsys):
    text = DISCRETE_FRONT.format(out=tmp_path / "o").replace("amplitude = 0.5", "amplitude = -1.5")
    cfg = _write(tmp_path, "dip.cfg", text)
    assert main(["run", cfg, "--quiet"]) == 3
    assert "nonpositive" in capsys.readouterr().err


LATTICE_RUN = """
[habitat]
kind = lattice
dim = 1
half_extent = 80

[reaction]
r0 = 1.0
b = 1.0

[dispersal]
kind = discrete

[solver]
T = 25
{solver}

[experiment]
name = {name}
clause = 1

[output]
directory = {out}
"""


def test_unhonoured_solver_keys_exit_2(tmp_path, capsys):
    cases = [
        ("invariance_sweep", "scheme = explicit-euler", "solver.scheme"),
        ("spreading_features", "scheme = explicit-euler", "solver.scheme"),
        ("stationary_profile", "scheme = explicit-euler", "solver.scheme"),
        ("spreading_features", "record_every = 5", "solver.record_every"),
        ("stationary_profile", "record_every = 5", "solver.record_every"),
    ]
    for k, (name, line, key) in enumerate(cases):
        text = LATTICE_RUN.format(solver=line, name=name, out=tmp_path / "o")
        cfg = _write(tmp_path, f"{k}.cfg", text)
        for command in ("run", "validate"):
            assert main([command, cfg, "--quiet"]) == 2, (name, line, command)
            err = capsys.readouterr().err
            assert key in err and name in err
    # rk4 and auto recording stay accepted
    cfg = _write(tmp_path, "ok.cfg", LATTICE_RUN.format(solver="scheme = rk4\nrecord_every = auto",
                                                  name="stationary_profile", out=tmp_path / "o"))
    assert main(["validate", cfg, "--quiet"]) == 0


def test_empty_amplitudes_exit_2(tmp_path, capsys):
    text = LATTICE_RUN.format(solver="", name="invariance_sweep", out=tmp_path / "o")
    cfg = _write(tmp_path, "empty.cfg", text.replace("clause = 1", "amplitudes ="))
    assert main(["run", cfg, "--quiet"]) == 2
    assert "experiment.amplitudes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_stationary_profile_stops_at_solver_T(tmp_path, capsys):
    cfg = _write(tmp_path, "st.cfg",
                 LATTICE_RUN.format(solver="", name="stationary_profile", out=tmp_path / "o")
                 .replace("T = 25", "T = 2"))
    assert main(["run", cfg, "--quiet"]) == 3
    assert "no convergence by t = 2.0" in capsys.readouterr().err
