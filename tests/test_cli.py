import json
import math
import textwrap

import numpy as np
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

    # a value that a habitat, reaction or dispersal constructor refuses
    # names its section
    for old, new, section in [("half_extent = 200", "half_extent = 200.5", "habitat:"),
                              ("b = 1.0", "b = -1.0", "reaction:"),
                              ("a = 1.0", "a = -1.0", "dispersal:"),
                              ("kind = discrete", "kind = random", "dispersal:")]:
        text = DISCRETE_FRONT.format(out=tmp_path / "o5").replace(old, new)
        cfg = _write(tmp_path, "refused.cfg", text)
        assert main(["validate", cfg]) == 2, new
        assert f"config error: {section}" in capsys.readouterr().err, new

    # solver keys that fail to parse, or fall out of range, name themselves
    for line, key in [("dt = abc", "solver.dt"), ("dt = 0", "solver.dt"),
                      ("dt = -7", "solver.dt")]:
        text = DISCRETE_FRONT.format(out=tmp_path / "o4").replace("dt = auto", line)
        cfg = _write(tmp_path, "unparsable.cfg", text)
        assert main(["validate", cfg]) == 2, line
        assert key in capsys.readouterr().err


def test_unparsable_environment_exits_2(tmp_path, monkeypatch, capsys):
    cfg = _write(tmp_path, "ok.cfg", DISCRETE_FRONT.format(out=tmp_path / "out"))
    for name, raw in [("KPPLAB_JOBS", "abc"), ("KPPLAB_QUIET", "yes")]:
        with monkeypatch.context() as m:
            m.setenv(name, raw)
            with pytest.raises(SystemExit) as exc:
                main(["validate", cfg])
            assert exc.value.code == 2
            assert name in capsys.readouterr().err
    monkeypatch.setenv("KPPLAB_JOBS", "2")
    assert main(["validate", cfg]) == 0
    capsys.readouterr()
    for raw, out in [("1", ""), ("0", "config ok\n")]:
        monkeypatch.setenv("KPPLAB_QUIET", raw)
        assert main(["validate", cfg]) == 0
        assert capsys.readouterr().out == out


def test_jobs_below_one_exit_2(tmp_path, monkeypatch, capsys):
    # never run serially in silence: a job count below 1 is refused
    cfg = _write(tmp_path, "ok.cfg", DISCRETE_FRONT.format(out=tmp_path / "out"))
    for argv, env, name in [(["--jobs", "0"], None, "--jobs"), (["--jobs", "-3"], None, "--jobs"),
                            ([], "0", "KPPLAB_JOBS")]:
        with monkeypatch.context() as m:
            if env is not None:
                m.setenv("KPPLAB_JOBS", env)
            with pytest.raises(SystemExit) as exc:
                main(["validate", cfg, *argv])
            assert exc.value.code == 2
            assert name in capsys.readouterr().err


def test_reaction_breaking_h1_exits_2(tmp_path, capsys):
    # amplitude 1e12 against r0 = 1: beta0's margin of 1e-6 u0* is below
    # one rounding of beta0, so f(x, beta0) = 0 is not negative
    text = DISCRETE_FRONT.format(out=tmp_path / "o").replace(
        "amplitude = 0.5", "amplitude = 1e12")
    cfg = _write(tmp_path, "huge_amplitude.cfg", text)
    for command in ("validate", "run"):
        assert main([command, cfg, "--quiet"]) == 2, command
        assert "reaction" in capsys.readouterr().err


def test_dt_precheck_at_load_time(tmp_path, capsys):
    cfg_text = DISCRETE_FRONT.format(out=tmp_path / "o").replace("dt = auto", "dt = 10.0")
    cfg = _write(tmp_path, "fast.cfg", cfg_text)
    for command in ("validate", "run", "speed", "eigen"):
        assert main([command, cfg, "--quiet"]) == 2, command
        assert "stability bound" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_front_speed_run_and_determinism(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    cfg1 = _write(tmp_path, "a.cfg", DISCRETE_FRONT.format(out=out1))
    cfg2 = _write(tmp_path, "b.cfg", DISCRETE_FRONT.format(out=out2))
    assert main(["run", cfg1, "--quiet"]) == 0
    assert main(["run", cfg2, "--quiet"]) == 0
    s1 = json.loads((out1 / "front_speed" / "summary.json").read_text())
    assert s1["verdict"] == "pass"
    lo, hi = s1["mu_star_bracket"]
    assert lo <= s1["mu_star"] <= hi
    assert s1["relative_error"] <= 0.05
    m = json.loads((out1 / "front_speed" / "manifest.json").read_text())
    assert "config_sha256" in m and "kpplab_version" in m and "wall_time_s" in m
    # identical config and seed: byte-identical CSV artifacts
    b1 = (out1 / "front_speed" / "front_trace.csv").read_bytes()
    b2 = (out2 / "front_speed" / "front_trace.csv").read_bytes()
    assert b1 == b2
    # refusing to overwrite an existing run directory is a runtime error
    assert main(["run", cfg1, "--quiet"]) == 3


RANDOM_FRONT = """
[habitat]
kind = continuum
dim = 1
half_extent = 100
spacing = 0.2

[reaction]
r0 = 1.0
b = 1.0
amplitude = 0.5

[dispersal]
kind = random

[solver]
T = 40
dt = {dt}

[experiment]
name = front_speed

[output]
directory = {out}
"""


def test_front_speed_reports_its_scheme(tmp_path, capsys):
    # the grid, not solver.dt, picks the scheme: at h = 0.2 the random
    # kind marches by rkc2 at dt = auto and at an explicit dt, and at
    # h = 0.5, where rk4's h^2 clause does not bind, by rk4 at both.
    # summary.json says which, and how many right-hand sides it evaluated
    def run(spacing, dt):
        out = tmp_path / f"{spacing}-{dt}"
        text = RANDOM_FRONT.format(dt=dt, out=out).replace("spacing = 0.2", f"spacing = {spacing}")
        cfg = _write(tmp_path, f"{spacing}-{dt}.cfg", text)
        assert main(["run", cfg, "--quiet"]) == 0, (spacing, dt)
        summary = json.loads((out / "front_speed" / "summary.json").read_text())
        assert summary["verdict"] == "pass" and summary["clip_count"] == 0, summary
        return summary

    auto, explicit = run(0.2, "auto"), run(0.2, "0.015")
    assert auto["scheme"] == explicit["scheme"] == "rkc2"
    assert explicit["rhs_evals"] == 2 * math.ceil(40 / 0.015 - 1e-12)  # s = 2 at dt = 0.015
    assert 0 < auto["rhs_evals"] < explicit["rhs_evals"]
    coarse, coarse_explicit = run(0.5, "auto"), run(0.5, "0.05")
    assert coarse["scheme"] == coarse_explicit["scheme"] == "rk4"
    assert coarse_explicit["rhs_evals"] == 4 * math.ceil(40 / 0.05 - 1e-12)
    # under rkc2 an explicit dt answers to the bounded-operator clause,
    # 0.25 / (2 + max|f|) = 0.0714 with max|f| = 1.5 on the run's front
    # data (max u0 = 1, M = beta0 + u0* = 2.5): 0.05 is above rk4's h^2
    # bound (0.0167) and runs; 0.08 exits 2
    assert run(0.2, "0.05")["scheme"] == "rkc2"
    cfg = _write(tmp_path, "fast.cfg", RANDOM_FRONT.format(dt="0.08", out=tmp_path / "fast"))
    assert main(["validate", cfg, "--quiet"]) == 2
    assert "stability bound" in capsys.readouterr().err


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
    assert summary["clip_count"] == 0
    assert summary["scheme"] == "rk4" and summary["rhs_evals"] > 0


def test_speed_and_eigen_subcommands(tmp_path):
    out = tmp_path / "sp"
    cfg = _write(tmp_path, "s.cfg", DISCRETE_FRONT.format(out=out))
    assert main(["speed", cfg, "--quiet"]) == 0
    data = json.loads((out / "speed" / "speed.json").read_text())
    assert data["c_star"] == pytest.approx(2.0734446, abs=1e-4)
    lo, hi = data["mu_star_bracket"]
    assert lo <= data["mu_star"] <= hi and hi - lo <= 1e-8 * hi
    curve = (out / "speed" / "speed_curve.csv").read_text().splitlines()
    assert curve[0] == "mu,lambda_over_mu"
    assert len(curve) == 102

    assert main(["eigen", cfg, "--quiet"]) == 0
    disp = (out / "eigen" / "dispersion.csv").read_text().splitlines()
    assert disp[0] == "mu,lambda" and len(disp) == 102


STATIONARY = """
[habitat]
kind = continuum
dim = 1
half_extent = 10
spacing = 0.25

[reaction]
r0 = 1.0
b = 1.0
amplitude = {amplitude}
radius = 1.0

[dispersal]
kind = random

[experiment]
name = stationary_profile

[output]
directory = {out}
"""


def test_stationary_subcommand(tmp_path):
    # the CLI writes run_stationary_profile's routes, gap, tail and verdict.
    # At amplitude 3 the profile is still 0.0343 above u0* at 4 radii out:
    # the routes meet and both bounds are negative, but the tail gate fails
    from kpplab import DispersalOperator, Habitat, Reaction, solve_stationary
    from kpplab.experiments import run_stationary_profile
    from kpplab.stationary import FROM_ABOVE, FROM_BELOW

    habitat, op = Habitat("continuum", 1, 10.0, 0.25), DispersalOperator.random()
    for amplitude, rc in [(0.5, 0), (3.0, 1)]:
        out = tmp_path / f"a{amplitude}"
        cfg = _write(tmp_path, f"a{amplitude}.cfg", STATIONARY.format(amplitude=amplitude, out=out))
        assert main(["run", cfg, "--quiet"]) == rc, amplitude
        summary = json.loads((out / "stationary_profile" / "summary.json").read_text())
        assert summary["routes_gap"] <= 1e-6
        assert summary["residual_from_above"] <= 1e-7
        assert "clip_count" not in summary
        for route in ("from_above", "from_below"):
            assert summary[f"newton_steps_{route}"] >= 1 and summary[f"matvecs_{route}"] > 0
            assert summary[f"stability_bound_{route}"] < 0.0
        profile = (out / "stationary_profile" / "profile.csv").read_text().splitlines()
        assert profile[0] == "x,u_star" and len(profile) == 82
        reaction = Reaction.linear(1.0, 1.0, amplitude=amplitude, radius=1.0)
        prof = run_stationary_profile(op, reaction, habitat)
        for res, route in [(prof.above, FROM_ABOVE), (prof.below, FROM_BELOW)]:
            alone = solve_stationary(op, reaction, habitat, route)
            assert res.route == route
            assert np.array_equal(res.u_star.values, alone.u_star.values)
            assert res.stability_bound == alone.stability_bound
            assert res.matvecs == alone.matvecs and res.residual == alone.residual
        assert summary["routes_gap"] == prof.gap
        assert summary["tail_deviation"] == prof.tail and summary["tail_radius"] == 4.0
        assert summary["verdict"] == ("pass" if prof.ok else "fail")
    assert summary["verdict"] == "fail"
    assert summary["tail_deviation"] == pytest.approx(0.0343, abs=5e-5)


def test_only_experiments_table_asks_which_experiment():
    # every rule of one experiment lives in its EXPERIMENTS entry: no
    # module compares a value with an experiment name
    import ast
    import pathlib

    import kpplab
    from kpplab.cli import EXPERIMENTS

    def name_comparisons(source):
        return [node.lineno for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Compare)
                and any(isinstance(leaf, ast.Constant) and leaf.value in EXPERIMENTS
                        for operand in (node.left, *node.comparators)
                        for leaf in ast.walk(operand))]

    package = pathlib.Path(kpplab.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
             for line in name_comparisons(path.read_text())]
    assert not found
    assert len(name_comparisons('a = name == "front_speed"\n'
                                'b = name in ("invariance_sweep", "x")\n')) == 2
    assert all(callable(parse_keys) and callable(runner)
               for parse_keys, runner, _ in EXPERIMENTS.values())


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
    assert summary["clip_count"] == 0 and [c["clip_count"] for c in summary["cells"]] == [0, 0]
    assert [c["scheme"] for c in summary["cells"]] == ["rk4", "rk4"]
    # the cells that come back pickled from the workers write what the
    # in-process cells write, byte for byte (summary cells included)
    serial = tmp_path / "serial"
    assert main(["run", cfg, "--jobs", "1", "--output-dir", str(serial), "--quiet"]) == 0
    for name in ("sweep.csv", "summary.json"):
        one, two = (d / "invariance_sweep" / name for d in (serial, out))
        assert one.read_bytes() == two.read_bytes(), name
    assert all(c["rhs_evals"] > 0 for c in summary["cells"])
    sweep = (out / "invariance_sweep" / "sweep.csv").read_text().splitlines()
    assert sweep[0].startswith("amplitude,")


def test_output_dir_flag_overrides_config(tmp_path):
    other = tmp_path / "elsewhere"
    cfg = _write(tmp_path, "c.cfg", DISCRETE_FRONT.format(out=tmp_path / "ignored"))
    assert main(["speed", cfg, "--quiet", "--output-dir", str(other)]) == 0
    assert (other / "speed" / "speed.json").exists()


def test_shipped_configs_validate(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1]
    configs = sorted(root.glob("configs/*.cfg")) + sorted(root.glob("perfbench/configs/*.cfg"))
    assert len(configs) == 6
    for cfg in configs:
        assert main(["validate", str(cfg), "--quiet"]) == 0, cfg.name


def test_unread_keys_exit_2(tmp_path, capsys):
    # a key no command reads is refused by every command before any output
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    cases = [
        ("stationary_bump.cfg", "name = stationary_profile",
         "name = stationary_profile\ntail_treshold = 0.5", "experiment.tail_treshold"),
        ("fisher_speed.cfg", "T = 100", "Tmax = 5", "solver.tmax"),
        ("fisher_speed.cfg", "margin = 0.2", "margn = 0.9", "experiment.margn"),
        ("negative_control.cfg", "b = 1.0", "b = 1.0\ncarrying_capacity = 4",
         "reaction.carrying_capacity"),
        ("stationary_bump.cfg", "kind = random", "kind = random\ndelta0 = 2",
         "dispersal.delta0"),
        ("negative_control.cfg", "directory = out", "directory = out\nformat = csv",
         "output.format"),
    ]
    for k, (shipped, old, new, key) in enumerate(cases):
        text = (root / shipped).read_text()
        assert old in text
        out = tmp_path / f"o{k}"
        cfg = _write(tmp_path, f"u{k}.cfg", text.replace(old, new))
        for command in ("validate", "run", "speed", "eigen"):
            assert main([command, cfg, "--quiet", "--output-dir", str(out)]) == 2, (key, command)
            assert key in capsys.readouterr().err, (key, command)
        assert not out.exists()


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
    # refused by the config parse: validate and run exit 2 and name the
    # key, before any march and without an output directory
    out = tmp_path / "o"
    text = DISCRETE_FRONT.format(out=out).replace("amplitude = 0.5", "amplitude = -1.5")
    cfg = _write(tmp_path, "dip.cfg", text)
    for command in ("validate", "run"):
        assert main([command, cfg, "--quiet"]) == 2, command
        err = capsys.readouterr().err
        assert "reaction.amplitude" in err and "nonpositive" in err
    assert not out.exists()


def test_sweep_refuses_nonpositive_growth_at_zero_before_any_cell(tmp_path, capsys, monkeypatch):
    import kpplab.experiments as experiments

    def no_march(*args, **kwargs):
        raise AssertionError("a cell was marched")

    monkeypatch.setattr(experiments, "march", no_march)
    out = tmp_path / "o"
    text = DISCRETE_FRONT.format(out=out).replace(
        "name = front_speed", "name = invariance_sweep\namplitudes = 0.0, -1.5").replace(
            "amplitude = 0.5\n", "")
    cfg = _write(tmp_path, "dip.cfg", text)
    for command in ("validate", "run"):
        assert main([command, cfg, "--quiet"]) == 2, command
        err = capsys.readouterr().err
        assert "experiment.amplitudes" in err and "amplitude -1.5" in err
    assert not out.exists()


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
{experiment}

[output]
directory = {out}
"""


def test_unhonoured_solver_keys_exit_2(tmp_path, capsys):
    # rk4 is the only scheme, for every experiment; every march records by
    # its automatic rule, so record_every is read by no command
    cases = [
        ("front_speed", "scheme = explicit-euler", "solver.scheme"),
        ("invariance_sweep", "scheme = explicit-euler", "solver.scheme"),
        ("spreading_features", "scheme = explicit-euler", "solver.scheme"),
        ("stationary_profile", "scheme = explicit-euler", "solver.scheme"),
        ("front_speed", "record_every = 5", "solver.record_every"),
        ("spreading_features", "record_every = 5", "solver.record_every"),
        ("stationary_profile", "record_every = auto", "solver.record_every"),
    ]
    for k, (name, line, key) in enumerate(cases):
        experiment = "clause = 1" if name == "spreading_features" else ""
        text = LATTICE_RUN.format(solver=line, name=name, experiment=experiment,
                                  out=tmp_path / "o")
        if name == "stationary_profile":  # it takes no solver.T
            text = text.replace("T = 25\n", "")
        cfg = _write(tmp_path, f"{k}.cfg", text)
        for command in ("run", "validate"):
            assert main([command, cfg, "--quiet"]) == 2, (name, line, command)
            err = capsys.readouterr().err
            assert key in err
            if key == "solver.record_every":
                assert "unknown key" in err
    # rk4 stays accepted (stationary_profile takes no solver.T)
    cfg = _write(tmp_path, "ok.cfg", LATTICE_RUN.format(solver="scheme = rk4",
                                                  name="stationary_profile", experiment="",
                                                  out=tmp_path / "o").replace("T = 25\n", ""))
    assert main(["validate", cfg, "--quiet"]) == 0


def test_validate_parses_every_experiment_key(tmp_path, capsys):
    import pathlib

    configs = pathlib.Path(__file__).resolve().parents[1] / "configs"
    sweep = "invariance_discrete.cfg"
    for shipped, old, new, key in [
        (sweep, "amplitudes = -0.5, 0.0, 0.5, 1.0", "amplitudes =", "experiment.amplitudes"),
        # one distinct amplitude has no pairwise spread to gate
        (sweep, "amplitudes = -0.5, 0.0, 0.5, 1.0", "amplitudes = 1.0", "experiment.amplitudes"),
        (sweep, "amplitudes = -0.5, 0.0, 0.5, 1.0", "amplitudes = 0.5, 0.5",
         "experiment.amplitudes"),
        (sweep, "direction = 1", "direction = east", "experiment.direction"),
        (sweep, "direction = 1", "direction = 1\nseed = 0", "experiment.seed"),
        (sweep, "direction = 1", "direction = 1\nexpect = maybe", "experiment.expect"),
        (sweep, "direction = 1", "direction = 1\nn_mu = many", "experiment.n_mu"),
        (sweep, "direction = 1", "direction = 1\nn_mu = -1", "experiment.n_mu"),
        (sweep, "direction = 1", "direction = 1\nmu_max = 0", "experiment.mu_max"),
        # the tail window 4 radius <= |x| <= L - delta0 - 5h = 39.5 is empty
        ("stationary_bump.cfg", "radius = 1.0", "radius = 10", "reaction.radius"),
    ]:
        text = (configs / shipped).read_text()
        assert old in text
        cfg = _write(tmp_path, "v.cfg", text.replace(old, new))
        assert main(["validate", cfg, "--quiet"]) == 2, new
        assert key in capsys.readouterr().err
    for name, line, key in [
        ("spreading_features", "clause = 7", "experiment.clause"),
        ("spreading_features", "clause = 1\nsupport_radius = far", "experiment.support_radius"),
        # the run needs 0 < r and r + 1 < half_extent = 80
        ("spreading_features", "clause = 1\nsupport_radius = 79.5", "experiment.support_radius"),
        ("spreading_features", "clause = 1\nsupport_radius = -1", "experiment.support_radius"),
        # the cones need 0 < margin < 1 and c_scale > 0: else the run's
        # inner region empties after the whole march
        ("spreading_features", "clause = 2\nmargin = 1.5", "experiment.margin"),
        ("spreading_features", "clause = 1\nmargin = 0", "experiment.margin"),
        ("spreading_features", "clause = 2\nc_scale = -1.0", "experiment.c_scale"),
        ("spreading_features", "clause = 3\nc_scale = 0", "experiment.c_scale"),
        ("spreading_features", "clause = 1\nc_scale = inf", "experiment.c_scale"),
        ("front_speed", "margin = wide", "experiment.margin"),
        ("front_speed", "margin = 3.0", "experiment.margin"),
        ("front_speed", "margin = 1", "experiment.margin"),
        ("front_speed", "direction = 0", "experiment.direction"),
        ("front_speed", "direction = 1, 0", "experiment.direction"),
    ]:
        cfg = _write(tmp_path, "v.cfg", LATTICE_RUN.format(solver="", name=name, experiment=line,
                                                           out=tmp_path / "o"))
        assert main(["validate", cfg, "--quiet"]) == 2, line
        assert key in capsys.readouterr().err


def test_empty_amplitudes_exit_2(tmp_path, capsys):
    text = LATTICE_RUN.format(solver="", name="invariance_sweep", experiment="amplitudes =",
                              out=tmp_path / "o")
    cfg = _write(tmp_path, "empty.cfg", text)
    assert main(["run", cfg, "--quiet"]) == 2
    assert "experiment.amplitudes" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_stationary_profile_stops_at_solver_T(tmp_path, capsys):
    # stationary_profile does not step in time: an explicit solver.T or
    # solver.dt exits 2 and names the key; dt = auto stays accepted
    text = LATTICE_RUN.format(solver="", name="stationary_profile", experiment="",
                              out=tmp_path / "o")
    for k, (old, new, key) in enumerate([("T = 25", "T = 2", "solver.T"),
                                         ("T = 25", "dt = 0.1", "solver.dt")]):
        cfg = _write(tmp_path, f"st{k}.cfg", text.replace(old, new))
        for command in ("run", "validate"):
            assert main([command, cfg, "--quiet"]) == 2, (key, command)
            assert key in capsys.readouterr().err
    cfg = _write(tmp_path, "auto.cfg", text.replace("T = 25", "dt = auto"))
    assert main(["validate", cfg, "--quiet"]) == 0
    assert not (tmp_path / "o").exists()


def test_clipping_fails_the_verdict(tmp_path, monkeypatch):
    # a systematic negative clip is an error, not a footnote: the same
    # runs pass when nothing is clipped and fail when the march reports one
    import dataclasses

    import kpplab.experiments as experiments

    sweep = DISCRETE_FRONT.replace("name = front_speed",
                                   "name = invariance_sweep\namplitudes = 0.0, 0.5").replace(
                                       "amplitude = 0.5\n", "")
    spreading = LATTICE_RUN.format(solver="", name="spreading_features", experiment="clause = 1",
                                   out="{out}")
    # a clipped run cannot confirm a negative control either
    control = spreading.replace("clause = 1", "clause = 1\nc_scale = 0.5\nexpect = fail")
    cases = [("front_speed", DISCRETE_FRONT, "pass"), ("invariance_sweep", sweep, "pass"),
             ("spreading_features", spreading, "pass"),
             ("spreading_features", control, "expected-fail: confirmed")]
    real = experiments.march
    for clips in (0, 1):
        def clip(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), clip_count=clips)

        monkeypatch.setattr(experiments, "march", clip)
        for k, (name, text, unclipped) in enumerate(cases):
            out = tmp_path / f"{k}-{clips}"
            cfg = _write(tmp_path, f"{k}.cfg", text.format(out=out))
            expect_rc = 1 if clips or unclipped != "pass" else 0
            assert main(["run", cfg, "--quiet"]) == expect_rc, (name, clips)
            summary = json.loads((out / name / "summary.json").read_text())
            assert summary["verdict"] == ("fail: clipped" if clips else unclipped), (name, clips)
            assert (summary["clip_count"] > 0) == bool(clips)


FISHER_FRONT = """
[habitat]
kind = continuum
dim = 1
half_extent = 100
spacing = {spacing}

[reaction]
r0 = 1.0
b = 1.0

[dispersal]
kind = random

[solver]
T = 40
dt = {dt}

[experiment]
name = front_speed

[output]
directory = {out}
"""


def test_dt_precheck_accepts_what_the_march_accepts(tmp_path):
    # h = 0.1, front height u0* = 1: the march's own bound is the rkc2
    # clause 0.25 / (2 + max|f|) = 0.0833 with max|f| = 1 from u <= 1, so
    # dt = 0.07 validates and runs, and clips nothing
    out = tmp_path / "a"
    cfg = _write(tmp_path, "a.cfg", FISHER_FRONT.format(spacing=0.1, dt=0.07, out=out))
    assert main(["validate", cfg, "--quiet"]) == 0
    assert main(["run", cfg, "--quiet"]) == 0
    summary = json.loads((out / "front_speed" / "summary.json").read_text())
    assert summary["verdict"] == "pass" and summary["clip_count"] == 0
    assert summary["scheme"] == "rkc2"


def test_dt_precheck_reads_the_front_height(tmp_path, capsys):
    # h = 0.5, logistic with K = 8: the front starts at height u0* = 8,
    # below beta0 = 8 + 8e-6, so the rk4 march has M = beta0 + u0* = 16.000008,
    # rho = 4 / h^2 + |1 - 2 * 16.000008 / 8| = 19.000002 and is bounded by
    # 0.6 * 2.785 / 19.000002 = 0.0879, so dt = 0.1 exits 2 before any march
    out = tmp_path / "b"
    text = FISHER_FRONT.format(spacing=0.5, dt=0.1, out=out).replace(
        "r0 = 1.0\nb = 1.0", "family = logistic\nr0 = 1.0\ncarrying_capacity = 8")
    cfg = _write(tmp_path, "b.cfg", text)
    for command in ("validate", "run"):
        assert main([command, cfg, "--quiet"]) == 2, command
        err = capsys.readouterr().err
        assert "solver.dt" in err and "0.0879474" in err
    assert not out.exists()


def test_dt_precheck_covers_every_sweep_amplitude(tmp_path, capsys):
    # rho = 2 * 2 + max|f(x, 0) - 2 u| over u <= M: the amplitude-2 cell
    # (M = 4) has rho = 4 + 7 and is bounded by 0.6 * 2.785 / 11 = 0.152,
    # the amplitude-0 cell (M = 2) by 0.6 * 2.785 / 7 = 0.239: dt = 0.2
    # exits 2 before any cell runs
    out = tmp_path / "c"
    text = LATTICE_RUN.format(solver="dt = 0.2", name="invariance_sweep",
                              experiment="amplitudes = 0.0, 2.0", out=out)
    cfg = _write(tmp_path, "c.cfg", text)
    for command in ("validate", "run"):
        assert main([command, cfg, "--quiet"]) == 2, command
        err = capsys.readouterr().err
        assert "solver.dt" in err and "0.151909" in err
    assert not out.exists()


def test_sweep_refuses_reaction_amplitude(tmp_path, capsys):
    # the sweep sets the amplitude of each cell; a reaction.amplitude
    # would be silently replaced, so it exits 2 and names the key
    out = tmp_path / "sw"
    text = LATTICE_RUN.format(solver="", name="invariance_sweep",
                              experiment="amplitudes = 0.0, 2.0", out=out)
    cfg = _write(tmp_path, "sw.cfg", text.replace("b = 1.0", "b = 1.0\namplitude = 0.7"))
    for command in ("validate", "run"):
        assert main([command, cfg, "--quiet"]) == 2, command
        assert "reaction.amplitude" in capsys.readouterr().err
    assert not out.exists()


def test_derived_keys_exit_2_as_unread(tmp_path, capsys):
    # the heights, the front level, the fit window, the record rule and the
    # tail gate are derived from u0* or fixed by the method: a config that
    # sets any of them, even to the value the run uses, is refused
    stationary = LATTICE_RUN.format(solver="", name="stationary_profile", experiment="",
                                    out="{out}").replace("T = 25\n", "")
    spreading = LATTICE_RUN.format(solver="", name="spreading_features", experiment="clause = 1",
                                   out="{out}")
    cases = [
        (DISCRETE_FRONT, "dt = auto", "record_every = auto", "solver.record_every"),
        (DISCRETE_FRONT, "direction = 1", "sigma0 = 1.0", "experiment.sigma0"),
        (DISCRETE_FRONT, "direction = 1", "level_fraction = 0.5", "experiment.level_fraction"),
        (DISCRETE_FRONT, "direction = 1", "burn_in = 0.5", "experiment.burn_in"),
        (spreading, "clause = 1", "sigma = 1.0", "experiment.sigma"),
        (stationary, "name = stationary_profile", "tail_radius = 4.0", "experiment.tail_radius"),
        (stationary, "name = stationary_profile", "tail_threshold = 0.01",
         "experiment.tail_threshold"),
    ]
    for k, (template, anchor, line, key) in enumerate(cases):
        out = tmp_path / f"o{k}"
        text = template.format(out=out)
        assert anchor in text
        cfg = _write(tmp_path, f"d{k}.cfg", text.replace(anchor, f"{anchor}\n{line}"))
        for command in ("validate", "run"):
            assert main([command, cfg, "--quiet"]) == 2, (key, command)
            err = capsys.readouterr().err
            assert key in err and "unknown key" in err, (key, command)
        assert not out.exists()


def test_front_speed_scales_with_carrying_capacity(tmp_path):
    # logistic growth with K = 5: the front starts at u0* = 5 and is
    # tracked at 2.5, and the run is the Fisher run with u scaled by 5.
    # It passes with the same speed and the same steps, since the march's
    # bound M = beta0 + u0* scales with u0*; 5 is not a power of two, so
    # the scaling rounds
    def run(name, text):
        out = tmp_path / name
        cfg = _write(tmp_path, f"{name}.cfg", text.format(spacing=0.1, dt="auto", out=out))
        assert main(["run", cfg, "--quiet"]) == 0, name
        return json.loads((out / "front_speed" / "summary.json").read_text())

    fisher = run("fisher", FISHER_FRONT)
    scaled = run("k5", FISHER_FRONT.replace(
        "r0 = 1.0\nb = 1.0", "family = logistic\nr0 = 1.0\ncarrying_capacity = 5"))
    assert scaled["verdict"] == "pass" and scaled["clip_count"] == 0
    assert scaled["c_empirical"] == pytest.approx(fisher["c_empirical"], rel=1e-6)


def test_stationary_profile_scales_with_carrying_capacity(tmp_path):
    # the shipped stationary config with K = 1e4: both gates are fractions
    # of u0*, so the run passes with the tail of the K = 1 run, scaled
    import pathlib

    shipped = pathlib.Path(__file__).resolve().parents[1] / "configs" / "stationary_bump.cfg"
    text = shipped.read_text()
    old = "family = linear\nr0 = 1.0\nb = 1.0"
    assert old in text

    def run(name, text):
        out = tmp_path / name
        cfg = _write(tmp_path, f"{name}.cfg", text)
        assert main(["run", cfg, "--quiet", "--output-dir", str(out)]) == 0, name
        return json.loads((out / "stationary_profile" / "summary.json").read_text())

    unit = run("k1", text)
    scaled = run("k1e4", text.replace(old, "family = logistic\nr0 = 1.0\ncarrying_capacity = 1e4"))
    assert scaled["verdict"] == "pass" and scaled["u0_star"] == 1e4
    assert scaled["routes_gap"] <= 1e-6 * 1e4
    assert scaled["tail_deviation"] / 1e4 == pytest.approx(unit["tail_deviation"], rel=1e-6)


def test_config_schema_is_pinned(tmp_path):
    # the exact section.key set that parse_config reads, per experiment and
    # without one, for a linear reaction and discrete dispersal: a knob
    # added or dropped shows up here
    from kpplab.cli import load_config, parse_config

    common = {
        "habitat.kind", "habitat.dim", "habitat.half_extent", "habitat.spacing",
        "habitat.boundary", "reaction.family", "reaction.r0", "reaction.amplitude",
        "reaction.radius", "reaction.b", "dispersal.kind", "dispersal.a", "solver.scheme",
        "solver.t", "solver.dt", "experiment.name", "experiment.expect",
        "experiment.direction", "experiment.mu_max", "experiment.n_mu", "output.directory",
    }
    own = {
        None: set(),
        "front_speed": {"experiment.margin"},
        "invariance_sweep": {"experiment.amplitudes"},
        "spreading_features": {"experiment.clause", "experiment.support_radius",
                               "experiment.c_scale", "experiment.margin"},
        "stationary_profile": set(),
    }
    for name, keys in own.items():
        text = LATTICE_RUN.format(solver="", name=name,
                                  experiment="clause = 1" if name == "spreading_features" else "",
                                  out=tmp_path / "o")
        if name is None:
            text = text.replace("name = None\n", "")
        if name == "stationary_profile":
            text = text.replace("T = 25\n", "")
        cp, _ = load_config(_write(tmp_path, f"{name}.cfg", text))
        parse_config(cp)
        assert {f"{s}.{k}" for s, k in cp.read_keys} == common | keys, name
