import json
import math

import numpy as np
from oracles import fmt as fmt_oracle

from kpplab import DispersalOperator, Habitat, Reaction, evolve, stability_dt_bound
from kpplab.exports import sha256_text, write_csv, write_json


def test_write_csv_round_trips_floats(tmp_path):
    xs = [0.1, -1.0 / 3.0, 2.0 ** -52, 1e300, np.float64(0.5)]
    path = tmp_path / "floats.csv"
    write_csv(path, ["x"], [[x] for x in xs])
    lines = path.read_text().splitlines()
    assert lines[0] == "x"
    assert [float(line) for line in lines[1:]] == xs
    assert lines[-1] == format(0.5, ".17e")


def test_csv_and_json_determinism(tmp_path):
    rows = [[0.1, 1, -2.5e-7], [0.2, 2, 3.0]]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(p1, ["t", "k", "v"], rows)
    write_csv(p2, ["t", "k", "v"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == "t,k,v"

    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    obj = {"b": np.float64(1.5), "a": np.arange(3), "flag": np.bool_(True)}
    write_json(j1, obj)
    write_json(j2, obj)
    assert j1.read_bytes() == j2.read_bytes()
    loaded = json.loads(j1.read_text())
    assert loaded["a"] == [0, 1, 2] and loaded["flag"] is True

    assert len(sha256_text("x")) == 64


def test_trajectory_export(tmp_path):
    habitat = Habitat("continuum", 1, 2.0, 0.5)
    rea = Reaction.linear(1.0, 1.0)
    op = DispersalOperator.random()
    u0 = habitat.full(0.5)
    traj = evolve(op, rea, u0, T=0.5, dt=0.9 * stability_dt_bound(op, rea, u0),
                  record_every=3)
    x = habitat.grid()[0]
    rows = [[t, xi, ui] for t, snap in zip(traj.times, traj.snapshots)
            for xi, ui in zip(x, snap.values)]
    manifest = {"scheme": "rk4", "clip_count": traj.clip_count,
                "half_extent": habitat.half_extent, "dispersal": op.kind}
    csv_path, man_path = tmp_path / "traj.csv", tmp_path / "manifest.json"
    write_csv(csv_path, ["t", "x", "u"], rows)
    write_json(man_path, manifest)
    first_csv, first_manifest = csv_path.read_bytes(), man_path.read_bytes()

    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + len(traj.times) * habitat.n_points
    loaded = json.loads(man_path.read_text())
    assert loaded["scheme"] == "rk4" and loaded["clip_count"] == 0
    assert loaded["half_extent"] == 2.0 and loaded["dispersal"] == "random"

    write_csv(csv_path, ["t", "x", "u"], rows)
    write_json(man_path, manifest)
    assert csv_path.read_bytes() == first_csv
    assert man_path.read_bytes() == first_manifest


def test_write_csv_matches_the_isinstance_oracle(tmp_path):
    # one "%.17e" row format writes the bytes of formatting each float on
    # its own, also for nan, the infinities, -0.0 and subnormals
    row = [0.1, -1.0 / 3.0, np.float64(2.0 ** -52), np.float32(0.1), 1e300, np.float64(-0.0),
           math.nan, math.inf, -math.inf, 5e-324, -2.0 ** -1060, np.float64(2.2e-308)]
    rows = [row, row[::-1], [-x for x in row]]
    header = [f"c{j}" for j in range(len(row))]
    path = tmp_path / "floats.csv"
    write_csv(path, header, rows)
    expected = "".join(",".join(map(fmt_oracle, r)) + "\n" for r in [header, *rows])
    assert path.read_bytes() == expected.encode()
