import csv
import io
import json
import math
import pathlib
import time
import tracemalloc
import warnings
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twistcc import cli, solver
from twistcc.certify import certify_boxes
from twistcc.cli import csv_field, main
from twistcc.geometry import (config_from_json, config_to_json, load_config, PairTable,
                              PlanarConfig, PotentialParams, build_pair_table)
from twistcc.hessian import assemble_twist_hessian, lagrange_char_poly_coeffs
from twistcc.kite import kite_index_map
from twistcc.solver import FlowSpec, descend, flow_fixed_combo
from twistcc.twist import twist_span_basis

from oracles import (certify_table_ref, csv_text_ref, equilateral_config, eval_table_ref,
                     kite_map_table_ref, matrix_table_ref, pgm_pixels_ref, random_config,
                     square_config, trajectory_table_ref)
from test_certify import WINDOWS, box_certificates, box_lanes, window_boxes

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(config_to_json(equilateral_config((1.0, 2.0, 3.0)), PotentialParams(3.0)))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(config_to_json(square_config((1.0, 1.0, 3.0, 5.0)), PotentialParams(3.0)))
    return str(path)


def test_eval_exit_codes(triangle_file, square_file, tmp_path, capsys):
    assert main(["eval", triangle_file]) == 0
    assert main(["eval", square_file]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"A": 3.0, "masses": [1, 1], "positions": [[0,')
    assert main(["eval", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_eval_csv_and_manifest(triangle_file, tmp_path, capsys):
    out = tmp_path / "resid.csv"
    assert main(["eval", triangle_file, "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "i,j,la,b_ij,b_ji"
    assert len(lines) == 4  # header + 3 pairs
    manifest = json.loads((tmp_path / "resid.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "eval"
    assert manifest["outputs"] == [str(out)]
    assert manifest["tolerances"]["tol"] == 1e-10


def test_unwritable_output_exits_2(triangle_file, square_file, tmp_path, capsys):
    # an output in a missing directory, or onto an existing directory, is an
    # error report with exit 2 (not 1, which eval and descend give to results),
    # naming the path asked for, without a traceback, without a leftover .tmp
    # and without an output of the failed run that has no manifest
    def unmanifested(path):
        return path.exists() and not path.with_name(path.name + ".manifest.json").exists()

    missing = tmp_path / "missing" / "resid.csv"
    assert main(["eval", triangle_file, "--csv", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"'{missing}'" in err and ".tmp" not in err
    assert not (tmp_path / "missing").exists()
    taken = tmp_path / "map.pgm"
    taken.mkdir()
    assert main(["kite-map", "--z3", "1.75:2.05:4", "--z4", "0.76:0.86:4",
                 "--csv", str(tmp_path / "map.csv"), "--pgm", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"'{taken}'" in err and ".tmp" not in err
    assert taken.is_dir() and not list(taken.iterdir())
    assert not unmanifested(tmp_path / "map.csv")
    # descend's second output, and eval's manifest
    final = tmp_path / "final.json"
    final.mkdir()
    assert main(["descend", square_file, "--max-iter", "1",
                 "--traj", str(tmp_path / "traj.csv"), "--final", str(final)]) == 2
    assert f"'{final}'" in capsys.readouterr().err
    assert not unmanifested(tmp_path / "traj.csv")
    (tmp_path / "resid.csv.manifest.json").mkdir()
    assert main(["eval", triangle_file, "--csv", str(tmp_path / "resid.csv")]) == 2
    assert "resid.csv.manifest.json'" in capsys.readouterr().err
    assert not (tmp_path / "resid.csv").exists()
    assert not list(tmp_path.glob("*.tmp"))


KITE_MAP_4 = ["kite-map", "--z3", "1.0:2.2:4", "--z4", "0.01:0.87:4"]

# one run of every subcommand with each output it declares named, the flags
# out of write order where there are two; then the outputs in write order
MANIFEST_CASES = [
    (["eval", "{sq}", "--csv", "e.csv"], ["e.csv"]),
    (["descend", "{sq}", "--max-iter", "5", "--final", "d.json", "--traj", "d.csv"],
     ["d.csv", "d.json"]),
    (["flow", "{sq}", "--pairs", "1-2", "--steps", "10", "--traj", "f.csv"], ["f.csv"]),
    (["hessian", "{sq}", "--csv", "h.csv"], ["h.csv"]),
    (KITE_MAP_4 + ["--pgm", "m.pgm", "--csv", "m.csv"], ["m.csv", "m.pgm"]),
    (["certify", "--z3", "1.99,2.01", "--z4", "0.79,0.81", "--csv", "c.csv"], ["c.csv"]),
    (["lagrange", "--masses", "1,2,3", "--csv", "l.csv"], ["l.csv"]),
]


@pytest.mark.parametrize("argv, outputs", MANIFEST_CASES, ids=[a[0] for a, _ in MANIFEST_CASES])
def test_every_manifest_lists_its_outputs_and_wall_time(argv, outputs, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    assert main([a.format(sq=DATA / "square_1135.json") for a in argv]) in (0, 1)
    manifest = json.loads((tmp_path / f"{outputs[0]}.manifest.json").read_text())
    assert manifest["subcommand"] == argv[0]
    assert manifest["outputs"] == outputs
    assert isinstance(manifest["wall_s"], float) and manifest["wall_s"] > 0.0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [*outputs, f"{outputs[0]}.manifest.json"])
    if argv[0] == "descend":        # a file run draws nothing
        assert manifest["seed"] is None and manifest["arguments"]["A"] is None
    if argv[0] == "flow":
        assert manifest["counts"] == {"steps_completed": 10}


def test_manifest_keeps_wall_s_when_an_output_is_named_like_its_placeholder(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["eval", str(DATA / "square_1135.json"), "--csv", "<wall_s>"]) == 1
    manifest = json.loads((tmp_path / "<wall_s>.manifest.json").read_text())
    assert manifest["outputs"] == ["<wall_s>"]
    assert isinstance(manifest["wall_s"], float) and manifest["wall_s"] > 0.0


@pytest.mark.parametrize("argv", [
    KITE_MAP_4 + ["--csv", "x", "--pgm", "x"],
    ["descend", "{sq}", "--traj", "x", "--final", "x"],
    # an output onto the manifest of the first
    KITE_MAP_4 + ["--csv", "a.csv", "--pgm", "a.csv.manifest.json"],
    # one file by its relative and its absolute path, and through a link
    KITE_MAP_4 + ["--csv", "a.csv", "--pgm", "{tmp}/a.csv"],
    KITE_MAP_4 + ["--csv", "a.csv", "--pgm", "link/a.csv"],
    # an output onto the .tmp file another output or the manifest is written through
    KITE_MAP_4 + ["--csv", "m.tmp", "--pgm", "m"],
    ["descend", "{sq}", "--traj", "t.csv.tmp", "--final", "t.csv"],
    KITE_MAP_4 + ["--csv", "a", "--pgm", "a.manifest.json.tmp"],
    # a file linked to another output, an output whose .tmp file is such a
    # link, and one file by a path through a directory and back
    KITE_MAP_4 + ["--csv", "a.csv", "--pgm", "alias.csv"],
    KITE_MAP_4 + ["--csv", "t.csv", "--pgm", "u.pgm"],
    KITE_MAP_4 + ["--csv", "sub/../a.csv", "--pgm", "a.csv"],
    # one directory by paths whose last name is ".", empty or ".."
    KITE_MAP_4 + ["--csv", "sub/.", "--pgm", "sub/"],
    ["descend", "{sq}", "--traj", "sub/..", "--final", "."],
], ids=["kite-map", "descend", "kite-map-manifest", "kite-map-absolute", "kite-map-link",
        "kite-map-tmp", "descend-tmp", "kite-map-manifest-tmp", "kite-map-file-link",
        "kite-map-tmp-link", "kite-map-parent", "kite-map-dot", "descend-dot-dot"])
def test_outputs_must_name_distinct_files(argv, tmp_path, capsys, monkeypatch):
    # refused before any input is read or anything computed, with no file written
    for name in ("_load", "descend", "kite_index_map", "_random_start"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **kw: pytest.fail(name))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link").symlink_to(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "alias.csv").symlink_to("a.csv")
    (tmp_path / "t.csv.tmp").symlink_to("u.pgm")
    assert main([a.format(sq=DATA / "square_1135.json", tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: outputs must name distinct files") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["alias.csv", "link", "sub",
                                                          "t.csv.tmp"]
    assert not list((tmp_path / "sub").iterdir())


def test_distinct_outputs_through_a_linked_directory_are_accepted(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "real").mkdir()
    (tmp_path / "link").symlink_to("real")
    for csv_out, pgm in (("link/m.csv", "link/m.pgm"), ("link/n.csv", "real/n.pgm")):
        assert main(KITE_MAP_4 + ["--csv", csv_out, "--pgm", pgm]) == 0
    assert sorted(p.name for p in (tmp_path / "real").iterdir()) == [
        "m.csv", "m.csv.manifest.json", "m.pgm", "n.csv", "n.csv.manifest.json", "n.pgm"]


def test_manifest_text_is_the_json_of_its_fields(tmp_path):
    m = cli.RunManifest("descend", {"config": None, "random": 4, "A": 3.0}, [],
                        outputs=["d.csv", "d.json"], tolerances={"tol": 1e-10, "max_iter": 5},
                        seed=3, wall_s=0.125,
                        counts={"iterations": 7, "reason": "converged", "i_drift": 1e-17,
                                "unknown": {"Hs": {"a, \"b\"": 2}}})
    m.write(str(tmp_path / "m.json"))
    text = (tmp_path / "m.json").read_text()
    doc = dict(asdict(m), wall_s="<wall_s>")
    assert text == json.dumps(doc, indent=2).replace('"<wall_s>"', "1.250000e-01") + "\n"
    assert json.loads(text) == asdict(m)


def test_eval_unknown_flag(triangle_file):
    with pytest.raises(SystemExit) as exc:
        main(["eval", triangle_file, "--bogus"])
    assert exc.value.code == 2


def test_descend_cli(square_file, tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    final = tmp_path / "final.json"
    assert main(["descend", square_file, "--traj", str(traj),
                 "--final", str(final)]) == 0
    header = traj.read_text().splitlines()[0]
    assert header == "step,x1,y1,x2,y2,x3,y3,x4,y4,I,f"
    cfg, params = config_from_json(final.read_text())
    from twistcc.twist import cc_residual
    assert cc_residual(cfg, params, 1e-10).is_cc
    # deterministic rerun: byte-identical outputs
    first = traj.read_bytes()
    assert main(["descend", square_file, "--traj", str(traj),
                 "--final", str(final)]) == 0
    assert traj.read_bytes() == first


@pytest.mark.parametrize("max_iter", ["50000", "4"])
def test_descend_trajectory_has_one_row_per_configuration(square_file, max_iter, tmp_path,
                                                          capsys):
    # a converged run and a --max-iter stop: the start and each iterate once
    traj = tmp_path / "traj.csv"
    converged = max_iter == "50000"
    assert main(["descend", square_file, "--max-iter", max_iter, "--traj", str(traj)]) == (
        0 if converged else 1)
    out = capsys.readouterr().out
    iterations = int(out.split("iterations = ")[1].split()[0])
    assert ("reason = converged" if converged else "reason = max_iter") in out
    rows = [r.split(",")[1:] for r in traj.read_text().splitlines()[1:]]
    assert len(rows) == iterations + 1
    assert all(a != b for a, b in zip(rows, rows[1:]))


def test_descend_reports_stop_reason(tmp_path, capsys):
    final = tmp_path / "d6.json"
    assert main(["descend", "--random", "6", "--seed", "1", "--final", str(final)]) == 0
    out = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert list(out)[4:] == ["collinear_collapse", "reason", "newton_steps", "i_drift"]
    assert out["reason"] == "converged" and out["newton_steps"] == "2"
    manifest = json.loads((tmp_path / "d6.json.manifest.json").read_text())
    assert manifest["seed"] == 1
    assert manifest["arguments"] == {"config": None, "random": 6, "A": 3.0}
    # max_step_i_drift is not printed: the in-process run of the same start recounts it
    report = descend(cli._random_start(6, 1), PotentialParams(3.0))
    assert report.max_step_i_drift > 0.0
    assert manifest["counts"] == {"iterations": int(out["iterations"]), "newton_steps": 2,
                                  "newton_rejected": 0, "reason": "converged", "i_drift": float(out["i_drift"]),
                                  "max_step_i_drift": report.max_step_i_drift}


@pytest.mark.parametrize("stop", ["collapse", "line_search_exhausted"])
def test_descend_reports_collapse_and_exhausted_line_search(stop, square_file, tmp_path,
                                                            capsys, monkeypatch):
    # a span basis one short of full rank at every iterate, or a line search
    # that finds no step: the run stops with that reason, in its manifest too
    if stop == "collapse":
        monkeypatch.setattr(solver, "twist_span_basis",
                            lambda table: (lambda b, dim: (b, dim - 1))(*twist_span_basis(table)))
    else:
        monkeypatch.setattr(solver, "_armijo_step", lambda *a: None)
    final = tmp_path / "d.json"
    assert main(["descend", square_file, "--final", str(final)]) == 1
    out = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert out["reason"] == stop and out["converged"] == "False"
    assert out["collinear_collapse"] == str(stop == "collapse")
    # either stops the run where it starts
    assert out["iterations"] == "0"
    manifest = json.loads((tmp_path / "d.json.manifest.json").read_text())
    assert manifest["counts"]["reason"] == stop
    assert manifest["counts"]["iterations"] == 0


@pytest.mark.parametrize("argv, flag", [
    (["eval", "{sq}", "--tol", "nan"], "--tol"),
    (["eval", "{sq}", "--tol", "0"], "--tol"),
    (["eval", "{sq}", "--tol", "-1"], "--tol"),
    (["descend", "{sq}", "--tol", "nan"], "--tol"),
    (["descend", "--random", "4", "--tol", "0"], "--tol"),
    (["descend", "--random", "4", "--tol", "-1"], "--tol"),
    (["descend", "{sq}", "--max-iter", "-3"], "--max-iter"),
    (["descend", "--random", "4", "--seed", "-1"], "--seed"),
    # a file carries its own A and draws nothing, so both flags would be ignored
    (["descend", "{sq}", "--A", "5"], "--A"),
    (["descend", "{sq}", "--seed", "0"], "--seed"),
], ids=["eval-tol-nan", "eval-tol-0", "eval-tol-neg", "descend-tol-nan", "descend-tol-0",
        "descend-tol-neg", "descend-max-iter-neg", "descend-seed-neg", "descend-file-A",
        "descend-file-seed"])
def test_eval_and_descend_refuse_meaningless_flags(argv, flag, tmp_path, capsys, monkeypatch):
    # refused before the file is read or a start drawn, with no file written
    for name in ("_load", "descend", "_random_start", "cc_residual"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **kw: pytest.fail(name))
    out = ["--csv" if argv[0] == "eval" else "--final", str(tmp_path / "out")]
    assert main([a.format(sq=DATA / "square_1135.json") for a in argv] + out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["flow", "{sq}", "--pairs", "1-9", "--traj", "{out}"], "'1-9'"),
    (["flow", "{sq}", "--pairs", "a-b", "--traj", "{out}"], "'a-b'"),
    (["flow", "{sq}", "--pairs", "1-2:x", "--traj", "{out}"], "'1-2:x'"),
    (["eval", "{missing}", "--csv", "{out}"], "{missing}"),
    (["lagrange", "--masses", "1,x,3", "--csv", "{out}"], "'1,x,3'"),
    (["eval", "{three}", "--csv", "{out}"], "3 positions for 4 masses"),
], ids=["flow-pair-range", "flow-pair-text", "flow-pair-coeff", "eval-missing",
        "lagrange-masses", "positions-for-masses"])
def test_input_errors_exit_2_without_output(argv, message, tmp_path, capsys):
    doc = json.loads((DATA / "square_1135.json").read_text())
    inputs = tmp_path / "in"
    inputs.mkdir()
    (inputs / "three.json").write_text(json.dumps({**doc, "positions": doc["positions"][:3]}))
    names = {"sq": DATA / "square_1135.json", "missing": inputs / "missing.json",
             "three": inputs / "three.json", "out": tmp_path / "out"}
    assert main([a.format(**names) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message.format(**names) in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["in"]
    assert [p.name for p in inputs.iterdir()] == ["three.json"]


def test_descend_random_start_is_the_rejection_draw(monkeypatch):
    from test_solver import cli_random_start
    starts = []
    monkeypatch.setattr(cli, "descend", lambda config, params, **kw:
                        starts.append(config) or descend(config, params, max_iter=0))
    for n in (4, 5, 6, 8, 20):
        for seed in range(10):
            main(["descend", "--random", str(n), "--seed", str(seed)])
            want = cli_random_start(n, seed).positions
            assert starts[-1].positions.tobytes() == want.tobytes()
    assert len(starts) == 50


def test_descend_random_gives_up_after_bounded_draws(capsys):
    # 40 bodies more than 0.2 apart in [-1, 1]^2 are practically never drawn
    t0 = time.perf_counter()
    assert main(["descend", "--random", "40", "--seed", "1", "--max-iter", "1"]) == 2
    assert time.perf_counter() - t0 < 10.0
    err = capsys.readouterr().err
    assert "--random 40" in err and "0.2" in err and str(cli.RANDOM_MAX_DRAWS) in err


@pytest.mark.parametrize("n", ["155", "1000"])
def test_descend_random_refuses_bodies_that_cannot_fit(n, capsys, monkeypatch):
    # 155 disjoint disks of radius 0.1 need 155 * pi * 0.01 > 2.2^2 of area:
    # refused before any draw (a draw at N = 1000 would need two 1 GB arrays)
    monkeypatch.setattr(cli, "_random_start", lambda *a: pytest.fail("drew a start"))
    assert main(["descend", "--random", n, "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"--random {n}" in err and "0.2" in err


def test_descend_refuses_a_file_and_random(square_file, tmp_path, capsys, monkeypatch):
    # refused before the file is read or a start drawn, with no file written
    for name in ("_load", "descend", "_random_start"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **kw: pytest.fail(name))
    assert main(["descend", square_file, "--random", "5", "--seed", "3",
                 "--final", str(tmp_path / "x.json")]) == 2
    assert "--random N, not both" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["square.json"]


def test_descend_random_seeded(tmp_path):
    traj1 = tmp_path / "r1.csv"
    traj2 = tmp_path / "r2.csv"
    assert main(["descend", "--random", "4", "--seed", "7", "--traj", str(traj1)]) == 0
    assert main(["descend", "--random", "4", "--seed", "7", "--traj", str(traj2)]) == 0
    assert traj1.read_bytes() == traj2.read_bytes()
    assert main(["descend"]) == 2  # neither config nor --random


@pytest.mark.parametrize("n", ["1", "0", "-2"])
def test_descend_random_needs_two_bodies(n, capsys):
    assert main(["descend", "--random", n]) == 2
    assert "N >= 2" in capsys.readouterr().err


def test_flow_cli(square_file, tmp_path):
    traj = tmp_path / "flow.csv"
    assert main(["flow", square_file, "--pairs", "1-2:1.0,1-3:1.0,1-4:1.0",
                 "--dt", "0.001", "--steps", "200", "--traj", str(traj)]) == 0
    rows = traj.read_text().splitlines()
    assert len(rows) == 202
    first = rows[1].split(",")
    last = rows[-1].split(",")
    assert abs(float(last[-2]) - float(first[-2])) < 1e-8 * float(first[-2])  # I conserved


def test_flow_stop_is_in_its_manifest(square_file, tmp_path, capsys):
    # a flow that overflows in its first step stops after step 0
    traj = tmp_path / "flow.csv"
    assert main(["flow", square_file, "--pairs", "1-2:1e300", "--dt", "1", "--steps", "5",
                 "--traj", str(traj)]) == 0
    assert capsys.readouterr().out == "steps_completed = 0\n"
    manifest = json.loads((tmp_path / "flow.csv.manifest.json").read_text())
    assert manifest["counts"] == {"steps_completed": 0}


@pytest.mark.parametrize("steps", [str(4 ** 11), "1000000000000"])
def test_flow_refuses_trajectories_over_the_limit(steps, square_file, tmp_path, capsys,
                                                 monkeypatch):
    # four bodies: steps + 1 rows of 8 coordinates above 8 * MAX_CELLS, so 4^11
    # steps is the fewest refused; refused before the flow runs, with nothing
    # allocated and no file written
    monkeypatch.setattr(cli, "flow_fixed_combo", lambda *a, **kw: pytest.fail("flowed"))
    traj = tmp_path / "flow.csv"
    tracemalloc.start()
    try:
        assert main(["flow", square_file, "--pairs", "1-2", "--steps", steps,
                     "--traj", str(traj)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"--steps {steps}" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["square.json"]


def test_hessian_cli_lagrange_structure(triangle_file, tmp_path, capsys):
    out = tmp_path / "hess.csv"
    assert main(["hessian", triangle_file, "--normalized", "--csv", str(out)]) == 0
    txt = capsys.readouterr().out
    assert "signature = (0 neg, 1 zero, 2 pos)" in txt
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    entries = {(r[1], r[2]): float(r[5]) for r in rows if r[0] == "entry"}
    # off-diagonal entries of the equilateral twist Hessian are all -3A/4
    A = 3.0
    for a in range(3):
        for b in range(3):
            if a != b:
                assert entries[(str(a), str(b))] == pytest.approx(-3 * A / 4, rel=1e-12)


def test_hessian_run_builds_one_pair_table(square_file, monkeypatch, capsys):
    # the span basis and the assembled matrix read the same table
    calls = []
    init = PairTable.__init__
    monkeypatch.setattr(PairTable, "__init__",
                        lambda self, *args: calls.append(1) or init(self, *args))
    assert main(["hessian", square_file]) == 0
    assert len(calls) == 1


def test_kite_map_cli(tmp_path):
    csv_out = tmp_path / "map.csv"
    pgm_out = tmp_path / "map.pgm"
    assert main(["kite-map", "--z3", "1.75:2.05:10", "--z4", "0.76:0.86:10",
                 "--A", "3", "--csv", str(csv_out), "--pgm", str(pgm_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0].startswith("z3,z4,class,mu31,mu41,x2,idx_Hs,idx_Ha,idx_total")
    assert len(lines) == 101
    assert pgm_out.read_bytes().startswith(b"P5\n10 10\n255\n")
    manifest = json.loads((tmp_path / "map.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "kite-map"
    # config re-read round trip: x2 column reproduces the float exactly
    from twistcc.kite import KiteShape, kite_scale
    for line in lines[1:]:
        parts = line.split(",")
        if parts[2] in ("tall", "wide") and parts[5]:
            x2 = kite_scale(KiteShape(float(parts[0]), float(parts[1])),
                            PotentialParams(3.0))
            assert float(parts[5]) == x2


def test_certify_cli(tmp_path):
    out = tmp_path / "cert.csv"
    assert main(["certify", "--z3", "1.99,2.01", "--z4", "0.79,0.81",
                 "--A", "3", "--subdivide", "1", "--csv", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "z3_lo,z3_hi,z4_lo,z4_hi,idx_Hs,cert_Hs,idx_Ha,cert_Ha,idx_total"
    assert len(lines) == 5


@pytest.mark.parametrize("argv, message", [
    (["certify", "--z3", "1.99,2.01", "--z4", "0.79,0.81", "--subdivide", "-3"],
     "--subdivide"),
    (["certify", "--z3", "1.99,inf", "--z4", "0.79,0.81"], "bad interval"),
    (["kite-map", "--z3", "1:inf:3", "--z4", "0.1:0.2:2"], "bad range"),
    (["kite-map", "--z3", "1:2:3", "--z4=-inf:0.2:2"], "bad range"),
    # A <= 2 is refused up front, also where no box or cell is admissible
    (["certify", "--z3", "0.2,0.3", "--z4", "0.8,0.81", "--A", "2"], "requires A > 2"),
    (["kite-map", "--z3", "0.1:0.2:2", "--z4", "0.5:0.6:2", "--A", "2"], "requires A > 2"),
    # more than MAX_CELLS = 4^11 boxes or cells
    (["certify", "--z3", "1.0,2.2", "--z4", "0.01,0.87", "--subdivide", "12"],
     "--subdivide 12"),
    (["certify", "--z3", "1.0,2.2", "--z4", "0.01,0.87", "--subdivide", "64"],
     "--subdivide 64"),
    (["kite-map", "--z3", "1.0:2.2:2049", "--z4", "0.01:0.87:2049"], "--z3 1.0:2.2:2049"),
])
def test_certify_kite_map_reject_bad_windows(argv, message, tmp_path, capsys, monkeypatch):
    # refused before the map or the certificates are computed, with nothing
    # allocated and no file written
    for name in ("kite_index_map", "certify_boxes"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **kw: pytest.fail(name))
    out = tmp_path / "out.csv"
    tracemalloc.start()
    try:
        assert main(argv + ["--csv", str(out)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# every subcommand, with its outputs named, on an exponent at or below 2: a
# config file's "A" or the --A option (None puts the file's path in its place)
EXPONENT_CASES = [
    *[(argv, A) for A in (2, 1.5) for argv in (
        ["eval", None, "--csv", "out.csv"],
        ["hessian", None, "--csv", "out.csv"],
        ["flow", None, "--pairs", "1-2", "--traj", "out.csv"],
        ["descend", None, "--traj", "out.csv", "--final", "out.json"],
    )],
    (["descend", "--random", "4", "--A", "2", "--traj", "out.csv", "--final", "out.json"],
     None),
    (["kite-map", "--z3", "1.0:2.2:4", "--z4", "0.01:0.87:4", "--A", "2",
      "--csv", "out.csv", "--pgm", "out.pgm"], None),
    (["certify", "--z3", "1.99,2.01", "--z4", "0.79,0.81", "--A", "2", "--csv", "out.csv"],
     None),
    (["lagrange", "--masses", "1,2,3", "--A", "2", "--csv", "out.csv"], None),
]


@pytest.mark.parametrize("argv, A", EXPONENT_CASES, ids=[
    f"{argv[0]}-file-A{A}" if A is not None else f"{argv[0]}-option" for argv, A in EXPONENT_CASES])
def test_every_subcommand_refuses_A_at_or_below_2(argv, A, tmp_path, capsys, monkeypatch):
    # refused where the exponent is read, before any computation or output
    for name in ("cc_residual", "descend", "flow_fixed_combo", "assemble_twist_hessian",
                 "kite_index_map", "certify_boxes", "_random_start"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **kw: pytest.fail(name))
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    inputs = []
    if A is not None:
        doc = json.loads((DATA / "square_1135.json").read_text())
        config.write_text(json.dumps({**doc, "A": A}))
        inputs = [config.name]
    assert main([str(config) if a is None else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert "requires A > 2" in err
    assert f"error: {config}: " in err or not inputs
    assert [p.name for p in tmp_path.iterdir()] == inputs


def test_kite_map_overflow_cells_are_errors(tmp_path):
    # at A = 700 the mass ratios of some wide kites reach 1e-160, and the
    # normalized Hessian overflows; those cells are errors, not a crash
    out = tmp_path / "map.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["kite-map", "--z3", "1.0:2.2:40", "--z4", "0.01:0.87:40",
                     "--A", "700", "--csv", str(out)]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    bad = [r for r in rows if r["error"].startswith("NonFiniteHessianError")]
    assert bad and all(r["idx_total"] == "" for r in bad)


@pytest.mark.parametrize("A", ["3", "15", "700"])
def test_kite_map_manifest_counts(A, tmp_path):
    out = tmp_path / "map.csv"
    assert main(["kite-map", "--z3", "1.0:2.2:30", "--z4", "0.01:0.87:30", "--A", A,
                 "--csv", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    manifest = json.loads((tmp_path / "map.csv.manifest.json").read_text())
    admissible = [r for r in rows if r["class"] in ("tall", "wide")]
    assert manifest["counts"] == {
        "cells": len(rows),
        "admissible": len(admissible),
        "computed": sum(1 for r in admissible
                        if not r["error"] and r["degenerate_flag"] == "0"),
        "degenerate": sum(1 for r in admissible
                          if not r["error"] and r["degenerate_flag"] == "1"),
        "errors": dict(Counter(r["error"].split(":")[0] for r in admissible if r["error"])),
    }
    assert manifest["wall_s"] > 0.0


def test_certify_overflow_midpoint_is_unknown(tmp_path):
    out = tmp_path / "cert.csv"
    assert main(["certify", "--z3", "1.04,1.06", "--z4", "0.01,0.03", "--A", "1000",
                 "--subdivide", "1", "--csv", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for r in rows:
        assert r["idx_Ha"] == "Unknown"
        assert r["cert_Ha"].startswith("no 2x2 principal minor of H_a decided")


@pytest.mark.parametrize("z3, z4, subdivide, A", WINDOWS)
def test_certify_manifest_counts(z3, z4, subdivide, A, tmp_path, capsys):
    # inadmissible, undecided, decided and failed boxes, at A = 3 and 1000
    out = tmp_path / "cert.csv"
    assert main(["certify", "--z3", f"{z3[0]!r},{z3[1]!r}", "--z4", f"{z4[0]!r},{z4[1]!r}",
                 "--subdivide", str(subdivide), "--A", str(A), "--csv", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    manifest = json.loads((tmp_path / "cert.csv.manifest.json").read_text())
    assert manifest["counts"] == {
        "boxes": len(rows),
        "admissible": sum(1 for r in rows
                          if r["cert_Hs"] != "box not verified inside one admissible class"),
        "decided": {b: sum(1 for r in rows if r[f"idx_{b}"] != "Unknown")
                    for b in ("Hs", "Ha")},
        "unknown": {b: dict(Counter(r[f"cert_{b}"].split(":")[0]
                                    for r in rows if r[f"idx_{b}"] == "Unknown"))
                    for b in ("Hs", "Ha")},
    }
    if (z3, z4, subdivide) == ((1.725, 1.745), (0.695, 0.705), 3):
        # straddles z3 = sqrt3, so the boxes mix decided, inadmissible and undecided
        assert 0 < manifest["counts"]["decided"]["Ha"] < len(rows)
    assert manifest["wall_s"] > 0.0
    # coverage over every box, then over the admissible ones
    decided = sum(1 for r in rows if r["idx_total"] != "Unknown")
    admissible = manifest["counts"]["admissible"]
    assert capsys.readouterr().out.splitlines() == [
        f"boxes = {len(rows)}, certified = {decided}, coverage = {decided / len(rows):.3f}",
        f"admissible = {admissible}, admissible_coverage = "
        f"{decided / admissible if admissible else math.nan:.3f}",
    ]


def test_certify_admissible_coverage_without_admissible_boxes(tmp_path, capsys):
    # the full window as one box is neither tall nor wide throughout
    out = tmp_path / "cert.csv"
    assert main(["certify", "--z3", "1.0,2.2", "--z4", "0.01,0.87", "--csv", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "admissible = 0, admissible_coverage = nan"
    assert json.loads((tmp_path / "cert.csv.manifest.json").read_text())["counts"]["admissible"] == 0


@pytest.mark.parametrize("dt, pairs", [
    ("nan", "1-2:1.0"),
    ("inf", "1-2:1.0"),
    ("1e-3", "1-2:nan"),
    ("1e-3", "1-2:1.0,1-3:inf"),
])
def test_flow_rejects_non_finite(dt, pairs, square_file, tmp_path, capsys):
    traj = tmp_path / "flow.csv"
    assert main(["flow", square_file, "--pairs", pairs, "--dt", dt, "--steps", "10",
                 "--traj", str(traj)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not traj.exists()


def test_lagrange_cli(tmp_path, capsys):
    out = tmp_path / "lagrange.csv"
    assert main(["lagrange", "--masses", "1,2,3", "--A", "3", "--csv", str(out)]) == 0
    txt = capsys.readouterr().out
    assert "signature = (0 neg, 1 zero, 2 pos)" in txt
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    coeffs = {r[1]: float(r[5]) for r in rows if r[0] == "charpoly"}
    assert coeffs["a1"] == pytest.approx(-8.0, rel=1e-14)
    assert coeffs["a2"] == 1.0
    assert main(["lagrange", "--masses", "1,-2,3"]) == 2


def test_bundled_examples(tmp_path):
    assert main(["eval", str(DATA / "lagrange_123.json")]) == 0
    traj = tmp_path / "traj.csv"
    assert main(["descend", str(DATA / "square_1135.json"),
                 "--traj", str(traj)]) == 0
    assert traj.exists()


def test_roundtrip_17_digits(tmp_path):
    # values written by the CLI re-read to the identical double
    vals = [math.pi, 1 / 3, 2 ** -40, 1.2345678901234567e-7]
    from twistcc.cli import fmt
    for v in vals:
        assert float(fmt(v)) == v


# --- one parser per process ---------------------------------------------------------

def _outputs(argv, out_dir, capsys):
    """(exit status, stdout, files) of one `main` call writing into out_dir;
    manifests without their timestamp and wall time."""
    for path in out_dir.iterdir():
        path.unlink()
    rc = main(argv)
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.name.endswith(".manifest.json"):
            doc = json.loads(path.read_text())
            del doc["timestamp_utc"], doc["wall_s"]
            files[path.name] = doc
        else:
            files[path.name] = path.read_bytes()
    return rc, capsys.readouterr().out, files


@pytest.mark.parametrize("first, second", [
    (["hessian", "{sq}", "--normalized", "--csv", "{out}/h.csv"],
     ["hessian", "{sq}", "--csv", "{out}/h.csv"]),
    (["descend", "--random", "4", "--seed", "3", "--max-iter", "5",
      "--traj", "{out}/d.csv", "--final", "{out}/d.json"],
     ["descend", "{sq}", "--max-iter", "5", "--traj", "{out}/d.csv", "--final", "{out}/d.json"]),
    (["hessian", "{sq}", "--bogus"], ["hessian", "{sq}", "--csv", "{out}/h.csv"]),
])
def test_main_reuses_its_parser_without_leaks(first, second, tmp_path, capsys):
    # a call after another in the same process gives the outputs of a fresh call
    out_dir = tmp_path / "out"
    out_dir.mkdir()

    def argv(args):
        return [a.format(sq=DATA / "square_1135.json", out=out_dir) for a in args]

    cli._parser.cache_clear()
    fresh = _outputs(argv(second), out_dir, capsys)
    cli._parser.cache_clear()
    if "--bogus" in first:
        with pytest.raises(SystemExit) as exc:
            main(argv(first))
        assert exc.value.code == 2
    else:
        main(argv(first))
    capsys.readouterr()
    parser = cli._parser()
    assert _outputs(argv(second), out_dir, capsys) == fresh
    assert cli._parser() is parser


# --- CSV tables match csv.writer ----------------------------------------------------

def assert_table(path, ref):
    """The file holds exactly what csv.writer writes for the reference fields."""
    text = path.read_bytes().decode()
    assert text == csv_text_ref(*ref)
    assert "\r" not in text        # csv.writer leaves \r unquoted; csv_field quotes it


# the bundled configurations, and seeded random ones of the benchmark's sizes
@pytest.mark.parametrize("name", ["square_1135.json", "lagrange_123.json", 10, 20, 40])
def test_eval_and_hessian_tables_match_csv_writer(name, rng, tmp_path):
    path = DATA / str(name)
    if isinstance(name, int):
        path = tmp_path / f"random_{name}.json"
        path.write_text(config_to_json(random_config(rng, name, min_sep=0.05),
                                       PotentialParams(3.0)))
    config, params = load_config(path)
    main(["eval", str(path), "--csv", str(tmp_path / "e.csv")])
    assert_table(tmp_path / "e.csv", eval_table_ref(config, params))
    table = build_pair_table(config, params)
    basis, dim = twist_span_basis(table)
    assert dim == 2 * config.n - 3
    for normalized in (False, True):
        main(["hessian", str(path), "--csv", str(tmp_path / "h.csv")]
             + ["--normalized"] * normalized)
        tm = assemble_twist_hessian(table, basis, normalized=normalized)
        assert_table(tmp_path / "h.csv", matrix_table_ref(tm))


def test_lagrange_table_matches_csv_writer(tmp_path):
    assert main(["lagrange", "--masses", "1,2,3", "--csv", str(tmp_path / "l.csv")]) == 0
    tm = assemble_twist_hessian(build_pair_table(equilateral_config((1.0, 2.0, 3.0)),
                                                 PotentialParams(3.0)),
                                [(0, 1), (0, 2), (1, 2)], normalized=True)
    header, rows = matrix_table_ref(tm)
    rows += [["charpoly", name, "", "", "", f"{v:.17g}"]
             for name, v in zip(("a0", "a1", "a2"), lagrange_char_poly_coeffs((1, 2, 3)))]
    assert_table(tmp_path / "l.csv", (header, rows))


def test_written_twist_matrices_are_exactly_symmetric(monkeypatch, rng, tmp_path):
    # `_matrix_table` formats the upper triangle once and mirrors it
    seen = []
    table = cli._matrix_table
    monkeypatch.setattr(cli, "_matrix_table", lambda tm, w: seen.append(tm) or table(tm, w))
    files = [str(DATA / "square_1135.json"), str(DATA / "lagrange_123.json")]
    for n in (5, 12):
        files.append(str(tmp_path / f"r{n}.json"))
        pathlib.Path(files[-1]).write_text(config_to_json(random_config(rng, n),
                                                          PotentialParams(3.0)))
    for path in files:
        for normalized in (False, True):
            assert main(["hessian", path, "--csv", str(tmp_path / "h.csv")]
                        + ["--normalized"] * normalized) == 0
    for masses in ("1,2,3", "0.3,5,1.7"):
        assert main(["lagrange", "--masses", masses, "--csv", str(tmp_path / "l.csv")]) == 0
    assert len(seen) == 2 * len(files) + 2
    for tm in seen:
        M = tm.matrix
        assert np.array_equal(M, M.T)
        assert M.tobytes() == np.ascontiguousarray(M.T).tobytes()  # signed zeros too


def test_trajectory_tables_match_csv_writer(tmp_path):
    config, params = load_config(DATA / "square_1135.json")
    main(["flow", str(DATA / "square_1135.json"), "--pairs", "1-2:1.0,2-4:-0.5",
          "--steps", "40", "--traj", str(tmp_path / "f.csv")])
    states = flow_fixed_combo(config, FlowSpec(((1.0, (0, 1)), (-0.5, (1, 3))), 1e-3, 40))
    assert_table(tmp_path / "f.csv", trajectory_table_ref(states, params))
    main(["descend", str(DATA / "square_1135.json"), "--max-iter", "30",
          "--traj", str(tmp_path / "d.csv")])
    report = descend(config, params, tol=1e-10, max_iter=30, record=True)
    states = [PlanarConfig(pos, config.masses) for _, pos, _, _ in report.history]
    assert states[-1].positions.tobytes() == report.config.positions.tobytes()
    assert_table(tmp_path / "d.csv", trajectory_table_ref(states, params))


@pytest.mark.parametrize("n3, n4, A", [
    pytest.param(40, 40, 3.0, id="3.0"),
    pytest.param(40, 40, 1000.0, id="1000.0"),
    # not square, so a z3 and z4 column or raster axis swapped fails
    pytest.param(37, 23, 3.0, id="37x23"),
])
def test_kite_map_table_matches_csv_writer(n3, n4, A, tmp_path):
    out, pgm = tmp_path / "map.csv", tmp_path / "map.pgm"
    assert main(["kite-map", "--z3", f"1.0:2.2:{n3}", "--z4", f"0.01:0.87:{n4}", "--A", str(A),
                 "--csv", str(out), "--pgm", str(pgm)]) == 0
    m = kite_index_map(1.0, 2.2, n3, 0.01, 0.87, n4, PotentialParams(A))
    assert_table(out, kite_map_table_ref(m))
    header = f"P5\n{n3} {n4}\n255\n".encode("ascii")
    assert pgm.read_bytes() == header + pgm_pixels_ref(m, n3, n4).tobytes()
    if A == 1000.0:     # error texts with commas come back quoted
        assert any("," in e for e in m.errors) and '"' in out.read_text()


# a NaN with a payload other than the default quiet NaN's
PAYLOAD_NAN = float(np.array([0x7FF8000000000001], np.uint64).view(np.float64)[0])
SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, PAYLOAD_NAN, math.inf, -math.inf,
                  5e-324, -2.2250738585072009e-308, 1.0, 0.1]


@given(st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(), max_size=30))
def test_formatted_matches_per_value_format(values):
    a = np.array(values * 2, dtype=np.float64)      # every value repeated
    column = np.column_stack([a, a[::-1]])[:, 0]     # a non-contiguous view
    for v in (a, column):
        assert cli._formatted(v) == ["" if x != x else f"{x:.17g}" for x in v.tolist()]


@pytest.mark.parametrize("z3, z4, subdivide, A", WINDOWS)
def test_certify_table_matches_csv_writer(z3, z4, subdivide, A, tmp_path):
    out = tmp_path / "cert.csv"
    assert main(["certify", "--z3", f"{z3[0]!r},{z3[1]!r}", "--z4", f"{z4[0]!r},{z4[1]!r}",
                 "--subdivide", str(subdivide), "--A", str(A), "--csv", str(out)]) == 0
    certs = certify_boxes(*box_lanes(window_boxes(z3, z4, subdivide)), PotentialParams(A))
    assert_table(out, certify_table_ref(box_certificates(certs)))


TEXT = st.text(alphabet=st.sampled_from('ab ,"\n\r'), max_size=8)


@given(st.lists(TEXT, min_size=2, max_size=4))
def test_csv_field_round_trips(fields):
    line = ",".join(map(csv_field, fields))
    assert next(csv.reader(io.StringIO(line + "\n"))) == fields
    plain = [f.replace("\r", "") for f in fields]      # csv.writer leaves \r unquoted
    assert ",".join(map(csv_field, plain)) + "\n" == csv_text_ref(plain, [])


def test_csv_field_quotes_carriage_return():
    assert csv_field("a\rb") == '"a\rb"'
    assert csv_field("") == "" and csv_field("Ha+Hs") == "Ha+Hs"


@st.composite
def csv_tables(draw):
    """(header, rows, columns): a table of 1-6 columns and 0-40 rows, each
    column either free text, quoted through `csv_field` as callers quote it,
    or floats through `_formatted`.  A one-column table has no empty field:
    csv.writer writes a row of one empty field as "", which an empty line
    would not read back as."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(0, 40))
    text = TEXT if width > 1 else TEXT.filter(bool)
    floats = st.sampled_from(SPECIAL_FLOATS) | st.floats()
    if width == 1:
        floats = floats.filter(lambda x: x == x)
    header, fields, columns = draw(st.lists(text, min_size=width, max_size=width)), [], []
    for _ in range(width):
        if draw(st.booleans()):
            texts = draw(st.lists(text, min_size=height, max_size=height))
            columns.append([csv_field(t) for t in texts])
        else:
            values = draw(st.lists(floats, min_size=height, max_size=height))
            columns.append(cli._formatted(np.array(values, dtype=np.float64)))
            texts = ["" if x != x else f"{x:.17g}" for x in values]
        fields.append(texts)
    return header, [list(row) for row in zip(*fields)], columns


@given(table=csv_tables())
def test_csv_writer_matches_csv_module(table, tmp_path_factory):
    header, rows, columns = table
    path = tmp_path_factory.getbasetemp() / "table.csv"
    cli.write_csv_atomic(str(path), header, columns)
    text = path.read_bytes().decode()
    assert list(csv.reader(io.StringIO(text))) == [header, *rows]
    if "\r" not in text:        # csv.writer leaves \r unquoted; csv_field quotes it
        assert text == csv_text_ref(header, rows)


@pytest.mark.parametrize("columns", [
    [["1", "2"], ["3"]],
    [["1"], ["2", "3"]],
    [iter(["1", "2"]), map(str, range(3))],
    (column for column in (["1", "2"], ["3", "4"], ["5"])),
])
def test_write_csv_atomic_refuses_a_ragged_table(columns, tmp_path):
    path = tmp_path / "ragged.csv"
    with pytest.raises(ValueError):
        cli.write_csv_atomic(str(path), ["a", "b"], columns)
    assert list(tmp_path.iterdir()) == []       # neither the table nor its .tmp


def test_tables_are_formatted_only_when_written(monkeypatch, tmp_path, capsys):
    # eval and lagrange print their summaries; rows are formatted for --csv only
    calls = []
    texts = cli._texts
    monkeypatch.setattr(cli, "_texts", lambda values: calls.append(values) or texts(values))
    assert main(["eval", str(DATA / "lagrange_123.json")]) == 0
    assert main(["lagrange", "--masses", "1,2,3"]) == 0
    assert calls == []
    assert main(["eval", str(DATA / "lagrange_123.json"), "--csv", str(tmp_path / "e.csv")]) == 0
    assert main(["lagrange", "--masses", "1,2,3", "--csv", str(tmp_path / "l.csv")]) == 0
    assert len(calls) == 3 + 2
