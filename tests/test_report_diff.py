"""The structural-equivalence gate ``tools/report_diff.py compare``."""
import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", _PATH)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def structure_run(points, exit_code=0, offending=()):
    doc = {
        "version": "0.1.0",
        "input_digest": "ab12",
        "tol": 1e-12,
        "seed": 0,
        "minimality": {
            "e_controllable": True,
            "e_observable": True,
            "strongly_minimal": not offending,
            "offending_eigenvalues": [
                {"value": v, "side": side} for v, side in offending
            ],
        },
        "reduction": None,
        "structure": {
            "normal_rank": 2,
            "finite_points": [
                {"point": [z.real, z.imag], "indices": idx} for z, idx in points
            ],
            "infinity_indices": [-1],
            "right_minimal": [],
            "left_minimal": [],
            "polar_degree": 2,
            "zero_degree": 1,
            "mcmillan_degree": 2,
        },
        "degree_sum_ok": True,
    }
    return {"exit": exit_code, "stdout": json.dumps(doc) + "\n", "stderr": ""}


POINTS = [(0.5 + 1.25j, [1]), (0.5 - 1.25j, [1]), (-2.0 + 0j, [-2])]


def dumps(points_b, **kwargs):
    a = {"reports": {"corpus/1|structure|s0": structure_run(POINTS)}}
    b = {"reports": {"corpus/1|structure|s0": structure_run(points_b, **kwargs)}}
    return a, b


def moved(rel):
    return [(z * (1 + rel), idx) for z, idx in POINTS]


def test_identical_dumps_have_zero_drift():
    a, b = dumps(POINTS)
    assert report_diff.compare_dumps(a, b, 0.0) == ([], 0.0, "corpus/1|structure|s0")


def test_rounding_drift_passes():
    problems, drift, _ = report_diff.compare_dumps(*dumps(moved(1e-12)), 1e-8)
    assert problems == []
    assert 0 < drift < 1e-11


def test_large_drift_fails():
    problems, _, _ = report_diff.compare_dumps(*dumps(moved(1e-6)), 1e-8)
    assert [key for key, _ in problems] == ["corpus/1|structure|s0"]
    assert "drift" in problems[0][1]


def test_changed_index_fails():
    points = copy.deepcopy(POINTS)
    points[2] = (points[2][0], [-1])
    problems, _, _ = report_diff.compare_dumps(*dumps(points), 1e-8)
    assert len(problems) == 1 and "counts per index" in problems[0][1]


def test_missing_point_fails():
    problems, _, _ = report_diff.compare_dumps(*dumps(POINTS[:2]), 1e-8)
    assert len(problems) == 1


def test_changed_exit_code_fails():
    problems, _, _ = report_diff.compare_dumps(*dumps(POINTS, exit_code=2), 1e-8)
    assert len(problems) == 1 and "exit code" in problems[0][1]


def test_conjugate_pair_matched_one_to_one():
    # Listing order, and real parts equal up to the last digit, do not pair
    # a point with its conjugate.
    swapped = [POINTS[1], POINTS[0], POINTS[2]]
    problems, drift, _ = report_diff.compare_dumps(*dumps(swapped), 0.0)
    assert (problems, drift) == ([], 0.0)


def test_offending_eigenvalues_matched_by_side():
    a = {"reports": {"k": structure_run(POINTS, offending=[([0.0, 0.0], "right"), ("inf", "left")])}}
    b = {"reports": {"k": structure_run(POINTS, offending=[("inf", "left"), ([1e-13, 0.0], "right")])}}
    assert report_diff.compare_dumps(a, b, 1e-8)[0] == []
    c = {"reports": {"k": structure_run(POINTS, offending=[([0.0, 0.0], "left"), ("inf", "left")])}}
    assert len(report_diff.compare_dumps(a, c, 1e-8)[0]) == 1


def test_reduced_quadruples_compared_by_shape_and_counts():
    doc = {"schema": 1, "d": 1, "A0": [[[0.5, 0.0]]], "deflated": [{"side": "c", "count": 1}]}
    run = {"exit": 0, "stdout": json.dumps(doc), "stderr": "reduced state dimension 2 -> 1\n"}
    other = copy.deepcopy(run)
    other["stdout"] = json.dumps({**doc, "A0": [[[-0.5, 0.1]]]})
    assert report_diff.compare_runs(run, other, 0.0) == 0.0
    other["stdout"] = json.dumps({**doc, "deflated": [{"side": "c", "count": 2}]})
    with pytest.raises(report_diff.Mismatch):
        report_diff.compare_runs(run, other, 0.0)


def scale_run(**fields):
    doc = {
        "pencil": {"rows": 2, "cols": 2, "L0": [[1.0, 0.0]] * 4, "L1": [[0.5, 0.0]] * 4},
        "d_left": [0.5, 2.0], "d_right": [1.0, 0.25], "d_lambda": 1.0,
        "iterations": 11, "residual": 3e-11, "converged": True,
        "row_norms": [1.0, 1.0], "col_norms": [1.0, 1.0], "gamma": 0.25,
    }
    doc.update(fields)
    return {"exit": 0, "stdout": json.dumps(doc), "stderr": "row norms: ...\n"}


def test_scale_runs_compared_by_their_scalings():
    # Newton steps and the residual they reach may differ; the scalings,
    # the convergence flag and the pencil's shape may not.
    run = scale_run()
    assert report_diff.compare_runs(run, scale_run(iterations=21, residual=1e-12), 0.0) == 0.0
    for change in ({"d_left": [0.5, 1.0]}, {"d_right": [1.0, 0.5]}, {"d_lambda": 2.0},
                   {"converged": False},
                   {"pencil": {"rows": 3, "cols": 2, "L0": [], "L1": []}}):
        with pytest.raises(report_diff.Mismatch):
            report_diff.compare_runs(run, scale_run(**change), 0.0)


def test_scale_inputs(monkeypatch):
    # The gallery examples and the benchmark's chain systems, seeds 0-9.
    monkeypatch.syspath_prepend(str(_PATH.parent.parent / "bench"))
    inputs = report_diff.scale_inputs()
    gallery = [label.replace("gallery/", "scale/") for label in report_diff.gallery_inputs()]
    assert list(inputs) == gallery + [f"scale/chain_{s}" for s in range(10)]
    assert all(inputs[f"scale/chain_{s}"].d == 8 for s in range(10))


def verify_run(verdicts, exit_code=0, detail="max rel deviation 1.0e-15"):
    lines = (f"{verdicts[0]}  reduction reaches a strongly minimal quadruple  (d 3 -> 2)",
             f"{verdicts[1]}  transfer function preserved up to constant factors  ({detail})")
    return {"exit": exit_code, "stdout": "\n".join(lines) + "\n", "stderr": ""}


def test_verify_runs_compared_by_their_verdicts():
    # The measured details may differ; each check's verdict and the exit
    # code may not.
    run = verify_run(("PASS", "PASS"))
    moved = verify_run(("PASS", "PASS"), detail="max rel deviation 3.1e-14")
    assert report_diff.compare_runs(run, moved, 0.0) == 0.0
    with pytest.raises(report_diff.Mismatch, match="verdicts"):
        report_diff.compare_runs(run, verify_run(("PASS", "FAIL")), 0.0)
    with pytest.raises(report_diff.Mismatch, match="exit code"):
        report_diff.compare_runs(run, verify_run(("PASS", "PASS"), exit_code=2), 0.0)


def test_verify_inputs():
    # The gallery examples and corpus seeds 0-123.
    labels = list(report_diff.verify_inputs())
    gallery = [label.replace("gallery/", "verify/") for label in report_diff.gallery_inputs()]
    assert labels == gallery + [f"verify/{s}" for s in report_diff.CORPUS_SEEDS]


def test_report_written_by_one_run_only_fails():
    a, b = dumps(POINTS)
    b["reports"]["corpus/1|structure|s0"]["stdout"] = ""
    problems, _, _ = report_diff.compare_dumps(a, b, 1e-8)
    assert problems == [("corpus/1|structure|s0", "only one run wrote a report")]


def test_runs_in_one_dump_only_fail():
    a, b = dumps(POINTS)
    b["reports"]["corpus/2|structure|s0"] = structure_run(POINTS)
    problems, _, _ = report_diff.compare_dumps(a, b, 1e-8)
    assert problems == [("corpus/2|structure|s0", "only in the second dump")]


def test_compare_command_line(tmp_path, capsys):
    a, b = dumps(moved(1e-12))
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    assert report_diff.main(["compare", str(pa), str(pb)]) == 0
    assert "1 runs compared, 0 differ" in capsys.readouterr().out
    assert report_diff.main(["compare", str(pa), str(pb), "--rel", "0"]) == 1


def test_dump_gallery(tmp_path):
    # One dump of the gallery inputs from this tree: every input under
    # every command and seed, and the runs that must fail do.
    out = tmp_path / "gallery.json"
    subprocess.run(
        [sys.executable, str(_PATH), "dump", "--src", str(_PATH.parent.parent),
         "--inputs", "gallery", str(out)],
        check=True, capture_output=True, timeout=300,
    )
    runs = json.loads(out.read_text())["reports"]
    assert len(runs) == 7 * len(report_diff.COMMANDS) * len(report_diff.SEEDS)
    assert runs["gallery/polynomial_e5_e1|structure-no-reduce|s0"]["exit"] == 1
    assert runs["gallery/polynomial_e5_e1|structure|s0"]["exit"] == 0
    assert report_diff.compare_dumps({"reports": runs}, {"reports": runs}, 0.0)[0] == []


def test_dump_scale(tmp_path):
    # The scale set runs three balancings of each input.  The power-of-2
    # runs all converge, and their reports name power-of-2 scalings.  The
    # runs without --pow2 take the post-normalization, which bounds every
    # row and column norm of the scaled pencil by 1: approach 2 converges on
    # every input, and approach 1 converges on the gallery's state-space and
    # cubic-chain examples and reports the divergence of the others (exit
    # 3), whose system pencils lack total support.
    out = tmp_path / "scale.json"
    subprocess.run(
        [sys.executable, str(_PATH), "dump", "--src", str(_PATH.parent.parent),
         "--inputs", "scale", str(out)],
        check=True, capture_output=True, timeout=300,
    )
    runs = json.loads(out.read_text())["reports"]
    assert set(report_diff.SCALE_COMMANDS) == {"scale", "scale-approach1", "scale-approach2"}
    assert len(runs) == 17 * 3 * len(report_diff.SEEDS)
    converging = {f"scale/state_space_{s}" for s in range(3)} | {"scale/polynomial_chain_cubic"}
    for key, run in runs.items():
        label, cmd, _ = key.split("|")
        if cmd == "scale-approach1" and label not in converging:
            assert run["exit"] == 3 and "diverging scalings" in run["stderr"]
            continue
        assert run["exit"] == 0
        doc = json.loads(run["stdout"])
        assert doc["converged"]
        if cmd == "scale":
            assert all(np.log2(v) == round(np.log2(v)) for v in doc["d_left"] + doc["d_right"])
        else:
            assert max(doc["row_norms"] + doc["col_norms"]) <= 1 + 1e-12


def test_descriptor_inputs():
    # The descriptor set puts quadruples with E != I before the gate: the
    # leading coefficient of A is not the identity, and seeds 0-29 are all
    # there.
    inputs = report_diff.descriptor_inputs()
    assert list(inputs) == [f"descriptor/{s}" for s in range(30)]
    for q in inputs.values():
        assert np.linalg.norm(q.A.L1 - np.eye(q.d)) > 0.05


def test_inputs_are_written_by_the_tool(tmp_path):
    # Both trees read the same bytes: a zero imaginary part is written +0.0
    # whatever its sign, and the file is a schema-1 quadruple file.
    from strongmin.fileio import parse_quadruple, quadruple_to_dict
    from strongmin.gallery import random_state_space
    from strongmin.pencil import quadruple_from_constants

    q = random_state_space(3)
    blocks = [getattr(getattr(q, b), c) for b in "ABCD" for c in ("L0", "L1")]
    real = quadruple_from_constants(*(M.real for M in blocks))
    signed = quadruple_from_constants(*(M.real.astype(complex).conj() for M in blocks))
    assert np.signbit(signed.A.L0.imag).all()
    paths = [tmp_path / "real.json", tmp_path / "signed.json"]
    for path, quad in zip(paths, (real, signed)):
        report_diff.write_input(path, quad)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    back = parse_quadruple(paths[1])
    assert back.A.L0.dtype == np.float64
    assert quadruple_to_dict(back) == quadruple_to_dict(real)
