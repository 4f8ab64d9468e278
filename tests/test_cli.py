import json
from pathlib import Path

import numpy as np
import pytest

from strongmin.cli import main
from strongmin.fileio import (
    QuadrupleFormatError,
    parse_quadruple,
    quadruple_from_dict,
    write_quadruple,
)
from strongmin.gallery import (
    example_polynomial_system,
    example_rational_system,
    lambda_and_inverse_system,
    random_state_space,
)
from test_acceptance import random_e5_e1


def write_system(tmp_path, q, name="sys.json"):
    path = tmp_path / name
    write_quadruple(path, q)
    return str(path)


def minimal_doc():
    return {
        "schema": 1, "d": 1, "m": 1, "n": 1,
        "A0": [[0.0, 0.0]], "A1": [[1.0, 0.0]],
        "B0": [[-1.0, 0.0]], "B1": [[0.0, 0.0]],
        "C0": [[-1.0, 0.0]], "C1": [[0.0, 0.0]],
        "D0": [[0.0, 0.0]], "D1": [[0.0, 0.0]],
    }


class TestFileFormat:
    def test_minimal_valid_file(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text(json.dumps(minimal_doc()))
        q = parse_quadruple(path)
        assert (q.d, q.m, q.n) == (1, 1, 1)

    def test_wrong_block_length_names_block(self):
        doc = minimal_doc()
        doc["A0"] = [[0.0, 0.0], [1.0, 0.0]]
        with pytest.raises(QuadrupleFormatError, match="A0"):
            quadruple_from_dict(doc)

    def test_nan_literal_rejected(self, tmp_path):
        path = tmp_path / "q.json"
        body = json.dumps(minimal_doc()).replace("[[0.0, 0.0]]", "[[NaN, 0.0]]", 1)
        path.write_text(body)
        with pytest.raises(QuadrupleFormatError, match="non-finite"):
            parse_quadruple(path)

    def test_round_trip_bit_exact(self, tmp_path):
        q = random_state_space(1, d=3, m=2, n=2)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        write_quadruple(p1, q)
        q2 = parse_quadruple(p1)
        write_quadruple(p2, q2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(q.A.L0, q2.A.L0)
        assert np.array_equal(q.D.L1, q2.D.L1)


def _example_coeffs(seed):
    rng = np.random.default_rng(seed)
    e5 = list(rng.standard_normal(6))
    e5[5] += np.sign(e5[5]) + 0.5
    e1 = list(rng.standard_normal(2))
    e1[1] += np.sign(e1[1]) + 0.5
    return e5, e1


class TestStructureCommand:
    def test_constant_d_exit_zero(self, tmp_path, capsys):
        from strongmin.gallery import polynomial_chain_system

        q = polynomial_chain_system([np.array([[1.0, 0.0], [0.0, 2.0]])])
        path = write_system(tmp_path, q)
        rc = main(["structure", path])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["structure"]["finite_points"] == []
        assert doc["degree_sum_ok"] is True

    def test_example_polynomial_report(self, tmp_path, capsys):
        e5, e1 = _example_coeffs(3)
        q = example_polynomial_system(e5, e1)
        path = write_system(tmp_path, q)
        rc = main(["structure", path])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert doc["minimality"]["strongly_minimal"] is False
        assert doc["reduction"]["total_deflated"] == 4
        zeros = sum(
            sum(i for i in item["indices"] if i > 0)
            for item in doc["structure"]["finite_points"]
        )
        assert zeros == 6
        assert all(i < 0 for i in doc["structure"]["infinity_indices"])

    def test_deterministic_json(self, tmp_path, capsys):
        q = lambda_and_inverse_system()
        path = write_system(tmp_path, q)
        main(["structure", path, "--seed", "7"])
        first = capsys.readouterr().out
        main(["structure", path, "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_text_format(self, tmp_path, capsys):
        q = lambda_and_inverse_system()
        path = write_system(tmp_path, q)
        rc = main(["structure", path, "--format", "text"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "degree-sum identity: ok" in out
        assert "McMillan" in out

    def test_corrupted_tolerance_exit_two(self, tmp_path, capsys):
        # A corrupting tolerance forces rank misclassifications upstream;
        # the integer degree-sum identity catches the inconsistency and the
        # exit code is 2.
        rng = np.random.default_rng(2005)
        e5 = list(rng.standard_normal(6))
        e5[5] += np.sign(e5[5]) + 0.5
        e1 = list(rng.standard_normal(2))
        e1[1] += np.sign(e1[1]) + 0.5
        q = example_rational_system(e5, e1)
        path = write_system(tmp_path, q)
        rc = main(["structure", path, "--tol", "1e-3"])
        assert rc == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["degree_sum_ok"] is False
        # An absurd tolerance fails earlier but still exits cleanly.
        rc = main(["structure", path, "--tol", "0.8"])
        assert rc == 1

    def test_missing_file(self, capsys):
        rc = main(["structure", "/nonexistent/q.json"])
        assert rc == 1

    def test_no_reduce_rejects_non_minimal(self, tmp_path, capsys):
        q = example_polynomial_system(*_example_coeffs(3))
        path = write_system(tmp_path, q)
        rc = main(["structure", path, "--no-reduce"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "not strongly minimal" in captured.err

    def test_no_reduce_same_report_on_minimal_input(self, tmp_path, capsys):
        path = write_system(tmp_path, lambda_and_inverse_system())
        assert main(["structure", path]) == 0
        reduced = capsys.readouterr().out
        assert main(["structure", path, "--no-reduce"]) == 0
        assert capsys.readouterr().out == reduced
        assert json.loads(reduced)["reduction"] is None


class TestReduceCommand:
    def test_minimal_input_sizes_unchanged(self, tmp_path, capsys):
        q = random_state_space(2, d=3, m=2, n=2)
        path = write_system(tmp_path, q)
        out_path = str(tmp_path / "red.json")
        rc = main(["reduce", path, "--output", out_path])
        assert rc == 0
        doc = json.loads(Path(out_path).read_text())
        assert doc["d"] == 3

    def test_example_polynomial_shrinks_by_four(self, tmp_path):
        e5, e1 = _example_coeffs(8)
        q = example_polynomial_system(e5, e1)
        path = write_system(tmp_path, q)
        out_path = str(tmp_path / "red.json")
        rc = main(["reduce", path, "--output", out_path])
        assert rc == 0
        doc = json.loads(Path(out_path).read_text())
        assert doc["d"] == q.d - 4
        # The written quadruple must itself be strongly minimal.
        from strongmin.minreal import is_strongly_minimal

        q_red = parse_quadruple(out_path)
        assert is_strongly_minimal(q_red).strongly_minimal
        # Wl and Wr are m x m and n x n.
        assert len(doc["Wl"]) == q.m * q.m
        assert len(doc["Wr"]) == q.n * q.n

    def test_example_rational_deflates_zero(self, tmp_path):
        e5, e1 = _example_coeffs(9)
        q = example_rational_system(e5, e1)
        path = write_system(tmp_path, q)
        out_path = str(tmp_path / "red.json")
        rc = main(["reduce", path, "--output", out_path])
        assert rc == 0
        doc = json.loads(Path(out_path).read_text())
        assert doc["d"] <= q.d - 1


class TestScaleCommand:
    def test_balanced_input_near_identity(self, tmp_path, capsys):
        q = random_state_space(4, d=3, m=2, n=2)
        path = write_system(tmp_path, q)
        rc = main(["scale", path])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        assert max(doc["row_norms"]) <= 1.0 + 1e-9

    def test_unbalanced_input_improves(self, tmp_path, capsys):
        q = random_state_space(5, d=3, m=2, n=2)
        q.B.L0[:] *= 1e6  # skew the scales: unscaled norm ratio ~1e6
        path = write_system(tmp_path, q)
        # Small alpha puts the emphasis on equalization.
        rc = main(["scale", path, "--approach", "2", "--alpha", "0.01"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        norms = doc["row_norms"] + doc["col_norms"]
        assert max(norms) / min(norms) < 1e4

    def test_chain_converges_at_default_cap(self, tmp_path, capsys):
        # Criterion-9 chain: badly scaled, yet balanced within the cap.
        rng = np.random.default_rng(9000)
        e5, e1, _ = random_e5_e1(rng, big_root=1e5, normalize=True)
        path = write_system(tmp_path, example_polynomial_system(e5, e1))
        rc = main(["scale", path, "--approach", "2", "--alpha", "0.01"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is True
        assert doc["residual"] <= 1e-10

    def test_pow2_flag(self, tmp_path, capsys):
        q = random_state_space(6, d=2, m=1, n=1)
        path = write_system(tmp_path, q)
        rc = main(["scale", path, "--pow2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        for v in doc["d_left"] + doc["d_right"] + [doc["d_lambda"]]:
            assert np.log2(v) == round(np.log2(v))

    def test_divergent_pattern_exit_three(self, tmp_path, capsys):
        # D-only quadruple whose system pencil has the triangular pattern
        # without total support.
        from strongmin.gallery import polynomial_chain_system

        q = polynomial_chain_system(
            [np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[1.0, 1.0], [0.0, 1.0]])]
        )
        path = write_system(tmp_path, q)
        rc = main(["scale", path, "--approach", "1"])
        assert rc == 3

    def test_approach1_gamma_report(self, tmp_path, capsys):
        q = random_state_space(7, d=2, m=2, n=2)
        path = write_system(tmp_path, q)
        rc = main(["scale", path, "--approach", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert "gamma_left" in doc and "gamma_right" in doc


class TestVerifyCommand:
    def test_minimal_input_passes(self, tmp_path, capsys):
        q = random_state_space(8, d=3, m=2, n=2)
        path = write_system(tmp_path, q)
        rc = main(["verify", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_example_rational_passes_after_reduction(self, tmp_path, capsys):
        e5, e1 = _example_coeffs(11)
        q = example_rational_system(e5, e1)
        path = write_system(tmp_path, q)
        rc = main(["verify", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out

    def test_singular_A_exit_one(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["A1"] = [[0.0, 0.0]]
        doc["A0"] = [[0.0, 0.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = main(["verify", str(path)])
        assert rc == 1
        assert "A not regular" in capsys.readouterr().err


def test_env_var_tolerance(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STRONGMIN_TOL", "1e-10")
    q = lambda_and_inverse_system()
    path = write_system(tmp_path, q)
    rc = main(["structure", path])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["tol"] == 1e-10
