"""Command-line interface: formats, exit codes, round trips."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval, chebval2d

import cvb

from cvb.cli import EXIT_IO, EXIT_NOT_CONVERGED, EXIT_OK, EXIT_VALIDATION, main
from cvb.ppm import read_image, write_image


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scaled_l2(residual):
    """Oracle l2 norm: scaled by the largest |r|, summed exactly."""
    scale = max(abs(float(r)) for r in residual)
    return scale * math.sqrt(math.fsum((float(r) / scale) ** 2 for r in residual))


@pytest.fixture
def quad_csv(tmp_path):
    path = tmp_path / "quad.csv"
    path.write_text("x,y\n-1,0\n0,1\n1,4\n")
    return path


NOISY_LINE_SEED_3 = """\
x,y
-0.91560151488361186,-0.3992358407274435
-0.66560151488361186,-0.25911970678219598
-0.41560151488361186,-0.077673310921166236
-0.16560151488361186,0.025415446164630859
0.084398485116388144,0.10161210678223399
0.20939848511638814,0.19801193658184146
0.33439848511638814,0.26510437237227746
0.58439848511638814,0.35817313402190187
0.83439848511638814,0.54065695769911548
"""


class TestGen:
    def test_runge_rows(self, tmp_path, capsys):
        out = tmp_path / "runge.csv"
        code, stdout, _ = run(capsys, "gen", "runge", "--m", "9", "--out", str(out))
        assert code == EXIT_OK
        assert stdout.strip() == "9"
        lines = out.read_text().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 10

    def test_correspondences_default_preset(self, tmp_path, capsys):
        out = tmp_path / "pairs.csv"
        code, stdout, _ = run(capsys, "gen", "correspondences", "--out", str(out))
        assert code == EXIT_OK and stdout.strip() == "20"
        lines = out.read_text().splitlines()
        assert lines[0] == "u,v,X,Y"
        assert len(lines) == 21

    def test_noisy_line_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "gen", "noisy-line", "--seed", "7", "--out", str(a))[0] == EXIT_OK
        assert run(capsys, "gen", "noisy-line", "--seed", "7", "--out", str(b))[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_noisy_line_seed_3_is_pinned(self, tmp_path, capsys):
        out = tmp_path / "noisy.csv"
        assert run(capsys, "gen", "noisy-line", "--seed", "3", "--out", str(out))[0] == EXIT_OK
        assert out.read_text() == NOISY_LINE_SEED_3

    def test_humped_flat(self, tmp_path, capsys):
        out = tmp_path / "hf.csv"
        code, stdout, _ = run(capsys, "gen", "humped-flat", "--out", str(out))
        assert code == EXIT_OK and stdout.strip() == "9"

    def test_unknown_kind_is_validation_error(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "gen", "nonsense", "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_VALIDATION
        assert "nonsense" in stderr

    def test_unwritable_path_is_io_error(self, capsys):
        code, _, _ = run(capsys, "gen", "runge", "--out", "/no/such/directory/x.csv")
        assert code == EXIT_IO

    def test_generated_csv_is_refittable(self, tmp_path, capsys):
        out = tmp_path / "runge.csv"
        run(capsys, "gen", "runge", "--m", "9", "--out", str(out))
        code, stdout, _ = run(capsys, "fit1d", "--input", str(out), "--algorithm", "approx")
        assert code == EXIT_OK
        assert len(stdout.split()) == 9


class TestFit1D:
    def test_interp_quadratic_coefficients(self, quad_csv, capsys):
        code, stdout, _ = run(capsys, "fit1d", "--input", str(quad_csv),
                              "--algorithm", "interp", "--max-terms", "3")
        assert code == EXIT_OK
        coeffs = [float(v) for v in stdout.split()]
        assert coeffs == pytest.approx([1.5, 2.0, 0.5], abs=1e-10)

    def test_approx_quadratic_coefficients(self, quad_csv, capsys):
        code, stdout, _ = run(capsys, "fit1d", "--input", str(quad_csv),
                              "--algorithm", "approx", "--epsilon", "0", "--max-terms", "3")
        assert code == EXIT_OK
        coeffs = [float(v) for v in stdout.split()]
        assert coeffs == pytest.approx([1.518518519, 2.0, 0.444444444], abs=1e-8)

    def test_sample_output(self, quad_csv, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "fit1d", "--input", str(quad_csv), "--algorithm", "interp",
                         "--max-terms", "3", "--sample", "5", str(curve))
        assert code == EXIT_OK
        lines = curve.read_text().splitlines()
        assert lines[0] == "x,P(x)"
        rows = {float(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
        assert rows[0.5] == pytest.approx(2.25, abs=1e-12)
        assert len(rows) == 5

    def test_sample_needs_two_points(self, quad_csv, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        code, _, stderr = run(capsys, "fit1d", "--input", str(quad_csv), "--sample", "1", str(curve))
        assert code == EXIT_VALIDATION
        assert stderr == "error: --sample needs at least 2 points\n"
        assert not curve.exists()

    def test_sample_is_checked_before_the_fit(self, quad_csv, tmp_path, capsys):
        # a refused request prints no coefficients and writes no trace
        trace, curve = tmp_path / "t.csv", tmp_path / "s.csv"
        code, stdout, stderr = run(capsys, "fit1d", "--input", str(quad_csv), "--trace", str(trace),
                                   "--sample", "1", str(curve))
        assert (code, stdout, stderr) == (EXIT_VALIDATION, "", "error: --sample needs at least 2 points\n")
        assert not trace.exists() and not curve.exists()

    def test_trace_output_columns(self, quad_csv, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        run(capsys, "fit1d", "--input", str(quad_csv), "--algorithm", "interp",
            "--max-terms", "3", "--trace", str(trace))
        lines = trace.read_text().splitlines()
        assert lines[0] == "step,term,increment,max_abs_residual,l2_residual,a0,a1,a2"
        assert len(lines) == 4
        last = lines[-1].split(",")
        assert float(last[4]) == pytest.approx(0.0, abs=1e-12)

    def test_approx_trace_columns_are_the_running_increments(self, tmp_path, capsys):
        # approximation steps store no coefficients: the writer sums each step's increment into its term
        data, trace = tmp_path / "runge.csv", tmp_path / "trace.csv"
        run(capsys, "gen", "runge", "--m", "9", "--out", str(data))
        code, stdout, _ = run(capsys, "fit1d", "--input", str(data), "--algorithm", "approx",
                              "--extra-sweeps", "2", "--trace", str(trace))
        assert code == EXIT_OK
        header, *rows = [line.split(",") for line in trace.read_text().splitlines()]
        assert header[5:] == [f"a{j}" for j in range(9)]
        assert len(rows) == 3 * (9 + 9 * 8 // 2)  # every visit and revisit of three sweeps
        a = [0.0] * 9
        for step, row in enumerate(rows, start=1):
            assert int(row[0]) == step
            a[int(row[1])] += float(row[2])
            assert [float(v) for v in row[5:]] == a
        assert rows[-1][5:] == stdout.split()

    def test_extra_sweeps_are_refused_for_interpolation(self, tmp_path, capsys):
        # refused before any input is read: the input does not exist, and no trace is written
        trace = tmp_path / "t.csv"
        code, stdout, stderr = run(capsys, "fit1d", "--input", str(tmp_path / "absent.csv"), "--algorithm",
                                   "interp", "--extra-sweeps", "1", "--trace", str(trace))
        assert (code, stdout) == (EXIT_VALIDATION, "")
        assert stderr == ("error: --extra-sweeps does not apply to --algorithm interp: "
                          "interpolation is one fixed pass\n")
        assert not trace.exists()

    def test_interpolation_takes_zero_extra_sweeps(self, quad_csv, capsys):
        code, stdout, _ = run(capsys, "fit1d", "--input", str(quad_csv), "--algorithm", "interp",
                              "--extra-sweeps", "0")
        assert code == EXIT_OK
        assert [float(v) for v in stdout.split()] == pytest.approx([1.5, 2.0, 0.5], abs=1e-10)

    @pytest.mark.parametrize("algorithm", ["interp", "approx"])
    def test_trace_of_residuals_whose_squares_overflow_is_finite(self, tmp_path, capsys, algorithm):
        # delta . delta of these data overflows; the l2 residual is scaled first, so it stays finite
        data = tmp_path / "big.csv"
        data.write_text("x,y\n-1,1e200\n0,-1e200\n1,1e200\n")
        trace = tmp_path / "trace.csv"
        code, stdout, stderr = run(capsys, "fit1d", "--input", str(data), "--algorithm", algorithm,
                                   "--trace", str(trace))
        assert code == EXIT_OK, stderr
        coeffs = [float(v) for v in stdout.split()]
        x, y = np.array([-1.0, 0.0, 1.0]), np.array([1e200, -1e200, 1e200])
        residual = y - chebval(x, coeffs)
        last = trace.read_text().splitlines()[-1].split(",")
        assert abs(float(last[4]) - scaled_l2(residual)) <= 1e-12 * 1e200

    def test_duplicate_x_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0,1\n0,2\n")
        code, _, stderr = run(capsys, "fit1d", "--input", str(bad))
        assert code == EXIT_VALIDATION and "distinct" in stderr

    def test_missing_file_is_io_error(self, capsys):
        code, _, _ = run(capsys, "fit1d", "--input", "/does/not/exist.csv")
        assert code == EXIT_IO

    def test_strict_non_convergence_exits_three(self, quad_csv, capsys):
        code, _, stderr = run(capsys, "fit1d", "--input", str(quad_csv), "--algorithm", "approx",
                              "--epsilon", "1e-15", "--max-terms", "2", "--strict")
        assert code == EXIT_NOT_CONVERGED
        assert "converged=false" in stderr

    def test_non_strict_non_convergence_exits_zero(self, quad_csv, capsys):
        code, _, stderr = run(capsys, "fit1d", "--input", str(quad_csv), "--algorithm", "approx",
                              "--epsilon", "1e-15", "--max-terms", "2")
        assert code == EXIT_OK
        assert "converged=false" in stderr


class TestFit2D:
    def test_constant_surface_single_term(self, tmp_path, capsys):
        data = tmp_path / "const.csv"
        rows = ["x,y,z"] + [f"{x},{y},3" for x in (-1, 0, 1) for y in (-1, 0, 1)]
        data.write_text("\n".join(rows) + "\n")
        code, stdout, stderr = run(capsys, "fit2d", "--input", str(data), "--epsilon", "1e-12")
        assert code == EXIT_OK
        assert stdout.splitlines() == ["[0, 0, 3]"]
        assert "converged=true" in stderr

    def test_product_surface_dominant_term(self, tmp_path, capsys):
        data = tmp_path / "xy.csv"
        g = np.linspace(-1, 1, 4)
        rows = ["x,y,z"] + [f"{x},{y},{x * y}" for x in g for y in g]
        data.write_text("\n".join(rows) + "\n")
        code, stdout, _ = run(capsys, "fit2d", "--input", str(data),
                              "--epsilon", "1e-9", "--max-terms", "3")
        assert code == EXIT_OK
        terms = {}
        for line in stdout.splitlines():
            i, j, c = line.strip("[]").split(", ")
            terms[(int(i), int(j))] = float(c)
        assert terms[(1, 1)] == pytest.approx(1.0, abs=1e-9)
        assert all(abs(c) <= 1e-9 for key, c in terms.items() if key != (1, 1))

    def test_trace_output_with_pair_labels(self, tmp_path, capsys):
        data = tmp_path / "xy.csv"
        g = np.linspace(-1, 1, 4)
        rows = ["x,y,z"] + [f"{x},{y},{x * y}" for x in g for y in g]
        data.write_text("\n".join(rows) + "\n")
        trace = tmp_path / "trace.csv"
        code, _, _ = run(capsys, "fit2d", "--input", str(data), "--epsilon", "1e-9",
                         "--max-terms", "3", "--trace", str(trace))
        assert code == EXIT_OK
        lines = trace.read_text().splitlines()
        assert lines[0] == "step,term,increment,max_abs_residual,l2_residual"
        assert lines[1].split(",")[1] == "0:0"

    def test_trace_of_residuals_whose_squares_overflow_is_finite(self, tmp_path, capsys):
        # delta . delta of these data overflows; the l2 residual is scaled first, so it stays finite
        data = tmp_path / "big.csv"
        data.write_text("x,y,z\n-1,-1,1e200\n0,0,-1e200\n1,1,1e200\n1,-1,1e200\n")
        trace = tmp_path / "trace.csv"
        code, stdout, stderr = run(capsys, "fit2d", "--input", str(data), "--trace", str(trace))
        assert code == EXIT_OK, stderr
        c = np.zeros((8, 8))
        for line in stdout.splitlines():
            i, j, value = line.strip("[]").split(", ")
            c[int(i), int(j)] = float(value)
        x, y = np.array([-1.0, 0.0, 1.0, 1.0]), np.array([-1.0, 0.0, 1.0, -1.0])
        residual = np.array([1e200, -1e200, 1e200, 1e200]) - chebval2d(x, y, c)
        last = trace.read_text().splitlines()[-1].split(",")
        assert abs(float(last[4]) - scaled_l2(residual)) <= 1e-12 * 1e200

    def test_non_convergence_reported_without_strict(self, tmp_path, capsys):
        data = tmp_path / "r.csv"
        rng = np.random.default_rng(0)
        g = np.linspace(-1, 1, 5)
        rows = ["x,y,z"] + [f"{x},{y},{rng.uniform(-1, 1)}" for x in g for y in g]
        data.write_text("\n".join(rows) + "\n")
        code, _, stderr = run(capsys, "fit2d", "--input", str(data),
                              "--epsilon", "1e-15", "--max-terms", "3")
        assert code == EXIT_OK
        assert "converged=false" in stderr
        code, _, _ = run(capsys, "fit2d", "--input", str(data),
                         "--epsilon", "1e-15", "--max-terms", "3", "--strict")
        assert code == EXIT_NOT_CONVERGED


class TestCalibrationPipeline:
    @pytest.fixture
    def pairs_csv(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        run(capsys, "gen", "correspondences", "--out", str(path))
        return path

    @pytest.fixture
    def model_json(self, tmp_path, pairs_csv, capsys):
        path = tmp_path / "model.json"
        code, stdout, _ = run(capsys, "calibrate", "--pairs", str(pairs_csv),
                              "--epsilon", "0.5", "--inverse-epsilon", "0.25",
                              "--degree-bound", "8", "--out", str(path))
        assert code == EXIT_OK
        assert stdout.count("converged=true") == 4
        return path

    def test_calibrate_strict_non_convergence_exits_three(self, pairs_csv, tmp_path, capsys):
        path = tmp_path / "model.json"
        code, stdout, _ = run(capsys, "calibrate", "--pairs", str(pairs_csv), "--epsilon", "0",
                              "--degree-bound", "2", "--out", str(path), "--strict")
        assert code == EXIT_NOT_CONVERGED
        assert stdout.count("converged=false") == 4
        assert path.exists()  # the model is written before the exit code is chosen

    def test_warp_window_needs_four_values(self, model_json, tmp_path, capsys):
        src, dst = tmp_path / "in.ppm", tmp_path / "out.ppm"
        write_image(src, np.zeros((4, 4, 3), dtype=np.uint8))
        code, _, stderr = run(capsys, "warp", "--model", str(model_json), "--input", str(src),
                              "--output", str(dst), "--window", "0,16,0")
        assert code == EXIT_VALIDATION
        assert stderr == "error: --window needs 4 comma-separated values, got '0,16,0'\n"
        assert not dst.exists()

    def test_eval_against_truth(self, model_json, pairs_csv, capsys):
        code, stdout, _ = run(capsys, "eval", "--model", str(model_json), "--truth", str(pairs_csv))
        assert code == EXIT_OK
        values = dict(line.split("=") for line in stdout.splitlines())
        assert float(values["max_err_mm"]) <= 0.5 + 1e-9
        assert float(values["rms_err_mm"]) <= float(values["max_err_mm"])
        assert values["n_points"] == "20"

    def test_apply_writes_mapped_points(self, model_json, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("u,v\n320,240\n200,200\n")
        out = tmp_path / "mapped.csv"
        code, _, _ = run(capsys, "apply", "--model", str(model_json), "--points", str(pts),
                         "--out", str(out))
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "u,v,X,Y"
        center = [float(v) for v in lines[1].split(",")]
        # world origin maps to the image center under the oracle
        assert abs(center[2]) <= 0.5 and abs(center[3]) <= 0.5

    def test_apply_and_eval_equal_a_per_point_loop(self, model_json, tmp_path, capsys):
        from cvb.rectify import load_model, map_point

        rng = np.random.default_rng(12)
        points = np.column_stack([rng.uniform(100, 540, 40), rng.uniform(100, 380, 40)])
        world = rng.uniform(-300, 300, (40, 2))
        pts, truth = tmp_path / "pts.csv", tmp_path / "truth.csv"
        pts.write_text("u,v\n" + "".join(f"{u:.17g},{v:.17g}\n" for u, v in points))
        truth.write_text("u,v,X,Y\n" + "".join(f"{u:.17g},{v:.17g},{X:.17g},{Y:.17g}\n"
                                                for (u, v), (X, Y) in zip(points, world)))
        model = load_model(model_json.read_text())
        mapped = [map_point(model, float(u), float(v)) for u, v in points]
        errors = np.array([(X - tX) ** 2 + (Y - tY) ** 2 for (X, Y), (tX, tY) in zip(mapped, world)])

        out = tmp_path / "mapped.csv"
        code, stdout, _ = run(capsys, "apply", "--model", str(model_json), "--points", str(pts),
                              "--out", str(out))
        assert code == EXIT_OK and stdout == "40\n"
        rows = [",".join(format(float(c), ".17g") for c in (u, v, X, Y))
                for (u, v), (X, Y) in zip(points, mapped)]
        assert out.read_text() == "u,v,X,Y\n" + "\n".join(rows) + "\n"

        code, stdout, _ = run(capsys, "eval", "--model", str(model_json), "--truth", str(truth))
        assert code == EXIT_OK
        assert stdout == (f"max_err_mm={np.sqrt(errors.max()):.17g}\n"
                          f"rms_err_mm={np.sqrt(errors.mean()):.17g}\nn_points=40\n")

    def test_apply_and_eval_bytes_equal_per_surface_evaluation(self, model_json, tmp_path, capsys):
        """20k points span three blocks of the shared point evaluator.

        The oracle evaluates each forward surface on its own; test_rectify
        pins that call to the unblocked per-surface sum, so a reordered sum
        shows here or there instead of moving the CLI's bytes silently.
        """
        from cvb.fit2d import eval_model_2d
        from cvb.rectify import load_model
        from cvb.synthetic import DistortionParams, distort

        rng = np.random.default_rng(20)
        world = np.column_stack([rng.uniform(-300, 300, 20_000), rng.uniform(-220, 220, 20_000)])
        u, v = distort(DistortionParams(), world[:, 0], world[:, 1])
        pts, truth = tmp_path / "pts.csv", tmp_path / "truth.csv"
        pts.write_text("u,v\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(u, v)))
        truth.write_text("u,v,X,Y\n" + "".join(f"{a:.17g},{b:.17g},{X:.17g},{Y:.17g}\n"
                                                for a, b, (X, Y) in zip(u, v, world)))
        model = load_model(model_json.read_text())
        X, Y = eval_model_2d(model.fwd_x, u, v), eval_model_2d(model.fwd_y, u, v)
        errors = (X - world[:, 0]) ** 2 + (Y - world[:, 1]) ** 2

        out = tmp_path / "mapped.csv"
        code, stdout, _ = run(capsys, "apply", "--model", str(model_json), "--points", str(pts),
                              "--out", str(out))
        assert code == EXIT_OK and stdout == "20000\n"
        rows = "".join(",".join(format(float(c), ".17g") for c in row) + "\n" for row in zip(u, v, X, Y))
        assert out.read_text() == "u,v,X,Y\n" + rows

        code, stdout, _ = run(capsys, "eval", "--model", str(model_json), "--truth", str(truth))
        assert code == EXIT_OK
        assert stdout == (f"max_err_mm={np.sqrt(errors.max()):.17g}\n"
                          f"rms_err_mm={np.sqrt(errors.mean()):.17g}\nn_points=20000\n")

    @pytest.mark.parametrize("field, value", [("epsilon", "null"), ("epsilon", "NaN"),
                                              ("coefficient", "null"), ("coefficient", '"x"')])
    def test_eval_on_non_numeric_model_field_is_validation_error(self, model_json, pairs_csv, tmp_path,
                                                                 capsys, field, value):
        doc = model_json.read_text()
        if field == "epsilon":
            doc = doc.replace('"epsilon": 0.5', f'"epsilon": {value}')
        else:
            head, sep, tail = doc.partition("[0, 0, ")
            doc = head + sep + value + tail[tail.index("]"):]
        bad = tmp_path / "bad.json"
        bad.write_text(doc)
        code, stdout, stderr = run(capsys, "eval", "--model", str(bad), "--truth", str(pairs_csv))
        assert code == EXIT_VALIDATION
        assert stdout == "" and stderr.startswith("error: ") and "Traceback" not in stderr

    def test_identity_calibrate_eval_near_zero(self, tmp_path, capsys):
        pairs = tmp_path / "ident.csv"
        rows = ["u,v,X,Y"]
        for u in np.linspace(0, 30, 4):
            for v in np.linspace(0, 20, 5):
                rows.append(f"{u},{v},{u},{v}")
        pairs.write_text("\n".join(rows) + "\n")
        model = tmp_path / "ident.json"
        code, _, _ = run(capsys, "calibrate", "--pairs", str(pairs), "--epsilon", "1e-9",
                         "--degree-bound", "4", "--out", str(model))
        assert code == EXIT_OK
        code, stdout, _ = run(capsys, "eval", "--model", str(model), "--truth", str(pairs))
        values = dict(line.split("=") for line in stdout.splitlines())
        assert float(values["max_err_mm"]) <= 1e-6

    def test_warp_identity_byte_identical(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        img = rng.integers(0, 256, size=(12, 16, 3), dtype=np.uint8)
        src = tmp_path / "in.ppm"
        write_image(src, img)
        pairs = tmp_path / "ident.csv"
        rows = ["u,v,X,Y"]
        for u in np.linspace(0, 16, 4):
            for v in np.linspace(0, 12, 5):
                rows.append(f"{u},{v},{u},{v}")
        pairs.write_text("\n".join(rows) + "\n")
        model = tmp_path / "ident.json"
        run(capsys, "calibrate", "--pairs", str(pairs), "--epsilon", "1e-9",
            "--degree-bound", "4", "--out", str(model))
        dst = tmp_path / "out.ppm"
        code, _, _ = run(capsys, "warp", "--model", str(model), "--input", str(src),
                         "--output", str(dst), "--window", "0,16,0,12")
        assert code == EXIT_OK
        assert dst.read_bytes() == src.read_bytes()
        assert dst.read_bytes().startswith(b"P6")

    def test_eval_on_held_out_oracle_grid(self, model_json, tmp_path, capsys):
        from cvb.synthetic import DistortionParams, distort, max_displacement_px

        params = DistortionParams()
        half_x = (params.image_size[0] / 2) / params.scale
        half_y = (params.image_size[1] / 2) / params.scale
        rows = ["u,v,X,Y"]
        for X in np.linspace(-0.7 * half_x, 0.7 * half_x, 9):
            for Y in np.linspace(-0.7 * half_y, 0.7 * half_y, 9):
                u, v = distort(params, X, Y)
                rows.append(f"{u},{v},{X},{Y}")
        truth = tmp_path / "held_out.csv"
        truth.write_text("\n".join(rows) + "\n")
        code, stdout, _ = run(capsys, "eval", "--model", str(model_json), "--truth", str(truth))
        assert code == EXIT_OK
        values = dict(line.split("=") for line in stdout.splitlines())
        limit = 0.1 * max_displacement_px(params) / params.scale
        assert float(values["max_err_mm"]) <= limit

    def test_sampled_curve_is_refittable(self, quad_csv, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        run(capsys, "fit1d", "--input", str(quad_csv), "--algorithm", "interp",
            "--max-terms", "3", "--sample", "7", str(curve))
        # fit1d reads x,y only: the sampled values refit once their header says so
        curve.write_text(curve.read_text().replace("x,P(x)", "x,y", 1))
        code, stdout, _ = run(capsys, "fit1d", "--input", str(curve), "--algorithm", "interp",
                              "--max-terms", "3")
        assert code == EXIT_OK
        coeffs = [float(v) for v in stdout.split()]
        assert coeffs == pytest.approx([1.5, 2.0, 0.5], abs=1e-10)

    def test_sample_output_is_not_read_back_as_input(self, quad_csv, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        run(capsys, "fit1d", "--input", str(quad_csv), "--max-terms", "3", "--sample", "7", str(curve))
        code, _, stderr = run(capsys, "fit1d", "--input", str(curve), "--max-terms", "3")
        assert code == EXIT_VALIDATION
        assert stderr == f"error: {curve}: expected header 'x,y', got 'x,P(x)'\n"

    def test_warp_reports_missing_model_as_io(self, tmp_path, capsys):
        code, _, _ = run(capsys, "warp", "--model", str(tmp_path / "none.json"),
                         "--input", "x", "--output", "y", "--window", "0,1,0,1")
        assert code == EXIT_IO

    @pytest.mark.parametrize("window", ["-inf,inf,0,1", "-1e308,1e308,0,1", "0,1,nan,1"])
    def test_warp_rejects_window_that_is_not_finite(self, model_json, tmp_path, capsys, window):
        src, dst = tmp_path / "in.ppm", tmp_path / "out.ppm"
        write_image(src, np.zeros((48, 64, 3), dtype=np.uint8))
        code, stdout, stderr = run(capsys, "warp", "--model", str(model_json), "--input", str(src),
                                   "--output", str(dst), f"--window={window}")
        assert code == EXIT_VALIDATION and stdout == ""
        assert stderr.startswith("error: world window") and "finite" in stderr
        assert not dst.exists()

    def test_model_file_round_trip_byte_identical(self, model_json, tmp_path, capsys):
        from cvb.rectify import load_model, save_model

        doc = model_json.read_text()
        assert save_model(load_model(doc)) == doc

    def test_corrupt_model_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1')
        code, _, stderr = run(capsys, "apply", "--model", str(bad), "--points", "x", "--out", "y")
        assert code == EXIT_VALIDATION
        assert "line" in stderr


def test_importing_the_cli_does_not_load_scipy_stats():
    # scipy.stats costs most of a second per process; only gen noisy-line needs it
    src = str(Path(cvb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import cvb.cli, sys; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


@pytest.fixture
def identity_model(tmp_path, capsys):
    """Identity calibration over a 16 x 12 pixel frame."""
    pairs = tmp_path / "ident.csv"
    rows = ["u,v,X,Y"] + [f"{u},{v},{u},{v}" for u in np.linspace(0, 16, 4) for v in np.linspace(0, 12, 5)]
    pairs.write_text("\n".join(rows) + "\n")
    model = tmp_path / "ident.json"
    code, _, _ = run(capsys, "calibrate", "--pairs", str(pairs), "--epsilon", "1e-9",
                     "--degree-bound", "4", "--out", str(model))
    assert code == EXIT_OK
    return model


@pytest.fixture(params=["gray", "color"])
def frame(request, tmp_path):
    rng = np.random.default_rng(2)
    shape = (12, 16) if request.param == "gray" else (12, 16, 3)
    path = tmp_path / "in.img"
    write_image(path, rng.integers(0, 256, size=shape, dtype=np.uint8))
    return request.param, path


@pytest.mark.filterwarnings("ignore::cvb.basis.ExtrapolationWarning")
class TestWarpFill:
    def warp(self, capsys, model, src, out, fill):
        # the left third of the window lies outside the source frame
        return run(capsys, "warp", "--model", str(model), "--input", str(src), "--output", str(out),
                   "--window=-8,16,0,12", "--width", "24", f"--fill={fill}")

    # "５", "٣" and "1_0" are what int() reads beyond plain ASCII digits
    @pytest.mark.parametrize("fill", ["300", "256", "-1", "1.5", "abc", "", " ", "0x10", "1e2",
                                      "1,2", "1,2,3,4", "1,,3", "1,2,300", "²", "\uff15", "\u0663", "1_0", "1,2_0,3"])
    def test_bad_fill_is_validation_error(self, identity_model, frame, tmp_path, capsys, fill):
        kind, src = frame
        out = tmp_path / "out.img"
        code, _, stderr = self.warp(capsys, identity_model, src, out, fill)
        assert code == EXIT_VALIDATION
        assert stderr.startswith("error: --fill") and "Traceback" not in stderr
        assert not out.exists()

    def test_triple_fill_on_grayscale_is_validation_error(self, identity_model, tmp_path, capsys):
        src = tmp_path / "in.pgm"
        write_image(src, np.zeros((12, 16), dtype=np.uint8))
        code, _, stderr = self.warp(capsys, identity_model, src, tmp_path / "out.pgm", "1,2,3")
        assert code == EXIT_VALIDATION and "1 channel" in stderr

    @pytest.mark.parametrize("fill, expect", [("7", 7), ("0", 0), ("255", 255), (" 9", 9)])
    def test_scalar_fill(self, identity_model, frame, tmp_path, capsys, fill, expect):
        kind, src = frame
        out = tmp_path / "out.img"
        code, _, _ = self.warp(capsys, identity_model, src, out, fill)
        assert code == EXIT_OK
        img = read_image(out)
        assert (img[:, :8] == expect).all()
        assert np.array_equal(img[:, 8:], read_image(src))

    def test_per_channel_fill(self, identity_model, tmp_path, capsys):
        src = tmp_path / "in.ppm"
        write_image(src, np.full((12, 16, 3), 200, dtype=np.uint8))
        out = tmp_path / "out.ppm"
        code, _, _ = self.warp(capsys, identity_model, src, out, "1,2,3")
        assert code == EXIT_OK
        img = read_image(out)
        assert (img[:, :8] == [1, 2, 3]).all() and (img[:, 8:] == 200).all()


class TestNonFiniteCsvFields:
    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-Infinity", "1e999"])
    def test_apply(self, identity_model, tmp_path, capsys, value):
        pts = tmp_path / "pts.csv"
        pts.write_text(f"u,v\n1,2\n{value},5\n")
        out = tmp_path / "mapped.csv"
        code, stdout, stderr = run(capsys, "apply", "--model", str(identity_model), "--points", str(pts),
                                   "--out", str(out))
        assert code == EXIT_VALIDATION and stdout == ""
        assert stderr.startswith(f"error: {pts}:3: non-finite field")
        assert not out.exists()

    def test_calibrate(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("u,v,X,Y\n0,0,0,0\n1,0,1,0\n0,1,0,inf\n1,1,1,1\n")
        model = tmp_path / "model.json"
        code, _, stderr = run(capsys, "calibrate", "--pairs", str(pairs), "--degree-bound", "2",
                              "--out", str(model))
        assert code == EXIT_VALIDATION
        assert stderr.startswith(f"error: {pairs}:4: non-finite field")
        assert not model.exists()

    def test_eval(self, identity_model, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("u,v,X,Y\n1,2,1,2\n\n3,4,nan,4\n")
        code, stdout, stderr = run(capsys, "eval", "--model", str(identity_model), "--truth", str(truth))
        assert code == EXIT_VALIDATION and stdout == ""
        assert stderr.startswith(f"error: {truth}:4: non-finite field")

    def test_fit_inputs(self, tmp_path, capsys):
        for cmd, text in (("fit1d", "x,y\n0,1\n1,nan\n"), ("fit2d", "x,y,z\n0,0,1\n1,1,-inf\n")):
            data = tmp_path / f"{cmd}.csv"
            data.write_text(text)
            code, _, stderr = run(capsys, cmd, "--input", str(data))
            assert code == EXIT_VALIDATION
            assert stderr.startswith(f"error: {data}:3: non-finite field")


@pytest.fixture
def overflowing_model(tmp_path):
    """Every sub-fit is 1e300 T_7(x) on [0, 10]; at x = 1000 that exceeds the float range."""
    from cvb.basis import DomainMap
    from cvb.fit2d import ChebModel2D, TermIndex2D
    from cvb.rectify import CalibrationMeta, CalibrationModel, save_model

    sub = ChebModel2D(coeffs={TermIndex2D(7, 0): 1e300}, xmap=DomainMap(0.0, 10.0), ymap=DomainMap(0.0, 10.0),
                      degree_bound=8)
    model = CalibrationModel(sub, sub, sub, sub, CalibrationMeta(epsilon=0.5, degree_bound=8))
    path = tmp_path / "overflow.json"
    path.write_text(save_model(model))
    return path


@pytest.mark.filterwarnings("ignore::cvb.basis.ExtrapolationWarning")
class TestNonFiniteOutput:
    def test_apply(self, overflowing_model, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("u,v\n1000,5\n")
        out = tmp_path / "mapped.csv"
        code, stdout, stderr = run(capsys, "apply", "--model", str(overflowing_model), "--points", str(pts),
                                   "--out", str(out))
        assert code == EXIT_VALIDATION and stdout == ""
        assert stderr.startswith("error: cannot serialize non-finite value")
        assert not out.exists()

    def test_eval(self, overflowing_model, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_text("u,v,X,Y\n1000,5,0,0\n")
        code, stdout, stderr = run(capsys, "eval", "--model", str(overflowing_model), "--truth", str(truth))
        assert code == EXIT_VALIDATION and stdout == ""
        assert stderr.startswith("error: cannot serialize non-finite value")


# float64 edge values, integral ones among them; each cell is also written negated
EDGE_FLOATS = [0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 2.0**53 + 2, 2.0**53, 1.0, 3.0,
               100.0, 1e22, 2.0**70, 0.1, 1 / 3, 123456.789]


class TestCsvCells:
    @pytest.mark.parametrize("row, got", [("3,4,5", 3), ("3", 1)])
    def test_a_row_of_another_field_count_is_named_by_its_line(self, identity_model, tmp_path, capsys, row, got):
        pts, out = tmp_path / "pts.csv", tmp_path / "mapped.csv"
        pts.write_text(f"u,v\n1,2\n\n{row}\n")
        code, stdout, stderr = run(capsys, "apply", "--model", str(identity_model), "--points", str(pts),
                                   "--out", str(out))
        assert (code, stdout, stderr) == (EXIT_VALIDATION, "", f"error: {pts}:4: expected 2 fields, got {got}\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, np.float64(np.inf)])
    def test_a_non_finite_cell_is_refused_before_the_file_is_created(self, tmp_path, value):
        from cvb.cli import _write_csv

        out = tmp_path / "rows.csv"
        message = f"cannot serialize non-finite value {float(value)!r}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            _write_csv(out, ("a", "b"), [[1.0, 2.0], [3.0, value]])
        assert not out.exists()

    def test_python_and_numpy_floats_render_as_17_significant_digits(self, tmp_path):
        from cvb.cli import _write_csv

        rows = [[v, -v] for v in EDGE_FLOATS]
        expect = "a,b\n" + "".join("%.17g,%.17g\n" % (v, w) for v, w in rows)
        for name, cells in (("python", rows), ("numpy", np.array(rows))):
            path = tmp_path / f"{name}.csv"
            _write_csv(path, ("a", "b"), cells)
            assert path.read_bytes() == expect.encode(), name
        # every cell reads back with the bits it was written from, the sign of zero included
        lines = expect.splitlines()[1:]
        assert [float(c).hex() for line in lines for c in line.split(",")] == [v.hex() for r in rows for v in r]

    @pytest.mark.parametrize("cell", ["1_0", "\uff13", "\u0663", "1\u00a0", "\u20072"])
    def test_a_cell_only_python_float_reads_is_non_numeric(self, tmp_path, capsys, cell):
        # digit-group underscores, fullwidth and Arabic-Indic digits, non-ASCII spaces
        data = tmp_path / "u.csv"
        data.write_text(f"x,y\n1,1\n2,2\n3,{cell}\n", encoding="utf-8")
        code, stdout, stderr = run(capsys, "fit1d", "--input", str(data))
        assert (code, stdout) == (EXIT_VALIDATION, "")
        assert stderr == f"error: {data}:4: non-numeric field in ['3', {cell!r}]\n"

    def test_an_underscored_number_is_refused_where_it_stands(self, identity_model, tmp_path, capsys):
        data, out = tmp_path / "u.csv", tmp_path / "mapped.csv"
        data.write_text("u,v\n1_0,1\n2,2\n")
        code, _, stderr = run(capsys, "apply", "--model", str(identity_model), "--points", str(data),
                              "--out", str(out))
        assert (code, stderr) == (EXIT_VALIDATION, f"error: {data}:2: non-numeric field in ['1_0', '1']\n")
        assert not out.exists()

    # --window and --sample N take plain ASCII numbers as the CSV cells do, and a refusal names the flag

    @pytest.mark.parametrize("window", ["-3_00,300,-200,200", "\uff10,16,0,12", "0,16,0,1\u00a0"])
    def test_a_window_only_python_float_reads_is_refused(self, identity_model, tmp_path, capsys, window):
        src, dst = tmp_path / "in.pgm", tmp_path / "out.pgm"
        write_image(src, np.zeros((12, 16), dtype=np.uint8))
        code, _, stderr = run(capsys, "warp", "--model", str(identity_model), "--input", str(src),
                              "--output", str(dst), f"--window={window}")
        assert (code, stderr) == (EXIT_VALIDATION, f"error: --window values must be numbers, got {window!r}\n")
        assert not dst.exists()

    @pytest.mark.parametrize("count", ["\uff13", "1_0", "3.0", "x"])
    def test_a_sample_count_only_python_int_reads_is_refused(self, quad_csv, tmp_path, capsys, count):
        curve = tmp_path / "s.csv"
        code, stdout, stderr = run(capsys, "fit1d", "--input", str(quad_csv), "--sample", count, str(curve))
        assert (code, stdout, stderr) == (EXIT_VALIDATION, "", f"error: --sample N must be an integer, got {count!r}\n")
        assert not curve.exists()

    def test_apply_makes_no_numpy_call_per_cell(self, identity_model, tmp_path, capsys, monkeypatch):
        # np.isfinite checks whole arrays; CSV rows and written cells are checked as plain floats,
        # so its call count must not grow with the row count
        calls = []
        isfinite = np.isfinite

        def counted(*args, **kwargs):
            calls.append(None)
            return isfinite(*args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        rng = np.random.default_rng(4)
        counts = []
        for n in (50, 2000):
            pts, out = tmp_path / f"pts{n}.csv", tmp_path / f"mapped{n}.csv"
            pts.write_text("u,v\n" + "".join(f"{u!r},{v!r}\n" for u, v in zip(rng.uniform(0, 16, n).tolist(),
                                                                               rng.uniform(0, 12, n).tolist())))
            calls.clear()
            code, stdout, _ = run(capsys, "apply", "--model", str(identity_model), "--points", str(pts),
                                  "--out", str(out))
            assert (code, stdout) == (EXIT_OK, f"{n}\n")
            counts.append(len(calls))
        assert counts[0] == counts[1]


@pytest.fixture
def default_model(tmp_path, capsys):
    """The default calibration: ``gen correspondences`` then ``calibrate``."""
    pairs, model = tmp_path / "pairs.csv", tmp_path / "model.json"
    assert run(capsys, "gen", "correspondences", "--out", str(pairs))[0] == EXIT_OK
    assert run(capsys, "calibrate", "--pairs", str(pairs), "--out", str(model))[0] == EXIT_OK
    return model


@pytest.mark.filterwarnings("ignore::cvb.basis.ExtrapolationWarning")
class TestFarOutsideTheFit:
    """Columns and sums that leave the float range raise no numpy warning (Tier-1 makes one an error)."""

    def test_warp_window_near_the_float_limit_takes_the_fill(self, default_model, tmp_path, capsys):
        src, dst = tmp_path / "in.ppm", tmp_path / "out.ppm"
        write_image(src, np.full((4, 4, 3), 200, dtype=np.uint8))
        code, stdout, stderr = run(capsys, "warp", "--model", str(default_model), "--input", str(src),
                                   "--output", str(dst), "--window=1e308,1.2e308,0,1", "--width", "4",
                                   "--height", "4", "--fill", "7")
        assert code == EXIT_OK and stdout == "" and "RuntimeWarning" not in stderr
        assert (read_image(dst) == 7).all()

    def test_apply_to_a_point_beyond_the_float_range_of_the_columns(self, default_model, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("u,v\n1e150,5\n")
        out = tmp_path / "mapped.csv"
        code, stdout, stderr = run(capsys, "apply", "--model", str(default_model), "--points", str(pts),
                                   "--out", str(out))
        assert code == EXIT_VALIDATION and stdout == ""
        assert stderr.startswith("error: cannot serialize non-finite value")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["apply", "eval"])
    def test_point_mapped_beyond_the_float_range_is_named_by_its_line(self, default_model, tmp_path, capsys,
                                                                       command):
        # the blank line makes the bad point's line differ from its row index
        data, out = tmp_path / "data.csv", tmp_path / "mapped.csv"
        if command == "apply":
            data.write_text("u,v\n320,240\n\n1e150,5\n330,250\n")
            argv = ("apply", "--model", str(default_model), "--points", str(data), "--out", str(out))
        else:
            data.write_text("u,v,X,Y\n320,240,0,0\n\n1e150,5,0,0\n330,250,0,0\n")
            argv = ("eval", "--model", str(default_model), "--truth", str(data))
        code, stdout, stderr = run(capsys, *argv)
        assert (code, stdout) == (EXIT_VALIDATION, "")
        assert stderr == (f"error: cannot serialize non-finite value X=-inf: the point u=1e+150, v=5.0 "
                          f"at {data}:4 maps beyond the float range\n")
        assert not out.exists()


# (command and flags, input file name, its text, the data's largest |value| as repr prints it)
NEAR_THE_FLOAT_LIMIT = {
    "fit1d-interp": (("fit1d", "--algorithm", "interp"), "f.csv",
                     "x,y\n-1,1.7e308\n0,-1.7e308\n1,1.7e308\n", "1.7e+308"),
    "fit1d-approx": (("fit1d", "--algorithm", "approx"), "f.csv",
                     "x,y\n-1,1.7e308\n0,-1.7e308\n1,1.7e308\n", "1.7e+308"),
    "fit1d-interp-1e308": (("fit1d", "--algorithm", "interp"), "f.csv",
                           "x,y\n-1,1e308\n0,-1e308\n1,1e308\n", "1e+308"),
    "fit1d-approx-1e308": (("fit1d", "--algorithm", "approx"), "f.csv",
                           "x,y\n-1,1e308\n0,-1e308\n1,1e308\n", "1e+308"),
    # max|delta| stays finite here, but the l2 of the residual does not
    "fit2d": (("fit2d",), "f.csv", "x,y,z\n-1,-1,1.7e308\n1,-1,-1.7e308\n-1,1,-1.7e308\n1,1,1.7e308\n",
              "1.7e+308"),
    "calibrate": (("calibrate", "--degree-bound", "2"), "pairs.csv",
                  "u,v,X,Y\n0,0,1.7e308,0\n1,0,1.6e308,1\n0,1,1.65e308,2\n1,1,1.62e308,3\n2,1,1.61e308,4\n",
                  "1.7e+308"),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", NEAR_THE_FLOAT_LIMIT)
def test_a_fit_whose_residual_leaves_the_float_range_is_refused_by_name(tmp_path, capsys, case):
    # under error::RuntimeWarning a numpy warning would end the run, so none is raised
    argv, name, text, largest = NEAR_THE_FLOAT_LIMIT[case]
    data, out = tmp_path / name, tmp_path / "out"
    data.write_text(text)
    flag = "--pairs" if argv[0] == "calibrate" else "--input"
    written = ("--out", str(out)) if argv[0] == "calibrate" else ("--trace", str(out))
    code, stdout, stderr = run(capsys, *argv, flag, str(data), *written)
    assert (code, stdout) == (EXIT_VALIDATION, "")
    sub_fit = "sub-fit fwd_x (column X): " if argv[0] == "calibrate" else ""
    assert stderr == (f"error: {sub_fit}the fit residual leaves the float range (±1.798e+308) "
                      f"on data whose largest |value| is {largest}\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_calibrate_names_the_sub_fit_and_column_whose_residual_leaves_the_float_range(tmp_path, capsys):
    pairs, out = tmp_path / "pairs.csv", tmp_path / "model.json"
    pairs.write_text("u,v,X,Y\n0,0,1.7e308,0\n1,0,0,1\n0,1,1.7e308,2\n1,1,0,3\n2,0,1.7e308,4\n2,2,0,5\n")
    code, stdout, stderr = run(capsys, "calibrate", "--degree-bound", "2", "--pairs", str(pairs), "--out", str(out))
    assert (code, stdout) == (EXIT_VALIDATION, "")
    assert stderr.startswith("error: sub-fit fwd_x (column X): the fit residual leaves the float range")
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestEvalFarFromTheTruth:
    """eval's distances are scaled by a power of two before they are squared."""

    def eval(self, capsys, model, truth, text):
        truth.write_text(text)
        return run(capsys, "eval", "--model", str(model), "--truth", str(truth))

    def test_a_finite_distance_is_reported(self, default_model, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        code, stdout, stderr = self.eval(capsys, default_model, truth,
                                         "u,v,X,Y\n320,240,0,0\n330,250,1e200,0\n")
        assert (code, stderr) == (EXIT_OK, "")
        values = {k: float(v) for k, v in (line.split("=") for line in stdout.splitlines())}
        # the mapped X of (330, 250) is a few mm, lost against 1e200
        assert values["max_err_mm"] == 1e200
        assert values["rms_err_mm"] == pytest.approx(1e200 / math.sqrt(2), rel=1e-15)
        assert values["n_points"] == 2

    def test_in_range_distances_keep_the_unscaled_bits(self, default_model, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        code, stdout, _ = self.eval(capsys, default_model, truth, "u,v,X,Y\n320,240,0.5,0\n330,250,4,-3\n")
        assert code == EXIT_OK
        with open(default_model, encoding="utf-8") as fh:
            model = cvb.load_model(fh.read())
        X, Y = cvb.map_point(model, np.array([320.0, 330.0]), np.array([240.0, 250.0]))
        squares = (X - [0.5, 4.0]) ** 2 + (Y - [0.0, -3.0]) ** 2
        assert stdout.splitlines()[:2] == [f"max_err_mm={format(math.sqrt(squares.max()), '.17g')}",
                                           f"rms_err_mm={format(math.sqrt(squares.mean()), '.17g')}"]

    def test_a_distance_beyond_the_float_range_is_named_by_its_line(self, default_model, tmp_path, capsys):
        # both differences are finite, but their hypotenuse is not; the blank line moves the row's line
        truth = tmp_path / "truth.csv"
        code, stdout, stderr = self.eval(capsys, default_model, truth,
                                         "u,v,X,Y\n320,240,1e300,0\n\n330,250,1.7e308,1.7e308\n")
        assert (code, stdout) == (EXIT_VALIDATION, "")
        assert stderr == (f"error: the mapping error of the point u=330.0, v=250.0 at {truth}:4 "
                          f"lies beyond the float range\n")

    @pytest.mark.filterwarnings("ignore::cvb.basis.ExtrapolationWarning")
    def test_a_difference_beyond_the_float_range_leaves_the_other_rows_scaled(self, overflowing_model, tmp_path,
                                                                              capsys):
        # at u=44 the model maps to about 1.09e308, so X - (-1e308) overflows; the 1e200 row
        # before it is scaled by the finite differences alone, so it is not the row named
        truth = tmp_path / "truth.csv"
        code, stdout, stderr = self.eval(capsys, overflowing_model, truth,
                                         "u,v,X,Y\n5,5,1e200,0\n44,5,-1e308,0\n")
        assert (code, stdout) == (EXIT_VALIDATION, "")
        assert stderr == (f"error: the mapping error of the point u=44.0, v=5.0 at {truth}:3 "
                          f"lies beyond the float range\n")


class TestParserEscapes:
    """Inputs that used to escape the parsers as tracebacks."""

    def test_deeply_nested_model_document(self, tmp_path, capsys):
        model = tmp_path / "deep.json"
        model.write_text("[" * 200_000 + "]" * 200_000)
        pts = tmp_path / "pts.csv"
        pts.write_text("u,v\n1,2\n")
        code, stdout, stderr = run(capsys, "apply", "--model", str(model), "--points", str(pts),
                                   "--out", str(tmp_path / "out.csv"))
        assert code == EXIT_VALIDATION and stdout == ""
        assert stderr.startswith("error: ") and "nests too deeply" in stderr

    @pytest.mark.parametrize("text, line", [("u,v\n1," + "1" * 131_073 + "\n", 2), ("u," + "v" * 131_073 + "\n1,2\n", 1)],
                             ids=["data row", "header"])
    def test_csv_field_over_the_size_limit(self, identity_model, tmp_path, capsys, text, line):
        pts = tmp_path / "pts.csv"
        pts.write_text(text)
        code, stdout, stderr = run(capsys, "apply", "--model", str(identity_model), "--points", str(pts),
                                   "--out", str(tmp_path / "out.csv"))
        assert code == EXIT_VALIDATION and stdout == ""
        assert stderr.startswith(f"error: {pts}:{line}: field larger than field limit")

    @pytest.mark.parametrize("sizes", [b"+2 10 255", b"2 1_0 255", b"2 10 +255", b"2 \xd9\xa1\xd9\xa0 255"])
    def test_image_header_takes_digits_only(self, identity_model, tmp_path, capsys, sizes):
        src = tmp_path / "in.pgm"
        src.write_bytes(b"P2\n" + sizes + b"\n" + b" 7" * 20 + b"\n")
        out = tmp_path / "out.pgm"
        code, _, stderr = run(capsys, "warp", "--model", str(identity_model), "--input", str(src),
                              "--output", str(out), "--window=0,16,0,12")
        assert code == EXIT_VALIDATION
        assert stderr.startswith("error: image header values must be decimal digits")
        assert not out.exists()


CHILD_UNDER_MEMORY_LIMIT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from cvb.cli import main
sys.exit(main(sys.argv[1:]))
"""


class TestHugeDegreeBound:
    """A degree bound of 10^6 with one term per sub-fit costs what its one term costs.

    Each command runs in a child process whose address space is capped at
    1 GiB, so an evaluator that sizes its work by the degree bound fails there
    without touching the test process.
    """

    @pytest.fixture
    def model(self, tmp_path):
        terms = {"fwd_x": "[1, 0, 5.0]", "fwd_y": "[0, 1, 4.0]", "inv_u": "[0, 0, 1.5]", "inv_v": "[0, 0, 0.5]"}
        subs = ",\n".join(f'  "{name}": {{"xmap": [0, 10], "ymap": [0, 10], "terms": [{term}]}}'
                           for name, term in terms.items())
        path = tmp_path / "huge.json"
        path.write_text(f'{{\n  "version": 1,\n  "epsilon": 0.5,\n  "degree_bound": 1000000,\n{subs}\n}}\n')
        return path

    def cvb(self, *argv):
        src = str(Path(cvb.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", CHILD_UNDER_MEMORY_LIMIT, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def test_apply(self, model, tmp_path):
        pts, out = tmp_path / "pts.csv", tmp_path / "mapped.csv"
        pts.write_text("u,v\n7.5,2.5\n")
        code, stdout, stderr = self.cvb("apply", "--model", str(model), "--points", str(pts), "--out", str(out))
        assert (code, stdout, stderr) == (EXIT_OK, "1\n", "")
        # X = 5 T_1(tu) = u - 5 and Y = 4 T_1(tv) = 0.8 v - 4
        assert out.read_text() == "u,v,X,Y\n7.5,2.5,2.5,-2\n"

    def test_eval(self, model, tmp_path):
        truth = tmp_path / "truth.csv"
        truth.write_text("u,v,X,Y\n7.5,2.5,2.5,-1\n")
        code, stdout, stderr = self.cvb("eval", "--model", str(model), "--truth", str(truth))
        assert (code, stderr) == (EXIT_OK, "")
        assert stdout == "max_err_mm=1\nrms_err_mm=1\nn_points=1\n"

    def test_warp(self, model, tmp_path):
        src, out = tmp_path / "in.pgm", tmp_path / "out.pgm"
        write_image(src, np.arange(6, dtype=np.uint8).reshape(2, 3) * 40)
        code, stdout, stderr = self.cvb("warp", "--model", str(model), "--input", str(src), "--output", str(out),
                                        "--window=1,9,1,9", "--width", "4", "--height", "3")
        assert (code, stderr) == (EXIT_OK, "")
        # every output pixel maps back to source (u, v) = (1.5, 0.5): row 0, column 1
        assert np.array_equal(read_image(out), np.full((3, 4), 40, dtype=np.uint8))


class TestOutOfMemory:
    """A request too large for memory is an `error: …` line with exit 1, not a traceback.

    Each command runs in the same 1 GiB child as TestHugeDegreeBound, so the
    allocation fails there, never in the test process.
    """

    cvb = TestHugeDegreeBound.cvb

    def test_warp_to_a_huge_raster(self, tmp_path):
        model, src, out = tmp_path / "model.json", tmp_path / "in.pgm", tmp_path / "out.pgm"
        subs = ",\n".join(f'  "{name}": {{"xmap": [0, 10], "ymap": [0, 10], "terms": [[0, 0, 1.0]]}}'
                           for name in ("fwd_x", "fwd_y", "inv_u", "inv_v"))
        model.write_text(f'{{\n  "version": 1,\n  "epsilon": 0.5,\n  "degree_bound": 2,\n{subs}\n}}\n')
        write_image(src, np.zeros((2, 3), dtype=np.uint8))
        code, stdout, stderr = self.cvb("warp", "--model", str(model), "--input", str(src), "--output", str(out),
                                        "--window=1,9,1,9", "--width", "200000", "--height", "200000")
        assert (code, stdout) == (EXIT_VALIDATION, "")
        assert stderr.startswith("error: not enough memory for this warp request (Unable to allocate ")
        assert "(200000, 200000)" in stderr and "Traceback" not in stderr
        assert not out.exists()

    def test_warp_to_a_large_raster_in_bands(self, tmp_path):
        # 8000 x 8000 float64 source positions for u and v alone would need
        # the whole 1 GiB; the bands need a few MiB beyond the 64 MB output
        model, src, out = tmp_path / "model.json", tmp_path / "in.pgm", tmp_path / "out.pgm"
        subs = ",\n".join(f'  "{name}": {{"xmap": [0, 10], "ymap": [0, 10], "terms": [[0, 0, 1.0]]}}'
                           for name in ("fwd_x", "fwd_y", "inv_u", "inv_v"))
        model.write_text(f'{{\n  "version": 1,\n  "epsilon": 0.5,\n  "degree_bound": 2,\n{subs}\n}}\n')
        write_image(src, np.arange(6, dtype=np.uint8).reshape(2, 3) * 40)
        code, stdout, stderr = self.cvb("warp", "--model", str(model), "--input", str(src), "--output", str(out),
                                        "--window=1,9,1,9", "--width", "8000", "--height", "8000")
        assert (code, stdout, stderr) == (EXIT_OK, "", "")
        header = b"P5\n8000 8000\n255\n"
        assert out.stat().st_size == len(header) + 8000 * 8000
        with open(out, "rb") as fh:
            assert fh.read(len(header)) == header
            # every output pixel maps back to source (u, v) = (1, 1): row 1, column 1
            assert set(fh.read(1 << 20)) == {160}

    def test_calibrate_with_a_huge_degree_bound(self, tmp_path, capsys):
        pairs, model = tmp_path / "pairs.csv", tmp_path / "model.json"
        run(capsys, "gen", "correspondences", "--out", str(pairs))
        code, stdout, stderr = self.cvb("calibrate", "--pairs", str(pairs), "--degree-bound", "100000",
                                        "--out", str(model))
        assert (code, stdout) == (EXIT_VALIDATION, "")
        assert stderr.startswith("error: not enough memory for this calibrate request (Unable to allocate ")
        assert "Traceback" not in stderr
        assert not model.exists()
