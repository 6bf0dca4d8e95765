"""Command-line interface: formats, exit codes, round trips."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvb

from cvb.cli import EXIT_IO, EXIT_NOT_CONVERGED, EXIT_OK, EXIT_VALIDATION, main
from cvb.ppm import read_image, write_image


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_trace_output_columns(self, quad_csv, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        run(capsys, "fit1d", "--input", str(quad_csv), "--algorithm", "interp",
            "--max-terms", "3", "--trace", str(trace))
        lines = trace.read_text().splitlines()
        assert lines[0] == "step,term,increment,max_abs_residual,l2_residual,a0,a1,a2"
        assert len(lines) == 4
        last = lines[-1].split(",")
        assert float(last[4]) == pytest.approx(0.0, abs=1e-12)

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
        code, stdout, _ = run(capsys, "fit1d", "--input", str(curve), "--algorithm", "interp",
                              "--max-terms", "3")
        assert code == EXIT_OK
        coeffs = [float(v) for v in stdout.split()]
        assert coeffs == pytest.approx([1.5, 2.0, 0.5], abs=1e-10)

    def test_warp_reports_missing_model_as_io(self, tmp_path, capsys):
        code, _, _ = run(capsys, "warp", "--model", str(tmp_path / "none.json"),
                         "--input", "x", "--output", "y", "--window", "0,1,0,1")
        assert code == EXIT_IO

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

    @pytest.mark.parametrize("fill", ["300", "256", "-1", "1.5", "abc", "", " ", "0x10", "1e2",
                                      "1,2", "1,2,3,4", "1,,3", "1,2,300", "²"])
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


@pytest.mark.filterwarnings("ignore::cvb.basis.ExtrapolationWarning", "ignore::RuntimeWarning")
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
