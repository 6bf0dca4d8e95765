"""Command-line interface: formats, exit codes, round trips."""

import argparse
import ast
import csv
import gc
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial.chebyshev import chebval, chebval2d

import cvb

from cvb.cli import EXIT_IO, EXIT_NOT_CONVERGED, EXIT_OK, EXIT_VALIDATION, build_parser, main
from cvb.ppm import read_image, write_image
from cvb.rectify import load_model


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

    def test_correspondences_are_distort_of_the_default_pattern(self, tmp_path, capsys):
        # each row is the %.17g text of one distort call, so it reads back bit for bit
        from cvb.synthetic import DistortionParams, default_pattern, distort

        out = tmp_path / "pairs.csv"
        assert run(capsys, "gen", "correspondences", "--out", str(out))[0] == EXIT_OK
        params = DistortionParams()
        rows = ["%.17g,%.17g,%.17g,%.17g" % (*distort(params, X, Y), X, Y) for X, Y in default_pattern(params)]
        assert out.read_text() == "\n".join(["u,v,X,Y", *rows]) + "\n"

    def test_noisy_line_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "gen", "noisy-line", "--seed", "7", "--out", str(a))[0] == EXIT_OK
        assert run(capsys, "gen", "noisy-line", "--seed", "7", "--out", str(b))[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_noisy_line_seed_3_is_pinned(self, tmp_path, capsys):
        out = tmp_path / "noisy.csv"
        assert run(capsys, "gen", "noisy-line", "--seed", "3", "--out", str(out))[0] == EXIT_OK
        assert out.read_text() == NOISY_LINE_SEED_3

    def test_a_negative_noisy_line_seed_is_refused_by_name(self, tmp_path, capsys):
        out = tmp_path / "noisy.csv"
        code, stdout, stderr = run(capsys, "gen", "noisy-line", "--seed", "-1", "--out", str(out))
        assert (code, stdout) == (EXIT_VALIDATION, "")
        assert stderr == "error: noisy-line seed must be a non-negative integer, got -1\n"
        assert not out.exists()

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

    def test_a_first_increment_of_negative_zero_sums_to_zero(self, tmp_path, capsys):
        # -5e-324 / 3 rounds to -0.0; the coefficients are summed from 0.0, and 0.0 + -0.0 is 0.0
        data, trace = tmp_path / "tiny.csv", tmp_path / "trace.csv"
        data.write_text("x,y\n-1,-5e-324\n0,0\n1,0\n")
        code, _, _ = run(capsys, "fit1d", "--input", str(data), "--max-terms", "1", "--trace", str(trace))
        assert code == EXIT_OK
        assert trace.read_text().splitlines()[1].split(",")[2::3] == ["-0", "0"]  # increment, a0

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

    def test_a_billion_extra_sweeps_of_data_within_epsilon_take_no_step(self, tmp_path, capsys):
        # the sweep plan is built once and iterated per sweep, not repeated up front
        data, trace = tmp_path / "runge.csv", tmp_path / "trace.csv"
        run(capsys, "gen", "runge", "--m", "9", "--out", str(data))
        code, stdout, stderr = run(capsys, "fit1d", "--input", str(data), "--max-terms", "3", "--epsilon", "10",
                                   "--extra-sweeps", "1000000000", "--trace", str(trace))
        assert (code, stderr) == (EXIT_OK, "")
        assert [float(v) for v in stdout.split()] == [0.0, 0.0, 0.0]
        assert trace.read_text().splitlines() == ["step,term,increment,max_abs_residual,l2_residual,a0,a1,a2"]

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

    @pytest.mark.parametrize("flag", ["--trace", "--sample"])
    def test_an_unwritable_output_prints_no_coefficients(self, quad_csv, tmp_path, capsys, flag):
        # the files are written before the coefficients are printed, as every other command does
        path = str(tmp_path / "missing" / "out.csv")
        request = [flag, path] if flag == "--trace" else [flag, "5", path]
        code, stdout, stderr = run(capsys, "fit1d", "--input", str(quad_csv), *request)
        assert (code, stdout) == (EXIT_IO, "")
        assert stderr.startswith("error: ") and "out.csv" in stderr

    def test_the_trace_is_written_from_one_table(self, tmp_path):
        from cvb.cli import _write_trace
        from cvb.synthetic import runge

        m = 60
        x = cvb.cheb_zeros(m)
        y = runge(x) + 0.01 * np.random.default_rng(1).standard_normal(m)
        model, report = cvb.cvb_approximate(cvb.SampleSet1D(x=x, y=y), cvb.FitConfig(epsilon=0.0, max_terms=m))
        table = len(report.trace) * (m + 5) * 8  # step, term, increment, two residuals, m coefficients
        assert len(report.trace) == m * (m + 1) // 2
        tracemalloc.start()
        try:
            _write_trace(tmp_path / "trace.csv", report, model.n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of steps and one formatted row: no float table, let alone a copy of one
        assert peak < 2 * table + 512 * 1024, (peak, table)

    def test_the_trace_is_written_one_block_at_a_time(self, tmp_path):
        # steps are read one block at a time and each row is written as it is read, so memory does not grow
        from cvb.cli import _write_trace
        from cvb.synthetic import runge

        peaks = []
        for m in (60, 120):
            x = cvb.cheb_zeros(m)
            model, report = cvb.cvb_approximate(cvb.SampleSet1D(x=x, y=runge(x)), cvb.FitConfig(0.0, m))
            tracemalloc.start()
            try:
                _write_trace(tmp_path / "trace.csv", report, model.n)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        table = len(report.trace) * (m + 5) * 8  # 7.3 MB
        assert max(peaks) < 1024 * 1024 < table and peaks[1] < peaks[0] + 64 * 1024, (peaks, table)

    @pytest.mark.parametrize("column, value", [(0, math.inf), (1, math.nan), (2, -math.inf)])
    def test_a_non_finite_trace_column_is_refused_before_the_file_is_created(self, tmp_path, column, value):
        from cvb.cli import _write_trace
        from cvb.fit1d import FitReport, Trace

        _, report = cvb.cvb_approximate(cvb.SampleSet1D(x=cvb.cheb_zeros(9), y=np.arange(9.0)), cvb.FitConfig(0.0, 3))
        stats = report.trace.stats.copy()
        stats[column, 2:] = value  # the first bad row's first bad cell is named
        trace = Trace(stats, report.trace.plan, report.trace.labels)
        out = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match=f"^cannot serialize non-finite value {value!r}$"):
            _write_trace(out, FitReport(**{**vars(report), "trace": trace}), 3)
        assert not out.exists()

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


def trace_oracle(report, n_coeffs):
    """Oracle: the trace CSV rendered literally, one step of ``tuple(report.trace)`` at a time.

    An approximation's coefficients are the running per-term sums of its
    increments from 0.0, an interpolation step's are its ``coeffs``, and a
    surface's term (``n_coeffs`` 0) is written ``i:j``.
    """
    header = ["step", "term", "increment", "max_abs_residual", "l2_residual"] + [f"a{j}" for j in range(n_coeffs)]
    lines, a = [",".join(header)], [0.0] * n_coeffs
    for k, step in enumerate(tuple(report.trace), start=1):
        if step.coeffs is not None:
            a = list(step.coeffs)
        elif n_coeffs:
            a[step.term] += step.increment
        term = str(step.term) if n_coeffs else f"{step.term.i}:{step.term.j}"
        reals = (step.increment, step.max_abs_residual, step.l2_residual, *a)
        lines.append(",".join([str(k), term, *(format(v, ".17g") for v in reals)]))
    return "".join(line + "\n" for line in lines).encode()


@st.composite
def traced_fits(draw):
    """(kind, samples, config) of a fit whose trace is written.

    Curve and surface approximations may skip terms, stop at epsilon and
    sweep again; interpolations may skip terms on crowded nodes.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind, m = draw(st.sampled_from(["approx", "interp", "surface"])), draw(st.integers(1, 40))
    if kind == "surface":
        x = rng.uniform(-1.0, 1.0, m)
        y = np.zeros(m) if draw(st.booleans()) else rng.uniform(-1.0, 1.0, m)  # a flat y skips every odd j
        samples = cvb.SampleSet2D(x=x, y=y, z=np.sin(3 * x) * np.cos(2 * y) + 0.01 * rng.standard_normal(m))
        n = draw(st.integers(1, 8))
    else:
        if kind == "interp":  # nodes crowded into a short interval: orthogonalize skips terms
            x = -1.0 + draw(st.sampled_from([2.0, 0.2, 0.05])) * np.linspace(0.0, 1.0, m)
            n = draw(st.integers(1, m))
        else:  # T_m vanishes at the m Chebyshev zeros, so n > m skips it
            x = cvb.cheb_zeros(m)
            n = draw(st.one_of(st.integers(1, m), st.integers(m + 1, m + 2)))
        samples = cvb.SampleSet1D(x=x, y=np.sin(3 * x) + 0.01 * rng.standard_normal(m))
    data = samples.z if kind == "surface" else samples.y
    epsilon = draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5])) * float(np.abs(data).max())
    sweeps = 0 if kind == "interp" else draw(st.integers(0, 3))
    return kind, samples, cvb.FitConfig(epsilon=epsilon, max_terms=n, extra_sweeps=sweeps)


CROWDED = cvb.SampleSet1D(x=np.linspace(-1.0, -0.8, 12), y=np.sin(5 * np.linspace(-1.0, -0.8, 12)))
FLAT_Y = cvb.SampleSet2D(x=np.linspace(-1.0, 1.0, 30), y=np.zeros(30), z=np.cos(3 * np.linspace(-1.0, 1.0, 30)))


class TestTraceBytes:
    @settings(max_examples=100, deadline=None)
    @given(case=traced_fits())
    @example(case=("approx", cvb.SampleSet1D(x=[0.0], y=[3.0]), cvb.FitConfig(0.0, 3, 2)))  # skips term 1
    @example(case=("approx", cvb.SampleSet1D(x=cvb.cheb_zeros(40), y=np.arange(40.0) % 3), cvb.FitConfig(0.0, 40, 1)))
    @example(case=("approx", cvb.SampleSet1D(x=cvb.cheb_zeros(40), y=np.arange(40.0) % 3), cvb.FitConfig(0.5, 40)))
    @example(case=("interp", CROWDED, cvb.FitConfig(0.0, 12)))  # skips three terms
    @example(case=("surface", FLAT_Y, cvb.FitConfig(0.0, 5, 2)))  # skips every odd j
    @example(case=("surface", FLAT_Y, cvb.FitConfig(0.1, 8)))
    def test_the_trace_csv_is_each_step_rendered_in_turn(self, tmp_path_factory, case):
        from cvb.cli import _write_trace

        kind, samples, config = case
        fit = {"approx": cvb.cvb_approximate, "interp": cvb.cvb_interpolate, "surface": cvb.cvb_approximate_2d}[kind]
        model, report = fit(samples, config)
        n_coeffs = 0 if kind == "surface" else model.n
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        _write_trace(path, report, n_coeffs)
        assert path.read_bytes() == trace_oracle(report, n_coeffs)


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


# `python -m cvb.cli`, after an atexit hook that writes the names of the loaded modules to the path given first
MODULES_AT_EXIT = """
import atexit, runpy, sys

def dump(path=sys.argv.pop(1)):
    with open(path, "w") as fh:
        fh.write("\\n".join(sys.modules))

atexit.register(dump)
runpy.run_module("cvb.cli", run_name="__main__", alter_sys=True)
"""


def test_the_cli_imports_only_what_a_command_runs(tmp_path):
    # each pipeline command in its own process: the raster module for warp alone, the generators for gen
    # alone, no fitter or calibration module for gen, no fit engine where a surface is only evaluated,
    # no dataclasses anywhere, and numpy's series module for fit1d --sample alone
    src = str(Path(cvb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    write_image(tmp_path / "in.ppm", np.arange(48 * 3, dtype=np.uint8).reshape(6, 8, 3), plain=True)
    (tmp_path / "points.csv").write_text("u,v\n320,240\n100,50\n")
    commands = {
        "gen": ["gen", "correspondences", "--out", "pairs.csv"],
        "calibrate": ["calibrate", "--pairs", "pairs.csv", "--degree-bound", "4", "--out", "model.json"],
        "apply": ["apply", "--model", "model.json", "--points", "points.csv", "--out", "mapped.csv"],
        "warp": ["warp", "--model", "model.json", "--input", "in.ppm", "--output", "out.ppm",
                 "--window=-448,448,-336,336", "--width", "8", "--height", "6"],
        "eval": ["eval", "--model", "model.json", "--truth", "pairs.csv"],
    }
    loaded = {}
    for command, argv in commands.items():
        names = tmp_path / f"{command}.modules"
        proc = subprocess.run([sys.executable, "-c", MODULES_AT_EXIT, str(names), *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == EXIT_OK, proc.stderr
        loaded[command] = set(names.read_text().split())
    assert loaded["gen"].isdisjoint({"cvb.fit1d", "cvb.fit2d", "cvb.rectify"}), loaded["gen"]
    assert {"cvb.fit1d", "cvb.fit2d", "cvb.rectify"} <= loaded["calibrate"]
    for command in ("apply", "warp", "eval"):
        assert "cvb.fit1d" not in loaded[command] and "cvb.rectify" in loaded[command], command
    for command, modules in loaded.items():
        assert ("cvb.ppm" in modules, "cvb.synthetic" in modules) == (command == "warp", command == "gen"), command
        assert {"dataclasses", "numpy.polynomial"}.isdisjoint(modules), command


def single_value_options():
    """(subcommand, flag) of every option that takes one value, as ``build_parser`` declares them."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[-1]) for name, parser in sub.choices.items()
            for action in parser._actions if action.option_strings and action.nargs is None]


SINGLE_VALUE_OPTIONS = single_value_options()


class TestNumericFlags:
    """Every numeric flag reads plain ASCII numbers, as the CSV cells do, and a refusal names the flag."""

    FLAGS = [
        (("gen", "runge"), "--m", "int"),
        (("gen", "noisy-line"), "--seed", "int"),
        (("fit1d",), "--epsilon", "float"),
        (("fit1d",), "--max-terms", "int"),
        (("fit1d",), "--extra-sweeps", "int"),
        (("fit2d",), "--max-terms", "int"),
        (("calibrate",), "--epsilon", "float"),
        (("calibrate",), "--inverse-epsilon", "float"),
        (("calibrate",), "--degree-bound", "int"),
        (("warp",), "--width", "int"),
        (("warp",), "--height", "int"),
    ]

    @staticmethod
    def argv(command, tmp_path):
        paths = {"--out": tmp_path / "out", "--input": tmp_path / "in", "--pairs": tmp_path / "p",
                 "--model": tmp_path / "m", "--output": tmp_path / "o"}
        needs = {"gen": ["--out"], "fit1d": ["--input"], "fit2d": ["--input"], "calibrate": ["--pairs", "--out"],
                 "warp": ["--model", "--input", "--output"]}[command[0]]
        extra = ["--window=0,1,0,1"] if command[0] == "warp" else []
        return [*command, *(x for flag in needs for x in (flag, str(paths[flag]))), *extra]

    @pytest.mark.parametrize("command, flag, kind", FLAGS, ids=[" ".join((*c, f)) for c, f, _ in FLAGS])
    @pytest.mark.parametrize("value", ["1_0", "\uff13", "\u0663", "x", ""])
    def test_a_value_only_python_reads_is_refused_by_flag(self, tmp_path, capsys, command, flag, kind, value):
        code, stdout, stderr = run(capsys, *self.argv(command, tmp_path), flag, value)
        assert (code, stdout, stderr) == (EXIT_VALIDATION, "", f"error: argument {flag}: invalid {kind} value: {value!r}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (("fit1d", "--max-terms", "\uff13"), "argument --max-terms: invalid int value: '\uff13'"),
        (("fit1d", "--epsilon", "1_0e-3"), "argument --epsilon: invalid float value: '1_0e-3'"),
        (("gen", "runge", "--m", "\uff19"), "argument --m: invalid int value: '\uff19'"),
    ])
    def test_the_examples_that_used_to_fit(self, quad_csv, tmp_path, capsys, argv, message):
        files = ["--out", str(tmp_path / "r.csv")] if argv[0] == "gen" else ["--input", str(quad_csv)]
        code, stdout, stderr = run(capsys, *argv, *files)
        assert (code, stdout, stderr) == (EXIT_VALIDATION, "", f"error: {message}\n")
        assert not (tmp_path / "r.csv").exists()

    def test_plain_numbers_still_parse(self, quad_csv, capsys):
        code, stdout, _ = run(capsys, "fit1d", "--input", str(quad_csv), "--algorithm", "interp",
                              "--max-terms", " 3 ", "--epsilon", "1e-3")
        assert code == EXIT_OK
        assert [float(v) for v in stdout.split()] == pytest.approx([1.5, 2.0, 0.5], abs=1e-10)

    @pytest.mark.parametrize("argv, message", [
        ((), "the following arguments are required: command"),
        (("fit1d",), "the following arguments are required: --input"),
        (("fit1d", "--input"), "argument --input: expected one argument"),
        (("fit1d", "--input", "x", "--algorithm", "spline"),
         "argument --algorithm: invalid choice: 'spline' (choose from 'interp', 'approx')"),
        (("warp", "--model", "m", "--input", "i", "--output", "o", "--window", "-448,448,-336,336"),
         "argument --window: expected one argument"),
        (("fit1d", "--input", "x", "--bogus"), "unrecognized arguments: --bogus"),
    ])
    def test_a_parser_refusal_is_one_error_line_and_exit_1(self, capsys, argv, message):
        assert run(capsys, *argv) == (EXIT_VALIDATION, "", f"error: {message}\n")

    @pytest.mark.parametrize("command, flag", SINGLE_VALUE_OPTIONS, ids=[" ".join(o) for o in SINGLE_VALUE_OPTIONS])
    def test_an_attached_double_dash_is_refused_by_flag(self, capsys, command, flag):
        # argparse takes "--flag=--" as no value at all, neither converted nor checked, and once passed it on as []
        assert run(capsys, command, f"{flag}=--") == (EXIT_VALIDATION, "", f"error: argument {flag}: expected one argument\n")

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit1d", "--help"])
        assert exc.value.code == 0 and "--max-terms" in capsys.readouterr().out


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


# finite float64 values drawn by their bits, so subnormals and both zeros come up
BIT_FLOATS = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]).filter(math.isfinite)


def csv_oracle(columns, rows):
    """Oracle: the CSV text with each real formatted on its own by format(v, ".17g")."""
    lines = [",".join(columns)] + [",".join(format(v, ".17g") for v in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode()


@st.composite
def csv_tables(draw):
    """(columns, rows) of a CSV table of reals."""
    width = draw(st.integers(1, 5))
    cell = st.one_of(st.sampled_from(EDGE_FLOATS + [-v for v in EDGE_FLOATS]), BIT_FLOATS)
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=30))
    return [f"c{k}" for k in range(width)], rows


class TestCsvCells:
    @settings(max_examples=150, deadline=None)
    @given(table=csv_tables())
    @example(table=(["a", "b"], [[-0.0, 5e-324], [-5e-324, 1.7976931348623157e308]]))
    @example(table=(["a"], []))
    def test_written_bytes_equal_a_per_cell_format(self, tmp_path_factory, table):
        from cvb.cli import _write_csv

        columns, rows = table
        path = tmp_path_factory.mktemp("csv") / "rows.csv"
        _write_csv(path, columns, rows)
        assert path.read_bytes() == csv_oracle(columns, rows)

    def test_a_table_of_many_blocks_equals_a_per_cell_format(self, tmp_path):
        from cvb.cli import _CSV_BLOCK, _write_csv

        bits = np.random.default_rng(6).integers(0, 2**64, size=(_CSV_BLOCK // 2 + 7, 5), dtype=np.uint64)
        rows = bits.view(np.float64)
        rows = np.where(np.isfinite(rows), rows, -0.0).tolist()
        columns = [f"c{k}" for k in range(5)]
        path = tmp_path / "rows.csv"
        _write_csv(path, columns, rows)
        assert path.read_bytes() == csv_oracle(columns, rows)

    @pytest.mark.parametrize("body, message", [
        (b"1,2\n3,4,5\n6,x\n", "3: expected 2 fields, got 3"),
        (b"1,2\n6,x\n3,4,5\n", "3: non-numeric field in ['6', 'x']"),
        (b"1,2\nnan,1\n3,4,5\n", "3: non-finite field in ['nan', '1']"),
        (b"1,2\n3,1e999\n4,x\n", "3: non-finite field in ['3', '1e999']"),
        (b"1,2\n3,x\n" + b"9" * 131_073 + b",1\n", "3: non-numeric field in ['3', 'x']"),
        (b"1,2\n" + b"9" * 131_073 + b",1\n3,x\n", "3: field larger than field limit (131072)"),
        (b"1,2\n3,x\n" + b"1,2\n" * 5000 + b"\xff,1\n", "3: non-numeric field in ['3', 'x']"),
    ], ids=["count", "non-numeric", "non-finite", "overflow", "bad row, then a huge field", "huge field, then a bad row",
            "bad row, then undecodable bytes"])
    def test_the_first_fault_of_a_file_is_the_one_named(self, identity_model, tmp_path, capsys, body, message):
        pts, out = tmp_path / "pts.csv", tmp_path / "mapped.csv"
        pts.write_bytes(b"u,v\n" + body)
        code, stdout, stderr = run(capsys, "apply", "--model", str(identity_model), "--points", str(pts),
                                   "--out", str(out))
        assert (code, stdout, stderr) == (EXIT_VALIDATION, "", f"error: {pts}:{message}\n")
        assert not out.exists()

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


def row_walk_oracle(path, columns):
    """Oracle: the rows ``_read_csv`` returns for ``path``, or the message it refuses the file with.

    The records are read in text mode, each undecodable byte kept as a lone
    surrogate, up to a read error: a csv.Error, or the first line holding
    such a byte, named by its line and its offset in the file (a record that
    line cuts off is not read).  The records read are then held, one at a
    time in file order, to the rule: the declared field count, cells of plain
    ASCII numbers (no ``_``), finite values.  The read error stands only when
    every non-blank row before it passes.
    """
    records, read_error, cut = [], None, []

    def decoded(fh):
        offset = 3 if path.read_bytes().startswith(b"\xef\xbb\xbf") else 0
        for lineno, line in enumerate(fh, start=1):
            raw = line.encode("utf-8", "surrogateescape")
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                cut.append(f"{path}:{lineno}: cannot decode byte 0x{raw[exc.start]:02x} at file offset "
                           f"{offset + exc.start} as UTF-8: {exc.reason}")
                return
            offset += len(raw)
            yield line

    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(decoded(fh))
        try:
            for record in reader:
                if not cut:
                    records.append(record)
        except csv.Error as exc:
            read_error = f"{path}:{reader.line_num}: {exc}"
    read_error = read_error or (cut[0] if cut else None)
    assert read_error is not None or records[0] == list(columns)
    values, lines = [], []
    for lineno, row in enumerate(records[1:], start=2):
        if not row:
            continue
        if len(row) != len(columns):
            return f"{path}:{lineno}: expected {len(columns)} fields, got {len(row)}"
        numbers = []
        for cell in row:
            try:
                numbers.append(float(cell) if cell.isascii() and "_" not in cell else None)
            except ValueError:
                numbers.append(None)
        if None in numbers:
            return f"{path}:{lineno}: non-numeric field in {row}"
        if not all(map(math.isfinite, numbers)):
            return f"{path}:{lineno}: non-finite field in {row}"
        values += numbers
        lines.append(lineno)
    if read_error is not None:
        return read_error
    if not lines:
        return f"{path}: no data rows"
    return values, lines


GOOD_CELLS = st.one_of(
    st.sampled_from(["0", "-0", "1", "+7", ".5", "1.", " 3 ", "2.5e-3", "5e-324", "1.7976931348623157e308",
                     '"4"', '" 8 "', "-1E+2"]),
    BIT_FLOATS.map(repr),
)
BAD_CELLS = st.sampled_from(["nan", "-inf", "Infinity", "1e400", "1_0", "\uff13", "\ufeff1", "x", "", "0x10",
                             '"1\n2"', '"1,2"', '"1', "1\x00"])
# a block of good rows past the text reader's 8 KiB chunk, so that later bytes are decoded after rows are read
PADDING = 2100


@st.composite
def csv_files(draw):
    """(columns, bytes) of a CSV file: the header, then good rows, blank lines and faults of every kind."""
    columns = draw(st.sampled_from([("u", "v"), ("u", "v", "X", "Y")]))
    width = len(columns)
    good = st.lists(GOOD_CELLS, min_size=width, max_size=width).map(",".join)
    bad = st.one_of(
        st.lists(GOOD_CELLS, min_size=1, max_size=width + 2).filter(lambda cells: len(cells) != width).map(",".join),
        # one bad cell among good ones, at a drawn column
        st.tuples(st.lists(GOOD_CELLS, min_size=width - 1, max_size=width - 1), BAD_CELLS, st.integers(0, width - 1))
        .map(lambda t: ",".join(t[0][:t[2]] + [t[1]] + t[0][t[2]:])),
        st.just(" "),
    )
    kinds = st.one_of(good, good, good, st.just(""), bad)
    lines = [line.encode() for line in draw(st.lists(kinds, max_size=12))]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), b"\n".join([",".join(["1"] * width).encode()] * PADDING))
    if draw(st.booleans()):
        # undecodable bytes, a NUL, a field over the csv module's size limit
        fault = draw(st.sampled_from([b"\xff,1", b"1,\xc3", b"\xed\xa0\x80", b"1\x00,2", b"9" * 131_073 + b",1"]))
        lines.insert(draw(st.integers(0, len(lines))), fault)
    newline = draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    mark = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    return columns, mark + newline.join([",".join(columns).encode(), *lines]) + draw(st.sampled_from([newline, b""]))


class TestCsvRows:
    @settings(max_examples=200, deadline=None)
    @given(table=csv_files())
    @example(table=(("u", "v"), b"u,v\n1,2\n\n3,x\n4,5,6\nnan,1\n"))
    @example(table=(("u", "v"), b"u,v\n" + b"1,2\n" * PADDING + b"3,4\n\xff,1\n5,x\n"))
    @example(table=(("u", "v"), b"u,v\n" + b"1,2\n" * PADDING + b"3,x\n\xff,1\n"))
    @example(table=(("u", "v"), b'u,v\n1,"2\n3"\n' + b"9" * 131_073 + b",1\n4,y\n"))
    @example(table=(("u", "v"), b'u,v\n1,"2"\n\n' + b"9" * 131_073 + b",1\n4,y\n"))
    @example(table=(("u", "v", "X", "Y"), b'u,v,X,Y\r\n\r\n-0,"5e-324",1,2\r\n'))
    @example(table=(("u", "v"), b"u,v\n\n"))
    def test_the_reader_is_a_row_walk(self, tmp_path_factory, table):
        from cvb.cli import _read_csv

        columns, body = table
        path = tmp_path_factory.mktemp("rows") / "table.csv"
        path.write_bytes(body)
        expect = row_walk_oracle(path, columns)
        if isinstance(expect, str):
            with pytest.raises(ValueError) as exc:
                _read_csv(path, columns)
            assert str(exc.value) == expect
            return
        data, lines = _read_csv(path, columns)
        values, expect_lines = expect
        assert data.dtype == np.float64 and data.shape == (len(expect_lines), len(columns))
        assert data.tobytes() == struct.pack(f"<{len(values)}d", *values)
        assert lines == expect_lines

    def test_reading_a_table_keeps_no_copy_of_its_rows(self, tmp_path):
        from cvb.cli import _read_csv

        n = 50_000
        path = tmp_path / "pts.csv"
        rng = np.random.default_rng(8)
        path.write_text("u,v\n" + "".join(f"{u!r},{v!r}\n" for u, v in rng.uniform(0, 640, (n, 2)).tolist()))
        tracemalloc.start()
        try:
            data, lines = _read_csv(path, ("u", "v"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.shape == (n, 2) and lines[-1] == n + 1
        # a float and a line number per row, and the array; no list of the rows' strings
        assert peak < 300 * n, peak / n


class TestUndecodableBytes:
    """A byte that is not UTF-8 is named by its file, its line and its offset in the file."""

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "marked"])
    def test_a_csv_byte_past_the_first_decode_chunk(self, identity_model, tmp_path, capsys, mark):
        pts = tmp_path / "pts.csv"
        pts.write_bytes(mark + b"u,v\n" + b"1,2\n" * 5000 + b"\xff,1\n")
        offset = 20_004 + len(mark)
        assert pts.read_bytes()[offset] == 0xFF
        code, stdout, stderr = run(capsys, "apply", "--model", str(identity_model), "--points", str(pts),
                                   "--out", str(tmp_path / "out.csv"))
        assert (code, stdout) == (EXIT_VALIDATION, "")
        assert stderr == f"error: {pts}:5002: cannot decode byte 0xff at file offset {offset} as UTF-8: invalid start byte\n"

    def test_a_bad_row_before_the_byte_is_named_first(self, identity_model, tmp_path, capsys):
        # both lie in one 8 KiB decode chunk of a text-mode reader
        pts = tmp_path / "pts.csv"
        pts.write_bytes(b"u,v\n" + b"1,2\n" * 4995 + b"1,x\n" + b"1,2\n" * 4 + b"\xff,1\n")
        code, stdout, stderr = run(capsys, "apply", "--model", str(identity_model), "--points", str(pts),
                                   "--out", str(tmp_path / "out.csv"))
        assert (code, stdout, stderr) == (EXIT_VALIDATION, "", f"error: {pts}:4997: non-numeric field in ['1', 'x']\n")

    @pytest.mark.parametrize("where", ["start", "third line"])
    def test_a_model_document_byte(self, identity_model, tmp_path, capsys, where):
        text = identity_model.read_bytes()
        offset = 0 if where == "start" else text.index(b"\n", text.index(b"\n") + 1) + 3
        model = tmp_path / "bad.json"
        model.write_bytes(text[:offset] + b"\xc3(" + text[offset:])
        pts = tmp_path / "pts.csv"
        pts.write_text("u,v\n1,2\n")
        code, stdout, stderr = run(capsys, "apply", "--model", str(model), "--points", str(pts),
                                   "--out", str(tmp_path / "out.csv"))
        line = 1 if where == "start" else 3
        assert (code, stdout) == (EXIT_VALIDATION, "")
        assert stderr == f"error: {model}:{line}: cannot decode byte 0xc3 at file offset {offset} as UTF-8: invalid continuation byte\n"


def test_a_warning_is_one_line_from_any_install(identity_model, tmp_path):
    # the default warning format starts with the path and line of the call in cli.py, then that source line
    pts = tmp_path / "pts.csv"
    pts.write_text("u,v\n1,2\n40,6\n")
    package = Path(cvb.__file__).resolve().parent
    errs = []
    for root, shift in ((tmp_path / "a", ""), (tmp_path / "b" / "site", "\n" * 9)):
        shutil.copytree(package, root / "cvb", ignore=shutil.ignore_patterns("__pycache__"))
        cli = root / "cvb" / "cli.py"
        cli.write_text(shift + cli.read_text())  # every line of cli.py moves in the second copy
        proc = subprocess.run([sys.executable, "-m", "cvb.cli", "apply", "--model", str(identity_model),
                               "--points", str(pts), "--out", str(root / "out.csv")],
                              env=dict(os.environ, PYTHONPATH=str(root)), capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (EXIT_OK, b"2\n"), proc.stderr
        errs.append(proc.stderr)
    xmap = load_model(identity_model.read_text()).fwd_x.xmap
    assert errs[0] == errs[1] == \
        f"warning: ExtrapolationWarning: evaluation outside the fitted x interval [{xmap.lo}, {xmap.hi}]\n".encode()


class TestByteOrderMark:
    """One leading U+FEFF, as spreadsheets write in "CSV UTF-8", is not part of a file's text."""

    def test_a_csv_file_may_start_with_one(self, quad_csv, tmp_path, capsys):
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + quad_csv.read_bytes())
        plain = run(capsys, "fit1d", "--input", str(quad_csv))
        assert plain[0] == EXIT_OK
        assert run(capsys, "fit1d", "--input", str(marked)) == plain

    def test_a_model_document_may_start_with_one(self, identity_model, tmp_path, capsys):
        marked = tmp_path / "bom.json"
        marked.write_bytes(b"\xef\xbb\xbf" + identity_model.read_bytes())
        pts = tmp_path / "pts.csv"
        pts.write_text("u,v\n1,2\n3.5,4\n15,0.25\n")
        mapped = []
        for model in (identity_model, marked):
            out = tmp_path / f"{model.stem}.out.csv"
            assert run(capsys, "apply", "--model", str(model), "--points", str(pts), "--out", str(out)) == \
                (EXIT_OK, "3\n", "")
            mapped.append(out.read_bytes())
        assert mapped[0] == mapped[1]

    @pytest.mark.parametrize("lead", ["", "\ufeff"])
    def test_a_mark_in_a_cell_is_non_numeric(self, tmp_path, capsys, lead):
        data = tmp_path / "bom.csv"
        data.write_text(f"{lead}x,y\n1,1\n\ufeff1,2\n3,3\n", encoding="utf-8")
        code, stdout, stderr = run(capsys, "fit1d", "--input", str(data))
        assert (code, stdout) == (EXIT_VALIDATION, "")
        assert stderr == f"error: {data}:3: non-numeric field in ['\\ufeff1', '2']\n"

    def test_only_one_leading_mark_is_dropped(self, tmp_path, capsys):
        data = tmp_path / "bom.csv"
        data.write_text("\ufeff\ufeffx,y\n1,1\n2,2\n", encoding="utf-8")
        code, stdout, stderr = run(capsys, "fit1d", "--input", str(data))
        assert (code, stdout) == (EXIT_VALIDATION, "")
        assert stderr == f"error: {data}: expected header 'x,y', got '\\ufeffx,y'\n"


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


# `python -m cvb.cli` as runpy starts it, after an atexit hook that writes the
# collector's frozen-object count to the path given as the first argument
EXIT_BOOTSTRAP = """
import atexit, gc, runpy, sys

def record(path=sys.argv.pop(1)):
    with open(path, "w") as fh:
        fh.write(str(gc.get_freeze_count()))

atexit.register(record)
runpy.run_module("cvb.cli", run_name="__main__", alter_sys=True)
"""


class TestProcessExit:
    """A `cvb` process freezes the collector before it exits; ``main`` called in-process does not.

    Every command of the pipeline, and one refusal, must write the same exit
    code, stdout, stderr and files as ``main`` with the same argv.
    """

    COMMANDS = (
        ("gen", "correspondences", "--out", "pairs.csv"),
        ("calibrate", "--pairs", "pairs.csv", "--epsilon", "0.5", "--inverse-epsilon", "0.25",
         "--degree-bound", "8", "--out", "model.json"),
        ("apply", "--model", "model.json", "--points", "points.csv", "--out", "mapped.csv"),
        ("warp", "--model", "model.json", "--input", "in.ppm", "--output", "out.ppm",
         "--window=-448,448,-336,336", "--width", "24", "--height", "18"),
        ("eval", "--model", "model.json", "--truth", "truth.csv"),
        ("apply", "--model", "model.json", "--points", "bad.csv", "--out", "refused.csv"),
    )

    @staticmethod
    def write_inputs(directory):
        from cvb.synthetic import DistortionParams, distort

        params = DistortionParams()
        width, height = params.image_size
        rng = np.random.default_rng(5)
        # points over the whole frame, so apply warns beyond the calibrated grid
        points = np.column_stack([rng.uniform(0.0, width, 30), rng.uniform(0.0, height, 30)])
        world = rng.uniform(-200.0, 200.0, (20, 2))
        truth = np.column_stack([*distort(params, world[:, 0], world[:, 1]), world])
        (directory / "points.csv").write_text("u,v\n" + "".join("%.17g,%.17g\n" % tuple(p) for p in points))
        (directory / "truth.csv").write_text("u,v,X,Y\n" + "".join("%.17g,%.17g,%.17g,%.17g\n" % tuple(t)
                                                                   for t in truth))
        (directory / "bad.csv").write_text("u,v\n1,2\n3,x\n")
        write_image(directory / "in.ppm", rng.integers(0, 256, (12, 16, 3), dtype=np.uint8), plain=True)

    @staticmethod
    def files(directory):
        return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}

    def test_a_command_process_writes_what_main_writes_and_exits_frozen(self, tmp_path, capsys, monkeypatch):
        child, here = tmp_path / "child", tmp_path / "here"
        for directory in (child, here):
            directory.mkdir()
            self.write_inputs(directory)
        src = str(Path(cvb.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        count = tmp_path / "freeze_count"
        monkeypatch.chdir(here)
        results = []
        for argv in self.COMMANDS:
            count.unlink(missing_ok=True)
            proc = subprocess.run([sys.executable, "-c", EXIT_BOOTSTRAP, str(count), *argv], cwd=child, env=env,
                                  capture_output=True, timeout=120)
            results.append(run(capsys, *argv))
            code, stdout, stderr = results[-1]
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout.encode(), stderr.encode()), argv
            assert int(count.read_text()) > 0, argv
            assert self.files(child) == self.files(here), argv
        assert [code for code, _, _ in results] == [EXIT_OK] * 5 + [EXIT_VALIDATION]
        assert results[2][2].startswith("warning: ExtrapolationWarning: ")
        assert results[5][2] == "error: bad.csv:3: non-numeric field in ['3', 'x']\n"

    def test_the_console_script_is_the_entry_of_the_main_block(self):
        # an installed `cvb` must exit as `python -m cvb.cli` does
        root = Path(__file__).resolve().parents[1]
        script = re.search(r'^cvb = "cvb\.cli:(\w+)"$', (root / "pyproject.toml").read_text(), re.M)
        tree = ast.parse((root / "src" / "cvb" / "cli.py").read_text(encoding="utf-8"))
        block = next(node for node in tree.body
                     if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'")
        assert script is not None and ast.unparse(block.body[0]) == f"sys.exit({script[1]}())"

    def test_main_leaves_the_collector_unfrozen(self, tmp_path, capsys):
        before = gc.get_freeze_count()
        assert run(capsys, "gen", "correspondences", "--out", str(tmp_path / "pairs.csv"))[0] == EXIT_OK
        assert run(capsys, "gen", "nonsense", "--out", str(tmp_path / "x.csv"))[0] == EXIT_VALIDATION
        assert gc.get_freeze_count() == before
