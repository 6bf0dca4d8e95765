"""Command-line front end: dataset generation, fitting, calibration, warping.

Exit codes: 0 success, 1 validation error, 2 I/O error, 3 non-convergence
under --strict.  Data goes to files or stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from .basis import SampleSet1D, auto_map
from .fit1d import FitConfig, FitError, cvb_approximate, cvb_interpolate, eval_model_1d
from .fit2d import SampleSet2D, cvb_approximate_2d
from .ppm import read_image, write_image
from .rectify import (
    Correspondence,
    ModelParseError,
    WarpSpec,
    _fmt,
    calibrate,
    load_model,
    map_point,
    save_model,
    warp_image,
)
from .synthetic import DistortionParams, gen_correspondences, gen_humped_flat, gen_noisy_line, gen_runge

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NOT_CONVERGED = 3

GEN_KINDS = ("runge", "humped-flat", "noisy-line", "correspondences")


def _read_csv(path, columns):
    """Strict CSV reader: exact header, one float per declared column."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if [h.strip() for h in header] != list(columns):
            raise ValueError(f"{path}: expected header {','.join(columns)!r}, got {','.join(header)!r}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(columns):
                raise ValueError(f"{path}:{lineno}: expected {len(columns)} fields, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric field in {row}") from None
            if not all(np.isfinite(values)):
                raise ValueError(f"{path}:{lineno}: non-finite field in {row}")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows)


def _write_csv(path, columns, rows):
    # format first: a non-finite value raises before the file is touched
    text = [[_fmt(v) for v in row] for row in rows]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(text)


def _load_samples_1d(path):
    # the dense-sampling output (header x,P(x)) is accepted back as input
    try:
        data = _read_csv(path, ("x", "y"))
    except ValueError as header_error:
        try:
            data = _read_csv(path, ("x", "P(x)"))
        except ValueError:
            raise header_error from None
    xmap = auto_map(data[:, 0])
    return SampleSet1D(x=xmap.forward(data[:, 0]), y=data[:, 1]), xmap


def _fit_1d(args, samples, xmap):
    max_terms = args.max_terms if args.max_terms is not None else samples.m
    config = FitConfig(epsilon=args.epsilon, max_terms=max_terms, extra_sweeps=args.extra_sweeps)
    fit = cvb_interpolate if args.algorithm == "interp" else cvb_approximate
    return fit(samples, config, xmap=xmap)


def cmd_gen(args) -> int:
    if args.kind not in GEN_KINDS:
        raise ValueError(f"unknown dataset kind {args.kind!r} (choose from {', '.join(GEN_KINDS)})")
    if args.kind == "correspondences":
        pairs = gen_correspondences(DistortionParams())
        rows = [(p.u, p.v, p.X, p.Y) for p in pairs]
        _write_csv(args.out, ("u", "v", "X", "Y"), rows)
    else:
        if args.kind == "runge":
            samples = gen_runge(args.m)
        elif args.kind == "humped-flat":
            samples = gen_humped_flat()
        else:
            samples = gen_noisy_line(args.seed)
        rows = list(zip(samples.x, samples.y))
        _write_csv(args.out, ("x", "y"), rows)
    print(len(rows))
    return EXIT_OK


def _write_trace(path, report, n_coeffs=0):
    """Per-step trace CSV; curve traces also carry coefficient snapshots."""
    columns = ["step", "term", "increment", "max_abs_residual", "l2_residual"]
    columns += [f"a{j}" for j in range(n_coeffs)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for step, entry in enumerate(report.trace, start=1):
            term = entry.term if isinstance(entry.term, int) else f"{entry.term[0]}:{entry.term[1]}"
            row = [step, term, _fmt(entry.increment),
                   _fmt(entry.max_abs_residual), _fmt(entry.l2_residual)]
            row += [_fmt(c) for c in (entry.coeffs or ())]
            writer.writerow(row)


def cmd_fit1d(args) -> int:
    samples, xmap = _load_samples_1d(args.input)
    model, report = _fit_1d(args, samples, xmap)
    for coeff in model.coeffs:
        print(_fmt(coeff))
    if args.trace:
        _write_trace(args.trace, report, model.n)
    if args.sample:
        count, out_path = int(args.sample[0]), args.sample[1]
        if count < 2:
            raise ValueError("--sample needs at least 2 points")
        xs = np.linspace(xmap.lo, xmap.hi, count)
        _write_csv(out_path, ("x", "P(x)"), zip(xs, eval_model_1d(model, xs)))
    if not report.converged:
        print(f"converged=false (max-abs residual above epsilon={_fmt(args.epsilon)})", file=sys.stderr)
        if args.strict:
            return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_fit2d(args) -> int:
    data = _read_csv(args.input, ("x", "y", "z"))
    xmap, ymap = auto_map(data[:, 0]), auto_map(data[:, 1])
    samples = SampleSet2D(x=xmap.forward(data[:, 0]), y=ymap.forward(data[:, 1]), z=data[:, 2])
    max_terms = args.max_terms if args.max_terms is not None else 8
    config = FitConfig(epsilon=args.epsilon, max_terms=max_terms, extra_sweeps=args.extra_sweeps)
    model, report = cvb_approximate_2d(samples, config, xmap=xmap, ymap=ymap)
    if args.trace:
        _write_trace(args.trace, report)
    for term, coeff in model.coeffs.items():
        print(f"[{term.i}, {term.j}, {_fmt(coeff)}]")
    print(f"terms={report.terms_used} max_abs_residual={_fmt(report.max_abs_residual)} "
          f"converged={str(report.converged).lower()}", file=sys.stderr)
    if not report.converged and args.strict:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _read_pairs(path):
    data = _read_csv(path, ("u", "v", "X", "Y"))
    return [Correspondence(u=r[0], v=r[1], X=r[2], Y=r[3]) for r in data]


def cmd_calibrate(args) -> int:
    pairs = _read_pairs(args.pairs)
    config = FitConfig(epsilon=args.epsilon, max_terms=args.degree_bound)
    inverse = None
    if args.inverse_epsilon is not None:
        inverse = FitConfig(epsilon=args.inverse_epsilon, max_terms=args.degree_bound)
    model = calibrate(pairs, config, inverse_config=inverse)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(save_model(model))
    for name, stats in model.meta.stats.items():
        print(f"{name}: terms={stats.terms_used} max_abs_residual={_fmt(stats.max_abs_residual)} "
              f"converged={str(stats.converged).lower()}")
    if args.strict and not all(s.converged for s in model.meta.stats.values()):
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _load_model_file(path):
    with open(path, encoding="utf-8") as fh:
        return load_model(fh.read())


def cmd_apply(args) -> int:
    model = _load_model_file(args.model)
    data = _read_csv(args.points, ("u", "v"))
    X, Y = map_point(model, data[:, 0], data[:, 1])
    _write_csv(args.out, ("u", "v", "X", "Y"), np.column_stack((data, X, Y)))
    print(len(data))
    return EXIT_OK


def _parse_floats(text, count, what):
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated values, got {text!r}")
    return [float(p) for p in parts]


def _parse_fill(text, channels):
    """--fill as one 0-255 value, or one per channel of the input image."""
    parts = text.split(",")
    if not all(p.strip().isdecimal() and int(p) <= 255 for p in parts):
        raise ValueError(f"--fill values must be integers in 0-255, got {text!r}")
    if len(parts) not in (1, channels):
        raise ValueError(f"--fill has {len(parts)} values but the image has {channels} channel(s)")
    values = [int(p) for p in parts]
    return values[0] if len(values) == 1 else np.array(values, dtype=np.uint8)


def cmd_warp(args) -> int:
    model = _load_model_file(args.model)
    image = read_image(args.input)
    window = _parse_floats(args.window, 4, "--window")
    width = args.width if args.width is not None else image.shape[1]
    height = args.height if args.height is not None else image.shape[0]
    fill = 0 if args.fill is None else _parse_fill(args.fill, 1 if image.ndim == 2 else image.shape[2])
    out = warp_image(model, image, WarpSpec(width=width, height=height, window=tuple(window)), fill=fill)
    write_image(args.output, out)
    return EXIT_OK


def cmd_eval(args) -> int:
    model = _load_model_file(args.model)
    u, v, X, Y = _read_csv(args.truth, ("u", "v", "X", "Y")).T
    Xm, Ym = map_point(model, u, v)
    errors = (Xm - X) ** 2 + (Ym - Y) ** 2
    print(f"max_err_mm={_fmt(np.sqrt(errors.max()))}")
    print(f"rms_err_mm={_fmt(np.sqrt(errors.mean()))}")
    print(f"n_points={len(u)}")
    return EXIT_OK


def _add_fit_flags(parser):
    parser.add_argument("--epsilon", type=float, default=0.0, help="max-abs residual target")
    parser.add_argument("--max-terms", type=int, default=None,
                        help="schedule length (default: sample count for curves, 8 for surfaces)")
    parser.add_argument("--extra-sweeps", type=int, default=0,
                        help="repeat the whole visit/revisit schedule this many extra times")
    parser.add_argument("--trace", default=None, help="write per-step trace CSV here")
    parser.add_argument("--strict", action="store_true", help="exit 3 when the fit does not converge")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cvb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p.add_argument("kind", help=f"one of: {', '.join(GEN_KINDS)}")
    p.add_argument("--m", type=int, default=9, help="point count (runge)")
    p.add_argument("--seed", type=int, default=0, help="generator seed (noisy-line)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fit1d", help="fit a curve to an x,y CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--algorithm", choices=("interp", "approx"), default="approx")
    _add_fit_flags(p)
    p.add_argument("--sample", nargs=2, metavar=("N", "PATH"), default=None,
                   help="write N equispaced model evaluations to PATH")
    p.set_defaults(func=cmd_fit1d)

    p = sub.add_parser("fit2d", help="fit a surface to an x,y,z CSV")
    p.add_argument("--input", required=True)
    _add_fit_flags(p)
    p.set_defaults(func=cmd_fit2d)

    p = sub.add_parser("calibrate", help="fit a calibration model from u,v,X,Y correspondences")
    p.add_argument("--pairs", required=True)
    p.add_argument("--epsilon", type=float, default=0.5, help="forward residual target (world units)")
    p.add_argument("--inverse-epsilon", type=float, default=None,
                   help="inverse residual target in pixels (default: same as --epsilon)")
    p.add_argument("--degree-bound", type=int, default=8)
    p.add_argument("--out", required=True, help="model document path")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("apply", help="map u,v points to world coordinates")
    p.add_argument("--model", required=True)
    p.add_argument("--points", required=True, help="input u,v CSV")
    p.add_argument("--out", required=True, help="output u,v,X,Y CSV")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("warp", help="rectify an image onto a world window")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="input PPM/PGM")
    p.add_argument("--output", required=True, help="output PPM/PGM")
    p.add_argument("--window", required=True, help="world window x0,x1,y0,y1")
    p.add_argument("--width", type=int, default=None, help="output width (default: input width)")
    p.add_argument("--height", type=int, default=None, help="output height (default: input height)")
    p.add_argument("--fill", default=None, help="fill value for unmapped pixels (V or R,G,B)")
    p.set_defaults(func=cmd_warp)

    p = sub.add_parser("eval", help="report mapping error against truth correspondences")
    p.add_argument("--model", required=True)
    p.add_argument("--truth", required=True, help="u,v,X,Y CSV")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FitError, ModelParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
