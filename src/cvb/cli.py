"""Command-line front end: dataset generation, fitting, calibration, warping.

Exit codes: 0 success, 1 validation error or a request that needs more
memory than the process can get, 2 I/O error, 3 non-convergence under
--strict.  Data goes to files or stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from .basis import SampleSet1D, auto_map
from .fit1d import FitConfig, FitError, _scale_exponent, cvb_approximate, cvb_interpolate, eval_model_1d
from .fit2d import SampleSet2D, cvb_approximate_2d
from .ppm import read_image, write_image
from .rectify import (
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
    """Strict CSV reader: exact header, one float per declared column.

    Returns the rows as an array and the file line of each row (blank lines
    are skipped, so a row's index is not its line).
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            if [h.strip() for h in header] != list(columns):
                raise ValueError(f"{path}: expected header {','.join(columns)!r}, got {','.join(header)!r}")
            rows, lines = [], []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(columns):
                    raise ValueError(f"{path}:{lineno}: expected {len(columns)} fields, got {len(row)}")
                try:
                    values = [float(v) for v in row]
                except ValueError:
                    values = None
                # float() also reads digit-group underscores and non-ASCII digits,
                # which no CSV number holds: one test of the whole row refuses them
                cells = "".join(row)
                if values is None or "_" in cells or not cells.isascii():
                    raise ValueError(f"{path}:{lineno}: non-numeric field in {row}")
                if not all(map(math.isfinite, values)):
                    raise ValueError(f"{path}:{lineno}: non-finite field in {row}")
                rows.append(values)
                lines.append(lineno)
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows), lines


def _write_csv(path, columns, rows):
    # format first: a non-finite value raises before the file is touched;
    # str cells (labels) pass through as they are
    text = [[v if isinstance(v, str) else _fmt(v) for v in row] for row in rows]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(text)


def _load_samples_1d(path):
    data, _ = _read_csv(path, ("x", "y"))
    xmap = auto_map(data[:, 0])
    return SampleSet1D(x=xmap.forward(data[:, 0]), y=data[:, 1]), xmap


def _fit_config(args, default_terms):
    """The FitConfig of fit1d's and fit2d's shared fit flags."""
    max_terms = args.max_terms if args.max_terms is not None else default_terms
    return FitConfig(epsilon=args.epsilon, max_terms=max_terms, extra_sweeps=args.extra_sweeps)


def cmd_gen(args) -> int:
    if args.kind not in GEN_KINDS:
        raise ValueError(f"unknown dataset kind {args.kind!r} (choose from {', '.join(GEN_KINDS)})")
    if args.kind == "correspondences":
        rows = gen_correspondences(DistortionParams())
        _write_csv(args.out, ("u", "v", "X", "Y"), rows)
    else:
        if args.kind == "runge":
            samples = gen_runge(args.m)
        elif args.kind == "humped-flat":
            samples = gen_humped_flat()
        else:
            samples = gen_noisy_line(args.seed)
        rows = list(zip(samples.x.tolist(), samples.y.tolist()))
        _write_csv(args.out, ("x", "y"), rows)
    print(len(rows))
    return EXIT_OK


def _write_trace(path, report, n_coeffs=0):
    """Per-step trace CSV; curve traces also carry the coefficients after each step.

    Approximation steps store only their increment, so their coefficients are
    the running sum per term: the fit's own additions, in its order.
    """
    columns = ["step", "term", "increment", "max_abs_residual", "l2_residual"]
    columns += [f"a{j}" for j in range(n_coeffs)]
    a = [0.0] * n_coeffs
    rows = []
    for step, entry in enumerate(report.trace, start=1):
        if n_coeffs and entry.coeffs is None:
            a[entry.term] += entry.increment
        rows.append([step, entry.term if isinstance(entry.term, int) else f"{entry.term[0]}:{entry.term[1]}",
                     entry.increment, entry.max_abs_residual, entry.l2_residual,
                     *(a if entry.coeffs is None else entry.coeffs)])
    _write_csv(path, columns, rows)


def cmd_fit1d(args) -> int:
    if args.sample and int(args.sample[0]) < 2:
        raise ValueError("--sample needs at least 2 points")
    if args.algorithm == "interp" and args.extra_sweeps > 0:
        raise ValueError("--extra-sweeps does not apply to --algorithm interp: interpolation is one fixed pass")
    samples, xmap = _load_samples_1d(args.input)
    fit = cvb_interpolate if args.algorithm == "interp" else cvb_approximate
    model, report = fit(samples, _fit_config(args, samples.m), xmap=xmap)
    for coeff in model.coeffs:
        print(_fmt(coeff))
    if args.trace:
        _write_trace(args.trace, report, model.n)
    if args.sample:
        xs = np.linspace(xmap.lo, xmap.hi, int(args.sample[0]))
        _write_csv(args.sample[1], ("x", "P(x)"), zip(xs.tolist(), eval_model_1d(model, xs).tolist()))
    if not report.converged:
        print(f"converged=false (max-abs residual above epsilon={_fmt(args.epsilon)})", file=sys.stderr)
        if args.strict:
            return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_fit2d(args) -> int:
    data, _ = _read_csv(args.input, ("x", "y", "z"))
    xmap, ymap = auto_map(data[:, 0]), auto_map(data[:, 1])
    samples = SampleSet2D(x=xmap.forward(data[:, 0]), y=ymap.forward(data[:, 1]), z=data[:, 2])
    model, report = cvb_approximate_2d(samples, _fit_config(args, 8), xmap=xmap, ymap=ymap)
    if args.trace:
        _write_trace(args.trace, report)
    for term, coeff in model.coeffs.items():
        print(f"[{term.i}, {term.j}, {_fmt(coeff)}]")
    print(f"terms={report.terms_used} max_abs_residual={_fmt(report.max_abs_residual)} "
          f"converged={str(report.converged).lower()}", file=sys.stderr)
    if not report.converged and args.strict:
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_calibrate(args) -> int:
    pairs, _ = _read_csv(args.pairs, ("u", "v", "X", "Y"))
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


def _point(path, data, lines, k):
    """Row k of a u,v CSV, by its values and its file line."""
    return f"the point u={float(data[k, 0])!r}, v={float(data[k, 1])!r} at {path}:{lines[k]}"


def _map_rows(model, path, data, lines):
    """map_point over the u,v columns of a CSV, refusing a point mapped beyond the float range."""
    X, Y = map_point(model, data[:, 0], data[:, 1])
    bad = np.flatnonzero(~(np.isfinite(X) & np.isfinite(Y)))
    if bad.size:
        k = bad[0]
        name, value = ("X", X[k]) if not np.isfinite(X[k]) else ("Y", Y[k])
        raise ValueError(f"cannot serialize non-finite value {name}={float(value)!r}: "
                         f"{_point(path, data, lines, k)} maps beyond the float range")
    return X, Y


def cmd_apply(args) -> int:
    model = _load_model_file(args.model)
    data, lines = _read_csv(args.points, ("u", "v"))
    X, Y = _map_rows(model, args.points, data, lines)
    _write_csv(args.out, ("u", "v", "X", "Y"), np.column_stack((data, X, Y)).tolist())
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
    data, lines = _read_csv(args.truth, ("u", "v", "X", "Y"))
    Xm, Ym = _map_rows(model, args.truth, data, lines)
    # the finite differences are scaled by 2^-e before they are squared, as
    # fit1d._l2 scales, so no square leaves the float range
    with np.errstate(over="ignore"):  # a difference or distance beyond it is refused below
        diff = np.stack((Xm - data[:, 2], Ym - data[:, 3]))
        e = _scale_exponent(float(np.abs(diff[np.isfinite(diff)]).max(initial=0.0)))
        squares = (np.ldexp(diff, -e) ** 2).sum(axis=0)
        dist = np.ldexp(np.sqrt(squares), e)
    bad = np.flatnonzero(~np.isfinite(dist))
    if bad.size:
        raise ValueError(f"the mapping error of {_point(args.truth, data, lines, bad[0])} "
                         f"lies beyond the float range")
    print(f"max_err_mm={_fmt(dist.max())}")
    print(f"rms_err_mm={_fmt(math.ldexp(math.sqrt(squares.mean()), e))}")
    print(f"n_points={len(data)}")
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
    except MemoryError as exc:  # e.g. a huge --width/--height or --degree-bound
        print(f"error: not enough memory for this {args.command} request ({str(exc) or 'allocation failed'})",
              file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
