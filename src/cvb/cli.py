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
import warnings

import numpy as np

from .basis import SampleSet1D, auto_map
from .fit1d import FitConfig, FitError, _scale_exponent, cvb_approximate, cvb_interpolate, eval_model_1d
from .fit2d import SampleSet2D, cvb_approximate_2d
from .rectify import WarpSpec, _fmt, calibrate, load_model, map_point, save_model, warp_image

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NOT_CONVERGED = 3

GEN_KINDS = ("runge", "humped-flat", "noisy-line", "correspondences")


def _numbers(texts, kind=float):
    """``kind`` of each string, or None unless all are plain ASCII numbers.

    float() and int() also read "1_0" and "５"; one test of the joined strings refuses them.
    """
    joined = "".join(texts)
    if "_" in joined or not joined.isascii():
        return None
    try:
        return [kind(t) for t in texts]
    except ValueError:
        return None


def _number(kind):
    """An argparse ``type=`` reading one plain ASCII number, by the rule of ``_numbers``."""

    def parse(text):
        value = _numbers([text], kind)
        if value is None:
            raise ValueError(text)  # argparse names the flag: "invalid int value: '...'"
        return value[0]

    parse.__name__ = kind.__name__
    return parse


class _Parser(argparse.ArgumentParser):
    """argparse whose refusals raise, so that ``main`` reports them as validation errors."""

    def error(self, message):
        raise ValueError(message)

    def _get_values(self, action, arg_strings):
        # argparse drops the "--" of "--flag=--" and returns [], neither converted nor checked
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


def _undecodable(path, last_line=math.inf):
    """The refusal of the first byte of ``path`` that is not UTF-8 on lines 1 to ``last_line``, or None.

    It names the byte's line, as ``newline=""`` text mode splits them, and
    its offset from the start of the file.  Read with
    ``errors="surrogateescape"``, such a byte is a lone surrogate, and a line
    encoded back is its bytes.
    """
    offset = 0
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno > last_line:
                break
            data = line.encode("utf-8", "surrogateescape")
            try:
                data.decode()
            except UnicodeDecodeError as exc:
                return (f"{path}:{lineno}: cannot decode byte 0x{data[exc.start]:02x} at file offset "
                        f"{offset + exc.start} as UTF-8: {exc.reason}")
            offset += len(data)
    return None


def _read_csv(path, columns):
    """Strict CSV reader: exact header, one float per declared column.

    Returns the rows as an array and the file line of each row (blank lines
    are skipped, so a row's index is not its line).  Rows are read and
    checked one at a time, in file order, so the first bad row is the one
    named, and a read error, an undecodable byte included, is raised once
    every row before it has passed.  A byte that is not UTF-8 is read as a
    lone surrogate, which no header or row passes; so on a refusal, such a
    byte on a line read so far is named instead.  One leading UTF-8
    byte-order mark is not part of the header.
    """
    values, lines = [], []
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            if [h.strip() for h in header] != list(columns):
                raise ValueError(f"{path}: expected header {','.join(columns)!r}, got {','.join(header)!r}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(columns):
                    raise ValueError(f"{path}:{lineno}: expected {len(columns)} fields, got {len(row)}")
                numbers = _numbers(row)
                if numbers is None:
                    raise ValueError(f"{path}:{lineno}: non-numeric field in {row}")
                if not all(map(math.isfinite, numbers)):
                    raise ValueError(f"{path}:{lineno}: non-finite field in {row}")
                values += numbers
                lines.append(lineno)
        except (csv.Error, ValueError) as exc:  # a csv.Error is e.g. a field over the csv module's size limit
            where = f"{path}:{reader.line_num}: " if isinstance(exc, csv.Error) else ""
            raise ValueError(_undecodable(path, reader.line_num) or f"{where}{exc}") from None
    if not lines:
        raise ValueError(f"{path}: no data rows")
    return np.array(values).reshape(len(lines), len(columns)), lines


# cells per block of formatted CSV rows
_CSV_BLOCK = 8192


def _write_csv(path, columns, rows, formats=None):
    """A CSV file: the header ``columns``, then one line per row of the float table ``rows``.

    ``formats`` holds one printf format per header column, ``%.17g`` (17
    significant digits, as ``_fmt`` writes a real) by default; a format with
    two conversions, such as the surface trace's ``%d:%d`` term, takes two
    table columns.  A float64 table is formatted as it is, with no copy.  The
    first non-finite value in row order is refused before the file is opened.
    A block of rows is formatted by one ``%`` over a template of that many
    lines.
    """
    line = ",".join(formats or ["%.17g"] * len(columns)) + "\n"
    rows = np.asarray(rows, dtype=float).reshape(-1, line.count("%"))
    finite = np.isfinite(rows).ravel()
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite value {float(rows.flat[finite.argmin()])!r}")
    block = max(1, _CSV_BLOCK // rows.shape[1])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(rows), block):
            part = rows[start : start + block]
            fh.write(line * len(part) % tuple(part.ravel().tolist()))


def _load_samples_1d(path):
    data, _ = _read_csv(path, ("x", "y"))
    xmap = auto_map(data[:, 0])
    return SampleSet1D(x=xmap.forward(data[:, 0]), y=data[:, 1]), xmap


def _fit_config(args, default_terms):
    """The FitConfig of fit1d's and fit2d's shared fit flags."""
    max_terms = args.max_terms if args.max_terms is not None else default_terms
    return FitConfig(epsilon=args.epsilon, max_terms=max_terms, extra_sweeps=args.extra_sweeps)


def cmd_gen(args) -> int:
    from .synthetic import DistortionParams, gen_correspondences, gen_humped_flat, gen_noisy_line, gen_runge

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
        rows = np.column_stack((samples.x, samples.y))
        _write_csv(args.out, ("x", "y"), rows)
    print(len(rows))
    return EXIT_OK


def _write_trace(path, report, n_coeffs=0):
    """Per-step trace CSV, from one float table; curve traces also carry the coefficients after each step.

    A surface's term takes two integer columns, written ``i:j``.  Approximation
    steps store only their increment, so their coefficients are the running
    sum per term: the fit's own additions, in its order.  Summed down the steps
    from a row of zeros, each step adds its increment to its term and 0.0,
    which changes no sum, to every other.
    """
    trace, width = report.trace, 1 if n_coeffs else 2  # a surface's term is i, j
    columns = ["step", "term", "increment", "max_abs_residual", "l2_residual"] + [f"a{j}" for j in range(n_coeffs)]
    formats = ["%.17g"] * len(columns)
    formats[1] = "%d" if n_coeffs else "%d:%d"
    table = np.zeros((len(trace), 4 + width + n_coeffs))
    table[:, 0] = np.arange(1, len(trace) + 1)
    table[:, 1 : 1 + width] = np.reshape([e.term for e in trace], (-1, width))
    stats = [(e.increment, e.max_abs_residual, e.l2_residual) for e in trace]
    table[:, 1 + width : 4 + width] = np.reshape(stats, (-1, 3))
    coeffs = table[:, 4 + width :]
    if trace and trace[0].coeffs is not None:  # interpolation snapshots
        coeffs[:] = [e.coeffs for e in trace]
    elif trace and n_coeffs:
        coeffs[np.arange(len(trace)), table[:, 1].astype(int)] = table[:, 2]  # each increment at its term
        coeffs[0] += 0.0  # the sum from zeros: 0.0 + -0.0 is 0.0
        np.add.accumulate(coeffs, axis=0, out=coeffs)
    _write_csv(path, columns, table, formats)


def cmd_fit1d(args) -> int:
    if args.sample:
        count = _numbers(args.sample[:1], int)
        if count is None:
            raise ValueError(f"--sample N must be an integer, got {args.sample[0]!r}")
        if count[0] < 2:
            raise ValueError("--sample needs at least 2 points")
    if args.algorithm == "interp" and args.extra_sweeps > 0:
        raise ValueError("--extra-sweeps does not apply to --algorithm interp: interpolation is one fixed pass")
    samples, xmap = _load_samples_1d(args.input)
    fit = cvb_interpolate if args.algorithm == "interp" else cvb_approximate
    model, report = fit(samples, _fit_config(args, samples.m), xmap=xmap)
    if args.trace:
        _write_trace(args.trace, report, model.n)
    if args.sample:
        xs = np.linspace(xmap.lo, xmap.hi, count[0])
        _write_csv(args.sample[1], ("x", "P(x)"), np.column_stack((xs, eval_model_1d(model, xs))))
    for coeff in model.coeffs:
        print(_fmt(coeff))
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
    with open(path, encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise ValueError(_undecodable(path)) from None
    return load_model(text)


def _point(path, data, lines, k):
    """Row k of a u,v CSV, by its values and its file line."""
    return f"the point u={float(data[k, 0])!r}, v={float(data[k, 1])!r} at {path}:{lines[k]}"


def _map_rows(model, path, data, lines):
    """map_point over the u,v columns of a CSV, refusing a point mapped beyond the float range."""
    X, Y = map_point(model, data[:, 0], data[:, 1])
    bad = np.flatnonzero(~(np.isfinite(X) & np.isfinite(Y)))
    if bad.size:
        k = bad[0]
        name, value = ("X", X[k]) if not math.isfinite(X[k]) else ("Y", Y[k])
        raise ValueError(f"cannot serialize non-finite value {name}={float(value)!r}: "
                         f"{_point(path, data, lines, k)} maps beyond the float range")
    return X, Y


def cmd_apply(args) -> int:
    model = _load_model_file(args.model)
    data, lines = _read_csv(args.points, ("u", "v"))
    X, Y = _map_rows(model, args.points, data, lines)
    _write_csv(args.out, ("u", "v", "X", "Y"), np.column_stack((data, X, Y)))
    print(len(data))
    return EXIT_OK


def _parse_fill(text, channels):
    """--fill as one 0-255 value, or one per channel of the input image."""
    parts = text.split(",")
    values = _numbers(parts, int)
    # int() also reads a sign, which isdecimal() refuses
    if values is None or not all(p.strip().isdecimal() and v <= 255 for p, v in zip(parts, values)):
        raise ValueError(f"--fill values must be integers in 0-255, got {text!r}")
    if len(parts) not in (1, channels):
        raise ValueError(f"--fill has {len(parts)} values but the image has {channels} channel(s)")
    return values[0] if len(values) == 1 else np.array(values, dtype=np.uint8)


def cmd_warp(args) -> int:
    from .ppm import read_image, write_image

    model = _load_model_file(args.model)
    image = read_image(args.input)
    parts = args.window.split(",")
    if len(parts) != 4:
        raise ValueError(f"--window needs 4 comma-separated values, got {args.window!r}")
    window = _numbers(parts)
    if window is None:
        raise ValueError(f"--window values must be numbers, got {args.window!r}")
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
    parser.add_argument("--epsilon", type=_number(float), default=0.0, help="max-abs residual target")
    parser.add_argument("--max-terms", type=_number(int), default=None,
                        help="schedule length (default: sample count for curves, 8 for surfaces)")
    parser.add_argument("--extra-sweeps", type=_number(int), default=0,
                        help="repeat the whole visit/revisit schedule this many extra times")
    parser.add_argument("--trace", default=None, help="write per-step trace CSV here")
    parser.add_argument("--strict", action="store_true", help="exit 3 when the fit does not converge")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cvb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p.add_argument("kind", help=f"one of: {', '.join(GEN_KINDS)}")
    p.add_argument("--m", type=_number(int), default=9, help="point count (runge)")
    p.add_argument("--seed", type=_number(int), default=0, help="generator seed (noisy-line)")
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
    p.add_argument("--epsilon", type=_number(float), default=0.5, help="forward residual target (world units)")
    p.add_argument("--inverse-epsilon", type=_number(float), default=None,
                   help="inverse residual target in pixels (default: same as --epsilon)")
    p.add_argument("--degree-bound", type=_number(int), default=8)
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
    p.add_argument("--width", type=_number(int), default=None, help="output width (default: input width)")
    p.add_argument("--height", type=_number(int), default=None, help="output height (default: input height)")
    p.add_argument("--fill", default=None, help="fill value for unmapped pixels (V or R,G,B)")
    p.set_defaults(func=cmd_warp)

    p = sub.add_parser("eval", help="report mapping error against truth correspondences")
    p.add_argument("--model", required=True)
    p.add_argument("--truth", required=True, help="u,v,X,Y CSV")
    p.set_defaults(func=cmd_eval)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """A warning as one stderr line, with no source path or line: the same bytes from any install."""
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ValueError as exc:  # a flag or argument the parser refused
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (ValueError, FitError) as exc:
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
