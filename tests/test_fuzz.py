"""Parser fuzzing through the CLI: every input is a result or a documented error.

The file suites write one generated file and run ``cli.main`` on it; the argv
suite generates each subcommand's flags.  The invariant is the same for CSV
points (``apply --points``), PPM/PGM images (``warp --input``), calibration
documents (``apply --model``) and command lines: exit 0 (or 3 under
``--strict``), or exit 1 with a message that starts ``error: ``, and never an
exception or a ``SystemExit`` out of ``main``.  The seed examples are the
hostile inputs that once escaped as tracebacks.  Overflow warnings from
evaluating extreme points are ignored here; such points end in the
non-finite-output error.
"""

import contextlib
import io
import json
from pathlib import PurePath

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cvb.cli import EXIT_NOT_CONVERGED, EXIT_OK, EXIT_VALIDATION, build_parser, main
from cvb.fit1d import FitConfig
from cvb.rectify import Correspondence, calibrate, save_model

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::cvb.basis.ExtrapolationWarning")

FUZZ = settings(max_examples=60, deadline=None)


# an identity calibration over a 16 x 12 pixel frame, as its saved document
MODEL = save_model(calibrate([Correspondence(u=u, v=v, X=u, Y=v) for u in np.linspace(0, 16, 4)
                              for v in np.linspace(0, 12, 5)], FitConfig(epsilon=1e-9, max_terms=4)))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the identity calibration and a few points."""
    path = tmp_path_factory.mktemp("fuzz")
    (path / "model.json").write_text(MODEL)
    (path / "points.csv").write_text("u,v\n1,2\n8,6\n15.5,0\n")
    (path / "truth.csv").write_text("u,v,X,Y\n1,2,1,2\n8,6,8.5,6\n15.5,0,15,0\n")
    (path / "pairs.csv").write_text("u,v,X,Y\n" + "".join(f"{u},{v},{1.5 * u + 0.1 * v * v},{v - 0.05 * u * v}\n"
                                                          for u in range(5) for v in range(4)))
    (path / "curve.csv").write_text("x,y\n" + "".join(f"{x},{1 / (1 + 25 * x * x)}\n" for x in np.linspace(-1, 1, 12)))
    (path / "cloud.csv").write_text("x,y,z\n" + "".join(f"{x},{y},{np.sin(3 * x) * y}\n"
                                                        for x in np.linspace(-1, 1, 4) for y in np.linspace(0, 2, 4)))
    (path / "image.pgm").write_bytes(b"P5\n4 3 255\n" + bytes(range(0, 240, 20)))
    return path


def run_cli(*argv):
    """Run the CLI and check the invariant: exit 0 (or 3 under --strict), or exit 1 with ``error: ``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # only --help may end the process, and no case asks for it
            pytest.fail(f"SystemExit({exc.code!r}) left main: {err.getvalue()!r}")
    done = code == EXIT_OK or (code == EXIT_NOT_CONVERGED and strict(argv))
    assert done or (code == EXIT_VALIDATION and err.getvalue().startswith("error: ")), (code, err.getvalue())


def strict(argv):
    """Whether the parser reads ``--strict`` in argv (argparse also takes an abbreviation such as ``--st``)."""
    try:
        return getattr(build_parser().parse_args(list(argv)), "strict", False)
    except ValueError:
        return False


# --- CSV --------------------------------------------------------------------

CSV_FIELDS = st.one_of(
    st.sampled_from(["0", "-1.5", "1e308", "-1e400", "nan", "inf", "", " 3 ", "0x10", "1_0", '"4"', '"', "u", "v"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(max_size=6),
)


@st.composite
def csv_documents(draw):
    """Bytes that look like a u,v file often enough to reach the row checks."""
    header = draw(st.sampled_from([b"u,v", b"u, v", b"v,u", b"u,v,w", b""]) | st.binary(max_size=8))
    rows = draw(st.lists(st.lists(CSV_FIELDS, min_size=0, max_size=3), max_size=6))
    body = "\n".join(",".join(row) for row in rows).encode("utf-8", "surrogatepass")
    tail = draw(st.binary(max_size=4))
    return header + b"\n" + body + tail


@FUZZ
@given(document=csv_documents() | st.binary(max_size=64))
@example(document=b"u,v\n1," + b"1" * 131_073 + b"\n")
@example(document=b"u," + b"v" * 131_073 + b"\n1,2\n")
@example(document=b"u,v\n\xff\xfe,1\n")
@example(document=b"u,v\n1e308,1e308\n")
def test_points_csv(workdir, document):
    points = workdir / "fuzz_points.csv"
    points.write_bytes(document)
    run_cli("apply", "--model", str(workdir / "model.json"), "--points", str(points),
            "--out", str(workdir / "fuzz_mapped.csv"))


# --- PPM / PGM --------------------------------------------------------------

HEADER_TOKENS = st.one_of(
    st.integers(0, 6).map(str),
    st.sampled_from(["255", "15", "256", "0", "+5", "1_0", "-1", "99999999999999999999", "٣", "2.0", "#c"]),
)


@st.composite
def images(draw):
    """A magic, three header values with optional comments, then a plain or binary body."""
    magic = draw(st.sampled_from([b"P2", b"P3", b"P5", b"P6", b"P1", b"P7"]))
    tokens = draw(st.lists(HEADER_TOKENS, min_size=0, max_size=4))
    seps = draw(st.lists(st.sampled_from([" ", "\n", "\t", "\n# note\n", "\r"]), min_size=len(tokens),
                         max_size=len(tokens)))
    header = magic + "".join(sep + tok for sep, tok in zip(seps, tokens)).encode() + b"\n"
    if magic in (b"P2", b"P3"):
        values = draw(st.lists(st.integers(0, 300).map(str) | st.sampled_from(["-1", "x", "1_0", "+2"]),
                               max_size=160))
        body = " ".join(values).encode()
    else:
        body = draw(st.binary(max_size=160))
    return header + body


@FUZZ
@given(data=images() | st.binary(max_size=64))
@example(data=b"P2\n+5 2 255\n" + b" 7" * 10 + b"\n")
@example(data=b"P2\n2 1_0 255\n" + b" 7" * 20 + b"\n")
@example(data=b"P5\n2 2 255\n\x00\x01\x02\x03")
@example(data=b"P3\n1 1 255\n1 2 3\n")
@example(data=b"P6\n99999999999999999999 1 255\n\x00")
def test_image(workdir, data):
    image = workdir / "fuzz_in.img"
    image.write_bytes(data)
    run_cli("warp", "--model", str(workdir / "model.json"), "--input", str(image),
            "--output", str(workdir / "fuzz_out.img"), "--window=0,16,0,12", "--width", "4", "--height", "3")


# --- calibration documents --------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4)
    | st.sampled_from([2**63, -(2**63), 10**30, 1e308, -0.0]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    """Every (container path, key) inside a JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw, base):
    """The saved model with one value replaced or removed, or a few bytes flipped, cut or added."""
    if draw(st.booleans()):
        doc = json.loads(base)
        path = draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[path[-1]] = draw(JSON_VALUES)
        else:
            del parent[path[-1]]
        return json.dumps(doc).encode()
    data = bytearray(base.encode())
    for _ in range(draw(st.integers(1, 3))):
        pos = draw(st.integers(0, len(data) - 1))
        action = draw(st.sampled_from(["flip", "delete", "insert", "truncate"]))
        if action == "flip":
            data[pos] = draw(st.integers(0, 255))
        elif action == "delete":
            del data[pos]
        elif action == "insert":
            data[pos:pos] = draw(st.sampled_from([b"0", b"9", b"-", b".", b"e", b"[", b"]", b",", b'"', b"\xff"]))
        else:
            del data[pos:]
        if not data:
            break
    return bytes(data)


@FUZZ
@given(document=mutated_documents(MODEL))
@example(document=b"[" * 200_000 + b"]" * 200_000)
@example(document=MODEL.replace('"degree_bound": 4', '"degree_bound": 4.0').encode())
def test_model_document(workdir, document):
    model = workdir / "fuzz_model.json"
    model.write_bytes(document)
    run_cli("apply", "--model", str(model), "--points", str(workdir / "points.csv"),
            "--out", str(workdir / "fuzz_mapped.csv"))


# --- argv -------------------------------------------------------------------


def _small(text):
    """False for a string int() reads as a number beyond 12, so no case asks for a large fit, schedule or image."""
    try:
        return abs(int(text)) <= 12
    except ValueError:
        return True


def _not_help(text):
    """False for a string argparse reads as -h, --help or a prefix of --help: those print help and exit 0."""
    head = text.split("=", 1)[0]
    return not (text.startswith("-h") or (len(head) > 2 and "--help".startswith(head)))


# digit-group underscores, non-ASCII digits and spaces, signs, overflow, nan, inf, empty strings and words
HOSTILE = st.sampled_from(["", " ", "1_0", "\uff13", "\u0663", "1\u00a0", "\u20072", "+3", "-3", "-0", " 7 ", "3.0",
                           "1e1", "1e400", "-1e400", "nan", "-nan", "inf", "-inf", "0x10", "x", "-", "--", "3,4"])
TEXT = st.text(max_size=4).filter(_small)


def values(numbers):
    """A flag value: three times in five a value that parses (and stays small), else a hostile string or short text."""
    return st.one_of(numbers, numbers, numbers, HOSTILE, TEXT).filter(_not_help)


SIZES = values(st.integers(-2, 12).map(str))
SWEEPS = values(st.integers(-1, 3).map(str))
REALS = values(st.floats().map(repr) | st.floats(0, 2).map(str))
# mostly inside the fixture's 16 x 12 frame, else any parts
WINDOWS = values(st.tuples(*[st.floats(0, 8), st.floats(9, 20)] * 2).map(lambda w: ",".join(map(repr, w)))
                 | st.lists(st.floats().map(repr) | SIZES | HOSTILE, min_size=3, max_size=5).map(",".join))
FILLS = values(st.lists(st.integers(-1, 300).map(str) | HOSTILE, min_size=1, max_size=4).map(",".join))
SWITCH = None  # a flag that takes no value

# per subcommand: (flag, value) pairs it requires, then those it may take; a PurePath value is a file
# of the fixture's directory, and the positional kind of gen is written as the flag ""
COMMANDS = {
    "gen": ({"": st.sampled_from(["runge", "humped-flat", "noisy-line", "correspondences", "spline"]),
             "--out": st.just(PurePath("gen.csv"))},
            {"--m": SIZES, "--seed": SIZES}),
    "fit1d": ({"--input": st.just(PurePath("curve.csv"))},
              {"--algorithm": st.sampled_from(["interp", "approx"]), "--epsilon": REALS, "--max-terms": SIZES,
               "--extra-sweeps": SWEEPS, "--trace": st.just(PurePath("trace.csv")), "--strict": st.just(SWITCH),
               "--sample": st.tuples(SIZES, st.just(PurePath("sample.csv")))}),
    "fit2d": ({"--input": st.just(PurePath("cloud.csv"))},
              {"--epsilon": REALS, "--max-terms": SIZES, "--extra-sweeps": SWEEPS,
               "--trace": st.just(PurePath("trace.csv")), "--strict": st.just(SWITCH)}),
    "calibrate": ({"--pairs": st.just(PurePath("pairs.csv")), "--out": st.just(PurePath("calibrated.json"))},
                  {"--epsilon": REALS, "--inverse-epsilon": REALS, "--degree-bound": SIZES,
                   "--strict": st.just(SWITCH)}),
    "apply": ({"--model": st.just(PurePath("model.json")), "--points": st.just(PurePath("points.csv")),
               "--out": st.just(PurePath("applied.csv"))}, {}),
    "warp": ({"--model": st.just(PurePath("model.json")), "--input": st.just(PurePath("image.pgm")),
              "--output": st.just(PurePath("warped.pgm")), "--window": WINDOWS},
             {"--width": SIZES, "--height": SIZES, "--fill": FILLS}),
    "eval": ({"--model": st.just(PurePath("model.json")), "--truth": st.just(PurePath("truth.csv"))}, {}),
}


@st.composite
def command_lines(draw):
    """A subcommand with its required flags (each one now and then missing) and a few of its other flags.

    A value goes in as its own word or as ``--flag=value``, in any order of the flags.
    """
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    flags = [f for f in required if draw(st.integers(0, 9))] + [f for f in optional if draw(st.booleans())]
    words = []
    for flag in draw(st.permutations(flags)):
        value = draw({**required, **optional}[flag])
        if flag == "":
            words.append([value])
        elif value is SWITCH:
            words.append([flag])
        elif isinstance(value, tuple):
            words.append([flag, *value])
        elif isinstance(value, str) and draw(st.booleans()):
            words.append([f"{flag}={value}"])
        else:
            words.append([flag, value])
    return [command, *(word for group in words for word in group)]


@settings(max_examples=300, deadline=None)
@given(argv=command_lines())
@example(argv=["fit1d", "--input", PurePath("curve.csv"), "--max-terms", "\uff13", "--epsilon", "1_0e-3"])
@example(argv=["fit1d", "--input", PurePath("curve.csv"), "--max-terms", "1e400"])
@example(argv=["fit1d", "--input", PurePath("curve.csv"), "--epsilon=-1e400"])
@example(argv=["fit1d", "--input", PurePath("curve.csv"), "--epsilon=1e-300", "--max-terms", "3", "--st"])
@example(argv=["fit1d", "--input", PurePath("curve.csv"), "--epsilon", "1e-300", "--strict", "--sample", "nan",
               PurePath("sample.csv")])
@example(argv=["fit2d", "--input", PurePath("cloud.csv"), "--max-terms=12", "--extra-sweeps", "3", "--epsilon=inf"])
@example(argv=["calibrate", "--pairs", PurePath("pairs.csv"), "--out", PurePath("calibrated.json"),
               "--degree-bound", "1", "--inverse-epsilon", "nan"])
@example(argv=["calibrate", "--pairs", PurePath("pairs.csv"), "--out", PurePath("calibrated.json"),
               "--inverse-epsilon=--"])
@example(argv=["warp", "--model", PurePath("model.json"), "--input", PurePath("image.pgm"), "--output",
               PurePath("warped.pgm"), "--window=1e308,1.2e308,0,1", "--width", "4", "--fill", "2,3"])
@example(argv=["gen", "runge", "--m", "1", "--out", PurePath("gen.csv")])
@example(argv=["gen", "--seed=-3", "noisy-line", "--out", PurePath("gen.csv")])
@example(argv=["eval", "--truth", PurePath("truth.csv")])
def test_command_line(workdir, argv):
    run_cli(*(str(workdir / word) if isinstance(word, PurePath) else word for word in argv))
