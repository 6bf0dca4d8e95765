"""Parser fuzzing through the CLI: every input is a result or a documented error.

Each suite writes one generated file and runs ``cli.main`` on it.  The
invariant is the same for CSV points (``apply --points``), PPM/PGM images
(``warp --input``) and calibration documents (``apply --model``): exit 0, or
exit 1 with a message that starts ``error: ``, and never an exception out of
``main``.  The seed examples are the hostile inputs that once escaped as
tracebacks.  Overflow warnings from evaluating extreme points are ignored
here; such points end in the non-finite-output error.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cvb.cli import EXIT_OK, EXIT_VALIDATION, main
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
    return path


def run_cli(*argv):
    """Run the CLI and check the invariant: exit 0, or exit 1 with ``error: ``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == EXIT_OK or (code == EXIT_VALIDATION and err.getvalue().startswith("error: ")), \
        (code, err.getvalue())


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
