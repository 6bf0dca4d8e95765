"""The public surface of the ``cvb`` package, and the names the benchmark reads."""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import cvb

PUBLIC_API = [
    "CalibrationMeta",
    "CalibrationModel",
    "ChebModel1D",
    "ChebModel2D",
    "Correspondence",
    "DistortionParams",
    "DomainMap",
    "ExtrapolationWarning",
    "FitConfig",
    "FitError",
    "FitReport",
    "IDENTITY_MAP",
    "ModelParseError",
    "ModelVersionError",
    "OrthoSet",
    "SampleSet1D",
    "SampleSet2D",
    "TermIndex2D",
    "TraceStep",
    "WarpSpec",
    "auto_map",
    "calibrate",
    "cheb_zeros",
    "cvb_approximate",
    "cvb_approximate_2d",
    "cvb_interpolate",
    "default_pattern",
    "distort",
    "eval_model_1d",
    "eval_model_2d",
    "gen_correspondences",
    "gen_humped_flat",
    "gen_noisy_line",
    "gen_runge",
    "load_model",
    "map_point",
    "max_displacement_px",
    "orthogonalize",
    "revisit_set",
    "runge",
    "save_model",
    "visit_order",
    "warp_image",
]


def test_public_api_is_pinned():
    # a name added to or dropped from the package surface must be added or
    # dropped here too, on purpose
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert sorted(cvb.__all__) == PUBLIC_API


LAZY_NAMES = """
import importlib, sys, types
import cvb
assert {"cvb.ppm", "cvb.rectify", "cvb.synthetic"}.isdisjoint(sys.modules)  # nothing read yet
for name in cvb.__all__:
    value = getattr(cvb, name)
    assert not isinstance(value, types.ModuleType) and getattr(cvb, name) is value, name
assert not hasattr(cvb, "no_such_name")
for module in ("basis", "fit1d", "fit2d", "orthogonalize", "ppm", "rectify", "synthetic", "cli"):
    importlib.import_module("cvb." + module)
assert callable(cvb.orthogonalize) and cvb.orthogonalize is cvb.orthogonalize.__globals__["orthogonalize"]
assert set(dir(cvb)) >= set(cvb.__all__)
namespace = {}
exec("from cvb import *", namespace)
assert sorted(k for k in namespace if k != "__builtins__") == cvb.__all__
"""


def test_public_names_are_read_lazily_and_stay_bound():
    # in a fresh process: a name's module loads on first read, and importing
    # every submodule leaves ``cvb.orthogonalize`` the function, not its module
    src = str(Path(cvb.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", LAZY_NAMES], env=env, check=True, timeout=60)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_names():
    """(module, name) for every ``from cvb... import name`` and ``cvb.name`` in perfbench/*.py."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "cvb":
                names.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cvb":
                names.add(("cvb", node.attr))
    return sorted(names)


def test_names_the_benchmark_imports_resolve():
    # perfbench/ changes only with the benchmark, so a name it reads that src/
    # drops would break the benchmark with no Tier-1 test failing
    names = _perfbench_names()
    assert ("cvb.rectify", "Correspondence") in names and ("cvb", "calibrate") in names
    missing = [f"{module}.{name}" for module, name in names
               if not (hasattr(importlib.import_module(module), name)  # an attribute, or a submodule
                       or importlib.util.find_spec(f"{module}.{name}"))]
    assert missing == []


def test_calibrate_takes_the_benchmark_correspondence_list():
    # the rows perfbench's rectify_inputs builds, against the same (m, 4) table
    params = cvb.DistortionParams()
    X, Y = (g.ravel() for g in np.meshgrid(np.linspace(-500, 500, 7), np.linspace(-380, 380, 5)))
    u, v = cvb.distort(params, X, Y)
    config = cvb.FitConfig(epsilon=0.5, max_terms=6)
    rows = cvb.calibrate([cvb.Correspondence(*row) for row in zip(u, v, X, Y)], config)
    table = cvb.calibrate(np.column_stack((u, v, X, Y)), config)
    assert cvb.save_model(rows) == cvb.save_model(table)


def _perfbench_calls():
    """(file:line, callable) for every perfbench call of a ``cvb`` callable, with its ast.Call.

    A callable is ``cvb.a.b(...)`` or a name bound by ``from cvb... import``.
    Calls with starred arguments are left out: their arity is not in the source.
    """
    calls = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {alias.asname or alias.name: (node.module, alias.name) for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "cvb"
                    for alias in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
                continue
            chain, func = [], node.func
            while isinstance(func, ast.Attribute):
                chain.insert(0, func.attr)
                func = func.value
            if not isinstance(func, ast.Name):
                continue
            if func.id == "cvb" and chain:
                target = cvb
            elif func.id in imported:
                module, name = imported[func.id]
                target = getattr(importlib.import_module(module), name)
            else:
                continue
            for attr in chain:  # a submodule such as cvb.cli is imported on the way
                target = (getattr(target, attr) if hasattr(target, attr)
                          else importlib.import_module(f"{target.__name__}.{attr}"))
            if callable(target):
                calls.append((f"{path.name}:{node.lineno}", target, node))
    return calls


def test_the_benchmark_calls_bind_to_the_current_signatures():
    # a renamed or dropped parameter would break the benchmark with no Tier-1 test failing
    calls = _perfbench_calls()
    called = {target for _, target, _ in calls}
    assert cvb.calibrate in called and cvb.fit1d.projection_sweeps in called
    unbound = []
    for where, target, node in calls:
        try:
            inspect.signature(target).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            unbound.append(f"{where}: {exc}")
    assert unbound == []
