"""Byte-for-byte CLI outputs, pinned against files in ``tests/golden``.

The expected files are the stdout of ``python -m totconn.cli <argv>`` as
committed; any change to an output, including key order or number
formatting, fails here.  Regenerate a file only for an intended change of
behaviour, and say so in CHANGES.md.  Outputs too large to commit are
pinned the same way by the SHA-256 of their stdout (``DIGESTS``).
"""

import functools
import hashlib
import json
import subprocess
import types
from fractions import Fraction
from pathlib import Path

import pytest

from totconn.cli import _connection_from_json, main
from totconn.connection import (AutomorphyFactor, GaugeElement, PLPath,
                                holonomy, parse_loop, transport)
from totconn.forms import PolyForm
from totconn.freelie import EnvelopingQuotient
from totconn.minimal import one_minimal_model
from totconn.pipeline import compare_pipeline_models, run_pipeline
from totconn.structures import FiniteAlgebra
from tests.test_cli import cli_command

GOLDEN = Path(__file__).parent / "golden"
CIRCLE = str(GOLDEN / "circle.json")
CONN = str(GOLDEN / "nilpotent_connection.json")
PATH = str(GOLDEN / "path.json")
POLY_CONN = str(GOLDEN / "poly_connection.json")
PATH_MIXED = str(GOLDEN / "path_mixed.json")
TOT_R1 = str(GOLDEN / "tot_degree1_r1_a5_inputs.json")
TOT_R2 = str(GOLDEN / "tot_degree1_r2_a5_inputs.json")
TOT_MIXED = str(GOLDEN / "tot_mixed_r1_a3_inputs.json")
TOT_CAPS = ["--level-cap", "2", "--arity-cap", "5", "--json"]
# a 1-C-infinity model whose delta-star generator [a,b] + [a,[a,b]] has a
# tail, so the fiber's basis is chosen on a non-homogeneous ideal
TAIL = str(GOLDEN / "tail_model.json")

CASES = {
    "pipeline_circle.json": ["pipeline", "--input", "circle", "--json"],
    "pipeline_torus.json": ["pipeline", "--input", "torus", "--json"],
    "pipeline_torus_t7.json": ["pipeline", "--input", "torus", "--trunc", "7",
                               "--json"],
    "pipeline_torus_compare.json": ["pipeline", "--input", "torus", "--compare",
                                    "--json"],
    "pipeline_heisenberg_compare.json": ["pipeline", "--input", "heisenberg",
                                         "--compare", "--json"],
    "minimal_model_circle_shear.json": ["minimal-model", "--input", CIRCLE,
                                        "--pivot", "shear", "--json"],
    "conn_transport.json": ["conn", "transport", "--input", CONN, "--path", PATH,
                            "--order", "4", "--json"],
    "conn_holonomy.json": ["conn", "holonomy", "--input", CONN, "--loop",
                           "a b a- b- a a b", "--basepoint", "1/2,-1/3", "--json"],
    "conn_transport_poly.json": ["conn", "transport", "--input", POLY_CONN,
                                 "--path", PATH_MIXED, "--order", "4", "--json"],
    "conn_holonomy_poly.json": ["conn", "holonomy", "--input", POLY_CONN, "--loop",
                                "a b- a- b a", "--basepoint", "2/7,-1/3", "--json"],
    "transfer_nc_2_4.json": ["transfer", "nc", "--n", "2", "--arity", "4", "--json"],
    "transfer_nc_3_3.json": ["transfer", "nc", "--n", "3", "--arity", "3", "--json"],
    "tot_product_degree1_r1_a5.json": ["tot", "product", "--inputs", TOT_R1,
                                       "--degree1"] + TOT_CAPS,
    "tot_product_degree1_r2_a5.json": ["tot", "product", "--inputs", TOT_R2,
                                       "--degree1"] + TOT_CAPS,
    "tot_product_mixed_r1_a3.json": ["tot", "product", "--inputs", TOT_MIXED]
                                    + TOT_CAPS,
    "tot_cohomology_r1.json": ["tot", "cohomology", "--window", "0..2",
                               "--group-rank", "1", "--json"],
    "tot_cohomology_r2.json": ["tot", "cohomology", "--window", "0..2",
                               "--group-rank", "2", "--json"],
    "tot_cohomology_r2_w0.json": ["tot", "cohomology", "--window", "0..0",
                                  "--group-rank", "2", "--json"],
    "fiber_lie_tail_t5.json": ["conv", "fiber-lie", "--input", TAIL, "--trunc", "5",
                               "--json"],
}


# ``transfer nc --n 3 --arity 4`` prints 1.9 MB; its arity-4 words on the
# tetrahedron are where a wrong composition of vertex permutations in the
# orbit fill of the transferred tables would show.  The pipeline runs
# pin the fiber data at truncations 9 and 10, a model comparison at
# truncation 6, and one at arity cap 6, above those of the committed
# files: there the minimal model reads its transferred words up to arity 6.
DIGESTS = {
    "transfer_nc_3_4": (["transfer", "nc", "--n", "3", "--arity", "4", "--json"],
                        "a02e7140a0160a8d324b3a1e749f17b5ffd0ac030b64ba063daae3789fac9db2"),
    "pipeline_torus_t9": (["pipeline", "--input", "torus", "--trunc", "9", "--json"],
                          "44c95592b65a66147b3a5fd6eb1e19dbffca5b47f467087198df4513774808be"),
    "pipeline_torus_t10": (["pipeline", "--input", "torus", "--trunc", "10", "--json"],
                           "6b518b57af2387512e98dd13bf966f46951e179abc265c1192db3f2189cc31c7"),
    "pipeline_heisenberg_compare_t6": (
        ["pipeline", "--input", "heisenberg", "--compare", "--trunc", "6", "--json"],
        "b95f5d47772a80c061207c83566bfffd61da099db608f7ba2115bc2cb38c0740"),
    "pipeline_heisenberg_compare_a6": (
        ["pipeline", "--input", "heisenberg", "--compare", "--arity", "6", "--json"],
        "ed0a203451157851c05db43342f7ad77a8383e0963b30928d52c2031e263ad9d"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_cli_output_matches_golden_digest(name):
    # in a subprocess, so the large memoized structure does not outlive it
    argv, want = DIGESTS[name]
    cmd, env = cli_command(argv)
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == want


def test_module_entry_point():
    # the ``python -m totconn.cli`` path, which the in-process cases skip
    name = "pipeline_heisenberg_compare.json"
    cmd, env = cli_command(CASES[name])
    proc = subprocess.run(cmd, env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_bytes()


def test_circle_input_is_the_test_fixture():
    import json
    from tests.test_minimal import circle_cdga
    assert json.loads(Path(CIRCLE).read_text()) == circle_cdga().to_json()


# -------------------------------------------------------------------
# no float anywhere in the objects behind the golden outputs
# -------------------------------------------------------------------

def floats_in(root):
    """The paths of every float reachable from ``root`` through
    containers and object attributes.  A ``PolyForm`` is entered through
    its integer store and its ``terms`` view; functions, classes and
    modules are not entered."""
    opaque = (types.FunctionType, types.MethodType, types.BuiltinFunctionType,
              functools.partial, type, types.ModuleType)
    found = []
    seen = set()
    stack = [(root, "result")]
    while stack:
        x, path = stack.pop()
        if isinstance(x, (float, complex)):
            found.append(path)
            continue
        if x is None or isinstance(x, (bool, int, str, bytes, Fraction, opaque)):
            continue
        if id(x) in seen:
            continue
        seen.add(id(x))
        if isinstance(x, (dict, types.MappingProxyType)):
            for k, v in x.items():
                stack += [(k, path + "{key}"), (v, "%s[%r]" % (path, k))]
            continue
        if isinstance(x, (list, tuple, set, frozenset)):
            stack += [(v, "%s[%d]" % (path, i)) for i, v in enumerate(x)]
            continue
        if isinstance(x, PolyForm):
            stack.append((x.terms, path + ".terms"))
        names = list(getattr(x, "__dict__", ()))
        names += [s for cls in type(x).__mro__ for s in getattr(cls, "__slots__", ())
                  if hasattr(x, s)]
        stack += [(getattr(x, s), path + "." + s) for s in names]
    return found


def golden_results(group):
    """The objects that the golden CLI cases of ``group`` print, built as
    the CLI builds them."""
    def load(path):
        return json.loads(Path(path).read_text())

    if group == "pipeline":
        return [run_pipeline("torus"), run_pipeline("torus", trunc=7, k=7),
                compare_pipeline_models("torus", pivots=("lex", "revlex")),
                compare_pipeline_models("heisenberg", pivots=("lex", "shear"))]
    if group == "minimal-model":
        return [one_minimal_model(FiniteAlgebra.from_json(load(CIRCLE)),
                                  arity_cap=4, pivot="shear")]
    out = []
    for conn, path, loop, basepoint in ((CONN, PATH, "a b a- b- a a b", "1/2,-1/3"),
                                        (POLY_CONN, PATH_MIXED, "a b- a- b a", "2/7,-1/3")):
        alpha = _connection_from_json(load(conn))
        fib = alpha.fib
        env = EnvelopingQuotient(fib.free, fib.ideal, 4)
        out += [alpha, transport(alpha, PLPath.from_json(load(path)), env)]
        env = EnvelopingQuotient(fib.free, fib.ideal, fib.k)
        point = tuple(Fraction(c) for c in basepoint.split(","))
        F = AutomorphyFactor(GaugeElement(alpha.m, fib, {}), env)
        out += [F, holonomy(alpha, F, parse_loop(loop, alpha.m), point, env)]
    return out


def test_the_float_walk_finds_a_planted_float():
    form = PolyForm.one(1)
    assert floats_in([{"a": form}, (form.terms,)]) == []
    form.num = {((0,), ()): 1.0}
    assert floats_in([{"a": form}]) == ["result[0]['a'].num[((0,), ())]"]


@pytest.mark.parametrize("group", ["pipeline", "minimal-model", "conn"])
def test_golden_results_hold_no_float(group):
    assert floats_in(golden_results(group)) == []
