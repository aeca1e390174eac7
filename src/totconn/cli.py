"""Command-line front end.

Subcommand groups mirror the library layers: ``dupont`` (contraction
verification), ``transfer`` (simplex structure constants), ``tot``
(total-complex products and cohomology), ``conv`` (series checks and
fiber Lie algebras), ``minimal-model``, ``conn`` (flatness, transport,
holonomy) and ``pipeline``.  Exit codes: 0 pass, 1 verification failure,
2 input error, 3 cap overflow.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .connection import (AutomorphyFactor, ConnectionForm, GaugeElement,
                         NonFlatError, PLPath, flatness_check, holonomy,
                         parse_loop, transport)
from .convolution import Generators, TensorSeries, mc_check
from .dupont import verify_naturality, verify_stokes
from .forms import PolyForm, simplex_monomials
from .freelie import (EnvelopingQuotient, FiberLieAlgebra, FreeLie,
                      LieIdealPresentation, TruncationError, bracket_label,
                      lie_series_from_json, word_labels)
from .minimal import ModelError, massey_json, one_minimal_model
from .pipeline import PRESETS, compare_pipeline_models, run_pipeline
from .scalars import rat, rat_str
from .structures import FiniteAlgebra
from .totalcomplex import (GroupCochain, GroupCochainBackend, LevelCapError,
                           TotalComplexAlgebra, TotElement,
                           tot_product_degree1, tot_window_cohomology)
from .transfer import NC_MAX_N, ArityCapError, dupont_contraction, nc_structure

PASS, FAIL, INPUT_ERROR, CAP_ERROR = 0, 1, 2, 3
BROKEN_PIPE = 141  # 128 + SIGPIPE, the status of a writer killed by it


def _int_at_least(lo, hi=None):
    """argparse type for sizes: an int no smaller than ``lo`` (and, if
    given, no larger than ``hi``), so that a negative size is a parse
    error rather than an empty, passing run."""
    def parse(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (lo, value))
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError("must be at most %d, got %d" % (hi, value))
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _window(text):
    """argparse type for a degree window ``lo..hi`` with 0 <= lo <= hi."""
    parts = text.split("..")
    if len(parts) == 2 and all(part.isdecimal() for part in parts):
        lo, hi = map(int, parts)
        if lo <= hi:
            return lo, hi
    raise argparse.ArgumentTypeError("must be lo..hi with 0 <= lo <= hi, got %r" % text)


def _emit(data, as_json):
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        _pretty(data)


def _pretty(data, indent=0):
    pad = "  " * indent
    if isinstance(data, dict):
        for k, v in data.items():
            if isinstance(v, (dict, list)):
                print("%s%s:" % (pad, k))
                _pretty(v, indent + 1)
            else:
                print("%s%s: %s" % (pad, k, v))
    elif isinstance(data, list):
        for v in data:
            _pretty(v, indent)
    else:
        print("%s%s" % (pad, data))


def cmd_dupont_verify(args):
    status = PASS
    for n in range(args.n + 1):
        failures = dupont_contraction(n).verify_side_conditions(
            simplex_monomials(n, args.max_poly_deg))
        line = "side conditions  n=%d: %s" % (n, "pass" if not failures else
                                              "FAIL (%d)" % len(failures))
        print(line)
        if failures:
            status = FAIL
            for f in failures[:3]:
                print("  witness:", f)
        failures = verify_stokes(n, max_poly_deg=args.max_poly_deg)
        print("stokes           n=%d: %s" % (n, "pass" if not failures else
                                             "FAIL (%d)" % len(failures)))
        if failures:
            status = FAIL
        if n >= 1:
            failures = verify_naturality(n, max_poly_deg=args.max_poly_deg)
            print("naturality       n=%d: %s" % (n, "pass" if not failures else
                                                 "FAIL (%d)" % len(failures)))
            if failures:
                status = FAIL
    return status


def cmd_transfer_nc(args):
    res = nc_structure(args.n, args.arity)
    res.algebra.materialize(args.arity)
    data = res.algebra.to_json()
    _emit(data, args.json)
    return PASS


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _tot_element_from_json(be, data):
    comps = {}
    for item in data["components"]:
        p, q = int(item["p"]), int(item["q"])
        if p < 0:
            raise ValueError("component level p = %d is negative" % p)
        if (p, q) in comps:
            raise ValueError("component (%d, %d) is listed twice" % (p, q))
        nv = be.m * (p + 1)
        form = PolyForm.from_json(nv, item["form"], varname="z", ndiff=be.m)
        if not form.is_zero() and form.homogeneous_degree() != q:
            raise ValueError("component (%d, %d) holds a form not of degree %d"
                             % (p, q, q))
        comps[(p, q)] = GroupCochain(be.m, p, form)
    return TotElement(be, comps)


def _tot_element_to_json(v: TotElement):
    return {"components": [{"p": p, "q": q, "form": val.form.to_json()}
                           for (p, q), val in sorted(v.components.items())]}


def cmd_tot_product(args):
    data = _load_json(args.inputs)
    be = GroupCochainBackend(int(data["group_rank"]))
    alg = TotalComplexAlgebra(be, level_cap=args.level_cap,
                              arity_cap=args.arity_cap)
    elems = [_tot_element_from_json(be, e) for e in data["elements"]]
    out = alg.m(len(elems), elems)
    result = {"product": _tot_element_to_json(out)}
    if args.degree1:
        closed = tot_product_degree1(alg, elems)
        result["closed_form_agrees"] = bool(closed == out)
        if not result["closed_form_agrees"]:
            _emit(result, args.json)
            return FAIL
    _emit(result, args.json)
    return PASS


def cmd_tot_cohomology(args):
    lo, hi = args.window
    be = GroupCochainBackend(args.group_rank)
    betti = tot_window_cohomology(be, max_degree=hi, level_cap=args.level_cap,
                                  poly_cap=args.poly_deg_cap)
    _emit({"betti": {str(d): betti[d] for d in range(lo, hi + 1)}}, args.json)
    return PASS


def _series_from_json(data, gens, target, trunc):
    series = {}
    for label, vec in data.items():
        names = label.split("|") if label else []
        w = tuple(gens.keys.index(_parse_key(n)) for n in names)
        series[w] = {_parse_key(k): rat(c) for k, c in vec.items()}
    return TensorSeries(gens, target, trunc, 1, series)


def _parse_key(label):
    d, name = label.split(":", 1)
    return (int(d), name)


def cmd_conv_mc_check(args):
    data = _load_json(args.input)
    source = FiniteAlgebra.from_json(data["source"])
    target = FiniteAlgebra.from_json(data["target"])
    gens = Generators(source.space)
    alpha = _series_from_json(data["series"], gens, target, int(data["trunc"]))
    report = mc_check(alpha, source)
    for w, val in report:
        print("FAIL at word %s: %r" % ("|".join("%d:%s" % k for k in
                                                (gens.keys[i] for i in w)), val))
    print("maurer-cartan: %s" % ("pass" if not report else "FAIL"))
    return PASS if not report else FAIL


def cmd_conv_fiber_lie(args):
    data = _load_json(args.input)
    model = FiniteAlgebra.from_json(data)
    from .convolution import delta_star
    free, ideal, gens_out = delta_star(model, trunc=args.trunc)
    fib = FiberLieAlgebra(free, ideal, args.trunc)
    ideal_out = []
    for g in ideal.generators:
        coords = free.to_lyndon(g)
        ideal_out.append({bracket_label(w, free.gen_names): rat_str(c)
                          for w, c in sorted(coords.items())})
    out = {
        "generators": free.gen_names,
        "ideal_generators": ideal_out,
        "graded_dims": {str(k): v for k, v in sorted(fib.graded_dims().items())},
        "dim": fib.dim(),
    }
    _emit(out, args.json)
    return PASS


def cmd_minimal_model(args):
    data = _load_json(args.input)
    B = FiniteAlgebra.from_json(data)
    model = one_minimal_model(B, arity_cap=args.arity, pivot=args.pivot)
    out = {"model": model.algebra.to_json(), "massey": massey_json(model)}
    _emit(out, args.json)
    return PASS


def _connection_from_json(data):
    m = int(data["m"])
    k = int(data["k"])
    names = data["generators"]
    free = FreeLie(names, max(k, 2))
    gens = [lie_series_from_json(g, free) for g in data.get("ideal", [])]
    ideal = LieIdealPresentation(free, gens)
    fib = FiberLieAlgebra(free, ideal, k)
    coeffs = {}
    lookup = {bracket_label(w, names): w for w in fib.basis}
    for label, form_json in data["coefficients"].items():
        w = lookup.get(label)
        if w is None:
            raise ValueError("unknown quotient basis label %r" % (label,))
        coeffs[w] = PolyForm.from_json(m, form_json, varname="x", ndiff=m)
    return ConnectionForm(m, fib, coeffs, flags=tuple(data.get("flags", ())))


def cmd_conn_flat_check(args):
    alpha = _connection_from_json(_load_json(args.input))
    cert = flatness_check(alpha)
    for w, f in cert.failures:
        print("curvature at %s: %r" % (bracket_label(w, alpha.fib.free.gen_names), f))
    if alpha.flags:
        print("declared flags: %s" % ", ".join(alpha.flags))
    print("flat: %s" % ("yes" if cert.flat else "no"))
    return PASS if cert.flat else FAIL


def cmd_conn_transport(args):
    alpha = _connection_from_json(_load_json(args.input))
    fib = alpha.fib
    if args.order > fib.k:
        raise TruncationError("requested order exceeds the truncation")
    env = EnvelopingQuotient(fib.free, fib.ideal, args.order)
    path = PLPath.from_json(_load_json(args.path))
    T = transport(alpha, path, env)
    _emit({"transport": word_labels(T, fib.free.gen_names),
           "grouplike": env.is_grouplike(T)}, args.json)
    return PASS


def cmd_conn_holonomy(args):
    alpha = _connection_from_json(_load_json(args.input))
    fib = alpha.fib
    env = EnvelopingQuotient(fib.free, fib.ideal, fib.k)
    loop = parse_loop(args.loop, alpha.m)
    basepoint = tuple(rat(c) for c in (args.basepoint.split(",")
                                       if args.basepoint else ["0"] * alpha.m))
    F = AutomorphyFactor(GaugeElement(alpha.m, fib, {}), env)
    theta = holonomy(alpha, F, loop, basepoint, env)
    _emit({"holonomy": word_labels(theta, fib.free.gen_names),
           "grouplike": env.is_grouplike(theta)}, args.json)
    return PASS


def cmd_pipeline(args):
    if args.input in PRESETS:
        source = args.input
    else:
        source = FiniteAlgebra.from_json(_load_json(args.input))
    if args.compare:
        pivots = ("lex", "shear" if args.input == "heisenberg" else "revlex")
        r1, r2, comp, report = compare_pipeline_models(
            source, trunc=args.trunc, k=args.trunc, pivots=pivots,
            arity_cap=args.arity_cap)
        ok = (report["dims_match"] and report["dims_per_k_match"]
              and not report["comparison_failures"]
              and not report.get("holonomy_conjugation_failures"))
        out = {"first": r1.to_json(), "second": r2.to_json(),
               "comparison": {k: repr(v) if not isinstance(v, (bool, int, str))
                              else v for k, v in report.items()}}
        _emit(out, args.json)
        return PASS if ok else FAIL
    result = run_pipeline(source, trunc=args.trunc, arity_cap=args.arity_cap,
                          pivot=args.pivot, k=args.trunc)
    _emit(result.to_json(), args.json)
    if result.certificate is not None and not result.certificate.flat:
        return FAIL
    return PASS


def build_parser():
    parser = argparse.ArgumentParser(
        prog="totconn",
        description="exact homotopy transfer, total-complex products and "
                    "flat-connection holonomy")
    sub = parser.add_subparsers(dest="group", required=True)

    dup = sub.add_parser("dupont", help="simplicial contraction checks")
    dups = dup.add_subparsers(dest="cmd", required=True)
    v = dups.add_parser("verify")
    v.add_argument("--n", type=_int_at_least(0, NC_MAX_N), default=3)
    v.add_argument("--max-poly-deg", type=_int_at_least(0), default=4)
    v.set_defaults(fn=cmd_dupont_verify)

    tr = sub.add_parser("transfer", help="transferred simplex structures")
    trs = tr.add_subparsers(dest="cmd", required=True)
    t = trs.add_parser("nc")
    t.add_argument("--n", type=_int_at_least(0, NC_MAX_N), required=True)
    t.add_argument("--arity", type=_int_at_least(1), default=4)
    t.add_argument("--json", action="store_true")
    t.set_defaults(fn=cmd_transfer_nc)

    tot = sub.add_parser("tot", help="total-complex operations")
    tots = tot.add_subparsers(dest="cmd", required=True)
    tp = tots.add_parser("product")
    tp.add_argument("--inputs", required=True)
    tp.add_argument("--level-cap", type=_int_at_least(0), default=3)
    tp.add_argument("--arity-cap", type=_int_at_least(0), default=6)
    tp.add_argument("--degree1", action="store_true",
                    help="also evaluate the closed form and compare")
    tp.add_argument("--json", action="store_true")
    tp.set_defaults(fn=cmd_tot_product)
    tc = tots.add_parser("cohomology")
    tc.add_argument("--window", type=_window, default="0..2")
    tc.add_argument("--group-rank", type=_int_at_least(0), default=1)
    tc.add_argument("--level-cap", type=_int_at_least(0), default=2)
    tc.add_argument("--poly-deg-cap", type=_int_at_least(0), default=3)
    tc.add_argument("--json", action="store_true")
    tc.set_defaults(fn=cmd_tot_cohomology)

    conv = sub.add_parser("conv", help="convolution-series operations")
    convs = conv.add_subparsers(dest="cmd", required=True)
    mc = convs.add_parser("mc-check")
    mc.add_argument("--input", required=True)
    mc.set_defaults(fn=cmd_conv_mc_check)
    fl = convs.add_parser("fiber-lie")
    fl.add_argument("--input", required=True)
    fl.add_argument("--trunc", type=_int_at_least(2), default=4)
    fl.add_argument("--json", action="store_true")
    fl.set_defaults(fn=cmd_conv_fiber_lie)

    mm = sub.add_parser("minimal-model", help="build a low-degree minimal model")
    mm.add_argument("--input", required=True)
    mm.add_argument("--arity", type=_int_at_least(2), default=4)
    mm.add_argument("--pivot", default="lex", choices=("lex", "revlex", "shear"))
    mm.add_argument("--json", action="store_true")
    mm.set_defaults(fn=cmd_minimal_model)

    conn = sub.add_parser("conn", help="connections, transport and holonomy")
    conns = conn.add_subparsers(dest="cmd", required=True)
    fc = conns.add_parser("flat-check")
    fc.add_argument("--input", required=True)
    fc.set_defaults(fn=cmd_conn_flat_check)
    ct = conns.add_parser("transport")
    ct.add_argument("--input", required=True)
    ct.add_argument("--path", required=True)
    ct.add_argument("--order", type=_int_at_least(1), default=4)
    ct.add_argument("--json", action="store_true")
    ct.set_defaults(fn=cmd_conn_transport)
    ch = conns.add_parser("holonomy")
    ch.add_argument("--input", required=True)
    ch.add_argument("--loop", required=True)
    ch.add_argument("--basepoint", default=None)
    ch.add_argument("--json", action="store_true")
    ch.set_defaults(fn=cmd_conn_holonomy)

    pl = sub.add_parser("pipeline", help="window -> model -> connection -> holonomy")
    pl.add_argument("--input", required=True,
                    help="preset name (circle, torus, heisenberg) or JSON file")
    pl.add_argument("--trunc", type=_int_at_least(2), default=4)
    pl.add_argument("--arity-cap", type=_int_at_least(2), default=4)
    pl.add_argument("--pivot", default="lex", choices=("lex", "revlex", "shear"))
    pl.add_argument("--compare", action="store_true",
                    help="build two models and verify the comparison")
    pl.add_argument("--json", action="store_true")
    pl.set_defaults(fn=cmd_pipeline)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point stdout at devnull so that the
        # flush at exit cannot fail again, and print nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return BROKEN_PIPE
    except (ArityCapError, LevelCapError, TruncationError) as exc:
        print("cap overflow: %s" % exc, file=sys.stderr)
        return CAP_ERROR
    except (OSError, json.JSONDecodeError, KeyError, ValueError, ModelError,
            NonFlatError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
