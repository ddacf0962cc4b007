"""Command line front end.

Surfaces and curves are loaded from JSON files (schemas in
qskein/schemas/); anywhere a file is expected, a builtin name like
``builtin:polygon5``, ``builtin:annulus``, ``builtin:torus1`` or
``builtin:sphere3-lift`` works too.  Exit codes: 0 on success, 1 when a
verification suite reports FAIL, 2 on input errors, 3 on internal errors
(with a traceback on stderr), and 141 (128 + SIGPIPE, nothing on stderr)
when the reader closes standard output early.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import traceback
from importlib import resources

from .coordinate_change import compose_flips
from .curves import CurveError, NormalCurve, classify, enumerate_states, state_exponents
from .library import surface_by_name
from .puncture import BarBundle, bar_trace, lift
from .qtorus import element_from_json
from .repcheck import DEFAULT_TRIALS, verify_generator_map_identity
from .shear import ShearSkein
from .surface import SurfaceError, Triangulation
from . import suites
from .trace import trace_once_edge


class InputError(Exception):
    pass


def _load_json(path, schema_name):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise InputError("%s: invalid JSON: %s" % (path, exc))
    import jsonschema

    schema = json.loads(
        resources.files("qskein").joinpath("schemas", schema_name).read_text()
    )
    try:
        jsonschema.validate(data, schema)
    except jsonschema.ValidationError as exc:
        raise InputError(
            "%s: schema violation at %s: %s"
            % (path, "/".join(str(p) for p in exc.path) or "<root>", exc.message)
        )
    return data


def _load_surface(path):
    if path.startswith("builtin:"):
        try:
            return surface_by_name(path[len("builtin:"):])
        except (KeyError, ValueError) as exc:
            raise InputError(exc.args[0])       # str() of a KeyError quotes it
    data = _load_json(path, "surface.schema.json")
    try:
        T = Triangulation.from_json(data)
        T.validate()
    except SurfaceError as exc:
        raise InputError("%s: %s" % (path, exc))
    return T


def _load_curve(T, path):
    data = _load_json(path, "curve.schema.json")
    try:
        return NormalCurve.from_json(T, data)
    except CurveError as exc:
        raise InputError("%s: %s" % (path, exc))


def _print_matrix(name, M, rows, cols):
    print("%s (%s x %s):" % (name, len(rows), len(cols)))
    width = max([len(str(c)) for c in cols] + [4])
    print("      " + " ".join(str(c).rjust(width) for c in cols))
    for lab, row in zip(rows, M):
        print("%5s " % lab + " ".join(str(int(v)).rjust(width) for v in row))


def cmd_surf(args):
    T = _load_surface(args.surface)
    Q, Qring, H = T.face_submatrices()
    if args.json:
        out = {
            "edges": list(T.edges),
            "inner_edges": list(T.inner_edges),
            "Q": Q.tolist(),
        }
        if T.surface_class == "marked":
            out["P"] = T.vertex_matrix().tolist()
            out["H"] = H.tolist()
            out["duality"] = T.duality_check()
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    _print_matrix("face matrix Q", Q, T.edges, T.edges)
    if T.surface_class == "marked":
        _print_matrix("vertex matrix P", T.vertex_matrix(), T.edges, T.edges)
        _print_matrix("H (inner rows of Q)", H, T.inner_edges, T.edges)
        rep = T.duality_check()
        print("duality: PH^T = -4 id: %s; HPH^T = -4 Qring: %s; rank H = %d/%d: %s"
              % (rep["PHt_ok"], rep["HPHt_ok"], rep["rank"], rep["inner"],
                 "PASS" if rep["ok"] else "FAIL"))
        return 0 if rep["ok"] else 1
    print("generalized surface: vertex matrix undefined")
    return 0


def cmd_curve(args):
    T = _load_surface(args.surface)
    alpha = _load_curve(T, args.curve)
    if args.what == "classify":
        kind = classify(alpha)
        mult = alpha.multiplicities()
        if args.json:
            print(json.dumps({"class": kind, "multiplicities": mult}, sort_keys=True))
        else:
            print("class: %s" % kind)
            print("multiplicities: %s" % json.dumps(mult, sort_keys=True))
        return 0
    states = enumerate_states(alpha)
    labels = T.inner_edges
    rows = []
    for s in states:
        k = state_exponents(alpha, s, labels)
        rows.append({"values": list(s),
                     "k": {lab: v for lab, v in zip(labels, k) if v}})
    if args.json:
        print(json.dumps({"count": len(states), "states": rows}, sort_keys=True))
    else:
        print("%d admissible states" % len(states))
        for r in rows:
            print("  %s  k=%s" % (r["values"], json.dumps(r["k"], sort_keys=True)))
    return 0


def cmd_trace(args):
    T = _load_surface(args.surface)
    alpha = _load_curve(T, args.curve)
    shear, skein, n = trace_once_edge(alpha, T)
    out = {}
    if args.side in ("shear", "both"):
        out["shear"] = shear
    if args.side in ("skein", "both"):
        out["skein"] = skein
    if args.json:
        print(json.dumps(
            {k: v.to_json() for k, v in out.items()} | {"states": n},
            indent=2, sort_keys=True,
        ))
    else:
        print("%d admissible states" % n)
        for k, v in out.items():
            print("%s side: %s" % (k, v))
    return 0


def cmd_shear(args):
    T = _load_surface(args.surface)
    bundle = ShearSkein.of(T)
    data = _load_json(args.element, "element.schema.json")
    try:
        elem = element_from_json(bundle.y, data)
    except KeyError as exc:
        raise InputError("element references unknown inner edge %s" % exc)
    except ValueError as exc:
        raise InputError("%s: bad coefficient exponent: %s" % (args.element, exc))
    img = bundle.psi(elem)
    if args.json:
        print(json.dumps(img.to_json(), indent=2, sort_keys=True))
    else:
        print(img)
    return 0


def cmd_flipseq(args):
    T = _load_surface(args.surface)
    labels = None
    if args.labels is not None:
        labels = args.labels.split(",")
        if len(labels) != len(args.edges):
            raise InputError("--labels needs one name per flip")
        if "" in labels:
            raise InputError("--labels has an empty name")
    try:
        final, comp, datas = compose_flips(
            T, args.edges, side=args.side, new_labels=labels
        )
    except SurfaceError as exc:
        raise InputError(str(exc))
    if args.verify and not final.same_as(T):
        raise InputError("--verify needs a flip sequence that returns to the start")
    for fd in datas:
        print("flip %s -> %s  quad (%s,%s,%s,%s)  %s"
              % (fd.a, fd.a_star, fd.b, fd.c, fd.d, fd.e, fd.coincidence))
    print("final inner edges: %s" % (final.inner_edges,))
    print("returns to start: %s" % final.same_as(T))
    code = 0
    if args.verify:
        for lab, v in verify_generator_map_identity(
            comp, trials=args.trials, seed=args.seed
        ).items():
            print("identity on generator %s: %s" % (lab, v))
            if not v.passed:
                code = 1
        print("seed=%d trials=%d" % (args.seed, args.trials))
    return code


def cmd_puncture(args):
    T = _load_surface(args.surface)
    ld = lift(T, variant=args.variant)
    if args.what == "lift":
        out = {
            "delta": ld.delta.to_json(),
            "points": list(ld.points),
            "cp_edges": ld.cp_edge,
            "omega": ld.omega,
        }
        if args.json:
            print(json.dumps(out, indent=2, sort_keys=True))
        else:
            print("lift of %r" % T)
            print("  -> %r" % ld.delta)
            print("  boundary loops: %s" % json.dumps(ld.cp_edge, sort_keys=True))
            print("  omega: %s" % json.dumps(ld.omega, sort_keys=True))
            bb = BarBundle(ld)
            print("  bar matrix checks: %s" % bb.checks)
        return 0
    if not args.curve:
        raise InputError("puncture trace needs a curve file")
    alpha = _load_curve(T, args.curve)
    res = bar_trace(ld, alpha)
    if args.json:
        print(json.dumps({
            "shear": res.shear_side.to_json(),
            "skein": res.skein_side.to_json(),
            "states": res.state_count,
            "cross_checked": res.cross_checked,
        }, indent=2, sort_keys=True))
    else:
        print("%d admissible states; cross-checked: %s"
              % (res.state_count, res.cross_checked))
        print("shear side: %s" % res.shear_side)
        print("skein side: %s" % res.skein_side)
    return 0 if res.cross_checked else 1


def cmd_verify(args):
    # a suite gets, and the report names, only the trials and seed it takes
    params = inspect.signature(suites.SUITES[args.suite]).parameters
    kw = {k: getattr(args, k) for k in ("trials", "seed") if k in params}
    rows = suites.SUITES[args.suite](**kw)
    failed = sum(1 for _, status, _ in rows if status == "FAIL")
    if args.json:
        print(json.dumps({
            "suite": args.suite,
            **kw,
            "results": [
                {"name": n, "status": s, "detail": d} for n, s, d in rows
            ],
            "passed": len(rows) - failed,
            "total": len(rows),
        }, indent=2, sort_keys=True))
        return 1 if failed else 0
    for name, status, detail in rows:
        print("%-8s %s%s" % (status, name, ("  [%s]" % detail) if detail else ""))
    used = ", ".join("%s=%d" % item for item in sorted(kw.items()))
    print("suite %s: %d/%d passed%s" % (args.suite, len(rows) - failed, len(rows),
                                       " (%s)" % used if used else ""))
    return 1 if failed else 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="qskein",
        description="quantum traces and flip coordinate changes on "
        "triangulated surfaces",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("surf", help="surface matrices")
    sp.add_argument("what", choices=["matrices"])
    sp.add_argument("surface")
    sp.set_defaults(func=cmd_surf)

    cp = sub.add_parser("curve", help="curve queries")
    cp.add_argument("what", choices=["classify", "states"])
    cp.add_argument("surface")
    cp.add_argument("curve")
    cp.set_defaults(func=cmd_curve)

    tp = sub.add_parser("trace", help="quantum trace of a curve")
    tp.add_argument("surface")
    tp.add_argument("curve")
    tp.add_argument("--side", choices=["skein", "shear", "both"], default="both")
    tp.set_defaults(func=cmd_trace)

    hp = sub.add_parser("shear", help="shear-to-skein map")
    hp.add_argument("what", choices=["psi"])
    hp.add_argument("surface")
    hp.add_argument("element")
    hp.set_defaults(func=cmd_shear)

    fp = sub.add_parser("flipseq", help="compose flips and verify identities")
    fp.add_argument("surface")
    fp.add_argument("edges", nargs="+")
    fp.add_argument("--side", choices=["shear", "skein"], default="shear")
    fp.add_argument("--labels", help="comma-separated names for the new diagonals")
    fp.add_argument("--verify", action="store_true")
    fp.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    fp.add_argument("--seed", type=int, default=0)
    fp.set_defaults(func=cmd_flipseq)

    pp = sub.add_parser("puncture", help="lifts of generalized surfaces")
    pp.add_argument("what", choices=["lift", "trace"])
    pp.add_argument("surface")
    pp.add_argument("curve", nargs="?")
    pp.add_argument("--variant", choices=["after", "before"], default="after")
    pp.set_defaults(func=cmd_puncture)

    vp = sub.add_parser("verify", help="run a verification suite")
    vp.add_argument("suite", choices=sorted(suites.SUITES))
    vp.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    vp.add_argument("--seed", type=int, default=0)
    vp.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        for name, least in (("trials", 1), ("seed", 0)):
            if getattr(args, name, least) < least:
                raise InputError("--%s must be at least %d" % (name, least))
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send what stdout still buffers to devnull, so
        # that the interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (InputError, CurveError, SurfaceError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
