"""Batch command-line front end.  Every pipeline is exposed as a
subcommand emitting JSON (deterministic, sorted keys) to stdout or --out;
--pretty renders a flat key/value table instead.

Exit codes: 0 success, 1 validation error (bad flags or inputs),
2 internal assertion failure.
"""

import argparse
import json
import sys

from latmod.casestudies import CaseStudyError, class_orbit_count, pgl2_sym2_report
from latmod.exact import Lattice, LatticeError, distance, is_prime
from latmod.latconstruct import count_invariant_orbits, s_minus, s_plus, unit_edge
from latmod.models import lie_invariants, lie_model
from latmod.reps import RepError, build_irrep
from latmod.rootdata import RootDataError, build_chevalley


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _parse_hw(text, rank):
    try:
        hw = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise LatticeError("highest weight must be comma-separated integers")
    if len(hw) != rank or any(x < 0 for x in hw):
        raise LatticeError("highest weight needs %d nonnegative coordinates" % rank)
    return hw


def _prime(text):
    """argparse type of --p: fails before any representation is built."""
    try:
        p = int(text)
    except ValueError:
        p = 0
    if not is_prime(p):
        raise argparse.ArgumentTypeError("prime must be prime: %r" % (text,))
    return p


def _load_lattice(path):
    with open(path) as f:
        return Lattice.from_json(f.read())


def _build_rep(args):
    cb = build_chevalley(args.type, args.rank)
    return build_irrep(cb, _parse_hw(args.hw, args.rank))


def _emit(obj, args):
    if args.pretty:
        text = _pretty(obj)
    else:
        text = json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)
    text += "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _pretty(obj, prefix=""):
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            lines.append(_pretty(obj[k], prefix + str(k) + "."))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            lines.append(_pretty(v, prefix + "%d." % i))
    else:
        return "%-40s %s" % (prefix.rstrip("."), obj)
    return "\n".join(lines)


def _cmd_rep_build(args):
    return _build_rep(args).to_json_obj()


def _cmd_lattice_dist(args):
    a = _load_lattice(args.a)
    b = _load_lattice(args.b)
    a = Lattice.from_integers(a.columns, a.denominator, args.p, a.ambient)
    b = Lattice.from_integers(b.columns, b.denominator, args.p, b.ambient)
    return {"p": args.p, "distance": distance(a, b)}


def _cmd_sandwich(args):
    rep = _build_rep(args)
    edge = unit_edge(rep, prime=args.p)
    lo = s_minus(rep, edge)
    hi = s_plus(rep, edge)
    return {
        "s_minus": lo.to_json_obj(),
        "s_plus": hi.to_json_obj(),
        "index": str(lo.index_in(hi)),
    }


def _cmd_orbits(args):
    rep = _build_rep(args)
    return count_invariant_orbits(rep, unit_edge(rep, prime=args.p))


def _cmd_model_lie(args):
    with open(args.rep) as f:
        spec = json.load(f)
    cb = build_chevalley(spec["type"], int(spec["rank"]))
    rep = build_irrep(cb, tuple(int(x) for x in spec["hw"]))
    lat = _load_lattice(args.lattice)
    model = lie_model(rep, lat)
    return {"model": model.to_json_obj(), "invariants": lie_invariants(model)}


def _cmd_case_pgl2(args):
    return pgl2_sym2_report()


def _cmd_case_classgroup(args):
    count, reps = class_orbit_count(args.disc)
    return {
        "disc": args.disc,
        "orbit_count": count,
        "representatives": [lat.to_json_obj() for lat in reps],
    }


def _add_common(p):
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.add_argument("--pretty", action="store_true", help="flat key/value table")


def _add_rep_flags(p):
    p.add_argument("--type", required=True, choices=("A", "B", "C", "D"))
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--hw", required=True, help="comma-separated coordinates")


def main(argv=None):
    parser = _Parser(prog="latmod")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("rep", parents=[], help="representation pipelines")
    rep_sub = rep.add_subparsers(dest="subcommand", required=True)
    p = rep_sub.add_parser("build")
    _add_rep_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_rep_build)

    lattice = sub.add_parser("lattice", help="lattice pipelines")
    lat_sub = lattice.add_subparsers(dest="subcommand", required=True)
    p = lat_sub.add_parser("dist")
    p.add_argument("--p", required=True, type=_prime)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_lattice_dist)

    p = sub.add_parser("sandwich", help="minimal/maximal split lattices")
    _add_rep_flags(p)
    p.add_argument("--p", required=True, type=_prime)
    _add_common(p)
    p.set_defaults(func=_cmd_sandwich)

    p = sub.add_parser("orbits", help="invariant-lattice orbit report")
    _add_rep_flags(p)
    p.add_argument("--p", required=True, type=_prime)
    _add_common(p)
    p.set_defaults(func=_cmd_orbits)

    model = sub.add_parser("model", help="integral model pipelines")
    model_sub = model.add_subparsers(dest="subcommand", required=True)
    p = model_sub.add_parser("lie")
    p.add_argument("--rep", required=True, help='JSON {"type","rank","hw"}')
    p.add_argument("--lattice", required=True, help="lattice JSON file")
    _add_common(p)
    p.set_defaults(func=_cmd_model_lie)

    case = sub.add_parser("case", help="end-to-end case studies")
    case_sub = case.add_subparsers(dest="subcommand", required=True)
    p = case_sub.add_parser("pgl2")
    _add_common(p)
    p.set_defaults(func=_cmd_case_pgl2)
    p = case_sub.add_parser("classgroup")
    p.add_argument("--disc", required=True, type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_case_classgroup)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        result = args.func(args)
    except (
        LatticeError,
        RootDataError,
        RepError,
        CaseStudyError,
        ValueError,
        OSError,
        KeyError,
        json.JSONDecodeError,
    ) as e:
        sys.stderr.write("error: %s\n" % e)
        return 1
    except AssertionError as e:
        sys.stderr.write("internal assertion failure: %s\n" % e)
        return 2
    _emit(result, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
