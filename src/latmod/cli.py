"""Batch command-line front end.  Every pipeline is exposed as a
subcommand emitting JSON (deterministic, sorted keys) to stdout or --out;
--pretty renders a flat key/value table instead.  The JSON is written by
_dump, byte for byte what json.dumps(obj, sort_keys=True, separators=(",",
": "), indent=1) writes, without importing json for what reports hold.
So json is imported only to read an input file (model lie, lattice
dist) with json.load, for a string that needs an escape, or to quote a
bad value in an error.

COMMANDS maps each command to its handler and its required flags with
their converters; every flag is converted before the handler runs, and
the handler imports its pipeline when it runs.  Flags read as argparse
read them: ``--flag value``, ``--flag=value``, a unique prefix of the
name, the last of a repeated flag wins, a value may be a negative number.

Exit codes: 0 success (also after -h/--help), 1 validation error (bad
flags or inputs, an input file nested past the recursion limit among
them, a model lie lattice whose ambient is not the Weyl dimension of the
spec, or a rep build, sandwich or orbits report with more matrix entries
than reps.REPORT_ENTRY_CAP: refused before the representation is built
when its dimension alone puts the report past the cap, and an orbits
report during the search, at the first class past it; an orbits
representation with a weight multiplicity is refused before it is built
too) or a failed write
of help, usage or report (a closed pipe), 2 internal assertion failure.
main returns the code and never ends the process; run, the entry of
``python -m latmod.cli`` and of the ``latmod`` script, flushes stdout and
stderr and then ends the process with os._exit, skipping interpreter
teardown; a flush that fails ends it with code 1 and an error line, as a
failed write in main does.  No atexit handler runs (latmod registers
none); an --out file is closed before main returns.
"""

import os
import sys


class _Usage(Exception):
    """Raised before any handler runs: after help (no message) or on a usage error."""


def _type(text):
    if text not in ("A", "B", "C", "D"):
        raise ValueError("invalid choice: %r (choose from A, B, C, D)" % (text,))
    return text


def _prime(text):
    """Converter of --p: fails before any representation is built."""
    from latmod.exact import is_prime
    try:
        p = int(text)
    except ValueError:
        p = 0
    if not is_prime(p):
        raise ValueError("prime must be prime: %r" % (text,))
    return p


def _load_lattice(path):
    import json
    from latmod.exact import Lattice
    with open(path) as f:
        return Lattice.from_json_obj(json.load(f))


def _rep_input(args):
    """The Chevalley basis and highest weight the flags name, the weight
    refused unless it is dominant."""
    from latmod.reps import dominant
    from latmod.rootdata import build_chevalley
    cb = build_chevalley(args["type"], args["rank"])
    try:
        hw = tuple(int(x) for x in args["hw"].split(","))
    except ValueError:
        raise ValueError("highest weight must be comma-separated integers")
    return cb, dominant(cb, hw)


def _build_rep(args, matrices, what, kind, multiplicity_free=False):
    """The irreducible the flags name, refused before it is built when its
    report has more than reps.REPORT_ENTRY_CAP entries: at least
    matrices(cb) dim×dim matrices of kind entries, what naming them (a
    format of their number), dim the Weyl dimension.  With
    multiplicity_free (orbits), it is then refused when it has fewer than
    dim weights (reps.weight_set), a walk the cap keeps to dim weights."""
    from latmod.reps import REPORT_ENTRY_CAP, build_irrep, weight_set, weyl_dimension
    cb, hw = _rep_input(args)
    dim, n = weyl_dimension(cb, hw), matrices(cb)
    if n * dim * dim > REPORT_ENTRY_CAP:
        raise ValueError(
            "the report of dimension %d with %s has %d %s entries, more than the cap of %d"
            % (dim, what % n, n * dim * dim, kind, REPORT_ENTRY_CAP)
        )
    if multiplicity_free and len(weight_set(cb, hw)) < dim:
        raise ValueError("orbit grouping implemented for multiplicity-free blocks only")
    return build_irrep(cb, hw)


def _dump(obj):
    """json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)."""
    out = []
    _write(obj, "\n", out)
    return "".join(out)


def _plain(text):
    """Does json.dumps write text as it stands, between quotes?  It
    escapes a quote, a backslash and every character outside printable
    ASCII."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


def _write(obj, newline, out):
    """Append the JSON of obj to out; newline is the line break and indent
    of obj's own line.  Str-keyed dicts, lists, ints, bools, None and
    plain strings are written here, a list of plain strings (a row of an
    action matrix) in one join; any other value goes to json.dumps, its
    lines indented to match (a JSON string holds no raw line break)."""
    kind = type(obj)
    if obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif kind is int:
        out.append(repr(obj))
    elif kind is str and _plain(obj):
        out.append('"' + obj + '"')
    elif kind is list and obj and all(type(x) is str for x in obj) and _plain("".join(obj)):
        inner = newline + " "
        out.append("[" + inner + '"' + ('",' + inner + '"').join(obj) + '"' + newline + "]")
    elif kind is list or kind is dict and all(type(k) is str for k in obj):
        if not obj:
            out.append("[]" if kind is list else "{}")
            return
        inner = newline + " "
        out.append("[" if kind is list else "{")
        for n, item in enumerate(obj if kind is list else sorted(obj)):
            out.append("," + inner if n else inner)
            _write(item, inner, out)
            if kind is dict:
                out.append(": ")
                _write(obj[item], inner, out)
        out.append(newline + ("]" if kind is list else "}"))
    else:
        import json
        out.append(json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1).replace("\n", newline))


def _emit(obj, args):
    text = _pretty(obj) if args["pretty"] else _dump(obj)
    if args["out"]:
        with open(args["out"], "w") as f:
            f.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _pretty(obj, prefix=""):
    if isinstance(obj, (dict, list)):
        items = sorted(obj.items(), key=lambda kv: str(kv[0])) if isinstance(obj, dict) else enumerate(obj)
        return "\n".join(_pretty(v, "%s%s." % (prefix, k)) for k, v in items)
    return "%-40s %s" % (prefix.rstrip("."), obj)


def _cmd_rep_build(args):
    return _build_rep(args, lambda cb: len(cb.basis_order()), "%d generators", "action").to_json_obj()


def _cmd_lattice_dist(args):
    from latmod.exact import Lattice, distance
    p = args["p"]
    a, b = map(_load_lattice, (args["a"], args["b"]))
    for flag, x in (("a", a), ("b", b)):
        if x.prime not in (None, p):
            raise ValueError("--%s is a lattice over Z_(%d), not over Z_(%d) as --p says" % (flag, x.prime, p))
    # A lattice over Z is localised at p.
    a, b = (Lattice.from_integers(x.columns, x.denominator, p, x.ambient) for x in (a, b))
    return {"p": p, "distance": distance(a, b)}


def _cmd_sandwich(args):
    from latmod.latconstruct import s_minus, s_plus
    rep = _build_rep(args, lambda cb: 2, "%d lattices", "basis")
    lo, hi = s_minus(rep, args["p"]), s_plus(rep, args["p"])
    return {"s_minus": lo.to_json_obj(), "s_plus": hi.to_json_obj(), "index": str(lo.index_in(hi))}


def _cmd_orbits(args):
    from latmod.latconstruct import count_invariant_orbits
    # The admissible lattice of the Chevalley module is an invariant split
    # lattice with unit J, so a report has at least one class.
    rep = _build_rep(args, lambda cb: 1, "at least %d class", "basis", multiplicity_free=True)
    return count_invariant_orbits(rep, args["p"])


def _spec_int(name, x):
    try:
        return int(x)
    except ValueError:
        import json
        raise ValueError("%s must be an integer, not %s" % (name, json.dumps(x)))


def _cmd_model_lie(args):
    import json
    from latmod.models import check_ambient, lie_invariants, lie_model
    from latmod.reps import build_irrep, dominant, weyl_dimension
    from latmod.rootdata import build_chevalley
    with open(args["rep"]) as f:
        spec = json.load(f)
    shaped = isinstance(spec, dict) and isinstance(spec.get("hw"), list)
    if not shaped or not all(type(x) in (int, str) for x in [spec.get("type"), spec.get("rank")] + spec["hw"]):
        raise ValueError('representation spec must be {"type": ..., "rank": ..., "hw": [...]}')
    rank = _spec_int("rank", spec["rank"])
    hw = tuple(_spec_int("hw entry", x) for x in spec["hw"])
    cb = build_chevalley(spec["type"], rank)
    dominant(cb, hw)
    # A lattice in the wrong space is refused before the representation is built.
    lat = _load_lattice(args["lattice"])
    check_ambient(lat, weyl_dimension(cb, hw))
    model = lie_model(build_irrep(cb, hw), lat)
    return {"model": model.to_json_obj(), "invariants": lie_invariants(model)}


def _cmd_case_pgl2(args):
    from latmod.casestudies import pgl2_sym2_report
    return pgl2_sym2_report()


def _cmd_case_classgroup(args):
    from latmod.casestudies import class_orbit_count
    count, reps = class_orbit_count(args["disc"])
    return {"disc": args["disc"], "orbit_count": count, "representatives": [lat.to_json_obj() for lat in reps]}


_REP = {"type": _type, "rank": int, "hw": str}
# command -> (handler, {required flag: converter of its value}, summary)
COMMANDS = {
    "rep build": (_cmd_rep_build, _REP, "highest-weight representation"),
    "lattice dist": (_cmd_lattice_dist, {"p": _prime, "a": str, "b": str}, "p-adic distance of two lattices"),
    "sandwich": (_cmd_sandwich, dict(_REP, p=_prime), "minimal/maximal split lattices"),
    "orbits": (_cmd_orbits, dict(_REP, p=_prime), "invariant-lattice orbit report"),
    "model lie": (_cmd_model_lie, {"rep": str, "lattice": str}, "Lie lattice of a lattice, its invariants"),
    "case pgl2": (_cmd_case_pgl2, {}, "rank-1 symmetric-square case study"),
    "case classgroup": (_cmd_case_classgroup, {"disc": int}, "class orbits of an imaginary quadratic order"),
}
# Optional flags of every command; None converts a flag that takes no value.
_OPTIONAL = {"out": str, "pretty": None, "help": None}
# Shown for a flag's value; others show NAME, or NAME.json for a file name (a str flag).
_METAVARS = {"type": "{A,B,C,D}", "hw": "H1,H2,...", "p": "PRIME"}


def _usage(path):
    """A usage line and summary of each command under path."""
    lines = ["usage: latmod COMMAND [--FLAG VALUE ...] [--out FILE] [--pretty] [-h]"]
    for cmd, (_, flags, summary) in COMMANDS.items():
        if cmd.split()[: len(path)] == path:
            words = ["--%s %s" % (f, _METAVARS.get(f, f.upper() + ".json" * (c is str))) for f, c in flags.items()]
            lines.append("  latmod %s\n      %s" % (" ".join([cmd] + words), summary))
    return "\n".join(lines)


def _named(word, flags):
    """The flags that word names in full or by a prefix."""
    name = word[2:].partition("=")[0] if word[:2] == "--" else "help" if word == "-h" else ""
    return [name] if name in flags else [f for f in flags if name and f.startswith(name)]


def _match(word, flags):
    """The flag that word names in full or by a unique prefix."""
    hits = _named(word, flags)
    if len(hits) != 1:
        raise _Usage("%s: %s" % ("ambiguous flag" if hits else "unrecognized argument", word))
    return hits[0]


def _negative_number(word):
    """Does argparse read word, "-" and what follows, as a negative
    number: "-" then digits, or "-", optional digits, "." and digits?"""
    whole, dot, frac = word[1:].partition(".")
    return frac.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()


def _flags(words, required):
    """Values of the flags in words, converted in order."""
    flags = dict(required, **_OPTIONAL)
    args = {"out": None, "pretty": False}
    words = iter(words)
    for word in words:
        name, explicit = _match(word, flags), "=" in word
        if flags[name] is None:
            if explicit:
                raise _Usage("--%s takes no value" % name)
            if name == "help":
                raise _Usage()
            args[name] = True
            continue
        value = word.partition("=")[2] if explicit else next(words, "--")
        # In the order of argparse's _parse_optional, a word starting with "-" other than "-" is a flag
        # when it names one ("-h" and anything after it too), else a value only when it is a negative
        # number or holds a space.
        if not explicit and value[:1] == "-" and value != "-":
            if value[:2] == "-h" or _named(value, flags) or not (_negative_number(value) or " " in value):
                raise _Usage("--%s needs a value" % name)
        try:
            args[name] = flags[name](value)
        except ValueError as e:
            raise _Usage("argument --%s: %s" % (name, e))
    missing = ["--" + f for f in required if f not in args]
    if missing:
        raise _Usage("required flags missing: %s" % ", ".join(missing))
    return args


def _parse(argv, path):
    """Handler and flag values of the command argv names; path receives
    the words of the command as they are read."""
    while " ".join(path) not in COMMANDS:
        word = argv[len(path)] if len(path) < len(argv) else ""
        if word.startswith("-"):
            _flags(argv[len(path) :], {})  # raises at help or at a word other than --out/--pretty
        names = sorted({c.split()[len(path)] for c in COMMANDS if c.split()[: len(path)] == path})
        if word not in names:
            raise _Usage("choose a command from %s%s" % (", ".join(names), word and ", not %r" % word))
        path.append(word)
    handler, required, _ = COMMANDS[" ".join(path)]
    return handler, _flags(argv[len(path) :], required)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    path = []
    try:
        try:
            handler, args = _parse(argv, path)
        except _Usage as e:
            stream, tail = (sys.stderr, "error: %s\n" % e) if e.args else (sys.stdout, "")
            stream.write(_usage(path) + "\n" + tail)
            return 1 if e.args else 0
        _emit(handler(args), args)
    except (ValueError, OSError, KeyError, RecursionError) as e:
        # An OSError may be the usage or the report written to a closed pipe;
        # a RecursionError is an input file nested past the recursion limit.
        sys.stderr.write("error: %s\n" % e)
        return 1
    except AssertionError as e:
        sys.stderr.write("internal assertion failure: %s\n" % e)
        return 2
    return 0


def run():
    """main on sys.argv, then os._exit with its code once stdout and
    stderr are flushed.  A flush that fails (a closed pipe) ends the
    process with code 1, after an error line as main writes for a failed
    write, so a closed pipe ends a request the same way whether stdout is
    buffered or not."""
    code = main()
    try:
        try:
            sys.stdout.flush()
        except OSError as e:
            code = 1
            sys.stderr.write("error: %s\n" % e)
        sys.stderr.flush()
    except OSError:
        code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
