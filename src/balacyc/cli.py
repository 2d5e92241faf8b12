"""Command-line front end: computations and verification sweeps.

Output is either a human table or schema-versioned JSON; identical
(command, parameters, seed) invocations produce byte-identical JSON.
Exit codes: 0 all checks verified, 1 a mathematical mismatch was found,
2 usage error (including an exhaustive enumeration over MAX_ENUMERATED_SETS
sets, or a --random count over it), 3 internal error.

Input is validated here, before any computation starts, with the library's
own checks (check_primes, check_colors, CycloComplexData.build,
normalize_top_cells, build_complex); only their ValueErrors become usage
errors. So is --out: a report path that cannot be written is a usage
error too. A ValueError raised later, inside a computation, is an internal
error. A selection of no sets at all is a usage error too, never an
empty verified run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import traceback
from json.encoder import encode_basestring_ascii

from .complexes import (
    _cycle_groups,
    build_complex,
    check_colors,
    complex_json,
    nested_elements,
    normalize_top_cells,
)
from .cyclo_family import (
    CycloComplexData,
    _cycle_rows,
    check_primes,
    coefficient_vector_is_coboundary,
)
from .cyclotomic import cyclotomic
from .groups import FiniteAbelianGroup
from .sweeps import (
    DEFAULT_SEED,
    bounded_subsets,
    default_sweep_report,
    random_index_subsets,
    random_point_subsets,
    run_coboundary_sweep,
    run_family_sweep,
    run_pullback_sweep,
)


# --all-subsets refuses to enumerate more sets than this.
MAX_ENUMERATED_SETS = 2**16


class UsageError(Exception):
    pass


def _checked(check, *args):
    """check(*args), its ValueError reported as a usage error."""
    try:
        return check(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _check_out(path) -> None:
    """UsageError unless a report can be written to path: not empty, not a
    directory, in an existing directory, writable."""
    parent = os.path.dirname(os.path.abspath(path))
    target = path if os.path.exists(path) else parent
    if not path or os.path.isdir(path) or not os.path.isdir(parent) or not os.access(target, os.W_OK):
        raise UsageError(f"cannot write the report to {path!r}")


def _int_at_least(minimum: int, kind: str):
    """An argparse type: an integer of at least `minimum`, described as `kind`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer")
        return value

    return parse


def _parse_primes(text: str) -> tuple[int, ...]:
    try:
        primes = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"malformed prime list: {text!r}") from exc
    return _checked(check_primes, primes)


def _parse_groups(text: str) -> tuple[FiniteAbelianGroup, ...]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed group JSON: {text!r}") from exc
    if not isinstance(data, list) or not data:
        raise UsageError("groups must be a nonempty JSON list of per-color factor lists")
    colors = []
    for color in data:
        # type, not isinstance: JSON true and false load as bool, a subclass of int
        if not isinstance(color, list) or not all(type(m) is int and m >= 1 for m in color):
            raise UsageError("each color must be a list of positive cyclic orders")
        colors.append(FiniteAbelianGroup(tuple(color)))
    return _checked(check_colors, colors)


def _parse_index_set(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(sorted({int(x) for x in text.split(",")}))
    except ValueError as exc:
        raise UsageError(f"malformed index set: {text!r}") from exc


def _parse_point_set(text: str, colors) -> tuple:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed point set JSON: {text!r}") from exc
    if not isinstance(data, list):
        raise UsageError("point set must be a JSON list of points")
    points = []
    for point in data:
        if not isinstance(point, list) or len(point) != len(colors):
            raise UsageError("each point must list one vertex per color")
        vertices = []
        for v in point:
            coords = v if isinstance(v, list) else [v]
            if not all(type(c) is int for c in coords):
                raise UsageError("vertex coordinates must be integers")
            vertices.append(tuple(coords))
        points.append(tuple(vertices))
    return tuple(points)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balacyc",
        description="Exact homology of balanced complexes over finite abelian "
        "groups, with cyclotomic verification sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("--out", metavar="FILE", help="write the report to FILE")
        if seeded:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed for randomized sweeps")

    def selection(p, set_help):
        p.add_argument("--set", dest="subset", help=set_help)
        p.add_argument("--all-subsets", dest="exhaustive", action="store_true")
        p.add_argument("--max-size", type=_int_at_least(0, "nonnegative"), default=None)
        p.add_argument("--random", type=_int_at_least(1, "positive"), metavar="N")

    p = sub.add_parser("cyclo", help="coefficients of the n-th cyclotomic polynomial")
    p.add_argument("n", type=_int_at_least(1, "positive"))
    common(p)

    p = sub.add_parser("homology", help="reduced (co)homology of one complex")
    p.add_argument("--groups", help='per-color factors as JSON, e.g. "[[2],[3]]"')
    p.add_argument("--primes", help="comma list of distinct primes, e.g. 2,3,5")
    p.add_argument(
        "--set",
        dest="subset",
        help="top cells: JSON points with --groups (default: all), "
        "comma list of residues with --primes (default: empty)",
    )
    common(p)

    p = sub.add_parser(
        "verify-coboundaries",
        help="restricted coboundary lattice == transform-vanishing lattice",
    )
    p.add_argument("--groups", required=True)
    selection(p, "one point set as JSON")
    common(p, seeded=True)

    p = sub.add_parser(
        "verify-pullback",
        help="CRT pullback of the coboundary lattice == evaluation kernel lattice",
    )
    p.add_argument("--primes", required=True)
    selection(p, "comma list of residues (may be empty)")
    common(p, seeded=True)

    p = sub.add_parser(
        "verify-homology",
        help="computed homology/cohomology against the coefficient predictions",
    )
    p.add_argument("--primes", required=True)
    selection(p, "one nonempty comma list of residues")
    common(p, seeded=True)

    p = sub.add_parser(
        "verify-coeff-coboundary",
        help="the truncated cyclotomic coefficient vector is a top coboundary",
    )
    p.add_argument("--primes", required=True)
    common(p)

    p = sub.add_parser("sweep", help="run the full default verification battery")
    common(p, seeded=True)

    return parser


def _cmd_cyclo(args):
    poly = cyclotomic(args.n)
    report = {
        "schema": 1,
        "command": "cyclo",
        "n": args.n,
        "coefficients": poly.to_json(),
    }
    table = " ".join(str(c) for c in poly.coeffs)
    return report, True, table


def _cmd_homology(args):
    if bool(args.groups) == bool(args.primes):
        raise UsageError("exactly one of --groups / --primes is required")
    if args.groups:
        colors = _parse_groups(args.groups)
        if args.subset is None:
            points = nested_elements(colors)
        else:
            points = _parse_point_set(args.subset, colors)
        x = _checked(build_complex, colors, points)
        body = complex_json(x)
        report = {"schema": 1, "command": "homology", **body}
    else:
        primes = _parse_primes(args.primes)
        subset = _parse_index_set(args.subset or "")
        data = _checked(CycloComplexData.build, primes, subset)
        # the groups of build_family_complex, from the cycle matrix that
        # verify-homology reads, the empty subset included
        homology, cohomology = _cycle_groups(len(data.primes) - 1, _cycle_rows(data), data.totient)
        report = {
            "schema": 1,
            "command": "homology",
            "primes": list(primes),
            "n": data.n,
            "A": list(subset),
            "homology": {str(i): g.to_json_dict() for i, g in homology.items()},
            "cohomology": {str(i): g.to_json_dict() for i, g in cohomology.items()},
        }
    lines = [
        f"H~_{i}: {value['rank']} free, torsion {value['torsion']}"
        for i, value in sorted(report["homology"].items(), key=lambda kv: int(kv[0]))
    ]
    return report, True, "\n".join(lines)


def _exhaustive_subsets(universe, min_size: int, max_size) -> list:
    """All subsets with min_size..max_size elements, refused when none or too many.

    The count is never summed over every size of a large universe: with no
    max_size it is 2^N less the sizes below min_size, and otherwise the sum
    stops once it passes the limit, so a refusal may name a lower bound.
    """
    universe = tuple(universe)
    n = len(universe)
    top = n if max_size is None else min(max_size, n)
    if max_size is None:
        count, size = 2**n - sum(math.comb(n, s) for s in range(min_size)), top + 1
    else:
        count, size = 0, min_size
        while size <= top and count <= MAX_ENUMERATED_SETS:
            count += math.comb(n, size)
            size += 1
    if count == 0:
        raise UsageError(f"--all-subsets selects no sets; --max-size must be at least {min_size}")
    if count > MAX_ENUMERATED_SETS:
        # a count of thousands of digits is past the int-to-str limit of
        # Python 3.11; decimal is imported only here, off the start-up path
        from decimal import Decimal

        shown = str(count) if count < 10**15 else f"about {Decimal(count):.2e}"
        bound = "" if size > top else "at least "
        raise UsageError(
            f"--all-subsets would enumerate {bound}{shown} sets, over the limit of "
            f"{MAX_ENUMERATED_SETS}; lower --max-size"
        )
    return list(bounded_subsets(universe, min_size, max_size))


def _check_selection(args) -> None:
    """UsageError unless one selection flag is given, --max-size only with
    --all-subsets, and --random N at most MAX_ENUMERATED_SETS."""
    if (args.subset is not None) + args.exhaustive + bool(args.random) != 1:
        raise UsageError("choose one of --set, --all-subsets, --random N")
    if args.max_size is not None and not args.exhaustive:
        raise UsageError("--max-size needs --all-subsets")
    if args.random and args.random > MAX_ENUMERATED_SETS:
        raise UsageError(f"--random {args.random} is over the limit of {MAX_ENUMERATED_SETS} sets")


def _selection_report(args, head: dict, items) -> tuple[dict, bool, str]:
    """The report, verdict and table of a selection command: its items
    after the command's own fields (head)."""
    ok = all(item["ok"] for item in items)
    report = {"schema": 1, "command": args.command, **head, "seed": args.seed, "ok": ok, "items": items}
    lines = [f"A={item['A']}: {'ok' if item['ok'] else 'MISMATCH'}" for item in items]
    lines.append(f"{sum(1 for item in items if item['ok'])}/{len(items)} verified")
    return report, ok, "\n".join(lines)


def _cmd_verify_coboundaries(args):
    colors = _parse_groups(args.groups)
    _check_selection(args)
    if args.subset is not None:
        points = _parse_point_set(args.subset, colors)
        _checked(normalize_top_cells, colors, points)
        point_sets = [points]
    elif args.exhaustive:
        point_sets = _exhaustive_subsets(nested_elements(colors), 0, args.max_size)
    else:
        point_sets = sorted(random_point_subsets(colors, args.random, random.Random(args.seed)))
    return _selection_report(args, {"groups": [g.to_json() for g in colors]}, run_coboundary_sweep(colors, point_sets))


def _cmd_verify_indexed(args, nonempty: bool, run):
    """verify-pullback (run_pullback_sweep, the empty set allowed) and
    verify-homology (run_family_sweep, nonempty sets only)."""
    primes = _parse_primes(args.primes)
    data = CycloComplexData.build(primes, ())
    _check_selection(args)
    if args.subset is not None:
        subset = _parse_index_set(args.subset)
        if nonempty and not subset:
            raise UsageError("this command needs a nonempty subset")
        # checks the range 0..phi(n)
        _checked(CycloComplexData.build, data.primes, subset)
        subsets = [subset]
    elif args.exhaustive:
        subsets = _exhaustive_subsets(range(data.totient + 1), int(nonempty), args.max_size)
    else:
        drawn = random_index_subsets(data.totient, args.random, random.Random(args.seed), nonempty)
        subsets = sorted(drawn, key=lambda s: (len(s), s))
    return _selection_report(args, {"primes": list(primes), "n": data.n}, run(primes, subsets))


def _cmd_verify_coeff_coboundary(args):
    primes = _parse_primes(args.primes)
    ok = coefficient_vector_is_coboundary(primes)
    report = {
        "schema": 1,
        "command": "verify-coeff-coboundary",
        "primes": list(primes),
        "ok": ok,
    }
    return report, ok, f"primes {','.join(map(str, primes))}: {'ok' if ok else 'MISMATCH'}"


def _cmd_sweep(args):
    report, counts = default_sweep_report(args.seed)
    lines = [f"{name}: {verified}/{total} verified" for name, (verified, total) in counts.items()]
    lines.append("all verified" if report["ok"] else "MISMATCH FOUND")
    return report, report["ok"], "\n".join(lines)


# How _report_json writes each scalar type; every other type is refused.
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _report_json(report) -> str:
    """The report as json.dumps(report, sort_keys=True, indent=2) writes it.

    Reports hold only dicts with str keys, lists, tuples, str, int, bool
    and None, dispatched on the exact type; anything else, a float
    included, raises TypeError. Strings are escaped to ASCII by the json
    module's own encoder. With indent set, json.dumps cannot use its C
    encoder; this writer takes about half its time on a sweep report.
    """
    chunks = []
    put = chunks.append

    def write(o, level):
        # o is a container; its scalar members are written in place
        inner = "\n" + "  " * (level + 1)
        if type(o) is dict:
            if not o:
                put("{}")
                return
            sep = "{" + inner
            for key in sorted(o):
                if type(key) is not str:
                    raise TypeError(f"report keys must be str, not {type(key).__name__}")
                put(sep + encode_basestring_ascii(key) + ": ")
                value = o[key]
                scalar = _JSON_SCALARS.get(type(value))
                if scalar:
                    put(scalar(value))
                else:
                    write(value, level + 1)
                sep = "," + inner
            put("\n" + "  " * level + "}")
        elif type(o) is list or type(o) is tuple:
            if not o:
                put("[]")
                return
            sep = "[" + inner
            for value in o:
                put(sep)
                scalar = _JSON_SCALARS.get(type(value))
                if scalar:
                    put(scalar(value))
                else:
                    write(value, level + 1)
                sep = "," + inner
            put("\n" + "  " * level + "]")
        else:
            raise TypeError(f"{type(o).__name__} is not a report value")

    scalar = _JSON_SCALARS.get(type(report))
    if scalar:
        return scalar(report)
    write(report, 0)
    return "".join(chunks)


_DISPATCH = {
    "cyclo": _cmd_cyclo,
    "homology": _cmd_homology,
    "verify-coboundaries": _cmd_verify_coboundaries,
    # the runners are looked up at call time, so a rebinding of their names is seen
    "verify-pullback": lambda args: _cmd_verify_indexed(args, False, run_pullback_sweep),
    "verify-homology": lambda args: _cmd_verify_indexed(args, True, run_family_sweep),
    "verify-coeff-coboundary": _cmd_verify_coeff_coboundary,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.out is not None:
            _check_out(args.out)
        report, ok, table = _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.format == "json":
        text = _report_json(report) + "\n"
    else:
        text = table + "\n"
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
