"""Command-line front end.

Exit codes: 0 success, 1 usage problems, 2 expression parse errors,
3 verification mismatches.  Verification subcommands are thin drivers
over the library and print any failing instance with enough seed
information to replay it exactly.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import List, Optional

from .calculus import Composition, c_nu, enumerate_compositions
from .expansion import verify_pair
from .formatting import format_element
from .jets import JetData, JetDataError, jet_match
from .parser import ParseError, parse
from .poly import MultiPoly
from .randgen import random_crossed
from .rational import GaussianRational
from .star import c0, c1, star, weight

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VERIFY = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        raise UsageError(message)


def _plain_symbol(text: str, who: str):
    elem = parse(text)
    if not elem.gamma.is_zero():
        raise UsageError(f"{who} must not contain gamma")
    extra = elem.plain.variables() - {"x", "p"}
    if extra:
        raise UsageError(f"{who} must be a polynomial in x and p only")
    return elem.plain


def cmd_star(args) -> int:
    result = star(parse(args.a), parse(args.b))
    print(format_element(result, args.format))
    return EXIT_OK


def cmd_cterm(args) -> int:
    if args.j < 0 or args.l < 0:
        raise UsageError("--j and --l must be nonnegative")
    a = _plain_symbol(args.a, "--a")
    b = _plain_symbol(args.b, "--b")
    fn = c0 if args.family == 0 else c1
    print(format_element(fn(args.j, args.l, a, b), args.format))
    return EXIT_OK


def cmd_compositions(args) -> int:
    if args.n < 0:
        raise UsageError("--n must be nonnegative")
    for nu in enumerate_compositions(args.m, args.n):
        print("(" + ",".join(str(y) for y in nu.entries) + ")")
    return EXIT_OK


def cmd_cnu(args) -> int:
    try:
        entries = tuple(int(s) for s in args.nu.split(","))
    except ValueError:
        raise UsageError("--nu must be a comma-separated integer tuple")
    try:
        nu = Composition(entries)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.s < 0:
        raise UsageError("--s must be nonnegative")
    print(c_nu(nu, args.s))
    return EXIT_OK


def cmd_verify_assoc(args) -> int:
    if args.trials < 0 or args.degree < 0:
        raise UsageError("--trials and --degree must be nonnegative")
    rng = random.Random(args.seed)
    for trial in range(args.trials):
        A = random_crossed(rng, args.degree)
        B = random_crossed(rng, args.degree)
        C = random_crossed(rng, args.degree)
        left = star(star(A, B), C)
        right = star(A, star(B, C))
        if left != right:
            print(f"associativity FAILED at trial {trial} (seed {args.seed}, "
                  f"degree {args.degree})")
            for name, elem in (("A", A), ("B", B), ("C", C)):
                print(f"  {name} = {format_element(elem)}")
            return EXIT_VERIFY
    print(f"associativity verified: {args.trials} trials, degree {args.degree}, "
          f"seed {args.seed}")
    return EXIT_OK


def cmd_verify_oracle(args) -> int:
    if args.max_degree < 0:
        raise UsageError("--max-degree must be nonnegative")
    checked = 0
    for a in range(args.max_degree + 1):
        for b in range(args.max_degree + 1):
            for c in range(args.max_degree + 1):
                for d in range(args.max_degree + 1):
                    left = MultiPoly.monomial({"x": a, "p": b})
                    right = MultiPoly.monomial({"x": c, "p": d})
                    report = verify_pair(left, right)
                    checked += 1
                    if not report.ok:
                        print(report.describe())
                        return EXIT_VERIFY
    print(f"oracle agreement verified on {checked} monomial pairs "
          f"(exponents <= {args.max_degree})")
    return EXIT_OK


def _load_jets(path: str) -> JetData:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read jets file: {exc}")
    try:
        x0n, x0d, p0n, p0d = data["point"]
        m, n = int(data["m"]), int(data["n"])
        values = {}
        for idx, i, j, (ren, red), (imn, imd) in data["values"]:
            values[(int(idx), int(i), int(j))] = GaussianRational(
                Fraction(ren, red), Fraction(imn, imd))
        return JetData(Fraction(x0n, x0d), Fraction(p0n, p0d), m, n, values)
    except JetDataError as exc:
        raise UsageError(str(exc))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed jets file: {exc}")


def cmd_jet_match(args) -> int:
    jd = _load_jets(args.jets)
    if args.point is not None:
        try:
            x0_text, p0_text = args.point.split(",")
            x0, p0 = Fraction(x0_text), Fraction(p0_text)
        except ValueError:
            raise UsageError("--point must look like X0,P0 with rational entries")
        if (x0, p0) != (jd.x0, jd.p0):
            raise UsageError("--point disagrees with the jets file")
    if args.m is not None and args.m != jd.m:
        raise UsageError("--m disagrees with the jets file")
    if args.n is not None and args.n != jd.n:
        raise UsageError("--n disagrees with the jets file")
    try:
        g = jet_match(jd)
    except JetDataError as exc:
        raise UsageError(str(exc))
    print(format_element(g, args.format))
    return EXIT_OK


def cmd_weights(args) -> int:
    elem = parse(args.expr)
    if not elem.gamma.is_zero():
        raise UsageError("--expr must not contain gamma")
    if elem.plain.is_zero():
        raise UsageError("weight of the zero polynomial is undefined")
    print(weight(elem.plain))
    return EXIT_OK


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "latex", "json"), default="text")


def build_parser() -> _Parser:
    top = _Parser(prog="dunklstar", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("star", help="star product of two expressions")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    _add_format(p)
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("cterm", help="single bilinear layer C^family_{j,l}")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--family", type=int, choices=(0, 1), required=True)
    _add_format(p)
    p.set_defaults(func=cmd_cterm)

    p = sub.add_parser("compositions", help="list index tuples with sum m and n slots")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_compositions)

    p = sub.add_parser("cnu", help="signed multiplicity of an index tuple")
    p.add_argument("--nu", required=True, help='comma tuple, e.g. "1,0,2"')
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_cnu)

    p = sub.add_parser("verify-assoc", help="randomized associativity check")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_assoc)

    p = sub.add_parser("verify-oracle", help="three-way product agreement sweep")
    p.add_argument("--max-degree", type=int, default=3)
    p.set_defaults(func=cmd_verify_oracle)

    p = sub.add_parser("jet-match", help="fit a polynomial to prescribed jets")
    p.add_argument("--jets", required=True, help="JSON jet prescription file")
    p.add_argument("--point", default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    _add_format(p)
    p.set_defaults(func=cmd_jet_match)

    p = sub.add_parser("weights", help="circle-action weight of an expression")
    p.add_argument("--expr", required=True)
    p.set_defaults(func=cmd_weights)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
