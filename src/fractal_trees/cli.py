"""Command-line front end.

Subcommands: list, info, build, decimate, count, verify, entropy.  A
fractal argument is either a builtin name or a path to a JSON definition
file.  Exit codes: 0 success, 1 validation/usage error or an output
closed by its reader, 2 internal inconsistency (a failed exactness check).

The grammar is one table, `GRAMMAR`.  A well-formed command line (an
exact command name, exact option strings, each value as the next token)
is read from it directly into the namespace argparse would make.
Anything else goes to the argparse parser that `make_parser` builds from
the same table, so help, usage and error text are argparse's, and only a
process that prints one of them imports `argparse` (and with it
`gettext` and `locale`).
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager, suppress
from functools import cache
from types import SimpleNamespace

from .counting import AssemblyError, LevelWalk, tau
from .decimation import (
    DecimationError,
    InconsistentSpectrumError,
    Spectra,
    crosscheck_spectrum,
    derive,
    spectrum,
)
from .entropy import decimal_printer, entropy
from .kirchhoff import prob_laplacian_charpoly, tau_bruteforce, verify_matrix_tree
from .levels import build_level, export, vertex_count_formula
from .structures import (
    BUILTIN_NAMES,
    InvalidStructureError,
    builtin,
    load_json,
    to_json_dict,
    validate,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONSISTENT = 2

# levels above this build very large graphs; the oracle warns before trying
BRUTE_FORCE_SOFT_CAP = 400


def _resolve(name: str, check: bool = True):
    """The builtin or JSON-file structure `name`; a file that breaks a
    structure rule is refused unless `check` is false."""
    if name in BUILTIN_NAMES:
        return builtin(name)
    if os.path.exists(name):
        s = load_json(name)
        if check and not (report := validate(s)).ok:
            raise InvalidStructureError(report)
        return s
    raise KeyError(
        f"unknown fractal {name!r}: not a builtin "
        f"({', '.join(BUILTIN_NAMES)}) and no such file"
    )


@contextmanager
def _int_str_unlimited():
    """Lift CPython's int-to-str digit limit (4300 by default) while output
    is formatted; parsing argv and fractal files stays under the limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _print_json(obj):
    import json

    with _int_str_unlimited():
        # the package prints only acyclic dicts and lists
        print(json.dumps(obj, indent=2, sort_keys=True, check_circular=False))


def cmd_list(args) -> int:
    for name in BUILTIN_NAMES:
        print(name)
    return EXIT_OK


def cmd_info(args) -> int:
    s = _resolve(args.fractal, check=False)
    report = validate(s)
    if args.format == "json":
        data = to_json_dict(s)
        data["schema"] = "1"
        data["valid"] = report.ok
        data["violations"] = list(report.violations)
        _print_json(data)
    else:
        print(f"name:      {s.name}")
        print(f"cells:     {s.m}")
        print(f"|V0|:      {s.v0_size}")
        print(f"|V1|:      {s.v1_size}")
        print(f"G1 edges:  {sum(m for _, _, m in s.edges1)}")
        print(f"boundary:  {list(s.boundary)}")
        print(f"valid:     {report.ok}")
        for v in report.violations:
            print(f"  violation: {v}")
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_build(args) -> int:
    s = _resolve(args.fractal)
    g = build_level(s, args.level)
    sys.stdout.write(export(g, args.format))
    if args.format == "json":
        sys.stdout.write("\n")
    return EXIT_OK


def cmd_decimate(args) -> int:
    s = _resolve(args.fractal)
    dd = derive(s)
    table = spectrum(dd, args.level)
    d, q0, pd = dd.primitive_triple()
    num, den = dd.primitive_R()
    r_text = str(num) if den == 1 else f"({num}) / ({den})"
    if args.format == "json":
        _print_json(
            {
                "schema": "1",
                "fractal": s.name,
                "phi": str(dd.phi),
                "R": r_text,
                "d": d,
                "Q0": str(q0),
                "Pd": str(pd),
                "sigma_D": [
                    {"class": str(cls.minpoly), "mult": mult}
                    for cls, mult in dd.sigma_d
                ],
                "exceptional": [
                    {
                        "value": str(rec.value),
                        "case": rec.case_id,
                        "mult_D": rec.mult_d,
                        "image": None if rec.image is None else str(rec.image),
                    }
                    for rec in (dd.case_records[c] for c in dd.exceptional)
                ],
                "spectrum_level": args.level,
                "spectrum": [
                    {"base": str(cls), "minpoly": str(cls.minpoly), "depth": k, "mult": mult}
                    for cls, k, mult in table.entries
                ],
            }
        )
        return EXIT_OK
    with _int_str_unlimited():
        print(f"phi(z) = {dd.phi}")
        print(f"R(z)   = {r_text}")
        print(f"d = {d}, Q(0) = {q0}, P_d = {pd}")
        print("sigma(D):")
        for cls, mult in dd.sigma_d:
            print(f"  {cls}  (minpoly {cls.minpoly}, mult {mult})")
        print("exceptional values:")
        for cls in dd.exceptional:
            rec = dd.case_records[cls]
            img = "pole" if rec.image is None else str(rec.image)
            print(
                f"  {cls}: case {rec.case_id}, mult_D={rec.mult_d}, "
                f"phi_zero={rec.phi_zero}, phi_pole={rec.phi_pole}, "
                f"R_pole={rec.r_pole}, R(z) -> {img}"
            )
        print(f"sigma(P_{args.level}) (class, depth, mult):")
        for cls, k, mult in table.entries:
            print(f"  ({cls}, {k}, {mult})")
        print(f"  (0, -, {table.zero_mult})")
    return EXIT_OK


def cmd_count(args) -> int:
    s = _resolve(args.fractal)
    t = tau(s, args.level)
    with _int_str_unlimited():
        if args.format == "json":
            data = t.to_json()
            data["schema"] = "1"
            data["fractal"] = s.name
            data["level"] = args.level
            _print_json(data)
        elif args.digits:
            print(t.digits10())
        elif args.factored:
            print(str(t))
        elif (digits := t.digits_past(10_000)) is not None:
            print(f"# value has {digits} digits; factored form:")
            print(str(t))
        else:
            print(t.value())
    return EXIT_OK


def cmd_verify(args) -> int:
    s = _resolve(args.fractal)
    checks: list[tuple[str, bool, object]] = []

    def record(name: str, ok: bool, detail: object = ""):
        checks.append((name, ok, detail))

    def attempt(check) -> tuple[bool, object]:
        """check()'s (verdict, detail); a raised exactness failure is a FAIL."""
        try:
            return check()
        except (AssemblyError, InconsistentSpectrumError) as e:
            return False, str(e)

    try:
        dd = derive(s)
        record("schur identity S = phi (P0 - R)", True, "verified during derivation")
    except DecimationError as e:
        print(f"error: decimation failed: {e}", file=sys.stderr)
        return EXIT_INVALID

    cap = args.max_level
    # |V_n| grows with n, so the levels the oracle can take are a prefix
    lo = 0
    while lo <= cap and vertex_count_formula(s, lo) <= BRUTE_FORCE_SOFT_CAP:
        lo += 1
    oracle_levels = range(lo)
    if lo <= cap:
        print(
            f"note: skipping brute force at levels {lo}..{cap} "
            f"(graphs above {BRUTE_FORCE_SOFT_CAP} vertices)",
            file=sys.stderr,
        )

    # one induction pass keeps the tables of the first two nonempty levels
    # (each charpoly serves two checks) and of level 30.  The level walk reads
    # it first, for tau at every level in increasing order.  A refused step
    # fails each later level with its message, a refused pass each table too
    spectral_levels = [n for n in oracle_levels if n >= 1][:2]
    levels = Spectra(dd, [*spectral_levels, 30])
    walk = LevelWalk(dd, levels)

    def tau_at(n):
        walk.jump(n)
        return walk.factors()

    graphs: dict = {}
    for n in oracle_levels:  # each level glued once, from the one below
        graphs[n] = build_level(s, n, graphs.get(n - 1))
    brute = {n: tau_bruteforce(g) for n, g in graphs.items()}
    for n in oracle_levels:
        record(f"tau oracle vs closed form, level {n}",
               *attempt(lambda: (tau_at(n) == brute[n], brute[n])))

    # the walk reads the pass to level 30, or to its jump, before the tables
    assembly = attempt(lambda: (tau_at(30) is not None, ""))
    chis = {n: prob_laplacian_charpoly(graphs[n]) for n in spectral_levels}
    for n in spectral_levels:
        ok, t, rhs = verify_matrix_tree(graphs[n], tau=brute[n], chi=chis[n])
        record(f"matrix-tree identity on G_{n}", ok, f"tau={t}")
    for n in spectral_levels:
        record(f"spectrum charpoly crosscheck, level {n}",
               *attempt(lambda: crosscheck_spectrum(dd, n, chi=chis[n], table=levels.spectrum(n))))
    record("spectrum sum rule, levels 0..30",
           *attempt(lambda: (levels.spectrum(30) is not None, "")))
    record("integer assembly at level 30", *assembly)

    failed = [c for c in checks if not c[1]]
    with _int_str_unlimited():  # an oracle's count may pass 4,300 digits
        for name, ok, detail in checks:
            status = "PASS" if ok else "FAIL"
            suffix = f"  ({detail})" if detail else ""
            print(f"{status}  {name}{suffix}")
    return EXIT_OK if not failed else EXIT_INCONSISTENT


def cmd_entropy(args) -> int:
    s = _resolve(args.fractal)
    report = entropy(s, n_max=args.level, precision=args.prec)
    prec = args.prec
    to_str = decimal_printer(prec)

    def digits(x):  # mpmath.nstr(x, prec) of an mpf
        return None if x is None else to_str(x._mpf_)

    if args.format == "json":
        import json

        head = json.dumps(
            {
                "schema": "1",
                "fractal": s.name,
                "precision": prec,
                "extrapolated": digits(report.extrapolated),
                "bounds_applicable": report.bounds_applicable,
                "lower_bound": digits(report.lower_bound),
                "upper_bound": digits(report.upper_bound),
                "diffs_decreasing": report.diffs_decreasing,
            },
            indent=2, sort_keys=True, check_circular=False,
        )
        # "values" sorts after every other key and holds at least one row, so
        # its rows go in before the closing brace as json.dumps would lay them
        # out; a value's digits, '.', 'e', '+' and '-' need no escapes
        rows = ",\n".join(f'    [\n      {n},\n      "{digits(c)}"\n    ]' for n, c in report.values)
        print(f'{head[:-2]},\n  "values": [\n{rows}\n  ]\n}}')
        return EXIT_OK
    print(f"tree entropy of {s.name} (ln-based, {prec} digits)")
    for n, c in report.values:
        print(f"  c_{n:<3d} = {digits(c)}")
    print(f"extrapolated: {digits(report.extrapolated)}")
    if report.bounds_applicable:
        print(f"bounds: {digits(report.lower_bound)} <= c <= {digits(report.upper_bound)}")
    else:
        print("bounds: not applicable (|V0| = 2 or G1 is a tree)")
    print(f"|c_(n+1) - c_n| decreasing over last levels: {report.diffs_decreasing}")
    return EXIT_OK


FRACTAL = (("fractal",), {})
TEXT_OR_JSON = (("--format",), {"choices": ("text", "json"), "default": "text"})

# The command-line grammar, each command in argparse's order: its help, its
# handler and its arguments as argparse's (flags, keyword arguments).
GRAMMAR = {
    "list": ("list builtin fractals", cmd_list, ()),
    "info": ("structure summary and validation", cmd_info, (FRACTAL, TEXT_OR_JSON)),
    "build": ("build and export a level graph", cmd_build, (
        FRACTAL,
        (("-n", "--level"), {"type": int, "default": 1}),
        (("--format",), {"choices": ("dot", "json"), "default": "json"}),
    )),
    "decimate": ("derive phi, R and the exceptional cases", cmd_decimate, (
        FRACTAL,
        (("-n", "--level"), {"type": int, "default": 1, "help": "spectrum preview level"}),
        TEXT_OR_JSON,
    )),
    "count": ("number of spanning trees of G_n", cmd_count, (
        FRACTAL,
        (("-n", "--level"), {"type": int, "required": True}),
        (("--factored",), {"action": "store_true", "help": "print prime factorization"}),
        (("--digits",), {"action": "store_true", "help": "print decimal digit count"}),
        TEXT_OR_JSON,
    )),
    "verify": ("run the exactness checks", cmd_verify, (
        FRACTAL,
        (("--max-level",), {"type": int, "default": 2}),
    )),
    "entropy": ("asymptotic complexity constant", cmd_entropy, (
        FRACTAL,
        (("-n", "--level"), {"type": int, "default": 30}),
        (("--prec",), {"type": int, "default": 30}),
        TEXT_OR_JSON,
    )),
}


class _Parser:
    """Mixed into argparse's parser by `make_parser`: a usage error exits 1,
    as for any bad input; argparse's own 2 is the status of a failed
    exactness check here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


@cache
def make_parser():
    """`GRAMMAR` as an argparse parser, built at the first call of the
    process that needs help text or a usage error."""
    import argparse

    class Parser(_Parser, argparse.ArgumentParser):
        pass

    p = Parser(
        prog="fractal-trees",
        description="Exact spanning-tree counts on self-similar fractal graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for command, (help_text, func, arguments) in GRAMMAR.items():
        sp = sub.add_parser(command, help=help_text)
        for flags, kwargs in arguments:
            sp.add_argument(*flags, **kwargs)
        sp.set_defaults(func=func)
    return p


def _is_value(token: str) -> bool:
    """Whether argparse takes `token` as a value, not as an option: no
    leading '-', or a negative integer by argparse's pattern, whose digits
    are any Unicode decimal digits."""
    return not token.startswith("-") or token[1:].isdecimal()


def _read(argv):
    """The namespace argparse makes of `argv`, read from `GRAMMAR` when
    each token is an exact command or option string, a value or a
    positional; None for anything else (help, `--`, abbreviations,
    `--opt=value`, `-n5`, bad values, unknown or extra tokens), which
    argparse then parses, prints and refuses as it always has."""
    if not argv or argv[0] not in GRAMMAR:
        return None
    _, func, arguments = GRAMMAR[argv[0]]
    values = {"command": argv[0], "func": func}
    options, positionals, required = {}, [], set()
    for flags, kwargs in arguments:
        if not flags[0].startswith("-"):
            positionals.append(flags[0])
            continue
        dest = next((f for f in flags if f.startswith("--")), flags[0])
        dest = dest.lstrip("-").replace("-", "_")
        flag = kwargs.get("action") == "store_true"
        values[dest] = kwargs.get("default", False if flag else None)
        if kwargs.get("required"):
            required.add(dest)
        for f in flags:
            options[f] = dest, flag, kwargs
    given, seen = [], set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in options:
            if not _is_value(token):
                return None
            given.append(token)
            continue
        dest, flag, kwargs = options[token]
        seen.add(dest)
        if flag:
            values[dest] = True
            continue
        token = next(tokens, None)
        if token is None or not _is_value(token):
            return None
        try:
            value = kwargs.get("type", str)(token)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dest] = value
    if len(given) != len(positionals) or not required <= seen:
        return None
    values.update(zip(positionals, given))
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv) or make_parser().parse_args(argv)
    if getattr(args, "level", 0) < 0 or getattr(args, "max_level", 0) < 0:
        print("error: level must be nonnegative", file=sys.stderr)
        return EXIT_INVALID
    if getattr(args, "prec", 6) < 6:
        print("error: precision must be at least 6", file=sys.stderr)
        return EXIT_INVALID
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the output: say nothing more, and send what is
        # still buffered to the null device, so the last flush at exit passes
        with suppress(OSError):  # an in-process stream has no file descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INVALID
    except (InconsistentSpectrumError, AssemblyError, AssertionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (InvalidStructureError, KeyError, FileNotFoundError, ValueError) as e:
        msg = e.args[0] if e.args else e
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
