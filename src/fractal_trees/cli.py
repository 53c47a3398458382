"""Command-line front end.

Subcommands: list, info, build, decimate, count, verify, entropy.  A
fractal argument is either a builtin name or a path to a JSON definition
file.  Exit codes: 0 success, 1 validation/usage error or an output
closed by its reader, 2 internal inconsistency (a failed exactness check).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, suppress
from functools import cache

from .counting import AssemblyError, LevelWalk, tau
from .decimation import (
    DecimationError,
    InconsistentSpectrumError,
    crosscheck_spectrum,
    derive,
    spectra,
    spectrum,
)
from .entropy import entropy
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
        print(json.dumps(obj, indent=2, sort_keys=True))


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
    num, den = dd.primitive_R()
    q0, pd = den.constant_term(), num.leading()
    r_text = str(num) if den == 1 else f"({num}) / ({den})"
    if args.format == "json":
        _print_json(
            {
                "schema": "1",
                "fractal": s.name,
                "phi": str(dd.phi),
                "R": r_text,
                "d": dd.d,
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
        print(f"d = {dd.d}, Q(0) = {q0}, P_d = {pd}")
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
    checks: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str = ""):
        checks.append((name, ok, detail))

    def attempt(name: str, check):
        """Record check()'s (verdict, detail); a raised exactness failure is a FAIL."""
        try:
            ok, detail = check()
        except (AssemblyError, InconsistentSpectrumError) as e:
            ok, detail = False, str(e)
        record(name, ok, detail)

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

    # one level walk gives tau at every level, level 0 included, in increasing
    # order; a refused step fails each later level with its message
    walk, refused = LevelWalk(dd), None

    def tau_at(n):
        nonlocal refused
        if refused is None:
            try:
                walk.jump(n)
            except (AssemblyError, InconsistentSpectrumError) as e:
                refused = e
        if refused is not None:
            raise refused
        return walk.factors()

    graphs: dict = {}
    for n in oracle_levels:  # each level glued once, from the one below
        graphs[n] = build_level(s, n, graphs.get(n - 1))
    brute = {n: tau_bruteforce(g) for n, g in graphs.items()}
    for n in oracle_levels:
        attempt(f"tau oracle vs closed form, level {n}",
                lambda: (tau_at(n) == brute[n], f"{brute[n]}"))

    # the first two nonempty levels; each charpoly serves both checks
    spectral_levels = [n for n in oracle_levels if n >= 1][:2]
    chis = {n: prob_laplacian_charpoly(graphs[n]) for n in spectral_levels}
    for n in spectral_levels:
        ok, t, rhs = verify_matrix_tree(graphs[n], tau=brute[n], chi=chis[n])
        record(f"matrix-tree identity on G_{n}", ok, f"tau={t}")

    # one induction pass reads every table; a refusal at level k fails
    # each check at k or past it with its message
    tables, refused_table = {}, None
    try:
        for table in spectra(dd, [*spectral_levels, 30]):
            tables[table.level] = table
    except InconsistentSpectrumError as e:
        refused_table = e

    def table_at(n):
        if n not in tables:
            raise refused_table
        return tables[n]

    for n in spectral_levels:
        attempt(f"spectrum charpoly crosscheck, level {n}",
                lambda: crosscheck_spectrum(dd, n, chi=chis[n], table=table_at(n)))

    # these two pass unless the induction or the assembly refuses
    attempt("spectrum sum rule, levels 0..30", lambda: (table_at(30) is not None, ""))
    attempt("integer assembly at level 30", lambda: (tau_at(30) is not None, ""))

    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"{status}  {name}{suffix}")
    return EXIT_OK if not failed else EXIT_INCONSISTENT


def cmd_entropy(args) -> int:
    import mpmath

    s = _resolve(args.fractal)
    report = entropy(s, n_max=args.level, precision=args.prec)
    prec = args.prec
    with mpmath.workdps(prec):
        if args.format == "json":
            _print_json(
                {
                    "schema": "1",
                    "fractal": s.name,
                    "precision": prec,
                    "values": [[n, mpmath.nstr(c, prec)] for n, c in report.values],
                    "extrapolated": mpmath.nstr(report.extrapolated, prec),
                    "bounds_applicable": report.bounds_applicable,
                    "lower_bound": None
                    if report.lower_bound is None
                    else mpmath.nstr(report.lower_bound, prec),
                    "upper_bound": None
                    if report.upper_bound is None
                    else mpmath.nstr(report.upper_bound, prec),
                    "diffs_decreasing": report.diffs_decreasing,
                }
            )
            return EXIT_OK
        print(f"tree entropy of {s.name} (ln-based, {prec} digits)")
        for n, c in report.values:
            print(f"  c_{n:<3d} = {mpmath.nstr(c, prec)}")
        print(f"extrapolated: {mpmath.nstr(report.extrapolated, prec)}")
        if report.bounds_applicable:
            print(
                f"bounds: {mpmath.nstr(report.lower_bound, prec)} <= c <= "
                f"{mpmath.nstr(report.upper_bound, prec)}"
            )
        else:
            print("bounds: not applicable (|V0| = 2 or G1 is a tree)")
        print(f"|c_(n+1) - c_n| decreasing over last levels: {report.diffs_decreasing}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with a usage error at exit status 1, as for any bad input;
    argparse's own 2 is the status of a failed exactness check here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


@cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line grammar, built at the first call of the process."""
    p = _Parser(
        prog="fractal-trees",
        description="Exact spanning-tree counts on self-similar fractal graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list builtin fractals").set_defaults(func=cmd_list)

    sp = sub.add_parser("info", help="structure summary and validation")
    sp.add_argument("fractal")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("build", help="build and export a level graph")
    sp.add_argument("fractal")
    sp.add_argument("-n", "--level", type=int, default=1)
    sp.add_argument("--format", choices=("dot", "json"), default="json")
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("decimate", help="derive phi, R and the exceptional cases")
    sp.add_argument("fractal")
    sp.add_argument("-n", "--level", type=int, default=1, help="spectrum preview level")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_decimate)

    sp = sub.add_parser("count", help="number of spanning trees of G_n")
    sp.add_argument("fractal")
    sp.add_argument("-n", "--level", type=int, required=True)
    sp.add_argument("--factored", action="store_true", help="print prime factorization")
    sp.add_argument("--digits", action="store_true", help="print decimal digit count")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("verify", help="run the exactness checks")
    sp.add_argument("fractal")
    sp.add_argument("--max-level", type=int, default=2)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("entropy", help="asymptotic complexity constant")
    sp.add_argument("fractal")
    sp.add_argument("-n", "--level", type=int, default=30)
    sp.add_argument("--prec", type=int, default=30)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_entropy)

    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
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
