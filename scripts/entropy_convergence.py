#!/usr/bin/env python3
"""Convergence of c_n = ln tau(G_n) / |V_n| toward the tree entropy.

Prints an aligned table of c_n per level for every builtin that supports
decimation, with the general lower/upper bounds where applicable.  The
3-branch tree structure (`tree3`) shows the lower bound ln(3)/2 being
approached from below.

Usage: python scripts/entropy_convergence.py [--n-max N] [--prec P]
"""

import argparse

import mpmath

from fractal_trees import builtin, entropy
from fractal_trees.structures import BUILTIN_NAMES


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=14)
    ap.add_argument("--prec", type=int, default=20)
    args = ap.parse_args()

    mpmath.mp.dps = args.prec
    names = [n for n in BUILTIN_NAMES]
    reports = {name: entropy(builtin(name), n_max=args.n_max, precision=args.prec)
               for name in names}

    header = "  n  " + "".join(f"{name:>{args.prec + 4}}" for name in names)
    print(header)
    for i, n in enumerate(range(2, args.n_max + 1)):
        row = f"{n:>4} "
        for name in names:
            row += f"{mpmath.nstr(reports[name].values[i][1], args.prec - 4):>{args.prec + 4}}"
        print(row)
    print()
    for name in names:
        rep = reports[name]
        if rep.bounds_applicable:
            print(
                f"{name}: bounds {mpmath.nstr(rep.lower_bound, 10)} <= c <= "
                f"{mpmath.nstr(rep.upper_bound, 10)}; monotone diffs: {rep.diffs_decreasing}"
            )
        else:
            print(f"{name}: bounds not applicable (|V0| = 2 or G1 is a tree)")


if __name__ == "__main__":
    main()
