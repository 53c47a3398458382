#!/usr/bin/env python3
"""Reproduce the headline spanning-tree counts and entropy constants.

Prints, for each of the four main fractals:
  * the derived decimation data (R, d, Q(0), P_d),
  * tau(G_n) in factored form for small n, checked against the
    brute-force Kirchhoff oracle,
  * the per-prime exponents at a larger level,
  * the tree entropy c_30 next to the closed-form constant.

Exits 1 when a count disagrees with the oracle or c_N is farther than
1e-10 from its constant (the largest gap at N = 30 is about 3e-14), so
N well below 30 fails by design.

Usage: python scripts/reproduce_counts.py [--n-max N]
"""

import argparse
import sys
import time

import mpmath

from fractal_trees import (
    build_level,
    builtin,
    derive,
    entropy,
    exponent_table,
    tau,
    tau_bruteforce,
)
from fractal_trees.levels import vertex_count_formula

CONSTANTS = {
    "sierpinski": ("ln2/3 + ln3/2 + ln5/6", lambda ln: ln(2) / 3 + ln(3) / 2 + ln(5) / 6),
    "nonpcf_sg": ("11ln2/10 + ln3/2 + ln5/5", lambda ln: 11 * ln(2) / 10 + ln(3) / 2 + ln(5) / 5),
    "diamond": ("ln2", lambda ln: ln(2)),
    "hexagasket": ("2ln2/9 + 8ln3/15 + ln7/45", lambda ln: 2 * ln(2) / 9 + 8 * ln(3) / 15 + ln(7) / 45),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-max", type=int, default=30)
    args = ap.parse_args()

    mpmath.mp.dps = 30
    failed = False
    for name in ("sierpinski", "nonpcf_sg", "diamond", "hexagasket"):
        s = builtin(name)
        dd = derive(s)
        num, den = dd.primitive_R()
        d, q0, pd = dd.primitive_triple()
        print(f"== {name}")
        print(f"   R(z) = ({num}) / ({den})   d={d} Q(0)={q0} P_d={pd}")
        for n in range(4):
            t = tau(s, n, dd)
            line = f"   tau(G_{n}) = {t}"
            if vertex_count_formula(s, n) <= 100:
                brute = tau_bruteforce(build_level(s, n))
                failed |= t != brute
                line += f"   [oracle: {'ok' if t == brute else 'MISMATCH ' + str(brute)}]"
            print(line)
        tab = exponent_table(s, 8, dd)
        print(f"   exponents at n=8: {{{', '.join(f'{p}: {seq[8]}' for p, seq in sorted(tab.items()))}}}")
        t0 = time.time()
        rep = entropy(s, n_max=args.n_max, precision=30, dd=dd)
        label, make = CONSTANTS[name]
        target = make(mpmath.log)
        failed |= abs(rep.extrapolated - target) > 1e-10
        print(f"   c_{args.n_max} = {mpmath.nstr(rep.extrapolated, 20)}")
        print(f"   {label} = {mpmath.nstr(target, 20)}   |diff| = {mpmath.nstr(abs(rep.extrapolated - target), 3)}   ({time.time() - t0:.2f}s)")
        print()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
