#!/usr/bin/env python3
"""Compare Frobenius powers of <x,y>^5 and <x^5,y^5> on a p-power grid.

The two ideals share a Newton polyhedron, so their test ideals agree at every
parameter; their Frobenius powers do not.  This script prints both step
functions next to the test-ideal table so the extra stratum of <x^5,y^5> is
visible, e.g. for p = 3 the piece <x^3, x*y, y^3> on [2/3, 7/9).

Usage: python3 scripts/closure_comparison.py [p] [e_max]
"""

import sys
from fractions import Fraction

from frobpow import Ideal, PolyRing, ideal_power, jumps_scan, newton_tau


def describe(step, label):
    print(f"  {label}:")
    for lo, hi, value in step.intervals():
        gens = ", ".join(str(g) for g in value.canonical_generators()) or "0"
        print(f"    [{lo}, {hi})  ->  {gens}")


def main():
    p = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    e_max = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    R = PolyRing(p, ("x", "y"))
    m = Ideal(R, [R.var("x"), R.var("y")])
    b = ideal_power(m, 5)
    c = Ideal(R, [R.parse("x^5"), R.parse("y^5")])

    print(f"p = {p}, grid resolution 1/{p**e_max}")
    describe(jumps_scan(b, e_max), "<x,y>^5   (integral closure)")
    describe(jumps_scan(c, e_max), "<x^5,y^5>")

    print("  shared Newton test ideals:")
    bm, cm = b.to_monomial(), c.to_monomial()
    previous = None
    for k in range(0, 40):
        t = Fraction(k, 40)
        tau = newton_tau(bm, t)
        assert tau == newton_tau(cm, t)
        if tau != previous:
            gens = ", ".join(str(g) for g in tau.polynomials())
            print(f"    t >= {t}: {gens}")
            previous = tau


if __name__ == "__main__":
    main()
