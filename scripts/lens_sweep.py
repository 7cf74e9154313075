#!/usr/bin/env python3
"""Classification sweep over lens space pairs.

For each prime p requested, takes the lens verdict (homotopy equivalence,
simple homotopy equivalence, torsion distinguishability) of every coprime
pair (q, q2) and counts the inconsistent ones, where torsion does not detect
exactly the pairs that are not simple homotopy equivalent.  Prints the
interesting cells: pairs homotopy equivalent but torsion-distinguished.
"""
import argparse
import sys
from math import gcd

from torsionkit.lensspaces import lens_params, lens_verdict


def sweep(p: int) -> tuple[int, list[tuple[int, int, int]]]:
    mismatches = 0
    interesting = []
    for q in range(1, p):
        if gcd(q, p) != 1:
            continue
        for q2 in range(q, p):
            if gcd(q2, p) != 1:
                continue
            verdict = lens_verdict(lens_params(p, q), lens_params(p, q2))
            if not verdict.consistent:
                mismatches += 1
            if verdict.homotopy_equivalent and not verdict.simple_homotopy_equivalent:
                interesting.append((q, q2, verdict.homotopy_witness))
    return mismatches, interesting


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--primes", type=int, nargs="+", default=[5, 7, 11, 13, 17]
    )
    args = parser.parse_args()
    total_mismatches = 0
    for p in args.primes:
        mismatches, interesting = sweep(p)
        total_mismatches += mismatches
        print(f"p = {p}: {len(interesting)} homotopy-equivalent pairs that torsion separates")
        for q, q2, m in interesting:
            print(f"  L({p},{q}) ~ L({p},{q2})  (m={m})  but NOT simple homotopy equivalent")
        if mismatches:
            print(f"  !! {mismatches} cross-check failures (torsion vs arithmetic)")
    print()
    if total_mismatches:
        print("FAILED: torsion disagreed with the arithmetic criterion somewhere")
        return 1
    print("cross-check clean: torsion = not(q2 = +-q^+-1) on every pair")
    return 0


if __name__ == "__main__":
    sys.exit(main())
