#!/usr/bin/env python3
"""
Check the nested-spectrum conjecture: each partition-matrix
characteristic polynomial divides the next, with a squarefree new factor
of degree p(n) - p(n-1) and nonzero constant term.

    python3 scripts/run_conjecture.py [--nmax N]

N runs from 2 to matrices.MBAR_CAP (15), the size cap of build_Mbar; a
larger N is refused before any matrix is built.  On a shared 2-CPU
host with Python 3.11 the default range n <= 10 runs in about 0.3 s and
the full range n <= 15 in about 6 s (5.8-6.6 s in four runs), start-up
included.
"""
import argparse
import sys
import time

from garside_census.matrices import MBAR_CAP
from garside_census.spectral import new_factor_simple_roots, poly_str


def run(nmax: int) -> int:
    failures = 0
    for n in range(2, nmax + 1):
        t0 = time.perf_counter()
        rep = new_factor_simple_roots(n)
        elapsed = time.perf_counter() - t0
        verdict = "ok" if rep.all_ok else "FAIL"
        if not rep.all_ok:
            failures += 1
        q = poly_str(rep.quotient) if rep.quotient else "-"
        print(
            f"n={n}: {verdict} degree={rep.expected_degree}"
            f" squarefree={rep.squarefree} new-roots={rep.coprime_with_previous}"
            f" quotient={q} ({elapsed:.2f}s)"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=10)
    args = parser.parse_args()
    if not 2 <= args.nmax <= MBAR_CAP:
        parser.error(f"--nmax must be in 2..{MBAR_CAP}, got {args.nmax}")
    sys.exit(run(args.nmax))
