#!/usr/bin/env python3
"""
Print the counting grid and the spectral table in one run.

    python3 scripts/run_tables.py [--nmax N] [--dmax D]

Cells where the published reference prints a different value are marked
with an asterisk and footnoted.
"""
import argparse

from garside_census.cli import main as cli_main
from garside_census.matrices import build_Mbar
from garside_census.spectral import cached_charpoly, poly_str, spectral_radius_table


def run(nmax: int, dmax: int) -> None:
    cli_main(["table", "--nmax", str(nmax), "--dmax", str(dmax)])
    print()
    print("characteristic polynomials of the partition matrices:")
    for n in range(1, min(nmax, 8) + 1):
        print(f"  n={n}: {poly_str(cached_charpoly(build_Mbar(n)))}")
    print()
    print("dominant eigenvalues:")
    for row in spectral_radius_table(min(nmax, 8)):
        ratio = "-" if row["ratio"] is None else f"{row['ratio']:.3f}"
        print(f"  n={row['n']}: rho={row['rho']:.3f} ratio={ratio}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nmax", type=int, default=6)
    parser.add_argument("--dmax", type=int, default=6)
    args = parser.parse_args()
    run(args.nmax, args.dmax)
