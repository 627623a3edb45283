"""Exhaustive rank-10 check of the Sp-dominant closed product, outside tier-1.

    PYTHONPATH=src:tests python tests/check_sp_dominant_rank10.py

Compares sp_dominant_poly (one Kronecker substitution) with the chain of
generic products on all 126 Sp-dominant fpf involutions of rank 10, one at
a time, so at most two products are alive at once.  Also checks what the
tier-1 test relies on to skip the larger ones: every product of 16 or more
cells has more than 50,000 terms.  Prints one line per mismatch and a
summary, and exits 1 on any failure.
"""

from __future__ import annotations

import sys
import time

from spgroth.coxeter import all_fpf_involutions, fpf_length
from spgroth.grothendieck import is_sp_dominant, sp_dominant_poly

from helpers import oracle_sp_dominant_poly


def main() -> int:
    start = time.perf_counter()
    checked = failed = 0
    for z in all_fpf_involutions(10):
        if not is_sp_dominant(z):
            continue
        checked += 1
        f, g = sp_dominant_poly(z), oracle_sp_dominant_poly(z)
        if f.nvars != g.nvars or f.terms != g.terms:
            failed += 1
            print(f"MISMATCH {z!r}: {len(f.terms)} terms in {f.nvars} variables, "
                  f"oracle {len(g.terms)} in {g.nvars}")
        elif fpf_length(z) >= 16 and len(f.terms) <= 50_000:
            failed += 1
            print(f"SMALL {z!r}: {fpf_length(z)} cells, {len(f.terms)} terms")
        del f, g
    print(f"{checked} Sp-dominant involutions of rank 10, {failed} failed, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failed or checked != 126 else 0


if __name__ == "__main__":
    sys.exit(main())
