"""Exhaustive rank-8 check of the permutation-basis peel, outside tier-1.

    PYTHONPATH=src:tests python tests/check_peel_rank8.py

Compares expand_in_grothendieck_basis (exact) and
expand_in_grothendieck_basis_censored (at cutoffs 2, 4 and 6) with the
two-level oracle loop on all 105 fpf involutions of rank 8: the same terms
in the same order.  Also checks the total number of exact terms, 1,145,
recorded while the peel was still two nested loops.  Prints one line per
mismatch and a summary, and exits 1 on any failure.
"""

from __future__ import annotations

import sys
import time

from spgroth.coxeter import all_fpf_involutions
from spgroth.grothendieck import (
    expand_in_grothendieck_basis,
    expand_in_grothendieck_basis_censored,
    sp_grothendieck,
)

from helpers import oracle_expand_groth

# above the length of every permutation in S_8 (28), so the exact expansion
# never stops at the bound
MAX_DEG = 40
CUTOFFS = (2, 4, 6)
EXACT_TERMS = 1145


def main() -> int:
    start = time.perf_counter()
    checked = failed = terms = 0
    for z in all_fpf_involutions(8):
        checked += 1
        f = sp_grothendieck(z)
        exact = expand_in_grothendieck_basis(f, MAX_DEG).terms
        terms += len(exact)
        if exact != oracle_expand_groth(f, MAX_DEG, censor=False):
            failed += 1
            print(f"MISMATCH {z!r}: exact expansion, {len(exact)} terms")
        for cutoff in CUTOFFS:
            if (expand_in_grothendieck_basis_censored(f, cutoff).terms
                    != oracle_expand_groth(f, cutoff, censor=True)):
                failed += 1
                print(f"MISMATCH {z!r}: censored at {cutoff}")
    print(f"{checked} fpf involutions of rank 8, {terms} exact terms, {failed} failed, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failed or checked != 105 or terms != EXACT_TERMS else 0


if __name__ == "__main__":
    sys.exit(main())
