"""Check of the shifted shape series at six variables, outside tier-1.

    PYTHONPATH=src:tests python tests/check_gp_window.py

Compares gp_partition, which counts each tableau under its packed monomial
key, with oracle_gp_partition, which counts one exponent list per tableau,
on all 25 strict shapes of size at most 8 at the window (6, 8), on (3, 2, 1)
at (6, 10) and on (3, 1) at (6, 9): the same canonical text.  Tier-1 reaches
3 and 4 variables at these sizes.  Prints one line per mismatch and a
summary, and exits 1 on any failure.
"""

from __future__ import annotations

import sys
import time

from spgroth.coxeter import partitions_of
from spgroth.stable import Window, gp_partition

from helpers import oracle_gp_partition

CASES = ([(lam, Window(6, 8)) for size in range(9) for lam in partitions_of(size, strict=True)]
         + [((3, 2, 1), Window(6, 10)), ((3, 1), Window(6, 9))])


def main() -> int:
    start = time.perf_counter()
    failed = 0
    for lam, win in CASES:
        if gp_partition(lam, win).canonical_text() != oracle_gp_partition(lam, win).canonical_text():
            failed += 1
            print(f"MISMATCH {lam} at ({win.nvars}, {win.maxdeg})")
    print(f"{len(CASES)} cases, {failed} failed, {time.perf_counter() - start:.1f} s")
    return 1 if failed or len(CASES) != 27 else 0


if __name__ == "__main__":
    sys.exit(main())
