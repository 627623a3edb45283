"""Check of the shifted shape series at six variables, outside tier-1.

    PYTHONPATH=src:tests python tests/check_gp_window.py

Compares gp_partition, which counts each tableau under its packed monomial
key, with oracle_gp_partition, which counts one exponent list per tableau,
on all 25 strict shapes of size at most 8 at the window (6, 8), on (3, 2, 1)
at (6, 10) and on (3, 1) at (6, 9): the same canonical text.  Then compares
the tableaux that shifted_set_valued_tableaux yields, which skips every
letter above its cell's cap, with those of oracle_fillings, which has no
caps, in order: at 5 and 6 variables, for all 14 strict shapes of size at
most 6 and the weights |lam| .. |lam| + 2.  Tier-1 reaches 3 and 4 variables
at these sizes.  Prints one line per mismatch and a summary, and exits 1 on
any failure.
"""

from __future__ import annotations

import sys
import time
from itertools import zip_longest

from spgroth.coxeter import partitions_of
from spgroth.stable import Window, gp_partition, shifted_set_valued_tableaux

from helpers import oracle_fillings, oracle_gp_partition, shifted_cells

CASES = ([(lam, Window(6, 8)) for size in range(9) for lam in partitions_of(size, strict=True)]
         + [((3, 2, 1), Window(6, 10)), ((3, 1), Window(6, 9))])

ORDER_CASES = [(lam, nvars, size + extra) for size in range(7)
               for lam in partitions_of(size, strict=True)
               for nvars in (5, 6) for extra in range(3)]


def same_order(lam: tuple[int, ...], nvars: int, max_weight: int) -> bool:
    cells, pools = shifted_cells(lam, nvars)
    got = (dict(zip(cells, tab)) for tab in shifted_set_valued_tableaux(lam, nvars, max_weight))
    return all(a == b for a, b in zip_longest(got, oracle_fillings(cells, pools, max_weight)))


def main() -> int:
    start = time.perf_counter()
    failed = 0
    for lam, win in CASES:
        if gp_partition(lam, win).canonical_text() != oracle_gp_partition(lam, win).canonical_text():
            failed += 1
            print(f"MISMATCH {lam} at ({win.nvars}, {win.maxdeg})")
    print(f"{len(CASES)} cases, {failed} failed, {time.perf_counter() - start:.1f} s")
    start = time.perf_counter()
    order_failed = 0
    for lam, nvars, max_weight in ORDER_CASES:
        if not same_order(lam, nvars, max_weight):
            order_failed += 1
            print(f"ORDER MISMATCH {lam} at nvars {nvars}, max_weight {max_weight}")
    print(f"{len(ORDER_CASES)} tableau sequences, {order_failed} failed, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failed or order_failed or len(CASES) != 27 or len(ORDER_CASES) != 84 else 0


if __name__ == "__main__":
    sys.exit(main())
