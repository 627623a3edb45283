"""Check of stable limits in the window's variables, outside tier-1.

    PYTHONPATH=src:tests python tests/check_stable_window.py

Compares stable_groth_perm, which restricts the polynomial to the window's
variables before its quotient word, with long_word_stable_groth_perm, the
whole long word of max(nvars, support) followed by the restriction, on all
5,040 permutations of S_7 at the windows (3, 6) and (4, 7).  Then compares
gp_sp with gp_sp_in_window, the long word of S_nvars on the restricted
symplectic polynomial, on all 105 fpf involutions of rank 8 at (4, 6),
(3, 8) and (4, 12).  Tier-1 reaches S_6 and rank 6.  Prints one line per
mismatch and a summary, and exits 1 on any failure.
"""

from __future__ import annotations

import sys
import time

from spgroth.coxeter import all_fpf_involutions, all_permutations
from spgroth.stable import Window, gp_sp, stable_groth_perm

from helpers import gp_sp_in_window, long_word_stable_groth_perm

PERM_WINDOWS = (Window(3, 6), Window(4, 7))
SP_WINDOWS = (Window(4, 6), Window(3, 8), Window(4, 12))


def main() -> int:
    failed = 0
    for win in PERM_WINDOWS:
        start = time.perf_counter()
        checked = 0
        for w in all_permutations(7):
            checked += 1
            if stable_groth_perm(w, win) != long_word_stable_groth_perm(w, win):
                failed += 1
                print(f"MISMATCH {w!r} at {win!r}: stable_groth_perm")
        print(f"{checked} permutations of S_7 at ({win.nvars}, {win.maxdeg}), "
              f"{time.perf_counter() - start:.1f} s")
        if checked != 5040:
            failed += 1
    for win in SP_WINDOWS:
        start = time.perf_counter()
        checked = 0
        for z in all_fpf_involutions(8):
            checked += 1
            if gp_sp(z, win) != gp_sp_in_window(z, win):
                failed += 1
                print(f"MISMATCH {z!r} at {win!r}: gp_sp")
        print(f"{checked} fpf involutions of rank 8 at ({win.nvars}, {win.maxdeg}), "
              f"{time.perf_counter() - start:.1f} s")
        if checked != 105:
            failed += 1
    print(f"{failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
