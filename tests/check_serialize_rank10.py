"""Rank-10 check of both serialized forms, outside tier-1.

    PYTHONPATH=src:tests python tests/check_serialize_rank10.py

Compares canonical_text and canonical_json_terms with the serializers by
their definition, oracle_canonical_text and oracle_json_text, on two
rank-10 symplectic polynomials: the wide element 9,10,8,7,6,5,4,3,1,2 (10
variables, so the monomial text splits into two halves of five) and the
top element 10,9,...,1 (9 variables, so an odd split).  The oracles'
term lists dominate memory: the run peaks near 750 MB.  Prints one line
per polynomial and exits 1 on any mismatch.
"""

from __future__ import annotations

import sys
import time

from spgroth.coxeter import FpfInvolution
from spgroth.grothendieck import sp_grothendieck

from helpers import oracle_canonical_text, oracle_json_text

ELEMENTS = [(9, 10, 8, 7, 6, 5, 4, 3, 1, 2), (10, 9, 8, 7, 6, 5, 4, 3, 2, 1)]


def main() -> int:
    failed = 0
    for oneline in ELEMENTS:
        start = time.perf_counter()
        f = sp_grothendieck(FpfInvolution(oneline))
        bad = [name for name, got, want in [
            ("text", f.canonical_text, oracle_canonical_text),
            ("json", f.canonical_json_terms, oracle_json_text)] if got() != want(f)]
        failed += bool(bad)
        print(f"{'MISMATCH ' + ','.join(bad) if bad else 'ok'} {oneline}: "
              f"{len(f.terms)} terms in {f.nvars} variables, "
              f"{time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
