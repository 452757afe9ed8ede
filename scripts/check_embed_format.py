#!/usr/bin/env python3
"""Check `embed`'s numpy float formatter against `repr` over whole binades.

    PYTHONPATH=src python3 scripts/check_embed_format.py -14 -5 0 20 40

For each BINADE b, every float32 in [2**b, 2**(b+1)) and its negation, 2**24
values, is formatted by `sarcse.cli._embedding_lines` and by
`repr(float(v))`. The script prints one line per binade and exits 1 at the
first field that differs. A binade takes about 30 s on one core. The
formatter's numpy path covers 1e-4 <= |v| < 1e16, binades -14 to 53; the
values outside it go through `repr` on both sides.
"""

import argparse
import sys
import time

import numpy as np

from sarcse.cli import _embedding_lines

WIDTH = 512             # values per row
CHUNK = 1 << 18         # values per comparison


def first_difference(rows: np.ndarray) -> str | None:
    """The first field where the formatter and `repr` differ, if any."""
    got = _embedding_lines(rows)
    want = ["\t".join(map(repr, row.tolist())) + "\n" for row in rows]
    if got == want:
        return None
    for line_got, line_want in zip(got, want):
        for field_got, field_want in zip(line_got.split("\t"), line_want.split("\t")):
            if field_got != field_want:
                return f"formatter wrote {field_got.strip()!r}, repr {field_want.strip()!r}"
    return f"formatter wrote {len(got)} lines, repr {len(want)}"


def check_binade(b: int) -> str | None:
    low = (b + 127) << 23
    for sign in (0, 1 << 31):
        for start in range(low, low + (1 << 23), CHUNK):
            bits = np.arange(start, start + CHUNK, dtype=np.uint32) | np.uint32(sign)
            problem = first_difference(bits.view(np.float32).reshape(-1, WIDTH))
            if problem:
                return problem
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("binades", nargs="+", type=int, metavar="BINADE",
                        help="exponent b of the binade [2**b, 2**(b+1)), -126..127")
    args = parser.parse_args()
    for b in args.binades:
        if not -126 <= b <= 127:
            parser.error(f"binade {b}: float32 normal binades are -126..127")
    for b in args.binades:
        t0 = time.perf_counter()
        problem = check_binade(b)
        if problem:
            print(f"binade 2^{b}: MISMATCH: {problem}")
            return 1
        print(f"binade 2^{b}: {1 << 24} values byte-equal to repr ({time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
