"""Compare a `qhmeans properties` report with its pinned text.

A report's `inputs:` lines print the drawn inputs of a violating trial to 17
significant digits.  Those digits come from the BLAS kernel (its QR), so on
those lines the float tokens compare at REL_TOL relative.  Every other
character, on every line, compares exactly.
"""

from __future__ import annotations

import re

REL_TOL = 1e-12
# A decimal number; re.split with the capturing group keeps it between the
# text around it.
_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")


def _lines_match(pinned: str, actual: str) -> bool:
    if pinned == actual:
        return True
    if not pinned.lstrip().startswith("inputs:"):
        return False
    p, a = _NUMBER.split(pinned), _NUMBER.split(actual)
    if len(p) != len(a):
        return False
    # split puts the text pieces at even indices and the numbers at odd ones
    if p[0::2] != a[0::2]:
        return False
    return all(
        abs(float(x) - float(y)) <= REL_TOL * max(abs(float(x)), abs(float(y)))
        for x, y in zip(p[1::2], a[1::2])
    )


def mismatches(pinned: str, actual: str) -> list:
    """(line number, pinned line, actual line) for every line that differs;
    a missing line is None."""
    p = pinned.splitlines(keepends=True)
    a = actual.splitlines(keepends=True)
    p += [None] * (len(a) - len(p))
    a += [None] * (len(p) - len(a))
    return [
        (k + 1, x, y)
        for k, (x, y) in enumerate(zip(p, a))
        if x is None or y is None or not _lines_match(x, y)
    ]

