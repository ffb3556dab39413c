"""Naive string-scanning reference implementations.

These deliberately avoid the bit arithmetic used by supermono.bits: numbers
are expanded into least-significant-first digit strings, and every answer
is read off those strings by slicing, zipping and counting, with no
per-character helper. The carry region is read from the digits of the sum
itself against each column's plain sum. The split-tag referee tries every
cut with one first-occurrence search per half. They exist purely to
cross-check the fast implementations.
"""

from __future__ import annotations

from .bits import CarryRegion, Fragment


def _lsb_digits(n: int, width: int = 0) -> str:
    """Binary digits of n, least significant first, padded to width with '0'."""
    return bin(n)[2:][::-1].ljust(width, "0")


def _column_sums(a: int, b: int) -> str:
    """The plain digit sum of each column of a + b, least significant
    first, from position 0 to one above the longer number."""
    width = max(a.bit_length(), b.bit_length()) + 1
    return "".join("012"[(p == "1") + (q == "1")] for p, q in
                   zip(_lsb_digits(a, width), _lsb_digits(b, width)))


def _window(n: int, lo: int, hi: int) -> str:
    """Digits lo..hi of n, least significant first; positions below 0 read
    '0', and lo > hi is the empty window."""
    if lo > hi:
        return ""
    pad = max(-lo, 0)
    return ("0" * pad + _lsb_digits(n, hi + 1))[lo + pad:hi + pad + 1]


def support_oracle(n: int) -> list[int]:
    return [p for p, ch in enumerate(_lsb_digits(n)) if ch == "1"]


def jumps_oracle(a: int, b: int) -> int:
    """Count each '2' followed by a '1' in the labels of the joint support:
    its column sums, '2' where both digits are 1 and '1' where one is."""
    return _column_sums(a, b).replace("0", "").count("21")


def intervals_oracle(c: int) -> int:
    return len([run for run in bin(c)[2:].split("0") if run])


def carry_region_oracle(m: int, n: int) -> CarryRegion | None:
    """From the least column where both digits are 1 to the greatest column
    where the digit of m + n differs from the column's plain sum; None when
    no column has both digits 1."""
    columns = _column_sums(m, n)
    start = columns.find("2")
    if start < 0:
        return None
    total = _lsb_digits(m + n, len(columns))
    return CarryRegion(start, max(p for p, (digit, column)
                                  in enumerate(zip(total, columns))
                                  if digit != column))


def _scan_fragments(x: int, y: int, lo: int, hi: int, side: str) -> list[Fragment]:
    """Walk the maximal runs of window positions where x and y agree, and
    keep each run that holds a shared 1, trimmed to its highest one."""
    dx, dy = _window(x, lo, hi), _window(y, lo, hi)
    frags = []
    run_lo = 0
    for i in range(len(dx) + 1):
        if i < len(dx) and dx[i] == dy[i]:
            continue
        # x and y agree on the run, so each 1 of x there is a shared 1
        top = dx.rfind("1", run_lo, i)
        if top >= 0:
            frags.append(Fragment(dx[run_lo:top + 1][::-1],
                                  lo + run_lo, lo + top, side))
        run_lo = i + 1
    return frags


def fragments_oracle(lower: int, upper: int, side: str) -> list[Fragment]:
    """Window scan for pair fragments; enforces the same standing hypotheses
    as the fast implementation, by string inspection."""
    d_lo, d_up = _lsb_digits(lower), _lsb_digits(upper)
    f_lo, l_lo = d_lo.index("1"), len(d_lo) - 1
    f_up, l_up = d_up.index("1"), len(d_up) - 1
    if not f_lo < f_up:
        raise ValueError(
            f"fragment hypothesis f_lower < f_upper fails: {f_lo} >= {f_up}")
    if not l_lo < l_up:
        raise ValueError(
            f"fragment hypothesis l_lower < l_upper fails: {l_lo} >= {l_up}")
    if any(p == q == "1" for p, q in zip(d_lo, d_up)):
        raise ValueError("fragment hypothesis fails: supports not disjoint")
    if not l_lo >= f_up:
        raise ValueError(
            f"fragment hypothesis l_lower >= f_upper fails: {l_lo} < {f_up}")
    target = upper if side == "right" else lower
    return _scan_fragments(lower + upper, target, f_up, l_lo, side)


def common_fragment_count_oracle(a: int, b: int) -> int:
    hi = max(a.bit_length(), b.bit_length()) - 1
    return len(_scan_fragments(a, b, 0, hi, "common"))


def split_tag_oracle(x, u: str, scan_bound: int):
    """phi's split tag by trying every cut, left half shortest first: 0 when
    some split u = vw has v first occurring where u does and w first ending
    where u does, else 1. A word without a first occurrence gets
    first_occurrence's outcome, words.NOT_A_FACTOR or words.UNRESOLVED, as
    phi returns it; a half left unresolved also gives UNRESOLVED."""
    # Imported here: verify imports this module for the digit oracles and
    # has no use for the word layer.
    from .words import NOT_A_FACTOR, UNRESOLVED, first_occurrence

    occ = first_occurrence(x, u, scan_bound)
    if occ is NOT_A_FACTOR or occ is UNRESOLVED:
        return occ
    a, b = occ.start, occ.end
    tag = 1
    for cut in range(1, len(u)):
        occ_v = first_occurrence(x, u[:cut], scan_bound)
        occ_w = first_occurrence(x, u[cut:], scan_bound)
        if occ_v is UNRESOLVED or occ_w is UNRESOLVED:
            return UNRESOLVED
        if occ_v.start == a and occ_w.end == b:
            tag = 0
            break
    return tag
