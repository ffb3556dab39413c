"""Naive string-scanning reference implementations.

These deliberately avoid the bit arithmetic used by supermono.bits: numbers
are expanded into least-significant-first digit strings and every answer is
read off by scanning characters. The split-tag referee tries every cut with
one first-occurrence search per half. They exist purely to cross-check the
fast implementations.
"""

from __future__ import annotations

from .bits import CarryRegion, Fragment


def _lsb_digits(n: int, width: int = 0) -> str:
    """Binary digits of n, least significant first, padded to width with '0'."""
    text = bin(n)[2:][::-1]
    if len(text) < width:
        text += "0" * (width - len(text))
    return text


def _char(text: str, p: int) -> str:
    return text[p] if 0 <= p < len(text) else "0"


def support_oracle(n: int) -> list[int]:
    return [p for p, ch in enumerate(_lsb_digits(n)) if ch == "1"]


def jumps_oracle(a: int, b: int) -> int:
    width = max(a.bit_length(), b.bit_length())
    da, db = _lsb_digits(a, width), _lsb_digits(b, width)
    labels = []
    for p in range(width):
        ones = (da[p] == "1") + (db[p] == "1")
        if ones == 2:
            labels.append("2")
        elif ones == 1:
            labels.append("1")
    return sum(
        1 for i in range(len(labels) - 1) if labels[i] == "2" and labels[i + 1] == "1"
    )


def intervals_oracle(c: int) -> int:
    return len([run for run in bin(c)[2:].split("0") if run])


def carry_region_oracle(m: int, n: int) -> CarryRegion | None:
    """School addition column by column, recording where the result digit
    disagrees with the plain column sum."""
    width = max(m.bit_length(), n.bit_length()) + 1
    dm, dn = _lsb_digits(m, width), _lsb_digits(n, width)
    both = []
    disagree = []
    carry = 0
    for p in range(width):
        column = int(dm[p]) + int(dn[p])
        total = column + carry
        result_digit = total % 2
        carry = total // 2
        if int(dm[p]) == int(dn[p]) == 1:
            both.append(p)
        if result_digit != column:
            disagree.append(p)
    if not both:
        return None
    return CarryRegion(min(both), max(disagree))


def _scan_fragments(x: int, y: int, lo: int, hi: int, side: str) -> list[Fragment]:
    """Split the window into maximal agreement segments of x and y, then keep
    each segment that contains a both-1 position, trimmed to its highest one."""
    width = max(x.bit_length(), y.bit_length(), hi + 1)
    dx, dy = _lsb_digits(x, width), _lsb_digits(y, width)
    agreement = "".join(
        "A" if _char(dx, p) == _char(dy, p) else "." for p in range(lo, hi + 1)
    )
    frags = []
    cursor = 0
    for segment in agreement.split("."):
        if segment:
            seg_lo = lo + cursor
            seg_hi = seg_lo + len(segment) - 1
            top = None
            for p in range(seg_hi, seg_lo - 1, -1):
                if _char(dx, p) == "1" and _char(dy, p) == "1":
                    top = p
                    break
            if top is not None:
                text = "".join(_char(dx, p) for p in range(top, seg_lo - 1, -1))
                frags.append(Fragment(text, seg_lo, top, side))
        cursor += len(segment) + 1
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
    if any(_char(d_lo, p) == "1" and _char(d_up, p) == "1" for p in range(l_up + 1)):
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
    where u does, else 1. NOT_FACTOR and UNKNOWN as phi returns them."""
    # Imported here: verify imports this module for the digit oracles and
    # has no use for the word layer.
    from .factor_colouring import NOT_FACTOR, UNKNOWN
    from .words import NOT_A_FACTOR, UNRESOLVED, first_occurrence

    occ = first_occurrence(x, u, scan_bound)
    if occ is NOT_A_FACTOR:
        return NOT_FACTOR
    if occ is UNRESOLVED:
        return UNKNOWN
    a, b = occ.start, occ.end
    tag = 1
    for cut in range(1, len(u)):
        occ_v = first_occurrence(x, u[:cut], scan_bound)
        occ_w = first_occurrence(x, u[cut:], scan_bound)
        if occ_v is UNRESOLVED or occ_w is UNRESOLVED:
            return UNKNOWN
        if occ_v.start == a and occ_w.end == b:
            tag = 0
            break
    return tag
