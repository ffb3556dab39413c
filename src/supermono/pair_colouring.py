"""The seven-component pair colouring: three digit-position residues, the
leading three-digit window, and three parity bits (jumps, intervals, common
fragments), assembled per stage for ablation experiments. One jump count
gives c4 and c6 = c4 + t (mod 2), t the top-run bit (see PairColour).

A colour is one int, its code: the stage's components packed by a mixed
radix, c0 first. Stage1 packs c0..c3 into 0..107, stage2 adds c4 and c5
(0..431) and full adds c6 (0..863). Two pairs share a colour of one stage
exactly when their codes are equal. PairColour.decode gives the named
components of a code, for display."""

from __future__ import annotations

from typing import NamedTuple

from . import bits

STAGE1 = "stage1"
STAGE2 = "stage2"
FULL = "full"
STAGES = (STAGE1, STAGE2, FULL)

WINDOWS = ("001", "011", "101", "111")

# the number of codes of each stage: 3 * 3 * 3 * 4, then times 2 per parity
CODE_COUNTS = {STAGE1: 108, STAGE2: 432, FULL: 864}


class PairColour(NamedTuple):
    """The named components of a colour code, for display; components
    outside the stage are None and excluded from the key.

    c0, c1: last and first digit position of b - a, mod 3. c2: last digit
    position of a, mod 3 (the smaller element, not the difference). c3:
    leading three-digit window of b - a. c4: jump-count parity. c5: interval
    parity of b - a. c6: common-fragment parity. Every maximal agreement run
    of a and b holding a shared 1 but the topmost meets a 2-to-1 jump just
    above, so the count is the jumps plus t = bits.top_run_shared(a, b).
    """

    c0: int
    c1: int
    c2: int
    c3: str
    c4: int | None
    c5: int | None
    c6: int | None
    stage: str

    @classmethod
    def decode(cls, code: int, stage: str = FULL) -> PairColour:
        """The components of a colour code of the given stage."""
        if stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")
        if not 0 <= code < CODE_COUNTS[stage]:
            raise ValueError(f"{stage} colour codes lie in 0.."
                             f"{CODE_COUNTS[stage] - 1}, got {code}")
        c4 = c5 = c6 = None
        if stage == FULL:
            code, c6 = divmod(code, 2)
        if stage != STAGE1:
            code, c5 = divmod(code, 2)
            code, c4 = divmod(code, 2)
        code, window = divmod(code, 4)
        code, c2 = divmod(code, 3)
        c0, c1 = divmod(code, 3)
        return cls(c0, c1, c2, WINDOWS[window], c4, c5, c6, stage)

    def key(self) -> str:
        """Serialisation 'c0c1c2-c3-c4c5c6' with absent components omitted."""
        c0, c1, c2, c3, c4, c5, c6, stage = self
        if stage == FULL:
            return f"{c0}{c1}{c2}-{c3}-{c4}{c5}{c6}"
        if stage == STAGE2:
            return f"{c0}{c1}{c2}-{c3}-{c4}{c5}"
        return f"{c0}{c1}{c2}-{c3}"


def colour_pair(a: int, b: int, stage: str = FULL) -> int:
    """Colour code of the pair (a, b) under the requested stage. Requires
    a < b."""
    if stage not in STAGES:
        raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")
    if a < 1:
        raise ValueError(f"a must be a natural >= 1, got {a}")
    if a >= b:
        raise ValueError(f"pair must satisfy a < b, got a={a}, b={b}")
    d = b - a
    first, last = bits.digit_bounds(d)
    # the digit at first is 1, so the window (d >> first) & 7 is odd and
    # its index in WINDOWS is the window shifted right once
    code = ((last % 3 * 3 + first % 3) * 3 + bits.last_digit(a) % 3) * 4 \
        + ((d >> first & 7) >> 1)
    if stage == STAGE1:
        return code
    jumps = bits.jumps(a, b)
    code = code * 4 + (jumps & 1) * 2 + (bits.intervals(d) & 1)
    if stage == STAGE2:
        return code
    return code * 2 + ((jumps + bits.top_run_shared(a, b)) & 1)
