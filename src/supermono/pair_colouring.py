"""The seven-component pair colouring: three digit-position residues, the
leading three-digit window, and three parity bits (jumps, intervals, common
fragments), assembled per stage for ablation experiments. One jump count
gives c4 and c6 = c4 + t (mod 2), t the top-run bit (see PairColour).

A colour is a tuple record (a NamedTuple): immutable, hashable, and equal
to another colour exactly when all eight fields, the stage included, are
equal."""

from __future__ import annotations

from typing import NamedTuple

from . import bits

STAGE1 = "stage1"
STAGE2 = "stage2"
FULL = "full"
STAGES = (STAGE1, STAGE2, FULL)

WINDOWS = ("001", "011", "101", "111")


class PairColour(NamedTuple):
    """Colour of a pair (a, b) with a < b; components outside the stage are
    None and excluded from equality-bearing serialisations.

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

    def key(self) -> str:
        """Serialisation 'c0c1c2-c3-c4c5c6' with absent components omitted."""
        c0, c1, c2, c3, c4, c5, c6, stage = self
        if stage == FULL:
            return f"{c0}{c1}{c2}-{c3}-{c4}{c5}{c6}"
        if stage == STAGE2:
            return f"{c0}{c1}{c2}-{c3}-{c4}{c5}"
        return f"{c0}{c1}{c2}-{c3}"

    def ordinal(self) -> int:
        """Mixed-radix encoding of a full colour into 0..863."""
        if self.stage != FULL:
            raise ValueError(f"ordinal needs a full colour, got stage {self.stage}")
        value = self.c0
        value = value * 3 + self.c1
        value = value * 3 + self.c2
        value = value * 4 + WINDOWS.index(self.c3)
        value = value * 2 + self.c4
        value = value * 2 + self.c5
        value = value * 2 + self.c6
        return value


def colour_pair(a: int, b: int, stage: str = FULL) -> PairColour:
    """Colour of the pair (a, b) under the requested stage. Requires a < b."""
    if stage not in STAGES:
        raise ValueError(f"stage must be one of {STAGES}, got {stage!r}")
    if a < 1:
        raise ValueError(f"a must be a natural >= 1, got {a}")
    if a >= b:
        raise ValueError(f"pair must satisfy a < b, got a={a}, b={b}")
    d = b - a
    first, last = bits.digit_bounds(d)
    c0 = last % 3
    c1 = first % 3
    c2 = bits.last_digit(a) % 3
    # the digit at first is 1, so the window (d >> first) & 7 is odd
    c3 = WINDOWS[(d >> first & 7) >> 1]
    if stage == STAGE1:
        return PairColour(c0, c1, c2, c3, None, None, None, stage)
    jumps = bits.jumps(a, b)
    c6 = (jumps + bits.top_run_shared(a, b)) & 1 if stage == FULL else None
    return PairColour(c0, c1, c2, c3, jumps & 1, bits.intervals(d) & 1, c6,
                      stage)
