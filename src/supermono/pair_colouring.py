"""The seven-component pair colouring: three digit-position residues, the
leading three-digit window, and three parity bits (jumps, intervals, common
fragments), assembled per stage for ablation experiments."""

from __future__ import annotations

from dataclasses import dataclass

from . import bits

STAGE1 = "stage1"
STAGE2 = "stage2"
FULL = "full"
STAGES = (STAGE1, STAGE2, FULL)

WINDOWS = ("001", "011", "101", "111")


@dataclass(frozen=True)
class PairColour:
    """Colour of a pair (a, b) with a < b; components outside the stage are
    None and excluded from equality-bearing serialisations.

    c0, c1: last and first digit position of b - a, mod 3. c2: last digit
    position of a, mod 3 (the smaller element, not the difference). c3:
    leading three-digit window of b - a. c4: jump-count parity. c5: interval
    parity of b - a. c6: common-fragment parity.
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
        head = f"{self.c0}{self.c1}{self.c2}-{self.c3}"
        tail = "".join(
            str(c) for c in (self.c4, self.c5, self.c6) if c is not None
        )
        return f"{head}-{tail}" if tail else head

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
    c0 = bits.last_digit(d) % 3
    c1 = bits.first_digit(d) % 3
    c2 = bits.last_digit(a) % 3
    c3 = bits.first_three_digits(d)
    c4 = bits.jumps(a, b) % 2 if stage != STAGE1 else None
    c5 = bits.intervals(d) % 2 if stage != STAGE1 else None
    c6 = bits.common_fragment_count(a, b) % 2 if stage == FULL else None
    return PairColour(c0, c1, c2, c3, c4, c5, c6, stage)


def refines(stage_coarse: str, stage_fine: str, p: tuple[int, int],
            q: tuple[int, int]) -> bool:
    """True when fine-stage colour equality of p and q implies coarse-stage
    equality, evaluated on the two given pairs."""
    fine_equal = colour_pair(*p, stage_fine) == colour_pair(*q, stage_fine)
    coarse_equal = colour_pair(*p, stage_coarse) == colour_pair(*q, stage_coarse)
    return coarse_equal or not fine_equal
