"""Word colouring induced by the pair colouring through first occurrences.

A finite word u occurring in the reference word x picks up the pair
(A, B) = (start, end) of its first occurrence. Its colour is the full
pair colour code of (A, B) plus a tag recording whether some two-part
split u = vw reproduces A from v and B from w. Splits with an empty half
are not considered: an empty half has no first occurrence to compare.
"""

from __future__ import annotations

from typing import NamedTuple

from .pair_colouring import FULL, PairColour, colour_pair
from .words import (
    NOT_A_FACTOR,
    UNRESOLVED,
    PrefixOccurrences,
    WordSource,
    first_occurrence,
    has_aligned_split,
)


class _NotFactorColour:
    def __repr__(self) -> str:
        return "NOT_FACTOR"

    def serialise(self) -> str:
        return "2"


class _UnknownColour:
    def __repr__(self) -> str:
        return "UNKNOWN"


NOT_FACTOR = _NotFactorColour()
UNKNOWN = _UnknownColour()


class FactorColour(NamedTuple):
    """Colour of a factor: the full pair colour code of its first-occurrence
    span (colour_pair's int) and the split tag (0 when some split u = vw
    has the start of v's first occurrence equal to A and the end of w's
    equal to B, else 1). serialise() writes the code's key and the tag."""

    theta: int
    tag: int

    def serialise(self) -> str:
        return f"({PairColour.decode(self.theta, FULL).key()},{self.tag})"


def phi(x: WordSource, u: str, scan_bound: int):
    """Colour u relative to x, scanning a prefix of length scan_bound.

    Returns NOT_FACTOR when u is certified absent, UNKNOWN when u's own
    first occurrence stays unresolved within the bound, and a FactorColour
    otherwise. Once u's first occurrence is found, every split half occurs
    inside it, so the tag is always decided. Whether u[:c] first occurs at
    A only turns true as the cut c grows, and whether u[c:] first ends at B
    only turns false, so has_aligned_split decides the tag by bisection on
    the cut; oracles.split_tag_oracle tries every cut. prefix_colourer
    gives the same colours to the prefixes of one word from one table.
    """
    occ = first_occurrence(x, u, scan_bound)
    if occ is NOT_A_FACTOR:
        return NOT_FACTOR
    if occ is UNRESOLVED:
        return UNKNOWN
    tag = 0 if has_aligned_split(x, u, occ) else 1
    return FactorColour(colour_pair(occ.start, occ.end), tag)


def prefix_colourer(x: WordSource, y: str, scan_bound: int):
    """Colour the prefixes of y relative to x: a callable n ->
    phi(x, y[:n], scan_bound) for 1 <= n <= len(y), read in any order,
    and UNKNOWN, unscanned, for n past scan_bound.

    One PrefixOccurrences table gives every prefix found within the scan
    its first occurrence and its least aligned cut, so its tag takes one
    bounded search. A prefix not found within the scan goes to phi, whose
    first_occurrence tells NOT_FACTOR from UNKNOWN by its length.
    """
    table = PrefixOccurrences(x, y, scan_bound)

    def colour(n: int):
        if n > scan_bound:
            return UNKNOWN
        start = table.start(n)
        if start is None:
            return phi(x, y[:n], scan_bound)
        tag = 0 if table.has_aligned_split(n) else 1
        return FactorColour(colour_pair(start, start + n), tag)

    return colour


def altsum_identity_check(ms, ks) -> tuple[int, int]:
    """Alternating-sum bridge between word endpoints and number pairs.

    ms lists the endpoint positions m_1 < m_2 < ... (1-indexed); ks picks
    indices k_1 < ... < k_t with k_1 >= 2. Returns
    (m_{k_1-1} - m_{k_1} + m_{k_2-1} - ... + m_{k_t-1}, m_{k_t}).
    The result satisfies 1 <= left < right whenever the inputs do; that is
    a consequence of monotonicity, asserted rather than validated.
    """
    ms = tuple(ms)
    ks = tuple(ks)
    if not ks:
        raise ValueError("ks must be nonempty")
    if ms and ms[0] < 1:
        raise ValueError("positions in ms must be positive")
    if any(m2 <= m1 for m1, m2 in zip(ms, ms[1:])):
        raise ValueError("ms must be strictly increasing")
    if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])):
        raise ValueError("ks must be strictly increasing")
    if ks[0] < 2:
        raise ValueError("k_1 must be at least 2")
    if ks[-1] > len(ms):
        raise ValueError("k_t exceeds the number of positions")
    left = sum(ms[k - 2] for k in ks) - sum(ms[k - 1] for k in ks[:-1])
    right = ms[ks[-1] - 1]
    assert 1 <= left < right
    return left, right
