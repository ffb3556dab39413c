"""Word colouring induced by the pair colouring through first occurrences.

A finite word u occurring in the reference word x picks up the pair
(A, B) = (start, end) of its first occurrence. Its colour is the int
colour_pair(A, B) * 2 + tag (0..1727): the full pair colour code of
(A, B) and a tag, 0 when some two-part split u = vw reproduces A from v
and B from w, else 1. Splits with an empty half are not considered: an
empty half has no first occurrence to compare. A word without a code
gets one of the word layer's two outcome sentinels: NOT_FACTOR
(words.NOT_A_FACTOR) when it is certified absent, and UNKNOWN
(words.UNRESOLVED) when its first occurrence stays unresolved.
"""

from __future__ import annotations

from .pair_colouring import colour_pair
from .words import (
    NOT_A_FACTOR,
    UNRESOLVED,
    WordSource,
    first_occurrence,
    has_aligned_split,
)

NOT_FACTOR = NOT_A_FACTOR
UNKNOWN = UNRESOLVED


def phi(x: WordSource, u: str, scan_bound: int):
    """Colour u relative to x, scanning a prefix of length scan_bound.

    Returns colour_pair(A, B) * 2 + tag for u's first occurrence (A, B),
    or else first_occurrence's outcome itself: NOT_FACTOR when u is
    certified absent, UNKNOWN when u's first occurrence stays unresolved
    within the bound, as it does for every u longer than the bound. Once
    u's first occurrence is found, every split half occurs inside it, so
    the tag is always decided. Whether u[:c] first occurs at A only turns
    true as the cut c grows, and whether u[c:] first ends at B only turns
    false, so has_aligned_split decides the tag by bisection on the cut;
    oracles.split_tag_oracle tries every cut. prefix_colourer gives the
    same colours to the prefixes of one word read in order of length.
    """
    occ = first_occurrence(x, u, scan_bound)
    if occ is NOT_A_FACTOR or occ is UNRESOLVED:
        return occ
    tag = 0 if has_aligned_split(x, u, occ) else 1
    return colour_pair(occ.start, occ.end) * 2 + tag


def prefix_colourer(x: WordSource, y: str, scan_bound: int, memo=None,
                    first: int = 1):
    """Colour the prefixes of y relative to x: a callable key ->
    phi(x, y[:n], scan_bound), n = key - first + 1 <= len(y), read in any
    order. Given a memo dict, it answers a prefix the memo holds from it
    and files each prefix of at most scan_bound letters that it colours.

    The callable sends to one generator, whose locals hold the table, so
    a read is one frame. Read in order of length, y[:n] first starts where
    y[:n - 1] does when the letter after that occurrence is y's next, or
    else at the next match, and its least aligned cut is the least length
    that first starts there, so its tag takes one bounded search. A prefix
    not found within the scan, as none past scan_bound is, goes to phi,
    and so does an n at or below one already read."""
    reader = _read_prefixes(x, y, scan_bound, memo, first - 1)
    next(reader)
    return reader.send


def _read_prefixes(x: WordSource, y: str, scan_bound: int, memo, offset):
    text = x._materialise(scan_bound)
    limit = min(scan_bound, len(text))
    # The table reached y[:c], which first starts at the 0-based at (-1 if
    # not within the scan), as y[:cut] does and no shorter prefix.
    c = at = 0
    cut = 1
    colour = None
    while True:
        n = (yield colour) - offset
        u = y[:n]
        if memo is not None and (colour := memo.get(u)) is not None:
            continue
        while c < n and at >= 0:
            c += 1
            if at + c > limit or text[at + c - 1] != y[c - 1]:
                at = text.find(y[:c], at + 1, limit)
                cut = c
        if c == n and at >= 0:
            # tag 0 when y[cut:n] first ends with y[:n], not before it
            tag = cut == n or text.find(y[cut:n], 0, at - 1 + n) >= 0
            colour = colour_pair(at + 1, at + 1 + n) * 2 + tag
        else:
            colour = phi(x, u, scan_bound)
        if memo is not None and n <= scan_bound:
            memo[u] = colour


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
