"""Infinite word sources and factor machinery: letters, first occurrences,
factorisations, block subfactorisations, and the standardisation procedure
that either aligns first occurrences or certifies eventual periodicity.

Every source reads its letters from one cached text, grown on demand and
kept for the source's lifetime. Words are 1-indexed throughout.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple

# The most letters a search run may make a source materialise: a source
# keeps its text for its lifetime. A limit, not an option.
MAX_LETTERS = 1 << 20


class BeyondPrefixError(IndexError):
    """Raised when a position past the end of an explicit prefix is read."""


class WordSource:
    """Base for infinite words, read through one cached text per source.

    A subclass sets spec and its initial text, and gives its growth rule
    in _grow. prefix and letter_at grow the text until it covers the
    letters asked for, so reading position n materialises at least n
    letters, even for a periodic word; every letter_at caller in this
    package reads positions inside a scan it has already materialised.
    """

    spec: str
    _text: str

    def _grow(self, text: str, length: int) -> str:
        """text with at least one more letter, growing towards `length`
        letters, or text itself if none is known."""
        return text

    def _materialise(self, length: int) -> str:
        """The whole cached text, grown to at least `length` letters where
        the word has them; it may be longer and is not copied."""
        while len(self._text) < length:
            longer = self._grow(self._text, length)
            if longer is self._text:
                break
            self._text = longer
        return self._text

    def prefix(self, length: int) -> str:
        """First `length` letters; may be shorter for explicit-prefix sources."""
        return self._materialise(length)[:length]

    def letter_at(self, n: int) -> str:
        _check_position(n)
        text = self._materialise(n)
        if n > len(text):
            raise BeyondPrefixError(
                f"position {n} is beyond the explicit prefix of length {len(text)}")
        return text[n - 1]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec!r})"


def _check_position(n: int) -> None:
    if n < 1:
        raise ValueError(f"positions are 1-based, got {n}")


def _check_letters(word: str, what: str) -> None:
    if not word:
        raise ValueError(f"{what} must be nonempty")


class EventuallyPeriodic(WordSource):
    """A finite prefix p followed by uuu...; each growth step doubles the
    periodic part of the text."""

    def __init__(self, preperiod: str, period_word: str):
        _check_letters(period_word, "period word")
        self.preperiod = preperiod
        self.period = len(period_word)
        self.spec = f"evper:{preperiod}|{period_word}"
        self._text = preperiod + period_word

    def _grow(self, text: str, _length: int) -> str:
        return text + text[len(self.preperiod):]


class Periodic(EventuallyPeriodic):
    """The word uuu... for a finite nonempty u: an empty preperiod."""

    def __init__(self, period_word: str):
        super().__init__("", period_word)
        self.spec = f"periodic:{period_word}"


class Morphic(WordSource):
    """Fixed point x of a prolongable morphism σ. The text is σ(x[:i]) for
    the i letters expanded so far, starting from σ(seed); each growth step
    appends the images of the next letters until the text reaches the
    length asked for, so it overshoots by less than one image.

    The seed's image must start with the seed and be longer than it, every
    letter reachable must have a nonempty image.
    """

    def __init__(self, rules: dict[str, str], seed: str):
        if len(seed) != 1:
            raise ValueError(f"seed must be a single letter, got {seed!r}")
        if seed not in rules:
            raise ValueError(f"seed {seed!r} has no rule")
        for letter, image in rules.items():
            if len(letter) != 1:
                raise ValueError(f"rule keys must be single letters, got {letter!r}")
            if not image:
                raise ValueError(f"rule for {letter!r} has an empty image")
            for ch in image:
                if ch not in rules:
                    raise ValueError(f"letter {ch!r} appears in an image but has no rule")
        if not rules[seed].startswith(seed) or len(rules[seed]) < 2:
            raise ValueError(
                f"morphism not prolongable: image of {seed!r} must start with it "
                f"and be longer")
        self.rules = dict(rules)
        self.seed = seed
        rule_text = ",".join(f"{k}->{v}" for k, v in rules.items())
        self.spec = f"morphic:{rule_text}|{seed}"
        self._text = self.rules[seed]
        self._expanded = 1

    def _grow(self, text: str, length: int) -> str:
        images = []
        size = len(text)
        for letter in text[self._expanded:]:
            if size >= length:
                break
            image = self.rules[letter]
            images.append(image)
            size += len(image)
        self._expanded += len(images)
        return text + "".join(images)


class ExplicitPrefix(WordSource):
    """A known finite prefix of an otherwise unknown word; it never grows."""

    def __init__(self, text: str):
        _check_letters(text, "prefix")
        self.spec = f"prefix:{text}"
        self._text = text


def parse_word_spec(text: str) -> WordSource:
    """Parse the word mini-language: 'periodic:ab', 'evper:c|ab',
    'morphic:a->ab,b->a|a', 'prefix:abaab'."""
    kind, sep, payload = text.partition(":")
    if not sep:
        raise ValueError(f"word spec needs 'kind:payload', got {text!r}")
    if kind == "periodic":
        return Periodic(payload)
    if kind == "evper":
        preperiod, sep, period_word = payload.partition("|")
        if not sep:
            raise ValueError(f"evper payload needs 'prefix|period', got {payload!r}")
        return EventuallyPeriodic(preperiod, period_word)
    if kind == "morphic":
        rule_text, sep, seed = payload.partition("|")
        if not sep:
            raise ValueError(f"morphic payload needs 'rules|seed', got {payload!r}")
        rules = {}
        for piece in rule_text.split(","):
            letter, arrow, image = piece.partition("->")
            if not arrow:
                raise ValueError(f"morphic rule needs 'letter->image', got {piece!r}")
            if letter in rules:
                raise ValueError(f"duplicate rule for {letter!r}")
            rules[letter] = image
        return Morphic(rules, seed)
    if kind == "prefix":
        return ExplicitPrefix(payload)
    raise ValueError(
        f"unknown word kind {kind!r}; expected periodic, evper, morphic or prefix")


class Occurrence(NamedTuple):
    """First occurrence of a factor: start position and the position just
    after it (end - start is the factor length)."""

    start: int
    end: int


class _NotAFactor:
    def __repr__(self) -> str:
        return "NOT_A_FACTOR"


class _Unresolved:
    def __repr__(self) -> str:
        return "UNRESOLVED"


NOT_A_FACTOR = _NotAFactor()
UNRESOLVED = _Unresolved()


def decision_bound(x: WordSource, u: str) -> int | None:
    """Scan depth after which non-occurrence is certain, for sources with a
    known periodic structure; None when no finite certificate exists."""
    if isinstance(x, EventuallyPeriodic):
        return len(x.preperiod) + 2 * len(u) + x.period
    return None


def first_occurrence(x: WordSource, u: str, scan_bound: int):
    """Minimal start of u in x within scan_bound letters.

    Returns an Occurrence, NOT_A_FACTOR (periodic-structure sources only,
    once the scan covers the decision bound), or UNRESOLVED. Explicit-prefix
    sources never certify non-occurrence. A u longer than scan_bound cannot
    be found within it and covers no decision bound, so it is UNRESOLVED.
    """
    _check_letters(u, "factor")
    at = x._materialise(scan_bound).find(u, 0, scan_bound)
    if at >= 0:
        return Occurrence(at + 1, at + 1 + len(u))
    certain_by = decision_bound(x, u)
    if certain_by is not None and scan_bound - len(u) + 1 >= certain_by:
        return NOT_A_FACTOR
    return UNRESOLVED


def has_aligned_split(x: WordSource, u: str, occ: Occurrence) -> bool:
    """Whether some split u = vw into nonempty halves has v first occurring
    at occ.start and w first ending at occ.end, given u's first occurrence
    occ.

    Both halves occur inside occ, so their first occurrences always resolve.
    "u[:c] first occurs at occ.start" holds for every cut c from a least one
    on: an earlier occurrence of u[:c + 1] is also one of u[:c]. "u[c:]
    first ends at occ.end" holds for every cut up to a greatest one, by the
    same argument. So an aligned split exists exactly when the least cut of
    the first kind is also of the second; bisection finds it with
    O(log |u|) searches of the text before occ.

    This is the per-word path, which factor_colouring.phi takes. The
    prefixes of one word read together, as a search's colour chains read
    them, use PrefixOccurrences instead: its table of first starts gives
    the least cut without a search.
    """
    text = x._materialise(occ.end - 1)
    # A k-letter match that ends by index before + k starts before occ.
    before = occ.start - 2
    lo, hi = 1, len(u)
    while lo < hi:
        cut = (lo + hi) // 2
        if text.find(u[:cut], 0, before + cut) < 0:
            hi = cut
        else:
            lo = cut + 1
    return lo < len(u) and text.find(u[lo:], 0, before + len(u)) < 0


class PrefixOccurrences:
    """First occurrences in x, within scan_bound letters, of the prefixes
    y[:n] of one word y, 1 <= n <= len(y), read in any order.

    A longer prefix never first occurs earlier than a shorter one, so the
    table of 0-based first starts F(0) = 0, F(1), ... is non-decreasing.
    It is extended on demand: F(c) is F(c - 1) when the letter after that
    occurrence is y's next letter, and otherwise the first match of y[:c]
    after it. Once a prefix is not found within the scan, no longer one is.
    """

    def __init__(self, x: WordSource, y: str, scan_bound: int):
        self._text = x._materialise(scan_bound)
        self._limit = min(scan_bound, len(self._text))
        self._y = y
        self._starts = [0]
        self._unfound = len(y) + 1  # the least length not found, once met

    def start(self, n: int) -> int | None:
        """The 1-based start of y[:n]'s first occurrence, which ends just
        before start + n, or None when it is not found within the scan."""
        starts, text, y = self._starts, self._text, self._y
        while len(starts) <= n < self._unfound:
            c, at = len(starts), starts[-1]
            if at + c > self._limit or text[at + c - 1] != y[c - 1]:
                at = text.find(y[:c], at + 1, self._limit)
                if at < 0:
                    self._unfound = c
                    break
            starts.append(at)
        if n >= self._unfound:
            return None
        return starts[n] + 1

    def has_aligned_split(self, n: int) -> bool:
        """has_aligned_split for y[:n], once start(n) has found it: the
        least cut c whose F(c) is F(n) comes from the table, and one search
        of the text before the occurrence decides whether y[c:n] first ends
        with it."""
        at = self._starts[n]
        cut = bisect.bisect_left(self._starts, at, 1, n)
        return cut < n and self._text.find(self._y[cut:n], 0, at - 1 + n) < 0


@dataclass(frozen=True)
class Factorisation:
    """Finite list of factors writing out x from suffix_start onwards."""

    factors: tuple[str, ...]
    suffix_start: int = 1

    def __post_init__(self):
        if not self.factors:
            raise ValueError("factorisation needs at least one factor")
        for u in self.factors:
            _check_letters(u, "factor")
        _check_position(self.suffix_start)

    def standard_positions(self) -> list[int]:
        """Start position of each factor inside x."""
        positions = []
        at = self.suffix_start
        for u in self.factors:
            positions.append(at)
            at += len(u)
        return positions


def check_factorisation(x: WordSource, f: Factorisation) -> None:
    """Verify f against one prefix of x; raise naming the first mismatch."""
    start = f.suffix_start
    written = "".join(f.factors)
    text = x.prefix(start + len(written) - 1)[start - 1:]
    if text == written:
        return
    i = next(i for i, letter in enumerate(written)
             if i >= len(text) or text[i] != letter)
    if i >= len(text):
        raise ValueError(
            f"factorisation extends beyond the available prefix at "
            f"position {start + i}")
    raise ValueError(
        f"factorisation mismatch at position {start + i}: expected "
        f"{written[i]!r}, word has {text[i]!r}")


def block_subfactorisation(f: Factorisation, cuts) -> Factorisation:
    """Concatenate consecutive runs of factors per the 1-based ascending
    cuts; factors beyond the last cut are dropped; suffix_start unchanged."""
    if not cuts:
        raise ValueError("cuts must be nonempty")
    previous = 0
    grouped = []
    for cut in cuts:
        if cut <= previous:
            raise ValueError(f"cuts must be strictly ascending, got {tuple(cuts)}")
        if cut > len(f.factors):
            raise ValueError(f"cut {cut} exceeds factor count {len(f.factors)}")
        grouped.append("".join(f.factors[previous:cut]))
        previous = cut
    return Factorisation(tuple(grouped), f.suffix_start)


@dataclass(frozen=True)
class Standardised:
    """Every factor of the result first-occurs at its standard position."""

    factorisation: Factorisation
    merges: int


@dataclass(frozen=True)
class PeriodicityWitness:
    """Evidence that the suffixes at i and j agree: letters at i+k and j+k
    matched for all k < depth."""

    i: int
    j: int
    depth: int


@dataclass(frozen=True)
class BoundExhausted:
    """Standardisation gave up at the 1-based group index, after the recorded
    number of merges."""

    index: int
    merges: int
    reason: str


def standardise(x: WordSource, f: Factorisation, scan_bound: int,
                merge_bound: int):
    """Align every factor's first occurrence with its standard position by
    merging forward, or certify eventual periodicity.

    Returns Standardised, PeriodicityWitness or BoundExhausted, under any
    scan_bound: a group whose first occurrence the scan leaves unresolved,
    such as a merge grown longer than the scan, is BoundExhausted. A
    factor first occurring before its standard position is merged with its
    successor; when the last group still occurs early, the two suffixes are
    compared up to scan_bound as two slices of one prefix: agreement yields
    a PeriodicityWitness, a mismatch folds the group into the previous
    factor (extension keeps that factor's first occurrence at its standard
    position, since extending only moves first occurrences later).
    """
    check_factorisation(x, f)
    factors = list(f.factors)
    merges = 0
    i = 0
    standard = f.suffix_start
    while i < len(factors):
        u = factors[i]
        occ = first_occurrence(x, u, scan_bound)
        if not isinstance(occ, Occurrence):
            return BoundExhausted(
                i + 1, merges,
                f"scan bound {scan_bound} cannot resolve the occurrence of a "
                f"length-{len(u)} factor standing at {standard}")
        if occ.start == standard:
            i += 1
            standard += len(u)
            continue
        if i + 1 < len(factors):
            if merges >= merge_bound:
                return BoundExhausted(i + 1, merges, "merge budget exhausted")
            factors[i] = u + factors[i + 1]
            del factors[i + 1]
            merges += 1
            continue
        text = x.prefix(scan_bound)
        depth = max(len(text) - standard + 1, 0)
        if text[occ.start - 1:occ.start - 1 + depth] == text[standard - 1:]:
            return PeriodicityWitness(occ.start, standard, depth)
        if i > 0:
            factors[i - 1] += u
            del factors[i]
            break
        return BoundExhausted(
            1, merges,
            "first group occurs early but the two suffixes disagree")
    return Standardised(Factorisation(tuple(factors), f.suffix_start), merges)


def check_periodicity_witness(x: WordSource, i: int, j: int, depth: int) -> bool:
    """True iff the letters at i+k and j+k agree for all 0 <= k < depth."""
    if not i < j:
        raise ValueError(f"witness needs i < j, got i={i}, j={j}")
    _check_position(i)
    return all(x.letter_at(i + k) == x.letter_at(j + k) for k in range(depth))
