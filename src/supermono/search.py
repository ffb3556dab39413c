"""Bounded deterministic searches for the monochromatic families behind the
reductions: alternating-sum pairs, super-monochromatic factorisations,
finite Hindman sums, the all-plus pair family, and coefficient-pattern sums.

Every search is an exhaustive depth-first enumeration within its stated
bounds, extending by the smallest candidate first, and all five run on one
engine, _dfs. Each search describes a state's level to the engine: its
candidates' keys, how to make a candidate and, in the alternating-sum,
super-monochromatic and Hindman searches, the lazy colour chain,
_colour_chain, of their first obligations: one chain per first left, per
suffix start and, since the colour of u^s depends on s alone, per Hindman
run. The engine alone picks how to read a level: one candidate at a time,
or through the chain, which rejects whole blocks of candidates and, at the
level that fixes the path colour, counts a candidate whose child would
reject all of its own candidates as one childless block, with no child
built. Every count and every coloured object is what checking one
candidate at a time gives. The alternating-sum search carries its
left-hand sides in the search state; constraints_for builds each family
from scratch for verify_altsum_witness. Under theta, a chain reads a
pair through the run's pair memo straight into colour_pair, and the
words the super-monochromatic and Hindman chains read are prefixes of
one word (a suffix, or u^ω), which the word colouring's prefixes entry
colours in order from one table per word, in one frame per read; every
other word goes through phi. supermono_search, the one search that meets
a word through both entries, keeps the run's word memo. Reports are
deterministic functions of the search parameters alone, and every search
runs in the calling thread. altsum_search and supermono_search still
accept a jobs argument and ignore it, because the benchmark workloads
pass it.

Each search checks its own arguments, colouring role included, before it
explores any node, and raises ArgumentError for one it rejects; that
includes a bound that would make a word source materialise more than
words.MAX_LETTERS letters, a family of more than MAX_TERMS terms, and a
q5 length whose coefficient pattern table would hold more than
Q5_MAX_COEFFICIENTS coefficients. Each search has a witness verifier that
checks the role too, recolours the witness's whole family from scratch
and applies one rule, _at_most_one_colour, to it.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

from . import bits
from .factor_colouring import UNKNOWN, phi, prefix_colourer
from .pair_colouring import STAGES, colour_pair
from .words import MAX_LETTERS, Factorisation, WordSource, check_factorisation

X_ALTERNATING = "x_alternating"
Y_SUBSET = "y_subset"
Y_BLOCK = "y_block"
FORMS = (X_ALTERNATING, Y_SUBSET, Y_BLOCK)

# Each q5 variant's coefficient choices: (a_1 choices, a_k choices, interior
# choices).
_Q5_COEFFICIENTS = {
    "plain": ((1,), (1,), (1, 2)),
    "a1free": ((1, 2), (1,), (1, 2)),
    "akfree": ((1,), (1, 2), (1, 2)),
    "with_gaps": ((1,), (1,), (0, 1, 2)),
}
Q5_VARIANTS = tuple(_Q5_COEFFICIENTS)

# The most coefficients q5_search's pattern table may hold over every prefix
# length; the table is built before the first node, at about 11 bytes per
# coefficient, so this caps it near 46 MB.
Q5_MAX_COEFFICIENTS = 1 << 22

# The most terms a search family may have: n for supermono, hindman and
# plus, L for altsum. Every search state holds all the subset combinations
# of its terms (subset words, subset sums, or altsum's lefts), so a run's
# memory doubles with each term; plus under const peaks near 190 MB at 20.
MAX_TERMS = 20

LIFT_MODES = ("left", "right", "diff", "sum", "both")

# The occurrence scan horizon of a word colouring when the caller names none.
DEFAULT_SCAN_BOUND = 4096

_NUMBER_FAMILIES = ("const", "valmod", "fpmod", "base-lsnz", "gaps", "dbl")
_WORD_FAMILIES = ("const", "lenmod", "theta")
# The families that colour each kind of object a search colours.
ROLE_FAMILIES = {
    "number": _NUMBER_FAMILIES,
    "pair": ("theta",) + _NUMBER_FAMILIES,
    "word": _WORD_FAMILIES,
}


class ArgumentError(ValueError):
    """A search argument or colouring the search rejects: a mistake of
    the caller, raised before any node is explored."""


# ---------------------------------------------------------------------------
# Colouring specifications


@dataclass(frozen=True)
class Colouring:
    """Parsed colouring specification.

    family is the colouring family id; args its numeric parameters; lift
    the pair-lift mode for number families used on pairs (None for
    pair-native and word families). spec echoes the original text.
    """

    spec: str
    family: str
    args: tuple
    lift: str | None


def _int_arg(family: str, name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"{family} {name} must be an integer, got {text!r}") from None


def parse_colouring(text: str) -> Colouring:
    """Parse the colouring mini-language.

    Families: "const", "theta:stage1|stage2|full", "lenmod:k",
    "base-lsnz:b", "fpmod:k", "gaps:m,cap", "valmod:k", "dbl". A number
    family may carry a pair-lift suffix "@left|@right|@diff|@sum|@both"
    (default both) controlling how it colours pairs.
    """
    body, sep, lift = text.partition("@")
    if sep and lift not in LIFT_MODES:
        raise ValueError(f"unknown pair-lift mode {lift!r}")
    family, colon, arg = body.partition(":")
    args: tuple
    if family in ("const", "dbl"):
        if colon:
            raise ValueError(f"{family} takes no argument, got {arg!r}")
        args = ()
    elif family == "theta":
        stage = arg if colon else "full"
        if stage not in STAGES:
            raise ValueError(f"unknown theta stage {stage!r}")
        args = (stage,)
    elif family in ("lenmod", "valmod", "fpmod"):
        k = _int_arg(family, "modulus", arg)
        if k < 1:
            raise ValueError(f"{family} modulus must be positive")
        args = (k,)
    elif family == "base-lsnz":
        b = _int_arg(family, "base", arg)
        if b < 2:
            raise ValueError("base-lsnz base must be at least 2")
        args = (b,)
    elif family == "gaps":
        m_text, comma, cap_text = arg.partition(",")
        m = _int_arg(family, "modulus", m_text)
        cap = _int_arg(family, "cap", cap_text) if comma else 3
        if m < 1 or cap < 1:
            raise ValueError("gaps parameters must be positive")
        args = (m, cap)
    else:
        raise ValueError(f"unknown colouring family {family!r}")
    if sep and family not in _NUMBER_FAMILIES:
        raise ValueError(f"{family} is not a number family; no pair lift")
    lift_mode = lift if sep else ("both" if family in _NUMBER_FAMILIES else None)
    return Colouring(text, family, args, lift_mode)


def _check_role(col: Colouring, role: str) -> None:
    """Reject a colouring whose family does not colour the role's objects
    ("number", "pair" or "word"), and a pair lift outside the pair role."""
    families = ROLE_FAMILIES[role]
    if col.family not in families:
        raise ArgumentError(
            f"{col.family} does not colour {role}s; use one of "
            f"{', '.join(families)}")
    if role != "pair" and "@" in col.spec:
        raise ArgumentError(
            f"{col.spec}: a pair lift applies only when a number family "
            f"colours pairs, not {role}s")


def colour_number(col: Colouring, n: int):
    """Colour a single natural number under a number family."""
    if n < 1:
        raise ValueError("number colourings are defined on naturals >= 1")
    if col.family == "const":
        return 0
    if col.family == "valmod":
        return n % col.args[0]
    if col.family == "fpmod":
        return bits.first_digit(n) % col.args[0]
    if col.family == "base-lsnz":
        b = col.args[0]
        while n % b == 0:
            n //= b
        return n % b
    if col.family == "gaps":
        m, cap = col.args
        counts = [0] * m
        positions = bits.support(n)
        for p, q in zip(positions, positions[1:]):
            r = (q - p) % m
            counts[r] = min(counts[r] + 1, cap)
        return tuple(counts)
    if col.family == "dbl":
        last = bits.last_digit(n)
        return (last % 2, bits.digit_string(n, last - 2, last))
    raise ValueError(f"{col.family} does not colour single numbers")


def colour_pair_value(col: Colouring, a: int, b: int):
    """Colour an ordered pair a < b; under theta, the stage's colour code."""
    if not 1 <= a < b:
        raise ValueError("pair colourings need 1 <= a < b")
    if col.family == "theta":
        return colour_pair(a, b, col.args[0])
    if col.family == "const":
        return 0
    if col.family not in _NUMBER_FAMILIES:
        raise ValueError(f"{col.family} does not colour pairs")
    if col.lift == "left":
        return colour_number(col, a)
    if col.lift == "right":
        return colour_number(col, b)
    if col.lift == "diff":
        return colour_number(col, b - a)
    if col.lift == "sum":
        return colour_number(col, a + b)
    return (colour_number(col, a), colour_number(col, b))


def pair_colour_fn(col: Colouring):
    """Build a memoised pair-colouring callable (a, b) -> colour value.

    A search builds one per run, so the memo never outlives the run; the
    witness verifiers call colour_pair_value directly and recolour from
    scratch; under theta the memo calls colour_pair, which refuses the
    same pairs. A colouring that does not colour pairs raises ArgumentError.
    """
    _check_role(col, "pair")
    if col.family == "theta":
        return functools.cache(functools.partial(colour_pair,
                                                 stage=col.args[0]))
    return functools.cache(functools.partial(colour_pair_value, col))


def word_colour_fn(col: Colouring, x: WordSource | None, scan_bound: int):
    """Build a word-colouring callable u -> colour value.

    The theta family colours words through the induced colouring relative
    to x and returns phi's value as it is: a factor's int colour code (its
    full pair code times 2 plus its tag), or one of the two outcome
    sentinels, NOT_FACTOR for a word certified absent from x and UNKNOWN
    for one left undecided within scan_bound. The other families are
    total and return ints. A colouring that does not colour words raises
    ArgumentError.

    The callable's prefixes(y, memo=None, first=1) gives key -> the
    colour of y[:key - first + 1], through memo as _filing reads it; under
    theta it is factor_colouring.prefix_colourer, which reads a word's
    prefixes in order of length from one table. Neither entry keeps what
    it colours outside the memo it is given.
    """
    _check_role(col, "word")
    if col.family == "const":
        return _with_prefixes(lambda u: 0, scan_bound)
    if col.family == "lenmod":
        k = col.args[0]
        return _with_prefixes(lambda u: len(u) % k, scan_bound)
    if x is None:
        raise ArgumentError("theta word colouring needs a reference word")
    if col.args[0] != "full":
        raise ArgumentError("word-side theta colouring uses the full stage")
    colour_of = lambda u: phi(x, u, scan_bound)
    colour_of.prefixes = (lambda y, memo=None, first=1: prefix_colourer(
        x, y, scan_bound, memo, first))
    return colour_of


def _with_prefixes(colour_of, scan_bound: int):
    """colour_of, with a prefixes entry that colours a prefix as a word."""
    def prefixes(y: str, memo=None, first: int = 1):
        colour = colour_of if memo is None else _filing(memo, colour_of,
                                                        scan_bound)
        return lambda key: colour(y[:key - first + 1])

    colour_of.prefixes = prefixes
    return colour_of


def _filing(memo, colour_of, scan_bound: int):
    """colour_of behind memo: a word memo holds is answered from it, and
    a word within scan_bound letters that is coloured is filed in it."""
    def colour(u: str):
        if (found := memo.get(u)) is None:
            found = colour_of(u)
            if len(u) <= scan_bound:
                memo[u] = found
        return found

    return colour


# ---------------------------------------------------------------------------
# Constraint families and the x <-> y transform


@dataclass(frozen=True)
class Constraint:
    """One monochromaticity obligation: the pair (left, right) with the
    1-based index tuple that generated it."""

    left: int
    right: int
    origin: tuple

    def __post_init__(self):
        if not 1 <= self.left < self.right:
            raise ValueError(f"a constraint needs 1 <= left < right, got "
                             f"({self.left}, {self.right})")


def xy_transform(xs) -> list[int]:
    """y_1 = x_1, y_n = x_n - x_{n-1}; inverse of prefix sums."""
    xs = list(xs)
    if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
        raise ValueError("xs must be strictly increasing")
    return [x - p for x, p in zip(xs, [0] + xs[:-1])]


def xy_inverse(ys) -> list[int]:
    """Prefix sums; inverse of xy_transform."""
    ys = list(ys)
    if any(y < 1 for y in ys):
        raise ValueError("ys must be positive")
    return list(itertools.accumulate(ys))


def _constraints_with_top(lefts, right):
    """The pairs (left, right) over the carried lefts that satisfy
    left < right."""
    return [(left, right) for left in lefts if left < right]


def constraints_for(values, form: str, allow_k1_equal_1: bool = False):
    """All constraints of the family over values, sizes ascending and index
    tuples in lexicographic order within each size.

    x_alternating pairs (x_{k_1} - x_{k_2} + ... + x_{k_t}, x_{k_{t+1}})
    for t odd; y_subset pairs (y_1 + y_{k_1} + ... + y_{k_t},
    y_1 + ... + y_{k_{t+1}}) with k_1 >= 2 unless allow_k1_equal_1 (the
    literal reading; pairs violating left < right are then skipped);
    y_block is the image of x_alternating under prefix summation.
    """
    if form not in FORMS:
        raise ValueError(f"unknown constraint form {form!r}")
    values = list(values)
    if form == Y_BLOCK:
        return constraints_for(xy_inverse(values), X_ALTERNATING)
    n = len(values)
    out = []
    if form == X_ALTERNATING:
        if any(x2 <= x1 for x1, x2 in zip([0] + values, values)):
            raise ValueError("xs must be strictly increasing naturals")
        for size in range(2, n + 1, 2):
            for ks in itertools.combinations(range(1, n + 1), size):
                signed = [values[k - 1] for k in ks[:-1]]
                left = sum(signed[::2]) - sum(signed[1::2])
                out.append(Constraint(left, values[ks[-1] - 1], ks))
        return out
    prefix = xy_inverse(values)
    first = 1 if allow_k1_equal_1 else 2
    for size in range(2, n + 1):
        for ks in itertools.combinations(range(first, n + 1), size):
            right = prefix[ks[-1] - 1]
            left = values[0] + sum(values[k - 1] for k in ks[:-1])
            if left < right:
                out.append(Constraint(left, right, ks))
    return out


# ---------------------------------------------------------------------------
# Reports and the depth-first engine


@dataclass
class SearchReport:
    """Outcome of one bounded search run.

    exhausted means the enumeration ran to completion within the bounds;
    a first-witness run that stops early reports exhausted=False.
    nodes_explored counts candidate extensions tested, rejected ones
    included. counts carries per-kind tallies such as unknown aborts.
    """

    params: dict
    witnesses: list
    exhausted: bool
    nodes_explored: int
    max_depth_reached: int
    counts: dict = field(default_factory=dict)


def _check_params(params: dict, letters: dict | None = None,
                  terms: str | None = None, **least: int) -> None:
    """Reject an unknown mode, each named parameter below its least
    allowed value, the parameter named by terms above MAX_TERMS, and each
    entry of letters, a count of letters the run may materialise, above
    MAX_LETTERS. The names are the report's, so a message names the value
    as the report would."""
    if params["mode"] not in ("first", "all"):
        raise ArgumentError(
            f"mode must be 'first' or 'all', got {params['mode']!r}")
    for name, low in least.items():
        if params[name] < low:
            raise ArgumentError(
                f"{name} must be at least {low}, got {params[name]}")
    if terms is not None and params[terms] > MAX_TERMS:
        raise ArgumentError(
            f"{terms} must be at most {MAX_TERMS}, got {params[terms]}")
    for name, count in (letters or {}).items():
        if count > MAX_LETTERS:
            raise ArgumentError(
                f"{name} must be at most {MAX_LETTERS}, got {count}")


def _level(low, stop, make, chain=None, span=None, block_tally=None):
    """What expand returns, a state's level as _dfs reads it, in a plain
    tuple, which is quicker to build than a named one."""
    return low, stop, make, chain, span, block_tally


def _dfs(params, roots, expand, colour_of, grow, depth, witness, mode,
         counts, tally=None) -> SearchReport:
    """Depth-first search shared by the five families.

    Each root is a state at depth 0; roots are not counted as nodes. A
    state at the given depth is a witness, and in first mode the first
    witness ends the search. Any other state's level is expand(state),
    built by _level: its candidates' keys low .. stop - 1 and make(key) ->
    (candidate, obligations). Every candidate, smallest key first, is one
    counted node, accepted when every obligation gets the path colour,
    which the first obligation on the path fixes; grow(state, candidate)
    then builds the child state. Obligations are read once, up to the
    first that breaks, so make may build them lazily. An UNKNOWN colour
    rejects the candidate and counts under unknown_aborts. tally, when
    given, names the count of colours evaluated.

    A chained level also names the _colour_chain of its candidates' first
    obligations, keyed as the candidates are, the span of its child's keys
    (the child stops at key + span, or at stop when span is None) and,
    optionally, block_tally = (name, own, child): each candidate of the
    level adds own to counts[name], and each candidate of its child adds
    child. The engine alone picks how a level is read. It makes every key in
    turn at a level without a chain, and at one whose path colour is unfixed
    and whose child is a witness. With the path colour fixed, the chain's
    colour query yields the candidates of that colour and (None, (k, j)) for
    each block of k others between them, j of them of an UNKNOWN colour.
    With it unfixed, the fixing query yields each candidate whose child
    would accept a candidate, the block (None, (1, 1)) for one of an UNKNOWN
    colour, and the childless block (None, (k, j, True)) for any other: the
    candidate with the k - 1 candidates its child would reject, j of them
    UNKNOWN. A block counts k nodes, k colours evaluated, j unknown aborts
    and its block_tally, as its candidates would one by one, and a childless
    block raises max_depth_reached to the child's level, as building the
    child would. Blocks come in candidate order, so a first-mode stop counts
    the same nodes either way.
    """
    witnesses: list = []
    nodes = max_depth = evaluated = 0
    first_only = mode == "first"
    last = depth - 1  # a state at this level has witnesses for children

    def extend(state, level: int, fixed) -> bool:
        nonlocal nodes, max_depth, evaluated
        if level > max_depth:
            max_depth = level
        if level == depth:
            witnesses.append(witness(state))
            return first_only
        low, stop, make, chain, span, block_tally = expand(state)
        if chain is None or (fixed is None and level == last):
            steps = map(make, range(low, stop))
        elif fixed is None:
            steps = chain.fixing(low, stop, make, span)
        else:
            steps = chain(fixed, low, stop, make)
        for candidate, obligations in steps:
            if candidate is None:
                rejected, unknown, *childless = obligations
                nodes += rejected
                evaluated += rejected
                if unknown:
                    counts["unknown_aborts"] += unknown
                if block_tally is not None:
                    name, own, child = block_tally
                    counts[name] += own + (rejected - 1) * (
                        child if childless else own)
                if childless and level >= max_depth:
                    max_depth = level + 1
                continue
            nodes += 1
            target = fixed
            for obligation in obligations:
                evaluated += 1
                colour = colour_of(obligation)
                if colour is UNKNOWN:
                    counts["unknown_aborts"] += 1
                    break
                if target is None:
                    target = colour
                elif colour != target:
                    break
            else:
                if extend(grow(state, candidate), level + 1, target):
                    return True
        return False

    exhausted = not any(extend(root, 0, None) for root in roots)
    if tally is not None:
        counts[tally] += evaluated
    return SearchReport(params, witnesses, exhausted, nodes, max_depth, counts)


class _colour_chain:
    """The colours of the keys first, first + 1, ... read by colour_at in
    order, only as far as a query needs. The colour query chain(colour,
    low, stop, make), first <= low <= stop, yields make(key) for each key
    in low .. stop - 1 of that colour, smallest first, and ahead of each
    and of the stop the (None, (k, j)) block that _dfs takes for the k
    keys of another colour since the last, j of them UNKNOWN. low may lie
    past the keys read so far: the keys below it that the query reads are
    filed for later queries but never yielded. A query over an empty
    range, low == stop, reads no key, so a level without candidates never
    reads past the keys its search colours.

    chain.fixing(low, stop, make, span=None) is the query of the
    level whose candidates fix the path colour, each by its own key's
    colour, when the child asks this chain for that colour from key + 1
    up to its stop: key + span, or stop when span is None. For each key
    in low .. stop - 1 in order it yields make(key) when a later key of
    the key's colour lies below the child's stop. Otherwise the child
    would reject all of its k = child stop - key - 1 candidates, and it
    yields the childless block (None, (1 + k, j, True)), j the UNKNOWN
    colours among those k keys: the accepted candidate and its child's
    nodes, which _dfs counts without building the child. An UNKNOWN key
    is the rejected block (None, (1, 1)). It reads each key's chain only
    as far as that child would, to the next key of its colour or to the
    child's stop.

    Each key read links to the next one of its colour: a colour query
    walks the links from its colour's first key, a fixing query reads its
    key's link, and both read in line, so a read is colour_at's frame."""

    def __init__(self, colour_at, first: int):
        # links[i]: key first + i's link, 0 until read, None if UNKNOWN;
        # unknown[i]: UNKNOWN colours among the first i keys; first_of and
        # last_of: each colour's first and last key read
        self.state = colour_at, first, [], [0], {}, {}

    def __call__(self, colour, low: int, stop: int, make):
        colour_at, first, links, unknown, first_of, last_of = self.state
        key = None  # the last key of the colour passed
        while low < stop:  # an empty range reads no key
            step = (first_of.get(colour, 0) if key is None
                    else links[key - first])
            if step and step < low:
                key = step  # filed for later queries, never yielded
                continue
            if not step and (unread := first + len(links)) < stop:
                if (found := colour_at(unread)) is not UNKNOWN:
                    if (last := last_of.get(found)) is not None:
                        links[last - first] = unread
                    first_of.setdefault(found, unread)
                    last_of[found] = unread
                links.append(None if found is UNKNOWN else 0)
                unknown.append(unknown[-1] + (found is UNKNOWN))
                continue
            end = min(step, stop) if step else stop
            if end > low:
                yield None, (end - low,
                             unknown[end - first] - unknown[low - first])
            if end == stop:
                return
            yield make(end)
            key, low = end, end + 1

    def fixing(self, low: int, stop: int, make, span: int | None = None):
        colour_at, first, links, unknown, first_of, last_of = self.state
        child_stop = stop
        for key in range(low, stop):
            if span is not None:
                child_stop = key + span
            # Read to the key, then on to its colour's next key or child_stop
            i = key - first
            while ((len(links) <= i or links[i] == 0)
                   and (unread := first + len(links)) < child_stop):
                if (found := colour_at(unread)) is not UNKNOWN:
                    if (last := last_of.get(found)) is not None:
                        links[last - first] = unread
                    first_of.setdefault(found, unread)
                    last_of[found] = unread
                links.append(None if found is UNKNOWN else 0)
                unknown.append(unknown[-1] + (found is UNKNOWN))
            if links[i] is None:
                yield None, (1, 1)
            elif 0 < links[i] < child_stop:
                yield make(key)
            else:
                yield None, (child_stop - key, unknown[child_stop - first]
                             - unknown[key + 1 - first], True)


def _nonempty_subsets(items):
    """The nonempty subsets of items as tuples, shortest first."""
    return itertools.chain.from_iterable(
        itertools.combinations(items, size)
        for size in range(1, len(items) + 1))


def _at_most_one_colour(colours) -> bool:
    """The rule every witness verifier applies to the family it recolours:
    no colour is UNKNOWN (reading stops there) and at most one occurs."""
    seen = set()
    for colour in colours:
        if colour is UNKNOWN:
            return False
        seen.add(colour)
    return len(seen) <= 1


# ---------------------------------------------------------------------------
# Alternating-sum search


def altsum_search(colouring: Colouring, bound: int, max_len: int,
                  form: str = X_ALTERNATING, mode: str = "first",
                  jobs: int = 1, allow_k1_equal_1: bool = False) -> SearchReport:
    """Depth-first search for a sequence all of whose family constraints
    share one pair colour.

    The x form grows strictly increasing sequences <= bound; the y forms
    grow arbitrary positive sequences <= bound. A witness has length
    max_len. The path colour is fixed by the first constraint generated on
    the path; every later constraint must match it.

    The state carries the left-hand sides, so a candidate only pairs them
    with its right: the value itself for x_alternating, the running total
    for the y forms. A candidate's first obligation pairs its right with
    the first left, x_1, y_1 or y_1 + y_2 down the path, so the run keeps
    one colour chain per first left, keyed on the right, for every level
    that has a left, except for y_subset with allow_k1_equal_1, where a
    left may reach the right. constraints_for is the referee behind
    verify_altsum_witness.
    """
    if form not in FORMS:
        raise ArgumentError(f"unknown constraint form {form!r}")
    params = {
        "kind": "altsum", "colouring": colouring.spec, "B": bound,
        "L": max_len, "form": form, "mode": mode,
        "allow_k1_equal_1": allow_k1_equal_1,
    }
    _check_params(params, terms="L", B=1, L=1)
    colour_of = pair_colour_fn(colouring)
    increasing = form == X_ALTERNATING
    first = 1 if allow_k1_equal_1 else 2
    counts = {"constraints_checked": 0}

    # One chain per first left, keyed on the right: its colour with the left.
    chain_of = functools.cache(lambda left: _colour_chain(
        functools.partial(colour_of, left), left + 1))
    chained = not (form == Y_SUBSET and allow_k1_equal_1)
    # The level that fixes the path colour has one left, and its child two,
    # or three for y_subset; the y forms' child keys run to its right plus
    # bound + 1.
    child_lefts = 3 if form == Y_SUBSET else 2
    span = None if increasing else bound + 1

    # A state is (values, newest right, lefts, evens). For the alternating
    # forms, where y_block is x_alternating over prefix sums, lefts and
    # evens are the alternating sums of the odd- and even-size index sets.
    # For y_subset, lefts are y_1 plus each nonempty subset sum of the
    # values from index first on.
    def expand(state):
        values, x, lefts, _ = state
        shift = 0 if increasing else x  # a candidate v's key is its right

        def make(right: int):
            pairs = _constraints_with_top(lefts, right)
            counts["constraints_checked"] += len(pairs)
            return right - shift, pairs

        low = (values[-1] + 1 if increasing and values else 1) + shift
        if not (chained and lefts):
            return _level(low, bound + 1 + shift, make)

        # Every left is below every right, so a candidate makes one pair
        # per left.
        return _level(low, bound + 1 + shift, make, chain_of(lefts[0]), span,
                      ("constraints_checked", len(lefts), child_lefts))

    def grow(state, v: int):
        values, x, lefts, evens = state
        right = v if increasing else x + v
        if form != Y_SUBSET:
            return (values + [v], right,
                    lefts + [e + right for e in evens] + [right],
                    evens + [o - right for o in lefts])
        if len(values) + 1 >= first:
            y1 = values[0] if values else v
            lefts = lefts + [left + v for left in lefts] + [y1 + v]
        return values + [v], right, lefts, evens

    return _dfs(params, [([], 0, [], [])], expand,
                lambda pair: colour_of(*pair), grow, max_len,
                lambda state: list(state[0]), mode, counts)


def verify_altsum_witness(colouring: Colouring, values, form: str,
                          allow_k1_equal_1: bool = False) -> bool:
    """Recolour every constraint of the family from scratch. Values outside
    the search's domain fail: the x form takes strictly increasing
    naturals, the y forms positive values."""
    _check_role(colouring, "pair")
    if form not in FORMS:
        raise ArgumentError(f"unknown constraint form {form!r}")
    try:
        cs = constraints_for(values, form, allow_k1_equal_1)
    except ValueError:
        return False
    return _at_most_one_colour(
        colour_pair_value(colouring, c.left, c.right) for c in cs)


# ---------------------------------------------------------------------------
# Super-monochromatic factorisation search


def supermono_search(x: WordSource, colouring: Colouring, suffix_bound: int,
                     n_factors: int, len_bound: int,
                     scan_bound: int = DEFAULT_SCAN_BOUND, mode: str = "first",
                     jobs: int = 1) -> SearchReport:
    """Search for consecutive factors u_1..u_n of a suffix of x whose
    2^n - 1 ordered-subset concatenations all share one colour.

    Suffix starts run from 1 to suffix_bound; factor lengths are chosen
    smallest first with total length <= len_bound. A subset concatenation
    whose colour is UNKNOWN within scan_bound aborts that extension and is
    tallied under unknown_aborts; an unknown abort cannot hide a witness,
    because every extension keeps the unresolved subset. Candidate factors
    are sliced from one prefix of suffix_bound + len_bound - 1 letters.

    The first factor, and a second factor u's first obligation u_1 u, are
    prefixes of the suffix, so each suffix start keeps one colour chain of
    prefix colours, keyed on the prefix's end, for the first two levels.
    The chain reads its prefixes through the colouring's prefixes entry,
    under theta from one first-occurrence table for the suffix's text;
    the other words, a second factor alone or a subset word that skips a
    factor, go through the colouring itself, under theta phi.

    One memo per run stands in front of both entries, each handed it, so
    a word is coloured once per run, whichever entry meets it first. A
    word longer than scan_bound is coloured, UNKNOWN under theta, but
    never filed, so the memo holds only words the scan can resolve.
    """
    params = {
        "kind": "supermono", "word": x.spec, "colouring": colouring.spec,
        "suffix_bound": suffix_bound, "n": n_factors,
        "len_bound": len_bound, "scan_bound": scan_bound, "mode": mode,
    }
    reach = suffix_bound + len_bound - 1
    _check_params(params, {"scan_bound": scan_bound,
                           "suffix_bound + len_bound - 1": reach},
                  terms="n", suffix_bound=1, n=1, len_bound=1, scan_bound=1)
    colour_word = word_colour_fn(colouring, x, scan_bound)
    counts = {"colour_evaluations": 0, "unknown_aborts": 0}
    text = x.prefix(reach)
    memo: dict = {}  # the run's colours of the words within the scan

    colour_of = _filing(memo, colour_word, scan_bound)

    # A state is (suffix start, next position, factors, subset words, the
    # start's chain), and the empty word is the last subset word, so a
    # candidate u's obligations, every subset word + u and then u itself,
    # are built one at a time and only until one breaks the path colour.
    # The chain's key is the end of the prefix it colours.
    def root(start: int):
        y = text[start - 1:start - 1 + len_bound]
        return start, start, [], [""], _colour_chain(
            colour_word.prefixes(y, memo, start), start)

    def expand(state):
        start, pos, factors, subsets, chain = state

        def make(end: int):
            u = text[pos - 1:end]
            return u, map(operator.add, subsets, itertools.repeat(u))

        # A first factor's only obligation is itself, and a second factor
        # u's first is factors[0] + u: the prefixes ending at u's end.
        return _level(pos, min(start + len_bound, len(text) + 1), make,
                      chain if len(factors) < 2 else None)

    def grow(state, u: str):
        start, pos, factors, subsets, chain = state
        return (start, pos + len(u), factors + [u],
                subsets[:-1] + [w + u for w in subsets] + [""], chain)

    return _dfs(params, map(root, range(1, suffix_bound + 1)),
                expand, colour_of, grow,
                n_factors, lambda state: [state[0]] + state[2], mode, counts,
                "colour_evaluations")


def verify_supermono_witness(x: WordSource, colouring: Colouring, witness,
                             scan_bound: int = DEFAULT_SCAN_BOUND) -> bool:
    """Rebuild all ordered-subset concatenations independently and check
    they share one defined colour. A witness whose factors do not write
    out x from its start fails, as does one words.Factorisation rejects:
    no factor, an empty factor or a start below 1."""
    colour_of = word_colour_fn(colouring, x, scan_bound)
    if not witness:
        return False
    start, factors = witness[0], tuple(witness[1:])
    try:
        check_factorisation(x, Factorisation(factors, start))
    except ValueError:
        return False
    return _at_most_one_colour(
        colour_of("".join(combo)) for combo in _nonempty_subsets(factors))


# ---------------------------------------------------------------------------
# Finite Hindman search


def hindman_search(u: str, colouring: Colouring, n: int, bound: int,
                   x: WordSource | None = None,
                   scan_bound: int = DEFAULT_SCAN_BOUND,
                   mode: str = "first") -> SearchReport:
    """Search a_1 < ... < a_n <= bound such that u^s has one colour for
    every nonempty distinct-element sum s.

    The first witness in lexicographic order is returned in first mode.
    theta colourings need a reference word x for the induced colouring.

    Below the root the first subset sum stays a_1, so a candidate v's first
    obligation is u^(a_1 + v). Its colour depends on the exponent alone,
    so every level below the root reads one colour chain of powers per
    run, keyed on the exponent a_1 + v; the root reads its candidates one
    at a time. colour_power memoises the run's colours of u^s by s, the
    run's only memo. Under theta every power within scan_bound letters is
    a prefix of u^ω, coloured from one table for it if longer than every
    power read before and else by phi; the longer powers go to phi too.
    """
    if not u:
        raise ArgumentError("u must be a nonempty word")
    params = {
        "kind": "hindman", "u": u, "colouring": colouring.spec, "n": n,
        "bound": bound, "mode": mode,
        "word": x.spec if x is not None else None,
        "scan_bound": scan_bound,
    }
    _check_params(params, {"scan_bound": scan_bound}, terms="n", n=2,
                  bound=1, scan_bound=1)
    colour_of = word_colour_fn(colouring, x, scan_bound)
    # u^s is the prefix of u^ω of s|u| letters: the powers within the scan
    # are read from one table of prefixes, the longer ones word by word.
    powers = u * (scan_bound // len(u))
    colour_prefix = colour_of.prefixes(powers)
    colour_power = functools.cache(
        lambda s: colour_prefix(s * len(u)) if s * len(u) <= len(powers)
        else colour_of(u * s))
    counts = {"colour_evaluations": 0, "unknown_aborts": 0}

    # The least key a child asks for is a_1 + v with a_1 = 1 and v = 2.
    chain = _colour_chain(colour_power, 3)

    # A state is (values, subset sums of the values), and the empty sum 0
    # is the last sum, as the empty word is in supermono_search.
    def expand(state):
        values, sums = state
        # A candidate v below the root is the key a_1 + v of the chain.
        a1 = values[0] if values else 0

        def make(key: int):
            v = key - a1
            return v, map(operator.add, sums, itertools.repeat(v))

        return _level(a1 + values[-1] + 1 if values else 1, a1 + bound + 1,
                      make, chain if values else None)

    def grow(state, v: int):
        values, sums = state
        return values + [v], sums[:-1] + [s + v for s in sums] + [0]

    return _dfs(params, [([], [0])], expand, colour_power, grow, n,
                lambda state: list(state[0]), mode, counts,
                "colour_evaluations")


def verify_hindman_witness(u: str, colouring: Colouring, values,
                           x: WordSource | None = None,
                           scan_bound: int = DEFAULT_SCAN_BOUND) -> bool:
    """Recolour u^s for every nonempty subset sum s independently; values
    other than a nonempty strictly increasing run of naturals fail."""
    if not u:
        raise ArgumentError("u must be a nonempty word")
    colour_of = word_colour_fn(colouring, x, scan_bound)
    if not values or values[0] < 1 or sorted(set(values)) != list(values):
        return False
    return _at_most_one_colour(
        colour_of(u * sum(combo)) for combo in _nonempty_subsets(values))


# ---------------------------------------------------------------------------
# All-plus pair search


def plus_pair_search(colouring: Colouring, n: int, bound: int,
                     mode: str = "first") -> SearchReport:
    """Search x_1 < ... < x_n <= bound with every pair (prefix subset sum,
    next element) one colour.

    Elements are forced superincreasing (each exceeds the sum of all
    earlier ones) so every constraint satisfies left < right.
    """
    params = {
        "kind": "plus", "colouring": colouring.spec, "n": n,
        "bound": bound, "mode": mode,
    }
    _check_params(params, terms="n", n=2, bound=1)
    colour_of = pair_colour_fn(colouring)
    counts = {"constraints_checked": 0}

    # A state is (values, nonempty subset sums of the values, their total).
    def expand(state):
        _, sums, total = state

        def make(v: int):
            counts["constraints_checked"] += len(sums)
            return v, zip(sums, itertools.repeat(v))

        return _level(total + 1, bound + 1, make)

    def grow(state, v: int):
        values, sums, total = state
        return values + [v], sums + [s + v for s in sums] + [v], total + v

    return _dfs(params, [([], [], 0)], expand,
                lambda pair: colour_of(*pair),
                grow, n, lambda state: list(state[0]), mode, counts)


def verify_plus_witness(colouring: Colouring, values) -> bool:
    """Recolour every (prefix subset sum, next element) pair from scratch;
    values that are not superincreasing naturals fail."""
    _check_role(colouring, "pair")
    if any(v <= sum(values[:j]) for j, v in enumerate(values)):
        return False
    return _at_most_one_colour(
        colour_pair_value(colouring, sum(combo), values[j])
        for j in range(1, len(values))
        for combo in _nonempty_subsets(values[:j]))


# ---------------------------------------------------------------------------
# Coefficient-pattern sum search


def _q5_patterns(k: int, variant: str):
    """Coefficient tuples (a_1..a_k) for prefix length k under the variant.

    plain fixes a_1 = a_k = 1 with interior in {1,2}; a1free and akfree
    free the respective endpoint to {1,2}; with_gaps keeps the endpoints 1
    but allows interior zeros. For k = 1 the freed-endpoint variants
    constrain both y_1 and 2y_1, reading the endpoint rules literally.
    """
    firsts, lasts, inner = _Q5_COEFFICIENTS[variant]
    if k == 1:
        coeffs = sorted(set(firsts) | set(lasts))
        return [(c,) for c in coeffs]
    out = []
    for a1 in firsts:
        for mid in itertools.product(inner, repeat=k - 2):
            for ak in lasts:
                out.append((a1,) + mid + (ak,))
    return out


def _q5_pattern_count(k: int, variant: str) -> int:
    """len(_q5_patterns(k, variant)), without building the patterns."""
    firsts, lasts, inner = _Q5_COEFFICIENTS[variant]
    if k == 1:
        return len(set(firsts) | set(lasts))
    return len(firsts) * len(inner) ** (k - 2) * len(lasts)


def q5_search(colouring: Colouring, variant: str, max_len: int, bound: int,
              mode: str = "first") -> SearchReport:
    """Search y_1..y_L <= bound (repeats allowed) with every coefficient
    sum a_1 y_1 + ... + a_k y_k, k = 1..L, one colour under a number
    colouring, with coefficients drawn per variant.

    An L whose pattern table would hold more than Q5_MAX_COEFFICIENTS
    coefficients is rejected before the table is built."""
    if variant not in Q5_VARIANTS:
        raise ArgumentError(f"unknown variant {variant!r}")
    params = {
        "kind": "q5", "colouring": colouring.spec, "variant": variant,
        "L": max_len, "bound": bound, "mode": mode,
    }
    _check_params(params, L=1, bound=1)
    coefficients = 0
    for k in range(1, max_len + 1):
        coefficients += k * _q5_pattern_count(k, variant)
        if coefficients > Q5_MAX_COEFFICIENTS:
            raise ArgumentError(
                f"L must be at most {k - 1} for variant {variant}, got "
                f"{max_len}: longer coefficient patterns hold more than "
                f"{Q5_MAX_COEFFICIENTS} coefficients")
    _check_role(colouring, "number")
    patterns = [()] + [_q5_patterns(k, variant) for k in range(1, max_len + 1)]

    def expand(values: list):
        def make(v: int):
            new = values + [v]
            return new, (sum(c * y for c, y in zip(coeffs, new))
                         for coeffs in patterns[len(new)])

        return _level(1, bound + 1, make)

    return _dfs(params, [[]], expand,
                functools.partial(colour_number, colouring),
                lambda _state, candidate: candidate, max_len, list, mode,
                {"sums_checked": 0}, "sums_checked")


def verify_q5_witness(colouring: Colouring, variant: str, values) -> bool:
    """Recolour every coefficient sum of every prefix from scratch; an
    empty sequence, or one with a value below 1, fails. An unknown variant
    raises ArgumentError whatever the values."""
    _check_role(colouring, "number")
    if variant not in Q5_VARIANTS:
        raise ArgumentError(f"unknown variant {variant!r}")
    return min(values, default=0) >= 1 and _at_most_one_colour(
        colour_number(colouring, sum(c * y for c, y in zip(coeffs, values)))
        for k in range(1, len(values) + 1)
        for coeffs in _q5_patterns(k, variant))
