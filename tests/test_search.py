"""Bounded searches: colouring mini-language, constraint families, the
x/y transform bridge, witness re-verification, per-run colour memos and
pinned outcomes. Each of the five searches is compared with its
one-candidate twin: one plain loop, _one_at_a_time, run on a description
of the search's family, which checks every candidate on its own and shares
nothing with the engine's colour chains and blocks."""

from __future__ import annotations

import itertools
import math
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermono import report, search, words
from supermono.factor_colouring import NOT_FACTOR, UNKNOWN, phi
from supermono.pair_colouring import PairColour, colour_pair
from supermono.search import (
    MAX_TERMS,
    Q5_VARIANTS,
    X_ALTERNATING,
    Y_BLOCK,
    Y_SUBSET,
    Constraint,
    altsum_search,
    colour_number,
    colour_pair_value,
    constraints_for,
    hindman_search,
    parse_colouring,
    plus_pair_search,
    q5_search,
    supermono_search,
    verify_altsum_witness,
    verify_hindman_witness,
    verify_plus_witness,
    verify_q5_witness,
    verify_supermono_witness,
    xy_inverse,
    xy_transform,
)
from supermono.words import (
    MAX_LETTERS,
    ExplicitPrefix,
    Periodic,
    parse_word_spec,
)


def test_parse_colouring_families():
    theta = parse_colouring("theta")
    assert (theta.family, theta.args, theta.lift) == ("theta", ("full",), None)
    assert parse_colouring("theta:stage2").args == ("stage2",)
    assert parse_colouring("lenmod:2").args == (2,)
    assert parse_colouring("valmod:3").lift == "both"
    assert parse_colouring("valmod:3@diff").lift == "diff"
    assert parse_colouring("gaps:2,4").args == (2, 4)
    assert parse_colouring("gaps:2").args == (2, 3)
    assert parse_colouring("dbl").family == "dbl"


def test_parse_colouring_rejections():
    for bad in ("rainbow:3", "theta:stage9", "lenmod:0", "base-lsnz:1",
                "gaps:0,3", "valmod:2@upwards", "theta@left", "lenmod:2@left",
                "const:5", "dbl:9@diff", "theta:", "gaps:2,"):
        with pytest.raises(ValueError):
            parse_colouring(bad)
    for bad, message in (("lenmod:", "lenmod modulus must be an integer, got ''"),
                         ("gaps:", "gaps modulus must be an integer, got ''"),
                         ("gaps:2,", "gaps cap must be an integer, got ''"),
                         ("valmod:x", "valmod modulus must be an integer, got 'x'"),
                         ("fpmod:2.5", "fpmod modulus must be an integer, got '2.5'"),
                         ("base-lsnz:", "base-lsnz base must be an integer, got ''"),
                         ("const:", "const takes no argument, got ''"),
                         ("dbl:", "dbl takes no argument, got ''")):
        with pytest.raises(ValueError) as raised:
            parse_colouring(bad)
        assert str(raised.value) == message


def test_colour_number_families():
    assert colour_number(parse_colouring("const"), 7) == 0
    assert colour_number(parse_colouring("valmod:3"), 7) == 1
    assert colour_number(parse_colouring("fpmod:2"), 8) == 1
    assert colour_number(parse_colouring("base-lsnz:3"), 18) == 2
    assert colour_number(parse_colouring("gaps:2"), 0b10101) == (2, 0)
    assert colour_number(parse_colouring("dbl"), 12) == (1, "110")
    with pytest.raises(ValueError):
        colour_number(parse_colouring("valmod:2"), 0)
    with pytest.raises(ValueError):
        colour_number(parse_colouring("lenmod:2"), 3)


def test_colour_pair_value_lifts():
    assert colour_pair_value(parse_colouring("valmod:4@left"), 3, 9) == 3
    assert colour_pair_value(parse_colouring("valmod:4@right"), 3, 9) == 1
    assert colour_pair_value(parse_colouring("valmod:4@diff"), 3, 9) == 2
    assert colour_pair_value(parse_colouring("valmod:4@sum"), 3, 9) == 0
    assert colour_pair_value(parse_colouring("valmod:4"), 3, 9) == (3, 1)
    assert colour_pair_value(parse_colouring("theta"), 1, 201) == 293
    with pytest.raises(ValueError):
        colour_pair_value(parse_colouring("valmod:4"), 9, 3)
    with pytest.raises(ValueError):
        colour_pair_value(parse_colouring("lenmod:2"), 1, 2)


@pytest.mark.parametrize("stage", ["stage1", "stage2", "full"])
def test_theta_pair_values_split_pairs_as_their_keys(stage):
    """Under theta two pairs share a colour value exactly when their
    decoded keys agree, so every search meets the same classes."""
    col = parse_colouring(f"theta:{stage}")
    key_of = {}
    for b in range(2, (1 << 7) + 1):
        for a in range(1, b):
            value = colour_pair_value(col, a, b)
            key = PairColour.decode(value, stage).key()
            assert key_of.setdefault(value, key) == key, (a, b)
    assert len(set(key_of.values())) == len(key_of)


def test_theta_word_values_split_words_as_their_serialised_colours():
    """Under theta both entry points of the word colouring return phi's
    colour itself, the int code or the NOT_FACTOR sentinel, so two words
    share a value exactly when their colours agree: every factor of
    length <= 10 of Fibonacci and Thue-Morse within scan 256, and the
    words of length <= 4 that periodic:ab certifies absent."""
    cases = []
    for spec in ("morphic:a->ab,b->a|a", "morphic:a->ab,b->ba|a"):
        x = parse_word_spec(spec)
        text = x.prefix(256)
        cases.append((x, {text[i:i + k] for k in range(1, 11)
                          for i in range(len(text) - k + 1)}))
    absent = {"".join(letters) for k in range(1, 5)
              for letters in itertools.product("ab", repeat=k)}
    absent = {u for u in absent if phi(_AB, u, 256) is NOT_FACTOR}
    assert len(absent) == 22
    cases.append((_AB, absent))
    for x, us in cases:
        colour_of = search.word_colour_fn(_THETA, x, 256)
        for u in sorted(us):
            colour = phi(x, u, 256)
            assert colour is NOT_FACTOR if x is _AB else isinstance(colour, int)
            fresh = search.word_colour_fn(_THETA, x, 256)
            for value in (colour_of(u), fresh.prefixes(u)(len(u))):
                assert value == colour, u


def test_colour_code_zero_in_a_chain_and_on_a_search_path():
    """Code 0 is a real colour: a chain query for it yields its keys, and
    a search path whose colour is 0 keeps 0 as its fixed colour. Under
    theta:stage1 at bound 12 and length 3, the path 1, 9, 10 has colour 0
    on all three pairs."""
    def colour_at(right):
        return colour_pair(1, right)

    chain = search._colour_chain(colour_at, 2)
    steps = list(chain(0, 2, 200, lambda key: ("hit", key)))
    assert steps == _chain_steps_by_brute_force(colour_at, 0, 2, 200)
    assert ("hit", 10) in steps
    col = parse_colouring("theta:stage1")
    assert {colour_pair_value(col, c.left, c.right)
            for c in constraints_for([1, 9, 10], X_ALTERNATING)} == {0}
    assert altsum_search(col, 12, 3).witnesses == [[1, 9, 10]]
    rep = altsum_search(col, 12, 3, mode="all")
    assert all(verify_altsum_witness(col, w, X_ALTERNATING)
               for w in rep.witnesses)


def test_xy_transform_examples():
    assert xy_transform((1, 3, 4)) == [1, 2, 1]
    assert xy_inverse((1, 2, 1)) == [1, 3, 4]
    assert xy_transform((5,)) == [5]
    with pytest.raises(ValueError):
        xy_transform((2, 2))
    with pytest.raises(ValueError):
        xy_inverse((1, 0))


@given(xs=st.lists(st.integers(min_value=1, max_value=1 << 10),
                   min_size=1, max_size=6, unique=True))
def test_xy_round_trip(xs):
    xs = sorted(xs)
    assert xy_inverse(xy_transform(xs)) == xs
    ys = xy_transform(xs)
    assert all(y >= 1 for y in ys)


def test_constraint_pairs_for_small_sequences():
    pairs = [(c.left, c.right) for c in constraints_for((1, 2, 3), X_ALTERNATING)]
    assert pairs == [(1, 2), (1, 3), (2, 3)]
    four = {(c.left, c.right) for c in constraints_for((1, 2, 3, 4), X_ALTERNATING)}
    assert (2, 4) in four
    subset = [(c.left, c.right) for c in constraints_for((1, 1, 1), Y_SUBSET)]
    assert subset == [(2, 3)]
    block = [(c.left, c.right) for c in constraints_for((1, 1, 1), Y_BLOCK)]
    assert block == [(1, 2), (1, 3), (2, 3)]


def test_constraints_validation():
    with pytest.raises(ValueError):
        constraints_for((1, 2), "z_form")
    with pytest.raises(ValueError):
        constraints_for((2, 1), X_ALTERNATING)
    with pytest.raises(ValueError):
        constraints_for((0, 2), X_ALTERNATING)
    with pytest.raises(ValueError):
        constraints_for((1, 0), Y_SUBSET)
    with pytest.raises(ValueError, match="1 <= left < right"):
        Constraint(2, 2, (1, 2))


def test_first_index_relaxation_for_subset_form():
    assert [(c.left, c.right) for c in constraints_for((1, 3), Y_SUBSET, True)] \
        == [(2, 4)]
    assert constraints_for((1, 3), Y_SUBSET) == []
    assert constraints_for((1, 1), Y_SUBSET, True) == []


@given(xs=st.lists(st.integers(min_value=1, max_value=1 << 10),
                   min_size=1, max_size=6, unique=True))
@settings(max_examples=300)
def test_block_form_mirrors_alternating_form(xs):
    xs = sorted(xs)
    assert constraints_for(xs, X_ALTERNATING) == \
        constraints_for(xy_transform(xs), Y_BLOCK)


@given(ys=st.lists(st.integers(min_value=1, max_value=8),
                   min_size=2, max_size=6))
@settings(max_examples=300)
def test_subset_form_pairs_embed_in_block_form(ys):
    subset = {(c.left, c.right) for c in constraints_for(ys, Y_SUBSET)}
    block = {(c.left, c.right) for c in constraints_for(ys, Y_BLOCK)}
    assert subset <= block


@given(data=st.data())
@settings(max_examples=200)
def test_incremental_constraints_union_to_full_set(data):
    """Walking a sequence through the altsum search's own expand and grow,
    each candidate made from its level's keys, pairs up every constraint
    of the family exactly once."""
    form = data.draw(st.sampled_from((X_ALTERNATING, Y_SUBSET, Y_BLOCK)))
    if form == X_ALTERNATING:
        values = sorted(data.draw(st.sets(
            st.integers(min_value=1, max_value=64), min_size=1, max_size=6)))
    else:
        values = data.draw(st.lists(
            st.integers(min_value=1, max_value=8), min_size=1, max_size=6))
    allow = data.draw(st.booleans())
    engine = {}

    def capture(params, roots, expand, colour_of, grow, *rest):
        engine.update(roots=roots, expand=expand, grow=grow)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_dfs", capture)
        altsum_search(parse_colouring("const"), max(values), len(values),
                      form, "all", allow_k1_equal_1=allow)
    (state,) = engine["roots"]
    pairs = Counter()
    for v in values:
        low, stop, make, *_ = engine["expand"](state)
        step = next(obligations for candidate, obligations
                    in map(make, range(low, stop)) if candidate == v)
        pairs.update(step)
        state = engine["grow"](state, v)
    assert pairs == Counter((c.left, c.right)
                            for c in constraints_for(values, form, allow))


def test_altsum_search_first_and_all_modes():
    rep = altsum_search(parse_colouring("const"), 4, 2, mode="all")
    assert rep.witnesses == [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
    assert rep.exhausted
    for witness in rep.witnesses:
        assert verify_altsum_witness(parse_colouring("const"), witness,
                                     X_ALTERNATING)


def test_altsum_witness_verification_rejects_mixed_colours():
    assert not verify_altsum_witness(parse_colouring("theta"), [1, 2, 3],
                                     X_ALTERNATING)


def test_theta_stages_refine_witness_sets():
    witnesses = {}
    for bound, max_len in ((12, 4), (12, 3)):
        by_stage = {}
        for stage in ("stage1", "stage2", "full"):
            rep = altsum_search(parse_colouring(f"theta:{stage}"), bound,
                                max_len, mode="all")
            assert rep.exhausted
            by_stage[stage] = (rep, {tuple(w) for w in rep.witnesses})
        assert by_stage["full"][1] <= by_stage["stage2"][1] <= \
            by_stage["stage1"][1]
        assert by_stage["full"][0].max_depth_reached <= \
            by_stage["stage2"][0].max_depth_reached <= \
            by_stage["stage1"][0].max_depth_reached
        witnesses[bound, max_len] = {stage: found
                                     for stage, (_, found) in by_stage.items()}
    # At L 3 the containment is strict: stage1 finds two witnesses that the
    # finer stages reject.
    assert witnesses[12, 3] == {"stage1": {(1, 9, 10), (2, 3, 11)},
                                "stage2": set(), "full": set()}


_MEMO_SPECS = ("theta:full", "theta:stage2", "valmod:3@diff", "theta:full")


@pytest.mark.parametrize("run, twin", [
    pytest.param(
        lambda col: altsum_search(col, 10, 3, mode="all"),
        lambda col: _altsum_referee(col, 10, 3, X_ALTERNATING, "all", False),
        id="altsum"),
    pytest.param(
        lambda col: plus_pair_search(col, 3, 12, "all"),
        lambda col: _plus_referee(col, 3, 12, "all"),
        id="plus"),
])
def test_pair_colour_memo_does_not_leak_between_runs(run, twin):
    """Each run memoises its own pair colours: runs under other colourings
    in between change neither their own outcomes, which are their
    one-candidate twins', nor the repeated run's report bytes."""
    reports = [run(parse_colouring(spec)) for spec in _MEMO_SPECS]
    assert report.to_json(reports[0]) == report.to_json(reports[-1])
    for spec, rep in zip(_MEMO_SPECS, reports):
        assert _outcome(rep) == twin(parse_colouring(spec)), spec


def test_plus_pair_search_example():
    assert verify_plus_witness(parse_colouring("valmod:2"), [2, 4, 8])


def test_q5_patterns_by_variant():
    assert search._q5_patterns(3, "plain") == [(1, 1, 1), (1, 2, 1)]
    assert search._q5_patterns(3, "with_gaps") == \
        [(1, 0, 1), (1, 1, 1), (1, 2, 1)]
    assert search._q5_patterns(1, "a1free") == [(1,), (2,)]
    assert search._q5_patterns(2, "akfree") == [(1, 1), (1, 2)]
    assert "with_gaps" in Q5_VARIANTS


def test_supermono_search_copies_one_prefix_per_run(monkeypatch):
    calls = []
    prefix = words.WordSource.prefix

    def counted(x, length):
        calls.append(length)
        return prefix(x, length)

    monkeypatch.setattr(words.WordSource, "prefix", counted)
    rep = supermono_search(parse_word_spec("morphic:a->ab,b->a|a"),
                           parse_colouring("theta"), 6, 3, 12, mode="all")
    assert rep.counts["colour_evaluations"] > 100
    assert calls == [6 + 12 - 1]


def test_scan_starved_colours_count_as_unknown_aborts():
    word = ExplicitPrefix("abaab")
    rep = supermono_search(word, parse_colouring("theta"), 1, 2, 4,
                           scan_bound=2, mode="all")
    assert rep.exhausted
    assert rep.witnesses == []
    assert rep.counts["unknown_aborts"] > 0
    rep = hindman_search("a", parse_colouring("theta"), 2, 3,
                         x=ExplicitPrefix("ab"), scan_bound=2, mode="all")
    assert rep.exhausted
    assert rep.witnesses == []
    assert rep.counts["unknown_aborts"] == 4


def _one_at_a_time(roots, candidates, obligations, colour_of, grow, depth,
                   witness, mode, counts):
    """A search's whole outcome, found one candidate at a time and without
    the engine: each of candidates(state) is one node, and its list
    obligations(state, candidate) is read in order up to the first that is
    UNKNOWN or breaks the path colour, which the first obligation on the
    path fixes. counts maps each count of the report to its tally: built
    (obligations made), evaluated (obligations read) or unknown. One
    colour dict per run stands in front of colour_of, which is pure, so it
    changes no count and no coloured set."""
    colours: dict = {}
    found, tally = [], Counter()

    def extend(state, level, path_colour):
        tally["depth"] = max(tally["depth"], level)
        if level == depth:
            found.append(witness(state))
            return mode == "first"
        for candidate in candidates(state):
            tally["nodes"] += 1
            todo = obligations(state, candidate)
            tally["built"] += len(todo)
            colour = path_colour
            for obligation in todo:
                tally["evaluated"] += 1
                if obligation not in colours:
                    colours[obligation] = colour_of(obligation)
                got = colours[obligation]
                if got is UNKNOWN:
                    tally["unknown"] += 1
                    break
                if colour is None:
                    colour = got
                elif got != colour:
                    break
            else:
                if extend(grow(state, candidate), level + 1, colour):
                    return True
        return False

    exhausted = not any(extend(root, 0, None) for root in roots)
    return (found, exhausted, tally["nodes"], tally["depth"],
            {name: tally[kind] for name, kind in counts.items()})


_WORD_COUNTS = {"colour_evaluations": "evaluated", "unknown_aborts": "unknown"}
_SUBSETS: dict = {}  # each length's index subsets, sorted once


def _with_subsets(values, combine):
    """(values, combine of each nonempty subset of values), the subsets in
    the order the searches carry them: by their indices read from the
    last, each ahead of its prefixes."""
    n = len(values)
    if n not in _SUBSETS:
        _SUBSETS[n] = sorted(
            (ks for size in range(1, n + 1)
             for ks in itertools.combinations(range(n), size)),
            key=lambda ks: ks[::-1] + (math.inf,))
    return values, [combine(map(values.__getitem__, ks))
                    for ks in _SUBSETS[n]]


def _supermono_referee(x, colouring, suffix_bound, n, len_bound, scan_bound,
                       mode):
    """supermono_search's family: a state is (suffix start, next position,
    factors, subset words), and a candidate u's obligations are every
    subset word + u, then u."""
    text = x.prefix(suffix_bound + len_bound - 1)

    def candidates(state):
        start, pos = state[:2]
        return (text[pos - 1:end]
                for end in range(pos, min(start + len_bound, len(text) + 1)))

    def grow(state, u):
        start, pos, factors, _ = state
        return (start, pos + len(u)) + _with_subsets(factors + [u], "".join)

    return _one_at_a_time(
        [(start, start, [], []) for start in range(1, suffix_bound + 1)],
        candidates, lambda state, u: [w + u for w in state[3]] + [u],
        search.word_colour_fn(colouring, x, scan_bound), grow, n,
        lambda state: [state[0]] + state[2], mode, _WORD_COUNTS)


def _hindman_referee(u, colouring, n, bound, x, scan_bound, mode):
    """hindman_search's family: a state is (values, subset sums), and a
    candidate v's obligations are u^(s + v) for every subset sum s, then
    u^v, each named by its exponent."""
    colour_word = search.word_colour_fn(colouring, x, scan_bound)
    return _one_at_a_time(
        [([], [])],
        lambda state: range(state[0][-1] + 1 if state[0] else 1, bound + 1),
        lambda state, v: [s + v for s in state[1]] + [v],
        lambda s: colour_word(u * s),
        lambda state, v: _with_subsets(state[0] + [v], sum), n,
        lambda state: state[0], mode, _WORD_COUNTS)


def _altsum_referee(colouring, bound, max_len, form, mode,
                    allow_k1_equal_1):
    """altsum_search's family: a state is the values, and a candidate's
    obligations are the pairs of constraints_for whose last index is the
    candidate's."""
    def obligations(values, v):
        return [(c.left, c.right) for c in sorted(
            constraints_for(values + [v], form, allow_k1_equal_1),
            key=lambda c: c.origin[-2::-1] + (math.inf,))
            if c.origin[-1] == len(values) + 1]

    increasing = form == X_ALTERNATING
    return _one_at_a_time(
        [[]],
        lambda values: range(values[-1] + 1 if increasing and values else 1,
                             bound + 1),
        obligations, lambda pair: search.colour_pair_value(colouring, *pair),
        lambda values, v: values + [v], max_len, list, mode,
        {"constraints_checked": "built"})


def _plus_referee(colouring, n, bound, mode):
    """plus_pair_search's family: a state is (values, subset sums), and a
    candidate v above the values' total pairs with every subset sum."""
    return _one_at_a_time(
        [([], [])], lambda state: range(sum(state[0]) + 1, bound + 1),
        lambda state, v: [(s, v) for s in state[1]],
        lambda pair: search.colour_pair_value(colouring, *pair),
        lambda state, v: _with_subsets(state[0] + [v], sum), n,
        lambda state: state[0], mode, {"constraints_checked": "built"})


def _q5_referee(colouring, variant, max_len, bound, mode):
    """q5_search's family: a state is the values, and a candidate's
    obligations are the coefficient sums over the prefix it ends, pattern
    by pattern."""
    def obligations(values, v):
        return [sum(c * y for c, y in zip(coeffs, values + [v]))
                for coeffs in search._q5_patterns(len(values) + 1, variant)]

    return _one_at_a_time(
        [[]], lambda values: range(1, bound + 1), obligations,
        lambda s: colour_number(colouring, s),
        lambda values, v: values + [v], max_len, list, mode,
        {"sums_checked": "evaluated"})


def _outcome(rep):
    return (rep.witnesses, rep.exhausted, rep.nodes_explored,
            rep.max_depth_reached, rep.counts)


_REFEREE_SPECS = ["periodic:ab", "evper:c|ab", "morphic:a->ab,b->a|a",
                  "morphic:a->abc,b->ac,c->b|a", "prefix:abaab"]


@pytest.mark.parametrize("spec", _REFEREE_SPECS)
@pytest.mark.parametrize("colouring", ["const", "lenmod:2", "lenmod:3",
                                       "theta"])
def test_supermono_counts_match_a_one_candidate_referee(spec, colouring):
    """The second factor's candidates are rejected in blocks, and a first
    factor with all the second factors it would reject is one childless
    block; every count must still be what checking them one at a time
    gives. Small scan bounds put UNKNOWN ends inside the blocks, and the
    explicit prefix cuts the ends off at its last letter. At n 1 the
    first factor's child is a witness, so no childless block may be
    taken."""
    x, col = parse_word_spec(spec), parse_colouring(colouring)
    for suffix_bound, n, len_bound, scan_bound in [
            (1, 2, 5, 2), (3, 2, 6, 2), (3, 3, 6, 3), (4, 3, 8, 5),
            (5, 2, 12, 4), (2, 4, 10, 5), (6, 3, 14, 64), (3, 1, 6, 3),
            (4, 1, 9, 64)]:
        if spec.startswith("prefix:") and scan_bound > 5:
            continue
        for mode in ("first", "all"):
            args = (x, col, suffix_bound, n, len_bound, scan_bound, mode)
            assert (_outcome(supermono_search(*args))
                    == _supermono_referee(*args)), args


@pytest.mark.parametrize("spec", _REFEREE_SPECS)
@pytest.mark.parametrize("colouring", ["const", "lenmod:2", "lenmod:3",
                                       "theta"])
def test_hindman_counts_match_a_one_candidate_referee(spec, colouring):
    """Below the root a candidate's first obligation u^(a_1 + v) is read
    from a_1's colour chain, which rejects the off-colour candidates in
    blocks; every count must still be what checking them one at a time
    gives. Small scan bounds put UNKNOWN powers inside the blocks."""
    x, col = parse_word_spec(spec), parse_colouring(colouring)
    for u in ("a", "ab"):
        for n, bound, scan_bound in [(2, 6, 2), (2, 12, 5), (3, 12, 4),
                                     (3, 24, 64), (4, 16, 9)]:
            if spec.startswith("prefix:") and scan_bound > 5:
                continue
            for mode in ("first", "all"):
                args = (u, col, n, bound, x, scan_bound, mode)
                assert (_outcome(hindman_search(*args))
                        == _hindman_referee(*args)), args


@pytest.mark.parametrize("colouring", [
    "const", "valmod:2", "valmod:3@diff", "valmod:3@sum", "dbl",
    "gaps:2,2@right", "theta:stage1", "theta:stage2", "theta:full"])
def test_altsum_counts_match_a_one_candidate_referee(monkeypatch, colouring):
    """Once the path colour is fixed, a candidate's first obligation is
    read from its first left's colour chain, which rejects the off-colour
    candidates in blocks, and the level that fixes the colour counts a
    childless candidate with its child's candidates as one block;
    y_subset with allow_k1_equal_1 checks them one at a time throughout.
    At L 1 and L 2 the child of that level is a witness, so no childless
    block may be taken. Every way, the outcome, every count and the set of
    coloured pairs must be what checking them one at a time gives."""
    coloured = _record_pairs(monkeypatch)
    col = parse_colouring(colouring)
    for form, sizes in [(X_ALTERNATING, [(12, 4), (8, 5), (20, 3),
                                         (12, 1), (12, 2)]),
                        (Y_BLOCK, [(5, 4), (4, 5), (9, 3), (9, 1), (9, 2)]),
                        (Y_SUBSET, [(5, 4), (4, 5), (9, 3), (9, 1),
                                    (9, 2)])]:
        for (bound, max_len), mode, allow in itertools.product(
                sizes, ("first", "all"), (False, True)):
            args = (col, bound, max_len, form, mode)
            rep = altsum_search(*args, allow_k1_equal_1=allow)
            searched = set(coloured)
            coloured.clear()
            expected = _altsum_referee(*args, allow)
            assert _outcome(rep) == expected, (args, allow)
            assert searched == set(coloured), (args, allow)
            coloured.clear()


@pytest.mark.parametrize("colouring", [
    "const", "valmod:2", "valmod:3@diff", "dbl", "gaps:2,2@right",
    "theta:stage1", "theta:stage2", "theta:full"])
def test_plus_counts_match_a_one_candidate_referee(monkeypatch, colouring):
    """The outcome, every count and the set of coloured pairs of the
    plus pair search must be what checking one candidate at a time gives,
    from a bound that leaves no second value to one that only the
    smallest superincreasing sequences fit (n 5, bound 40)."""
    coloured = _record_pairs(monkeypatch)
    col = parse_colouring(colouring)
    for (n, bound), mode in itertools.product(
            [(2, 1), (2, 9), (3, 24), (4, 40), (5, 40)], ("first", "all")):
        args = (col, n, bound, mode)
        rep = plus_pair_search(*args)
        searched = set(coloured)
        coloured.clear()
        assert _outcome(rep) == _plus_referee(*args), args
        assert searched == set(coloured), args
        coloured.clear()


@pytest.mark.parametrize("variant", Q5_VARIANTS)
@pytest.mark.parametrize("colouring", ["const", "valmod:2", "valmod:3",
                                       "base-lsnz:3", "fpmod:2", "dbl"])
def test_q5_counts_match_a_one_candidate_referee(variant, colouring):
    """The outcome and the sums checked of the coefficient-pattern search
    must be what checking one candidate at a time gives, from one value to
    four."""
    col = parse_colouring(colouring)
    for (max_len, bound), mode in itertools.product(
            [(1, 5), (2, 9), (3, 12), (4, 6)], ("first", "all")):
        args = (col, variant, max_len, bound, mode)
        assert _outcome(q5_search(*args)) == _q5_referee(*args), args


def _chain_steps_by_brute_force(colour_at, colour, low, stop):
    """What a colour chain query must yield, from one colour_at per key."""
    steps, block = [], [0, 0]
    for key in range(low, stop):
        found = colour_at(key)
        if found == colour:
            if block[0]:
                steps.append((None, tuple(block)))
                block = [0, 0]
            steps.append(("hit", key))
        else:
            block[0] += 1
            block[1] += found is UNKNOWN
    if block[0]:
        steps.append((None, tuple(block)))
    return steps


def _key_colour(key):
    """A chain's colour of key, UNKNOWN at every seventh key."""
    return UNKNOWN if key % 7 == 0 else key % 3


def _reading_chain():
    """A fresh colour chain over _key_colour from key 5, and the list of
    the keys it reads, in the order it reads them."""
    read = []

    def reading(key):
        read.append(key)
        return _key_colour(key)

    return search._colour_chain(reading, 5), read


def test_colour_chain_queried_past_its_frontier():
    """An altsum chain's first query starts past its first key. Every
    query, below, across or past the keys read so far, yields exactly the
    keys of its colour in [low, stop) and the blocks between them, and
    the chain reads each key once, in order, only as far as a query
    reaches."""
    chain, read = _reading_chain()
    frontier = 5
    for colour, low, stop in [(1, 12, 20), (2, 6, 10), (0, 5, 20),
                              (1, 30, 45), (2, 19, 31), (0, 44, 46),
                              (1, 46, 46)]:
        steps = list(chain(colour, low, stop, lambda key: ("hit", key)))
        assert steps == _chain_steps_by_brute_force(_key_colour, colour, low,
                                                    stop), (colour, low, stop)
        frontier = max(frontier, stop)
        assert read == list(range(5, 5 + len(read)))
        assert len(read) <= frontier - 5


def _fixing_steps_by_brute_force(colour_at, low, stop, span):
    """What a colour chain's fixing query must yield, from one colour_at
    per key, and the last key it may read (0 when it reads none): a key
    of a defined colour reaches the next key of its colour below its
    child's stop, key + span or stop, or else the key before that stop."""
    steps, last = [], 0
    for key in range(low, stop):
        child_stop = stop if span is None else key + span
        colour = colour_at(key)
        later = range(key + 1, child_stop)
        same = [k for k in later if colour_at(k) == colour]
        if colour is UNKNOWN:
            steps.append((None, (1, 1)))
            last = max(last, key)
        elif same:
            steps.append(("hit", key))
            last = max(last, same[0])
        else:
            steps.append((None, (1 + len(later),
                                 sum(colour_at(k) is UNKNOWN for k in later),
                                 True)))
            last = max(last, child_stop - 1)
    return steps, last


def test_colour_chain_fixing_query_matches_its_referee():
    """For every (low, stop, child stop) in a small range, child stops
    past the stop included, the fixing query yields make(key) for a key
    whose colour recurs below its child's stop, the childless block of
    1 + k nodes with the UNKNOWN count of its child's k keys otherwise,
    and a one-node block for an UNKNOWN key. A fresh chain reads each key
    once, in order, and no key past the last one a child would read: the
    next key of the candidate's colour, or the one before its stop."""
    for low, stop, span in itertools.product(range(5, 20), range(5, 22),
                                             (None, 1, 2, 3, 5, 8, 13)):
        if stop < low:
            continue
        chain, read = _reading_chain()
        steps = list(chain.fixing(low, stop, lambda key: ("hit", key), span))
        expected, last = _fixing_steps_by_brute_force(_key_colour, low, stop,
                                                      span)
        assert steps == expected, (low, stop, span)
        assert read == list(range(5, max(last + 1, 5))), (low, stop, span)


def test_colour_chain_queries_share_one_read():
    """Colour and fixing queries on one chain, in any order, yield what
    their referees give, and the chain still reads each key once, in
    order."""
    chain, read = _reading_chain()
    make = (lambda key: ("hit", key))
    for kind, *query in [
            ("colour", 1, 12, 20), ("fixing", 5, 9, None),
            ("fixing", 5, 14, 4), ("colour", 2, 6, 10), ("fixing", 16, 30, 9),
            ("colour", 0, 5, 20), ("fixing", 8, 10, None),
            ("colour", 1, 30, 45), ("fixing", 40, 44, 12)]:
        if kind == "colour":
            steps = list(chain(*query, make))
            expected = _chain_steps_by_brute_force(_key_colour, *query)
        else:
            steps = list(chain.fixing(*query[:2], make, query[2]))
            expected = _fixing_steps_by_brute_force(_key_colour, *query)[0]
        assert steps == expected, (kind, query)
        assert read == list(range(5, 5 + len(read))), (kind, query)


def test_colour_chain_reads_no_key_for_an_empty_range():
    """A query over an empty key range, low == stop, at the chain's first
    key or past the keys read so far, yields nothing and reads no key:
    the Hindman level of a_1 = bound has no candidates, and its stop lies
    past every power that checking one candidate at a time colours."""
    chain, read = _reading_chain()
    make = (lambda key: ("hit", key))
    for low in (5, 12):
        assert list(chain(1, low, low, make)) == []
        assert list(chain.fixing(low, low, make)) == []
        assert list(chain.fixing(low, low, make, 4)) == []
    assert read == []


def test_first_witness_right_after_a_rejected_block(monkeypatch):
    """Under lenmod:2 on abab..., no second factor follows the first
    factor "a". After the first factor "ab", the candidate "a" is
    rejected (aba has odd length) in a block of one, and the next
    candidate "ab" is the first witness. The stop must count the block:
    11 nodes and 15 colour evaluations in all. Both levels are chained, so
    every step the engine reads comes from a chain query."""
    yields = []
    colour_chain = search._colour_chain

    def recorded(query):
        def steps(*args):
            for step in query(*args):
                yields.append(step)
                yield step
        return steps

    def recording(colour_at, first):
        chain = colour_chain(colour_at, first)
        candidates = recorded(chain)
        candidates.fixing = recorded(chain.fixing)
        return candidates

    monkeypatch.setattr(search, "_colour_chain", recording)
    args = (Periodic("ab"), parse_colouring("lenmod:2"), 3, 2, 8, 4096,
            "first")
    rep = supermono_search(*args)
    assert _outcome(rep) == _supermono_referee(*args)
    assert _outcome(rep) == _pinned("supermono-lenmod-first")
    assert yields[-2:] == [(None, (1, 0)), ("ab", yields[-1][1])]


def test_engine_asks_the_fixing_query_only_above_a_witness_level(
        monkeypatch):
    """The engine reads a chained level whose path colour is unfixed
    through its chain's fixing query when the level's child is not a
    witness, and key by key when it is: each suffix start's first factor
    at n 2 but not at n 1, and each x_1's level at L 3 but not at L 2."""
    queries = []
    colour_chain = search._colour_chain

    def recording(colour_at, first):
        chain = colour_chain(colour_at, first)
        fixing = chain.fixing

        def recorded(low, stop, *rest):
            queries.append((low, stop))
            return fixing(low, stop, *rest)

        chain.fixing = recorded
        return chain

    monkeypatch.setattr(search, "_colour_chain", recording)
    const, theta = parse_colouring("const"), parse_colouring("theta")
    for run, expected in [
            (lambda n: supermono_search(Periodic("ab"), const, 2, n, 4,
                                        mode="all"),
             [(1, 5), (2, 6)]),
            (lambda n: altsum_search(theta, 4, n + 1, mode="all"),
             [(2, 5), (3, 5), (4, 5), (5, 5)])]:
        run(1)
        assert queries == []
        run(2)
        assert queries == expected
        queries.clear()


def _record_pairs(monkeypatch) -> list:
    """Make colour_pair_value list each pair it is asked to colour."""
    coloured = []
    colour_pair_value = search.colour_pair_value

    def recording(col, a, b):
        coloured.append((a, b))
        return colour_pair_value(col, a, b)

    monkeypatch.setattr(search, "colour_pair_value", recording)
    return coloured


def _record_colourings(monkeypatch) -> list:
    """Make every word-colouring callable list each word it is asked for,
    as a word or as a prefix y[:n] through its prefixes entry point."""
    coloured = []
    build = search.word_colour_fn

    def recording(*args):
        colour_of = build(*args)

        def colour(u):
            coloured.append(u)
            return colour_of(u)

        def prefixes(y):
            colour_prefix = colour_of.prefixes(y)

            def colour_at(n):
                coloured.append(y[:n])
                return colour_prefix(n)
            return colour_at

        colour.prefixes = prefixes
        return colour

    monkeypatch.setattr(search, "word_colour_fn", recording)
    return coloured


@pytest.mark.parametrize("spec", ["periodic:ab", "evper:c|ab",
                                  "morphic:a->ab,b->a|a"])
@pytest.mark.parametrize("colouring", ["const", "lenmod:2", "lenmod:3",
                                       "theta"])
def test_supermono_colours_what_a_one_candidate_search_colours(
        monkeypatch, spec, colouring):
    """A colour chain is read only as far as an expand reaches, so a
    first-mode stop colours no word that checking one candidate at a time
    would not, and an all-mode run no other word: in supermono_search and,
    with the same words and colourings, in hindman_search."""
    coloured = _record_colourings(monkeypatch)
    x, col = parse_word_spec(spec), parse_colouring(colouring)
    runs = [(supermono_search, _supermono_referee,
             (x, col, suffix_bound, n, len_bound, scan_bound))
            for suffix_bound, n, len_bound, scan_bound in [
                (1, 2, 9, 4096), (3, 2, 8, 3), (2, 3, 12, 64),
                (4, 4, 10, 5)]]
    runs += [(hindman_search, _hindman_referee,
              (u, col, n, bound, x, scan_bound))
             for u in ("a", "ab")
             for n, bound, scan_bound in [(2, 40, 4096), (3, 16, 5),
                                          (3, 30, 64), (4, 20, 9)]]
    for run, referee, args in runs:
        for mode in ("first", "all"):
            run(*args, mode)
            searched = set(coloured)
            coloured.clear()
            referee(*args, mode)
            assert searched == set(coloured), (run.__name__, args, mode)
            coloured.clear()


def test_first_mode_stops_before_reading_far_prefixes(monkeypatch):
    """Under const the first witness is [1, "a", "b"], found after three
    words whatever len_bound is: the second factor's table must not colour
    the suffix's other 10^4 prefixes before it."""
    coloured = _record_colourings(monkeypatch)
    rep = supermono_search(Periodic("ab"), parse_colouring("const"), 1, 2,
                           10 ** 4, mode="first")
    assert (rep.witnesses, rep.nodes_explored) == ([[1, "a", "b"]], 2)
    assert set(coloured) == {"a", "ab", "b"}
    assert len(coloured) <= 5, len(coloured)


def test_hindman_first_mode_stops_before_reading_far_powers(monkeypatch):
    """Under const the first witness is [1, 2, 3], found after 3 nodes and
    7 colour evaluations whatever the bound is: a_1's chain must colour
    only the powers u^1 .. u^6 that those candidates read, not the other
    10^6 powers below the bound."""
    coloured = _record_colourings(monkeypatch)
    rep = hindman_search("a", parse_colouring("const"), 3, 10 ** 6)
    assert _outcome(rep) == ([[1, 2, 3]], False, 3, 3,
                             {"colour_evaluations": 7, "unknown_aborts": 0})
    assert sorted(coloured) == ["a" * s for s in range(1, 7)]


def test_search_mode_validation():
    with pytest.raises(search.ArgumentError, match=re.escape(
            "mode must be 'first' or 'all', got 'sampled'")):
        altsum_search(parse_colouring("const"), 4, 2, mode="sampled")


def _no_engine(*args, **kwargs):
    raise AssertionError("the search explored nodes")


_OVER = MAX_LETTERS + 1
_TERMS = MAX_TERMS + 1


# Each case: a search given the word source x, and its refusal message.
@pytest.mark.parametrize("run, message", [
    (lambda x: altsum_search(parse_colouring("lenmod:2"), 4, 1),
     "lenmod does not colour pairs"),
    (lambda x: plus_pair_search(parse_colouring("lenmod:2"), 2, 1),
     "lenmod does not colour pairs"),
    (lambda x: q5_search(parse_colouring("theta"), "plain", 2, 4),
     "theta does not colour numbers"),
    (lambda x: q5_search(parse_colouring("valmod:3@diff"), "plain", 2, 4),
     "a pair lift applies only when a number family colours pairs"),
    (lambda x: supermono_search(x, parse_colouring("valmod:2"), 2, 2, 4),
     "valmod does not colour words"),
    (lambda x: supermono_search(x, parse_colouring("const@sum"), 2, 2, 4),
     "a pair lift applies only when a number family colours pairs"),
    (lambda x: supermono_search(x, parse_colouring("lenmod:2"), 2, 2, 4,
                                scan_bound=0),
     "scan_bound must be at least 1, got 0"),
    (lambda x: hindman_search("a", parse_colouring("theta"), 2, 4),
     "needs a reference word"),
    (lambda x: hindman_search("a", parse_colouring("theta:stage2"), 2, 4,
                              x=x),
     "uses the full stage"),
    (lambda x: supermono_search(x, parse_colouring("theta"), 2, 2, 4,
                                scan_bound=_OVER),
     f"scan_bound must be at most {MAX_LETTERS}, got {_OVER}"),
    (lambda x: supermono_search(x, parse_colouring("theta"), MAX_LETTERS, 2,
                                2, scan_bound=4),
     f"suffix_bound + len_bound - 1 must be at most {MAX_LETTERS}, "
     f"got {_OVER}"),
    (lambda x: hindman_search("a", parse_colouring("theta"), 2, 4, x=x,
                              scan_bound=_OVER),
     f"scan_bound must be at most {MAX_LETTERS}, got {_OVER}"),
    (lambda x: altsum_search(parse_colouring("const"), 4, _TERMS),
     f"L must be at most {MAX_TERMS}, got {_TERMS}"),
    (lambda x: supermono_search(x, parse_colouring("const"), 1, _TERMS, 40),
     f"n must be at most {MAX_TERMS}, got {_TERMS}"),
    (lambda x: hindman_search("a", parse_colouring("const"), _TERMS, 10**9),
     f"n must be at most {MAX_TERMS}, got {_TERMS}"),
    (lambda x: plus_pair_search(parse_colouring("const"), _TERMS, 10**9),
     f"n must be at most {MAX_TERMS}, got {_TERMS}"),
    (lambda x: altsum_search(parse_colouring("const"), 4, 2, form="z"),
     "unknown constraint form 'z'"),
    (lambda x: q5_search(parse_colouring("base-lsnz:3"), "spread", 3, 243),
     "unknown variant 'spread'"),
    (lambda x: hindman_search("a", parse_colouring("lenmod:2"), 1, 10),
     "n must be at least 2, got 1"),
    (lambda x: plus_pair_search(parse_colouring("valmod:2"), 1, 16),
     "n must be at least 2, got 1"),
    (lambda x: hindman_search("", parse_colouring("lenmod:2"), 3, 10),
     "u must be a nonempty word"),
    (lambda x: altsum_search(parse_colouring("const"), 4, 0),
     "L must be at least 1, got 0"),
    (lambda x: supermono_search(x, parse_colouring("const"), 0, 2, 4),
     "suffix_bound must be at least 1, got 0"),
    (lambda x: supermono_search(x, parse_colouring("const"), 2, 0, 4),
     "n must be at least 1, got 0"),
    (lambda x: supermono_search(x, parse_colouring("const"), 2, 2, 0),
     "len_bound must be at least 1, got 0"),
    (lambda x: hindman_search("a", parse_colouring("const"), 2, 0),
     "bound must be at least 1, got 0"),
    (lambda x: hindman_search("a", parse_colouring("theta"), 2, 4, x=x,
                              scan_bound=0),
     "scan_bound must be at least 1, got 0"),
    (lambda x: plus_pair_search(parse_colouring("const"), 2, 0),
     "bound must be at least 1, got 0"),
    (lambda x: q5_search(parse_colouring("const"), "plain", 0, 4),
     "L must be at least 1, got 0"),
    (lambda x: q5_search(parse_colouring("const"), "plain", 2, 0),
     "bound must be at least 1, got 0"),
], ids=["altsum-lenmod", "plus-lenmod", "q5-theta", "q5-lift",
        "supermono-valmod", "supermono-lift", "supermono-scan-0",
        "hindman-theta-no-word", "hindman-theta-stage2",
        "supermono-scan-over-cap", "supermono-reach-over-cap",
        "hindman-scan-over-cap", "altsum-L-over-cap",
        "supermono-n-over-cap", "hindman-n-over-cap", "plus-n-over-cap",
        "altsum-unknown-form", "q5-unknown-variant", "hindman-n-1",
        "plus-n-1", "hindman-empty-u", "altsum-L-0", "supermono-suffix-0",
        "supermono-n-0", "supermono-len-0", "hindman-bound-0",
        "hindman-scan-0", "plus-bound-0", "q5-L-0", "q5-bound-0"])
def test_search_rejects_its_arguments_before_any_node(run, message,
                                                      monkeypatch):
    monkeypatch.setattr(search, "_dfs", _no_engine)
    assert issubclass(search.ArgumentError, ValueError)
    x = Periodic("ab")
    with pytest.raises(search.ArgumentError, match=re.escape(message)):
        run(x)
    assert x._text == "ab"


@pytest.mark.parametrize("variant, longest", [
    ("plain", 18), ("a1free", 17), ("akfree", 17), ("with_gaps", 13)])
def test_q5_refuses_a_pattern_table_over_the_cap_before_building_it(
        variant, longest, monkeypatch):
    for k in range(1, 9):
        assert search._q5_pattern_count(k, variant) == \
            len(search._q5_patterns(k, variant))
    sizes = [k * search._q5_pattern_count(k, variant)
             for k in range(1, longest + 2)]
    assert sum(sizes[:-1]) <= search.Q5_MAX_COEFFICIENTS < sum(sizes)
    monkeypatch.setattr(search, "_q5_patterns", _no_engine)
    monkeypatch.setattr(search, "_dfs", _no_engine)
    for max_len in (longest + 1, 10 ** 9):
        with pytest.raises(search.ArgumentError, match=re.escape(
                f"L must be at most {longest} for variant {variant}, "
                f"got {max_len}")):
            q5_search(parse_colouring("const"), variant, max_len, 1)


_AB = Periodic("ab")
_LENMOD2 = parse_colouring("lenmod:2")
_VALMOD2 = parse_colouring("valmod:2")
_THETA = parse_colouring("theta")


@pytest.mark.parametrize("check", [
    lambda: verify_altsum_witness(parse_colouring("lenmod:2"), [1],
                                  X_ALTERNATING),
    lambda: verify_plus_witness(parse_colouring("lenmod:2"), [5]),
    lambda: verify_q5_witness(parse_colouring("valmod:3@diff"), "plain", [3]),
    lambda: verify_supermono_witness(_AB, _VALMOD2, []),
    lambda: verify_supermono_witness(_AB, _VALMOD2, [1, "b"]),
    lambda: verify_hindman_witness("a", _VALMOD2, []),
    lambda: verify_hindman_witness("a", _VALMOD2, [2, 2]),
    lambda: verify_hindman_witness("a", _THETA, [0]),
], ids=["altsum-lenmod", "plus-lenmod", "q5-lift", "supermono-valmod-empty",
        "supermono-valmod-not-x", "hindman-valmod-empty",
        "hindman-valmod-repeated", "hindman-theta-no-word"])
def test_witness_verifiers_reject_a_colouring_in_the_wrong_role(check):
    """A colouring that does not colour the family's objects, or theta on
    words with no reference word, raises whatever the witness is, as the
    search given that colouring does."""
    with pytest.raises(search.ArgumentError):
        check()


@pytest.mark.parametrize("colouring", ["const", "lenmod:2", "theta"])
def test_hindman_witness_verifier_refuses_an_empty_u(colouring):
    """As hindman_search does, under every colouring."""
    with pytest.raises(search.ArgumentError,
                       match="u must be a nonempty word"):
        verify_hindman_witness("", parse_colouring(colouring), [1, 2],
                               Periodic("ab"))


def test_witness_verifiers_raise_on_an_unknown_form_or_variant():
    """As altsum_search and q5_search do, whatever the values."""
    with pytest.raises(search.ArgumentError,
                       match="unknown constraint form"):
        verify_altsum_witness(parse_colouring("valmod:2"), [0, 2], "z_form")
    for values in ([1], [], [0]):
        with pytest.raises(search.ArgumentError, match="unknown variant"):
            verify_q5_witness(parse_colouring("valmod:2"), "bogus", values)


@pytest.mark.parametrize("check, expected", [
    (lambda: verify_altsum_witness(_VALMOD2, [3], X_ALTERNATING), True),
    (lambda: verify_plus_witness(_VALMOD2, [5]), True),
    (lambda: verify_supermono_witness(_AB, _LENMOD2, [1]), False),
    (lambda: verify_supermono_witness(_AB, _LENMOD2, []), False),
    (lambda: verify_hindman_witness("a", _LENMOD2, []), False),
    (lambda: verify_q5_witness(_VALMOD2, "plain", []), False),
    (lambda: verify_supermono_witness(_AB, _THETA, [1, "abab"]), True),
    (lambda: verify_supermono_witness(_AB, _THETA, [1, "abab"], 3), False),
    (lambda: verify_hindman_witness("ab", _THETA, [2], _AB), True),
    (lambda: verify_hindman_witness("ab", _THETA, [2], _AB, 3), False),
    (lambda: verify_altsum_witness(_VALMOD2, [1, 2, 3], X_ALTERNATING), False),
    (lambda: verify_plus_witness(_VALMOD2, [2, 4, 7]), False),
    (lambda: verify_supermono_witness(_AB, _LENMOD2, [1, "a", "b"]), False),
    (lambda: verify_hindman_witness("a", _LENMOD2, [1, 2]), False),
    (lambda: verify_q5_witness(_VALMOD2, "plain", [1, 1]), False),
    (lambda: verify_supermono_witness(_AB, _LENMOD2, [1, "", ""]), False),
    (lambda: verify_supermono_witness(_AB, _THETA, [1, "ab", ""]), False),
    (lambda: verify_supermono_witness(_AB, _LENMOD2, [0, "a"]), False),
    (lambda: verify_hindman_witness("a", _LENMOD2, [2, 2]), False),
    (lambda: verify_hindman_witness("a", _LENMOD2, [4, 2]), False),
    (lambda: verify_hindman_witness("a", _LENMOD2, [0]), False),
    (lambda: verify_hindman_witness("a", _LENMOD2, [-2, 2]), False),
    (lambda: verify_hindman_witness("a", _THETA, [0, 2], _AB), False),
    (lambda: verify_altsum_witness(_VALMOD2, [0, 2], X_ALTERNATING), False),
    (lambda: verify_altsum_witness(_VALMOD2, [2, 2], X_ALTERNATING), False),
    (lambda: verify_altsum_witness(_VALMOD2, [1, 0], Y_SUBSET), False),
    (lambda: verify_altsum_witness(_VALMOD2, [0, 1], Y_BLOCK), False),
    (lambda: verify_plus_witness(_VALMOD2, [1, 1]), False),
    (lambda: verify_plus_witness(_VALMOD2, [0, 2]), False),
    (lambda: verify_plus_witness(_THETA, [5, 3]), False),
    (lambda: verify_q5_witness(parse_colouring("base-lsnz:3"), "plain", [0]),
     False),
    (lambda: verify_q5_witness(parse_colouring("base-lsnz:3"), "plain",
                               [1, 2, 4]), True),
    (lambda: verify_q5_witness(parse_colouring("base-lsnz:3"), "plain",
                               [1, 1]), False),
    (lambda: verify_hindman_witness("a", _LENMOD2, [2, 4, 6]), True),
    (lambda: verify_supermono_witness(_AB, _LENMOD2, [1, "ab", "ab"]), True),
], ids=["altsum-empty", "plus-empty", "supermono-empty",
        "supermono-no-start", "hindman-empty",
        "q5-empty", "supermono-one-word", "supermono-unknown",
        "hindman-one-word", "hindman-unknown", "altsum-mixed", "plus-mixed",
        "supermono-mixed", "hindman-mixed", "q5-mixed",
        "supermono-empty-factors", "supermono-theta-empty-factor",
        "supermono-start-zero",
        "hindman-repeated", "hindman-decreasing", "hindman-zero",
        "hindman-negative", "hindman-theta-zero", "altsum-x-zero",
        "altsum-x-repeated", "altsum-y-subset-zero", "altsum-y-block-zero",
        "plus-repeated", "plus-zero", "plus-theta-decreasing", "q5-zero",
        "q5-plain-first-found", "q5-base-mixed", "hindman-lenmod-first-found",
        "supermono-lenmod-first-found"])
def test_witness_verifiers_on_empty_unknown_and_mixed_families(check,
                                                               expected):
    """altsum and plus accept an empty family, the other three need one
    colour; a word past the scan bound (UNKNOWN) or two colours fail. So
    do values no search can return: a supermono witness with an empty
    factor or a start below 1, hindman values that are not strictly
    increasing naturals, altsum values outside their form's domain, plus
    values that are not superincreasing naturals and q5 values below 1.
    A witness that a pinned search outcome reports, a row named found,
    passes."""
    assert check() is expected


def test_words_past_the_scan_bound_are_not_cached():
    """Neither a word nor a chain's prefix past the scan bound is kept."""
    colour_of = search.word_colour_fn(_THETA, _AB, 64)
    colour_prefix = colour_of.prefixes("ba" * 2033)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for length in range(66, 4066, 2):
            assert colour_of("ab" * (length // 2)) is UNKNOWN
            assert colour_prefix(length + 1) is UNKNOWN
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # 2,000 words of 66 to 4,064 letters hold 4.28 MB when the memo keeps
    # them, and as many prefixes one letter longer as much again.
    assert retained < 100_000


def test_supermono_run_colours_each_word_within_the_scan_once(monkeypatch):
    """supermono_search's memo stands in front of both entries of the word
    colouring, a word and a chain's prefix, so the run asks the colouring
    for each word within the scan once, whichever entry meets it first. A
    word past the scan is coloured but never filed, so it is asked each
    time it is met."""
    coloured = _record_colourings(monkeypatch)
    supermono_search(_AB, _THETA, 4, 3, 10, 4, "all")
    asked = Counter(coloured)
    assert asked and all(
        times == 1 for u, times in asked.items() if len(u) <= 4), asked
    assert asked["ababa"] > 1


# ab in periodic:ab under theta, n 4, bound 512, scan 4096, all mode, and
# the run's outcome, which checking one candidate at a time also gives.
_HINDMAN_AB_512 = (("ab", _THETA, 4, 512, _AB, 4096, "all"),
                   ([], True, 145_760, 2,
                    {"colour_evaluations": 147_070, "unknown_aborts": 0}))


def test_hindman_search_keeps_no_word_memo():
    """The colour of u^s is kept by its exponent alone: no colouring files
    the powers under their words. At ab in periodic:ab, n 4, bound 512,
    a word memo would hold the run's 1,021 powers of up to 2,046 letters
    and peak near 1.28 MB; without one the run peaks near 0.16 MB."""
    args, expected = _HINDMAN_AB_512
    tracemalloc.start()
    try:
        rep = hindman_search(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.nodes_explored == expected[2]
    assert peak < 500_000, peak


_col = parse_colouring
_word = parse_word_spec
_FIB = "morphic:a->ab,b->a|a"

# Each case: a search and its whole outcome, (witnesses, exhausted,
# nodes_explored, max_depth_reached, counts). The cases on small bounds were
# recorded from the searches as they were before the five loops shared one
# engine; the last four, at sizes no referee test reaches, from the shared
# engine.
_PINNED_OUTCOMES = [
    pytest.param(
        lambda: altsum_search(_col("theta"), 8, 3, X_ALTERNATING, "all"),
        ([], True, 92, 2, {"constraints_checked": 140}),
        id="altsum-theta-x-all"),
    pytest.param(
        lambda: altsum_search(_col("theta"), 4, 4, X_ALTERNATING, "all",
                              allow_k1_equal_1=False),
        ([], True, 14, 2, {"constraints_checked": 14}),
        id="altsum-theta-x-alternating-k2"),
    pytest.param(
        lambda: altsum_search(_col("theta"), 4, 4, X_ALTERNATING, "all",
                              allow_k1_equal_1=True),
        ([], True, 14, 2, {"constraints_checked": 14}),
        id="altsum-theta-x-alternating-k1"),
    pytest.param(
        lambda: altsum_search(_col("theta"), 4, 4, Y_SUBSET, "all",
                              allow_k1_equal_1=False),
        ([], True, 340, 3, {"constraints_checked": 832}),
        id="altsum-theta-y-subset-k2"),
    pytest.param(
        lambda: altsum_search(_col("theta"), 4, 4, Y_SUBSET, "all",
                              allow_k1_equal_1=True),
        ([], True, 164, 3, {"constraints_checked": 588}),
        id="altsum-theta-y-subset-k1"),
    pytest.param(
        lambda: altsum_search(_col("theta"), 4, 4, Y_BLOCK, "all",
                              allow_k1_equal_1=False),
        ([], True, 84, 2, {"constraints_checked": 144}),
        id="altsum-theta-y-block-k2"),
    pytest.param(
        lambda: altsum_search(_col("theta"), 4, 4, Y_BLOCK, "all",
                              allow_k1_equal_1=True),
        ([], True, 84, 2, {"constraints_checked": 144}),
        id="altsum-theta-y-block-k1"),
    pytest.param(
        lambda: altsum_search(_col("theta:stage1"), 8, 3, Y_BLOCK, "all"),
        ([[1, 8, 1], [2, 1, 8], [4, 1, 8], [5, 1, 8], [6, 1, 8], [8, 1, 8]],
         True,
         584,
         3,
         {"constraints_checked": 1088}),
        id="altsum-stage1-y-block-all"),
    pytest.param(
        lambda: altsum_search(_col("valmod:3@diff"), 6, 3, X_ALTERNATING,
                              "all"),
        ([], True, 41, 2, {"constraints_checked": 55}),
        id="altsum-diff-x-all"),
    pytest.param(
        lambda: altsum_search(_col("const"), 10, 6),
        ([[1, 2, 3, 4, 5, 6]], False, 6, 6, {"constraints_checked": 31}),
        id="altsum-const-first"),
    pytest.param(
        lambda: altsum_search(_col("dbl"), 8, 3, Y_BLOCK),
        ([[2, 6, 1]], False, 121, 3, {"constraints_checked": 224}),
        id="altsum-dbl-first-late-branch"),
    pytest.param(
        lambda: altsum_search(_col("valmod:3@sum"), 4, 5, Y_SUBSET, "all"),
        ([[1, 3, 3, 3, 3], [2, 3, 3, 3, 3], [3, 3, 3, 3, 3], [4, 3, 3, 3, 3]],
         True,
         356,
         5,
         {"constraints_checked": 944}),
        id="altsum-sum-y-subset-k2-deep"),
    pytest.param(
        lambda: altsum_search(_col("valmod:3@sum"), 4, 5, Y_SUBSET, "all",
                              allow_k1_equal_1=True),
        ([[3, 3, 3, 3, 3]], True, 176, 5, {"constraints_checked": 691}),
        id="altsum-sum-y-subset-k1-deep"),
    pytest.param(
        lambda: altsum_search(_col("valmod:3@sum"), 4, 5, Y_BLOCK, "all"),
        ([[1, 3, 3, 3, 3], [2, 3, 3, 3, 3], [3, 3, 3, 3, 3], [4, 3, 3, 3, 3]],
         True,
         116,
         5,
         {"constraints_checked": 336}),
        id="altsum-sum-y-block-deep"),
    pytest.param(
        lambda: altsum_search(_col("valmod:3@sum"), 16, 5, X_ALTERNATING,
                              "all"),
        ([[1, 4, 7, 10, 13],
          [1, 4, 7, 10, 16],
          [1, 4, 7, 13, 16],
          [1, 4, 10, 13, 16],
          [1, 7, 10, 13, 16],
          [2, 5, 8, 11, 14],
          [3, 6, 9, 12, 15],
          [4, 7, 10, 13, 16]],
         True,
         840,
         5,
         {"constraints_checked": 1972}),
        id="altsum-sum-x-deep"),
    pytest.param(
        lambda: altsum_search(_col("theta:full"), 96, 5, X_ALTERNATING, "all"),
        ([], True, 147_649, 3, {"constraints_checked": 290_772}),
        id="altsum-theta-x-blocks-at-scale"),
    pytest.param(
        lambda: altsum_search(_col("theta:stage1"), 64, 4, X_ALTERNATING,
                              "all"),
        ([], True, 47_362, 3, {"constraints_checked": 99_816}),
        id="altsum-stage1-x-blocks-at-scale"),
    pytest.param(
        lambda: altsum_search(_col("theta:full"), 24, 4, Y_BLOCK, "all"),
        ([], True, 14_424, 2, {"constraints_checked": 28_224}),
        id="altsum-theta-y-block-blocks-at-scale"),
    pytest.param(
        lambda: supermono_search(_word("periodic:ab"), _col("lenmod:2"), 3,
                                 2, 8),
        ([[1, "ab", "ab"]],
         False,
         11,
         2,
         {"colour_evaluations": 15, "unknown_aborts": 0}),
        id="supermono-lenmod-first"),
    pytest.param(
        lambda: supermono_search(_word("evper:c|ab"), _col("lenmod:2"), 4, 3,
                                 8, 64),
        ([[1, "ca", "ba", "ba"]],
         False,
         13,
         3,
         {"colour_evaluations": 20, "unknown_aborts": 0}),
        id="supermono-evper-first"),
    pytest.param(
        lambda: supermono_search(_word("periodic:ab"), _col("theta"), 3, 2, 8),
        ([], True, 108, 1, {"colour_evaluations": 108, "unknown_aborts": 0}),
        id="supermono-theta-first-empty"),
    pytest.param(
        lambda: supermono_search(_word(_FIB), _col("theta"), 3, 2, 8, 8,
                                 "all"),
        ([], True, 107, 1, {"colour_evaluations": 107, "unknown_aborts": 22}),
        id="supermono-fib-theta-unknown"),
    pytest.param(
        lambda: supermono_search(_word("prefix:abaab"), _col("lenmod:2"), 5,
                                 2, 6, mode="all"),
        ([[1, "ab", "aa"], [2, "ba", "ab"]],
         True,
         35,
         2,
         {"colour_evaluations": 42, "unknown_aborts": 0}),
        id="supermono-prefix-truncated"),
    pytest.param(
        lambda: hindman_search("a", _col("lenmod:2"), 3, 10),
        ([[2, 4, 6]],
         False,
         15,
         3,
         {"colour_evaluations": 24, "unknown_aborts": 0}),
        id="hindman-lenmod-first-late-branch"),
    pytest.param(
        lambda: hindman_search("a", _col("lenmod:2"), 3, 2),
        ([], True, 3, 1, {"colour_evaluations": 4, "unknown_aborts": 0}),
        id="hindman-lenmod-first-empty"),
    pytest.param(
        lambda: hindman_search("a", _col("lenmod:3"), 3, 9, mode="all"),
        ([[3, 6, 9]],
         True,
         48,
         3,
         {"colour_evaluations": 66, "unknown_aborts": 0}),
        id="hindman-lenmod-all"),
    pytest.param(
        lambda: hindman_search("ab", _col("theta"), 2, 5, x=_word(_FIB),
                               scan_bound=64, mode="all"),
        ([], True, 12, 1, {"colour_evaluations": 12, "unknown_aborts": 10}),
        id="hindman-theta-word-all"),
    pytest.param(
        lambda: hindman_search("ab", _col("theta"), 2, 8,
                               x=_word("periodic:ab"), scan_bound=64),
        ([], True, 36, 1, {"colour_evaluations": 37, "unknown_aborts": 0}),
        id="hindman-theta-word-first"),
    pytest.param(
        lambda: hindman_search("ab", _col("theta"), 3, 2400,
                               x=_word("periodic:ab"), scan_bound=8192),
        ([[37, 360, 2368]],
         False,
         273_094,
         3,
         {"colour_evaluations": 279_692, "unknown_aborts": 67}),
        id="hindman-theta-blocks-at-scale"),
    pytest.param(
        lambda: plus_pair_search(_col("valmod:2"), 3, 16),
        ([[2, 4, 8]], False, 123, 3, {"constraints_checked": 329}),
        id="plus-first-late-branch"),
    pytest.param(
        lambda: plus_pair_search(_col("theta"), 3, 12, "all"),
        ([], True, 173, 2, {"constraints_checked": 351}),
        id="plus-theta-all"),
    pytest.param(
        lambda: plus_pair_search(_col("valmod:3@diff"), 3, 14, "all"),
        ([[3, 6, 12]], True, 266, 3, {"constraints_checked": 574}),
        id="plus-diff-all"),
    pytest.param(
        lambda: q5_search(_col("base-lsnz:3"), "plain", 3, 5, "all"),
        ([[1, 2, 4],
          [1, 3, 3],
          [1, 3, 5],
          [2, 3, 3],
          [2, 4, 5],
          [3, 1, 5],
          [3, 4, 2],
          [3, 4, 5],
          [4, 3, 2],
          [4, 3, 3],
          [5, 3, 3]],
         True,
         80,
         3,
         {"sums_checked": 102}),
        id="q5-plain-all"),
    pytest.param(
        lambda: q5_search(_col("base-lsnz:3"), "a1free", 3, 5, "all"),
        ([], True, 5, 0, {"sums_checked": 10}),
        id="q5-a1free-all"),
    pytest.param(
        lambda: q5_search(_col("base-lsnz:3"), "akfree", 3, 5, "all"),
        ([], True, 5, 0, {"sums_checked": 10}),
        id="q5-akfree-all"),
    pytest.param(
        lambda: q5_search(_col("base-lsnz:3"), "with_gaps", 3, 5, "all"),
        ([[1, 3, 3], [2, 3, 3], [4, 3, 3], [5, 3, 3]],
         True,
         80,
         3,
         {"sums_checked": 106}),
        id="q5-with_gaps-all"),
    pytest.param(
        lambda: q5_search(_col("base-lsnz:3"), "plain", 3, 243),
        ([[1, 2, 4]], False, 7, 3, {"sums_checked": 9}),
        id="q5-plain-first"),
    pytest.param(
        lambda: q5_search(_col("base-lsnz:3"), "a1free", 3, 243),
        ([], True, 243, 0, {"sums_checked": 486}),
        id="q5-a1free-first-empty"),
    pytest.param(
        lambda: q5_search(_col("valmod:4"), "akfree", 3, 20),
        ([[4, 4, 4]], False, 12, 3, {"sums_checked": 20}),
        id="q5-akfree-first-late-branch"),
    # Twice the bound of the benchmark-sized Hindman referee test: the run's
    # one colour chain serves all 1,024 values of a_1.
    pytest.param(
        lambda: hindman_search("ab", _col("theta"), 4, 1024,
                               x=_word("periodic:ab"), mode="all"),
        ([], True, 636_843, 2,
         {"colour_evaluations": 644_076, "unknown_aborts": 0}),
        id="hindman-theta-chain-at-scale"),
    # The Fibonacci word scanned 64 letters deep for words of up to 80: 640
    # of the 1,298 UNKNOWN colours it asks for are of words past the scan,
    # which its memo colours but never files.
    pytest.param(
        lambda: supermono_search(_word(_FIB), _col("theta"), 40, 3, 80, 64,
                                 "all"),
        ([], True, 108_046, 2,
         {"colour_evaluations": 108_286, "unknown_aborts": 59_434}),
        id="supermono-fib-theta-past-the-scan"),
    # Both y forms at B 44, L 4: at this size y_subset's level-2 states with
    # equal y_1 + y_2 repeat the same fixing queries.
    pytest.param(
        lambda: altsum_search(_col("theta"), 44, 4, Y_SUBSET, "all"),
        ([], True, 3_835_260, 3, {"constraints_checked": 11_329_472}),
        id="altsum-theta-y-subset-at-scale"),
    pytest.param(
        lambda: altsum_search(_col("theta"), 44, 4, Y_BLOCK, "all"),
        ([], True, 87_164, 2, {"constraints_checked": 172_304}),
        id="altsum-theta-y-block-at-scale"),
]


@pytest.mark.parametrize("run, expected", _PINNED_OUTCOMES)
def test_search_outcomes_are_pinned(run, expected):
    assert _outcome(run()) == expected


def _pinned(row_id):
    """The outcome _PINNED_OUTCOMES pins for its row row_id."""
    return next(row.values[1] for row in _PINNED_OUTCOMES if row.id == row_id)


def test_benchmark_sized_supermono_outcome_is_the_referee_outcome():
    """The benchmark's fib_supermono pass, whose gate pins neither the
    colour evaluations nor the unknown aborts: every count is what checking
    one candidate at a time gives, the 84 unknown aborts included, which
    phi gives on words that no prefix table colours."""
    args = (_word(_FIB), _col("theta"), 24, 4, 100, 4096, "all")
    expected = ([], True, 121_327, 2,
                {"colour_evaluations": 122_084, "unknown_aborts": 84})
    assert _supermono_referee(*args) == expected
    assert _outcome(supermono_search(*args)) == expected


def test_benchmark_sized_altsum_outcome_is_the_referee_outcome():
    """The benchmark's altsum_theta pass, whose gate pins neither the
    depth nor the constraints checked: every count is what checking one
    candidate at a time gives, though most of its level-1 candidates are
    childless blocks."""
    args = (_col("theta"), 44, 4, X_ALTERNATING, "all")
    expected = ([], True, 14_234, 2, {"constraints_checked": 27_434})
    assert _altsum_referee(*args, False) == expected
    assert _outcome(altsum_search(*args)) == expected


def test_benchmark_sized_hindman_outcome_is_the_referee_outcome():
    """Under theta, ab in periodic:ab, n 4, bound 512: most level-1
    states reject every candidate in one block of a_1's chain, and every
    count is still what checking one candidate at a time gives."""
    args, expected = _HINDMAN_AB_512
    assert _hindman_referee(*args) == expected
    assert _outcome(hindman_search(*args)) == expected


def test_hindman_run_reads_one_colour_chain(monkeypatch):
    """The colour of u^s depends on s alone, so a run builds one chain,
    from the first key a child asks for (a_1 + v = 1 + 2), and reads each
    key once. Under theta, ab in periodic:ab, n 4, bound 512, that is the
    1,021 keys 3 .. 511 + 512, and the outcome is the referee's, as
    _HINDMAN_AB_512 pins it."""
    firsts, reads = [], []
    colour_chain = search._colour_chain

    def recording(colour_at, first):
        firsts.append(first)

        def reading(key):
            reads.append(key)
            return colour_at(key)
        return colour_chain(reading, first)

    monkeypatch.setattr(search, "_colour_chain", recording)
    args, expected = _HINDMAN_AB_512
    assert _outcome(hindman_search(*args)) == expected
    assert firsts == [3]
    assert reads == list(range(3, 1024))


def test_benchmark_sized_plus_outcome_is_the_referee_outcome():
    """Under theta:full, n 4, bound 120: every count is what checking one
    candidate at a time gives."""
    args = (_col("theta:full"), 4, 120, "all")
    expected = ([], True, 145_910, 2, {"constraints_checked": 423_090})
    assert _plus_referee(*args) == expected
    assert _outcome(plus_pair_search(*args)) == expected


def test_childless_blocks_alone_reach_depth_one():
    """Under theta with suffix bound 2, n 3 and len 6, no second factor of
    the Fibonacci word's suffixes shares its first factor's colour, so
    every first factor is a childless block: depth 1 comes from the
    blocks alone, and the counts are the one-candidate referee's."""
    args = (_word(_FIB), _col("theta"), 2, 3, 6, 64, "all")
    expected = ([], True, 42, 1,
                {"colour_evaluations": 42, "unknown_aborts": 0})
    assert _supermono_referee(*args) == expected
    assert _outcome(supermono_search(*args)) == expected
