"""Per-layer tracing from outside the library.

The tracer replaces selected library functions, in the module namespaces
where their callers look them up, with wrappers that time and count the
calls. Nothing in the library changes. Spans are aggregated per name in
memory as they close (calls, total time, self time) and handed out when
the traced pass ends; no I/O happens while the pass runs.

Self time is a span's duration minus the durations of the spans it
caused, which are the spans that open while it is the innermost open span
of the same thread. Each thread keeps its own stack and aggregates, so
under a thread pool the self times are per-thread wall times and sum to
roughly the thread count times the wall.

A target that does not exist (a module that fails to import, or a name a
later refactor removed or renamed) is recorded in ``absent`` and skipped;
its metrics then read zero instead of the run failing.
"""

from __future__ import annotations

import functools
import importlib
import threading
from time import perf_counter

# (module, attribute, span name). Every namespace a caller looks a function
# up in is listed, so calls are traced whichever module makes them.
SPANS = (
    ("supermono.bits", "jumps", "bits.jumps"),
    ("supermono.bits", "intervals", "bits.intervals"),
    ("supermono.bits", "common_fragments", "bits.common_fragments"),
    ("supermono.pair_colouring", "colour_pair", "pair_colouring.colour_pair"),
    ("supermono.factor_colouring", "colour_pair", "pair_colouring.colour_pair"),
    ("supermono.search", "colour_pair", "pair_colouring.colour_pair"),
    ("supermono.verify", "colour_pair", "pair_colouring.colour_pair"),
    ("supermono.words", "first_occurrence", "words.first_occurrence"),
    ("supermono.factor_colouring", "first_occurrence", "words.first_occurrence"),
    ("supermono.factor_colouring", "phi", "factor_colouring.phi"),
    ("supermono.search", "phi", "factor_colouring.phi"),
    ("supermono.search", "_constraints_with_top", "search.constraints"),
    ("supermono.search", "altsum_search", "search.altsum_search"),
    ("supermono.search", "supermono_search", "search.supermono_search"),
    ("supermono.verify", "run_suite", "verify.run_suite"),
    ("supermono.report", "to_json", "report.to_json"),
)

# Word sources copy letters out of their prefix on every prefix() call; the
# count of letters handed out is the cost a first-occurrence index removes.
PREFIX_COUNTER = "words.prefix.letters_copied"


_MISSING = object()


def _lookup(module_name: str, attr: str):
    try:
        return getattr(importlib.import_module(module_name), attr)
    except (ImportError, AttributeError):
        return _MISSING


class _ThreadState:
    def __init__(self):
        self.stack: list[float] = []
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.pairs: set = set()


class Tracer:
    """Install with ``install()``, run the pass, then ``uninstall()`` and
    read ``stats()``, ``counters()`` and ``distinct_pairs()``."""

    def __init__(self, spans=SPANS):
        self._targets = spans
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        observers = self._observers()
        for module_name, attr, span in self._targets:
            original = _lookup(module_name, attr)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patch(importlib.import_module(module_name), attr,
                        self._span(span, original, observers.get(span)))
        self._install_prefix_counter()

    def _install_prefix_counter(self) -> None:
        base = _lookup("supermono.words", "WordSource")
        if base is _MISSING:
            self.absent.append("supermono.words.WordSource.prefix")
            return
        classes, seen = [base], set()
        while classes:
            cls = classes.pop()
            if cls in seen:
                continue
            seen.add(cls)
            classes.extend(cls.__subclasses__())
            if "prefix" in cls.__dict__:
                self._patch(cls, "prefix", self._letter_counter(cls.prefix))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, observe=None):
        state_of = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                entry = state.stats.get(name)
                if entry is None:
                    entry = state.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - children
            if observe is not None:
                observe(state, args, kwargs, result)
            return result

        return wrapper

    def _letter_counter(self, fn):
        state_of = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters = state_of().counters
            counters[PREFIX_COUNTER] = counters.get(PREFIX_COUNTER, 0) + len(result)
            return result

        return wrapper

    @staticmethod
    def _observers():
        """Outcome counters taken at the same boundaries as the spans. The
        library's sentinels are looked up once; a missing one counts
        nothing."""
        unresolved = _lookup("supermono.words", "UNRESOLVED")
        not_a_factor = _lookup("supermono.words", "NOT_A_FACTOR")
        unknown = _lookup("supermono.factor_colouring", "UNKNOWN")

        def bump(state, key, amount=1):
            state.counters[key] = state.counters.get(key, 0) + amount

        def colour_pair(state, args, kwargs, result):
            state.pairs.add(args + tuple(sorted(kwargs.items())))

        def first_occurrence(state, args, kwargs, result):
            if result is unresolved:
                bump(state, "words.first_occurrence.unresolved")
            elif result is not_a_factor:
                bump(state, "words.first_occurrence.not_a_factor")

        def phi(state, args, kwargs, result):
            if result is unknown:
                bump(state, "factor_colouring.phi.unknown")

        def to_json(state, args, kwargs, result):
            bump(state, "report.bytes", len(result.encode()))

        return {
            "pair_colouring.colour_pair": colour_pair,
            "words.first_occurrence": first_occurrence,
            "factor_colouring.phi": phi,
            "report.to_json": to_json,
        }

    # -- results -----------------------------------------------------------

    def stats(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total seconds, self seconds), all threads."""
        out: dict[str, list] = {}
        for state in self._states:
            for name, (calls, total, self_time) in state.stats.items():
                entry = out.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += total
                entry[2] += self_time
        return {name: tuple(entry) for name, entry in out.items()}

    def counters(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for state in self._states:
            for key, value in state.counters.items():
                out[key] = out.get(key, 0) + value
        return out

    def distinct_pairs(self) -> int:
        pairs: set = set()
        for state in self._states:
            pairs |= state.pairs
        return len(pairs)
