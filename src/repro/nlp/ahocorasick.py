"""Dependency-free Aho–Corasick automaton over token streams.

The subject spotter has to find every occurrence of every subject term
(and synonym) in every document.  The naive approach probes a dict with
an n-gram key tuple for each (position, length) pair — ``O(tokens ×
max_term_len)`` tuple constructions per sentence, which is the
throughput ceiling of the whole pipeline.  This module provides the
standard fix: one trie over *all* patterns with failure links, so a
single left-to-right pass over the token stream reports every match.

The automaton works on sequences of already-lowercased token strings
(one symbol per token), not characters: subject terms are whitespace-
split into token tuples exactly like the historical spotter's keys, so
token-boundary semantics ("camera" never matches inside "cameraman")
are inherited from the tokenizer rather than re-implemented here.

Match semantics are chosen to be byte-identical to the historical
n-gram spotter (see ``tests/support/reference.py``):

* at each start position only the *longest* pattern counts
  ("Sony PDA" beats "Sony");
* matches are selected greedily left to right and never overlap — after
  emitting a match of length L at position i, scanning resumes at i+L.
"""

from __future__ import annotations

from typing import Any, Iterable


class TokenAutomaton:
    """Multi-pattern matcher over token sequences (Aho–Corasick).

    Patterns are tuples of lowercase token strings; each carries an
    opaque payload returned with its matches.  Duplicate patterns keep
    the *first* payload registered (deterministic first-wins), mirroring
    the spotter's collision policy.
    """

    __slots__ = ("_goto", "_fail", "_out", "_olink", "_compiled", "_num_patterns")

    def __init__(self) -> None:
        # Node 0 is the root.  _out[s] is (pattern_length, payload) when
        # state s is terminal, else None.  _olink[s] points at the
        # nearest terminal proper-suffix state (the "output link").
        self._goto: list[dict[str, int]] = [{}]
        self._fail: list[int] = [0]
        self._out: list[tuple[int, Any] | None] = [None]
        self._olink: list[int] = [0]
        self._compiled = False
        self._num_patterns = 0

    # -- construction -------------------------------------------------------

    def add(self, pattern: tuple[str, ...], payload: Any) -> bool:
        """Register *pattern*; returns False when it was already present."""
        if self._compiled:
            raise RuntimeError("cannot add patterns after compile()")
        if not pattern:
            return False
        state = 0
        for symbol in pattern:
            nxt = self._goto[state].get(symbol)
            if nxt is None:
                nxt = len(self._goto)
                self._goto.append({})
                self._fail.append(0)
                self._out.append(None)
                self._olink.append(0)
                self._goto[state][symbol] = nxt
            state = nxt
        if self._out[state] is not None:
            return False
        self._out[state] = (len(pattern), payload)
        self._num_patterns += 1
        return True

    def compile(self) -> "TokenAutomaton":
        """Compute failure and output links (BFS over the trie)."""
        if self._compiled:
            return self
        queue: list[int] = []
        for state in self._goto[0].values():
            self._fail[state] = 0
            queue.append(state)
        head = 0
        while head < len(queue):
            state = queue[head]
            head += 1
            fail = self._fail[state]
            self._olink[state] = (
                fail if self._out[fail] is not None else self._olink[fail]
            )
            for symbol, child in self._goto[state].items():
                queue.append(child)
                # Follow failure links until a state with a transition on
                # this symbol exists (the root accepts everything).
                f = fail
                while f and symbol not in self._goto[f]:
                    f = self._fail[f]
                self._fail[child] = self._goto[f].get(symbol, 0)
                if self._fail[child] == child:
                    self._fail[child] = 0
        self._compiled = True
        return self

    def __len__(self) -> int:
        return self._num_patterns

    # -- matching -----------------------------------------------------------

    def longest_starts(self, symbols: list[str]) -> dict[int, tuple[int, Any]]:
        """Longest match per start position: ``{start: (length, payload)}``.

        One left-to-right walk of the automaton.  A match ending at
        position *p* that starts at *s* has length ``p - s + 1``, so a
        later match from the same start is always the longer one and
        simply replaces the earlier.
        """
        if not self._compiled:
            raise RuntimeError("compile() must run before matching")
        goto = self._goto
        fail = self._fail
        out = self._out
        olink = self._olink
        best: dict[int, tuple[int, Any]] = {}
        state = 0
        for position, symbol in enumerate(symbols):
            while state and symbol not in goto[state]:
                state = fail[state]
            state = goto[state].get(symbol, 0)
            s = state if out[state] is not None else olink[state]
            while s:
                hit = out[s]
                best[position - hit[0] + 1] = hit  # type: ignore[index]
                s = olink[s]
        return best

    def leftmost_longest(self, symbols: list[str]) -> list[tuple[int, int, Any]]:
        """Greedy non-overlapping selection: the historical spotter's walk.

        Scan left to right; at each position take the longest match
        starting there (if any) and jump past it.  Returns
        ``[(start, length, payload), ...]`` in textual order.
        """
        best = self.longest_starts(symbols)
        selected: list[tuple[int, int, Any]] = []
        i = 0
        n = len(symbols)
        while i < n:
            hit = best.get(i)
            if hit is None:
                i += 1
                continue
            length, payload = hit
            selected.append((i, length, payload))
            i += length
        return selected


def build_automaton(
    patterns: Iterable[tuple[tuple[str, ...], Any]]
) -> TokenAutomaton:
    """Compile an automaton from ``(pattern, payload)`` pairs (first wins)."""
    automaton = TokenAutomaton()
    for pattern, payload in patterns:
        automaton.add(pattern, payload)
    return automaton.compile()
