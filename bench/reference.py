"""Independent reference answers for the benchmark's correctness gate.

Nothing here imports ``ppheap``: windows are prev-encoded from scratch by
this module's own code, occurrences are found by comparing window encodings,
and heap statistics come from inserting each suffix into a plain trie. Two
shortcuts keep the cost acceptable at benchmark sizes, and both are checked
against the plain versions at small n by ``smoke.py``:

* general texts bucket windows by the encoding of their first few labels and
  compare the rest label by label;
* exactly periodic texts are handled per phase, since windows that start a
  whole number of periods apart hold identical symbols.
"""

from __future__ import annotations

from collections import defaultdict


def encode(symbols, is_param) -> list:
    """Prev-encoding: constants stay, a parameter becomes the distance back to
    its previous occurrence (0 for the first)."""
    last: dict = {}
    out = []
    for i, s in enumerate(symbols):
        if is_param(s):
            j = last.get(s)
            out.append(0 if j is None else i - j)
            last[s] = i
        else:
            out.append(s)
    return out


def digest(positions: list[int]) -> list[int]:
    """Compact form of an answer: (count, hash of the position tuple)."""
    return [len(positions), hash(tuple(positions))]


def window_key(enc: list, i: int, length: int) -> tuple:
    """Encoding of the window of ``length`` symbols starting at 0-based i."""
    return tuple(0 if type(c) is int and c > j else c
                 for j, c in enumerate(enc[i:i + length]))


class TextReference:
    """Occurrence lists and heap statistics for one text."""

    def __init__(self, symbols, is_param, key_len: int, period: int | None = None):
        self.symbols = list(symbols)
        self.is_param = is_param
        self.enc = encode(self.symbols, is_param)
        self.n = len(self.symbols)
        self.key_len = key_len
        self.period = period
        self._buckets: dict | None = None
        self._cache: dict = {}
        self._stats: dict | None = None

    def occurrences(self, pattern) -> list[int]:
        """1-based starts of every window that matches the pattern."""
        want = tuple(encode(pattern, self.is_param))
        hit = self._cache.get(want)
        if hit is None:
            if self.period is None:
                hit = self._bucket_occurrences(want)
            else:
                hit = self._periodic_occurrences(want)
            self._cache[want] = hit
        return hit

    def _bucket_occurrences(self, want: tuple) -> list[int]:
        m = len(want)
        if m > self.n:
            return []
        k = self.key_len
        if m < k:
            return [i + 1 for i in range(self.n - m + 1)
                    if window_key(self.enc, i, m) == want]
        if self._buckets is None:
            buckets = defaultdict(list)
            for i in range(self.n - k + 1):
                buckets[window_key(self.enc, i, k)].append(i)
            self._buckets = buckets
        enc = self.enc
        last_start = self.n - m
        out = []
        for i in self._buckets.get(want[:k], ()):
            if i > last_start:
                break
            for j in range(k, m):
                c = enc[i + j]
                if type(c) is int and c > j:
                    c = 0
                if c != want[j]:
                    break
            else:
                out.append(i + 1)
        return out

    def _periodic_occurrences(self, want: tuple) -> list[int]:
        m, n, p = len(want), self.n, self.period
        phases = [r for r in range(min(p, n - m + 1))
                  if tuple(encode(self.symbols[r:r + m], self.is_param)) == want]
        return sorted(i + 1 for r in phases for i in range(r, n - m + 1, p))

    def heap_stats(self) -> dict:
        if self._stats is None:
            if self.period is None:
                self._stats = naive_heap_stats(self.enc)
            else:
                self._stats = periodic_heap_stats(self.symbols, self.is_param, self.period)
        return self._stats


def naive_heap_stats(enc: list) -> dict:
    """n, nodes, double and depth of the position heap, by plain insertion.

    Suffixes are inserted longest first; each walks the trie along its own
    window encoding and adds one node at the first missing label. A suffix
    whose whole encoding is already present is stored at an existing node,
    which makes that node a double node. Cost is the total insertion depth.
    """
    n = len(enc)
    edges: dict = {}
    depth_of = [0]
    double = 0
    for i in range(n):
        v = 0
        for j in range(n - i):
            c = enc[i + j]
            if type(c) is int and c > j:
                c = 0
            u = edges.get((v, c))
            if u is None:
                edges[(v, c)] = len(depth_of)
                depth_of.append(j + 1)
                break
            v = u
        else:
            double += 1
    return {"n": n, "nodes": len(depth_of), "double": double, "depth": max(depth_of)}


def periodic_heap_stats(symbols, is_param, period: int) -> dict:
    """Heap statistics of an exactly periodic text without walking the trie.

    Suffix i is a prefix of E_r, the encoding of the suffix at its phase
    r = i mod period. The trie's nodes on E_r form a prefix-closed chain, and
    a prefix of E_r of length d is present exactly when some phase s already
    grew its chain to depth >= d and E_s agrees with E_r on d labels. So each
    insertion needs only the chain heights and the pairwise common-prefix
    lengths of the period encodings.
    """
    n = len(symbols)
    p = min(period, n)
    encs = [encode(symbols[r:], is_param) for r in range(p)]
    lcp = [[0] * p for _ in range(p)]
    for r in range(p):
        for s in range(p):
            a, b = encs[r], encs[s]
            k, top = 0, min(len(a), len(b))
            while k < top and a[k] == b[k]:
                k += 1
            lcp[r][s] = k
    height = [0] * p
    nodes, double, depth = 1, 0, 0
    for i in range(n):
        r = i % p
        present = max(min(height[s], lcp[r][s]) for s in range(p))
        if present >= n - i:
            double += 1
            continue
        height[r] = present + 1
        nodes += 1
        depth = max(depth, present + 1)
    return {"n": n, "nodes": nodes, "double": double, "depth": depth}
