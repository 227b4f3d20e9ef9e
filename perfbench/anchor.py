"""A fixed reference computation that tracks how fast the machine runs right now.

On a shared virtual machine the same engine call can take 1.5x longer for a
minute or more, and CPU time stretches with wall time, so the slowdown comes
from the shared hardware rather than from descheduling.  The benchmark times this
anchor next to every operation and scales the operation's time by how far the
anchor ran from its reference time.  The anchor does what the engine's hot
loops do (depth-first searches that stop at a "pebbled" vertex, then a
backward closure over in-edge sets) on a fixed random graph, so contention
slows it about as much as it slows the engine.  It shares no code with the
engine, so a change to the engine never moves it.
"""

from __future__ import annotations

import random
import time

# The anchor's time on the machine where the benchmark's first numbers were
# measured (2-vCPU Intel Xeon VM, Python 3.11, during a fast phase).  Scaled
# times are seconds as that machine would report them at that speed.
REFERENCE_S = 0.0030

# The anchor's shape; REFERENCE_S was measured with exactly these values.
VERTICES = 3000
PEBBLED = 30
SEARCHES = 120


class Anchor:
    """A fixed pebble-search-like workload on a seeded random digraph."""

    def __init__(self):
        n = VERTICES
        rng = random.Random(5)
        self.outs = [[rng.randrange(n), rng.randrange(n)] for _ in range(n)]
        self.pebble = [False] * n
        for v in rng.sample(range(n), PEBBLED):
            self.pebble[v] = True
        self.ins: list[set[int]] = [set() for _ in range(n)]
        for v, row in enumerate(self.outs):
            for w in row:
                self.ins[w].add(v)
        self.sources = [rng.randrange(n) for _ in range(SEARCHES)]
        self._last: float | None = None

    def _run(self) -> int:
        outs, pebble = self.outs, self.pebble
        hops = 0
        for src in self.sources:
            seen = {src}
            parent: dict[int, int] = {}
            stack = [src]
            found = -1
            while stack and found < 0:
                x = stack.pop()
                for y in outs[x]:
                    if y not in seen:
                        seen.add(y)
                        parent[y] = x
                        if pebble[y]:
                            found = y
                            break
                        stack.append(y)
            while found in parent:
                found = parent[found]
                hops += 1
        closed = {v for v, p in enumerate(pebble) if p}
        stack = list(closed)
        while stack:
            y = stack.pop()
            for x in self.ins[y]:
                if x not in closed:
                    closed.add(x)
                    stack.append(x)
        return hops + len(closed)

    def time(self) -> float:
        """Seconds one pass of the anchor takes now."""
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0

    def mark(self) -> float:
        """Run one pass and return the scale factor for the interval since the
        previous mark: REFERENCE_S over the mean of the two passes around it."""
        now = self.time()
        prev = now if self._last is None else self._last
        self._last = now
        return 2 * REFERENCE_S / (prev + now)
