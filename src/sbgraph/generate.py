"""Deterministic random-graph generation.

The random stream is splitmix64: state advances by the golden-gamma
constant and each output is the finalizer mix of the new state.  Both the
state walk and the mix are 64-bit integer arithmetic (vectorized over
numpy uint64), and floats are derived as (z >> 11) * 2**-53, which is
exact in IEEE doubles.  A seed therefore yields the same stream on every
platform, bit for bit.

numpy is imported by the functions that use it, not by this module, so
`import sbgraph` and every command that generates nothing do not load it.
"""

from __future__ import annotations

from .connectivity import is_strongly_biconnected
from .errors import GenerationBudgetError, GuardError
from .graph import Digraph

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TO_FLOAT = 2.0 ** -53
# Largest n * (n - 1) sampled (n = 1024).  Each draw holds several 8-byte
# arrays with one entry per ordered pair, about 30 MB at this budget, and a
# dense draw about 200 bytes of Python objects per arc.
MAX_PAIRS = 1024 * 1023


class SplitMix64:
    """splitmix64 stream with block output."""

    def __init__(self, seed):
        self._state = seed & _MASK

    def next_block(self, count):
        """Next `count` raw 64-bit outputs as a uint64 array."""
        import numpy as np

        with np.errstate(over="ignore"):
            steps = np.arange(1, count + 1, dtype=np.uint64)
            z = np.uint64(self._state) + steps * np.uint64(_GAMMA)
            self._state = (self._state + count * _GAMMA) & _MASK
            z ^= z >> np.uint64(30)
            z *= np.uint64(_MIX1)
            z ^= z >> np.uint64(27)
            z *= np.uint64(_MIX2)
            z ^= z >> np.uint64(31)
        return z

    def floats(self, count):
        """Next `count` uniforms in [0, 1), 53-bit resolution."""
        import numpy as np

        return (self.next_block(count) >> np.uint64(11)) * _TO_FLOAT

    def u64(self):
        return int(self.next_block(1)[0])

    def below(self, bound):
        """Integer in [0, bound) by modulo reduction (documented bias is
        irrelevant here; only determinism matters)."""
        return self.u64() % bound

    def shuffle(self, items):
        """In-place Fisher-Yates driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def _sample_arcs(rng, n, p):
    """One Erdos-Renyi draw: every ordered pair (u, v), u != v, kept with
    probability p.  Pair k maps to u = k // (n-1) and v skipping u."""
    import numpy as np

    total = n * (n - 1)
    if p >= 1.0:
        ks = np.arange(total)
    else:
        ks = np.nonzero(rng.floats(total) < p)[0]
    u = ks // (n - 1)
    r = ks % (n - 1)
    v = r + (r >= u)
    return u.astype(int), v.astype(int)


def gen_random_sb(n, p, seed, max_tries=20000):
    """Rejection-sample an Erdos-Renyi digraph until it is strongly
    biconnected.

    Same seed, same graph, on every platform.  Raises
    GenerationBudgetError when max_tries samples all fail, which is the
    expected outcome for densities too low to ever connect, and GuardError
    when n * (n - 1) exceeds MAX_PAIRS.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if n * (n - 1) > MAX_PAIRS:
        raise GuardError(
            f"n={n} means {n * (n - 1)} vertex pairs to sample, more than "
            f"the budget of {MAX_PAIRS} (n <= 1024)"
        )
    import numpy as np

    rng = SplitMix64(seed)
    for _ in range(max_tries):
        u, v = _sample_arcs(rng, n, p)
        # Cheap necessary-condition screens before the full check: strong
        # connectivity needs out- and in-degree >= 1 everywhere (so at
        # least n arcs overall).
        if len(u) < n:
            continue
        outd = np.bincount(u, minlength=n)
        ind = np.bincount(v, minlength=n)
        if outd.min() < 1 or ind.min() < 1:
            continue
        g = Digraph._from_valid(n, list(zip(u.tolist(), v.tolist())))
        if is_strongly_biconnected(g):
            return g
    raise GenerationBudgetError(
        f"no strongly biconnected graph found in {max_tries} samples "
        f"(n={n}, p={p}, seed={seed}); p is probably too small"
    )
