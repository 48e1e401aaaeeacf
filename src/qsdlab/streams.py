"""Counter-based splittable random streams.

A :class:`Stream` is a deterministic sequence of draws addressed by
``(seed, stream_id, particle)``.  Streams never share state: splitting is
done by key derivation, not by jumping a shared generator, so any number of
streams can be consumed concurrently in any order with identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import _kernels as _k

__all__ = ["Stream", "substream"]


@dataclass
class Stream:
    """One addressable draw sequence.

    Parameters
    ----------
    key : int
        64-bit stream key, usually from :func:`substream`.
    counter : int
        Position in the sequence; advanced by every draw.
    """

    key: int
    counter: int = field(default=0)

    def u01(self) -> float:
        """Uniform draw on [0, 1)."""
        u = _k._u01_py(self.key, self.counter)
        self.counter += 1
        return u

    def normal(self) -> float:
        """Standard normal draw (consumes two counter positions)."""
        z = _k._normal_py(self.key, self.counter)
        self.counter += 2
        return z

    def pick(self, n: int) -> int:
        """Uniform index in ``range(n)``."""
        j = int(self.u01() * n)
        return min(j, n - 1)

    def poisson(self, mean: float) -> int:
        """Poisson draw by Knuth's product method (mean should be modest)."""
        if mean <= 0.0:
            return 0
        log_l = -mean
        k = 0
        acc = 0.0
        while True:
            acc += math.log(_k._u01_open_py(self.key, self.counter))
            self.counter += 1
            if acc <= log_l:
                return k
            k += 1


def substream(seed: int, stream_id: int, particle: int = 0) -> Stream:
    """Stream addressed by (seed, stream id, particle id)."""
    return Stream(_k.derive_key(seed, stream_id, particle))
