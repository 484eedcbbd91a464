"""Deterministic, named random-number streams.

Long-horizon Monte-Carlo studies need reproducibility *and* stream
independence: adding a new stochastic subsystem must not perturb the draw
sequence of existing ones.  ``RandomStreams`` derives one independent
``numpy.random.Generator`` per (seed, name) pair by feeding the name
bytes themselves into ``SeedSequence`` entropy, so distinct names are
provably distinct — no lossy 32-bit hashing in between.

A stream that a hot path draws one scaled exponential at a time from can
be *block-drawn* instead: :meth:`RandomStreams.exponentials` hands out
an :class:`ExponentialDrawer` that fills ``EXPONENTIAL_BLOCK`` standard
exponentials per numpy call and scales them one by one in Python.  numpy
computes ``exponential(scale)`` as ``scale * standard_exponential()``
with the same ziggurat, and the array fill draws in the same order, so
``drawer.draw(s)`` is bit-identical to ``float(gen.exponential(s))``
draw for draw.  The block reads ahead of what has been consumed, so a
block-drawn stream is exclusive: once claimed, :meth:`RandomStreams.get`
refuses its name, and a name already handed out by ``get`` cannot be
claimed — nothing can interleave draws with the buffered block.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List

import numpy as np

#: Standard exponentials drawn per refill of an :class:`ExponentialDrawer`.
EXPONENTIAL_BLOCK = 1024


class ExponentialDrawer:
    """Scaled exponential draws from one generator, filled a block at a time.

    ``draw(scale)`` returns exactly what ``float(generator.exponential(
    scale))`` would have returned at the same point of the stream, but
    costs a list index and one multiply instead of a numpy call.  Only
    :meth:`RandomStreams.exponentials` creates these.
    """

    __slots__ = ("_generator", "_block", "_next")

    def __init__(self, generator: np.random.Generator) -> None:
        self._generator = generator
        self._block: List[float] = []
        self._next = 0

    def draw(self, scale: float) -> float:
        """The next exponential variate with mean ``scale``."""
        index = self._next
        block = self._block
        if index == len(block):
            block = self._block = self._generator.standard_exponential(
                EXPONENTIAL_BLOCK
            ).tolist()
            index = 0
        self._next = index + 1
        return scale * block[index]


class RandomStreams:
    """A family of independent, reproducible random generators.

    Each named stream is seeded from the root seed combined with the raw
    bytes of the stream name, so the stream a subsystem sees depends only
    on the root seed and its own name — never on which other subsystems
    exist or the order in which they were created.  Because the full name
    enters the seed material (length-prefixed, not hashed to 32 bits),
    two distinct names can never alias the same generator.

    >>> streams = RandomStreams(seed=42)
    >>> a = streams.get("devices").random()
    >>> b = RandomStreams(seed=42).get("devices").random()
    >>> a == b
    True
    """

    def __init__(self, seed: int = 0) -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._drawers: Dict[str, ExponentialDrawer] = {}

    def _derive(self, name: str) -> np.random.Generator:
        if not name:
            raise ValueError("stream name must be non-empty")
        raw = name.encode("utf-8")
        # The length word keeps names with leading NUL bytes distinct
        # from their stripped forms.
        sequence = np.random.SeedSequence(
            entropy=(self.seed, len(raw), int.from_bytes(raw, "big"))
        )
        return np.random.default_rng(sequence)

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Raises ``ValueError`` if ``name`` is block-drawn (see
        :meth:`exponentials`).
        """
        generator = self._streams.get(name)
        if generator is None:
            if name in self._drawers:
                raise ValueError(
                    f"stream {name!r} is block-drawn through exponentials(); "
                    f"get() would interleave draws with its buffered block"
                )
            generator = self._derive(name)
            self._streams[name] = generator
        return generator

    def exponentials(self, name: str) -> ExponentialDrawer:
        """Claim ``name`` for block-drawn exponentials; memoised per name.

        Every caller of the same name shares one drawer, so their draws
        interleave in call order exactly as calls to
        ``get(name).exponential(scale)`` would.  Raises ``ValueError`` if
        ``get(name)`` has already handed the generator out.
        """
        drawer = self._drawers.get(name)
        if drawer is None:
            if name in self._streams:
                raise ValueError(
                    f"stream {name!r} was handed out by get(); it cannot be "
                    f"block-drawn without reordering its draws"
                )
            drawer = ExponentialDrawer(self._derive(name))
            self._drawers[name] = drawer
        return drawer

    def fork(self, index: int) -> "RandomStreams":
        """Derive a distinct stream family, e.g. one per Monte-Carlo run.

        The child seed is a 128-bit SHA-256 digest of the parent seed and
        the fork index.  Because the parent seed already encodes *its*
        lineage the same way, fork-of-fork chains stay distinct: two
        different fork paths collide only with ~2**-64 probability,
        unlike a 32-bit mix.  The child is fully described by its integer
        ``seed``, so a family can be reconstructed in another process
        from that one number.
        """
        if index < 0:
            raise ValueError(f"fork index must be non-negative, got {index}")
        material = f"fork:{self.seed}:{index}".encode("utf-8")
        mixed = int.from_bytes(hashlib.sha256(material).digest()[:16], "big")
        return RandomStreams(seed=mixed)

    def names(self) -> Iterator[str]:
        """Iterate over the names of streams created so far."""
        return iter(sorted([*self._streams, *self._drawers]))

    def __repr__(self) -> str:
        count = len(self._streams) + len(self._drawers)
        return f"RandomStreams(seed={self.seed}, streams={count})"
