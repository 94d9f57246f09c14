"""Deterministic, platform-independent randomness for all sampling in hyperlift.

Everything random in this package is driven by SplitMix64 streams derived
from a user-supplied 64-bit seed.  The stream-splitting rule is:

    substream(seed, *tags) = SplitMix64 stream seeded with mix64(seed, *tags)

where ``mix64`` folds each integer tag through one SplitMix64 step.  Rank
space for hyperedge generation is partitioned into fixed blocks of
``BLOCK_SIZE`` consecutive ranks; block b is sampled from
``substream(seed, GEN_TAG, b)``, so blocks can be generated in any order
(or in parallel) with results identical to sequential generation.

The first draw of a full block's stream decides whether the block keeps
any rank: a block whose first 64-bit output clears an integer cut, computed
once per call, is empty and is skipped without building its stream.  Those
first outputs are computed for 4096 blocks at a time, one block per 128-bit
lane of a single Python int, so an empty block costs a 4096th share of
about thirty-five big-int operations instead of a hash of its own.  The
lanes pass through each block's stream seed ``mix64(seed, GEN_TAG, b)`` on
the way to its first output, so a live block's stream starts from the seed
its lane already holds instead of hashing it again.  Every other block runs
its full draw sequence, so the ranks are the same as walking every block's
stream.  ``bernoulli_ranks`` is the one sampler:
its ``keep`` test thins the ranks to non-uniform rates.

Floating-point draws are ``(x >> 11) * 2**-53`` from 64-bit outputs, i.e.
uniform on [0, 1) with 53 bits, identical on any IEEE-754 platform.
"""

from __future__ import annotations

import functools
import math
from itertools import compress

_MASK64 = (1 << 64) - 1

# Tags naming the independent substreams of one seed.
GEN_TAG = 0x67656E  # hyperedge-rank blocks
SIGMA_TAG = 0x736967  # HSBM label assignment
TRIAL_TAG = 0x747269  # per-trial / per-replicate derivation

BLOCK_SIZE = 1 << 16

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_EMPTY_MARGIN = 1 << 24  # draws between the empty-block threshold and the cut
_CHUNK = 1 << 12  # rank blocks per lane-parallel empty-block test


def _splitmix64(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 state, returning (new_state, output)."""
    state = (state + _GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return state, z ^ (z >> 31)


def mix64(*values: int) -> int:
    """Fold integers into one 64-bit value (the substream derivation rule)."""
    state = 0x243F6A8885A308D3  # pi, to avoid the all-zero fixpoint
    for v in values:
        state = (state ^ (v & _MASK64)) & _MASK64
        state, _ = _splitmix64(state)
    _, out = _splitmix64(state)
    return out


class Stream:
    """A single SplitMix64 stream."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def u64(self) -> int:
        self._state, out = _splitmix64(self._state)
        return out

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (exact, unbiased)."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        nbits = (n - 1).bit_length()
        while True:
            r = self.u64() >> (64 - nbits) if nbits else 0
            if r < n:
                return r

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def substream(seed: int, *tags: int) -> Stream:
    return Stream(mix64(seed, *tags))


def _live_blocks(seed: int, total: int, log1mp: float | None):
    """(index, stream seed), in order, of the rank blocks that may keep a rank.

    A full block is empty exactly when the first gap drawn from its stream
    reaches past it, and that gap grows with the draw's 53-bit integer
    ``x = u64 >> 11``.  So full blocks whose first output is at least
    ``_empty_cut`` are skipped without building their stream.  The first
    outputs of up to ``_CHUNK`` consecutive full blocks are computed at once,
    one block per 128-bit lane of one int: ``mix64(seed, GEN_TAG, b)`` and
    one SplitMix64 step, each lane masked to 64 bits before every multiply.
    Lane value z then becomes ``2**64 + cut - 1 - z``, whose bit 64 is set
    exactly when z < cut, and those bits pick the live blocks.  A live full
    block comes with its stream seed ``mix64(seed, GEN_TAG, b)``, the
    lanes' intermediate value, read in the same pass as its live bit; the
    last partial block, and every block when there is no cut, come with
    None.  The caller walks each yielded block with the unchanged draw
    sequence.
    """
    nfull, rest = divmod(total, BLOCK_SIZE)
    cut = None if log1mp is None or nfull == 0 else _empty_cut(log1mp)
    if cut is None:
        for b in range(nfull + (rest > 0)):
            yield b, None
        return
    # fold is mix64's state after absorbing seed and GEN_TAG; mix64(seed,
    # GEN_TAG, b) is one SplitMix64 output from state (fold ^ b) + gamma, and
    # the block stream's first output is one more step from there.
    fold = 0x243F6A8885A308D3
    for v in (seed, GEN_TAG):
        fold = ((fold ^ (v & _MASK64)) + _GAMMA) & _MASK64
    width = 0
    for lo in range(0, nfull, _CHUNK):
        n = min(_CHUNK, nfull - lo)
        if n != width:  # the first chunk, and a shorter last one
            width, keep = n, (1 << 128 * n) - 1
            ones, steps = (c & keep for c in _lane_constants())
            low, salt, gamma, gamma2, top, flag = (
                c * ones
                for c in (_MASK64, fold, _GAMMA, 2 * _GAMMA & _MASK64, (1 << 64) + cut - 1, 1 << 64)
            )
        m = _mix_lanes(((lo * ones + steps) ^ salt) + gamma2 & low, low)
        z = _mix_lanes(m + gamma & low, low)
        # each lane: the live bit at bit 64 over the block's stream seed
        lanes = ((top - z) & flag | m).to_bytes(16 * n, "little")
        for i in compress(range(n), lanes[8::16]):
            yield lo + i, int.from_bytes(lanes[16 * i : 16 * i + 8], "little")
    if rest:
        yield nfull, None


@functools.cache
def _lane_constants() -> tuple[int, int]:
    """(ONES, STEPS) for _CHUNK lanes of 128 bits: 1 and i in lane i.

    A lane is twice a 64-bit word wide, so a 64x64-bit product never leaves
    it.  Built with explicit byte order, so the lanes are the same on any
    platform, and on first use, so that an import that never samples a full
    block does not pay for them.
    """
    ones = int.from_bytes(b"\1".ljust(16, b"\0") * _CHUNK, "little")
    steps = int.from_bytes(b"".join(i.to_bytes(16, "little") for i in range(_CHUNK)), "little")
    return ones, steps


def _mix_lanes(z: int, low: int) -> int:
    """The SplitMix64 output finalizer applied to every 64-bit lane of z.

    Each lane of z holds at most 64 bits and ``low`` is 2**64 - 1 in every
    lane; the bits that a right shift carries in from the next lane are
    masked off before each multiply and at the end.
    """
    z = ((z ^ (z >> 30)) & low) * _MIX1 & low
    z = ((z ^ (z >> 27)) & low) * _MIX2 & low
    return (z ^ (z >> 31)) & low


def _empty_cut(log1mp: float) -> int | None:
    """The least 64-bit first output at which a full block is surely empty.

    Bisects the 53-bit draws for the least x whose gap reaches BLOCK_SIZE,
    then adds a margin of 2**24 draws, far above any libm rounding near the
    threshold, so that every skipped block is one the full expression would
    find empty.  Returns None when no draw below 2**53 clears the margin.
    """
    lo, hi = 0, 1 << 53  # lo is not empty; hi is, or is the 2**53 sentinel
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.log1p(-mid * 2.0**-53) / log1mp >= BLOCK_SIZE:
            hi = mid
        else:
            lo = mid
    x = hi + _EMPTY_MARGIN
    return x << 11 if x < 1 << 53 else None


def bernoulli_ranks(seed: int, total: int, p: float, keep=None) -> list[int]:
    """Ranks r in [0, total) kept by independent Bernoulli(p) trials.

    Uses geometric skip-sampling within each rank block, so the cost is
    O(#kept + #blocks) rather than O(total): block b is walked with
    ``substream(seed, GEN_TAG, b)``, and empty blocks are found 4096 at a
    time by one lane-parallel hash of their indices; every other block runs
    its full draw sequence, from the stream seed that hash computed.  At
    p = 1 every rank is a candidate and no skip is drawn.  A skip is capped
    at BLOCK_SIZE before ``int``: the cap only bites when the skip leaves
    the block anyway, and it keeps a subnormal p, whose ratio overflows to
    inf, from raising.  Deterministic per (seed, total, p).

    ``keep(rank, u)`` thins to non-uniform rates: one more uniform draw u is
    taken per candidate, so the stream layout does not depend on ``keep``,
    and the rank is kept iff ``keep`` returns True, which it must do with
    probability p(rank)/p for the intended per-rank rate p(rank) <= p.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    if p == 0.0 or total == 0:
        return []
    log1mp = math.log1p(-p) if p < 1.0 else None
    log1p = math.log1p
    out: list[int] = []
    for b, block_seed in _live_blocks(seed, total, log1mp):
        start = b * BLOCK_SIZE
        stop = min(start + BLOCK_SIZE, total)
        # the block's SplitMix64 stream; the skip draw steps it inline,
        # Stream.random's draw without its three calls per draw
        state = mix64(seed, GEN_TAG, b) if block_seed is None else block_seed
        pos = start
        while True:
            if log1mp is not None:
                state = (state + _GAMMA) & _MASK64
                z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
                z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
                u = ((z ^ (z >> 31)) >> 11) * 2.0**-53
                pos += int(min(log1p(-u) / log1mp, BLOCK_SIZE))
            if pos >= stop:
                break
            if keep is None:
                out.append(pos)
            else:
                state, z = _splitmix64(state)
                if keep(pos, (z >> 11) * 2.0**-53):
                    out.append(pos)
            pos += 1
    return out
