"""T-table AES-128 with per-round memory-lookup traces.

GPU AES kernels express each main round as 16 table lookups (4 per output
column, one into each of T0..T3) and the last round as 16 lookups into T4.
Each lookup is a global-memory load executed in lockstep by every thread of a
warp — exactly the loads the coalescing unit merges.

:class:`TTableAES` performs the encryption this way and records, per round,
the ordered list of ``(table_id, index)`` lookups a thread issues. A warp's
k-th load instruction of a round gathers the k-th entry of each of its 32
threads' traces; the coalescer then merges them. The last-round trace is
ordered by ciphertext byte position ``j`` so that it aligns byte-for-byte
with the attack's Equation 3 inversion (``t_j = InvS[c_j ^ k_j]``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Tuple

from repro.aes.cipher import BLOCK_BYTES
from repro.aes.key_schedule import NUM_ROUNDS, expand_key
from repro.aes.tables import LAST_ROUND_TABLE_ID, ROUND_TABLES, T4
from repro.errors import BlockSizeError

__all__ = ["Lookup", "RoundTrace", "EncryptionTrace", "TTableAES",
           "LOOKUPS_PER_ROUND"]

#: A single table lookup: (table id 0..4, table index 0..255).
Lookup = Tuple[int, int]

#: Every AES round issues 16 table lookups per thread.
LOOKUPS_PER_ROUND = 16


@dataclass(frozen=True)
class RoundTrace:
    """The ordered lookups one thread issues in one round."""

    round_index: int
    lookups: Tuple[Lookup, ...]

    def __post_init__(self) -> None:
        if len(self.lookups) != LOOKUPS_PER_ROUND:
            raise ValueError(
                f"round {self.round_index} trace has {len(self.lookups)} "
                f"lookups, expected {LOOKUPS_PER_ROUND}"
            )

    @property
    def indices(self) -> Tuple[int, ...]:
        """Just the table indices, in instruction order."""
        return tuple(index for _, index in self.lookups)


@dataclass(frozen=True)
class EncryptionTrace:
    """Full lookup trace of one thread encrypting one 16-byte line."""

    ciphertext: bytes
    rounds: Tuple[RoundTrace, ...]

    @property
    def last_round(self) -> RoundTrace:
        """The T4 round — the attack's target."""
        return self.rounds[-1]

    @property
    def total_lookups(self) -> int:
        return sum(len(r.lookups) for r in self.rounds)


# Traces depend only on (key, plaintext) — never on the coalescing policy —
# so experiments that encrypt the same plaintext batch under many policies
# share one trace computation. LRU-bounded; traces are immutable and safe to
# share.
_TRACE_CACHE: "OrderedDict[Tuple[bytes, bytes], EncryptionTrace]" = \
    OrderedDict()
_TRACE_CACHE_CAPACITY = 40_000


def clear_trace_cache() -> None:
    """Drop all memoized encryption traces (mainly for tests)."""
    _TRACE_CACHE.clear()


class TTableAES:
    """AES-128 encryption via T-table lookups, with trace recording.

    Parameters
    ----------
    key:
        16-byte AES-128 master key.
    """

    def __init__(self, key: bytes):
        self._key = bytes(key)
        self._round_keys = expand_key(key)

    @property
    def key(self) -> bytes:
        """The master key (victim-internal; the batched core re-expands
        it for its vectorized encryption)."""
        return self._key

    @property
    def last_round_key(self) -> bytes:
        """The round-10 key (what the correlation attack recovers)."""
        return self._round_keys[NUM_ROUNDS]

    def encrypt(self, plaintext: bytes) -> EncryptionTrace:
        """Encrypt one block, returning ciphertext plus the lookup trace."""
        if len(plaintext) != BLOCK_BYTES:
            raise BlockSizeError(
                f"AES blocks are 16 bytes, got {len(plaintext)}"
            )
        cache_key = (self._key, bytes(plaintext))
        cached = _TRACE_CACHE.get(cache_key)
        if cached is not None:
            _TRACE_CACHE.move_to_end(cache_key)
            return cached
        # State as 4 rows x 4 columns, column-major input mapping.
        state = [[plaintext[r + 4 * c] ^ self._round_keys[0][4 * c + r]
                  for c in range(4)] for r in range(4)]

        round_traces: List[RoundTrace] = []
        for round_index in range(1, NUM_ROUNDS):
            state, lookups = self._main_round(state,
                                              self._round_keys[round_index])
            round_traces.append(RoundTrace(round_index, tuple(lookups)))

        ciphertext, lookups = self._last_round(state,
                                               self._round_keys[NUM_ROUNDS])
        round_traces.append(RoundTrace(NUM_ROUNDS, tuple(lookups)))
        trace = EncryptionTrace(bytes(ciphertext), tuple(round_traces))
        _TRACE_CACHE[cache_key] = trace
        if len(_TRACE_CACHE) > _TRACE_CACHE_CAPACITY:
            _TRACE_CACHE.popitem(last=False)
        return trace

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _main_round(state: List[List[int]], round_key: bytes
                    ) -> Tuple[List[List[int]], List[Lookup]]:
        """One T-table round: 16 lookups (4 columns x tables T0..T3).

        Unrolled over the four tables: this runs once per round per
        plaintext line (9216 times for a 1024-line launch), making it one
        of the hottest pure-Python loops outside the timing engine.
        """
        lookups: List[Lookup] = []
        append = lookups.append
        row0, row1, row2, row3 = state
        t0, t1, t2, t3 = ROUND_TABLES
        new_state = [[0] * 4 for _ in range(4)]
        for c in range(4):
            i0 = row0[c]
            i1 = row1[(c + 1) % 4]
            i2 = row2[(c + 2) % 4]
            i3 = row3[(c + 3) % 4]
            append((0, i0))
            append((1, i1))
            append((2, i2))
            append((3, i3))
            e0 = t0[i0]
            e1 = t1[i1]
            e2 = t2[i2]
            e3 = t3[i3]
            k = 4 * c
            for r in range(4):
                new_state[r][c] = (round_key[k + r] ^ e0[r] ^ e1[r]
                                   ^ e2[r] ^ e3[r])
        return new_state, lookups

    @staticmethod
    def _last_round(state: List[List[int]], round_key: bytes
                    ) -> Tuple[List[int], List[Lookup]]:
        """Final round: 16 T4 lookups, one per ciphertext byte j = 0..15."""
        lookups: List[Lookup] = []
        ciphertext = [0] * BLOCK_BYTES
        for j in range(BLOCK_BYTES):
            r, c = j % 4, j // 4
            index = state[r][(c + r) % 4]
            lookups.append((LAST_ROUND_TABLE_ID, index))
            ciphertext[j] = T4[index][r] ^ round_key[4 * c + r]
        return ciphertext, lookups


def last_round_indices(trace: EncryptionTrace) -> Tuple[int, ...]:
    """Convenience: the 16 T4 indices (t_0..t_15) of a trace."""
    return trace.last_round.indices
