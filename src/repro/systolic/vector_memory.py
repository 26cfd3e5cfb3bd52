"""The TPU's vector memories: 128 independent single-port SRAM arrays.

Sec. IV-A's three hardware ideas live here:

1. **One memory per PE row** — no crossbar.  Each memory holds (a channel of)
   the IFMap rows its PE row consumes, plus OFMap space.
2. **Serializer**: a memory read returns a ``word_elems``-wide word; a
   serializer register issues one element per cycle to the PE row, so the
   memory's read port is only occupied once every ``word_elems`` cycles.
3. **De-serializer**: OFMap results arrive from the array bottom every cycle;
   a de-serializer packs ``word_elems`` of them and writes once per
   ``word_elems`` cycles, interleaving with reads on the single port.

:class:`VectorMemoryModel` does the *port-occupancy accounting* that yields
the Fig 16b "SRAM bandwidth idle ratio": during steady-state conv execution
each memory's port is busy ``(reads + writes)`` once-per-word-each, i.e. a
fraction ``2 / word_elems`` of cycles (reads and writes interleave, never
colliding, exactly the paper's zero-contention argument — valid whenever
``word_elems >= 2``).  :class:`FunctionalVectorMemory` is the functional
counterpart used by the small-scale cycle-accurate simulation to check the
layout/addressing story end-to-end.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from .config import TPUConfig

__all__ = ["PortAccounting", "VectorMemoryModel", "FunctionalVectorMemory"]


@dataclasses.dataclass(frozen=True)
class PortAccounting:
    """Port-occupancy summary for one steady-state execution window."""

    cycles: float
    read_accesses: float
    write_accesses: float

    @property
    def busy_fraction(self) -> float:
        """Fraction of cycles the single port is occupied."""
        if self.cycles <= 0:
            return 0.0
        return min(1.0, (self.read_accesses + self.write_accesses) / self.cycles)

    @property
    def idle_fraction(self) -> float:
        """The Fig 16b y-axis: unused fraction of the port's bandwidth."""
        return 1.0 - self.busy_fraction


class VectorMemoryModel:
    """Analytic model of one vector memory's port during conv execution."""

    def __init__(self, config: TPUConfig):
        self.config = config

    def steady_state_accounting(self, stream_cycles: float) -> PortAccounting:
        """Port accesses during ``stream_cycles`` of feeding the array.

        The serializer demands one word per ``word_elems`` cycles for IFMap
        reads; the de-serializer produces one word per ``word_elems`` cycles
        of OFMap writes.  Both are per-memory and interleave on the single
        port (Sec. IV-A's unified-memory trick).
        """
        if stream_cycles < 0:
            raise ValueError("stream_cycles must be non-negative")
        word = self.config.sram_word_elems
        return PortAccounting(
            cycles=stream_cycles,
            read_accesses=stream_cycles / word,
            write_accesses=stream_cycles / word,
        )

    def idle_ratio(self) -> float:
        """Steady-state port idle fraction: ``1 - 2 / word_elems``.

        At word size 8 this is 75% idle on the port; weighting by the fill
        and drain phases (where only one direction is active) the paper's
        "below 50% bandwidth utilisation at word 8" corresponds to the busy
        fraction ``2/word`` being < 0.5 for word >= 4.
        """
        return self.steady_state_accounting(1.0).idle_fraction


class FunctionalVectorMemory:
    """A functional single-port word-addressed SRAM array with serializer.

    Stores words of ``word_elems`` elements.  ``write_word`` and
    ``load_into_serializer`` are the port accesses; ``pop_element`` models
    the serializer issuing one element per cycle.  The cycle-accurate conv example (tests for Fig 10) drives one of
    these per PE row and asserts the port is touched exactly once per word.
    """

    def __init__(self, word_elems: int, num_words: int):
        if word_elems <= 0 or num_words <= 0:
            raise ValueError("geometry must be positive")
        self.word_elems = word_elems
        self.num_words = num_words
        self._data = np.zeros((num_words, word_elems))
        self._serializer: List[float] = []
        self.port_accesses = 0

    def write_word(self, word_index: int, values: np.ndarray) -> None:
        if not (0 <= word_index < self.num_words):
            raise IndexError(f"word {word_index} out of range")
        values = np.asarray(values, dtype=float)
        if values.shape != (self.word_elems,):
            raise ValueError(f"expected {self.word_elems} values, got {values.shape}")
        self._data[word_index] = values
        self.port_accesses += 1

    def load_into_serializer(self, word_index: int) -> None:
        """One port access refills the serializer with a whole word."""
        if not (0 <= word_index < self.num_words):
            raise IndexError(f"word {word_index} out of range")
        self.port_accesses += 1
        self._serializer = list(self._data[word_index])

    def pop_element(self) -> float:
        """Serializer issues the next element to the PE row (no port access)."""
        if not self._serializer:
            raise RuntimeError("serializer empty — load_into_serializer first")
        return self._serializer.pop(0)

    @property
    def serializer_occupancy(self) -> int:
        return len(self._serializer)
