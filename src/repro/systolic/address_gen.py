"""Skewed address generation for the channel-first schedule (Sec. IV-A).

The TPU avoids physically skewing the data layout: each of the 128 vector
memories gets its own address stream, and the streams are identical except
delayed by one cycle per PE row — "instead of skewing the data layout, we
skew the address generation".

For a decomposed-filter tile ``<r, s>`` of a conv, the *logical* (unskewed)
address stream visits the tile's taps in output-raster order; every PE row
(= channel, or channel-slice under multi-tile) reads the same within-memory
offsets because the HWC(N) layout places corresponding elements of every
channel at the same offset of their respective memories.  This module
produces:

- :func:`tile_word_offsets` — the per-memory word-offset sequence for one
  tile (shared by all memories), assuming the tile's taps were packed into
  the memory in fill order;
- :func:`skewed_schedule` — the (cycle, memory, word_offset) triples after
  applying the one-cycle-per-row skew and the once-per-``word_elems``-cycles
  serializer cadence.

A key property the tests pin: the address streams are *identical across
memories modulo delay* — this is what makes the hardware a plain counter
per memory rather than a crossbar.
"""

from __future__ import annotations

import dataclasses
from typing import List

from ..core.conv_spec import ConvSpec

__all__ = ["tile_word_offsets", "skewed_schedule"]


def tile_word_offsets(spec: ConvSpec, word_elems: int, batch_in_word: bool = True) -> List[int]:
    """Word offsets one vector memory reads for one decomposed-filter tile.

    With the HWCN layout (Sec. IV-A), a memory stores one channel of the
    IFMap for ``word_elems`` batch inputs: element ``(n, oy, ox)`` of the
    tile lives at word ``(oy * W_O + ox)`` when batches pack the word
    (``batch_in_word=True``), so the serializer drains a word's worth of
    batches between port reads.  Without batch packing each element occupies
    a word lane by itself and the offset advances every ``word_elems`` taps.

    The sequence is *independent of the tile's (r, s)* by construction — the
    fill engine packs each tile's taps contiguously — which is why one
    counter design serves every tile shape, stride and dilation: stride
    complexity lives entirely in the DMA fill, not in the array-facing
    address stream.
    """
    if word_elems <= 0:
        raise ValueError("word_elems must be positive")
    taps = spec.h_out * spec.w_out
    if batch_in_word:
        # One word per spatial tap; batches fill the word lanes.
        return list(range(taps))
    # Lanes hold consecutive taps instead.
    total = taps
    return [i // word_elems for i in range(total)]


@dataclasses.dataclass(frozen=True)
class ScheduledAccess:
    """One port access: memory ``row`` reads ``word_offset`` at ``cycle``."""

    cycle: int
    row: int
    word_offset: int


def skewed_schedule(
    offsets: List[int], rows: int, word_elems: int
) -> List[ScheduledAccess]:
    """Apply the systolic skew and serializer cadence to an offset stream.

    Row ``k`` performs its ``i``-th port read at cycle
    ``i * word_elems + k``: reads are ``word_elems`` apart (the serializer
    covers the gap) and rows are offset by the one-cycle systolic delay.
    The port-conflict-freedom property — no memory is accessed twice in one
    cycle — holds trivially since each row owns its memory.
    """
    if rows <= 0 or word_elems <= 0:
        raise ValueError("rows/word_elems must be positive")
    schedule = []
    for k in range(rows):
        for i, off in enumerate(offsets):
            schedule.append(ScheduledAccess(cycle=i * word_elems + k, row=k, word_offset=off))
    schedule.sort(key=lambda a: (a.cycle, a.row))
    return schedule
