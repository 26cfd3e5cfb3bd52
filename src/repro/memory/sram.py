"""Analytic SRAM macro model — the CACTI / OpenRAM substitute.

Fig 16b studies how the vector memory's *word size* trades area against
bandwidth utilisation: the paper quotes (for a fixed 256 KB macro in
freepdk45) that a 4-byte word costs ~3.2x the area of a 32-byte word, and
that a word of 1 element costs ~5x the area of the large-word minimum.

A full memory compiler is out of scope offline; what the experiment needs is
an area model with the right *structure*, calibrated to those quoted points.
The dominant physical effect is amortisation of peripheral circuitry: an
SRAM macro is ``rows x (word_bits)`` of cells plus per-column sense
amps/drivers and a row decoder.  Narrow words force tall arrays — many rows,
a big decoder, and poor cell-array aspect ratio — so area per bit grows as
the word narrows.  We model:

    area(capacity, word) = cell_area * bits                      (cells)
                         + word_bits * column_overhead            (sense/drive)
                         + rows * row_overhead                    (decoder/wordline)
                         + fixed_overhead                          (control)

with the three overhead coefficients fitted to the paper's two quoted ratios
(see ``_CALIBRATION`` and the tests, which pin the ratios to within a few
percent).  Energy per access grows linearly with the word width.
"""

from __future__ import annotations

import dataclasses

from ..errors import ConfigError

__all__ = ["SRAMConfig", "SRAMModel"]


@dataclasses.dataclass(frozen=True)
class SRAMConfig:
    """Process/geometry constants for the analytic macro model (freepdk45).

    The defaults are calibrated so that, at 256 KB:
      area(word=4B) / area(word=32B)  ~= 3.2  (paper Sec. IV-C), and
      area(word=4B) / area(word=128B) ~= 4-5  ("word size 1 [element] leads
      to a 5x overhead" vs the large-word minimum, Sec. VII),
    matching the ratios the paper quotes from OpenRAM.  Elements are 4 B on
    the TPU, so word sizes 1..32 elements span 4..128 bytes.
    """

    # 6T cell area in um^2 (freepdk45-class).
    cell_area_um2: float = 0.30
    # Area per column of peripheral circuitry (sense amp, write driver,
    # column mux), um^2 per bitline column.
    column_overhead_um2: float = 10.0
    # Area per row (wordline driver + decoder slice), um^2 per row.
    row_overhead_um2: float = 35.3
    # Fixed control/timing block area, um^2 per macro.
    fixed_overhead_um2: float = 2000.0
    # No model reads the two latency constants.  They stay because
    # ``config_key`` fingerprints every nested field: removing one would
    # change every memo key, store record digest and serve breaker key.
    latency_base_ns: float = 0.2
    latency_sqrt_coeff_ns: float = 0.035
    # Energy per access: e = (base + per_bit * word_bits) pJ.
    energy_base_pj: float = 5.0
    energy_per_bit_pj: float = 0.02

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value <= 0:
                raise ConfigError(
                    "must be positive", field=field.name, value=value
                )


class SRAMModel:
    """Area and access energy of an SRAM macro vs (capacity, word width)."""

    def __init__(self, config: SRAMConfig = SRAMConfig()):
        self.config = config

    def _geometry(self, capacity_bytes: int, word_bytes: int):
        if capacity_bytes <= 0 or word_bytes <= 0:
            raise ValueError("capacity and word size must be positive")
        if capacity_bytes % word_bytes != 0:
            raise ValueError(
                f"capacity {capacity_bytes} not a multiple of word {word_bytes}"
            )
        word_bits = 8 * word_bytes
        rows = capacity_bytes // word_bytes
        return word_bits, rows

    def area_um2(self, capacity_bytes: int, word_bytes: int) -> float:
        """Macro area in um^2 (see module docstring for the model)."""
        cfg = self.config
        word_bits, rows = self._geometry(capacity_bytes, word_bytes)
        bits = 8 * capacity_bytes
        return (
            cfg.cell_area_um2 * bits
            + cfg.column_overhead_um2 * word_bits
            + cfg.row_overhead_um2 * rows
            + cfg.fixed_overhead_um2
        )

    def area_mm2(self, capacity_bytes: int, word_bytes: int) -> float:
        return self.area_um2(capacity_bytes, word_bytes) / 1e6

    def area_ratio(self, capacity_bytes: int, word_bytes: int, reference_word_bytes: int) -> float:
        """Area relative to the same capacity at a reference word size —
        the normalised y-axis of Fig 16b."""
        return self.area_um2(capacity_bytes, word_bytes) / self.area_um2(
            capacity_bytes, reference_word_bytes
        )

    def access_energy_pj(self, word_bytes: int) -> float:
        if word_bytes <= 0:
            raise ValueError("word size must be positive")
        return self.config.energy_base_pj + self.config.energy_per_bit_pj * 8 * word_bytes


def _calibration_check() -> None:
    """Import-time pin of the paper's quoted OpenRAM ratios (tolerant)."""
    model = SRAMModel()
    cap = 256 * 1024
    r_4_vs_32 = model.area_ratio(cap, 4, 32)
    r_4_vs_128 = model.area_ratio(cap, 4, 128)
    assert 2.8 <= r_4_vs_32 <= 3.6, f"4B-vs-32B ratio {r_4_vs_32} off calibration"
    assert 3.5 <= r_4_vs_128 <= 5.5, f"4B-vs-128B ratio {r_4_vs_128} off calibration"


_calibration_check()
