"""Regenerate the golden cycle-accounting snapshots under tests/trace/goldens/.

Each paper figure/table with a golden set (see
:data:`repro.trace.goldens.GOLDEN_EXPERIMENTS`) gets one JSON file freezing
the per-layer cycle breakdown of its full workload sweep at full float
precision.  Run from the repo root after an intentional timing-model change:

    make goldens            # or: PYTHONPATH=src python tools/gen_goldens.py

then review the diff — every changed number is a deliberate behaviour change
you are signing off on.  ``tests/trace/test_goldens.py`` compares the stored
payloads bit-exactly against fresh recomputation.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.trace.goldens import (  # noqa: E402  (path bootstrap above)
    GOLDEN_EXPERIMENTS,
    compute_golden,
    golden_filename,
)

GOLDEN_DIR = ROOT / "tests" / "trace" / "goldens"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiment ids to regenerate (default: all of {list(GOLDEN_EXPERIMENTS)})",
    )
    args = parser.parse_args(argv)
    ids = args.experiments or list(GOLDEN_EXPERIMENTS)
    for eid in ids:
        if eid not in GOLDEN_EXPERIMENTS:
            raise SystemExit(
                f"no golden set for {eid!r}; known: {sorted(GOLDEN_EXPERIMENTS)}"
            )
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for eid in ids:
        payload = compute_golden(eid)
        path = GOLDEN_DIR / golden_filename(eid)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path} ({len(payload['entries'])} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
