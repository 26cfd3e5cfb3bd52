"""The ``repro`` flag surface must match its checked-in snapshot."""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _generator():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import gen_cli_surface
    finally:
        sys.path.pop(0)
    return gen_cli_surface


def test_cli_surface_in_sync():
    current = (ROOT / "tests" / "harness" / "cli_surface.json").read_text()
    assert current == _generator().generate(), (
        "tests/harness/cli_surface.json is stale — review the flag change, "
        "then regenerate with `make cli-surface`"
    )


def test_cli_surface_is_json_and_covers_every_command():
    commands = json.loads((ROOT / "tests" / "harness" / "cli_surface.json").read_text())
    for path in ("repro run", "repro serve", "repro top", "repro report",
                 "repro store verify", "repro dse sweep"):
        assert path in commands, f"{path} missing from the CLI surface"
