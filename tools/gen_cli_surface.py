"""Generate tests/harness/cli_surface.json: every ``repro`` flag, as parsed.

Walks :func:`repro.__main__.build_parser`, recursing into nested
subcommands (``store``, ``dse``), and records for every command path and
option its option strings, dest, action class, default, type, choices,
nargs, const and required.  Help text is left out, so the file pins what
the parser does rather than its prose.  Run from the repo root:

    python tools/gen_cli_surface.py      # or: make cli-surface

The file is checked in; a test asserts it equals a fresh ``generate()``,
so a flag cannot appear, vanish or change meaning without a reviewed diff.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = ROOT / "tests" / "harness" / "cli_surface.json"


def _option(action: argparse.Action) -> dict:
    if isinstance(action, argparse._SubParsersAction):
        choices = sorted(action.choices)
    else:
        choices = None if action.choices is None else list(action.choices)
    return {
        "options": list(action.option_strings) or [action.dest],
        "dest": action.dest,
        "action": type(action).__name__,
        "default": action.default,
        "type": getattr(action.type, "__name__", action.type),
        "choices": choices,
        "nargs": action.nargs,
        "const": action.const,
        "required": action.required,
    }


def _walk(path: str, parser: argparse.ArgumentParser, out: Dict[str, List[dict]]) -> None:
    options = [_option(action) for action in parser._actions]
    out[path] = sorted(options, key=lambda option: option["options"])
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                _walk(f"{path} {name}", child, out)


def surface() -> Dict[str, List[dict]]:
    """Command path (``"repro store verify"``) -> its options, sorted."""
    from repro.__main__ import build_parser

    out: Dict[str, List[dict]] = {}
    _walk("repro", build_parser(), out)
    return out


def generate() -> str:
    """The file's text: one command per key, one option per line."""
    commands = surface()
    blocks = []
    for path in sorted(commands):
        lines = ",\n".join(
            "  " + json.dumps(option, sort_keys=True)
            for option in commands[path]
        )
        blocks.append(f" {json.dumps(path)}: [\n{lines}\n ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    OUTPUT.write_text(generate())
    print(f"wrote {OUTPUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
