"""Run ``repro serve`` with the probes installed.

Usage: ``python traced_serve.py PROBE_DIR [serve flags...]``.  Installs the
probes, then calls ``serve_main`` with the remaining flags.  Every process
that runs ``run_server`` (each pre-forked worker) writes its totals to
``PROBE_DIR/probe-<pid>.json`` when it drains.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import probes  # noqa: E402


def main(argv) -> int:
    probes.install(dump_dir=argv[0], experiments=False)
    from repro.store.serve import serve_main

    return serve_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
