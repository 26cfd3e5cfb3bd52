"""A process whose start-up the benchmark times.

``python ready.py KIND [ARGS...]`` first runs the calibration kernel of
:mod:`speed` three times and prints ``kernel <s> <s> <s>``, so the parent
can normalize the start-up time to the speed of the CPU it ran on.  Then:

- ``figures``: imports the batch plane and prints ``ready``;
- ``figures-store DIR``: also attaches the result store in DIR;
- ``dse``: imports the sweep plane and prints ``ready``;
- ``serve FLAGS...``: runs ``repro serve FLAGS``, which is ready at its
  first 200 on ``/readyz``.
"""

import sys

from speed import kernel_s


def main(argv) -> int:
    print("kernel", *(kernel_s() for _ in range(3)), flush=True)
    kind, args = argv[0], argv[1:]
    if kind == "serve":
        from repro.__main__ import main as repro_main

        return repro_main(["serve", *args])
    if kind in ("figures", "figures-store"):
        from repro.harness import export, runner  # noqa: F401

        if kind == "figures-store":
            from repro.store import attach

            attach(args[0])
    elif kind == "dse":
        from repro.dse import engine  # noqa: F401
    else:
        raise SystemExit(f"unknown set-up kind {kind!r}")
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
