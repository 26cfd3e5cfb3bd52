"""The serve tests' one seam: boot a daemon in-process, hold its pricer.

``boot`` starts a :class:`ReproServer` on an ephemeral port inside the
calling test's event loop.  ``hold_pricing`` makes every later engine call
block until the test releases it, so a miss stays pending for exactly as
long as a scenario needs; ``occupy_pricer`` parks one miss in the held
pricer, so the misses admitted after it stay queued.  ``until`` waits for
the daemon to reach a state, such as a count of ``joins``.
"""

import asyncio
import threading
import time

from repro.core.layouts import Layout
from repro.store.serve import (
    ReproServer,
    ServeConfig,
    SimulationService,
    http_request,
)
from repro.systolic.simulator import TPUSim

#: A held pricing that nobody releases fails after this long instead of
#: hanging the test (and the drain that waits for it).
HOLD_LIMIT_S = 10.0


async def boot(run_id="serve-test", **overrides):
    """Start a daemon on ``127.0.0.1:0``; returns ``(service, server, host,
    port)``.  The SLO watchdog is off unless ``watchdog=True`` is passed,
    so only a test moves the ladder."""
    overrides.setdefault("watchdog", False)
    config = ServeConfig(host="127.0.0.1", port=0, **overrides)
    service = SimulationService(config)
    server = ReproServer(service, run_id=run_id)
    host, port = await server.start()
    return service, server, host, port


async def until(condition, timeout_s=5.0):
    """Poll ``condition()`` on the loop until it holds; fail after
    ``timeout_s``."""
    deadline = time.monotonic() + timeout_s
    while not condition() and time.monotonic() < deadline:
        await asyncio.sleep(0.005)
    assert condition()


def joins(service) -> int:
    """Queries so far that joined a miss already queued or pricing."""
    return int(service.registry.counters.get("repro_serve_deduped_total", 0))


def hold_pricing(monkeypatch) -> threading.Event:
    """Stub ``TPUSim.simulate_conv_batch`` to block until the returned
    event is set, then price as usual.

    Set it once the scenario has queued what it needs; a hold nobody
    releases raises ``TimeoutError`` after :data:`HOLD_LIMIT_S`.  Calling
    this again later installs a fresh hold in front of the first.
    """
    release = threading.Event()
    price = TPUSim.simulate_conv_batch

    def held(self, specs, group_size=None, layout=Layout.NHWC):
        if not release.wait(HOLD_LIMIT_S):
            raise TimeoutError(f"pricing held {HOLD_LIMIT_S}s, never released")
        return price(self, specs, group_size, layout)

    monkeypatch.setattr(TPUSim, "simulate_conv_batch", held)
    return release


async def occupy_pricer(service, host, port, spec):
    """POST ``spec``, a cold miss, and wait until the batcher has taken it:
    while pricing is held, the misses admitted next queue behind it.
    Returns the request's task."""
    request = asyncio.ensure_future(
        http_request(host, port, "POST", "/v1/conv", {"spec": spec})
    )
    await until(lambda: service.pending == 1 and not service._queue)
    return request
