"""The serve-mixed request stream and the client that offers it.

There is no recorded request log of ``repro serve``, so the stream is
modelled on what the repository itself asks the model for, and each
remaining parameter is an explicit assumption:

- the catalog is the distinct conv layers of the 7 zoo networks
  (``repro.workloads.networks``) at the batch sizes the paper's experiments
  run them at: 1 (Table I), 8 (Figs 15, 17 and 18) and 64 (Fig 2);
- a read picks a layer with probability proportional to how often it
  occurs in those forward passes (every network and batch size alike,
  every layer of a pass once), so a layer repeated across blocks or
  networks is asked for more often;
- ``NOVEL_SHARE`` of requests are novel, an assumption: a layer drawn the
  same way with ``c_in`` and ``c_out`` redrawn from the multiples of 8 in
  [8, 1024], each a cold simulation plus a store write;
- arrivals are Poisson at the rate the workload offers.

``--seed`` draws which requests are novel, which layers the others read,
and the arrival times.  The novel specs themselves come from a generator
of their own with a fixed seed, so every run of the same length prices
the same novel layers: a server's peak memory is set by the largest layer
it simulates, and with the novel specs drawn per seed it ranged from 41
to 165 MB across ten seeds.

All load comes from one asyncio process holding at most ``CONNECTIONS``
connections at a time, one request per connection.  The loop sends on
schedule whatever the server does and times each request from when it was
due, so a stall also charges the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import random
import time
from typing import List, Optional, Tuple

#: Connections the client holds at most (the reference machine has 2 CPUs).
CONNECTIONS = 2
#: Batch sizes the paper's experiments run the zoo networks at.
BATCHES = (1, 8, 64)
#: Share of requests that are novel specs (assumed; see the module doc).
NOVEL_SHARE = 0.10
#: Seconds a request may take before the client gives up on it.
REQUEST_TIMEOUT_S = 30.0


def catalog() -> Tuple[list, List[int]]:
    """The distinct conv layers of the zoo networks at ``BATCHES``, and how
    many times each occurs in those forward passes."""
    from repro.perf.cache import spec_key
    from repro.workloads.networks import NETWORKS

    specs, counts = {}, {}
    for batch in BATCHES:
        for name in sorted(NETWORKS):
            for spec in NETWORKS[name](batch):
                key = spec_key(spec)
                specs.setdefault(key, spec)
                counts[key] = counts.get(key, 0) + 1
    return list(specs.values()), [counts[key] for key in specs]


def request_specs(specs: list, counts: List[int], seed: int, requests: int) -> list:
    """The specs of the ``requests`` requests a run sends, in order."""
    rng = random.Random(seed)
    cumulative = list(itertools.accumulate(counts))
    novel_at = set(rng.sample(range(requests), round(NOVEL_SHARE * requests)))
    novel = random.Random("novel")  # the same novel specs for every seed
    stream = []
    for index in range(requests):
        if index not in novel_at:
            stream += rng.choices(specs, cum_weights=cumulative)
            continue
        [base] = novel.choices(specs, cum_weights=cumulative)
        stream.append(dataclasses.replace(
            base,
            c_in=8 * novel.randint(1, 128),
            c_out=8 * novel.randint(1, 128),
            name=f"novel-{index}",
        ))
    return stream


@dataclasses.dataclass
class Reply:
    spec: object
    lag: float  # seconds the generator ran late before it tried to send
    latency: float  # seconds from due to answer
    service: float  # seconds from send to answer
    status: int  # HTTP status, 0 on a connection error or timeout
    cycles: Optional[int] = None


async def _send(host: str, port: int, spec, slots: asyncio.Semaphore,
                due: float, replies: List[Reply]) -> None:
    """One request, due to be sent at ``due``; appends its :class:`Reply`."""
    from repro.store.serve import http_request

    lag = time.perf_counter() - due
    async with slots:
        sent = time.perf_counter()
        try:
            status, body = await asyncio.wait_for(
                http_request(host, port, "POST", "/v1/conv",
                             {"spec": dataclasses.asdict(spec)}),
                REQUEST_TIMEOUT_S,
            )
        except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                ValueError):
            status, body = 0, None
        done = time.perf_counter()
    cycles = body.get("cycles") if status == 200 and isinstance(body, dict) else None
    replies.append(Reply(spec, lag, done - due, done - sent, status, cycles))


async def open_loop(host: str, port: int, specs: list, rate: float,
                    seed: int) -> List[Reply]:
    """Sends ``specs`` at Poisson arrivals of ``rate``/s; waits for every
    answer."""
    arrivals = random.Random(f"arrivals-{seed}")
    slots = asyncio.Semaphore(CONNECTIONS)
    replies: List[Reply] = []
    tasks = []
    due = time.perf_counter()
    for spec in specs:
        due += arrivals.expovariate(rate)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(
            _send(host, port, spec, slots, due, replies)))
    await asyncio.gather(*tasks)
    return replies
