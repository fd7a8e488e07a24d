"""Reference kernel: how fast is this host *right now*?

The box this ledger runs on shares its cores with other tenants: the same
work costs 15-45 % more for seconds to minutes at a time, and no estimator
over a 15 s run removes a slow spell that outlasts the run (README, finding
4).  So every timed round also times a frozen reference kernel, interleaved
with the work every ~50-100 ms, and every timing metric is reported **at
reference host speed**: the round's time divided by how much slower than
``NOMINAL_S`` the kernel ran during that round.

The kernel is two halves run back to back -- interpreter-bound, stdlib only
(``spin``: a JSON round trip of a small view document, objects, a sort, dict
and string work) and small-array numpy (``fill``: a plain progressive-filling
loop over a fixed 2,000-flow instance) -- because that is what the programs
under test are made of; together they track the portal, the swarm simulation
and the flow engine alike (``NOISE.md``).  A bare arithmetic loop does not:
it stays in the first-level cache and misses most of what a busy neighbour
does to real code.  Imports nothing from ``repro`` and must never change: a
faster kernel would read as a slower program.
"""

import json
import signal
import statistics
import time

import numpy as np

#: What one probe (``spin`` + ``fill``) takes on this class of host when
#: nothing else contends for the core.  Only fixes the unit: reported times
#: are "as if the probe took this long".
NOMINAL_S = 0.0046
#: Timer-driven sampling period.
INTERVAL_S = 0.05

_N_FLOWS = 2000
_rng = np.random.default_rng(7)
_LINK_OF = np.concatenate(
    [
        _rng.integers(0, 1000, _N_FLOWS),  # uplinks
        _rng.integers(1000, 2000, _N_FLOWS),  # downlinks
        _rng.integers(2000, 2028, _N_FLOWS),  # two backbone hops
        _rng.integers(2000, 2028, _N_FLOWS),
    ]
).astype(np.intp)
_FLOW_OF = np.tile(np.arange(_N_FLOWS, dtype=np.intp), 4)
_LINK_CAPS = np.concatenate(
    [np.full(1000, 10.0), np.full(1000, 20.0), np.full(28, 5000.0)]
)
_FLOW_CAPS = np.full(_N_FLOWS, 25.0)
del _rng


_DOCUMENT = {
    "result": {
        "pids": [f"pid-{i}" for i in range(6)],
        "distances": {
            f"pid-{i}": {f"pid-{j}": i * 0.37 + j for j in range(6)}
            for i in range(6)
        },
        "version": 17,
    }
}


class _Row:
    __slots__ = ("pid", "width", "costs")

    def __init__(self, pid, width, costs):
        self.pid = pid
        self.width = width
        self.costs = costs


def spin(rounds=30):
    """Interpreter-bound half: stdlib only, the same work every call."""
    total = 0
    for _ in range(rounds):
        text = json.dumps(_DOCUMENT, separators=(",", ":"))
        result = json.loads(text)["result"]
        rows = [
            _Row(pid, len(pid), result["distances"][pid]) for pid in result["pids"]
        ]
        rows.sort(key=lambda row: row.pid, reverse=True)
        doubled = {
            row.pid: {pid: cost * 2 for pid, cost in row.costs.items()}
            for row in rows
        }
        total += len(text) + sum(len(str(costs)) for costs in doubled.values())
        frame = text.encode("utf-8")
        total += int.from_bytes(len(frame).to_bytes(4, "big"), "big")
    return total


def fill():
    """Numpy half: max-min water-filling over the fixed instance."""
    n_links = _LINK_CAPS.size
    rates = np.full(_N_FLOWS, np.inf)
    active = np.ones(_N_FLOWS, dtype=bool)
    remaining = _LINK_CAPS.copy()
    level = 0.0
    while active.any():
        counts = np.bincount(
            _LINK_OF, weights=active[_FLOW_OF].astype(float), minlength=n_links
        )
        loaded = counts > 0
        link_levels = np.full(n_links, np.inf)
        link_levels[loaded] = level + remaining[loaded] / counts[loaded]
        saturation = link_levels.min()
        cap_level = np.where(active, _FLOW_CAPS, np.inf).min()
        next_level = min(saturation, cap_level)
        remaining = np.maximum(remaining - max(0.0, next_level - level) * counts, 0.0)
        level = next_level
        frozen = np.zeros(_N_FLOWS, dtype=bool)
        if cap_level <= saturation + 1e-9:
            frozen |= active & (_FLOW_CAPS <= level + 1e-9)
        if saturation <= cap_level + 1e-9:
            hits = (loaded & (link_levels <= level + 1e-9))[_LINK_OF]
            frozen[_FLOW_OF[hits]] = True
            frozen &= active
        rates[frozen] = np.minimum(level, _FLOW_CAPS[frozen])
        active &= ~frozen
    return rates


class Sampler:
    """Runs the probe and keeps running totals of what it cost.

    ``sample()`` takes one probe; ``start()`` also takes one every
    ``INTERVAL_S`` from a timer signal, which interleaves the probe with
    code that cannot be interleaved by hand (``run_comparison``).  A round
    reads ``totals()`` before and after: the difference says how fast the
    host was during the round and how much of the round's wall and CPU the
    probes themselves took.
    """

    def __init__(self):
        self.count = 0
        self.spin_s = 0.0
        self.fill_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._sampling = False

    def sample(self, signum=None, frame=None):
        if self._sampling:  # the timer fired inside a probe taken by hand
            return
        self._sampling = True
        cpu = time.process_time()
        started = time.perf_counter()
        spin()
        middle = time.perf_counter()
        fill()
        ended = time.perf_counter()
        self.count += 1
        self.spin_s += middle - started
        self.fill_s += ended - middle
        self.cpu_s += time.process_time() - cpu
        self.wall_s += time.perf_counter() - started
        self._sampling = False

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # Ignored, not default: a tick already on its way must not kill us.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def totals(self):
        return (self.count, self.spin_s, self.fill_s, self.wall_s, self.cpu_s)


def window(before, after):
    """What the probes between two ``totals()`` say about that stretch:
    ``slowdown`` (probe time / ``NOMINAL_S``; divide a measured time by it),
    mean ``spin_ms`` / ``fill_ms``, and the probes' own ``wall_s`` / ``cpu_s``
    to take out of the stretch."""
    count = after[0] - before[0]
    if count < 1:
        raise ValueError("no reference probe inside the round")
    spin_s = (after[1] - before[1]) / count
    fill_s = (after[2] - before[2]) / count
    return {
        "slowdown": (spin_s + fill_s) / NOMINAL_S,
        "spin_ms": spin_s * 1e3,
        "fill_ms": fill_s * 1e3,
        "wall_s": after[3] - before[3],
        "cpu_s": after[4] - before[4],
    }


def timing_metrics(rounds, latency_ms):
    """The three timing metrics of a run, each the median over rounds.

    A round is ``{"ops", "wall", "cpu", "host"}`` -- wall and CPU with the
    probes' own share already taken out, ``host`` the round's ``window`` --
    and ``latency_ms(round)`` its latency figure.  Returns the metrics at
    reference host speed (each round's time over the round's ``slowdown``)
    and, for the ``#`` notes, the same as the clock read them.
    """

    def median(value):
        return statistics.median(value(r) for r in rounds)

    at_reference = {
        "throughput_ops_s": median(
            lambda r: r["ops"] * r["host"]["slowdown"] / r["wall"]
        ),
        "latency_p50_ms": median(lambda r: latency_ms(r) / r["host"]["slowdown"]),
        "server_cpu_us_per_op": median(
            lambda r: r["cpu"] / r["ops"] / r["host"]["slowdown"]
        ) * 1e6,
    }
    raw = {
        "raw.throughput_ops_s": median(lambda r: r["ops"] / r["wall"]),
        "raw.latency_p50_ms": median(latency_ms),
        "raw.server_cpu_us_per_op": median(lambda r: r["cpu"] / r["ops"]) * 1e6,
        "host.slowdown": median(lambda r: r["host"]["slowdown"]),
        "machine.spin_ms": median(lambda r: r["host"]["spin_ms"]),
        "machine.fill_ms": median(lambda r: r["host"]["fill_ms"]),
    }
    return at_reference, raw
