"""The benchmark workloads and the measurement loop they share.

* ``serial_tall`` — :class:`~repro.core.solver.ChannelDNS` at 16x129x16:
  one production-shaped y-pencil (few Fourier modes, all of ny), so the
  wall-normal layers (B-spline interpolation, collocation, banded solves)
  carry most of a step.
* ``pencil_wide`` — :class:`~repro.pencil.distributed.DistributedChannelDNS`
  on a 1x2 process grid at 48x33x48: the only workload that runs the
  pencil FFTs, the transposes and ``mpi.simmpi``.

Both run the same production cycle.  The timed phase is a sequence of
blocks of :data:`BLOCK` steps, each followed by a checkpoint with its
stats sidecar and, every :data:`PUBLISH_EVERY` blocks, a publish of the
statistics: the write paths count in the phase's wall time, not in the
step times.  After each block the loop runs three *probes* — a restart
from the block's checkpoint, a second driver's set-up and a chunk of the
query burst — outside the phase's wall time.  Interleaving spreads every
metric's samples over the whole run, so they see the same mix of
machine states as the step times do.

A shared machine switches between two speeds every few seconds: a step
takes about 1.45 times as long in the slow one, a cached query about
1.7 times.  A median over a whole run lands in whichever speed held
more of it and jumped between the two from run to run; a mean moves in
proportion to the share of each.  So the bounded step and restart
times are means (``step_ms_mean``, ``restart_s_mean``).  A cached query
is too short for that: ``query_us_p50_min`` is the lowest, over the
run's query probes, of a probe's median latency.  A probe is short
enough to sit in one speed, and every run has some in the fast one.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

import numpy as np

import layers
from tracer import Tracer

#: untraced steps (and seconds) below which a run keeps stepping
MIN_STEPS = 100
#: in a traced run: steps per side (traced / untraced) below which it keeps stepping
MIN_TRACED = 50
#: steps per block; traced runs alternate untraced and traced blocks
BLOCK = 10
WARMUP_STEPS = 3
#: streaming-statistics cadence: 4% of steps, well inside the fastest
#: 90%, so a sampled step does not sit at p90
SAMPLE_EVERY = 25
#: a publish after every PUBLISH_EVERY-th block's checkpoint
PUBLISH_EVERY = 5
#: steps of the distributed-vs-serial check and the restart-continuation check
CHECK_STEPS = 3

#: the scheme keeps the collocated divergence at machine zero (~1e-17)
DIVERGENCE_BOUND = 1e-10
#: gathered distributed state vs the serial driver, relative to max |serial|
DISTRIBUTED_RTOL = 1e-12

RE_TAU = 180.0
#: the store the queries read: the run's own result at RE_TAU beside
#: synthetic results (``repro.serving.synthetic``) at the other Re_tau of
#: the ``stats_query_32`` store in ``benchmarks/bench_stats_service.py``
SYNTHETIC_RE_TAUS = (550.0, 1000.0, 2000.0)
#: the Re_tau the ``stats_query_32`` batch asks at: exact, interpolated
#: between the run's result and a synthetic one, and between two synthetic
QUERY_RE_TAUS = (180.0, 350.0, 550.0, 1500.0)
#: its 16-point y+ sweep, and its spectrum probes (direction, component, y+)
Y_SWEEP = np.geomspace(1.0, 150.0, 16)
SPECTRA = (("x", "u", 15.0), ("z", "u", 15.0), ("x", "w", 100.0))
#: batches in the key pool: 12 x 32 = 384 distinct keys, 1.5 times the
#: service's 256-entry response cache, so about two thirds of the batches
#: drawn are cached and the median query is a hit.  A median on the
#: miss path varied too much from run to run (spread 0.30 on serial_tall,
#: above the largest allowed bound): a miss spends most of its time
#: listing the store's directories (``StatsStore.re_taus``), and that
#: time swings with the machine
QUERY_BATCHES = 12
#: each pool batch stretches the sweep by a seeded factor from this
#: range, so its keys are distinct (an assumption of this benchmark;
#: the repo's own query benchmark repeats one batch)
SWEEP_STRETCH = (0.8, 1.0)
#: batches (of 32 queries) per query probe, about 60 ms of queries
QUERY_CHUNK = 40
DT = 2e-4
PA, PB = 1, 2


@dataclass(frozen=True)
class Workload:
    name: str
    nx: int
    ny: int
    nz: int
    why: str
    distributed: bool = False

    @property
    def points(self) -> int:
        return self.nx * self.ny * self.nz


WORKLOADS = {
    w.name: w
    for w in (
        Workload("serial_tall", 16, 129, 16, "one production y-pencil: wall-normal work dominates"),
        Workload("pencil_wide", 48, 33, 48, "1x2 pencil grid: FFT and transposes", distributed=True),
    )
}


@dataclass
class Ledger:
    """Operations attempted and failed; output checks count as operations."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def ops(self, n: int) -> None:
        self.attempted += n

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")

    def checks(self, name: str, n: int, bad: int) -> None:
        """``n`` operations, each checked; ``bad`` of them failed."""
        self.attempted += n
        if bad:
            self.failed += bad
            self.failures.append(f"{name}: {bad} of {n} failed")

    def merge(self, other: "Ledger") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


@dataclass
class Samples:
    """Raw measurements of one run, before they become metrics."""

    setup_s: list[float] = field(default_factory=list)
    step_s: list[float] = field(default_factory=list)
    traced_step_s: list[float] = field(default_factory=list)
    phase_s: float = 0.0
    restart_s: list[float] = field(default_factory=list)
    load_s: list[float] = field(default_factory=list)
    save_s: list[float] = field(default_factory=list)
    save_bytes: list[int] = field(default_factory=list)
    publish_s: list[float] = field(default_factory=list)
    published_nsamples: list[int] = field(default_factory=list)
    columns: list[int] = field(default_factory=list)
    mpi_messages: list[int] = field(default_factory=list)
    mpi_bytes: list[int] = field(default_factory=list)
    measure_runs: int = 0
    query_ns: list[int] = field(default_factory=list)
    query_miss_ns: list[int] = field(default_factory=list)
    #: median query latency of each query probe, in us
    query_probe_us: list[float] = field(default_factory=list)


def config_for(w: Workload, seed: int):
    from repro.core import ChannelConfig

    return ChannelConfig(nx=w.nx, ny=w.ny, nz=w.nz, re_tau=RE_TAU, dt=DT, seed=seed)


def _states_equal(a, b) -> bool:
    pairs = ((a.v, b.v), (a.omega_y, b.omega_y), (a.u00, b.u00), (a.w00, b.w00))
    same = all((x is None and y is None) or np.array_equal(x, y) for x, y in pairs)
    return same and a.time == b.time


def _measure_runs() -> int:
    from repro.tuning import MEASURE_STATS

    return MEASURE_STATS.total()


def _traffic(comm_stats: dict) -> tuple[int, int]:
    """Messages and bytes so far on the pencil sub-communicators.

    The transposes run on CommA/CommB (``cart_sub`` splits), each with
    its own counters shared by its members; the world communicator
    carries none of that traffic.  Each distinct counter object counts
    once.
    """
    seen = {id(st): st for pair in comm_stats.values() for st in pair}
    return sum(st.messages for st in seen.values()), sum(st.bytes for st in seen.values())


# ----------------------------------------------------------------------
# one driver (serial) or one rank's driver (distributed)
# ----------------------------------------------------------------------


class Runner:
    """Drives one workload on this thread; on ``pencil_wide`` one per rank.

    Everything collective is bracketed by barriers, and every timing on
    a rank is taken barrier to barrier, so the lead rank's samples are
    the workload's.
    """

    def __init__(self, w: Workload, cfg, work, tracer: Tracer | None, comm=None, comm_stats=None):
        self.w, self.cfg, self.tracer, self.comm = w, cfg, tracer, comm
        self.lead = comm is None or comm.rank == 0
        self.checkpoints = work / "checkpoints"
        self.store_root = work / "store"
        self.comm_stats = comm_stats
        self.s = Samples()
        self.ledger = Ledger()
        self.dns = None
        self.stats = None
        self.rotation = None
        if comm is None:
            from repro.core.checkpoint import CheckpointRotation

            self.rotation = CheckpointRotation(self.checkpoints, keep=3)
        if tracer is not None and comm is not None:
            tracer.set_lane(comm.rank)

    # -- collective plumbing ----------------------------------------------

    def sync(self) -> None:
        if self.comm is not None:
            self.comm.barrier()

    def decide(self, flag: bool) -> bool:
        """The lead rank's decision, on every rank."""
        return flag if self.comm is None else self.comm.bcast(flag if self.lead else None)

    def timed(self, fn):
        self.sync()
        t0 = perf_counter()
        value = fn()
        self.sync()
        return value, perf_counter() - t0

    def ops(self, n: int) -> None:
        if self.lead:
            self.ledger.ops(n)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        rank = "" if self.comm is None else f"rank {self.comm.rank}: "
        self.ledger.check(name, ok, rank + detail)

    def wrap(self, sites) -> None:
        """Install tracer wrappers between barriers (rank threads share classes)."""
        self.sync()
        if self.lead:
            layers.install(self.tracer, sites)
        self.sync()

    def unwrap(self) -> None:
        self.sync()
        if self.lead:
            self.tracer.unwrap_all()
        self.sync()

    def _track_traffic(self) -> None:
        if self.comm is not None:
            t = self.dns.transforms
            self.comm_stats[self.comm.rank] = (t.comm_a.stats, t.comm_b.stats)

    # -- drivers ------------------------------------------------------------

    def build(self):
        """Construct and initialise a driver: one ``setup_s`` sample."""
        if self.tracer is not None:
            self.wrap(layers.SETUP_SITES)
        runs0 = _measure_runs()

        def make():
            if self.comm is None:
                from repro.core import ChannelDNS

                dns = ChannelDNS(self.cfg)
            else:
                from repro.pencil.distributed import DistributedChannelDNS

                dns = DistributedChannelDNS(self.comm, self.cfg, PA, PB)
            dns.initialize()
            return dns

        dns, dt = self.timed(make)
        self.s.setup_s.append(dt)
        self.s.measure_runs += _measure_runs() - runs0
        if self.tracer is not None:
            self.unwrap()
        return dns

    def start(self) -> None:
        self.dns = self.build()
        self.stats = self.dns.attach_streaming(every=SAMPLE_EVERY)
        self._track_traffic()

    def step(self, traced: bool = False, record: bool = True) -> None:
        """One step; ``record`` keeps its time."""
        dns = self.dns
        c0 = dns.stepper.solve_counters()["columns"] if traced else 0
        m0 = _traffic(self.comm_stats) if traced and self.comm is not None and self.lead else None
        _, dt = self.timed(dns.step)
        if traced:
            self.s.traced_step_s.append(dt)
            self.s.columns.append(dns.stepper.solve_counters()["columns"] - c0)
            if m0 is not None:
                m1 = _traffic(self.comm_stats)
                self.s.mpi_messages.append(m1[0] - m0[0])
                self.s.mpi_bytes.append(m1[1] - m0[1])
        elif record:
            self.s.step_s.append(dt)
        self.ops(1)

    def write(self, publish: bool) -> None:
        """The production write path after a block: a checkpoint with its
        stats sidecar and, if asked, a publish of the statistics."""
        self.save()
        if publish:
            self.publish()

    # -- checkpoint / restart -------------------------------------------

    def save(self) -> None:
        dns = self.dns
        if self.comm is None:
            path, dt = self.timed(lambda: self.rotation.save(dns))
            sidecar = self.checkpoints / f"stats-{dns.step_count:09d}.npz"
            nbytes = path.stat().st_size + sidecar.stat().st_size
        else:
            snap, dt = self.timed(lambda: dns.save_checkpoint(self.checkpoints))
            nbytes = sum(p.stat().st_size for p in snap.iterdir())
        self.s.save_s.append(dt)
        self.s.save_bytes.append(nbytes)
        self.ops(1)

    def restart(self) -> None:
        """Drop the driver; load the newest snapshot and its stats sidecar."""
        saved, samples = self.dns.state, self.stats.total_samples
        self.dns = self.stats = None
        gc.collect()  # the dropped driver's memory is free before the restart
        self.sync()
        t0 = perf_counter()
        if self.comm is None:
            dns = self.rotation.load_latest()
            t1 = perf_counter()
            stats = dns.attach_streaming(every=SAMPLE_EVERY)
            t2 = perf_counter()
            stats.restore_from(self.checkpoints, dns.step_count)
            load_s = (t1 - t0) + (perf_counter() - t2)
        else:
            from repro.pencil.distributed import DistributedChannelDNS

            dns = DistributedChannelDNS(self.comm, self.cfg, PA, PB)
            stats = dns.attach_streaming(every=SAMPLE_EVERY)
            t1 = perf_counter()
            dns.load_checkpoint(self.checkpoints)
            load_s = perf_counter() - t1
        self.sync()
        self.s.restart_s.append(perf_counter() - t0)
        self.s.load_s.append(load_s)
        self.dns, self.stats = dns, stats
        self._track_traffic()
        self.ops(1)
        self.check("restored state == saved state", _states_equal(dns.state, saved))
        self.check(
            "restored stats samples == samples at snapshot",
            stats.total_samples == samples,
            f"{stats.total_samples} != {samples}",
        )

    # -- probes between blocks ------------------------------------------

    def probe_setup(self) -> None:
        """Set up a second driver beside the running one, then drop it."""
        self.build()
        gc.collect()

    def probe_query(self, burst: "QueryBurst | None") -> None:
        if self.lead:
            burst.run(QUERY_CHUNK, self.s, self.ledger)
        self.sync()

    # -- publish ------------------------------------------------------------

    def publish(self) -> dict:
        """Publish the merged statistics (collective merge, lead writes)."""
        from repro.serving import StatsStore

        result = self.stats.result()
        if self.lead:
            dns = self.dns
            t0 = perf_counter()
            StatsStore(self.store_root).publish(
                result, self.cfg, step_count=dns.step_count, sim_time=dns.state.time
            )
            self.s.publish_s.append(perf_counter() - t0)
            self.s.published_nsamples.append(int(result["nsamples"]))
            self.ops(1)
        return result


# ----------------------------------------------------------------------
# the run: start, checks, interleaved timed phase, checks
# ----------------------------------------------------------------------


def _done(s: Samples, t_start: float, seconds: float, trace: bool) -> bool:
    if perf_counter() - t_start < seconds:
        return False
    if trace:
        return len(s.step_s) >= MIN_TRACED and len(s.traced_step_s) >= MIN_TRACED
    return len(s.step_s) >= MIN_STEPS


def _check_against_serial(r: Runner, ref_state) -> None:
    """After CHECK_STEPS steps the gathered distributed state is the serial one."""
    for _ in range(CHECK_STEPS):
        r.dns.step()
    r.ops(CHECK_STEPS)
    full = r.dns.gather_state()
    if not r.lead:
        return
    scale = max(float(np.abs(ref_state.v).max()), float(np.abs(ref_state.omega_y).max()))
    err = max(
        float(np.abs(full.v - ref_state.v).max()),
        float(np.abs(full.omega_y - ref_state.omega_y).max()),
        float(np.abs(full.u00 - ref_state.u00).max()),
    )
    r.check(
        "gathered distributed state == serial driver",
        err <= DISTRIBUTED_RTOL * scale,
        f"max diff {err:.3e} > {DISTRIBUTED_RTOL:.0e} x {scale:.3e}",
    )


def _check_continuation(r: Runner) -> None:
    """A run restarted from a snapshot continues bit-identically."""
    r.save()
    reference = r.dns
    for _ in range(CHECK_STEPS):
        reference.step()
    restarted = r.rotation.load_latest()
    for _ in range(CHECK_STEPS):
        restarted.step()
    r.ops(2 * CHECK_STEPS + 1)
    r.check(
        "restarted run == uninterrupted continuation",
        _states_equal(restarted.state, reference.state),
    )


def drive(r: Runner, seed: int, seconds: float, ref_state=None) -> Runner:
    """One workload run on this thread (every rank runs it on pencil_wide)."""
    r.start()
    if ref_state is not None:
        _check_against_serial(r, ref_state)
    for _ in range(WARMUP_STEPS):
        r.dns.step()
    r.ops(WARMUP_STEPS)
    r.stats.sample()  # the first publish needs at least one sample
    r.publish()
    burst = QueryBurst(r.store_root, seed) if r.lead else None

    trace = r.tracer is not None
    t_start = perf_counter()
    block = 0
    while True:
        traced = trace and block % 2 == 1
        if traced:
            r.wrap(layers.STEP_SITES)
        t0 = perf_counter()
        for _ in range(BLOCK):
            r.step(traced)
        steps_s = perf_counter() - t0
        if traced:
            r.unwrap()
        _, write_s = r.timed(lambda: r.write(publish=block % PUBLISH_EVERY == PUBLISH_EVERY - 1))
        r.s.phase_s += steps_s + write_s
        r.restart()  # from the checkpoint the block just wrote
        r.probe_setup()
        r.probe_query(burst)
        # not recorded: a probe leaves caches cold (and a restart, fresh
        # workspaces); timed blocks measure the steady state
        r.step(record=False)
        block += 1
        if r.decide(_done(r.s, t_start, seconds, trace)):
            break

    finite = r.dns.state_finite()
    div = r.dns.divergence_norm()
    r.check("final state finite", finite)
    r.check("divergence", div < DIVERGENCE_BOUND, f"{div:.3e} >= {DIVERGENCE_BOUND:.0e}")
    if r.comm is None:
        _check_continuation(r)
    result = r.publish()
    if r.lead:
        burst.check_published(result, r.cfg.nu, r.ledger)
    return r


def run(w: Workload, seed: int, seconds: float, tracer: Tracer | None, work) -> tuple[Samples, Ledger]:
    cfg = config_for(w, seed)
    if not w.distributed:
        # one thread of work: keep it on one CPU, so a run does not
        # migrate between vCPUs whose speed differs from moment to moment
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        r = drive(Runner(w, cfg, work, tracer), seed, seconds)
        return r.s, r.ledger

    from repro.core import ChannelDNS
    from repro.mpi.simmpi import run_spmd

    reference = ChannelDNS(cfg)
    reference.initialize()
    for _ in range(CHECK_STEPS):
        reference.step()
    ref_state = reference.state
    reference = None
    gc.collect()
    comm_stats: dict[int, tuple] = {}

    def rank(comm):
        return drive(Runner(w, cfg, work, tracer, comm, comm_stats), seed, seconds, ref_state)

    runners = run_spmd(PA * PB, rank)
    s = runners[0].s
    s.columns = [sum(c) for c in zip(*(r.s.columns for r in runners))]
    ledger = Ledger()
    for r in runners:
        ledger.merge(r.ledger)
    return s, ledger


# ----------------------------------------------------------------------
# query burst (every workload, against the run's and synthetic results)
# ----------------------------------------------------------------------


class QueryBurst:
    """A closed-loop, single-client stream of seeded queries.

    Queries come in batches shaped like ``stats_query_32`` in
    ``benchmarks/bench_stats_service.py``: at each of :data:`QUERY_RE_TAUS`,
    one law-of-wall and four variance sweeps over 16 y+ points and three
    spectra, so law-of-wall, variance and spectrum queries go 1:4:3.  The
    pool holds :data:`QUERY_BATCHES` such batches, each with its y+ values
    stretched by a seeded factor; every probe draws batches uniformly.
    One service lives for the whole run.  Every response is checked.
    """

    def __init__(self, store_root, seed: int) -> None:
        from repro.serving import StatisticsService
        from repro.serving.synthetic import populate_store

        populate_store(store_root, SYNTHETIC_RE_TAUS)
        self.store_root = store_root
        self.svc = StatisticsService(store_root)
        self.rng = np.random.default_rng([seed, 1])
        stretches = self.rng.uniform(*SWEEP_STRETCH, size=QUERY_BATCHES)
        self.pool = [self._batch(float(f)) for f in stretches]
        self.calls = {
            "law_of_wall": self.svc.law_of_wall,
            "variance": self.svc.variance,
            "spectrum": self.svc.spectrum,
        }

    @staticmethod
    def _batch(stretch: float) -> list[tuple]:
        sweep = tuple(float(y) for y in Y_SWEEP * stretch)
        keys = []
        for re_tau in QUERY_RE_TAUS:
            keys.append(("law_of_wall", re_tau, sweep))
            keys += [("variance", re_tau, c, sweep) for c in ("u", "v", "w", "uv")]
            keys += [("spectrum", re_tau, d, c, y * stretch) for d, c, y in SPECTRA]
        return keys

    @staticmethod
    def _sources(kind: str, re_tau: float) -> list[float]:
        """The stored Re_tau an answer must come from: the bracketing pair
        (log-interpolated) for profiles, the nearest in log(Re_tau) for
        spectra."""
        stored = (RE_TAU,) + SYNTHETIC_RE_TAUS
        if re_tau in stored:
            return [re_tau]
        lo = max(r for r in stored if r < re_tau)
        hi = min(r for r in stored if r > re_tau)
        if kind != "spectrum":
            return [lo, hi]
        return [hi] if np.log(re_tau / lo) > np.log(hi / re_tau) else [lo]

    def _ok(self, kind: str, re_tau: float, resp: dict, published: list[int]) -> bool:
        """Finite values from the right sources; the sample count is the
        run's own (a published one) when the run's result is the only
        source, else the synthetic results' 1."""
        values = resp.get("u_plus") or resp.get("value_plus") or resp.get("energy")
        sources = resp["re_tau_sources"]
        nsamples_ok = resp["nsamples"] in published if sources == [RE_TAU] else resp["nsamples"] == 1
        return sources == self._sources(kind, re_tau) and nsamples_ok and bool(np.all(np.isfinite(values)))

    def run(self, batches: int, s: Samples, ledger: Ledger) -> None:
        svc = self.svc
        bad = 0
        probe_ns = []
        for b in self.rng.integers(QUERY_BATCHES, size=batches):
            for kind, *args in self.pool[b]:
                misses = svc.cache_info()["responses"]["misses"]
                t0 = perf_counter_ns()
                resp = self.calls[kind](*args)
                dt = perf_counter_ns() - t0
                probe_ns.append(dt)
                if svc.cache_info()["responses"]["misses"] != misses:
                    s.query_miss_ns.append(dt)
                bad += not self._ok(kind, args[0], resp, s.published_nsamples)
        n = len(probe_ns)
        s.query_ns += probe_ns
        s.query_probe_us.append(float(np.median(probe_ns)) / 1e3)
        ledger.checks("query response finite, from the bracketing Re_tau, nsamples as published", n, bad)

    def check_published(self, result: dict, nu: float, ledger: Ledger) -> None:
        """A fresh service answers law-of-wall sweeps at the run's Re_tau
        from the final publish exactly as the published profile
        interpolates."""
        from repro.serving import StatisticsService

        svc = StatisticsService(self.store_root)
        y = result["y"]
        half = y <= 0.0
        y_plus = (1.0 + y[half]) * result["u_tau"] / nu
        u_plus = result["U"][half] / result["u_tau"]
        sweeps = [batch[0][2] for batch in self.pool[:5]]
        err = max(
            float(np.abs(np.asarray(svc.law_of_wall(RE_TAU, sw)["u_plus"]) - np.interp(sw, y_plus, u_plus)).max())
            for sw in sweeps
        )
        ledger.check("law_of_wall == published profile", err < 1e-12, f"max diff {err:.3e}")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def end_to_end(w: Workload, s: Samples) -> dict[str, tuple[float, str]]:
    step = np.asarray(s.step_s)
    return {
        "step_ms_mean": (float(np.mean(step)) * 1e3, "ms"),
        "step_ms_p90": (float(np.percentile(step, 90)) * 1e3, "ms"),
        "mpts_per_s": (w.points * len(step) / s.phase_s / 1e6, "Mpt-step/s"),
        "setup_s": (statistics.median(s.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "restart_s_mean": (statistics.fmean(s.restart_s), "s"),
        "query_us_p50_min": (min(s.query_probe_us), "us"),
    }


#: step layers reported as per-step self time, with their metric names
_SELF_METRICS = {
    "bsplines.interpolate": "bsplines.interpolate.ms",
    "operators.collocate": "operators.collocate.ms",
    "linalg.solve": "linalg.solve.ms",
    "velocity.recover_uw": "velocity.recover_uw.ms",
    "nonlinear": "nonlinear.self_ms",
    "timestepper": "timestepper.self_ms",
    "fft.pipeline": "fft.pipeline.ms",
    "pencil.fft": "pencil.fft.ms",
    "pencil.transpose": "pencil.transpose.ms",
    "serving.sample": "serving.sample.ms",
}


def _per_step_count(name: str, values: list[int], ledger: Ledger) -> float:
    """A count taken every traced step; the program repeats it exactly."""
    if not values:
        return 0.0
    ledger.check(f"{name} repeats every step", len(set(values)) == 1, f"{sorted(set(values))}")
    return float(statistics.median(values))


def skew(trees, layer: str) -> float:
    """Median over steps of max / median across ranks of one layer's self
    time; 1.0 when a single rank (or no rank) runs the layer."""
    by_step: dict[int, list[int]] = {}
    for t in trees:
        by_step.setdefault(t.step, []).append(t.self_ns.get(layer, 0))
    skews = [max(v) / statistics.median(v) for v in by_step.values() if len(v) > 1 and min(v) > 0]
    return statistics.median(skews) if skews else 1.0


def per_layer(tracer: Tracer, s: Samples, ledger: Ledger) -> dict[str, tuple[float, str]]:
    try:
        trees = tracer.step_trees()
    except AssertionError as exc:
        ledger.check("self-times + unattributed == step wall", False, str(exc))
        trees = []
    else:
        ledger.check("self-times + unattributed == step wall", bool(trees), "no traced steps")
    n = max(len(trees), 1)

    def mean_ms(ns_of) -> float:
        return sum(ns_of(t) for t in trees) / n / 1e6

    def mean_calls(name: str) -> float:
        return sum(t.calls.get(name, 0) for t in trees) / n

    out: dict[str, tuple[float, str]] = {}
    for layer in layers.STEP_LAYERS:
        out[_SELF_METRICS[layer]] = (mean_ms(lambda t: t.self_ns.get(layer, 0)), "ms")
    out["unattributed.ms"] = (mean_ms(lambda t: t.unattributed_ns), "ms")
    wall = mean_ms(lambda t: t.wall_ns)
    parts = sum(v for v, _ in out.values())
    ledger.check(
        "reported self-times + unattributed == traced step",
        abs(parts - wall) <= 1e-9 * wall,
        f"{parts} != {wall}",
    )
    out["trace.step_ms"] = (wall, "ms")
    out["bsplines.interpolate.calls"] = (mean_calls("bsplines.interpolate"), "count")
    out["operators.collocate.calls"] = (mean_calls("operators.collocate"), "count")
    out["linalg.solve.columns"] = (_per_step_count("linalg.solve.columns", s.columns, ledger), "count")
    out["pencil.transpose.skew"] = (skew(trees, "pencil.transpose"), "1")
    out["mpi.messages"] = (_per_step_count("mpi.messages", s.mpi_messages, ledger), "count")
    out["mpi.bytes"] = (_per_step_count("mpi.bytes", s.mpi_bytes, ledger), "B")

    events = tracer.events()

    def median(values) -> float:
        return statistics.median(values) if values else 0.0

    out["checkpoint.save.ms"] = (median(s.save_s) * 1e3, "ms")
    out["checkpoint.save.bytes"] = (median(s.save_bytes), "B")
    out["checkpoint.load.ms"] = (median(s.load_s) * 1e3, "ms")
    out["store.publish.ms"] = (median(s.publish_s) * 1e3, "ms")
    out["query.hit_ratio"] = (1.0 - len(s.query_miss_ns) / len(s.query_ns), "1")
    out["query.miss_us_p50"] = (median(s.query_miss_ns) / 1e3, "us")
    out["setup.factor_s"] = (median(events.get("setup.factor", [])) / 1e9, "s")
    out["setup.plan_s"] = (median(events.get("setup.plan", [])) / 1e9, "s")
    out["setup.measure_runs"] = (float(s.measure_runs), "count")
    out["trace.overhead_frac"] = (
        statistics.median(s.traced_step_s) / statistics.median(s.step_s) - 1.0,
        "1",
    )
    return out


def cleanup(work) -> None:
    shutil.rmtree(work, ignore_errors=True)
