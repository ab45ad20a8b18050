"""Perf-regression harness: record hot-path medians, check against them.

The repo's hot-path wins (the 1.6-1.8x planned transform pipeline of
PR 1, the 2.3-3.0x blocked solve engine of PR 2) are only safe if a
regression is *named and quantified* the moment it lands.  This module
measures a small set of representative hot-path cases, records their
medians into a baseline file (``benchmarks/results/baselines.json`` is
the committed one), and compares later runs against it.

Cross-machine comparability: wall times are normalized by a fixed
calibration kernel (matmul + FFT, measured the same way in the same
process), so a baseline recorded on one machine is meaningful on
another as a *ratio* — perfectly so for kernels that scale like the
calibration mix, approximately otherwise.  Same-machine checks (the
intended blocking use) compare to a few percent; cross-machine checks
run in report-only mode in CI.

Driven by ``scripts/check_perf.py``::

    python scripts/check_perf.py --record          # (re)write the baseline
    python scripts/check_perf.py                   # fail on >tolerance regression
    python scripts/check_perf.py --report          # never fail, print the table
    python scripts/check_perf.py --inject-slowdown 1.2   # self-test the detector
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.telemetry.manifest import _machine
from repro.telemetry.schema import SCHEMA_VERSION

#: flag a case whose normalized median grew beyond this fraction
DEFAULT_TOLERANCE = 0.10

#: the committed baseline location
DEFAULT_BASELINE = pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results" / "baselines.json"


@dataclass(frozen=True)
class BenchCase:
    """One named hot-path measurement.

    ``make`` runs the setup (pipelines planned, engines built, state
    initialized — none of that is the regression surface) and returns
    the thunk that *is* timed.
    """

    name: str
    make: Callable[[], Callable[[], None]]
    #: what PR / subsystem this case guards, for the report
    guards: str = ""


# ----------------------------------------------------------------------
# the guarded hot paths
# ----------------------------------------------------------------------


def _case_transform_chain() -> Callable[[], None]:
    from repro.core.grid import ChannelGrid
    from repro.fft.pipeline import TransformPipeline

    g = ChannelGrid(32, 33, 32)
    pipe = TransformPipeline(g)
    rng = np.random.default_rng(0)
    specs = [
        rng.standard_normal(g.spectral_shape) + 1j * rng.standard_normal(g.spectral_shape)
        for _ in range(3)
    ]
    up, vp, wp = pipe.to_physical_many(specs)
    ww = wp * wp
    prods = [up * up - ww, vp * vp - ww, up * vp, up * wp, vp * wp]

    def chain() -> None:
        pipe.to_physical_many(specs)
        pipe.from_physical_many(prods)

    return chain


def _case_solve_engine() -> Callable[[], None]:
    from repro.linalg.custom import FoldedLU
    from repro.linalg.structure import BandedSystemSpec, FoldedBanded

    rng = np.random.default_rng(0)
    spec = BandedSystemSpec(n=256, kl=3, ku=3, corner=3)
    data = rng.standard_normal((32, 256, spec.window))
    data[:, np.arange(256), spec.mdiag] += 14.0
    lu = FoldedLU(FoldedBanded(spec, data))
    rhs = rng.standard_normal((32, 256)) + 1j * rng.standard_normal((32, 256))
    engine = lu.engine()
    engine.solve(rhs)  # build the workspace outside the timed region

    def solve() -> None:
        engine.solve(rhs)

    return solve


def _case_pipelined_transpose() -> Callable[[], None]:
    from repro.core.grid import ChannelGrid
    from repro.mpi.simmpi import run_spmd
    from repro.pencil.parallel_fft import PencilTransforms
    from repro.pencil.transpose import TransposeMethod

    nx, ny, nz = 32, 16, 32
    grid = ChannelGrid(nx, ny, nz)
    rng = np.random.default_rng(0)
    spec = rng.standard_normal(grid.spectral_shape) + 1j * rng.standard_normal(
        grid.spectral_shape
    )

    def prog(comm):
        cart = comm.cart_create((2, 2))
        tr = PencilTransforms(
            cart, nx, ny, nz, dealias=False, method=TransposeMethod.PIPELINED
        )
        d = tr.decomp
        loc = np.ascontiguousarray(spec[d.x_slice, d.z_spec_slice, :])
        for _ in range(2):
            loc = tr.fft_cycle(loc)
        return True

    def cycle() -> None:
        run_spmd(4, prog)

    return cycle


#: the 1-D stage transforms a 32^3 pencil run plans along non-contiguous
#: axes — the ones MEASURE actually times (last-axis plans have a single
#: candidate and are free either way)
WISDOM_PLAN_SET: tuple[tuple, ...] = (
    ("fft", (32, 16, 33), 0, None),
    ("ifft", (32, 16, 33), 1, None),
    ("rfft", (32, 16, 33), 0, None),
    ("irfft", (17, 16, 33), 0, 32),
)


def _case_warm_wisdom_plan() -> Callable[[], None]:
    import tempfile

    from repro.fft.plans import Planner, PlanFlags
    from repro.tuning import WisdomStore

    store = WisdomStore(pathlib.Path(tempfile.mkdtemp(prefix="wisdom-bench-")) / "wisdom.json")

    def plan_all() -> None:
        # a fresh Planner per call: the in-memory plan cache must not
        # stand in for the store, only the wisdom lookups may
        planner = Planner(flags=PlanFlags.MEASURE, wisdom=store)
        for kind, shape, axis, nout in WISDOM_PLAN_SET:
            planner.plan(kind, shape, axis, nout=nout)

    plan_all()  # cold pass populates the store; timed passes are warm
    return plan_all


def _case_mixed_wire_transpose() -> Callable[[], None]:
    from repro.core.grid import ChannelGrid
    from repro.mpi.simmpi import run_spmd
    from repro.pencil.parallel_fft import PencilTransforms
    from repro.pencil.transpose import TransposeMethod

    nx, ny, nz = 32, 16, 32
    grid = ChannelGrid(nx, ny, nz)
    rng = np.random.default_rng(0)
    spec = rng.standard_normal(grid.spectral_shape) + 1j * rng.standard_normal(
        grid.spectral_shape
    )

    def prog(comm):
        cart = comm.cart_create((2, 2))
        tr = PencilTransforms(
            cart, nx, ny, nz, dealias=False, method=TransposeMethod.PIPELINED,
            wire="mixed",
        )
        d = tr.decomp
        loc = np.ascontiguousarray(spec[d.x_slice, d.z_spec_slice, :])
        for _ in range(2):
            loc = tr.fft_cycle(loc)
        return True

    def cycle() -> None:
        run_spmd(4, prog)

    return cycle


def _case_grow_cascade() -> Callable[[], None]:
    """The elastic-expansion restore path: a serial ``1x1`` snapshot
    reshards up through ``2x2`` to ``2x4`` — what the supervisor pays at
    every ``GrowRequired`` boundary."""
    import shutil
    import tempfile

    from repro.core import ChannelConfig
    from repro.core.checkpoint import ShardedCheckpointRotation
    from repro.mpi.simmpi import run_spmd
    from repro.pencil.distributed import DistributedChannelDNS

    cfg = ChannelConfig(nx=32, ny=33, nz=32, dt=4e-4, init_amplitude=1.0, seed=11)
    base = pathlib.Path(tempfile.mkdtemp(prefix="grow-bench-"))
    seed_dir = base / "serial"
    stage_dir = base / "stage"

    def seed(comm):
        dns = DistributedChannelDNS(comm, cfg, pa=1, pb=1)
        dns.initialize()
        dns.run(1)
        ShardedCheckpointRotation(seed_dir, keep=2).save(dns)
        return True

    run_spmd(1, seed)

    def cascade() -> None:
        shutil.rmtree(stage_dir, ignore_errors=True)

        def grow_2x2(comm):
            dns = DistributedChannelDNS(comm, cfg, pa=2, pb=2)
            ShardedCheckpointRotation(seed_dir, keep=2).load_latest(dns, reshard=True)
            ShardedCheckpointRotation(stage_dir, keep=2).save(dns)
            return True

        def grow_2x4(comm):
            dns = DistributedChannelDNS(comm, cfg, pa=2, pb=4)
            ShardedCheckpointRotation(stage_dir, keep=2).load_latest(dns, reshard=True)
            return True

        run_spmd(4, grow_2x2)
        run_spmd(8, grow_2x4)

    return cascade


def _case_stats_query() -> Callable[[], None]:
    """The serving read path: 32 mixed statistics queries against a
    warm :class:`~repro.serving.StatisticsService` (response-cache hits
    plus the interpolation work of uncached y+ sweeps)."""
    import tempfile

    from repro.serving import StatisticsService
    from repro.serving.synthetic import populate_store

    store = populate_store(
        pathlib.Path(tempfile.mkdtemp(prefix="stats-bench-")) / "store",
        (180.0, 550.0, 1000.0, 2000.0),
    )
    service = StatisticsService(store, cache_size=256)
    y_sweep = tuple(float(y) for y in np.geomspace(1.0, 150.0, 16))

    def queries() -> None:
        for re_tau in (180.0, 350.0, 550.0, 1500.0):
            service.law_of_wall(re_tau, y_sweep)
            for comp in ("u", "v", "w", "uv"):
                service.variance(re_tau, comp, y_sweep)
            service.spectrum(re_tau, "x", "u", 15.0)
            service.spectrum(re_tau, "z", "u", 15.0)
            service.spectrum(re_tau, "x", "w", 100.0)

    queries()  # cold pass fills both caches; timed passes are the warm path
    return queries


def _case_dns_step() -> Callable[[], None]:
    from repro.core import ChannelConfig, ChannelDNS

    dns = ChannelDNS(ChannelConfig(nx=16, ny=25, nz=16, dt=2e-4, seed=3, init_amplitude=0.5))
    dns.initialize()
    dns.run(2)  # warm the pipeline workspaces and the solve engines

    def step() -> None:
        dns.step()

    return step


HOT_PATH_CASES: tuple[BenchCase, ...] = (
    BenchCase("transform_chain_32", _case_transform_chain, guards="PR 1 planned pipeline (3 fwd + 5 bwd, 32x33x32)"),
    BenchCase("solve_engine_256x32", _case_solve_engine, guards="PR 2 blocked banded solve (n=256, batch=32, complex RHS)"),
    BenchCase("dns_step_16", _case_dns_step, guards="whole RK3 IMEX step (16x25x16)"),
    BenchCase(
        "pipelined_transpose_32",
        _case_pipelined_transpose,
        guards="PR 6 overlapped pencil transposes (2 fft_cycles, 4 ranks, 32x16x32)",
    ),
    BenchCase(
        "warm_wisdom_plan_32",
        _case_warm_wisdom_plan,
        guards="PR 7 warm-start MEASURE planning from a populated wisdom store (32^3 pencil stage set)",
    ),
    BenchCase(
        "mixed_wire_transpose_32",
        _case_mixed_wire_transpose,
        guards="PR 7 float32-payload pipelined transposes (2 fft_cycles, 4 ranks, 32x16x32)",
    ),
    BenchCase(
        "grow_cascade_32",
        _case_grow_cascade,
        guards="PR 8 elastic-expansion reshard restore (1x1 -> 2x2 -> 2x4, 32x33x32)",
    ),
    BenchCase(
        "stats_query_32",
        _case_stats_query,
        guards="PR 9 warm-cache statistics serving (32 mixed queries, 4-Re_tau store)",
    ),
)


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


def _calibration_kernel() -> Callable[[], None]:
    """Fixed matmul + FFT mix, the per-machine normalization unit."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((96, 96))
    b = rng.standard_normal((96, 96))
    x = rng.standard_normal(4096)

    def kernel() -> None:
        for _ in range(4):
            a @ b
            np.fft.rfft(x)

    return kernel


def _median_seconds(thunk: Callable[[], None], repeats: int, min_time: float) -> float:
    """Median per-call seconds over ``repeats`` samples, autoranged so a
    sample lasts at least ``min_time`` (timeit-style)."""
    thunk()  # warm-up
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            thunk()
        elapsed = time.perf_counter() - t0
        if elapsed >= min_time or number >= 1 << 20:
            break
        number *= 2 if elapsed <= 0 else max(2, int(min_time / max(elapsed, 1e-9)) + 1)
    samples = [elapsed / number]
    for _ in range(repeats - 1):
        t0 = time.perf_counter()
        for _ in range(number):
            thunk()
        samples.append((time.perf_counter() - t0) / number)
    return float(np.median(samples))


def measure(
    cases=HOT_PATH_CASES, *, repeats: int = 5, min_time: float = 0.05
) -> dict:
    """Measure every case plus the calibration kernel.

    Returns ``{"calibration_s": c, "cases": {name: {"median_s", "normalized",
    "guards"}}}`` with ``normalized = median_s / calibration_s``.
    """
    calibration = _median_seconds(_calibration_kernel(), repeats, min_time)
    out: dict = {"calibration_s": calibration, "cases": {}}
    for case in cases:
        thunk = case.make()
        median = _median_seconds(thunk, repeats, min_time)
        out["cases"][case.name] = {
            "median_s": median,
            "normalized": median / calibration,
            "guards": case.guards,
        }
    return out


def record_baselines(path, cases=HOT_PATH_CASES, *, repeats: int = 5, min_time: float = 0.05) -> dict:
    """Measure and write the baseline file; returns the written document."""
    doc = {
        "schema": SCHEMA_VERSION,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": _machine(),
        "tolerance": DEFAULT_TOLERANCE,
        **measure(cases, repeats=repeats, min_time=min_time),
    }
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def load_baselines(path) -> dict:
    return json.loads(pathlib.Path(path).read_text())


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CaseCheck:
    """Verdict for one case: current vs baseline, normalized."""

    name: str
    baseline_normalized: float
    current_normalized: float
    #: current/baseline - 1, i.e. +0.23 means 23% slower than the baseline
    change: float
    status: str  # "ok" | "regressed" | "improved" | "new"
    guards: str = ""


def check_against(
    baseline: dict,
    *,
    cases=HOT_PATH_CASES,
    repeats: int = 5,
    min_time: float = 0.05,
    tolerance: float | None = None,
    inject_slowdown: float = 1.0,
) -> list[CaseCheck]:
    """Measure now and compare to a loaded baseline document.

    ``inject_slowdown`` multiplies the current measurements — the
    self-test proving the detector actually fires (a 1.2 factor must be
    reported as a ~20% regression).
    """
    tol = baseline.get("tolerance", DEFAULT_TOLERANCE) if tolerance is None else tolerance
    current = measure(cases, repeats=repeats, min_time=min_time)
    results: list[CaseCheck] = []
    for case in cases:
        cur = current["cases"][case.name]
        cur_norm = cur["normalized"] * inject_slowdown
        base = baseline.get("cases", {}).get(case.name)
        if base is None:
            results.append(CaseCheck(case.name, float("nan"), cur_norm, 0.0, "new", case.guards))
            continue
        base_norm = base["normalized"]
        change = cur_norm / base_norm - 1.0
        if change > tol:
            status = "regressed"
        elif change < -tol:
            status = "improved"
        else:
            status = "ok"
        results.append(CaseCheck(case.name, base_norm, cur_norm, change, status, case.guards))
    return results


def format_check_report(results: list[CaseCheck], tolerance: float) -> str:
    """The named, percentage-quantified verdict table."""
    lines = [
        f"perf check vs baseline (tolerance ±{tolerance:.0%}, calibration-normalized):",
        f"{'case':>22} {'baseline':>10} {'current':>10} {'change':>9}  status",
    ]
    for r in results:
        base = "-" if r.status == "new" else f"{r.baseline_normalized:10.3f}"
        lines.append(
            f"{r.name:>22} {base:>10} {r.current_normalized:>10.3f} "
            f"{r.change:>+8.1%}  {r.status.upper() if r.status == 'regressed' else r.status}"
            + (f"  [{r.guards}]" if r.guards and r.status == "regressed" else "")
        )
    regressed = [r for r in results if r.status == "regressed"]
    if regressed:
        worst = max(regressed, key=lambda r: r.change)
        lines.append(
            f"FAIL: {len(regressed)} hot path(s) regressed; worst is "
            f"{worst.name} at {worst.change:+.1%} (guards: {worst.guards or 'n/a'})"
        )
    else:
        lines.append("OK: no hot path regressed beyond tolerance")
    return "\n".join(lines)
