"""Section timers and the run counter registry.

The benchmarks of Tables 9-10 report elapsed time split into
``Transpose`` / ``FFT`` / ``N-S time advance`` (plus Total).  Both the
serial and the distributed drivers instrument themselves with a
:class:`SectionTimers` so the same breakdown can be printed for any run.
The paper used ``MPI_wtime``; we use :func:`time.perf_counter`.  Every
timer additionally accepts an optional ``tracer`` (a
:class:`repro.telemetry.trace.TraceWriter`): when set, each timed
section is also emitted as a Chrome ``trace_event`` span.

Run counters derive from :class:`Counters`.  Each class declares its
fields once — name, reset value, one-line meaning — and inherits
``reset``/``snapshot``/``report``/``count_workspace``.  A class that
sets :attr:`Counters.group` is streamed: it lands in
:data:`COUNTER_GROUPS`, from which :mod:`repro.telemetry.schema` builds
the step-record groups and the doc-coverage test checks
``docs/observability.md``.  Drivers expose their groups to the
:class:`~repro.telemetry.RunRecorder` through a ``counter_sources``
mapping ``{group: zero-argument callable returning the field dict}``.
Increments stay plain attribute ``+=`` on the hot path.

The workspace counters (``workspace_bytes``/``workspace_allocs``) of the
transform pipeline, the solve engines and the recorder are how the
zero-allocation property of the hot path is asserted: after warm-up,
repeated substeps must not grow them.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple


class SectionTimers:
    """Named cumulative wall-clock timers.

    Sections listed in :attr:`NESTED` are timed *inside* another section
    (``solve`` runs within ``ns_advance``) and are therefore excluded
    from :meth:`total`, which otherwise sums disjoint sections.
    """

    #: canonical section names used by the drivers
    TRANSPOSE = "transpose"
    FFT = "fft"
    ADVANCE = "ns_advance"
    NONLINEAR = "nonlinear_products"
    REORDER = "reorder"
    SOLVE = "solve"
    #: fault-tolerance sections: checkpoint writes and rollback/restart
    #: work of the run supervisor (disjoint from the per-step sections)
    CHECKPOINT = "checkpoint"
    RECOVERY = "recovery"
    #: elastic-recovery section: survivor re-planning and reshard restores
    #: after a shrink (disjoint, like CHECKPOINT/RECOVERY)
    ELASTIC = "elastic"
    #: streaming-statistics section: accumulator sampling inside the step
    #: loop (disjoint — it runs after the RK3 advance returned)
    STATS = "stats"
    #: compute executed while a nonblocking exchange was in flight (the
    #: pipelined transposes run FFT slabs inside the transpose section,
    #: so this is nested — it measures hidden time, not extra time)
    OVERLAP = "overlap"

    #: sections nested inside another section (not added to the total)
    NESTED = frozenset({SOLVE, OVERLAP})

    def __init__(self) -> None:
        self.elapsed: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: optional span sink (``repro.telemetry.trace.TraceWriter``); when
        #: set, every timed section is also emitted as a trace span
        self.tracer = None

    @contextmanager
    def section(self, name: str):
        """Time a ``with``-block under ``name`` (cumulative)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.elapsed[name] += dt
            self.calls[name] += 1
            tracer = self.tracer
            if tracer is not None:
                tracer.add_complete(name, t0, dt)

    def total(self) -> float:
        return sum(v for k, v in self.elapsed.items() if k not in self.NESTED)

    def reset(self) -> None:
        self.elapsed.clear()
        self.calls.clear()

    def report(self) -> str:
        """Table-9-style one-liner: per-section seconds plus total."""
        parts = [f"{k}={v:.4f}s" for k, v in sorted(self.elapsed.items())]
        parts.append(f"total={self.total():.4f}s")
        return "  ".join(parts)

    def merge(self, other: "SectionTimers") -> None:
        for k, v in other.elapsed.items():
            self.elapsed[k] += v
        for k, v in other.calls.items():
            self.calls[k] += v


class Field(NamedTuple):
    """One declared counter: attribute name, reset value, meaning."""

    name: str
    default: int | float
    doc: str


#: telemetry step-record group name -> the counter class streamed under it
COUNTER_GROUPS: dict[str, type["Counters"]] = {}


class Counters:
    """Base of the run counter classes.

    Subclasses declare :attr:`fields`; a subclass that also sets
    :attr:`group` (and :attr:`group_doc`: the group's scope and when it
    is absent) registers itself in :data:`COUNTER_GROUPS`.
    """

    fields: tuple[Field, ...] = ()
    group: str | None = None
    group_doc: str = ""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.names = tuple(f.name for f in cls.fields)
        if "group" in cls.__dict__:
            COUNTER_GROUPS[cls.group] = cls

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        for f in self.fields:
            setattr(self, f.name, f.default)

    def snapshot(self) -> dict:
        """Point-in-time copy of every field (for before/after deltas)."""
        return {n: getattr(self, n) for n in self.names}

    @classmethod
    def summed(cls, parts) -> dict:
        """Field-wise sum over several instances, shaped like a snapshot."""
        total = {f.name: f.default for f in cls.fields}
        for part in parts:
            for n in cls.names:
                total[n] += getattr(part, n)
        return total

    def report(self) -> str:
        """One ``name=value`` pair per field."""
        return "  ".join(
            f"{n}={v:.6g}" if isinstance(v, float) else f"{n}={v}"
            for n, v in self.snapshot().items()
        )

    def count_workspace(self, arr) -> None:
        """Record a newly allocated workspace array."""
        self.workspace_bytes += int(arr.nbytes)
        self.workspace_allocs += 1


class TransformCounters(Counters):
    """Allocation / execution counters of a transform pipeline.

    Transform *outputs* are caller-owned fresh arrays and are not
    workspace; a warmed-up pipeline holds the workspace counters
    constant across calls.
    """

    group = "transforms"
    group_doc = "absent when the backend exposes no counters (e.g. the pencil pipeline)"
    fields = (
        Field("workspace_bytes", 0, "bytes of pipeline-owned scratch (pad buffers, staging)"),
        Field("workspace_allocs", 0, "pipeline-owned scratch arrays allocated"),
        Field("transforms", 0, "FFT stage executions (two per field)"),
        Field("fields_forward", 0, "fields taken spectral -> physical"),
        Field("fields_backward", 0, "fields taken physical -> spectral"),
    )


class OverlapCounters(Counters):
    """Communication/compute overlap accounting of the pipelined transposes
    (:class:`repro.pencil.transpose.PipelinedTranspose`).

    The matching ``OVERLAP`` timer section is nested: it measures FFT
    time hidden inside the transpose section, not additional time.
    """

    group = "overlap"
    group_doc = (
        "per-rank; absent when the backend exposes no overlap counters (serial runs) "
        "and all-zero when no transpose runs pipelined"
    )
    fields = (
        Field("posts", 0, "staged nonblocking exchanges posted"),
        Field("waits", 0, "staged exchanges waited on"),
        Field("bytes_posted", 0, "off-rank payload bytes posted"),
        Field("bytes_completed", 0, "posted bytes whose requests finished"),
        Field(
            "bytes_overlapped", 0,
            "bytes already delivered when the wait first checked (fully hidden)",
        ),
        Field("wait_seconds", 0.0, "time blocked in Request.wait (exposed communication)"),
        Field(
            "overlap_seconds", 0.0,
            "compute run while an exchange was in flight (hidden window)",
        ),
    )


class PrecisionCounters(Counters):
    """Mixed-precision wire accounting of the global transposes.

    Under ``wire="mixed"`` float64/complex128 payloads are staged down to
    float32/complex64 before the exchange and accumulated back at full
    precision; ``bytes_wire / bytes_full`` is the counter-asserted wire
    saving (≤ 0.55 for pure float payloads; the excess over 0.5 comes
    from exchanges too narrow to down-cast).
    """

    group = "precision"
    group_doc = (
        "bytes_wire equals bytes_full under wire='full' and is roughly halved under "
        "wire='mixed'; per-rank; absent when the backend exposes no precision counters "
        "(serial runs)"
    )
    fields = (
        Field("exchanges", 0, "staged exchanges"),
        Field("casts", 0, "exchanges that were narrowed to single precision"),
        Field("bytes_wire", 0, "bytes actually staged for the wire"),
        Field("bytes_full", 0, "bytes the full-precision payload would have moved"),
    )

    def wire_fraction(self) -> float:
        """bytes_wire / bytes_full (1.0 before any exchange)."""
        if not self.bytes_full:
            return 1.0
        return self.bytes_wire / self.bytes_full


class SolveCounters(Counters):
    """Workspace / execution counters of a batched banded solve engine.

    Solve *outputs* are caller-owned fresh arrays and are not workspace;
    a built engine holds the workspace counters frozen across
    steady-state solves.
    """

    group = "solve"
    group_doc = "summed over every built solve engine of the stepper"
    fields = (
        Field("workspace_bytes", 0, "bytes of engine-owned scratch (right-hand-side panels)"),
        Field("workspace_allocs", 0, "engine-owned scratch arrays allocated"),
        Field("solves", 0, "solve calls"),
        Field("sweeps", 0, "blocked forward+backward passes"),
        Field("columns", 0, "real right-hand-side columns swept (a complex one is two)"),
    )


class RecoveryCounters(Counters):
    """Checkpoint / recovery bookkeeping shared by the checkpoint
    rotations (:mod:`repro.core.checkpoint`), the run supervisor
    (:mod:`repro.core.supervisor`) and the elastic job loop
    (:func:`repro.pencil.distributed.run_supervised_spmd`).
    """

    group = "recovery"
    group_doc = (
        "owned by the supervisor, so it is not re-baselined when a rollback replaces "
        "the driver; absent until recovery counters are wired in (supervised runs)"
    )
    fields = (
        Field("checkpoints_saved", 0, "snapshots written by the rotation"),
        Field("checkpoints_pruned", 0, "snapshots removed by the rotation"),
        Field("verify_failures", 0, "snapshots rejected by checksum or manifest verification"),
        Field("failures", 0, "watchdog/collective trips the supervisor caught"),
        Field("rollbacks", 0, "successful restores"),
        Field("restarts", 0, "job-level relaunches of an SPMD program"),
        Field("dt_reductions", 0, "graceful-degradation dt cuts after instability"),
        Field("shrinks", 0, "agreed survivor-set reductions after a rank death"),
        Field("grows", 0, "re-expansions of a degraded run onto returned ranks"),
        Field(
            "reshard_restores", 0,
            "snapshots reassembled onto a grid other than the one that wrote them",
        ),
    )


class StatsCounters(Counters):
    """Bookkeeping of a streaming-statistics accumulator
    (:class:`repro.serving.StreamingStatistics`)."""

    group = "stats"
    group_doc = (
        "sample_seconds is the numerator of the accumulator's <1%-of-step-time budget; "
        "absent when no accumulator is attached (dns.attach_streaming)"
    )
    fields = (
        Field("samples", 0, "states folded into the running sums"),
        Field("merges", 0, "collective partial-sum reductions (one allreduce each)"),
        Field("publishes", 0, "results pushed into a results store"),
        Field("restores", 0, "accumulator sidecars loaded after a restart or reshard"),
        Field("sample_seconds", 0.0, "the accumulator's own wall time"),
    )


class TelemetryCounters(Counters):
    """Emission / workspace counters of a :class:`repro.telemetry.RunRecorder`.

    ``workspace_allocs`` counts recorder-owned scratch entries (the
    reused record dict, per-section and per-counter delta slots) and must
    freeze after the first record of a warmed-up run.
    ``overhead_seconds`` is the numerator of the <1%-per-step budget.
    """

    fields = (
        Field("records", 0, "step records written"),
        Field("events", 0, "event records written"),
        Field("bytes_written", 0, "stream bytes written"),
        Field("flushes", 0, "stream flushes"),
        Field("overhead_seconds", 0.0, "the recorder's own wall time"),
        Field("workspace_allocs", 0, "recorder-owned scratch entries allocated"),
    )
