"""High-level channel DNS driver (serial reference implementation).

:class:`ChannelDNS` ties together the grid, the RK3 IMEX stepper, initial
conditions, statistics and diagnostics behind the public API used by the
examples:

>>> from repro.core import ChannelConfig, ChannelDNS
>>> dns = ChannelDNS(ChannelConfig(nx=32, ny=33, nz=32, re_tau=180.0, dt=2e-4))
>>> dns.initialize()
>>> dns.run(10)
>>> dns.statistics.bulk_velocity()  # doctest: +SKIP

Units: lengths in channel half-widths, velocities in friction velocity
(the driving pressure gradient is 1, so ``u_tau = 1`` and
``nu = 1 / Re_tau``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.grid import ChannelGrid
from repro.core.initial import perturbed_state
from repro.core.statistics import RunningStatistics
from repro.core.timestepper import ChannelState, IMEXStepper, SMR91
from repro.core.transforms import SerialTransformBackend
from repro.core.velocity import divergence


@dataclass
class ChannelConfig:
    """Configuration of a channel DNS run.

    The paper's production case is ``nx=10240, ny=1536, nz=7680`` at
    ``Re_tau = 5200``; laptop-scale reproductions use grids like 32³ at
    ``Re_tau = 180``.
    """

    nx: int = 32
    ny: int = 33
    nz: int = 32
    re_tau: float = 180.0
    lx: float = 2.0 * np.pi
    lz: float = np.pi
    dt: float = 1e-4
    degree: int = 7
    stretch: float = 2.0
    forcing: float = 1.0
    init_amplitude: float = 0.1
    init_modes: int = 4
    init_base: str = "reichardt"
    seed: int = 0
    scheme: SMR91 = field(default_factory=SMR91)
    nu_value: float | None = None
    #: FFT execution backend of the transform pipeline: "numpy" (default,
    #: bit-reproducible), "scipy" (pocketfft with a thread pool) or "auto".
    fft_backend: str = "numpy"
    #: thread count for the scipy backend (the paper's OpenMP-threaded
    #: FFTs); None leaves the backend single-threaded.
    fft_workers: int | None = None
    #: plan selection: "estimate" (deterministic default) or "measure"
    #: (time strategy candidates once at startup, FFTW_MEASURE style).
    fft_planning: str = "estimate"

    @property
    def nu(self) -> float:
        """Kinematic viscosity: explicit ``nu_value`` if set, else implied
        by Re_tau with ``u_tau = sqrt(forcing)``."""
        if self.nu_value is not None:
            return float(self.nu_value)
        return float(np.sqrt(self.forcing)) / self.re_tau


class ChannelDNS:
    """Serial spectral channel DNS (Kim–Moin–Moser formulation).

    ``telemetry`` enables structured run recording (see
    :mod:`repro.telemetry`): pass a directory path or a
    :class:`~repro.telemetry.TelemetryConfig` and every step emits a
    JSON-lines record (section times, counters, dt, CFL) with a run
    manifest and a Chrome trace written alongside; an already-built
    :class:`~repro.telemetry.RunRecorder` is attached as-is.  Call
    :meth:`finalize_telemetry` (or close the recorder) at the end of a
    run to write the summary record.
    """

    def __init__(self, config: ChannelConfig, telemetry=None) -> None:
        self.config = config
        self.grid = ChannelGrid(
            config.nx,
            config.ny,
            config.nz,
            lx=config.lx,
            lz=config.lz,
            degree=config.degree,
            stretch=config.stretch,
        )
        self.backend = SerialTransformBackend(
            self.grid,
            backend=config.fft_backend,
            workers=config.fft_workers,
            planning=config.fft_planning,
        )
        self.stepper = IMEXStepper(
            self.grid,
            nu=config.nu,
            dt=config.dt,
            forcing=config.forcing,
            scheme=config.scheme,
            backend=self.backend,
        )
        self.statistics = RunningStatistics(self.grid)
        self.state: ChannelState | None = None
        self.step_count = 0
        #: telemetry counter groups {group: snapshot callable}; the
        #: recorder keeps this dict, so groups added later are streamed
        self.counter_sources = {
            "transforms": self.backend.counters.snapshot,
            "solve": self.stepper.solve_counters,
        }
        self.recorder = None
        self.streaming = None
        self._streaming_every = 0
        if telemetry is not None:
            from repro.telemetry import RunRecorder

            rec = telemetry if isinstance(telemetry, RunRecorder) else RunRecorder(telemetry)
            rec.attach(self)

    # ------------------------------------------------------------------

    def initialize(self, state: ChannelState | None = None) -> None:
        """Set the initial condition (default: perturbed mean profile)."""
        if state is None:
            cfg = self.config
            state = perturbed_state(
                self.grid,
                nu=cfg.nu,
                amplitude=cfg.init_amplitude,
                modes=cfg.init_modes,
                seed=cfg.seed,
                base=cfg.init_base,
                forcing=cfg.forcing,
            )
        # populate the derived velocity cache
        from repro.core.velocity import recover_uw

        if state.u is None or state.w is None:
            state.u, state.w = recover_uw(
                self.grid.modes, self.stepper.ops, state.v, state.omega_y, state.u00, state.w00
            )
        self.state = state

    def attach_streaming(self, stats=None, *, every: int = 1):
        """Attach a streaming-statistics accumulator to the step loop.

        Every ``every`` steps, :meth:`step` folds the fresh state into
        the accumulator under the ``stats`` timer section (see
        :mod:`repro.serving`).  ``stats=None`` builds a fresh
        :class:`~repro.serving.StreamingStatistics`.  Returns the
        attached accumulator.
        """
        if stats is None:
            from repro.serving import StreamingStatistics

            stats = StreamingStatistics(self)
        self.streaming = stats
        self._streaming_every = max(1, int(every))
        self.counter_sources["stats"] = stats.counters.snapshot
        return stats

    def step(self) -> None:
        """Advance one timestep."""
        if self.state is None:
            raise RuntimeError("call initialize() first")
        self.state = self.stepper.step(self.state)
        self.step_count += 1
        if self.streaming is not None and self.step_count % self._streaming_every == 0:
            with self.stepper.timers.section(self.stepper.timers.STATS):
                self.streaming.sample(self.state)
        if self.recorder is not None:
            self.recorder.record_step(self)

    def finalize_telemetry(self) -> None:
        """Close the attached recorder (summary record + final trace)."""
        if self.recorder is not None:
            self.recorder.close()

    def set_dt(self, dt: float) -> None:
        """Change the timestep (refactors the implicit banded systems)."""
        self.stepper.set_dt(dt)

    def run(self, nsteps: int, sample_every: int = 0, callback=None, controllers=()) -> None:
        """Advance ``nsteps``; optionally sample statistics every k steps.

        ``controllers`` are callables applied after every step (e.g.
        :class:`~repro.core.control.CFLController`,
        :class:`~repro.core.control.MassFluxController`, or a
        :class:`~repro.core.health.HealthMonitor`, whose typed exceptions
        propagate to the caller — the supervised run loop catches them).
        """
        for _ in range(nsteps):
            self.step()
            for ctrl in controllers:
                ctrl(self)
            if sample_every and self.step_count % sample_every == 0:
                self.statistics.sample(self.state)
            if callback is not None:
                callback(self)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def physical_velocity(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, w) on the dealiased quadrature grid ``(nxq, nzq, ny)``."""
        s = self._require_state()
        ops = self.stepper.ops
        up, vp, wp = self.backend.to_physical_many(
            (ops.values(s.u), ops.values(s.v), ops.values(s.w))
        )
        return up, vp, wp

    def divergence_norm(self) -> float:
        """Max collocated spectral divergence (machine-zero for this scheme)."""
        s = self._require_state()
        div = divergence(self.grid.modes, self.stepper.ops, s.u, s.v, s.w)
        return float(np.abs(div).max())

    def kinetic_energy(self) -> float:
        """Volume-averaged kinetic energy (including the mean flow)."""
        s = self._require_state()
        ops = self.stepper.ops
        g = self.grid
        w2 = np.full((g.mx, g.mz), 2.0)
        w2[0, :] = 1.0
        e_y = np.zeros(g.ny)
        for f in (s.u, s.v, s.w):
            vals = ops.values(f)
            e_y += (np.abs(vals) ** 2 * w2[..., None]).sum(axis=(0, 1))
        wq = g.basis.collocation_weights
        return float(wq @ e_y) / 2.0 / 2.0  # /2 for KE, /2 for volume (Ly = 2)

    def cfl_number(self) -> float:
        return self.stepper.cfl_number()

    def state_finite(self) -> bool:
        """True when every prognostic array is finite (watchdog hook)."""
        s = self._require_state()
        for arr in (s.v, s.omega_y, s.u00, s.w00):
            if arr is not None and not np.all(np.isfinite(arr)):
                return False
        return True

    def wall_shear_velocity(self) -> float:
        """Instantaneous friction velocity from the mean profile."""
        s = self._require_state()
        d_lo, d_up = self.stepper.ops.wall_derivatives(s.u00)
        return float(np.sqrt(self.config.nu * 0.5 * (abs(d_lo) + abs(d_up))))

    def _require_state(self) -> ChannelState:
        if self.state is None:
            raise RuntimeError("call initialize() first")
        return self.state
