"""Streaming-vs-batch statistics identity, including restart and shrink.

The acceptance property of the streaming accumulator: a streamed run's
profiles and spectra match the batch ``stats/`` functions — bit-for-bit
in serial (identical operations in identical order), and to the
documented :data:`repro.serving.REDUCTION_RTOL` across ranks (the
allreduce regroups the floating-point sums) — and the match survives a
mid-run kill/restart and an elastic shrink with no samples lost.
"""

import numpy as np
import pytest

from repro.core import ChannelConfig, ChannelDNS
from repro.core.checkpoint import CheckpointRotation
from repro.mpi.simmpi import FaultEvent, FaultPlan, run_spmd
from repro.pencil.distributed import DistributedChannelDNS, run_supervised_spmd
from repro.serving import REDUCTION_RTOL, StatsStore, StreamingStatistics
from repro.stats.spectra import energy_spectrum_x, energy_spectrum_z

CFG = ChannelConfig(nx=16, ny=24, nz=16, dt=2e-4, init_amplitude=0.5, seed=8)


def _serial_reference(nsteps: int, every: int = 1):
    """Streamed serial run: the oracle the resilience tests compare against."""
    dns = ChannelDNS(CFG)
    dns.initialize()
    stream = dns.attach_streaming(every=every)
    dns.run(nsteps)
    return dns, stream


def _assert_matches(result: dict, ref: dict, rtol: float, names=None):
    for name in names or ("U", "uu", "vv", "ww", "uv"):
        np.testing.assert_allclose(
            result[name], ref[name], rtol=rtol, atol=1e-14, err_msg=name
        )


class TestSerialIdentity:
    def test_profiles_bit_identical_to_running_statistics(self):
        """Streamed profiles == the batch accumulator, bit for bit: both
        sum the same per-plane weighted products in the same order."""
        dns, stream = _serial_reference(4)
        batch = ChannelDNS(CFG)
        batch.initialize()
        batch.run(4, sample_every=1)
        res = stream.result()
        for name in ("uu", "vv", "ww", "uv"):
            np.testing.assert_array_equal(res[name], batch.statistics.profile(name))
        # U differs only by the summation route (values-of-sum vs
        # sum-of-values); both are exact to one ulp
        np.testing.assert_allclose(
            res["U"], batch.statistics.profile("U"), rtol=0, atol=1e-14
        )

    def test_spectra_match_batch_functions(self):
        """A single streamed sample reproduces energy_spectrum_x/z at
        every plane (round-off only: the batch path slices the y plane
        before summing, the streamed path after)."""
        dns, stream = _serial_reference(1)
        res = stream.result()
        ops = dns.stepper.ops
        for field, comp in ((dns.state.u, "u"), (dns.state.v, "v"), (dns.state.w, "w")):
            for yi in (0, CFG.ny // 2, CFG.ny - 1):
                kx, ex = energy_spectrum_x(dns.grid, ops, field, yi)
                kz, ez = energy_spectrum_z(dns.grid, ops, field, yi)
                np.testing.assert_array_equal(kx, res["kx"])
                np.testing.assert_array_equal(kz, res["kz"])
                np.testing.assert_allclose(
                    res[f"spec_x_{comp}"][:, yi], ex, rtol=1e-12, atol=1e-300
                )
                np.testing.assert_allclose(
                    res[f"spec_z_{comp}"][:, yi], ez, rtol=1e-12, atol=1e-300
                )

    def test_sampling_cadence(self):
        dns = ChannelDNS(CFG)
        dns.initialize()
        stream = dns.attach_streaming(every=2)
        dns.run(5)
        assert stream.counters.samples == 2  # steps 2 and 4
        assert stream.total_samples == 2

    def test_stats_timer_section_accumulates(self):
        dns, stream = _serial_reference(3)
        timers = dns.stepper.timers
        assert timers.calls.get(timers.STATS) == 3
        assert timers.elapsed[timers.STATS] > 0.0
        assert stream.counters.sample_seconds > 0.0

    def test_result_without_samples_raises(self):
        dns = ChannelDNS(CFG)
        dns.initialize()
        stream = dns.attach_streaming()
        with pytest.raises(RuntimeError, match="no samples"):
            stream.result()


class TestSerialSidecar:
    def test_kill_restart_loses_no_samples(self, tmp_path):
        """Serial mid-run 'kill': checkpoint at step 3, rebuild from disk,
        resume to step 6 — streamed stats == an uninterrupted streamed run."""
        _, ref_stream = _serial_reference(6)
        ref = ref_stream.result()

        rot = CheckpointRotation(tmp_path, keep=3)
        dns = ChannelDNS(CFG)
        dns.initialize()
        dns.attach_streaming(every=1)
        dns.run(3)
        rot.save(dns)  # writes the stats sidecar alongside
        del dns  # the "kill"

        restored = rot.load_latest(CFG)
        stream = restored.attach_streaming(every=1)
        assert stream.restore_from(tmp_path, restored.step_count)
        assert stream.total_samples == 3
        assert stream.counters.restores == 1
        restored.run(3)
        res = stream.result()
        assert res["nsamples"] == 6
        # restored-base + resumed-partial regroups the sum, so the match
        # is to the documented reduction tolerance, not bit-exact
        _assert_matches(res, ref, REDUCTION_RTOL)
        for name in ("spec_x_u", "spec_z_w"):
            np.testing.assert_allclose(
                res[name], ref[name], rtol=REDUCTION_RTOL, atol=1e-300, err_msg=name
            )

    def test_missing_sidecar_restores_empty(self, tmp_path):
        dns = ChannelDNS(CFG)
        dns.initialize()
        stream = dns.attach_streaming()
        assert not stream.restore_from(tmp_path, 5)
        assert stream.total_samples == 0

    def test_sidecar_grid_mismatch_rejected(self, tmp_path):
        dns, stream = _serial_reference(1)
        stream.save_to(tmp_path, 1)
        other = ChannelDNS(ChannelConfig(nx=16, ny=17, nz=16, dt=2e-4))
        other.initialize()
        with pytest.raises(ValueError, match="grid mismatch"):
            other.attach_streaming().restore_from(tmp_path, 1)

    def test_sidecars_rotate_with_snapshots(self, tmp_path):
        rot = CheckpointRotation(tmp_path, keep=2)
        dns = ChannelDNS(CFG)
        dns.initialize()
        dns.attach_streaming(every=1)
        for _ in range(4):
            dns.run(1)
            rot.save(dns)
        assert len(list(tmp_path.glob("stats-*.npz"))) == 2
        latest = StreamingStatistics.latest_sidecar_step(tmp_path)
        assert latest == dns.step_count


class TestDistributedIdentity:
    @pytest.mark.parametrize("pa,pb", [(2, 2), (4, 1)])
    def test_distributed_matches_serial_to_reduction_tolerance(self, pa, pb):
        _, ref_stream = _serial_reference(4)
        ref = ref_stream.result()

        def prog(comm):
            dns = DistributedChannelDNS(comm, CFG, pa=pa, pb=pb)
            dns.initialize()
            stream = dns.attach_streaming(every=1)
            dns.run(4)
            return stream.result() if comm.rank == 0 else stream.result() and None

        results = run_spmd(4, prog)
        res = results[0]
        _assert_matches(res, ref, REDUCTION_RTOL)
        for name in ("spec_x_u", "spec_x_v", "spec_x_w", "spec_z_u", "spec_z_w"):
            np.testing.assert_allclose(
                res[name], ref[name], rtol=REDUCTION_RTOL, atol=1e-300, err_msg=name
            )
        assert res["nsamples"] == 4
        np.testing.assert_allclose(res["u_tau"], ref["u_tau"], rtol=REDUCTION_RTOL)

    def test_supervised_restart_preserves_samples(self, tmp_path):
        """A mid-run rank kill -> full restart: published statistics match
        the uninterrupted serial oracle with exactly n_steps samples."""
        _, ref_stream = _serial_reference(10)
        ref = ref_stream.result()
        plan = FaultPlan([FaultEvent(action="kill", rank=1, op="alltoall", call=150)])
        final, log = run_supervised_spmd(
            4, CFG, pa=2, pb=2, n_steps=10,
            checkpoint_dir=tmp_path / "ck", checkpoint_every=5,
            fault_plans=[plan],
            streaming_every=1, publish=tmp_path / "store",
        )
        assert [e.kind for e in log] == ["restart"]
        manifest, arrays = StatsStore(tmp_path / "store").load(CFG.re_tau)
        assert manifest["nsamples"] == 10
        _assert_matches(arrays, ref, REDUCTION_RTOL)

    def test_elastic_shrink_preserves_samples(self, tmp_path):
        """The 4 -> 2x1-survivor shrink continues accumulating: published
        statistics still match the serial oracle, no samples dropped."""
        _, ref_stream = _serial_reference(10)
        ref = ref_stream.result()
        plan = FaultPlan([FaultEvent(action="kill", rank=1, op="alltoall", call=150)])
        final, log = run_supervised_spmd(
            4, CFG, pa=2, pb=2, n_steps=10,
            checkpoint_dir=tmp_path / "ck", checkpoint_every=5,
            fault_plans=[plan], elastic=True,
            streaming_every=1, publish=tmp_path / "store",
        )
        assert "shrink" in [e.kind for e in log]
        manifest, arrays = StatsStore(tmp_path / "store").load(CFG.re_tau)
        assert manifest["nsamples"] == 10
        _assert_matches(arrays, ref, REDUCTION_RTOL)
        for name in ("spec_x_u", "spec_z_u"):
            np.testing.assert_allclose(
                arrays[name], ref[name], rtol=REDUCTION_RTOL, atol=1e-300, err_msg=name
            )
