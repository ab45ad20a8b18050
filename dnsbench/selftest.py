"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    python3 dnsbench/selftest.py

* the tracer: synthetic nested and per-thread calls with known sleeps;
  self-times plus the unattributed remainder equal the root span
  exactly, skew is computed per rank, and unwrapping restores every
  wrapped attribute (including every real layer site) to the original
  object;
* the traffic counters: on ``pencil_wide`` the per-step messages and
  bytes read from the pencil sub-communicators are non-zero and repeat
  exactly, step to step and run to run, while the world communicator
  reads zero.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time

import layers
from envinfo import pin_threads
from run import _import_program
from tracer import Tracer


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL {message}")
    print(f"ok   {message}")


class _Fake:
    """step -> {a -> b, b}: known sleeps at every level."""

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = scale

    def step(self):
        time.sleep(0.002)
        self.a()
        self.b()

    def a(self):
        time.sleep(0.003 * self.scale)
        self.b()

    def b(self):
        time.sleep(0.001)


def _wrap_fake(tracer) -> None:
    tracer.wrap(_Fake, "step", "step")
    tracer.wrap(_Fake, "a", "a")
    tracer.wrap(_Fake, "b", "b")


def test_nested_self_times() -> None:
    originals = {k: vars(_Fake)[k] for k in ("step", "a", "b")}
    tracer = Tracer()
    _wrap_fake(tracer)
    fake = _Fake()
    for _ in range(5):
        fake.step()
    tracer.unwrap_all()
    trees = tracer.step_trees()
    check(len(trees) == 5, "one tree per root call")
    check(all(sum(t.self_ns.values()) == t.wall_ns for t in trees),
          "self-times + unattributed == root span, exactly, every step")
    t = trees[0]
    check(t.calls == {"step": 1, "a": 1, "b": 2}, f"call counts {t.calls}")
    check(t.self_ns["a"] >= 3_000_000 and t.self_ns["a"] < 2 * 3_000_000 + 2_000_000,
          f"a self time excludes its child b ({t.self_ns['a']} ns)")
    check(t.self_ns["b"] >= 2_000_000, f"b self time covers both calls ({t.self_ns['b']} ns)")
    check(t.unattributed_ns >= 2_000_000, f"root self time is the remainder ({t.unattributed_ns} ns)")

    check(all(vars(_Fake)[k] is v for k, v in originals.items()), "unwrap restores the originals")
    fake.step()
    check(len(tracer.step_trees()) == 5 and not tracer.events(), "no spans recorded after unwrap")


def test_per_thread_trees_and_skew() -> None:
    from workloads import skew

    tracer = Tracer()
    _wrap_fake(tracer)
    barrier = threading.Barrier(2)

    def rank(lane: int) -> None:
        tracer.set_lane(lane)
        fake = _Fake(scale=1.0 if lane == 0 else 2.0)
        for _ in range(4):
            barrier.wait()
            fake.step()

    threads = [threading.Thread(target=rank, args=(r,)) for r in (0, 1)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30)
    check(not any(th.is_alive() for th in threads), "rank threads finished")
    tracer.unwrap_all()
    trees = tracer.step_trees()
    check(sorted((t.lane, t.step) for t in trees) == [(lane, s) for lane in (0, 1) for s in range(4)],
          "one tree per rank and step, no cross-thread mixing")
    check(all(t.calls == {"step": 1, "a": 1, "b": 2} for t in trees), "per-thread stacks")
    # a sleeps 3 ms on rank 0 and 6 ms on rank 1: max / median = 6 / 4.5
    got = skew(trees, "a")
    check(abs(got - 6 / 4.5) < 0.1, f"skew of a across ranks = {got:.3f} (expect {6 / 4.5:.3f})")
    check(skew([t for t in trees if t.lane == 0], "a") == 1.0, "single-rank skew is 1")


def test_real_sites_unwrap() -> None:
    def current():
        out = {}
        for module, cls, attr, _ in layers.STEP_SITES + layers.SETUP_SITES:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            out[(module, cls, attr)] = vars(owner)[attr]
        return out

    before = current()
    tracer = Tracer()
    layers.install(tracer, layers.STEP_SITES)
    layers.install(tracer, layers.SETUP_SITES)
    wrapped = current()
    check(all(wrapped[k] is not v for k, v in before.items()), "every layer site is wrapped")
    tracer.unwrap_all()
    check(current() == before and all(current()[k] is v for k, v in before.items()),
          "every layer site restored to the original object")


def _traffic_run(seed: int) -> tuple[list[tuple[int, int]], tuple[int, int]]:
    from repro.mpi.simmpi import run_spmd
    from repro.pencil.distributed import DistributedChannelDNS
    from workloads import PA, PB, WORKLOADS, _traffic, config_for

    cfg = config_for(WORKLOADS["pencil_wide"], seed)
    comm_stats: dict[int, tuple] = {}

    def prog(comm):
        dns = DistributedChannelDNS(comm, cfg, PA, PB)
        dns.initialize()
        comm_stats[comm.rank] = (dns.transforms.comm_a.stats, dns.transforms.comm_b.stats)
        deltas = []
        for _ in range(4):
            comm.barrier()
            m0 = _traffic(comm_stats)
            comm.barrier()
            dns.step()
            comm.barrier()
            m1 = _traffic(comm_stats)
            deltas.append((m1[0] - m0[0], m1[1] - m0[1]))
            comm.barrier()
        return deltas, (comm.stats.messages, comm.stats.bytes)

    return run_spmd(PA * PB, prog)[0]


def test_traffic_counts() -> None:
    first, world = _traffic_run(1)
    second, _ = _traffic_run(2)
    check(first[0][0] > 0 and first[0][1] > 0, f"pencil_wide per-step traffic is non-zero {first[0]}")
    check(len(set(first)) == 1, f"per-step traffic repeats exactly within a run {first}")
    check(first == second, "per-step traffic repeats exactly across runs and seeds")
    check(world == (0, 0), f"the world communicator carries none of it {world}")


def main() -> int:
    pin_threads()
    _import_program()
    for test in (
        test_nested_self_times,
        test_per_thread_trees_and_skew,
        test_real_sites_unwrap,
        test_traffic_counts,
    ):
        print(f"-- {test.__name__}")
        test()
    print("all self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
