"""Span tracer that times a program's layers by wrapping them from outside.

The tracer replaces a function attribute (a method on a class, or a
function bound in a module's namespace) with a thin wrapper that records
one span per call: name, start, end (``perf_counter_ns`` integers),
parent span and step id.  Each thread keeps its own span stack, so every
SimMPI rank thread builds its own tree.  Spans stay in memory until the
caller analyses them at the end of the run.

Self time is a span's duration minus the durations of its direct
children.  Children of one span run one after another on the same
thread, so they never overlap and the subtraction is exact.  Summed over
one step's tree, the self-times therefore telescope to the root span's
duration; because all arithmetic is on integer nanoseconds the identity
holds exactly, not to rounding.  The root's own self time is the
step's unattributed remainder.
"""

from __future__ import annotations

import functools
import json
import threading
from dataclasses import dataclass, field
from time import perf_counter_ns

# span record layout (lists, mutated in place on exit)
_NAME, _T0, _T1, _PARENT, _STEP = range(5)


class _Lane:
    """Span list and stack of one thread."""

    __slots__ = ("spans", "stack", "step", "nsteps", "lane")

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.step: int | None = None
        self.nsteps = 0
        self.lane = 0


@dataclass
class StepTree:
    """Self-time breakdown of one root span (one driver step on one lane)."""

    lane: int
    step: int
    wall_ns: int
    self_ns: dict[str, int] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)

    @property
    def unattributed_ns(self) -> int:
        return self.self_ns.get(Tracer.ROOT, 0)


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers.

    ``wrap(owner, attr, name)`` replaces ``owner.attr``; ``unwrap_all()``
    puts every original back, in reverse order, so a process can run
    untraced after a traced phase with no wrapper left behind.
    """

    #: name of the per-step root span; its self time is "unattributed"
    ROOT = "step"

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._lanes: list[_Lane] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state -----------------------------------------------

    def set_lane(self, lane: int) -> None:
        """Label the calling thread's spans (the SimMPI rank)."""
        self._state().lane = int(lane)

    def _state(self) -> _Lane:
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = self._local.rec = _Lane()
            with self._lock:
                self._lanes.append(rec)
        return rec

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``attr`` must be defined on ``owner`` itself (not inherited), so
        restoring it later is an exact ``setattr`` of the original.
        """
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} defines no {attr!r} of its own")
        original = vars(owner)[attr]
        root = name == self.ROOT
        state = self._state

        @functools.wraps(original)
        def traced(*args, **kwargs):
            loc = state()
            stack = loc.stack
            if root:
                loc.step = loc.nsteps
                loc.nsteps += 1
            spans = loc.spans
            idx = len(spans)
            spans.append([name, perf_counter_ns(), 0, stack[-1] if stack else -1, loc.step])
            stack.append(idx)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][_T1] = perf_counter_ns()
                if root:
                    loc.step = None

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute to its original object."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def _self_times(self, spans: list) -> list[int]:
        out = [s[_T1] - s[_T0] for s in spans]
        for s in spans:
            if s[_PARENT] >= 0:
                out[s[_PARENT]] -= s[_T1] - s[_T0]
        return out

    def step_trees(self) -> list[StepTree]:
        """One :class:`StepTree` per recorded root span, every lane.

        Spans that opened inside a root carry its step id, so a tree is
        every span with that (lane, step).  Raises if a tree's
        self-times do not sum to its root's duration.
        """
        trees: list[StepTree] = []
        for loc in self._lanes:
            spans = loc.spans
            selfs = self._self_times(spans)
            by_step: dict[int, StepTree] = {}
            for s, own in zip(spans, selfs):
                step = s[_STEP]
                if step is None:
                    continue
                tree = by_step.get(step)
                if tree is None:
                    tree = by_step[step] = StepTree(lane=loc.lane, step=step, wall_ns=0)
                if s[_NAME] == self.ROOT and s[_PARENT] < 0:
                    tree.wall_ns = s[_T1] - s[_T0]
                tree.self_ns[s[_NAME]] = tree.self_ns.get(s[_NAME], 0) + own
                tree.calls[s[_NAME]] = tree.calls.get(s[_NAME], 0) + 1
            for tree in by_step.values():
                if sum(tree.self_ns.values()) != tree.wall_ns:
                    raise AssertionError(
                        f"lane {tree.lane} step {tree.step}: self-times "
                        f"{sum(tree.self_ns.values())} ns != root {tree.wall_ns} ns"
                    )
            trees.extend(by_step[k] for k in sorted(by_step))
        return trees

    def events(self) -> dict[str, list[int]]:
        """Inclusive durations (ns) of spans recorded outside any step,
        keyed by name: set-up, checkpoint, publish and similar calls."""
        out: dict[str, list[int]] = {}
        for loc in self._lanes:
            for s in loc.spans:
                if s[_STEP] is None:
                    out.setdefault(s[_NAME], []).append(s[_T1] - s[_T0])
        return out

    def write_chrome_trace(self, path) -> None:
        """Write every span as a Chrome ``trace_event`` file (one pid per lane)."""
        events = []
        for loc in self._lanes:
            for s in loc.spans:
                events.append({
                    "name": s[_NAME],
                    "ph": "X",
                    "ts": s[_T0] / 1e3,
                    "dur": (s[_T1] - s[_T0]) / 1e3,
                    "pid": loc.lane,
                    "tid": 0,
                    "args": {"step": s[_STEP]},
                })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events}, fh)
