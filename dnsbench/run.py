"""Run one benchmark workload of the channel DNS and print its metrics.

Usage (from the repository root)::

    python3 dnsbench/run.py --workload serial_tall --seed 1 --seconds 58 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
workload with traced and untraced step blocks interleaved and prints the
per-layer metrics.  Human-readable lines start with ``#``; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``dnsbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and check that the
    ``repro`` package imported is the one in it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"dnsbench: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"dnsbench: imported repro from {repro.__file__}, not from {SRC}")


def main(argv=None) -> int:
    from envinfo import environment, pin_threads
    from tracer import Tracer

    pin_threads()  # before numpy is imported anywhere
    os.environ["REPRO_WISDOM"] = "off"  # no plan cache shared across runs
    import workloads as wl

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    _import_program()

    w = wl.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    work = pathlib.Path.cwd() / ".bench_work" / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        samples, ledger = wl.run(w, args.seed, args.seconds, tracer, work)
    finally:
        wl.cleanup(work)

    if tracer is None:
        metrics = wl.end_to_end(w, samples)
    else:
        metrics = wl.per_layer(tracer, samples, ledger)
        trace_path = work.parent / f"trace-{w.name}-seed{args.seed}.json"
        tracer.write_chrome_trace(trace_path)

    print(f"# dnsbench workload={w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# why: {w.why}; grid {w.nx}x{w.ny}x{w.nz}")
    print("# env " + json.dumps(environment(ROOT), sort_keys=True))
    print(f"# steps timed: {len(samples.step_s)} untraced, {len(samples.traced_step_s)} traced")
    print(f"# setups (s): {' '.join(f'{x:.4f}' for x in samples.setup_s)}")
    print(f"# restarts (s): {' '.join(f'{x:.4f}' for x in samples.restart_s)}")
    print(f"# query probe medians (us): {' '.join(f'{x:.2f}' for x in samples.query_probe_us)}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# failed_frac = {ledger.failed / ledger.attempted:.6g} 1 ({ledger.failed}/{ledger.attempted})")
    if tracer is not None:
        print(f"# trace written to {trace_path.relative_to(pathlib.Path.cwd())}")
    for failure in ledger.failures:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
