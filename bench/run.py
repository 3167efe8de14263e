"""Benchmark of symplane's CLI commands over seeded workloads.

    python3 bench/run.py --workload classify --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from
its ``src`` directory. One process, one closed-loop caller: each
in-process ``symplane.cli.main(argv, out=...)`` call starts after the
previous one returned and its output was checked. Whole rounds of the
workload's operations repeat until ``--seconds`` have passed (at least
one round), so every run attempts the same mix. Call times are reported
at a nominal machine speed gauged by ``speed.probe_seconds``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` untraced and traced rounds alternate, and the line
reports the per-layer metrics of the traced rounds and the tracing
overhead. Spans go to ``bench/out/trace-<workload>-s<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 3
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "analyze_ms": "ms",
    "compare_labelled_ms": "ms",
    "compare_symplectic_ms": "ms",
    "symmetry_ms": "ms",
    "realize_ms": "ms",
    "moser_ms": "ms",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Import symplane from the checkout's src, or exit without a result."""
    src = ROOT / "src"
    if not (src / "symplane" / "cli.py").is_file():
        sys.exit(f"bench: no symplane sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import symplane.cli

    if Path(symplane.cli.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: symplane imported from {symplane.cli.__file__}, not {src}")
    return symplane.cli


def _import_fresh():
    """Import the CLI in a fresh interpreter, as a user's first call would."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import symplane.cli"], cwd=ROOT, env=env,
                   check=True, timeout=120)


class Runner:
    """Runs operations through one CLI entry point and tallies outcomes."""

    def __init__(self, main):
        self.main = main
        self.times = {}  # command -> seconds per completed call, at nominal speed
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # check failures: (argv, reason)
        self.busy = 0.0  # seconds spent inside calls, at nominal speed
        self.probes = []  # speed.probe_seconds() before each call
        self.op_commands = {}  # operation id -> command

    def call(self, op, tracer=None):
        """One CLI call; raising (SystemExit included) counts as failed."""
        self.attempted += 1
        if tracer is not None:
            tracer.op = self.attempted
        self.op_commands[self.attempted] = op.command
        out = io.StringIO()
        gc.collect()  # each call starts from a collected heap, as in a fresh process
        self.probes.append(speed.probe_seconds())
        scale = speed.NOMINAL_S / median(self.probes[-speed.WINDOW:])
        start = time.perf_counter()
        try:
            code = self.main(op.argv, out=out)
        except KeyboardInterrupt:
            raise
        except BaseException as exc:  # noqa: BLE001 - a failed operation, the pass goes on
            self.busy += scale * (time.perf_counter() - start)
            self.failed += 1
            print(f"bench: failed {' '.join(op.argv)}: {exc!r}", file=sys.stderr)
            return
        elapsed = scale * (time.perf_counter() - start)
        self.busy += elapsed
        self.times.setdefault(op.command, []).append(elapsed)
        try:
            op.check(code, out.getvalue())
        except Exception as exc:  # noqa: BLE001 - any malformed report is a wrong output
            self.wrong.append((op.argv, repr(exc)))
            print(f"bench: wrong output of {' '.join(op.argv)}: {exc!r}", file=sys.stderr)

    def rounds(self, ops, seconds=None, count=None, tracer=None):
        """Whole rounds until `seconds` passed (at least one), or exactly `count`."""
        done = 0
        start = time.perf_counter()
        while (done < count) if count is not None else (
                done == 0 or time.perf_counter() - start < seconds):
            for op in ops:
                self.call(op, tracer)
            done += 1
        return done


def _setup(cli, workload, seed, directory):
    """Import, input generation and warm-up, repeated; returns (median s, ops, curves)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _import_fresh()
        ops, warm, curves = workloads.build(workload, seed, directory)
        Runner(cli.main).rounds(warm, count=1)
        times.append(time.perf_counter() - start)
    return median(times), ops, curves


def _check_generic_peak_mb(curves):
    """Largest tracemalloc peak of one check_generic call over the workload's curves."""
    import tracemalloc

    from symplane.curves import check_generic, load_curve

    peak = 0
    for path in curves:
        curve = load_curve(path)
        tracemalloc.start()
        try:
            check_generic(curve)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_program()
    directory = OUT / f"{args.workload}-s{args.seed}"
    setup_s, ops, curves = _setup(cli, args.workload, args.seed, directory)

    runner = Runner(cli.main)
    if not args.trace:
        rounds = runner.rounds(ops, seconds=args.seconds)
        metrics = {"setup_s": setup_s,
                   "ops_per_s": sum(len(t) for t in runner.times.values()) / runner.busy}
        for command in workloads.COMMANDS:
            metrics[f"{command}_ms"] = 1e3 * median(runner.times.get(command) or [0.0])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
    else:
        # untraced and traced rounds alternate, so that a drift in machine
        # speed touches both sides of the overhead figure alike
        tracer = spans.Tracer()
        traced = Runner(tracer.wrap("cli", cli.main))
        rounds = 0
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            runner.rounds(ops, count=1)
            tracer.install()
            try:
                traced.rounds(ops, count=1, tracer=tracer)
            finally:
                tracer.uninstall()
            rounds += 2
        tracer.write(OUT / f"trace-{args.workload}-s{args.seed}.jsonl")
        metrics = spans.layer_metrics(tracer.spans, traced.op_commands)
        metrics["curves.check_generic_peak_mb"] = _check_generic_peak_mb(curves)
        metrics["trace.overhead_pct"] = 100.0 * (traced.busy / runner.busy - 1.0)
        runner.attempted += traced.attempted
        runner.failed += traced.failed
        runner.wrong += traced.wrong
        units = spans.UNITS
    print(f"bench: {args.workload} seed {args.seed}: {rounds} round(s) of {len(ops)} calls, "
          f"{runner.attempted} attempted, {runner.failed} failed, {len(runner.wrong)} wrong; "
          f"speed probe median {1e3 * median(runner.probes):.3f} ms "
          f"(nominal {1e3 * speed.NOMINAL_S:g} ms)", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
