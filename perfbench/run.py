"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload thin-chain --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from `src/` next to
this directory.  The workload runs whole rounds of its operations until
another round would overrun `--seconds` (at least one round), then checks
every output.  `--trace 0` prints the end-to-end metrics; `--trace 1` runs
with per-layer timing wrappers and prints the per-layer metrics.  The last
line of standard output is {"correct", "attempted", "failed", "metrics"}.
"""

import os
import sys
import time

# one BLAS thread: the workloads are single-threaded by design
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import shutil
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
_T0 = time.perf_counter()


def process_age():
    """Seconds since this process started (set-up is timed from there, so
    interpreter start-up and imports count).  Falls back to the time since
    this module started where /proc is not available."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T0


def import_package():
    """Import thickknots from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        tk = importlib.import_module("thickknots")
        importlib.import_module("thickknots.cli")
    except ImportError as exc:
        raise SystemExit(f"error: cannot import thickknots from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(tk.__file__))
    if where != os.path.join(SRC, "thickknots"):
        raise SystemExit(f"error: thickknots imported from {where}, not {SRC}")
    return tk


def _ratio(part, base):
    """part / base; None when the entry point counted in `part` is missing,
    0 when the workload has no base (no chain steps, no moves)."""
    if part is None:
        return None
    return part / base if base else 0.0


def layer_metrics(tracer, wl, wall):
    """Per-layer metrics of a traced run: calls and self time per entry
    point, then the ratios of useful work to attempts."""
    rounds = wl.rounds
    out = tracer.layer_metrics(rounds)
    moved, moved_ok = wl.moved
    out["mcmc.moved_acceptance"] = (_ratio(moved_ok, moved), "ratio")
    out["thickness.thickness_value.calls_per_step"] = (
        _ratio(tracer.calls_of("thickness.thickness_value"), wl.chain_steps()),
        "calls/step")
    out["moves.apply_hextuple.calls_per_move"] = (
        _ratio(tracer.calls_of("moves.apply_hextuple"), wl.regularize_moves()),
        "calls/move")
    out["knotio.bytes_written"] = (wl.bytes_written() / rounds, "B/round")
    out["trace.wall_s"] = (wall / rounds, "s/round")
    out["trace.uncovered_s"] = ((wall - tracer.covered_s()) / rounds, "s/round")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tk = import_package()
    sys.path.insert(0, HERE)
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        wl = workloads.WORKLOADS[args.workload](tk, args.seed, workdir)
        setup_s = process_age()

        tracer = Tracer(hooks={"mcmc.chain_step": wl.count_moved}) if args.trace else None
        if tracer:
            tracer.install()
        clock = time.perf_counter
        start = clock()
        try:
            while True:
                wl.run_round(wl.rounds, clock)
                wl.rounds += 1
                elapsed = clock() - start
                if elapsed + elapsed / wl.rounds > args.seconds:
                    break
        finally:
            if tracer:
                tracer.uninstall()
        wall = clock() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = wl.check()
        for op in wl.failed():
            print(f"failed op {op.kind} {op.key}: {op.error}", file=sys.stderr)
        for line in problems:
            print(f"check failed: {line}", file=sys.stderr)

        if tracer:
            for name in tracer.missing:
                print(f"missing entry point: {name}", file=sys.stderr)
            tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}.npz"))
            values = layer_metrics(tracer, wl, wall)
        else:
            values = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
            units = {"work_per_s": "1/s", "records_per_s": "1/s",
                     "op_median_s": "s", "op_max_s": "s"}
            for name, value in wl.end_to_end().items():
                values[name] = (value, units[name])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload}: {wl.rounds} rounds in {wall:.3f} s", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(wl.ops),
        "failed": len(wl.failed()),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
