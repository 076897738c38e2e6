"""The benchmark's three workloads.

A workload builds its inputs from the workload seed when it is created (that
is part of set-up), runs whole rounds of the same operations in `run_round`,
and checks every round's outputs in `check`, after the timed region.  The
package is driven only through its public names and `thickknots.cli.main`,
looked up at call time so that the tracer's wrappers are the ones called.

Every workload reports the same end-to-end metrics, each with a
workload-specific meaning (see README.md):

- work_per_s:    units of work per second of the main operation
- records_per_s: records produced or consumed per second
- op_median_s:   median seconds of one main operation
- op_max_s:      seconds of the slowest main operation
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics

import numpy as np

import checks


def random_equilateral(n, seed, tries=200):
    """Random closed equilateral n-gon: random unit steps, closure defect
    spread out, then projected back to unit edges until both converge.
    Same construction and draw order as the test suite's helper, so seed k
    gives the polygon the acceptance criteria canonicalize for seed k."""
    rng = np.random.default_rng(seed)
    for _ in range(tries):
        e = rng.standard_normal((n, 3))
        e /= np.linalg.norm(e, axis=1)[:, None]
        ok = True
        for _ in range(500):
            e -= e.mean(axis=0)
            lengths = np.linalg.norm(e, axis=1)
            if np.min(lengths) < 1e-6:
                ok = False
                break
            e /= lengths[:, None]
            if (np.max(np.abs(np.linalg.norm(e, axis=1) - 1.0)) < 1e-14
                    and np.max(np.abs(e.sum(axis=0))) < 1e-12):
                break
        if not ok:
            continue
        e -= e.sum(axis=0) / n
        v = np.zeros((n, 3))
        v[1:] = np.cumsum(e[:-1], axis=0)
        lengths = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
        if np.max(np.abs(lengths - 1.0)) < 1e-9:
            return v
    raise RuntimeError(f"no closed equilateral {n}-gon after {tries} tries")


def read_knot_file(path):
    """Vertex arrays of a knot file (blank-line separated, '#' headers)."""
    polygons, rows = [], []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                if rows:
                    polygons.append(np.array(rows))
                    rows = []
            elif not line.startswith("#"):
                rows.append([float(x) for x in line.split()])
    if rows:
        polygons.append(np.array(rows))
    return polygons


def read_stats_file(path):
    with open(path) as handle:
        return [dict(tok.split("=", 1) for tok in line.split())
                for line in handle if line.strip()]


class Op:
    """One attempted operation: its key (round, then the input class: ops
    of one class get the same kind of input in every round), wall seconds,
    work units done and records handled, and its error if any."""

    __slots__ = ("key", "kind", "seconds", "units", "records", "error", "data")

    def __init__(self, key, kind):
        self.key, self.kind = key, kind
        self.seconds, self.units, self.records = 0.0, 0, 0
        self.error, self.data = None, None


def _run(op, clock, fn):
    start = clock()
    try:
        fn()
    except Exception as exc:  # a failed operation is counted, not fatal
        op.error = f"{type(exc).__name__}: {exc}"
    op.seconds = clock() - start
    return op


class Workload:
    main_kind = None

    def __init__(self, tk, seed, workdir):
        self.tk, self.seed, self.workdir = tk, seed, workdir
        self.ops = []
        self.rounds = 0
        self.moved = [0, 0]  # chain steps with m >= 1, and those accepted

    def count_moved(self, outcome):
        """Tracer hook on chain_step results.  Equals, per chain,
        (accepted - m_histogram[0]) / (steps - m_histogram[0])."""
        if outcome.m >= 1:
            self.moved[0] += 1
            self.moved[1] += int(outcome.accepted)

    def failed(self):
        return [op for op in self.ops if op.error is not None]

    def _classes(self, kind):
        """Per input class of `kind`: (fastest seconds over rounds, units,
        records).  Interference from other work on the machine only
        ever slows an operation, so the fastest round is the steadiest
        estimate of the program's own speed."""
        by_class = {}
        for op in self.ops:
            if op.kind == kind and op.error is None:
                by_class.setdefault(op.key[1:], []).append(op)
        return [(min(op.seconds for op in ops), ops[0].units, ops[0].records)
                for ops in by_class.values()]

    def end_to_end(self):
        main = self._classes(self.main_kind)
        recs = self._classes(self.records_kind)
        times = [c[0] for c in main]
        return {
            "work_per_s": sum(c[1] for c in main) / sum(times),
            "records_per_s": sum(c[2] for c in recs) / sum(c[0] for c in recs),
            "op_median_s": statistics.median(times),
            "op_max_s": max(times),
        }

    # per-layer ratios whose base only the workload knows
    def chain_steps(self):
        return 0

    def regularize_moves(self):
        return 0

    def bytes_written(self):
        return 0


class ThinChain(Workload):
    """Chain at n = 10, t = 0 from the regular decagon; one op = one chain
    run, long enough for three integrity audits (one per 10^4 accepted
    steps).  Each round runs a fresh chain seed."""

    N, T, STEPS, BURN_IN, STRIDE = 10, 0.0, 31_000, 1_000, 100
    SEGMENT = 1_000
    REPLAY_STEPS = 2_000
    main_kind = records_kind = "chain"

    def __init__(self, tk, seed, workdir):
        super().__init__(tk, seed, workdir)
        self.segments = []  # seconds per SEGMENT steps, after burn-in

    def _config(self, chain_seed, steps):
        return self.tk.ChainConfig(n=self.N, t=self.T, seed=chain_seed, steps=steps,
                                   burn_in=self.BURN_IN, stride=self.STRIDE)

    def run_round(self, r, clock):
        tk = self.tk
        chain_seed = self.seed * 1000 + r
        op = Op((r,), "chain")

        def body():
            chain = tk.Chain(self._config(chain_seed, self.STEPS))
            samples, marks = [], []
            for step, K, _ in chain.run():
                samples.append(K.vertices)
                if step % self.SEGMENT == 0:
                    marks.append(clock())
            op.data = (chain_seed, samples, chain.audits)
            op.units, op.records = self.STEPS, len(samples)
            self.segments.extend(np.diff(marks))

        self.ops.append(_run(op, clock, body))

    def end_to_end(self):
        """The timed pieces are the 1000-step segments after burn-in (~30
        per chain), and every figure comes from the fastest of them."""
        segment = min(self.segments)
        return {"work_per_s": self.SEGMENT / segment,
                "records_per_s": self.SEGMENT / self.STRIDE / segment,
                "op_median_s": segment, "op_max_s": segment}

    def check(self):
        problems = []
        for k, op in enumerate(self.ops):
            if op.error is not None:
                continue
            chain_seed, samples, audits = op.data
            label = f"chain seed {chain_seed}"
            problems += checks.count_problems(len(samples), self.STEPS, self.BURN_IN,
                                              self.STRIDE, label)
            problems += checks.polygon_problems(samples, label)
            if audits < 1:
                problems.append(f"{label}: no integrity audit ran")
            if k == 0:
                replay = [K.vertices for _, K, _ in
                          self.tk.Chain(self._config(chain_seed, self.REPLAY_STEPS)).run()]
                problems += checks.replay_problems(samples, replay, label)
        return problems

    def chain_steps(self):
        return sum(op.units for op in self.ops if op.error is None)


class ThickSweep(Workload):
    """The thickness sweep through the CLI at n = 32: for each bound,
    `thickknots sample ... --out F --stats S`, then `thickknots analyze F`.
    The bounds run from loose to tight moved-step acceptance.  One op = one
    CLI command.  Each bound's chain seed comes from the workload seed and
    is the same in every round, so each bound repeats one computation and
    its fastest repeat is its time; short chains give tens of repeats."""

    N, BOUNDS, STEPS, BURN_IN, STRIDE = 32, (0.005, 0.02, 0.1), 300, 50, 10
    main_kind, records_kind = "sample", "analyze"

    def _paths(self, r, b):
        stem = os.path.join(self.workdir, f"r{r}-b{b}")
        return stem + ".knots", stem + ".stats"

    def run_round(self, r, clock):
        for b, t in enumerate(self.BOUNDS):
            self._sweep_point(r, b, t, clock)

    def _sweep_point(self, r, b, t, clock):
        chain_seed = self.seed * 1000 + b
        out, stats = self._paths(r, b)
        sample = Op((r, b), "sample")
        sample.units = self.STEPS
        argv = ["sample", "--n", str(self.N), "--thickness", repr(t),
                "--steps", str(self.STEPS), "--burn-in", str(self.BURN_IN),
                "--stride", str(self.STRIDE), "--seed", str(chain_seed),
                "--out", out, "--stats", stats]
        sample.data = (t, chain_seed)
        self.ops.append(_run(sample, clock, lambda: self._cli(argv)))
        if sample.error is not None:
            return
        analyze = Op((r, b), "analyze")
        analyze.records = checks.expected_samples(self.STEPS, self.BURN_IN, self.STRIDE)

        def body():
            analyze.data = self._cli(["analyze", out, "--observables",
                                      "gyration,thickness,unknot"])

        self.ops.append(_run(analyze, clock, body))

    def _cli(self, argv):
        """thickknots.cli.main(argv) -> its standard output; raises on a
        non-zero exit code."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.tk.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {stderr.getvalue().strip()}")
        return stdout.getvalue()

    def check(self):
        tk = self.tk

        def radius(V):
            return tk.radius_via_tc(tk.KnotPolygon(V))

        problems = []
        analyzed = {op.key: op.data for op in self.ops
                    if op.kind == "analyze" and op.error is None}
        for op in self.ops:
            if op.kind != "sample" or op.error is not None:
                continue
            r, b = op.key
            t, chain_seed = op.data
            label = f"t={t} seed {chain_seed} round {r}"
            out, stats = self._paths(r, b)
            polygons = read_knot_file(out)
            problems += checks.count_problems(len(polygons), self.STEPS, self.BURN_IN,
                                              self.STRIDE, label)
            problems += checks.polygon_problems(polygons, label)
            problems += checks.stats_problems(read_stats_file(stats), polygons, t, label)
            # the total-curvature route costs ~0.3 s per 32-gon, so it runs
            # on a fixed subsample: the last record of each first-round file
            if polygons and r == 0:
                problems += checks.bound_problems(polygons[-1], t, radius,
                                                  f"{label} last record")
            if op.key in analyzed:
                rows = checks.parse_analyze(analyzed[op.key])
                problems += checks.analyze_problems(rows, polygons, t, label)
        return problems

    def chain_steps(self):
        return sum(op.units for op in self.ops
                   if op.kind == "sample" and op.error is None)

    def bytes_written(self):
        total = 0
        for op in self.ops:
            if op.kind == "sample" and op.error is None:
                total += sum(os.path.getsize(p) for p in self._paths(*op.key))
        return total


class Canonicalize(Workload):
    """canonicalize() on fixed contiguous seed ranges of random equilateral
    polygons: hexagons 5-9 and the 20-gon of seed 6.  Hexagon 9 needs ~7.5k
    apply_hextuple probes against ~650-720 for hexagons 5-8.  The slowest
    hexagons known (1 and 4, 22-29k probes, 15-20 s each) are left out:
    one round must fit a run several times over, because on a shared
    machine a single 15-20 s measurement varies by a third.  The set is
    fixed because its slowest member sets op_max_s; the workload seed only
    permutes the order.  One op = one polygon."""

    INPUTS = tuple([(6, s) for s in range(5, 10)] + [(20, s) for s in range(6, 7)])
    main_kind = records_kind = "canonicalize"

    def __init__(self, tk, seed, workdir):
        super().__init__(tk, seed, workdir)
        self.polygons = [tk.validate_polygon(random_equilateral(n, s))
                         for n, s in self.INPUTS]
        self.order = [int(k) for k in
                      np.random.default_rng(seed).permutation(len(self.INPUTS))]

    def run_round(self, r, clock):
        for k in self.order:
            op = Op((r, k), "canonicalize")

            def body(K=self.polygons[k], op=op):
                trace = self.tk.canonicalize(K)
                op.data = (trace.final.vertices,
                           [(e.thickness_before, e.thickness_after) for e in trace.entries],
                           sum(1 for e in trace.entries if e.stage.name == "Regularize"))
                op.units = op.records = 1

            self.ops.append(_run(op, clock, body))

    def check(self):
        tk = self.tk
        problems = []
        for op in self.ops:
            if op.error is not None:
                continue
            k = op.key[1]
            n, s = self.INPUTS[k]
            final, entries, _ = op.data
            problems += checks.canonical_problems(
                final, tk.thickness_value(tk.KnotPolygon(final)),
                tk.thickness_value(self.polygons[k]), entries, f"{n}-gon seed {s}")
        return problems

    def regularize_moves(self):
        return sum(op.data[2] for op in self.ops if op.error is None)


WORKLOADS = {"thin-chain": ThinChain, "thick-sweep": ThickSweep,
             "canonicalize": Canonicalize}
