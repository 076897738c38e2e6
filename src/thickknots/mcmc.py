"""Markov chain over thick equilateral polygons.

A step draws a batch of up to N candidate reflections from a fixed noise
space, applies a prefix of them determined by continuation probabilities,
and accepts the result only if the final polygon still meets the thickness
bound.  Intermediate states are never checked; rejected steps leave the
state bit-identical.

The sampler is ergodic toward some invariant measure; it is NOT known (or
claimed) to sample Equ(n, t) uniformly.  All reported statistics are
empirical properties of this chain.
"""

from __future__ import annotations

import functools
import threading
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, IntegrityFailure, TooFewSamples, DegenerateAxis
from .moves import ReflectionMove, apply_reflection
from .polygon import KnotPolygon, regular_polygon, validate_polygon
from .thickness import thickness_at_least, thickness_value

AUDIT_INTERVAL = 10_000   # accepted moves between integrity audits
EDGE_DRIFT_TOL = 1e-8


@dataclass
class ChainConfig:
    n: int
    t: float
    seed: int
    steps: int
    N: int = 6
    p: tuple = None            # continuation probabilities, length N
    burn_in: int = 0
    stride: int = 1
    start: KnotPolygon = None  # None = regular n-gon

    def __post_init__(self):
        if self.n < 3:
            raise ConfigError("need n >= 3")
        if self.N < 6:
            raise ConfigError("batch cap N must be >= 6")
        if self.p is None:
            self.p = tuple([0.5] * self.N)
        self.p = tuple(float(x) for x in self.p)
        if len(self.p) != self.N:
            raise ConfigError("need one continuation probability per batch slot")
        if any(not (0.0 < x <= 1.0) for x in self.p):
            raise ConfigError("continuation probabilities must lie in (0, 1]")
        if self.steps < 0 or self.burn_in < 0 or self.stride < 1:
            raise ConfigError("steps/burn_in must be >= 0 and stride >= 1")
        if self.t < 0:
            raise ConfigError("thickness bound must be >= 0")
        tmax = thickness_value(regular_polygon(self.n))
        if self.t >= tmax + 1e-12:
            warnings.warn(
                f"thickness bound {self.t} exceeds the regular {self.n}-gon's "
                f"{tmax:.6g}; the state space may be empty", stacklevel=2,
            )


class NoiseRecord(NamedTuple):
    """One slot of a step's noise: the continuation variable a, the
    reflection angle, and the vertex pair (i, j) with i < j."""

    a: float
    theta: float
    pair: tuple


@dataclass(frozen=True)
class NoiseDraw:
    records: tuple  # N NoiseRecords


@dataclass
class StepOutcome:
    """Result of one chain step.  `degenerate` marks a rejection caused by a
    degenerate reflection axis rather than the thickness bound.
    `thickness_after` is thickness_value(state), computed on first read (and
    then kept on the polygon): the accept test never needs it."""

    accepted: bool
    m: int
    state: KnotPolygon
    degenerate: bool = False

    @property
    def thickness_after(self) -> float:
        return thickness_value(self.state)


@functools.lru_cache(maxsize=32)
def _pair_table(n):
    """(i, j) by flat rank over the n(n-1)/2 pairs, in np.triu_indices order."""
    i, j = np.triu_indices(n, 1)
    return tuple(zip(i.tolist(), j.tolist()))


class _PhiloxSlot(threading.local):
    """One Philox generator per thread, built on first use.  `keyed`
    overwrites its whole state (key, counter, buffer) on every call, so the
    draws depend on (seed, step) alone; reusing it avoids constructing a
    generator per step, which also pulls OS entropy for a seed sequence that
    a keyed Philox never uses.

    The step goes in counter word 1 and word 0 starts at 0.  Philox advances
    word 0 by one per 4-word block, so each step reads its own stream of
    2**64 blocks and no two steps share a word."""

    gen = None

    def keyed(self, seed, step):
        if not 0 <= seed < 1 << 128:
            raise ValueError(f"chain seed {seed} is outside [0, 2**128)")
        if self.gen is None:
            self.bits = np.random.Philox(key=0)
            self.gen = np.random.Generator(self.bits)
            self.state = self.bits.state  # fresh: empty buffer, no cached uint32
        key, counter = self.state["state"]["key"], self.state["state"]["counter"]
        key[0], key[1] = seed & _WORD, seed >> 64
        counter[0], counter[1] = 0, step
        self.bits.state = self.state
        return self.gen


_PHILOX = _PhiloxSlot()
_WORD = (1 << 64) - 1
_TWO_PI = 2.0 * np.pi


def draw_noise(cfg: ChainConfig, step: int) -> NoiseDraw:
    """Noise for one step from a counter-based generator: the key is the
    chain seed and counter word 1 is the step index, so any step can be
    regenerated independently and steps draw from disjoint streams.  Slot
    order within a step is fixed: N pair ranks, then one random(2N) call
    whose halves are the continuation variables a and the angles / 2 pi."""
    gen = _PHILOX.keyed(int(cfg.seed), step)
    n, N = cfg.n, cfg.N
    ranks = gen.integers(n * (n - 1) // 2, size=N).tolist()
    x = gen.random(2 * N).tolist()
    pairs = _pair_table(n)
    return NoiseDraw(records=tuple(
        NoiseRecord(a, _TWO_PI * r, pairs[k])
        for k, a, r in zip(ranks, x[:N], x[N:])
    ))


def decode_noise(d: NoiseDraw, p):
    """m = one less than the first k with a_k > p_k (m = N when none stops);
    the first m records become reflection moves."""
    m = len(d.records)
    for k, rec in enumerate(d.records):
        if rec.a > p[k]:
            m = k
            break
    moves = [
        ReflectionMove(rec.pair[0], rec.pair[1], rec.theta)
        for rec in d.records[:m]
    ]
    return m, moves


def chain_step(K: KnotPolygon, d: NoiseDraw, cfg: ChainConfig) -> StepOutcome:
    """Apply the decoded batch with a single thickness check at the end.

    A degenerate reflection axis (coincident vertices mid-batch) counts as a
    rejection; it has measure zero but singular states make it reachable.
    At t = 0 a batch without a degenerate axis is accepted without computing
    thickness (an equilateral polygon's thickness is never negative); for
    t > 0 the check is `thickness_at_least`, which stops at the first class
    (minrad or a pair class) that breaks the bound.  Neither fills
    `thickness_after`, which is computed only when read.
    """
    m, moves = decode_noise(d, cfg.p)
    if m == 0:
        return StepOutcome(True, 0, K)
    state = K
    try:
        for mv in moves:
            state = apply_reflection(state, mv)
    except DegenerateAxis:
        return StepOutcome(False, m, K, degenerate=True)
    if cfg.t == 0 or thickness_at_least(state, cfg.t):
        return StepOutcome(True, m, state)
    return StepOutcome(False, m, K)


def renormalize(K: KnotPolygon, iters: int = 50) -> KnotPolygon:
    """Project back onto the equilateral closed polygons by alternating
    between unit-edge rescaling and closure-defect distribution."""
    v = np.array(K.vertices)
    n = len(v)
    for _ in range(iters):
        e = np.roll(v, -1, axis=0) - v
        lengths = np.linalg.norm(e, axis=1)
        if np.max(np.abs(lengths - 1.0)) < 1e-13:
            break
        e = e / lengths[:, None]
        defect = e.sum(axis=0)
        e -= defect / n
        w = np.empty_like(v)
        w[0] = v[0]
        w[1:] = v[0] + np.cumsum(e[:-1], axis=0)
        v = w
    return KnotPolygon(v)


class Chain:
    """Sequential sampler with periodic integrity audits.

    `rejected` counts every rejected step; `rejected_degenerate` counts the
    ones among them that a degenerate reflection axis caused.
    """

    def __init__(self, cfg: ChainConfig):
        self.cfg = cfg
        self.state = cfg.start if cfg.start is not None else regular_polygon(cfg.n)
        if cfg.start is not None:
            validate_polygon(self.state.vertices)
        self.accepted = 0
        self.rejected = 0
        self.rejected_degenerate = 0
        self.m_histogram = np.zeros(cfg.N + 1, dtype=np.int64)
        self.audits = 0
        self._since_audit = 0

    @property
    def acceptance_rate(self):
        total = self.accepted + self.rejected
        return self.accepted / total if total else float("nan")

    def _audit(self):
        self.audits += 1
        K = self.state
        drift = float(np.max(np.abs(K.edge_lengths() - 1.0)))
        R = renormalize(K)
        new_drift = float(np.max(np.abs(R.edge_lengths() - 1.0)))
        if new_drift > EDGE_DRIFT_TOL:
            raise IntegrityFailure(
                f"edge drift {new_drift:g} persists after renormalization"
            )
        if thickness_at_least(R, self.cfg.t - 1e-12):
            self.state = R
            return drift
        # renormalization broke the bound: keep the original state if it is
        # still a valid polygon, otherwise the run is unsalvageable
        try:
            validate_polygon(K.vertices)
        except Exception as exc:
            raise IntegrityFailure(f"state invalid at audit: {exc}") from exc
        if drift > EDGE_DRIFT_TOL:
            raise IntegrityFailure("edge drift beyond tolerance and "
                                   "renormalization violates the bound")
        return drift

    def run(self):
        """Yield (step index, polygon, StepOutcome) for every emitted sample."""
        cfg = self.cfg
        for step in range(cfg.steps):
            d = draw_noise(cfg, step)
            out = chain_step(self.state, d, cfg)
            self.m_histogram[out.m] += 1
            if out.accepted:
                self.accepted += 1
                self.state = out.state
                self._since_audit += 1
                if self._since_audit >= AUDIT_INTERVAL:
                    self._since_audit = 0
                    self._audit()
                    out = StepOutcome(True, out.m, self.state)
            else:
                self.rejected += 1
                self.rejected_degenerate += out.degenerate
            if step >= cfg.burn_in and (step - cfg.burn_in) % cfg.stride == 0:
                yield step, self.state, out


def run_chain(cfg: ChainConfig):
    """Convenience generator over a fresh Chain."""
    yield from Chain(cfg).run()


def diagnostics(samples, observable=None):
    """(mean, batch-means standard error, integrated autocorrelation time).

    Both estimators are heuristics: batch means with ~sqrt(N) batches, and
    Geyer's initial-positive-sequence truncation of the FFT autocorrelation.
    """
    if observable is not None:
        xs = np.array([observable(s) for s in samples], dtype=float)
    else:
        xs = np.asarray(list(samples), dtype=float)
    N = len(xs)
    if N < 100:
        raise TooFewSamples(f"need at least 100 samples, got {N}")
    mean = float(np.mean(xs))

    nb = int(np.floor(np.sqrt(N)))
    bs = N // nb
    bm = xs[: nb * bs].reshape(nb, bs).mean(axis=1)
    se = float(np.std(bm, ddof=1) / np.sqrt(nb))

    c = xs - mean
    var = float(np.dot(c, c) / N)
    if var <= 0.0:
        return mean, 0.0, 1.0
    nfft = 1 << int(np.ceil(np.log2(2 * N)))
    f = np.fft.rfft(c, nfft)
    acf = np.fft.irfft(f * np.conj(f), nfft)[:N].real
    rho = acf / acf[0]
    # initial positive sequence: sum consecutive pairs while positive
    iat = 1.0
    k = 1
    while k + 1 < N:
        g = rho[k] + rho[k + 1]
        if g <= 0.0:
            break
        iat += 2.0 * g
        k += 2
    return mean, se, float(iat)
