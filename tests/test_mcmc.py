import hashlib

import numpy as np
import pytest

from conftest import random_equilateral
from thickknots import mcmc
from thickknots.errors import ConfigError, TooFewSamples
from thickknots.mcmc import (
    Chain,
    ChainConfig,
    NoiseDraw,
    NoiseRecord,
    chain_step,
    decode_noise,
    diagnostics,
    draw_noise,
    renormalize,
    run_chain,
)
from thickknots.polygon import regular_polygon, validate_polygon
from thickknots.thickness import thickness_value


def test_config_validation():
    with pytest.raises(ConfigError):
        ChainConfig(n=2, t=0.0, seed=0, steps=10)
    with pytest.raises(ConfigError):
        ChainConfig(n=8, t=0.0, seed=0, steps=10, N=3)
    with pytest.raises(ConfigError):
        ChainConfig(n=8, t=0.0, seed=0, steps=10, p=(0.5,))
    with pytest.raises(ConfigError):
        ChainConfig(n=8, t=0.0, seed=0, steps=10, p=(0.0,) * 6)
    with pytest.raises(ConfigError):
        ChainConfig(n=8, t=-0.1, seed=0, steps=10)
    with pytest.warns(UserWarning):
        ChainConfig(n=8, t=0.9, seed=0, steps=10)


def test_noise_is_a_pure_function_of_seed_and_step():
    cfg = ChainConfig(n=8, t=0.0, seed=42, steps=10)
    d1 = draw_noise(cfg, 7)
    d2 = draw_noise(cfg, 7)
    assert d1 == d2
    assert draw_noise(cfg, 8) != d1
    cfg2 = ChainConfig(n=8, t=0.0, seed=43, steps=10)
    assert draw_noise(cfg2, 7) != d1


@pytest.mark.parametrize("seed", [0, 12345, 2**64 + 3, 2**128 - 1])
def test_consecutive_steps_share_no_noise(seed):
    # each step has its own Philox stream; with the step in counter word 0,
    # step k + 1 re-read most of step k's words (its first (a, theta) was
    # step k's fifth)
    cfg = ChainConfig(n=10, t=0.0, seed=seed, steps=1)
    prev = None
    for step in range(40):
        cur = {(rec.a, rec.theta) for rec in draw_noise(cfg, step).records}
        assert len(cur) == cfg.N
        if prev is not None:
            assert not cur & prev, step
        prev = cur


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_noise_rejects_a_seed_outside_the_philox_key_range(seed):
    cfg = ChainConfig(n=8, t=0.0, seed=seed, steps=1)
    with pytest.raises(ValueError):
        draw_noise(cfg, 0)


def test_noise_records_are_well_formed():
    cfg = ChainConfig(n=10, t=0.0, seed=1, steps=1, N=7)
    d = draw_noise(cfg, 0)
    assert len(d.records) == 7
    for rec in d.records:
        i, j = rec.pair
        assert 0 <= i < j < 10
        assert 0.0 <= rec.a < 1.0
        assert 0.0 <= rec.theta < 2.0 * np.pi


def test_decode_prefix_rule():
    cfg = ChainConfig(n=8, t=0.0, seed=5, steps=1)
    d = draw_noise(cfg, 0)
    # with p = 1 every record continues; with tiny p the first stop wins
    m_all, moves = decode_noise(d, (1.0,) * cfg.N)
    assert m_all == cfg.N and len(moves) == cfg.N
    m0, moves0 = decode_noise(d, (1e-12,) * cfg.N)
    assert m0 in (0, 1) and len(moves0) == m0
    if d.records[0].a > 1e-12:
        assert m0 == 0


def test_rejected_step_leaves_state_identical():
    cfg = ChainConfig(n=8, t=0.05, seed=3, steps=1)
    K = regular_polygon(8)
    for step in range(50):
        out = chain_step(K, draw_noise(cfg, step), cfg)
        if not out.accepted:
            assert out.state is K
            break
    else:
        pytest.skip("no rejection in 50 steps")


def test_degenerate_axis_rejections_are_counted_apart(monkeypatch):
    # folded square with v0 = v2: the first move reflects about the axis
    # (0, 2), whose endpoints coincide, and the next record stops the batch
    K = validate_polygon(np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    stop = NoiseRecord(1.0, 0.0, (0, 1))
    d = NoiseDraw(records=(NoiseRecord(0.0, 0.3, (0, 2)),) + (stop,) * 5)
    monkeypatch.setattr(mcmc, "draw_noise", lambda cfg, step: d)
    chain = Chain(ChainConfig(n=4, t=0.0, seed=0, steps=1, start=K))
    ((_, state, out),) = list(chain.run())
    assert not out.accepted and out.degenerate and out.m == 1
    assert out.state is K and state is K
    assert chain.rejected == 1 and chain.rejected_degenerate == 1


def test_bound_rejections_are_not_counted_as_degenerate():
    chain = Chain(ChainConfig(n=8, t=0.05, seed=3, steps=200))
    for _ in chain.run():
        pass
    assert chain.rejected > 0
    assert chain.rejected_degenerate == 0


def test_accepted_states_meet_the_bound():
    cfg = ChainConfig(n=10, t=0.01, seed=9, steps=300)
    for step, K, out in run_chain(cfg):
        if out.accepted:
            assert out.thickness_after >= cfg.t - 1e-12
        assert thickness_value(K) >= cfg.t - 1e-12


# sha256 over the emitted vertex arrays (float64, little-endian) of fixed-seed
# 2,000-step chains; a change to the noise, the moves or the accept test that
# alters any trajectory moves these digests
GOLDEN_CHAINS = [
    (10, 0.0, 101, "f4d17bc8368f883b7a043583a2c5e5979357bf542b0acec242458c93ba1008be"),
    (10, 0.01, 102, "02dbc9b946eab1735944df2c76e8a3604437561c298b43484ac9f845ce272c8b"),
    (32, 0.02, 103, "7f24d7ce9a73f0f8caaa62e2a1f5a4901a831ca5dcdae011fb0eacb74b98e0f3"),
]


@pytest.mark.parametrize("n,t,seed,digest", GOLDEN_CHAINS)
def test_chain_matches_golden_digest(n, t, seed, digest):
    h = hashlib.sha256()
    for _, K, _ in run_chain(ChainConfig(n=n, t=t, seed=seed, steps=2000)):
        h.update(np.ascontiguousarray(K.vertices, dtype="<f8").tobytes())
    assert h.hexdigest() == digest


def test_t0_chain_computes_no_thickness(monkeypatch):
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(mcmc, "thickness_value", counting(mcmc.thickness_value))
    monkeypatch.setattr(mcmc, "thickness_at_least", counting(mcmc.thickness_at_least))
    monkeypatch.setattr(mcmc, "AUDIT_INTERVAL", 500)
    ch = Chain(ChainConfig(n=10, t=0.0, seed=8, steps=2000))
    outs = [out for _, _, out in ch.run()]
    # the config's check on the regular polygon, then one query per audit
    assert ch.audits >= 3
    assert calls == ["thickness_value"] + ["thickness_at_least"] * ch.audits
    for out in outs[::97]:
        assert out.thickness_after == thickness_value(out.state)


def test_chain_is_reproducible():
    cfg = ChainConfig(n=8, t=0.005, seed=2024, steps=400)
    a = [K.vertices.copy() for _, K, _ in Chain(cfg).run()]
    b = [K.vertices.copy() for _, K, _ in Chain(cfg).run()]
    assert len(a) == len(b) == 400
    for va, vb in zip(a, b):
        assert np.array_equal(va, vb)


def test_burn_in_and_stride():
    cfg = ChainConfig(n=8, t=0.0, seed=6, steps=100, burn_in=20, stride=10)
    steps = [s for s, _, _ in run_chain(cfg)]
    assert steps == list(range(20, 100, 10))


def test_m_histogram_and_acceptance_rate():
    cfg = ChainConfig(n=8, t=0.0, seed=13, steps=500)
    ch = Chain(cfg)
    for _ in ch.run():
        pass
    assert ch.m_histogram.sum() == 500
    assert 0.0 <= ch.acceptance_rate <= 1.0
    # at t = 0 only degenerate axes reject, so almost everything is accepted
    assert ch.acceptance_rate > 0.99


def test_edge_lengths_stay_unit_along_run():
    cfg = ChainConfig(n=12, t=0.0, seed=21, steps=2000, stride=200)
    for _, K, _ in run_chain(cfg):
        assert np.max(np.abs(K.edge_lengths() - 1.0)) < 1e-10


def test_renormalize_restores_unit_edges():
    K = regular_polygon(9)
    v = np.array(K.vertices)
    v += 1e-6 * np.sin(np.arange(27)).reshape(9, 3)
    from thickknots.polygon import KnotPolygon

    R = renormalize(KnotPolygon(v))
    assert np.max(np.abs(R.edge_lengths() - 1.0)) < 1e-13


def test_start_with_other_n_is_rejected():
    for m in (6, 12):
        with pytest.raises(ConfigError):
            ChainConfig(n=10, t=0.0, seed=0, steps=10, start=regular_polygon(m))


def test_start_outside_the_space_is_rejected():
    with pytest.raises(ConfigError):
        ChainConfig(n=10, t=0.05, seed=0, steps=10, start=random_equilateral(10, 0))
    # the bound itself is inside, and a chain's final state is a valid start
    ChainConfig(n=10, t=thickness_value(regular_polygon(10)), seed=0, steps=10,
                start=regular_polygon(10))
    for _, K, _ in run_chain(ChainConfig(n=10, t=0.05, seed=5, steps=300)):
        pass
    ChainConfig(n=10, t=0.05, seed=6, steps=10, start=K)


def test_custom_start_state(figure_eight):
    cfg = ChainConfig(n=8, t=0.0, seed=4, steps=5, start=figure_eight)
    ch = Chain(cfg)
    assert np.array_equal(ch.state.vertices, figure_eight.vertices)


# -- diagnostics ----------------------------------------------------------------


def test_diagnostics_too_few_samples():
    with pytest.raises(TooFewSamples):
        diagnostics(np.zeros(99))


def test_diagnostics_iid_normal():
    rng = np.random.default_rng(0)
    xs = rng.standard_normal(20000)
    mean, se, iat = diagnostics(xs)
    assert abs(mean) < 4.0 * se
    assert np.isclose(se, 1.0 / np.sqrt(20000), rtol=0.25)
    assert iat < 1.5


def test_diagnostics_correlated_series():
    # AR(1) with rho = 0.9 has integrated autocorrelation (1+rho)/(1-rho) = 19
    rng = np.random.default_rng(1)
    n = 50000
    xs = np.empty(n)
    xs[0] = 0.0
    eps = rng.standard_normal(n)
    for k in range(1, n):
        xs[k] = 0.9 * xs[k - 1] + eps[k]
    mean, se, iat = diagnostics(xs)
    assert 12.0 < iat < 26.0
    # batch-means se should be near sqrt(iat * var / n)
    assert np.isclose(se, np.sqrt(iat * np.var(xs) / n), rtol=0.5)


def test_diagnostics_with_observable():
    samples = [regular_polygon(8)] * 200
    mean, se, iat = diagnostics(samples, observable=thickness_value)
    assert np.isclose(mean, thickness_value(regular_polygon(8)))
    assert se == 0.0
