"""Tests for the radio channel models."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.lte.phy.channel import (
    FixedCqi,
    FixedSinr,
    GaussMarkovSinr,
    InterferenceChannel,
    PathlossChannel,
    SquareWaveCqi,
    TraceCqi,
    channel_for_cqi,
)
from repro.lte.phy.cqi import sinr_to_cqi


class TestFixedChannels:
    @given(st.integers(min_value=0, max_value=15),
           st.integers(min_value=0, max_value=10 ** 6))
    def test_fixed_cqi_reports_exactly(self, cqi, tti):
        assert FixedCqi(cqi).cqi(tti) == cqi

    def test_fixed_sinr_constant(self):
        ch = FixedSinr(10.0)
        assert ch.sinr_db(0) == ch.sinr_db(123456) == 10.0

    def test_channel_for_cqi_helper(self):
        assert channel_for_cqi(9).cqi(0) == 9

    def test_sinr_consistent_with_cqi(self):
        ch = FixedCqi(11)
        assert sinr_to_cqi(ch.sinr_db(0)) == 11


class TestSquareWave:
    def test_alternates_with_period(self):
        ch = SquareWaveCqi(10, 4, period_ttis=100)
        assert ch.cqi(0) == 10
        assert ch.cqi(99) == 10
        assert ch.cqi(100) == 4
        assert ch.cqi(199) == 4
        assert ch.cqi(200) == 10

    def test_start_low(self):
        ch = SquareWaveCqi(10, 4, period_ttis=50, start_high=False)
        assert ch.cqi(0) == 4
        assert ch.cqi(50) == 10

    def test_bad_period_rejected(self):
        with pytest.raises(ValueError):
            SquareWaveCqi(10, 4, period_ttis=0)


class TestTrace:
    def test_holds_until_change_point(self):
        ch = TraceCqi([(0, 5), (100, 9), (250, 3)])
        assert ch.cqi(0) == 5
        assert ch.cqi(99) == 5
        assert ch.cqi(100) == 9
        assert ch.cqi(249) == 9
        assert ch.cqi(250) == 3
        assert ch.cqi(10 ** 6) == 3

    def test_before_first_point_uses_first_value(self):
        ch = TraceCqi([(50, 8)])
        assert ch.cqi(0) == 8

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceCqi([])


class TestGaussMarkov:
    def test_deterministic_for_seed(self):
        a = GaussMarkovSinr(15.0, sigma_db=2.0, seed=42)
        b = GaussMarkovSinr(15.0, sigma_db=2.0, seed=42)
        assert [a.sinr_db(t) for t in range(100)] == \
               [b.sinr_db(t) for t in range(100)]

    def test_repeated_query_same_tti_is_stable(self):
        ch = GaussMarkovSinr(15.0, seed=1)
        assert ch.sinr_db(50) == ch.sinr_db(50)

    def test_mean_reversion(self):
        ch = GaussMarkovSinr(15.0, sigma_db=1.0, reversion=0.1, seed=3)
        values = [ch.sinr_db(t) for t in range(5000)]
        mean = sum(values) / len(values)
        assert abs(mean - 15.0) < 1.5

    def test_zero_sigma_converges_to_mean(self):
        ch = GaussMarkovSinr(10.0, sigma_db=0.0, reversion=0.5, seed=0)
        assert ch.sinr_db(200) == pytest.approx(10.0, abs=1e-6)

    @pytest.mark.parametrize("sigma_db,reversion,seed", [
        (2.0, 0.05, 0), (2.0, 0.05, [7, 3, 41]), (0.0, 0.5, 1),
        (5.0, 1.0, 9)])
    def test_block_draws_match_scalar_draws(self, sigma_db, reversion, seed):
        """Drawing innovations in blocks reproduces, bit for bit, the
        walk driven by one scalar ``rng.normal`` per TTI."""
        mean = 12.0
        rng = np.random.default_rng(seed)
        value, expected = mean, []
        for _ in range(500):
            value += (reversion * (mean - value)
                      + rng.normal(0.0, sigma_db * math.sqrt(reversion)))
            expected.append(value)
        ch = GaussMarkovSinr(mean, sigma_db=sigma_db, reversion=reversion,
                             seed=seed)
        got = []
        for t in range(500):
            got.append(ch.sinr_db(t))
            # A repeated query at the same TTI draws nothing new.
            assert ch.sinr_db(t) == got[-1]
        assert got == expected
        # Skipping ahead advances the walk through every missed TTI.
        ch2 = GaussMarkovSinr(mean, sigma_db=sigma_db, reversion=reversion,
                              seed=seed)
        assert [ch2.sinr_db(t) for t in range(0, 500, 7)] == expected[::7]

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            GaussMarkovSinr(10.0, reversion=0.0)
        with pytest.raises(ValueError):
            GaussMarkovSinr(10.0, sigma_db=-1.0)


class TestPathloss:
    def test_sinr_decreases_with_distance(self):
        near = PathlossChannel(ue_xy=(200.0, 0.0))
        far = PathlossChannel(ue_xy=(2000.0, 0.0))
        assert near.sinr_db(0) > far.sinr_db(0)

    def test_position_callback(self):
        ch = PathlossChannel(position_fn=lambda tti: (100.0 + tti, 0.0))
        assert ch.sinr_db(0) > ch.sinr_db(5000)

    def test_set_position(self):
        ch = PathlossChannel(ue_xy=(100.0, 0.0))
        before = ch.sinr_db(0)
        ch.set_position((3000.0, 0.0))
        assert ch.sinr_db(0) < before

    def test_shadowing_redrawn_per_block(self):
        ch = PathlossChannel(ue_xy=(500.0, 0.0), shadowing_db=8.0, seed=5)
        # Same 100 ms block -> same shadowing -> same SINR.
        assert ch.sinr_db(10) == ch.sinr_db(20)
        # Values across many blocks differ (shadowing varies).
        values = {round(ch.sinr_db(t * 100), 6) for t in range(20)}
        assert len(values) > 1


class TestInterference:
    def test_two_states(self):
        ch = InterferenceChannel(20.0, 0.0)
        assert ch.sinr_db(0, interference_active=False) == 20.0
        assert ch.sinr_db(0, interference_active=True) == 0.0

    def test_default_assumes_interference(self):
        ch = InterferenceChannel(20.0, 0.0)
        assert ch.sinr_db(0) == 0.0

    def test_inverted_states_rejected(self):
        with pytest.raises(ValueError):
            InterferenceChannel(0.0, 20.0)

    def test_cqi_differs_between_states(self):
        ch = InterferenceChannel(23.0, -5.0)
        assert ch.cqi(0, interference_active=False) > ch.cqi(
            0, interference_active=True)
