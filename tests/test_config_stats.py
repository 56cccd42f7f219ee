"""Tests for F2Config validation and EncryptionStats accounting."""

import pytest

from repro.core.config import F2Config
from repro.core.stats import (
    OVERHEAD_FP,
    OVERHEAD_GROUP,
    OVERHEAD_SCALE,
    OVERHEAD_SYN,
    STEP_FP,
    STEP_MAX,
    STEP_SSE,
    STEP_SYN,
    EncryptionStats,
)
from repro.exceptions import ConfigurationError


class TestF2Config:
    def test_defaults_are_valid(self):
        config = F2Config()
        assert 0 < config.alpha <= 1
        assert config.split_factor >= 1

    @pytest.mark.parametrize("alpha,expected_k", [(1.0, 1), (0.5, 2), (0.34, 3), (0.2, 5), (0.1, 10)])
    def test_group_size_is_ceil_inverse_alpha(self, alpha, expected_k):
        assert F2Config(alpha=alpha).group_size == expected_k

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_invalid_alpha_rejected(self, alpha):
        with pytest.raises(ConfigurationError):
            F2Config(alpha=alpha)

    def test_invalid_split_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            F2Config(split_factor=0)

    def test_invalid_nonce_length_rejected(self):
        with pytest.raises(ConfigurationError):
            F2Config(nonce_length=4)

    def test_invalid_verify_max_lhs_rejected(self):
        with pytest.raises(ConfigurationError):
            F2Config(verify_max_lhs=0)

    def test_with_alpha_returns_modified_copy(self):
        base = F2Config(alpha=0.5)
        derived = base.with_alpha(0.25)
        assert derived.alpha == 0.25 and base.alpha == 0.5

    def test_with_split_factor(self):
        assert F2Config().with_split_factor(4).split_factor == 4

    def test_to_dict_contains_key_parameters(self):
        data = F2Config(alpha=0.25, split_factor=3).to_dict()
        assert data["alpha"] == 0.25
        assert data["split_factor"] == 3
        assert data["group_size"] == 4


class TestEncryptionStats:
    @pytest.fixture
    def stats(self) -> EncryptionStats:
        return EncryptionStats(
            rows_original=100,
            attributes=5,
            rows_added_group=10,
            rows_added_scale=5,
            rows_added_conflict=2,
            rows_added_false_positive=8,
            seconds_max=0.1,
            seconds_sse=0.4,
            seconds_syn=0.05,
            seconds_fp=0.2,
        )

    def test_rows_added_total(self, stats):
        assert stats.rows_added_total == 25

    def test_rows_encrypted(self, stats):
        assert stats.rows_encrypted == 125

    def test_step_seconds_keys(self, stats):
        assert set(stats.step_seconds()) == {STEP_MAX, STEP_SSE, STEP_SYN, STEP_FP}

    def test_overhead_rows_keys(self, stats):
        assert set(stats.overhead_rows()) == {
            OVERHEAD_GROUP,
            OVERHEAD_SCALE,
            OVERHEAD_SYN,
            OVERHEAD_FP,
        }

    def test_overhead_ratios(self, stats):
        ratios = stats.overhead_ratios()
        assert ratios[OVERHEAD_GROUP] == pytest.approx(0.10)
        assert ratios[OVERHEAD_FP] == pytest.approx(0.08)

    def test_total_overhead_ratio(self, stats):
        assert stats.total_overhead_ratio == pytest.approx(0.25)

    def test_overhead_ratio_handles_zero_rows(self):
        assert EncryptionStats().total_overhead_ratio == 0.0

    def test_to_dict_round_numbers(self, stats):
        data = stats.to_dict()
        assert data["rows_original"] == 100
        assert data["rows_encrypted"] == 125
        assert data["rows_added_group"] == 10
        assert data["seconds_sse"] == pytest.approx(0.4)
