"""Tests for experiment configuration."""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.settings import PAPER, QUICK, ExperimentConfig


class TestExperimentConfig:
    def test_paper_defaults_match_section_iva(self):
        assert PAPER.network_sizes == (50, 100, 150, 200, 250, 300, 350, 400)
        assert PAPER.n_providers == 100
        assert PAPER.one_minus_xi == 0.3
        assert PAPER.default_size == 250

    def test_quick_is_smaller(self):
        assert max(QUICK.network_sizes) < max(PAPER.network_sizes)
        assert QUICK.repetitions <= PAPER.repetitions
        assert QUICK.n_providers < PAPER.n_providers

    def test_with_override(self):
        cfg = PAPER.with_(repetitions=1)
        assert cfg.repetitions == 1
        assert PAPER.repetitions != 1  # original untouched

    def test_point_seed_uniqueness(self):
        seeds = {
            PAPER.point_seed(x, r) for x in range(10) for r in range(10)
        }
        assert len(seeds) == 100

    def test_invalid_repetitions(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(repetitions=0)

    def test_invalid_xi_sweep(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(xi_sweep=(0.0, 1.2))

    @pytest.mark.parametrize("one_minus_xi", [-0.1, 1.5, float("nan")])
    def test_invalid_one_minus_xi(self, one_minus_xi):
        # An out-of-range default fraction used to construct fine and
        # then fail every LCF cell of a sweep, leaving empty points.
        with pytest.raises(ConfigurationError, match="one_minus_xi"):
            QUICK.with_(one_minus_xi=one_minus_xi)

    def test_invalid_n_providers(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(n_providers=0)
