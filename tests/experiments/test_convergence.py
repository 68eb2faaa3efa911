"""Tests for the convergence study."""

import pytest

from repro.exceptions import ConfigurationError
from repro.experiments.convergence import convergence_study


class TestConvergenceStudy:
    @pytest.fixture(scope="class")
    def points(self):
        return convergence_study(
            populations=(10, 20), network_size=60, repetitions=2,
            variants=("best", "better"),
        )

    def test_covers_grid(self, points):
        keys = {(p.n_providers, p.variant) for p in points}
        assert keys == {
            (10, "best"), (10, "better"), (20, "best"), (20, "better"),
        }

    def test_everything_converges_to_equilibria(self, points):
        for p in points:
            assert p.all_converged
            assert p.all_equilibria

    def test_convergence_is_fast(self, points):
        """The operational claim: a handful of round-robin rounds."""
        for p in points:
            assert p.rounds <= 10

    def test_moves_scale_with_population(self, points):
        by_variant = {}
        for p in points:
            by_variant.setdefault(p.variant, {})[p.n_providers] = p.moves
        for variant, moves in by_variant.items():
            assert moves[20] >= moves[10] * 0.5  # weakly growing, noisy

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            convergence_study(populations=())
        with pytest.raises(ConfigurationError):
            convergence_study(variants=())
        # No repetition would average empty lists into NaN and read as
        # "all converged, all equilibria".
        for repetitions in (0, -1):
            with pytest.raises(ConfigurationError, match="repetitions must be >= 1"):
                convergence_study(repetitions=repetitions)

    def test_unknown_variant_rejected_before_any_market_is_built(self, monkeypatch):
        import repro.experiments.convergence as convergence

        def no_network(*args, **kwargs):
            raise AssertionError("a market was built before the variant check")

        monkeypatch.setattr(convergence, "random_mec_network", no_network)
        with pytest.raises(ConfigurationError, match="chaotic"):
            convergence_study(variants=("best", "chaotic"))
