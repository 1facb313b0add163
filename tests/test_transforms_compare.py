"""Tests for the seed-variance study."""


class TestVarianceStudy:
    def test_small_variance_run(self):
        from repro.experiments import variance

        result = variance.run(
            invocations=6, benches=("soplex", "equake"), seeds=(1, 2)
        )
        assert result.all_correct
        assert len(result.rows) == 2
        assert all(len(r.sw_samples) == 2 for r in result.rows)
        assert "Seed-variance" in variance.render(result)
