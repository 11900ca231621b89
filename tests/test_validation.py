import pytest
import scipy.special

from specsense.validation import (
    check_clt,
    check_conjugacy,
    check_glr_unimodality,
    check_map_estimates,
    check_moments,
    run_validation,
)


class TestBattery:
    def test_all_checks_pass_default_seed(self):
        results = run_validation()
        assert all(r.passed for r in results), [r for r in results if not r.passed]
        assert len(results) == 5

    def test_verdicts_stable_across_seeds(self):
        for seed in (1, 2):
            assert all(r.passed for r in run_validation(seed))


class TestMutationSensitivity:
    def test_corrupted_incomplete_gamma_caught(self, monkeypatch):
        # A 1e-3 perturbation of the incomplete-gamma routine must trip
        # the conjugacy check's cumulative comparison.
        clean = scipy.special.gammaincc

        def corrupted(s, x):
            return min(1.0, clean(s, x) + 1e-3)

        monkeypatch.setattr(scipy.special, "gammaincc", corrupted)
        assert not check_conjugacy().passed

    def test_wrong_extremum_caught(self, monkeypatch):
        from specsense import detectors, validation

        true_mu = detectors.mu_glrd1
        monkeypatch.setattr(validation, "mu_glrd1",
                            lambda n, k, g: 1.2 * true_mu(n, k, g))
        assert not check_glr_unimodality().passed


class TestIndividualChecks:
    def test_each_passes(self):
        assert check_conjugacy().passed
        assert check_map_estimates().passed
        assert check_clt().passed
        assert check_moments().passed
        assert check_glr_unimodality().passed
