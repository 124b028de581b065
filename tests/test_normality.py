"""The chi-squared normality test and Fisher-z transform behind criterion 13."""

import numpy as np
import pytest

from normality import chi_squared_normality, fisher_z, normality_pass_count


def test_normality_calibration_on_gaussian_samples():
    # the test of the test: i.i.d. normal samples should pass at close to
    # the nominal rate; require at least 1 - 2*alpha
    rng = np.random.default_rng(101)
    alpha = 0.05
    samples = np.column_stack(
        [rng.normal(j * 0.1, 1.0 + 0.01 * j, size=100) for j in range(400)]
    )
    passed, total = normality_pass_count(samples)
    assert total == 400
    assert passed / total >= 1 - 2 * alpha


def test_normality_rejects_two_point_mass():
    rng = np.random.default_rng(103)
    samples = rng.integers(0, 2, size=200).astype(float)
    assert not chi_squared_normality(samples)


def test_normality_requires_enough_samples():
    with pytest.raises(ValueError):
        chi_squared_normality(np.zeros(10))


def test_normality_constant_samples_fail():
    assert not chi_squared_normality(np.full(50, 3.0))


def test_fisher_z_reduces_ceiling_skew():
    rng = np.random.default_rng(107)
    # correlation-like samples hugging 1: tanh of a normal
    z_true = rng.normal(2.2, 0.25, size=5000)
    r = np.tanh(z_true)
    from scipy.stats import skew

    assert abs(skew(fisher_z(r))) < abs(skew(r)) / 3
    assert np.isfinite(fisher_z(np.array([1.0, -1.0]))).all()
    back = np.tanh(fisher_z(r))
    assert np.abs(back - r).max() <= 1e-12
