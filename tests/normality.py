"""Chi-squared normality test for correlation-coefficient samples.

Test-suite helpers behind criterion 13 (per-pair normality of the
correlation coefficients in Fisher-z coordinates); the library itself
reports no normality figure. pytest puts this directory on ``sys.path``, so
test modules import it as ``normality``.
"""

import numpy as np
from scipy.special import chdtri, ndtr

# significance level of the chi-squared normality test
NORMALITY_ALPHA = 0.05


def fisher_z(samples: np.ndarray) -> np.ndarray:
    """Variance-stabilizing arctanh transform for correlation coefficients.

    Correlation coefficients live in [-1, 1] with a hard ceiling that skews
    their sampling distribution; in z = arctanh(r) coordinates they are
    close to normal, which is the standard coordinate system for normality
    statements about them. Inputs are clipped one ulp inside (-1, 1).
    """
    samples = np.asarray(samples, dtype=np.float64)
    return np.arctanh(np.clip(samples, -1 + 1e-15, 1 - 1e-15))


def chi_squared_normality(samples: np.ndarray) -> bool:
    """Pearson chi-squared goodness-of-fit test against a fitted normal.

    Convention: Sturges binning (ceil(log2 m) + 1 bins over the sample
    range, outer bins extended to infinity), adjacent bins merged until
    every expected count reaches 5, and the normal fitted by sample mean
    and (ddof=1) variance. Degrees of freedom are bins - 1 with a floor of
    1, the conservative choice when the parameters are estimated from the
    unbinned sample (the statistic is then stochastically below a
    chi-squared with bins - 1 dof). Returns True when the statistic stays
    below the critical value at ``NORMALITY_ALPHA``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    m = len(samples)
    if m < 30:
        raise ValueError(f"need at least 30 samples for the chi-squared test, got {m}")
    mean = float(np.mean(samples))
    sigma = float(np.std(samples, ddof=1))
    if sigma == 0.0:
        return False
    bins = int(np.ceil(np.log2(m))) + 1
    edges = np.linspace(samples.min(), samples.max(), bins + 1)
    observed = np.histogram(samples, edges)[0].astype(np.float64)
    cdf = ndtr((edges - mean) / sigma)
    cdf[0], cdf[-1] = 0.0, 1.0
    expected = m * np.diff(cdf)

    # merge left-to-right until every group expects at least 5
    obs_groups, exp_groups = [], []
    acc_o, acc_e = 0.0, 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_groups.append(acc_o)
            exp_groups.append(acc_e)
            acc_o, acc_e = 0.0, 0.0
    if acc_e > 0.0:
        if exp_groups:
            obs_groups[-1] += acc_o
            exp_groups[-1] += acc_e
        else:
            obs_groups, exp_groups = [acc_o], [acc_e]

    obs_arr = np.asarray(obs_groups)
    exp_arr = np.asarray(exp_groups)
    stat = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    dof = max(len(exp_arr) - 1, 1)
    return stat <= float(chdtri(dof, NORMALITY_ALPHA))


def normality_pass_count(samples: np.ndarray) -> tuple[int, int]:
    """Count the columns of a (runs, pairs) sample matrix that pass the chi-squared test."""
    passed = sum(chi_squared_normality(column) for column in samples.T)
    return passed, samples.shape[1]
