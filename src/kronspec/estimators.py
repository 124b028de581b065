"""Estimated Laplacian spectra of Kronecker products from factor spectra.

Two estimation formulas are provided. Both take each factor's degrees in
any order and pair them ascending, as the estimate of Sayama (Discrete Appl.
Math. 205, 2016) does, against the factor eigenvalues in the order a
heuristic chooses:

* the Laplacian-eigenvector estimate combines factor Laplacian eigenvalues
  mu with degrees d as ``mu_i*d'_j + d_i*mu'_j - mu_i*mu'_j``;
* the normalized-Laplacian estimate combines factor normalized-Laplacian
  eigenvalues lam as ``(lam_i + lam'_j - lam_i*lam'_j) * d_i * d'_j``.

Both return the n1*n2 estimated eigenvalues as a flat float64 array in
row-major order over the (reordered) factor indices; the corresponding
estimated eigenvectors are Kronecker products of factor eigenvector columns.
``Ordering()`` (Correlated: eigenvalues ascending, like the degrees) is only
the functions' argument default. Each :class:`Estimator` is one row of
``_RULES``, which the functions defined below it read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graphs import InputError, _as_int, _as_member
from .spectral import FactorSpectra

# factor eigenvalues closer to zero than this (relative to the spectrum
# scale) are snapped to exactly 0.0, so the estimate of the product's zero
# eigenvalue is an exact zero
ZERO_SNAP = 1e-12

# The most adjacent transpositions an ordering may ask for: apply_ordering
# makes them one at a time, about two seconds per million.
MAX_SWAP_COUNT = 10**6


class OrderingKind(str, Enum):
    UNCORRELATED = "Uncorrelated"
    CORRELATED = "Correlated"
    CORRELATED_RANDOMIZED = "CorrelatedRandomized"
    ANTI_CORRELATED = "AntiCorrelated"
    ANTI_CORRELATED_RANDOMIZED = "AntiCorrelatedRandomized"


_RANDOMIZED = (OrderingKind.CORRELATED_RANDOMIZED, OrderingKind.ANTI_CORRELATED_RANDOMIZED)
# the kinds whose permutation draws on randomization_seed
_SEEDED = (OrderingKind.UNCORRELATED, *_RANDOMIZED)
# the sorted kinds whose base order is descending
_DESCENDING = (OrderingKind.ANTI_CORRELATED, OrderingKind.ANTI_CORRELATED_RANDOMIZED)


class Estimator(str, Enum):
    SAYAMA_LAPLACIAN = "SayamaLaplacian"
    NORMALIZED_LAPLACIAN = "NormalizedLaplacian"


@dataclass(frozen=True)
class Ordering:
    """Eigenvalue-ordering heuristic plus its randomization knobs.

    ``swap_count`` is the number of random adjacent transpositions applied
    after sorting (randomized kinds only); None means the default n // 4.
    Both it and ``randomization_seed`` are nonnegative ints by ``graphs._as_int``,
    ``swap_count`` at most ``MAX_SWAP_COUNT``; any other value is an InputError.
    """

    kind: OrderingKind = OrderingKind.CORRELATED
    randomization_seed: int = 0
    swap_count: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", _as_member("kind", self.kind, OrderingKind))
        seed = _as_int("randomization_seed", self.randomization_seed, 0)
        object.__setattr__(self, "randomization_seed", seed)
        if self.swap_count is not None:
            swaps = _as_int("swap_count", self.swap_count, 0, MAX_SWAP_COUNT)
            object.__setattr__(self, "swap_count", swaps)
        if self.kind not in _RANDOMIZED and self.swap_count not in (None, 0):
            raise InputError(f"swap_count must be 0 for ordering kind {self.kind.value}")


def apply_ordering(values: np.ndarray, ordering: Ordering, seed_salt: int = 0) -> np.ndarray:
    """Index permutation realizing the requested eigenvalue ordering.

    Uncorrelated is a seeded uniform shuffle; any other kind is one stable sort,
    descending for the AntiCorrelated kinds, then ``swap_count`` seeded adjacent
    transpositions (default n // 4 if randomized, else 0). ``seed_salt`` decouples
    the two factors of one estimate.
    """
    values = np.asarray(values)
    n = len(values)
    kind = ordering.kind
    if kind in _SEEDED:
        rng = np.random.default_rng((ordering.randomization_seed, seed_salt))
    if kind == OrderingKind.UNCORRELATED:
        return rng.permutation(n)
    perm = np.argsort(-values if kind in _DESCENDING else values, kind="stable")
    default = n // 4 if kind in _RANDOMIZED else 0
    for _ in range(default if ordering.swap_count is None else ordering.swap_count):
        pos = int(rng.integers(0, n - 1))
        perm[pos], perm[pos + 1] = perm[pos + 1], perm[pos]
    return perm


def _combine(values1, d1, values2, d2, ordering, cell) -> np.ndarray:
    sides = []
    for k, (values, d) in enumerate([(values1, d1), (values2, d2)], start=1):
        if len(values) != len(d):
            raise ValueError(f"factor {k}: {len(values)} eigenvalues vs {len(d)} degrees")
        e = np.asarray(values, dtype=np.float64)[apply_ordering(values, ordering, seed_salt=k)]
        e[np.abs(e) <= ZERO_SNAP * max(1.0, float(np.abs(e).max()))] = 0.0
        sides.append((e, np.sort(np.asarray(d, dtype=np.float64))))
    (e1, d1), (e2, d2) = sides
    return cell(e1[:, None], d1[:, None], e2[None, :], d2[None, :]).ravel()


def sayama_spectrum(mu1, d1, mu2, d2, ordering: Ordering = Ordering()) -> np.ndarray:
    """Estimate from factor Laplacian eigenvalues: mu_i*d'_j + d_i*mu'_j - mu_i*mu'_j.

    ``d1`` and ``d2`` are degrees in any order, paired ascending; the
    ordering controls how the eigenvalues are paired against them. The entry
    pairing the two zero eigenvalues is exactly 0.
    """
    return _combine(
        mu1, d1, mu2, d2, ordering,
        lambda e1, dd1, e2, dd2: e1 * dd2 + dd1 * e2 - e1 * e2,
    )


def normalized_estimate(lam1, d1, lam2, d2, ordering: Ordering = Ordering()) -> np.ndarray:
    """Estimate from factor normalized-Laplacian eigenvalues.

    Each value is ``(lam_i + lam'_j - lam_i*lam'_j) * d_i * d'_j``, with
    degrees in any order, paired ascending. It is nonnegative for any
    ordering since every lam lies in [0, 2].
    """
    return _combine(
        lam1, d1, lam2, d2, ordering,
        lambda e1, dd1, e2, dd2: (e1 + e2 - e1 * e2) * dd1 * dd2,
    )


# (FactorSpectra field of the basis read, formula, default ordering kind) per estimator.
# The additive mu*d cells of the Laplacian-basis estimate need eigenvalues ascending
# like the degrees (Correlated). The multiplicative cells of the normalized-basis estimate
# acquire a systematic trace deficit under any rank-correlated pairing (sum of
# lam_(i) d_(i) exceeds the mean-field value for similarly-sorted sequences) that
# inflates the error medians on sparse irregular factors, so it is shuffled (Uncorrelated).
_RULES = {
    Estimator.SAYAMA_LAPLACIAN: ("laplacian", sayama_spectrum, OrderingKind.CORRELATED),
    Estimator.NORMALIZED_LAPLACIAN: ("normalized", normalized_estimate, OrderingKind.UNCORRELATED),
}


def resolve_ordering(ordering: Ordering | None, estimator: Estimator, seed: int) -> Ordering:
    """The eigenvalue ordering an estimator uses: ``ordering`` when given, else its default.

    An explicit ordering applies to every estimator; a default kind that draws on a
    seed takes ``seed``, the per-run seed.
    """
    _, _, kind = _RULES[estimator]
    if ordering is not None:
        return ordering
    return Ordering(kind, seed if kind in _SEEDED else 0)


def ordering_label(ordering: Ordering | None, estimator: Estimator) -> str:
    """How an estimator pairs eigenvalues, as the ``ordering`` column of its error table."""
    if ordering is not None:
        return ordering.kind.value
    _, _, kind = _RULES[estimator]
    return f"{kind.value}[per-run seed]" if kind in _SEEDED else kind.value


def estimate_spectrum(
    estimator: Estimator, f1: FactorSpectra, f2: FactorSpectra, ordering: Ordering
) -> np.ndarray:
    """The n1*n2 estimated product eigenvalues of one estimator, unsorted."""
    basis, formula, _ = _RULES[estimator]
    basis1, basis2 = getattr(f1, basis), getattr(f2, basis)
    return formula(basis1.eigenvalues, f1.degrees, basis2.eigenvalues, f2.degrees, ordering)
