"""One integer rule for every integer kronspec is given, whatever the entry point.

An accepted value is any integer type (numpy's too) or an integral finite
float, stored as a Python int; bools, fractions, strings, NaN and values
outside the field's bounds are an InputError naming the field.
"""

import json
import math

import numpy as np
import pytest

from kronspec import checks
from kronspec.estimators import MAX_SWAP_COUNT, Ordering, OrderingKind
from kronspec.experiments import MAX_RUNS, ExperimentConfig
from kronspec.generators import GeneratorSpec
from kronspec.graphs import MAX_ORDER, InputError, build_graph
from kronspec.spectral import MAX_DENSE_ORDER

ER = {"model": "ER", "orders": (10, 12), "density": 0.4}
RANDOMIZED = {"kind": "CorrelatedRandomized"}


def built(**extra) -> ExperimentConfig:
    return ExperimentConfig(**{**ER, **extra})


def from_dict(**extra) -> ExperimentConfig:
    return ExperimentConfig.from_dict({**ER, **extra})


# entry point: (the value it stores for v, a regex naming the field, a value below its bound)
ENTRY_POINTS = {
    "config.orders": (lambda v: built(orders=(v, 12)).orders[0], r"\borders\b", 1),
    "from_dict.orders": (lambda v: from_dict(orders=[v, 12]).orders[0], r"\borders\b", 1),
    "config.runs": (lambda v: built(runs=v).runs, "runs", 0),
    "from_dict.runs": (lambda v: from_dict(runs=v).runs, "runs", 0),
    "config.master_seed": (lambda v: built(master_seed=v).master_seed, "master_seed", None),
    "from_dict.master_seed": (lambda v: from_dict(master_seed=v).master_seed, "master_seed", None),
    "from_dict.ordering.randomization_seed": (
        lambda v: from_dict(ordering={**RANDOMIZED, "randomization_seed": v})
        .ordering.randomization_seed,
        "randomization_seed",
        -1,
    ),
    "from_dict.ordering.swap_count": (
        lambda v: from_dict(ordering={**RANDOMIZED, "swap_count": v}).ordering.swap_count,
        "swap_count",
        -1,
    ),
    "Ordering.randomization_seed": (
        lambda v: Ordering(OrderingKind.UNCORRELATED, randomization_seed=v).randomization_seed,
        "randomization_seed",
        -1,
    ),
    "Ordering.swap_count": (
        lambda v: Ordering(OrderingKind.CORRELATED_RANDOMIZED, swap_count=v).swap_count,
        "swap_count",
        -1,
    ),
    "GeneratorSpec.n": (lambda v: GeneratorSpec("ER", v, 0.5, seed=0).n, "order", 1),
    "GeneratorSpec.seed": (lambda v: GeneratorSpec("ER", 10, 0.5, seed=v).seed, "seed", -1),
    "build_graph": (lambda v: build_graph(v, []).n, "order", 0),
    "checks.er_r1j_monte_carlo": (lambda v: checks.er_r1j_monte_carlo(v, seed=0), "draws", 0),
    "checks.sayama_nonnegativity_sweep": (
        lambda v: checks.sayama_nonnegativity_sweep(v, seed=0),
        "graphs",
        1,
    ),
    "checks.sayama_nonnegativity_sweep.seed": (
        lambda v: checks.sayama_nonnegativity_sweep(2, seed=v),
        "seed",
        -1,
    ),
    "checks.er_r1j_monte_carlo.seed": (lambda v: checks.er_r1j_monte_carlo(1, seed=v), "seed", -1),
    # these four draw their factor pairs through checks._er_pairs
    "checks.r1j_closed_form_gap.seed": (lambda v: checks.r1j_closed_form_gap(v), "seed", -1),
    "checks.colinearity_residual.seed": (lambda v: checks.colinearity_residual(v), "seed", -1),
    "checks.normalized_decomposition_gaps.seed": (
        lambda v: checks.normalized_decomposition_gaps(v),
        "seed",
        -1,
    ),
    "checks.rprime_bound_slack.seed": (lambda v: checks.rprime_bound_slack(v), "seed", -1),
}
# the checks would run on an accepted value, so only their rejections are tested
SIZED_CHECKS = (
    "checks.er_r1j_monte_carlo",
    "checks.sayama_nonnegativity_sweep",
    "checks.sayama_nonnegativity_sweep.seed",
    "checks.er_r1j_monte_carlo.seed",
    "checks.r1j_closed_form_gap.seed",
    "checks.colinearity_residual.seed",
    "checks.normalized_decomposition_gaps.seed",
    "checks.rprime_bound_slack.seed",
)

# entry point: values above its upper bounds. Before the bounds, an order of 10**30
# ran into numpy's allocation limit, a swap count or run count of 10**18 would not
# end, an ER product above MAX_DENSE_ORDER could fail to allocate its triangle, an
# edge list's order above MAX_ORDER allocated its adjacency before any check, and
# the sweep kept the spectra of every graph it was asked for
ABOVE = {
    "from_dict.orders": (10**30, MAX_DENSE_ORDER // 12 + 1),
    "from_dict.ordering.swap_count": (10**18,),
    "from_dict.runs": (10**18,),
    "config.orders": (MAX_ORDER + 1, MAX_DENSE_ORDER // 12 + 1),
    "config.runs": (MAX_RUNS + 1,),
    "GeneratorSpec.n": (MAX_ORDER + 1,),
    "build_graph": (MAX_ORDER + 1,),
    "checks.er_r1j_monte_carlo": (MAX_RUNS + 1,),
    "checks.sayama_nonnegativity_sweep": (MAX_RUNS + 1,),
    "Ordering.swap_count": (MAX_SWAP_COUNT + 1,),
}

ACCEPTED = [3, np.int64(3), np.int32(3), 3.0]
REJECTED = [True, 2.5, "3", math.nan]


def rejections():
    for entry, (_, _, below) in ENTRY_POINTS.items():
        bounds = ([] if below is None else [below]) + list(ABOVE.get(entry, ()))
        for value in REJECTED + bounds:
            yield pytest.param(entry, value, id=f"{entry}-{value!r}")


@pytest.mark.parametrize("value", ACCEPTED, ids=repr)
@pytest.mark.parametrize("entry", [e for e in ENTRY_POINTS if e not in SIZED_CHECKS])
def test_integer_rule_accepts(entry, value):
    stored = ENTRY_POINTS[entry][0](value)
    assert type(stored) is int
    assert json.dumps(stored) == "3"


@pytest.mark.parametrize("entry, value", rejections())
def test_integer_rule_rejects(entry, value):
    store, name, _ = ENTRY_POINTS[entry]
    with pytest.raises(InputError, match=name):
        store(value)


def test_upper_bounds_are_inclusive():
    assert Ordering(OrderingKind.CORRELATED_RANDOMIZED, swap_count=MAX_SWAP_COUNT).swap_count == (
        MAX_SWAP_COUNT
    )
    assert GeneratorSpec("ER", MAX_ORDER, 0.5, seed=0).n == MAX_ORDER
    assert built(runs=MAX_RUNS).runs == MAX_RUNS
    # the largest factor, in a product of exactly the dense bound
    orders = (MAX_ORDER, MAX_DENSE_ORDER // MAX_ORDER)
    assert orders[0] * orders[1] == MAX_DENSE_ORDER
    assert built(orders=orders).orders == orders
    # a factor regular for every seed takes the block path, whatever the product
    assert built(model="CYCLE", orders=(MAX_ORDER, 13)).orders == (MAX_ORDER, 13)
    assert built(model="WS", orders=(MAX_ORDER, 12), ws_beta=0).orders == (MAX_ORDER, 12)
