"""Every config that ``ExperimentConfig.from_dict`` accepts runs.

A grammar of JSON config objects: each key's valid values and boundaries,
wrong types, NaN and Infinity, huge and negative integers, missing and
unknown keys, and pairs of factors bipartite for every seed. ``from_dict``
either rejects a config with an InputError that names a key, or
``run_experiment`` completes on it.
"""

import math
import re
import tempfile
from dataclasses import fields, replace

from hypothesis import given
from hypothesis import strategies as st

from kronspec.estimators import MAX_SWAP_COUNT, Ordering, OrderingKind
from kronspec.experiments import MAX_RUNS, ExperimentConfig, run_experiment
from kronspec.generators import MODELS
from kronspec.graphs import MAX_ORDER, InputError
from kronspec.spectral import MAX_DENSE_ORDER
from toolkit import SEEDS, property_settings

# the largest config the test runs; larger accepted ones are only built
RUN_ORDER, RUN_RUNS, RUN_SWAPS = 12, 3, 100

# values of the wrong JSON type for every key, and numbers no key accepts
WRONG = st.sampled_from([None, True, False, "3", [], {}, math.nan, math.inf, -math.inf])
HUGE = st.sampled_from([10**18, -(10**18), 10**30, 10**400, -1])

ORDERS = st.one_of(
    st.integers(2, RUN_ORDER),
    st.sampled_from([0, 1, 2.0, 2.5, MAX_ORDER, MAX_ORDER + 1, MAX_DENSE_ORDER // RUN_ORDER + 1]),
)
KINDS = [kind.value for kind in OrderingKind]
ORDERING = st.fixed_dictionaries(
    {"kind": st.sampled_from(KINDS)},
    optional={
        "randomization_seed": SEEDS,
        "swap_count": st.sampled_from([0, 1, 5, 20, MAX_SWAP_COUNT]),
    },
)

# key: its valid values, boundaries included
VALID = {
    "model": st.sampled_from(MODELS),
    "orders": st.lists(st.sampled_from(range(2, RUN_ORDER + 1)), min_size=2, max_size=2),
    "density": st.floats(0.05, 0.95),
    "runs": st.sampled_from([1, 2, RUN_RUNS, 1, 2, RUN_RUNS, MAX_RUNS]),
    "estimators": st.lists(
        st.sampled_from(["SayamaLaplacian", "NormalizedLaplacian"]), max_size=2, unique=True
    ),
    "ordering": st.one_of(st.none(), ORDERING),
    "master_seed": st.one_of(SEEDS, st.integers(-(10**30), 10**30)),
    "output_dir": st.sampled_from([None, "out"]),
    "ws_beta": st.one_of(st.floats(0.0, 1.0), st.sampled_from([0, 0.0, 1])),
    "compute_correlations": st.booleans(),
}
# key: values it rejects, besides WRONG and HUGE
INVALID = {
    "model": st.sampled_from(["er", "", "Cycle"]),
    "orders": st.one_of(
        st.lists(ORDERS, min_size=2, max_size=2),
        st.lists(ORDERS, max_size=4).filter(lambda v: len(v) != 2),
        st.sampled_from([5, "5,5"]),
    ),
    "density": st.sampled_from([0, 1, 0.0, 1.0, -0.1, 1.5, "0.5"]),
    "runs": st.sampled_from([0, 2.5, MAX_RUNS + 1]),
    "estimators": st.one_of(
        st.lists(st.sampled_from(["SayamaLaplacian", "Sayama", 3, None]), min_size=1),
        st.just("SayamaLaplacian"),
    ),
    "ordering": st.one_of(
        st.tuples(ORDERING, st.sampled_from([
            {"kind": "Random"},
            {"kind": 1},
            {"randomization_seed": -1},
            {"randomization_seed": 2.5},
            {"swap_count": -1},
            {"swap_count": MAX_SWAP_COUNT + 1},
            {"swaps": 3},
        ])).map(lambda pair: pair[0] | pair[1]),
        st.just("Correlated"),
    ),
    "master_seed": st.sampled_from([2.5]),
    "output_dir": st.sampled_from([5]),
    "ws_beta": st.sampled_from([-0.1, 1.5]),
    "compute_correlations": st.sampled_from([0, 1, "true"]),
    "run": st.just(5),  # an unknown key
}
# overlays whose factors are bipartite for every seed on one side or both:
# K2, even cycles, unrewired rings of degree 2 and BA trees
BIPARTITE = st.sampled_from([
    {"model": "ER", "orders": [2, 2], "density": 0.5},
    {"model": "ER", "orders": [2, 9], "density": 0.5},
    {"model": "CYCLE", "orders": [4, 6]},
    {"model": "CYCLE", "orders": [4, 5]},
    {"model": "WS", "orders": [8, 10], "density": 0.2, "ws_beta": 0},
    {"model": "WS", "orders": [8, 9], "density": 0.2, "ws_beta": 0},
    {"model": "BA", "orders": [5, 9], "density": 0.2},
    {"model": "BA", "orders": [5, 12], "density": 0.5},
])
# the keys every drawn object starts with: the three without a default, and runs,
# whose default (100) is more than the test runs
BASE = ("model", "orders", "density", "runs")
# every key a message may name: the config's fields and the ordering's
KEYS = {f.name for f in fields(ExperimentConfig)} | {f.name for f in fields(Ordering)}


def one_in(draw, n: int) -> bool:
    return draw(st.sampled_from([False] * (n - 1) + [True]))


@st.composite
def config_objects(draw):
    """A JSON config object: valid values for most keys, and now and then wrong
    values for one or two, a bipartite-forcing overlay or a missing key."""
    data = {key: draw(VALID[key]) for key in BASE}
    data |= draw(st.fixed_dictionaries({}, optional=VALID))
    if one_in(draw, 4):
        data |= draw(BIPARTITE)
    wrong = draw(st.sampled_from([0, 0, 1, 2]))
    for key in draw(st.lists(st.sampled_from(sorted(INVALID)), min_size=wrong, max_size=wrong)):
        data[key] = draw(st.one_of(INVALID[key], WRONG, HUGE))
    if one_in(draw, 8):
        del data[draw(st.sampled_from(BASE))]
    return data


def runs_quickly(config: ExperimentConfig) -> bool:
    swaps = config.ordering.swap_count if config.ordering else None
    return max(config.orders) <= RUN_ORDER and config.runs <= RUN_RUNS and (swaps or 0) <= RUN_SWAPS


@property_settings(500)
@given(config_objects())
def test_every_accepted_config_runs(data):
    try:
        config = ExperimentConfig.from_dict(data)
    except InputError as exc:
        ordering = data.get("ordering")
        named = KEYS | set(data) | set(ordering if isinstance(ordering, dict) else ())
        assert any(re.search(rf"\b{re.escape(str(key))}\b", str(exc)) for key in named), exc
        return
    if runs_quickly(config):
        with tempfile.TemporaryDirectory() as out:
            bundle = run_experiment(replace(config, output_dir=out))
        assert len(bundle.records) == config.runs
