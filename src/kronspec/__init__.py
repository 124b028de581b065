"""Laplacian spectra of Kronecker products of graphs, estimated from factor spectra."""

from .graphs import (
    Graph,
    KroneckerLaplacian,
    build_graph,
    edge_density,
    is_bipartite,
    is_connected,
    kronecker_graph,
    laplacian,
    normalized_laplacian,
    normalized_laplacian_of,
    read_edge_list,
    write_edge_list,
)
from .generators import (
    GenerationError,
    GeneratorSpec,
    barabasi_albert,
    density_to_params,
    derive_seed,
    erdos_renyi,
    generate_connected,
    generate_connected_pair,
    watts_strogatz,
)
from .spectral import product_spectrum
from .estimators import (
    Estimator,
    Ordering,
    OrderingKind,
    apply_ordering,
    normalized_estimate,
    sayama_spectrum,
)
from .metrics import (
    DensityCurve,
    ErrorProfile,
    aggregate_profile,
    correlation_profile,
    kde,
    percentage_errors,
)
from .theory import (
    asymptotic_cubic,
    expected_kron_normalized_spectrum,
    expected_r1j,
    mean_rms_ratio,
    rprime_lower_bound,
    sayama_bound_holds,
)
from .experiments import (
    ExperimentBundle,
    ExperimentConfig,
    RunRecord,
    reproduce_figure,
    run_experiment,
    run_single,
    theory_suite,
)

__version__ = "0.1.0"
