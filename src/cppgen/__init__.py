"""Genealogies of samples from binary branching processes.

Simulation and likelihood computation for full, Bernoulli-sampled, and
uniform-k-sampled reduced trees, built on the coalescent point process
representation of the reduced tree and the mixture representation of
k-sample genealogies.
"""

__version__ = "0.1.0"

from .cpp import (
    RandomStream,
    bernoulli_thin,
    simulate_cpp,
    simulate_cpp_many,
    simulate_forward,
    subsample,
    uniform_k_sample,
)
from .inference import FitResult, fit_mle, neg_log_likelihood
from .kernel import (
    ClosedFormTail,
    GridTail,
    InverseTail,
    closed_form_F,
    death_density_g,
    node_depth_density_f,
    solve_F,
    survival_a,
    tail_for,
)
from .ksample import (
    MixtureParams,
    definetti_sample,
    full_loglikelihood,
    joint_df,
    joint_df_bruteforce,
    ksample_loglikelihood,
    likelihood_with_missing,
    loglik,
    mixing_density,
    power_sum_identity,
    sample_mixing,
)
from .model import (
    OrientedUltrametricTree,
    RateModel,
    SamplingScheme,
    TreeBatch,
    count_cherries,
    newick_to_tree,
    parse_scheme,
    tree_to_newick,
)

__all__ = [name for name in dir() if not name.startswith("_")]
