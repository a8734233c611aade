"""Elephant random walk on the infinite dihedral group.

Simulation of the group walk, the coupled integer processes and their Doob
decomposition, exact second moments with an all-paths oracle, singular-
endpoint quadrature for the limiting variance, and Monte Carlo checks of
the limit theorems.
"""

from .group import (
    GroupWord,
    MemoryParams,
    WalkTrace,
    complement,
    reduce_left_multiply,
    signed_location,
    simulate_walk,
    step_prob_a,
    word_metric,
)
from .coupling import (
    CoupledState,
    advance,
    conditional_step_prob,
    coupled_states_along,
    encode_increment,
    exhaustive_coupling_check,
    final_coupled_state,
    reconstruct_w_from_s,
    verify_coupling,
)
from .moments import (
    EnumerationResult,
    MomentTable,
    enumerate_exact,
    h_moment,
    h_moment_table,
    r_norm,
    t1,
    t2,
    var_ztilde_exact,
)
from .quadrature import (
    FigureRow,
    QuadratureError,
    QuadratureResult,
    figure_grid,
    gauss_2f1,
    integrate,
    phi_integrand,
    var_z_infinity,
    var_ztilde_infinity,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
