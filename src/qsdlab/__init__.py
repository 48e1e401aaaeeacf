"""qsdlab: quasi-stationary distributions of killed Markov processes.

Simulate them with a discretized Fleming-Viot particle system, compute
exact spectral references on finite or grid state spaces, and certify
Harris-type drift/minorization conditions numerically.
"""

from ._kernels import ResurrectionOverflowError, Stream, substream
from .fv import FVConfig, FVReport, q_mu_step, run_fv, run_fv_batch
from .metrics import (
    EmpiricalMeasure,
    estimate_theta,
    fit_exponential_rate,
    fit_power_law,
    from_particles,
    sliced_w1_torus,
    w1_circle,
    w1_line,
)
from .models import (
    BirthDeath,
    ChainMove,
    ConstDrift,
    ConstKill,
    CosineKill,
    Finite,
    FiniteKilledChain,
    GaussMove,
    GrowthFrag,
    GrowthFragMove,
    HalfLine,
    HouseOfCard,
    Interval,
    IntervalBrownian,
    IntervalKill,
    KilledModel,
    NoKill,
    PeriodicShift,
    PowerKill,
    RedrawMove,
    SineDrift,
    StateKill,
    Torus,
    TorusDiffusion,
    TwoPoint,
    ZeroDrift,
    build_preset,
    discrete_model,
    kill_prob,
    propose,
)
from .oracle import (
    EigenTriplet,
    KilledSemigroupMatrix,
    ReducibilityDiagnostic,
    conditional_law_step,
    grid_generator,
    killed_semigroup,
    list_qsds,
    perron_triplet,
    spectrum,
    survival_curve,
)

__version__ = "0.1.0"
