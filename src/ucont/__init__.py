"""ucont: a desk-scale verification lab for the operator machinery, evolution
flows, convexity quantities, and Carleman inequalities arising in unique
continuation for variable-coefficient Schrodinger equations."""

__version__ = "0.1.0"

from .expressions import ExpressionError, parse_expression
from .coefficients import (CoefficientField, SamplingBox, TransversalField,
                           decay_smallness, ellipticity_bounds, gauge_reduce)
from .grids import Grid, SpaceTimeGrid
from .operators import (DiffOperator, WeightSpec, commutator,
                        conjugate_decompose, verify_T_decomposition)
from .evolution import (DissipationParams, GaussianPacket, Trajectory,
                        WaveState, mass, propagate)
from .diagnostics import (ConvexityTrace, DecaySchedule, LowerBoundProfile,
                          annulus_mass_profile, derivative_bound_check,
                          gaussian_decay_schedule, logconvexity_check,
                          weighted_norm)
from .carleman import (CarlemanReport, CutoffSpec, SweepConfig, carleman_sweep,
                       carleman_sides_cubic, carleman_sides_translated,
                       make_test_function)
from .analysis import (SubordinationCase, poincare_weighted_check,
                       subordination_ratio)

__all__ = [name for name in dir() if not name.startswith("_")]
