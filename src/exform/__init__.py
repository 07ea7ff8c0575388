"""exform: exterior and evolutionary skew-symmetric differential forms.

Modules by concern:

* :mod:`exform.expr` -- symbolic scalar expressions (parse, differentiate,
  simplify, seeded zero-testing);
* :mod:`exform.forms` -- exterior algebra, closure, homotopy antiderivative,
  cells and integration;
* :mod:`exform.dual` -- Euclidean Hodge duals and the diagnostics built on
  dual closure;
* :mod:`exform.evolution` -- connections, torsion/curvature, two-term
  commutators, relations that need not hold identically;
* :mod:`exform.charpde` -- characteristic strips, canonical relations,
  Lagrangian solution fans, caustics, derivative-field classification;
* :mod:`exform.cli` -- the `exform` command.
"""

from .expr import (ChartMismatchError, CoordinateChart, DomainError,
                   ExformError, ParseError, ScalarExpr, chart, parse_expr,
                   partial, probably_zero, simplify)
from .forms import (Cell, Commutator1, DifferentialForm, antiderivative,
                    commutator_1form, exterior_derivative, integrate_form,
                    is_closed, stokes_residual, wedge)
from .dual import (ClosureReport, DualPair, cauchy_riemann_residuals,
                   dual_closure_check, harmonic_residual, hodge_star,
                   implicit_direction)
from .evolution import (BiStructure, Connection, NonidenticalRelation,
                        Pseudostructure, capture_bistructure, curvature,
                        degeneracy_indicator, evolutionary_commutator,
                        relation_residual, restrict_relation_to_curve,
                        torsion)
from .charpde import (CharacteristicStrip, Fan, FirstOrderPDE, HJEquation,
                      canonical_rhs, charpit_rhs, classify_derivative_field,
                      commutator_residual_field, detect_caustic,
                      integrate_strips, poincare_residual, poisson_bracket,
                      solve_hj)

__version__ = "0.1.0"
