"""Reference integrals by symbolic pullback, for parity tests.

Each face or cell composes theta's coefficients into the cell maps, multiplies
by the Jacobian minors, simplifies the summed tree and evaluates it through
one compiled tape at the tensor Gauss-Legendre nodes.  `exform.forms` pulls
back numerically instead; its integrals must equal these bit for bit.  It
keeps this path only for a cell whose numeric integral is not finite; the
copy here is separate so the reference does not change with that code.
"""

import numpy as np

from exform import expr as ex
from exform import forms


def pullback_integrand(theta, cell):
    """Pull theta back through the cell parametrization; a scalar over s1..sk."""
    pchart = forms.param_chart(cell.k)
    total = None
    for index, coeff in theta.coeffs.items():
        composed = ex.compose(coeff, pchart, list(cell.maps))
        term = ex.Binary(pchart, "*", composed, forms._jacobian_minor(cell, index))
        total = term if total is None else ex.Binary(pchart, "+", total, term)
    if total is None:
        return ex.Const(pchart, 0.0)
    return ex.simplify(total)


def integrate_form(theta, cell, quadrature_order=forms.DEFAULT_QUAD_ORDER):
    if theta.degree != cell.k:
        raise forms.DegreeError(f"degree mismatch: form {theta.degree}, cell {cell.k}")
    if cell.k == 0:
        return cell.orientation * ex.evaluate(theta.coeff(()), cell.at(()))
    integrand = pullback_integrand(theta, cell)
    if ex.is_zero_const(integrand):
        return 0.0
    nodes, weights = forms._gauss01(quadrature_order)
    grids = np.meshgrid(*([nodes] * cell.k), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    w = weights
    for _ in range(cell.k - 1):
        w = np.multiply.outer(w, weights)
    values = ex.evaluate_many(integrand, points)
    return cell.orientation * float(np.dot(w.ravel(), values))


def boundary_integral(theta, cell, quadrature_order=forms.DEFAULT_QUAD_ORDER):
    return sum(integrate_form(theta, face, quadrature_order)
               for face in forms.boundary(cell))


def stokes_residual(theta, cell, quadrature_order=forms.DEFAULT_QUAD_ORDER):
    inner = integrate_form(forms.exterior_derivative(theta), cell, quadrature_order)
    return abs(inner - boundary_integral(theta, cell, quadrature_order))
