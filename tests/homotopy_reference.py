"""Reference homotopy coefficients by the per-(index, source) loop, for parity
tests.

Each output index loops over every source coefficient that feeds it and
evaluates that coefficient on the segment again, at both quadrature orders.
`exform.forms.HomotopyField` evaluates the source coefficients as one pack
per order instead; its coefficients must equal these bit for bit.
"""

import numpy as np

from exform import expr as ex
from exform import forms


def coefficient(field, index, point):
    index = tuple(index)
    forms._check_index(index, field.degree, field.chart.dim)
    value = _coefficient(field, index, point, forms.HOMOTOPY_ORDER)
    check = _coefficient(field, index, point, 2 * forms.HOMOTOPY_ORDER)
    if abs(value - check) > 1e-9 * max(1.0, abs(check)):
        raise forms.QuadratureError(
            f"quadrature for coefficient {index} did not converge "
            f"(order {forms.HOMOTOPY_ORDER}: {value}, doubled: {check})")
    return check


def _coefficient(field, index, point, order):
    p = field.source.degree
    x = np.asarray(point, dtype=np.float64)
    base = np.asarray(field.base, dtype=np.float64)
    v = x - base
    t, w = forms._gauss01(order)
    segment = base[None, :] + t[:, None] * v[None, :]
    weight = w * t ** (p - 1)
    total = 0.0
    for src_index, coeff in field.source.coeffs.items():
        for q, axis in enumerate(src_index):
            remainder = src_index[:q] + src_index[q + 1:]
            if remainder != index:
                continue
            samples = ex.evaluate_many(coeff, segment)
            integral = float(np.dot(weight, samples))
            total += (-1) ** q * integral * v[axis]
    return total


def coefficients_at(field, point):
    return {index: coefficient(field, index, point) for index in field.indices()}
