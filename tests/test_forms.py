import itertools

import numpy as np
import pytest

from exform import expr as ex
from exform import dual, forms
from exform.expr import Binary, Unary

import homotopy_reference
import pullback_reference as reference
from conftest import rand_expr, rand_form

CH2 = ex.chart("x1", "x2")
CH3 = ex.chart("x1", "x2", "x3")
A1, A2 = ex.coords(CH2)
B1, B2, B3 = ex.coords(CH3)


class TestMultiIndex:
    def test_merge_signs(self):
        assert forms.merge_indices((0,), (1,)) == (1, (0, 1))
        assert forms.merge_indices((1,), (0,)) == (-1, (0, 1))
        assert forms.merge_indices((0,), (0,)) is None
        assert forms.merge_indices((1,), (0, 2)) == (-1, (0, 1, 2))
        assert forms.parity((2, 0, 1)) == 1 and forms.parity((0, 2, 1)) == -1

    def test_merge_one_axis_in_front(self):
        """d wedges dx^axis onto the front of dx^index."""
        assert forms.merge_indices((0,), (1, 2)) == (1, (0, 1, 2))
        assert forms.merge_indices((2,), (0, 1)) == (1, (0, 1, 2))
        assert forms.merge_indices((1,), (0, 2)) == (-1, (0, 1, 2))
        assert forms.merge_indices((1,), (1, 2)) is None

    def test_index_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            forms.DifferentialForm(CH3, 2, {(1, 0): B1})
        with pytest.raises(ValueError, match="degree"):
            forms.DifferentialForm(CH3, 2, {(0,): B1})
        with pytest.raises(ValueError, match="range"):
            forms.DifferentialForm(CH2, 1, {(5,): A1})


class TestNormalization:
    def test_zero_coefficients_dropped(self):
        f = forms.DifferentialForm(CH2, 1, {(0,): Binary(CH2, "*", A1, ex.const(CH2, 0.0)),
                                            (1,): A1})
        assert list(f.coeffs) == [(1,)]

    def test_top_degree_single_term(self):
        f = forms.DifferentialForm(CH2, 2, {(0, 1): A1})
        assert len(f.coeffs) == 1

    def test_numeric_coefficients_coerced(self):
        f = forms.DifferentialForm(CH2, 1, {(0,): 2})
        assert f.coeff((0,)) == ex.const(CH2, 2.0)

    def test_absent_coefficients_share_one_zero(self):
        f = forms.DifferentialForm(CH3, 1, {(0,): B1})
        assert f.coeff((1,)) is f.coeff((2,)) == ex.const(CH3, 0.0)
        k = forms.commutator_1form(forms.one_form(CH3, [-B2, B1, 0.0]))
        assert list(k.entries) == [(0, 1)]
        assert k.k(0, 0) is k.k(0, 2) is k.k(2, 1) == ex.const(CH3, 0.0)


class TestWedge:
    def test_self_wedge_vanishes(self):
        dx = forms.basis_one_form(CH3, 0)
        assert forms.wedge(dx, dx).is_zero

    def test_antisymmetry_of_basis(self):
        dx = forms.basis_one_form(CH3, 0)
        dy = forms.basis_one_form(CH3, 1)
        assert forms.wedge(dx, dy).coeff((0, 1)) == ex.const(CH3, 1.0)
        assert forms.wedge(dy, dx).coeff((0, 1)) == ex.const(CH3, -1.0)

    def test_sorted_merge(self):
        xdy = forms.DifferentialForm(CH3, 1, {(1,): B1})
        dz = forms.basis_one_form(CH3, 2)
        w = forms.wedge(xdy, dz)
        assert list(w.coeffs) == [(1, 2)]
        assert ex.probably_zero(w.coeff((1, 2)) - B1)

    def test_chart_mismatch(self):
        with pytest.raises(ex.ChartMismatchError):
            forms.wedge(forms.basis_one_form(CH2, 0), forms.basis_one_form(CH3, 0))

    def test_degree_overflow_is_zero(self):
        two = forms.DifferentialForm(CH2, 2, {(0, 1): A1})
        w = forms.wedge(two, forms.basis_one_form(CH2, 0))
        assert w.is_zero and w.degree == 3

    @pytest.mark.parametrize("combine", [forms.add_forms, forms.subtract_forms])
    def test_sum_of_beyond_top_forms_stays_beyond_top(self, combine):
        bt = forms.zero_form(CH2, 3)
        total = combine(bt, bt)
        assert total.is_zero and total.degree == 3
        with pytest.raises(forms.DegreeError):
            dual.hodge_star(total)

    @pytest.mark.parametrize("combine", [forms.add_forms, forms.subtract_forms])
    def test_form_above_top_degree_does_not_add_to_top_degree(self, combine):
        top = forms.DifferentialForm(CH2, 2, {(0, 1): A1})
        with pytest.raises(forms.DegreeError):
            combine(forms.exterior_derivative(top), top)

    def test_antisymmetry_property(self, rng):
        for _ in range(25):
            a = rand_form(rng, CH3, 1)
            b = rand_form(rng, CH3, 1)
            total = forms.add_forms(forms.wedge(a, b), forms.wedge(b, a))
            assert forms.form_probably_zero(total)

    def test_graded_leibniz(self, rng):
        charts = [CH2, CH3, ex.chart("x1", "x2", "x3", "x4")]
        count = 0
        while count < 50:
            chart = charts[int(rng.integers(len(charts)))]
            pa = int(rng.integers(0, chart.dim))
            pb = int(rng.integers(0, chart.dim - pa + 1))
            a = rand_form(rng, chart, pa, depth=2)
            b = rand_form(rng, chart, pb, depth=2)
            lhs = forms.exterior_derivative(forms.wedge(a, b))
            rhs = forms.add_forms(
                forms.wedge(forms.exterior_derivative(a), b),
                forms.scale_form(float((-1) ** pa),
                                 forms.wedge(a, forms.exterior_derivative(b))))
            assert forms.form_probably_zero(forms.subtract_forms(lhs, rhs))
            count += 1


class TestExteriorDerivative:
    def test_gradient_of_product(self):
        df = forms.exterior_derivative(forms.scalar_form(B1 * B2))
        assert df.coeff((0,)) == B2
        assert df.coeff((1,)) == B1

    def test_curl_pattern(self):
        a1, a2, a3 = B2 ** 2 * B3, B1 * B3 ** 2, B1 ** 2 * B2
        theta = forms.one_form(CH3, [a1, a2, a3])
        d = forms.exterior_derivative(theta)
        expected = {
            (0, 1): ex.simplify(Binary(CH3, "-", ex.partial(a2, 0), ex.partial(a1, 1))),
            (0, 2): ex.simplify(Binary(CH3, "-", ex.partial(a3, 0), ex.partial(a1, 2))),
            (1, 2): ex.simplify(Binary(CH3, "-", ex.partial(a3, 1), ex.partial(a2, 2))),
        }
        assert {i: str(c) for i, c in d.coeffs.items()} == \
            {i: str(c) for i, c in expected.items()}

    def test_divergence_pattern(self):
        # hand-applied pattern: sum of the three cyclic partials
        a23, a31, a12 = B1, B2, B3
        theta = forms.DifferentialForm(
            CH3, 2, {(1, 2): a23, (0, 2): Unary(CH3, "neg", a31), (0, 1): a12})
        d = forms.exterior_derivative(theta)
        oracle = ex.simplify(
            Binary(CH3, "+",
                   Binary(CH3, "+", ex.partial(a23, 0), ex.partial(a31, 1)),
                   ex.partial(a12, 2)))
        assert list(d.coeffs) == [(0, 1, 2)]
        assert ex.probably_zero(d.coeff((0, 1, 2)) - oracle)
        assert ex.evaluate(d.coeff((0, 1, 2)), (0.3, -1.0, 2.0)) == 3.0

    def test_top_degree_flagged(self):
        top = forms.DifferentialForm(CH2, 2, {(0, 1): A1})
        d = forms.exterior_derivative(top)
        assert d.is_zero and d.degree == 3
        assert forms.is_closed(d)
        assert forms.exterior_derivative(d).degree == 4

    def test_nilpotency_on_corpus(self, rng):
        charts = [CH2, CH3, ex.chart("x1", "x2", "x3", "x4")]
        for _ in range(20):
            chart = charts[int(rng.integers(len(charts)))]
            degree = int(rng.integers(0, chart.dim))
            omega = rand_form(rng, chart, degree, depth=2)
            dd = forms.exterior_derivative(forms.exterior_derivative(omega))
            assert forms.form_probably_zero(dd)


class TestCommutator:
    def test_exact_form_has_zero_commutator(self):
        f = A1 ** 2 * A2
        theta = forms.one_form(CH2, [ex.partial(f, 0), ex.partial(f, 1)])
        assert forms.commutator_1form(theta).entries == {}

    def test_rotation_field(self):
        # hand oracle: d(x1)/dx1 - d(-x2)/dx2 = 1 + 1
        theta = forms.one_form(CH2, [-A2, A1])
        k = forms.commutator_1form(theta)
        assert k.k(0, 1) == ex.const(CH2, 2.0)
        assert k.k(1, 0) == ex.const(CH2, -2.0)
        assert ex.is_zero_const(k.k(1, 1))

    def test_rows_read_like_nested_tuples(self):
        k = forms.commutator_1form(forms.one_form(CH3, [-B2, B1, B1 * B3]))
        rows = list(k)     # iteration stops at the IndexError past n
        assert rows == [tuple(k.k(i, j) for j in range(3)) for i in range(3)]
        assert k[-1] == k[2]
        with pytest.raises(IndexError):
            k[3]
        empty = forms.Commutator1(CH3, {})
        assert bool(empty) and [ex.is_zero_const(e) for row in empty for e in row] == [True] * 9

    def test_closure_coefficient_shape(self):
        u = rand_expr(np.random.default_rng(3), CH2, 2)
        v = rand_expr(np.random.default_rng(4), CH2, 2)
        theta = forms.one_form(CH2, [u, v])
        k = forms.commutator_1form(theta)
        target = ex.simplify(Binary(CH2, "-", ex.partial(v, 0), ex.partial(u, 1)))
        assert k.k(0, 1) == target

    def test_degree_guard(self):
        with pytest.raises(forms.DegreeError):
            forms.commutator_1form(forms.scalar_form(A1))

    def test_reconstructs_exterior_derivative(self, rng):
        for _ in range(10):
            theta = rand_form(rng, CH3, 1)
            rebuilt = forms.commutator_1form(theta).to_two_form()
            d = forms.exterior_derivative(theta)
            assert set(rebuilt.coeffs) == set(d.coeffs)
            defect = forms.subtract_forms(rebuilt, d)
            assert forms.form_probably_zero(defect)


class TestClosure:
    def test_differentials_are_closed(self, rng):
        omega = rand_form(rng, CH3, 1, depth=2)
        assert forms.is_closed(forms.exterior_derivative(omega))

    def test_unclosed_form(self):
        theta = forms.DifferentialForm(CH2, 1, {(1,): A1})
        assert not forms.is_closed(theta)

    def test_exact_pair(self):
        theta = forms.one_form(CH2, [A2, A1])  # = d(x1*x2), hand oracle
        assert forms.is_closed(theta)

    def test_overflowing_coefficient_is_not_closed(self):
        # d(x1 exp(exp(x1 + 10)) dx2) is non-finite on most of the cloud
        theta = forms.DifferentialForm(
            CH2, 1, {(1,): ex.parse_expr("x1 * exp(exp(x1 + 10))", CH2)})
        assert not forms.is_closed(theta)
        assert forms.closure_residual(theta) == float("inf")

    def test_closure_residual_scale(self):
        theta = forms.DifferentialForm(CH2, 1, {(1,): A1})
        assert forms.closure_residual(theta) == pytest.approx(1.0)


class TestAntiderivative:
    def test_potential_of_exact_pair(self, rng):
        theta = forms.one_form(CH2, [A2, A1])
        h = forms.antiderivative(theta, (0.0, 0.0))
        for _ in range(20):
            pt = rng.uniform(-1, 1, size=2)
            assert h(pt) == pytest.approx(pt[0] * pt[1], abs=1e-8)

    def test_gauge_fixed_at_base(self):
        f = A1 ** 3 + ex.sin(A2)
        theta = forms.one_form(CH2, [ex.partial(f, 0), ex.partial(f, 1)])
        base = (0.25, -0.5)
        h = forms.antiderivative(theta, base)
        assert h(base) == pytest.approx(0.0, abs=1e-12)
        pt = (0.8, 0.9)
        expected = ex.evaluate(f, pt) - ex.evaluate(f, base)
        assert h(pt) == pytest.approx(expected, abs=1e-8)

    def test_two_form_case_by_finite_differences(self):
        theta = forms.DifferentialForm(CH2, 2, {(0, 1): ex.const(CH2, 2.0)})
        alpha = forms.antiderivative(theta, (0.0, 0.0))
        h = 1e-4
        for pt in [(0.3, 0.4), (-0.6, 0.9), (1.0, -1.0)]:
            da1_dx2 = (alpha.coefficient((0,), (pt[0], pt[1] + h))
                       - alpha.coefficient((0,), (pt[0], pt[1] - h))) / (2 * h)
            da2_dx1 = (alpha.coefficient((1,), (pt[0] + h, pt[1]))
                       - alpha.coefficient((1,), (pt[0] - h, pt[1]))) / (2 * h)
            assert da2_dx1 - da1_dx2 == pytest.approx(2.0, abs=1e-6)

    def test_rejects_unclosed(self):
        theta = forms.DifferentialForm(CH2, 1, {(1,): A1})
        with pytest.raises(forms.NotClosedError):
            forms.antiderivative(theta, (0.0, 0.0))

    def test_homotopy_identity_property(self, rng):
        # d(H theta) = theta at sampled points, via finite differences
        f = A1 ** 2 * A2 + A2 ** 2
        theta = forms.one_form(CH2, [ex.partial(f, 0), ex.partial(f, 1)])
        field = forms.antiderivative(theta, (0.0, 0.0))
        h = 1e-4
        for _ in range(20):
            pt = rng.uniform(-1, 1, size=2)
            for axis in range(2):
                hi = pt.copy()
                lo = pt.copy()
                hi[axis] += h
                lo[axis] -= h
                fd = (field((hi[0], hi[1])) - field((lo[0], lo[1]))) / (2 * h)
                assert fd == pytest.approx(
                    ex.evaluate(theta.coeff((axis,)), pt), abs=1e-6)


def _bits(coeffs):
    return [(index, np.float64(v).tobytes()) for index, v in coeffs.items()]


class TestHomotopyPack:
    def test_coefficients_equal_the_per_pair_loop_bit_for_bit(self, rng):
        """Seeded exact (so closed) forms of degree 1-3 in 2-4 dimensions."""
        for n in (2, 3, 4):
            ch = ex.chart(*(f"x{i + 1}" for i in range(n)))
            for p in range(1, min(n, 3) + 1):
                for _ in range(3):
                    theta = forms.exterior_derivative(rand_form(rng, ch, p - 1))
                    field = forms.HomotopyField(theta, tuple(rng.uniform(-0.5, 0.5, n)))
                    for pt in rng.uniform(-1.0, 1.0, size=(3, n)):
                        want = _bits(homotopy_reference.coefficients_at(field, pt))
                        assert _bits(field.coefficients_at(pt)) == want
                        index, bits = want[-1]
                        assert np.float64(field.coefficient(index, pt)).tobytes() == bits

    def test_one_pack_per_order(self, monkeypatch):
        """d(x2 x3 dx1 + x1^2 x3 dx2 + sin(x1) x2 dx3) has 3 coefficients, each
        feeding 2 indices: 2 kernel calls, where the per-pair loop makes 12."""
        theta = forms.exterior_derivative(forms.one_form(
            CH3, [B2 * B3, B1 ** 2 * B3, ex.sin(B1) * B2]))
        assert len(theta.coeffs) == 3
        field = forms.antiderivative(theta, (0.0, 0.0, 0.0))
        calls = []

        def counting(orig):
            def wrapper(*args):
                calls.append(orig.__name__)
                return orig(*args)
            return wrapper

        monkeypatch.setattr(forms._kernels, "eval_pack", counting(forms._kernels.eval_pack))
        monkeypatch.setattr(ex, "evaluate_many", counting(ex.evaluate_many))
        field.coefficients_at((0.3, -0.7, 0.9))
        assert calls == ["eval_pack", "eval_pack"]
        calls.clear()
        homotopy_reference.coefficients_at(field, (0.3, -0.7, 0.9))
        assert calls.count("evaluate_many") == 12


class TestCellsAndIntegration:
    def square(self):
        return forms.Cell.from_text(CH2, 2, ["s1", "s2"])

    def test_green_unit_square(self):
        xdy = forms.DifferentialForm(CH2, 1, {(1,): A1})
        total = forms.boundary_integral(xdy, self.square())
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_area_two_form(self):
        area = forms.DifferentialForm(CH2, 2, {(0, 1): ex.const(CH2, 1.0)})
        assert forms.integrate_form(area, self.square()) == pytest.approx(1.0)

    def test_point_cell(self):
        cell = forms.Cell.point(CH2, (2.0, 3.0))
        f = forms.scalar_form(A1 + A2)
        assert forms.integrate_form(f, cell) == 5.0
        flipped = forms.Cell.point(CH2, (2.0, 3.0), orientation=-1)
        assert forms.integrate_form(f, flipped) == -5.0

    def test_degree_mismatch(self):
        with pytest.raises(forms.DegreeError):
            forms.integrate_form(forms.basis_one_form(CH2, 0), self.square())

    def test_boundary_orientations_telescope(self):
        # exact 1-form over the closed square boundary integrates to zero
        df = forms.exterior_derivative(forms.scalar_form(A1 ** 3 * A2 + A2 ** 2))
        assert forms.boundary_integral(df, self.square()) == pytest.approx(0.0, abs=1e-12)

    def test_zero_over_zero_face_is_a_domain_error(self):
        # x1/x1 composes to 0/0 on the x1 = 0 face, which no longer folds to 0
        theta = forms.DifferentialForm(CH2, 1, {(1,): A1 / A1})
        first = float(forms._gauss01(forms.DEFAULT_QUAD_ORDER)[0][0])
        with pytest.raises(ex.DomainError) as err:
            forms.boundary_integral(theta, self.square())
        assert str(err.value) == f"division by zero at point {(first,)}"

    def test_stokes_unit_square(self):
        xdy = forms.DifferentialForm(CH2, 1, {(1,): A1})
        assert forms.stokes_residual(xdy, self.square()) <= 1e-10

    def test_stokes_rotation_on_disk(self):
        # dtheta = 2 dx^dy: both sides equal twice the disk area
        tau = 2.0 * np.pi
        disk = forms.Cell.from_text(
            CH2, 2, [f"s1 * cos({tau} * s2)", f"s1 * sin({tau} * s2)"])
        theta = forms.one_form(CH2, [-A2, A1])
        inner = forms.integrate_form(forms.exterior_derivative(theta), disk, 24)
        outer = forms.boundary_integral(theta, disk, 24)
        assert inner == pytest.approx(tau, abs=1e-6)
        assert forms.stokes_residual(theta, disk, 24) <= 1e-6

    def test_stokes_cube(self):
        chart = CH3
        cube = forms.Cell.from_text(chart, 3, ["s1", "s2", "s3"])
        theta = forms.DifferentialForm(
            chart, 2, {(0, 1): B3 ** 2, (1, 2): B1 * B2, (0, 2): B2 * B3})
        assert forms.stokes_residual(theta, cube) <= 1e-10

    def test_point_cell_rejects_parameter_use(self):
        with pytest.raises(ValueError, match="point cell"):
            forms.Cell(CH2, 0,
                       (ex.variable(forms.param_chart(0), "_s"),
                        ex.const(forms.param_chart(0), 1.0)))

    def test_quadrature_order_guard(self):
        with pytest.raises(ValueError):
            forms.integrate_form(
                forms.DifferentialForm(CH2, 2, {(0, 1): A1}), self.square(), 0)

    def test_zero_minor_drops_an_undefined_coefficient(self):
        # x1 is constant on the segment, so the dx1 term never counts
        theta = forms.one_form(CH2, [ex.parse_expr("sqrt(x1 - 5)", CH2), A2])
        segment = forms.Cell.from_text(CH2, 1, ["0", "s1"])
        assert forms.integrate_form(theta, segment) == 0.5

    def test_domain_error_names_the_parameter_point(self):
        theta = forms.one_form(CH2, [ex.parse_expr("sqrt(x1 - 5)", CH2), A2])
        diagonal = forms.Cell.from_text(CH2, 1, ["s1", "s1"])
        first = float(forms._gauss01(forms.DEFAULT_QUAD_ORDER)[0][0])
        with pytest.raises(ex.DomainError) as err:
            forms.integrate_form(theta, diagonal)
        assert str(err.value) == f"sqrt of negative argument at point {(first,)}"


class TestGaussNodes:
    def test_repeated_order_shares_read_only_arrays(self):
        nodes, weights = forms._gauss01(7)
        again = forms._gauss01(7)
        assert again[0] is nodes and again[1] is weights
        for a in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_one_leggauss_call_per_distinct_order(self, monkeypatch):
        orders = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(order):
            orders.append(order)
            return leggauss(order)

        forms._gauss01.cache_clear()
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        theta = forms.one_form(CH2, [A2, A1])
        forms.antiderivative(theta, (0.0, 0.0)).coefficients_at((0.3, 0.4))
        forms.stokes_residual(theta, forms.Cell.from_text(CH2, 2, ["s1", "s2"]))
        assert sorted(orders) == sorted({forms.HOMOTOPY_ORDER, 2 * forms.HOMOTOPY_ORDER,
                                         forms.DEFAULT_QUAD_ORDER})


def _poly_cell(rng, chart, k):
    """A random cell with no coordinate constant on any face: each map is
    c0 + sum c_a s_a (+ c s1 s2), every c_a nonzero."""
    s = ex.coords(forms.param_chart(k))
    maps = []
    for _ in range(chart.dim):
        e = ex.const(s[0].chart, round(float(rng.uniform(-0.5, 0.5)), 3))
        for a in range(k):
            e = e + round(float(rng.uniform(0.3, 1.0)), 3) * s[a]
        if k > 1:
            e = e + round(float(rng.uniform(-0.3, 0.3)), 3) * s[0] * s[1]
        maps.append(e)
    return forms.Cell(chart, k, tuple(maps), int(rng.choice([1, -1])))


def _rand_form(rng, chart, degree, trig):
    """rand_form, sometimes with exp(c * coefficient) for a transcendental case."""
    form = rand_form(rng, chart, degree, depth=2, trig=trig)
    if not trig:
        return form
    return forms.DifferentialForm(chart, degree, {
        i: ex.exp(float(rng.uniform(-1, 1)) * c) if rng.random() < 0.3 else c
        for i, c in form.coeffs.items()})


def _three_integrals(module, omega, theta, cell, order):
    return (module.integrate_form(omega, cell, order),
            module.boundary_integral(theta, cell, order),
            module.stokes_residual(theta, cell, order))


TAU = 2.0 * np.pi
# The disk's s2 = 1 face has the constants cos(TAU) and sin(TAU): the reference
# folds them with math.cos and math.sin, the numeric path with numpy, and the
# two agree on them (numpy 2.4, x86-64).
NAMED_CELLS = {
    "segment": forms.Cell.from_text(CH2, 1, ["s1", "1 - s1"], orientation=-1),
    "square": forms.Cell.from_text(CH2, 2, ["s1", "s2"]),
    "disk": forms.Cell.from_text(CH2, 2, [f"s1 * cos({TAU} * s2)", f"s1 * sin({TAU} * s2)"]),
    "cube": forms.Cell.from_text(CH3, 3, ["s1", "s2", "s3"]),
}
DIAGONAL = forms.Cell.from_text(CH2, 1, ["s1", "s1"])


class TestPullbackParity:
    """The numeric pullback equals the symbolic one in tests/pullback_reference.py
    bit for bit: the same IEEE operations on the same operands."""

    @pytest.mark.parametrize("order", [1, 16, 24])
    @pytest.mark.parametrize("k, chart", [(1, CH2), (1, CH3), (2, CH2), (2, CH3), (3, CH3)])
    def test_random_forms_on_random_cells(self, k, chart, order):
        rng = np.random.default_rng(1000 * k + 10 * chart.dim + order)
        for trial in range(6):
            cell = _poly_cell(rng, chart, k)
            trig = trial % 2 == 1
            omega = _rand_form(rng, chart, k, trig)
            theta = _rand_form(rng, chart, k - 1, trig)
            new = _three_integrals(forms, omega, theta, cell, order)
            old = _three_integrals(reference, omega, theta, cell, order)
            assert [v.hex() for v in new] == [v.hex() for v in old], (omega, theta, cell)

    @pytest.mark.parametrize("order", [1, 16, 24])
    @pytest.mark.parametrize("name", list(NAMED_CELLS))
    def test_polynomial_forms_on_named_cells(self, name, order):
        # these cells have faces on which a coordinate is a constant 0 or 1
        cell = NAMED_CELLS[name]
        rng = np.random.default_rng(order)
        for _ in range(6):
            omega = rand_form(rng, cell.chart, cell.k, depth=2, trig=False)
            theta = rand_form(rng, cell.chart, cell.k - 1, depth=2, trig=False)
            new = _three_integrals(forms, omega, theta, cell, order)
            old = _three_integrals(reference, omega, theta, cell, order)
            assert [v.hex() for v in new] == [v.hex() for v in old], (omega, theta)

    @pytest.mark.parametrize("order", [1, 16, 24])
    def test_rotation_on_disk_and_cube_form(self, order):
        rotation = forms.one_form(CH2, [-A2, A1])
        cube_form = forms.DifferentialForm(
            CH3, 2, {(0, 1): B3 ** 2, (1, 2): B1 * B2, (0, 2): B2 * B3})
        for theta, cell in [(rotation, NAMED_CELLS["disk"]), (cube_form, NAMED_CELLS["cube"])]:
            omega = forms.exterior_derivative(theta)
            new = _three_integrals(forms, omega, theta, cell, order)
            old = _three_integrals(reference, omega, theta, cell, order)
            assert [v.hex() for v in new] == [v.hex() for v in old]

    @pytest.mark.parametrize("theta, cell", [
        (forms.DifferentialForm(CH2, 1, {(1,): A1 * ex.ln(A1)}), NAMED_CELLS["square"]),
        (forms.DifferentialForm(CH2, 1, {(1,): A1 * ex.ln(A1) + A2}), NAMED_CELLS["square"]),
        (forms.DifferentialForm(CH2, 1, {(1,): A1 * ex.sqrt(A1 - 1)}), NAMED_CELLS["square"]),
        (forms.DifferentialForm(CH2, 1, {(1,): A1 / A1}), NAMED_CELLS["square"]),
        (forms.one_form(CH2, [ex.sqrt(A1 - 5) - ex.sqrt(A2 - 5), A2]), DIAGONAL),
        (forms.one_form(CH2, [ex.sqrt(A1 - 5), A2]), DIAGONAL),
        (forms.one_form(CH2, [ex.ln(A1 - 5), ex.sqrt(A2 - 5)]), DIAGONAL),
    ], ids=["xlnx", "xlnx+y", "xsqrt", "x/x", "cancel", "sqrt", "ln-then-sqrt"])
    @pytest.mark.parametrize("order", [1, 16])
    def test_undefined_values(self, theta, cell, order):
        # where a coefficient is undefined at some node, the result is the
        # symbolic pullback's: a value where simplify cancels the undefined
        # term, else the same DomainError text
        def outcome(module, name, *args):
            try:
                return getattr(module, name)(*args, order).hex()
            except ex.DomainError as err:
                return str(err)

        names = (["integrate_form"] if cell.k == 1
                 else ["boundary_integral", "stokes_residual"])
        for name in names:
            assert outcome(forms, name, theta, cell) == outcome(reference, name, theta, cell)

    def test_constant_face_is_evaluated_not_folded(self):
        # On the x2 = 1 face of the cube, exp(c * x2) is a constant.  The
        # symbolic path folded it with math.exp; the numeric path evaluates it
        # as evaluate_many does.  With numpy 2.4 on x86-64 the two exps differ
        # by an ulp here, and so do the integrals at orders 1 and 24.
        coeff = ex.exp(0.8288987938076231 * B2)
        omega = forms.DifferentialForm(CH3, 2, {(0, 2): coeff})
        face = forms.boundary(NAMED_CELLS["cube"])[3]
        assert face.maps[1] == ex.const(face.maps[1].chart, 1.0)
        for order in (1, 24):
            nodes, weights = forms._gauss01(order)
            s1, s2 = (g.ravel() for g in np.meshgrid(nodes, nodes, indexing="ij"))
            values = ex.evaluate_many(coeff, np.stack([s1, np.ones_like(s1), s2], axis=1))
            expected = face.orientation * float(
                np.dot(np.multiply.outer(weights, weights).ravel(), values))
            assert forms.integrate_form(omega, face, order) == expected
            assert reference.integrate_form(omega, face, order) == pytest.approx(
                expected, rel=1e-15)
