import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exform import dual, expr as ex, forms

from conftest import rand_expr, rand_form, smooth_trees

CH2 = ex.chart("x", "y")
X, Y = ex.coords(CH2)


class TestHodgeStar:
    def test_two_dim_convention(self):
        # *(f_x dx + f_y dy) = -f_y dx + f_x dy
        f = X ** 2 * Y
        theta = forms.one_form(CH2, [ex.partial(f, 0), ex.partial(f, 1)])
        star = dual.hodge_star(theta)
        assert star.coeff((0,)) == ex.simplify(-ex.partial(f, 1))
        assert star.coeff((1,)) == ex.partial(f, 0)

    def test_three_dim_complements(self):
        ch3 = ex.chart("x1", "x2", "x3")
        assert dual.hodge_star(forms.basis_one_form(ch3, 0)).coeffs == \
            {(1, 2): ex.const(ch3, 1.0)}
        assert dual.hodge_star(forms.basis_one_form(ch3, 1)).coeffs == \
            {(0, 2): ex.const(ch3, -1.0)}
        assert dual.hodge_star(forms.basis_one_form(ch3, 2)).coeffs == \
            {(0, 1): ex.const(ch3, 1.0)}

    def test_zero_form_to_volume(self):
        f = forms.scalar_form(X + Y)
        star = dual.hodge_star(f)
        assert star.degree == 2 and list(star.coeffs) == [(0, 1)]

    @pytest.mark.parametrize("n,p", [(2, 0), (2, 1), (3, 1), (3, 2), (4, 1), (4, 2)])
    def test_involution(self, rng, n, p):
        chart = ex.CoordinateChart(tuple(f"x{i+1}" for i in range(n)))
        theta = rand_form(rng, chart, p)
        defect = dual.DualPair.of(theta).involution_defect()
        assert forms.form_probably_zero(defect)

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 5) for k in range(n + 1)])
    @settings(max_examples=20, deadline=None, database=None)
    @given(data=st.data())
    def test_star_star_is_the_signed_identity(self, n, k, data):
        # ** = (-1)^(k(n-k)) on k-forms, bit for bit at seeded points
        chart = ex.chart(*[f"x{i + 1}" for i in range(n)])
        picked = data.draw(st.lists(st.sampled_from(
            list(itertools.combinations(range(n), k))), min_size=1, unique=True))
        theta = forms.DifferentialForm(
            chart, k, {index: data.draw(smooth_trees(chart)) for index in picked})
        twice = dual.hodge_star(dual.hodge_star(theta))
        signed = forms.scale_form(float((-1) ** (k * (n - k))), theta)
        assert twice.degree == k and sorted(twice.coeffs) == sorted(signed.coeffs)
        pts = np.random.default_rng(11).uniform(-ex.SAMPLE_BOX, ex.SAMPLE_BOX, (16, n))
        got = ex.evaluate_pack([twice.coeffs[i] for i in sorted(signed.coeffs)], pts)
        want = ex.evaluate_pack([signed.coeffs[i] for i in sorted(signed.coeffs)], pts)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_linearity(self, rng):
        for _ in range(10):
            a = rand_form(rng, CH2, 1)
            b = rand_form(rng, CH2, 1)
            lhs = dual.hodge_star(
                forms.add_forms(forms.scale_form(2.0, a), forms.scale_form(-3.0, b)))
            rhs = forms.add_forms(forms.scale_form(2.0, dual.hodge_star(a)),
                                  forms.scale_form(-3.0, dual.hodge_star(b)))
            assert forms.form_probably_zero(forms.subtract_forms(lhs, rhs))


class TestDualClosure:
    def grad(self, f):
        return forms.one_form(CH2, [ex.partial(f, 0), ex.partial(f, 1)])

    def test_harmonic_gradient(self):
        report = dual.dual_closure_check(self.grad(X ** 2 - Y ** 2))
        assert report == dual.ClosureReport(True, True)

    def test_nonharmonic_gradient(self):
        report = dual.dual_closure_check(self.grad(X ** 2))
        assert report.primal_closed and not report.dual_closed
        # the dual-closure residual is exactly the Laplacian (here 2)
        residual = forms.closure_residual(dual.hodge_star(self.grad(X ** 2)))
        assert residual == pytest.approx(2.0)

    def test_unclosed_primal(self):
        theta = forms.DifferentialForm(CH2, 1, {(1,): X})
        assert not dual.dual_closure_check(theta).primal_closed

    def test_equivalence_with_laplacian(self, rng):
        harmonic = [ex.const(CH2, 1.0), X, Y, X * Y, X ** 2 - Y ** 2,
                    X ** 3 - 3 * X * Y ** 2]
        non_harmonic = [X ** 2, Y ** 2, X ** 2 + Y ** 2, X ** 2 * Y ** 2,
                        X ** 3, X ** 4 + Y ** 4]
        for f in harmonic + non_harmonic:
            by_dual = dual.dual_closure_check(self.grad(f)).dual_closed
            by_laplacian = ex.probably_zero(dual.harmonic_residual(f))
            assert by_dual == by_laplacian


class TestCauchyRiemann:
    def test_paper_ordering_passes(self):
        first, second = dual.cauchy_riemann_residuals(2 * X * Y, X ** 2 - Y ** 2)
        assert ex.is_zero_const(first) and ex.is_zero_const(second)

    def test_classical_ordering_residuals(self):
        # (u, v) = (x^2 - y^2, 2xy): hand oracle gives (4y, 4x)
        first, second = dual.cauchy_riemann_residuals(X ** 2 - Y ** 2, 2 * X * Y)
        assert ex.probably_zero(first - 4 * Y)
        assert ex.probably_zero(second - 4 * X)

    def test_identity_pair(self):
        first, second = dual.cauchy_riemann_residuals(X, Y)
        assert ex.is_zero_const(first)
        assert second == ex.const(CH2, 2.0)

    def test_constants(self):
        first, second = dual.cauchy_riemann_residuals(
            ex.const(CH2, 3.0), ex.const(CH2, -1.0))
        assert ex.is_zero_const(first) and ex.is_zero_const(second)

    def test_first_residual_matches_commutator(self, rng):
        for _ in range(10):
            u = rand_expr(rng, CH2, 2)
            v = rand_expr(rng, CH2, 2)
            first, _ = dual.cauchy_riemann_residuals(u, v)
            k = forms.commutator_1form(forms.one_form(CH2, [u, v]))
            assert first == k.k(0, 1)

    def test_dimension_guard(self):
        ch3 = ex.chart("a", "b", "c")
        w = ex.variable(ch3, "a")
        with pytest.raises(ValueError):
            dual.cauchy_riemann_residuals(w, w)


class TestHarmonic:
    @pytest.mark.parametrize("text,expected_zero", [
        ("x^2 - y^2", True),
        ("x * y", True),
        ("x^2", False),
    ])
    def test_examples(self, text, expected_zero):
        f = ex.parse_expr(text, CH2)
        residual = dual.harmonic_residual(f)
        assert ex.probably_zero(residual) == expected_zero

    def test_explicit_value(self):
        assert dual.harmonic_residual(X ** 2) == ex.const(CH2, 2.0)

    def test_higher_dimensional_laplacian(self):
        ch3 = ex.chart("x1", "x2", "x3")
        a, b, c = ex.coords(ch3)
        residual = dual.harmonic_residual(a ** 2 + b ** 2 - 2 * c ** 2)
        assert ex.probably_zero(residual)


class TestImplicitDirection:
    def test_linear_level_sets(self):
        d = dual.implicit_direction(X + 2 * Y)
        assert d.at((0.0, 0.0)) == -2.0
        assert d.at((5.0, -3.0)) == -2.0

    def test_flat_direction(self):
        assert dual.implicit_direction(X).at((1.0, 1.0)) == 0.0

    def test_singular_reported_per_point(self):
        d = dual.implicit_direction(Y)
        with pytest.raises(dual.SingularDirectionError):
            d.at((0.3, 0.9))

    def test_point_dependent_singularity(self):
        d = dual.implicit_direction(X ** 2 + Y)
        assert d.at((1.0, 0.0)) == pytest.approx(-0.5)
        with pytest.raises(dual.SingularDirectionError):
            d.at((0.0, 0.0))
