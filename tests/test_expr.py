import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from exform import expr as ex
from exform.expr import Binary, Const, Coord, Power, Unary

from conftest import rand_expr

CH2 = ex.chart("x1", "x2")
X1, X2 = ex.coords(CH2)


def grammar_trees(ch):
    """Trees the parser can produce: any finite constant, including -0.0,
    but no negation node directly over a constant (the parser folds it)."""
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e16, -1e-300]),
                       st.floats(allow_nan=False, allow_infinity=False))
    leaves = st.one_of(st.builds(Const, st.just(ch), values),
                       st.builds(Coord, st.just(ch), st.integers(0, ch.dim - 1)))

    def extend(sub):
        return st.one_of(
            st.builds(Binary, st.just(ch), st.sampled_from("+-*/"), sub, sub),
            st.builds(Power, st.just(ch), sub, st.integers(-4, 4)),
            st.builds(Unary, st.just(ch), st.sampled_from(ex.FUNCTION_NAMES), sub),
            sub.filter(lambda a: not isinstance(a, Const)).map(
                lambda a: Unary(ch, "neg", a)))

    return st.recursive(leaves, extend, max_leaves=12)


class TestChart:
    def test_dim_and_axis(self):
        ch = ex.chart("t", "x1", "p1")
        assert ch.dim == 3
        assert ch.axis("p1") == 2

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ex.chart("x", "x")

    def test_rejects_function_names(self):
        with pytest.raises(ValueError):
            ex.chart("sin")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ex.CoordinateChart(())


class TestParse:
    def test_power_plus_structure(self):
        e = ex.parse_expr("x1^2 + x2", CH2)
        assert e == Binary(CH2, "+", Power(CH2, X1, 2), X2)

    def test_sin_times_structure(self):
        e = ex.parse_expr("sin(x1)*x2", CH2)
        assert e == Binary(CH2, "*", Unary(CH2, "sin", X1), X2)

    def test_unknown_identifier_positioned(self):
        with pytest.raises(ex.ParseError) as err:
            ex.parse_expr("x1 + q", CH2)
        assert "q" in str(err.value)
        assert err.value.pos == 5

    def test_malformed_number(self):
        with pytest.raises(ex.ParseError, match="malformed number"):
            ex.parse_expr("1.2.3 + x1", CH2)
        with pytest.raises(ex.ParseError, match="malformed number"):
            ex.parse_expr("1e + x1", CH2)

    def test_precedence_pow_over_unary_minus(self):
        assert ex.parse_expr("-x1^2", CH2) == Unary(CH2, "neg", Power(CH2, X1, 2))

    def test_precedence_mul_over_add(self):
        e = ex.parse_expr("x1 + x2 * x1", CH2)
        assert e == Binary(CH2, "+", X1, Binary(CH2, "*", X2, X1))

    def test_left_associative(self):
        e = ex.parse_expr("x1 - x2 - x1", CH2)
        assert e == Binary(CH2, "-", Binary(CH2, "-", X1, X2), X1)

    def test_whitespace_insensitive(self):
        assert ex.parse_expr("x1+x2", CH2) == ex.parse_expr("  x1 +\tx2 ", CH2)

    def test_integer_exponent_only(self):
        with pytest.raises(ex.ParseError, match="integer"):
            ex.parse_expr("x1^x2", CH2)
        with pytest.raises(ex.ParseError, match="integer"):
            ex.parse_expr("x1^2.5", CH2)

    def test_negative_exponent_forms(self):
        assert ex.parse_expr("x1^-2", CH2) == Power(CH2, X1, -2)
        assert ex.parse_expr("x1^(-2)", CH2) == Power(CH2, X1, -2)

    def test_unbalanced_paren(self):
        with pytest.raises(ex.ParseError):
            ex.parse_expr("(x1 + x2", CH2)

    def test_scientific_notation(self):
        e = ex.parse_expr("1.5e-3", CH2)
        assert e == Const(CH2, 1.5e-3)


class TestEvaluate:
    def test_arith(self):
        e = ex.parse_expr("x1^2 + x2", CH2)
        assert ex.evaluate(e, (2.0, 3.0)) == 7.0

    def test_constant_everywhere(self):
        c = ex.const(CH2, 4.25)
        assert ex.evaluate(c, (0.0, 0.0)) == 4.25
        assert ex.evaluate(c, (100.0, -3.0)) == 4.25

    def test_division_by_zero(self):
        e = ex.parse_expr("1/x1", CH2)
        with pytest.raises(ex.DomainError, match="division"):
            ex.evaluate(e, (0.0, 1.0))

    def test_ln_nonpositive(self):
        with pytest.raises(ex.DomainError, match="ln"):
            ex.evaluate(ex.ln(X1), (-1.0, 0.0))
        with pytest.raises(ex.DomainError, match="ln"):
            ex.evaluate(ex.ln(X1), (0.0, 0.0))

    def test_sqrt_negative(self):
        with pytest.raises(ex.DomainError, match="sqrt"):
            ex.evaluate(ex.sqrt(X1), (-4.0, 0.0))

    def test_zero_base_negative_exponent(self):
        with pytest.raises(ex.DomainError):
            ex.evaluate(X1 ** -1, (0.0, 1.0))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="components"):
            ex.evaluate(X1, (1.0,))

    def test_domain_error_names_the_point(self):
        e = ex.parse_expr("1/(x1 - 0.5)", CH2)
        message = r"at point \(0\.5, 1\.0\)$"
        with pytest.raises(ex.DomainError, match=message):
            ex.evaluate(e, (0.5, 1.0))
        with pytest.raises(ex.DomainError, match=message):
            ex.evaluate_many(e, np.array([[0.0, 0.0], [0.5, 1.0]]))

    def test_deterministic(self):
        e = ex.parse_expr("sin(x1)*exp(x2) - x1/x2", CH2)
        a = ex.evaluate(e, (0.7, 1.3))
        b = ex.evaluate(e, (0.7, 1.3))
        assert a == b

    def test_signed_zero_constants_get_their_own_tapes(self):
        # equal nodes share one cached tape, so -0 and 0 must not be equal
        neg = ex.parse_expr("x1 * -0", CH2)
        pos = ex.parse_expr("x1 * 0", CH2)
        assert neg != pos and Const(CH2, -0.0) != Const(CH2, 0.0)
        assert math.copysign(1.0, ex.evaluate(neg, (1, 2))) == -1.0
        assert math.copysign(1.0, ex.evaluate(pos, (1, 2))) == 1.0

    def test_constant_pool_keeps_the_sign_of_zero(self):
        # x1 * 0 + x2 * -0 at (-1, 1) is -0 + -0
        e = ex.parse_expr("x1 * 0 + x2 * -0", CH2)
        assert math.copysign(1.0, ex.evaluate(e, (-1, 1))) == -1.0

    def test_batch_matches_scalar(self):
        e = ex.parse_expr("sin(x1)*x2 + x1^3", CH2)
        pts = np.array([[0.1, 0.2], [1.0, -1.0], [-0.5, 2.0]])
        batch = ex.evaluate_many(e, pts)
        for k, row in enumerate(pts):
            assert batch[k] == ex.evaluate(e, row)


class TestPartial:
    def test_power_rule(self):
        assert ex.partial(X1 ** 2, 0) == 2 * X1

    def test_chain_rule_sin(self):
        assert ex.partial(ex.sin(X1), 0) == ex.cos(X1)

    def test_independence(self):
        assert ex.partial(X2, 0) == ex.const(CH2, 0.0)

    def test_invalid_axis(self):
        with pytest.raises(ValueError):
            ex.partial(X1, 5)

    @pytest.mark.parametrize("text", [
        "x1/x2", "ln(x2)", "sqrt(x2^2 + 1)", "exp(x1*x2)", "cos(x1)^3",
        "x1^-2", "(x1 + x2)/(x2^2 + 1)",
    ])
    def test_against_finite_difference(self, text):
        e = ex.parse_expr(text, CH2)
        point = (0.7, 1.4)
        h = 1e-5
        for axis in range(2):
            hi = list(point)
            lo = list(point)
            hi[axis] += h
            lo[axis] -= h
            fd = (ex.evaluate(e, hi) - ex.evaluate(e, lo)) / (2 * h)
            sym = ex.evaluate(ex.partial(e, axis), point)
            assert sym == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_random_corpus_against_finite_difference(self, rng):
        good = 0
        while good < 50:
            e = rand_expr(rng, CH2, depth=3)
            point = rng.uniform(-1.5, 1.5, size=2)
            scale = max(1.0, abs(ex.evaluate(e, point)))
            if scale > 1e3:  # skip ill-conditioned draws
                continue
            for axis in range(2):
                h = 1e-5
                hi = point.copy()
                lo = point.copy()
                hi[axis] += h
                lo[axis] -= h
                fd = (ex.evaluate(e, hi) - ex.evaluate(e, lo)) / (2 * h)
                sym = ex.evaluate(ex.partial(e, axis), point)
                assert sym == pytest.approx(fd, rel=1e-5, abs=1e-4 * scale)
            good += 1

    def test_clairaut_on_smooth_corpus(self, rng):
        for _ in range(20):
            e = rand_expr(rng, CH2, depth=3)
            mixed = ex.Binary(CH2, "-",
                              ex.partial(ex.partial(e, 0), 1),
                              ex.partial(ex.partial(e, 1), 0))
            assert ex.probably_zero(mixed)


class TestSimplify:
    def test_annihilator(self):
        assert ex.simplify((X1 * 0) + X2) == X2

    def test_constant_folding(self):
        assert ex.simplify(ex.const(CH2, 2) + ex.const(CH2, 3)) == ex.const(CH2, 5)

    def test_identity(self):
        assert ex.simplify(X1 * 1) == X1

    def test_pow_identities(self):
        assert ex.simplify(X1 ** 0) == ex.const(CH2, 1.0)
        assert ex.simplify(X1 ** 1) == X1

    def test_double_negation(self):
        assert ex.simplify(-(-X1)) == X1

    def test_structural_cancellation(self):
        assert ex.simplify((X1 * X2) - (X1 * X2)) == ex.const(CH2, 0.0)
        assert ex.simplify((X1 * X2) - (X2 * X1)) == ex.const(CH2, 0.0)

    def test_neg_absorption(self):
        e = ex.Binary(CH2, "+", Unary(CH2, "neg", X1), X2)
        assert ex.simplify(e) == Binary(CH2, "-", X2, X1)

    def test_idempotent_on_corpus(self, rng):
        for _ in range(60):
            e = rand_expr(rng, CH2, depth=4)
            s = ex.simplify(e)
            assert ex.simplify(s) == s

    def test_preserves_value_on_corpus(self, rng):
        for _ in range(40):
            e = rand_expr(rng, CH2, depth=4)
            s = ex.simplify(e)
            pts = rng.uniform(-2, 2, size=(8, 2))
            for pt in pts:
                assert ex.evaluate(s, pt) == pytest.approx(
                    ex.evaluate(e, pt), rel=1e-12, abs=1e-12)


class TestProbablyZero:
    def test_mixed_partials(self):
        f = X1 ** 2 * X2
        diff = ex.Binary(CH2, "-",
                         ex.partial(ex.partial(f, 0), 1),
                         ex.partial(ex.partial(f, 1), 0))
        assert ex.probably_zero(diff)

    def test_nonzero_expression(self):
        assert not ex.probably_zero(X1)

    def test_pythagorean_identity_vs_independent_oracle(self):
        e = ex.parse_expr("sin(x1)^2 + cos(x1)^2 - 1", CH2)
        # independent oracle: direct libm sampling on a fixed grid
        for x in np.linspace(-2, 2, 17):
            assert abs(math.sin(x) ** 2 + math.cos(x) ** 2 - 1.0) <= 1e-9
        assert ex.probably_zero(e)

    def test_domain_holes_are_skipped(self):
        # defined except on the x1 = 0 line; sampling must resample past it
        e = ex.parse_expr("x1/x1 - 1", CH2)
        assert ex.probably_zero(e)

    def test_resample_cap(self):
        e = ex.ln(ex.const(CH2, -1.0) - X1 ** 2)  # negative argument everywhere
        with pytest.raises(ex.ResampleExhaustedError):
            ex.probably_zero(e)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            ex.probably_zero(X1, trials=0)
        with pytest.raises(ValueError):
            ex.sampled_abs_max(X1, trials=0)

    def test_nan_is_never_zero(self):
        # exp(exp(x1 + 10)) overflows to inf for x1 > -3.3, so inf - inf = nan
        big = ex.parse_expr("exp(exp(x1 + 10))", CH2)
        e = 2 * big - big
        assert not ex.probably_zero(e)
        assert ex.sampled_abs_max(e) == math.inf

    def test_infinity_is_never_zero(self):
        e = ex.parse_expr("exp(exp(x1 + 10)) * x2", CH2)
        assert not ex.probably_zero(e, tol=math.inf)
        assert ex.sampled_abs_max(e) == math.inf

    def test_sampled_abs_max_draws_the_sample_points_cloud(self):
        # with every point in-domain, the first batch is all that is drawn
        assert ex.sampled_abs_max(X1, trials=5) == np.max(
            np.abs(np.random.default_rng(ex.DEFAULT_SEED).uniform(
                -ex.SAMPLE_BOX, ex.SAMPLE_BOX, (5, CH2.dim))[:, 0]))
        # defined except on the x1 = 0 line, where points are redrawn
        assert ex.sampled_abs_max(ex.parse_expr("x1/x1 - 1", CH2)) == 0.0

    def test_seed_determinism(self):
        e = ex.parse_expr("x1 * 1e-10", CH2)
        assert ex.probably_zero(e, seed=7) == ex.probably_zero(e, seed=7)

    def test_tol_boundary(self):
        assert ex.probably_zero(ex.const(CH2, 1e-10), tol=1e-9)
        assert not ex.probably_zero(ex.const(CH2, 1e-8), tol=1e-9)


class TestRoundTrip:
    def test_structural_round_trip_on_corpus(self, rng):
        for _ in range(80):
            e = ex.simplify(rand_expr(rng, CH2, depth=4))
            text = str(e)
            again = ex.parse_expr(text, CH2)
            assert again == e, text

    def test_round_trip_evaluation(self, rng):
        pts = np.random.default_rng(5).uniform(-ex.SAMPLE_BOX, ex.SAMPLE_BOX,
                                               (100, CH2.dim))
        for _ in range(20):
            e = rand_expr(rng, CH2, depth=4)
            again = ex.parse_expr(str(e), CH2)
            vals_a, ok_a = ex.evaluate_masked(e, pts)
            vals_b, ok_b = ex.evaluate_masked(again, pts)
            assert np.array_equal(ok_a, ok_b)
            assert np.all(np.abs(vals_a[ok_a] - vals_b[ok_b]) <= 1e-12)

    def test_negative_constant_prints_parseable(self):
        e = ex.simplify(-ex.const(CH2, 2.0))
        assert ex.evaluate(ex.parse_expr(str(e), CH2), (0, 0)) == -2.0

    def test_negative_zero_keeps_its_sign(self):
        e = ex.partial(-X2, 1)
        assert repr(e) == repr(Const(CH2, -1.0))
        zero = ex.partial(-X2, 0)
        assert math.copysign(1.0, zero.value) == -1.0
        assert ex.to_text(zero) == "-0"
        assert repr(ex.parse_expr(ex.to_text(zero), CH2)) == repr(zero)
        assert ex.to_text(Power(CH2, zero, 2)) == "(-0)^2"

    @settings(max_examples=300, deadline=None, database=None)
    @given(grammar_trees(CH2))
    @example(Power(CH2, Const(CH2, -0.0), -2))
    @example(Binary(CH2, "-", X1, Power(CH2, Const(CH2, -2.5), -3)))
    def test_print_parse_round_trip(self, e):
        assert repr(ex.parse_expr(ex.to_text(e), CH2)) == repr(e)


class TestCompose:
    def test_substitution_evaluates_consistently(self):
        target = ex.chart("s1")
        s1 = ex.variable(target, "s1")
        composed = ex.compose(X1 ** 2 + X2, target, [s1 * 2, s1 + 1])
        for s in (0.0, 0.5, -1.2):
            direct = ex.evaluate(composed, (s,))
            assert direct == ex.evaluate(X1 ** 2 + X2, (2 * s, s + 1))

    def test_wrong_replacement_count(self):
        target = ex.chart("s1")
        with pytest.raises(ValueError):
            ex.compose(X1, target, [ex.variable(target, "s1")] * 3)


class TestChartSafety:
    def test_cross_chart_arithmetic_rejected(self):
        other = ex.chart("y1", "y2")
        with pytest.raises(ex.ChartMismatchError):
            X1 + ex.variable(other, "y1")

    def test_free_axes(self):
        e = ex.parse_expr("sin(x2) + 3", CH2)
        assert ex.free_axes(e) == {1}
