import functools
import gc
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from exform import charpde as cp
from exform import expr as ex
from exform import forms, tape
from exform.expr import Binary, Const, Coord, Power, Unary

import parse_reference
import simplify_reference as ref
from conftest import rand_expr, smooth_trees

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


def dag_trees(ch):
    """Grammar trees that reuse one drawn subtree t: t op t, exp(t) * t and
    sqrt(t) / t, each node of t reached along two paths."""
    def share(t, form):
        match form:
            case "exp":
                return Binary(ch, "*", Unary(ch, "exp", t), t)
            case "sqrt":
                return Binary(ch, "/", Unary(ch, "sqrt", t), t)
        return Binary(ch, form, t, t)

    shapes = st.sampled_from(["+", "-", "*", "/", "exp", "sqrt"])
    return st.builds(share, grammar_trees(ch), shapes)


def distinct_nodes(e):
    """The number of distinct nodes (by id) reachable from e."""
    seen, stack = set(), [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        match node:
            case Binary(left=l, right=r):
                stack += (l, r)
            case Power(base=b) | Unary(arg=b):
                stack.append(b)
    return len(seen)


def assert_same(got, want):
    assert ex.to_text(got) == ex.to_text(want)
    assert got == want
    assert repr(got) == repr(want)


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

    @pytest.mark.parametrize("text, char, pos", [("x1 + ²", "²", 5), ("é*x1", "é", 0)])
    def test_non_ascii_character_positioned(self, text, char, pos):
        # str.isdigit and str.isalpha accept these, yet no token starts with them
        with pytest.raises(ex.ParseError, match=f"unexpected character {char!r}") as err:
            ex.parse_expr(text, CH2)
        assert err.value.pos == pos

    @pytest.mark.parametrize("text, pos", [("1٣", 0), ("x1^2٣", 3)])
    def test_numbers_are_ascii_digits_only(self, text, pos):
        # float() reads "1٣" as 13, so a number run into another digit is malformed
        with pytest.raises(ex.ParseError, match="malformed number") as err:
            ex.parse_expr(text, CH2)
        assert err.value.pos == pos

    def test_a_parse_leaves_no_garbage_cycle(self):
        gc.collect()
        gc.disable()
        try:
            ex.parse_expr("sin(x1)^2 - -(x2 * 3)^(-1)", CH2)
            with pytest.raises(ex.ParseError):
                ex.parse_expr("x1 * (x2 + ", CH2)
            assert gc.collect() == 0
        finally:
            gc.enable()

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

    @pytest.mark.parametrize("text, message, pos", [
        ("1e400", "number out of range", 0),
        ("x2 * -1e400", "number out of range", 6),
        ("x1^99999999999", "exponent out of range", 3),
        ("x1^(-99999999999)", "exponent out of range", 5),
    ])
    def test_out_of_range_literal_is_a_parse_error(self, text, message, pos):
        with pytest.raises(ex.ParseError, match=message) as err:
            ex.parse_expr(text, CH2)
        assert err.value.pos == pos

    def test_largest_exponent_parses(self):
        assert ex.parse_expr("x1^(-2147483648)", CH2) == Power(CH2, X1, -2**31)

    def test_exponent_past_the_range_is_a_math_error(self):
        # the derivative of x1^(-2^31) needs the exponent -2^31 - 1
        e = ex.parse_expr("x1^(-2147483648)", CH2)
        with pytest.raises(ex.ExformError, match=r"exponent -2147483649 out of range"):
            ex.partial(e, 0)


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

    def test_long_flat_sum(self):
        # the tape-cache lookup does not walk the 700-level chain
        e = ex.parse_expr(" + ".join(["x1"] * 700), CH2)
        assert ex.evaluate(e, (1.0, 0.0)) == 700.0


def tree_value(e, x):
    """e at the point x, evaluated node by node with `math`."""
    match e:
        case Const(value=v):
            return v
        case Coord(axis=a):
            return x[a]
        case Binary(op=op, left=l, right=r):
            return OPERATORS[op](tree_value(l, x), tree_value(r, x))
        case Power(base=b, exponent=k):
            return tree_value(b, x) ** k
        case Unary(fn=fn, arg=a):
            return getattr(math, fn)(tree_value(a, x))
    raise TypeError(e)


class TestTapeCache:
    """`_tape_for` keys a pack by the identity of its expressions."""

    def test_equal_but_distinct_packs_get_identical_tapes(self):
        texts = ("sin(x1)*x2 + x1^3", "x1 / (1 + x2^2) - x1 * -0")
        one, two = (tuple(ex.parse_expr(t, CH2) for t in texts) for _ in range(2))
        assert one == two and not any(a is b for a, b in zip(one, two))
        first, second = ex._tape_for(one), ex._tape_for(two)
        assert first is not second and ex._tape_for(one) is first
        for field in ("codes", "args", "consts", "outputs"):
            assert getattr(first, field).tobytes() == getattr(second, field).tobytes()
        assert (first.nreg, first.dim) == (second.nreg, second.dim)

    def test_no_tape_is_served_for_a_dead_id(self, rng):
        """A dropped expression's ids are soon reused by new nodes; while its
        entry lives the cache holds it, so no new expression gets its tape.
        More expressions than the cache holds, so entries are evicted too."""
        ex._tape_for.cache_clear()
        for _ in range(ex._tape_for.cache_info().maxsize + 1000):
            e = rand_expr(rng, CH2, depth=3)
            x = rng.uniform(-2.0, 2.0, size=2)
            assert math.isclose(ex.evaluate(e, x), tree_value(e, x),
                                rel_tol=1e-9, abs_tol=1e-9), ex.to_text(e)

    def test_cache_clear_empties_the_cache(self):
        ex.evaluate(X1 * X2, (1.0, 2.0))
        assert ex._tape_for.cache_info().currsize > 0
        ex._tape_for.cache_clear()
        assert ex._tape_for.cache_info().currsize == 0


class TestNodeCost:
    """A node costs about a tuple of its fields: slots, no per-node dict."""

    def test_nodes_have_no_dict(self):
        nodes = (ex.const(CH2, 1.5), X1, Binary(CH2, "+", X1, X2), Power(CH2, X1, 3),
                 Unary(CH2, "sin", X1))
        for node in nodes:
            assert not hasattr(node, "__dict__"), type(node).__name__

    def test_binary_is_at_most_96_bytes(self):
        nodes = [None] * 1000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(len(nodes)):
                nodes[k] = Binary(CH2, "+", X1, X2)
            size = (tracemalloc.get_traced_memory()[0] - before) / len(nodes)
        finally:
            tracemalloc.stop()
        assert size <= 96


def assert_bits(got, want):
    """Identical bits, NaN matching NaN."""
    nan = np.isnan(want)
    assert got.shape == want.shape and np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestEvaluatePack:
    def test_rows_are_evaluate_many_bit_for_bit(self, rng):
        """Seeded packs whose components share subtrees, by identity and by
        structure; exp(exp(.)) overflows, so inf - inf puts NaN in some rows."""
        saw_nan = False
        for _ in range(40):
            parts = [rand_expr(rng, CH2, depth=3) for _ in range(3)]
            exprs = []
            for _ in range(int(rng.integers(2, 6))):
                a, b = (parts[int(i)] for i in rng.integers(len(parts), size=2))
                big = Unary(CH2, "exp", Unary(CH2, "exp", a))
                e = (Binary(CH2, "*", a, b), Binary(CH2, "+", Unary(CH2, "sin", a), b),
                     Binary(CH2, "-", big, Binary(CH2, "*", big, b)),
                     Binary(CH2, "+", Binary(CH2, "*", big, ex.const(CH2, 0.0)), b)
                     )[int(rng.integers(4))]
                exprs.append(e)
                parts.append(e)
            exprs.append(ex.parse_expr(ex.to_text(exprs[0]), CH2))
            pts = rng.uniform(-4.0, 4.0, size=(32, 2))
            vals = ex.evaluate_pack(exprs, pts)
            assert vals.shape == (len(exprs), 32)
            for row, e in zip(vals, exprs):
                assert_bits(row, ex.evaluate_many(e, pts))
            saw_nan |= bool(np.isnan(vals).any())
        assert saw_nan

    def test_no_expressions_give_no_rows(self):
        assert ex.evaluate_pack([], np.zeros((5, 2))).shape == (0, 5)

    def test_first_failing_expression_raises_at_its_first_bad_point(self):
        # 1 / x2 fails at an earlier point, but ln(x1) comes first in the pack
        pts = np.array([[1.0, 1.0], [2.0, 0.0], [-1.0, 1.0], [0.0, 0.0]])
        exprs = [X1 + 1, ex.ln(X1), 1 / X2]
        with pytest.raises(ex.DomainError,
                           match=r"^ln of non-positive argument at point \(-1\.0, 1\.0\)$"):
            ex.evaluate_pack(exprs, pts)
        with pytest.raises(ex.DomainError, match=r"^division by zero at point \(2\.0, 0\.0\)$"):
            ex.evaluate_pack(exprs[::2], pts)

    def test_one_point_raises_what_a_loop_of_evaluate_raises(self):
        exprs = [X1 + 1, ex.sqrt(X2), ex.ln(X1)]
        point = (0.0, -1.0)
        with pytest.raises(ex.DomainError) as loop:
            [ex.evaluate(e, point) for e in exprs]
        with pytest.raises(ex.DomainError) as pack:
            ex.evaluate_pack(exprs, [point])
        assert str(pack.value) == str(loop.value)


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

    def test_shared_subtrees_are_differentiated_once(self):
        # each step doubles the paths to the previous e; without a per-call
        # memo the derivative grows with the paths, not with the nodes
        e = ex.sin(X1 * X2)
        for _ in range(12):
            e = Binary(CH2, "*", e, Unary(CH2, "sin", e))
        assert distinct_nodes(e) == 28
        assert distinct_nodes(ex.partial(e, 0)) <= 4 * distinct_nodes(e)


class TestSimplify:
    """`simplify` of parsed trees: the operators would apply the rules first."""

    @staticmethod
    def simplified(text):
        return ex.simplify(ex.parse_expr(text, CH2))

    def test_annihilator(self):
        assert self.simplified("x1 * 0 + x2") == X2

    def test_constant_folding(self):
        assert self.simplified("2 + 3") == ex.const(CH2, 5)

    def test_identity(self):
        assert self.simplified("x1 * 1") == X1

    def test_pow_identities(self):
        assert self.simplified("x1^0") == ex.const(CH2, 1.0)
        assert self.simplified("x1^1") == X1

    def test_double_negation(self):
        assert self.simplified("-(-x1)") == X1

    def test_structural_cancellation(self):
        assert self.simplified("x1 * x2 - x1 * x2") == ex.const(CH2, 0.0)
        assert self.simplified("x1 * x2 - x2 * x1") == ex.const(CH2, 0.0)

    def test_neg_absorption(self):
        e = ex.Binary(CH2, "+", Unary(CH2, "neg", X1), X2)
        assert ex.simplify(e) == Binary(CH2, "-", X2, X1)

    @pytest.mark.parametrize("text", ["10^400", "(0-2)^1025", "0.5^(-2000)"])
    def test_overflowing_constant_power_stays_unfolded(self, text):
        s = ex.simplify(ex.parse_expr(text, CH2))
        assert isinstance(s, Power) and isinstance(s.base, Const)
        assert ex.simplify(s) is s
        assert ex.to_text(ex.simplify(X2 * s)) == f"x2 * {ex.to_text(s)}"

    def test_zero_over_zero_is_not_folded(self):
        s = ex.simplify(ex.parse_expr("0/0", CH2))
        assert ex.to_text(s) == "0 / 0"
        assert ex.to_text(ex.simplify(ex.const(CH2, 0.0) / ex.const(CH2, -0.0))) == "0 / -0"
        with pytest.raises(ex.DomainError, match="division by zero"):
            ex.evaluate(s, (1.0, 1.0))
        # 0 / r with r not a zero constant still folds
        assert ex.simplify(ex.parse_expr("0/x1", CH2)) == ex.const(CH2, 0.0)

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


TOKEN_SOUP = ["x1", "x2", "q", "sin", "exp", "(", ")", "+", "-", "*", "/", "^", " ", "\t",
              "2", "0", "-0", "1.5", ".5", "1.", ".", "1e3", "1e400", "1e-400", "1.2.3", "2y",
              "2_", "1e", "2.5", "2147483648", "2147483649", "?", "é", "²", "٣"]


def parse_outcome(parse, text):
    """The tree and its repr, or the ParseError's message and position."""
    try:
        e = parse(text, CH2)
    except ex.ParseError as err:
        return str(err), err.pos
    return e, repr(e)


class TestParseReference:
    @settings(max_examples=400, deadline=None, database=None)
    @given(st.one_of(grammar_trees(CH2).map(ex.to_text), smooth_trees(CH2).map(ex.to_text),
                     st.lists(st.sampled_from(TOKEN_SOUP), min_size=1, max_size=12).map("".join)))
    @example("x1^2.5")
    @example("x1^(-2147483649)")
    @example("x1^(-2147483648) * (2 - -x2)")
    @example("1٣ + x1")
    @example("sin x1")
    @example("(x1 + x2")
    def test_parse_matches_reference(self, text):
        assert parse_outcome(ex.parse_expr, text) == parse_outcome(parse_reference.parse_expr, text)

    @pytest.mark.parametrize("text, message, pos", [
        ("x1 + ) + 2y", "malformed number", 9),
        ("(x1 ? 2y", "unexpected character '?'", 4),
        ("x1 + ) + 2", "unexpected token ')'", 5),
        ("(x1 + 2", "expected ')', found None", 7),
    ])
    def test_lexical_errors_come_before_syntax_errors(self, text, message, pos):
        assert parse_outcome(ex.parse_expr, text) == (f"{message} at position {pos}: {text!r}",
                                                      pos)


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

    def test_each_distinct_node_is_rebuilt_once(self):
        f = ex.parse_expr("sin(0.7*x1 - 1.3*x2) * exp(0.4*x2) / (1 + (0.9*x1)^2)", CH2)
        e = ex.partial(ex.partial(ex.partial(ex.partial(f, 0), 1), 0), 1)
        composed = ex.compose(e, CH2, ex.coords(CH2))
        assert_same(composed, e)
        assert distinct_nodes(composed) <= distinct_nodes(e)

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


# every rule of `partial` that copies an operand, over operands that simplify
RAW_OPERANDS = ("(x2 + 0) * x1 + x1 * sin(x2 * 1) + x1 / (x2 - 0) + sin(x1 + 0) / (x2 - 0)"
                " + (x1 * (0 + x2))^2 + cos(x1 * --x2) + exp(x1 * (x2^1))"
                " + ln(x1 * (x2 / 1)) + sqrt(x1 * (1 * x2))")


OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def derive(e):
    """e built again bottom up with the operators and helpers."""
    match e:
        case Binary(op=op, left=l, right=r):
            return OPERATORS[op](derive(l), derive(r))
        case Power(base=b, exponent=k):
            return derive(b) ** k
        case Unary(fn="neg", arg=a):
            return -derive(a)
        case Unary(fn=fn, arg=a):
            return getattr(ex, fn)(derive(a))
    return e


class TestBuildTimeSimplification:
    """`partial`, `sum_of`, the operators and the helpers build their trees
    simplified node by node; they must equal the reference's `simplify` of
    the unsimplified trees."""

    @staticmethod
    def _reference(fn, *args):
        # the reference folds a constant power without an overflow guard
        try:
            return fn(*args)
        except OverflowError:
            reject()

    @settings(max_examples=300, deadline=None, database=None)
    @given(grammar_trees(CH2), st.integers(0, 1), st.booleans())
    @example(ex.parse_expr(RAW_OPERANDS, CH2), 0, False)
    @example(ex.parse_expr(RAW_OPERANDS, CH2), 1, False)
    def test_partial_matches_reference(self, e, axis, simplified):
        if simplified:
            e = ex.simplify(e)
        want = self._reference(ref.partial, e, axis)
        assert_same(ex.partial(e, axis), want)

    @settings(max_examples=200, deadline=None, database=None)
    @given(dag_trees(CH2), st.lists(st.integers(0, 1), min_size=1, max_size=4), st.booleans())
    @example(ex.parse_expr("sin(0.7*x1 - 1.3*x2) * exp(0.4*x2 + 1.1*x3)"
                           " / (1 + (0.9*x1 - 0.5*x3)^2)", ex.chart("x1", "x2", "x3")),
             [0, 1, 2, 0, 1], False)
    def test_partial_chains_on_shared_subtrees_match_reference(self, e, axes, simplified):
        # the reference rebuilds every node, so it differentiates the tree
        # expansion; each result is fed back in, as mixed partials are taken
        if simplified:
            e = ex.simplify(e)
        got = want = e
        for axis in axes:
            got = ex.partial(got, axis)
            want = self._reference(ref.partial, want, axis)
            assert_same(got, want)

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.tuples(grammar_trees(CH2), st.booleans()), min_size=1, max_size=4))
    @example([(ex.parse_expr("sin(x1 * 1)", CH2), False), (ex.parse_expr("0 - x2", CH2), False),
              (ex.parse_expr("x2", CH2), True)])
    def test_sum_of_matches_reference_simplify_of_the_raw_sum(self, drawn):
        terms = [t for t, _ in drawn]
        want = self._reference(
            ref.simplify, functools.reduce(lambda a, b: Binary(CH2, "+", a, b), terms))
        assert_same(ex.sum_of(ex.simplify(t) if s else t for t, s in drawn), want)

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.one_of(grammar_trees(CH2), dag_trees(CH2)))
    @example(ex.parse_expr("1 * sin(x1) - sin(x1) * 1 + x2 * -0 + -(-x1) / 1", CH2))
    def test_operators_build_the_simplified_tree(self, e):
        want = self._reference(ref.simplify, e)
        got = derive(e)
        assert_same(got, want)
        assert_same(ex.simplify(e), want)
        packed = [tape.pack_exprs([t]) for t in (got, want)]
        for field in ("codes", "args", "consts", "outputs"):
            assert getattr(packed[0], field).tobytes() == getattr(packed[1], field).tobytes()
        assert ex.simplify(got) is got

    @settings(max_examples=100, deadline=None, database=None)
    @given(grammar_trees(CH2), st.integers(0, 1))
    def test_partial_returns_a_simplified_tree(self, e, axis):
        d = ex.partial(e, axis)
        assert ex.simplify(d) is d

    def test_sum_of_needs_a_term(self):
        with pytest.raises(ValueError):
            ex.sum_of([])

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.lists(smooth_trees(ex.chart("x1", "x2", "x3")), min_size=3, max_size=3),
           st.integers(0, 1))
    def test_d_of_d_is_zero(self, coeffs, degree):
        ch = coeffs[0].chart
        omega = (forms.scalar_form(coeffs[0]) if degree == 0
                 else forms.one_form(ch, coeffs))
        dd = forms.exterior_derivative(forms.exterior_derivative(omega))
        assert forms.form_probably_zero(dd)

    @settings(max_examples=60, deadline=None, database=None)
    @given(smooth_trees(cp.hj_chart(2)), smooth_trees(cp.hj_chart(2)))
    def test_poisson_bracket_is_antisymmetric(self, e, v):
        both = ex.Binary(e.chart, "+", cp.poisson_bracket(e, v), cp.poisson_bracket(v, e))
        assert ex.probably_zero(both)
