import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from exform import _kernels
from exform import charpde as cp
from exform import evolution as ev
from exform import expr as ex
from exform import forms
from exform import tape


EIKONAL = cp.FirstOrderPDE.from_text(2, "p1^2 + p2^2 - 1")
FREE = cp.HJEquation.from_text(1, "p1^2 / 2")
OSCILLATOR = cp.HJEquation.from_text(1, "p1^2/2 + x1^2/2")


def canonical_rhs_by_partials(hj, state):
    """canonical_rhs as the direct formula: dE/dp, -dE/dx, p . dE/dp - E."""
    n = hj.n
    flat = np.asarray(state, dtype=np.float64)
    e_p = np.array([ex.evaluate(ex.partial(hj.E, 1 + n + j), flat) for j in range(n)])
    e_x = np.array([ex.evaluate(ex.partial(hj.E, 1 + j), flat) for j in range(n)])
    e_val = ex.evaluate(hj.E, flat)
    p = flat[1 + n:]
    return e_p, -e_x, float(np.dot(p, e_p) - e_val)


def caustic_events_by_loop(x0, t, x, dt_refine=1e-4):
    """detect_caustic's scan as a per-strip, per-interval loop."""
    events = []
    for k in range(1, x0.size - 1):
        denom = x0[k + 1] - x0[k - 1]
        if denom == 0.0:
            raise cp.FanError("launch nodes must be distinct")
        jac = (x[:, k + 1] - x[:, k - 1]) / denom
        for i in range(len(t) - 1):
            a, b = jac[i], jac[i + 1]
            if a == 0.0:
                events.append(cp._make_event(t[i], x0[k], k, x[i, k], None))
                continue
            if a * b < 0.0:
                lo, hi = t[i], t[i + 1]
                flo = a
                while hi - lo > dt_refine:
                    mid = 0.5 * (lo + hi)
                    fmid = a + (b - a) * (mid - t[i]) / (t[i + 1] - t[i])
                    if flo * fmid <= 0.0:
                        hi = mid
                    else:
                        lo, flo = mid, fmid
                t_star = 0.5 * (lo + hi)
                frac = (t_star - t[i]) / (t[i + 1] - t[i])
                x_star = x[i, k] + frac * (x[i + 1, k] - x[i, k])
                events.append(cp._make_event(t_star, x0[k], k, x_star, None))
    return events


def charpit_strips_by_copies(pde, initials, s_end, steps):
    """integrate_strips as a per-strip construction with one copy per array."""
    n = pde.n
    states0 = np.stack([np.concatenate([np.atleast_1d(np.asarray(x, float)), [float(u)],
                                        np.atleast_1d(np.asarray(p, float))])
                        for x, u, p in initials])
    _, pack, F = cp._charpit_system(pde)
    h = s_end / steps
    traj, err = _kernels.rk4(pack, states0, h, steps)
    assert err is None
    m = states0.shape[0]
    f_vals, f_errs = _kernels.eval_tape(tape.compile_expr(F), traj.reshape(-1, 2 * n + 1))
    assert not f_errs.any()
    drift = f_vals.reshape(steps + 1, m)
    s = np.arange(steps + 1) * h
    return [cp.CharacteristicStrip(s=s.copy(), x=traj[:, k, :n].copy(),
                                   u=traj[:, k, n].copy(), p=traj[:, k, n + 1:].copy(),
                                   drift=drift[:, k].copy(), step=h)
            for k in range(m)]


def solve_hj_by_stacking(hj, u0, grid, t_end, steps):
    """solve_hj as per-strip copies, with E audited over the (t, x, p) chart,
    the fan arrays stacked back from the strips, and the caustics found by
    the loop from the grid itself as launch nodes."""
    n = hj.n
    nodes = np.asarray(grid, dtype=np.float64)
    u_init = ex.evaluate_many(u0, nodes[:, None])
    p_init = ex.evaluate_many(ex.partial(u0, 0), nodes[:, None])
    states0 = np.stack([np.concatenate([[0.0], [x0], [u], [p]])
                        for x0, u, p in zip(nodes, u_init, p_init)])
    pack = cp._canonical_system(hj)[1]
    h = t_end / steps
    traj, err = _kernels.rk4(pack, states0, h, steps)
    assert err is None
    m = states0.shape[0]
    hj_states = np.concatenate([traj[:, :, :1 + n], traj[:, :, n + 2:]], axis=2)
    e_vals, e_errs = _kernels.eval_tape(tape.compile_expr(hj.E),
                                        hj_states.reshape(-1, 2 * n + 1))
    assert not e_errs.any()
    e_vals = e_vals.reshape(steps + 1, m)
    drift = e_vals - e_vals[0]
    strips = [cp.CharacteristicStrip(s=traj[:, k, 0].copy(), x=traj[:, k, 1:1 + n].copy(),
                                     u=traj[:, k, 1 + n].copy(), p=traj[:, k, n + 2:].copy(),
                                     drift=drift[:, k].copy(), step=h)
              for k in range(m)]
    x = np.stack([st.x[:, 0] for st in strips], axis=1)
    u = np.stack([st.u for st in strips], axis=1)
    p = np.stack([st.p[:, 0] for st in strips], axis=1)
    t = strips[0].s
    return SimpleNamespace(strips=strips, t=t, x=x, u=u, p=p,
                           events=caustic_events_by_loop(nodes, t, x))


def poincare_residual_by_stacking(strip, hj):
    """poincare_residual with E and each dE/dp_j evaluated one at a time and
    the partials stacked into (samples, n)."""
    n = hj.n
    states = np.concatenate([strip.s[:, None], strip.x, strip.p], axis=1)
    e_vals = ex.evaluate_many(hj.E, states)
    xdot = np.stack([ex.evaluate_many(ex.partial(hj.E, 1 + n + j), states)
                     for j in range(n)], axis=1)
    w = -e_vals + np.einsum("ki,ki->k", strip.p, xdot)
    h = strip.step
    pair = (h / 3.0) * (w[0:-2:2] + 4.0 * w[1:-1:2] + w[2::2])
    du = strip.u[2::2][:pair.size] - strip.u[0]
    return float(np.max(np.abs(du - np.cumsum(pair))))


def synthetic_fan(t, x):
    """A 1-D fan with foot-points x (samples, m), launched from x[0]."""
    return cp.Fan(t, np.repeat(x[:, :, None], 3, axis=2), np.zeros_like(x),
                  float(t[1] - t[0]))


def assert_strips_equal(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        for name in ("s", "x", "u", "p", "drift"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.step == b.step


class TestCharpitRhs:
    def test_eikonal(self):
        dx, du, dp = cp.charpit_rhs(EIKONAL, ((0.0, 0.0), 0.0, (0.6, 0.8)))
        assert dx == pytest.approx([1.2, 1.6])
        assert du == pytest.approx(2.0 * (0.6 ** 2 + 0.8 ** 2))
        assert dp == pytest.approx([0.0, 0.0])

    def test_momenta_conserved_without_x_u_dependence(self):
        pde = cp.FirstOrderPDE.from_text(2, "p1 * p2 - 1")
        _, _, dp = cp.charpit_rhs(pde, ((0.3, -0.4), 1.0, (2.0, 0.5)))
        assert dp == pytest.approx([0.0, 0.0])

    def test_linear_transport(self):
        pde = cp.FirstOrderPDE.from_text(1, "p1 - 3")
        dx, du, dp = cp.charpit_rhs(pde, ((0.0,), 0.0, (3.0,)))
        assert dx == pytest.approx([1.0])
        assert du == pytest.approx(3.0)
        assert dp == pytest.approx([0.0])


class TestStripIntegration:
    def test_eikonal_ray_oracle(self):
        # closed-form ray: x(s) = x0 + 2 p0 s, u = u0 + 2 s, p constant
        strip = cp.integrate_strips(EIKONAL, [((0.0, 0.0), 0.0, (1.0, 0.0))],
                                    0.5, 1000)[0]
        assert strip.x[-1] == pytest.approx([1.0, 0.0], abs=1e-12)
        assert strip.u[-1] == pytest.approx(1.0, abs=1e-12)
        assert strip.p[-1] == pytest.approx([1.0, 0.0], abs=1e-14)

    def test_linear_analytic(self):
        pde = cp.FirstOrderPDE.from_text(1, "p1 - 1")
        strip = cp.integrate_strips(pde, [((0.5,), 2.0, (1.0,))], 1.0, 100)[0]
        assert strip.x[-1, 0] == pytest.approx(1.5, abs=1e-12)
        assert strip.u[-1] == pytest.approx(3.0, abs=1e-12)

    def test_first_integral_drift(self):
        pde = cp.FirstOrderPDE.from_text(1, "p1^2 - u")
        strip = cp.integrate_strips(pde, [((0.0,), 1.0, (1.0,))], 1.0, 1000)[0]
        assert strip.max_drift <= 1e-8

    def test_off_surface_rejected(self):
        with pytest.raises(cp.OffSurfaceError):
            cp.integrate_strips(EIKONAL, [((0.0, 0.0), 0.0, (1.0, 1.0))], 0.5, 10)

    def test_domain_failure_reports_sample(self):
        pde = cp.FirstOrderPDE.from_text(1, "p1 - ln(2 - x1)")
        init = ((0.0,), 0.0, (float(np.log(2.0)),))
        with pytest.raises(cp.StripIntegrationError) as err:
            cp.integrate_strips(pde, [init], 4.0, 100)
        assert err.value.step >= 0

    @pytest.mark.parametrize("k", [0, 3, 9])
    def test_audit_names_the_first_sample_where_it_is_undefined(self, k):
        ch = ex.chart("x1", "x2")
        x1, _ = ex.coords(ch)
        # a (samples, m, 2) view of a (samples, 2, m) buffer, as RK4 returns it
        buf = np.ones((10, 2, 4))
        buf[k, 0, 2] = -1.0           # ln(x1) undefined at sample k, strip 2
        buf[9, 0, 0] = 0.0            # and again at the last sample, strip 0
        states = buf.transpose(0, 2, 1)
        with pytest.raises(cp.StripIntegrationError,
                           match=f"^F undefined at sample {k}$") as err:
            cp._audit(ex.ln(x1), states, "F")
        assert err.value.step == k
        buf[k, 0, 2] = buf[9, 0, 0] = 2.0
        assert np.array_equal(cp._audit(ex.ln(x1), states, "F"), np.log(buf[:, 0]))

    def test_audit_reads_the_trajectory_without_copying_it(self):
        """The audit of a 512-strip, 200-step fan (d = 5) allocates less than
        the trajectory it reads: no copy of the states is made."""
        _, pack, F = cp._charpit_system(EIKONAL)
        theta = np.linspace(0.0, 2 * np.pi, 512)
        states0 = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(512),
                                   np.cos(theta), np.sin(theta)])
        traj, _ = cp._rk4(pack, states0, 1.0, 200)
        assert traj.shape == (201, 512, 5)
        cp._audit(F, traj, "F")       # compile the audit tape outside the trace
        tracemalloc.start()
        try:
            drift = cp._audit(F, traj, "F")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert drift.shape == (201, 512)
        assert peak < traj.nbytes

    def test_strip_condition_defect(self):
        strip = cp.integrate_strips(EIKONAL, [((0.0, 0.0), 0.0, (0.6, 0.8))],
                                    0.5, 500)[0]
        assert strip.closure_defect() <= 1e-10

    def test_blowup_raises_at_first_nonfinite_step(self):
        # u' = p, p' = 2 p u from u = p = 1: u = 1/(1 - s) blows up at s = 1
        pde = cp.FirstOrderPDE.from_text(1, "p1 - u^2")
        with pytest.raises(cp.StripIntegrationError,
                           match="non-finite value in strip component 2 at step") as err:
            cp.integrate_strips(pde, [((0.0,), 1.0, (1.0,))], 2.0, 200)
        assert 95 <= err.value.step <= 105

    def test_canonical_blowup_raises(self):
        # x'' = x^3 from x = p = 1 leaves the finite numbers before t = 4
        hj = cp.HJEquation.from_text(1, "p1^2/2 - x1^4/4")
        with pytest.raises(cp.StripIntegrationError, match="non-finite value") as err:
            cp.integrate_canonical_strips(hj, [((1.0,), 0.0, (1.0,))], 4.0, 400)
        assert 0 < err.value.step < 400

    def test_malformed_initial_states_rejected(self):
        # x and p must each have n components; only their total was checked
        hj = cp.HJEquation.from_text(1, "p1^2 / 2")
        with pytest.raises(ValueError, match="state 0 must be"):
            cp.integrate_canonical_strips(hj, [((), 0.0, (1.0, 2.0))], 1.0, 10)
        pde = cp.FirstOrderPDE.from_text(1, "p1 - 1")
        with pytest.raises(ValueError, match="state 0 must be"):
            cp.integrate_strips(pde, [((), 0.0, (5.0, 1.0))], 1.0, 10)
        with pytest.raises(ValueError, match="state 1 must be"):
            cp.integrate_strips(pde, [((0.0,), 0.0, (1.0,)), ((0.0, 1.0), 0.0, (1.0,))],
                                1.0, 10)

    def test_state_rows_accept_every_state_form(self):
        expected = np.array([[0.1, 0.2, 0.5, 0.3, 0.4], [1.0, 2.0, 3.0, 4.0, 5.0]])
        forms_ = [
            [((0.1, 0.2), 0.5, (0.3, 0.4)), ([1.0, 2.0], 3.0, [4.0, 5.0])],
            [(np.array([0.1, 0.2]), np.array(0.5), np.array([0.3, 0.4])),
             ((1, 2), [3.0], np.array([4.0, 5.0]))],
            [[0.1, 0.2, 0.5, 0.3, 0.4], np.array([1.0, 2.0, 3.0, 4.0, 5.0])],
            expected.copy(),
        ]
        for states in forms_:
            rows = cp._state_rows(2, states)
            assert rows.dtype == np.float64 and rows.tobytes() == expected.tobytes()
        # for n = 1 a triple of numbers and a flat row are the same state
        assert cp._state_rows(1, [(0.3, 0.1, 0.7), [0.3, 0.1, 0.7]]).tolist() == [
            [0.3, 0.1, 0.7]] * 2

    def test_malformed_state_among_many_is_named(self):
        good = ((0.0, 0.0), 0.0, (0.6, 0.8))
        for bad in (((0.0, 0.0), 0.0, (0.6, 0.8, 1.0)), ((0.0,), 0.0, (0.6, 0.8)),
                    ([[0.0], [0.0]], 0.0, (0.6, 0.8)), ((0.0, 0.0), "u", (0.6, 0.8)),
                    [0.0, 0.0, 0.0, 0.6], [0.0, 0.0, 0.0, 0.6, 0.8, 1.0]):
            with pytest.raises(ValueError, match="state 3 must be"):
                cp._state_rows(2, [good] * 3 + [bad] + [good])
        with pytest.raises(ValueError, match="state 0 must be"):
            cp._state_rows(1, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            cp._state_rows(1, [])

    def test_steps_must_be_positive(self):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            cp.integrate_strips(EIKONAL, [((0.0, 0.0), 0.0, (1.0, 0.0))], 0.5, 0)
        with pytest.raises(ValueError, match="steps must be >= 1"):
            cp.integrate_canonical_strips(FREE, [((0.0,), 0.0, (1.0,))], 1.0, 0)

    def test_flat_initial_rows_accepted(self):
        tuples = cp.integrate_canonical_strips(OSCILLATOR, [((0.3,), 0.1, (0.7,))], 1.0, 20)
        rows = cp.integrate_canonical_strips(OSCILLATOR, np.array([[0.3, 0.1, 0.7]]),
                                             1.0, 20)
        assert_strips_equal(rows, tuples)
        flat = cp.integrate_strips(EIKONAL, [[0.0, 0.0, 0.0, 0.6, 0.8]], 0.5, 20)
        assert_strips_equal(flat, cp.integrate_strips(
            EIKONAL, [((0.0, 0.0), 0.0, (0.6, 0.8))], 0.5, 20))

    def test_batch_matches_individual(self):
        inits = [((0.0, 0.0), 0.0, (1.0, 0.0)), ((1.0, -1.0), 2.0, (0.0, 1.0))]
        fan = cp.integrate_strips(EIKONAL, inits, 0.3, 50)
        solo = cp.integrate_strips(EIKONAL, [inits[1]], 0.3, 50)[0]
        assert np.array_equal(fan[1].x, solo.x)
        assert np.array_equal(fan[1].u, solo.u)


class TestFanViews:
    """Strips are read-only views of one fan, bit-equal to per-strip copies."""

    def test_fan_is_a_read_only_sequence_of_strips(self):
        inits = [((0.1 * k, 0.0), 0.0, (0.6, 0.8)) for k in range(3)]
        fan = cp.integrate_strips(EIKONAL, inits, 0.3, 20)
        assert isinstance(fan, cp.Fan) and (len(fan), fan.n) == (3, 2)
        assert_strips_equal(list(fan), [fan[0], fan[1], fan[2]])
        assert_strips_equal([fan[-1], fan[-3]], [fan[2], fan[0]])
        for k in (3, -4):
            with pytest.raises(IndexError):
                fan[k]
        with pytest.raises(TypeError):
            fan[0:2]
        for name in ("s", "states", "drift"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(fan, name)[0] = 1.0

    def test_charpit_fans_match_per_strip_copies(self, rng):
        growth = cp.FirstOrderPDE.from_text(2, "p1 + p2 - u")
        for m in (1, 8, 64):
            theta = rng.uniform(0, 2 * np.pi, m)
            x0 = rng.uniform(-1, 1, (m, 2))
            eik = [(x, u, (np.cos(a), np.sin(a)))
                   for x, u, a in zip(x0, rng.uniform(-1, 1, m), theta)]
            p0 = rng.uniform(-1, 1, (m, 2))
            grow = [(x, p[0] + p[1], p) for x, p in zip(x0, p0)]
            for pde, inits in ((EIKONAL, eik), (growth, grow)):
                assert_strips_equal(cp.integrate_strips(pde, inits, 1.0, 200),
                                    charpit_strips_by_copies(pde, inits, 1.0, 200))

    def test_hj_fans_match_per_strip_copies(self):
        hj = cp.HJEquation.from_text(1, "0.9*p1^2/2 + 0.2*p1")
        u0 = ex.parse_expr("0 - 0.8*x1^2/2 + 0.3*x1", cp.base_chart(1))
        for system in (hj, OSCILLATOR):
            for m in (8, 64, 512):
                grid = np.linspace(-1, 1, m)
                sol = cp.solve_hj(system, u0, grid, 1.5, 200)
                ref = solve_hj_by_stacking(system, u0, grid, 1.5, 200)
                assert_strips_equal(sol.strips, ref.strips)
                for name in ("t", "x", "u", "p"):
                    assert np.array_equal(getattr(sol, name), getattr(ref, name)), name
                assert sol.x[0].tobytes() == grid.tobytes()
                assert sol.events == ref.events
                assert sol.events
                assert cp.detect_caustic(sol.strips) == ref.events

    def test_strips_share_one_read_only_fan(self):
        inits = [((0.0, 0.0), 0.0, (1.0, 0.0)), ((1.0, -1.0), 2.0, (0.0, 1.0))]
        strips = cp.integrate_strips(EIKONAL, inits, 0.3, 50)
        # two strips interleave in one buffer without sharing an element
        assert np.may_share_memory(strips[0].x, strips[1].x)
        assert strips[0].x.base is strips[1].p.base is not None
        u0 = ex.parse_expr("x1^2 / 2", cp.base_chart(1))
        grid = np.array([-1.0, -0.5, -0.0, 0.5, 1.0])
        sol = cp.solve_hj(FREE, u0, grid, 0.5, 20)
        assert sol.strips[0].x.base is sol.strips[1].u.base is not None
        assert np.shares_memory(sol.x, sol.strips[2].x)
        assert np.shares_memory(sol.u, sol.strips[2].u)
        for strip in (strips[0], sol.strips[1]):
            for name in ("s", "x", "u", "p", "drift"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(strip, name)[0] = 1.0
        for name in ("t", "x", "u", "p"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(sol, name)[0] = 1.0
        assert sol.x[0].tobytes() == grid.tobytes()    # the launch nodes, -0.0 too


class TestCanonical:
    def test_free_particle(self):
        xd, pd, ud = cp.canonical_rhs(FREE, (0.0, 0.5, 2.0))
        assert xd == pytest.approx([2.0])
        assert pd == pytest.approx([0.0])
        assert ud == pytest.approx(2.0)  # p * E_p - E = 4 - 2

    def test_momentum_only_hamiltonian_conserves_p(self):
        hj = cp.HJEquation.from_text(1, "p1^3")
        strips = cp.integrate_canonical_strips(hj, [((0.0,), 0.0, (0.7,))],
                                               1.0, 100)
        assert np.max(np.abs(strips[0].p - 0.7)) <= 1e-14

    def test_linear_potential(self):
        hj = cp.HJEquation.from_text(1, "x1")
        xd, pd, ud = cp.canonical_rhs(hj, (0.0, 2.0, 5.0))
        assert pd == pytest.approx([-1.0])

    def test_charpit_lift_reproduces_canonical(self):
        # shared-coordinate agreement between the lifted strip system and
        # the canonical relations
        hj = cp.HJEquation.from_text(1, "p1^2/2 + sin(x1)")
        lifted = hj.as_charpit()
        for state in [(0.0, 0.4, 1.0, 0.3), (1.0, -0.2, 0.2, -0.5)]:
            t, x, pt, p = state
            xd, pd, ud = cp.canonical_rhs(hj, (t, x, p))
            e_val = ex.evaluate(hj.E, (t, x, p))
            lifted_state = ((t, x), 0.0, (-e_val, p))
            ldx, ldu, ldp = cp.charpit_rhs(lifted, lifted_state)
            assert ldx[0] == pytest.approx(1.0, abs=1e-12)         # dt/ds
            assert ldx[1] == pytest.approx(xd[0], abs=1e-12)       # dx/ds
            assert ldp[1] == pytest.approx(pd[0], abs=1e-12)       # dp/ds
            assert ldu == pytest.approx(ud, abs=1e-12)             # du/ds


    def test_compiled_pack_matches_partials(self, rng):
        hjs = [OSCILLATOR, cp.HJEquation.from_text(1, "p1^2/2 + sin(x1) * t"),
               cp.HJEquation.from_text(2, "p1^2/2 + p2^2/2 + x1*x2 - exp(p1)*x2")]
        for hj in hjs:
            for _ in range(4):
                state = rng.uniform(-1.5, 1.5, size=2 * hj.n + 1)
                got = cp.canonical_rhs(hj, state)
                ref = canonical_rhs_by_partials(hj, state)
                for g, r in zip(got, ref):
                    assert np.allclose(g, r, rtol=1e-12, atol=0.0)

    def test_each_strip_system_compiles_once(self, monkeypatch):
        """A fan and a single-state right-hand side share one compiled pack,
        and the audit quantity (E or F) is compiled once."""
        sizes = []
        pack_exprs = tape.pack_exprs
        monkeypatch.setattr(tape, "pack_exprs",
                            lambda exprs: sizes.append(len(exprs)) or pack_exprs(exprs))
        for cache in (cp._canonical_system, cp._charpit_system, ex._tape_for):
            cache.cache_clear()
        cp.integrate_canonical_strips(OSCILLATOR, [((0.5,), 0.0, (0.2,))], 1.0, 10)
        cp.canonical_rhs(OSCILLATOR, (0.0, 0.5, 0.2))
        assert sizes == [4, 1]
        sizes.clear()
        cp.integrate_strips(EIKONAL, [((0.0, 0.0), 0.0, (0.6, 0.8))], 0.5, 10)
        cp.charpit_rhs(EIKONAL, ((0.0, 0.0), 0.0, (0.6, 0.8)))
        assert sizes == [5, 1]

    def test_domain_error_raises(self):
        hj = cp.HJEquation.from_text(1, "p1^2/2 + ln(x1)")
        with pytest.raises(ex.DomainError):
            cp.canonical_rhs(hj, (0.0, -1.0, 0.5))


class TestPoissonBracket:
    CH = cp.hj_chart(1)

    def test_self_bracket_vanishes(self):
        e = ex.parse_expr("p1^2/2 + x1", self.CH)
        assert ex.is_zero_const(cp.poisson_bracket(e, e))

    def test_free_momentum_conserved(self):
        e = ex.parse_expr("p1^2/2", self.CH)
        v = ex.parse_expr("p1", self.CH)
        assert ex.is_zero_const(cp.poisson_bracket(e, v))

    def test_bracket_gives_time_derivative_along_flow(self):
        # dV/dt along trajectories equals the bracket for time-independent V
        e = ex.parse_expr("p1^2/2 + x1", self.CH)
        v = ex.parse_expr("p1", self.CH)
        bracket = cp.poisson_bracket(e, v)
        assert bracket == ex.const(self.CH, -1.0)
        hj = cp.HJEquation(1, e)
        strip = cp.integrate_canonical_strips(hj, [((0.0,), 0.0, (2.0,))],
                                              1.0, 200)[0]
        dv_dt = np.gradient(strip.p[:, 0], strip.s)
        assert np.max(np.abs(dv_dt + 1.0)) <= 1e-8

    def test_transport_invariant(self):
        # V with vanishing bracket is constant along canonical trajectories
        e = ex.parse_expr("p1^2/2 + x1", self.CH)
        v = ex.parse_expr("p1^2/2 + x1", self.CH)
        assert ex.probably_zero(cp.poisson_bracket(e, v))
        hj = cp.HJEquation(1, e)
        strip = cp.integrate_canonical_strips(hj, [((0.3,), 0.0, (1.2,))],
                                              2.0, 1000)[0]
        values = strip.p[:, 0] ** 2 / 2 + strip.x[:, 0]
        assert np.max(np.abs(values - values[0])) <= 1e-6


class TestSolveHJ:
    def test_quadratic_initial_data_analytic_match(self):
        u0 = ex.parse_expr("x1^2 / 2", cp.base_chart(1))
        sol = cp.solve_hj(FREE, u0, np.linspace(-1, 1, 64), 0.5, 1000)
        ref = sol.x ** 2 / (2.0 * (1.0 + sol.t[:, None]))
        assert np.max(np.abs(sol.u - ref)) <= 1e-6
        p_ref = sol.x / (1.0 + sol.t[:, None])
        assert np.max(np.abs(sol.p - p_ref)) <= 1e-6

    def test_launch_data_matches_pointwise_evaluation(self):
        u0 = ex.parse_expr("sin(3*x1) + exp(x1)/(2 + x1)", cp.base_chart(1))
        nodes = np.linspace(-1, 1, 33)
        sol = cp.solve_hj(OSCILLATOR, u0, nodes, 0.5, 10)
        slope = ex.partial(u0, 0)
        assert sol.u[0].tolist() == [ex.evaluate(u0, (x,)) for x in nodes]
        assert sol.p[0].tolist() == [ex.evaluate(slope, (x,)) for x in nodes]

    def test_launch_data_domain_error_names_point(self):
        u0 = ex.parse_expr("ln(x1)", cp.base_chart(1))
        with pytest.raises(ex.DomainError, match=r"ln of non-positive .*-0\.5"):
            cp.solve_hj(FREE, u0, [1.0, -0.5, -1.0], 1.0, 10)

    def test_linear_advection_translates_data(self):
        hj = cp.HJEquation.from_text(1, "2 * p1")
        u0 = ex.parse_expr("sin(x1)", cp.base_chart(1))
        sol = cp.solve_hj(hj, u0, np.linspace(-2, 2, 9), 0.75, 200)
        # along strips u(t, x) = u0(x - 2t) exactly
        ref = np.sin(sol.x - 2.0 * sol.t[:, None])
        assert np.max(np.abs(sol.u - ref)) <= 1e-12

    def test_zero_hamiltonian_freezes(self):
        hj = cp.HJEquation.from_text(1, "0 * p1")
        u0 = ex.parse_expr("x1^3", cp.base_chart(1))
        sol = cp.solve_hj(hj, u0, np.linspace(-1, 1, 5), 1.0, 50)
        assert np.max(np.abs(sol.u - sol.u[0])) == 0.0
        assert np.max(np.abs(sol.x - sol.x[0])) == 0.0


class TestPoincareResidual:
    def test_free_particle_exact(self):
        strip = cp.integrate_canonical_strips(FREE, [((0.3,), 0.5, (1.1,))],
                                              1.0, 200)[0]
        assert cp.poincare_residual(strip, FREE) <= 1e-13

    def test_static_case(self):
        hj = cp.HJEquation.from_text(1, "0 * p1")
        strip = cp.integrate_canonical_strips(hj, [((0.4,), 0.2, (0.0,))],
                                              1.0, 100)[0]
        assert cp.poincare_residual(strip, hj) <= 1e-14

    def test_perturbed_samples_fail(self):
        strip = cp.integrate_canonical_strips(OSCILLATOR, [((0.8,), 0.32, (0.8,))],
                                              1.5, 200)[0]
        u_bad = strip.u.copy()
        u_bad[50] += 0.01
        bad = cp.CharacteristicStrip(strip.s, strip.x, u_bad, strip.p,
                                     strip.drift, strip.step)
        assert cp.poincare_residual(bad, OSCILLATOR) > 1e-3

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_equals_the_stacked_evaluation_bit_for_bit(self, n):
        E = " + ".join(f"p{j}^2 / 2 + sin(x{j}) * p{j % n + 1} * t" for j in range(1, n + 1))
        hj = cp.HJEquation.from_text(n, E)
        rng = np.random.default_rng(n)
        initials = [(rng.uniform(-1, 1, n), 0.1, rng.uniform(-1, 1, n)) for _ in range(3)]
        fan = cp.integrate_canonical_strips(hj, initials, 1.0, 64)
        for k in range(len(fan)):
            s = fan[k]
            # a fan's strips are strided views; a copied p is C-ordered
            for strip in (s, cp.CharacteristicStrip(s.s, s.x, s.u, s.p.copy(), s.drift, s.step)):
                got = cp.poincare_residual(strip, hj)
                assert np.float64(got).tobytes() == np.float64(
                    poincare_residual_by_stacking(strip, hj)).tobytes()

    def test_fourth_order_richardson(self):
        # analytic oscillator oracle
        x0, p0, u0 = 0.8, 0.8, 0.32

        def exact_u(t):
            return (u0 + (p0 ** 2 - x0 ** 2) * np.sin(2 * t) / 4
                    - x0 * p0 * (1 - np.cos(2 * t)) / 2)

        errors = []
        residuals = []
        for steps in (250, 500):
            strip = cp.integrate_canonical_strips(
                OSCILLATOR, [((x0,), u0, (p0,))], 1.5, steps)[0]
            errors.append(np.max(np.abs(strip.u - exact_u(strip.s))))
            residuals.append(cp.poincare_residual(strip, OSCILLATOR))
        assert 12.0 <= errors[0] / errors[1] <= 20.0
        assert 12.0 <= residuals[0] / residuals[1] <= 20.0


class TestFieldClassification:
    def test_rotational_field_is_functional(self):
        g = np.linspace(0, 1, 9)
        a, b = np.meshgrid(g, g, indexing="ij")
        field = np.stack([-b, a], axis=2)
        h = g[1] - g[0]
        result = cp.classify_derivative_field(field, (h, h), 1e-6)
        assert result.kind == "functional"
        assert result.max_abs == pytest.approx(2.0, rel=1e-12)

    def test_gradient_field_is_function(self):
        # p = grad(x^2 y + y^3 / 3) sampled exactly
        g1 = np.linspace(-1, 1, 11)
        g2 = np.linspace(-1, 1, 13)
        a, b = np.meshgrid(g1, g2, indexing="ij")
        field = np.stack([2 * a * b, a ** 2 + b ** 2], axis=2)
        h1, h2 = g1[1] - g1[0], g2[1] - g2[0]
        result = cp.classify_derivative_field(field, (h1, h2), 1e-9)
        assert result.kind == "function"

    def test_smooth_solution_field_pre_caustic(self):
        # rows: time samples; columns: fixed x grid built by per-time linear
        # interpolation across strip feet (exact here since p is linear in x)
        u0 = ex.parse_expr("x1^2 / 2", cp.base_chart(1))
        sol = cp.solve_hj(FREE, u0, np.linspace(-2, 2, 41), 0.5, 200)
        xg = np.linspace(-0.8, 0.8, 17)
        nt = sol.t.size
        p_t = np.empty((nt, xg.size))   # covector time component = -E = -p^2/2
        p_x = np.empty((nt, xg.size))
        for i in range(nt):
            p_here = np.interp(xg, sol.x[i], sol.p[i])
            p_x[i] = p_here
            p_t[i] = -p_here ** 2 / 2
        field = np.stack([p_t, p_x], axis=2)
        ht = sol.t[1] - sol.t[0]
        hx = xg[1] - xg[0]
        result = cp.classify_derivative_field(field, (ht, hx),
                                              tol=10 * max(ht, hx) ** 2)
        assert result.kind == "function"

    def test_grid_too_small(self):
        with pytest.raises(cp.FanError):
            cp.commutator_residual_field(np.zeros((2, 5, 2)), (0.1, 0.1))


class TestCaustics:
    def test_focusing_fan(self):
        u0 = ex.parse_expr("0 - x1^2 / 2", cp.base_chart(1))
        sol = cp.solve_hj(FREE, u0, np.linspace(-1, 1, 9), 2.0, 1000)
        assert sol.events
        for event in sol.events:
            assert event.t_star == pytest.approx(1.0, abs=1e-3)

    def test_defocusing_fan_has_no_events(self):
        u0 = ex.parse_expr("x1^2 / 2", cp.base_chart(1))
        sol = cp.solve_hj(FREE, u0, np.linspace(-1, 1, 9), 2.0, 400)
        assert sol.events == []

    def test_jacobian_against_analytic_oracle(self):
        # x(t; x0) = x0 (1 - t): detected time matches the analytic root
        u0 = ex.parse_expr("0 - x1^2 / 2", cp.base_chart(1))
        sol = cp.solve_hj(FREE, u0, np.linspace(-1, 1, 17), 1.5, 600)
        t_min = min(e.t_star for e in sol.events)
        t_max = max(e.t_star for e in sol.events)
        assert t_min == pytest.approx(1.0, abs=1e-3)
        assert t_max == pytest.approx(1.0, abs=1e-3)

    def test_scan_matches_loop(self, rng):
        hj = cp.HJEquation.from_text(1, "0.9*p1^2/2 + 0.2*p1")
        u0 = ex.parse_expr("0 - 0.8*x1^2/2 + 0.3*x1", cp.base_chart(1))
        fans = []
        for m in (8, 64, 512):
            fans.append(cp.solve_hj(hj, u0, np.linspace(-1, 1, m), 1.5, 200).strips)
            # a random-walk fan from its launch nodes: many sign changes at
            # scattered times
            x0 = np.sort(rng.uniform(-1, 1, m))
            walk = rng.normal(scale=0.05, size=(59, m)).cumsum(axis=0)
            fans.append(synthetic_fan(np.linspace(0.0, 1.5, 60),
                                      x0 + np.vstack([np.zeros(m), walk])))
        # integer positions after launch: exact-zero Jacobian entries
        x = rng.integers(-2, 3, size=(30, 12)).astype(float)
        x[0] = np.arange(12.0)
        fans.append(synthetic_fan(np.linspace(0.0, 1.0, 30), x))
        zero_hits = 0
        for fan in fans:
            x = fan.states[:, :, 0]
            events = cp.detect_caustic(fan)
            assert events == caustic_events_by_loop(x[0], fan.s, x)
            assert events
            zero_hits += sum(e.t_star in fan.s for e in events)
        assert zero_hits > 0

    def test_backward_time_fan_is_refined(self):
        """A fan run back in time brackets each sign change with t0 > t1 and
        is refined as its forward mirror is: both focus at |t| = 1."""
        grid = np.linspace(-1, 1, 5)
        for text, t_end in (("x1^2 / 2", -2.5), ("0 - x1^2 / 2", 2.5)):
            sol = cp.solve_hj(FREE, ex.parse_expr(text, cp.base_chart(1)), grid, t_end, 7)
            assert sol.events
            for event in sol.events:
                assert abs(event.t_star - np.sign(t_end)) <= cp.DT_REFINE

    def test_repeated_launch_nodes_rejected(self):
        x = np.ones((5, 4))
        x[0] = [0.0, 1.0, -0.0, 2.0]
        with pytest.raises(cp.FanError, match="distinct"):
            cp.detect_caustic(synthetic_fan(np.linspace(0.0, 1.0, 5), x))

    def test_single_strip_rejected(self):
        fan = cp.integrate_canonical_strips(FREE, [((0.0,), 0.0, (1.0,))],
                                            1.0, 10)
        with pytest.raises(cp.FanError, match="at least 3"):
            cp.detect_caustic(fan)

    def test_two_strip_and_two_dimensional_fans_rejected(self):
        two = cp.integrate_canonical_strips(
            FREE, [((0.0,), 0.0, (1.0,)), ((0.1,), 0.0, (1.0,))], 1.0, 10)
        with pytest.raises(cp.FanError, match="at least 3"):
            cp.detect_caustic(two)
        inits = [((0.1 * k, 0.0), 0.0, (0.6, 0.8)) for k in range(4)]
        with pytest.raises(cp.FanError, match="1-D base"):
            cp.detect_caustic(cp.integrate_strips(EIKONAL, inits, 0.5, 10))

    def test_context_attaches_bistructure(self):
        u0 = ex.parse_expr("0 - x1^2 / 2", cp.base_chart(1))
        sol = cp.solve_hj(FREE, u0, np.linspace(-1, 1, 9), 2.0, 400)
        chart2 = ex.chart("t", "x1")
        tvar, xvar = ex.coords(chart2)
        omega = forms.one_form(chart2, [xvar, tvar])
        context = cp.BiStructureContext(omega=omega)
        events = cp.detect_caustic(sol.strips, context=context)
        assert events and events[0].bistructure is not None
        record = events[0].bistructure
        assert record.pseudostructure.kind == "characteristic-family"
