import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustkb as rk
from robustkb import (
    DimensionMismatch,
    DriftPolicy,
    ModelSchedule,
    NonFinite,
    NotPositiveDefinite,
    NotPSD,
    OutOfGrid,
    TimeGrid,
    UncertaintyBound,
)


class TestTimeGrid:
    def test_basic_fields(self):
        grid = TimeGrid(2.0, 4)
        assert grid.dt == 0.5
        assert np.array_equal(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert not grid.times.flags.writeable

    def test_step_times_horizon_consistency(self):
        grid = TimeGrid(2.0, 2000)
        assert abs(grid.n_steps * grid.dt - grid.horizon) <= 1e-12 * grid.horizon

    def test_from_step_keeps_exact_dt(self):
        grid = TimeGrid.from_step(1e-3, 2000)
        assert grid.dt == 1e-3
        assert grid.n_steps == 2000

    def test_prefix_shares_node_times_bitwise(self):
        grid = TimeGrid(2.0, 2000)
        sub = grid.prefix(700)
        assert np.array_equal(sub.times, grid.times[:701])

    def test_index_of(self):
        grid = TimeGrid(2.0, 2000)
        assert grid.index_of(0.0) == 0
        assert grid.index_of(1.0) == 1000
        assert grid.index_of(2.0) == 2000
        assert grid.index_of(1.0 + 1e-12) == 1000

    @pytest.mark.parametrize("t", [-0.001, 2.001, 0.0005, 1.00037])
    def test_index_of_rejects_off_grid(self, t):
        with pytest.raises(OutOfGrid):
            TimeGrid(2.0, 2000).index_of(t)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, float("inf"), float("nan")])
    def test_from_step_rejects_a_bad_step(self, dt):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            TimeGrid.from_step(dt, 4)

    @pytest.mark.parametrize("n_steps", [0, 5])
    def test_prefix_rejects_a_length_outside_the_grid(self, n_steps):
        with pytest.raises(ValueError, match=f"prefix length {n_steps} outside 1..4"):
            TimeGrid(2.0, 4).prefix(n_steps)

    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_bad_steps(self, bad):
        with pytest.raises(ValueError):
            TimeGrid(1.0, bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_bad_horizon(self, bad):
        with pytest.raises(ValueError):
            TimeGrid(bad, 10)

    @given(st.integers(1, 500), st.floats(0.01, 50.0),
           st.integers(0, 500))
    @settings(max_examples=50, deadline=None)
    def test_index_of_roundtrip(self, n_steps, horizon, k):
        grid = TimeGrid(horizon, n_steps)
        k = min(k, n_steps)
        assert grid.index_of(grid.times[k]) == k


class TestValidateModel:
    def test_scalar_constant_valid(self):
        m = rk.constant_model(-1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                              horizon=1.0, n_steps=10)
        assert m.n == 1 and m.m == 1
        assert m.F.shape == (10, 1, 1)
        assert m.r_min == pytest.approx(1.0)
        assert not m.F.flags.writeable

    def test_zero_r_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            rk.constant_model(0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0,
                              horizon=1.0, n_steps=4)

    def test_indefinite_q_rejected(self):
        with pytest.raises(NotPSD):
            rk.constant_model(0.0, 0.0, 1.0, 0.0, -0.5, 1.0, 0.0,
                              horizon=1.0, n_steps=4)

    def test_asymmetric_q_rejected(self):
        Q = np.array([[1.0, 0.3], [0.0, 1.0]])
        with pytest.raises(NotPSD):
            rk.constant_model(-np.eye(2), np.zeros(2), np.eye(2), np.zeros(2),
                              Q, np.eye(2), np.zeros(2), horizon=1.0, n_steps=4)

    def test_transposed_g_rejected(self):
        # m=1, n=2 wants G of shape (1, 2); give (2, 1).
        grid = TimeGrid(1.0, 3)
        sched = ModelSchedule(
            F=np.tile(-np.eye(2), (3, 1, 1)), f=np.zeros((3, 2)),
            G=np.ones((3, 2, 1)), g=np.zeros((3, 2)),
            Q=np.tile(np.eye(2), (3, 1, 1)), R=np.ones((3, 2, 2)),
            x0=np.zeros(2),
        )
        with pytest.raises(DimensionMismatch):
            rk.validate_model(sched, grid)

    @pytest.mark.parametrize("name, value, message", [
        ("x0", np.zeros((1, 1)), r"x0: expected a 1-d vector, got shape \(1, 1\)"),
        ("G", np.ones((3, 1)), r"G: expected a \(n_steps, m, n\) stack, "
                               r"got shape \(3, 1\)"),
    ])
    def test_wrong_array_rank_rejected(self, name, value, message):
        fields = dict(F=-np.ones((3, 1, 1)), f=np.zeros((3, 1)),
                      G=np.ones((3, 1, 1)), g=np.zeros((3, 1)),
                      Q=np.ones((3, 1, 1)), R=np.ones((3, 1, 1)), x0=np.zeros(1))
        fields[name] = value
        with pytest.raises(DimensionMismatch, match=message):
            rk.validate_model(ModelSchedule(**fields), TimeGrid(1.0, 3))

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            rk.constant_model(np.nan, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                              horizon=1.0, n_steps=4)

    def test_overflowing_s_rejected(self):
        # G and R are finite, but S = G' R^-1 G = 1e400 is not.
        with pytest.raises(NonFinite, match="^S "):
            rk.constant_model(-1.0, 0.0, 1e200, 0.0, 1.0, 1.0, 0.0,
                              horizon=1.0, n_steps=4)

    @pytest.mark.parametrize("name, error", [("Q", NotPSD),
                                             ("R", NotPositiveDefinite)])
    def test_floor_error_names_the_first_node_and_its_eigenvalue(self, name,
                                                                  error):
        # The first node below the floor is 1, and its own eigenvalue is
        # -1e-8, not the schedule's lowest, -5.
        cov = {"Q": np.ones((3, 1, 1)), "R": np.ones((3, 1, 1)),
               name: np.array([1.0, -1e-8, -5.0]).reshape(3, 1, 1)}
        sched = ModelSchedule(F=-np.ones((3, 1, 1)), f=np.zeros((3, 1)),
                              G=np.ones((3, 1, 1)), g=np.zeros((3, 1)),
                              Q=cov["Q"], R=cov["R"], x0=np.zeros(1))
        want = rf"^{name}\[1\] has eigenvalue -1\.000e-08 "
        with pytest.raises(error, match=want):
            rk.validate_model(sched, TimeGrid(1.0, 3))

    @pytest.mark.parametrize("name", ["Q", "R"])
    def test_huge_covariance_symmetrizes_without_overflow(self, name):
        # 0.5 * (Q + Q') would be inf here, with only a RuntimeWarning.
        cov = {"Q": np.eye(2), "R": np.eye(2), name: 1e308 * np.eye(2)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = rk.constant_model(-np.eye(2), np.zeros(2), np.eye(2), np.zeros(2),
                                  cov["Q"], cov["R"], np.zeros(2),
                                  horizon=1.0, n_steps=4)
        assert np.array_equal(getattr(m, name), np.tile(cov[name], (4, 1, 1)))

    def test_symmetrizing_averages_a_slight_asymmetry(self):
        R = np.array([[1.0, 0.3], [0.3 + 2e-16, 1.0]])
        m = rk.constant_model(-np.eye(2), np.zeros(2), np.eye(2), np.zeros(2),
                              np.eye(2), R, np.zeros(2), horizon=1.0, n_steps=4)
        assert np.array_equal(m.R[0].view(np.uint64),
                              (0.5 * (R + R.T)).view(np.uint64))

    def test_derived_arrays(self):
        m = rk.constant_model([[0.0, 1.0], [-1.0, 0.0]], np.zeros(2),
                              [[1.0, 0.5]], [0.0],
                              [[2.0, 0.3], [0.3, 1.0]], [[4.0]], np.zeros(2),
                              horizon=1.0, n_steps=5)
        np.testing.assert_allclose(m.Q_sqrt[0] @ m.Q_sqrt[0], m.Q[0],
                                   atol=1e-12)
        np.testing.assert_allclose(m.Rinv[0], np.linalg.inv(m.R[0]))
        G = m.G[0]
        np.testing.assert_allclose(m.S[0], G.T @ m.Rinv[0] @ G, atol=1e-14)
        np.testing.assert_allclose(m.R_chol[0] @ m.R_chol[0].T, m.R[0])

    def test_validate_is_deterministic(self):
        a = rk.constant_model(-1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                              horizon=1.0, n_steps=10)
        b = rk.constant_model(-1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0,
                              horizon=1.0, n_steps=10)
        for name in ("F", "f", "G", "g", "Q", "R", "Rinv", "Q_sqrt", "S"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_truncate(self, default_model):
        sub = default_model.truncate(500)
        assert sub.n_steps == 500
        assert np.array_equal(sub.F, default_model.F[:500])
        assert np.array_equal(sub.grid.times, default_model.grid.times[:501])
        assert sub.truncate(500) is sub

    def test_coeff_index_terminal_node(self, fast_model):
        assert fast_model.coeff_index(0) == 0
        assert fast_model.coeff_index(fast_model.n_steps) == fast_model.n_steps - 1

    def test_is_time_constant(self, fast_model):
        assert fast_model.is_time_constant()
        F = np.zeros((4, 1, 1))
        F[2] = 1.0
        sched = ModelSchedule(F=F, f=np.zeros((4, 1)), G=np.ones((4, 1, 1)),
                              g=np.zeros((4, 1)), Q=np.ones((4, 1, 1)),
                              R=np.ones((4, 1, 1)), x0=np.zeros(1))
        assert not rk.validate_model(sched, TimeGrid(1.0, 4)).is_time_constant()


class TestUncertaintyBound:
    def test_scalar_and_vector(self):
        assert UncertaintyBound(1.0).dim == 1
        b = UncertaintyBound([1.0, 0.5])
        assert b.dim == 2
        assert np.array_equal(b.mu, [1.0, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            UncertaintyBound([-0.1])

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFinite):
            UncertaintyBound([np.inf])

    def test_rejects_a_matrix(self):
        with pytest.raises(DimensionMismatch, match=r"mu: expected a 1-d vector"):
            UncertaintyBound(np.ones((2, 2)))


class TestDriftPolicy:
    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            DriftPolicy(np.zeros(5))
        with pytest.raises(NonFinite):
            DriftPolicy(np.full((5, 1), np.nan))

    def test_node_values_repeats_last_interval(self):
        pol = DriftPolicy(np.arange(6.0).reshape(3, 2))
        nodes = pol.node_values()
        assert nodes.shape == (4, 2)
        assert np.array_equal(nodes[-1], nodes[-2])

    def test_within(self):
        pol = DriftPolicy(np.full((4, 1), 0.7))
        assert pol.within(UncertaintyBound(1.0))
        assert not pol.within(UncertaintyBound(0.5))
        assert pol.within(UncertaintyBound(0.5), slack=0.25)
        with pytest.raises(DimensionMismatch, match="bound has dim 2, policy has dim 1"):
            pol.within(UncertaintyBound([1.0, 1.0]))

    def test_constant_and_zero(self, fast_model):
        pol = rk.constant_policy(fast_model, 0.3)
        assert pol.theta.shape == (fast_model.n_steps, 1)
        assert np.all(pol.theta == 0.3)
        assert np.all(rk.zero_policy(fast_model).theta == 0.0)

    @pytest.mark.parametrize("value,mu,want", [
        (0.0, 1.0, 0.0), (5.0, 1.0, 1.0), (-3.0, 2.0, -2.0),
    ])
    def test_clamp_values(self, fast_model, value, mu, want):
        out = rk.clamp_policy(rk.constant_policy(fast_model, value),
                              UncertaintyBound(mu))
        assert np.all(out.theta == want)

    @given(st.lists(st.floats(-10, 10), min_size=4, max_size=4),
           st.floats(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_clamp_idempotent(self, values, mu):
        pol = DriftPolicy(np.array(values).reshape(2, 2))
        bound = UncertaintyBound([mu, mu / 2 + 0.1])
        once = rk.clamp_policy(pol, bound)
        twice = rk.clamp_policy(once, bound)
        assert np.array_equal(once.theta, twice.theta)
        assert once.within(bound)

    def test_clamp_dim_mismatch(self, fast_model):
        with pytest.raises(DimensionMismatch):
            rk.clamp_policy(rk.zero_policy(fast_model), UncertaintyBound([1.0, 1.0]))
