import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from conftest import dirichlet_matrix
from saddlebvp import (GridFunction, delta, embedding_constant, embedding_estimate,
                       h_norm, laplacian)
from saddlebvp.grid import GridError, delta_i, h_norm_i, random_interior


def test_delta_zero_function():
    x = GridFunction.zeros(3)
    assert np.array_equal(delta(x), np.zeros(4))


def test_delta_t1_forced_by_boundary():
    x = GridFunction.from_interior([2.5])
    assert np.array_equal(delta(x), [2.5, -2.5])


def test_delta_direct_subtraction():
    x = GridFunction(np.array([0.0, 1.0, 2.0, 0.0]))
    assert np.array_equal(delta(x), [1.0, 1.0, -2.0])


def test_second_difference_is_minus_matrix_row():
    rng = np.random.default_rng(0)
    x = GridFunction.from_interior(rng.standard_normal(6))
    Lx = laplacian(6).apply(x.interior)
    for k in range(1, 7):
        second_difference = x(k + 1) - 2.0 * x(k) + x(k - 1)
        assert second_difference == pytest.approx(-Lx[k - 1], abs=1e-14)


def test_h_norm_zero():
    assert h_norm(GridFunction.zeros(5)) == 0.0


def test_h_norm_t1():
    # two differences of +-3 -> sqrt(18)
    assert h_norm(GridFunction.from_interior([3.0])) == pytest.approx(
        4.242640687119285, abs=1e-14)


def test_h_norm_matches_quadratic_form():
    rng = np.random.default_rng(1)
    x = GridFunction.from_interior(rng.standard_normal(50))
    L = dirichlet_matrix(50)
    assert h_norm(x) == pytest.approx(np.sqrt(x.interior @ L @ x.interior), abs=1e-12)


def test_boundary_invariance_under_arithmetic():
    rng = np.random.default_rng(2)
    for _ in range(50):
        T = int(rng.integers(1, 12))
        a = GridFunction.from_interior(rng.standard_normal(T))
        b = GridFunction.from_interior(rng.standard_normal(T))
        c = float(rng.standard_normal())
        for out in (a + b, a - b, -a, c * a, a * c):
            assert out.values[0] == 0.0 and out.values[-1] == 0.0


def test_gridfunction_rejects_nonzero_boundary():
    with pytest.raises(GridError):
        GridFunction(np.array([0.1, 1.0, 0.0]))
    with pytest.raises(GridError):
        GridFunction(np.array([0.0, 1.0, 1e-300]))
    with pytest.raises(GridError):
        GridFunction(np.array([0.0, 0.0]))


def test_gridfunction_immutable():
    x = GridFunction.zeros(3)
    with pytest.raises(ValueError):
        x.values[1] = 1.0


def test_gridfunction_leaves_the_callers_array_writable():
    a = np.zeros(5)
    x = GridFunction(a)
    a[2] = 1.0
    assert a[2] == 1.0
    assert np.array_equal(x.values, np.zeros(5)) and not x.values.flags.writeable


def test_laplacian_small_matrices():
    # applied to the rows of the identity, row by row, it gives its own matrix
    assert np.array_equal(laplacian(1).apply(np.eye(1)), [[2.0]])
    assert np.array_equal(laplacian(2).apply(np.eye(2)), [[2.0, -1.0], [-1.0, 2.0]])
    assert np.array_equal(laplacian(5).apply(np.eye(5)), dirichlet_matrix(5))


def test_laplacian_t3_eigenvalues():
    # closed form 4 sin^2(j pi / 8): {2 - sqrt(2), 2, 2 + sqrt(2)}
    expected = np.array([2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)])
    assert laplacian(3).smallest_eigenvalue == pytest.approx(expected[0], abs=1e-12)
    # cross-check against an eigensolver on the raw matrix
    assert np.allclose(np.linalg.eigvalsh(dirichlet_matrix(3)), expected, atol=1e-12)


def test_laplacian_positive_definite():
    for T in (1, 2, 7, 40):
        assert laplacian(T).smallest_eigenvalue > 0
        assert np.min(np.linalg.eigvalsh(dirichlet_matrix(T))) > 0


def test_quadratic_form_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        T = int(rng.integers(1, 201))
        x = GridFunction.from_interior(rng.standard_normal(T) * rng.uniform(0.1, 10))
        v = x.interior
        q = 0.5 * float(v @ laplacian(T).apply(v))
        d = np.diff(x.values)
        assert abs(q - 0.5 * np.sum(d * d)) <= 1e-12 * (1 + h_norm(x) ** 2)


def _rayleigh_brute_force(T, iters=200):
    # inverse power iteration on the scratch-built matrix; maximizes the
    # Rayleigh ratio sum x^2 / sum dx^2 independently of any closed form
    L = dirichlet_matrix(T)
    v = np.sin(np.arange(1, T + 1) * 0.7) + 1.0  # fixed non-eigen start
    for _ in range(iters):
        v = np.linalg.solve(L, v)
        v /= np.linalg.norm(v)
    return float((v @ v) / (v @ L @ v))


def test_embedding_constant_m2_t1():
    assert embedding_constant(2, 1) == pytest.approx(0.5, abs=1e-12)


def test_embedding_constant_m2_t5():
    # eigen-decomposition of the 5x5 matrix: 1 / (4 sin^2(pi/12)) = 2 + sqrt(3)
    expected = 3.7320508075688772
    assert embedding_constant(2, 5) == pytest.approx(expected, abs=1e-12)
    assert _rayleigh_brute_force(5) == pytest.approx(expected, rel=1e-9)


def test_embedding_constant_matches_tridiagonal_eigensolve():
    for T in (1, 2, 3, 10, 37):
        lam = eigh_tridiagonal(np.full(T, 2.0), np.full(T - 1, -1.0),
                               select="i", select_range=(0, 0))[0][0]
        assert embedding_constant(2, T) == pytest.approx(1.0 / lam, rel=1e-12)


def test_embedding_constant_m4_t1():
    # ratio a^4 / (a^4 + a^4) is constant in a
    assert embedding_constant(4, 1) == pytest.approx(0.5, abs=1e-10)


def _power_ratio(x, m):
    """``sum |x(k)|^m / sum |dx(k-1)|^m`` straight from the definition."""
    return np.sum(np.abs(x.interior) ** m) / np.sum(np.abs(np.diff(x.values)) ** m)


def test_embedding_estimate_maximizer_is_normalised():
    for m in (2, 3, 6):
        est = embedding_estimate(m, 6)
        assert (est.m, est.T) == (m, 6)
        assert np.linalg.norm(est.maximizer.interior) == pytest.approx(1.0, rel=1e-15)
        assert np.all(est.maximizer.interior > 0)


@settings(max_examples=120, deadline=None)
@given(m=st.integers(3, 8), T=st.integers(1, 60))
def test_embedding_value_is_the_ratio_at_its_maximizer(m, T):
    est = embedding_estimate(m, T)
    assert _power_ratio(est.maximizer, m) == pytest.approx(est.value, rel=1e-12)


@settings(max_examples=120, deadline=None)
@given(m=st.integers(3, 8), T=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1))
def test_no_function_exceeds_the_embedding_value(m, T, seed):
    # random draws, and perturbations of the maximizer, which come closest
    rng = np.random.default_rng(seed)
    est = embedding_estimate(m, T)
    draws = [rng.standard_normal(T) for _ in range(20)]
    draws += [est.maximizer.interior + s * rng.standard_normal(T)
              for s in (1e-1, 1e-3, 1e-6) for _ in range(10)]
    for v in draws:
        assert _power_ratio(GridFunction.from_interior(v), m) <= est.value * (1 + 1e-12)


# L-BFGS-B multistart estimates (16 random starts plus the sine and tent
# modes, seed 0) returned by the previous implementation; each is a ratio
# attained by some function, so the constant cannot lie below it.
MULTISTART_ESTIMATES = {
    (3, 5): 8.070053930441372, (3, 30): 1054.386775414668, (3, 100): 36425.50163358011,
    (4, 5): 19.837072637061347, (4, 30): 12656.666079574896, (4, 100): 1424600.2018051515,
    (6, 5): 144.25020485060492, (6, 30): 2102800.3381534065, (6, 100): 2515667787.6411104,
}


@pytest.mark.parametrize("m, T", sorted(MULTISTART_ESTIMATES))
def test_embedding_value_is_at_least_the_multistart_estimate(m, T):
    assert embedding_constant(m, T) >= MULTISTART_ESTIMATES[m, T] * (1 - 1e-12)


@pytest.mark.parametrize("T, bits", [
    (1, "0x1.0000000000001p-1"), (2, "0x1.0000000000001p+0"), (5, "0x1.ddb3d742c2657p+1"),
    (100, "0x1.026a496d9d090p+10"), (10 ** 5, "0x1.e3258f26c211fp+29"),
])
def test_embedding_constant_m2_bits(T, bits):
    # c2 feeds every certificate and radius: its bits are pinned
    assert float(embedding_constant(2, T)).hex() == bits


def test_embedding_constant_beyond_double_range():
    # c_200 for T = 1000 is about 1e540; (T+1)^199 overflows in the shooting
    with pytest.raises(GridError, match="beyond double precision"):
        embedding_constant(200, 1000)


def test_embedding_sharpness_m2():
    est = embedding_estimate(2, 11)
    x = est.maximizer
    ratio = np.sum(x.interior ** 2) / np.sum(np.diff(x.values) ** 2)
    assert ratio == pytest.approx(est.value, rel=1e-9)


def test_embedding_inequality_random():
    rng = np.random.default_rng(4)
    T = 9
    consts = {m: embedding_constant(m, T) for m in (2, 3, 4)}
    for _ in range(1000):
        x = GridFunction.from_interior(rng.standard_normal(T) * rng.uniform(0.01, 100))
        d = np.abs(np.diff(x.values))
        v = np.abs(x.interior)
        for m, cm in consts.items():
            assert np.sum(v ** m) <= cm * np.sum(d ** m) * (1 + 1e-9)


def test_norm_equivalence_bound():
    # sum |x(k)| <= sqrt(T c2) h_norm(x)
    rng = np.random.default_rng(5)
    for T in (1, 4, 13):
        bound = np.sqrt(T * embedding_constant(2, T))
        for _ in range(200):
            x = GridFunction.from_interior(rng.standard_normal(T))
            assert np.sum(np.abs(x.interior)) <= bound * h_norm(x) * (1 + 1e-12)


def test_embedding_constant_input_validation():
    with pytest.raises(GridError):
        embedding_constant(1, 5)
    with pytest.raises(GridError):
        embedding_constant(2, 0)


def test_random_in_ball_stays_inside():
    rng = np.random.default_rng(6)
    for _ in range(200):
        x = GridFunction.from_interior(random_interior(7, 2.5, rng))
        assert h_norm(x) <= 2.5 * (1 + 1e-12)
        assert x.values[0] == 0.0 and x.values[-1] == 0.0


def _ball_draw(T, radius, rng):
    # a uniform draw of the ball from its definition: an isotropic normal
    # direction in the difference norm, scaled to radius * U^(1/T)
    g = rng.standard_normal(T)
    d = np.diff(np.concatenate(([0.0], g, [0.0])))
    return g * (radius * rng.uniform() ** (1.0 / T) / np.sqrt(d @ d))


@pytest.mark.parametrize("T", [1, 2, 100])
def test_random_interior_follows_its_definition(T):
    # the same values from the same rng calls, so the rng ends in the same state
    b, c = (np.random.default_rng(T) for _ in range(2))
    for radius in (0.5, 3.0, 20.5):
        for _ in range(20):
            assert random_interior(T, radius, b).tobytes() == _ball_draw(T, radius, c).tobytes()
    assert b.bit_generator.state == c.bit_generator.state


def test_interior_norms_equal_the_padded_definition():
    # h_norm, delta and the rows of a block carry the bits of np.diff of the padded values
    rng = np.random.default_rng(8)
    for T in (1, 2, 7, 100):
        V = rng.standard_normal((5, T)) * 10.0 ** rng.integers(-3, 4, (5, 1))
        norms = h_norm_i(V)
        for v, n in zip(V, norms):
            d = np.diff(np.concatenate(([0.0], v, [0.0])))
            x = GridFunction.from_interior(v)
            assert delta(x).tobytes() == delta_i(v).tobytes() == d.tobytes()
            assert h_norm(x).hex() == h_norm_i(v).hex() == float(n).hex() == np.sqrt(d @ d).hex()
