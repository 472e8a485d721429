import numpy as np
import pytest

from ghlpc.errors import ConvergenceError, ResonanceError
from ghlpc.linode import (
    bordered_inv,
    bordered_solve,
    equilibrium,
    gh_point_at,
    hopf_eigenpair,
    refine_gh,
    resolvent_solve,
)
from ghlpc.models import builtin


def test_rotation_matrix_eigenpair():
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    w0, q, p = hopf_eigenpair(A, 1.0)
    assert abs(w0 - 1.0) < 1e-14
    ref = np.array([1.0, -1.0j]) / np.sqrt(2.0)
    assert abs(abs(np.vdot(ref, q)) - 1.0) < 1e-12  # equal up to phase
    assert abs(np.vdot(q, q) - 1.0) < 1e-13
    assert abs(np.vdot(p, q) - 1.0) < 1e-13


def test_bazykin_gh_eigenpair():
    # Jacobian at the generalized Hopf point of the prey-predator model
    A = np.array([[0.0, -0.25], [0.5, 0.0]])
    w0, q, p = hopf_eigenpair(A, 0.35)
    assert abs(w0 - np.sqrt(2.0) / 4.0) < 1e-14
    ref = np.array([np.sqrt(3.0) / 3.0, -1j * np.sqrt(6.0) / 3.0])
    assert abs(abs(np.vdot(ref, q)) - 1.0) < 1e-12


def test_eigenpair_deterministic():
    A = builtin("lorenz84")
    gh = gh_point_at(A.model, A.x_guess, A.alpha_guess, A.omega_guess)
    gh2 = gh_point_at(A.model, A.x_guess, A.alpha_guess, A.omega_guess)
    assert np.array_equal(gh.q, gh2.q)
    assert np.array_equal(gh.p, gh2.p)


def test_resolvent_identity_case():
    A = -np.eye(3)
    out = resolvent_solve(A, 0.0, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(out, [1.0, 0.0, 0.0])


def test_resolvent_resonance_error():
    A = np.diag([1.0, 2.0])
    with pytest.raises(ResonanceError):
        resolvent_solve(A, 2.0, np.array([1.0, 1.0]))


def test_bazykin_h1100_symbolic():
    # H1100 = -A^-1 B(q, qb) has the closed form (0, -16/9) at the GH point
    pk = np.array([[0.0, -0.25], [0.5, 0.0]])
    w0, q, p = hopf_eigenpair(pk, 0.35)
    bm = builtin("bazykin-khibnik")
    part = bm.exact_factory(np.array([0.25, 0.5]), np.array([0.25, 0.125]))
    B = np.zeros(2, dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            sm = [0, 0]
            sm[i] += 1
            sm[j] += 1
            B += part(tuple(sm), (0, 0)) * q[i] * np.conj(q[j])
    H1100 = resolvent_solve(pk, 0.0, B)
    assert np.allclose(H1100, [0.0, -16.0 / 9.0], atol=1e-10)


def test_bordered_inv_invariants(rng):
    A = np.array([[0.0, -0.25], [0.5, 0.0]])
    w0, q, p = hopf_eigenpair(A, 0.35)
    # bordered_inv(q) = 0 at the linear-solve level
    w, s = bordered_solve(A, w0, q, p, q)
    assert np.linalg.norm(w) < 1e-13 and abs(s - 1.0) < 1e-13
    # rhs = 0 -> 0
    assert np.linalg.norm(bordered_inv(A, w0, q, p, np.zeros(2))) == 0.0
    # consistent rhs: residual and orthogonality
    for _ in range(5):
        r = rng.normal(size=2) + 1j * rng.normal(size=2)
        r = r - np.vdot(p, r) * q / np.vdot(p, q)  # project out the resonant part
        w = bordered_inv(A, w0, q, p, r)
        assert np.linalg.norm((1j * w0 * np.eye(2) - A) @ w - r) <= 1e-10 * max(
            1.0, np.linalg.norm(r))
        assert abs(np.vdot(p, w)) <= 1e-11
    # inconsistent rhs is rejected in the checked variant
    with pytest.raises(ConvergenceError):
        bordered_inv(A, w0, q, p, q + np.array([0.5, 0.0]))


def test_refine_gh_bazykin():
    bm = builtin("bazykin-khibnik")
    gh = refine_gh(bm.model, bm.x_guess, np.array([0.26, 0.13]), 0.35,
                   backend="exact", exact_factory=bm.exact_factory)
    assert np.allclose(gh.alpha0, [0.25, 0.125], atol=1e-8)
    assert abs(gh.omega0 - np.sqrt(2.0) / 4.0) < 1e-9


def test_refine_gh_from_solution_is_cheap(bk_pack):
    gh0 = bk_pack.gh
    gh = refine_gh(bk_pack.model, gh0.x0, gh0.alpha0, gh0.omega0,
                   backend="exact", exact_factory=bk_pack.bm.exact_factory)
    assert np.allclose(gh.alpha0, gh0.alpha0, atol=1e-12)


def test_refine_gh_lorenz():
    bm = builtin("lorenz84")
    gh = refine_gh(bm.model, bm.x_guess, bm.alpha_guess, bm.omega_guess,
                   backend="exact", exact_factory=bm.exact_factory)
    assert np.allclose(gh.alpha0, [2.3763, 0.05019], atol=5e-5)
    assert abs(gh.omega0 - 0.690367) < 1e-5


def test_equilibrium_solver():
    bm = builtin("bazykin-khibnik")
    x = equilibrium(bm.model, np.array([0.3, 0.4]), np.array([0.25, 0.125]))
    assert np.allclose(x, [0.25, 0.5], atol=1e-10)


def test_eigenpair_ambiguity_errors():
    from ghlpc.errors import AmbiguousEigenvalueError

    with pytest.raises(AmbiguousEigenvalueError):
        hopf_eigenpair(np.diag([-1.0, -2.0]), 1.0)  # no complex pair at all
    # two coincident pairs: not well separated
    A = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    with pytest.raises(AmbiguousEigenvalueError):
        hopf_eigenpair(A, 1.0)
    # pair far from the requested window
    with pytest.raises(AmbiguousEigenvalueError):
        hopf_eigenpair(np.array([[0.0, -9.0], [9.0, 0.0]]), 0.3)


@pytest.mark.parametrize("fail_from", [3, 6])
def test_refine_gh_line_search_all_trials_fail(monkeypatch, fail_from):
    # from a 1 % guess each Newton step costs 3 Lyapunov evaluations before
    # its line search: failing from call 3 hits the first step's trials,
    # from call 6 the second step's, after one accepted step
    from ghlpc import ghode

    real = ghode.first_lyapunov
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) > fail_from:
            raise ConvergenceError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(ghode, "first_lyapunov", flaky)
    bm = builtin("bazykin-khibnik")
    with pytest.raises(ConvergenceError, match="every line-search trial failed"):
        refine_gh(bm.model, bm.x_guess, np.array([0.26, 0.13]) * 1.01, 0.35,
                  backend="exact", exact_factory=bm.exact_factory)
