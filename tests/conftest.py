import numpy as np
import pytest

from ghlpc.dde import dde_coeffs, gh_point_dde_at, refine_gh_dde
from ghlpc.ghode import make_ode_context, run_critical
from ghlpc.ghode_params import param_coeffs
from ghlpc.linode import refine_gh
from ghlpc.models import builtin
from ghlpc.predictor import collect


class Pack:
    """One fully computed pipeline run for a builtin model."""

    def __init__(self, bm, gh, ctx, crit, pc, cs):
        self.bm = bm
        self.model = bm.model
        self.gh = gh
        self.ctx = ctx
        self.crit = crit
        self.pc = pc
        self.cs = cs


def _ode_pack(name, backend):
    bm = builtin(name)
    exact = bm.exact_factory if backend == "exact" else None
    gh = refine_gh(bm.model, bm.x_guess, bm.alpha_guess, bm.omega_guess,
                   backend=backend, exact_factory=exact)
    ctx = make_ode_context(bm.model, gh, backend, exact)
    crit = run_critical(ctx)
    pc = param_coeffs(ctx, crit)
    return Pack(bm, gh, ctx, crit, pc, collect(gh, crit, pc, ctx, model=bm.model))


@pytest.fixture(scope="session")
def bk_pack():
    return _ode_pack("bazykin-khibnik", "exact")


@pytest.fixture(scope="session")
def bk_pack_jets():
    return _ode_pack("bazykin-khibnik", "jets")


@pytest.fixture(scope="session")
def l84_pack():
    return _ode_pack("lorenz84", "jets")


@pytest.fixture(scope="session")
def l84_pack_exact():
    return _ode_pack("lorenz84", "exact")


@pytest.fixture(scope="session")
def fhn_pack():
    bm = builtin("fhn-dde")
    gh = refine_gh_dde(bm.model, bm.alpha_guess, bm.omega_guess,
                       backend="exact", exact_factory=bm.exact_factory)
    crit, pc, ctx = dde_coeffs(bm.model, gh, backend="exact",
                               exact_factory=bm.exact_factory)
    return Pack(bm, gh, ctx, crit, pc, collect(gh, crit, pc, ctx, model=bm.model))


@pytest.fixture(scope="session")
def bk_dde_pack(bk_pack):
    """Bazykin-Khibnik pushed through the DDE pipeline (no extra delays)."""
    bm = bk_pack.bm
    gh = bk_pack.gh
    ghd = gh_point_dde_at(bm.model, gh.alpha0, gh.omega0, x_guess=gh.x0)
    crit, pc, ctx = dde_coeffs(bm.model, ghd, backend="exact",
                               exact_factory=bm.exact_factory)
    return Pack(bm, ghd, ctx, crit, pc, collect(ghd, crit, pc, ctx, model=bm.model))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20230817)
