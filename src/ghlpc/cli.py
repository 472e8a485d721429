"""Command-line front end: coefficient reports, predictor tables, verification.

    ghlpc coeffs   --builtin bazykin-khibnik --out results/
    ghlpc predict  --builtin lorenz84 --order both --eps-min 0.01 --eps-max 0.3
    ghlpc verify   --builtin fhn-dde
    ghlpc residual --builtin fhn-dde --order higher

Structured results are JSON (schema 1, complex numbers as {"re": .., "im": ..});
plot-ready tables are CSV.  Exit codes: 0 success, 2 domain or numeric error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dde as ddemod
from .errors import DomainError, GhlpcError, ModelError
from .ghode import make_ode_context, run_critical
from .ghode_params import param_coeffs
from .linode import refine_gh
from .models import builtin, builtin_names, load_model_file
from .predictor import collect, predict
from .verify import convergence_study, dde_residual

SCHEMA = 1


@dataclass
class RunConfig:
    command: str
    model_path: str | None
    builtin_name: str | None
    gh_guess: dict | None
    eps_min: float
    eps_max: float
    eps_count: int
    order: str
    out: Path
    backend: str
    n_psi: int


def _cplx(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return [_jsonify(z) for z in obj.tolist()]
        return obj.tolist()
    if isinstance(obj, complex):
        return _cplx(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_json(path: Path, payload: dict) -> None:
    payload = {"schema": SCHEMA, **payload}
    path.write_text(json.dumps(_jsonify(payload), sort_keys=True, indent=2) + "\n")


def _guess_number(tok: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ModelError(f"--gh-guess: {tok.strip()!r} is not a number") from None


def _parse_gh_guess(text: str) -> dict:
    """Parse the x=v1,v2,...,alpha=a1,a2,omega=w guess grammar."""
    out: dict = {}
    fields: dict = {}
    current = None
    for tok in text.split(","):
        if "=" in tok:
            name, val = tok.split("=", 1)
            current = name.strip()
            if current not in ("x", "alpha", "omega"):
                raise ModelError(f"--gh-guess: unknown field {current!r}")
            fields[current] = [_guess_number(val)]
        elif current is None:
            raise ModelError(f"--gh-guess: {tok.strip()!r} comes before x=, alpha= or omega=")
        else:
            fields[current].append(_guess_number(tok))
    if "alpha" not in fields or "omega" not in fields:
        raise ModelError("--gh-guess needs alpha=a1,a2 and omega=w (and x=... for ODEs)")
    if len(fields["alpha"]) != 2 or len(fields["omega"]) != 1:
        raise ModelError("--gh-guess needs two alpha values and one omega value")
    out["alpha"] = np.array(fields["alpha"], dtype=float)
    out["omega"] = float(fields["omega"][0])
    out["x"] = np.array(fields["x"], dtype=float) if "x" in fields else None
    return out


def _setup(cfg: RunConfig):
    """Load the model, refine the generalized Hopf point, run the pipeline."""
    if cfg.builtin_name is not None:
        bm = builtin(cfg.builtin_name)
        model = bm.model
        exact = bm.exact_factory if cfg.backend == "exact" else None
        x_g, a_g, w_g = bm.x_guess, bm.alpha_guess, bm.omega_guess
    else:
        model = load_model_file(cfg.model_path)
        if cfg.backend == "exact":
            raise ModelError("the exact backend is only available for builtins")
        exact = None
        if cfg.gh_guess is None:
            raise ModelError("--gh-guess is required with --model")
        x_g = cfg.gh_guess["x"]
        a_g, w_g = cfg.gh_guess["alpha"], cfg.gh_guess["omega"]
        if x_g is None:
            x_g = np.zeros(model.n)
    if cfg.gh_guess is not None and cfg.builtin_name is not None:
        a_g, w_g = cfg.gh_guess["alpha"], cfg.gh_guess["omega"]
        if cfg.gh_guess["x"] is not None:
            x_g = cfg.gh_guess["x"]
    if len(x_g) != model.n:
        raise ModelError(f"--gh-guess gives {len(x_g)} x values, the model has {model.n} states")
    backend = cfg.backend
    if model.is_dde:
        gh = ddemod.refine_gh_dde(model, a_g, w_g, x_guess=x_g,
                                  backend=backend, exact_factory=exact)
        crit, pc, ctx = ddemod.dde_coeffs(model, gh, backend=backend,
                                          exact_factory=exact)
    else:
        gh = refine_gh(model, x_g, a_g, w_g, backend=backend, exact_factory=exact)
        ctx = make_ode_context(model, gh, backend, exact)
        crit = run_critical(ctx)
        pc = param_coeffs(ctx, crit)
    return collect(gh, crit, pc, ctx, model=model)


def _coeff_payload(cs) -> dict:
    crit, pc = cs.crit, cs.pc
    h_table = {}
    for (n, m, k, l), vec in sorted(cs.Hv.items()):
        entry = {"value": vec}
        full = cs.Hfull[(n, m, k, l)]
        if hasattr(full, "poly"):
            entry["rate"] = complex(full.rate)
            entry["poly"] = [np.asarray(a) for a in full.poly]
        h_table[f"H{n}{m}{k}{l}"] = entry
    return {
        "kind": cs.kind,
        "gh_point": {
            "x0": cs.x0, "alpha0": cs.alpha0, "omega0": cs.omega0, "q": cs.q,
        },
        "c1": crit.c1, "c2": crit.c2, "c3": crit.c3,
        "l1": crit.l1, "l2": crit.l2,
        "g3201": pc.g3201, "a3201": pc.a3201,
        "K": {mu: pc.K[mu] for mu in pc.K},
        "b1": pc.b1, "b2": pc.b2,
        "P": pc.P, "cond_P": pc.cond_P,
        "H": h_table,
    }


def cmd_coeffs(cfg: RunConfig) -> int:
    cs = _setup(cfg)
    cfg.out.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.out / "coeffs.json", _coeff_payload(cs))
    print(f"coeffs: l2 = {cs.crit.l2:.9g}, a3201 = {cs.pc.a3201:.9g} "
          f"-> {cfg.out / 'coeffs.json'}")
    return 0


def _eps_grid(cfg: RunConfig, default=None) -> np.ndarray | None:
    """The eps grid of the command; also rejects a bad sampling before refinement."""
    if cfg.n_psi < 1:
        raise DomainError(f"--n-psi must be at least 1, got {cfg.n_psi}")
    if cfg.eps_min is None and cfg.eps_max is None and cfg.eps_count is None:
        return default
    lo = 5e-3 if cfg.eps_min is None else cfg.eps_min
    hi = 0.3 if cfg.eps_max is None else cfg.eps_max
    n = 12 if cfg.eps_count is None else cfg.eps_count
    if n < 1:
        raise DomainError(f"--eps-count must be at least 1, got {n}")
    if not 0.0 < lo <= hi:
        raise DomainError(f"need 0 < eps-min <= eps-max, got {lo:g} and {hi:g}")
    return np.geomspace(lo, hi, n)


def cmd_predict(cfg: RunConfig) -> int:
    eps = _eps_grid(cfg, default=np.geomspace(5e-3, 0.3, 12))
    cs = _setup(cfg)
    cfg.out.mkdir(parents=True, exist_ok=True)
    orders = ["first", "higher"] if cfg.order == "both" else [cfg.order]
    for order in orders:
        curve = predict(cs, eps, order=order, n_psi=cfg.n_psi)
        base = cfg.out / f"predictor_{order}"
        with open(base.with_suffix(".csv"), "w", newline="") as fh:
            wtr = csv.writer(fh)
            wtr.writerow(["eps", "beta1", "beta2", "alpha1", "alpha2", "T"])
            for i, e in enumerate(curve.eps):
                wtr.writerow([e, *curve.beta[i], *curve.alpha[i], curve.period[i]])
        with open(base.parent / f"orbit_{order}.csv", "w", newline="") as fh:
            wtr = csv.writer(fh)
            wtr.writerow(["eps", "psi"] + [f"x{i+1}" for i in range(cs.x0.size)])
            for i, e in enumerate(curve.eps):
                for j, psi in enumerate(curve.psi):
                    wtr.writerow([e, psi, *curve.orbit[i, j]])
        _write_json(base.with_suffix(".json"), {
            "order": order, "eps": curve.eps, "beta": curve.beta,
            "alpha": curve.alpha, "T": curve.period,
        })
        print(f"predict[{order}]: {len(eps)} samples -> {base}.csv")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    eps = _eps_grid(cfg, default=None)
    cs = _setup(cfg)
    cfg.out.mkdir(parents=True, exist_ok=True)
    rep = convergence_study(cs, eps, n_psi=cfg.n_psi)
    with open(cfg.out / "convergence.csv", "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(["eps", "error_first", "error_higher", "converged"])
        for i, e in enumerate(rep.eps):
            wtr.writerow([e, rep.errors_first[i], rep.errors_higher[i],
                          rep.converged[i]])
    _write_json(cfg.out / "convergence.json", {
        "kind": rep.kind, "metric": rep.metric, "eps": rep.eps,
        "errors_first": rep.errors_first, "errors_higher": rep.errors_higher,
        "slope_first": rep.slope_first, "slope_higher": rep.slope_higher,
        "fit_residual_first": rep.fit_residual_first,
        "fit_residual_higher": rep.fit_residual_higher,
        "converged": rep.converged,
    })
    print(f"verify: slope_first = {rep.slope_first:.3f}, "
          f"slope_higher = {rep.slope_higher:.3f} -> {cfg.out / 'convergence.json'}")
    return 0


def cmd_residual(cfg: RunConfig) -> int:
    eps = _eps_grid(cfg, default=np.geomspace(5e-3, 0.3, 12))
    cs = _setup(cfg)
    if cs.kind != "dde":
        raise ModelError("the residual command applies to DDE models")
    cfg.out.mkdir(parents=True, exist_ok=True)
    orders = ["first", "higher"] if cfg.order == "both" else [cfg.order]
    rows = []
    psi = np.linspace(0.0, 2.0 * np.pi, cfg.n_psi, endpoint=False)
    from .predictor import beta_of_eps, k_of_beta, orbit_of_eps, period_of_eps
    for e in eps:
        row = {"eps": e}
        for order in orders:
            beta = beta_of_eps(cs.crit, cs.pc, e, order)
            alpha = cs.alpha0 + k_of_beta(cs.pc, beta, order)
            T = period_of_eps(cs.crit, cs.pc, e, order)
            orb = orbit_of_eps(cs, e, psi, beta=beta, order=order)
            row[order] = dde_residual(cs.model, alpha, T, orb)
        rows.append(row)
    with open(cfg.out / "residual.csv", "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(["eps"] + orders)
        for row in rows:
            wtr.writerow([row["eps"]] + [row[o] for o in orders])
    _write_json(cfg.out / "residual.json", {"rows": rows})
    print(f"residual: {len(rows)} samples -> {cfg.out / 'residual.csv'}")
    return 0


_COMMANDS = {
    "coeffs": cmd_coeffs,
    "predict": cmd_predict,
    "verify": cmd_verify,
    "residual": cmd_residual,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ghlpc",
        description="LPC-curve predictors at generalized Hopf points",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--model", help="path to a .ghm model file")
        g.add_argument("--builtin", choices=builtin_names())
        p.add_argument("--gh-guess", help="x=v1,..,alpha=a1,a2,omega=w")
        p.add_argument("--eps-min", type=float, default=None)
        p.add_argument("--eps-max", type=float, default=None)
        p.add_argument("--eps-count", type=int, default=None)
        p.add_argument("--order", choices=["first", "higher", "both"],
                       default="higher")
        p.add_argument("--out", default="ghlpc-out")
        p.add_argument("--backend", choices=["jets", "exact"], default="jets")
        p.add_argument("--n-psi", type=int, default=64)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(
            command=args.command,
            model_path=args.model,
            builtin_name=args.builtin,
            gh_guess=_parse_gh_guess(args.gh_guess) if args.gh_guess else None,
            eps_min=args.eps_min,
            eps_max=args.eps_max,
            eps_count=args.eps_count,
            order=args.order,
            out=Path(args.out),
            backend=args.backend,
            n_psi=args.n_psi,
        )
        return _COMMANDS[args.command](cfg)
    except GhlpcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
