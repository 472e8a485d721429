"""ghlpc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout and from nowhere else.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``, with ``--trace 1`` its ``per_layer`` metrics.  The line
before it is a JSON report: the run environment, the seed, every guess used,
per-metric sample counts and the reasons of every rejected guess or failed
check.

Inputs.  One *call* is one ``ghlpc`` command for one builtin; one *pass* is
one call per builtin, all with the same guess index.  The paper's input is a
rough generalized-Hopf guess, so every call passes ``--gh-guess`` with the
builtin defaults times (1 + u), u uniform in [-0.02, 0.02], drawn from the
seed independently per component of x, alpha and omega.  A guess on which the
command exits non-zero is *rejected*: its cause (exit 1 = raw traceback,
2 = GhlpcError, 3 = I/O) is counted and the call is repeated with the next
guess of the same index.  Rejected attempts are not timed, so fixing a
refinement that stalls does not read as a slowdown.  A call whose output
fails its check, or whose guesses are all rejected, is a failed operation.

Workloads (why each exists):
  predict-cli   `python -m ghlpc.cli predict --order both`, one fresh
                interpreter per call: what a CLI user waits for, i.e. imports,
                cold JetSpace tables and the jet form engine.  No integrator,
                no exact engine.
  verify-exact  `verify --backend exact` in-process, after an untimed warm-up
                pass of `coeffs --backend exact`: time goes to solve_ivp in the
                shooting corrector, then to jets.ExactFormEngine.form.  No jets,
                no imports.
Each optimisation of one of these layers has a workload that runs it and one
that does not.  The warm-up calls are checked and counted like the others.

Passes run one after another until starting another one would exceed
``--seconds`` (at least one pass).  ``--trace 1`` alternates traced and
untraced passes (at least one of each) and reports per-layer values per
traced pass, with the tracing overhead against the untraced passes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402

BUILTINS = ("bazykin-khibnik", "lorenz84", "fhn-dde")
RADIUS = 0.02
# guesses per call before the call counts as failed: about half of the
# lorenz84 guesses stall (0.5**10 ~ 1e-3 per call, hit within a few hundred
# calls), so the cap sits where only a near-total stall fails a call
MAX_TRIES = 40
SETUP_SAMPLES = 3       # fresh interpreters timed for setup_s
CHILD_TIMEOUT = 120.0

# warmup: the untimed pass that fills the in-process caches first; `coeffs`
# does that for `verify` at a fifth of its cost and checks the coefficients
WORKLOADS = {
    "predict-cli": dict(argv=["predict", "--order", "both"], cli=True, warmup=None,
                        check=checks.check_predict),
    "verify-exact": dict(argv=["verify", "--backend", "exact"], cli=False,
                         warmup=["coeffs", "--backend", "exact"],
                         check=checks.check_verify),
}
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(cmd: list[str], stderr=subprocess.DEVNULL) -> int:
    """Run a child process to completion (killed after CHILD_TIMEOUT)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=stderr)
    try:
        return proc.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return -9


def measure_setup(samples: int) -> list[float]:
    """Wall time of `import ghlpc.cli` in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import ghlpc.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        if out.returncode != 0:
            raise RuntimeError(f"import ghlpc.cli failed: {out.stderr.strip()}")
        times.append(float(out.stdout.split()[-1]))
    return times


def import_profile() -> dict[str, float]:
    """Per-module import times of a fresh `import ghlpc.cli` (-X importtime)."""
    code = "import sys, ghlpc.cli; print(int('scipy.integrate' in sys.modules))"
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT)
    if out.returncode != 0:
        raise RuntimeError(f"import ghlpc.cli failed: {out.stderr.strip()}")
    self_s, cum_s = {}, {}
    for line in out.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, cum, name = line.split(":", 1)[1].split("|")
        self_s[name.strip()] = int(own) * 1e-6
        cum_s[name.strip()] = int(cum) * 1e-6
    vals = {"import.ghlpc_cli_s": cum_s.get("ghlpc.cli", 0.0),
            "import.scipy_loaded": float(out.stdout.split()[-1]),
            "import.self_s.ghlpc_total": sum(v for k, v in self_s.items()
                                             if k == "ghlpc" or k.startswith("ghlpc."))}
    for mod in ("ghlpc", "ghlpc.cli", "ghlpc.dde", "ghlpc.errors", "ghlpc.ghode",
                "ghlpc.ghode_params", "ghlpc.jets", "ghlpc.linode", "ghlpc.modeldsl",
                "ghlpc.models", "ghlpc.predictor", "ghlpc.terms", "ghlpc.verify",
                "scipy.integrate", "numpy"):
        vals[f"import.self_s.{mod}"] = self_s.get(mod, 0.0)
    for mod in ("scipy.integrate", "numpy"):
        vals[f"import.cum_s.{mod}"] = cum_s.get(mod, 0.0)
    return vals


class Guesses:
    """Seeded rough GH guesses: index i, try j, per builtin."""

    def __init__(self, seed: int):
        from ghlpc.models import builtin

        self.seed = seed
        self.defaults = {b: builtin(b) for b in BUILTINS}

    def text(self, b: str, i: int, j: int) -> str:
        import numpy as np

        bm = self.defaults[b]
        rng = np.random.default_rng([self.seed, BUILTINS.index(b), i, j])
        x = bm.x_guess * (1.0 + rng.uniform(-RADIUS, RADIUS, bm.x_guess.size))
        alpha = bm.alpha_guess * (1.0 + rng.uniform(-RADIUS, RADIUS, 2))
        omega = bm.omega_guess * (1.0 + rng.uniform(-RADIUS, RADIUS))
        nums = lambda v: ",".join(repr(float(t)) for t in v)  # noqa: E731
        return f"x={nums(x)},alpha={nums(alpha)},omega={omega!r}"


class Caller:
    """Runs one ghlpc command in-process or in a fresh interpreter."""

    def __init__(self, cli: bool):
        self.cli = cli
        self.rec = None          # Recorder of the current traced pass
        self.undo = None
        self.dumps: list[dict] = []   # spans and counts of traced calls or passes
        self.traced_call_s = 0.0      # wall time of all traced calls

    def trace(self, rec) -> None:
        self.rec = rec
        if rec is not None and not self.cli:
            self.undo, missing = tracer.install(rec)
            for target in missing:
                rec.count("missing:" + target)

    def untrace(self) -> None:
        if self.undo is not None:
            tracer.uninstall(self.undo)
            self.dumps.append(self.rec.dump())
        self.undo = None
        self.rec = None

    def call(self, argv: list[str]) -> tuple[int, float, str]:
        if self.rec is not None:
            self.rec.call_id += 1
        rc, wall, err = self._call_child(argv) if self.cli else self._call_here(argv)
        if self.rec is not None:
            self.traced_call_s += wall
        return rc, wall, err

    def _call_here(self, argv):
        import traceback

        from ghlpc import cli

        buf = io.StringIO()
        gc.collect()    # start each call from a collected heap, as a fresh process would
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:   # a raw traceback is what the user would see
            rc = 1
            buf.write(traceback.format_exc())
        return rc, time.perf_counter() - t0, buf.getvalue()

    def _call_child(self, argv):
        spans = WORK / "spans.json"
        if self.rec is None:
            cmd = [sys.executable, "-m", "ghlpc.cli", *argv]
        else:
            spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "child.py"), str(spans), *argv]
        err = WORK / "stderr.txt"
        with open(err, "w") as fh:
            t0 = time.perf_counter()
            rc = run_child(cmd, stderr=fh)
            wall = time.perf_counter() - t0
        if self.rec is not None and spans.is_file():
            self.dumps.append(json.loads(spans.read_text()))
        return rc, wall, err.read_text()


class Stats:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tries = 0
        self.rejected = {1: 0, 2: 0, 3: 0, "other": 0}
        self.pin_missed_calls = 0
        self.notes: list[str] = []      # rejections, problems, pin misses
        self.guesses: list[dict] = []
        self.call_s = {b: [] for b in BUILTINS}
        self.pass_s: list[float] = []


def run_pass(wl: dict, caller: Caller, guesses: Guesses, i: int, stats: Stats,
             reference: dict, timed: bool) -> float:
    """One call per builtin with guess index i; returns the accepted calls' time."""
    out = WORK / "out"
    total = 0.0
    for b in BUILTINS:
        for j in range(MAX_TRIES):
            g = guesses.text(b, i, j)
            shutil.rmtree(out, ignore_errors=True)
            rc, wall, err = caller.call([wl["argv"][0], "--builtin", b, "--gh-guess", g,
                                         "--out", str(out), *wl["argv"][1:]])
            stats.tries += 1
            stats.guesses.append({"builtin": b, "index": i, "try": j, "guess": g,
                                  "exit": rc})
            if rc == 0:
                break
            stats.rejected[rc if rc in (1, 2, 3) else "other"] += 1
            last = err.strip().splitlines()[-1] if err.strip() else ""
            stats.notes.append(f"rejected {b} [{i}.{j}] exit {rc}: {last}")
        else:
            stats.attempted += 1
            stats.failed += 1
            stats.notes.append(f"failed {b} [{i}]: all {MAX_TRIES} guesses rejected")
            continue
        problems, misses = wl["check"](out, b, reference)
        stats.attempted += 1
        stats.notes += [f"problem {b} [{i}]: {p}" for p in problems]
        stats.notes += [f"pin miss {b} [{i}]: {m}" for m in misses]
        stats.pin_missed_calls += bool(misses)
        total += wall
        if problems:
            stats.failed += 1
        elif timed:
            stats.call_s[b].append(wall)
    return total


def percentile_entry(samples: list[float]):
    """Highest percentile with at least 10 samples beyond it, if any."""
    n = len(samples)
    p = int(100 * (n - 10) / n) if n > 10 else 0
    if p <= 50:
        return None
    return f"p{p}", statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
        "seed": seed,
        "radius": RADIUS,
    }


def layer_metrics(dumps: list[dict], n_passes: int, workload: str, call_time: float):
    """Per-pass per-layer values from the recorded spans and counters."""
    agg, counts = {}, {}
    for d in dumps:
        for name, vals in tracer.self_times(d["spans"]).items():
            agg[name] = [a + b for a, b in zip(agg.get(name, [0, 0.0, 0.0]), vals)]
        for k, v in d["counts"].items():
            counts[k] = counts.get(k, 0.0) + v
    per = 1.0 / max(n_passes, 1)
    vals = {}

    def calls(name):
        return agg.get(name, [0, 0.0, 0.0])[0] * per

    def self_s(name):
        return agg.get(name, [0, 0.0, 0.0])[1] * per

    def cnt(name):
        return counts.get(name, 0.0) * per

    for name in ("cli.main", "modeldsl.parse_model", "modeldsl.compile",
                 "modeldsl.eval_model", "jets.FormEngine.form",
                 "jets.ExactFormEngine.form", "linode.refine_gh", "linode.equilibrium",
                 "dde.refine_gh_dde", "dde.dde_coeffs", "dde.resolvent_case",
                 "dde.bordered_inv_dde", "ghode.run_critical", "ghode.contract",
                 "ghode.solve", "ghode_params.param_coeffs", "predictor.collect",
                 "predictor.predict", "predictor.orbit_of_eps",
                 "verify.convergence_study", "verify.correct_lpc", "verify.integrate",
                 "verify.solve_ivp.first", "verify.solve_ivp.second",
                 "verify.dde_residual"):
        vals[f"{name}.calls"] = calls(name)
        vals[f"{name}.self_s"] = self_s(name)
    for name in ("linode.bordered_solve", "ghode.first_lyapunov",
                 "dde.first_lyapunov_dde"):
        vals[f"{name}.calls"] = calls(name)
    for name in ("linode.refine_gh", "dde.refine_gh_dde", "verify.correct_lpc"):
        vals[f"{name}.failed"] = cnt(name + ".failed")
    for name in ("modeldsl.evals.rhs", "modeldsl.evals.jac", "modeldsl.evals.hess",
                 "jets.passes", "jets.exact.partials_calls", "ghode.contract.terms",
                 "verify.correct_lpc.newton_its", "verify.solve_ivp.first.nfev",
                 "verify.solve_ivp.second.nfev"):
        vals[name] = cnt(name)
    vals["jets.JetSpace.builds"] = calls("jets.JetSpace")
    vals["jets.JetSpace.build_s"] = agg.get("jets.JetSpace", [0, 0.0, 0.0])[2] * per
    forms = vals["jets.FormEngine.form.calls"]
    vals["jets.pass_reuse_ratio"] = 1.0 - vals["jets.passes"] / forms if forms else 0.0
    lpc = vals["verify.correct_lpc.calls"]
    vals["verify.correct_lpc.converged_ratio"] = (
        1.0 - vals["verify.correct_lpc.failed"] / lpc if lpc else 0.0)

    # share of the traced calls' wall time (rejected guesses included) that
    # the spans account for, and the share of the largest layer
    covered = sum(a[1] for a in agg.values())
    top = max((a[1] for a in agg.values()), default=0.0)
    vals["trace.coverage"] = covered / call_time if call_time else 0.0
    vals["trace.top_self_share"] = top / call_time if call_time else 0.0

    missing = sorted(k.split(":", 1)[1] for k in counts if k.startswith("missing:"))
    missing = sorted(set(missing))
    for target, _, expected in tracer.WRAPPERS:
        if workload in expected and target not in missing \
                and not counts.get("hit:" + target):
            missing.append(f"{target} (no calls)")
    vals["trace.missing_wrappers"] = float(len(missing))
    layers = sorted(((n, a[1] * per) for n, a in agg.items()), key=lambda t: -t[1])
    return vals, missing, [(n, round(s, 4)) for n, s in layers[:8]]


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    wl = WORKLOADS[workload]
    WORK.mkdir(exist_ok=True)
    setup = measure_setup(SETUP_SAMPLES)
    guesses = Guesses(seed)
    caller = Caller(wl["cli"])
    stats = Stats()
    reference = json.loads(checks.REFERENCE.read_text())
    if wl["warmup"]:
        warm = dict(argv=wl["warmup"], check=checks.check_coeffs)
        run_pass(warm, caller, guesses, 0, stats, reference, timed=False)
    busy = {True: [], False: []}    # accepted-call time per pass, by traced
    walls = []
    t_start = time.perf_counter()
    i = 1
    while True:
        trace_this = traced and len(busy[True]) <= len(busy[False])
        caller.trace(tracer.Recorder() if trace_this else None)
        t0 = time.perf_counter()
        try:
            busy[trace_this].append(run_pass(wl, caller, guesses, i, stats, reference,
                                             timed=not trace_this))
        finally:
            caller.untrace()
        walls.append(time.perf_counter() - t0)
        i += 1
        elapsed = time.perf_counter() - t_start
        need_more = traced and not (busy[True] and busy[False])
        if not need_more and elapsed + statistics.median(walls) > seconds:
            break
    stats.pass_s = busy[False]

    if wl["cli"]:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tries = max(stats.tries, 1)
    report = {
        "workload": workload,
        "environment": environment(seed),
        "passes": {"timed": len(busy[False]), "traced": len(busy[True])},
        "samples": {b: len(v) for b, v in stats.call_s.items()},
        "call_s_samples": stats.call_s,
        "pass_s_samples": stats.pass_s,
        "percentiles": {b: percentile_entry(v) for b, v in stats.call_s.items()},
        "setup_samples_s": setup,
        "rejected": {str(k): v for k, v in stats.rejected.items()},
        "tries": stats.tries,
        "pin_missed_calls": stats.pin_missed_calls,
        "notes": stats.notes,
        "guesses": stats.guesses,
    }
    correct = stats.failed == 0
    if not traced:
        metrics = {f"call_s.{b}": (statistics.median(v) if v else None, "s")
                   for b, v in stats.call_s.items()}
        metrics["pass_s"] = (statistics.median(stats.pass_s), "s")
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
        units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    else:
        vals, missing, top = layer_metrics(caller.dumps, len(busy[True]), workload,
                                           caller.traced_call_s)
        vals.update(import_profile())
        vals["failed_ratio"] = stats.failed / max(stats.attempted, 1)
        vals["guess.rejected_ratio"] = sum(stats.rejected.values()) / tries
        vals["guess.raw_traceback_ratio"] = stats.rejected[1] / tries
        vals["check.pin_miss_ratio"] = stats.pin_missed_calls / max(stats.attempted, 1)
        vals["trace.pass_s"] = statistics.median(busy[True])
        vals["trace.overhead_ratio"] = (
            statistics.median(busy[True]) / statistics.median(busy[False]) - 1.0)
        report["missing_wrappers"] = missing
        report["top_self_s_per_pass"] = top
        units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        metrics = {k: (vals.get(k), units[k]) for k in units}
    for name in units:
        if name not in metrics or metrics[name][0] is None:
            correct = False
            report["notes"].append(f"metric {name} has no value")
    return {
        "report": report,
        "result": {
            "correct": correct,
            "attempted": stats.attempted,
            "failed": stats.failed,
            "metrics": {k: {"value": v if v is not None else 0.0, "unit": u}
                        for k, (v, u) in metrics.items() if k in units},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ghlpc" / "cli.py").is_file():
        print(f"error: no ghlpc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ghlpc

    if Path(ghlpc.__file__).resolve().parent != SRC / "ghlpc":
        print(f"error: ghlpc imported from {ghlpc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": out["report"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
