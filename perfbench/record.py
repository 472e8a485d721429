"""Record the benchmark's reference outputs and failure survey.

    python3 perfbench/record.py

Run from the root of a source checkout.  Writes

* ``perfbench/reference.json``: ``coeffs --backend exact`` and
  ``predict --order both`` outputs of every builtin from its default guess,
  which the benchmark's output checks compare against;
* the ``failure_survey`` entry of ``perfbench/baseline.json``: for 20 seeded
  2 %-perturbed guesses per builtin and backend, how many ``coeffs`` calls
  succeed, miss a pinned reference, or fail and why; and what a non-numeric
  ``--gh-guess`` token does.

Both describe the commit they are recorded at; re-record them only on purpose.
"""

from __future__ import annotations

import json
import re
import shutil
import sys

import run  # sets up the import path of the checkout's sources

SURVEY_SEED = 0
SURVEY_GUESSES = 20
BASELINE = run.HERE / "baseline.json"


def _outputs(caller, argv: list[str], files: list[str]) -> dict:
    out = run.WORK / "record"
    shutil.rmtree(out, ignore_errors=True)
    rc, _, err = caller.call([*argv, "--out", str(out)])
    if rc != 0:
        raise RuntimeError(f"{argv} exited {rc}: {err}")
    return {f: run.checks.flatten(json.loads((out / f).read_text())) for f in files}


def reference() -> dict:
    caller = run.Caller(cli=False)
    ref = {"coeffs": {}, "predict": {}}
    for b in run.BUILTINS:
        got = _outputs(caller, ["coeffs", "--builtin", b, "--backend", "exact"],
                       ["coeffs.json"])
        ref["coeffs"][b] = got["coeffs.json"]
        got = _outputs(caller, ["predict", "--builtin", b, "--order", "both"],
                       ["predictor_first.json", "predictor_higher.json"])
        ref["predict"][b] = {o: got[f"predictor_{o}.json"] for o in ("first", "higher")}
    return ref


def survey() -> dict:
    caller = run.Caller(cli=False)
    guesses = run.Guesses(SURVEY_SEED)
    out = run.WORK / "record"
    result = {"seed": SURVEY_SEED, "radius": run.RADIUS, "guesses": SURVEY_GUESSES}
    for backend in ("exact", "jets"):
        for b in run.BUILTINS:
            tally = {"ok": 0, "pin_miss": 0, "exit1": 0, "exit2": 0, "exit3": 0,
                     "messages": {}}
            for i in range(SURVEY_GUESSES):
                shutil.rmtree(out, ignore_errors=True)
                rc, _, err = caller.call(["coeffs", "--builtin", b, "--backend", backend,
                                          "--gh-guess", guesses.text(b, i, 0),
                                          "--out", str(out)])
                if rc == 0:
                    tally["ok"] += 1
                    data = json.loads((out / "coeffs.json").read_text())
                    tally["pin_miss"] += bool(run.checks.pins(b, backend, data))
                    continue
                tally[f"exit{rc}"] += 1
                msg = re.sub(r"[-+]?\d\.\d+e[-+]\d+", "<num>", err.strip().splitlines()[-1])
                tally["messages"][msg] = tally["messages"].get(msg, 0) + 1
            result[f"{backend}/{b}"] = tally
    rc, _, err = caller.call(["coeffs", "--builtin", "bazykin-khibnik", "--gh-guess",
                              "x=0.26,abc,alpha=0.26,0.13,omega=0.35",
                              "--out", str(out)])
    result["non_numeric_token"] = {"exit": rc, "last_line": err.strip().splitlines()[-1]}
    return result


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(run.SRC))
    run.checks.REFERENCE.write_text(json.dumps(reference(), sort_keys=True) + "\n")
    base = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    base["failure_survey"] = survey()
    BASELINE.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
