import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ghlpc
from ghlpc.cli import main


def test_coeffs_json_schema_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["coeffs", "--builtin", "bazykin-khibnik", "--backend", "exact"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1 = (out1 / "coeffs.json").read_bytes()
    b2 = (out2 / "coeffs.json").read_bytes()
    assert b1 == b2  # deterministic phase fix -> byte-identical output
    data = json.loads(b1)
    assert data["schema"] == 1
    assert abs(data["l2"] - (-1.986494770740791)) < 1e-9
    assert data["c1"].keys() == {"re", "im"}
    assert "H2100" in data["H"]


def test_predict_csv_layout(tmp_path):
    out = tmp_path / "p"
    rc = main([
        "predict", "--builtin", "bazykin-khibnik", "--backend", "exact",
        "--order", "both", "--eps-min", "0.01", "--eps-max", "0.2",
        "--eps-count", "6", "--n-psi", "16", "--out", str(out),
    ])
    assert rc == 0
    for order in ("first", "higher"):
        lines = (out / f"predictor_{order}.csv").read_text().strip().split("\n")
        assert lines[0] == "eps,beta1,beta2,alpha1,alpha2,T"
        eps = [float(l.split(",")[0]) for l in lines[1:]]
        assert eps == sorted(eps) and len(eps) == 6
        for line in lines[1:]:
            assert np.all(np.isfinite([float(v) for v in line.split(",")]))
    # both orders share the eps grid
    a = (out / "predictor_first.csv").read_text().split("\n")[1].split(",")[0]
    b = (out / "predictor_higher.csv").read_text().split("\n")[1].split(",")[0]
    assert a == b


def test_malformed_model_exit_code(tmp_path):
    bad = tmp_path / "bad.ghm"
    bad.write_text("state x\nparam a b\ndx = x + * 2\n")
    rc = main(["coeffs", "--model", str(bad),
               "--gh-guess", "x=0,alpha=0,0,omega=1", "--out", str(tmp_path)])
    assert rc == 2


def test_residual_requires_dde(tmp_path):
    rc = main(["residual", "--builtin", "bazykin-khibnik", "--backend",
               "exact", "--out", str(tmp_path)])
    assert rc == 2


def test_user_model_file_roundtrip(tmp_path):
    # run the jets backend on a user-supplied copy of the builtin model
    from ghlpc.models import _load_text
    path = tmp_path / "bk.ghm"
    path.write_text(_load_text("bazykin_khibnik.ghm"))
    out = tmp_path / "o"
    rc = main([
        "coeffs", "--model", str(path),
        "--gh-guess", "x=0.26,0.45,alpha=0.26,0.13,omega=0.35",
        "--out", str(out),
    ])
    assert rc == 0
    data = json.loads((out / "coeffs.json").read_text())
    assert abs(data["l2"] - (-1.986494770740791)) < 1e-6


@pytest.mark.parametrize("builtin, argv, message", [
    ("bazykin-khibnik", ["--gh-guess", "x=0.26,0.45,alpha=0.26,abc,omega=0.35"],
     "'abc' is not a number"),
    ("bazykin-khibnik", ["--gh-guess", "9,alpha=0.26,0.13,omega=0.35"], "'9' comes before"),
    ("bazykin-khibnik", ["--gh-guess", "alpha=0.26,0.13,omega=0.35,beta=1"], "unknown field"),
    ("bazykin-khibnik", ["--gh-guess", "alpha=0.26,omega=0.35"], "two alpha values"),
    ("bazykin-khibnik", ["--gh-guess", "x=0.26,0.45,0.9,alpha=0.26,0.13,omega=0.35"],
     "3 x values"),
    ("bazykin-khibnik", ["--eps-max", "5"], "too large"),
    ("lorenz84", ["--eps-max", "5"], "orbit not real"),
    ("bazykin-khibnik", ["--eps-count", "0"], "--eps-count"),
    ("bazykin-khibnik", ["--eps-min", "0"], "eps-min"),
    ("bazykin-khibnik", ["--eps-min", "0.3", "--eps-max", "0.1"], "eps-min"),
    ("bazykin-khibnik", ["--n-psi", "0"], "--n-psi"),
    ("bazykin-khibnik", ["--n-psi", "-4"], "--n-psi"),
])
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, builtin, argv, message):
    rc = main(["predict", "--builtin", builtin, *argv, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("command", ["verify", "residual"])
def test_n_psi_below_one_exits_2_before_refinement(tmp_path, capsys, command):
    rc = main([command, "--builtin", "fhn-dde", "--n-psi", "-1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2 and err == "error: --n-psi must be at least 1, got -1\n"


def test_import_does_not_load_scipy():
    # only `verify` integrates; every other command starts without scipy
    code = ("import sys, ghlpc; a = 'scipy' in sys.modules; import ghlpc.cli; "
            "print(a, 'scipy' in sys.modules)")
    src = str(Path(ghlpc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.split() == ["False", "False"]
