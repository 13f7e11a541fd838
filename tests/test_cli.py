"""Command line interface: subcommands, outputs, manifests, exit codes."""
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from auxsel import Dataset, EmOptions, fit_em_b, loocv_risk, equivalence_gap
from auxsel.cli import DATA_DIR_ENV, _default_wine_path, main
from auxsel.wine import bundled_wine_path

FIXTURES = Path(__file__).parent / "fixtures"
ACCEPT = FIXTURES / "informative_aux.csv"
REJECT = FIXTURES / "independent_aux.csv"


def test_select_accepts_informative_auxiliary(capsys):
    assert main(["select", str(ACCEPT)]) == 0
    out = capsys.readouterr().out
    assert "selected: a1" in out
    assert "aic_xb" in out and "aic_xy" in out


def test_select_rejects_independent_auxiliary(capsys):
    assert main(["select", str(REJECT)]) == 0
    out = capsys.readouterr().out
    assert "selected: y" in out


def test_select_other_criteria(capsys):
    for crit in ("risk", "tic"):
        assert main(["select", str(ACCEPT), "--criterion", crit]) == 0
        out = capsys.readouterr().out
        assert "selected:" in out
        if crit == "risk":
            assert "risk_xb" in out
        else:
            assert "tic" in out


def test_select_explicit_candidates(capsys):
    assert main(["select", str(ACCEPT), "--aux", "a1"]) == 0
    capsys.readouterr()
    assert main(["select", str(ACCEPT), "--aux", "a9"]) == 2
    err = capsys.readouterr().err
    assert "a9" in err
    assert main(["select", str(ACCEPT), "--aux", "b1"]) == 2


def test_select_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["select", str(ACCEPT), "--out", str(out)]) == 0
    capsys.readouterr()
    csv = out / "selection.csv"
    manifest = json.loads((out / "manifest.json").read_text())
    assert csv.exists()
    assert manifest["command"] == "select"
    assert manifest["seed"] == 0
    (entry,) = manifest["outputs"]
    assert entry["path"] == "selection.csv"
    assert entry["sha256"] == hashlib.sha256(csv.read_bytes()).hexdigest()
    header = csv.read_text().splitlines()[0]
    assert header.startswith("candidate,criterion,value")


def test_reproduce_byte_identical_and_worker_invariant(tmp_path, capsys):
    outs = []
    for name, workers in (("r1", "1"), ("r2", "1"), ("r3", "2")):
        out = tmp_path / name
        code = main(
            ["reproduce", "4", "--T", "8", "--n", "60",
             "--workers", workers, "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    capsys.readouterr()
    ref_csv = (outs[0] / "table4.csv").read_bytes()
    ref_md = (outs[0] / "table4.md").read_bytes()
    for out in outs[1:]:
        assert (out / "table4.csv").read_bytes() == ref_csv
        assert (out / "table4.md").read_bytes() == ref_md
    manifest = json.loads((outs[0] / "manifest.json").read_text())
    assert {e["path"] for e in manifest["outputs"]} == {"table4.csv", "table4.md"}
    for e in manifest["outputs"]:
        got = hashlib.sha256((outs[0] / e["path"]).read_bytes()).hexdigest()
        assert e["sha256"] == got


def test_reproduce_table2_runs(tmp_path, capsys):
    out = tmp_path / "t2"
    assert main(["reproduce", "2", "--T", "6", "--n", "60", "--out", str(out)]) == 0
    capsys.readouterr()
    header = (out / "table2.csv").read_text().splitlines()[0]
    assert header == "n,T,excluded,aic_diff,aic_diff_se,risk_diff_2n,risk_diff_2n_se"


def test_reproduce_table5_runs(capsys):
    assert main(["reproduce", "5", "--T", "6", "--n", "60"]) == 0
    out = capsys.readouterr().out
    assert "excess_risk_2n" in out


def test_loocv_matches_library(tmp_path, capsys):
    out = tmp_path / "cv"
    assert main(["loocv", str(ACCEPT), "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "loocv_summary.csv").read_text().splitlines()
    cols = dict(zip(lines[0].split(","), lines[1].split(",")))

    data = Dataset.from_csv(ACCEPT)
    em = EmOptions(seed=0)
    fit = fit_em_b(data, em)
    rep = loocv_risk(data, em, fit=fit)
    gap = equivalence_gap(data, em, fit=fit, report=rep)
    assert cols["cv_value"] == "%.12g" % rep.cv_value
    assert cols["gap"] == "%.12g" % gap
    assert cols["refit_failures"] == str(rep.refit_failures)
    folds = (out / "loocv_folds.csv").read_text().splitlines()
    assert len(folds) == data.n + 1
    assert folds[0] == "index,heldout_g"


def test_loocv_no_latent_flag(capsys):
    assert main(["loocv", str(ACCEPT), "--no-latent", "--aux", "a1"]) == 0
    out = capsys.readouterr().out
    assert "cv_value" in out


def test_fetch_wine_bundled(tmp_path, capsys):
    dest = tmp_path / "w" / "wine.data"
    assert main(["fetch-wine", "--dest", str(dest)]) == 0
    capsys.readouterr()
    assert dest.read_bytes() == bundled_wine_path().read_bytes()


def test_fetch_wine_uses_data_dir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
    assert main(["fetch-wine"]) == 0
    capsys.readouterr()
    assert (tmp_path / "wine.data").exists()
    # and the default path resolution picks it up
    assert _default_wine_path() == tmp_path / "wine.data"
    monkeypatch.delenv(DATA_DIR_ENV)
    assert _default_wine_path() == bundled_wine_path()


def test_fetch_wine_has_no_download_option(tmp_path, capsys):
    # fetch-wine only copies the packaged file; there is no source to pick
    for flag in (["--url", "http://example.invalid/wine.data"], ["--bundled"]):
        with pytest.raises(SystemExit) as exc:
            main(["fetch-wine", "--dest", str(tmp_path / "w.data")] + flag)
        assert exc.value.code == 2
    capsys.readouterr()
    assert not (tmp_path / "w.data").exists()


def test_fetch_wine_unwritable_dest_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    assert main(["fetch-wine", "--dest", str(blocker / "wine.data")]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_codes(tmp_path, capsys):
    assert main(["select", str(tmp_path / "missing.csv")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("y,a1\n1.0\n")
    assert main(["select", str(bad)]) == 2
    const = tmp_path / "const.csv"
    const.write_text("y\n" + "1.0\n" * 30)
    assert main(["select", str(const)]) == 3
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["reproduce", "9"])
    with pytest.raises(SystemExit):
        main([])


ROOT = Path(__file__).resolve().parents[1]


def _checkout_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    return {**os.environ, "PYTHONPATH": path}


def _declared_script(name):
    """The ``module:function`` that ``[project.scripts]`` declares for
    ``name`` in this checkout's ``pyproject.toml``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def _run_version(argv, env=None):
    out = subprocess.run(argv, capture_output=True, text=True, env=env)
    report = (
        f"{argv!r} exited {out.returncode}\n"
        f"stdout: {out.stdout!r}\nstderr: {out.stderr!r}"
    )
    assert out.returncode == 0, report
    assert out.stdout.startswith("auxsel "), report


def test_console_script_version():
    # start the declared entry point the way the installed wrapper does,
    # so the check needs no install
    module, func = _declared_script("auxsel").split(":")
    wrapper = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'auxsel'; sys.exit({func}())"
    )
    _run_version([sys.executable, "-c", wrapper, "--version"], _checkout_env())
    # where the package is installed, the real wrapper must agree
    script = shutil.which("auxsel")
    if script is not None:
        _run_version([script, "--version"])


def _loaded_after_import(package, module):
    """Whether a fresh interpreter has ``module`` loaded after importing
    ``package`` from this checkout."""
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {package}; print({module!r} in sys.modules)"],
        capture_output=True, text=True, check=True, env=_checkout_env(),
    )
    return out.stdout.strip() == "True"


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats adds about 20 MB and a noticeable start-up cost to every
    # process that imports the package, and the package uses none of it
    assert not _loaded_after_import("auxsel", "scipy.stats")


def test_import_loads_no_scipy_module():
    # the runtime is numpy-only: scipy is a test dependency, and loading
    # scipy.linalg alone costs every command a few tenths of a second
    assert not _loaded_after_import("auxsel", "scipy")


def test_cli_import_leaves_urllib_request_unloaded():
    # the command line has no download path, so it needs no HTTP client
    assert not _loaded_after_import("auxsel.cli", "urllib.request")


def test_select_seed_changes_nothing_material(capsys):
    # different EM seeds land on the same optimum for this clear-cut sample
    assert main(["select", str(ACCEPT), "--seed", "5"]) == 0
    out1 = capsys.readouterr().out
    assert main(["select", str(ACCEPT), "--seed", "6"]) == 0
    out2 = capsys.readouterr().out
    assert "selected: a1" in out1 and "selected: a1" in out2
