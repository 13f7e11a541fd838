"""The moved-digit comparer of tools/moved_digits.py."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_checkout_compared_with_itself_moves_nothing(tmp_path):
    out = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "moved_digits.py"), str(ROOT), str(ROOT),
         "--T", "3", "--splits", "1", "--json", str(out)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    rep, wine = report["replicates"], report["wine"]
    # both cases of every replicate, as the sweep workload runs them
    assert rep["replicates"] == 3 and rep["rows"] == 6 and wine["splits"] == 3
    for key in ("criteria", "losses", "theta_y", "theta_x", "beta_b", "cond_I_b"):
        assert rep[key] == 0.0, key
    for key in ("criteria", "gain", "blocks", "cond_I_b"):
        assert wine[key] == 0.0, key
    # the same maxima by criterion, loss and wine candidate
    assert {"aic_xb", "aic_xy", "aic_yb", "aic_yy"} <= rep["criteria_by_key"].keys()
    assert {"x_b", "x_y", "y_b", "y_y"} <= rep["losses_by_key"].keys()
    assert "y" in wine["criteria_by_label"] and "a1" in wine["blocks_by_label"]
    for kind in ("criteria_by_key", "losses_by_key"):
        assert set(rep[kind].values()) == {0.0}, kind
    for kind in ("criteria_by_label", "blocks_by_label", "cond_I_b_by_label"):
        assert set(wine[kind].values()) == {0.0}, kind
    assert rep["selection_flips"] == wine["selection_flips"] == 0
    assert rep["label_swaps"] == wine["label_swaps"] == 0
    assert wine["failure_changes"] == wine["status_changes"] == 0
    files = [sha for run in report["manifests"].values() for sha in run.values()]
    assert len(files) == 5 and all(sha["same"] for sha in files)
    assert "selection flips 0" in done.stdout
    assert "max relative |delta| cond_I_b 0.000e+00" in done.stdout
