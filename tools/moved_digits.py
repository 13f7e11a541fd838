"""Moved-digit report: how far two auxsel checkouts' results differ.

Run from anywhere, naming the root of each checkout:

    python3 tools/moved_digits.py OLD NEW [--T 40] [--n 100] [--splits 5] [--json PATH]

Each checkout's package is imported from its own ``src/`` in a child
process, with OpenBLAS pinned to one thread.  The report covers

* the replicate outcomes of ``--T`` replicates at ``--n`` (seed 0) for
  both cases on shared draws, ``run_replicates(..., cases=(1, 2))`` as
  the benchmark's ``sweep`` workload runs them: criteria, losses, the
  fitted blocks theta_y, theta_x and beta_b, cond(I_b) of each beta_b
  and the selections;
* the wine benchmark's splits (primary columns V1, V7 and V13, the
  protocol's first ``--splits`` splits at seed 0): each candidate's
  criterion value, fitted block and cond(I_b), the held-out gain, the
  candidate failures and the selected candidate;
* the SHA-256 of every output in the manifests of ``reproduce 2``,
  ``select`` and ``loocv`` (the last two on
  ``tests/fixtures/informative_aux.csv`` with ``--aux a1``).

Fitted blocks are compared up to label order: a block's distance is the
smaller of its distances to the other block and to that block with its
components exchanged.  The largest |difference| of each kind is
printed, and for cond(I_b) the largest relative difference; criteria
and losses also by name, and the wine values also by candidate.  ``--json``
also writes the report as JSON.
"""
import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "informative_aux.csv"
WINE_COLUMNS = (1, 7, 13)


# ---------------------------------------------------------------------------
# collection, in a child process that imports one checkout
# ---------------------------------------------------------------------------

def _blocks(params):
    """A fitted block and its label swap, as flat lists."""
    from auxsel.model import flatten

    return [flatten(params).tolist(), flatten(params.swapped()).tolist()]


def _replicates(T, n):
    """Per replicate and case: the outcome, with the cond(I_b) of its b
    fit read at its aic_xb call."""
    from auxsel import simlab

    conds = {}
    aic_xb = simlab.aic_xb

    def recording(data, params, mats):
        conds[id(params)] = mats.cond_I_b
        return aic_xb(data, params, mats)

    config = simlab.ExperimentConfig(n_list=(n,), T=T, seed=0)
    simlab.aic_xb = recording
    try:
        outcomes, excluded = simlab.run_replicates(
            simlab.TrueModelSpec(case=1), n, config, (1, 2))
    finally:
        simlab.aic_xb = aic_xb
    rows = [{"case": case, "criteria": o.criteria, "losses": o.losses,
             "selected": o.selected, "theta_y": _blocks(o.theta_y),
             "theta_x": _blocks(o.theta_x), "beta_b": _blocks(o.beta_b),
             "cond_I_b": conds[id(o.beta_b)]}
            for pair in outcomes for case, o in sorted(pair.items())]
    return {"replicates": len(outcomes), "excluded": excluded, "rows": rows}


def _wine(splits):
    """Per split: criterion value and fitted block of every candidate,
    read at the criterion calls of the split, and the split's result."""
    from auxsel import wine

    seen = {}
    calls = {"aic_xy": wine.aic_xy, "aic_xb": wine.aic_xb}

    def recording(name):
        def record(data, params, mats):
            report = calls[name](data, params, mats)
            seen.setdefault("blocks", []).append(_blocks(params))
            seen.setdefault("conds", []).append(mats.cond_I_b)
            return report
        return record

    def select(reports):
        seen["values"] = {label: rep.value for label, rep in reports.items()}
        return select_auxiliary(reports)

    select_auxiliary = wine.select_auxiliary
    wine.aic_xy, wine.aic_xb = recording("aic_xy"), recording("aic_xb")
    wine.select_auxiliary = select
    config = wine.WineConfig(csv_path=str(wine.bundled_wine_path()))
    raw = wine.load_wine(config.csv_path)
    rows = []
    for y_col in WINE_COLUMNS:
        ds = wine.preprocess(raw, y_col, config)
        for t in range(splits):
            seen.clear()
            status, payload = wine._wine_split(
                (ds, config.n_train, [config.seed, y_col, t], config.em))
            row = {"split": f"V{y_col}/{t}", "status": status}
            if status == "ok":
                gain, failures, label = payload
                labels = list(seen["values"])
                row.update(gain=gain, failures=failures, selected=label,
                           criteria=seen["values"],
                           blocks=dict(zip(labels, seen["blocks"])),
                           cond_I_b=dict(zip(labels, seen["conds"])))
            rows.append(row)
    return rows


def _manifests(T, n):
    from auxsel import cli

    runs = {
        "reproduce 2": ["reproduce", "2", "--T", str(T), "--n", str(n)],
        "select": ["select", str(FIXTURE), "--aux", "a1"],
        "loocv": ["loocv", str(FIXTURE), "--aux", "a1"],
    }
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in runs.items():
            where = Path(tmp) / name.replace(" ", "_")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", str(where)])
            manifest = json.loads((where / "manifest.json").read_text())
            out[name] = {"exit": code,
                         "sha256": {o["path"]: o["sha256"] for o in manifest["outputs"]}}
    return out


def collect(T, n, splits):
    return {"replicates": _replicates(T, n), "wine": _wine(splits),
            "manifests": _manifests(T, n)}


def run_child(checkout, args):
    """The collected results of one checkout, from a child process."""
    src = Path(checkout).resolve() / "src"
    if not (src / "auxsel" / "__init__.py").is_file():
        raise SystemExit(f"error: no auxsel package under {src}")
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(Path(__file__).resolve()), "--collect",
           "--T", str(args.T), "--n", str(args.n), "--splits", str(args.splits)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: collecting from {checkout} failed:\n{done.stderr}")
    return json.loads(done.stdout)


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _block_delta(a, b):
    """Largest |difference| between blocks a and b, up to label order, and
    whether b is nearer with its labels exchanged."""
    direct = max(abs(x - y) for x, y in zip(a[0], b[0]))
    swapped = max(abs(x - y) for x, y in zip(a[0], b[1]))
    return min(direct, swapped), swapped < direct


def _fold(acc, key, delta):
    acc[key] = max(acc.get(key, 0.0), delta)


def _keyed_delta(acc, a, b):
    """Fold the |differences| at the keys a and b share into the per-key
    maxima ``acc``."""
    for k in a.keys() & b.keys():
        _fold(acc, k, abs(a[k] - b[k]))


def _relative(a, b):
    return abs(a - b) / abs(a) if a != b else 0.0


def compare(old, new):
    """The report of two collections: largest deltas, flips, manifests."""
    ro, rn = old["replicates"], new["replicates"]
    rep = {"replicates": rn["replicates"], "rows": len(rn["rows"]),
           "excluded": [ro["excluded"], rn["excluded"]],
           "criteria": 0.0, "losses": 0.0, "theta_y": 0.0, "theta_x": 0.0,
           "beta_b": 0.0, "cond_I_b": 0.0, "label_swaps": 0, "selection_flips": 0,
           "criteria_by_key": {}, "losses_by_key": {}}
    for a, b in zip(ro["rows"], rn["rows"]):
        _keyed_delta(rep["criteria_by_key"], a["criteria"], b["criteria"])
        rep["cond_I_b"] = max(rep["cond_I_b"], _relative(a["cond_I_b"], b["cond_I_b"]))
        _keyed_delta(rep["losses_by_key"], a["losses"], b["losses"])
        for key in ("theta_y", "theta_x", "beta_b"):
            delta, swap = _block_delta(a[key], b[key])
            rep[key] = max(rep[key], delta)
            rep["label_swaps"] += swap
        rep["selection_flips"] += a["selected"] != b["selected"]
    rep["criteria"] = max(rep["criteria_by_key"].values(), default=0.0)
    rep["losses"] = max(rep["losses_by_key"].values(), default=0.0)
    wine = {"splits": len(new["wine"]), "criteria": 0.0, "gain": 0.0, "blocks": 0.0,
            "cond_I_b": 0.0, "label_swaps": 0, "selection_flips": 0, "failure_changes": 0,
            "status_changes": 0, "criteria_by_label": {}, "blocks_by_label": {},
            "cond_I_b_by_label": {}}
    for a, b in zip(old["wine"], new["wine"]):
        if a["status"] != b["status"]:
            wine["status_changes"] += 1
            continue
        if a["status"] != "ok":
            continue
        _keyed_delta(wine["criteria_by_label"], a["criteria"], b["criteria"])
        wine["gain"] = max(wine["gain"], abs(a["gain"] - b["gain"]))
        for label in a["blocks"].keys() & b["blocks"].keys():
            delta, swap = _block_delta(a["blocks"][label], b["blocks"][label])
            _fold(wine["blocks_by_label"], label, delta)
            wine["label_swaps"] += swap
            _fold(wine["cond_I_b_by_label"], label,
                  _relative(a["cond_I_b"][label], b["cond_I_b"][label]))
        wine["selection_flips"] += a["selected"] != b["selected"]
        wine["failure_changes"] += a["failures"] != b["failures"]
    for kind in ("criteria", "blocks", "cond_I_b"):
        wine[kind] = max(wine[kind + "_by_label"].values(), default=0.0)
    manifests = {}
    for name, mo in old["manifests"].items():
        mn = new["manifests"][name]
        manifests[name] = {path: {"old": sha, "new": mn["sha256"].get(path),
                                  "same": sha == mn["sha256"].get(path)}
                           for path, sha in sorted(mo["sha256"].items())}
    return {"replicates": rep, "wine": wine, "manifests": manifests}


def print_report(report, old, new):
    rep, wine = report["replicates"], report["wine"]
    print(f"old: {old}\nnew: {new}")
    print(f"replicates, cases 1 and 2 ({rep['replicates']} replicates, {rep['rows']} rows, "
          f"excluded {rep['excluded']}):")
    for key in ("criteria", "losses", "theta_y", "theta_x", "beta_b"):
        print(f"  max |delta| {key:9s} {rep[key]:.3e}")
    for kind in ("criteria", "losses"):
        print(f"  max |delta| {kind} by name: " + ", ".join(
            f"{k} {v:.3e}" for k, v in sorted(rep[kind + "_by_key"].items())))
    print(f"  max relative |delta| cond_I_b {rep['cond_I_b']:.3e}")
    print(f"  fitted blocks with labels exchanged {rep['label_swaps']}, "
          f"selection flips {rep['selection_flips']}")
    print(f"wine splits ({wine['splits']}):")
    for key in ("criteria", "gain", "blocks"):
        print(f"  max |delta| {key:9s} {wine[key]:.3e}")
    for kind in ("criteria", "blocks", "cond_I_b"):
        rel = "relative " if kind == "cond_I_b" else ""
        print(f"  max {rel}|delta| by candidate, {kind}: " + ", ".join(
            f"{k} {v:.3e}" for k, v in sorted(wine[kind + "_by_label"].items())))
    print(f"  max relative |delta| cond_I_b {wine['cond_I_b']:.3e}")
    print(f"  fitted blocks with labels exchanged {wine['label_swaps']}, "
          f"selection flips {wine['selection_flips']}, candidate-failure changes "
          f"{wine['failure_changes']}, status changes {wine['status_changes']}")
    print("manifests:")
    for name, files in report["manifests"].items():
        for path, sha in files.items():
            mark = "same" if sha["same"] else "DIFFERENT"
            print(f"  {name:12s} {path:20s} {mark} {sha['old'][:16]} {(sha['new'] or '')[:16]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?", help="root of the first checkout")
    parser.add_argument("new", nargs="?", help="root of the second checkout")
    parser.add_argument("--T", type=int, default=40,
                        help="replicates, and the T of reproduce 2")
    parser.add_argument("--n", type=int, default=100,
                        help="sample size of the replicates and of reproduce 2")
    parser.add_argument("--splits", type=int, default=5, help="wine splits per column")
    parser.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    parser.add_argument("--collect", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        json.dump(collect(args.T, args.n, args.splits), sys.stdout)
        return 0
    if not (args.old and args.new):
        parser.error("name two checkouts")
    report = compare(run_child(args.old, args), run_child(args.new, args))
    print_report(report, args.old, args.new)
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
