"""Command line entry point: selection runs, reproduction studies, LOOCV.

Every run that writes files also writes ``manifest.json`` next to them,
echoing the arguments, the seed, the package version and a SHA-256 per
output file, so results can be traced and compared byte for byte.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .model import AuxselError, Dataset, InvalidParamsError, ParseError
from .gmm import EmOptions, fit_em_b, fit_em_y
from .infomat import estimate_info, without_latent
from .criteria import aic_xb, aic_xy, risk_xb, select_auxiliary, tic
from .loocv import equivalence_gap, loocv_risk
from .simlab import (
    ExperimentConfig, TrueModelSpec, format_table, run_selection,
    run_unbiasedness, write_csv, write_markdown,
)
from .wine import WineConfig, bundled_wine_path, load_wine, run_wine

DATA_DIR_ENV = "AUXSEL_DATA_DIR"


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir, args, t0, outputs):
    echo = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "command": args.command,
        "args": {k: (str(v) if isinstance(v, Path) else v) for k, v in echo.items()},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
        "outputs": [{"path": p.name, "sha256": _sha256(p)}
                    for p in sorted(outputs, key=lambda p: p.name)],
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _out_dir(args):
    if getattr(args, "out", None) is None:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_aux(specs, m):
    """Candidate sets from repeatable --aux values; default each column alone."""
    if not specs:
        return [(f"a{j + 1}", [j]) for j in range(m)]
    out = []
    for spec in specs:
        names = [s.strip() for s in spec.split(",") if s.strip()]
        cols = []
        for name in names:
            if not name.startswith("a") or not name[1:].isdigit():
                raise InvalidParamsError(f"bad auxiliary column name {name!r}")
            j = int(name[1:])
            if not 1 <= j <= m:
                raise InvalidParamsError(f"column {name} outside a1..a{m}")
            cols.append(j - 1)
        if not cols:
            raise InvalidParamsError(f"empty auxiliary set {spec!r}")
        out.append((",".join(names), cols))
    return out


def _score_no_aux(criterion, data, theta, mats_y):
    if criterion == "aic":
        return aic_xy(data, theta, mats_y)
    if criterion == "risk":
        return risk_xb(data, theta, mats_y)
    return tic(data, theta, mats_y)


def _score_candidate(criterion, data, beta, mats):
    if criterion == "aic":
        return aic_xb(data, beta, mats)
    if criterion == "risk":
        return risk_xb(data, beta, mats)
    # y-target robust value of the auxiliary fit; reduces to the
    # classical criterion when no auxiliary variables are used
    return replace(risk_xb(data, beta, without_latent(mats)), name="tic")


def cmd_select(args):
    t0 = time.time()
    data = Dataset.from_csv(args.input)
    em = EmOptions(seed=args.seed, restarts=args.restarts)
    candidates = _parse_aux(args.aux, data.m)
    fit_y = fit_em_y(data, em)
    mats_y = estimate_info(data.drop_z().drop_aux(), fit_y.params)
    reports = {"y": _score_no_aux(args.criterion, data, fit_y.params, mats_y)}
    for label, cols in candidates:
        d = data.drop_z().select_aux(cols)
        fit_b = fit_em_b(d, em)
        reports[label] = _score_candidate(args.criterion, d, fit_b.params,
                                          estimate_info(d, fit_b.params))
    sel = select_auxiliary(reports)
    rows = [{"candidate": label, **rep.to_row(),
             "selected": label == sel.label}
            for label, rep in reports.items()]
    print(format_table(rows), end="")
    print(f"selected: {sel.label} (margin {sel.margin:.3f})")
    out = _out_dir(args)
    if out:
        write_csv(out / "selection.csv", rows)
        _write_manifest(out, args, t0, [out / "selection.csv"])
    return 0


def _default_wine_path():
    data_dir = os.environ.get(DATA_DIR_ENV)
    if data_dir:
        candidate = Path(data_dir) / "wine.data"
        if candidate.exists():
            return candidate
    return bundled_wine_path()


def cmd_reproduce(args):
    t0 = time.time()
    out = _out_dir(args)
    n_list = tuple(args.n) if args.n else None
    if args.table == 2:
        cfg = ExperimentConfig(n_list or (100, 1000), args.T, args.seed,
                               workers=args.workers)
        rows = run_unbiasedness(cfg)
    elif args.table in (3, 4):
        case = 1 if args.table == 3 else 2
        cfg = ExperimentConfig(n_list or (100, 500), args.T, args.seed,
                               workers=args.workers)
        rows = run_selection(cfg, TrueModelSpec(case=case))["counts"]
    elif args.table in (5, 6):
        case = 1 if args.table == 5 else 2
        cfg = ExperimentConfig(n_list or (100,), args.T, args.seed,
                               workers=args.workers)
        rows = run_selection(cfg, TrueModelSpec(case=case))["risk"]
    else:
        path = Path(args.data) if args.data else _default_wine_path()
        cfg = WineConfig(csv_path=str(path), n_splits=args.splits,
                         seed=args.seed, workers=args.workers)
        rows = run_wine(cfg)
    print(format_table(rows), end="")
    if out:
        base = f"table{args.table}"
        files = [out / f"{base}.csv", out / f"{base}.md"]
        write_csv(files[0], rows)
        write_markdown(files[1], rows)
        _write_manifest(out, args, t0, files)
        print(f"wrote {files[0]} and {files[1]}")
    return 0


def cmd_loocv(args):
    t0 = time.time()
    data = Dataset.from_csv(args.input).drop_z()
    if args.aux:
        label, cols = _parse_aux([args.aux], data.m)[0]
        data = data.select_aux(cols)
    em = EmOptions(seed=args.seed, restarts=args.restarts)
    latent = not args.no_latent
    fit = fit_em_b(data, em) if data.has_a else fit_em_y(data, em)
    report = loocv_risk(data, em, latent=latent, fit=fit)
    gap = equivalence_gap(data, em, latent=latent, fit=fit, report=report)
    summary = [{"n": data.n, "cv_value": report.cv_value,
                "cv_2n": 2.0 * data.n * report.cv_value, "gap": gap,
                "refit_failures": report.refit_failures}]
    print(format_table(summary, floatfmt="%.6f"), end="")
    out = _out_dir(args)
    if out:
        folds = [{"index": i, "heldout_g": float(g)}
                 for i, g in enumerate(report.per_fold_g)]
        write_csv(out / "loocv_summary.csv", summary)
        write_csv(out / "loocv_folds.csv", folds)
        _write_manifest(out, args, t0,
                        [out / "loocv_summary.csv", out / "loocv_folds.csv"])
    return 0


def cmd_fetch_wine(args):
    if args.dest:
        dest = Path(args.dest)
    else:
        data_dir = os.environ.get(DATA_DIR_ENV, ".")
        dest = Path(data_dir) / "wine.data"
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_bytes(bundled_wine_path().read_bytes())
    load_wine(dest)
    print(f"wrote {dest}")
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="auxsel",
        description="Decide from data whether auxiliary variables improve "
                    "estimation of a partially latent target distribution.")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("select", help="rank auxiliary candidates on a CSV dataset")
    ps.add_argument("input", help="CSV with columns y[,z][,a1..am]")
    ps.add_argument("--aux", action="append", metavar="COLS",
                    help="candidate set like a1 or a1,a3 (repeatable); "
                         "default: each auxiliary column alone")
    ps.add_argument("--criterion", choices=("aic", "risk", "tic"), default="aic")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--restarts", type=int, default=10)
    ps.add_argument("--out", metavar="DIR")
    ps.set_defaults(func=cmd_select)

    pr = sub.add_parser("reproduce", help="rerun a reference study at desk scale")
    pr.add_argument("table", type=int, choices=range(2, 8),
                    help="2 unbiasedness, 3/4 selection counts, 5/6 risks, 7 wine")
    pr.add_argument("--T", type=int, default=2000, help="replicates per n")
    pr.add_argument("--n", type=int, action="append", help="sample size (repeatable)")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--workers", type=int, default=1)
    pr.add_argument("--splits", type=int, default=100, help="train/test splits (table 7)")
    pr.add_argument("--data", help="wine data file (table 7)")
    pr.add_argument("--out", metavar="DIR")
    pr.set_defaults(func=cmd_reproduce)

    pl = sub.add_parser("loocv", help="cross-validated risk and its criterion gap")
    pl.add_argument("input", help="CSV with columns y[,z][,a1..am]")
    pl.add_argument("--aux", metavar="COLS", help="auxiliary set like a1 or a1,a3")
    pl.add_argument("--no-latent", action="store_true",
                    help="score only the y density (no latent term)")
    pl.add_argument("--seed", type=int, default=0)
    pl.add_argument("--restarts", type=int, default=10)
    pl.add_argument("--out", metavar="DIR")
    pl.set_defaults(func=cmd_loocv)

    pf = sub.add_parser("fetch-wine", help="copy the packaged wine data file")
    pf.add_argument("--dest", help=f"target path; default $" + DATA_DIR_ENV + "/wine.data")
    pf.set_defaults(func=cmd_fetch_wine)
    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InvalidParamsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AuxselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
