"""The four workloads: the paper's studies and the command users run.

Each workload is a closed loop with one caller.  ``inputs(r)`` makes the
inputs of round r from the workload seed outside the timed region,
``round(r, inputs)`` calls the package's public entry points and
returns plain data, and ``check(payloads)`` compares those outputs with
references made apart from the package (``references.py``) or with
properties the method must have.  Every round of a workload attempts the
same operations, so the share of failed operations is the same in every
run whatever its length.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import statistics
from pathlib import Path

import numpy as np

import references as ref

# The generating model of the paper's simulations (auxsel.simlab's
# TrueModelSpec defaults), written out here so the references do not
# read it from the package: P(z=1), the y means for z=1 and z=0, the y
# variance, the auxiliary means and variance.
PI, MU_Y, VAR_Y, MU_A, VAR_A = 0.6, (-1.2, 1.2), 0.7, (1.8, -1.8), 0.49
TRUTH = (PI, MU_Y[0], MU_Y[1], VAR_Y)


def round_seed(seed, r, stream=0):
    """Seed of round r: independent streams from one workload seed."""
    return int(np.random.SeedSequence([seed, stream, r]).generate_state(1)[0])


def _theta(p):
    return (float(p.pi1), float(p.mu1y), float(p.mu2y), float(p.sigy2))


def _check(name, ok, detail):
    return {"name": name, "ok": bool(ok), "detail": detail}


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""
    op = ""              # what one counted operation is
    min_rounds = 1       # rounds every run makes, whatever --seconds says

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)

    def setup(self):
        """Inputs shared by all rounds plus a warm-up call; run repeatedly."""

    def inputs(self, r):
        return None


# ---------------------------------------------------------------------------
# sweep: the replicate engine of tables 2-6
# ---------------------------------------------------------------------------

class Sweep(Workload):
    """``simlab.run_replicates`` at n=100, both cases on shared draws."""

    name = "sweep"
    op = "replicate"
    N = 100
    BLOCK = 24           # replicates per round
    CHECK_ROUNDS = 4     # the statistical checks read these rounds' replicates
    min_rounds = CHECK_ROUNDS
    TOL_LOSS_X = 1e-12   # relative: the integrand is polynomial given the label
    TOL_LOSS_Y = 5e-3    # absolute: 64-node Gauss-Hermite on a log-mixture

    def setup(self):
        from auxsel.simlab import TrueModelSpec

        self.spec = TrueModelSpec(case=1)
        self._run(1, round_seed(self.seed, 0, stream=99))

    def _run(self, T, seed):
        from auxsel import simlab
        from auxsel.simlab import ExperimentConfig

        config = ExperimentConfig(n_list=(self.N,), T=T, seed=seed, workers=1)
        return simlab.run_replicates(self.spec, self.N, config, (1, 2))

    def inputs(self, r):
        return round_seed(self.seed, r)

    def round(self, r, seed):
        outcomes, excluded = self._run(self.BLOCK, seed)
        rows = []
        for pair in outcomes:
            for case, o in sorted(pair.items()):
                rows.append({"case": case, "theta_y": _theta(o.theta_y),
                             "theta_x": _theta(o.theta_x),
                             "theta_b": _theta(o.beta_b.theta),
                             "criteria": dict(o.criteria), "losses": dict(o.losses),
                             "selected": o.selected})
        return {"ops": self.BLOCK - excluded, "attempted": self.BLOCK,
                "failures": ["replicate excluded"] * excluded, "payload": rows}

    def check(self, payloads):
        rows = [row for p in payloads for row in p]
        cache = {}

        def quad(kind, theta):
            key = (kind, theta)
            if key not in cache:
                cache[key] = (ref.loss_x if kind == "x" else ref.loss_y)(theta, TRUTH)
            return cache[key]

        truth_x, truth_y = quad("x", TRUTH), quad("y", TRUTH)
        # loss key -> (kind of loss, the fit it was evaluated at)
        fits = {"x_y": ("x", "theta_y"), "x_x": ("x", "theta_x"),
                "x_b": ("x", "theta_b"), "y_y": ("y", "theta_y"),
                "y_b": ("y", "theta_b")}
        err_x = err_y = 0.0
        excess_x = excess_y = math.inf
        for row in rows:
            for key, (kind, which) in fits.items():
                got = row["losses"][key]
                want = quad(kind, tuple(row[which]))
                if kind == "x":
                    err_x = max(err_x, abs(got - want) / max(1.0, abs(want)))
                    excess_x = min(excess_x, got - truth_x)
                else:
                    err_y = max(err_y, abs(got - want))
                    excess_y = min(excess_y, got - truth_y)
        wrong_sel = sum((row["selected"] == "b")
                        != (row["criteria"]["aic_xb"] < row["criteria"]["aic_xy"])
                        for row in rows)

        head = [row for p in payloads[:self.CHECK_ROUNDS] for row in p]
        c1 = [row for row in head if row["case"] == 1]
        c2 = [row for row in head if row["case"] == 2]
        aic = np.array([r["criteria"]["aic_xb"] - r["criteria"]["aic_xy"] for r in c1])
        loss = np.array([2.0 * self.N * (r["losses"]["x_b"] - r["losses"]["x_y"])
                         for r in c1])
        se = math.hypot(aic.std(ddof=1), loss.std(ddof=1)) / math.sqrt(aic.size)
        frac1 = np.mean([r["selected"] == "b" for r in c1])
        frac2 = np.mean([r["selected"] == "b" for r in c2])
        n_fits = 5 * len(rows)
        return [
            _check("loss_x_matches_quad", err_x <= self.TOL_LOSS_X,
                   f"max relative error {err_x:.2e} over {n_fits} fit losses "
                   f"(tolerance {self.TOL_LOSS_X:g})"),
            _check("loss_y_matches_quad", err_y <= self.TOL_LOSS_Y,
                   f"max absolute error {err_y:.2e} (tolerance {self.TOL_LOSS_Y:g})"),
            _check("loss_at_least_truth",
                   excess_x >= -self.TOL_LOSS_X and excess_y >= -self.TOL_LOSS_Y,
                   f"smallest excess over the truth's loss: x {excess_x:.3e}, "
                   f"y {excess_y:.3e}"),
            _check("selected_iff_aic_xb_below_aic_xy", wrong_sel == 0,
                   f"{wrong_sel} of {len(rows)} selections disagree"),
            _check("aic_diff_tracks_2n_loss_diff",
                   abs(aic.mean() - loss.mean()) <= 3.0 * se,
                   f"case 1, {aic.size} replicates: aic diff {aic.mean():.3f} vs "
                   f"2n loss diff {loss.mean():.3f}, 3 combined se {3.0 * se:.3f}"),
            _check("case1_selects_b_more_than_case2", frac1 > frac2,
                   f"select-b fraction case 1 {frac1:.3f} vs case 2 {frac2:.3f}"),
        ]

    def named(self, ops_per_s, round_s):
        return {"replicates_per_s": (ops_per_s, "replicates/s")}


# ---------------------------------------------------------------------------
# wine: the real-data study of table 7
# ---------------------------------------------------------------------------

class Wine(Workload):
    """``wine.run_wine`` on the bundled file, primary columns V1, V7, V13.

    Every round runs the protocol's first SPLITS splits at its default
    seed, so the table-7 comparisons see the same input in every round
    and every run; per split a column's gain has a spread of tens (V7)
    and the comparisons would otherwise pass or fail by the seed.
    """

    name = "wine"
    op = "split"
    COLUMNS = (1, 7, 13)
    SPLITS = 5
    # table 7: near-zero columns in an absolute band, large ones within 20%
    TABLE7 = {"V1": (0.0, 1.0), "V7": (76.54, 0.2 * 76.54), "V13": (0.0, 1.0)}

    def setup(self):
        from auxsel import wine

        path = wine.bundled_wine_path()
        self.config = wine.WineConfig(csv_path=path, n_splits=self.SPLITS)
        warm = wine.WineConfig(csv_path=path, n_splits=1,
                               seed=round_seed(self.seed, 0, stream=99))
        wine.run_wine(warm, y_cols=(self.COLUMNS[0],))

    def round(self, r, _):
        from auxsel import wine

        rows = wine.run_wine(self.config, y_cols=self.COLUMNS)
        failures = []
        for row in rows:
            want, tol = self.TABLE7[row["y_col"]]
            if abs(row["gain_mean"] - want) > tol:
                failures.append(f"table-7 comparison {row['y_col']}")
            failures += [f"split excluded {row['y_col']}"] * row["splits_excluded"]
        used = sum(row["splits_used"] for row in rows)
        excluded = sum(row["splits_excluded"] for row in rows)
        return {"ops": used, "attempted": used + excluded + len(rows),
                "failures": failures, "payload": rows}

    def check(self, payloads):
        rows = [row for p in payloads for row in p]
        short = [row["y_col"] for row in rows
                 if row["splits_used"] != self.SPLITS or row["splits_excluded"]]
        finite = all(math.isfinite(row["gain_mean"]) and math.isfinite(row["gain_se"])
                     for row in rows)
        gains = ", ".join(f"{row['y_col']} {row['gain_mean']:.3f}" for row in payloads[-1])
        return [
            _check("every_split_used", not short,
                   f"{len(rows)} column runs of {self.SPLITS} splits; short: {short}"),
            _check("gains_finite", finite, f"mean gains {gains}"),
        ]

    def named(self, ops_per_s, round_s):
        return {"splits_per_s": (ops_per_s, "splits/s")}


# ---------------------------------------------------------------------------
# loocv: exact fold refits against the criterion
# ---------------------------------------------------------------------------

def case1_sample(n, seed):
    """y and the informative auxiliary column of the generating model."""
    rng = np.random.default_rng(seed)
    z = rng.random(n) < PI
    y = np.where(z, MU_Y[0], MU_Y[1]) + math.sqrt(VAR_Y) * rng.standard_normal(n)
    a = np.where(z, MU_A[0], MU_A[1]) + math.sqrt(VAR_A) * rng.standard_normal(n)
    return y, a[:, None]


class Loocv(Workload):
    """``loocv.equivalence_gap`` on case-1 samples at n = 100, 400, 1600."""

    name = "loocv"
    op = "fold refit"
    SIZES = (100, 400, 1600)

    def _gap(self, data):
        from auxsel import gmm, loocv

        opts = gmm.EmOptions()
        fit = gmm.fit_em_b(data, opts)
        report = loocv.loocv_risk(data, opts, fit=fit)
        gap = loocv.equivalence_gap(data, opts, fit=fit, report=report)
        return gap, report.refit_failures

    def setup(self):
        from auxsel.model import Dataset

        y, a = case1_sample(40, round_seed(self.seed, 0, stream=99))
        self._gap(Dataset(y, None, a))

    def inputs(self, r):
        from auxsel.model import Dataset

        return [Dataset(y, None, a) for y, a in
                (case1_sample(n, round_seed(self.seed, r, stream=n)) for n in self.SIZES)]

    def round(self, r, samples):
        out = []
        for data in samples:
            gap, fallbacks = self._gap(data)
            out.append({"n": data.n, "gap": gap, "fallbacks": fallbacks})
        folds = sum(self.SIZES)
        return {"ops": folds, "attempted": folds, "failures": [], "payload": out}

    def check(self, payloads):
        gaps = {n: [] for n in self.SIZES}
        fallbacks = 0
        for p in payloads:
            for row in p:
                gaps[row["n"]].append(abs(row["gap"]))
                fallbacks += row["fallbacks"]
        med = [statistics.median(gaps[n]) for n in self.SIZES]
        folds = sum(self.SIZES) * len(payloads)
        return [
            _check("median_abs_gap_falls_with_n", med[0] > med[1] > med[2],
                   "median |gap| " + " > ".join(f"n={n} {m:.4f}"
                                                for n, m in zip(self.SIZES, med))),
            _check("fold_fallbacks_counted", 0 <= fallbacks <= 0.1 * folds,
                   f"{fallbacks} fallbacks in {folds} fold refits"),
        ]

    def named(self, ops_per_s, round_s):
        return {"folds_per_s": (ops_per_s, "folds/s")}


# ---------------------------------------------------------------------------
# select: the `auxsel select` command on a generated CSV
# ---------------------------------------------------------------------------

# y means of the select input: closer than the paper's +-1.2, so that y
# alone leaves more of the label unexplained and the label-linked column's
# advantage (about 13 on the criterion scale, sd 3) stands far above the
# sampling spread.  At +-1.2 and n=5000 no set containing a1 was selected
# on 4 of 30 seeds: the y-only fit's fit term happened to win by up to 10.
SELECT_MU_Y = (-0.8, 0.8)


def select_sample(n, seed):
    """y, two-component with shared variance, plus four auxiliary columns.

    a1 is strongly label-linked, a2 weakly, a3 is Gaussian noise and a4 a
    well-separated two-cluster mixture independent of the label.
    """
    rng = np.random.default_rng(seed)
    z = rng.random(n) < PI
    y = np.where(z, *SELECT_MU_Y) + math.sqrt(VAR_Y) * rng.standard_normal(n)
    a1 = np.where(z, MU_A[0], MU_A[1]) + math.sqrt(VAR_A) * rng.standard_normal(n)
    a2 = np.where(z, 0.3, -0.3) + rng.standard_normal(n)
    a3 = rng.standard_normal(n)
    a4 = np.where(rng.random(n) < 0.5, 2.0, -2.0) + 0.5 * rng.standard_normal(n)
    return y, np.column_stack([a1, a2, a3, a4])


def write_sample(path, y, a):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["y"] + [f"a{j + 1}" for j in range(a.shape[1])])
        for yi, ai in zip(y, a):
            w.writerow([repr(float(yi))] + [repr(float(v)) for v in ai])


def read_selection(path):
    """Rows of ``selection.csv`` as dicts of strings.

    The file leaves a multi-column candidate such as ``a1,a2`` unquoted,
    so such a row has more fields than the header; every other field is
    a number, a criterion name or a flag, so the surplus belongs to the
    candidate label in front.
    """
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        cut = 1 + len(fields) - len(header)
        rows.append(dict(zip(header, [",".join(fields[:cut])] + fields[cut:])))
    return rows


class Select(Workload):
    """``cli.main(["select", ...])`` on a CSV generated from the seed."""

    name = "select"
    op = "candidate scored"
    N = 5000
    CANDIDATES = ("a1", "a2", "a3", "a4", "a1,a2", "a1,a2,a3", "a1,a2,a3,a4")
    TOL_FIT = 1e-3       # absolute, on -2 log likelihood of about 1.5e4
    TOL_SUM = 1e-10      # relative: value, fit_term and penalty carry 12 digits

    def _argv(self, csv_path, out):
        argv = ["select", str(csv_path)]
        for cand in self.CANDIDATES:
            argv += ["--aux", cand]
        return argv + ["--out", str(out)]

    def _select(self, csv_path, out):
        from auxsel import cli

        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self._argv(csv_path, out))

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.y, a = select_sample(self.N, round_seed(self.seed, 0))
        self.csv = self.workdir / "select.csv"
        write_sample(self.csv, self.y, a)
        warm = self.workdir / "warm.csv"
        write_sample(warm, *select_sample(300, round_seed(self.seed, 0, stream=99)))
        self._select(warm, self.workdir / "warm")

    def inputs(self, r):
        return self.workdir / f"out{r}"

    def round(self, r, out):
        rc = self._select(self.csv, out)
        scored = 1 + len(self.CANDIDATES)
        if rc != 0:
            return {"ops": 0, "attempted": scored,
                    "failures": [f"select exit code {rc}"] * scored, "payload": None}
        rows = read_selection(out / "selection.csv")
        manifest = json.loads((out / "manifest.json").read_text())
        digest = hashlib.sha256((out / "selection.csv").read_bytes()).hexdigest()
        return {"ops": scored, "attempted": scored, "failures": [],
                "payload": {"rows": rows, "manifest_sha256": manifest["outputs"][0]["sha256"],
                            "csv_sha256": digest}}

    def check(self, payloads):
        done = [p for p in payloads if p is not None]
        best_ll, _ = ref.y_mixture_max_loglik(self.y)
        want = -2.0 * best_ll
        fit_err, sum_err = 0.0, 0.0
        has_a1 = a4_loses = sha_ok = True
        for p in done:
            rows = {row["candidate"]: row for row in p["rows"]}
            fit_err = max(fit_err, abs(float(rows["y"]["fit_term"]) - want))
            for row in rows.values():
                v, f, pen = (float(row[k]) for k in ("value", "fit_term", "penalty"))
                sum_err = max(sum_err, abs(v - (f + pen)) / (abs(f) + abs(pen)))
            chosen = [label for label, row in rows.items() if row["selected"] == "True"]
            has_a1 &= len(chosen) == 1 and "a1" in chosen[0].split(",")
            a4_loses &= float(rows["a4"]["value"]) > float(rows["y"]["value"])
            sha_ok &= p["manifest_sha256"] == p["csv_sha256"]
        last = {row["candidate"]: row for row in done[-1]["rows"]} if done else {}
        chosen = [label for label, row in last.items() if row["selected"] == "True"]
        return [
            _check("y_fit_term_matches_multistart_optimum", bool(done) and fit_err <= self.TOL_FIT,
                   f"|fit_term - (-2 max loglik)| {fit_err:.2e} on {want:.3f} "
                   f"(tolerance {self.TOL_FIT:g})"),
            _check("value_is_fit_term_plus_penalty", bool(done) and sum_err <= self.TOL_SUM,
                   f"max relative error {sum_err:.2e}"),
            _check("selected_contains_a1", bool(done) and has_a1, f"selected {chosen}"),
            _check("label_independent_mixture_loses_to_y", bool(done) and a4_loses,
                   f"a4 {last.get('a4', {}).get('value')} vs y {last.get('y', {}).get('value')}"),
            _check("manifest_sha256_matches_csv", bool(done) and sha_ok,
                   f"{len(done)} commands"),
        ]

    def named(self, ops_per_s, round_s):
        return {"candidates_per_s": (ops_per_s, "candidates/s"),
                "select_s_p50": (round_s, "s")}


WORKLOADS = {w.name: w for w in (Sweep, Wine, Loocv, Select)}
