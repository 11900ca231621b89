"""Correctness checks on the outputs of one workload pass.

Each check is one operation of the benchmark: it passes or it fails, and
failed checks count towards `failed_ops`.  Closed forms are compared
against scipy oracles computed here, independently of specsense.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
from scipy.special import gammaincc
from scipy.stats import norm

from workloads import COMMON, Command, Plan, PriorAverage

PFA_SIGMAS = 5.0       # realized Pfa within this many binomial standard errors
CLOSED_FORM_RTOL = 1e-5  # CSV values carry 6 significant digits
CLOSED_FORM_ATOL = 1e-12
AVERAGE_SIGMAS = 5.0
ORACLE_DRAWS = 200_000

# Scenario constants every generated config shares.
PRIOR_K = int(COMMON["prior_k"])
THETA = float(COMMON["prior_theta"])
SNR = 10.0 ** (float(COMMON["snr_db"]) / 10.0)
ROLLOFF = float(COMMON["rolloff"])
ALPHA = THETA / PRIOR_K  # prior mean noise power, used by `curves`
GLR_DETECTORS = ("glrd1", "glrd2")


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# manifest: "):
        raise ValueError(f"{path.name}: missing manifest line")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _columns(header, rows, names):
    idx = [header.index(n) for n in names]
    return [[row[i] for row in rows] for i in idx]


def _groups(rows, key_cols):
    out: dict[tuple, list[list[str]]] = {}
    for row in rows:
        out.setdefault(tuple(row[i] for i in key_cols), []).append(row)
    return out


def check_roc(path: Path, cmd: Command) -> list[tuple[str, str | None]]:
    """Finite values and row count; realized Pfa near target; Pd monotone."""
    header, rows = read_csv(path)
    results = []
    numeric = ["pfa_target", "pfa_emp", "pd_emp", "pd_ci_low", "pd_ci_high", "threshold"]
    values = np.array(_columns(header, rows, numeric), dtype=float).T
    expected = len(cmd.detectors) * cmd.legs * len(cmd.targets)
    err = None
    if len(rows) != expected:
        err = f"{len(rows)} rows, expected {expected}"
    elif not np.all(np.isfinite(values)):
        err = "non-finite value"
    results.append((f"{path.name}: shape and finiteness", err))

    target, pfa = values[:, 0], values[:, 1]
    # calibration and evaluation both carry binomial noise
    se = np.sqrt(2.0 * target * (1.0 - target) / cmd.trials)
    worst = np.max(np.abs(pfa - target) / se)
    results.append((f"{path.name}: realized pfa near target",
                    None if worst <= PFA_SIGMAS else f"|pfa - target| = {worst:.1f} se"))

    # A band rule's Pd need not rise with the target: its upper threshold
    # falls too and cuts H1 mass, so only one-sided rules are checked.
    banded = GLR_DETECTORS if cmd.two_sided else ()
    key = [header.index(c) for c in ("detector", "n_samples", "channel")]
    i_pd, i_lo = header.index("pd_emp"), header.index("pd_ci_low")
    err = None
    for name, grp in _groups(rows, key).items():
        if name[0] in banded:
            continue
        for prev, cur in zip(grp, grp[1:]):
            if float(cur[i_pd]) < float(prev[i_lo]):
                err = f"{name}: pd {cur[i_pd]} below previous ci_low {prev[i_lo]}"
    results.append((f"{path.name}: pd non-decreasing in target", err))
    return results


def check_cdf(path: Path, cmd: Command) -> list[tuple[str, str | None]]:
    """Each detector's table is non-decreasing in value and CDF, ending at 1."""
    header, rows = read_csv(path)
    i_det, i_t, i_c = (header.index(c) for c in ("detector", "statistic_value", "cdf"))
    err = None
    groups = _groups(rows, [i_det])
    if sorted(k[0] for k in groups) != sorted(cmd.detectors):
        err = f"detectors {sorted(groups)} != {sorted(cmd.detectors)}"
    for (name,), grp in groups.items():
        t = np.array([float(r[i_t]) for r in grp])
        c = np.array([float(r[i_c]) for r in grp])
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(c))):
            err = f"{name}: non-finite value"
        elif np.any(np.diff(t) < 0) or np.any(np.diff(c) < 0):
            err = f"{name}: table decreases"
        elif c[-1] != 1.0 or c[0] <= 0.0:
            err = f"{name}: cdf runs from {c[0]} to {c[-1]}"
    return [(f"{path.name}: cdf monotone and ending at 1", err)]


def _curves_oracle(name, eta, n, snr):
    """Closed forms of `curves` at the prior mean noise power; the optimal
    detector is normalized by the noise power, so its alpha is 1."""
    theta, alpha = THETA, ALPHA
    if name == "optimal":
        return gammaincc(n, eta), gammaincc(n, eta / (1.0 + snr))
    if name in ("alrd1", "glrd1"):
        return (gammaincc(n, eta * theta / alpha),
                gammaincc(n, eta * theta / (alpha * (1.0 + snr))))
    l_in = min(max(round(n / (1.0 + ROLLOFF)), 1), n - 1)  # critically sampled
    p_ex = n - l_in
    na = n * alpha
    pfa = norm.sf((theta * eta - na * (l_in - p_ex * eta))
                  / (na * np.sqrt(l_in + p_ex * eta**2)))
    ps = na * snr
    mean = l_in * (ps + na) - eta * p_ex * na
    var = l_in * (na**2 + 2.0 * na * ps) + p_ex * eta**2 * na**2
    return pfa, norm.sf((theta * eta - mean) / np.sqrt(var))


def check_curves(path: Path, cmd: Command) -> list[tuple[str, str | None]]:
    """Agreement with the scipy oracle; Pfa non-increasing in the threshold."""
    header, rows = read_csv(path)
    n, snr = cmd.n_samples[0], SNR
    i_det = header.index("detector")
    groups = _groups(rows, [i_det])
    agree = monotone = None
    if len(rows) != cmd.points or sorted(k[0] for k in groups) != sorted(cmd.detectors):
        agree = f"{len(rows)} rows for {sorted(groups)}"
    for (name,), grp in groups.items():
        eta, pfa, pd = np.array(_columns(header, grp, ["threshold", "pfa_cf", "pd_cf"]),
                                dtype=float)
        o_pfa, o_pd = _curves_oracle(name, eta, n, snr)
        for label, got, want in (("pfa", pfa, o_pfa), ("pd", pd, o_pd)):
            bad = np.abs(got - want) > CLOSED_FORM_RTOL * np.abs(want) + CLOSED_FORM_ATOL
            if np.any(bad):
                j = int(np.argmax(bad))
                agree = f"{name} {label} at eta={eta[j]}: {got[j]} vs oracle {want[j]:.6g}"
        if np.any(np.diff(pfa) > 0):
            monotone = f"{name}: pfa increases with threshold"
    return [(f"{path.name}: closed forms match scipy oracle", agree),
            (f"{path.name}: pfa non-increasing in threshold", monotone)]


def _average_oracle(avg: PriorAverage, seed: int) -> tuple[float, float]:
    """Independent Monte Carlo of E[Q(N, eta theta / (alpha (1 + snr |h|^2)))]
    with 1/alpha ~ Gamma(k+1, rate theta) and |h|^2 ~ Exp(1)."""
    k, theta, snr = PRIOR_K, THETA, SNR
    gen = np.random.default_rng([seed, avg.n_samples, int(avg.eta * 1000)])
    alpha = 1.0 / gen.gamma(k + 1.0, 1.0 / theta, size=ORACLE_DRAWS)
    gain2 = gen.exponential(1.0, size=ORACLE_DRAWS)
    vals = gammaincc(avg.n_samples, avg.eta * theta / (alpha * (1.0 + snr * gain2)))
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(ORACLE_DRAWS))


def check_average(result, avg: PriorAverage, seed: int) -> tuple[str, str | None]:
    name = f"average_over_prior n={avg.n_samples} eta={avg.eta:g}"
    if result is None:
        return name, "no result"
    want, want_se = _average_oracle(avg, seed)
    tol = AVERAGE_SIGMAS * math.hypot(result.stderr, want_se)
    if result.draws != avg.draws or not 0.0 <= result.value <= 1.0:
        return name, f"draws {result.draws}, value {result.value}"
    if abs(result.value - want) > tol:
        return name, f"{result.value:.5f} vs oracle {want:.5f} (tol {tol:.5f})"
    return name, None


CHECKS = {"roc": check_roc, "cdf": check_cdf, "curves": check_curves}


def check_pass(plan: Plan, out_dir: Path, averages, seed: int
               ) -> list[tuple[str, str | None]]:
    """Every output check for one pass: (check name, failure or None)."""
    results = []
    for cmd in plan.commands:
        path = out_dir / cmd.csv_name
        try:
            results.extend(CHECKS[cmd.verb](path, cmd))
        except (OSError, ValueError, IndexError) as exc:
            results.append((f"{cmd.csv_name}: readable", f"{type(exc).__name__}: {exc}"))
    for result, avg in zip(averages, plan.averages):
        results.append(check_average(result, avg, seed))
    return results


def csv_digests(plan: Plan, out_dir: Path) -> dict[str, str | None]:
    out = {}
    for cmd in plan.commands:
        path = out_dir / cmd.csv_name
        out[cmd.csv_name] = digest(path) if path.exists() else None
    return out
