"""Output checks, computed apart from the program.

Models are read back from their JSON text, and predictions use the
benchmark's own RBF, exp(-sum over the 5 columns of (x - z)^2 / gamma),
with no call into ``svr``. Each check returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

MSE_RTOL = 1e-9
KKT_ATOL = 1e-6


def rbf(x: np.ndarray, z: np.ndarray, gamma: float) -> np.ndarray:
    sq = np.zeros((x.shape[0], z.shape[0]))
    for k in range(x.shape[1]):
        diff = x[:, k][:, None] - z[:, k][None, :]
        sq += diff * diff
    return np.exp(-sq / gamma)


def predict(sv: np.ndarray, beta: np.ndarray, bias: float, gamma: float,
            x: np.ndarray) -> np.ndarray:
    if beta.size == 0:
        return np.full(x.shape[0], bias)
    return (rbf(x, sv, gamma) * beta).sum(axis=1) + bias


def mse(y: np.ndarray, p: np.ndarray) -> float:
    return float(np.mean((y - p) ** 2))


def close(a: float, b: float, rtol: float = MSE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def kkt_violation(train_x, train_y, sv, beta, c, epsilon, gamma) -> float:
    """The solver's stopping gap, rebuilt from the model and the data.

    Rows that are not support vectors carry beta = 0. The gap is
    max(up) - min(dn) over the training rows, where up and dn are the
    bias bounds the dual's optimality conditions give for each row.
    """
    index = {row.tobytes(): i for i, row in enumerate(train_x)}
    full = np.zeros(train_x.shape[0])
    for row, b in zip(sv, beta):
        full[index[row.tobytes()]] = b
    resid = train_y - (rbf(train_x, sv, gamma) * beta).sum(axis=1) if beta.size else train_y
    up = np.where(full >= 0.0, resid - epsilon, resid + epsilon)
    dn = np.where(full <= 0.0, resid + epsilon, resid - epsilon)
    up[full >= c] = -np.inf
    dn[full <= -c] = np.inf
    return max(float(up.max() - dn.min()), 0.0)


def arrays(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """Support vectors and coefficients of a model document."""
    beta = np.array(doc["beta"], dtype=np.float64)
    return np.array(doc["support_inputs"], dtype=np.float64).reshape(beta.size, -1), beta


def model_mse_problems(doc: dict, ref, want: dict, label: str) -> list[str]:
    """The benchmark's predictor against reported train and test MSE."""
    sv, beta = arrays(doc)
    out = []
    for name, xs, ys in (("train", ref.train_x, ref.train_y), ("test", ref.test_x, ref.test_y)):
        got = mse(ys, predict(sv, beta, doc["bias"], doc["kernel"]["gamma"], xs))
        if not close(got, want[f"{name}_mse"]):
            out.append(f"{label}: {name} MSE {got!r} != reported {want[name + '_mse']!r}")
    return out


def model_problems(doc: dict, ref, label: str) -> list[str]:
    """Dual feasibility and the reported KKT gap of one model document."""
    out = []
    sv, beta = arrays(doc)
    c, eps, gamma = doc["c"], doc["epsilon"], doc["kernel"]["gamma"]
    if doc["n_sv"] != beta.size:
        out.append(f"{label}: n_sv {doc['n_sv']} != {beta.size} coefficients")
    if abs(beta.sum()) > 1e-6 * (1.0 + c):
        out.append(f"{label}: sum(beta) = {beta.sum():.3g}, not 0")
    if beta.size and np.abs(beta).max() > c * (1.0 + 1e-12):
        out.append(f"{label}: |beta| {np.abs(beta).max()!r} exceeds C {c!r}")
    gap = kkt_violation(ref.train_x, ref.train_y, sv, beta, c, eps, gamma)
    told = doc["diagnostics"]["max_kkt_violation"]
    if abs(gap - told) > KKT_ATOL * (1.0 + abs(told)):
        out.append(f"{label}: recomputed KKT gap {gap!r} != reported {told!r}")
    return out


def data_problems(ref, program_sets) -> list[str]:
    """The program's supervised arrays against the benchmark's own."""
    raw, train, test = program_sets
    out = []
    if not np.array_equal(raw.targets, ref.raw_targets):
        out.append("supervised targets are not the next day's close")
    pairs = ((train.features, ref.train_x), (train.targets, ref.train_y),
             (test.features, ref.test_x), (test.targets, ref.test_y))
    if not all(np.array_equal(a, b) for a, b in pairs):
        out.append("normalized split differs from the min-max map over the training rows")
    return out


def tune_problems(texts: dict[str, str], ref, box, evaluations: int) -> list[str]:
    report = json.loads(texts["report.json"])
    model = json.loads(texts["model.json"])
    opt = report["optimizer_history"]
    out = []
    if opt["evaluations"] != evaluations:
        out.append(f"evaluations {opt['evaluations']} != {evaluations}")
    best = [h[0] for h in opt["history"]]
    if any(b > a for a, b in zip(best, best[1:])) or best[-1] != opt["best_f"]:
        out.append("best_f rises in the history or disagrees with the final best")
    rows = list(csv.reader(io.StringIO(texts["history.csv"])))[1:]
    if [float(r[1]) for r in rows] != best:
        out.append("history.csv disagrees with report.json")
    x = opt["best_x"]
    if not all(lo <= v <= hi for v, (lo, hi) in zip(x, box)):
        out.append(f"best_x {x} lies outside the box")
    tri = report["optimized"]
    if [tri["c"], tri["epsilon"], tri["gamma"]] != x:
        out.append("reported triple differs from best_x")
    if [model["c"], model["epsilon"], model["kernel"]["gamma"]] != x:
        out.append("model triple differs from best_x")
    if report["n_sv"] != model["n_sv"]:
        out.append("report and model disagree on n_sv")
    return (out + model_mse_problems(model, ref, report, "final model")
            + model_problems(model, ref, "final model"))


def sweep_problems(text: str, grid) -> tuple[list[str], list[str], list[dict]]:
    """Failures, n_sv rises and the parsed rows of one sweep.

    A rise of n_sv by more than 1 as epsilon grows is returned apart from
    the failures. At the default stopping gap of 1e-3 it happens on a few
    walks in a thousand (93 then 95 on one, where a solve to 1e-5 reads 94
    then 95): the count is only as exact as the gap, and whether it shows
    depends on the walk, not on the code. The run records such rises
    without counting them as failed operations.
    """
    rows = [{"value": float(r["value"]), "train_mse": float(r["train_mse"]),
             "test_mse": float(r["test_mse"]), "n_sv": int(r["n_sv"])}
            for r in csv.DictReader(io.StringIO(text))]
    out = []
    if [r["value"] for r in rows] != list(grid):
        out.append("sweep rows do not follow the grid")
    rises = [f"n_sv rises from {a['n_sv']} to {b['n_sv']} at epsilon {b['value']!r}"
             for a, b in zip(rows, rows[1:]) if b["n_sv"] > a["n_sv"] + 1]
    return out, rises, rows


def sweep_point_problems(model_text: str, row: dict, ref, tol: float) -> list[str]:
    """A sweep row against a model retrained at its grid value."""
    doc = json.loads(model_text)
    label = f"epsilon {row['value']!r}"
    out = model_mse_problems(doc, ref, row, label)
    if doc["n_sv"] != row["n_sv"]:
        out.append(f"{label}: n_sv {doc['n_sv']} != row {row['n_sv']}")
    if doc["diagnostics"]["max_kkt_violation"] > tol:
        out.append(f"{label}: solve stopped at KKT gap {doc['diagnostics']['max_kkt_violation']!r}")
    return out + model_problems(doc, ref, label)
