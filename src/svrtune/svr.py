"""Epsilon-insensitive support vector regression.

The dual is solved over the signed coefficients b_i = a_i - a_i^* (one per
training point):

    maximize  -1/2 sum_ij b_i b_j K(x_i, x_j) - eps * sum_i |b_i| + sum_i y_i b_i
    s.t.      sum_i b_i = 0,   |b_i| <= C

by pairwise coordinate ascent: each step picks the most violating index by
ascent gain, pairs it with the partner of largest second-order gain estimate,
and solves the two-coordinate subproblem exactly (the piecewise-quadratic
line search handles the |b| kink). Convergence is measured by the gap of the
feasible bias window; the reported bias is that window's midpoint.
train_svr is the one fit entry and this loop, run from beta = 0, the one
solver: a population or a sweep grid is fitted one triple at a time, on a
KernelGeometry shared by the fits on one training set. The loop keeps each
step's scalar bookkeeping on Python floats, which are IEEE doubles as
np.float64 scalars are, in the same order of operations, so its models are
those of numpy scalar arithmetic bit for bit, for a third to a half less
time per step; it reuses each index's eta row within a solve, up to a fixed
memory budget, and updates its three n-vectors with one subtraction, which
leaves every value as it was.

The kernel is the RBF kernel k(x, z) = exp(-||x - z||^2 / gamma): gamma
denotes the full denominator of the exponent, i.e. gamma = 2*sigma^2. Larger
gamma means a wider, smoother kernel. This is the reciprocal of the
sklearn/libsvm convention; see README.

Squared distances are summed one feature column at a time,
sum_k (x_k - z_k)^2, with no BLAS call; predictions reduce beta-weighted
kernel rows with numpy. Each entry depends only on its two rows, so distances
are exactly 0 on the diagonal, never negative, and the same for any BLAS
library or thread count.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import jsonio

__all__ = [
    "KernelSpec",
    "SvrParams",
    "SolverSettings",
    "TrainingDiagnostics",
    "SvrModel",
    "KernelGeometry",
    "kernel_eval",
    "train_svr",
    "predict",
    "predict_batch",
    "predict_rows",
    "mse",
    "dual_objective",
    "model_to_json",
    "model_from_json",
    "DEFAULT_PARAMS",
    "KERNEL_CACHE_LIMIT",
]

# full kernel matrix is materialized up to this many training rows;
# above it, columns are recomputed on demand
KERNEL_CACHE_LIMIT = 4096

# _solve_dual keeps at most this many doubles (4 MB) of cached eta rows per
# solve: every row while n <= 724, which covers the benchmark fits, and
# fewer above, so a solve on a _LazyKernel (n > KERNEL_CACHE_LIMIT) adds a
# fixed 4 MB to its O(n) memory, not an (n, n) table
ETA_CACHE_DOUBLES = 1 << 19

# training rows with |beta| above this are support vectors
SV_THRESHOLD = 1e-8

_C_MAX = sys.float_info.max / 4


@dataclass(frozen=True)
class KernelSpec:
    """The RBF kernel of width gamma (exponent denominator, = 2*sigma^2);
    kind names it in model files and is always "rbf"."""

    kind: str = "rbf"
    gamma: float = 0.0625

    def __post_init__(self) -> None:
        if self.kind != "rbf":
            raise ValueError(f"unknown kernel kind {self.kind!r}; only 'rbf' is supported")
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("rbf kernel requires gamma > 0")


@dataclass(frozen=True)
class SvrParams:
    """One SVR's parameters, and the one place their rules are stated: C is
    above SV_THRESHOLD (every |beta| <= C, so below it no support vector is
    kept) and at most _C_MAX, a quarter of the largest double (a step's pair
    bounds c - b_i and b_j + c reach 2C, which overflows past half of it), and
    epsilon is finite and >= 0; KernelSpec states gamma's."""

    c: float
    epsilon: float
    kernel: KernelSpec

    def __post_init__(self) -> None:
        if not SV_THRESHOLD < self.c <= _C_MAX:
            raise ValueError(f"c must lie in ({SV_THRESHOLD:g}, {_C_MAX:g}]: with a smaller C no "
                             "model keeps a support vector, and a larger one overflows the solver")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError("epsilon must be finite and >= 0")


# comparison baseline: untuned parameters
DEFAULT_PARAMS = SvrParams(c=1.0, epsilon=0.1, kernel=KernelSpec("rbf", gamma=0.2))


@dataclass(frozen=True)
class SolverSettings:
    """Stopping controls for the dual solver.

    max_passes is a sweep budget: the solver performs at most
    max_passes * n pairwise updates. None resolves to 10 * n at train time.
    """

    kkt_tolerance: float = 1e-3
    max_passes: Optional[int] = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.kkt_tolerance) and self.kkt_tolerance > 0):
            raise ValueError("kkt_tolerance must be finite and > 0")
        if self.max_passes is not None and self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")


@dataclass(frozen=True)
class TrainingDiagnostics:
    iterations: int
    max_kkt_violation: float


@dataclass(frozen=True, eq=False)
class SvrModel:
    """Trained regressor: f(x) = sum_i beta_i k(sv_i, x) + bias.

    Only rows with |beta| above SV_THRESHOLD are stored. A fit records
    support_rows, the index of each support vector among its training rows,
    which predict_rows reads; a model read from a file has None.
    """

    support_inputs: np.ndarray
    beta: np.ndarray
    bias: float
    params: SvrParams
    diagnostics: TrainingDiagnostics
    support_rows: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        sv = np.array(self.support_inputs, dtype=np.float64)
        bt = np.array(self.beta, dtype=np.float64)
        if sv.ndim != 2 or bt.ndim != 1 or sv.shape[0] != bt.shape[0]:
            raise ValueError("support_inputs must be (m, d) with beta of length m")
        sv.setflags(write=False)
        bt.setflags(write=False)
        object.__setattr__(self, "support_inputs", sv)
        object.__setattr__(self, "beta", bt)
        if self.support_rows is not None:
            rows = np.array(self.support_rows, dtype=np.intp)
            if rows.shape != bt.shape:
                raise ValueError("support_rows must hold one row index per support vector")
            rows.setflags(write=False)
            object.__setattr__(self, "support_rows", rows)

    @property
    def n_features(self) -> int:
        return self.support_inputs.shape[1]

    @property
    def n_sv(self) -> int:
        return self.beta.shape[0]


# --- kernels -----------------------------------------------------------------

def _kernel_base(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Sum over the last axis of (x - z)^2, broadcast over the leading axes."""
    shape = np.broadcast_shapes(x.shape[:-1], z.shape[:-1])
    base = np.zeros(shape)
    term = np.empty(shape)
    for k in range(x.shape[-1]):
        np.subtract(x[..., k], z[..., k], out=term)
        term *= term
        base += term
    return base


def _kernel_values(spec: KernelSpec, base: np.ndarray) -> np.ndarray:
    """Map squared distances to RBF kernel values, overwriting base."""
    base /= -spec.gamma
    np.exp(base, out=base)
    return base


def _kernel_matrix(spec: KernelSpec, X: np.ndarray, Z: np.ndarray | None = None) -> np.ndarray:
    Zm = X if Z is None else Z
    return _kernel_values(spec, _kernel_base(X[:, None, :], Zm[None, :, :]))


def kernel_eval(spec: KernelSpec, x, z) -> float:
    """Scalar kernel value; the same arithmetic as every matrix path."""
    x = np.asarray(x, dtype=np.float64).ravel()
    z = np.asarray(z, dtype=np.float64).ravel()
    if x.shape != z.shape:
        raise ValueError(f"dimension mismatch: {x.shape[0]} vs {z.shape[0]}")
    return float(_kernel_values(spec, _kernel_base(x, z)))


class _DenseKernel:
    """Cached full kernel matrix (used while n <= KERNEL_CACHE_LIMIT)."""

    def __init__(self, mat: np.ndarray) -> None:
        self.mat = mat
        self.column = mat.__getitem__  # row i, read with no Python call of its own


class _LazyKernel:
    """Column-on-demand kernel for large training sets."""

    def __init__(self, spec: KernelSpec, features: np.ndarray) -> None:
        self.spec = spec
        self.features = features

    def column(self, i: int) -> np.ndarray:
        X = self.features
        return _kernel_values(self.spec, _kernel_base(X[i], X))


class KernelGeometry:
    """Pairwise squared distances of one training set, built once and shared
    by every fit on it, whatever its gamma.

    The (n, n) base is kept up to KERNEL_CACHE_LIMIT rows; above it, kernel
    columns are recomputed on demand.
    """

    def __init__(self, features) -> None:
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        self.features = X
        self.base = None
        if X.shape[0] <= KERNEL_CACHE_LIMIT:
            self.base = _kernel_base(X[:, None, :], X[None, :, :])

    def subset(self, rows) -> "KernelGeometry":
        """Geometry of features[rows]: an index sub-block of the base, equal to a
        fresh build on those rows bit for bit; a contiguous run is a view."""
        rows = np.asarray(rows, dtype=np.intp)
        contiguous = rows.size > 0 and np.array_equal(rows, np.arange(rows[0], rows[0] + rows.size))
        pick = slice(rows[0], rows[0] + rows.size) if contiguous else rows
        sub = copy.copy(self)
        sub.features = self.features[pick]
        if self.base is not None:
            sub.base = self.base[pick, pick] if contiguous else self.base[np.ix_(rows, rows)]
        return sub

    def block(self, rows, cols) -> np.ndarray:
        """Squared distances from rows to cols, a new C-contiguous
        (len(rows), len(cols)) array: taken from the base, or built from the
        features when there is none."""
        if self.base is None:
            X = self.features
            return _kernel_base(X[rows][:, None, :], X[cols][None, :, :])
        return self.base[np.ix_(rows, cols)]

    def kernel(self, spec: KernelSpec):
        """Kernel of these rows under spec, as the dual solver reads it."""
        if self.base is None:
            return _LazyKernel(spec, self.features)
        return _DenseKernel(_kernel_values(spec, np.array(self.base)))


def _solve_dual(kernel, y: np.ndarray, c: float, epsilon: float,
                tol: float, max_steps: int):
    """Core pairwise ascent. Returns (beta, bias, steps, violation).

    Maintains three length-n arrays updated incrementally per step:
    resid  = y - K @ beta
    up[i]  = ascent gain of raising beta[i]   (-inf once beta[i] = c)
    dn[i]  = bias bound from lowering beta[i] (+inf once beta[i] = -c)
    The optimum is reached when max(up) - min(dn) <= tol; that window also
    yields the bias (midpoint), which reduces to the feasible-interval
    midpoint rule when no support vector is free. The solve starts from
    beta = 0, so resid = y. Acceptance criterion 1
    (tests/test_acceptance.py) and a five-point test in tests/test_svr.py
    call it on a _DenseKernel of _kernel_matrix and compare it against a
    reference QP solution.

    c and epsilon are Python floats, and a step's scalar bookkeeping (the
    window ends, the pair's coefficients, the line search, the snap to the
    box, the two bound entries) runs on Python floats read with
    ndarray.item. They are IEEE doubles, as np.float64 scalars are, and
    every operation keeps its order, so each value is the one numpy
    scalars would give, bit for bit. The array work keeps its bits too: the
    eta row of index i, max(2 - 2 K[i], 1e-12), depends on i alone, so it is
    built the first time i leads a step and reused after (as LIBSVM reuses
    kernel rows per index) by the first ETA_CACHE_DOUBLES // n indices to
    lead one, and built afresh each time by the others; resid, up and dn
    are the rows of one (3, n) array, which one subtraction of delta
    updates; D, the gain estimate and delta are written into buffers
    allocated once per solve; and a _DenseKernel's rows are read by plain
    indexing.
    """
    y = np.asarray(y, dtype=np.float64)
    beta = np.zeros(y.shape[0])
    state = np.stack((y, y - epsilon, y + epsilon))
    resid, up, dn = state
    steps = 0
    D, est, delta, term = np.empty((4, y.shape[0]))
    up_argmax, dn_argmin, up_item, dn_item = up.argmax, dn.argmin, up.item, dn.item
    beta_item, resid_item, est_argmax, column = beta.item, resid.item, est.argmax, kernel.column
    snap = 1e-10 * max(1.0, c)
    top, bottom = c - snap, -c + snap
    two_eps = 2.0 * epsilon
    etas = {}  # index i -> its eta row; the RBF diagonal is exactly 1.0
    eta_rows = ETA_CACHE_DOUBLES // y.shape[0]
    while True:
        i = up_argmax()
        b_lo = up_item(i)
        b_up = dn_item(dn_argmin())
        violation = b_lo - b_up
        if violation <= tol or steps >= max_steps:
            break
        ki = column(i)
        eta_row = etas.get(i)
        if eta_row is None:
            eta_row = ki * -2.0
            eta_row += 1.0
            eta_row += 1.0
            np.maximum(eta_row, 1e-12, out=eta_row)
            if len(etas) < eta_rows:
                etas[i] = eta_row
        # second-order partner choice: maximize gain estimate D^2 / eta
        np.subtract(b_lo, dn, out=D)
        np.abs(D, out=est)
        est *= D
        est /= eta_row
        j = est_argmax()
        bi = beta_item(i)
        bj = beta_item(j)
        eta = eta_row.item(j)
        a = resid_item(i) - resid_item(j)
        lo = max(-c - bi, bj - c)
        hi = min(c - bi, bj + c)
        # exact maximization of the piecewise-concave quadratic in the move d
        half_eta, abs_bi, abs_bj = 0.5 * eta, abs(bi), abs(bj)
        best_d = hi
        best_g = a * hi - half_eta * hi * hi - epsilon * (
            abs(bi + hi) - abs_bi + abs(bj - hi) - abs_bj)
        for d in (lo, -bi, bj, a / eta, (a - two_eps) / eta, (a + two_eps) / eta):
            if lo <= d <= hi:
                g = a * d - half_eta * d * d - epsilon * (
                    abs(bi + d) - abs_bi + abs(bj - d) - abs_bj)
                if g > best_g:
                    best_g = g
                    best_d = d
        if best_g <= 0.0 or best_d == 0.0:
            break  # numerically stuck; keep the honest violation
        new_i = bi + best_d
        new_j = bj - best_d
        if new_i > top:
            new_i = c
        elif new_i < bottom:
            new_i = -c
        if new_j > top:
            new_j = c
        elif new_j < bottom:
            new_j = -c
        np.multiply(ki, new_i - bi, out=delta)
        if new_j != bj:
            np.multiply(column(j), new_j - bj, out=term)
            delta += term
        state -= delta
        beta[i] = new_i
        beta[j] = new_j
        for t in (i, j):
            bt = beta_item(t)
            rt = resid_item(t)
            up[t] = -np.inf if bt >= c else (rt - epsilon if bt >= 0.0 else rt + epsilon)
            dn[t] = np.inf if bt <= -c else (rt + epsilon if bt <= 0.0 else rt - epsilon)
        steps += 1
    return beta, 0.5 * (b_lo + b_up), steps, max(violation, 0.0)


def train_svr(features, targets, params: SvrParams,
              settings: SolverSettings | None = None, *,
              geometry: KernelGeometry | None = None) -> SvrModel:
    """Fit an epsilon-SVR on (features, targets): the one way into the solver.

    Fully deterministic: the solve starts from beta = 0 and the
    pair-selection rule is greedy. geometry is the KernelGeometry of these
    features, shared by many fits on one training set (often a subset of a
    larger one); without it one is built here. The model is the same bit
    for bit either way.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise ValueError("targets must be a vector matching the feature rows")
    if y.shape[0] == 0:
        raise ValueError("need at least one training row")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("non-finite training data")
    settings = settings or SolverSettings()
    if geometry is None:
        geometry = KernelGeometry(X)
    elif not np.array_equal(geometry.features, X):
        raise ValueError("geometry was built from other features")
    n = y.shape[0]
    max_passes = settings.max_passes if settings.max_passes is not None else 10 * n
    beta, bias, steps, violation = _solve_dual(
        geometry.kernel(params.kernel), y, float(params.c), float(params.epsilon),
        settings.kkt_tolerance, max_passes * n)
    sv = np.abs(beta) > SV_THRESHOLD
    return SvrModel(support_inputs=X[sv], beta=beta[sv], bias=bias, params=params,
                    diagnostics=TrainingDiagnostics(steps, violation),
                    support_rows=np.flatnonzero(sv))


def predict_batch(model: SvrModel, features) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if X.shape[1] != model.n_features:
        raise ValueError(f"dimension mismatch: model has d={model.n_features}, input d={X.shape[1]}")
    return _predict_sqdist(model, _kernel_base(X[:, None, :], model.support_inputs[None, :, :]))


def predict_rows(model: SvrModel, geometry: KernelGeometry, rows, fit_rows=None) -> np.ndarray:
    """predict_batch(model, geometry.features[rows]), bit for bit, with the
    squared distances read from the geometry instead of recomputed.

    model was fitted on the geometry rows fit_rows (all of them when None),
    so its support vectors are the rows fit_rows[model.support_rows].
    """
    if model.support_rows is None:
        raise ValueError("the model does not record its support rows")
    if geometry.features.shape[1] != model.n_features:
        raise ValueError(f"dimension mismatch: model has d={model.n_features}, "
                         f"geometry d={geometry.features.shape[1]}")
    sv = model.support_rows if fit_rows is None else np.asarray(fit_rows)[model.support_rows]
    return _predict_sqdist(model, geometry.block(rows, sv))


def _predict_sqdist(model: SvrModel, sqdist: np.ndarray) -> np.ndarray:
    """Predictions from the C-contiguous squared distances of the inputs to
    the model's support vectors, (m, n_sv), overwritten: the one reduction
    of predict_batch and predict_rows, so the two agree bit for bit."""
    if model.beta.shape[0] == 0:
        return np.full(sqdist.shape[0], model.bias)
    K = _kernel_values(model.params.kernel, sqdist)
    K *= model.beta
    return K.sum(axis=1) + model.bias


def predict(model: SvrModel, x) -> float:
    x = np.asarray(x, dtype=np.float64).ravel()
    return float(predict_batch(model, x[None, :])[0])


def mse(actual, predicted) -> float:
    a = np.asarray(actual, dtype=np.float64).ravel()
    p = np.asarray(predicted, dtype=np.float64).ravel()
    if a.shape != p.shape:
        raise ValueError(f"length mismatch: {a.shape[0]} vs {p.shape[0]}")
    if a.shape[0] == 0:
        raise ValueError("mse undefined for empty vectors")
    d = a - p
    d *= d
    return float(d.sum() / a.shape[0])


def dual_objective(K: np.ndarray, y: np.ndarray, epsilon: float, beta: np.ndarray) -> float:
    """Dual value of a coefficient vector under a fixed kernel matrix."""
    beta = np.asarray(beta, dtype=np.float64)
    quad = (beta * (K * beta).sum(axis=1)).sum()
    return float(-0.5 * quad - epsilon * np.abs(beta).sum() + (y * beta).sum())


# --- serialization -----------------------------------------------------------

def model_to_json(model: SvrModel) -> str:
    k = model.params.kernel
    doc = {
        "kernel": {"kind": k.kind, "gamma": k.gamma},
        "c": model.params.c,
        "epsilon": model.params.epsilon,
        "support_inputs": [[float(v) for v in row] for row in model.support_inputs],
        "beta": [float(v) for v in model.beta],
        "bias": model.bias,
        "n_sv": model.n_sv,
        "diagnostics": {
            "iterations": model.diagnostics.iterations,
            "max_kkt_violation": model.diagnostics.max_kkt_violation,
        },
        "n_features": model.n_features,
    }
    return jsonio.dumps(doc)


def model_from_json(text: str) -> SvrModel:
    doc = jsonio.loads(text)
    kd = doc["kernel"]
    # other kernel keys, which files of earlier versions hold, are ignored
    spec = KernelSpec(kind=kd["kind"], gamma=float(kd["gamma"]))
    params = SvrParams(c=float(doc["c"]), epsilon=float(doc["epsilon"]), kernel=spec)
    m = len(doc["beta"])
    if int(doc["n_sv"]) != m:
        raise ValueError(f"n_sv {doc['n_sv']} disagrees with the {m} coefficients of beta")
    d = int(doc["n_features"])
    sv = np.array(doc["support_inputs"], dtype=np.float64).reshape(m, d if m == 0 else -1)
    if sv.shape[1] != d:
        raise ValueError(f"n_features {d} disagrees with the {sv.shape[1]} columns "
                         "of support_inputs")
    return SvrModel(
        support_inputs=sv,
        beta=np.array(doc["beta"], dtype=np.float64),
        bias=float(doc["bias"]),
        params=params,
        diagnostics=TrainingDiagnostics(
            iterations=int(doc["diagnostics"]["iterations"]),
            max_kkt_violation=float(doc["diagnostics"]["max_kkt_violation"]),
        ),
    )
