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
train_svr_batch is the one fit entry: it runs this loop for many triples on
one training set in lockstep, on (P, n) arrays, with the scalar loop's
arithmetic per problem, so every model is the same bit for bit as a fit
alone. A lockstep step costs several scalar steps, so the lockstep loop
runs only while at least LOCKSTEP_MIN problems are unfinished; the last
few, or a batch of fewer, go on alone in the scalar loop from where they
stand. train_svr is its one-triple case, solved in the scalar loop from
beta = 0. The scalar loop keeps each step's scalar bookkeeping on Python
floats, which are IEEE doubles as np.float64 scalars are, in the same
order of operations, so its models are those of numpy scalar arithmetic
bit for bit, for a third to a half less time per step.

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
from dataclasses import dataclass
from typing import Optional, Sequence

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
    "train_svr_batch",
    "predict",
    "predict_batch",
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

# train_svr_batch advances its fits in lockstep while at least this many are
# unfinished and finishes the rest one by one in the scalar loop: a lockstep
# step costs several scalar steps, so it pays only while enough problems
# share it. Measured once the scalar step ran on Python floats: every slice
# of P points of an 8-generation desk-de job (DE, holdout 0.2, 400 fit rows,
# max_passes 3, 2 cores) timed under each value in turn. 8 was fastest or
# within 1% for P = 5, 7, 8, 10, 12 and 15; 5 was 4 to 17% slower than 8 at
# every P, and the scalar loop alone 19% slower at P = 15. The ROADMAP desk
# tune (population 15) then took 11.7 to 13.1 s at --threads 4, whose shares
# of 3 and 4 run the scalar loop throughout, and 12.1 to 15.4 s at
# --threads 2 (3 runs each).
LOCKSTEP_MIN = 8

# training rows with |beta| above this are support vectors
SV_THRESHOLD = 1e-8


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
    finite and above SV_THRESHOLD (every |beta| <= C, so below it no support
    vector is kept) and epsilon finite and >= 0; KernelSpec states gamma's."""

    c: float
    epsilon: float
    kernel: KernelSpec

    def __post_init__(self) -> None:
        if not (np.isfinite(self.c) and self.c > SV_THRESHOLD):
            raise ValueError(f"c must be finite and above {SV_THRESHOLD:g}: at or below it a "
                             "model keeps no support vector and predicts a constant")
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
        if not self.kkt_tolerance > 0:
            raise ValueError("kkt_tolerance must be > 0")
        if self.max_passes is not None and self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")


@dataclass(frozen=True)
class TrainingDiagnostics:
    iterations: int
    max_kkt_violation: float


@dataclass(frozen=True, eq=False)
class SvrModel:
    """Trained regressor: f(x) = sum_i beta_i k(sv_i, x) + bias.

    Only rows with |beta| above SV_THRESHOLD are stored.
    """

    support_inputs: np.ndarray
    beta: np.ndarray
    bias: float
    params: SvrParams
    n_sv: int
    diagnostics: TrainingDiagnostics

    def __post_init__(self) -> None:
        sv = np.array(self.support_inputs, dtype=np.float64)
        bt = np.array(self.beta, dtype=np.float64)
        if sv.ndim != 2 or bt.ndim != 1 or sv.shape[0] != bt.shape[0]:
            raise ValueError("support_inputs must be (m, d) with beta of length m")
        sv.setflags(write=False)
        bt.setflags(write=False)
        object.__setattr__(self, "support_inputs", sv)
        object.__setattr__(self, "beta", bt)

    @property
    def n_features(self) -> int:
        return self.support_inputs.shape[1]


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

    def column(self, i: int) -> np.ndarray:
        return self.mat[i]


class _LazyKernel:
    """Column-on-demand kernel for large training sets."""

    def __init__(self, spec: KernelSpec, geometry: "KernelGeometry") -> None:
        self.spec = spec
        self.geometry = geometry

    def column(self, i: int) -> np.ndarray:
        return _kernel_values(self.spec, self.geometry.rows([i])[0])


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
        pick = rows
        block = np.ix_(rows, rows)
        if rows.size and np.array_equal(rows, np.arange(rows[0], rows[0] + rows.size)):
            pick = slice(rows[0], rows[0] + rows.size)
            block = (pick, pick)
        sub = copy.copy(self)
        sub.features = self.features[pick]
        if self.base is not None:
            sub.base = self.base[block]
        return sub

    def rows(self, idx) -> np.ndarray:
        """Squared distances from rows idx to every row, (len(idx), n): taken
        from the base, or built from the features when there is none."""
        if self.base is None:
            X = self.features
            return _kernel_base(X[idx][:, None, :], X[None, :, :])
        return self.base[idx]

    def kernel(self, spec: KernelSpec):
        """Kernel of these rows under spec, as the dual solver reads it."""
        if self.base is None:
            return _LazyKernel(spec, self)
        return _DenseKernel(_kernel_values(spec, np.array(self.base)))


def _solve_dual(kernel, y: np.ndarray, c: float, epsilon: float,
                tol: float, max_steps: int, start=None):
    """Core pairwise ascent. Returns (beta, bias, steps, violation).

    Maintains three length-n arrays updated incrementally per step:
    resid  = y - K @ beta
    up[i]  = ascent gain of raising beta[i]   (-inf once beta[i] = c)
    dn[i]  = bias bound from lowering beta[i] (+inf once beta[i] = -c)
    The optimum is reached when max(up) - min(dn) <= tol; that window also
    yields the bias (midpoint), which reduces to the feasible-interval
    midpoint rule when no support vector is free. start = (beta, resid, up,
    dn, steps) resumes a solve from that state instead of from beta = 0.
    Every fit passes a start, but the solve from zero must stay: acceptance
    criterion 1 (tests/test_acceptance.py) and a five-point test in
    tests/test_svr.py call it on a _DenseKernel of _kernel_matrix and compare
    it against a reference QP solution.

    c and epsilon are Python floats, and a step's scalar bookkeeping (the
    window ends, the pair's coefficients, the line search, the snap to the
    box, the two bound entries) runs on Python floats read with
    ndarray.item. They are IEEE doubles, as np.float64 scalars are, and
    every operation keeps its order, so each value is the one numpy
    scalars would give, bit for bit.
    """
    n = y.shape[0]
    if start is None:
        beta = np.zeros(n)
        resid = y.astype(np.float64, copy=True)
        up = resid - epsilon
        dn = resid + epsilon
        steps = 0
    else:
        beta, resid, up, dn, steps = start
    snap = 1e-10 * max(1.0, c)
    top, bottom = c - snap, -c + snap
    two_eps = 2.0 * epsilon
    scratch = np.empty(n)
    while True:
        i = up.argmax()
        b_lo = up.item(i)
        b_up = dn.item(dn.argmin())
        violation = b_lo - b_up
        if violation <= tol or steps >= max_steps:
            break
        ki = kernel.column(i)
        # second-order partner choice: maximize gain estimate D^2 / eta; the
        # RBF diagonal is exactly 1.0
        D = b_lo - dn
        np.multiply(ki, -2.0, out=scratch)
        scratch += 1.0
        scratch += 1.0
        np.maximum(scratch, 1e-12, out=scratch)
        est = D * np.abs(D)
        est /= scratch
        j = est.argmax()
        kj = kernel.column(j)
        bi = beta.item(i)
        bj = beta.item(j)
        eta = scratch.item(j)
        a = resid.item(i) - resid.item(j)
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
        delta = (new_i - bi) * ki
        if new_j != bj:
            delta += (new_j - bj) * kj
        resid -= delta
        up -= delta
        dn -= delta
        beta[i] = new_i
        beta[j] = new_j
        for t in (i, j):
            bt = beta.item(t)
            rt = resid.item(t)
            up[t] = -np.inf if bt >= c else (rt - epsilon if bt >= 0.0 else rt + epsilon)
            dn[t] = np.inf if bt <= -c else (rt + epsilon if bt <= 0.0 else rt - epsilon)
        steps += 1
    return beta, 0.5 * (b_lo + b_up), steps, max(violation, 0.0)


def _solve_dual_batch(geometry: KernelGeometry, y: np.ndarray, c: np.ndarray,
                      epsilon: np.ndarray, gamma: np.ndarray, tol: float, max_steps: int):
    """_solve_dual for P problems on one training set, advanced in lockstep.

    Problem p has parameters (c[p], epsilon[p], gamma[p]) and owns row p of
    (P, n) state arrays. Every step does, row by row, the scalar loop's
    arithmetic in the same order, so each problem ends bit for bit as
    _solve_dual would leave it. A problem retires when it converges, reaches
    max_steps or gets stuck; the others go on. Only the two kernel rows a
    step needs are built, so no (n, n) kernel is stored per problem. Once
    fewer than LOCKSTEP_MIN problems are live, each goes on from where it
    stands in _solve_dual, which is faster for so few.
    Returns arrays (beta (P, n), bias, steps, violation).
    """
    P, n = c.shape[0], y.shape[0]
    out_beta = np.zeros((P, n))
    out_bias = np.empty(P)
    out_steps = np.zeros(P, dtype=np.int64)
    out_violation = np.empty(P)
    live = np.arange(P)
    beta = np.zeros((P, n))
    resid = np.tile(y, (P, 1))
    up = resid - epsilon[:, None]
    dn = resid + epsilon[:, None]
    snap = 1e-10 * np.maximum(1.0, c)
    # one row of constants per live problem
    consts = np.stack([c, -c, c - snap, -c + snap, epsilon, 2.0 * epsilon, -gamma], axis=1)
    sign = np.array([1.0, -1.0])  # moves beta[i] by +d and beta[j] by -d
    # the state arrays are C-contiguous, so take and put reach entry t of
    # live problem p at at[p] + t, and entry t of its line search at at7[p] + t
    at = live * n
    at7 = live * 7
    steps = 0

    def retire(mask, b_lo, b_up, violation):
        """Record the problems in mask as they stand and drop them."""
        nonlocal live, beta, resid, up, dn, consts, at, at7
        done = live[mask]
        out_beta[done] = beta[mask]
        out_bias[done] = 0.5 * (b_lo[mask] + b_up[mask])
        out_steps[done] = steps
        out_violation[done] = violation[mask]
        keep = ~mask
        live, beta, resid, up, dn, consts = (
            live[keep], beta[keep], resid[keep], up[keep], dn[keep], consts[keep])
        at, at7 = at[: live.size], at7[: live.size]
        return keep

    def finish_alone():
        """Run each live problem to its end in the scalar loop."""
        for row, p in enumerate(live):
            state = (beta[row].copy(), resid[row].copy(), up[row].copy(), dn[row].copy(), steps)
            out_beta[p], out_bias[p], out_steps[p], out_violation[p] = _solve_dual(
                geometry.kernel(KernelSpec(gamma=float(gamma[p]))), y, float(consts[row, 0]),
                float(epsilon[p]), tol, max_steps, state)

    def kernel_rows(idx, neg_gamma):
        k = geometry.rows(idx)
        k /= neg_gamma[:, None]
        np.exp(k, out=k)
        return k

    while live.size:
        if live.size < LOCKSTEP_MIN:
            finish_alone()
            break
        i = up.argmax(axis=1)
        b_lo = up.take(at + i)
        b_up = dn.take(at + dn.argmin(axis=1))
        violation = b_lo - b_up
        stop = violation <= tol
        if steps >= max_steps:
            stop[:] = True
        if stop.any():
            keep = retire(stop, b_lo, b_up, violation)
            if not live.size:
                break
            i, b_lo, b_up, violation = i[keep], b_lo[keep], b_up[keep], violation[keep]
        c, neg_c, top, bottom, eps, two_eps, neg_gamma = consts.T
        ki = kernel_rows(i, neg_gamma)
        # second-order partner choice; the RBF diagonal is exactly 1.0
        D = b_lo[:, None] - dn
        scratch = ki * -2.0
        scratch += 1.0
        scratch += 1.0
        np.maximum(scratch, 1e-12, out=scratch)
        est = np.abs(D)
        est *= D
        est /= scratch
        j = est.argmax(axis=1)
        fij = np.stack((at + i, at + j), axis=1)
        pair = beta.take(fij)
        bi, bj = pair[:, 0], pair[:, 1]
        res = resid.take(fij)
        a = res[:, 0] - res[:, 1]
        eta = scratch.take(fij[:, 1])
        # the scalar line search's candidates in its order; argmax takes the
        # first of the best, as its strict-improvement scan does
        d = np.empty((live.size, 7))
        hi, lo = d[:, 0], d[:, 1]
        np.minimum(c - bi, bj + c, out=hi)
        np.maximum(neg_c - bi, bj - c, out=lo)
        np.negative(bi, out=d[:, 2])
        d[:, 3] = bj
        np.divide(a, eta, out=d[:, 4])
        np.divide(a - two_eps, eta, out=d[:, 5])
        np.divide(a + two_eps, eta, out=d[:, 6])
        g = a[:, None] * d
        quad = (0.5 * eta)[:, None] * d
        quad *= d
        g -= quad
        kink = bi[:, None] + d
        np.abs(kink, out=kink)
        kink -= np.abs(bi)[:, None]
        kink_j = bj[:, None] - d
        np.abs(kink_j, out=kink_j)
        kink += kink_j
        kink -= np.abs(bj)[:, None]
        kink *= eps[:, None]
        g -= kink
        outside = (d < lo[:, None]) | (d > hi[:, None])
        outside[:, 0] = False
        np.copyto(g, -np.inf, where=outside)
        best = at7 + g.argmax(axis=1)
        best_d = d.take(best)
        stuck = (g.take(best) <= 0.0) | (best_d == 0.0)
        if stuck.any():  # numerically stuck; keep the honest violation
            keep = retire(stuck, b_lo, b_up, violation)
            if not live.size:
                break
            c, neg_c, top, bottom, eps, two_eps, neg_gamma = consts.T
            i, j, ki, pair, best_d = i[keep], j[keep], ki[keep], pair[keep], best_d[keep]
            fij = np.stack((at + i, at + j), axis=1)
        new = pair + best_d[:, None] * sign
        # both tests read the unsnapped values, as the scalar if/elif does; as
        # C > SV_THRESHOLD exceeds the snap margin, the two windows are apart
        to_top = new > top[:, None]
        to_bottom = new < bottom[:, None]
        np.copyto(new, c[:, None], where=to_top)
        np.copyto(new, neg_c[:, None], where=to_bottom)
        coef = new - pair
        delta = ki
        delta *= coef[:, :1]
        kj = kernel_rows(j, neg_gamma)
        kj *= coef[:, 1:]
        # beta[j]'s term only where it moved, as in the scalar loop: adding a
        # zero term could turn a -0.0 in delta into +0.0
        np.add(delta, kj, out=delta, where=(new[:, 1] != pair[:, 1])[:, None])
        resid -= delta
        up -= delta
        dn -= delta
        beta.put(fij, new)  # beta[j] written last, as when i == j in the scalar loop
        bt = beta.take(fij)
        rt = resid.take(fij)
        lower = rt - eps[:, None]
        upper = rt + eps[:, None]
        u = np.where(bt >= 0.0, lower, upper)
        np.copyto(u, -np.inf, where=bt >= c[:, None])
        up.put(fij, u)
        v = np.where(bt <= 0.0, upper, lower)
        np.copyto(v, np.inf, where=bt <= neg_c[:, None])
        dn.put(fij, v)
        steps += 1
    return out_beta, out_bias, out_steps, out_violation


def train_svr(features, targets, params: SvrParams,
              settings: SolverSettings | None = None, *,
              geometry: KernelGeometry | None = None) -> SvrModel:
    """Fit an epsilon-SVR on (features, targets): train_svr_batch at one triple.

    Fully deterministic: the pair-selection rule is greedy. geometry is the
    KernelGeometry of these features, shared by many fits on one training
    set (often a subset of a larger one); without it one is built here. The
    model is the same bit for bit either way.
    """
    return train_svr_batch(features, targets, [params], settings, geometry=geometry)[0]


def train_svr_batch(features, targets, params_seq: Sequence[SvrParams],
                    settings: SolverSettings | None = None, *,
                    geometry: KernelGeometry | None = None) -> list[SvrModel]:
    """An epsilon-SVR fit at each of params_seq on one training set; model k
    is the same bit for bit as train_svr at params_seq[k].

    The fits advance in lockstep while at least LOCKSTEP_MIN of them are
    unfinished, which pays off for a population or a sweep grid; the rest,
    or a batch of fewer, go on one by one in the scalar loop.
    """
    params_seq = list(params_seq)
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
    beta, bias, steps, violation = _solve_dual_batch(
        geometry, y,
        np.array([p.c for p in params_seq], dtype=np.float64),
        np.array([p.epsilon for p in params_seq], dtype=np.float64),
        np.array([p.kernel.gamma for p in params_seq], dtype=np.float64),
        settings.kkt_tolerance, max_passes * n,
    )
    models = []
    for k, p in enumerate(params_seq):
        sv = np.abs(beta[k]) > SV_THRESHOLD
        models.append(SvrModel(
            support_inputs=X[sv], beta=beta[k][sv], bias=float(bias[k]), params=p,
            n_sv=int(sv.sum()),
            diagnostics=TrainingDiagnostics(int(steps[k]), max(float(violation[k]), 0.0))))
    return models


def predict_batch(model: SvrModel, features) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if X.shape[1] != model.n_features:
        raise ValueError(f"dimension mismatch: model has d={model.n_features}, input d={X.shape[1]}")
    if model.beta.shape[0] == 0:
        return np.full(X.shape[0], model.bias)
    K = _kernel_matrix(model.params.kernel, X, model.support_inputs)
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
    d = int(doc.get("n_features", 0))
    sv = np.array(doc["support_inputs"], dtype=np.float64).reshape(m, d if m == 0 else -1)
    return SvrModel(
        support_inputs=sv if m else np.zeros((0, d)),
        beta=np.array(doc["beta"], dtype=np.float64),
        bias=float(doc["bias"]),
        params=params,
        n_sv=int(doc["n_sv"]),
        diagnostics=TrainingDiagnostics(
            iterations=int(doc["diagnostics"]["iterations"]),
            max_kkt_violation=float(doc["diagnostics"]["max_kkt_violation"]),
        ),
    )
