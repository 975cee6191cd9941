"""Dataset generation from the nominal model, teacher-forcing training of
the network, and fit-quality metrics.

Training samples are triples x_k = [u_k, y_{k-1}, y_k] with target y_k (the
teacher slot carries the true current output).  At deployment the teacher
slot is replaced by y_{k-1}, so deployed predictions never read the current
true output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import plant as pl
from .network import TgrbfNet, lgru_step
from .online import explicit_step_size

__all__ = [
    "Sample", "Dataset", "FitReport",
    "excitation_signal", "generate_dataset", "initialize_network",
    "train_offline", "deploy_input", "evaluate_deploy", "fit_metrics",
    "dataset_to_csv", "dataset_from_csv",
]

WIDTH_FLOOR = 1e-2


@dataclass
class Sample:
    x: np.ndarray          # [u_k, y_prev, y_teacher]
    target: float
    err_priority: float = 0.0


@dataclass
class Dataset:
    samples: list          # chronological
    split: int             # train/holdout boundary index

    def train(self) -> list:
        return self.samples[: self.split]

    def holdout(self) -> list:
        return self.samples[self.split:]


@dataclass
class FitReport:
    mse: float
    rmse: float
    mae: float
    r2: float
    loss_curve: list = field(default_factory=list)
    halted_epoch: int | None = None    # set if training stopped on a loss rise
    # deploy-mode (teacher slot replaced by y_prev) holdout metrics; the
    # headline numbers above use the same teacher-forcing convention the
    # network was trained and tested under
    deploy_mse: float = math.nan
    deploy_r2: float = math.nan


def deploy_input(u_k: float, y_prev: float) -> np.ndarray:
    """Control-time input vector: the previous output substitutes for the
    unavailable current one."""
    return np.array([u_k, y_prev, y_prev], dtype=float)


def excitation_signal(kind: str, n: int, rng: np.random.Generator,
                      dwell: int = 50, low: float = -2.0,
                      high: float = 2.0) -> np.ndarray:
    """Input policies for identification data.

    "pwc": piecewise-constant random levels held for `dwell` steps.
    "continuous": linear interpolation between random knots every `dwell`
    steps (the held-out continuous test signal).
    """
    n_knots = n // dwell + 2
    levels = rng.uniform(low, high, size=n_knots)
    if kind == "pwc":
        return np.repeat(levels, dwell)[:n]
    if kind == "continuous":
        knot_t = np.arange(n_knots) * dwell
        return np.interp(np.arange(n), knot_t, levels)
    raise ValueError(f"unknown excitation kind: {kind}")


def generate_dataset(n: int, excitation: str = "pwc",
                     params: pl.PlantParams = pl.NOMINAL_PLANT,
                     noise_std: float = 0.01, seed: int = 0,
                     holdout_frac: float = 0.2) -> Dataset:
    """Simulate the nominal model under the excitation policy and record
    teacher-forcing triples in chronological order."""
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.Generator(np.random.PCG64(seed))
    u = excitation_signal(excitation, n, rng)
    state = pl.make_state(params)
    y_prev = pl.output(state, params)
    samples = []
    for k in range(n):
        w = noise_std * rng.standard_normal() if noise_std > 0.0 else 0.0
        state = pl.plant_step(state, float(u[k]), w, params)
        y_k = pl.output(state, params)
        samples.append(Sample(x=np.array([u[k], y_prev, y_k]), target=y_k))
        y_prev = y_k
    split = n - int(round(holdout_frac * n))
    return Dataset(samples=samples, split=split)


def initialize_network(data: Dataset, m: int = 6, p: int = 6,
                       seed: int = 0) -> TgrbfNet:
    """Centers uniform over the observed input hypercube; widths half the
    mean nearest-neighbor center distance (floored); gate bias 0.5 with zero
    gate weights (constant initial gate); update-gate bias 0.9 so the hidden
    state locks onto the inputs within a few steps of a reset."""
    rng = np.random.Generator(np.random.PCG64(seed))
    X = np.stack([s.x for s in data.train()])
    lo, hi = X.min(axis=0), X.max(axis=0)
    n_in = X.shape[1]
    centers = rng.uniform(lo, hi, size=(m, n_in))
    if m > 1:
        d = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        width = max(0.5 * float(d.min(axis=1).mean()), WIDTH_FLOOR)
    else:
        width = max(0.5 * float(np.linalg.norm(hi - lo)), WIDTH_FLOOR)
    u = lambda scale, *shape: rng.uniform(-scale, scale, size=shape)
    # candidate weights start as an identity routing of the inputs into the
    # first hidden units, so the hidden state carries clean leaky averages of
    # the raw inputs from the first epoch; update/reset weights stay small to
    # keep the clamps interior
    W_h = u(0.05, p, n_in + p)
    for i in range(min(p, n_in)):
        W_h[i, :] = 0.0
        W_h[i, i] = 1.0
    return TgrbfNet(
        centers=centers, widths=np.full(m, width), rbf_w=u(0.3, m),
        W_z=u(0.1, p, n_in + p), b_z=np.full(p, 0.9),
        W_r=u(0.1, p, n_in + p), b_r=np.full(p, 0.5),
        W_h=W_h, b_h=np.zeros(p),
        gate_w=np.zeros(n_in + p), gate_b=0.5,
        out_w=u(0.1, p), out_b=0.0,
        h_init=np.zeros(p),
    )


def _stack(samples: list, n_in: int) -> tuple[np.ndarray, np.ndarray]:
    """Inputs (s, n_in) and targets (s,) of a list of samples."""
    X = np.array([smp.x for smp in samples], dtype=float).reshape(-1, n_in)
    return X, np.array([smp.target for smp in samples], dtype=float)


def _sequence_forward(net: TgrbfNet, X: np.ndarray):
    """One-step predictions over a chronological input sequence, hidden state
    reset to h_init at its start.  Returns (y_hat, trace), batched.
    The hidden-state chain depends on the LGRU branch alone, so it is scanned
    one sample at a time with `lgru_step` (bit for bit the h_next chain of
    single-sample forwards); the outputs then come from one batched forward."""
    H = np.empty((len(X), net.p))
    H[:1] = net.h_init
    for i in range(1, len(X)):
        H[i] = lgru_step(X[i - 1], H[i - 1], net.W_z, net.b_z, net.W_r,
                         net.b_r, net.W_h, net.b_h)[0]
    return net.forward(X, h_prev=H)


def _ridge_rows(net: TgrbfNet, chunks: list) -> np.ndarray:
    """Rows [g*phi, (1-g)*h_next, 1-g] of the output-layer system, stacked
    over the chunks: y_hat is their dot product with (rbf_w, out_w, out_b)."""
    rows = []
    for X, _ in chunks:
        _, tr = _sequence_forward(net, X)
        g = tr.g[:, None]
        rows.append(np.hstack([g * tr.phi, (1.0 - g) * tr.h_next, 1.0 - g]))
    return np.vstack(rows)


def _solve_output_layers(net: TgrbfNet, chunks: list, ridge: float = 1e-6) -> None:
    """Least-squares initialization of the output-side weights.

    With the kernel activations, hidden states and gate values fixed at their
    current-parameter traces, the prediction is linear in (rbf_w, out_w,
    out_b); solving that ridge system in closed form gives a far better
    starting point than random output weights."""
    A = _ridge_rows(net, chunks)
    b = np.concatenate([targets for _, targets in chunks])
    AtA = A.T @ A
    # scale-aware ridge: collinear hidden features otherwise produce huge
    # mutually-cancelling weights that do not generalize
    AtA += ridge * (np.trace(AtA) / A.shape[1]) * np.eye(A.shape[1])
    sol = np.linalg.solve(AtA, A.T @ b)
    m, p = net.rbf_w.size, net.out_w.size
    net.rbf_w = sol[:m].copy()
    net.out_w = sol[m:m + p].copy()
    net.out_b = float(sol[-1])


def _epoch_loss(net: TgrbfNet, chunks: list) -> float:
    total = 0.0
    for X, targets in chunks:
        F = targets - _sequence_forward(net, X)[0]
        total += float(F @ F)
    return total / (2.0 * sum(len(targets) for _, targets in chunks))


def train_offline(net: TgrbfNet, data: Dataset, epochs: int = 200,
                  chunk_len: int = 32, momentum: float = 0.2,
                  seed: int = 0, eta_max: float = 10.0) -> tuple[TgrbfNet, FitReport]:
    """Minimize the squared prediction error over all trainable parameter
    segments with the explicit-step momentum rule, one contiguous chunk per
    gradient step (hidden state reset per chunk, single-step gradients).

    The per-epoch training loss is recorded; if an epoch ends with a higher
    loss than the previous one the epoch is reverted and training halts with
    a step-rejection diagnostic.
    """
    train = data.train()
    if not train:
        raise ValueError("empty training set")
    net = net.copy()
    rng = np.random.Generator(np.random.PCG64(seed))
    chunks = [_stack(train[i:i + chunk_len], net.n_in)
              for i in range(0, len(train), chunk_len)]
    w_off, w_size = {n: (o, size) for n, o, size in net.layout()}["widths"]

    _solve_output_layers(net, chunks)
    W = net.to_vector()
    W_prev = W.copy()
    loss_curve = [_epoch_loss(net, chunks)]
    halted = None
    for epoch in range(epochs):
        W_epoch_start = W.copy()
        W_prev_start = W_prev.copy()
        order = rng.permutation(len(chunks))
        for ci in order:
            X, targets = chunks[ci]
            y_hat, trace = _sequence_forward(net, X)
            F, J = targets - y_hat, -net.jacobian_params(trace)   # J = dF/dW
            grad = (J.T @ F) / len(F)
            eta, degenerate = explicit_step_size(F, J)
            eta = min(eta_max, 1.0) if degenerate else min(eta, eta_max)
            W_next = W - eta * grad + momentum * (W - W_prev)
            if not np.all(np.isfinite(W_next)):
                W_prev = W.copy()     # reject step, drop momentum
                continue
            # keep kernel widths above the positivity floor
            seg = W_next[w_off:w_off + w_size]
            np.clip(seg, WIDTH_FLOOR, None, out=seg)
            W_prev = W
            W = W_next
            net.from_vector(W)
        loss = _epoch_loss(net, chunks)
        if loss > loss_curve[-1]:
            W, W_prev = W_epoch_start, W_prev_start
            net.from_vector(W)
            halted = epoch
            break
        loss_curve.append(loss)

    report = fit_metrics(*evaluate_teacher(net, data.holdout()))
    dep = fit_metrics(*evaluate_deploy(net, data.holdout()))
    report.deploy_mse, report.deploy_r2 = dep.mse, dep.r2
    report.loss_curve = loss_curve
    report.halted_epoch = halted
    return net, report


def evaluate_teacher(net: TgrbfNet, samples: list) -> tuple[np.ndarray, np.ndarray]:
    """Sequential one-step predictions over a chronological sample sequence
    under the training-time input convention (teacher slot carries the true
    current output); hidden state reset at the start."""
    X, actual = _stack(samples, net.n_in)
    return _sequence_forward(net, X)[0], actual


def evaluate_deploy(net: TgrbfNet, samples: list) -> tuple[np.ndarray, np.ndarray]:
    """Sequential deploy-mode one-step predictions over a chronological
    sample sequence (hidden state reset at the start): each input is
    deploy_input(u_k, y_prev)."""
    X, actual = _stack(samples, net.n_in)
    return _sequence_forward(net, deploy_input(X[:, 0], X[:, 1]).T)[0], actual


def fit_metrics(pred, actual) -> FitReport:
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape or pred.size == 0:
        raise ValueError("pred and actual must have equal nonzero length")
    err = actual - pred
    mse = float(np.mean(err ** 2))
    sst = float(np.sum((actual - actual.mean()) ** 2))
    r2 = 1.0 - float(np.sum(err ** 2)) / sst if sst > 0.0 else math.nan
    return FitReport(mse=mse, rmse=math.sqrt(mse),
                     mae=float(np.mean(np.abs(err))), r2=r2)


def dataset_to_csv(data: Dataset, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "u", "y_prev", "y_teacher", "target"])
        for k, s in enumerate(data.samples):
            w.writerow([k] + [f"{v:.17g}" for v in (*s.x, s.target)])


def dataset_from_csv(path, holdout_frac: float = 0.2) -> Dataset:
    samples = []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if header != ["k", "u", "y_prev", "y_teacher", "target"]:
            raise ValueError(f"unexpected dataset header: {header}")
        for row in rd:
            u, y_prev, y_teacher, target = map(float, row[1:])
            samples.append(Sample(x=np.array([u, y_prev, y_teacher]),
                                  target=target))
    split = len(samples) - int(round(holdout_frac * len(samples)))
    return Dataset(samples=samples, split=split)
