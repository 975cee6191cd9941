"""Dataset generation from the nominal model, teacher-forcing training of
the network, and fit-quality metrics.

A dataset row is [u_k, y_{k-1}, y_k, target y_k]: the input x_k is its first
three columns (the teacher slot carries the true current output), the target
its last.  At deployment the teacher slot is replaced by y_{k-1}, so deployed
predictions never read the current true output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from . import plant as pl
from .network import TgrbfNet, lgru_step
from .online import explicit_step_size, momentum_update

__all__ = [
    "Dataset", "FitReport",
    "excitation_signal", "generate_dataset", "initialize_network",
    "train_offline", "deploy_input", "evaluate_deploy", "fit_metrics",
    "dataset_to_csv", "dataset_from_csv",
]

WIDTH_FLOOR = 1e-2
# the identification recipe: excitation, process noise, holdout share,
# output-layer ridge scale, and the gradient stage's momentum and step cap
DWELL, EXCITATION_RANGE, NOISE_STD, HOLDOUT_FRAC = 50, (-2.0, 2.0), 0.01, 0.2
RIDGE, MOMENTUM, ETA_MAX = 1e-6, 0.2, 10.0


@dataclass
class Dataset:
    samples: np.ndarray    # chronological rows [u_k, y_prev, y_teacher, target]

    @property
    def split(self) -> int:   # the last HOLDOUT_FRAC of the rows are held out
        return len(self.samples) - int(round(HOLDOUT_FRAC * len(self.samples)))

    def train(self) -> np.ndarray:
        return self.samples[: self.split]

    def holdout(self) -> np.ndarray:
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


def excitation_signal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Identification input: piecewise-constant random levels held for
    DWELL steps."""
    levels = rng.uniform(*EXCITATION_RANGE, size=n // DWELL + 2)
    return np.repeat(levels, DWELL)[:n]


def generate_dataset(n: int, seed: int) -> Dataset:
    """Simulate the nominal model under the excitation signal and record
    teacher-forcing rows in chronological order."""
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.Generator(np.random.PCG64(seed))
    u = excitation_signal(n, rng)
    state = pl.make_state(pl.NOMINAL_PLANT)
    y = np.empty(n + 1)      # y[k + 1] is the output after u[k]
    y[0] = pl.output(state, pl.NOMINAL_PLANT)
    for k in range(n):
        w = NOISE_STD * rng.standard_normal()
        state = pl.plant_step(state, float(u[k]), w, pl.NOMINAL_PLANT)
        y[k + 1] = pl.output(state, pl.NOMINAL_PLANT)
    return Dataset(samples=np.column_stack([u, y[:-1], y[1:], y[1:]]))


def initialize_network(data: Dataset, m: int, p: int, seed: int) -> TgrbfNet:
    """Centers uniform over the observed input hypercube; widths half the
    mean nearest-neighbor center distance (floored); gate bias 0.5 with zero
    gate weights (constant initial gate); update-gate bias 0.9 so the hidden
    state locks onto the inputs within a few steps of a reset."""
    rng = np.random.Generator(np.random.PCG64(seed))
    X = data.train()[:, :-1]
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


def _hidden_states(net: TgrbfNet, X: np.ndarray) -> np.ndarray:
    """Hidden state entering each step of a chronological input sequence,
    reset to h_init at its start; one batched forward from them gives the
    sequence's one-step predictions.  The chain depends on the LGRU branch
    alone, so it is scanned one sample at a time with `lgru_step` (bit for
    bit the h_next chain of single-sample forwards)."""
    H = np.empty((len(X), net.p))
    H[:1] = net.h_init
    for i in range(1, len(X)):
        H[i] = lgru_step(X[i - 1], H[i - 1], net.W_zr, net.b_zr, net.W_h,
                         net.b_h)[0]
    return H


def _ridge_rows(net: TgrbfNet, chunks: list, H: list) -> np.ndarray:
    """Rows [g*phi, (1-g)*h_next, 1-g] of the output-layer system, stacked
    over the chunks with their hidden states H: y_hat is their dot product
    with (rbf_w, out_w, out_b)."""
    rows = []
    for (X, _), H_c in zip(chunks, H):
        _, tr = net.forward(X, h_prev=H_c)
        g = tr.g[:, None]
        rows.append(np.hstack([g * tr.phi, (1.0 - g) * tr.h_next, 1.0 - g]))
    return np.vstack(rows)


def _solve_output_layers(net: TgrbfNet, chunks: list, H: list) -> None:
    """Least-squares initialization of the output-side weights.

    With the kernel activations, hidden states and gate values fixed at their
    current-parameter traces, the prediction is linear in (rbf_w, out_w,
    out_b); solving that ridge system in closed form gives a far better
    starting point than random output weights."""
    A = _ridge_rows(net, chunks, H)
    b = np.concatenate([targets for _, targets in chunks])
    AtA = A.T @ A
    # scale-aware ridge: collinear hidden features otherwise produce huge
    # mutually-cancelling weights that do not generalize
    AtA += RIDGE * (np.trace(AtA) / A.shape[1]) * np.eye(A.shape[1])
    sol = np.linalg.solve(AtA, A.T @ b)
    net.rbf_w, net.out_w, net.out_b = sol[:net.m], sol[net.m:-1], sol[-1]


def _epoch_loss(net: TgrbfNet, chunks: list, H: list) -> float:
    total = 0.0
    for (X, targets), H_c in zip(chunks, H):
        F = targets - net.forward(X, h_prev=H_c)[0]
        total += float(F @ F)
    return total / (2.0 * sum(len(targets) for _, targets in chunks))


def train_offline(net: TgrbfNet, data: Dataset, epochs: int, seed: int,
                  chunk_len: int = 32) -> tuple[TgrbfNet, FitReport]:
    """Minimize the squared prediction error over all trainable parameter
    segments with the explicit-step momentum rule, one contiguous chunk per
    gradient step (hidden state reset per chunk, single-step gradients).

    The per-epoch training loss is recorded; if an epoch ends with a higher
    loss than the previous one the epoch is reverted and training halts with
    a step-rejection diagnostic.
    """
    train = data.train()
    if len(train) == 0:
        raise ValueError("empty training set")
    net = net.copy()
    rng = np.random.Generator(np.random.PCG64(seed))
    chunks = [(train[i:i + chunk_len, :-1], train[i:i + chunk_len, -1])
              for i in range(0, len(train), chunk_len)]

    # the ridge solve sets only rbf_w, out_w and out_b, which the hidden
    # states do not depend on: one scan serves it and the epoch-0 loss
    H = [_hidden_states(net, X) for X, _ in chunks]
    _solve_output_layers(net, chunks, H)
    W_prev = net.to_vector()
    loss_curve = [_epoch_loss(net, chunks, H)]
    halted = None
    for epoch in range(epochs):
        W_epoch_start = net.to_vector()
        for ci in rng.permutation(len(chunks)):
            X, targets = chunks[ci]
            y_hat, trace = net.forward(X, h_prev=_hidden_states(net, X))
            F, J = targets - y_hat, -net.jacobian_params(trace)   # J = dF/dW
            grad = (J.T @ F) / len(F)
            eta, degenerate = explicit_step_size(F, J)
            eta = min(ETA_MAX, 1.0) if degenerate else min(eta, ETA_MAX)
            W_next = momentum_update(net.theta, W_prev, grad, eta, MOMENTUM)
            W_prev[:] = net.theta   # if rejected, theta stays and momentum is 0
            if W_next is None:
                continue
            net.theta[:] = W_next
            # keep kernel widths above the positivity floor
            np.clip(net.widths, WIDTH_FLOOR, None, out=net.widths)
        H = [_hidden_states(net, X) for X, _ in chunks]
        loss = _epoch_loss(net, chunks, H)
        if loss > loss_curve[-1]:
            net.theta = W_epoch_start
            halted = epoch
            break
        loss_curve.append(loss)

    report = fit_metrics(*evaluate_teacher(net, data.holdout()))
    dep = fit_metrics(*evaluate_deploy(net, data.holdout()))
    report.deploy_mse, report.deploy_r2 = dep.mse, dep.r2
    report.loss_curve = loss_curve
    report.halted_epoch = halted
    return net, report


def evaluate_teacher(net: TgrbfNet,
                     samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sequential one-step predictions over chronological dataset rows
    under the training-time input convention (teacher slot carries the true
    current output); hidden state reset at the start."""
    X = samples[:, :-1]
    return net.forward(X, h_prev=_hidden_states(net, X))[0], samples[:, -1]


def evaluate_deploy(net: TgrbfNet,
                    samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sequential deploy-mode one-step predictions over chronological
    dataset rows (hidden state reset at the start): each input is
    deploy_input(u_k, y_prev)."""
    X = deploy_input(samples[:, 0], samples[:, 1]).T
    return net.forward(X, h_prev=_hidden_states(net, X))[0], samples[:, -1]


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


def _write_csv(path, header: list, rows) -> None:
    """A CSV table; floats as %.17g (exact round trip), other values as the
    csv module writes them."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row]
                    for row in rows)


def dataset_to_csv(data: Dataset, path) -> None:
    _write_csv(path, ["k", "u", "y_prev", "y_teacher", "target"],
               ([k, *row] for k, row in enumerate(data.samples.tolist())))


def dataset_from_csv(path) -> Dataset:
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        if header != ["k", "u", "y_prev", "y_teacher", "target"]:
            raise ValueError(f"unexpected dataset header: {header}")
        rows = [[float(v) for v in row[1:]] for row in rd]
    return Dataset(np.array(rows).reshape(len(rows), 4))   # raises on a short row
