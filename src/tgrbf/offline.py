"""Dataset generation from the nominal model, teacher-forcing training of
the network, and fit-quality metrics.

A Dataset holds a chronological input series u and outputs y, y[k + 1] the
output after u[k].  Only `Dataset.regressor` turns them into network inputs
and targets: row k is [u_k, y_k, y_{k+1}] in training, [u_k, y_k, y_k] at
deployment (which never reads the output it predicts), with target y_{k+1}.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import plant as pl
from .network import TgrbfNet, lgru_step
from .online import explicit_step_size, momentum_update

__all__ = [
    "IdentifyConfig", "Dataset", "FitReport",
    "excitation_signal", "generate_dataset", "initialize_network",
    "train_offline", "evaluate_teacher", "evaluate_deploy", "fit_metrics",
    "dataset_to_csv", "dataset_from_csv",
]

WIDTH_FLOOR = 1e-2
# the identification recipe: excitation, process noise, holdout share,
# readout ridge scale, and the gradient stage's chunk length, momentum, step cap
DWELL, EXCITATION_RANGE, NOISE_STD, HOLDOUT_FRAC = 50, (-2.0, 2.0), 0.01, 0.2
RIDGE, CHUNK_LEN, MOMENTUM, ETA_MAX = 1e-6, 32, 0.2, 10.0
HISTORY_LEN = 1   # the closed loop keeps this many inputs and one more output
_CSV_HEADER = ["k", "u", "y_prev", "y_teacher", "target"]
_EXPORT_ROWS = 64   # CSV rows per string operation; more saves no time, costs memory


# JSON values a key of each kind takes: a dataclass field's declared type,
# "number" for a float() conversion, "whole number" (3.0 passes, 3.5 not) for
# an int() one, "object" for a section.  A bool is not a number.
_JSON_TYPES = {"float": (int, float), "int": (int,), "str": (str,),
               "str | None": (str, type(None)), "number": (int, float),
               "whole number": (int, float), "object": (dict,)}


def _check_keys(section: str, d, accepted: dict) -> dict:
    """d, if it is a JSON object whose keys are all in `accepted`, each with a
    value of the kind that `accepted` gives it."""
    if not isinstance(d, dict):
        raise ValueError(f"'{section}' config must be a JSON object, got {d!r}")
    unknown = set(d) - set(accepted)
    if unknown:
        raise ValueError(f"unknown keys in '{section}' config: {sorted(unknown)}")
    for key, value in d.items():
        kind = accepted[key]
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
            raise ValueError(f"'{section}.{key}' must be a JSON {kind}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"'{section}.{key}' must be finite, got {value!r}")
        if kind == "whole number" and value != int(value):
            raise ValueError(f"'{section}.{key}' must be a whole number, got {value!r}")
    return d


@dataclass
class IdentifyConfig:
    """`tgrbf identify`'s settable values: the sample count, the gradient
    stage's epochs, the network's m RBF nodes and p hidden units, the seed."""
    n_samples: int = 1000
    epochs: int = 200
    m: int = 6
    p: int = 6
    seed: int = 0

    @classmethod
    def from_dict(cls, doc) -> IdentifyConfig:
        """The config an `identify` JSON document sets: its keys are fields,
        each value a whole number."""
        _check_keys("identify", doc, dict.fromkeys(
            (f.name for f in fields(cls)), "whole number"))
        return cls(**{key: int(value) for key, value in doc.items()})

    def __post_init__(self):
        for key, low in (("epochs", 0), ("m", 1), ("p", 1), ("seed", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"'identify.{key}' must be >= {low}, "
                                 f"got {getattr(self, key)}")
        if round(HOLDOUT_FRAC * self.n_samples) < 1:
            raise ValueError(f"'identify.n_samples' must leave a holdout row (the "
                             f"last {HOLDOUT_FRAC:g} of the rows), got {self.n_samples}")


@dataclass
class Dataset:
    u: np.ndarray    # (n,) chronological inputs
    y: np.ndarray    # (n + 1,) outputs; y[k + 1] is the output after u[k]

    def __post_init__(self):
        if len(self.y) != len(self.u) + 1:
            raise ValueError(f"len(y) {len(self.y)} != len(u) {len(self.u)} + 1")

    def regressor(self, deploy: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Network inputs and targets: row k is [u_k, y_k, y_{k+1}], or
        [u_k, y_k, y_k] deployed (y_{k+1} not yet measured); target y_{k+1}."""
        y_k, y_k1 = self.y[:-1], self.y[1:]
        return np.array([self.u, y_k, y_k if deploy else y_k1]).T, y_k1

    @property
    def samples(self) -> np.ndarray:   # rows [u_k, y_prev, y_teacher, target]
        return np.column_stack(self.regressor())

    @property
    def split(self) -> int:   # the last HOLDOUT_FRAC of the rows are held out
        return len(self.u) - int(round(HOLDOUT_FRAC * len(self.u)))

    def train(self) -> Dataset:
        return Dataset(self.u[:self.split], self.y[:self.split + 1])

    def holdout(self) -> Dataset:
        return Dataset(self.u[self.split:], self.y[self.split:])


@dataclass
class FitReport:
    mse: float
    rmse: float
    mae: float
    r2: float
    loss_curve: list = field(default_factory=list)
    halted_epoch: int | None = None    # set if training stopped on a loss rise
    # holdout metrics of the deployment rows; those above use the teacher-
    # forcing rows the network was trained and tested on
    deploy_mse: float = math.nan
    deploy_r2: float = math.nan


def excitation_signal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Identification input: piecewise-constant random levels held for
    DWELL steps."""
    levels = rng.uniform(*EXCITATION_RANGE, size=n // DWELL + 2)
    return np.repeat(levels, DWELL)[:n]


def generate_dataset(n: int, seed: int) -> Dataset:
    """Simulate the nominal model under the excitation signal and process
    noise drawn in one call after it (the doubles of one draw per step)."""
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.Generator(np.random.PCG64(seed))
    u = excitation_signal(n, rng)
    w = NOISE_STD * rng.standard_normal(n)
    state = pl.make_state(pl.NOMINAL_PLANT)
    y = [pl.output(state, pl.NOMINAL_PLANT)]   # y[k + 1] is the output after u[k]
    for u_k, w_k in zip(u.tolist(), w.tolist()):
        state = pl.plant_step(state, u_k, w_k, pl.NOMINAL_PLANT)
        y.append(pl.output(state, pl.NOMINAL_PLANT))
    return Dataset(u, np.array(y))


def initialize_network(data: Dataset, m: int, p: int, seed: int) -> TgrbfNet:
    """Centers uniform over the observed input hypercube; widths half the
    mean nearest-neighbor center distance (floored); gate bias 0.5 with zero
    gate weights (constant initial gate); update-gate bias 0.9 so the hidden
    state locks onto the inputs within a few steps of a reset."""
    rng = np.random.Generator(np.random.PCG64(seed))
    X = data.train().regressor()[0]
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
    alone, so it is scanned with `lgru_step`, bit for bit the h_next chain
    of single-sample forwards: X is (n, n_in), or (n, c, 1, n_in) for c
    sequences side by side, whose singleton row axis keeps each step one-row
    products (a (c, n_in) step is one GEMM, which moves the last bit)."""
    H = np.empty(X.shape[:-1] + (net.p,))
    H[:1] = net.h_init
    for i in range(1, len(X)):
        H[i] = lgru_step(X[i - 1], H[i - 1], net.W_zr, net.b_zr, net.W_h,
                         net.b_h)[0]
    return H


def _chunk_states(net: TgrbfNet, X: np.ndarray) -> list:
    """`_hidden_states` of each CHUNK_LEN chunk of X, scanned side by side
    (a ragged last chunk padded with zero rows, their states dropped)."""
    stack = np.zeros((-(-len(X) // CHUNK_LEN), CHUNK_LEN, 1, X.shape[1]))
    stack.reshape(-1, X.shape[1])[:len(X)] = X
    H = _hidden_states(net, stack.swapaxes(0, 1)).swapaxes(0, 1)
    return np.split(H.reshape(-1, net.p)[:len(X)],
                    range(CHUNK_LEN, len(X), CHUNK_LEN))


def _solve_output_layers(net: TgrbfNet, chunks: list, H: list) -> None:
    """Least-squares initialization of the output-side weights.

    With the kernel activations, hidden states and gate values fixed at their
    current-parameter traces, the prediction is linear in the readout
    (rbf_w, out_w, out_b), and its rows are the readout's columns of dy/dW;
    solving that ridge system in closed form gives a far better starting
    point than random output weights."""
    A = np.concatenate([net.readout_rows(net.forward(X, h_prev=H_c)[1])
                        for (X, _), H_c in zip(chunks, H)])
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


def train_offline(net: TgrbfNet, data: Dataset, epochs: int,
                  seed: int) -> tuple[TgrbfNet, FitReport]:
    """Minimize the squared prediction error over all trainable parameter
    segments with the explicit-step momentum rule, one contiguous chunk per
    gradient step (hidden state reset per chunk, single-step gradients).

    The per-epoch training loss is recorded; if an epoch ends with a higher
    loss than the previous one the epoch is reverted and training halts with
    a step-rejection diagnostic.
    """
    X, targets = data.train().regressor()
    if len(X) == 0:
        raise ValueError("empty training set")
    net = net.copy()
    rng = np.random.Generator(np.random.PCG64(seed))
    chunks = [(X[i:i + CHUNK_LEN], targets[i:i + CHUNK_LEN])
              for i in range(0, len(X), CHUNK_LEN)]

    # the ridge solve sets only rbf_w, out_w and out_b, which the hidden
    # states do not depend on: one scan serves it and the epoch-0 loss
    H = _chunk_states(net, X)
    _solve_output_layers(net, chunks, H)
    W_prev = net.to_vector()
    loss_curve = [_epoch_loss(net, chunks, H)]
    halted = None
    for epoch in range(epochs):
        W_epoch_start = net.to_vector()
        for ci in rng.permutation(len(chunks)):
            X_c, targets_c = chunks[ci]
            y_hat, trace = net.forward(X_c, h_prev=_hidden_states(net, X_c))
            F, J = targets_c - y_hat, -net.jacobian_params(trace)   # J = dF/dW
            grad, eta, degenerate = explicit_step_size(F, J)
            eta = min(ETA_MAX, 1.0) if degenerate else min(eta, ETA_MAX)
            if momentum_update(net.theta, W_prev, grad, eta, MOMENTUM):
                # keep kernel widths above the positivity floor
                np.clip(net.widths, WIDTH_FLOOR, None, out=net.widths)
        H = _chunk_states(net, X)
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
                     data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Predictions from h_init over the teacher-forcing rows, and targets."""
    X, targets = data.regressor()
    return net.forward(X, h_prev=_hidden_states(net, X))[0], targets


def evaluate_deploy(net: TgrbfNet,
                    data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """evaluate_teacher over the dataset's deployment rows."""
    X, targets = data.regressor(deploy=True)
    return net.forward(X, h_prev=_hidden_states(net, X))[0], targets


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


def _write_rows(path, header: list, rows) -> None:
    """A table of a float array's rows or a list of rows, the csv module's
    bytes for them.  The first row sets each field's format: %s for text (a
    name, never quoted), %.17g for any other value (an exact round trip);
    lines end in CRLF.  Streamed, _EXPORT_ROWS rows per write."""
    line = (",".join("%s" if isinstance(v, str) else "%.17g" for v in rows[0])
            + "\r\n") if len(rows) else ""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, len(rows), _EXPORT_ROWS):
            block = rows[i:i + _EXPORT_ROWS]
            fh.write((line * len(block)) % tuple(
                np.asarray(block, dtype=object).ravel().tolist()))


def dataset_to_csv(data: Dataset, path) -> None:
    rows = np.column_stack((np.arange(len(data.u)), *data.regressor()))
    _write_rows(path, _CSV_HEADER, rows)


def dataset_from_csv(path) -> Dataset:
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, [])   # an empty file has no header either
        if header != _CSV_HEADER:
            raise ValueError(f"unexpected dataset header: {header}")
        rows = [[float(v) for v in row] for row in rd]
    if not rows:
        raise ValueError(f"{path}: no dataset rows, so no y_0")
    rows = np.array(rows).reshape(len(rows), 5)   # raises on a short row
    if not np.array_equal(rows[:, 0], np.arange(len(rows))):
        raise ValueError(f"{path}: column k must read 0..{len(rows) - 1}")
    data = Dataset(rows[:, 1], np.append(rows[:, 2], rows[-1:, -1]))
    if not np.array_equal(data.samples, rows[:, 1:]):
        raise ValueError("dataset rows are not one chronological series")
    return data
