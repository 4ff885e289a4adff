"""Synthetic datasets, label corruption, episodic tasks, IDX files, metrics.

Episodic tasks arrive stacked: ``make_episodes`` fills an ``EpisodeSet``'s
four arrays, one per split's inputs and labels with the tasks first, which
its consumers read whole.

Randomness: every operation derives its own child stream from (seed, op tag)
through numpy's SeedSequence/PCG64, so results are reproducible bit-exactly
across platforms and one operation's draws never disturb another's.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "Dataset",
    "EpisodeSet",
    "gen_synthetic",
    "corrupt_labels",
    "split",
    "make_episodes",
    "load_idx",
    "write_idx",
    "f1_score",
    "stream",
]

# one fixed tag per randomized operation
_OP_TAGS = {"gen_synthetic": 1, "corrupt_labels": 2, "split": 3, "make_episodes": 4, "lambda0": 5}

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def stream(seed: int, op: str) -> np.random.Generator:
    """Child PCG64 stream for one operation call."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=(int(seed), _OP_TAGS[op]))))


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, integer labels in [0, C), and a corruption mask."""

    X: np.ndarray
    y: np.ndarray
    mask: np.ndarray
    C: int

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],) or self.mask.shape != self.y.shape:
            raise ValueError("inconsistent dataset shapes")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("features contain non-finite entries")
        if self.C < 1 or self.y.min(initial=0) < 0 or self.y.max(initial=0) >= self.C:
            raise ValueError("bad-label: labels must lie in [0, C)")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.X[idx], self.y[idx], self.mask[idx], self.C)


@dataclass(frozen=True)
class EpisodeSet:
    """Few-shot tasks of one shape, stacked with the tasks first.

    ``X_tr`` is tasks x training samples x d and ``y_tr`` tasks x training
    samples; ``X_val`` and ``y_val`` hold the validation splits alike.
    Construction checks that the four shapes agree ("bad-episode").
    """

    X_tr: np.ndarray
    y_tr: np.ndarray
    X_val: np.ndarray
    y_val: np.ndarray
    way: int

    def __post_init__(self):
        shapes = [a.shape for a in (self.X_tr, self.y_tr, self.X_val, self.y_val)]
        Xt, yt, Xv, yv = shapes
        if not (len(Xt) == len(Xv) == 3 and yt == Xt[:2] and yv == Xv[:2]
                and Xt[::2] == Xv[::2]):
            raise ValueError(f"bad-episode: split shapes {shapes} are not "
                             f"tasks x samples (x d) with one task count and d")

    def __len__(self) -> int:
        return self.X_tr.shape[0]


def gen_synthetic(seed: int, n: int, d: int, C: int, margin: float) -> Dataset:
    """Gaussian blobs around C simplex-corner centers a fixed margin apart.

    Center c sits at (margin / sqrt(2)) * e_c, so every pair of centers is
    exactly `margin` apart; features add unit-variance noise.  Labels cycle
    round-robin so classes stay balanced.
    """
    if n < C:
        raise ValueError(f"too-few-samples: need at least {C} samples for {C} classes, got {n}")
    if margin <= 0:
        raise ValueError("margin must be positive")
    if d < C:
        raise ValueError(f"feature dimension {d} cannot place {C} separated centers")
    rng = stream(seed, "gen_synthetic")
    centers = np.zeros((C, d))
    centers[np.arange(C), np.arange(C)] = margin / np.sqrt(2.0)
    y = (np.arange(n) % C).astype(np.int64)
    X = centers[y] + rng.standard_normal((n, d))
    return Dataset(X=X, y=y, mask=np.zeros(n, dtype=bool), C=C)


def corrupt_labels(ds: Dataset, rho: float, seed: int) -> Dataset:
    """Flip floor(rho*N) uniformly chosen labels to uniformly drawn different ones."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if rho > 0 and ds.C < 2:
        raise ValueError("cannot-corrupt-single-class: need at least 2 classes to corrupt")
    rng = stream(seed, "corrupt_labels")
    n = len(ds)
    count = int(np.floor(rho * n))
    y = ds.y.copy()
    mask = np.zeros(n, dtype=bool)
    if count:
        chosen = rng.choice(n, size=count, replace=False)
        # uniform over the C-1 labels different from the original
        draws = rng.integers(0, ds.C - 1, size=count)
        draws = draws + (draws >= y[chosen])
        y[chosen] = draws
        mask[chosen] = True
    return Dataset(X=ds.X.copy(), y=y, mask=mask, C=ds.C)


def split(ds: Dataset, n_tr: int, n_val: int, seed: int) -> Tuple[Dataset, Dataset]:
    """Disjoint uniformly sampled train/validation subsets, each of at least one sample."""
    if n_tr < 1 or n_val < 1:
        raise ValueError(f"split-too-small: n_tr and n_val must be at least 1, "
                         f"got {n_tr} and {n_val}")
    if n_tr + n_val > len(ds):
        raise ValueError(f"split-too-large: {n_tr}+{n_val} exceeds {len(ds)} samples")
    perm = stream(seed, "split").permutation(len(ds))
    return ds.take(perm[:n_tr]), ds.take(perm[n_tr:n_tr + n_val])


def make_episodes(ds: Dataset, way: int, shot: int, val_per_class: int,
                  n_tasks: int, seed: int) -> EpisodeSet:
    """Sample n_tasks few-shot episodes with per-task labels remapped to [0, way).

    Each task draws `way` classes (from those with enough inventory), then
    shot + val_per_class disjoint samples per class: the first `shot` train
    and the rest validate.  Each split holds its classes in label order,
    a class's samples in draw order.
    """
    if min(way, shot, val_per_class) < 1:
        raise ValueError(f"episode-too-small: way, shot and val_per_class must be at least 1, "
                         f"got {way}, {shot} and {val_per_class}")
    if n_tasks < 0:
        raise ValueError(f"episode-count: n_tasks must be at least 0, got {n_tasks}")
    need = shot + val_per_class
    counts = np.bincount(ds.y, minlength=ds.C)
    eligible = np.flatnonzero(counts >= need)
    if eligible.size < way:
        raise ValueError(
            f"episode-infeasible: only {eligible.size} classes have {need} samples, need {way}")
    rng = stream(seed, "make_episodes")
    by_class = {c: np.flatnonzero(ds.y == c) for c in eligible}
    # the sample indices of each task, class by class in label order
    picks = np.empty((n_tasks, way, need), dtype=np.int64)
    for task in picks:
        for row, c in zip(task, rng.choice(eligible, size=way, replace=False)):
            row[:] = rng.choice(by_class[c], size=need, replace=False)
    labels = np.arange(way, dtype=np.int64)
    return EpisodeSet(X_tr=ds.X[picks[..., :shot].reshape(n_tasks, way * shot)],
                      y_tr=np.tile(np.repeat(labels, shot), (n_tasks, 1)),
                      X_val=ds.X[picks[..., shot:].reshape(n_tasks, way * val_per_class)],
                      y_val=np.tile(np.repeat(labels, val_per_class), (n_tasks, 1)),
                      way=way)


def _read_idx(path, magic: int, dims: int, kind: str) -> tuple:
    """The counts and payload of one big-endian IDX file: a magic, ``dims`` counts, bytes.

    The header must be whole ("idx-short-header", naming the file), its
    magic ``magic`` ("idx-bad-magic") and the payload at least the product
    of the counts ("idx-count-mismatch"), checked in that order; ``kind``
    names the file in the last two.  Bytes past the payload are ignored.
    """
    size = 4 * (1 + dims)
    with open(path, "rb") as f:
        head = f.read(size)
        if len(head) != size:
            raise ValueError(f"idx-short-header: {path} holds {len(head)} bytes, "
                             f"fewer than its {size}-byte header")
        found, *counts = struct.unpack(f">{1 + dims}I", head)
        if found != magic:
            raise ValueError(f"idx-bad-magic: expected {magic:#010x} in {kind} file, "
                             f"got {found:#010x}")
        # read to the end, so that a header's claim is never allocated up front
        payload = f.read()
    length = math.prod(counts)
    if len(payload) < length:
        raise ValueError(f"idx-count-mismatch: {kind} file truncated")
    return counts, payload[:length]


def load_idx(images_path, labels_path) -> Dataset:
    """Parse big-endian IDX image/label files into a flat-feature dataset.

    Image bytes scale linearly to [0, 1]; images flatten row-major to
    d = rows * cols.
    """
    (n_img, rows, cols), raw = _read_idx(images_path, IDX_IMAGES_MAGIC, 3, "image")
    (n_lab,), lab = _read_idx(labels_path, IDX_LABELS_MAGIC, 1, "label")
    if n_img != n_lab:
        raise ValueError(f"idx-count-mismatch: {n_img} images vs {n_lab} labels")
    X = np.frombuffer(raw, dtype=np.uint8).astype(np.float64).reshape(n_img, rows * cols) / 255.0
    y = np.frombuffer(lab, dtype=np.uint8).astype(np.int64)
    C = int(y.max()) + 1 if n_img else 1
    return Dataset(X=X, y=y, mask=np.zeros(n_img, dtype=bool), C=C)


def write_idx(ds: Dataset, images_path, labels_path, rows: int = 1, cols: int = 0) -> None:
    """Write a dataset whose features lie in [0, 1] as an IDX pair.

    Features are quantized to bytes (round to nearest); a dataset already on
    the k/255 grid round-trips exactly.  ``rows`` must be at least 1 and
    ``cols`` at least 0, which derives it from ``rows``.
    """
    if rows < 1 or cols < 0:
        raise ValueError(f"rows must be at least 1 and cols at least 0, got {rows} and {cols}")
    if cols == 0:
        cols = ds.d // rows
    if rows * cols != ds.d:
        raise ValueError(f"rows*cols = {rows * cols} does not match feature dim {ds.d}")
    if ds.X.min(initial=0.0) < 0.0 or ds.X.max(initial=0.0) > 1.0:
        raise ValueError("features must lie in [0, 1] for byte quantization")
    if ds.C > 256:
        raise ValueError("labels beyond one byte")
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, len(ds), rows, cols))
        f.write(np.rint(ds.X * 255.0).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, len(ds)))
        f.write(ds.y.astype(np.uint8).tobytes())


def f1_score(predicted_corrupt, mask) -> float:
    """Harmonic mean of precision and recall; 0 by convention when TP = 0."""
    predicted_corrupt = np.asarray(predicted_corrupt, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if predicted_corrupt.shape != mask.shape:
        raise ValueError("prediction and mask lengths differ")
    tp = int(np.sum(predicted_corrupt & mask))
    if tp == 0:
        return 0.0
    fp = int(np.sum(predicted_corrupt & ~mask))
    fn = int(np.sum(~predicted_corrupt & mask))
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)
