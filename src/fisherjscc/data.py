"""Seeded synthetic datasets, a delimited-text loader and the CSV artifact writer."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .rng import CounterRng, derive_seed


class DataError(ValueError):
    """Raised for malformed dataset files or inconsistent labels."""


@dataclass
class Dataset:
    features: np.ndarray              # [N, m] float64
    labels: np.ndarray                # [N] int64 in [0, num_classes)
    num_classes: int
    label_names: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise DataError("features must be a nonempty [N, m] array")
        if not np.isfinite(self.features).all():
            row = int(np.argwhere(~np.isfinite(self.features))[0, 0])
            raise DataError(f"non-finite feature value in row {row + 1}")
        if self.labels.shape != (self.features.shape[0],):
            raise DataError("labels must align with feature rows")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise DataError("labels out of range for the declared class count")
        if not self.label_names:
            self.label_names = [str(c) for c in range(self.num_classes)]

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def make_blobs(num_classes: int, per_class: int, dim: int, spread: float,
               seed: int, split: str = "train") -> Dataset:
    """Gaussian blobs, one class per seeded center on the radius-3 sphere.

    The centers depend only on the seed, so train and test splits generated
    from the same seed share geometry while their points are disjoint draws.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    center_rng = CounterRng(derive_seed(seed, "blobs", "centers"))
    centers = center_rng.normals(num_classes * dim).reshape(num_classes, dim)
    norms = np.linalg.norm(centers, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    centers = 3.0 * centers / norms

    point_rng = CounterRng(derive_seed(seed, "blobs", "points", split))
    features = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        noise = point_rng.normals(per_class * dim).reshape(per_class, dim)
        features[block] = centers[c] + spread * noise
        labels[block] = c
    return Dataset(features, labels, num_classes)


def make_rings(num_classes: int, per_class: int, noise: float,
               seed: int, split: str = "train") -> Dataset:
    """Concentric rings in the plane: class c sits on the radius-(c+1) circle
    with Gaussian radial noise. Not linearly separable for any class count.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    rng = CounterRng(derive_seed(seed, "rings", split))
    features = np.empty((num_classes * per_class, 2))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        angles = 2.0 * math.pi * rng.uniforms(per_class)
        radii = (c + 1.0) + noise * rng.normals(per_class)
        features[block, 0] = radii * np.cos(angles)
        features[block, 1] = radii * np.sin(angles)
        labels[block] = c
    return Dataset(features, labels, num_classes)


@dataclass
class Normalizer:
    """Per-feature affine map fitted on the train split only."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, dataset: Dataset) -> "Normalizer":
        mean = dataset.features.mean(axis=0)
        std = dataset.features.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        return cls(mean=mean, std=std)

    def apply(self, dataset: Dataset) -> Dataset:
        return Dataset((dataset.features - self.mean) / self.std, dataset.labels,
                       dataset.num_classes, label_names=list(dataset.label_names))

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "std": self.std.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "Normalizer":
        """ValueError unless doc is an object whose "mean" and "std" are lists of finite
        JSON numbers (`number_array`), every std entry > 0."""
        if not (isinstance(doc, dict) and "mean" in doc and "std" in doc):
            raise ValueError("malformed normalizer: not an object with mean and std")
        mean = number_array(doc["mean"], "normalizer mean")
        std = number_array(doc["std"], "normalizer std")
        if not (std > 0.0).all():
            raise ValueError("normalizer std has an entry that is not > 0")
        return cls(mean=mean, std=std)


def number_array(values, name: str) -> np.ndarray:
    """A list of JSON numbers as a finite float64 array. ValueError, naming `name`, for
    anything else: an entry that is a bool, a string or a container (NumPy would read
    true and "0.25" as numbers), a non-finite entry, or an integer too large for a float."""
    if not (isinstance(values, list) and {type(v) for v in values} <= {int, float}):
        raise ValueError(f"{name} must be a list of numbers")
    try:
        array = np.array(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{name} has an integer too large for a float") from None
    if not np.isfinite(array).all():
        raise ValueError(f"{name} has a non-finite entry")
    return array


def save_table(dataset: Dataset, path) -> None:
    """Write comma-separated features plus a trailing label-name column; floats use repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [dataset.label_names[label]])


def write_csv(path, schema: str, header, rows) -> None:
    """Write an artifact: a `# schema=` line, the header, then the rows. A float
    cell, np.float64 included, is repr(float(v)); other cells go through `csv` as is."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema={schema}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                         for row in rows)


def load_table(path, delimiter: str = ",", has_header: bool = False,
               label_map: dict[str, int] | None = None) -> Dataset:
    """Read a rectangular delimited table of features plus a last label column.

    Labels are relabeled to dense 0..C-1 in first-appearance order unless a
    label_map from a previous split is given, in which case unseen labels are
    rejected.
    """
    rows: list[list[str]] = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            for line_no, row in enumerate(reader, start=1):
                if line_no == 1 and has_header:
                    continue
                if row:
                    rows.append(row)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:  # a directory; not UTF-8; a huge cell
        raise DataError(f"{path}: unreadable: {exc}") from None
    if not rows:
        raise DataError(f"{path}: file contains no data rows")
    width = len(rows[0])
    if width < 2:
        raise DataError(f"{path}: rows need at least one feature and a label column")

    mapping: dict[str, int] = dict(label_map) if label_map else {}
    frozen = label_map is not None
    features = np.empty((len(rows), width - 1))
    labels = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DataError(f"{path}: ragged row {i + 1} has {len(row)} fields, expected {width}")
        name = row[-1].strip()
        if name not in mapping:
            if frozen:
                raise DataError(f"{path}: row {i + 1} has label {name!r} "
                                "not present in the training label map")
            mapping[name] = len(mapping)
        labels[i] = mapping[name]
        for j, cell in enumerate(row[:-1]):
            try:
                features[i, j] = float(cell)
            except ValueError:
                raise DataError(f"{path}: row {i + 1}, column {j + 1}: "
                                f"non-numeric feature {cell!r}") from None
    names = [None] * len(mapping)
    for name, idx in mapping.items():
        names[idx] = name
    try:
        return Dataset(features, labels, len(mapping), label_names=list(names))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
