"""Synthetic file catalogs.

A :class:`FileCatalog` is the unit Plumber's tracer observes at the
storage layer: a list of files, each with a byte size and a record count.
Sizes are drawn deterministically from a seeded lognormal so that file
sizes vary realistically — this is what makes the subsampled
dataset-size estimator (§A, "1% of files gives 1% error") a non-trivial
statistical claim to reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class FileStat:
    """One file's metadata: name, total bytes, and record count."""

    name: str
    size_bytes: float
    num_records: int

    @property
    def bytes_per_record(self) -> float:
        """Mean record size within this file."""
        if self.num_records == 0:
            return 0.0
        return self.size_bytes / self.num_records


class FileCatalog:
    """A deterministic synthetic dataset laid out as record files.

    Parameters
    ----------
    name:
        Dataset identifier (e.g. ``"imagenet"``).
    num_files:
        Number of shard files (ImageNet: 1024).
    records_per_file:
        Mean records per file (ImageNet: ~1200).
    bytes_per_record:
        Mean record size in bytes (ImageNet: ~110 KB).
    size_cv:
        Coefficient of variation of per-file sizes (lognormal spread).
    seed:
        RNG seed; the same (name, seed) always yields the same files.
    """

    def __init__(
        self,
        name: str,
        num_files: int,
        records_per_file: float,
        bytes_per_record: float,
        size_cv: float = 0.15,
        seed: int = 0,
    ) -> None:
        if num_files < 1:
            raise ValueError(f"num_files must be >= 1, got {num_files}")
        if records_per_file <= 0:
            raise ValueError(
                f"records_per_file must be > 0, got {records_per_file}"
            )
        if bytes_per_record <= 0:
            raise ValueError(
                f"bytes_per_record must be > 0, got {bytes_per_record}"
            )
        if size_cv < 0:
            raise ValueError(f"size_cv must be >= 0, got {size_cv}")
        self.name = name
        self.num_files = int(num_files)
        self.records_per_file = float(records_per_file)
        self.bytes_per_record = float(bytes_per_record)
        self.size_cv = float(size_cv)
        self.seed = int(seed)
        self._files: List[FileStat] | None = None

    # ------------------------------------------------------------------
    def _arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-file record counts and byte sizes, drawn from the seed."""
        rng = np.random.default_rng(self.seed)
        if self.size_cv > 0:
            # Lognormal with the requested mean and CV for record counts.
            sigma2 = np.log1p(self.size_cv**2)
            mu = np.log(self.records_per_file) - sigma2 / 2.0
            counts = rng.lognormal(mean=mu, sigma=np.sqrt(sigma2), size=self.num_files)
        else:
            counts = np.full(self.num_files, self.records_per_file)
        counts = np.maximum(1, np.round(counts)).astype(int)
        return counts, counts * self.bytes_per_record

    def _generate(self) -> List[FileStat]:
        counts, sizes = self._arrays()
        return [
            FileStat(
                name=f"{self.name}/part-{i:05d}",
                size_bytes=float(sizes[i]),
                num_records=int(counts[i]),
            )
            for i in range(self.num_files)
        ]

    @property
    def files(self) -> Sequence[FileStat]:
        """All file stats (generated lazily on first use and cached)."""
        if self._files is None:
            self._files = self._generate()
        return self._files

    def __len__(self) -> int:
        return self.num_files

    def __iter__(self) -> Iterator[FileStat]:
        return iter(self.files)

    # ------------------------------------------------------------------
    @cached_property
    def _totals(self) -> Tuple[float, int]:
        # From the arrays, not :attr:`files`: the analytic path reads
        # only these sums and need not build one FileStat per file.
        # ``sum`` over the Python floats adds in the same order as a
        # sum over the FileStats, so the result is bit-identical.
        counts, sizes = self._arrays()
        return float(sum(sizes.tolist())), int(counts.sum())

    @property
    def total_bytes(self) -> float:
        """Exact dataset size in bytes (ground truth for §5.3)."""
        return self._totals[0]

    @property
    def total_records(self) -> int:
        """Exact record count (ImageNet: ~1.2M)."""
        return self._totals[1]

    @property
    def mean_bytes_per_record(self) -> float:
        """Dataset-wide mean record size."""
        records = self.total_records
        return self.total_bytes / records if records else 0.0

    def scaled(
        self, factor: float, seed: int | None = None, min_files: int = 8
    ) -> "FileCatalog":
        """A catalog with total records scaled by ``factor``.

        Used to run laptop-scale simulations of datacenter-scale datasets
        while preserving per-file statistics. Scaling primarily reduces
        the file count; once the count would drop below ``min_files``
        (interleave still needs streams to read from), the remaining
        factor is applied to records-per-file instead, so the *total*
        record count always scales by ``factor``.
        """
        if factor <= 0:
            raise ValueError(f"scale factor must be > 0, got {factor}")
        new_files = max(
            min(min_files, self.num_files), int(round(self.num_files * factor))
        )
        residual = factor * self.num_files / new_files
        return FileCatalog(
            name=f"{self.name}@x{factor:g}",
            num_files=new_files,
            records_per_file=max(1.0, self.records_per_file * residual),
            bytes_per_record=self.bytes_per_record,
            size_cv=self.size_cv,
            seed=self.seed if seed is None else seed,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Serialize catalog parameters (files regenerate from the seed)."""
        return {
            "name": self.name,
            "num_files": self.num_files,
            "records_per_file": self.records_per_file,
            "bytes_per_record": self.bytes_per_record,
            "size_cv": self.size_cv,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FileCatalog":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FileCatalog({self.name!r}, files={self.num_files}, "
            f"~{self.total_bytes / 1e9:.1f} GB)"
        )
