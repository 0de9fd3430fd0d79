"""Storage substrate: synthetic file catalogs and dataset presets.

The paper's pipelines read TFRecord files from disk or cloud storage.
We model a dataset as a :class:`~repro.io.filesystem.FileCatalog` — a set
of files with (deterministic, seeded) per-file sizes and record counts —
which is everything Plumber's byte accounting observes (§4.4, §A).
"""

from repro.io.catalogs import (
    coco_catalog,
    imagenet_catalog,
    imagenet_validation_catalog,
    toy_catalog,
    wmt16_catalog,
    wmt17_catalog,
)
from repro.io.filesystem import FileCatalog, FileStat

__all__ = [
    "FileCatalog",
    "FileStat",
    "coco_catalog",
    "imagenet_catalog",
    "imagenet_validation_catalog",
    "toy_catalog",
    "wmt16_catalog",
    "wmt17_catalog",
]
