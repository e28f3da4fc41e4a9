"""Index manifest: checkpoint + lineage + per-partition metrics.

The manifest is the Ray-native replacement for the reference's
tmp-file probing (/root/reference/src/sysop.c:3-18): every build stage
records what it produced, over which input, with per-partition metrics,
so an interrupted build resumes by skipping completed work instead of
guessing from filenames.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Any

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 3  # v3: reference posting format, no block-max; docs stats in docs/_SUCCESS


@dataclass
class IndexManifest:
    n_docs: int
    sum_dl: int
    d_avr: float                     # quirk Q6: sum_dl / (n_docs - 1)
    max_doc_id: int                  # one past the largest doc_id (sentinel)
    num_partitions: int
    input_fingerprint: str
    format_version: int = FORMAT_VERSION
    partitions: dict[str, dict[str, Any]] = field(default_factory=dict)
    stats: dict[str, Any] = field(default_factory=dict)

    def save(self, index_dir: str) -> None:
        atomic_write_json(os.path.join(index_dir, MANIFEST_NAME), asdict(self))

    @classmethod
    def load(cls, index_dir: str) -> "IndexManifest":
        with open(os.path.join(index_dir, MANIFEST_NAME)) as f:
            obj = json.load(f)
        version = obj.get("format_version")
        if version != FORMAT_VERSION:
            raise ValueError(
                f"{index_dir}: index format version {version}, this code reads "
                f"version {FORMAT_VERSION}; rebuild the index"
            )
        return cls(**obj)


def atomic_write_json(path: str, obj: Any) -> None:
    atomic_write_bytes(path, json.dumps(obj, indent=1, sort_keys=True).encode())


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write-then-rename so readers/resumers never see a partial file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def marker_path(dir_: str) -> str:
    return os.path.join(dir_, "_SUCCESS")


def is_complete(dir_: str) -> bool:
    return os.path.exists(marker_path(dir_))


def mark_complete(dir_: str, meta: dict | None = None) -> None:
    atomic_write_json(marker_path(dir_), meta or {})


def mark_used(dir_: str) -> None:
    """Record a reuse of the complete entry ``dir_``: bump its marker's
    mtime, which ``state.gc`` ages entries by."""
    os.utime(marker_path(dir_))
