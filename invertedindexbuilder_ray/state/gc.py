"""Checkpoint-root garbage collection.

The durable caches this engine writes under ``/tmp`` by default — MinHash
signature checkpoints (``IIB_SIG_CKPT_DIR``) and ANN artifacts
(``IIB_ANN_CKPT_DIR``) — are keyed by input fingerprint, so stale inputs
simply stop being referenced; nothing ever deletes them.  On a
long-running cluster that is an unbounded disk leak.  ``gc_ckpt_root``
removes entries whose completion marker (or the directory itself, for
interrupted writes) is older than ``max_age_days``.

Age comes from the ``_SUCCESS`` marker mtime, and every reuse path
bumps it (``manifest.mark_used``): a signature checkpoint returned by
``minhash_signature_ckpt`` / ``_write_sig_ckpt``, an ANN artifact reused
by ``ann_build`` or served by ``ann_query_artifact``.  So this is
least-recently-USED: an entry in daily use is never collected, which
matters because not every entry can be re-created — a derived
(chained-ingest) signature checkpoint or an extended ANN artifact has no
raw source to rebuild from.

Entries are self-contained, so removing one never breaks another.  A
rolled (chained-ingest) signature checkpoint shares its base's sig
parts and band runs, but through hard links in its own directory: it
owns those files, and collecting the base only drops the base's names.
"""

from __future__ import annotations

import os
import shutil
import time

from . import manifest as mf


def gc_ckpt_root(
    root: str, *, max_age_days: float = 7.0, dry_run: bool = False
) -> list[str]:
    """Delete checkpoint entries under ``root`` older than
    ``max_age_days``; returns the paths removed (or would-be-removed with
    ``dry_run``).  Incomplete entries (no ``_SUCCESS``) age by directory
    mtime — an interrupted write is garbage as soon as it is old."""
    if not os.path.isdir(root):
        return []
    cutoff = time.time() - max_age_days * 86400.0
    removed = []
    for name in sorted(os.listdir(root)):
        d = os.path.join(root, name)
        if not os.path.isdir(d):
            continue
        marker = mf.marker_path(d)
        try:
            age_ref = os.stat(marker).st_mtime if os.path.exists(marker) else os.stat(d).st_mtime
        except OSError:
            continue
        if age_ref < cutoff:
            removed.append(d)
            if not dry_run:
                shutil.rmtree(d, ignore_errors=True)
    return removed


def default_roots() -> list[str]:
    uid = os.getuid()
    return [
        os.environ.get("IIB_SIG_CKPT_DIR", f"/tmp/iib_sig_ckpt_{uid}"),
        os.environ.get("IIB_ANN_CKPT_DIR", f"/tmp/iib_ann_ckpt_{uid}"),
    ]
