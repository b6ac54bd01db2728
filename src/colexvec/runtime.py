"""Runtime support: worker budget, canonical config digests, file hashes."""

import hashlib
import json
import os
from pathlib import Path


def canonical_json(obj) -> str:
    """Stable serialization used for config digests and report embedding."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def config_digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def worker_count() -> int:
    """Worker cap from COLEXVEC_THREADS, defaulting to the available cores.

    No package code runs a worker pool; the benchmark harness records this
    value in every run's environment.
    """
    raw = os.environ.get("COLEXVEC_THREADS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"COLEXVEC_THREADS must be an integer, got {raw!r}")
    if n < 1:
        raise ValueError(f"COLEXVEC_THREADS must be >= 1, got {n}")
    return n
