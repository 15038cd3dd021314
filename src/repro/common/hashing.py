"""Stable content hashing shared by job keys and the result store.

Job keys and cache-file names must be identical across processes and
Python versions, so hashing goes through a canonical JSON serialization
(never ``hash()``, which is salted per process).  Dataclass configs are
flattened to sorted ``(field, value)`` pairs before hashing so field
declaration order never leaks into the key.  ``hashlib`` (and with it
OpenSSL) loads with the first key, so a command that never computes one
does not map it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, is_dataclass

#: Hex digits kept from the sha256 digest; 64 bits is plenty for a grid
#: of at most a few thousand distinct configurations.
KEY_LENGTH = 16


def config_items(dc) -> list:
    """A dataclass instance as deterministically ordered field pairs."""
    if not is_dataclass(dc):
        raise TypeError(f"expected a dataclass instance, got {type(dc)!r}")
    return sorted(asdict(dc).items())


def stable_hash(payload, length: int = KEY_LENGTH) -> str:
    """Short hex digest of a JSON-serializable payload.

    The serialization (default :func:`json.dumps` settings) is part of
    the on-disk cache contract: changing it invalidates every stored
    result, so bump the store's ``GRID_VERSION`` instead if the payload
    shape must change.
    """
    import hashlib

    blob = json.dumps(payload)
    return hashlib.sha256(blob.encode()).hexdigest()[:length]
