"""Shared-memory handoff for the generation pool's target columns.

A pooled :func:`~repro.campaign.generate_per_prefix` materialises each
prefix's target columns inside its worker.  Pickling a large column
pair back through the executor's result pipe costs far more than a
copy through :mod:`multiprocessing.shared_memory`, so the worker packs
the arrays into ONE named segment (:func:`publish_arrays`) and ships
only a small picklable *spec* (segment name, and dtype, shape and
offset per array); the parent copies the arrays out and unlinks the
segment (:func:`consume_arrays`).

Lifecycle rules:

* the **worker** creates the segment with its ``resource_tracker``
  registration suppressed: the worker outlives the handoff, and its
  tracker must not unlink a segment the parent still has to read
  (CPython gh-82300);
* the **parent** owns the segment from the moment it consumes it:
  it registers the segment as a creator would, so the unregister in
  the unlink has an entry to remove, and it always unlinks.

Segment names carry the :data:`SEGMENT_PREFIX` marker so tests (and
operators) can audit ``/dev/shm`` for leaks by name.
"""

from __future__ import annotations

import secrets
from multiprocessing import resource_tracker, shared_memory

import numpy as np

#: Name prefix for every published segment (leak audits grep for it).
SEGMENT_PREFIX = "repro-scan-"


def publish_arrays(arrays: dict[str, np.ndarray]) -> dict:
    """Worker-side publish: copy arrays into a segment, return its spec.

    The worker unmaps its own view before returning, so ownership
    transfers with the spec: :func:`consume_arrays` unlinks.  If the
    parent dies between publish and consume the segment leaks until
    reboot — auditable in ``/dev/shm`` by the name prefix.
    """
    layout: dict[str, tuple[str, tuple[int, ...], int]] = {}
    offset = 0
    contiguous = {}
    for name, array in arrays.items():
        array = contiguous[name] = np.ascontiguousarray(array)
        layout[name] = (array.dtype.str, array.shape, offset)
        offset += array.nbytes
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        shm = shared_memory.SharedMemory(
            create=True,
            size=max(1, offset),
            name=SEGMENT_PREFIX + secrets.token_hex(8),
        )
    finally:
        resource_tracker.register = original_register
    for name, array in contiguous.items():
        dtype, shape, off = layout[name]
        np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)[...] = array
    shm.close()
    return {"segment": shm.name, "layout": layout}


def consume_arrays(spec: dict) -> dict[str, np.ndarray]:
    """Parent-side collect: copy arrays out of a published segment.

    Copies (the segment is about to vanish), then unlinks.
    """
    shm = shared_memory.SharedMemory(name=spec["segment"])
    try:
        return {
            name: np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off).copy()
            for name, (dtype, shape, off) in spec["layout"].items()
        }
    finally:
        shm.close()
        shm.unlink()
