"""Shared-memory transport for the array scan plane.

A pooled scan used to pickle every target batch into its worker — an
O(targets) stream of boxed 128-bit ints through the executor's pipe.
The array plane removes that: the parent packs the target columns and
every frozen lookup table into ONE :mod:`multiprocessing.shared_memory`
segment, workers attach read-only numpy views at initialisation, and a
shard task is just ``(batch_index, start, stop)`` — O(1) bytes no
matter how many targets the campaign holds.

:class:`SharedArrays` is the transport: a named segment plus a
picklable *spec* (name, dtype, shape, offset per array) from which any
process reconstructs zero-copy views.  Lifecycle rules:

* the **parent** creates the segment and is the only process that
  unlinks it — always in a ``finally`` around pool use, so an injected
  worker crash (or any pool failure) cannot leak ``/dev/shm`` entries;
* **workers** attach and immediately unregister the segment from their
  ``resource_tracker`` — attaching is not owning, and without the
  unregister a dying worker's tracker would either spuriously warn or,
  worse, unlink the segment out from under its siblings (CPython
  gh-82300); the OS reclaims the worker's mapping at process exit.

Segment names carry the :data:`SEGMENT_PREFIX` marker so tests (and
operators) can audit ``/dev/shm`` for leaks by name.
"""

from __future__ import annotations

import secrets
from multiprocessing import resource_tracker, shared_memory

import numpy as np

#: Name prefix for every scan-plane segment (leak audits grep for it).
SEGMENT_PREFIX = "repro-scan-"


class SharedArrays:
    """Named numpy arrays packed into one shared-memory segment."""

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        arrays: dict[str, np.ndarray],
        spec: dict,
        *,
        owner: bool,
    ):
        self._shm = shm
        self.arrays = arrays
        self._spec = spec
        self._owner = owner

    @classmethod
    def create(cls, arrays: dict[str, np.ndarray]) -> "SharedArrays":
        """Copy the given arrays into a fresh shared segment (parent side)."""
        layout: dict[str, tuple[str, tuple[int, ...], int]] = {}
        offset = 0
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            layout[name] = (array.dtype.str, array.shape, offset)
            offset += array.nbytes
        shm = shared_memory.SharedMemory(
            create=True,
            size=max(1, offset),
            name=SEGMENT_PREFIX + secrets.token_hex(8),
        )
        views: dict[str, np.ndarray] = {}
        spec = {"segment": shm.name, "layout": layout}
        for name, array in arrays.items():
            dtype, shape, off = layout[name]
            view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
            view[...] = array
            views[name] = view
        return cls(shm, views, spec, owner=True)

    @property
    def spec(self) -> dict:
        """Picklable description workers use to :meth:`attach`."""
        return self._spec

    @classmethod
    def attach(cls, spec: dict, *, owner: bool = False) -> "SharedArrays":
        """Open read-only views onto an existing segment.

        A non-owner (a scan worker) must not register the segment with
        its resource tracker: attaching is not owning (CPython
        gh-82300), and with forked workers all processes share one
        tracker whose name cache is a *set* — duplicate registrations
        collapse, so the balancing unregisters would underflow it and
        spew KeyErrors.  Suppressing registration during the open keeps
        the tracker ledger exactly one entry per segment (the
        creator's).  An ``owner`` (the parent collecting a segment a
        worker published unregistered) registers it as a creator
        would, so the unregister in its :meth:`close`'s unlink has an
        entry to remove.
        """
        if owner:
            shm = shared_memory.SharedMemory(name=spec["segment"])
        else:
            original_register = resource_tracker.register
            resource_tracker.register = lambda *args, **kwargs: None
            try:
                shm = shared_memory.SharedMemory(name=spec["segment"])
            finally:
                resource_tracker.register = original_register
        views: dict[str, np.ndarray] = {}
        for name, (dtype, shape, off) in spec["layout"].items():
            view = np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=off)
            view.flags.writeable = False
            views[name] = view
        return cls(shm, views, spec, owner=owner)

    def close(self) -> None:
        """Drop views and unmap; the owner also unlinks the segment."""
        self.arrays = {}
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray exported view
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedArrays":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def publish_arrays(arrays: dict[str, np.ndarray]) -> dict:
    """Worker-side publish: copy arrays into a segment, return its spec.

    The inverse data direction of the scan transport above — a *worker*
    produces bulk arrays (generated target columns) the *parent* must
    collect.  The worker creates the segment with resource-tracker
    registration suppressed (same gh-82300 reasoning as :meth:`attach`:
    the pool worker outlives the handoff, and its tracker must not
    unlink a segment the parent still has to read), unmaps its own view
    immediately, and ships only the spec through the result pickle.
    Ownership transfers with the spec: :func:`consume_arrays` unlinks.
    If the parent dies between publish and consume the segment leaks
    until reboot — auditable in ``/dev/shm`` by the name prefix.
    """
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        shared = SharedArrays.create(arrays)
    finally:
        resource_tracker.register = original_register
    spec = shared.spec
    shared._owner = False  # unlink happens in consume_arrays
    shared.close()
    return spec


def consume_arrays(spec: dict) -> dict[str, np.ndarray]:
    """Parent-side collect: copy arrays out of a published segment.

    Copies (the segment is about to vanish), then unlinks — the parent
    assumes ownership the moment it consumes, registering the segment
    with its resource tracker so that the unlink's unregister balances.
    """
    with SharedArrays.attach(spec, owner=True) as shared:
        return {
            name: np.array(view, copy=True)
            for name, view in shared.arrays.items()
        }
