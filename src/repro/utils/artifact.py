"""Versioned single-file ``.npz`` artifact container.

Every persistent object in the library exposes a ``state_dict()`` — a
nested ``dict`` whose leaves are numpy arrays or JSON-able scalars
(``int``/``float``/``bool``/``str``/``None`` and flat lists/tuples of
those) — and a matching ``from_state()`` constructor.  This module is
the one place such state dicts touch disk: :func:`save_artifact` packs a
state dict into a single ``.npz`` archive and :func:`load_artifact`
restores it, with schema checks at every step.

Archive layout
--------------
Array leaves are stored under their ``/``-joined path in the state tree;
everything else (the tree structure, scalar leaves, the format name,
schema version and artifact *kind*) lives in one JSON header stored
under the reserved ``__artifact__`` key.  The header is the source of
truth: a missing or malformed header, a header/array mismatch, a schema
version from a different library build or an unexpected *kind* all raise
:class:`ArtifactError` with a message naming the problem.

Scalar floats round-trip bit-exactly (JSON uses the shortest
representation that parses back to the same IEEE-754 double), so
artifacts preserve detection behaviour bit-for-bit.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

#: Name identifying archives written by this module.
ARTIFACT_FORMAT = "repro-artifact"

#: Schema version; bump on any incompatible state-dict layout change.
#: Disk caches key on it, so a bump invalidates stale cache entries.
ARTIFACT_VERSION = 1

#: Reserved archive key holding the JSON header.
HEADER_KEY = "__artifact__"

_SCALAR_TYPES = (bool, int, float, str, type(None))


class ArtifactError(ValueError):
    """A persisted artifact is missing, corrupt or of the wrong shape."""


def _encode_leaf(path: str, value: Any) -> Any:
    """JSON-encode one non-array leaf, rejecting unsupported types."""
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        value = value.item()
    if isinstance(value, _SCALAR_TYPES):
        return {"__scalar__": value}
    if isinstance(value, (list, tuple)):
        items = [
            v.item() if isinstance(v, (np.bool_, np.integer, np.floating)) else v
            for v in value
        ]
        if not all(isinstance(v, _SCALAR_TYPES) for v in items):
            raise TypeError(f"state leaf {path!r}: lists may only hold scalars")
        return {"__list__": items}
    raise TypeError(
        f"state leaf {path!r} has unsupported type {type(value).__name__}"
    )


def _flatten(
    state: dict[str, Any], prefix: str, arrays: dict[str, np.ndarray]
) -> dict[str, Any]:
    """Split ``state`` into a JSON-able tree plus flat array leaves."""
    tree: dict[str, Any] = {}
    for key, value in state.items():
        if not isinstance(key, str) or not key or "/" in key:
            raise TypeError(f"state keys must be non-empty /-free strings: {key!r}")
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            tree[key] = _flatten(value, path + "/", arrays)
        elif isinstance(value, np.ndarray):
            arrays[path] = value
            tree[key] = {"__array__": path}
        else:
            tree[key] = _encode_leaf(path, value)
    return tree


def _unflatten(tree: dict[str, Any], archive: Any, path: str) -> dict[str, Any]:
    """Rebuild a state dict from a header tree plus the archive arrays."""
    state: dict[str, Any] = {}
    for key, node in tree.items():
        here = f"{path}/{key}" if path else key
        if not isinstance(node, dict):
            raise ArtifactError(f"corrupt artifact header at {here!r}")
        if "__scalar__" in node:
            state[key] = node["__scalar__"]
        elif "__list__" in node:
            state[key] = list(node["__list__"])
        elif "__array__" in node:
            name = node["__array__"]
            if name not in archive:
                raise ArtifactError(
                    f"partial artifact: array {name!r} referenced by the "
                    "header is missing from the archive"
                )
            state[key] = archive[name]
        else:
            state[key] = _unflatten(node, archive, here)
    return state


def _pack(
    handle: Any,
    state: dict[str, Any],
    kind: str,
    meta: dict[str, Any] | None,
) -> None:
    """Write ``state`` as one container to the open binary ``handle``.

    Members are stored uncompressed: float weights and recurrent state
    deflate by a tenth to a third at most, and inflating them would
    cost every load more than the bytes save.  :func:`np.load` reads
    deflated members too, so containers written compressed still load.
    """
    arrays: dict[str, np.ndarray] = {}
    tree = _flatten(state, "", arrays)
    header = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "kind": kind,
        "meta": meta or {},
        "state": tree,
    }
    encoded = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    np.savez(handle, **{HEADER_KEY: encoded}, **arrays)


def save_artifact(
    state: dict[str, Any],
    path: str | os.PathLike,
    kind: str,
    meta: dict[str, Any] | None = None,
) -> None:
    """Pack a nested state dict into one ``.npz`` archive.

    ``kind`` tags what the artifact holds (e.g. ``"combined-detector"``)
    and is verified on load.  ``meta`` is an optional JSON-able side
    channel (provenance such as profile name or stream offset) stored in
    the header and returned by :func:`load_artifact` via ``read_meta``.
    """
    # Write through a handle: np.savez would otherwise append ".npz" to
    # paths missing the suffix, breaking exact-name callers (atomic
    # rename via a temp file, CLI-given paths).
    with open(path, "wb") as handle:
        _pack(handle, state, kind, meta)


def state_to_bytes(state: dict[str, Any], kind: str = "state-blob") -> bytes:
    """Serialize a state dict to an in-memory ``.npz`` byte string.

    Same container as :func:`save_artifact` but never touching disk —
    the body of every control call on a shard worker's pipe.
    Round-trips bit-exactly through :func:`state_from_bytes`.
    """
    buffer = io.BytesIO()
    _pack(buffer, state, kind, None)
    return buffer.getvalue()


def state_from_bytes(blob: bytes, kind: str | None = "state-blob") -> dict[str, Any]:
    """Restore a state dict serialized by :func:`state_to_bytes`.

    Makes the same checks as :func:`load_artifact`.
    """
    source = "<state blob>"
    with _reading(source), np.load(io.BytesIO(blob)) as archive:
        return _unpack(archive, source, kind)


@contextmanager
def _reading(source: str | os.PathLike) -> Iterator[None]:
    """Raise every failure to read an artifact as :class:`ArtifactError`.

    Damaged bytes fail in whichever decoder meets them first: zipfile
    (``BadZipFile``, ``EOFError``, ``RuntimeError`` for a flipped
    encryption flag, ``NotImplementedError`` for an unknown compression
    method), zlib (``zlib.error``) or numpy's array-header parser
    (``ValueError``, ``tokenize.TokenError``).  To a caller they all
    mean one thing, so they leave as one type.  A missing file stays a
    ``FileNotFoundError``.
    """
    try:
        yield
    except (FileNotFoundError, ArtifactError):
        raise
    except Exception as exc:  # noqa: BLE001 - translated, see above
        raise ArtifactError(f"{source!s}: unreadable artifact ({exc})") from exc


def _read_header(archive: Any, path: str | os.PathLike) -> dict[str, Any]:
    if HEADER_KEY not in archive:
        raise ArtifactError(
            f"{path!s} is not a repro artifact (missing {HEADER_KEY} header)"
        )
    try:
        header = json.loads(bytes(archive[HEADER_KEY]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"{path!s}: corrupt artifact header ({exc})") from exc
    if not isinstance(header, dict) or header.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(f"{path!s}: corrupt artifact header (bad format tag)")
    return header


def _unpack(
    archive: Any, source: str | os.PathLike, kind: str | None
) -> dict[str, Any]:
    """The state dict of an open archive, after the header checks."""
    header = _read_header(archive, source)
    version = header.get("version")
    if version != ARTIFACT_VERSION:
        raise ArtifactError(
            f"{source!s}: artifact schema version {version} does not "
            f"match this build ({ARTIFACT_VERSION}); regenerate it"
        )
    if kind is not None and header.get("kind") != kind:
        raise ArtifactError(
            f"{source!s}: expected a {kind!r} artifact, found "
            f"{header.get('kind')!r}"
        )
    return _unflatten(header["state"], archive, "")


def load_artifact(
    path: str | os.PathLike, kind: str | None = None
) -> dict[str, Any]:
    """Restore the state dict saved by :func:`save_artifact`.

    Raises :class:`ArtifactError` when the file is not an artifact, was
    written under a different schema version, holds a different ``kind``
    than expected, or is missing arrays its header references.
    """
    # np.load(path) leaves the file it opened unclosed when the zip
    # reader rejects it, so the handle is opened (and closed) here.
    with _reading(path), open(path, "rb") as handle, np.load(handle) as archive:
        return _unpack(archive, path, kind)


def read_meta(path: str | os.PathLike) -> dict[str, Any]:
    """Header fields of an artifact without loading its arrays.

    Returns ``{"kind", "version", "meta"}``; useful for inspection
    tooling and for resuming checkpoints that carry provenance.
    """
    with _reading(path), open(path, "rb") as handle, np.load(handle) as archive:
        header = _read_header(archive, path)
    return {
        "kind": header.get("kind"),
        "version": header.get("version"),
        "meta": header.get("meta", {}),
    }
