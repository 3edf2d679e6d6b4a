"""Versioned binary checkpoints for single-trajectory flow states.

Layout (little-endian), version 5:

    bytes 0..5   magic  b"SDNLW1"
    u16          format version (= 5)
    u8           state kind (= 1, flow state)
    i64          step (the clock: t = step * dt)
    u32 + text   dump_config of the state's config (seed = the stick's), UTF-8
    3 arrays     complex128 C-order, each (2, K, K): S(t)u0, stick, v

The text is read back with ``parse_config``, so every config key is
restored.  Refused: a truncated payload, another version (version 1
stored only some keys; version 2 also stored a float t, which drifted
from step * dt; version 3 text named a key since deleted, and version 4
text two keys deleted in 0.10.0), a stored
config ``parse_config`` refuses, and a caller's config whose
``config._RESUME_KEYS`` (N, s, gamma, alpha, dt) differ from the stored
ones -- in particular cross-dt resume.  The noise lineage is (seed, step)
and the state is stored verbatim, so a restored run continues
bit-identically to the uninterrupted one.
"""

from __future__ import annotations

import struct
from dataclasses import replace

import numpy as np

from .config import _RESUME_KEYS, ConfigError, SimConfig, dump_config, parse_config
from .dynamics import FlowState, flow_init

MAGIC = b"SDNLW1"
VERSION = 5
KIND_FLOW = 1

_PREFIX = struct.Struct("<HBqI")  # version, kind, step, config text length


class CheckpointError(ValueError):
    """Corrupt, truncated, or incompatible checkpoint."""


def save_checkpoint(state: FlowState) -> bytes:
    if state.batch != ():
        raise CheckpointError("checkpoints hold a single trajectory, not a batch")
    text = dump_config(replace(state.cfg, seed=int(state.stick.seed))).encode("utf-8")
    head = MAGIC + _PREFIX.pack(VERSION, KIND_FLOW, state.step, len(text))
    arrays = b"".join(
        np.ascontiguousarray(a, dtype=np.complex128).tobytes()
        for a in (state.lin, state.stick.value, state.v))
    return head + text + arrays


def load_checkpoint(blob: bytes, cfg: SimConfig | None = None) -> FlowState:
    if blob[:len(MAGIC)] != MAGIC:
        raise CheckpointError("bad magic; not an SDNLW checkpoint")
    try:
        version, kind, step, n_text = _PREFIX.unpack_from(blob, len(MAGIC))
    except struct.error as exc:
        raise CheckpointError("truncated checkpoint header") from exc
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if kind != KIND_FLOW:
        raise CheckpointError(f"unsupported state kind {kind}")
    start = len(MAGIC) + _PREFIX.size
    off = start + n_text
    if len(blob) < off:
        raise CheckpointError("truncated checkpoint config text")
    try:
        stored = parse_config(blob[start:off].decode("utf-8"))
    except (ConfigError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"stored config refused: {exc}") from exc
    K = 2 * stored.N + 1
    nbytes = 2 * K * K * 16
    if len(blob) != off + 3 * nbytes:
        raise CheckpointError(
            f"truncated checkpoint payload (expected {off + 3*nbytes} bytes, "
            f"got {len(blob)})")
    if cfg is not None:
        for key in _RESUME_KEYS:
            have, want = getattr(cfg, key), getattr(stored, key)
            if have != want:
                raise CheckpointError(
                    f"{key}: checkpoint has {want!r}, config has {have!r} "
                    f"(resume across changed parameters is forbidden)")
        stored = replace(cfg, seed=stored.seed)

    def read_pair(i: int) -> np.ndarray:
        raw = blob[off + i * nbytes: off + (i + 1) * nbytes]
        return np.frombuffer(raw, dtype=np.complex128).reshape(2, K, K).copy()

    state = flow_init(stored, seed=stored.seed, step0=step)
    return replace(state, lin=read_pair(0), v=read_pair(2),
                   stick=replace(state.stick, value=read_pair(1)))


def write_checkpoint(state: FlowState, path) -> None:
    blob = save_checkpoint(state)  # a refused state leaves no file behind
    with open(path, "wb") as fh:
        fh.write(blob)


def read_checkpoint(path, cfg: SimConfig | None = None) -> FlowState:
    with open(path, "rb") as fh:
        return load_checkpoint(fh.read(), cfg)
