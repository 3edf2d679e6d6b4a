"""Versioned binary checkpoints for single-trajectory flow states.

Layout (little-endian), version 1:

    bytes 0..5   magic  b"SDNLW1"
    u16          format version (= 1)
    u8           state kind (= 1, flow state)
    i64          N
    f64          s, gamma, alpha, dt
    i64          seed, step
    f64          t
    u8           integrator (0 = euler, the one scheme)
    u8           linear_only (0 or 1)
    f64          M_pad, blowup_threshold, obs_interval
    4 arrays     complex128 C-order, each (2, K, K): u0, S(t)u0, stick, v

Restoring validates the magic and version and refuses truncated
payloads, an integrator byte other than 0, a linear_only byte other than
0 or 1, a stored config that fails ``SimConfig.check``, and configs whose
physical keys (N, s, gamma, alpha, dt, integrator) disagree with the
stored ones -- in particular cross-dt resume.  The noise lineage is
(seed, step) and the full state (including the incrementally evolved
linear part) is stored verbatim, so a restored run continues
bit-identically to the uninterrupted one.
"""

from __future__ import annotations

import struct
from dataclasses import replace

import numpy as np

from .config import _INTEGRATORS, ConfigError, SimConfig
from .dynamics import FlowState, flow_init

MAGIC = b"SDNLW1"
VERSION = 1
KIND_FLOW = 1

_HEADER = struct.Struct("<q4d2qd2B3d")


class CheckpointError(ValueError):
    """Corrupt, truncated, or incompatible checkpoint."""


def save_checkpoint(state: FlowState) -> bytes:
    if state.batch != ():
        raise CheckpointError("checkpoints hold a single trajectory, not a batch")
    cfg = state.cfg
    head = MAGIC + struct.pack("<HB", VERSION, KIND_FLOW)
    head += _HEADER.pack(
        cfg.N, cfg.s, cfg.gamma, cfg.alpha, cfg.dt,
        int(state.stick.seed), state.step, state.t,
        _INTEGRATORS.index(cfg.integrator), int(cfg.linear_only),
        cfg.M_pad, cfg.blowup_threshold, cfg.obs_interval)
    arrays = b"".join(
        np.ascontiguousarray(a, dtype=np.complex128).tobytes()
        for a in (state.u0, state.lin, state.stick.value, state.v))
    return head + arrays


def load_checkpoint(blob: bytes, cfg: SimConfig | None = None) -> FlowState:
    if len(blob) < len(MAGIC) + 3:
        raise CheckpointError("truncated checkpoint (no header)")
    if blob[:6] != MAGIC:
        raise CheckpointError("bad magic; not an SDNLW checkpoint")
    version, kind = struct.unpack_from("<HB", blob, 6)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if kind != KIND_FLOW:
        raise CheckpointError(f"unsupported state kind {kind}")
    off = 9
    try:
        (N, s, gamma, alpha, dt, seed, step, t, integ, linear_only,
         m_pad, blowup, obs_int) = _HEADER.unpack_from(blob, off)
    except struct.error as exc:
        raise CheckpointError("truncated checkpoint header") from exc
    off += _HEADER.size
    if integ >= len(_INTEGRATORS):
        raise CheckpointError(f"integrator: byte {integ} names no integrator "
                              f"(0 = euler)")
    if linear_only > 1:
        raise CheckpointError(f"linear_only: byte {linear_only} is neither 0 nor 1")
    stored = SimConfig(N=N, s=s, gamma=gamma, alpha=alpha, dt=dt, seed=seed,
                       integrator=_INTEGRATORS[integ],
                       linear_only=bool(linear_only), M_pad=m_pad,
                       blowup_threshold=blowup, obs_interval=obs_int)
    try:
        stored.check()
    except ConfigError as exc:
        raise CheckpointError(f"stored config refused: {exc}") from exc
    K = 2 * N + 1
    nbytes = 2 * K * K * 16
    if len(blob) != off + 4 * nbytes:
        raise CheckpointError(
            f"truncated checkpoint payload (expected {off + 4*nbytes} bytes, "
            f"got {len(blob)})")
    if cfg is not None:
        for key in ("N", "s", "gamma", "alpha", "dt", "integrator"):
            have, want = getattr(cfg, key), getattr(stored, key)
            if have != want:
                raise CheckpointError(
                    f"{key}: checkpoint has {want!r}, config has {have!r} "
                    f"(resume across changed parameters is forbidden)")
        stored = replace(cfg, seed=seed)

    def read_pair(i: int) -> np.ndarray:
        raw = blob[off + i * nbytes: off + (i + 1) * nbytes]
        return np.frombuffer(raw, dtype=np.complex128).reshape(2, K, K).copy()

    state = flow_init(stored, read_pair(0), seed=seed, step0=step)
    stick = replace(state.stick, value=read_pair(2), t=t)
    return replace(state, lin=read_pair(1), stick=stick, v=read_pair(3))


def write_checkpoint(state: FlowState, path) -> None:
    with open(path, "wb") as fh:
        fh.write(save_checkpoint(state))


def read_checkpoint(path, cfg: SimConfig | None = None) -> FlowState:
    with open(path, "rb") as fh:
        return load_checkpoint(fh.read(), cfg)
