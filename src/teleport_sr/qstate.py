"""Pure-state algebra for the teleported qubit.

Covers the state-dependent side of the protocol analysis: the three Pauli
overlap weights of a state, fair Bell-measurement bits, Pauli corrections,
and the receiver's mixed state assembled directly from the 16-term joint
distribution of measurement and detection bits.  The mixed-state path is
deliberately brute force; it serves as the independent check of the closed
fidelity formula in :mod:`teleport_sr.analysis`.

States are compared by overlap magnitude only; global phases produced by the
Pauli algebra cancel in every projector and are not tracked.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import DetectionStats

__all__ = [
    "QubitState",
    "PauliWeights",
    "DensityMatrix",
    "STATE_PRESETS",
    "pauli_weights",
    "bell_measure",
    "corrected_state",
    "bob_mixed_state",
    "fidelity_against",
]

_ATOL = 1e-12

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

_INV_SQRT2 = 1 / np.sqrt(2)


def _amplitude(name: str, z) -> tuple[complex, float]:
    """The amplitude as a complex and its modulus; refuses what is no number or overflows."""
    if isinstance(z, bool) or not isinstance(z, numbers.Number):
        raise ValueError(f"state.{name} must be a number, not a boolean, got {z!r}")
    try:
        z = complex(z)
        return z, abs(z)
    except OverflowError:
        raise ValueError(f"state.{name} has a modulus too large for a float, got {z!r}") from None


@dataclass(frozen=True)
class QubitState:
    """A pure qubit ``alpha|0> + beta|1>``; must be normalized.

    The amplitudes must be numbers (not booleans) and are stored as complex.
    Construction rejects unnormalized amplitudes rather than silently
    rescaling them (use :meth:`normalized` to rescale explicitly).
    """

    alpha: complex
    beta: complex

    def __post_init__(self):
        (alpha, a), (beta, b) = _amplitude("alpha", self.alpha), _amplitude("beta", self.beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        norm_sq = a * a + b * b
        # Written so that a NaN norm fails too.
        if not abs(norm_sq - 1.0) <= _ATOL:
            raise ValueError(
                f"state is not normalized: |alpha|^2 + |beta|^2 = {norm_sq!r}"
            )

    @classmethod
    def normalized(cls, alpha: complex, beta: complex) -> "QubitState":
        """Construct from unnormalized amplitudes by explicit rescaling."""
        (alpha, a), (beta, b) = _amplitude("alpha", alpha), _amplitude("beta", beta)
        norm = math.hypot(a, b)
        if norm == 0:
            raise ValueError("cannot normalize the zero vector")
        return cls(alpha / norm, beta / norm)

    @classmethod
    def preset(cls, name: str) -> "QubitState":
        try:
            return STATE_PRESETS[name]
        except KeyError:
            raise ValueError(
                f"unknown state preset {name!r}; expected one of {sorted(STATE_PRESETS)}"
            ) from None

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)

    def overlap_sq(self, other: "QubitState") -> float:
        """|<self|other>|^2, the phase-insensitive comparison of states."""
        return abs(np.vdot(self.vector, other.vector)) ** 2


STATE_PRESETS = {
    "zero": QubitState(1.0, 0.0),
    "one": QubitState(0.0, 1.0),
    "plus": QubitState(_INV_SQRT2, _INV_SQRT2),
    "i-plus": QubitState(_INV_SQRT2, _INV_SQRT2 * 1j),
}


@dataclass(frozen=True)
class PauliWeights:
    """Squared Pauli overlaps (qx, qz, qxz) of a state; they sum to one."""

    qx: float
    qz: float
    qxz: float

    def __post_init__(self):
        for name in ("qx", "qz", "qxz"):
            v = getattr(self, name)
            if v < -_ATOL:
                raise ValueError(f"{name}={v} must be nonnegative")
        total = self.qx + self.qz + self.qxz
        if abs(total - 1.0) > _ATOL:
            raise ValueError(f"weights sum to {total!r}, not 1")

    def overlap_table(self) -> np.ndarray:
        """|<psi|X^b1 Z^b2|psi>|^2 indexed by 2*b1 + b2."""
        return np.array([1.0, self.qz, self.qx, self.qxz])


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated 2x2 density matrix (Hermitian, unit trace, PSD), held as a read-only copy."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"density matrix must be 2x2, got shape {m.shape}")
        if not np.allclose(m, m.conj().T, rtol=0, atol=_ATOL):
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > _ATOL:
            raise ValueError(f"density matrix trace is {np.trace(m)!r}, not 1")
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -_ATOL:
            raise ValueError(f"density matrix has negative eigenvalue {eigs.min()!r}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@lru_cache(maxsize=8)
def pauli_weights(state: QubitState) -> PauliWeights:
    """The squared overlaps of ``state`` with its X, Z, and XZ rotations.

    These three numbers, together with the channel scalar P, fully determine
    the teleportation fidelity; normalization of the state (enforced by the
    type) makes them sum to one.  Cached per state (both types are frozen
    values), so a sweep's cells do not recompute them.
    """
    v = state.vector
    qx = abs(np.vdot(v, _PAULI_X @ v)) ** 2
    qz = abs(np.vdot(v, _PAULI_Z @ v)) ** 2
    qxz = abs(np.vdot(v, _PAULI_X @ _PAULI_Z @ v)) ** 2
    return PauliWeights(qx=float(qx), qz=float(qz), qxz=float(qxz))


def bell_measure(rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` Bell measurements: two independent fair coins each.

    The full two-qubit measurement statistics reduce to exactly this (each of
    the four outcomes has probability 1/4 regardless of the input state), so
    no state vector is collapsed here; the equivalence is covered by a
    brute-force collapse test.  Returns one ``(2, size)`` bool draw: all
    ``s1`` bits (row 0) and all ``s2`` bits (row 1).

    The bits are those of ``rng.integers(0, 2, (2, size), dtype=bool)``, and
    the generator ends in the same state: both take ``ceil(2 size / 32)``
    32-bit words and use each word's bits from the lowest up.  Unpacking
    ``rng.bytes`` is about 1.5-3x faster.
    """
    packed = np.frombuffer(rng.bytes((2 * size + 7) // 8), np.uint8)
    return np.unpackbits(packed, count=2 * size, bitorder="little").view(bool).reshape(2, size)


def corrected_state(state: QubitState, s: tuple[int, int], y: tuple[int, int]) -> QubitState:
    """The receiver's state after the conditional rotation, up to phase.

    ``s`` = (s1, s2) and ``y`` = (y1, y2) are pairs of 0/1 ints.  Applies
    ``X^(y1 xor s1) Z^(y2 xor s2)``: the net Pauli left over when the
    measurement produced bits ``s`` but the rotation used detected bits ``y``.
    Matching bits cancel, so the result depends only on the XORs.
    """
    bx = (s[0] ^ y[0]) & 1
    bz = (s[1] ^ y[1]) & 1
    alpha, beta = state.alpha, state.beta
    if bz:
        beta = -beta
    if bx:
        alpha, beta = beta, alpha
    return QubitState(alpha, beta)


def bob_mixed_state(state: QubitState, stats: DetectionStats) -> DensityMatrix:
    """The receiver's mixed state, assembled term by term.

    ``stats`` must be a :class:`DetectionStats`, whose construction checked
    its probabilities; anything else raises TypeError.  Averages the
    projector of the net-corrected state over all 16 joint values of
    measurement bits (s1, s2) and detected bits (y1, y2), weighting by
    p(y1|s1) p(y2|s2) / 4.  Kept as an explicit 16-term sum: this is the
    independent route against which the closed fidelity formula is checked.
    """
    if not isinstance(stats, DetectionStats):
        raise TypeError(f"bob_mixed_state needs a DetectionStats, got {type(stats).__name__}")
    p = {(0, 0): stats.p00, (0, 1): stats.p01, (1, 0): stats.p10, (1, 1): stats.p11}
    rho = np.zeros((2, 2), dtype=complex)
    for y1 in (0, 1):
        for y2 in (0, 1):
            for s1 in (0, 1):
                for s2 in (0, 1):
                    ket = corrected_state(state, (s1, s2), (y1, y2)).vector
                    rho += 0.25 * p[y1, s1] * p[y2, s2] * np.outer(ket, ket.conj())
    return DensityMatrix(rho)


def fidelity_against(state: QubitState, rho) -> float:
    """``<psi|rho|psi>`` as a real number clamped to [0, 1].

    Accepts a :class:`DensityMatrix`, or a raw 2x2 array that must pass the
    same checks (Hermitian, unit trace, PSD; ValueError else).
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho)
    v = state.vector
    value = np.vdot(v, rho.matrix @ v)
    return min(max(float(value.real), 0.0), 1.0)
