"""Seeded random generators for states, directions, unitaries, and measurements.

Every function takes a ``numpy.random.Generator`` so a single 64-bit seed
fully determines any randomized test input.
"""

from __future__ import annotations

import numpy as np

from .linalg import operator_norm


def random_complex(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, d, d))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = random_complex(rng, d, d)
    return 0.5 * (a + a.conj().T)


def random_traceless_hermitian(rng: np.random.Generator, d: int, norm: float = 1.0) -> np.ndarray:
    h = random_hermitian(rng, d)
    h -= np.trace(h) / d * np.eye(d)
    return norm * h / operator_norm(h)


def random_density(rng: np.random.Generator, d: int, mix: float = 0.1) -> np.ndarray:
    """Wishart state blended with the flat state to keep it well conditioned."""
    a = random_complex(rng, d, 2 * d)
    w = a @ a.conj().T
    rho = w / np.trace(w).real
    return (1.0 - mix) * rho + mix / d * np.eye(d)


def random_povm(rng: np.random.Generator, d: int, k: int) -> list[np.ndarray]:
    """k random PSD parts normalized so the elements sum to the identity."""
    parts = []
    for _ in range(k):
        a = random_complex(rng, d, d)
        parts.append(a @ a.conj().T)
    total = sum(parts)
    lam, u = np.linalg.eigh(total)
    whiten = (u * lam**-0.5) @ u.conj().T
    return [whiten @ p @ whiten for p in parts]


def random_mean_zero_directions(rng: np.random.Generator, d: int, n: int, norm: float = 1.0) -> list[np.ndarray]:
    """n traceless Hermitian directions with zero family mean, max operator norm ``norm``."""
    raw = [random_traceless_hermitian(rng, d) for _ in range(n)]
    mean = sum(raw) / n
    centered = [x - mean for x in raw]
    top = max(operator_norm(x) for x in centered)
    return [norm * x / top for x in centered]
