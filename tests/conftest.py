"""Shared generators for randomized property tests (all explicitly seeded)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and have no deadline,
# so the suite stays reproducible on slow or shared machines.
settings.register_profile("qmb", derandomize=True, deadline=None, database=None)
settings.load_profile("qmb")


def random_traceless_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (a + a.conj().T)
    return h - np.trace(h) * np.eye(n) / n


def random_density(rng: np.random.Generator, n: int, min_eig: float = 0.05) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = a @ a.conj().T + n * min_eig * np.eye(n)
    return h / np.trace(h).real


def random_model(
    rng: np.random.Generator, n: int, d: int, min_eig: float = 0.05
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Full-rank state plus d Hermitian traceless derivative directions."""
    rho = random_density(rng, n, min_eig)
    return rho, [random_traceless_hermitian(rng, n) for _ in range(d)]


def random_pure_model(
    rng: np.random.Generator, n: int, d: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Pure state |psi><psi| plus d derivatives |dpsi><psi| + |psi><dpsi|."""
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.linalg.norm(psi)
    derivs = []
    for _ in range(d):
        dpsi = rng.normal(size=n) + 1j * rng.normal(size=n)
        dpsi -= psi * np.real(np.vdot(psi, dpsi))  # keeps the norm fixed
        derivs.append(np.outer(dpsi, psi.conj()) + np.outer(psi, dpsi.conj()))
    return np.outer(psi, psi.conj()), derivs


def random_rank_deficient_model(
    rng: np.random.Generator, n: int, d: int, rank: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Mixed state of the given rank plus d derivatives tangent to the
    rank-``rank`` states, d/dt of (rho + t (h rho + rho h^dag)) / Tr."""
    a = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    derivs = []
    for _ in range(d):
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        x = h @ rho + rho @ h.conj().T
        x = 0.5 * (x + x.conj().T)
        derivs.append(x - np.trace(x).real * rho)
    return rho, derivs


def random_spd(rng: np.random.Generator, d: int, spread: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(d, d)) * spread
    return a @ a.T + 0.1 * np.eye(d)


def random_antisymmetric(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    a = rng.normal(size=(d, d))
    u = a - a.T
    if rank is not None and rank < d:
        # zero out blocks beyond the requested rank in the canonical form
        w, vecs = np.linalg.eigh(1j * u)
        order = np.argsort(-np.abs(w))
        w = w[order]
        vecs = vecs[:, order]
        w[rank:] = 0.0
        u = np.real(-1j * (vecs * w) @ vecs.conj().T)
        u = 0.5 * (u - u.T)
    return u


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
