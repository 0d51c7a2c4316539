"""Exact small-n linear algebra: circuit unitaries, overlaps, spectra.

This is the verification oracle for the tableau simulator and the engine
for the density-matrix security analysis.  Everything here is dense and
limited to n <= dense_cutoff() qubits (default 12, override with the
QLOCK_DENSE_CUTOFF environment variable).

A circuit acts on a (d,) vector or a (d, m) column stack in maximal runs
of gates that touch at most two qubits.  Each run is multiplied into one
2x2 or 4x4 matrix from a small table of local gate matrices and applied
with one gather, matmul and scatter over the rows grouped by the run's
qubits, so the cost follows the number of runs, not the number of gates.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np

from .stabilizer import CliffordCircuit

DEFAULT_DENSE_CUTOFF = 12

_SQ2 = 1.0 / math.sqrt(2.0)

GATE_MATRICES = {
    "H": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                     dtype=complex),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
    "SWAP": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                     dtype=complex),
}


class NumericalError(RuntimeError):
    """Raised on non-finite input to a numerical routine or a LAPACK failure."""


def dense_cutoff() -> int:
    value = os.environ.get("QLOCK_DENSE_CUTOFF")
    return int(value) if value else DEFAULT_DENSE_CUTOFF


def _check_cutoff(n: int) -> None:
    cutoff = dense_cutoff()
    if n > cutoff:
        raise ValueError(f"n={n} exceeds dense cutoff {cutoff}")


def basis_index(bits: str) -> int:
    """Index of |bits> with the leftmost character as qubit 0 (MSB)."""
    return int(bits, 2)


def basis_vector(bits: str) -> np.ndarray:
    v = np.zeros(1 << len(bits), dtype=complex)
    v[basis_index(bits)] = 1.0
    return v


def _pair_matrices() -> dict:
    """4x4 matrix of each gate on a two-qubit run, keyed (kind, slots).

    A run on qubits lo < hi orders its local basis |b_lo b_hi> with lo as
    the more significant bit, matching the global order (qubit 0 is the
    MSB).  slots places each gate qubit in the run: (0,) is G (x) I,
    (1,) is I (x) G, (0, 1) is G itself and (1, 0) is SWAP G SWAP.
    """
    eye = np.eye(2, dtype=complex)
    # a row and column permutation, not a matmul: importing the module
    # must not start BLAS in processes that never simulate densely
    swapped = np.ix_([0, 2, 1, 3], [0, 2, 1, 3])
    table = {}
    for kind, m in GATE_MATRICES.items():
        if m.shape == (2, 2):
            table[kind, (0,)] = np.kron(m, eye)
            table[kind, (1,)] = np.kron(eye, m)
        else:
            table[kind, (0, 1)] = m
            table[kind, (1, 0)] = m[swapped]
    return table


_PAIR_MATRICES = _pair_matrices()


def _fuse(run: list, touched: frozenset) -> tuple[tuple[int, ...], np.ndarray]:
    """Sorted qubits and the run's matrix product, last gate leftmost."""
    qubits = tuple(sorted(touched))
    if len(qubits) == 1:
        mats = [GATE_MATRICES[g.kind] for g in run]
    else:
        lo, hi = qubits
        slots = {(lo,): (0,), (hi,): (1,), (lo, hi): (0, 1), (hi, lo): (1, 0)}
        mats = [_PAIR_MATRICES[g.kind, slots[g.qubits]] for g in run]
    product = mats[0]
    for mat in mats[1:]:
        product = mat @ product
    return qubits, product


def _runs(gates):
    """Yield (qubits, matrix) per maximal run of gates on <= 2 qubits."""
    run: list = []
    touched: frozenset = frozenset()
    for g in gates:
        merged = touched.union(g.qubits)
        if len(merged) > 2:
            yield _fuse(run, touched)
            run = []
            merged = frozenset(g.qubits)
        run.append(g)
        touched = merged
    if run:
        yield _fuse(run, touched)


@lru_cache(maxsize=256)
def _block_rows(n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """(2^k, d / 2^k) row indices: row j lists, in ascending order, the
    basis states whose bits on the k sorted qubits read j (first qubit
    most significant)."""
    k = len(qubits)
    shifts = [n - 1 - q for q in qubits]
    states = np.arange(1 << n)
    base = states[(states & sum(1 << s for s in shifts)) == 0]
    rows = np.empty((1 << k, base.size), dtype=np.intp)
    for j in range(1 << k):
        rows[j] = base | sum(((j >> (k - 1 - i)) & 1) << s
                             for i, s in enumerate(shifts))
    rows.flags.writeable = False
    return rows


def apply_circuit_to_vector(circuit: CliffordCircuit, vec: np.ndarray) -> np.ndarray:
    """Return U_C |vec> for a (d,) state vector, or U_C V for a (d, m) stack.

    The gates are taken in maximal runs that touch at most two qubits.
    Each run is multiplied into one 2x2 or 4x4 matrix and applied with one
    gather, matmul and scatter over the rows grouped by the run's qubits.
    The input is not modified.
    """
    n = circuit.n
    _check_cutoff(n)
    shape = vec.shape
    if shape[:1] != (1 << n,) or len(shape) > 2:
        raise ValueError("state vector dimension mismatch")
    arr = np.array(vec, dtype=complex, order="C")
    cols = arr if arr.ndim == 2 else arr[:, None]
    for qubits, mat in _runs(circuit.gates):
        rows = _block_rows(n, qubits)
        block = cols[rows]
        cols[rows] = (mat @ block.reshape(len(mat), -1)).reshape(block.shape)
    return arr


def circuit_unitary(circuit: CliffordCircuit) -> np.ndarray:
    """Dense unitary of the circuit, gates multiplied in circuit order."""
    _check_cutoff(circuit.n)
    return apply_circuit_to_vector(circuit, np.eye(1 << circuit.n, dtype=complex))


def random_state_vector(n: int, rng) -> np.ndarray:
    """Haar-random unit vector: normalized complex standard normals."""
    d = 1 << n
    re = np.array([rng.gauss(0.0, 1.0) for _ in range(d)])
    im = np.array([rng.gauss(0.0, 1.0) for _ in range(d)])
    v = re + 1j * im
    return v / np.linalg.norm(v)


def overlap_prob(alpha: np.ndarray, circuit: CliffordCircuit,
                 beta: np.ndarray) -> float:
    """|<alpha| U_C |beta>|^2 for dense unit vectors."""
    if alpha.shape != beta.shape or alpha.shape != (1 << circuit.n,):
        raise ValueError("state vector dimension mismatch")
    return float(abs(np.vdot(alpha, apply_circuit_to_vector(circuit, beta))) ** 2)


# -- Hermitian spectra -------------------------------------------------------


def check_density_matrix(rho: np.ndarray, tol: float = 1e-9,
                         check_psd: bool = False) -> None:
    d = rho.shape[0]
    if rho.shape != (d, d):
        raise ValueError("density matrix must be square")
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > tol or abs(np.trace(rho).imag) > tol:
        raise ValueError("density matrix trace is not 1 within tolerance")
    if check_psd and eigvalsh(rho)[-1] < -tol:
        raise ValueError("density matrix has a negative eigenvalue")


def eigvalsh(a: np.ndarray, hermiticity_tol: float = 1e-9) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix (LAPACK), in descending order.

    Raises:
        ValueError: input not square, or not Hermitian within hermiticity_tol.
        NumericalError: non-finite input, or LAPACK failed to converge.
    """
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix has non-finite entries")
    if np.max(np.abs(a - a.conj().T)) > hermiticity_tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    try:
        vals = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    return vals[::-1]


def von_neumann_entropy(rho: np.ndarray, tol: float = 1e-9) -> float:
    """Entropy -sum(lam * log2 lam) in bits; eigenvalues below 1e-12 count as 0."""
    check_density_matrix(rho, tol=tol)
    vals = eigvalsh(rho)
    if vals[-1] < -tol:
        raise ValueError("density matrix has a negative eigenvalue")
    ent = 0.0
    for lam in vals:
        if lam >= 1e-12:
            ent -= lam * math.log2(lam)
    return ent
