"""Exact small-n linear algebra: circuit unitaries, overlaps, spectra.

This is the verification oracle for the tableau simulator and the engine
for the density-matrix security analysis.  Everything here is dense and
limited to n <= DENSE_CUTOFF = 12 qubits.

A gate circuit acts on a (d,) vector or a (d, m) column stack in maximal
runs of gates that touch at most two qubits, read off its gate codes.
Each run is multiplied into one 2x2 or 4x4 matrix from a small table of
local gate matrices and applied with one gather, matmul and scatter over
the rows grouped by the run's qubits, so the cost follows the number of
runs, not the number of gates.

A sampled design circuit (sampling.DesignCircuit) holds its fragment
records (word, a, b) as an (L, 3) int array: word = 16 i + j indexes the
720 x 16 two-qubit Clifford table, applied with its local qubit 0 on a
and 1 on b.  Each record is one 4x4 unitary, phi U_{i,0} P, taken from a
table built on first use.  push() stacks the records of consecutive
design circuits into (B, L, 3) batches and applies each batch to copies
of one column stack, one step per fragment position, with one gather,
matmul and scatter over the whole batch per step: the same step that
applies a run of gates.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .sampling import DesignCircuit, check_records, two_qubit_table
from .stabilizer import GATE_KINDS, CliffordCircuit

DENSE_CUTOFF = 12

# largest |A - A^dagger| entry accepted as Hermitian; also the trace and
# eigenvalue slack of a density matrix
_TOL = 1e-9

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


def check_cutoff(n: int) -> None:
    """Raise ValueError when n qubits are too many to simulate densely."""
    if n > DENSE_CUTOFF:
        raise ValueError(f"n={n} exceeds the dense cutoff {DENSE_CUTOFF}")


def basis_index(bits: str) -> int:
    """Index of |bits> with the leftmost character as qubit 0 (MSB)."""
    return int(bits, 2)


def basis_vector(bits: str) -> np.ndarray:
    v = np.zeros(1 << len(bits), dtype=complex)
    v[basis_index(bits)] = 1.0
    return v


# the matrix of each kind code
_KIND_MATRICES = [GATE_MATRICES[kind] for kind in GATE_KINDS]


def _pair_matrices() -> dict:
    """4x4 matrix of each gate on a two-qubit run lo < hi, keyed (kind
    code, a == hi, b == hi) for the gate code (kind, a, b).

    The run orders its local basis |b_lo b_hi> with lo as the more
    significant bit, matching the global order (qubit 0 is the MSB).  So
    a one-qubit G on lo is G (x) I and on hi I (x) G; a two-qubit G on
    (lo, hi) is G itself and on (hi, lo) SWAP G SWAP.
    """
    eye = np.eye(2, dtype=complex)
    # a row and column permutation, not a matmul: importing the module
    # must not start BLAS in processes that never simulate densely
    swapped = np.ix_([0, 2, 1, 3], [0, 2, 1, 3])
    table = {}
    for code, m in enumerate(_KIND_MATRICES):
        if m.shape == (2, 2):
            table[code, False, False] = np.kron(m, eye)
            table[code, True, True] = np.kron(eye, m)
        else:
            table[code, False, True] = m
            table[code, True, False] = m[swapped]
    return table


_PAIR_MATRICES = _pair_matrices()


def _fuse(run: list, touched: set) -> tuple[tuple[int, ...], np.ndarray]:
    """Sorted qubits and the matrix product of a run of gate codes, last
    gate leftmost."""
    qubits = tuple(sorted(touched))
    if len(qubits) == 1:
        mats = [_KIND_MATRICES[k] for k, _, _ in run]
    else:
        hi = qubits[1]
        mats = [_PAIR_MATRICES[k, a == hi, b == hi] for k, a, b in run]
    product = mats[0]
    for mat in mats[1:]:
        product = mat @ product
    return qubits, product


def _runs(codes):
    """Yield (qubits, matrix) per maximal run of gate codes (kind, a, b)
    on <= 2 qubits."""
    run: list = []
    touched: set = set()
    it = iter(codes)
    for k, a, b in zip(it, it, it):
        merged = touched | {a, b}
        if len(merged) > 2:
            yield _fuse(run, touched)
            run = []
            merged = {a, b}
        run.append((k, a, b))
        touched = merged
    if run:
        yield _fuse(run, touched)


@lru_cache(maxsize=256)
def _block_rows(n: int, qubits: tuple[int, ...]) -> np.ndarray:
    """(2^k, d / 2^k) row indices: row j lists, in ascending order, the
    basis states whose bits on the k given qubits read j (first qubit most
    significant)."""
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


def _step(flat: np.ndarray, rows: np.ndarray, mats: np.ndarray) -> None:
    """flat[rows[b]] = mats[b] @ flat[rows[b]] for every b, in place.

    flat is a C-ordered (rows, m) array, rows a (B, k, r) array of row
    indices, disjoint across b, and mats a (B, k, k) stack: one gather, one
    batched matmul and one scatter, whatever B is.
    """
    block = flat[rows]
    flat[rows] = (mats @ block.reshape(rows.shape[0], rows.shape[1], -1)
                  ).reshape(block.shape)


def apply_circuit_to_vector(circuit: CliffordCircuit, vec: np.ndarray) -> np.ndarray:
    """Return U_C |vec> for a (d,) state vector, or U_C V for a (d, m) stack.

    The gates are taken in maximal runs that touch at most two qubits.
    Each run is multiplied into one 2x2 or 4x4 matrix and applied with one
    gather, matmul and scatter over the rows grouped by the run's qubits.
    The input is not modified.
    """
    n = circuit.n
    check_cutoff(n)
    shape = vec.shape
    if shape[:1] != (1 << n,) or len(shape) > 2:
        raise ValueError("state vector dimension mismatch")
    arr = np.array(vec, dtype=complex, order="C")
    cols = arr if arr.ndim == 2 else arr[:, None]
    for qubits, mat in _runs(circuit.codes):
        _step(cols, _block_rows(n, qubits)[None], mat[None])
    return arr


# -- design circuits as fragment records -------------------------------------

# e^{i pi k / 4} for k = 0..7
_EIGHTH = np.array([1, _SQ2 + _SQ2 * 1j, 1j, -_SQ2 + _SQ2 * 1j,
                    -1, -_SQ2 - _SQ2 * 1j, -1j, _SQ2 - _SQ2 * 1j])

# two-qubit Paulis P_p = s_{p // 4} (x) s_{p % 4} with s = I, X, Y, Z
_SIGMAS = (np.eye(2),) + tuple(GATE_MATRICES[k] for k in "XYZ")
_PAULIS = np.array([np.kron(a, b) for a in _SIGMAS for b in _SIGMAS])

# complex entries of a column stack per batch; bounds a batch's memory
_BATCH_ENTRIES = 1 << 13

# classes per step of the fragment table build
_TABLE_CHUNK = 240


def _word_products(templates) -> np.ndarray:
    """(len(templates), 4, 4) unitaries of two-qubit table templates, all
    multiplied together one gate position at a time."""
    # index 0 is the identity that pads the shorter templates; the
    # generator codes act on the run lo, hi = 0, 1, keyed as in _fuse
    mats = np.stack([np.eye(4, dtype=complex)]
                    + [_PAIR_MATRICES[k, a == 1, b == 1]
                       for k, a, b in two_qubit_table().gens])
    lengths = np.array([len(t) for t in templates])
    steps = np.zeros((len(templates), lengths.max()), dtype=np.intp)
    steps[np.arange(steps.shape[1]) < lengths[:, None]] = np.frombuffer(
        b"".join(templates), dtype=np.uint8) + 1
    out = np.broadcast_to(mats[0], (len(templates), 4, 4))
    for step in steps.T:
        out = mats[step] @ out
    return out


class _FragmentTable:
    """The unitary of every table word w = 16 i + j, as phi_w U_{i,0} P_w.

    classes holds the 720 unitaries U_{i,0}.  code[w] = 8 p + k names the
    Pauli P_p and the phase phi_w = e^{i pi k / 4}.  A Pauli has one
    nonzero entry per column, so U_w[:, c] = U_{i,0}[:, cols[code, c]] *
    scale[code, c], and no 4x4 matrix is stored per word.  The 128 codes
    keep these as (4, 4) tables of offsets into a flattened U_{i,0} and
    of factors, so the matrices of B words are one take and one multiply.
    """

    def __init__(self):
        templates = two_qubit_table().templates
        self.classes = np.empty((720, 4, 4), dtype=complex)
        self.code = np.empty(720 * 16, dtype=np.uint8)
        # a few classes at a time keeps every temporary array small
        for lo in range(0, 720, _TABLE_CHUNK):
            hi = lo + _TABLE_CHUNK
            chunk = range(lo, min(hi, 720))
            self.classes[lo:hi] = _word_products(templates[16 * lo:16 * hi:16])
            adjoints = self.classes[lo:hi].conj().transpose(0, 2, 1)
            for j in range(16):
                # U_{i,0}^dagger U_{i,j} = phi P for one Pauli P per class
                rel = adjoints @ _word_products(
                    templates[16 * lo + j:16 * hi:16])
                coef = np.einsum("pab,iab->ip", _PAULIS.conj(), rel) / 4
                p = np.argmax(np.abs(coef), axis=1)
                phase = coef[np.arange(len(chunk)), p]
                k = np.rint(np.angle(phase) * 4 / math.pi).astype(np.intp) % 8
                if np.max(np.abs(rel - _EIGHTH[k, None, None] * _PAULIS[p])) > 1e-12:
                    raise AssertionError("a table word is not phi U_{i,0} P")
                self.code[16 * lo + j:16 * hi:16] = 8 * p + k
        # per code 8 p + k: the row of each column's nonzero entry of P_p,
        # and that entry times the phase
        rows = np.argmax(np.abs(_PAULIS), axis=1)
        entries = np.take_along_axis(_PAULIS, rows[:, None, :], axis=1)[:, 0]
        self.cols = rows.repeat(8, axis=0)
        self.scale = entries.repeat(8, axis=0) * np.tile(_EIGHTH, 16)[:, None]
        # per code, entry (r, c) of U_w is entry offsets[code, r, c] of the
        # flattened U_{i,0} times factors[code, r, c]
        self.offsets = 4 * np.arange(4)[:, None] + self.cols[:, None, :]
        self.factors = np.repeat(self.scale[:, None, :], 4, axis=1)

    def matrices(self, words: np.ndarray) -> np.ndarray:
        """(B, 4, 4) unitaries of the table words."""
        code = self.code[words]
        index = self.offsets[code]
        index += (16 * (words >> 4))[:, None, None]
        out = self.classes.reshape(-1).take(index)
        out *= self.factors[code]
        return out


@lru_cache(maxsize=1)
def _fragment_table() -> _FragmentTable:
    return _FragmentTable()


@lru_cache(maxsize=16)
def _pair_rows(n: int) -> np.ndarray:
    """(n, n, 4, d / 4) array: [a, b] holds the block rows of the ordered
    qubit pair (a, b), a as the more significant bit (zeros for a == b)."""
    rows = np.zeros((n, n, 4, 1 << (n - 2)), dtype=np.intp)
    for a in range(n):
        for b in range(n):
            if a != b:
                # uncached: this stacked copy is the one that is kept
                rows[a, b] = _block_rows.__wrapped__(n, (a, b))
    rows.flags.writeable = False
    return rows


def _push_fragments(recs: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(B, d, m) stack of U_b cols for the B circuits of a (B, L, 3)
    record array; one step per fragment position."""
    d, m = cols.shape
    n = d.bit_length() - 1
    check_records(n, recs)
    words, a, b = recs[..., 0], recs[..., 1], recs[..., 2]
    stack = np.empty((len(recs), d, m), dtype=complex)
    stack[:] = cols
    flat = stack.reshape(-1, m)
    offsets = (np.arange(len(recs)) * d)[:, None, None]
    pair_rows = _pair_rows(n)
    table = _fragment_table()
    for t in range(recs.shape[1]):
        _step(flat, pair_rows[a[:, t], b[:, t]] + offsets,
              table.matrices(words[:, t]))
    return stack


def push(circuits: Iterable[CliffordCircuit],
         cols: np.ndarray) -> Iterator[np.ndarray]:
    """Yield U_k cols as (B, d, m) stacks for the circuits, in order.

    A CliffordCircuit is applied on its own by apply_circuit_to_vector.
    Consecutive DesignCircuits, as sampling.sample_design_circuit draws
    them, are applied together from their fragment records in batches
    whose stacks hold at most _BATCH_ENTRIES entries.  The circuits are
    consumed lazily, so a generator is never held in memory as a whole.
    """
    d, m = cols.shape
    if d < 2 or d & (d - 1):
        raise ValueError("state vector dimension mismatch")
    n = d.bit_length() - 1
    check_cutoff(n)
    size = max(1, _BATCH_ENTRIES // (d * m))
    batch: list[np.ndarray] = []
    for circuit in circuits:
        # a design circuit on other than n qubits fails in
        # apply_circuit_to_vector's dimension check
        if isinstance(circuit, DesignCircuit) and circuit.n == n:
            batch.append(circuit.records)
            if len(batch) == size:
                yield _push_fragments(np.stack(batch), cols)
                batch = []
            continue
        if batch:
            yield _push_fragments(np.stack(batch), cols)
            batch = []
        yield apply_circuit_to_vector(circuit, cols)[None]
    if batch:
        yield _push_fragments(np.stack(batch), cols)


def circuit_unitary(circuit: CliffordCircuit) -> np.ndarray:
    """Dense unitary of the circuit, gates multiplied in circuit order."""
    check_cutoff(circuit.n)
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


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix (LAPACK), in descending order.

    Raises:
        ValueError: input not square, or not Hermitian within 1e-9.
        NumericalError: non-finite input, or LAPACK failed to converge.
    """
    a = np.asarray(a, dtype=complex)
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix has non-finite entries")
    if np.max(np.abs(a - a.conj().T)) > _TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    try:
        vals = np.linalg.eigvalsh((a + a.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    return vals[::-1]


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum(lam * log2 lam) in bits; eigenvalues below 1e-12 count as 0.

    Raises ValueError unless rho is a density matrix: square, Hermitian
    within 1e-9, of unit trace within 1e-9 and with no eigenvalue below
    -1e-9.
    """
    vals = eigvalsh(rho)
    trace = np.trace(rho)
    if abs(trace.real - 1.0) > _TOL or abs(trace.imag) > _TOL:
        raise ValueError("density matrix trace is not 1 within tolerance")
    if vals[-1] < -_TOL:
        raise ValueError("density matrix has a negative eigenvalue")
    ent = 0.0
    for lam in vals:
        if lam >= 1e-12:
            ent -= lam * math.log2(lam)
    return ent
