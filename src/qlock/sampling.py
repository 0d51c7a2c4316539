"""Pseudo-random Clifford circuit generation.

Three draws are provided:

* sample_design_circuit: the codebook ensemble, L = ceil(c * n * (n +
  log2(1/delta))) uniformly random two-qubit Clifford fragments on
  uniformly random qubit pairs.  derive_circuit draws it from the seed
  stream of one codebook index.
* sample_uniform_clifford: exactly uniform elements of the n-qubit
  Clifford group (table lookup for n <= 2, symplectic Gram-Schmidt plus
  gate synthesis above that), the exact-design baseline.
* single_qubit_circuit: the 24 single-qubit Cliffords by index, for
  exact enumeration checks.

The two-qubit group is enumerated once by closing the generator set
{H0, H1, S0, S1, CNOT01, CNOT10} over conjugation-action tableaus and is
indexed as 720 symplectic classes x 16 sign classes, sorted by canonical
tableau key, so an index pair maps deterministically to a gate word.

sample_design_circuit draws a design circuit as its L fragment records
(word, a, b), word = 16 i + j, and returns them as a DesignCircuit.
dense.push applies the records without expanding them into gates; every
other consumer reads the gate list, which is expanded from the records on
first use, so one seed gives the same circuit in either form.

The draw rule defines every seeded design stream.  It reads the
generator's MT19937 output as 32-bit words, one word per getrandbits(k)
call with k <= 32, which returns the word's top k bits.  A fragment
fills four slots in order, each from the words that follow the previous
slot.  A slot with bound m reads v = getrandbits(k), k = m.bit_length(),
accepts v if v < m and otherwise rejects the word and reads the next one.
The slots are:

1. a, bound n;
2. pool branch (n <= 21): j, bound n - 1, and b = j, or b = n - 1 when
   j = a; set branch (n > 21): b, bound n, also rejected when b = a;
3. i, bound 720;
4. the sign class s, bound 16, read with k = 5, so half the words fail.

The record is (16 i + s, a, b).  These are the words and values that
rng.sample(range(n), 2), rng.randrange(720) and rng.randrange(16) use in
CPython, so a draw equals those calls per fragment, and leaves the
generator in the same state.
"""

from __future__ import annotations

import hashlib
import math
import random
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .stabilizer import (CliffordCircuit, CliffordGate, Tableau, gate,
                         intern_gate, invert_circuit)


@dataclass
class SamplerConfig:
    """Parameters of the circuit ensemble."""

    n: int
    delta: float
    depth_factor: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 < self.depth_factor < math.inf:
            raise ValueError("depth_factor must be a positive finite number, "
                             f"got {self.depth_factor}")


@dataclass(frozen=True)
class SeedContext:
    """(master_seed, stream_index) pair identifying one derived circuit."""

    master_seed: int
    stream_index: int

    def __post_init__(self):
        _check_stream(self.master_seed, self.stream_index)


def design_circuit_length(n: int, delta: float, depth_factor: float = 1.0) -> int:
    """L = ceil(c * n * (n + log2(1/delta))), the normative fragment count."""
    return math.ceil(depth_factor * n * (n + math.log2(1.0 / delta)))


def _check_stream(master_seed: int, stream_index: int) -> None:
    if not 0 <= master_seed < 1 << 128:
        raise ValueError(f"master_seed must lie in [0, 2^128), got {master_seed}")
    if not 0 <= stream_index < 1 << 64:
        raise ValueError(f"stream_index must lie in [0, 2^64), got {stream_index}")


def stream_rng(master_seed: int, stream_index: int) -> random.Random:
    """Deterministic per-stream generator; streams split by SHA-256."""
    _check_stream(master_seed, stream_index)
    payload = (b"QLOCKv1" + master_seed.to_bytes(16, "big")
               + stream_index.to_bytes(8, "big"))
    return random.Random(int.from_bytes(hashlib.sha256(payload).digest(), "big"))


# -- group tables ------------------------------------------------------------


def _action_key(t: Tableau):
    return tuple(t.row_bits(r) for r in range(2 * t.n))


def _close_group(n: int, generators: list[CliffordGate]) -> dict[Tableau, tuple]:
    """BFS closure over action tableaus; returns {tableau: shortest word}."""
    start = Tableau(n)
    words = {start: ()}
    frontier = [start]
    while frontier:
        nxt = []
        for tab in frontier:
            word = words[tab]
            for g in generators:
                t2 = tab.copy()
                t2.apply(g.kind, g.qubits)
                if t2 not in words:
                    words[t2] = word + (g,)
                    nxt.append(t2)
        frontier = nxt
    return words


class _TwoQubitTable:
    """Canonical index (symplectic class, sign class) -> gate word."""

    def __init__(self):
        gens = [gate("H", 0), gate("H", 1), gate("S", 0), gate("S", 1),
                gate("CNOT", 0, 1), gate("CNOT", 1, 0)]
        words = _close_group(2, gens)
        if len(words) != 11520:
            raise AssertionError(f"two-qubit closure has {len(words)} elements")
        by_sym: dict = {}
        while words:  # drop each tableau once its key is made: lower peak RSS
            tab, word = words.popitem()
            key = _action_key(tab)
            sym = tuple(row[:2] for row in key)
            by_sym.setdefault(sym, []).append((key, word))
        if len(by_sym) != 720:
            raise AssertionError(f"{len(by_sym)} symplectic classes")
        self.words: list[list[tuple]] = []
        for sym in sorted(by_sym):
            variants = sorted(by_sym[sym])
            if len(variants) != 16:
                raise AssertionError("sign classes are not 16 per symplectic class")
            self.words.append([word for _, word in variants])


class _SingleQubitTable:
    def __init__(self):
        words = _close_group(1, [gate("H", 0), gate("S", 0)])
        if len(words) != 24:
            raise AssertionError(f"single-qubit closure has {len(words)} elements")
        keyed = sorted((_action_key(tab), word) for tab, word in words.items())
        self.words = [word for _, word in keyed]


@lru_cache(maxsize=1)
def two_qubit_table() -> _TwoQubitTable:
    return _TwoQubitTable()


@lru_cache(maxsize=1)
def single_qubit_table() -> _SingleQubitTable:
    return _SingleQubitTable()


def single_qubit_circuit(index: int) -> CliffordCircuit:
    """The index-th of the 24 single-qubit Cliffords, canonical order."""
    words = single_qubit_table().words
    return CliffordCircuit(1, list(words[index % 24]))


def all_single_qubit_circuits() -> list[CliffordCircuit]:
    return [single_qubit_circuit(i) for i in range(24)]


# -- samplers ----------------------------------------------------------------


def sample_two_qubit_clifford(rng) -> CliffordCircuit:
    """Uniform draw from the 11,520-element two-qubit Clifford group."""
    table = two_qubit_table()
    i = rng.randrange(720)
    j = rng.randrange(16)
    return CliffordCircuit(2, list(table.words[i][j]))


# random.sample takes its pool branch up to this population size for k = 2
_POOL_MAX = 21


class DesignCircuit(CliffordCircuit):
    """A design circuit held as its (L, 3) array of fragment records.

    Record (word, a, b) is one uniformly random two-qubit Clifford, table
    entry words[i][j] with word = 16 i + j, acting with its local qubit 0
    on qubit a and local qubit 1 on qubit b.  dense.push applies the
    records directly; the gate list is their word-by-word expansion, made
    on first use.
    """

    def __init__(self, n: int, records: np.ndarray):
        if n < 2:
            raise ValueError("fragments need at least two qubits")
        if records.ndim != 2 or records.shape[1] != 3:
            raise ValueError("fragment records must form an (L, 3) array, "
                             f"got shape {records.shape}")
        self.n = n
        self.records = records

    @cached_property
    def gates(self) -> list[CliffordGate]:
        words = two_qubit_table().words
        gates: list[CliffordGate] = []
        for word, a, b in self.records.tolist():
            relabel = {(0,): (a,), (1,): (b,), (0, 1): (a, b), (1, 0): (b, a)}
            gates.extend([intern_gate(g.kind, relabel[g.qubits])
                          for g in words[word >> 4][word & 15]])
        return gates


def sample_design_circuit(cfg: SamplerConfig, rng) -> CliffordCircuit:
    """Approximate-2-design circuit of L two-qubit fragments.

    A DesignCircuit of L records drawn by the rule in the module
    docstring.  At n = 1 there are no qubit pairs; the draw falls back to
    a uniform single-qubit Clifford.
    """
    n = cfg.n
    if n == 1:
        return single_qubit_circuit(rng.randrange(24))
    length = design_circuit_length(n, cfg.delta, cfg.depth_factor)
    bits = rng.getrandbits
    pool = n <= _POOL_MAX
    k0 = n.bit_length()
    m1 = n - 1 if pool else n
    k1 = m1.bit_length()
    flat = array("q")
    put = flat.extend
    for _ in range(length):
        a = bits(k0)
        while a >= n:
            a = bits(k0)
        b = bits(k1)
        if pool:
            while b >= m1:
                b = bits(k1)
            if b == a:
                b = n - 1
        else:
            while b >= n or b == a:
                b = bits(k1)
        i = bits(10)
        while i >= 720:
            i = bits(10)
        s = bits(5)
        while s >= 16:
            s = bits(5)
        put((16 * i + s, a, b))
    records = np.frombuffer(flat, dtype=np.int64).reshape(length, 3)
    return DesignCircuit(n, records)


def sample_uniform_clifford(n: int, rng) -> CliffordCircuit:
    """Exactly uniform element of the n-qubit Clifford group.

    For n <= 2 this is a table lookup.  Above that a uniformly random
    conjugation action is built one hyperbolic pair at a time (symplectic
    Gram-Schmidt with rejection), signs are drawn uniformly, and the
    action is synthesized back into gates.
    """
    if n == 1:
        return single_qubit_circuit(rng.randrange(24))
    if n == 2:
        return sample_two_qubit_clifford(rng)
    nbits = 2 * n
    nmask = (1 << n) - 1

    def sp(u, v):
        return (((u & nmask) & (v >> n)).bit_count()
                + ((u >> n) & (v & nmask)).bit_count()) & 1

    pairs: list[tuple[int, int]] = []

    def project(c):
        for a, b in pairs:
            ca = sp(c, a)
            cb = sp(c, b)
            if cb:
                c ^= a
            if ca:
                c ^= b
        return c

    for _ in range(n):
        while True:
            a = project(rng.getrandbits(nbits))
            if a:
                break
        while True:
            b = project(rng.getrandbits(nbits))
            if sp(a, b) == 1:
                break
        pairs.append((a, b))

    action = Tableau(n)
    for j, (a, b) in enumerate(pairs):
        for r, v in ((j, a), (n + j, b)):
            x = v & nmask
            z = v >> n
            delta = (((x & z).bit_count() & 1) + 2 * rng.getrandbits(1)) % 4
            action.set_row(r, x, z, delta)
    return action_to_circuit(action)


def _set_bits(v: int, lo: int):
    """Indices of the set bits of v at or above lo, lowest first."""
    v >>= lo
    while v:
        low = v & -v
        yield lo + low.bit_length() - 1
        v ^= low


def action_to_circuit(action: Tableau) -> CliffordCircuit:
    """Synthesize a gate list whose conjugation action equals `action`.

    Works by reducing a copy of the action tableau to the identity with a
    column sweep (the emitted gate list, inverted, is the circuit).  For
    qubit j the stabilizer image is first brought to X_j and flipped to
    Z_j by a Hadamard; the destabilizer image then necessarily has an X_j
    component and is cleaned with CNOT/S/CZ, none of which disturb Z_j.
    """
    t = action.copy()
    n = t.n
    emitted: list[CliffordGate] = []

    def do(kind, *qubits):
        t.apply(kind, qubits)
        emitted.append(intern_gate(kind, qubits))

    def reduce_row(r, j):
        """Bring row r, with X_j set, to X_j by CNOTs, S and CZs from qubit j."""
        for q in _set_bits(t.row_bits(r)[0], j + 1):
            do("CNOT", j, q)
        if (t.row_bits(r)[1] >> j) & 1:
            do("S", j)
        for q in _set_bits(t.row_bits(r)[1], j + 1):
            do("CZ", j, q)

    for j in range(n):
        # stabilizer image -> X_j
        x, z, _ = t.row_bits(n + j)
        if (x | z) >> j == 0:
            raise AssertionError("no set bit at or above the cursor")
        if x >> j == 0:
            do("H", next(_set_bits(z, j)))
            x, z, _ = t.row_bits(n + j)
        if not (x >> j) & 1:
            do("SWAP", j, next(_set_bits(x, j)))
        reduce_row(n + j, j)
        do("H", j)  # X_j -> Z_j
        # destabilizer image -> X_j; it anticommutes with Z_j so x_j is set
        if not (t.row_bits(j)[0] >> j) & 1:
            raise AssertionError("lost the X component during reduction")
        reduce_row(j, j)
    # symplectic part is now the identity; clear the signs
    for j in range(n):
        if t.row(j).sign == -1:
            do("Z", j)
        if t.row(n + j).sign == -1:
            do("X", j)
    if t != Tableau(n):
        raise AssertionError("reduction did not reach the identity tableau")
    return invert_circuit(CliffordCircuit(n, emitted))


def derive_circuit(ctx: SeedContext, cfg: SamplerConfig) -> CliffordCircuit:
    """Deterministic design circuit for (master_seed, stream_index), as a
    gate circuit: codebooks compile, print and simulate their gates."""
    circuit = sample_design_circuit(cfg, stream_rng(ctx.master_seed,
                                                    ctx.stream_index))
    return CliffordCircuit(circuit.n, circuit.gates)


# -- circuit text form -------------------------------------------------------


def circuit_to_text(circuit: CliffordCircuit) -> str:
    """Semicolon-separated gate list, e.g. 'H 0; SDG 2; CNOT 0 3'."""
    return "; ".join(f"{g.kind} {' '.join(str(q) for q in g.qubits)}"
                     for g in circuit.gates)


def circuit_from_text(text: str, n: int) -> CliffordCircuit:
    gates = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split()
        try:
            gates.append(intern_gate(parts[0],
                                     tuple(int(q) for q in parts[1:])))
        except ValueError as exc:
            raise ValueError(f"bad gate {chunk!r}: {exc}") from None
    return CliffordCircuit(n, gates)
