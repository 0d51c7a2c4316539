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
{H0, H1, S0, S1, CNOT01, CNOT10} and is indexed as 720 symplectic
classes x 16 sign classes, sorted by canonical tableau key, so an index
pair maps deterministically to a gate word; the 24 single-qubit
Cliffords close {H0, S0} the same way.  The closure is a breadth-first
search over conjugation-action tableaus packed into integers, one layer
at a time in numpy.  Each generator acts on a packed row through a table
of all 2^(2n+2) rows, made by one Tableau.apply, so the gate semantics
are the tableau's own.

sample_design_circuit draws a design circuit as its L fragment records
(word, a, b), word = 16 i + j, and returns them as a DesignCircuit;
derive_circuit returns that DesignCircuit as it is, so a seed-built
codebook holds only records.  dense.push applies the records without
expanding them into gates; every other consumer reads the gate list,
which is expanded from the records on each read by relabelling each
word's template of generator indices onto (a, b) and is not kept, so one
seed gives the same circuit in either form and a consumer holds one
circuit's gates at a time.

The circuit text form is 'H 0; SDG 2; CNOT 0 3'.  Printing joins the
texts the interned gates carry, and parsing looks each stripped chunk up
in stabilizer.GATES_BY_TEXT.  A chunk that misses (a gate this process
has not interned yet, extra blanks, leading zeros, a bad gate) goes
through the full parse, which interns its gate, so later repeats of the
chunk hit, or reports the chunk.

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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .stabilizer import (GATES_BY_TEXT, CliffordCircuit, CliffordGate,
                         Tableau, gate, intern_gate, negative_rows,
                         read_decimal, set_bits)


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
        # ValueError unless the fragment count L is finite and at most
        # MAX_FRAGMENTS, before any circuit is drawn
        design_circuit_length(self.n, self.delta, self.depth_factor)


# The largest fragment count L of one design circuit.  Drawing a circuit
# takes about 80 bytes per fragment and printing it about 200, so a
# circuit of 2^22 fragments already needs about 0.3 GB to draw and 0.9 GB
# to print.  That is about 60 times the paper-scale circuit (L = 66 560 at
# n = 256 and the default delta = 1/16), so a larger L comes from a
# mistyped depth factor or delta, not from a circuit that can be held.
MAX_FRAGMENTS = 1 << 22


def design_circuit_length(n: int, delta: float, depth_factor: float = 1.0) -> int:
    """L = ceil(c * n * (n + log2(1/delta))), the normative fragment count;
    ValueError when it overflows to infinity or exceeds MAX_FRAGMENTS."""
    length = depth_factor * n * (n + math.log2(1.0 / delta))
    if length == math.inf:
        raise ValueError(f"delta={delta} and depth_factor={depth_factor} "
                         f"give an infinite circuit length at n={n}")
    length = math.ceil(length)
    if length > MAX_FRAGMENTS:
        raise ValueError(f"delta={delta} and depth_factor={depth_factor} "
                         f"give L={length} fragments at n={n}, above the "
                         f"cap of {MAX_FRAGMENTS} per circuit")
    return length


def stream_rng(master_seed: int, stream_index: int) -> random.Random:
    """Deterministic per-stream generator; streams split by SHA-256."""
    if not 0 <= master_seed < 1 << 128:
        raise ValueError(f"master_seed must lie in [0, 2^128), got {master_seed}")
    if not 0 <= stream_index < 1 << 64:
        raise ValueError(f"stream_index must lie in [0, 2^64), got {stream_index}")
    payload = (b"QLOCKv1" + master_seed.to_bytes(16, "big")
               + stream_index.to_bytes(8, "big"))
    return random.Random(int.from_bytes(hashlib.sha256(payload).digest(), "big"))


# -- group tables ------------------------------------------------------------


def _row_code(n: int, x: int, z: int, delta: int) -> int:
    """A tableau row (x_bits, z_bits, delta) as one 2n+2-bit integer, ordered
    like the tuple."""
    return (x << (n + 2)) | (z << 2) | delta


def _row_tables(n: int, generators: list[CliffordGate]) -> np.ndarray:
    """(len(generators), 2^(2n+2)) images of every row code under each
    generator's conjugation.

    One tableau holds every possible row, one row per code, so each table
    comes from a single Tableau.apply.
    """
    size = 1 << (2 * n + 2)
    every_row = Tableau(n, [0] * n, [0] * n)
    for c in range(size):
        every_row.set_row(c, c >> (n + 2), (c >> 2) & ((1 << n) - 1), c & 3)
    tables = np.empty((len(generators), size), dtype=np.int64)
    for i, g in enumerate(generators):
        t = every_row.copy()
        t.apply(g.kind, g.qubits)
        tables[i] = [_row_code(n, *t.row_bits(c)) for c in range(size)]
    return tables


def _close_group(n: int, generators: list[CliffordGate]
                 ) -> tuple[np.ndarray, list[bytes]]:
    """BFS closure of the group the generators make.

    An element is its conjugation-action tableau packed as one integer:
    the 2n row codes, row 0 most significant, so integer order is the
    order of the (x_bits, z_bits, delta) row tuples.  Each BFS layer is
    expanded in numpy; an element keeps its first occurrence in
    (frontier, generator) order, which gives every element a shortest
    word.  Returns the codes in discovery order and each element's word
    as bytes of generator indices.  A code has 2n(2n+2) bits, so n <= 3.
    """
    width = 2 * n + 2
    shifts = width * np.arange(2 * n - 1, -1, -1, dtype=np.int64)
    tables = _row_tables(n, generators)
    identity = Tableau(n)
    start = 0
    for r in range(2 * n):
        start = (start << width) | _row_code(n, *identity.row_bits(r))
    frontier = np.array([start], dtype=np.int64)
    seen = frontier
    layers = [frontier]
    parents: list[np.ndarray] = []
    moves: list[np.ndarray] = []
    offset = 0  # discovery index of frontier[0]
    while frontier.size:
        rows = (frontier[:, None] >> shifts) & ((1 << width) - 1)
        images = np.bitwise_or.reduce(tables[:, rows] << shifts, axis=2)
        cand = images.T.ravel()  # (frontier, generator) order
        codes, first = np.unique(cand, return_index=True)
        first = np.sort(first[~np.isin(codes, seen, assume_unique=True)])
        parents.append(offset + first // len(generators))
        moves.append(first % len(generators))
        offset += len(frontier)
        frontier = cand[first]
        layers.append(frontier)
        seen = np.sort(np.concatenate([seen, frontier]))
    words = [b""]
    for p, g in zip(np.concatenate(parents).tolist(),
                    np.concatenate(moves).tolist()):
        words.append(words[p] + bytes((g,)))
    return np.concatenate(layers), words


class _TwoQubitTable:
    """Canonical index (symplectic class, sign class) -> gate word.

    templates[16 i + j] is the word of class i, sign class j, as bytes of
    indices into gens; word() gives its gates and expand relabels it onto
    a qubit pair.
    """

    def __init__(self):
        # expand relabels these six, in this order, onto each qubit pair
        self.gens = gens = [gate("H", 0), gate("H", 1), gate("S", 0),
                            gate("S", 1), gate("CNOT", 0, 1),
                            gate("CNOT", 1, 0)]
        codes, paths = _close_group(2, gens)
        if len(codes) != 11520:
            raise AssertionError(f"two-qubit closure has {len(codes)} elements")
        # per row: its 4 symplectic bits (x, z) and its 2 delta bits
        sym = np.zeros_like(codes)
        signs = np.zeros_like(codes)
        for r in range(4):
            row = (codes >> (6 * (3 - r))) & 63
            sym = (sym << 4) | (row >> 2)
            signs = (signs << 2) | (row & 3)
        classes, counts = np.unique(sym, return_counts=True)
        if len(classes) != 720:
            raise AssertionError(f"{len(classes)} symplectic classes")
        if np.any(counts != 16):
            raise AssertionError("sign classes are not 16 per symplectic class")
        self.templates = [paths[k] for k in np.lexsort((signs, sym)).tolist()]

    def word(self, w: int) -> list[CliffordGate]:
        """The gates of table word w = 16 i + j on qubits 0 and 1."""
        return list(map(self.gens.__getitem__, self.templates[w]))

    def expand(self, n: int, records: np.ndarray) -> list[CliffordGate]:
        """The gates of fragment records (word, a, b) on n qubits: each
        word's template with local qubit 0 on a and local qubit 1 on b.
        The pairs (a, b) and (b, a) share their two CNOT gates."""
        templates = self.templates
        h = [intern_gate("H", (q,)) for q in range(n)]
        s = [intern_gate("S", (q,)) for q in range(n)]
        pairs: dict[int, tuple] = {}
        gates: list[CliffordGate] = []
        for word, a, b in zip(*records.T.tolist()):  # three lists, not L
            local = pairs.get(a * n + b)
            if local is None:
                rev = pairs.get(b * n + a)
                cnots = (rev[5], rev[4]) if rev else (
                    intern_gate("CNOT", (a, b)), intern_gate("CNOT", (b, a)))
                local = pairs[a * n + b] = (h[a], h[b], s[a], s[b], *cnots)
            gates += map(local.__getitem__, templates[word])
        return gates


class _SingleQubitTable:
    def __init__(self):
        gens = [gate("H", 0), gate("S", 0)]
        codes, paths = _close_group(1, gens)
        if len(codes) != 24:
            raise AssertionError(f"single-qubit closure has {len(codes)} elements")
        self.words = [tuple([gens[g] for g in paths[k]])
                      for k in np.argsort(codes).tolist()]


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
    w = 16 * rng.randrange(720) + rng.randrange(16)
    return CliffordCircuit(2, two_qubit_table().word(w))


# random.sample takes its pool branch up to this population size for k = 2
_POOL_MAX = 21


class DesignCircuit(CliffordCircuit):
    """A design circuit held as its (L, 3) array of fragment records.

    Record (word, a, b) is one uniformly random two-qubit Clifford, table
    word 16 i + j of class i and sign class j, acting with its local qubit 0
    on qubit a and local qubit 1 on qubit b.  dense.push applies the
    records directly; the gate list is their word-by-word expansion, made
    afresh on each read of gates and not kept.
    """

    def __init__(self, n: int, records: np.ndarray):
        if n < 2:
            raise ValueError("fragments need at least two qubits")
        if records.ndim != 2 or records.shape[1] != 3:
            raise ValueError("fragment records must form an (L, 3) array, "
                             f"got shape {records.shape}")
        self.n = n
        self.records = records

    @property
    def gates(self) -> list[CliffordGate]:
        return two_qubit_table().expand(self.n, self.records)

    def __repr__(self):
        return f"DesignCircuit(n={self.n}, fragments={len(self.records)})"


@lru_cache(maxsize=64)
def _draw_plan(n: int, delta: float, depth_factor: float
               ) -> tuple[int, bool, int, int, int]:
    """(L, pool branch, k0, m1, k1) of the draw rule for one ensemble: the
    fragment count, the branch of slot 2, the bit count of slot 1, and the
    bound and bit count of slot 2."""
    pool = n <= _POOL_MAX
    m1 = n - 1 if pool else n
    return (design_circuit_length(n, delta, depth_factor), pool,
            n.bit_length(), m1, m1.bit_length())


def sample_design_circuit(cfg: SamplerConfig, rng) -> CliffordCircuit:
    """Approximate-2-design circuit of L two-qubit fragments.

    A DesignCircuit of L records drawn by the rule in the module
    docstring.  At n = 1 there are no qubit pairs; the draw falls back to
    a uniform single-qubit Clifford.
    """
    n = cfg.n
    if n == 1:
        return single_qubit_circuit(rng.randrange(24))
    length, pool, k0, m1, k1 = _draw_plan(n, cfg.delta, cfg.depth_factor)
    bits = rng.getrandbits
    flat = [0] * (3 * length)
    for t in range(0, 3 * length, 3):
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
        flat[t] = 16 * i + s
        flat[t + 1] = a
        flat[t + 2] = b
    return DesignCircuit(n, np.array(flat, dtype=np.int64).reshape(length, 3))


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


def action_to_circuit(action: Tableau) -> CliffordCircuit:
    """Synthesize a gate list whose conjugation action equals `action`.

    Works by reducing a copy of the action tableau to the identity with a
    column sweep; the circuit is the inverse of each gate applied, S as
    SDG and every other gate as itself, in reverse order.  For
    qubit j the stabilizer image is first brought to X_j and flipped to
    Z_j by a Hadamard; the destabilizer image then necessarily has an X_j
    component and is cleaned with CNOT/S/CZ, none of which disturb Z_j.
    """
    t = action.copy()
    n = t.n
    emitted: list[CliffordGate] = []

    def do(kind, *qubits):
        t.apply(kind, qubits)
        emitted.append(intern_gate("SDG" if kind == "S" else kind, qubits))

    def reduce_row(r, j):
        """Bring row r, with X_j set, to X_j by CNOTs, S and CZs from qubit j."""
        for q in set_bits(t.row_bits(r)[0], j + 1):
            do("CNOT", j, q)
        if (t.row_bits(r)[1] >> j) & 1:
            do("S", j)
        for q in set_bits(t.row_bits(r)[1], j + 1):
            do("CZ", j, q)

    for j in range(n):
        # stabilizer image -> X_j
        x, z, _ = t.row_bits(n + j)
        if (x | z) >> j == 0:
            raise AssertionError("no set bit at or above the cursor")
        if x >> j == 0:
            do("H", next(set_bits(z, j)))
            x, z, _ = t.row_bits(n + j)
        if not (x >> j) & 1:
            do("SWAP", j, next(set_bits(x, j)))
        reduce_row(n + j, j)
        do("H", j)  # X_j -> Z_j
        # destabilizer image -> X_j; it anticommutes with Z_j so x_j is set
        if not (t.row_bits(j)[0] >> j) & 1:
            raise AssertionError("lost the X component during reduction")
        reduce_row(j, j)
    # symplectic part is now the identity; clear the signs.  Z_j flips
    # only row j and X_j only row n + j, so the signs are read once
    negative = negative_rows(t)
    for j in range(n):
        if (negative >> j) & 1:
            do("Z", j)
        if (negative >> (n + j)) & 1:
            do("X", j)
    if t != Tableau(n):
        raise AssertionError("reduction did not reach the identity tableau")
    return CliffordCircuit(n, emitted[::-1])


def derive_circuit(master_seed: int, stream_index: int,
                   cfg: SamplerConfig) -> CliffordCircuit:
    """Deterministic design circuit for (master_seed, stream_index): the
    DesignCircuit of its fragment records (a single-qubit Clifford at
    n = 1), whose gates are expanded afresh each time a codebook compiles
    or prints it."""
    return sample_design_circuit(cfg, stream_rng(master_seed, stream_index))


# -- circuit text form -------------------------------------------------------


def circuit_to_text(circuit: CliffordCircuit) -> str:
    """Semicolon-separated gate list, e.g. 'H 0; SDG 2; CNOT 0 3'."""
    return "; ".join([g.text for g in circuit.gates])


def circuit_from_text(text: str, n: int) -> CliffordCircuit:
    """Parse a gate list.  Chunks are split at ';' and stripped; empty
    chunks are skipped.  A chunk that is the canonical text of an interned
    gate is looked up; any other chunk is parsed as a kind followed by
    qubit indices in ASCII decimal digits, separated by whitespace."""
    # _parse_gate interns the gate of a missed chunk, so its repeats hit
    lookup = GATES_BY_TEXT.get
    gates = [lookup(chunk) or _parse_gate(chunk)
             for chunk in map(str.strip, text.split(";")) if chunk]
    return CliffordCircuit(n, gates)


def _parse_gate(chunk: str) -> CliffordGate:
    kind, *words = chunk.split()
    try:
        qubits = tuple(map(read_decimal, words))
        if None in qubits:
            bad = words[qubits.index(None)]
            raise ValueError("qubit index must be ASCII decimal digits, "
                             f"got {bad!r}")
        return intern_gate(kind, qubits)
    except ValueError as exc:
        raise ValueError(f"bad gate {chunk!r}: {exc}") from None
