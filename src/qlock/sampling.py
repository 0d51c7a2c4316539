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
Cliffords close {H0, S0} the same way.  The generators are gate codes,
and a word is bytes of generator indices; _word_circuit makes the
circuit of a word of either table.  The closure is a breadth-first
search over conjugation-action tableaus packed into integers, one layer
at a time in numpy.  Each generator acts on a packed row through a table
of all 2^(2n+2) rows, made by one Tableau.apply_codes, so the gate
semantics are the tableau's own.

sample_design_circuit draws a design circuit as its L fragment records
(word, a, b), word = 16 i + j, and returns them as a DesignCircuit;
derive_circuit returns that DesignCircuit as it is, so a seed-built
codebook holds only records.  dense.push applies the records without
expanding them into gates.  Every other consumer reads gate codes, which
_TwoQubitTable.expand writes from the records, a block of records at a
time in numpy, by relabelling each word's template of generator indices
onto (a, b); they are not kept.

The circuit text form is 'H 0; SDG 2; CNOT 0 3'.  Printing formats a
block of gate codes at a time from per-kind texts made on first use in
the call, so a design circuit is expanded one block of records at a
time, never whole.  Parsing reads the text in place, in slices of at
most _SLICE characters cut after a ';', and looks each chunk up in a
dictionary from canonical chunk text to packed code bytes, which the
lines of one codebook file share and nothing else keeps.  A chunk that
misses (its first occurrence, extra blanks, leading zeros, a bad gate)
goes through the full parse, which reports a bad chunk and enters a
canonical one in the dictionary.  The full parse is the one place a
circuit from outside input is checked: the kind against KIND_CODE, the
qubit count against TWO_QUBIT_CODE, two-qubit gates for distinct qubits
and, once the text has parsed, every qubit against n.  Print and parse
make a gate's canonical text from the same two format strings.

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
from functools import lru_cache
from itertools import chain
from typing import Optional

import numpy as np

from .stabilizer import (GATE_KINDS, KIND_CODE, TWO_QUBIT_CODE,
                         CliffordCircuit, Tableau, code_array,
                         hermitian_phase, negative_rows, read_decimal,
                         set_bits)


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


def _row_tables(n: int, generators: tuple[tuple[int, int, int], ...]
                ) -> np.ndarray:
    """(len(generators), 2^(2n+2)) images of every row code under each
    generator code's conjugation.

    One tableau holds every possible row, one row per code, so each table
    comes from a single Tableau.apply_codes.
    """
    size = 1 << (2 * n + 2)
    every_row = Tableau(n, [0] * n, [0] * n)
    for c in range(size):
        every_row.set_row(c, c >> (n + 2), (c >> 2) & ((1 << n) - 1), c & 3)
    tables = np.empty((len(generators), size), dtype=np.int64)
    for i, g in enumerate(generators):
        t = every_row.copy()
        t.apply_codes(g)
        tables[i] = [_row_code(n, *t.row_bits(c)) for c in range(size)]
    return tables


def _close_group(n: int, generators: tuple[tuple[int, int, int], ...]
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


def _word_circuit(n: int, gens: tuple[tuple[int, int, int], ...],
                  word: bytes) -> CliffordCircuit:
    """The circuit of a word of indices into the generator codes gens."""
    return CliffordCircuit(n, chain.from_iterable(map(gens.__getitem__, word)))


# records expanded per numpy step, and gates or records printed per
# piece of text; bounds the temporary arrays and strings
_EXPAND_BLOCK = 4096


class _TwoQubitTable:
    """Canonical index (symplectic class, sign class) -> gate word.

    templates[16 i + j] is the word of class i, sign class j, as bytes of
    indices into gens; word() gives its circuit and expand relabels the
    words of fragment records onto their qubit pairs.
    """

    # H0, H1, S0, S1, CNOT01, CNOT10 as gate codes on local qubits 0 and 1;
    # expand relabels these six, in this order, onto each qubit pair
    gens = ((0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1), (8, 0, 1), (8, 1, 0))

    def __init__(self):
        codes, paths = _close_group(2, self.gens)
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
        self.lengths = np.array([len(t) for t in self.templates],
                                dtype=np.uint8)

    def word(self, w: int) -> CliffordCircuit:
        """The circuit of table word w = 16 i + j on qubits 0 and 1."""
        return _word_circuit(2, self.gens, self.templates[w])

    def expand(self, n: int, records: np.ndarray) -> array:
        """The gate codes of fragment records (word, a, b) on n qubits: each
        word's template with local qubit 0 on a and local qubit 1 on b."""
        check_records(n, records)
        codes = code_array(n)
        dtype = np.dtype(codes.typecode)
        gen_codes = np.array(self.gens)
        for lo in range(0, len(records), _EXPAND_BLOCK):
            block = records[lo:lo + _EXPAND_BLOCK]
            # the local code of each gate of the block's words, in order
            gens = gen_codes[np.frombuffer(b"".join(map(
                self.templates.__getitem__, block[:, 0].tolist())),
                dtype=np.uint8)]
            pairs = np.repeat(block[:, 1:], self.lengths[block[:, 0]], axis=0)
            rows = np.arange(len(gens))
            out = np.empty((len(gens), 3), dtype=dtype)
            out[:, 0] = gens[:, 0]
            out[:, 1] = pairs[rows, gens[:, 1]]
            out[:, 2] = pairs[rows, gens[:, 2]]
            # a byte view of the block: frombytes takes no wider items
            codes.frombytes(out.view(np.uint8))
        return codes


def check_records(n: int, records: np.ndarray) -> None:
    """ValueError unless each fragment record (word, a, b) of records, an
    array of any shape (..., 3), names a table word and two distinct
    qubits below n."""
    words, a, b = records[..., 0], records[..., 1], records[..., 2]
    if records.size and (words.min() < 0 or words.max() >= 720 * 16
                         or min(a.min(), b.min()) < 0
                         or max(a.max(), b.max()) >= n or np.any(a == b)):
        raise ValueError(f"fragment record out of range for n={n}")


class _SingleQubitTable:
    """words[i] is the i-th single-qubit Clifford in canonical order, as
    bytes of indices into gens."""

    # H and S on qubit 0 as gate codes
    gens = ((0, 0, 0), (1, 0, 0))

    def __init__(self):
        codes, paths = _close_group(1, self.gens)
        if len(codes) != 24:
            raise AssertionError(f"single-qubit closure has {len(codes)} elements")
        self.words = [paths[k] for k in np.argsort(codes).tolist()]


@lru_cache(maxsize=1)
def two_qubit_table() -> _TwoQubitTable:
    return _TwoQubitTable()


@lru_cache(maxsize=1)
def single_qubit_table() -> _SingleQubitTable:
    return _SingleQubitTable()


def single_qubit_circuit(index: int) -> CliffordCircuit:
    """The index-th of the 24 single-qubit Cliffords, canonical order."""
    table = single_qubit_table()
    return _word_circuit(1, table.gens, table.words[index % 24])


def all_single_qubit_circuits() -> list[CliffordCircuit]:
    return [single_qubit_circuit(i) for i in range(24)]


# -- samplers ----------------------------------------------------------------


def sample_two_qubit_clifford(rng) -> CliffordCircuit:
    """Uniform draw from the 11,520-element two-qubit Clifford group."""
    return two_qubit_table().word(16 * rng.randrange(720) + rng.randrange(16))


# random.sample takes its pool branch up to this population size for k = 2
_POOL_MAX = 21


class DesignCircuit(CliffordCircuit):
    """A design circuit held as its (L, 3) array of fragment records.

    Record (word, a, b) is one uniformly random two-qubit Clifford, table
    word 16 i + j of class i and sign class j, acting with its local qubit 0
    on qubit a and local qubit 1 on qubit b.  dense.push applies the
    records directly; the gate codes are their word-by-word expansion,
    made afresh on each read of codes and not kept.  len() adds up the
    words' gate counts and expands nothing.
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
    def codes(self) -> array:
        return two_qubit_table().expand(self.n, self.records)

    def __len__(self):
        check_records(self.n, self.records)
        return int(two_qubit_table().lengths[self.records[:, 0]].sum(
            dtype=np.int64))

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

    # the rows with delta = 0, one bit drawn per row in the order
    # destabilizer j, stabilizer j; the rows are Hermitian with d0 the
    # parity plane of hermitian_phase, and the drawn bits are d1, which
    # makes each row's sign uniform
    action = Tableau(n)
    drawn = 0
    for j, (a, b) in enumerate(pairs):
        for r, v in ((j, a), (n + j, b)):
            action.set_row(r, v & nmask, v >> n, 0)
            drawn |= rng.getrandbits(1) << r
    action.d0 = hermitian_phase(action.xs, action.zs)[0]
    action.d1 = drawn
    return action_to_circuit(action)


def action_to_circuit(action: Tableau) -> CliffordCircuit:
    """Synthesize a gate list whose conjugation action equals `action`.

    Works by reducing a copy of the action tableau to the identity with a
    column sweep; the circuit is the inverse of each gate code applied,
    S as SDG and every other gate as itself, in reverse order.  For qubit
    j the stabilizer image is first brought to X_j and flipped to Z_j by a
    Hadamard; the destabilizer image then necessarily has an X_j component
    and is cleaned with CNOT/S/CZ, none of which disturb Z_j.
    """
    t = action.copy()
    n = t.n
    emitted: list[tuple[int, int, int]] = []

    def do(kind, a, b=None):
        """Apply the gate's code to t and emit its inverse's, S as SDG."""
        b = a if b is None else b
        t.apply_codes((KIND_CODE[kind], a, b))
        emitted.append((KIND_CODE["SDG" if kind == "S" else kind], a, b))

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
    return CliffordCircuit(n, chain.from_iterable(reversed(emitted)))


def derive_circuit(master_seed: int, stream_index: int,
                   cfg: SamplerConfig) -> CliffordCircuit:
    """Deterministic design circuit for (master_seed, stream_index): the
    DesignCircuit of its fragment records (a single-qubit Clifford at
    n = 1), whose gate codes are expanded afresh each time a codebook
    compiles it."""
    return sample_design_circuit(cfg, stream_rng(master_seed, stream_index))


# -- circuit text form -------------------------------------------------------


# the canonical text of the gate code (k, a, b) is _FIRST_TEXT[k] % a,
# its kind and first qubit one blank apart, followed for a two-qubit kind
# by _SECOND_TEXT % b; print and parse both make gate texts from these
_FIRST_TEXT = [kind + " %d" for kind in GATE_KINDS]
_SECOND_TEXT = " %d"


def _kept_text(texts: list, form: str, a: int) -> str:
    """form % a, kept in texts[a] for the rest of the call."""
    texts[a] = text = form % a
    return text


def circuit_to_text(circuit: CliffordCircuit) -> str:
    """Semicolon-separated gate list, e.g. 'H 0; SDG 2; CNOT 0 3'.

    The text is made a block of gates at a time: a design circuit's codes
    are expanded a block of records at a time, never all at once.  Each
    part of a gate's text, _FIRST_TEXT[k] % a and _SECOND_TEXT % b, is
    made on first use in the call and kept in a list indexed by the code,
    so a shallow circuit at large n makes only the parts it uses."""
    first = [[None] * circuit.n for _ in _FIRST_TEXT]
    second = [None] * circuit.n
    pieces = []
    for codes in _code_blocks(circuit):
        it = iter(codes)
        pieces.append("; ".join([
            (first[k][a] or _kept_text(first[k], _FIRST_TEXT[k], a))
            + ("" if k < TWO_QUBIT_CODE
               else second[b] or _kept_text(second, _SECOND_TEXT, b))
            for k, a, b in zip(it, it, it)]))
    return "; ".join(filter(None, pieces))


def _code_blocks(circuit: CliffordCircuit):
    """The circuit's gate codes in blocks of at most _EXPAND_BLOCK gates
    or, for a design circuit, fragment records."""
    if isinstance(circuit, DesignCircuit):
        table = two_qubit_table()
        for lo in range(0, len(circuit.records), _EXPAND_BLOCK):
            yield table.expand(circuit.n,
                               circuit.records[lo:lo + _EXPAND_BLOCK])
    else:
        for lo in range(0, len(circuit.codes), 3 * _EXPAND_BLOCK):
            yield circuit.codes[lo:lo + 3 * _EXPAND_BLOCK]


# characters of text split at ';' at once; bounds the chunks held
_SLICE = 1 << 15


def circuit_from_text(text: str, n: int, start: int = 0,
                      end: Optional[int] = None,
                      known: Optional[dict[str, bytes]] = None
                      ) -> CliffordCircuit:
    """Parse the gate list text[start:end], read in place.  Chunks are
    split at ';' and stripped; empty chunks are skipped.  A chunk is
    parsed as a kind followed by qubit indices in ASCII decimal digits,
    separated by whitespace.  A bad chunk is reported as it is met, a gate
    out of range once every chunk has parsed.

    known maps each canonical chunk, with the blank that follows a '; ',
    to its packed code, and the call adds each canonical chunk it parses,
    so that its repeats are looked up; the lines of one file share one,
    so that each gate is parsed in full once per file."""
    end = len(text) if end is None else end
    circuit = CliffordCircuit(n, ())
    codes = circuit.codes
    known = {} if known is None else known
    out_of_range: list[str] = []

    def parse(chunk):
        # a canonical chunk is keyed as it stands after a '; ': with one
        # blank before the gate's canonical text
        stripped = chunk.strip()
        key = " " + stripped
        code = known.get(key)
        if code is None:
            if not stripped:
                return b""
            (k, a, b), canonical = _parse_gate(stripped)
            if max(a, b) >= n:
                if not out_of_range:
                    out_of_range.append(canonical)
                return b""
            code = array(codes.typecode, (k, a, b)).tobytes()
            if stripped == canonical:
                known[key] = code
        return code

    lookup = known.get
    pos = start
    while pos < end:
        cut = min(pos + _SLICE, end)
        if cut < end:
            # after the slice's last ';', or the next one if it has none
            semi = text.rfind(";", pos, cut)
            cut = semi + 1 if semi >= 0 else text.find(";", cut, end) + 1 or end
        codes.frombytes(b"".join([lookup(chunk) or parse(chunk)
                                  for chunk in text[pos:cut].split(";")]))
        pos = cut
    if out_of_range:
        raise ValueError(f"gate {out_of_range[0]} out of range for n={n}")
    return circuit


def _parse_gate(chunk: str) -> tuple[tuple[int, int, int], str]:
    """The gate code and canonical text of a stripped chunk: a kind of
    GATE_KINDS and as many distinct qubits as it takes, in ASCII decimal
    digits; ValueError naming the chunk if it is no gate."""
    kind, *words = chunk.split()
    qubits = tuple(map(read_decimal, words))
    k = KIND_CODE.get(kind)
    if None in qubits:
        bad = words[qubits.index(None)]
        reason = f"qubit index must be ASCII decimal digits, got {bad!r}"
    elif k is None:
        reason = f"unknown gate kind {kind!r}"
    elif len(qubits) != (arity := 1 + (k >= TWO_QUBIT_CODE)):
        reason = f"{kind} takes {arity} qubit(s), got {qubits}"
    elif arity == 2 and qubits[0] == qubits[1]:
        reason = f"{kind} requires distinct qubits"
    else:
        a, b = qubits[0], qubits[-1]
        text = _FIRST_TEXT[k] % a
        if arity == 2:
            text += _SECOND_TEXT % b
        return (k, a, b), text
    raise ValueError(f"bad gate {chunk!r}: {reason}")
