"""Bit-packed stabilizer tableau simulator for Clifford circuits.

The tableau tracks 2n Pauli generators (n destabilizers followed by n
stabilizers) of an n-qubit stabilizer state.  Bits are packed column-wise:
for each qubit q there is one Python integer whose bit r is the X (or Z)
exponent of generator row r.  A single-qubit gate therefore updates all 2n
rows with a constant number of big-integer operations, independent of n at
the word level.

Phase convention: row r represents the operator

    i^(delta_r) * X^{x_r} Z^{z_r}

with delta in {0,1,2,3} stored in two bit planes (d0 = low bit, d1 = high
bit).  Each rule of the convention lives in one function:

- hermitian_phase, the sign rule: a row is Hermitian iff delta ==
  popcount(x & z) mod 2, and its +/- sign is i^(delta - popcount(x & z)).
  negative_rows reads the signs back by it.
- add_phase, the Z4 add: delta += k mod 4 on a mask of rows, a carry
  from d0 into d1.  Tableau.apply_codes writes it inline once, for S
  and SDG.
- mult_rows, the phase rule of Pauli multiplication

      (i^a X^u Z^v)(i^b X^s Z^t) = i^(a + b + 2*(v.s)) X^(u^s) Z^(v^t)

  where v.s is the GF(2) inner product, so phase bookkeeping reduces to
  parities of column masks.

A circuit holds its gates as one packed array of gate codes, three
integers (kind, a, b) per gate: the kind's index in GATE_KINDS and its
qubits, a one-qubit gate on q as (kind, q, q); the kinds from
TWO_QUBIT_CODE on take two qubits.  The array's item type is the
narrowest unsigned type that holds n, one byte per entry up to n = 256.
The code is the only gate form: there is no gate object, and a circuit
is made from its codes, unchecked.  Text from outside is checked gate by
gate where it is parsed, in sampling.circuit_from_text.
Tableau.apply_codes holds the one copy of the nine gate rules,
dispatched on the kind code; it is tested against the dense unitary of
each gate on every row.  CliffordMap compiles a circuit once;
the map of its inverse is read off that compile.
"""

from __future__ import annotations

import string
from array import array
from collections.abc import Iterable
from functools import cached_property
from typing import Optional

# a gate's kind code is its kind's index here; one-qubit kinds come first
GATE_KINDS = ("H", "S", "SDG", "X", "Y", "Z", "CZ", "SWAP", "CNOT")
KIND_CODE = {kind: code for code, kind in enumerate(GATE_KINDS)}
# the codes at and above this one take two qubits
TWO_QUBIT_CODE = 6


# (largest n, typecode) of the unsigned array types, narrowest first
_TYPECODES = [(1 << 8 * array(t).itemsize, t) for t in "BHIQ"]


def code_array(n: int, values: Iterable[int] = ()) -> array:
    """An array of gate codes for an n-qubit circuit, holding values: of
    the narrowest unsigned type whose entries hold every index below n."""
    for top, typecode in _TYPECODES:
        if n <= top:
            return array(typecode, values)
    raise ValueError(f"n={n} is too many qubits")


class CliffordCircuit:
    """Ordered Clifford gates on n qubits, held as the packed array codes
    of (kind, a, b) per gate.  The codes are not checked: a circuit read
    from outside input is made by sampling.circuit_from_text, which
    checks each gate."""

    def __init__(self, n: int, codes: Iterable[int]):
        _require_qubits(n)
        self.n = n
        self.codes = code_array(n, codes)

    @property
    def gates(self) -> "CliffordCircuit":
        """The circuit itself, kept as the name the benchmark's gate
        counter (bench/spans.py) reads len() of."""
        return self

    def __iter__(self):
        """The gates as (kind, a, b) triples, read from the codes."""
        it = iter(self.codes)
        return zip(it, it, it)

    def __len__(self):
        return len(self.codes) // 3

    def __eq__(self, other):
        if not isinstance(other, CliffordCircuit):
            return NotImplemented
        return self.n == other.n and self.codes == other.codes

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, gates={len(self)})"


def _require_qubits(n: int) -> None:
    if n < 1:
        raise ValueError("need at least one qubit")


def hermitian_phase(xs: list[int], zs: list[int],
                    negative: int = 0) -> tuple[int, int]:
    """The (d0, d1) planes of the Hermitian rows over columns xs and zs,
    with sign - on the rows set in the plane negative.

    delta = popcount(x & z) + 2s mod 4, the popcount kept per row as a
    two-bit counter over the columns; d0 alone is the parity plane.
    """
    lo = hi = 0
    for x, z in zip(xs, zs):
        y = x & z
        hi ^= lo & y
        lo ^= y
    return lo, hi ^ negative


def negative_rows(t: "Tableau") -> int:
    """The plane of t's rows with sign -, by the rule of hermitian_phase;
    ValueError if a row is not Hermitian."""
    d0, d1 = hermitian_phase(t.xs, t.zs)
    if t.d0 != d0:
        raise ValueError("tableau has a row that is not Hermitian")
    return t.d1 ^ d1


def add_phase(d0: int, d1: int, mask: int, k: int) -> tuple[int, int]:
    """The (d0, d1) planes with k added to delta mod 4 on the rows set in
    mask."""
    if k & 1:
        d1 ^= d0 & mask
        d0 ^= mask
    if k & 2:
        d1 ^= mask
    return d0, d1


def set_bits(v: int, lo: int = 0):
    """Indices of the set bits of v at or above lo, lowest first."""
    v >>= lo
    while v:
        low = v & -v
        yield lo + low.bit_length() - 1
        v ^= low


def mult_rows(xs: list[int], zs: list[int], d0: int, d1: int, mask: int,
              gx: int, gz: int, gd: int) -> tuple[int, int]:
    """Right-multiply every row set in mask by the Pauli row
    i^gd X^gx Z^gz, updating the columns xs and zs in place; returns the
    new (d0, d1).

    A row's phase gains gd plus 2 * parity(z_row & gx): XOR the z columns
    where g has an X, before the z columns take g's Z part.
    """
    par = 0
    for j in set_bits(gx):
        par ^= zs[j]
        xs[j] ^= mask
    d0, d1 = add_phase(d0, d1 ^ (par & mask), mask, gd)
    for j in set_bits(gz):
        zs[j] ^= mask
    return d0, d1


class Tableau:
    """Stabilizer state of n qubits as a destabilizer/stabilizer tableau.

    Rows 0..n-1 are destabilizers, rows n..2n-1 stabilizers.  All mutation
    happens through gate application and measurement; instances are plain
    values otherwise and safe to copy between workers.
    """

    __slots__ = ("n", "xs", "zs", "d0", "d1")

    def __init__(self, n: int, xs=None, zs=None, d0=0, d1=0):
        _require_qubits(n)
        self.n = n
        if xs is None:
            # identity tableau: destabilizer q is X_q, stabilizer q is Z_q
            self.xs = [1 << q for q in range(n)]
            self.zs = [1 << (n + q) for q in range(n)]
            self.d0 = 0
            self.d1 = 0
        else:
            self.xs = list(xs)
            self.zs = list(zs)
            self.d0 = d0
            self.d1 = d1

    def copy(self) -> "Tableau":
        return Tableau(self.n, self.xs, self.zs, self.d0, self.d1)

    def __eq__(self, other):
        return (isinstance(other, Tableau) and self.n == other.n
                and self.xs == other.xs and self.zs == other.zs
                and self.d0 == other.d0 and self.d1 == other.d1)

    # -- row access ------------------------------------------------------

    def row_bits(self, r: int) -> tuple[int, int, int]:
        """Row r as (x_bits, z_bits, delta), bits indexed by qubit."""
        x = 0
        z = 0
        for q in range(self.n):
            x |= ((self.xs[q] >> r) & 1) << q
            z |= ((self.zs[q] >> r) & 1) << q
        delta = ((self.d0 >> r) & 1) | (((self.d1 >> r) & 1) << 1)
        return x, z, delta

    def set_row(self, r: int, x: int, z: int, delta: int) -> None:
        bit = 1 << r
        for q in range(self.n):
            self.xs[q] = (self.xs[q] & ~bit) | (((x >> q) & 1) << r)
            self.zs[q] = (self.zs[q] & ~bit) | (((z >> q) & 1) << r)
        self.d0 = (self.d0 & ~bit) | ((delta & 1) << r)
        self.d1 = (self.d1 & ~bit) | (((delta >> 1) & 1) << r)

    # -- gates -----------------------------------------------------------

    def apply_circuit(self, circuit: CliffordCircuit) -> None:
        """Conjugate every row by the circuit's gates in order; its codes
        lie in range by construction of the circuit."""
        if circuit.n != self.n:
            raise ValueError("circuit/tableau size mismatch")
        self.apply_codes(circuit.codes)

    def apply_codes(self, codes: Iterable[int]) -> None:
        """Conjugate every row by the gates of the flat gate codes (kind, a,
        b), in order, with the phase planes held in locals: the one place
        the gate rules are written.  The qubits are not checked against n."""
        xs = self.xs
        zs = self.zs
        d0 = self.d0
        d1 = self.d1
        it = iter(codes)
        # codes by kind: H 0, S 1, SDG 2, X 3, Y 4, Z 5, CZ 6, SWAP 7,
        # CNOT 8; tested most frequent first, as design circuits hold S, H
        # and CNOT in that order of frequency
        for k, a, b in zip(it, it, it):
            if k == 1 or k == 2:
                # X -> +Y (S) or -Y (SDG): add_phase of 1 or 3 on the rows
                # with X on a, inline because a call per gate slows
                # compile; 3 is 1 plus 2, so SDG's carry is the flipped one
                x = xs[a]
                d1 ^= d0 & x if k == 1 else x & ~d0
                d0 ^= x
                zs[a] ^= x
            elif k == 0:
                d1 ^= xs[a] & zs[a]
                xs[a], zs[a] = zs[a], xs[a]
            elif k == 8:
                xs[b] ^= xs[a]
                zs[a] ^= zs[b]
            elif k == 6:
                d1 ^= xs[a] & xs[b]
                zs[a] ^= xs[b]
                zs[b] ^= xs[a]
            elif k == 7:
                xs[a], xs[b] = xs[b], xs[a]
                zs[a], zs[b] = zs[b], zs[a]
            elif k == 3:
                d1 ^= zs[a]
            elif k == 4:
                d1 ^= xs[a] ^ zs[a]
            else:
                d1 ^= xs[a]
        self.d0 = d0
        self.d1 = d1

    # -- measurement -----------------------------------------------------

    def measure_postselect(self, qubit: int, bit: int) -> float:
        """Project qubit onto outcome bit, returning the branch probability.

        Deterministic outcomes leave the state unchanged and return 1.0
        (match) or 0.0 (mismatch).  A random outcome returns 0.5 and the
        state is projected onto the requested branch.  No randomness is
        ever consumed.
        """
        n = self.n
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range")
        if bit not in (0, 1):
            raise ValueError("outcome bit must be 0 or 1")
        stab_mask = ((1 << n) - 1) << n
        xq = self.xs[qubit]
        anticommuting = xq & stab_mask
        if anticommuting:
            p = next(set_bits(anticommuting))
            x, z, delta = self.row_bits(p)
            others = xq & ~(1 << p)
            if others:
                self.d0, self.d1 = mult_rows(self.xs, self.zs, self.d0,
                                             self.d1, others, x, z, delta)
            # old stabilizer row p becomes the destabilizer partner
            self.set_row(p - n, x, z, delta)
            self.set_row(p, 0, 1 << qubit, 2 * bit)
            return 0.5
        # deterministic: Z_qubit is (up to sign) the product of the
        # stabilizers n+i whose destabilizer i anticommutes with it,
        # multiplied into one accumulator row: columns of a single bit
        acc_xs = [0] * n
        acc_zs = [0] * n
        d0 = d1 = 0
        for i in set_bits(xq & ((1 << n) - 1)):
            d0, d1 = mult_rows(acc_xs, acc_zs, d0, d1, 1,
                               *self.row_bits(n + i))
        if any(acc_xs) or acc_zs != [int(q == qubit) for q in range(n)]:
            raise AssertionError("stabilizer product is not Z on the measured qubit")
        # the product is +Z_qubit or -Z_qubit: d0 is 0 and d1 the outcome
        return 1.0 if d0 | d1 == bit else 0.0

    def measure_sample(self, qubit: int, rng) -> int:
        """Measure qubit, drawing the outcome from rng when it is random."""
        if self.xs[qubit] >> self.n:
            bit = 1 if rng.random() < 0.5 else 0
            self.measure_postselect(qubit, bit)
            return bit
        return 0 if self.measure_postselect(qubit, 0) == 1.0 else 1

    # -- invariants and readout -------------------------------------------

    def rows_commute(self, r: int, s: int) -> bool:
        xr, zr, _ = self.row_bits(r)
        xs_, zs_, _ = self.row_bits(s)
        return (((xr & zs_).bit_count() + (zr & xs_).bit_count()) & 1) == 0

    def symplectic_ok(self) -> bool:
        """Check the full symplectic condition on the 2n rows.

        Destabilizer i anticommutes with stabilizer j exactly when i == j,
        and every other pair of rows commutes; each unordered pair is
        checked once.
        """
        n = self.n
        for i in range(n):
            for j in range(n):
                if self.rows_commute(i, n + j) == (i == j):
                    return False
            for j in range(i + 1, n):
                if not (self.rows_commute(i, j)
                        and self.rows_commute(n + i, n + j)):
                    return False
        # pairing implies rank 2n over GF(2); also require Hermitian rows
        return self.d0 == hermitian_phase(self.xs, self.zs)[0]

    def z_readout(self) -> Optional[str]:
        """If the state is a computational basis state, return its bits.

        Returns None when any stabilizer row carries an X part.  Otherwise
        Z_q is +/- the product of the stabilizers n+i whose destabilizer i
        has X on q (Aaronson-Gottesman), so bit q is the parity of those
        stabilizers' sign bits.
        """
        n = self.n
        if any(x >> n for x in self.xs):
            return None
        signs = negative_rows(self) >> n
        return "".join(str((x & signs).bit_count() & 1) for x in self.xs)

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """One line per row: tag, X and Z bit strings (qubit 0 first), sign."""
        n = self.n
        bits = f"0{n}b"
        negative = negative_rows(self)
        lines = [f"n={n}"]
        for r in range(2 * n):
            x, z, _ = self.row_bits(r)
            tag = "D" if r < n else "S"
            sign = "-" if (negative >> r) & 1 else "+"
            lines.append(f"{tag} {format(x, bits)[::-1]} "
                         f"{format(z, bits)[::-1]} {sign}")
        return "\n".join(lines) + "\n"


def tableau_from_text(text: str) -> Tableau:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("missing tableau header")
    n = read_decimal(lines[0][2:])
    if n is None or n < 1:
        raise ValueError(f"bad tableau header {lines[0]!r}: needs n=<int >= 1>")
    if len(lines) != 2 * n + 1:
        raise ValueError(f"expected {2 * n} rows, got {len(lines) - 1}")
    t = Tableau(n)
    negative = 0
    for r, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != 4 or parts[0] not in ("D", "S"):
            raise ValueError(f"bad tableau row: {ln!r}")
        tag, xstr, zstr, sign = parts
        if tag != ("D" if r < n else "S"):
            raise ValueError("destabilizer/stabilizer rows out of order")
        if len(xstr) != n or len(zstr) != n:
            raise ValueError("row length mismatch")
        if xstr.strip("01") or zstr.strip("01") or sign not in ("+", "-"):
            raise ValueError(f"bad tableau row {r}: {ln!r} needs bit strings "
                             "of 0s and 1s and a sign + or -")
        t.set_row(r, int(xstr[::-1], 2), int(zstr[::-1], 2), 0)
        negative |= (sign == "-") << r
    t.d0, t.d1 = hermitian_phase(t.xs, t.zs, negative)
    if not t.symplectic_ok():
        raise ValueError("rows do not form a valid tableau")
    return t


# -- module-level operation surface ---------------------------------------


def check_bits(name: str, bits: str, n: int) -> None:
    """Raise ValueError, naming the value, unless bits is n 0s and 1s."""
    if len(bits) != n or set(bits) - set("01"):
        raise ValueError(f"{name} must be a {n}-bit string of 0s and 1s, "
                         f"got {bits!r}")


def read_decimal(t: str) -> int | None:
    """t read as ASCII decimal digits, else None (int() also takes signs,
    blanks, underscores and non-ASCII digits)."""
    return int(t) if t.isascii() and t.isdecimal() else None


def read_hex(t: str) -> int | None:
    """t read as ASCII hex digits, else None (int(t, 16) also takes signs,
    blanks, a 0x prefix and underscores)."""
    return int(t, 16) if t and not t.strip(string.hexdigits) else None


def _basis_signs(n: int, x: str) -> int:
    """Sign bits of |x>'s stabilizers: bit n+q is set when x[q] is 1."""
    check_bits("x", x, n)
    return int(x[::-1], 2) << n


def new_basis_state(n: int, x: str) -> Tableau:
    """Tableau of the computational basis state |x>, leftmost bit = qubit 0."""
    t = Tableau(n)
    t.d1 = _basis_signs(n, x)
    return t


def basis_overlap_halvings(circuit: CliffordCircuit, x: str,
                           y: str) -> Optional[int]:
    """The halving count s with |<y|C|x>|^2 = 2^-s, or None for 0: the
    one exact form of a tableau basis overlap.  C|x> is postselected on y
    qubit by qubit; a deterministic outcome keeps the overlap or makes it
    0, a random one halves it, so s counts the random branches."""
    n = circuit.n
    t = new_basis_state(n, x)
    check_bits("y", y, n)
    t.apply_circuit(circuit)
    s = 0
    for q in range(n):
        p = t.measure_postselect(q, int(y[q]))
        if p == 0.0:
            return None
        s += p == 0.5
    return s


def basis_overlap_prob(circuit: CliffordCircuit, x: str, y: str) -> float:
    """|<y|C|x>|^2 as the float 2.0 ** -s of basis_overlap_halvings, 0.0
    for a zero overlap; exact for s <= 1074, it underflows to 0.0 above."""
    s = basis_overlap_halvings(circuit, x, y)
    return 0.0 if s is None else 2.0 ** -s


# -- compiled circuit actions ----------------------------------------------


class CliffordMap:
    """Compiled conjugation action of a circuit, for repeated application.

    The action is the tableau the circuit produces from the identity
    tableau: row q is the image of X_q, row n+q the image of Z_q.  Rows
    are additionally cached in row-major form so composition onto a state
    tableau costs O(n^2) big-integer operations instead of replaying the
    gate list.
    """

    def __init__(self, circuit: CliffordCircuit):
        self.n = circuit.n
        t = Tableau(circuit.n)
        t.apply_circuit(circuit)
        self.tableau = t
        self.rows = [t.row_bits(r) for r in range(2 * circuit.n)]

    @cached_property
    def inverse(self) -> "CliffordMap":
        """The map of the inverse circuit, read off this map's tableau.

        Its row q is column zs[q] and row n+q column xs[q], X part in the
        high n bits (Aaronson-Gottesman).  Taken with sign +, those rows
        send this map's rows to +/-X_q, +/-Z_q with sign plane e; the
        signs s solve S s = e, S the inverse's own bit matrix.
        """
        n = self.n
        inv = object.__new__(CliffordMap)
        inv.n = n
        inv.rows = [(c >> n, c & ((1 << n) - 1), (c >> n & c).bit_count() % 4)
                    for c in self.tableau.zs + self.tableau.xs]
        probe = inv.apply_to(self.tableau.copy())
        if probe.xs + probe.zs != [1 << r for r in range(2 * n)]:
            raise AssertionError("inverse rows do not undo the map")
        e = negative_rows(probe)
        inv.rows = [(x, z, (d + 2 * ((x & e) ^ (z & e >> n)).bit_count()) % 4)
                    for x, z, d in inv.rows]
        inv.tableau = inv.apply_to(Tableau(n))
        return inv

    def apply_to(self, state: Tableau) -> Tableau:
        """Replace state's rows by their images under this map, in place."""
        n = self.n
        if state.n != n:
            raise ValueError("map/state size mismatch")
        new_xs = [0] * n
        new_zs = [0] * n
        d0 = state.d0
        d1 = state.d1
        rows = self.rows
        for q in range(n):
            for sel, mr in ((state.xs[q], q), (state.zs[q], n + q)):
                if sel:
                    d0, d1 = mult_rows(new_xs, new_zs, d0, d1, sel, *rows[mr])
        state.xs = new_xs
        state.zs = new_zs
        state.d0 = d0
        state.d1 = d1
        return state

    def basis_state_image(self, x: str) -> Tableau:
        """Tableau of C|x>, equal to applying the map to new_basis_state."""
        t = self.tableau.copy()
        t.d1 ^= _basis_signs(self.n, x)
        return t
