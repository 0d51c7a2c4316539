import random
from fractions import Fraction
from itertools import chain, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlock import dense, sampling
from qlock.protocol import build_codebook
from qlock.sampling import circuit_from_text
from qlock.stabilizer import (GATE_KINDS, KIND_CODE, TWO_QUBIT_CODE,
                              CliffordCircuit, CliffordMap, Tableau,
                              basis_overlap_halvings, basis_overlap_prob,
                              code_array, hermitian_phase, negative_rows,
                              new_basis_state, tableau_from_text)

# (kind code, arity) of the nine kinds
GATE_POOL = [(k, 1 + (k >= TWO_QUBIT_CODE)) for k in range(len(GATE_KINDS))]


def random_circuit(n, length, rng):
    codes = []
    for _ in range(length):
        kind, arity = rng.choice(GATE_POOL)
        if arity == 1 or n == 1:
            if arity == 2:
                continue
            q = rng.randrange(n)
            codes += (kind, q, q)
        else:
            a, b = rng.sample(range(n), 2)
            codes += (kind, a, b)
    return CliffordCircuit(n, codes)


def apply_gate(t, kind, *qubits):
    """Conjugate t by one gate, as the circuit of its text."""
    t.apply_circuit(circuit_from_text(" ".join(map(str, (kind,) + qubits)),
                                      t.n))


def kinds_of(circuit):
    """The set of kind codes in a circuit."""
    return set(circuit.codes[::3])


def reference_inverse(circuit):
    """The inverse circuit: gate codes reversed, S and SDG swapped."""
    swap = {KIND_CODE["S"]: KIND_CODE["SDG"], KIND_CODE["SDG"]: KIND_CODE["S"]}
    it = iter(circuit.codes)
    gates = [(swap.get(k, k), a, b) for k, a, b in zip(it, it, it)]
    return CliffordCircuit(circuit.n, chain.from_iterable(reversed(gates)))


def random_state(n, rng, depth=30):
    t = new_basis_state(n, "".join(rng.choice("01") for _ in range(n)))
    t.apply_circuit(random_circuit(n, depth, rng))
    return t


def reference_z_readout(t):
    """The Gaussian elimination z_readout used before the destabilizer
    rule: solve Z_q = +/- (product of stabilizer rows) for every q."""
    n = t.n
    rows = []
    for i in range(n):
        x, z, delta = t.row_bits(n + i)
        if x:
            return None
        rows.append([z, (delta >> 1) & 1])
    # reduce [Z | sign] to [I | bits]
    for col in range(n):
        pivot = next(r for r in range(col, n) if (rows[r][0] >> col) & 1)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and (rows[r][0] >> col) & 1:
                rows[r][0] ^= rows[col][0]
                rows[r][1] ^= rows[col][1]
    return "".join(str(rows[q][1]) for q in range(n))


def readout_agrees(t):
    bits = t.z_readout()
    assert bits == reference_z_readout(t)
    return bits


class TestBasisState:
    def test_single_zero(self):
        t = new_basis_state(1, "0")
        assert t.row_bits(1) == (0, 1, 0)   # stabilizer +Z
        assert t.row_bits(0) == (1, 0, 0)   # destabilizer +X

    def test_ten_signs(self):
        t = new_basis_state(2, "10")
        assert t.row_bits(2) == (0, 0b01, 2)   # -Z on qubit 0
        assert t.row_bits(3) == (0, 0b10, 0)   # +Z on qubit 1

    def test_three_zeros(self):
        t = new_basis_state(3, "000")
        for i in range(3):
            assert t.row_bits(3 + i) == (0, 1 << i, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            new_basis_state(2, "0")
        with pytest.raises(ValueError):
            new_basis_state(1, "2")

    @pytest.mark.parametrize("x", ["0", "012", "0 1", "1_0", "+11"])
    def test_map_image_rejects_bad_bits(self, x):
        m = CliffordMap(circuit_from_text("H 0", 3))
        with pytest.raises(ValueError, match="x must be a 3-bit string"):
            m.basis_state_image(x)


class TestGates:
    def test_h_on_z(self):
        t = new_basis_state(1, "0")
        apply_gate(t, "H", 0)
        assert t.row_bits(1) == (1, 0, 0)    # +X

    def test_s_on_x(self):
        t = new_basis_state(1, "0")
        apply_gate(t, "H", 0)
        apply_gate(t, "S", 0)
        assert t.row_bits(1) == (1, 1, 1)    # +Y

    def test_cnot_propagates_x(self):
        t = Tableau(2)
        apply_gate(t, "CNOT", 0, 1)
        assert t.row_bits(0) == (0b11, 0, 0)  # X0 -> X0 X1

    def test_out_of_range(self):
        t = Tableau(2)
        with pytest.raises(ValueError):
            apply_gate(t, "H", 5)

    @pytest.mark.parametrize("seed", range(8))
    def test_gate_algebra(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 6)
        t = random_state(n, rng)
        q = rng.randrange(n)
        for word, expect_same in ((["H", "H"], True), (["S"] * 4, True),
                                  (["CNOT", "CNOT"], True)):
            ref = t.copy()
            for kind in word:
                if kind == "CNOT":
                    apply_gate(ref, kind, q, (q + 1) % n)
                else:
                    apply_gate(ref, kind, q)
            assert (ref == t) is expect_same
        # S.S = Z
        a = t.copy()
        apply_gate(a, "S", q)
        apply_gate(a, "S", q)
        b = t.copy()
        apply_gate(b, "Z", q)
        assert a == b

    @pytest.mark.parametrize("seed", range(6))
    def test_symplectic_preserved(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randrange(1, 7)
        t = random_state(n, rng, depth=60)
        assert t.symplectic_ok()


class TestMeasurement:
    def test_deterministic_match(self):
        t = new_basis_state(1, "0")
        prob = t.measure_postselect(0, 0)
        assert prob == 1.0 and t.row_bits(1) == (0, 1, 0)

    def test_deterministic_mismatch(self):
        t = new_basis_state(1, "0")
        before = t.copy()
        prob = t.measure_postselect(0, 1)
        assert prob == 0.0 and t == before

    def test_random_projects(self):
        t = new_basis_state(1, "0")
        apply_gate(t, "H", 0)
        prob = t.measure_postselect(0, 0)
        assert prob == 0.5
        assert t == new_basis_state(1, "0")

    @pytest.mark.parametrize("seed", range(5))
    def test_projection_is_idempotent(self, seed):
        rng = random.Random(200 + seed)
        n = rng.randrange(2, 6)
        t = random_state(n, rng)
        q = rng.randrange(n)
        p1 = t.measure_postselect(q, 0)
        if p1 == 0.0:
            return
        p2 = t.measure_postselect(q, 0)
        assert p2 == 1.0
        assert t.symplectic_ok()


_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.diag([1, -1]).astype(complex)


def row_matrix(t, r):
    """Dense i^delta X^x Z^z of row r, qubit 0 the most significant."""
    x, z, delta = t.row_bits(r)
    m = np.eye(1, dtype=complex)
    for q in range(t.n):
        m = np.kron(m, np.linalg.matrix_power(_X, (x >> q) & 1)
                    @ np.linalg.matrix_power(_Z, (z >> q) & 1))
    return 1j ** delta * m


def stabilizer_projector(t):
    """Product of (I + S_i) / 2 over the stabilizer rows: |psi><psi|."""
    eye = np.eye(1 << t.n, dtype=complex)
    proj = eye
    for i in range(t.n):
        proj = proj @ (eye + row_matrix(t, t.n + i)) / 2
    return proj


class TestMeasurementOracle:
    """measure_postselect against the dense projection (I +/- Z_q) / 2."""

    def test_matches_dense_projection(self):
        seen = set()
        for seed in range(12):
            rng = random.Random(1300 + seed)
            n = rng.randrange(1, 6)
            x = "".join(rng.choice("01") for _ in range(n))
            c = random_circuit(n, 30, rng)
            t = new_basis_state(n, x)
            t.apply_circuit(c)
            psi = dense.circuit_unitary(c) @ dense.basis_vector(x)
            assert np.allclose(stabilizer_projector(t),
                               np.outer(psi, psi.conj()))
            for q in rng.sample(range(n), n):
                bit = rng.randrange(2)
                # random branch: stabilizer p anticommutes with Z_q, and
                # every other row that does is multiplied by row p
                stab = t.xs[q] >> n << n
                if stab and t.xs[q] ^ (stab & -stab):
                    seen.add("multiply")
                before = t.copy()
                prob = t.measure_postselect(q, bit)
                seen.add(prob)
                z_q = np.kron(np.kron(np.eye(1 << q), _Z),
                              np.eye(1 << (n - q - 1)))
                projected = (psi + (-1) ** bit * (z_q @ psi)) / 2
                assert prob == pytest.approx(np.vdot(projected, projected).real,
                                             abs=1e-12)
                if prob == 0.0:
                    assert t == before
                    continue
                psi = projected / np.sqrt(prob)
                assert np.allclose(stabilizer_projector(t),
                                   np.outer(psi, psi.conj()))
                assert t.symplectic_ok()
        assert seen == {"multiply", 0.5, 0.0, 1.0}


class TestSymplecticRejects:
    @pytest.mark.parametrize("seed", range(6))
    def test_flipped_d0_bit_is_not_hermitian(self, seed):
        rng = random.Random(1400 + seed)
        n = rng.randrange(1, 7)
        t = random_state(n, rng)
        assert t.symplectic_ok()
        t.d0 ^= 1 << rng.randrange(2 * n)
        assert not t.symplectic_ok()

    def test_anticommuting_stabilizers(self):
        # S1 = X0 Z1 anticommutes with S0 = Z0; every destabilizer pairs
        t = Tableau(2)
        assert t.symplectic_ok()
        t.set_row(3, 0b01, 0b10, 0)
        assert not t.symplectic_ok()

    def test_destabilizer_commuting_with_its_stabilizer(self):
        # D1 = Z1 commutes with S1 = Z1, and with every other row
        t = Tableau(2)
        assert t.symplectic_ok()
        t.set_row(1, 0, 0b10, 0)
        assert not t.symplectic_ok()


class TestOverlap:
    def test_identity(self):
        c = CliffordCircuit(3, [])
        assert basis_overlap_prob(c, "101", "101") == 1.0
        assert basis_overlap_prob(c, "101", "100") == 0.0

    def test_hadamard(self):
        c = circuit_from_text("H 0", 1)
        assert basis_overlap_prob(c, "0", "1") == 0.5
        assert basis_overlap_halvings(c, "0", "1") == 1
        assert basis_overlap_halvings(CliffordCircuit(1, []), "0", "1") is None

    def test_halving_count_is_exact_beyond_the_float_range(self):
        # H on each qubit overlaps |0...0> with itself at 2^-n, which no
        # float holds at n = 1100: its float view underflows to 0.0
        n = 1100
        c = CliffordCircuit(n, chain.from_iterable((KIND_CODE["H"], q, q)
                                                   for q in range(n)))
        assert basis_overlap_halvings(c, "0" * n, "0" * n) == n

    @pytest.mark.parametrize("x, y", [("000", "1a0"), ("010", "0a0"),
                                      ("000", "00")])
    def test_rejects_bad_y(self, x, y):
        c = CliffordCircuit(3, [])
        with pytest.raises(ValueError, match="y must be a 3-bit string"):
            basis_overlap_prob(c, x, y)

    def test_single_qubit_fourth_moment(self):
        # independent oracle: dense enumeration of the 24 unitaries
        circs = sampling.all_single_qubit_circuits()
        dense_m4 = sum(abs(dense.circuit_unitary(c)[0, 0]) ** 4
                       for c in circs) / 24
        assert abs(dense_m4 - 1 / 3) < 1e-12
        tab_m4 = sum(Fraction(basis_overlap_prob(c, "0", "0")) ** 2
                     for c in circs) / 24
        assert tab_m4 == Fraction(1, 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_overlaps_sum_to_one(self, n):
        rng = random.Random(300 + n)
        for _ in range(5):
            c = random_circuit(n, 25, rng)
            x = "".join(rng.choice("01") for _ in range(n))
            ys = [format(i, f"0{n}b") for i in range(1 << n)]
            total = sum(Fraction(basis_overlap_prob(c, x, y)) for y in ys)
            assert total == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_dense_backend(self, n):
        rng = random.Random(400 + n)
        for _ in range(25):
            c = random_circuit(n, 40, rng)
            x = "".join(rng.choice("01") for _ in range(n))
            y = "".join(rng.choice("01") for _ in range(n))
            u = dense.circuit_unitary(c)
            p_dense = abs(u[dense.basis_index(y), dense.basis_index(x)]) ** 2
            p = basis_overlap_prob(c, x, y)
            assert abs(p - p_dense) < 1e-10
            s = basis_overlap_halvings(c, x, y)
            assert p == (0.0 if s is None else 2.0 ** -s)


class TestGateText:
    def test_out_of_range_gate_is_named(self):
        # the first gate out of range is named, after the whole text parsed
        with pytest.raises(ValueError,
                           match=r"^gate CNOT 1 5 out of range for n=2$"):
            circuit_from_text("H 0; CNOT 1 5; H 7", 2)


def row_permutation(t, r):
    """Row r of t, P = i^delta X^x Z^z, as (perm, phase) with P|k> =
    phase[k] |perm[k]>, qubit 0 the most significant bit of k."""
    x, z, delta = t.row_bits(r)
    xi, zi = (int(format(v, f"0{t.n}b")[::-1], 2) for v in (x, z))
    signs = [-1 if (k & zi).bit_count() & 1 else 1 for k in range(1 << t.n)]
    return np.arange(1 << t.n) ^ xi, 1j ** delta * np.array(signs)


def assert_conjugated(before, after, u, rows=None):
    """Each row r of after (every row of a state by default) is U (row r
    of before) U^dagger, U the dense unitary u: the reference the
    tableau's gate rules are checked against, independent of them.
    P' U = U P is compared with each Pauli applied as a permutation and a
    phase."""
    for r in range(2 * before.n) if rows is None else rows:
        perm, phase = row_permutation(after, r)
        left = np.empty_like(u)
        left[perm] = phase[:, None] * u
        perm, phase = row_permutation(before, r)
        assert np.allclose(left, u[:, perm] * phase, atol=1e-12)


def every_row_tableau(n):
    """A tableau of 2^(2n+2) rows holding every row (x, z, delta), row
    (x << (n + 2)) | (z << 2) | delta; not a state, but the gate rules act
    on each row alone."""
    t = Tableau(n, [0] * n, [0] * n)
    for c in range(1 << (2 * n + 2)):
        t.set_row(c, c >> (n + 2), (c >> 2) & ((1 << n) - 1), c & 3)
    return t


class TestGateCodes:
    @pytest.mark.parametrize("n", [2, 3])
    def test_each_gate_conjugates_every_row_as_its_unitary(self, n):
        # each kind on every ordered placement of its qubits, applied to
        # every row code at once, against U P U^dagger of the dense unitary
        # of that one gate
        every = every_row_tableau(n)
        placed = 0
        for kind, arity in GATE_POOL:
            for qubits in permutations(range(n), arity):
                c = CliffordCircuit(n, (kind, qubits[0], qubits[-1]))
                after = every.copy()
                after.apply_circuit(c)
                assert_conjugated(every, after, dense.circuit_unitary(c),
                                  range(1 << (2 * n + 2)))
                placed += 1
        assert placed == 6 * n + 3 * n * (n - 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_tableau_and_map_match_the_gate_by_gate_reference(self, n):
        # seeded random circuits over all nine kinds (one-qubit kinds only
        # at n = 1): apply_circuit and CliffordMap against the dense
        # product of the gates' unitaries, conjugating each row
        rng = random.Random(900 + n)
        kinds = set()
        for length in (0, 1, 9, 80):
            c = random_circuit(n, length, rng)
            kinds |= kinds_of(c)
            u = dense.circuit_unitary(c)
            state = random_state(n, rng)
            got = state.copy()
            got.apply_circuit(c)
            assert_conjugated(state, got, u)
            m = CliffordMap(c)
            assert_conjugated(Tableau(n), m.tableau, u)
            assert m.rows == [m.tableau.row_bits(r) for r in range(2 * n)]
        assert len(kinds) == (6 if n == 1 else 9)

    def test_codes_are_kind_and_qubits(self):
        c = circuit_from_text("H 7; CNOT 299 3; SDG 0; SWAP 1 2", 300)
        # one-qubit gates repeat their qubit; n = 300 needs two bytes
        assert c.codes.typecode == "H"
        assert c.codes.tolist() == [0, 7, 7, 8, 299, 3, 2, 0, 0, 7, 1, 2]
        assert CliffordCircuit(256, []).codes.typecode == "B"
        assert len(c) == 4
        # the gates view reads the codes as triples
        assert list(c.gates) == [(0, 7, 7), (8, 299, 3), (2, 0, 0), (7, 1, 2)]
        assert len(c.gates) == 4
        # a circuit takes its codes as they are, into an array of its own
        assert CliffordCircuit(300, c.codes) == c
        assert CliffordCircuit(300, c.codes).codes is not c.codes

    def test_a_wide_n_takes_a_wider_code_type(self):
        # a circuit's codes are of the narrowest type that holds n
        c = circuit_from_text("CNOT 69999 0", 70000)
        assert c.codes.typecode == "I"
        assert c.codes == code_array(70000, [8, 69999, 0])


class TestInvert:
    def test_examples(self):
        # the inverse map equals the compile of the hand-inverted circuit
        cases = [(1, "H 0", "H 0"), (1, "S 0", "SDG 0"),
                 (2, "H 0; S 1; CNOT 0 1", "CNOT 0 1; SDG 1; H 0")]
        for n, text, inverse_text in cases:
            c = circuit_from_text(text, n)
            inverse = circuit_from_text(inverse_text, n)
            assert reference_inverse(c) == inverse
            got = CliffordMap(c).inverse
            want = CliffordMap(inverse)
            assert (got.rows, got.tableau) == (want.rows, want.tableau)

    @pytest.mark.parametrize("n", range(1, 31))
    def test_inverse_map_is_the_compiled_inverse(self, n):
        # every gate kind, including empty circuits
        rng = random.Random(4000 + n)
        for length in (0, 1, 5, 40, 200):
            c = random_circuit(n, length, rng)
            m = CliffordMap(c)
            want = CliffordMap(reference_inverse(c))
            got = m.inverse
            assert got.rows == want.rows
            assert got.tableau == want.tableau
            assert m.inverse is got

    def test_inverse_map_of_the_protocol_codebook(self):
        # the n = 64 codebook of the protocol benchmark
        cb = build_codebook(64, 2, 0.0625, 0x5EED)
        for k in range(2):
            got = cb.inverse_map(k)
            want = CliffordMap(reference_inverse(cb.circuits[k]))
            assert got.rows == want.rows
            assert got.tableau == want.tableau

    def test_broken_map_is_rejected(self):
        m = CliffordMap(random_circuit(3, 30, random.Random(43)))
        m.tableau = m.tableau.copy()
        m.tableau.xs[0] ^= 1 << 4
        with pytest.raises(AssertionError, match="do not undo the map"):
            m.inverse

    @given(st.integers(0, 2 ** 32))
    @settings(max_examples=30, deadline=None)
    def test_involution_and_identity_action(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 6)
        c = random_circuit(n, 20, rng)
        assert reference_inverse(reference_inverse(c)) == c
        t = random_state(n, rng)
        ref = t.copy()
        t.apply_circuit(c)
        t.apply_circuit(reference_inverse(c))
        assert t == ref


class TestSerialization:
    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip(self, seed):
        rng = random.Random(500 + seed)
        n = rng.randrange(1, 8)
        t = random_state(n, rng)
        text = t.to_text()
        back = tableau_from_text(text)
        assert back == t
        assert back.to_text() == text

    def test_sign_planes_match_the_row_rule(self):
        # the per-row rule: a Hermitian row's sign is i^(delta - popcount)
        counts = set()
        for seed in range(6):
            rng = random.Random(1500 + seed)
            n = rng.randrange(2, 8)
            t = random_state(n, rng, depth=60)
            negative = negative_rows(t)
            for r in range(2 * n):
                x, z, delta = t.row_bits(r)
                counts.add((x & z).bit_count() % 4)
                assert (delta - (x & z).bit_count()) % 4 \
                    == 2 * ((negative >> r) & 1)
            assert hermitian_phase(t.xs, t.zs, negative) == (t.d0, t.d1)
            t.d0 ^= 1 << rng.randrange(2 * n)
            with pytest.raises(ValueError, match="not Hermitian"):
                negative_rows(t)
        # rows with two and three Y factors carry into the high bit
        assert counts == {0, 1, 2, 3}

    def test_header_required(self):
        with pytest.raises(ValueError):
            tableau_from_text("junk")

    def test_basis_state_text(self):
        text = new_basis_state(2, "10").to_text()
        assert text.splitlines()[0] == "n=2"
        assert text.splitlines()[3] == "S 00 10 -"


class TestCliffordMap:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_gate_application(self, seed):
        rng = random.Random(600 + seed)
        n = rng.randrange(1, 9)
        c = random_circuit(n, 30, rng)
        m = CliffordMap(c)
        x = "".join(rng.choice("01") for _ in range(n))
        direct = new_basis_state(n, x)
        direct.apply_circuit(c)
        assert m.basis_state_image(x) == direct
        state = random_state(n, rng)
        expected = state.copy()
        expected.apply_circuit(c)
        m.apply_to(state)
        assert state == expected

    def test_z_readout(self):
        rng = random.Random(777)
        for _ in range(10):
            n = rng.randrange(1, 30)
            x = "".join(rng.choice("01") for _ in range(n))
            c = random_circuit(n, 50, rng)
            t = new_basis_state(n, x)
            t.apply_circuit(c)
            t.apply_circuit(reference_inverse(c))
            assert t.z_readout() == x

    def test_z_readout_none_when_superposed(self):
        t = new_basis_state(2, "00")
        apply_gate(t, "H", 0)
        assert t.z_readout() is None


class TestZReadout:
    """z_readout against the elimination it replaced, on every decrypted
    state and on the states measurement leaves behind."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64])
    def test_decrypted_states_match_the_elimination(self, n):
        rng = random.Random(900 + n)
        K = 3
        cb = build_codebook(n, K, 0.5, master_seed=0x5EED + n,
                            depth_factor=0.25)
        seen = set()
        for _ in range(4):
            x = "".join(rng.choice("01") for _ in range(n))
            for k in range(K):
                cipher = cb.map(k).basis_state_image(x)
                for guess in range(K):
                    t = cipher.copy()
                    cb.inverse_map(guess).apply_to(t)
                    bits = readout_agrees(t)
                    if guess == k:
                        assert bits == x
                    seen.add(bits is None)
                    # measure half the qubits, then the rest
                    for q in rng.sample(range(n), (n + 1) // 2):
                        t.measure_sample(q, rng)
                    readout_agrees(t)
                    for q in range(n):
                        t.measure_sample(q, rng)
                    assert readout_agrees(t) is not None
        # n = 1 design circuits may all map |x> to basis states
        assert seen == {False, True} or n == 1

    def test_decrypted_states_at_n256(self):
        rng = random.Random(1256)
        cb = build_codebook(256, 2, 0.5, master_seed=0x5EED,
                            depth_factor=0.05)
        x = "".join(rng.choice("01") for _ in range(256))
        right = cb.map(0).basis_state_image(x)
        wrong = right.copy()
        cb.inverse_map(0).apply_to(right)
        cb.inverse_map(1).apply_to(wrong)
        assert readout_agrees(right) == x
        assert readout_agrees(wrong) is None
        for q in range(256):
            wrong.measure_sample(q, rng)
        assert readout_agrees(wrong) is not None

    @pytest.mark.parametrize("n", [2, 5, 8, 64, 256])
    def test_classical_circuits_keep_basis_states(self, n):
        # CNOT, SWAP and X permute basis states; CZ, S and Z only add
        # phases, so the readout must follow the permutation while the
        # destabilizers pick up Z parts and the stabilizer Z block fills in
        rng = random.Random(1000 + n)
        x = [rng.randrange(2) for _ in range(n)]
        t = new_basis_state(n, "".join(map(str, x)))
        for _ in range(8 * n):
            kind = rng.choice(["CNOT", "SWAP", "X", "CZ", "S", "Z"])
            if kind in ("CNOT", "SWAP", "CZ"):
                a, b = rng.sample(range(n), 2)
                apply_gate(t, kind, a, b)
                if kind == "CNOT":
                    x[b] ^= x[a]
                elif kind == "SWAP":
                    x[a], x[b] = x[b], x[a]
            else:
                q = rng.randrange(n)
                apply_gate(t, kind, q)
                x[q] ^= kind == "X"
        assert readout_agrees(t) == "".join(map(str, x))
