import math
import random
import subprocess
import sys

import numpy as np
import pytest

from qlock import dense
from qlock.dense import (NumericalError, apply_circuit_to_vector,
                         circuit_unitary, eigvalsh, overlap_prob,
                         von_neumann_entropy)
from qlock.sampling import (DesignCircuit, SamplerConfig,
                            all_single_qubit_circuits, sample_design_circuit,
                            sample_uniform_clifford, stream_rng,
                            two_qubit_table)
from qlock.stabilizer import CliffordCircuit, gate

from test_stabilizer import random_circuit, reference_inverse


def reference_apply(circuit, vec):
    """Per-gate oracle: one tensordot per gate along the gate's qubit axes."""
    n = circuit.n
    shape = vec.shape
    arr = vec.reshape((2,) * n + shape[1:]).astype(complex)
    for g in circuit.gates:
        k = len(g.qubits)
        m = dense.GATE_MATRICES[g.kind].reshape((2,) * (2 * k))
        out = np.tensordot(m, arr,
                           axes=(list(range(k, 2 * k)), list(g.qubits)))
        arr = np.moveaxis(out, list(range(k)), list(g.qubits))
    return arr.reshape(shape)


def assert_matches_reference(circuit, vec):
    got = apply_circuit_to_vector(circuit, vec)
    assert got.shape == vec.shape
    diff = np.abs(got - reference_apply(circuit, vec))
    assert np.max(diff, initial=0.0) < 1e-12


def random_stack(n, m, seed):
    g = np.random.default_rng(seed)
    return g.normal(size=(1 << n, m)) + 1j * g.normal(size=(1 << n, m))


class TestCircuitUnitary:
    def test_empty_is_identity(self):
        u = circuit_unitary(CliffordCircuit(1, []))
        assert np.allclose(u, np.eye(2))

    def test_hadamard(self):
        u = circuit_unitary(CliffordCircuit(1, [gate("H", 0)]))
        s = 1 / math.sqrt(2)
        assert np.allclose(u, np.array([[s, s], [s, -s]]))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_codes_match_the_gate_by_gate_reference(self, n):
        # seeded random circuits over all nine kinds: the unitary that
        # _runs fuses from the gate codes against one tensordot per gate
        rng = random.Random(950 + n)
        kinds = set()
        for length in (0, 1, 9, 60):
            c = random_circuit(n, length, rng)
            kinds |= {g.kind for g in c.gates}
            u = circuit_unitary(c)
            want = reference_apply(c, np.eye(1 << n, dtype=complex))
            assert np.max(np.abs(u - want), initial=0.0) < 1e-12
        assert len(kinds) == (6 if n == 1 else 9)

    def test_random_circuit_is_unitary(self):
        rng = random.Random(1)
        c = random_circuit(6, 80, rng)
        u = circuit_unitary(c)
        assert np.max(np.abs(u.conj().T @ u - np.eye(64))) < 1e-10

    def test_inverse_is_dagger(self):
        rng = random.Random(2)
        for n in (1, 3, 5):
            c = random_circuit(n, 30, rng)
            u = circuit_unitary(c)
            ui = circuit_unitary(reference_inverse(c))
            assert np.max(np.abs(ui - u.conj().T)) < 1e-10

    def test_cutoff(self):
        with pytest.raises(ValueError, match="n=13 exceeds the dense cutoff 12"):
            circuit_unitary(CliffordCircuit(13, []))

    def test_column_stack_matches_unitary_columns(self):
        rng = random.Random(5)
        c = random_circuit(4, 40, rng)
        u = circuit_unitary(c)
        cols = np.eye(16, dtype=complex)[:, [0, 3, 9]]
        assert np.max(np.abs(apply_circuit_to_vector(c, cols)
                             - u[:, [0, 3, 9]])) < 1e-12
        vec = apply_circuit_to_vector(c, dense.basis_vector("0011"))
        assert np.max(np.abs(vec - u[:, 3])) < 1e-12

    def test_stack_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_circuit_to_vector(CliffordCircuit(2, []), np.eye(2))


class TestFusedRuns:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_design_and_uniform_circuits(self, n):
        rng = random.Random(100 + n)
        circuits = [random_circuit(n, 60, rng),
                    sample_uniform_clifford(n, rng)]
        if n > 1:
            circuits.append(sample_design_circuit(SamplerConfig(n, 0.25), rng))
        for i, c in enumerate(circuits):
            stack = random_stack(n, 3, 10 * n + i)
            assert_matches_reference(c, stack)
            assert_matches_reference(c, stack[:, 0])
            assert_matches_reference(c, np.eye(1 << n, dtype=complex))

    def test_all_single_qubit_cliffords(self):
        for c in all_single_qubit_circuits():
            assert_matches_reference(c, np.eye(2, dtype=complex))
            assert_matches_reference(c, random_stack(1, 2, 1)[:, 1])

    @pytest.mark.parametrize("n, words, runs", [
        (3, ["H 1", "S 1", "H 1", "SDG 1"], [(1,)]),
        (2, ["H 0", "CNOT 1 0"], [(0, 1)]),
        (3, ["H 2", "SWAP 2 0", "S 0", "CZ 0 2", "Y 2"], [(0, 2)]),
        (4, ["H 0", "CNOT 0 1", "CNOT 2 3", "X 3"], [(0, 1), (2, 3)]),
        (4, ["S 3", "H 1", "Z 0", "CNOT 0 1"], [(1, 3), (0, 1)]),
        (3, [], []),
    ], ids=["one-qubit-only", "cnot-after-h", "swap-inside",
            "new-pair-closes", "one-qubit-gates-pair-up", "empty"])
    def test_run_boundaries(self, n, words, runs):
        gates = [gate(w.split()[0], *map(int, w.split()[1:])) for w in words]
        c = CliffordCircuit(n, gates)
        assert [q for q, _ in dense._runs(c.codes)] == runs
        assert_matches_reference(c, random_stack(n, 4, 7))
        assert_matches_reference(c, np.eye(1 << n, dtype=complex))

    def test_input_is_not_mutated(self):
        c = random_circuit(3, 40, random.Random(9))
        for vec in (random_stack(3, 5, 2), random_stack(3, 1, 3)[:, 0],
                    np.eye(8)):
            before = vec.copy()
            out = apply_circuit_to_vector(c, vec)
            assert np.array_equal(vec, before)
            assert not np.shares_memory(out, vec)
        empty = np.eye(4, dtype=complex)
        out = apply_circuit_to_vector(CliffordCircuit(2, []), empty)
        out[0, 0] = 5.0
        assert empty[0, 0] == 1.0


def reference_matrices(table, words):
    """(B, 4, 4) unitaries of table words by gathering each word's columns
    of U_{i,0} and scaling them, the form matrices() had before it read
    per-code offset and factor tables."""
    code = table.code[words]
    return (np.take_along_axis(table.classes[words >> 4],
                               table.cols[code][:, None, :], axis=2)
            * table.scale[code][:, None, :])


def design_draws(n, K, seed):
    """K design circuits and their gate circuits, drawn from the same
    streams."""
    cfg = SamplerConfig(n, 0.25)
    designs = [sample_design_circuit(cfg, stream_rng(seed, k))
               for k in range(K)]
    return designs, [CliffordCircuit(n, list(c.gates)) for c in designs]


class TestFragmentPush:
    def test_every_table_word(self):
        # phi U_{i,0} P from the compact table against each word's gates
        table = two_qubit_table()
        got = dense._fragment_table().matrices(np.arange(720 * 16))
        for w in range(720 * 16):
            c = table.word(w)
            assert np.max(np.abs(got[w] - circuit_unitary(c))) < 1e-12

    def test_matrices_equal_the_column_gather(self):
        # bit for bit: the same entries times the same scale factors
        table = dense._fragment_table()
        words = np.arange(720 * 16)
        want = reference_matrices(table, words)
        assert np.array_equal(table.matrices(words), want)
        rng = np.random.default_rng(3)
        some = rng.integers(0, 720 * 16, size=(400,))
        assert np.array_equal(table.matrices(some), want[some])
        assert table.matrices(words[:0]).shape == (0, 4, 4)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("K", [1, 3, 7])
    def test_batches_match_gate_unitaries(self, n, K, monkeypatch):
        # three circuits per batch: K = 1, K = the batch size and K not a
        # multiple of it
        monkeypatch.setattr(dense, "_BATCH_ENTRIES", 3 << (2 * n))
        designs, circuits = design_draws(n, K, 40 + n)
        eye = np.eye(1 << n, dtype=complex)
        stacks = list(dense.push(iter(designs), eye))
        assert [len(s) for s in stacks] == [3] * (K // 3) + [K % 3] * (K % 3 > 0)
        got = np.concatenate(stacks)
        for u, c in zip(got, circuits):
            assert np.max(np.abs(u - circuit_unitary(c))) < 1e-12

    @pytest.mark.parametrize("extra", [0, 1])
    def test_default_batch_size(self, extra):
        # full stacks at n = 6: two whole batches, then one more circuit
        size = max(1, dense._BATCH_ENTRIES // (64 * 64))
        K = 2 * size + extra
        designs, circuits = design_draws(6, K, 7)
        cols = random_stack(6, 64, 3)
        stacks = list(dense.push(designs, cols))
        assert [len(s) for s in stacks] == [size, size] + [1] * extra
        for v, c in zip(np.concatenate(stacks), circuits):
            assert np.max(np.abs(v - reference_apply(c, cols))) < 1e-12

    def test_gate_circuits_and_records_keep_their_order(self):
        # gate circuits go one by one and end a batch of design circuits
        designs, circuits = design_draws(3, 4, 11)
        stream = [circuits[0], designs[1], designs[2], circuits[3]]
        cols = random_stack(3, 2, 4)
        before = cols.copy()
        stacks = list(dense.push(stream, cols))
        assert [len(s) for s in stacks] == [1, 2, 1]
        assert np.array_equal(cols, before)
        for v, c in zip(np.concatenate(stacks), circuits):
            assert np.max(np.abs(v - reference_apply(c, cols))) < 1e-12

    def test_empty_records_are_identity(self):
        cols = random_stack(2, 3, 5)
        empty = DesignCircuit(2, np.zeros((0, 3), dtype=np.int64))
        (stack,) = dense.push([empty, empty], cols)
        assert np.array_equal(stack, np.stack([cols, cols]))

    @pytest.mark.parametrize("records", [
        [(720 * 16, 0, 1)], [(-1, 0, 1)], [(5, 1, 1)], [(5, 0, 3)],
        [(5, -1, 2)]], ids=["word-high", "word-negative", "same-qubit",
                            "qubit-high", "qubit-negative"])
    def test_bad_records(self, records):
        bad = DesignCircuit(3, np.array(records, dtype=np.int64))
        with pytest.raises(ValueError, match="out of range"):
            list(dense.push([bad], np.eye(8, dtype=complex)))

    def test_one_qubit_has_no_fragments(self):
        # a design circuit needs two qubits, and one on other than the
        # stack's qubit count is a dimension mismatch
        with pytest.raises(ValueError, match="two qubits"):
            DesignCircuit(1, np.array([(5, 0, 1)], dtype=np.int64))
        (design,), _ = design_draws(2, 1, 3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            list(dense.push([design], np.eye(8, dtype=complex)))

    def test_two_qubit_table_leaves_the_fragment_table_unbuilt(self):
        # set-up builds the gate table; the fragment table waits for the
        # first fragment push
        code = ("import qlock.cli\n"
                "from qlock import dense, sampling\n"
                "sampling.two_qubit_table()\n"
                "assert dense._fragment_table.cache_info().currsize == 0\n"
                "dense._fragment_table()\n"
                "assert dense._fragment_table.cache_info().currsize == 1\n")
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr


class TestOverlapProb:
    def test_identity(self):
        v0 = dense.basis_vector("0")
        assert overlap_prob(v0, CliffordCircuit(1, []), v0) == pytest.approx(1.0)

    def test_hadamard(self):
        v0 = dense.basis_vector("0")
        v1 = dense.basis_vector("1")
        c = CliffordCircuit(1, [gate("H", 0)])
        assert overlap_prob(v1, c, v0) == pytest.approx(0.5)

    def test_haar_first_moment(self):
        # Monte Carlo against the d = 4 Haar mean 1/d of |<a|b>|^2
        rng = random.Random(3)
        ident = CliffordCircuit(2, [])
        samples = 100_000
        vals = []
        for _ in range(samples):
            a = dense.random_state_vector(2, rng)
            b = dense.random_state_vector(2, rng)
            vals.append(overlap_prob(a, ident, b))
        mean = float(np.mean(vals))
        stderr = float(np.std(vals)) / math.sqrt(samples)
        assert abs(mean - 0.25) < 3 * stderr + 1e-4


class TestEigvalsh:
    def test_maximally_mixed(self):
        assert np.allclose(eigvalsh(np.eye(2) / 2), [0.5, 0.5])

    def test_diagonal(self):
        assert np.allclose(eigvalsh(np.diag([0.7, 0.3])), [0.7, 0.3])

    def test_quadratic_oracle_2x2(self):
        # roots of the characteristic polynomial as an independent check
        rng = random.Random(4)
        for _ in range(50):
            a = rng.uniform(-2, 2)
            d = rng.uniform(-2, 2)
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            m = np.array([[a, b], [b.conjugate(), d]])
            tr = a + d
            det = a * d - abs(b) ** 2
            disc = math.sqrt(max(0.0, tr * tr - 4 * det))
            expect = [(tr + disc) / 2, (tr - disc) / 2]
            got = eigvalsh(m)
            assert np.max(np.abs(got - expect)) < 1e-10

    @pytest.mark.parametrize("d", [3, 5, 8, 16, 33])
    def test_against_numpy(self, d):
        rng = np.random.default_rng(d)
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (g + g.conj().T) / 2
        got = eigvalsh(h)
        want = np.linalg.eigvalsh(h)[::-1]
        assert np.max(np.abs(got - want)) < 1e-9
        assert abs(got.sum() - np.trace(h).real) < 1e-8

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eigvalsh(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_descending_order(self):
        vals = eigvalsh(np.diag([0.1, 0.9, 0.5]).astype(complex))
        assert list(vals) == sorted(vals, reverse=True)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigvalsh(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_is_numerical_error(self, bad):
        m = np.eye(3, dtype=complex) / 3
        m[1, 1] = bad
        with pytest.raises(NumericalError):
            eigvalsh(m)


class TestEntropy:
    def test_pure_state(self):
        v = dense.basis_vector("00")
        rho = np.outer(v, v.conj())
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)

    def test_mixed_diagonal(self):
        rho = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
        assert von_neumann_entropy(rho) == pytest.approx(1.5)

    def test_bounds(self):
        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            d = 1 << n
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            s = von_neumann_entropy(rho)
            assert -1e-9 <= s <= n + 1e-9

    def test_full_rank_n8_matches_lapack(self):
        rng = np.random.default_rng(8)
        d = 256
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        lam = np.linalg.eigvalsh(rho)
        assert lam.min() > 1e-12
        want = float(-(lam * np.log2(lam)).sum())
        assert von_neumann_entropy(rho) == pytest.approx(want, abs=1e-9)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.eye(2))


class TestStateVectors:
    def test_normalized(self):
        rng = random.Random(11)
        for n in (1, 3, 5):
            v = dense.random_state_vector(n, rng)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            overlap_prob(dense.basis_vector("0"), CliffordCircuit(2, []),
                         dense.basis_vector("00"))
