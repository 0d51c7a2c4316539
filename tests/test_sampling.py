import hashlib
import math
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlock import sampling
from qlock.sampling import (MAX_FRAGMENTS, DesignCircuit, SamplerConfig,
                            _close_group, action_to_circuit,
                            all_single_qubit_circuits,
                            circuit_from_text, circuit_to_text,
                            derive_circuit, design_circuit_length,
                            sample_design_circuit,
                            sample_two_qubit_clifford, sample_uniform_clifford,
                            single_qubit_table, stream_rng, two_qubit_table)
from qlock.stabilizer import (CliffordCircuit, CliffordGate, Tableau,
                              basis_overlap_prob, gate, gate_code)

from test_stabilizer import apply_gate, random_circuit, reference_inverse


def reference_fragments(cfg, rng, count):
    """The draw loop that defines the design stream: per fragment the pair
    from rng.sample, then randrange(720), then randrange(16).  The engine
    in sampling must give the same records and leave rng in the same
    state."""
    length = design_circuit_length(cfg.n, cfg.delta, cfg.depth_factor)
    circuits = []
    for _ in range(count):
        records = []
        for _ in range(length):
            a, b = rng.sample(range(cfg.n), 2)
            i = rng.randrange(720)
            records.append([16 * i + rng.randrange(16), a, b])
        circuits.append(records)
    return circuits


def reference_closure(n, generators):
    """The breadth-first closure over Tableau objects that the packed
    closure replaced, of generator gates: [(action tableau, word as
    generator indices)], in discovery order."""
    def key(t):
        return tuple(t.xs), tuple(t.zs), t.d0, t.d1

    start = Tableau(n)
    words = {key(start): (start, ())}
    frontier = [start]
    while frontier:
        nxt = []
        for tab in frontier:
            for i, g in enumerate(generators):
                t2 = tab.copy()
                apply_gate(t2, g.kind, *g.qubits)
                if key(t2) not in words:
                    words[key(t2)] = (t2, words[key(tab)][1] + (i,))
                    nxt.append(t2)
        frontier = nxt
    return list(words.values())


# chi-square critical values at p = 0.001, by degrees of freedom
CHI2_999 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515,
            6: 22.458, 7: 24.322}


def basis_overlap_law(n):
    """Exact law of |<0..0|S>|^2 for a uniform n-qubit stabilizer state S:
    {k: P(2^-k)} for k = 0..n, and {None: P(0)}.  Of the N(n) = 2^n
    prod_j (2^j + 1) states, [n k]_2 2^(k(k+3)/2) have overlap 2^-k."""
    total = 2 ** n * math.prod(2 ** j + 1 for j in range(1, n + 1))
    law = {}
    for k in range(n + 1):
        gauss = math.prod(Fraction(2 ** (n - i) - 1, 2 ** (i + 1) - 1)
                          for i in range(k))
        law[k] = Fraction(gauss * 2 ** (k * (k + 3) // 2), total)
    law[None] = 1 - sum(law.values())
    return law


def action_key(circuit):
    t = Tableau(circuit.n)
    t.apply_circuit(circuit)
    return tuple(t.row_bits(r) for r in range(2 * circuit.n))


class TestTables:
    def test_single_qubit_group_order(self):
        assert len(single_qubit_table().words) == 24

    def test_two_qubit_group_structure(self):
        table = two_qubit_table()
        assert len(table.templates) == 720 * 16
        assert len(set(table.templates)) == 720 * 16
        assert all(table.word(w).codes.tolist()
                   == [c for g in t for c in table.gens[g]]
                   for w, t in enumerate(table.templates))

    def test_table_words_are_pinned(self):
        # the canonical order fixes every sampled gate list and codebook byte
        table = two_qubit_table()
        text = "\n".join(circuit_to_text(table.word(w))
                         for w in range(720 * 16))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "09bf257765a6854fffdfa1c9b12c4903d3719d9be0bc1b09f7c43c262618e501")

    def test_single_qubit_words_are_pinned(self):
        # single_qubit_circuit(i) and the n = 1 draws index this order
        text = "\n".join(circuit_to_text(c)
                         for c in all_single_qubit_circuits())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "855c1a47f1d32f4f9d6ee5feb144ab5b8d46652e983c551ba94f37a1de8f439c")

    @pytest.mark.parametrize("n, gens", [
        (1, [gate("H", 0), gate("S", 0)]),
        (2, [gate("H", 0), gate("H", 1), gate("S", 0), gate("S", 1),
             gate("CNOT", 0, 1), gate("CNOT", 1, 0)])], ids=["n1", "n2"])
    def test_closure_matches_the_tableau_bfs(self, n, gens):
        # same elements, discovery order and shortest words; each code packs
        # the rows (x_bits, z_bits, delta), row 0 most significant
        codes, words = _close_group(n, tuple(map(gate_code, gens)))
        ref = reference_closure(n, gens)
        assert words == [bytes(word) for _, word in ref]
        want = []
        for tab, _ in ref:
            code = 0
            for r in range(2 * n):
                x, z, delta = tab.row_bits(r)
                row = (x << (n + 2)) | (z << 2) | delta
                code = (code << (2 * n + 2)) | row
            want.append(code)
        assert codes.tolist() == want

    def test_words_are_distinct_elements(self):
        keys = {action_key(c) for c in all_single_qubit_circuits()}
        assert len(keys) == 24


class TestDrawEngine:
    # (n, depth_factor): the pool branch of random.sample up to n = 21 and
    # its set branch above, with 8 to 43 fragments per circuit
    CONFIGS = [(2, 1.0), (3, 1.0), (5, 0.5), (21, 0.05), (22, 0.05),
               (64, 0.01)]
    COUNTS = [1, 2, 3, 7, 60, 300]

    @pytest.mark.parametrize("plain", [False, True],
                             ids=["stream_rng", "random.Random"])
    def test_matches_the_draw_loop(self, plain):
        version = "%d.%d" % sys.version_info[:2]
        for seed in range(50):
            for c, (n, depth) in enumerate(self.CONFIGS):
                count = self.COUNTS[(seed + c) % len(self.COUNTS)]
                cfg = SamplerConfig(n=n, delta=0.25, depth_factor=depth)
                engine, loop = ((random.Random(seed), random.Random(seed))
                                if plain else (stream_rng(seed, c),
                                               stream_rng(seed, c)))
                got = [sample_design_circuit(cfg, engine).records.tolist()
                       for _ in range(count)]
                want = reference_fragments(cfg, loop, count)
                where = (f"n={n}, seed={seed}, count={count}, Python "
                         f"{version}: the design stream is CPython's "
                         "random.sample and randrange algorithm")
                assert got == want, f"records differ at {where}"
                assert engine.getstate() == loop.getstate(), \
                    f"generator state differs at {where}"


class TestTwoQubitSampler:
    def test_group_closure(self, rng):
        for _ in range(30):
            c = sample_two_qubit_clifford(rng)
            t = Tableau(2)
            t.apply_circuit(c)
            assert t.symplectic_ok()

    def test_inverse_composition(self, rng):
        for _ in range(20):
            c = sample_two_qubit_clifford(rng)
            t = Tableau(2)
            t.apply_circuit(c)
            t.apply_circuit(reference_inverse(c))
            assert t == Tableau(2)

    def test_uniformity_chi_square(self):
        # frequency test over the 11 520 group elements; the sampler hands
        # out the circuit of a table word, so each draw is looked up by its
        # gate codes, and the words are checked to be distinct elements
        # through their canonical action tableaus
        rng = random.Random(123)
        table = two_qubit_table()
        words = [table.word(w) for w in range(720 * 16)]
        keys = {action_key(word) for word in words}
        assert len(keys) == 11520
        index_of = {word.codes.tobytes(): w for w, word in enumerate(words)}
        draws = 1_000_000
        counts = np.zeros(11520, dtype=np.int64)
        for _ in range(draws):
            counts[index_of[sample_two_qubit_clifford(rng).codes.tobytes()]] += 1
        expected = draws / 11520
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        dof = 11519
        sigma = math.sqrt(2 * dof)
        assert abs(chi2 - dof) < 5 * sigma


class TestDesignSampler:
    def test_length_formula_examples(self):
        assert design_circuit_length(4, 2 ** -4, 1.0) == 32
        assert design_circuit_length(2, 0.01, 1.0) == 18
        assert design_circuit_length(1, 0.5, 1.0) == 2

    def test_length_is_capped(self):
        # L = 8 c at n = 2, delta = 1/4: the cap is reached at c = 2^19
        assert design_circuit_length(2, 0.25, 2 ** 19) == MAX_FRAGMENTS
        with pytest.raises(ValueError, match=r"L=4194305 fragments at n=2"):
            design_circuit_length(2, 0.25, 2 ** 19 + 1 / 8)
        with pytest.raises(ValueError, match=r"L=120000000000 fragments"):
            SamplerConfig(n=2, delta=0.0625, depth_factor=1e10)

    def test_fragment_count(self, rng):
        cfg = SamplerConfig(n=4, delta=2 ** -4)
        assert sample_design_circuit(cfg, rng).records.shape == (32, 3)
        cfg = SamplerConfig(n=2, delta=0.25, depth_factor=0.1)
        assert sample_design_circuit(cfg, rng).records.shape == (1, 3)

    @pytest.mark.parametrize("n", [2, 3, 64])
    def test_fragments_expand_the_table_words(self, n):
        # the records are the draw loop's, and the gate list is their
        # word-by-word expansion, which fixes the gate lists and the
        # codebook bytes
        table = two_qubit_table()
        cfg = SamplerConfig(n=n, delta=0.25)
        for k in range(20 if n < 64 else 2):
            circuit = sample_design_circuit(cfg, stream_rng(0x1234, k))
            records = circuit.records.tolist()
            assert records == reference_fragments(
                cfg, stream_rng(0x1234, k), 1)[0]
            want = [CliffordGate(g.kind, tuple((a, b)[q] for q in g.qubits))
                    for word, a, b in records
                    for g in table.word(word).gates]
            assert circuit.gates == want
            assert len(circuit) == len(want)
            # derive_circuit keeps the draw's records, and expands them to
            # the same gates
            derived = derive_circuit(0x1234, k, cfg)
            assert type(derived) is DesignCircuit
            assert derived.records.tolist() == records
            assert derived.gates == want

    def test_repr_names_the_size_without_expanding(self, monkeypatch):
        def fail(*args):
            raise AssertionError("repr expanded the records")

        circuit = derive_circuit(0x5EED, 0, SamplerConfig(64, 0.0625))
        monkeypatch.setattr(sampling._TwoQubitTable, "expand", fail)
        text = repr(circuit)
        assert text == "DesignCircuit(n=64, fragments=4352)"
        assert len(text) < 100

    def test_expansion_holds_one_byte_per_code(self):
        # in a fresh interpreter, the expanded codes of an n = 64 circuit
        # are all that reading them leaves held: three bytes per gate and
        # the array's spare room, and no gate objects or gate table
        code = (
            "import tracemalloc\n"
            "from qlock.sampling import (SamplerConfig, derive_circuit,\n"
            "                            two_qubit_table)\n"
            "circuit = derive_circuit(0x5EED, 0, SamplerConfig(64, 0.0625))\n"
            "two_qubit_table()\n"
            "tracemalloc.start()\n"
            "codes = circuit.codes\n"
            "held = tracemalloc.get_traced_memory()[0]\n"
            "print(len(codes) // 3, held)\n")
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        gates, held = map(int, res.stdout.split())
        assert gates > 30000
        assert held <= 3.3 * gates, f"{held / gates:.2f} bytes per gate"

    def test_fragments_need_two_qubits(self):
        with pytest.raises(ValueError, match="two qubits"):
            DesignCircuit(1, np.zeros((2, 3), dtype=np.int64))

    @pytest.mark.parametrize("shape", [(4,), (4, 2), (1, 4, 3)])
    def test_records_are_an_l_by_3_array(self, shape):
        with pytest.raises(ValueError, match=r"\(L, 3\)"):
            DesignCircuit(3, np.zeros(shape, dtype=np.int64))

    def test_n1_fallback(self, rng):
        cfg = SamplerConfig(n=1, delta=0.25)
        keys = {action_key(sample_design_circuit(cfg, rng)) for _ in range(400)}
        all_keys = {action_key(c) for c in all_single_qubit_circuits()}
        assert keys == all_keys

    def test_symplectic_after_sampling(self, rng):
        for n in (2, 3, 5):
            cfg = SamplerConfig(n=n, delta=0.3)
            c = sample_design_circuit(cfg, rng)
            t = Tableau(n)
            t.apply_circuit(c)
            assert t.symplectic_ok()

    def test_second_moment_band_n2(self):
        # composition of uniform 2q fragments is exactly uniform at n = 2,
        # so the sampled second moment must sit inside the (1 +/- delta) M2
        # band up to Monte-Carlo error
        rng = random.Random(7)
        cfg = SamplerConfig(n=2, delta=0.01)
        samples = 20000
        total = total_sq = 0.0
        for _ in range(samples):
            c = sample_design_circuit(cfg, rng)
            v = basis_overlap_prob(c, "00", "00")
            total += v
            total_sq += v * v
        mean2 = total / samples
        mean4 = total_sq / samples
        assert abs(mean2 - 0.25) < 4 * math.sqrt((mean4 - mean2 ** 2) / samples)
        assert abs(mean4 - 0.1) < 0.004

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SamplerConfig(n=2, delta=1.5)
        with pytest.raises(ValueError):
            SamplerConfig(n=2, delta=0.5, depth_factor=0)


class TestUniformClifford:
    def test_n1_exhaustive_mean(self):
        circs = all_single_qubit_circuits()
        m2 = sum(Fraction(basis_overlap_prob(c, "0", "0")) for c in circs) / 24
        m4 = sum(Fraction(basis_overlap_prob(c, "0", "0")) ** 2
                 for c in circs) / 24
        assert m2 == Fraction(1, 2)
        assert m4 == Fraction(1, 3)

    def test_n1_frequencies(self):
        rng = random.Random(31)
        index_of = {action_key(c): i
                    for i, c in enumerate(all_single_qubit_circuits())}
        draws = 100_000
        counts = np.zeros(24, dtype=np.int64)
        for _ in range(draws):
            counts[index_of[action_key(sample_uniform_clifford(1, rng))]] += 1
        expected = draws / 24
        sigma = math.sqrt(draws * (1 / 24) * (23 / 24))
        assert np.max(np.abs(counts - expected)) < 5 * sigma

    def test_n2_exact_design_moment(self):
        rng = random.Random(17)
        samples = 20000
        vals = [basis_overlap_prob(sample_uniform_clifford(2, rng), "00", "00")
                for _ in range(samples)]
        mean4 = float(np.mean(np.square(vals)))
        stderr = float(np.std(np.square(vals))) / math.sqrt(samples)
        assert abs(mean4 - 0.1) < 3 * stderr + 1e-3

    def test_gate_list_is_pinned(self):
        c = sample_uniform_clifford(5, stream_rng(0xABC, 0))
        assert circuit_to_text(c) == (
            "X 4; Z 4; X 3; X 2; H 4; SDG 4; CZ 3 4; SDG 3; H 3; H 3; CZ 2 3; "
            "CNOT 2 4; H 2; CZ 2 3; SDG 2; SWAP 2 3; CZ 1 2; CNOT 1 4; "
            "CNOT 1 3; H 1; CZ 1 3; CZ 1 2; CNOT 1 4; CZ 0 4; CZ 0 3; CZ 0 2; "
            "CZ 0 1; SDG 0; CNOT 0 2; CNOT 0 1; H 0; CZ 0 4; CZ 0 3; SWAP 0 2")

    @pytest.mark.parametrize("n, digest", [
        (3, "3e779afd5edf81c3ff27b9f2a7082cad9cc15d2e96b13fc6a3b563e4782ce703"),
        (4, "68e51bd203fd3a1762789787a371856091d61745567ae305eceaa898f34d8188"),
        (5, "ff89340e563c9967e067470b6f97d73962a07fe79498d428973e41833b680a54"),
        (6, "7c5a72840e4d6d4100a806c97db232769217014ef3ce1843ae5c1c51d6503781"),
        (7, "2ba82831c2889d880d1f396497b1ce3904a57fb67170d7f1bc7b9e750adc72b3"),
        (8, "dd792d80df318b4867f35e2c0b550a5b62d09e7e2b05e64759f5fdd6cccec3fa"),
    ])
    def test_synthesized_gate_lists_are_pinned(self, n, digest):
        # eight seeded draws per n, one text per line: gate synthesis fixes
        # the seeded output of verify-maurer, lock-probe and the uniform
        # ensemble of moments and gamma
        rng = stream_rng(0xABC, n)
        text = "\n".join(circuit_to_text(sample_uniform_clifford(n, rng))
                         for _ in range(8))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_synthesis_round_trip(self, n):
        rng = random.Random(n)
        for _ in range(20):
            c = sample_uniform_clifford(n, rng)
            t = Tableau(n)
            t.apply_circuit(c)
            assert t.symplectic_ok()
            c2 = action_to_circuit(t)
            t2 = Tableau(n)
            t2.apply_circuit(c2)
            assert t2 == t

    @pytest.mark.parametrize("n", [1, 2])
    def test_basis_overlap_law_is_the_group_count(self, n):
        # the law against every element of the n = 1 and n = 2 groups
        circuits = (all_single_qubit_circuits() if n == 1 else
                    [two_qubit_table().word(w) for w in range(11520)])
        zeros = "0" * n
        counts = Counter(Fraction(basis_overlap_prob(c, zeros, zeros))
                         for c in circuits)
        law = basis_overlap_law(n)
        assert {Fraction(1, 2 ** k) if k is not None else 0:
                p * len(circuits) for k, p in law.items()} == counts

    @pytest.mark.parametrize("n, draws", [(3, 4000), (5, 2000)])
    def test_basis_overlap_law(self, n, draws):
        # C|0..0> is a uniform stabilizer state: its overlap with |0..0> is
        # 2^-k with probability [n k]_2 2^(k(k+3)/2) / N(n), and 0 else
        law = basis_overlap_law(n)
        assert all(type(p) is Fraction and p > 0 for p in law.values())
        assert sum(law.values()) == 1
        assert sum(p * Fraction(1, 2 ** k) for k, p in law.items()
                   if k is not None) == Fraction(1, 2 ** n)
        counts = dict.fromkeys(law, 0)
        rng = stream_rng(0x0C1, n)
        zeros = "0" * n
        for _ in range(draws):
            p = basis_overlap_prob(sample_uniform_clifford(n, rng), zeros,
                                   zeros)
            counts[round(-math.log2(p)) if p else None] += 1
        # bins in law order, each merged onward until it expects 5 draws
        bins = []
        expected = observed = 0.0
        for k, p in law.items():
            expected += float(p) * draws
            observed += counts[k]
            if expected >= 5:
                bins.append((expected, observed))
                expected = observed = 0.0
        if expected:
            e, o = bins.pop()
            bins.append((e + expected, o + observed))
        chi2 = sum((o - e) ** 2 / e for e, o in bins)
        assert chi2 < CHI2_999[len(bins) - 1], (chi2, bins)

    def test_n3_first_moment(self):
        # uniform Clifford is an exact 2-design: E|<0|C|0>|^2 = 1/8 at n=3
        rng = random.Random(19)
        samples = 20000
        vals = [basis_overlap_prob(sample_uniform_clifford(3, rng), "000", "000")
                for _ in range(samples)]
        mean = float(np.mean(vals))
        stderr = float(np.std(vals)) / math.sqrt(samples)
        assert abs(mean - 1 / 8) < 3 * stderr + 1e-3


class TestDerivation:
    def test_deterministic(self):
        cfg = SamplerConfig(n=4, delta=0.25)
        a = derive_circuit(42, 3, cfg)
        b = derive_circuit(42, 3, cfg)
        assert circuit_to_text(a) == circuit_to_text(b)

    def test_streams_differ(self):
        cfg = SamplerConfig(n=4, delta=0.25)
        a = derive_circuit(42, 0, cfg)
        b = derive_circuit(42, 1, cfg)
        assert circuit_to_text(a) != circuit_to_text(b)

    def test_seed_context_validation(self):
        with pytest.raises(ValueError):
            stream_rng(-1, 0)
        with pytest.raises(ValueError):
            stream_rng(1 << 128, 0)
        with pytest.raises(ValueError, match=str(1 << 64)):
            stream_rng(0, 1 << 64)

    @pytest.mark.parametrize("seed", [-1, 1 << 128], ids=["negative", "2^128"])
    def test_master_seed_out_of_range(self, seed):
        with pytest.raises(ValueError, match=f"master_seed.*{seed}"):
            stream_rng(seed, 0)

    @pytest.mark.parametrize("index", [-1, 1 << 64], ids=["negative", "2^64"])
    def test_stream_index_out_of_range(self, index):
        with pytest.raises(ValueError, match=f"stream_index.*{index}"):
            stream_rng(0, index)

    def test_streams_at_the_bounds_are_pinned(self):
        assert stream_rng(0xABC, (1 << 64) - 1).getrandbits(64) == 0x9EC45318E246C627
        assert stream_rng((1 << 128) - 1, 0).getrandbits(64) == 0xD769476B939C1E32


class TestSerialization:
    def test_example_format(self):
        c = circuit_from_text("H 0; SDG 2; CNOT 0 3", 4)
        assert circuit_to_text(c) == "H 0; SDG 2; CNOT 0 3"

    @pytest.mark.parametrize("seed", range(5))
    def test_round_trip(self, seed):
        rng = random.Random(700 + seed)
        n = rng.randrange(1, 7)
        c = random_circuit(n, 25, rng)
        text = circuit_to_text(c)
        back = circuit_from_text(text, n)
        assert circuit_to_text(back) == text
        assert action_key(back) == action_key(c)

    def test_separators_are_lenient(self):
        # runs of blanks, a tab, an empty chunk and a trailing ';' all parse
        c = circuit_from_text("H  0;  S 1\t; CNOT 0 1;;SDG 1;", 2)
        assert circuit_to_text(c) == "H 0; S 1; CNOT 0 1; SDG 1"

    @given(st.integers(0, 2 ** 32), st.data())
    @settings(max_examples=60, deadline=None)
    def test_non_canonical_spellings_parse_to_the_canonical_codes(self, seed,
                                                                  data):
        # extra blanks and tabs, leading zeros and ';' with no blank after
        # it take the full parse, and give the codes of the canonical text
        rng = random.Random(seed)
        n = rng.randrange(1, 12)
        c = random_circuit(n, 25, rng)
        blank = st.sampled_from(["", " ", "  ", "\t", " \t "])
        chunks = []
        for g in c.gates:
            words = [g.kind] + ["0" * data.draw(st.integers(0, 2)) + str(q)
                                for q in g.qubits]
            inner = [data.draw(st.sampled_from([" ", "  ", "\t"]))
                     for _ in words[1:]]
            chunks.append(data.draw(blank) + words[0] + "".join(
                a + b for a, b in zip(inner, words[1:])) + data.draw(blank))
        text = ";".join(chunks) + data.draw(st.sampled_from(["", ";", "; "]))
        canonical = circuit_to_text(c)
        parsed = circuit_from_text(text, n)
        assert parsed.codes == circuit_from_text(canonical, n).codes
        assert parsed.codes == c.codes
        assert circuit_to_text(parsed) == canonical

    def test_long_lines_are_read_in_slices(self, monkeypatch):
        # slices of a few characters, cut after their last ';' or, with
        # none, at the next one, give the codes of the whole line
        c = random_circuit(9, 300, random.Random(5))
        text = circuit_to_text(c).replace("; ", ";  ", 7)
        for size in (1, 4, 9, 50, 1 << 15):
            monkeypatch.setattr(sampling, "_SLICE", size)
            assert circuit_from_text(text, 9).codes == c.codes

    def test_leading_zeros_parse_to_the_canonical_gate(self):
        c = circuit_from_text("CNOT 01 00", 2)
        assert c.gates == [gate("CNOT", 1, 0)]
        assert circuit_to_text(c) == "CNOT 1 0"

    def test_a_gate_first_seen_in_the_text_is_parsed_once(self, monkeypatch):
        # the first chunk of a gate takes the full parse, which enters its
        # canonical text in the parse's dictionary, so its repeats are
        # looked up
        calls = []
        full = sampling._parse_gate
        monkeypatch.setattr(sampling, "_parse_gate",
                            lambda chunk: calls.append(chunk) or full(chunk))
        c = circuit_from_text("CNOT 7001 7000; CNOT 7001 7000;CNOT 7001 7000",
                              7002)
        assert calls == ["CNOT 7001 7000"]
        assert c.gates == [gate("CNOT", 7001, 7000)] * 3

    @pytest.mark.parametrize("chunk", ["H +1", "H \uff10", "H 1_0", "H -1",
                                       "H x", "FOO 1", "H"])
    def test_bad_gate_is_named(self, chunk):
        want = f"^bad gate {re.escape(repr(chunk))}: "
        with pytest.raises(ValueError, match=want):
            circuit_from_text(f"S 0; {chunk}; S 1", 2)

    def test_empty_circuit(self):
        assert circuit_to_text(CliffordCircuit(2, [])) == ""
        assert circuit_from_text("", 2).gates == []
