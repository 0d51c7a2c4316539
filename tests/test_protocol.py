import hashlib
import math
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from qlock import protocol
from qlock.protocol import (Codebook, SecretKey, build_codebook,
                            cipher_from_text, cipher_to_text,
                            codebook_from_text, codebook_to_text, decrypt,
                            encrypt, key_bits, keygen)
from qlock.sampling import (DesignCircuit, design_circuit_length,
                            two_qubit_table)
from qlock.stabilizer import CliffordCircuit, CliffordMap, new_basis_state


def identity_codebook(n, K):
    return Codebook(n=n, K=K, delta=0.5, master_seed=0,
                    circuits=[CliffordCircuit(n, []) for _ in range(K)])


class TestKeygen:
    def test_k1_always_zero(self, rng):
        for _ in range(20):
            assert keygen(1, rng).k == 0

    def test_key_bits(self):
        assert key_bits(256) == 8
        assert key_bits(1) == 0
        assert key_bits(9) == 4

    @pytest.mark.parametrize("bits", [53, 95])
    def test_key_bits_exact_above_float_precision(self, bits):
        # log2(2^b + 1) rounds to b in floating point; the key needs b + 1
        assert key_bits((1 << bits) + 1) == bits + 1
        assert key_bits(1 << bits) == bits

    def test_uniform_frequencies(self):
        rng = random.Random(12)
        draws = 100_000
        counts = np.zeros(16, dtype=np.int64)
        for _ in range(draws):
            counts[keygen(16, rng).k] += 1
        expected = draws / 16
        sigma = math.sqrt(draws * (1 / 16) * (15 / 16))
        assert np.max(np.abs(counts - expected)) < 5 * sigma

    def test_invalid(self, rng):
        with pytest.raises(ValueError):
            keygen(0, rng)
        with pytest.raises(ValueError):
            SecretKey(-1)


class TestCodebook:
    def test_deterministic_build(self):
        a = build_codebook(4, 8, 2 ** -4, master_seed=99)
        b = build_codebook(4, 8, 2 ** -4, master_seed=99)
        assert codebook_to_text(a) == codebook_to_text(b)

    def test_fragment_length(self):
        assert design_circuit_length(4, 2 ** -4) == 32
        cb = build_codebook(4, 8, 2 ** -4, master_seed=1)
        # each fragment contributes at least one gate
        assert all(len(c) >= 32 for c in cb.circuits)

    def test_serialization_round_trip(self):
        cb = build_codebook(3, 5, 0.25, master_seed=0xABCDEF)
        text = codebook_to_text(cb)
        back = codebook_from_text(text)
        assert codebook_to_text(back) == text
        assert back.n == 3 and back.K == 5 and back.delta == 0.25
        assert back.master_seed == 0xABCDEF

    def test_n256_round_trip_is_byte_identical(self):
        cb = build_codebook(256, 1, 0.0625, master_seed=0xABC)
        text = codebook_to_text(cb)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f3f260705a88b8687d748243effa91d6402194e3a4efda8ed3c159ef44f1acb2")
        back = codebook_from_text(text)
        assert codebook_to_text(back) == text
        assert back.circuits[0].codes == cb.circuits[0].codes

    def test_n300_codebook_round_trips_and_decrypts(self):
        # above n = 256 the codes take two bytes each, so the expansion of
        # the records writes a wider block
        cb = build_codebook(300, 2, 0.5, master_seed=1, depth_factor=0.001)
        assert cb.circuits[0].codes.typecode == "H"
        text = codebook_to_text(cb)
        back = codebook_from_text(text)
        assert codebook_to_text(back) == text
        rng = random.Random(300)
        x = "".join(rng.choice("01") for _ in range(300))
        for k in range(2):
            assert back.circuits[k].codes == cb.circuits[k].codes
            cipher = encrypt(cb, SecretKey(k), x)
            assert decrypt(back, SecretKey(k), cipher) == (x, True)
        assert decrypt(back, SecretKey(1),
                       encrypt(cb, SecretKey(0), x))[1] is False

    def test_parsed_codebook_has_the_sampled_codes(self):
        # the parse writes the codes the seed-built circuits expand to
        cb = build_codebook(4, 3, 0.25, master_seed=7)
        back = codebook_from_text(codebook_to_text(cb))
        for parsed, sampled in zip(back.circuits, cb.circuits):
            assert type(parsed) is CliffordCircuit
            assert len(parsed) == len(sampled)
            assert parsed.codes == sampled.codes
            assert parsed == sampled

    def test_non_canonical_chunks_parse_to_the_sampled_codes(self):
        cb = build_codebook(5, 3, 0.25, master_seed=8)
        # blanks and leading zeros send chunks through the full parse
        text = codebook_to_text(cb).replace(" 1;", "  01;")
        assert text != codebook_to_text(cb)
        back = codebook_from_text(text)
        assert codebook_to_text(back) == codebook_to_text(cb)
        for parsed, sampled in zip(back.circuits, cb.circuits):
            assert parsed.codes == sampled.codes

    def test_blank_padded_lines_parse_to_the_canonical_circuits(self):
        sampled = build_codebook(4, 3, 0.25, master_seed=9)
        cb = Codebook(n=4, K=3, delta=0.25, master_seed=9,
                      circuits=[sampled.circuits[0], CliffordCircuit(4, []),
                                sampled.circuits[2]])
        text = codebook_to_text(cb)
        head, *lines = text.splitlines()
        padded = [head] + [
            " \t" + ln.replace(":", ": \t", 1).replace("; ", " \t;\t ")
            + "\t " for ln in lines]
        assert padded[2] == " \t1: \t\t "
        back = codebook_from_text("\n".join(padded) + "\n")
        assert codebook_to_text(back) == text
        for parsed, want in zip(back.circuits, cb.circuits):
            assert parsed.codes == want.codes

    def test_lines_are_cut_where_splitlines_cuts_them(self):
        # the parse reads each line in place, between the places that
        # str.splitlines() would cut the file at
        rng = random.Random(11)
        alphabet = "ab:; \t\n\r\v\f\x1c\x1d\x1e\x1f\x85\u2028\u2029"
        for _ in range(3000):
            text = "".join(rng.choice(alphabet)
                           for _ in range(rng.randrange(12)))
            assert [text[a:b] for a, b in protocol._line_spans(text)] == \
                text.splitlines(), repr(text)

    def test_repr_leaves_out_the_circuits(self):
        cb = build_codebook(64, 2, 0.0625, master_seed=1)
        assert repr(cb) == ("Codebook(n=64, K=2, delta=0.0625, "
                            "master_seed=1)")

    def test_header_line(self):
        cb = build_codebook(2, 1, 0.5, master_seed=1)
        head = codebook_to_text(cb).splitlines()[0]
        assert head == f"QDLCB v1 n=2 K=1 delta=0.5 seed={1:032x}"

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_codebook(2, 0, 0.5, master_seed=1)
        with pytest.raises(ValueError):
            build_codebook(2, 1, 1.5, master_seed=1)


class TestCodebookMemory:
    @pytest.fixture(scope="class")
    def built(self):
        return build_codebook(64, 8, 0.0625, master_seed=0x5EED)

    def test_printing_holds_the_text_about_twice(self, built):
        # printing holds each circuit's text and the one joined file: about
        # twice the text, plus one circuit's gate list
        parsed = codebook_from_text(codebook_to_text(built))
        tracemalloc.start()
        try:
            text = codebook_to_text(parsed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) > 1_500_000
        assert peak < 2.2 * len(text), f"peak {peak / len(text):.2f}x the text"

    def test_parse_peaks_at_twice_the_text_and_nothing_stays(self):
        # in a fresh interpreter with the two-qubit table warm: the parse
        # of the n = 64, K = 8 codebook peaks at no more than twice its
        # text, and building, printing, parsing and compiling every key
        # leave nothing held but the text once the codebooks are dropped
        code = (
            "import gc, sys, tracemalloc\n"
            "from qlock.protocol import (build_codebook, codebook_from_text,\n"
            "                            codebook_to_text)\n"
            "from qlock.sampling import two_qubit_table\n"
            "two_qubit_table()\n"
            "tracemalloc.start()\n"
            "text = codebook_to_text(build_codebook(64, 8, 0.0625, 0x5EED))\n"
            "tracemalloc.reset_peak()\n"
            "start = tracemalloc.get_traced_memory()[0]\n"
            "book = codebook_from_text(text)\n"
            "peak = tracemalloc.get_traced_memory()[1] - start\n"
            "assert codebook_to_text(book) == text\n"
            "for k in range(book.K):\n"
            "    book.inverse_map(k)\n"
            "del book\n"
            "gc.collect()\n"
            "left = tracemalloc.get_traced_memory()[0] - sys.getsizeof(text)\n"
            "print(len(text), peak, left)\n")
        res = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        size, peak, left = map(int, res.stdout.split())
        assert size > 1_900_000
        assert peak <= 2 * size, f"parse peak {peak / size:.2f}x the text"
        assert left < 64 * 1024, f"{left} bytes left"

    def test_seed_built_circuits_keep_only_their_records(self, built):
        table = two_qubit_table()
        for circuit in built.circuits:
            assert type(circuit) is DesignCircuit
            codes = circuit.codes
            assert codes == table.expand(64, circuit.records)
            # the codes are expanded afresh on each read, never kept
            assert circuit.codes is not codes
            assert set(vars(circuit)) == {"n", "records"}


class TestEncryptDecrypt:
    def test_identity_circuit_cipher_is_basis_state(self):
        cb = identity_codebook(3, 2)
        cipher = encrypt(cb, SecretKey(1), "101")
        assert cipher == new_basis_state(3, "101")

    def test_round_trip_exhaustive_n4(self):
        cb = build_codebook(4, 8, 2 ** -4, master_seed=7)
        for k in range(8):
            for i in range(16):
                x = format(i, "04b")
                cipher = encrypt(cb, SecretKey(k), x)
                bits, det = decrypt(cb, SecretKey(k), cipher)
                assert det and bits == x

    def test_identity_codebook_any_key_deterministic(self):
        cb = identity_codebook(4, 3)
        cipher = encrypt(cb, SecretKey(0), "0110")
        bits, det = decrypt(cb, SecretKey(2), cipher)
        assert det and bits == "0110"

    def test_wrong_key_generic_nondeterministic(self):
        cb = build_codebook(6, 4, 0.25, master_seed=21)
        cipher = encrypt(cb, SecretKey(0), "000000")
        rng = random.Random(5)
        flags = [decrypt(cb, SecretKey(1), cipher, rng)[1] for _ in range(10)]
        assert not any(flags)

    def test_wrong_key_recovery_rate_n8(self):
        # C_k'^-1 C_k |x> measured in the computational basis hits x with
        # probability about 2^-8 for generic pairs
        n, trials = 8, 4000
        cb = build_codebook(n, 8, 0.25, master_seed=4)
        rng = random.Random(9)
        hits = 0
        for t in range(trials):
            x = "".join(rng.choice("01") for _ in range(n))
            k = rng.randrange(8)
            kp = (k + 1 + rng.randrange(7)) % 8
            cipher = encrypt(cb, SecretKey(k), x)
            bits, det = decrypt(cb, SecretKey(kp), cipher, rng)
            hits += bits == x
        rate = hits / trials
        sigma = math.sqrt(2 ** -n * (1 - 2 ** -n) / trials)
        assert abs(rate - 2 ** -n) < 5 * sigma + 2e-3

    def test_validation(self):
        cb = identity_codebook(2, 2)
        with pytest.raises(ValueError):
            encrypt(cb, SecretKey(5), "00")
        with pytest.raises(ValueError):
            encrypt(cb, SecretKey(0), "000")

    def test_fuzz_round_trip_n64(self):
        n = 64
        cb = build_codebook(n, 4, 0.5, master_seed=11, depth_factor=0.25)
        rng = random.Random(13)
        for _ in range(50):
            x = "".join(rng.choice("01") for _ in range(n))
            k = rng.randrange(4)
            bits, det = decrypt(cb, SecretKey(k), encrypt(cb, SecretKey(k), x))
            assert det and bits == x


class TestCodebookMaps:
    @pytest.mark.parametrize("k", [-1, 2, 3])
    def test_key_index_is_checked_by_map(self, k):
        cb = identity_codebook(2, 2)
        for lookup in (cb.map, cb.inverse_map):
            with pytest.raises(ValueError, match="^key index out of range "
                                                 "for this codebook$"):
                lookup(k)
        assert cb._maps == {}

    def test_key_is_checked_before_the_cipher_size(self):
        cb = identity_codebook(2, 2)
        with pytest.raises(ValueError, match="^key index out of range"):
            decrypt(cb, SecretKey(2), new_basis_state(3, "000"))
        with pytest.raises(ValueError, match="^cipher size mismatch$"):
            decrypt(cb, SecretKey(1), new_basis_state(3, "000"))

    @pytest.mark.parametrize("parsed", [False, True])
    def test_round_trip_compiles_each_key_once(self, parsed, monkeypatch):
        # right- and wrong-key decrypts of every key, K = 4: the inverse
        # maps are read off the forward compiles
        cb = build_codebook(5, 4, 0.25, master_seed=0x5EED)
        if parsed:
            cb = codebook_from_text(codebook_to_text(cb))
        compiled = []
        compile_ = CliffordMap.__init__

        def counting(self, circuit):
            compiled.append(circuit)
            compile_(self, circuit)

        monkeypatch.setattr(CliffordMap, "__init__", counting)
        rng = random.Random(17)
        for k in range(4):
            for x in ("00000", "10110"):
                cipher = encrypt(cb, SecretKey(k), x)
                assert decrypt(cb, SecretKey(k), cipher) == (x, True)
                for guess in range(4):
                    decrypt(cb, SecretKey(guess), cipher, rng)
        assert len(compiled) == 4
        assert all(c is cb.circuits[k] for k, c in enumerate(compiled))


class TestCipherFiles:
    def test_round_trip(self):
        cb = build_codebook(5, 3, 0.25, master_seed=3)
        cipher = encrypt(cb, SecretKey(2), "10011")
        text = cipher_to_text(cipher)
        back = cipher_from_text(text)
        assert cipher_to_text(back) == text
        bits, det = decrypt(cb, SecretKey(2), back)
        assert det and bits == "10011"

    def test_header(self):
        cipher = encrypt(identity_codebook(2, 1), SecretKey(0), "01")
        assert cipher_to_text(cipher).splitlines()[0] == "QDLCT v1 n=2"

    def test_bad_header(self):
        with pytest.raises(ValueError):
            cipher_from_text("garbage")
