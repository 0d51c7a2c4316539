import csv
import hashlib
import io
import math
import subprocess
import sys

import pytest

SEED = "00000000000000000000000000000abc"


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "qlock.cli", *args],
                          capture_output=True, text=True)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows, "no CSV output"
    return rows


class TestBasics:
    def test_keygen(self):
        res = run_cli("keygen", "--K", "256", "--seed", SEED)
        assert res.returncode == 0
        assert 0 <= int(res.stdout.strip()) < 256

    def test_unknown_subcommand_exits_1(self):
        res = run_cli("frobnicate")
        assert res.returncode == 1
        assert "usage" in res.stderr.lower()

    def test_malformed_flag_exits_1(self):
        res = run_cli("keygen", "--K", "notanumber")
        assert res.returncode == 1

    def test_validation_error_exits_1(self):
        res = run_cli("codebook", "--n", "2", "--K", "2", "--delta", "7",
                      "--seed", SEED)
        assert res.returncode == 1

    def test_numerical_failure_exits_2(self, monkeypatch):
        from qlock import cli
        from qlock.dense import NumericalError

        def boom(args):
            raise NumericalError("did not converge")

        monkeypatch.setitem(cli.build_parser.__globals__, "_cmd_keygen", boom)
        assert cli.main(["keygen", "--K", "4", "--seed", SEED]) == 2

    def test_import_does_not_load_the_process_pool(self):
        # only a run of two or more --jobs chunks imports the pool modules
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, qlock.cli; print(sorted(m for m in "
             "('concurrent.futures.process', 'multiprocessing') "
             "if m in sys.modules))"],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"


class TestInputValidation:
    @pytest.mark.parametrize("args, needle", [
        (("verify-chernoff", "--n", "2", "--eps", "0.1", "--K", "4",
          "--trials", "2", "--jobs", "0"), "jobs"),
        (("verify-maurer", "--n", "1", "--tau", "0.5", "--K", "4",
          "--trials", "2", "--jobs", "-2"), "jobs"),
        (("verify-maurer", "--n", "1", "--tau", "0.5", "--K", "4",
          "--trials", "0"), "trials"),
        (("verify-chernoff", "--n", "2", "--eps", "0.1", "--K", "0",
          "--trials", "2"), "K"),
        (("verify-maurer", "--n", "1", "--tau", "0.5", "--K", "0",
          "--trials", "2"), "K"),
        (("lock-probe", "--n", "2", "--K", "0", "--bases", "1"), "K"),
        (("verify-maurer", "--n", "0", "--tau", "0.5", "--K", "2",
          "--trials", "2"), "n=0"),
        (("verify-maurer", "--n", "-1", "--tau", "0.5", "--K", "2",
          "--trials", "2"), "n=-1"),
        (("codebook", "--n", "3", "--K", "2", "--depth-factor", "inf"),
         "depth_factor"),
        (("codebook", "--n", "3", "--K", "2", "--depth-factor", "nan"),
         "depth_factor"),
        (("moments", "--n", "2", "--samples", "10", "--depth-factor", "inf"),
         "depth_factor"),
        (("verify-chernoff", "--n", "2", "--eps", "0.1", "--K", "4",
          "--trials", "1", "--depth-factor", "inf"), "depth_factor"),
        (("lock-probe", "--n", "2", "--K", "2", "--bases", "1",
          "--depth-factor", "inf"), "depth_factor"),
        (("keylen", "--n", "8", "--gamma", "inf"), "gamma"),
        (("keylen", "--n", "8", "--gamma", "nan"), "gamma"),
        (("lock-probe", "--n", "2", "--K", "2", "--bases", "-1"), "bases"),
        (("fig2", "--n", "5:1"), "n range"),
        # int() reads these as 2 and 10; a range part is decimal digits
        (("fig2", "--n", "+2:4"), "error: bad range '+2:4'"),
        (("fig2", "--n", "1_0"), "error: bad range '1_0'"),
        (("moments", "--n", "2", "--samples", "10", "--z", "-1"), "z"),
        (("moments", "--n", "2", "--samples", "10", "--z", "nan"), "z"),
        (("lock-probe", "--n", "2", "--K", "2", "--bases", "1",
          "--eps-ref", "-1"), "epsilon_reference"),
        (("verify-maurer", "--n", "2", "--tau", "0.5", "--K", "2",
          "--trials", "2", "--x", "012"), "x must be a 2-bit"),
        (("verify-maurer", "--n", "2", "--tau", "0.5", "--K", "2",
          "--trials", "2", "--x", "0"), "x must be a 2-bit"),
        (("keygen", "--K", "4", "--seed", "zz"), "--seed"),
        # int(t, 16) reads these as 16, 16, 1 and 0; a seed is hex digits
        (("keygen", "--K", "5", "--seed", "0x10"), "--seed"),
        (("keygen", "--K", "5", "--seed", "1_0"), "--seed"),
        (("keygen", "--K", "5", "--seed", " 1"), "--seed"),
        (("keygen", "--K", "5", "--seed", "-0"), "--seed"),
        (("moments", "--n", "3", "--samples", "10", "--vector-mode", "HAAR",
          "--alpha", "010"), "--alpha"),
        (("moments", "--n", "3", "--samples", "10", "--vector-mode", "HAAR",
          "--beta", "010"), "--beta"),
        (("moments", "--ensemble", "single-qubit", "--n", "5",
          "--vector-mode", "HAAR", "--alpha", "111"), "--n has no effect"),
        (("moments", "--ensemble", "single-qubit", "--samples", "10"),
         "--samples has no effect"),
        (("moments", "--ensemble", "single-qubit", "--vector-mode", "HAAR"),
         "--vector-mode HAAR has no effect"),
        (("moments", "--ensemble", "single-qubit", "--alpha", "0"),
         "--alpha has no effect"),
        (("moments", "--ensemble", "single-qubit", "--beta", "1"),
         "--beta has no effect"),
        (("moments", "--ensemble", "single-qubit", "--depth-factor", "2"),
         "--depth-factor has no effect"),
        (("gamma", "--ensemble", "single-qubit", "--n", "3"),
         "--n has no effect"),
        (("gamma", "--ensemble", "single-qubit", "--samples", "10"),
         "--samples has no effect"),
        (("moments", "--n", "2", "--samples", "10", "--alpha", "0x"),
         "--alpha must be a 2-bit string"),
        (("moments", "--ensemble", "uniform", "--n", "3", "--samples", "10",
          "--beta", "01"), "--beta must be a 3-bit string"),
        (("keylen", "--n", "8", "--hmin-frac", "2"), "--hmin-frac"),
        (("keylen", "--n", "8", "--hmin-frac", "inf"), "--hmin-frac"),
        (("keylen", "--n", "8", "--hmin-frac", "-1"), "--hmin-frac"),
        (("keylen", "--n", "8", "--hmin-frac", "nan"), "--hmin-frac"),
        (("fig2", "--n", "4:9:2", "--hmin-frac", "1.5", "--csv"),
         "--hmin-frac"),
        # every overlap of these 3 design circuits with |0..0> is 0
        (("moments", "--ensemble", "design", "--n", "13", "--samples", "3",
          "--delta", "0.5"), "every sampled overlap was 0"),
        (("gamma", "--ensemble", "design", "--n", "13", "--samples", "3",
          "--delta", "0.5"), "every sampled overlap was 0"),
        # checked before the 2^13 x 2^13 bases are built
        (("lock-probe", "--n", "13", "--K", "2", "--bases", "1"),
         "error: n=13 exceeds the dense cutoff 12"),
        # 1 / delta overflows to inf, or depth_factor * n * (...) does, so
        # the fragment count L is not finite
        (("codebook", "--n", "2", "--K", "1", "--delta", "1e-320"),
         "delta=1e-320 and depth_factor=1.0 give an infinite"),
        (("moments", "--n", "2", "--samples", "10", "--delta", "1e-320"),
         "delta=1e-320 and depth_factor=1.0 give an infinite"),
        (("gamma", "--n", "2", "--samples", "10", "--delta", "1e-320"),
         "delta=1e-320 and depth_factor=1.0 give an infinite"),
        (("verify-chernoff", "--n", "2", "--eps", "0.1", "--K", "2",
          "--trials", "1", "--delta", "1e-320"),
         "delta=1e-320 and depth_factor=1.0 give an infinite"),
        (("lock-probe", "--n", "2", "--K", "2", "--bases", "0",
          "--delta", "1e-320"),
         "delta=1e-320 and depth_factor=0.05 give an infinite"),
        (("codebook", "--n", "2", "--K", "1", "--depth-factor", "1e308"),
         "delta=0.0625 and depth_factor=1e+308 give an infinite"),
        (("moments", "--ensemble", "uniform", "--n", "-1", "--samples", "3"),
         "need at least one qubit, got --n -1"),
        (("moments", "--ensemble", "uniform", "--n", "0", "--samples", "3"),
         "need at least one qubit, got --n 0"),
        (("gamma", "--ensemble", "uniform", "--n", "-1", "--samples", "3"),
         "need at least one qubit, got --n -1"),
        (("gamma", "--ensemble", "uniform", "--n", "0", "--samples", "3"),
         "need at least one qubit, got --n 0"),
        # options the command would ignore; the depth factor is not read
        # at all, so even a bad one is rejected as unused
        (("moments", "--ensemble", "uniform", "--n", "2", "--samples", "3",
          "--depth-factor", "2"), "--depth-factor has no effect with "
         "--ensemble uniform"),
        (("moments", "--ensemble", "uniform", "--depth-factor", "-3"),
         "--depth-factor has no effect with --ensemble uniform"),
        (("gamma", "--ensemble", "uniform", "--depth-factor", "nan"),
         "--depth-factor has no effect with --ensemble uniform"),
        (("keylen", "--n", "8", "--gamma", "3", "--delta", "0.1"),
         "--delta has no effect with --gamma"),
        (("fig2", "--n", "4:9:2", "--gamma", "3", "--delta", "0.1"),
         "--delta has no effect with --gamma"),
        (("keylen", "--n", "8", "--pmax", "0.01", "--hmin-frac", "0.5"),
         "--hmin-frac has no effect with --pmax"),
        (("fig2", "--n", "4:9:2", "--pmax", "0.1", "--hmin-frac", "1"),
         "--hmin-frac has no effect with --pmax"),
        # no prior over M words has p_max < 1/M, and n bits give M <= 2^n
        (("keylen", "--n", "8", "--pmax", "0.001"),
         "p_max = 0.001 (--pmax, --hmin-frac) is below 1/M for M = 256"),
        (("keylen", "--n", "8", "--M", "16"),
         "p_max = 0.00390625 (--pmax, --hmin-frac) is below 1/M for M = 16"),
        (("fig2", "--n", "4:9:2", "--pmax", "0.01"),
         "p_max = 0.01 (--pmax, --hmin-frac) is below 1/M for M = 16"),
        (("keylen", "--n", "8", "--M", "1000"),
         "--M must be at most 2^n = 256 code words of n = 8 bits, got 1000"),
        (("keylen", "--n", "8", "--M", "257", "--pmax", "0.5"),
         "--M must be at most 2^n = 256"),
    ], ids=["jobs-0", "jobs-negative", "trials-0", "chernoff-K-0",
            "maurer-K-0", "lock-probe-K-0", "maurer-n-0", "maurer-n-negative",
            "codebook-depth-inf", "codebook-depth-nan", "moments-depth-inf",
            "chernoff-depth-inf", "lock-probe-depth-inf", "keylen-gamma-inf",
            "keylen-gamma-nan", "lock-probe-bases-negative", "fig2-empty-range",
            "fig2-range-plus-sign", "fig2-range-underscore",
            "moments-z-negative", "moments-z-nan",
            "lock-probe-eps-ref-negative", "maurer-x-not-bits",
            "maurer-x-short", "seed-not-hex", "seed-0x-prefix",
            "seed-underscore", "seed-blank", "seed-minus-zero",
            "haar-alpha", "haar-beta",
            "single-qubit-n", "single-qubit-samples",
            "single-qubit-haar", "single-qubit-alpha", "single-qubit-beta",
            "single-qubit-depth", "gamma-single-qubit-n",
            "gamma-single-qubit-samples", "alpha-not-bits",
            "uniform-beta-short", "keylen-hmin-above-1", "keylen-hmin-inf",
            "keylen-hmin-negative", "keylen-hmin-nan", "fig2-hmin-above-1",
            "moments-all-overlaps-0", "gamma-all-overlaps-0",
            "lock-probe-above-cutoff", "codebook-delta-tiny",
            "moments-delta-tiny", "gamma-delta-tiny", "chernoff-delta-tiny",
            "lock-probe-delta-tiny", "codebook-depth-huge",
            "moments-uniform-n-negative", "moments-uniform-n-0",
            "gamma-uniform-n-negative", "gamma-uniform-n-0",
            "uniform-depth", "uniform-depth-negative", "gamma-uniform-depth-nan",
            "keylen-delta-with-gamma", "fig2-delta-with-gamma",
            "keylen-hmin-with-pmax", "fig2-hmin-with-pmax",
            "keylen-pmax-below-1-over-M", "keylen-M-above-pmax-inverse",
            "fig2-pmax-below-1-over-M", "keylen-M-above-2-to-n",
            "keylen-M-above-2-to-n-with-pmax"])
    def test_bad_count_exits_1_with_one_line(self, args, needle):
        seed = () if args[0] in ("keylen", "fig2") or "--seed" in args \
            else ("--seed", SEED)
        res = run_cli(*args, *seed)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")
        assert res.stderr.count("\n") == 1
        assert needle in res.stderr

    @pytest.mark.parametrize("args", [
        ("--n", "4", "--pmax", "0.0625", "--M", "16"),
        ("--n", "8", "--pmax", "0.00390625", "--M", "256"),
        ("--n", "8", "--hmin-frac", "0.5", "--M", "200"),
        ("--n", "8", "--gamma", "3"),
        ("--n", "8", "--delta", "0.1"),
    ], ids=["pmax-times-M-is-1", "uniform-prior", "hmin-frac-with-M",
            "gamma", "delta"])
    def test_possible_bound_inputs_are_accepted(self, args):
        res = run_cli("keylen", *args)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""

    @pytest.mark.parametrize("n, memory, code", [
        (10, 1 << 33, 1), (3, 4096, 1), (2, 4096, 0), (2, None, 0)],
        ids=["n10-8GiB", "n3-one-page", "n2-one-page", "no-sysconf"])
    def test_lock_probe_states_must_fit_in_memory(self, monkeypatch, capsys,
                                                  n, memory, code):
        # the 2^n conditional states take 2^(3n+4) bytes, 16 GiB at n = 10;
        # more than physical memory exits 1, naming both sizes, before any
        # basis or circuit is made; without sysconf the probe runs
        import os
        from qlock import cli, security

        def sysconf(name):
            if memory is None:
                raise ValueError(f"unrecognized configuration name {name}")
            return {"SC_PHYS_PAGES": memory // 4096, "SC_PAGE_SIZE": 4096}[name]

        monkeypatch.setattr(os, "sysconf", sysconf)
        if code:
            def fail(*args, **kwargs):
                raise AssertionError("a basis or circuit was made")

            monkeypatch.setattr(security.Measurement, "computational_basis",
                                fail)
            monkeypatch.setattr(security, "locking_probe", fail)
        assert cli.main(["lock-probe", "--n", str(n), "--K", "2", "--bases",
                         "0", "--seed", SEED]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f" {16 << 3 * n} bytes" in err
            assert f" {memory} bytes" in err
        else:
            assert err == ""

    def test_fragment_cap_exits_before_any_draw(self, monkeypatch, capsys):
        # L = 1.2e11 at n = 2 would ask the draw for a list of 3L slots;
        # the cap rejects it before any circuit is drawn
        from qlock import cli, protocol, sampling

        def no_draw(*args):
            raise AssertionError("a circuit was drawn")

        monkeypatch.setattr(sampling, "sample_design_circuit", no_draw)
        monkeypatch.setattr(protocol, "derive_circuit", no_draw)
        assert cli.main(["codebook", "--n", "2", "--K", "1", "--depth-factor",
                         "1e10", "--seed", SEED]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: delta=0.0625 and depth_factor=10000000000.0 "
                       "give L=120000000000 fragments at n=2, above the cap "
                       "of 4194304 per circuit\n")

    @pytest.mark.parametrize("fields, needle", [
        (f"K=1 delta=0.5 seed={SEED}", "no n= field"),
        (f"n=2 K=1 delta=0.5 seed={SEED} m=1", "field 'm=1'"),
        (f"n2 K=1 delta=0.5 seed={SEED}", "field 'n2'"),
        (f"n=0 K=1 delta=0.5 seed={SEED}", "field n=0"),
        (f"n=2 K=0 delta=0.5 seed={SEED}", "field K=0"),
        (f"n=2 K=1 delta=nan seed={SEED}", "field delta=nan"),
        (f"n=2 K=1 delta=2.5 seed={SEED}", "field delta=2.5"),
        ("n=2 K=1 delta=0.5 seed=zz", "field seed=zz"),
        # int() reads these as 10, 1 and 2, and int(t, 16) takes 0x and _;
        # n and K are ASCII decimal digits and seed ASCII hex digits
        (f"n=2 K=1_0 delta=0.5 seed={SEED}", "field K=1_0"),
        (f"n=2 K=+1 delta=0.5 seed={SEED}", "field K=+1"),
        (f"n=\u0662 K=1 delta=0.5 seed={SEED}", "field n=\u0662"),
        ("n=2 K=1 delta=0.5 seed=0xabc", "field seed=0xabc"),
        ("n=2 K=1 delta=0.5 seed=0_abc", "field seed=0_abc"),
        # float() reads these as 0.25, 0.5 and 0.5; delta is what
        # repr(float) prints: ASCII digits, one '.', an e+-dd exponent
        (f"n=2 K=1 delta=0.2_5 seed={SEED}", "field delta=0.2_5"),
        (f"n=2 K=1 delta=\u0660.\u0665 seed={SEED}",
         "field delta=\u0660.\u0665"),
        (f"n=2 K=1 delta=+0.5 seed={SEED}", "field delta=+0.5"),
    ], ids=["missing", "unknown", "bare", "n-0", "K-0", "delta-nan",
            "delta-above-1", "seed-not-hex", "K-underscore", "K-plus-sign",
            "n-arabic-indic-digit", "seed-0x", "seed-underscore",
            "delta-underscore", "delta-arabic-indic-digits",
            "delta-plus-sign"])
    def test_bad_codebook_header_exits_1(self, tmp_path, fields, needle):
        path = tmp_path / "cb.txt"
        path.write_text(f"QDLCB v1 {fields}\n0: H 0\n", encoding="utf-8")
        res = run_cli("encrypt", "--codebook", str(path), "--key", "0",
                      "--x", "00")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")
        assert res.stderr.count("\n") == 1
        assert needle in res.stderr

    @pytest.mark.parametrize("header, needle", [
        ("QDLCT v1 x", "field 'x'"),
        ("QDLCT v1 n=abc", "field n=abc"),
        ("QDLCT v1 n=0", "field n=0"),
        ("QDLCT v1", "no n= field"),
        ("QDLCT v1 n=2 n=2", "field 'n=2'"),
        ("QDLCT v1 m=2", "field 'm=2'"),
        ("QDLCT v2 n=2", "bad cipher header"),
        ("QDLCT v1 n=+2", "field n=+2"),
        ("QDLCT v1 n=\u0662", "field n=\u0662"),
    ], ids=["bare", "n-not-int", "n-0", "missing", "repeated", "unknown",
            "version", "n-plus-sign", "n-arabic-indic-digit"])
    def test_bad_cipher_header_exits_1(self, tmp_path, header, needle):
        res = decrypt_files(tmp_path, f"{header}\n{IDENTITY_N2}")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")
        assert res.stderr.count("\n") == 1
        assert needle in res.stderr

    @pytest.mark.parametrize("line", ["n=x", "n=0", "n=-2", "n=+2",
                                      "n=\u0662"])
    def test_bad_tableau_header_exits_1(self, tmp_path, line):
        rows = IDENTITY_N2.replace("n=2", line)
        res = decrypt_files(tmp_path, f"QDLCT v1 n=2\n{rows}")
        assert res.returncode == 1
        assert res.stderr == f"error: bad tableau header {line!r}: " \
            "needs n=<int >= 1>\n"

    def test_bad_tableau_bits_name_the_row(self, tmp_path):
        rows = IDENTITY_N2.replace("S 00 10 +", "S 0x 10 +")
        res = decrypt_files(tmp_path, f"QDLCT v1 n=2\n{rows}")
        assert res.returncode == 1
        assert res.stderr.startswith("error: bad tableau row 2: 'S 0x 10 +'")
        assert res.stderr.count("\n") == 1

    def test_anticommuting_destabilizers_exit_1(self, tmp_path):
        # each destabilizer/stabilizer pair is right, but the destabilizers
        # X0 and X1 Z0 anticommute, so these rows are no stabilizer state
        rows = IDENTITY_N2.replace("D 01 00 +", "D 01 10 +")
        res = decrypt_files(tmp_path, f"QDLCT v1 n=2\n{rows}")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == "error: rows do not form a valid tableau\n"

    @pytest.mark.parametrize("body, line", [
        ("x: H 0", "codebook line 2: expected circuit index 0, got 'x'"),
        ("0: H", "codebook line 2, circuit 0: bad gate 'H': H takes 1 "
         "qubit(s), got ()"),
        ("0: H 5", "codebook line 2, circuit 0: gate H 5 out of range for n=2"),
        ("0: H x", "codebook line 2, circuit 0: bad gate 'H x': qubit index "
         "must be ASCII decimal digits, got 'x'"),
        ("0: FOO 1", "codebook line 2, circuit 0: bad gate 'FOO 1': unknown "
         "gate kind 'FOO'"),
        # int() reads these as 1, 0 and 10; a qubit index is ASCII digits
        ("0: H +1", "codebook line 2, circuit 0: bad gate 'H +1': qubit "
         "index must be ASCII decimal digits, got '+1'"),
        ("0: H \uff10", "codebook line 2, circuit 0: bad gate 'H \uff10': "
         "qubit index must be ASCII decimal digits, got '\uff10'"),
        ("0: H 1_0", "codebook line 2, circuit 0: bad gate 'H 1_0': qubit "
         "index must be ASCII decimal digits, got '1_0'"),
        ("0: CNOT 0 0", "codebook line 2, circuit 0: bad gate 'CNOT 0 0': "
         "CNOT requires distinct qubits"),
        # int() reads both as 0; a circuit index is ASCII digits too
        ("+0: H 0", "codebook line 2: expected circuit index 0, got '+0'"),
        ("\u0660: H 0",
         "codebook line 2: expected circuit index 0, got '\u0660'"),
    ], ids=["index-not-int", "no-qubits", "qubit-high", "qubit-not-int",
            "unknown-gate", "qubit-plus-sign", "qubit-fullwidth-digit",
            "qubit-underscore", "qubits-not-distinct", "index-plus-sign",
            "index-arabic-indic-digit"])
    def test_bad_codebook_body_exits_1(self, tmp_path, body, line):
        path = tmp_path / "cb.txt"
        path.write_text(f"QDLCB v1 n=2 K=1 delta=0.5 seed={SEED}\n{body}\n",
                        encoding="utf-8")
        res = run_cli("encrypt", "--codebook", str(path), "--key", "0",
                      "--x", "00")
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == f"error: {line}\n"

    @pytest.mark.parametrize("delta", ["0.25", "1e-05", "1.5e-07"])
    def test_codebook_delta_in_repr_form_is_read(self, tmp_path, delta):
        path = tmp_path / "cb.txt"
        res = run_cli("codebook", "--n", "2", "--K", "1", "--delta", delta,
                      "--seed", SEED, "--out", str(path))
        assert res.returncode == 0
        assert f" delta={delta} " in path.read_text()
        res = run_cli("encrypt", "--codebook", str(path), "--key", "0",
                      "--x", "01")
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("x", ["012", "0", "0 1"])
    def test_bad_plaintext_exits_1(self, tmp_path, x):
        path = tmp_path / "cb.txt"
        path.write_text(f"QDLCB v1 n=2 K=1 delta=0.5 seed={SEED}\n0: H 0\n")
        res = run_cli("encrypt", "--codebook", str(path), "--key", "0",
                      "--x", x)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr == ("error: x must be a 2-bit string of 0s and 1s, "
                              f"got {x!r}\n")

    @pytest.mark.parametrize("option", [("--z", "3"), ("--vector-mode", "HAAR"),
                                        ("--alpha", "00"), ("--beta", "00")],
                             ids=["z", "vector-mode", "alpha", "beta"])
    def test_gamma_rejects_moments_only_options(self, option):
        # gamma always estimates <00|C|00> moments and reports no z-scores
        res = run_cli("gamma", "--n", "2", "--samples", "10", *option,
                      "--seed", SEED)
        assert res.returncode == 1
        assert res.stdout == ""
        assert f"unrecognized arguments: {' '.join(option)}" in res.stderr


# the n = 2 tableau of |00>: destabilizers X0, X1, stabilizers Z0, Z1
IDENTITY_N2 = "n=2\nD 10 00 +\nD 01 00 +\nS 00 10 +\nS 00 01 +\n"


def decrypt_files(tmp_path, cipher_text):
    """qlock decrypt of cipher_text with key 0 of an n = 2, K = 1 codebook."""
    cb = tmp_path / "cb.txt"
    cb.write_text(f"QDLCB v1 n=2 K=1 delta=0.5 seed={SEED}\n0: H 0\n")
    ct = tmp_path / "ct.txt"
    ct.write_text(cipher_text, encoding="utf-8")
    return run_cli("decrypt", "--codebook", str(cb), "--key", "0",
                   "--cipher", str(ct), "--seed", SEED)


class TestMaurerRange:
    def test_n1100_exits_0_with_exact_tail_flags(self, monkeypatch, capsys):
        # no n cap: tail flags come from exact sums, so n = 1100, whose
        # float cut (1 - tau) 2^-n is 0.0, runs; the uniform draw is
        # stubbed by X on qubit 0, whose overlap 0 is a tail event
        from qlock import cli, security
        from qlock.stabilizer import KIND_CODE, CliffordCircuit

        def x_on_0(n, rng):
            return CliffordCircuit(n, [KIND_CODE["X"], 0, 0])

        monkeypatch.setattr(security, "sample_uniform_clifford", x_on_0)
        code = cli.main(["verify-maurer", "--n", "1100", "--tau", "0.1",
                         "--K", "1", "--trials", "1", "--seed", "01",
                         "--csv"])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert out == ("trial,mean_overlap,tail\n0,0,true\nK=1,tau=0.1,"
                       "gamma=2,tail_freq=1,bound=0.997503122397\n")


class TestWideN:
    def test_codebook_above_n256_exits_0(self):
        # n = 300 codes take two bytes each
        res = run_cli("codebook", "--n", "300", "--K", "1", "--delta", "0.5",
                      "--depth-factor", "0.001", "--seed", "1")
        assert res.returncode == 0, res.stderr
        head, line = res.stdout.splitlines()
        assert head == f"QDLCB v1 n=300 K=1 delta=0.5 seed={1:032x}"
        assert line.startswith("0: H 54; S 97; CNOT 97 54; ")

    def test_gamma_of_a_design_at_n1030_exits_0(self):
        # d = 2^1030 is no float, so the exact 2-design gamma is taken
        # without one; 12 samples are the fewest of seed 1 with an overlap
        # that is not 0
        res = run_cli("gamma", "--ensemble", "design", "--n", "1030",
                      "--delta", "0.5", "--depth-factor", "0.00001",
                      "--samples", "12", "--seed", "1")
        assert res.returncode == 0, res.stderr
        assert "gamma_exact_2_design = 2\n" in res.stdout


class TestProtocolPipeline:
    def test_encrypt_decrypt_round_trip(self, tmp_path):
        cb = tmp_path / "cb.txt"
        ct = tmp_path / "ct.txt"
        assert run_cli("codebook", "--n", "8", "--K", "8", "--delta", "0.25",
                       "--seed", SEED, "--out", str(cb)).returncode == 0
        assert run_cli("encrypt", "--codebook", str(cb), "--key", "3",
                       "--x", "10110101", "--out", str(ct)).returncode == 0
        res = run_cli("decrypt", "--codebook", str(cb), "--key", "3",
                      "--cipher", str(ct), "--seed", SEED)
        assert res.returncode == 0
        assert res.stdout.strip() == "10110101 deterministic=true"

    def test_wrong_key_flagged(self, tmp_path):
        cb = tmp_path / "cb.txt"
        ct = tmp_path / "ct.txt"
        run_cli("codebook", "--n", "6", "--K", "4", "--delta", "0.25",
                "--seed", SEED, "--out", str(cb))
        run_cli("encrypt", "--codebook", str(cb), "--key", "0", "--x",
                "110010", "--out", str(ct))
        res = run_cli("decrypt", "--codebook", str(cb), "--key", "1",
                      "--cipher", str(ct), "--seed", SEED)
        assert res.returncode == 0
        assert res.stdout.strip().endswith("deterministic=false")


class TestCsvContracts:
    def test_fig2_csv_crossover(self):
        res = run_cli("fig2", "--eps", "1e-8", "--hmin-frac", "1.0",
                      "--n", "10:131:10", "--csv")
        assert res.returncode == 0
        rows = parse_csv(res.stdout)
        assert rows[0] == ["n", "logK_exact", "logK_asymptotic", "qotp",
                           "approx_otp", "hmin_frac", "epsilon"]
        below = {int(r[0]): float(r[1]) < float(r[3]) for r in rows[1:]}
        assert not below[40]
        assert below[70]
        assert all(below[n] for n in below if n >= 70)

    @pytest.mark.parametrize("args, keys", [
        (("fig2", "--n", "2:3", "--eps", "1e-200", "--csv"),
         ("logK_exact", "logK_asymptotic", "approx_otp")),
        (("keylen", "--n", "4", "--eps", "1e-320", "--csv"),
         ("log2_K_exact", "log2_K_asymptotic")),
    ], ids=["fig2-eps-squared-underflows", "keylen-one-over-eps-overflows"])
    def test_key_sizes_are_finite_at_tiny_eps(self, args, keys):
        res = run_cli(*args)
        assert res.returncode == 0, res.stderr
        rows = parse_csv(res.stdout)
        if args[0] == "fig2":
            values = [float(row[rows[0].index(k)]) for row in rows[1:]
                      for k in keys]
        else:
            found = dict(rows[1:])
            values = [float(found[k]) for k in keys]
        assert values and all(math.isfinite(v) for v in values)

    def test_fig2_hmin_frac_p_max_below_the_float_range(self):
        # p_max = 2^-1200 and 2^-1320 underflow as floats; both priors exist
        res = run_cli("fig2", "--n", "2000:2201:200", "--hmin-frac", "0.6",
                      "--csv")
        assert res.returncode == 0, res.stderr
        rows = parse_csv(res.stdout)[1:]
        assert [row[:2] for row in rows] == [["2000", "899.185409513"],
                                             ["2200", "979.320916323"]]
        assert all(math.isfinite(float(v)) for row in rows for v in row)

    def test_keylen_hmin_frac_p_max_below_the_float_range(self):
        res = run_cli("keylen", "--n", "1800", "--hmin-frac", "0.75", "--csv")
        assert res.returncode == 0, res.stderr
        values = dict(parse_csv(res.stdout)[1:])
        assert values["h_min"] == "1350"
        assert values["log2_K_exact"] == "549.035843099"
        assert math.isfinite(float(values["log2_K_asymptotic"]))

    def test_hmin_frac_subnormal_p_max_is_exact(self):
        # 2^-1064.25 lies below the normal float range, where a float
        # keeps only its top 10 bits
        res = run_cli("keylen", "--n", "1075", "--hmin-frac", "0.99")
        assert res.returncode == 0, res.stderr
        assert "\nh_min = 1064.25\n" in res.stdout

    def test_moments_csv(self):
        res = run_cli("moments", "--ensemble", "single-qubit", "--csv")
        rows = parse_csv(res.stdout)
        assert rows[0][0] == "ensemble"
        assert rows[1][-1] == "true"

    def test_keylen_hmin_frac_zero_prints_zero(self):
        res = run_cli("keylen", "--n", "8", "--hmin-frac", "0")
        assert res.returncode == 0
        assert "\nh_min = 0\n" in res.stdout

    def test_keylen_csv(self):
        res = run_cli("keylen", "--n", "32", "--eps", "1e-8", "--csv")
        rows = parse_csv(res.stdout)
        quantities = {r[0]: r[1] for r in rows[1:]}
        assert quantities["branch"] == "MAURER"
        assert float(quantities["P2_at_threshold"]) == 1.0


    def test_maurer_tail_flags_are_exact(self):
        # n = 1, K = 2: means are multiples of 1/4 and the cut is 1/4, so a
        # mean of exactly 0.25 is not a tail event
        res = run_cli("verify-maurer", "--n", "1", "--tau", "0.5", "--K", "2",
                      "--trials", "8", "--seed", "05", "--csv")
        rows = parse_csv(res.stdout)[1:-1]
        assert {r[2] for r in rows} <= {"true", "false"}
        assert ["0.25", "false"] in [r[1:] for r in rows]
        assert all((r[2] == "true") == (float(r[1]) < 0.25) for r in rows)


class TestDeterminism:
    def test_codebook_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.txt", "b.txt"):
            path = tmp_path / name
            run_cli("codebook", "--n", "5", "--K", "3", "--delta", "0.5",
                    "--seed", SEED, "--out", str(path))
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_codebook_bytes_are_pinned(self, tmp_path):
        # gate interning and table caching must not change the file format
        path = tmp_path / "cb.txt"
        res = run_cli("codebook", "--n", "6", "--K", "3", "--seed", SEED,
                      "--out", str(path))
        assert res.returncode == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "fdb475f2f8fb5ddf50c2fb0fa0bf65d089de3b459c684f827190d44f2da96407")

    def test_codebook_n64_bytes_are_pinned(self, tmp_path):
        # n = 64 draws its qubit pairs by random.sample's set branch
        path = tmp_path / "cb.txt"
        res = run_cli("codebook", "--n", "64", "--K", "2", "--seed", SEED,
                      "--out", str(path))
        assert res.returncode == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "b7180284ac2ad371c0aadd972a08b8aeba5da11abb1732a52d933e1652fca8a5")

    @pytest.mark.parametrize("n, K, delta, key, wrong, x, cipher_sha, out", [
        ("8", "4", "0.25", "2", "1", "10110101",
         "67a5cf937aaf45f6ddbbeefed7032496c0419e0b586ca04df44c9b8e02df047e",
         "11100001"),
        ("64", "2", "0.0625", "1", "0", "10110101110010100001111010010110"
         "00110101110010100001111010010110",
         "52ee08940cd4059e0ba586226ebce1bab8b93b5065331b8c197e4e30f7b906bd",
         "11100001001110101111111111111101"
         "00111110100001010100001010110101"),
    ], ids=["n8", "n64"])
    def test_cipher_and_decrypt_are_pinned(self, tmp_path, n, K, delta, key,
                                           wrong, x, cipher_sha, out):
        # the cipher's bytes and the seeded right- and wrong-key readouts
        cb = tmp_path / "cb.txt"
        ct = tmp_path / "ct.txt"
        assert run_cli("codebook", "--n", n, "--K", K, "--delta", delta,
                       "--seed", SEED, "--out", str(cb)).returncode == 0
        assert run_cli("encrypt", "--codebook", str(cb), "--key", key,
                       "--x", x, "--out", str(ct)).returncode == 0
        assert hashlib.sha256(ct.read_bytes()).hexdigest() == cipher_sha
        for k, want in ((key, f"{x} deterministic=true\n"),
                        (wrong, f"{out} deterministic=false\n")):
            res = run_cli("decrypt", "--codebook", str(cb), "--key", k,
                          "--cipher", str(ct), "--seed", SEED)
            assert res.returncode == 0
            assert res.stdout == want

    @pytest.mark.parametrize("args, digest", [
        (("keylen", "--n", "64", "--eps", "1e-8"),
         "8ebe17057a75c6f50966b2266f31ad057a4f8b1e8a491a1caea4645e3ca83282"),
        (("keylen", "--n", "32", "--eps", "1e-8", "--csv"),
         "82a72336235ede32b031501219d0e0877faaca0e5b114a362c589005d92f9bfa"),
        (("fig2", "--eps", "1e-8", "--hmin-frac", "1.0", "--n", "10:131:10",
          "--csv"),
         "1fb4dcfe8f00c9b6e51813f1a7d60de98845bce4726abd18d957bea790f06f44"),
        (("fig2", "--n", "1:20:3", "--hmin-frac", "0.5", "--csv"),
         "e685e9170eab30bb68db3167ac9030b67aa1bbaa5b020d703da39a017f7a35fa"),
        (("fig2", "--n", "10"),
         "b7ed4ab8acf85b5a280c7af062531fd11f0d8355b08b1ccf7f50331adfe4d664"),
        (("fig2", "--n", "10:30:10", "--csv"),
         "148eb35d12e66d4f5e0017c24debdabf9224fa926b5927ba72c522069f534268"),
    ], ids=["keylen", "keylen-csv", "fig2", "fig2-hmin-half", "fig2-single-n",
            "fig2-two-part-range"])
    def test_bound_outputs_are_pinned(self, args, digest):
        res = run_cli(*args)
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest

    @pytest.mark.parametrize("n, alpha, beta, samples, row", [
        ("2", "01", "11", "2000",
         "design,4,2000,0.241875,0.00426996688365,0.09496875,"
         "0.00300475526445,1.62329988182,2.06101418223,true"),
        ("3", "101", "011", "1000",
         "design,8,1000,0.130875,0.00368864600836,0.030734375,"
         "0.00200011663478,1.79436585542,2.06101418223,true"),
    ], ids=["n2", "n3"])
    def test_design_moments_are_pinned(self, n, alpha, beta, samples, row):
        # dense.push plus snapping prints the tableau path's bytes
        res = run_cli("moments", "--ensemble", "design", "--n", n,
                      "--samples", samples, "--alpha", alpha, "--beta", beta,
                      "--csv", "--seed", SEED)
        assert res.returncode == 0
        assert res.stdout == ("ensemble,d,samples,mean2,stderr2,mean4,stderr4,"
                              f"gamma,gamma_bound,pass\n{row}\n")

    def test_haar_moments_are_pinned(self):
        res = run_cli("moments", "--vector-mode", "HAAR", "--n", "2",
                      "--samples", "500", "--seed", SEED)
        assert res.returncode == 0
        assert res.stdout == (
            "ensemble = design\nd = 4\nsamples = 500\n"
            "mean2 = 0.246929740936\nstderr2 = 0.00868042580723\n"
            "mean4 = 0.0986491930561\nstderr4 = 0.00616442363552\n"
            "gamma = 1.61788159891\ngamma_bound = 2.06101418223\n"
            "pass = true\n")

    def test_gamma_design_is_pinned(self):
        res = run_cli("gamma", "--ensemble", "design", "--n", "2",
                      "--samples", "2000", "--seed", SEED)
        assert res.returncode == 0
        assert res.stdout == ("gamma = 1.61835141295\n"
                              "gamma_exact_2_design = 1.6\n"
                              "gamma_bound = 2.06101418223\n")

    @pytest.mark.parametrize("args, digest", [
        (("--n", "1"),
         "1864be56855b7394c16d122209c71ba8848f8231b6196076c16692806abfba6f"),
        (("--n", "2", "--x", "01"),
         "3f7f143f6e0f9e2fcc6a8b659030664b0474a8f5868e86527cb2f5b18f69c1a0"),
        (("--n", "3"),
         "1b1541cc13f84308ebb58c7b3ddced6d25c9d06fc616b2cd67bf0f1b68297335"),
        (("--n", "3", "--jobs", "2"),
         "1b1541cc13f84308ebb58c7b3ddced6d25c9d06fc616b2cd67bf0f1b68297335"),
    ], ids=["n1", "n2-x01", "n3", "n3-jobs2"])
    def test_maurer_trials_are_pinned(self, args, digest):
        # n = 1 reads the 24-entry overlap table, n >= 2 one tableau
        # overlap per uniform draw
        res = run_cli("verify-maurer", *args, "--tau", "0.5", "--K", "20",
                      "--trials", "100", "--csv", "--seed", SEED)
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest

    def test_maurer_runs_above_the_dense_cutoff(self):
        # bit-string overlaps come from the tableau, which has no cutoff
        res = run_cli("verify-maurer", "--n", "13", "--tau", "0.25", "--K",
                      "4", "--trials", "3", "--seed", "01")
        assert res.returncode == 0, res.stderr
        assert res.stdout == ("K=4\ntau=0.25\ngamma=1.99975588917\n"
                              "tail_freq=0.333333333333\n"
                              "bound=0.939405895688\n")

    def test_uniform_moments_are_pinned(self):
        res = run_cli("moments", "--ensemble", "uniform", "--n", "3",
                      "--alpha", "010", "--beta", "110", "--samples", "2000",
                      "--csv", "--seed", SEED)
        assert res.returncode == 0
        assert res.stdout == (
            "ensemble,d,samples,mean2,stderr2,mean4,stderr4,gamma,"
            "gamma_bound,pass\nuniform,8,2000,0.1251875,0.00257466282683,"
            "0.0289296875,0.00130445112707,1.84595797268,2.06101418223,"
            "true\n")

    def test_gamma_uniform_is_pinned(self):
        res = run_cli("gamma", "--ensemble", "uniform", "--n", "3",
                      "--samples", "2000", "--seed", SEED)
        assert res.returncode == 0
        assert res.stdout == ("gamma = 1.77371283563\n"
                              "gamma_exact_2_design = 1.77777777778\n"
                              "gamma_bound = 2.06101418223\n")

    @pytest.mark.parametrize("n, samples, values", [
        ("1", "300", ("2", "0.511666666667", "0.0165694386235",
                      "0.344166666667", "0.0182657212853", "1.31460280746")),
        ("13", "20", ("8192", "0.000103759765625", "2.48301337974e-05",
                      "2.30967998505e-08", "1.14203086569e-08",
                      "2.14532871972")),
    ], ids=["n1", "n13"])
    def test_tableau_path_design_moments_are_pinned(self, n, samples, values):
        # n = 1 and n above the dense cutoff take one tableau overlap per
        # drawn circuit
        d, mean2, stderr2, mean4, stderr4, gamma = values
        res = run_cli("moments", "--ensemble", "design", "--n", n,
                      "--samples", samples, "--seed", SEED)
        assert res.returncode == 0
        assert res.stdout == (
            f"ensemble = design\nd = {d}\nsamples = {samples}\n"
            f"mean2 = {mean2}\nstderr2 = {stderr2}\nmean4 = {mean4}\n"
            f"stderr4 = {stderr4}\ngamma = {gamma}\n"
            "gamma_bound = 2.06101418223\npass = true\n")

    def test_keygen_is_pinned(self):
        res = run_cli("keygen", "--K", "1000", "--seed", "abcdef")
        assert res.returncode == 0
        assert res.stdout == "260\n"

    def test_chernoff_residues_are_pinned(self):
        # every epsilon_hat residue, not just its size, is fixed by the
        # draws and the push batches
        res = run_cli("verify-chernoff", "--n", "3", "--eps", "0.1",
                      "--trials", "3", "--csv", "--seed", SEED)
        assert res.returncode == 0
        assert res.stdout == (
            "trial,lambda_max,epsilon_hat,violated\n"
            "0,0.125,8.881784197e-16,false\n"
            "1,0.125,4.4408920985e-16,false\n"
            "2,0.125,2.22044604925e-16,false\n"
            "K=832,violation_freq=0,p1_bound=0.999441697589\n")

    def test_sampled_ensemble_defaults(self):
        # n = 2 and 10 000 samples unless given
        res = run_cli("moments", "--seed", SEED)
        assert res.returncode == 0
        assert res.stdout.startswith("ensemble = design\nd = 4\n"
                                     "samples = 10000\n")
        res = run_cli("moments", "--ensemble", "uniform", "--samples", "20",
                      "--seed", SEED)
        assert res.returncode == 0
        assert res.stdout.startswith("ensemble = uniform\nd = 4\n")

    def test_in_process_calls_match_fresh_processes(self, capsys):
        # main builds its parser once per process; no call may leave state
        # in it that changes a later call, including moments' defaults
        from qlock import cli
        calls = [("moments", "--n", "3", "--samples", "50", "--vector-mode",
                  "HAAR", "--seed", SEED),
                 ("gamma", "--ensemble", "single-qubit", "--seed", SEED),
                 ("gamma", "--samples", "20", "--depth-factor", "0.5",
                  "--seed", SEED),
                 ("keylen", "--n", "8", "--hmin-frac", "0.5"),
                 ("fig2", "--n", "4:9:2", "--csv"),
                 ("keygen", "--K", "16", "--seed", SEED),
                 ("moments", "--seed", SEED)]
        for args in calls:
            assert cli.main(list(args)) == 0
            fresh = run_cli(*args)
            assert fresh.returncode == 0
            assert capsys.readouterr().out == fresh.stdout, args

    def test_verify_maurer_repeatable(self):
        args = ("verify-maurer", "--n", "1", "--tau", "0.5", "--K", "20",
                "--trials", "300", "--seed", SEED, "--csv")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_jobs_do_not_change_output(self):
        base = ("verify-maurer", "--n", "1", "--tau", "0.5", "--K", "20",
                "--trials", "200", "--seed", SEED, "--csv")
        one = run_cli(*base, "--jobs", "1")
        two = run_cli(*base, "--jobs", "2")
        assert one.stdout == two.stdout

    def test_chernoff_jobs_do_not_change_output(self):
        # K = 200 at n = 3 pushes each trial's records in two batches
        base = ("verify-chernoff", "--n", "3", "--eps", "0.1", "--K", "200",
                "--trials", "4", "--seed", SEED, "--csv")
        one = run_cli(*base, "--jobs", "1")
        two = run_cli(*base, "--jobs", "2")
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout

    def test_verify_chernoff_repeatable(self):
        args = ("verify-chernoff", "--n", "2", "--eps", "0.1", "--K", "40",
                "--trials", "4", "--seed", SEED, "--csv")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.stdout == b.stdout and a.returncode == 0

    def test_lock_probe_repeatable(self):
        args = ("lock-probe", "--n", "3", "--K", "8", "--bases", "4",
                "--seed", SEED, "--csv")
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.stdout == b.stdout and a.returncode == 0

    def test_lock_probe_output_is_pinned(self):
        # the dense kernel and the adversary-state builder may change
        # their arithmetic, but not what this seeded run prints
        res = run_cli("lock-probe", "--seed", "2a")
        assert res.returncode == 0
        lines = res.stdout.splitlines()
        assert len(lines) == 23
        assert lines[:3] == ["holevo = 1.32073014449",
                             "computational = 1.07432311883",
                             "clifford-0 = 0.268341494732"]
        assert lines[-2:] == ["haar-19 = 0.0927309066746",
                              "gap = 0.24640702566"]
