"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with its headline numbers (visible under
pytest -s) and enforces the stated runtime budget.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from qlock import dense, sampling
from qlock.design import (check_design, estimate_moments,
                          exhaustive_single_qubit_moments, gamma_of,
                          haar_moment)
from qlock.protocol import SecretKey, build_codebook, decrypt, encrypt
from qlock.sampling import SamplerConfig, sample_design_circuit
from qlock.security import (Measurement, PriorDistribution, SecurityParams,
                            chernoff_p1, chernoff_threshold,
                            empirical_chernoff, empirical_maurer,
                            key_length_bits, locking_probe, maurer_p2,
                            maurer_threshold)
from qlock.stabilizer import basis_overlap_prob

SEED = "0000000000000000000000000000c0de"


class Stopwatch:
    def __init__(self, budget_s):
        self.budget = budget_s
        self.start = time.perf_counter()

    def check(self):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.budget, f"took {elapsed:.1f}s > {self.budget}s"
        return elapsed


def test_criterion_01_round_trip():
    watch = Stopwatch(10.0)
    failures = 0
    cb = build_codebook(4, 8, 2 ** -4, master_seed=0xA11CE)
    for k in range(8):
        for i in range(16):
            x = format(i, "04b")
            bits, det = decrypt(cb, SecretKey(k), encrypt(cb, SecretKey(k), x))
            failures += not (det and bits == x)
    cb64 = build_codebook(64, 8, 0.5, master_seed=0xB0B, depth_factor=0.25)
    rng = random.Random(64)
    for _ in range(1000):
        x = "".join(rng.choice("01") for _ in range(64))
        k = rng.randrange(8)
        bits, det = decrypt(cb64, SecretKey(k), encrypt(cb64, SecretKey(k), x))
        failures += not (det and bits == x)
    elapsed = watch.check()
    assert failures == 0
    print(f"ACCEPTANCE 1 PASS: 128 exhaustive + 1000 fuzz round trips, "
          f"0 failures, {elapsed:.1f}s")


def test_criterion_02_tableau_dense_equivalence():
    watch = Stopwatch(30.0)
    rng = random.Random(2)
    worst = 0.0
    for n in range(2, 7):
        cfg = SamplerConfig(n=n, delta=0.25)
        for _ in range(100):
            c = sample_design_circuit(cfg, rng)
            x = "".join(rng.choice("01") for _ in range(n))
            y = "".join(rng.choice("01") for _ in range(n))
            u = dense.circuit_unitary(c)
            p_dense = abs(u[dense.basis_index(y), dense.basis_index(x)]) ** 2
            diff = abs(basis_overlap_prob(c, x, y) - p_dense)
            worst = max(worst, diff)
            assert diff < 1e-10
    elapsed = watch.check()
    print(f"ACCEPTANCE 2 PASS: 500 tableau/dense overlaps agree, "
          f"max |diff| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_exact_design_enumeration():
    est = exhaustive_single_qubit_moments()
    assert est.mean2 == Fraction(1, 2)
    assert est.mean4 == Fraction(1, 3)
    gamma = gamma_of(est)
    assert gamma == Fraction(4, 3)
    assert gamma == Fraction(2 * 2, 2 + 1)          # 2d/(d+1) at d = 2
    assert est.mean4 == haar_moment(2, 2)
    print("ACCEPTANCE 3 PASS: exact enumeration gives 1/2, 1/3, gamma = 4/3")


def test_criterion_04_design_certification():
    watch = Stopwatch(60.0)
    rng = random.Random(4)
    cfg = SamplerConfig(n=2, delta=0.01)
    est = estimate_moments(cfg, "BASIS", "00", "00", 100_000, rng)
    report = check_design(est, 0.01, z=3.0)
    elapsed = watch.check()
    assert report.passed, report
    assert float(haar_moment(1, 4)) == 0.25
    assert float(haar_moment(2, 4)) == 0.1
    print(f"ACCEPTANCE 4 PASS: mean2 = {est.mean2:.5f}, mean4 = "
          f"{est.mean4:.5f} inside (1 +/- 0.01) bands, {elapsed:.1f}s")


def test_criterion_05_bound_threshold_identities():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(2, 13)
        eps = 10 ** rng.uniform(-9, -0.4)
        p_max = 2.0 ** (-rng.uniform(0.5, 1.0) * n)
        M = rng.randrange(1, (1 << n) + 1)
        gamma = rng.uniform(1.0, 6.0)
        params = SecurityParams(n=n, epsilon=eps, p_max=p_max, M=M,
                                gamma=gamma)
        p1 = chernoff_p1(params, chernoff_threshold(params)).bound
        p2 = maurer_p2(params, maurer_threshold(params)).bound
        assert abs(p1 - 1.0) <= 1e-12
        assert abs(p2 - 1.0) <= 1e-12
    print("ACCEPTANCE 5 PASS: P1 = P2 = 1 exactly at both threshold "
          "branches for 20 random parameter tuples")


def test_criterion_06_fig2_reproduction():
    watch = Stopwatch(1.0)
    eps = 1e-8

    def logk(n, frac):
        p_max = Fraction(1, 1 << n) if frac == 1.0 else 2.0 ** (-frac * n)
        params = SecurityParams(n=n, epsilon=eps, p_max=p_max, M=1 << n,
                                gamma=2.0)
        return key_length_bits(params)[0]

    crossover = None
    prev_above = True
    for n in range(8, 257):
        above = logk(n, 1.0) >= 2 * n
        if prev_above and not above:
            assert crossover is None
            crossover = n
        prev_above = above
    assert crossover is not None and 40 <= crossover <= 70
    for n in range(crossover, 257):
        assert logk(n, 1.0) < 2 * n
    base = logk(128, 1.0)
    assert abs((logk(128, 0.6) - base) - 0.4 * 128) < 2.0
    assert abs((logk(128, 0.8) - base) - 0.2 * 128) < 2.0
    elapsed = watch.check()
    print(f"ACCEPTANCE 6 PASS: crossover at n* = {crossover}, offsets "
          f"0.4n/0.2n within 2 bits at n = 128, {elapsed:.2f}s")


def test_criterion_07_empirical_chernoff():
    watch = Stopwatch(300.0)
    prior = PriorDistribution(n=3)
    params = SecurityParams.from_prior(prior, epsilon=0.1)
    K = math.ceil(chernoff_threshold(params))
    assert K == 832
    report = empirical_chernoff(3, K, prior, trials=100, seed=7, epsilon=0.1)
    elapsed = watch.check()
    assert report.violation_freq <= 0.05
    assert report.p1_bound <= 1.0
    lam = max(t.lambda_max for t in report.trials)
    print(f"ACCEPTANCE 7 PASS: K = {K}, 100 codebooks, violation freq = "
          f"{report.violation_freq:.3f} <= 5%, max lambda = {lam:.6f}, "
          f"{elapsed:.0f}s")


def test_criterion_07_sparse_prior_chernoff():
    # companion to criterion 7 that can fail: under a sparse prior rho_E is
    # not I/d, so dropped prior weights show as epsilon_hat ~ 0 and a wrong
    # push as violations of the (1 + eps) 2^-n threshold
    watch = Stopwatch(60.0)
    prior = PriorDistribution(n=3, entries=[("000", 0.5), ("011", 0.25),
                                            ("101", 0.25)])
    params = SecurityParams.from_prior(prior, epsilon=0.1)
    K = math.ceil(chernoff_threshold(params))
    assert K == 3328
    report = empirical_chernoff(3, K, prior, trials=30, seed=7, epsilon=0.1)
    elapsed = watch.check()
    assert report.violation_freq <= 0.05
    eps_hat = [t.epsilon_hat for t in report.trials]
    assert min(eps_hat) > 0.01
    print(f"ACCEPTANCE 7 (sparse prior) PASS: K = {K}, 30 codebooks, "
          f"violation freq = {report.violation_freq:.3f} <= 5%, epsilon_hat "
          f"in [{min(eps_hat):.4f}, {max(eps_hat):.4f}], {elapsed:.1f}s")


def test_criterion_08_empirical_maurer():
    watch = Stopwatch(60.0)
    report = empirical_maurer(1, 50, "0", "0", trials=10_000, seed=8,
                              tau=0.5, gamma=4 / 3)
    elapsed = watch.check()
    bound = math.exp(-50 * 0.25 / (2 * 4 / 3))
    assert report.bound == pytest.approx(bound)
    sigma = math.sqrt(bound * (1 - bound) / 10_000)
    assert report.tail_freq <= bound + 3 * sigma
    print(f"ACCEPTANCE 8 PASS: tail freq = {report.tail_freq:.5f} <= "
          f"{bound:.5f} + 3 sigma, {elapsed:.1f}s")


def test_criterion_09_locking_gap():
    watch = Stopwatch(120.0)
    # sampled shallow design codebook at n = 4
    prior = PriorDistribution(n=4)
    meas = [Measurement.computational_basis(16)]
    rng = random.Random(9)
    for i in range(20):
        if i % 2 == 0:
            meas.append(Measurement.clifford_basis(4, rng))
        else:
            meas.append(Measurement.haar_basis(4, rng))
    report = locking_probe(4, 16, prior, meas, seed=7)
    assert report.holevo_bits > 1.0
    for label, mi in report.mi_rows:
        assert mi < report.holevo_bits, (label, mi)
    # exhaustive single-qubit codebook: conditionals are exactly I/2
    prior1 = PriorDistribution(n=1)
    meas1 = [Measurement.computational_basis(2)]
    for i in range(6):
        meas1.append(Measurement.haar_basis(1, rng))
    report1 = locking_probe(1, 24, prior1, meas1,
                            circuits=sampling.all_single_qubit_circuits())
    for _, mi in report1.mi_rows:
        assert mi == 0.0
    elapsed = watch.check()
    print(f"ACCEPTANCE 9 PASS: chi = {report.holevo_bits:.3f} > 1, max MI = "
          f"{max(mi for _, mi in report.mi_rows):.3f} < chi, exhaustive MIs "
          f"all 0, {elapsed:.1f}s")


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "qlock.cli", *args],
                          capture_output=True, text=True)


def test_criterion_10_cli_determinism():
    cases = [
        ("keygen", "--K", "1024", "--seed", SEED),
        ("fig2", "--eps", "1e-8", "--hmin-frac", "0.8", "--n", "16:129:16",
         "--csv"),
        ("verify-maurer", "--n", "1", "--tau", "0.5", "--K", "30",
         "--trials", "400", "--seed", SEED, "--csv", "--jobs", "1"),
        ("verify-maurer", "--n", "1", "--tau", "0.5", "--K", "30",
         "--trials", "400", "--seed", SEED, "--csv", "--jobs", "3"),
        ("verify-chernoff", "--n", "2", "--eps", "0.1", "--K", "30",
         "--trials", "6", "--seed", SEED, "--csv", "--jobs", "2"),
        ("lock-probe", "--n", "3", "--K", "8", "--bases", "6", "--seed",
         SEED, "--csv"),
    ]
    for args in cases:
        a = _run_cli(*args)
        b = _run_cli(*args)
        assert a.returncode == 0, a.stderr
        assert a.stdout == b.stdout, args
    # worker count must not change the trial stream either
    jobs1 = _run_cli(*cases[2])
    jobs3 = _run_cli(*cases[3])
    assert jobs1.stdout == jobs3.stdout
    print("ACCEPTANCE 10 PASS: repeated seeded invocations byte-identical, "
          "including multi-worker runs")
