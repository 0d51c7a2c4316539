import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qlock import dense
from qlock.dense import NumericalError
from qlock.design import (DesignReport, MomentEstimate, check_design,
                          estimate_moments, exhaustive_single_qubit_moments,
                          gamma_2_design, gamma_bound, gamma_of, haar_moment,
                          moments_csv_row, overlap, snap_overlaps)
from qlock.sampling import (SamplerConfig, circuit_from_text,
                            sample_design_circuit, sample_uniform_clifford)
from qlock.stabilizer import CliffordCircuit


def identity_sampler(n):
    return lambda rng: CliffordCircuit(n, [])


class TestHaarMoment:
    @pytest.mark.parametrize("l,d,want", [(1, 2, Fraction(1, 2)),
                                          (2, 2, Fraction(1, 3)),
                                          (2, 4, Fraction(1, 10))])
    def test_examples(self, l, d, want):
        assert haar_moment(l, d) == want

    @pytest.mark.parametrize("d", [2, 3, 8, 64, 4096])
    def test_closed_forms(self, d):
        assert haar_moment(1, d) == Fraction(1, d)
        assert haar_moment(2, d) == Fraction(2, d * (d + 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            haar_moment(0, 2)
        with pytest.raises(ValueError):
            haar_moment(1, 1)


class TestEstimateMoments:
    def test_identity_ensemble(self, rng):
        est = estimate_moments(identity_sampler(2), "BASIS", "00", "00",
                               200, rng)
        assert est.mean2 == 1.0 and est.mean4 == 1.0
        assert est.stderr2 == 0.0

    def test_exhaustive_single_qubit(self):
        est = exhaustive_single_qubit_moments()
        assert est.mean2 == Fraction(1, 2)
        assert est.mean4 == Fraction(1, 3)
        assert est.samples == 24
        assert est.mean4 == haar_moment(2, 2)

    def test_design_band_n2(self, rng):
        cfg = SamplerConfig(n=2, delta=0.01)
        est = estimate_moments(lambda r: sample_design_circuit(cfg, r),
                               "BASIS", "00", "00", 20000, rng)
        assert abs(est.mean2 - 0.25) < 1.01 * 0.25 * 0.01 + 3 * est.stderr2

    def test_haar_vector_mode(self, rng):
        est = estimate_moments(lambda r: sample_uniform_clifford(2, r),
                               "HAAR", None, None, 4000, rng)
        assert abs(est.mean2 - 0.25) < 5 * est.stderr2 + 2e-3

    def test_zero_samples(self, rng):
        with pytest.raises(ValueError):
            estimate_moments(identity_sampler(1), "BASIS", "0", "0", 0, rng)

    @pytest.mark.parametrize("sampler", [
        identity_sampler(2), lambda r: sample_uniform_clifford(2, r),
        SamplerConfig(n=2, delta=0.25)], ids=["identity", "uniform", "design"])
    def test_every_sampler_checks_the_basis_strings(self, sampler, rng):
        with pytest.raises(ValueError, match="^alpha must be a 2-bit string"):
            estimate_moments(sampler, "BASIS", "0x", "00", 5, rng)
        with pytest.raises(ValueError, match="^beta must be a 2-bit string"):
            estimate_moments(sampler, "BASIS", "00", "012", 5, rng)


class TestOverlap:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bit_strings_equal_their_basis_vectors(self, n, rng):
        # two bit strings take the tableau's exact value; a bit string
        # beside a vector is read as its basis vector
        for _ in range(10):
            circuit = sample_uniform_clifford(n, rng)
            alpha, beta = (format(rng.getrandbits(n), f"0{n}b")
                           for _ in range(2))
            exact = overlap(circuit, alpha, beta)
            assert exact in {0.0} | {2.0 ** -s for s in range(n + 1)}
            for a, b in ((dense.basis_vector(alpha), beta),
                         (alpha, dense.basis_vector(beta)),
                         (dense.basis_vector(alpha), dense.basis_vector(beta))):
                assert overlap(circuit, a, b) == pytest.approx(exact, abs=1e-12)

    def test_a_vector_is_dense(self):
        # |<+|H|0>|^2 = 1 and |<0|H|+>|^2 = 1
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        h = circuit_from_text("H 0", 1)
        assert overlap(h, plus, "0") == pytest.approx(1.0)
        assert overlap(h, "0", plus) == pytest.approx(1.0)
        assert overlap(h, "1", plus) == pytest.approx(0.0, abs=1e-15)


class TestPushedBasisMoments:
    # design BASIS moments at 2 <= n <= DENSE_CUTOFF come from dense.push;
    # the tableau path, circuit by circuit, is their oracle
    @pytest.mark.parametrize("n, alpha, beta, samples", [
        (2, "00", "00", 3000), (2, "01", "11", 3000), (3, "101", "011", 2500),
        (5, "10110", "00000", 400), (12, "0" * 12, "1" * 11 + "0", 3)])
    def test_equals_tableau_moments(self, n, alpha, beta, samples):
        cfg = SamplerConfig(n=n, delta=0.25, depth_factor=0.5 if n > 5 else 1)
        pushed_rng, tableau_rng = random.Random(n), random.Random(n)
        pushed = estimate_moments(cfg, "BASIS", alpha, beta, samples,
                                  pushed_rng)
        tableau = estimate_moments(lambda r: sample_design_circuit(cfg, r),
                                   "BASIS", alpha, beta, samples, tableau_rng)
        assert pushed == tableau
        assert pushed_rng.getstate() == tableau_rng.getstate()

    def test_uses_the_push(self, monkeypatch, rng):
        calls = []
        push = dense.push

        def counting_push(circuits, cols):
            calls.append(cols.shape)
            return push(circuits, cols)

        monkeypatch.setattr(dense, "push", counting_push)
        cfg = SamplerConfig(n=3, delta=0.25)
        estimate_moments(cfg, "BASIS", "000", "000", 10, rng)
        assert calls == [(8, 1)]
        estimate_moments(SamplerConfig(n=13, delta=0.5, depth_factor=0.1),
                         "BASIS", "0" * 13, "0" * 13, 2, rng)
        assert calls == [(8, 1)]

    @pytest.mark.parametrize("bits", ["0", "012", "ab"])
    def test_rejects_bad_bit_strings(self, bits, rng):
        cfg = SamplerConfig(n=2, delta=0.25)
        with pytest.raises(ValueError, match="2-bit string"):
            estimate_moments(cfg, "BASIS", bits, "00", 5, rng)
        with pytest.raises(ValueError, match="2-bit string"):
            estimate_moments(cfg, "BASIS", "00", bits, 5, rng)

    def test_snap_gives_exact_values(self):
        exact = np.array([0.0, 1.0, 0.5, 0.25, 2.0 ** -12])
        noisy = exact + np.array([3e-17, -2e-16, 1e-12, -4e-13, 5e-10])
        got = snap_overlaps(noisy, 12)
        assert got.tolist() == exact.tolist()
        assert got.tolist() == [0.0, 1.0, 0.5 ** 1, 0.5 ** 2, 0.5 ** 12]

    @pytest.mark.parametrize("value", [0.3, 0.25 + 2e-9, 2e-9, 0.5 ** 3,
                                       1.0 + 1e-6, -1e-6, math.nan, math.inf],
                             ids=["between", "near-quarter", "near-zero",
                                  "below-2^-n", "above-one", "negative", "nan",
                                  "inf"])
    def test_snap_rejects_inexact_values(self, value):
        # n = 2 allows only 0, 1/4, 1/2 and 1
        with pytest.raises(NumericalError, match="not within 1e-09"):
            snap_overlaps(np.array([0.25, value, 1.0]), 2)

    def test_perturbed_push_is_a_numerical_error(self, monkeypatch, rng):
        push = dense.push

        def shrunk(circuits, cols):
            for stack in push(circuits, cols):
                yield stack * 0.999

        monkeypatch.setattr(dense, "push", shrunk)
        with pytest.raises(NumericalError):
            estimate_moments(SamplerConfig(n=2, delta=0.25), "BASIS", "00",
                             "00", 50, rng)


class TestGamma:
    def test_single_qubit_enumeration(self):
        est = exhaustive_single_qubit_moments()
        assert gamma_of(est) == Fraction(4, 3)
        # matches the exact 2-design identity 2d/(d+1) at d=2
        assert gamma_of(est) == Fraction(2 * 2, 2 + 1)

    def test_deterministic_ensemble(self, rng):
        est = estimate_moments(identity_sampler(1), "BASIS", "0", "0", 50, rng)
        assert gamma_of(est) == 1.0

    def test_uniform_n2_monte_carlo(self, rng):
        est = estimate_moments(lambda r: sample_uniform_clifford(2, r),
                               "BASIS", "00", "00", 20000, rng)
        gamma = gamma_of(est)
        assert abs(gamma - 1.6) < 0.05

    def test_uniform_n3_monte_carlo(self, rng):
        # exact 2-design identity gamma = 2d/(d+1) = 16/9 at d = 8
        est = estimate_moments(lambda r: sample_uniform_clifford(3, r),
                               "BASIS", "000", "000", 20000, rng)
        assert abs(gamma_of(est) - 16 / 9) < 0.12

    def test_gamma_below_bound_for_certified_ensemble(self, rng):
        cfg = SamplerConfig(n=2, delta=0.01)
        est = estimate_moments(lambda r: sample_design_circuit(cfg, r),
                               "BASIS", "00", "00", 20000, rng)
        assert check_design(est, 0.01).passed
        spread = 3 * (est.stderr4 / est.mean2 ** 2
                      + 2 * est.mean4 * est.stderr2 / est.mean2 ** 3)
        assert gamma_of(est) <= gamma_bound(0.01) + spread

    def test_zero_mean(self):
        est = MomentEstimate(d=2, mean2=0.0, mean4=0.0, stderr2=0.0,
                             stderr4=0.0, samples=1)
        with pytest.raises(ValueError, match="every sampled overlap"):
            gamma_of(est)


class TestGammaExact:
    def test_matches_the_float_formula_wherever_it_is_finite(self):
        for n in range(1, 1023):
            d = 1 << n
            assert gamma_2_design(d) == 2.0 * d / (d + 1.0), n

    @pytest.mark.parametrize("n", [1023, 1024, 1030, 5000])
    def test_d_above_the_float_range_gives_2(self, n):
        # 2.0 * d overflows to inf at n = 1023, and float(d) raises above
        assert gamma_2_design(1 << n) == 2.0


class TestGammaBound:
    def test_examples(self):
        assert gamma_bound(0.0) == 2.0
        assert gamma_bound(1 / 3) == pytest.approx(6.0)

    def test_monotone(self):
        grid = [i / 50 for i in range(50)]
        vals = [gamma_bound(x) for x in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_bound(1.0)


class TestCheckDesign:
    def test_exact_design_passes(self):
        report = check_design(exhaustive_single_qubit_moments(), 0.01)
        assert isinstance(report, DesignReport)
        assert report.passed

    def test_identity_only_fails_first_moment(self, rng):
        est = estimate_moments(identity_sampler(1), "BASIS", "0", "0", 100, rng)
        report = check_design(est, 0.01)
        assert not report.checks[0].passed
        assert not report.passed

    def test_haar_mode_uniform_clifford_passes(self):
        # full-size run: 1e5 Haar vector pairs against a uniform ensemble
        rng = random.Random(5)
        est = estimate_moments(lambda r: sample_uniform_clifford(2, r),
                               "HAAR", None, None, 100_000, rng)
        assert check_design(est, 0.01).passed

    def test_gamma_within_bound_for_passing_ensembles(self, rng):
        est = exhaustive_single_qubit_moments()
        assert check_design(est, 0.01).passed
        assert gamma_of(est) <= gamma_bound(0.01)

    def test_csv_row_fields(self):
        row = moments_csv_row("exhaustive", exhaustive_single_qubit_moments(),
                              0.01)
        assert list(row) == ["ensemble", "d", "samples", "mean2", "stderr2",
                             "mean4", "stderr4", "gamma", "gamma_bound",
                             "pass"]
        assert row["pass"] is True


class TestMomentEstimateInvariants:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            MomentEstimate(d=2, mean2=0.2, mean4=0.5, stderr2=0, stderr4=0,
                           samples=10)
        with pytest.raises(ValueError):
            MomentEstimate(d=2, mean2=0.2, mean4=0.1, stderr2=0, stderr4=0,
                           samples=0)
