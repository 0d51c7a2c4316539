import concurrent.futures
import math
import os
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

from qlock import dense, security
from qlock.protocol import (Codebook, build_codebook, codebook_from_text,
                            codebook_to_text)
from qlock.sampling import (SamplerConfig, all_single_qubit_circuits,
                            sample_design_circuit, stream_rng)
from qlock.security import (Measurement,
                            PriorDistribution, SecurityParams,
                            _adversary_state, chernoff_p1,
                            chernoff_threshold, comparison_rows,
                            conditional_state, empirical_chernoff,
                            empirical_maurer, eve_state, holevo,
                            key_length_bits, key_threshold, locking_probe,
                            maurer_p2, maurer_threshold, measured_mi,
                            min_entropy)
from qlock.stabilizer import KIND_CODE, CliffordCircuit

from test_sampling import basis_overlap_law


def exact_maurer_tail(n, K, tau):
    """P(the mean of K overlaps |<0..0|C|0..0>|^2 < (1 - tau) 2^-n) over
    uniform Cliffords C, exactly.  Scaled by 2^n an overlap is the integer
    0 or 2^(n-k), so the tail is P(sum of K such integers < K (1 - tau)),
    by K convolutions of the law."""
    law = {0 if k is None else 2 ** (n - k): p
           for k, p in basis_overlap_law(n).items()}
    sums = {0: Fraction(1)}
    for _ in range(K):
        step = Counter()
        for total, p in sums.items():
            for v, q in law.items():
                step[total + v] += p * q
        sums = step
    cut = K * (1 - Fraction(tau))
    return sum(p for total, p in sums.items() if total < cut)


def all24_codebook():
    return Codebook(n=1, K=24, delta=0.5, master_seed=0,
                    circuits=all_single_qubit_circuits())


def identity_codebook(n, K=1):
    return Codebook(n=n, K=K, delta=0.5, master_seed=0,
                    circuits=[CliffordCircuit(n, []) for _ in range(K)])


class TestPrior:
    def test_uniform(self):
        prior = PriorDistribution(n=3)
        assert prior.p_max == Fraction(1, 8)
        assert prior.M == 8
        assert min_entropy(prior) == 3.0

    def test_sparse(self):
        prior = PriorDistribution(n=2, entries=[("00", 0.5), ("01", 0.25),
                                                ("10", 0.25)])
        assert min_entropy(prior) == pytest.approx(1.0)
        assert prior.M == 3

    def test_point_mass(self):
        prior = PriorDistribution(n=2, entries=[("11", 1.0)])
        assert min_entropy(prior) == 0.0
        # one expression for H_min: +0.0 from both, not -0.0
        assert math.copysign(1, min_entropy(prior)) == 1
        h_min = SecurityParams.from_prior(prior, 0.1).h_min
        assert math.copysign(1, h_min) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PriorDistribution(n=2, entries=[("00", 0.5)])
        with pytest.raises(ValueError):
            PriorDistribution(n=2, entries=[("00", 0.5), ("00", 0.5)])
        with pytest.raises(ValueError):
            PriorDistribution(n=2, entries=[("0", 1.0)])
        with pytest.raises(ValueError, match="^code word must be a 2-bit "
                           "string of 0s and 1s, got '0x'$"):
            PriorDistribution(n=2, entries=[("0x", 1.0)])

    @pytest.mark.parametrize("entries", [
        [("0", math.nan), ("1", 1.0)], [("0", 0.5), ("1", math.nan)],
        [("0", math.nan)]])
    def test_nan_probability_is_rejected(self, entries):
        with pytest.raises(ValueError, match="probabilities must be positive, "
                           "got nan"):
            PriorDistribution(1, entries)

    @pytest.mark.parametrize("n", [13, 64])
    def test_uniform_above_the_dense_cutoff_is_rejected(self, n):
        # raised before any of the 2^n words is listed
        with pytest.raises(ValueError, match=f"^n={n} exceeds the dense "
                           "cutoff 12$"):
            PriorDistribution(n)

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_uniform_is_its_list_of_entries(self, n):
        d = 1 << n
        listed = PriorDistribution(n, [(format(i, f"0{n}b"), 1.0 / d)
                                       for i in range(d)])
        uniform = PriorDistribution(n)
        assert uniform == listed
        assert uniform.p_max == listed.p_max == Fraction(1, d)
        assert uniform.M == listed.M == d
        assert list(uniform.items()) == list(listed.items())
        assert [x for x, _ in uniform.items()][:2] == ["0" * n,
                                                      "0" * (n - 1) + "1"]
        assert np.array_equal(uniform.probability_vector(),
                              listed.probability_vector())
        assert np.array_equal(uniform.probability_vector(), np.full(d, 1 / d))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SecurityParams(n=2, epsilon=0.0, p_max=0.5, M=2, gamma=2.0)
        with pytest.raises(ValueError):
            SecurityParams(n=2, epsilon=0.1, p_max=0.5, M=2, gamma=0.5)

    @pytest.mark.parametrize("epsilon, p_max, gamma", [
        (0.1, 0.25, 2.0), (Fraction(1, 3), Fraction(1, 7), Fraction(5, 2)),
        (1e-300, 2.0 ** -1074, 3), (0.5, 1, 1)])
    def test_inputs_are_stored_as_their_exact_fractions(self, epsilon,
                                                        p_max, gamma):
        params = SecurityParams(n=2, epsilon=epsilon, p_max=p_max, M=2,
                                gamma=gamma)
        for got, given in ((params.epsilon, epsilon), (params.p_max, p_max),
                           (params.gamma, gamma)):
            assert type(got) is Fraction
            assert got == given

    @pytest.mark.parametrize("field, message", [
        ("epsilon", "^epsilon must lie in \\(0, 1\\)$"),
        ("p_max", "^p_max must lie in \\(0, 1\\]$"),
        ("gamma", "^gamma must be a finite number >= 1, got {}$")])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_are_rejected(self, field, message, bad):
        inputs = dict(n=2, epsilon=0.1, p_max=0.5, M=2, gamma=2.0)
        inputs[field] = bad
        with pytest.raises(ValueError, match=message.format(bad)):
            SecurityParams(**inputs)


def reference_adversary_state(circuits, priors):
    """The per-circuit sum: each rho_j gains (u * w) @ u^dagger with one
    2-D matmul per circuit, the form _adversary_state had before it
    formed a push batch's terms in one batched matmul."""
    d = priors[0].shape[0]
    support = np.flatnonzero(np.any(np.stack(priors) != 0, axis=0))
    cols = np.eye(d, dtype=complex)[:, support]
    picks = []
    for p in priors:
        own = np.flatnonzero(p)
        picks.append((np.searchsorted(support, own), p[own]))
    rhos = [np.zeros((d, d), dtype=complex) for _ in priors]
    count = 0
    for stack in dense.push(circuits, cols):
        for rho, (pos, weights) in zip(rhos, picks):
            for u in stack[:, :, pos]:
                rho += (u * weights) @ u.conj().T
        count += len(stack)
    return [rho / count for rho in rhos]


def sparse_prior(d):
    p = np.zeros(d)
    p[[0, 3, d - 3]] = [0.5, 0.25, 0.25]
    return p


class TestEveState:
    def test_identity_uniform_is_maximally_mixed(self):
        rho = eve_state(identity_codebook(2), PriorDistribution(n=2))
        assert np.max(np.abs(rho - np.eye(4) / 4)) < 1e-12

    def test_all24_any_plaintext_is_maximally_mixed(self):
        for x in ("0", "1"):
            rho = conditional_state(all24_codebook(), x)
            assert np.max(np.abs(rho - np.eye(2) / 2)) < 1e-12

    def test_random_codebook_valid_density_matrix(self):
        cb = build_codebook(4, 6, 0.25, master_seed=8)
        rho = eve_state(cb, PriorDistribution(n=4))
        # raises unless rho is Hermitian, of unit trace and PSD
        dense.von_neumann_entropy(rho)

    def test_matches_prior_weighted_conditionals(self):
        cb = build_codebook(3, 4, 0.25, master_seed=15)
        prior = PriorDistribution(n=3, entries=[("000", 0.5), ("101", 0.3),
                                                ("111", 0.2)])
        p = np.zeros(8)
        for x, px in prior.items():
            p[int(x, 2)] = px
        want = np.zeros((8, 8), dtype=complex)
        for circuit in cb.circuits:
            u = dense.circuit_unitary(circuit)
            want += u @ np.diag(p) @ u.conj().T / cb.K
        assert np.max(np.abs(eve_state(cb, prior) - want)) < 1e-12
        mix = sum(px * conditional_state(cb, x) for x, px in prior.items())
        assert np.max(np.abs(mix - want)) < 1e-12

    def test_several_priors_push_each_circuit_once(self, monkeypatch):
        # a seed-built codebook holds design circuits, which are pushed as
        # one batch of records; the same codebook parsed from text holds
        # gate circuits, which are pushed one by one.  Either way every
        # circuit is pushed once, on the union of the priors' columns
        built = build_codebook(3, 5, 0.25, master_seed=21)
        parsed = codebook_from_text(codebook_to_text(built))
        xs = ["000", "011", "101", "110"]
        uniform = PriorDistribution(n=3)
        priors = ([dense.basis_vector(x).real for x in xs]
                  + [uniform.probability_vector()])
        pushes = []
        batches = []
        push = dense.apply_circuit_to_vector
        push_records = dense._push_fragments

        def counting_push(circuit, vec):
            pushes.append(vec.shape)
            return push(circuit, vec)

        def counting_batch(recs, cols):
            batches.append((recs.shape, cols.shape))
            return push_records(recs, cols)

        monkeypatch.setattr(dense, "apply_circuit_to_vector", counting_push)
        monkeypatch.setattr(dense, "_push_fragments", counting_batch)
        length = len(built.circuits[0].records)
        for cb, want_pushes, want_batches in (
                (built, [], [((5, length, 3), (8, 8))]),
                (parsed, [(8, 8)] * 5, [])):
            pushes.clear()
            batches.clear()
            states = _adversary_state(cb.circuits, priors)
            assert pushes == want_pushes
            assert batches == want_batches
            for x, rho in zip(xs, states):
                assert np.max(np.abs(rho - conditional_state(cb, x))) < 1e-12
            assert np.max(np.abs(states[-1] - eve_state(cb, uniform))) < 1e-12

    @pytest.mark.parametrize("n, K", [(2, 5), (3, 600), (4, 9)])
    def test_fragments_match_gate_circuits(self, n, K):
        # K = 600 at n = 3 spans two batches of the 8-column push
        cfg = SamplerConfig(n=n, delta=0.25)
        designs = [sample_design_circuit(cfg, stream_rng(3, k))
                   for k in range(K)]
        circuits = [CliffordCircuit(n, c.codes) for c in designs]
        d = 1 << n
        sparse = np.zeros(d)
        sparse[[0, 3, d - 3]] = [0.5, 0.25, 0.25]
        skewed = np.arange(1.0, d + 1) / (d * (d + 1) / 2)
        priors = [PriorDistribution(n=n).probability_vector(), sparse,
                  skewed, dense.basis_vector("1" * n).real]
        got = _adversary_state(iter(designs), priors)
        want = _adversary_state(circuits, priors)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["uniform", "sparse", "several"])
    def test_batched_terms_equal_the_per_circuit_sum(self, n, kind):
        # bit for bit, with K spanning two push batches and a part of a
        # third; from n = 4 the terms of a batch are formed in several
        # parts (at n = 5 of 8 circuits each), below the batch size
        d = 1 << n
        uniform = PriorDistribution(n=n).probability_vector()
        skewed = np.arange(1.0, d + 1) / (d * (d + 1) / 2)
        priors = {"uniform": [uniform], "sparse": [sparse_prior(d)],
                  "several": [uniform, sparse_prior(d), skewed,
                              dense.basis_vector("1" * n).real]}[kind]
        m = np.count_nonzero(np.any(np.stack(priors) != 0, axis=0))
        K = 2 * max(1, dense._BATCH_ENTRIES // (d * m)) + 3
        cfg = SamplerConfig(n=n, delta=0.25)
        rng = stream_rng(17, n)
        designs = [sample_design_circuit(cfg, rng) for _ in range(K)]
        got = _adversary_state(iter(designs), priors)
        want = reference_adversary_state(iter(designs), priors)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        # gate circuits, pushed one at a time, too
        gates = [CliffordCircuit(n, c.codes) for c in designs[:5]]
        for g, w in zip(_adversary_state(gates, priors),
                        reference_adversary_state(gates, priors)):
            assert np.array_equal(g, w)

    def test_empty_codebook_circuits_rejected(self):
        prior = PriorDistribution(n=1)
        with pytest.raises(ValueError):
            locking_probe(1, 0, prior, [], circuits=[])


class TestConditionalState:
    def test_k1_is_pure(self):
        cb = build_codebook(3, 1, 0.25, master_seed=2)
        rho = conditional_state(cb, "010")
        assert dense.von_neumann_entropy(rho) < 1e-8

    def test_rank_at_most_k(self):
        cb = build_codebook(3, 3, 0.25, master_seed=5)
        rho = conditional_state(cb, "000")
        vals = dense.eigvalsh(rho)
        assert (vals > 1e-9).sum() <= 3


class TestHolevo:
    def test_identity_uniform_is_n_bits(self):
        cb = identity_codebook(3)
        prior = PriorDistribution(n=3)
        conds = [conditional_state(cb, x) for x, _ in prior.items()]
        assert holevo(prior, conds) == pytest.approx(3.0, abs=1e-8)

    def test_identical_conditionals_zero(self):
        prior = PriorDistribution(n=1)
        conds = [np.eye(2) / 2, np.eye(2) / 2]
        assert holevo(prior, conds) == pytest.approx(0.0, abs=1e-10)

    def test_rank_k_lower_bound(self):
        # chi >= S(rho_E) - log2 K since each conditional has rank <= K
        cb = build_codebook(4, 16, 0.25, master_seed=33)
        prior = PriorDistribution(n=4)
        conds = [conditional_state(cb, x) for x, _ in prior.items()]
        chi = holevo(prior, conds)
        avg = sum(conds) / len(conds)
        assert chi >= dense.von_neumann_entropy(avg) - 4 - 1e-8
        assert chi >= 0.0


class TestMeasurement:
    @pytest.mark.parametrize("entries", [np.s_[:, :], np.s_[2, 1]],
                             ids=["all-nan", "one-nan"])
    def test_nan_vectors_are_rejected(self, entries):
        vectors = np.eye(4, dtype=complex)
        vectors[entries] = math.nan
        with pytest.raises(ValueError, match="not an orthonormal basis"):
            Measurement(vectors)


class TestMeasuredMI:
    def test_identity_computational_basis_full_info(self):
        cb = identity_codebook(2)
        prior = PriorDistribution(n=2)
        conds = [conditional_state(cb, x) for x, _ in prior.items()]
        meas = Measurement.computational_basis(4)
        assert measured_mi(meas, prior, conds) == pytest.approx(2.0, abs=1e-9)

    def test_maximally_mixed_conditionals_zero(self, rng):
        prior = PriorDistribution(n=2)
        conds = [np.eye(4) / 4] * 4
        for meas in (Measurement.computational_basis(4),
                     Measurement.haar_basis(2, rng),
                     Measurement.clifford_basis(2, rng)):
            assert measured_mi(meas, prior, conds) == pytest.approx(0.0, abs=1e-9)

    def test_data_processing_vs_holevo(self):
        rng = random.Random(77)
        for seed in range(4):
            n = rng.randrange(2, 5)
            cb = build_codebook(n, rng.randrange(2, 9), 0.25,
                                master_seed=1000 + seed)
            prior = PriorDistribution(n=n)
            conds = [conditional_state(cb, x) for x, _ in prior.items()]
            chi = holevo(prior, conds)
            for meas in (Measurement.computational_basis(1 << n),
                         Measurement.haar_basis(n, rng),
                         Measurement.clifford_basis(n, rng)):
                mi = measured_mi(meas, prior, conds)
                assert mi <= chi + 1e-6
                assert 0.0 <= mi <= min(n, math.log2(1 << n)) + 1e-9

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", [np.s_[:, :], np.s_[0, 0]],
                             ids=["all", "one-entry"])
    def test_non_finite_conditionals_are_rejected(self, bad, where):
        rho = np.eye(2) / 2
        rho[where] = bad
        with pytest.raises(ValueError, match="do not normalize"):
            measured_mi(Measurement.computational_basis(2),
                        PriorDistribution(1), [rho, np.eye(2) / 2])

    def test_povm_completeness_enforced(self):
        bad = np.eye(4, dtype=complex)[:, :3]
        with pytest.raises(ValueError):
            Measurement(bad)
        with pytest.raises(ValueError, match="orthonormal"):
            Measurement(2 * np.eye(4, dtype=complex))


class TestBounds:
    @staticmethod
    def random_params(seed):
        rng = random.Random(seed)
        n = rng.randrange(2, 13)
        eps = 10 ** rng.uniform(-9, -0.4)
        p_max = 2.0 ** (-rng.uniform(0.5, 1.0) * n)
        M = rng.randrange(1, (1 << n) + 1)
        gamma = rng.uniform(1.0, 6.0)
        return SecurityParams(n=n, epsilon=eps, p_max=p_max, M=M, gamma=gamma)

    @pytest.mark.parametrize("seed", range(20))
    def test_threshold_identities_exact(self, seed):
        params = self.random_params(seed)
        r1 = chernoff_p1(params, chernoff_threshold(params))
        r2 = maurer_p2(params, maurer_threshold(params))
        assert r1.exponent == 0 and r1.bound == 1.0
        assert r2.exponent == 0 and r2.bound == 1.0

    @pytest.mark.parametrize("seed", range(20))
    def test_bounds_equal_their_closed_forms(self, seed):
        # the four calculators share one (a, b) pair per bound; each must
        # equal the formula in its docstring, exactly
        params = self.random_params(seed)
        n, d = params.n, 1 << params.n
        eps = Fraction(params.epsilon)
        p_max = Fraction(params.p_max)
        gamma = Fraction(params.gamma)
        ln2 = Fraction(math.log(2.0))
        ln_net = Fraction(math.log(20.0) + n * math.log(2.0)
                          - math.log(params.epsilon))
        ln_m = Fraction(math.log(params.M))
        K = random.Random(seed).randrange(1, 10 ** 40)
        assert chernoff_p1(params, K).exponent == (
            n * ln2 - K * eps * eps / 4 / d / p_max)
        assert maurer_p2(params, K).exponent == (
            2 * d * ln_net + eps * ln_m / (4 * p_max)
            - K * eps ** 3 / (128 * gamma * p_max))
        assert chernoff_threshold(params) == 4 * n * d * p_max * ln2 / eps ** 2
        assert maurer_threshold(params) == 128 * gamma / eps ** 3 * (
            2 * d * p_max * ln_net + eps * ln_m / 4)

    def test_chernoff_monotone_in_k(self):
        params = SecurityParams(n=4, epsilon=0.1, p_max=Fraction(1, 16),
                                M=16, gamma=2.0)
        ks = [10, 100, 1000, 10000, 100000]
        bounds = [chernoff_p1(params, k).exponent for k in ks]
        assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_chernoff_pmax_monotonicity(self):
        base = SecurityParams(n=4, epsilon=0.1, p_max=0.05, M=16, gamma=2.0)
        double = SecurityParams(n=4, epsilon=0.1, p_max=0.1, M=16, gamma=2.0)
        K = 10 ** 6
        assert chernoff_p1(double, K).exponent > chernoff_p1(base, K).exponent

    def test_maurer_monotonicities(self):
        params = SecurityParams(n=3, epsilon=0.05, p_max=Fraction(1, 8),
                                M=8, gamma=2.0)
        k0 = maurer_threshold(params)
        assert maurer_p2(params, k0 * 2).exponent < 0
        bigger_gamma = SecurityParams(n=3, epsilon=0.05, p_max=Fraction(1, 8),
                                      M=8, gamma=4.0)
        assert (maurer_p2(bigger_gamma, k0).exponent
                > maurer_p2(params, k0).exponent)

    def test_k_to_infinity(self):
        params = SecurityParams(n=3, epsilon=0.05, p_max=Fraction(1, 8),
                                M=8, gamma=2.0)
        assert chernoff_p1(params, 10 ** 12).bound < 1e-15
        assert maurer_p2(params, 10 ** 18).bound == 0.0


class TestKeyThreshold:
    def test_halving_pmax_halves_chernoff_branch(self):
        a = SecurityParams(n=6, epsilon=0.01, p_max=Fraction(1, 8), M=64,
                           gamma=2.0)
        b = SecurityParams(n=6, epsilon=0.01, p_max=Fraction(1, 16), M=64,
                           gamma=2.0)
        assert chernoff_threshold(b) * 2 == chernoff_threshold(a)

    def test_smaller_epsilon_raises_both(self):
        a = SecurityParams(n=6, epsilon=0.01, p_max=Fraction(1, 64), M=64,
                           gamma=2.0)
        b = SecurityParams(n=6, epsilon=0.005, p_max=Fraction(1, 64), M=64,
                           gamma=2.0)
        assert chernoff_threshold(b) > chernoff_threshold(a)
        assert maurer_threshold(b) > maurer_threshold(a)

    def test_crossover_against_qotp(self):
        eps = 1e-8
        for n, expect_below in ((32, False), (64, True)):
            params = SecurityParams(n=n, epsilon=eps,
                                    p_max=Fraction(1, 1 << n), M=1 << n,
                                    gamma=2.0)
            logk, _ = key_length_bits(params)
            assert (logk < 2 * n) is expect_below

    def test_branch_reporting(self):
        params = SecurityParams(n=64, epsilon=1e-8,
                                p_max=Fraction(1, 1 << 64), M=1 << 64,
                                gamma=2.0)
        kt = key_threshold(params)
        assert kt.branch == "MAURER"
        assert kt.k_min == max(kt.chernoff, kt.maurer)

    def test_nonincreasing_in_hmin_and_epsilon(self):
        # p_max = 2^-Hmin: raising the min-entropy can only shrink K
        n, M = 16, 1 << 16
        hmins = [0.5 * n, 0.7 * n, 0.9 * n, float(n)]
        ks = [key_threshold(SecurityParams(n=n, epsilon=1e-6,
                                           p_max=2.0 ** (-h), M=M,
                                           gamma=2.0)).k_min
              for h in hmins]
        assert all(a >= b for a, b in zip(ks, ks[1:]))
        eps_grid = [1e-2, 1e-4, 1e-6, 1e-8]
        ks = [key_threshold(SecurityParams(n=n, epsilon=e,
                                           p_max=Fraction(1, 1 << n), M=M,
                                           gamma=2.0)).k_min
              for e in eps_grid]
        assert all(a <= b for a, b in zip(ks, ks[1:]))


class TestKeyLength:
    def test_exact_dominates_leading_term(self):
        for n in range(8, 129, 8):
            for frac in (0.6, 0.8, 1.0):
                p_max = Fraction(1, 1 << n) if frac == 1.0 \
                    else 2.0 ** (-frac * n)
                params = SecurityParams(n=n, epsilon=1e-8, p_max=p_max,
                                        M=1 << n, gamma=2.0)
                exact, asym = key_length_bits(params)
                assert exact >= n - params.h_min

    def test_sublinear_growth_vs_qotp(self):
        eps = 1e-8
        vals = {}
        for n in (64, 128):
            params = SecurityParams(n=n, epsilon=eps,
                                    p_max=Fraction(1, 1 << n), M=1 << n,
                                    gamma=2.0)
            vals[n], _ = key_length_bits(params)
        assert vals[128] - vals[64] < 2 * (128 - 64)

    def test_hmin_offset(self):
        n, eps = 128, 1e-8
        base, _ = key_length_bits(SecurityParams(
            n=n, epsilon=eps, p_max=Fraction(1, 1 << n), M=1 << n, gamma=2.0))
        low, _ = key_length_bits(SecurityParams(
            n=n, epsilon=eps, p_max=2.0 ** (-0.6 * n), M=1 << n, gamma=2.0))
        assert abs((low - base) - 0.4 * n) < 1.0

    def test_asymptotic_is_finite_where_one_over_eps_overflows(self):
        # 1/eps is inf for a subnormal eps; -log2(eps) is not
        params = SecurityParams(n=4, epsilon=1e-320, p_max=Fraction(1, 16),
                                M=16, gamma=2.0)
        exact, asym = key_length_bits(params)
        assert math.isfinite(exact)
        assert asym == pytest.approx(4 - 4 + 1 + 2 - math.log2(1e-320))


class TestComparisonRows:
    def test_qotp(self):
        assert comparison_rows(1e-8, 10)[0] == 20.0

    def test_approx_otp_value(self):
        _, approx = comparison_rows(1e-8, 10)
        assert approx == pytest.approx(10 + math.log2(10) + math.log2(1e16),
                                       abs=1e-9)

    def test_approx_otp_is_finite_where_eps_squared_underflows(self):
        # eps^2 is 0 below about 1.5e-162; -2 log2(eps) stays finite
        _, approx = comparison_rows(1e-200, 2)
        assert approx == pytest.approx(2 + 1 - 2 * math.log2(1e-200))

    def test_qotp_increment(self):
        for n in range(2, 20):
            assert comparison_rows(0.1, n)[0] - comparison_rows(0.1, n - 1)[0] == 2.0


class TestEmpiricalChernoff:
    def test_uniform_prior_never_violates(self):
        prior = PriorDistribution(n=2)
        rep = empirical_chernoff(2, 8, prior, trials=5, seed=3, epsilon=0.1)
        assert rep.violation_freq == 0.0
        for t in rep.trials:
            assert abs(t.lambda_max - 0.25) < 1e-12

    def test_k1_lambda_max_is_pmax(self):
        prior = PriorDistribution(n=1, entries=[("0", 0.7), ("1", 0.3)])
        rep = empirical_chernoff(1, 1, prior, trials=4, seed=5, epsilon=0.5)
        for t in rep.trials:
            assert t.lambda_max == pytest.approx(0.7, abs=1e-9)

    def test_jobs_do_not_change_trials(self):
        prior = PriorDistribution(n=2, entries=[("00", 0.6), ("11", 0.4)])
        one = empirical_chernoff(2, 6, prior, trials=5, seed=9, epsilon=0.1,
                                 jobs=1)
        two = empirical_chernoff(2, 6, prior, trials=5, seed=9, epsilon=0.1,
                                 jobs=2)
        assert two.trials == one.trials
        assert two.violation_freq == one.violation_freq

    def test_jobs_do_not_change_batched_trials(self):
        # two fragment batches per trial with an 8-column prior
        entries = [(format(i, "03b"), (i + 1) / 36) for i in range(8)]
        prior = PriorDistribution(n=3, entries=entries)
        one = empirical_chernoff(3, 600, prior, trials=2, seed=4,
                                 epsilon=0.1, jobs=1)
        two = empirical_chernoff(3, 600, prior, trials=2, seed=4,
                                 epsilon=0.1, jobs=2)
        assert two.trials == one.trials

    def test_all24_exhaustive_lambda_max(self):
        rho = conditional_state(all24_codebook(), "0")
        assert dense.eigvalsh(rho)[0] == pytest.approx(0.5, abs=1e-12)


class TestRunTrials:
    @pytest.mark.parametrize("jobs, cpus, workers, chunksize", [
        (8, 2, 2, 1), (3, 4, 3, 3), (2, None, 1, 4)])
    def test_workers_are_capped_at_the_cpu_count(self, monkeypatch, jobs,
                                                 cpus, workers, chunksize):
        # the chunks follow jobs, the workers stop at the CPU count; a
        # recorder stands in for the pool and maps in process, so no
        # process is started
        asked = []

        class Recorder:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                asked.append(chunksize)
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Recorder)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        args = (2, 4, "00", "00", security._basis_weight, None)
        rows = security._run_trials(security._maurer_trial, args, 7, 8, jobs)
        assert asked == [workers, chunksize]
        assert rows == security._run_trials(security._maurer_trial, args, 7,
                                            8, 1)
        assert asked == [workers, chunksize]


class TestEmpiricalMaurer:
    def test_bound_formula(self):
        rep = empirical_maurer(1, 50, "0", "0", trials=100, seed=1, tau=0.5,
                               gamma=4 / 3)
        assert rep.bound == pytest.approx(math.exp(-50 * 0.25 / (8 / 3)))

    def test_k1_tau_near_one_matches_enumeration(self):
        # single draws land below (1-tau)/2 exactly when the overlap is 0,
        # which happens for 4 of the 24 single-qubit Cliffords
        rep = empirical_maurer(1, 1, "0", "0", trials=20000, seed=2, tau=0.99)
        sigma = math.sqrt((1 / 6) * (5 / 6) / 20000)
        assert abs(rep.tail_freq - 1 / 6) < 5 * sigma

    def test_tau_zero_convention(self):
        rep = empirical_maurer(1, 5, "0", "0", trials=50, seed=3, tau=0.0)
        assert rep.tail_freq == 0.0
        assert rep.bound == 1.0

    def test_n2_path(self):
        rep = empirical_maurer(2, 10, "00", "00", trials=50, seed=4, tau=0.5)
        assert 0.0 <= rep.tail_freq <= 1.0
        assert rep.gamma == pytest.approx(8 / 5)

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_fewer_than_one_qubit(self, n):
        with pytest.raises(ValueError, match=f"qubit, got n={n}"):
            empirical_maurer(n, 2, "", "", trials=2, seed=0, tau=0.5)

    def test_tail_flags_are_exact_beyond_the_float_range(self, monkeypatch):
        # n = 1100, K = 2: H on each qubit overlaps at 2^-1100 and X on
        # qubit 0 at 0.  Scaled by 2^n the trial's sum is 1, and 1 / 2 is
        # below 1.0 - 0.25, though its float mean and the float cut
        # 0.75 * 2.0^-1100 are both 0.0
        n = 1100
        h, x = KIND_CODE["H"], KIND_CODE["X"]
        draws = iter([
            CliffordCircuit(n, chain.from_iterable((h, q, q)
                                                   for q in range(n))),
            CliffordCircuit(n, [x, 0, 0])])
        monkeypatch.setattr(security, "sample_uniform_clifford",
                            lambda n, rng: next(draws))
        rep = empirical_maurer(n, 2, "0" * n, "0" * n, trials=1, seed=0,
                               tau=0.25)
        assert rep.means == [0.0]
        assert rep.tails == [True]
        assert rep.tail_freq == 1.0
        assert rep.gamma == 2.0

    @pytest.mark.parametrize("tau", [0.1, 0.25, 0.5, 0.6, 0.9,
                                     1 - 2.0 ** -52])
    def test_tails_are_the_float_rule_while_it_is_normal(self, tau,
                                                          monkeypatch):
        # every sum 0..2K of a K = 10 trial, scaled by 2^n: its tail flag is
        # the float rule mean < (1.0 - tau) 2.0^-n wherever the mean and
        # that cut are normal floats, so no decision moved there; below the
        # normal range they round (0.9 * 2^-1022 does)
        K = 10
        monkeypatch.setattr(security, "_run_trials",
                            lambda *args: list(range(2 * K + 1)))
        for n in range(1, 1023):
            rep = empirical_maurer(n, K, "0" * n, "0" * n, trials=1, seed=0,
                                   tau=tau)
            cut = (1.0 - tau) * 2.0 ** -n
            for m, tail in zip(rep.means, rep.tails):
                if min(m, cut) >= sys.float_info.min:
                    assert tail == (m < cut), (n, m)

    def test_a_mean_on_the_float_cut_is_not_a_tail(self):
        # at n = 1, K = 10 a sum of nine halves has mean 0.45, the float
        # cut (1.0 - 0.1) / 2; the float 1.0 - 0.1 lies above the decimal
        # 0.9, so an exact comparison with it would flag those trials
        rep = empirical_maurer(1, 10, "0", "0", trials=200, seed=1, tau=0.1)
        assert (1.0 - 0.1) / 2 == 0.45
        assert 0.45 in rep.means
        assert rep.tails == [m < 0.45 for m in rep.means]
        assert 0 < rep.tail_freq < 1

    def test_means_are_exact(self):
        # basis-string overlaps are 0 or 2^-s, so every mean is a multiple
        # of 2^-n / K and a mean on the cut is not a tail event
        rep = empirical_maurer(1, 2, "0", "0", trials=64, seed=5, tau=0.5)
        assert set(rep.means) <= {0.0, 0.25, 0.5, 0.75, 1.0}
        assert 0.25 in rep.means
        assert rep.tail_freq == rep.means.count(0.0) / 64
        rep = empirical_maurer(3, 6, "010", "000", trials=200, seed=4,
                               tau=0.25)
        assert all((m * 6 * 8).is_integer() for m in rep.means)
        assert 0.0 in rep.means

    def test_vector_phi_is_dense(self):
        phi = np.array([1, 1j]) / math.sqrt(2)
        rep = empirical_maurer(1, 4, "1", phi, trials=20, seed=2, tau=0.5)
        assert all(0.0 <= m <= 1.0 for m in rep.means)

    @pytest.mark.parametrize("x, phi", [("012", "00"), ("0", "00"),
                                        ("00", "1"), ("00", "0a")])
    def test_rejects_bad_bit_strings(self, x, phi):
        with pytest.raises(ValueError, match="2-bit string"):
            empirical_maurer(2, 2, x, phi, trials=2, seed=0, tau=0.5)

    @pytest.mark.parametrize("n, K, tau, trials, tail", [
        (2, 6, 0.5, 2000, 0.02121), (3, 6, 0.25, 1000, 0.2467)])
    def test_tail_freq_matches_the_exact_tail(self, n, K, tau, trials, tail):
        exact = exact_maurer_tail(n, K, tau)
        assert float(exact) == pytest.approx(tail, abs=5e-5)
        rep = empirical_maurer(n, K, "0" * n, "0" * n, trials=trials,
                               seed=0x51, tau=tau)
        z = (rep.tail_freq - exact) / math.sqrt(exact * (1 - exact) / trials)
        assert abs(z) <= 4

    def test_bit_strings_run_above_the_dense_cutoff(self):
        # a bit-string phi takes tableau overlaps at any n; a vector phi
        # needs the dense simulator
        rep = empirical_maurer(13, 2, "0" * 13, "1" * 13, trials=2, seed=0,
                               tau=0.5)
        assert rep.trials == 2
        with pytest.raises(ValueError, match="n=13 exceeds the dense cutoff"):
            empirical_maurer(13, 2, "0" * 13, dense.basis_vector("1" * 13),
                             trials=2, seed=0, tau=0.5)

    def test_tail_freq_counts_means_below_cut(self):
        rep = empirical_maurer(2, 3, "00", "00", trials=40, seed=6, tau=0.5,
                               jobs=2)
        assert rep.tails == [m < 0.125 for m in rep.means]
        assert rep.tail_freq == sum(rep.tails) / 40


class TestLockingProbe:
    def test_identity_codebook_leaks_everything(self):
        prior = PriorDistribution(n=2)
        meas = [Measurement.computational_basis(4)]
        circuits = [CliffordCircuit(2, []) for _ in range(4)]
        rep = locking_probe(2, 4, prior, meas, circuits=circuits)
        assert rep.mi_rows[0][1] == pytest.approx(2.0, abs=1e-9)

    def test_all24_zero_information(self, rng):
        prior = PriorDistribution(n=1)
        meas = [Measurement.computational_basis(2),
                Measurement.haar_basis(1, rng),
                Measurement.clifford_basis(1, rng)]
        rep = locking_probe(1, 24, prior, meas,
                            circuits=all_single_qubit_circuits())
        assert rep.holevo_bits == pytest.approx(0.0, abs=1e-12)
        for _, mi in rep.mi_rows:
            assert mi == pytest.approx(0.0, abs=1e-12)

    def test_n4_gap(self, rng):
        prior = PriorDistribution(n=4)
        meas = [Measurement.computational_basis(16)]
        for _ in range(4):
            meas.append(Measurement.haar_basis(4, rng))
        rep = locking_probe(4, 16, prior, meas, seed=7)
        assert rep.holevo_bits > 0.0
        assert max(mi for _, mi in rep.mi_rows) < 2.0
        assert rep.gap > 0.0
