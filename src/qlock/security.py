"""Security analysis: adversary states, information measures, tail bounds.

The two concentration bounds and the key threshold are evaluated in exact
rational arithmetic (python fractions over float-valued log constants),
so substituting a threshold K back into its bound gives an exponent of
exactly zero and a probability of exactly one.  Natural logarithms are
used inside the bounds, exactly as the expressions are stated; entropic
quantities are reported in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import dense
from .protocol import Codebook
from .sampling import (SamplerConfig, all_single_qubit_circuits,
                       sample_design_circuit, sample_uniform_clifford,
                       stream_rng)
from .design import gamma_2_design, gamma_bound, overlap
from .stabilizer import (CliffordCircuit, basis_overlap_halvings,
                         check_bits)

Real = Union[int, float, Fraction]

_LN2 = Fraction(math.log(2.0))


def _ln_net(n: int, epsilon: Real) -> float:
    """ln(20 * 2^n / epsilon), evaluated in a fixed overflow-safe form."""
    return math.log(20.0) + n * math.log(2.0) - math.log(float(epsilon))


def _frac_log2(x: Fraction) -> float:
    if x <= 0:
        raise ValueError("log2 of a nonpositive value")
    return math.log2(x.numerator) - math.log2(x.denominator)


# -- priors and parameters ----------------------------------------------------


@dataclass
class PriorDistribution:
    """Plaintext prior: n-bit strings with positive probabilities summing
    to one.  Without entries it is uniform, all 2^n strings at 1/2^n in
    index order; every consumer of a prior is dense, so that needs
    n <= dense.DENSE_CUTOFF.
    """

    n: int
    entries: Optional[list[tuple[str, float]]] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        if self.entries is None:
            dense.check_cutoff(self.n)
            p = 1.0 / (1 << self.n)
            self.entries = [(format(i, f"0{self.n}b"), p)
                            for i in range(1 << self.n)]
        if not self.entries:
            raise ValueError("empty prior")
        seen = set()
        total = 0.0
        for x, p in self.entries:
            check_bits("code word", x, self.n)
            if x in seen:
                raise ValueError(f"duplicate code word {x!r}")
            seen.add(x)
            if not p > 0:  # NaN fails this check and the sum's
                raise ValueError(f"probabilities must be positive, got {p}")
            total += p
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"prior sums to {total}, not 1")

    @property
    def p_max(self) -> Fraction:
        return Fraction(max(p for _, p in self.entries))

    @property
    def M(self) -> int:
        return len(self.entries)

    def items(self) -> Iterable[tuple[str, float]]:
        return iter(self.entries)

    def probability_vector(self) -> np.ndarray:
        """Probabilities over the full computational basis."""
        v = np.zeros(1 << self.n)
        for x, p in self.entries:
            v[dense.basis_index(x)] = p
        return v


def _h_min(p_max: Fraction) -> float:
    """-log2 p_max in bits; 0.0 - x rather than -x, so p_max = 1 gives 0,
    not -0."""
    return 0.0 - _frac_log2(p_max)


def min_entropy(prior: PriorDistribution) -> float:
    """H_min = -log2(max_x p(x)) in bits."""
    return _h_min(prior.p_max)


@dataclass
class SecurityParams:
    """Inputs of the bound calculators.

    epsilon, p_max and gamma may be given as ints, floats or Fractions;
    once checked they are stored as the exact Fractions of those values,
    which is the form every calculator reads.  M is the number of code
    words.
    """

    n: int
    epsilon: Fraction
    p_max: Fraction
    M: int
    gamma: Fraction

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        if not 0 < self.epsilon < 1:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0 < self.p_max <= 1:
            raise ValueError("p_max must lie in (0, 1]")
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if not 1 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be a finite number >= 1, "
                             f"got {self.gamma}")
        self.epsilon = Fraction(self.epsilon)
        self.p_max = Fraction(self.p_max)
        self.gamma = Fraction(self.gamma)

    @classmethod
    def from_prior(cls, prior: PriorDistribution,
                   epsilon: Real) -> "SecurityParams":
        """Parameters of a prior, with the default gamma_bound() = 2."""
        return cls(n=prior.n, epsilon=epsilon, p_max=prior.p_max, M=prior.M,
                   gamma=gamma_bound())

    @property
    def h_min(self) -> float:
        return _h_min(self.p_max)


# -- adversary states ---------------------------------------------------------


def _adversary_state(circuits: Iterable, priors: Sequence[np.ndarray]
                     ) -> list[np.ndarray]:
    """rho_j = (1/K) sum_k C_k diag(p_j) C_k^dagger for each prior p_j.

    dense.push applies each circuit, or each batch of design circuits, to
    the union of the priors' support columns once.  Each circuit's term
    U_k diag(p_j) U_k^dagger is one matrix of a batched matmul over its
    prior's support columns of a pushed (B, d, m) stack, and the terms
    are added to rho_j in circuit order, left to right, so the sum does
    not depend on the batch size.  The circuits are consumed lazily, so a
    generator of circuits is never held in memory as a whole.
    """
    d = priors[0].shape[0]
    support = np.flatnonzero(np.any(np.stack(priors) != 0, axis=0))
    cols = np.eye(d, dtype=complex)[:, support]
    picks = []
    for p in priors:
        own = np.flatnonzero(p)
        picks.append((np.searchsorted(support, own), p[own]))
    rhos = [np.zeros((d, d), dtype=complex) for _ in priors]
    # circuits whose terms are formed at once: at most _BATCH_ENTRIES entries
    size = max(1, dense._BATCH_ENTRIES // (d * d))
    count = 0
    for stack in dense.push(circuits, cols):
        for rho, (pos, weights) in zip(rhos, picks):
            us = stack[:, :, pos]
            for lo in range(0, len(us), size):
                part = us[lo:lo + size]
                terms = (part * weights) @ part.conj().transpose(0, 2, 1)
                # rho + term_0 + term_1 + ..., added left to right
                np.add.reduce(np.concatenate([rho[None], terms]), axis=0,
                              out=rho)
        count += len(stack)
    if count == 0:
        raise ValueError("K must be >= 1")
    return [rho / count for rho in rhos]


def eve_state(cb: Codebook, prior: PriorDistribution) -> np.ndarray:
    """rho_E = (1/K) sum_k C_k rho_B C_k^dagger with rho_B the prior mixture."""
    if prior.n != cb.n:
        raise ValueError("prior size mismatch")
    dense.check_cutoff(cb.n)
    return _adversary_state(cb.circuits, [prior.probability_vector()])[0]


def conditional_state(cb: Codebook, x: str) -> np.ndarray:
    """rho_E^x = (1/K) sum_k C_k |x><x| C_k^dagger, dense."""
    return eve_state(cb, PriorDistribution(cb.n, [(x, 1.0)]))


# -- information measures -----------------------------------------------------


def _shannon_bits(p: np.ndarray) -> float:
    p = p[p > 1e-15]
    return float(-(p * np.log2(p)).sum())


def holevo(prior: PriorDistribution, conditionals: Sequence[np.ndarray]) -> float:
    """chi = S(sum_x p(x) rho_x) - sum_x p(x) S(rho_x), in bits.

    conditionals are ordered like prior.items().
    """
    probs = [p for _, p in prior.items()]
    if len(probs) != len(conditionals):
        raise ValueError("one conditional state per code word required")
    avg = sum(p * rho for p, rho in zip(probs, conditionals))
    chi = dense.von_neumann_entropy(avg)
    for p, rho in zip(probs, conditionals):
        chi -= p * dense.von_neumann_entropy(rho)
    return max(0.0, chi)


@dataclass
class Measurement:
    """Rank-one projective measurement onto an orthonormal basis.

    The columns phi_y of vectors are the basis; outcome y has probability
    <phi_y| rho |phi_y>.
    """

    vectors: np.ndarray  # columns phi_y
    label: str = "measurement"

    def __post_init__(self):
        d = self.vectors.shape[0]
        if self.vectors.shape != (d, d):
            raise ValueError("a measurement needs d basis vectors of dimension d")
        gram = self.vectors @ self.vectors.conj().T
        if not np.max(np.abs(gram - np.eye(d))) <= 1e-8:  # NaN fails it
            raise ValueError("measurement vectors are not an orthonormal basis")

    @classmethod
    def computational_basis(cls, d: int) -> "Measurement":
        return cls(np.eye(d, dtype=complex), "computational")

    @classmethod
    def haar_basis(cls, n: int, rng) -> "Measurement":
        d = 1 << n
        g = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1))
                       for _ in range(d)] for _ in range(d)])
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        return cls(q, "haar")

    @classmethod
    def clifford_basis(cls, n: int, rng) -> "Measurement":
        return cls(dense.circuit_unitary(sample_uniform_clifford(n, rng)),
                   "clifford")

    def outcome_probs(self, rho: np.ndarray) -> np.ndarray:
        """p(y) = <phi_y| rho |phi_y>, clipped at zero."""
        raw = np.real(np.einsum("iy,ij,jy->y", self.vectors.conj(), rho,
                                self.vectors))
        return np.clip(raw, 0.0, None)


def measured_mi(meas: Measurement, prior: PriorDistribution,
                conditionals: Sequence[np.ndarray]) -> float:
    """I(X;Y) = H(Y) - H(Y|X) for the given measurement, in bits."""
    probs = np.array([p for _, p in prior.items()])
    if len(probs) != len(conditionals):
        raise ValueError("one conditional state per code word required")
    cond = np.array([meas.outcome_probs(rho) for rho in conditionals])
    sums = cond.sum(axis=1)
    if not np.max(np.abs(sums - 1.0)) <= 1e-6:  # NaN fails it
        raise ValueError("conditional outcome distributions do not normalize")
    cond /= sums[:, None]
    p_y = probs @ cond
    h_y = _shannon_bits(p_y)
    h_y_given_x = float(sum(p * _shannon_bits(row)
                            for p, row in zip(probs, cond)))
    return max(0.0, h_y - h_y_given_x)


# -- tail bounds and key length -----------------------------------------------


@dataclass
class BoundResult:
    """A probability bound together with its raw exponent."""

    exponent: Fraction

    @property
    def bound(self) -> float:
        if self.exponent >= 0:
            return 1.0
        if self.exponent < -745:
            return 0.0
        return math.exp(float(self.exponent))


def _chernoff_terms(params: SecurityParams) -> tuple[Fraction, Fraction]:
    """(a, b) with the Chernoff exponent a - K b (see chernoff_p1)."""
    eps = params.epsilon
    return params.n * _LN2, eps * eps / 4 / (1 << params.n) / params.p_max


def _maurer_terms(params: SecurityParams) -> tuple[Fraction, Fraction]:
    """(a, b) with the Maurer exponent a - K b (see maurer_p2)."""
    eps, p_max = params.epsilon, params.p_max
    ln_net = Fraction(_ln_net(params.n, params.epsilon))
    ln_m = Fraction(math.log(params.M))
    return (2 * (1 << params.n) * ln_net + eps * ln_m / (4 * p_max),
            eps ** 3 / (128 * params.gamma * p_max))


def chernoff_p1(params: SecurityParams, K: Real) -> BoundResult:
    """Matrix-Chernoff failure bound exp{n ln2 - K (eps^2/4) 2^-n / p_max}."""
    a, b = _chernoff_terms(params)
    return BoundResult(a - Fraction(K) * b)


def maurer_p2(params: SecurityParams, K: Real) -> BoundResult:
    """Maurer/union/net failure bound

    exp{ 2d ln(20 * 2^n / eps) + eps ln(M) / (4 p_max)
         - K eps^3 / (128 gamma p_max) },  d = 2^n.
    """
    a, b = _maurer_terms(params)
    return BoundResult(a - Fraction(K) * b)


def chernoff_threshold(params: SecurityParams) -> Fraction:
    """K at which the Chernoff exponent vanishes: 4 n 2^n p_max ln2 / eps^2."""
    a, b = _chernoff_terms(params)
    return a / b


def maurer_threshold(params: SecurityParams) -> Fraction:
    """K at which the Maurer exponent vanishes:

    (128 gamma / eps^3) [ 2^(n+1) p_max ln(20 * 2^n / eps) + eps ln(M) / 4 ].
    """
    a, b = _maurer_terms(params)
    return a / b


@dataclass
class KeyThreshold:
    k_min: Fraction
    branch: str  # "CHERNOFF" or "MAURER"
    chernoff: Fraction
    maurer: Fraction


def key_threshold(params: SecurityParams) -> KeyThreshold:
    """Minimum K of the two-branch condition; reports which branch binds."""
    b1 = chernoff_threshold(params)
    b2 = maurer_threshold(params)
    if b1 >= b2:
        return KeyThreshold(b1, "CHERNOFF", b1, b2)
    return KeyThreshold(b2, "MAURER", b1, b2)


def key_length_bits(params: SecurityParams) -> tuple[float, float]:
    """(exact, asymptotic) secret-key lengths in bits.

    exact is log2 of the K threshold.  asymptotic is the leading form
    n - H_min + log2(gamma) + log2(n) + log2(1/eps) with both hidden
    constants fixed to 1; it is an approximation, not a bound.  log2(1/eps)
    is taken as -log2(eps), which stays finite where 1/eps overflows.
    """
    exact = _frac_log2(key_threshold(params).k_min)
    asym = (params.n - params.h_min + _frac_log2(params.gamma)
            + math.log2(params.n) - math.log2(float(params.epsilon)))
    return exact, asym


def comparison_rows(epsilon: float, n: int) -> tuple[float, float]:
    """Key sizes of the baselines: exact pad 2n, approximate pad
    n + log2(n) + log2(1/eps^2), taken as -2 log2(eps), which stays finite
    where eps^2 underflows."""
    if n < 1:
        raise ValueError("need at least one qubit")
    qotp = 2.0 * n
    approx = n + math.log2(n) - 2.0 * math.log2(float(epsilon))
    return qotp, approx


# -- empirical verification ---------------------------------------------------


def _chunk(payload: tuple) -> list:
    """The rows of trials lo..hi-1; trial t draws from stream t of seed."""
    trial, args, seed, lo, hi = payload
    return [trial(*args, stream_rng(seed, t)) for t in range(lo, hi)]


def _run_trials(trial, args: tuple, seed: int, trials: int, jobs: int) -> list:
    """The rows trial(*args, rng) of trials 0..trials-1, in order, trial t
    drawing from seed stream t (_chunk).

    The trials are cut into at most jobs contiguous chunks; two or more
    chunks run in that many worker processes, so trial is a module-level
    function.  Every trial draws from its own seed stream, so the rows do
    not depend on jobs.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    size = -(-trials // jobs)
    payloads = [(trial, args, seed, lo, min(lo + size, trials))
                for lo in range(0, trials, size)]
    if len(payloads) == 1:
        chunks = [_chunk(payloads[0])]
    else:
        # imported here so a one-chunk run never loads the process pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=len(payloads)) as pool:
            chunks = list(pool.map(_chunk, payloads))
    return [row for chunk in chunks for row in chunk]


@dataclass
class ChernoffTrial:
    lambda_max: float
    epsilon_hat: float
    violated: bool


@dataclass
class ChernoffReport:
    n: int
    K: int
    epsilon: float
    trials: list[ChernoffTrial]
    violation_freq: float
    p1_bound: float


def _chernoff_trial(cfg: SamplerConfig, K: int, p: np.ndarray,
                    threshold: float, rng) -> ChernoffTrial:
    """lambda_max of rho_E over K design circuits drawn from rng."""
    circuits = (sample_design_circuit(cfg, rng) for _ in range(K))
    lam = float(dense.eigvalsh(_adversary_state(circuits, [p])[0])[0])
    return ChernoffTrial(lambda_max=lam, epsilon_hat=lam * 2.0 ** cfg.n - 1.0,
                         violated=lam > threshold)


def empirical_chernoff(n: int, K: int, prior: PriorDistribution, trials: int,
                       seed: int, epsilon: float, delta: float = 0.25,
                       depth_factor: float = 1.0,
                       jobs: int = 1) -> ChernoffReport:
    """Sample codebooks and test lambda_max(rho_E) against (1+eps) 2^-n.

    Each trial draws K fresh design circuits from its own seed stream
    (_run_trials), so results are independent of jobs.
    """
    dense.check_cutoff(n)
    if K < 1:
        raise ValueError("K must be >= 1")
    params = SecurityParams.from_prior(prior, epsilon)
    cfg = SamplerConfig(n=n, delta=delta, depth_factor=depth_factor)
    threshold = (1.0 + epsilon) * 2.0 ** (-n)
    rows = _run_trials(_chernoff_trial,
                       (cfg, K, prior.probability_vector(), threshold), seed,
                       trials, jobs)
    freq = sum(r.violated for r in rows) / len(rows)
    return ChernoffReport(n=n, K=K, epsilon=epsilon, trials=rows,
                          violation_freq=freq,
                          p1_bound=chernoff_p1(params, K).bound)


@dataclass
class MaurerReport:
    n: int
    K: int
    tau: float
    gamma: float
    trials: int
    tail_freq: float
    bound: float
    means: list[float]
    tails: list[bool]


def _basis_weight(circuit: CliffordCircuit, phi: str, x: str) -> int:
    """2^n |<phi|C|x>|^2 for a bit-string phi: the integer 2^(n-s) of the
    halving count s, or 0."""
    s = basis_overlap_halvings(circuit, x, phi)
    return 0 if s is None else 1 << (circuit.n - s)


def _maurer_trial(n: int, K: int, x: str, phi, weight, table, rng):
    """The sum of weight(C, phi, x) over K uniform Cliffords C drawn from
    rng, or over K draws from table, the 24 single-qubit weights."""
    if table is not None:
        return sum(table[rng.randrange(24)] for _ in range(K))
    return sum(weight(sample_uniform_clifford(n, rng), phi, x)
               for _ in range(K))


def empirical_maurer(n: int, K: int, x: str, phi, trials: int, seed: int,
                     tau: float, gamma: Optional[float] = None,
                     jobs: int = 1) -> MaurerReport:
    """Tail test of <phi| rho_E^x |phi> under uniform Clifford draws.

    Counts trials whose K-draw average of |<phi|C|x>|^2 falls below the
    cut (1 - tau) 2^-n and compares against exp(-K tau^2 / (2 gamma)).
    gamma defaults to the exact 2-design value 2d/(d+1).  A basis-string
    phi sums the integers 2^n |<phi|C|x>|^2 (_basis_weight) and cuts the
    rounded sum / K at 1.0 - tau, the float rule with no 2^-n to round,
    so it decides alike at any n (its float mean reads 0.0 above
    n = 1074); a vector phi sums design.overlap floats, so it stops at
    dense.DENSE_CUTOFF.  At n = 1 the draws index a table of the 24
    single-qubit Clifford weights.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    if not 0 <= tau <= 1:
        raise ValueError("tau must lie in [0, 1]")
    if K < 1:
        raise ValueError("K must be >= 1")
    check_bits("x", x, n)
    if isinstance(phi, str):
        check_bits("phi", phi, n)
        weight, scale, cut = _basis_weight, 1 << n, 1.0 - tau
    else:
        phi = np.asarray(phi, dtype=complex)
        weight, scale, cut = overlap, 1, (1.0 - tau) * 2.0 ** -n
    if gamma is None:
        gamma = gamma_2_design(1 << n)
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be a positive finite number, got {gamma}")
    table = ([weight(c, phi, x) for c in all_single_qubit_circuits()]
             if n == 1 else None)
    sums = _run_trials(_maurer_trial, (n, K, x, phi, weight, table), seed,
                       trials, jobs)
    # a mean on the cut is not a tail, and total < K keeps total / K a
    # float; at tau = 0 the bound is vacuous and no trial is a tail
    tails = [tau > 0 and total < K and total / K < cut for total in sums]
    bound = math.exp(-K * tau ** 2 / (2.0 * gamma)) if tau > 0 else 1.0
    return MaurerReport(n=n, K=K, tau=tau, gamma=gamma, trials=len(sums),
                        tail_freq=sum(tails) / len(sums), bound=bound,
                        means=[total / (K * scale) for total in sums],
                        tails=tails)


@dataclass
class LockingReport:
    n: int
    K: int
    holevo_bits: float
    mi_rows: list[tuple[str, float]]
    gap: float
    reference_2n_eps: Optional[float]


def locking_probe(n: int, K: int, prior: PriorDistribution,
                  measurements: Sequence[Measurement], seed: int = 0,
                  delta: float = 0.5, depth_factor: float = 0.05,
                  circuits: Optional[list[CliffordCircuit]] = None,
                  epsilon_reference: Optional[float] = None) -> LockingReport:
    """Holevo quantity versus measured mutual information for a codebook.

    With circuits omitted, K shallow design circuits are drawn one at a
    time as the adversary states consume them; the shallow default (about
    one two-qubit fragment at n = 4) is the regime where the Holevo gap is
    pronounced at desk scale.  Deep scrambling circuits drive every
    conditional toward a rank-K random mixture whose entropy deficit is
    only about 0.72 bits at K = 2^n.
    """
    dense.check_cutoff(n)
    if epsilon_reference is not None and not 0 < epsilon_reference < 1:
        raise ValueError("epsilon_reference must lie in (0, 1), "
                         f"got {epsilon_reference}")
    if circuits is None:
        if K < 1:
            raise ValueError("K must be >= 1")
        rng = stream_rng(seed, 0)
        cfg = SamplerConfig(n=n, delta=delta, depth_factor=depth_factor)
        circuits = (sample_design_circuit(cfg, rng) for _ in range(K))
    else:
        K = len(circuits)
    conditionals = _adversary_state(
        circuits, [dense.basis_vector(x).real for x, _ in prior.items()])
    chi = holevo(prior, conditionals)
    mi_rows = [(m.label, measured_mi(m, prior, conditionals))
               for m in measurements]
    gap = chi - max(mi for _, mi in mi_rows) if mi_rows else chi
    ref = 2.0 * n * epsilon_reference if epsilon_reference is not None else None
    return LockingReport(n=n, K=K, holevo_bits=chi, mi_rows=mi_rows, gap=gap,
                         reference_2n_eps=ref)
