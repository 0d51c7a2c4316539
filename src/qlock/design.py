"""Design-moment estimation and the spread coefficient gamma.

The ensemble quality test is the two-sided band

    (1 - delta) M_l  <=  E[ |<alpha|C|beta>|^(2l) ]  <=  (1 + delta) M_l

for l in {1, 2}, where M_l = l! (d-1)! / (l+d-1)! is the Haar moment.
Monte-Carlo estimates carry standard errors; check_design widens the band
by z standard errors (z = 3 by default) before comparing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterator

import numpy as np

from . import dense
from .sampling import (SamplerConfig, all_single_qubit_circuits,
                       sample_design_circuit)
from .stabilizer import (CliffordCircuit, basis_overlap_halvings,
                         basis_overlap_prob, check_bits)

VECTOR_MODES = ("BASIS", "HAAR")


def haar_moment(l: int, d: int) -> Fraction:
    """M_l = l!(d-1)!/(l+d-1)!, reduced, in exact integer arithmetic."""
    if l < 1:
        raise ValueError("moment order must be >= 1")
    if d < 2:
        raise ValueError("dimension must be >= 2")
    denom = 1
    for j in range(d, d + l):
        denom *= j
    return Fraction(math.factorial(l), denom)


@dataclass
class MomentEstimate:
    """First two moments of |<alpha|C|beta>|^2 over a circuit ensemble."""

    d: int
    mean2: float
    mean4: float
    stderr2: float
    stderr4: float
    samples: int

    def __post_init__(self):
        if self.samples <= 0:
            raise ValueError("samples must be positive")
        if not 0 <= self.mean4 <= self.mean2 <= 1 + 1e-12:
            raise ValueError("moment ordering 0 <= mean4 <= mean2 <= 1 violated")


# largest distance of a dense basis overlap from its exact value
_SNAP_TOL = 1e-9


def snap_overlaps(probs: np.ndarray, n: int) -> np.ndarray:
    """Dense |<alpha|C|beta>|^2 values snapped to {0} u {2^-s : s <= n}.

    Basis-state overlaps of a Clifford circuit take exactly these values;
    snapping gives the tableau's floats bit for bit.

    Raises:
        NumericalError: a value lies farther than 1e-9 from that set.
    """
    probs = np.asarray(probs, dtype=float)
    # s = n + 1 stands for an overlap of zero; fmax maps NaN to it too
    s = np.clip(np.rint(-np.log2(np.fmax(probs, 2.0 ** -(n + 2)))),
                0, n + 1).astype(int)
    exact = np.where(s > n, 0.0, np.ldexp(1.0, -s))
    off = ~(np.abs(probs - exact) <= _SNAP_TOL)
    if off.any():
        raise dense.NumericalError(
            f"overlap {probs[off][0]!r} is not within {_SNAP_TOL} of 0 or "
            f"2^-s for s <= {n}")
    return exact


def overlap(circuit: CliffordCircuit, alpha, beta) -> float:
    """|<alpha|C|beta>|^2.  Two bit strings give the tableau's 0 or 2^-s
    as a float (stabilizer.basis_overlap_prob); otherwise the overlap is
    dense, with a bit string on either side read as its basis vector."""
    if isinstance(alpha, str) and isinstance(beta, str):
        return basis_overlap_prob(circuit, beta, alpha)
    alpha, beta = (dense.basis_vector(v) if isinstance(v, str) else v
                   for v in (alpha, beta))
    return dense.overlap_prob(alpha, circuit, beta)


def _pushed_overlaps(circuits: Iterator[CliffordCircuit], n: int, alpha: str,
                     beta: str) -> Iterator[float]:
    """|<alpha|C|beta>|^2 of the n-qubit design circuits, |beta> pushed
    through them by dense.push."""
    col = np.zeros((1 << n, 1), dtype=complex)
    col[dense.basis_index(beta), 0] = 1.0
    row = dense.basis_index(alpha)
    for stack in dense.push(circuits, col):
        yield from snap_overlaps(np.abs(stack[:, row, 0]) ** 2, n).tolist()


def estimate_moments(sampler, vector_mode: str, alpha, beta,
                     samples: int, rng) -> MomentEstimate:
    """Monte-Carlo moments of the overlap distribution.

    Args:
        sampler: the ensemble: a SamplerConfig for design circuits, or a
            callable(rng) -> CliffordCircuit drawn fresh per sample.
        vector_mode: "BASIS" gives exact overlaps between the given bit
            strings (any n), checked against the first circuit's n for
            every sampler; "HAAR" uses dense overlaps, drawing fresh
            Haar-random alpha and then beta each sample when they are None.
        alpha, beta: bit strings (BASIS) or dense vectors / None (HAAR).

    BASIS overlaps of design circuits at 2 <= n <= dense.DENSE_CUTOFF come
    from pushing |beta> through batches of their fragment records, snapped
    to their exact values; all others from overlap, circuit by circuit.
    Either way the draws and the estimate are the same.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if vector_mode not in VECTOR_MODES:
        raise ValueError(f"vector_mode must be one of {VECTOR_MODES}")
    draw = ((lambda r: sample_design_circuit(sampler, r))
            if isinstance(sampler, SamplerConfig) else sampler)
    # each circuit's overlap is taken before the next circuit is drawn
    first = draw(rng)
    n = first.n
    circuits = chain([first], (draw(rng) for _ in range(samples - 1)))
    if vector_mode == "BASIS":
        check_bits("alpha", alpha, n)
        check_bits("beta", beta, n)
        if isinstance(sampler, SamplerConfig) and 2 <= n <= dense.DENSE_CUTOFF:
            return _estimate(_pushed_overlaps(circuits, n, alpha, beta),
                             1 << n, samples)

    def given_or_haar(v):
        return dense.random_state_vector(n, rng) if v is None else v
    return _estimate((overlap(c, given_or_haar(alpha), given_or_haar(beta))
                      for c in circuits), 1 << n, samples)


def _estimate(values, d: int, samples: int) -> MomentEstimate:
    """Means and standard errors of v and v^2 over the overlaps v, summed
    in draw order."""
    s1 = s2 = s4 = 0.0
    for v in values:
        s1 += v
        v2 = v * v
        s2 += v2
        s4 += v2 * v2
    mean2 = s1 / samples
    mean4 = s2 / samples
    var2 = max(0.0, s2 / samples - mean2 * mean2)
    var4 = max(0.0, s4 / samples - mean4 * mean4)
    return MomentEstimate(d=d, mean2=mean2, mean4=min(mean4, mean2),
                          stderr2=math.sqrt(var2 / samples),
                          stderr4=math.sqrt(var4 / samples), samples=samples)


def exhaustive_single_qubit_moments() -> MomentEstimate:
    """Exact moments over all 24 single-qubit Cliffords, alpha = beta = |0>.

    The overlaps come from their halving counts, so the returned means
    are exact Fractions (1/2 and 1/3) with zero standard error.
    """
    counts = [basis_overlap_halvings(c, "0", "0")
              for c in all_single_qubit_circuits()]
    vals = [Fraction(0) if s is None else Fraction(1, 1 << s) for s in counts]
    mean2 = sum(vals) / 24
    mean4 = sum(v * v for v in vals) / 24
    return MomentEstimate(d=2, mean2=mean2, mean4=mean4,
                          stderr2=0.0, stderr4=0.0, samples=24)


def gamma_of(est: MomentEstimate):
    """Spread coefficient: fourth moment over squared second moment."""
    if est.mean2 == 0:
        raise ValueError("gamma is undefined: every sampled overlap was 0 "
                         f"({est.samples} samples)")
    return est.mean4 / (est.mean2 * est.mean2)


def gamma_bound(delta: float = 0.0) -> float:
    """Upper bound 2(1+delta)/(1-delta)^2 for a delta-approximate 2-design;
    the default delta = 0 gives 2, the gamma of bounds that set none."""
    if not 0 <= delta < 1:
        raise ValueError("delta must lie in [0, 1)")
    return 2.0 * (1.0 + delta) / ((1.0 - delta) ** 2)


def gamma_2_design(d: int) -> float:
    """gamma = 2d/(d+1) of an exact 2-design in dimension d, as
    2/(1 + 1/d): d stays an integer, so d = 2^n of any n is taken, and for
    d = 2^n with n < 1023 the value is the float 2.0*d/(d+1.0)."""
    return 2 / (1 + 1 / d)


@dataclass
class DesignCheck:
    """Band-test verdict for one moment order."""

    order: int
    haar: float
    estimate: float
    low: float
    high: float
    passed: bool


@dataclass
class DesignReport:
    d: int
    delta: float
    z: float
    checks: list[DesignCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_design(est: MomentEstimate, delta: float, z: float = 3.0) -> DesignReport:
    """Test both moment bands at accuracy delta, widened by z stderr."""
    checks = []
    for order, mean, err in ((1, est.mean2, est.stderr2),
                             (2, est.mean4, est.stderr4)):
        m = float(haar_moment(order, est.d))
        low = (1.0 - delta) * m - z * err
        high = (1.0 + delta) * m + z * err
        checks.append(DesignCheck(order=order, haar=m, estimate=float(mean),
                                  low=low, high=high,
                                  passed=low <= mean <= high))
    return DesignReport(d=est.d, delta=delta, z=z, checks=checks)


def moments_csv_row(label: str, est: MomentEstimate, delta: float,
                    z: float = 3.0) -> dict:
    report = check_design(est, delta, z)
    return {
        "ensemble": label,
        "d": est.d,
        "samples": est.samples,
        "mean2": float(est.mean2),
        "stderr2": float(est.stderr2),
        "mean4": float(est.mean4),
        "stderr4": float(est.stderr4),
        "gamma": float(gamma_of(est)),
        "gamma_bound": gamma_bound(delta),
        "pass": report.passed,
    }
