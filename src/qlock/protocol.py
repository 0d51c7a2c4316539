"""The data-locking protocol: keys, codebooks, encryption, decryption.

A codebook is the public list of K Clifford circuits derived from a
128-bit master seed.  Encryption maps an n-bit plaintext x to the
stabilizer tableau of circuit k applied to |x>; decryption applies the
inverse circuit and reads the computational basis.  The serialized
codebook and cipher files are the normative interop artifacts; both are
ASCII with LF line endings.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from .sampling import (SamplerConfig, circuit_from_text, circuit_to_text,
                       derive_circuit)
from .stabilizer import (CliffordCircuit, CliffordMap, Tableau,
                         read_decimal, read_hex, tableau_from_text)


@dataclass(frozen=True)
class SecretKey:
    """Index k into the codebook; the secret is ceil(log2 K) bits long."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("key index must be nonnegative")


def key_bits(K: int) -> int:
    """Length in bits of the shared secret for a K-circuit codebook."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return (K - 1).bit_length()


def keygen(K: int, rng) -> SecretKey:
    """Uniform secret key in [0, K)."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return SecretKey(rng.randrange(K))


@dataclass
class Codebook:
    """Public circuit set {C_k}: n qubits, K circuits, design accuracy delta."""

    n: int
    K: int
    delta: float
    master_seed: int
    circuits: list[CliffordCircuit] = field(repr=False)
    _maps: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if len(self.circuits) != self.K:
            raise ValueError("circuit count does not match K")
        for c in self.circuits:
            if c.n != self.n:
                raise ValueError("circuit qubit count mismatch")

    def map(self, k: int) -> CliffordMap:
        """The compiled action of circuit k, made on first use."""
        if k not in self._maps:
            if not 0 <= k < self.K:
                raise ValueError("key index out of range for this codebook")
            self._maps[k] = CliffordMap(self.circuits[k])
        return self._maps[k]

    def inverse_map(self, k: int) -> CliffordMap:
        """The action of circuit k's inverse, read off its compiled map."""
        return self.map(k).inverse


def build_codebook(n: int, K: int, delta: float, master_seed: int,
                   depth_factor: float = 1.0) -> Codebook:
    """Derive the K codebook circuits deterministically from the seed.

    Each circuit is held as the DesignCircuit of its fragment records; its
    gates are expanded only while it is compiled or printed."""
    if K < 1:
        raise ValueError("K must be >= 1")
    cfg = SamplerConfig(n=n, delta=delta, depth_factor=depth_factor)
    circuits = [derive_circuit(master_seed, k, cfg) for k in range(K)]
    return Codebook(n=n, K=K, delta=delta, master_seed=master_seed,
                    circuits=circuits)


def encrypt(cb: Codebook, key: SecretKey, x: str) -> Tableau:
    """Cipher state C_k|x>: the basis-state tableau pushed through circuit k."""
    # map checks the key index and basis_state_image x
    return cb.map(key.k).basis_state_image(x)


def decrypt(cb: Codebook, key: SecretKey, cipher: Tableau,
            rng=None) -> tuple[str, bool]:
    """Apply the inverse circuit and measure every qubit.

    Returns (bits, deterministic).  With the correct key every measurement
    is deterministic and bits is the plaintext.  Otherwise random outcomes
    are sampled from rng (a fresh seeded generator when omitted) and the
    deterministic flag is False.
    """
    inverse = cb.inverse_map(key.k)
    if cipher.n != cb.n:
        raise ValueError("cipher size mismatch")
    state = inverse.apply_to(cipher.copy())
    bits = state.z_readout()
    if bits is not None:
        return bits, True
    if rng is None:
        rng = random.Random(0)
    return "".join([str(state.measure_sample(q, rng))
                    for q in range(cb.n)]), False


# -- file formats ------------------------------------------------------------


def codebook_to_text(cb: Codebook) -> str:
    # one join over every part, so the whole file is made once
    parts = [f"QDLCB v1 n={cb.n} K={cb.K} delta={cb.delta!r} "
             f"seed={cb.master_seed:032x}\n"]
    for k, circuit in enumerate(cb.circuits):
        body = circuit_to_text(circuit)
        parts += (f"{k}: " if body else f"{k}:", body, "\n")
    return "".join(parts)


def _header(line: str, magic: list[str], fields: dict, what: str) -> dict:
    """Parse a header line: its magic words, then name=value fields.

    fields maps each field name to (parse, ok).  Every field must appear
    exactly once and parse to a value that ok accepts; otherwise
    ValueError names the offending field.  Returns {name: value}.
    """
    head = line.split()
    if head[:2] != magic:
        raise ValueError(f"bad {what} header")
    raw = {}
    for part in head[2:]:
        name, eq, value = part.partition("=")
        if not eq or name not in fields or name in raw:
            raise ValueError(f"unknown or repeated {what} header field "
                             f"{part!r}")
        raw[name] = value
    values = {}
    for name, (parse, ok) in fields.items():
        if name not in raw:
            raise ValueError(f"{what} header has no {name}= field")
        try:
            value = parse(raw[name])
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise ValueError(f"bad {what} header field {name}={raw[name]}")
        values[name] = value
    return values


def _positive(v: int) -> bool:
    return v >= 1


# what repr(float) prints for a finite float: ASCII digits, at most one
# '.', and an optional exponent of two or more digits
_REPR_FLOAT = re.compile(r"[0-9]+(\.[0-9]+)?(e[+-][0-9]{2,})?")


def _repr_float(t: str) -> float | None:
    """t read as a float in repr form, else None (float() also takes
    underscores, non-ASCII digits, 'inf' and 'nan')."""
    return float(t) if _REPR_FLOAT.fullmatch(t) else None


def codebook_from_text(text: str) -> Codebook:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty codebook file")
    head = _header(lines[0], ["QDLCB", "v1"], {
        "n": (read_decimal, _positive), "K": (read_decimal, _positive),
        "delta": (_repr_float, lambda v: 0.0 < v < 1.0),
        "seed": (read_hex, lambda v: v < 1 << 128)},
        "codebook")
    n, K = head["n"], head["K"]
    body = [(i + 1, ln) for i, ln in enumerate(lines) if i and ln.strip()]
    if len(body) != K:
        raise ValueError(f"expected {K} circuit lines, got {len(body)}")
    circuits = []
    for k, (lineno, ln) in enumerate(body):
        idx, _, rest = ln.partition(":")
        if read_decimal(idx.strip()) != k:
            raise ValueError(f"codebook line {lineno}: expected circuit "
                             f"index {k}, got {idx.strip()!r}")
        try:
            circuits.append(circuit_from_text(rest, n))
        except ValueError as exc:
            raise ValueError(f"codebook line {lineno}, circuit {k}: {exc}"
                             ) from None
    return Codebook(n=n, K=K, delta=head["delta"], master_seed=head["seed"],
                    circuits=circuits)


def cipher_to_text(cipher: Tableau) -> str:
    return f"QDLCT v1 n={cipher.n}\n" + cipher.to_text()


def cipher_from_text(text: str) -> Tableau:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty cipher file")
    n = _header(lines[0], ["QDLCT", "v1"], {"n": (read_decimal, _positive)},
                "cipher")["n"]
    tableau = tableau_from_text("\n".join(lines[1:]))
    if tableau.n != n:
        raise ValueError("cipher header size disagrees with tableau")
    return tableau
