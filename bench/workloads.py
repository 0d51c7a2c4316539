"""The benchmark's workloads: set-up, one op, and the checks on its output.

Every generated input (master seeds, plaintexts, keys, per-op --seed
values) is derived from the workload seed by SHA-256, so the same seed
gives the same inputs and the program receives only those inputs.
Parameters come from spec.json beside this file.

Each check returns None when the output is right and a one-line problem
otherwise; a check that raises on a malformed output also fails it (see
verdict).  Checks are pure functions of the output so that the
benchmark's own test can feed them corrupted outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

SPEC = json.loads((Path(__file__).with_name("spec.json")).read_text())


def derive(seed: int, workload: str, purpose: str, index: int = 0) -> int:
    """128-bit value for (seed, workload, purpose, index)."""
    text = f"qlock-bench|{workload}|{seed}|{purpose}|{index}"
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:16], "big")


def parse_pairs(text: str) -> list[tuple[str, str]]:
    """The 'key = value' lines the CLI prints without --csv."""
    pairs = []
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"not a 'key = value' line: {line!r}")
        pairs.append((key, value))
    return pairs


def _floats(pairs, keys) -> dict[str, float]:
    found = dict(pairs)
    out = {key: float(found[key]) for key in keys}
    bad = [key for key, value in out.items() if not math.isfinite(value)]
    if bad:
        raise ValueError(f"not finite: {', '.join(bad)}")
    return out


class Workload:
    """Shared plumbing; subclasses define setup, op and check."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        spec = SPEC["workloads"][self.name]
        self.params = spec["params"]
        self.prefix_ops = spec["prefix_ops"]
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Build the fixtures the ops need (timed as part of setup_s)."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, out) -> str | None:
        raise NotImplementedError

    def finish(self, outputs: list) -> str | None:
        """Run-level check over the outputs of every op that passed."""
        return None

    def digest(self, out) -> bytes:
        return hashlib.sha256(out.encode()).digest()


class _CliWorkload(Workload):
    """One op is one in-process qlock CLI invocation writing to a file."""

    def setup(self) -> None:
        self.out_path = self.workdir / f"{self.name}.out"

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def op(self, i: int) -> str:
        from qlock import cli
        seed = f"{derive(self.seed, self.name, 'op-seed', i):032x}"
        code = cli.main(self.argv(i) + ["--seed", seed,
                                        "--out", str(self.out_path)])
        if code != 0:
            raise RuntimeError(f"qlock exited with code {code}")
        return self.out_path.read_text()


class Protocol(Workload):
    name = "protocol"

    def setup(self) -> None:
        from qlock import protocol
        p = self.params
        master = derive(self.seed, self.name, "master")
        published = protocol.build_codebook(p["n"], p["K"], p["delta"], master,
                                            depth_factor=p["depth_factor"])
        self.codebook_text = protocol.codebook_to_text(published)
        self.book = protocol.codebook_from_text(self.codebook_text)

    def op(self, i: int):
        from qlock import protocol
        n, K = self.params["n"], self.params["K"]
        rng = random.Random(derive(self.seed, self.name, "message", i))
        key = protocol.keygen(K, rng)
        x = format(rng.getrandbits(n), f"0{n}b")
        cipher = protocol.encrypt(self.book, key, x)
        text = protocol.cipher_to_text(cipher)
        parsed = protocol.cipher_from_text(text)
        got = protocol.decrypt(self.book, key, parsed)
        wrong = None
        if i % self.params["wrong_key_every"] == self.params["wrong_key_every"] - 1:
            guess = protocol.SecretKey((key.k + 1 + rng.randrange(K - 1)) % K)
            wrong = protocol.decrypt(self.book, guess, parsed,
                                     random.Random(rng.getrandbits(64)))
        return {"x": x, "text": text, "parsed": parsed, "got": got,
                "wrong": wrong}

    def check(self, out) -> str | None:
        from qlock import protocol
        n = self.params["n"]
        if out["got"] != (out["x"], True):
            return f"right-key decrypt gave {out['got']!r}, not ({out['x']!r}, True)"
        if protocol.cipher_to_text(out["parsed"]) != out["text"]:
            return "cipher text changed after parse and re-print"
        wrong = out["wrong"]
        if wrong is not None and (len(wrong[0]) != n
                                  or set(wrong[0]) - set("01")):
            return f"wrong-key decrypt gave {wrong!r}"
        return None

    def finish(self, outputs: list) -> str | None:
        from qlock import protocol
        if protocol.codebook_to_text(self.book) != self.codebook_text:
            return "codebook text changed after parse and re-print"
        return None

    def digest(self, out) -> bytes:
        wrong = out["wrong"][0] if out["wrong"] else ""
        return hashlib.sha256(
            f"{out['text']}|{out['got'][0]}|{wrong}".encode()).digest()


class Certify(_CliWorkload):
    name = "certify"
    FIELDS = ("d", "samples", "mean2", "stderr2", "mean4", "stderr4")

    def argv(self, i: int) -> list[str]:
        p = self.params
        return ["moments", "--ensemble", "design", "--n", str(p["n"]),
                "--delta", str(p["delta"]), "--samples", str(p["samples"])]

    def check(self, out: str) -> str | None:
        vals = _floats(parse_pairs(out), self.FIELDS)
        if vals["d"] != 1 << self.params["n"]:
            return f"d = {vals['d']}"
        if vals["samples"] != self.params["samples"]:
            return f"samples = {vals['samples']}"
        if not 0.0 <= vals["mean4"] <= vals["mean2"]:
            return f"mean4 {vals['mean4']} exceeds mean2 {vals['mean2']}"
        return None

    def finish(self, outputs: list) -> str | None:
        """Pool the ops' moments and apply the design band test.

        This is design.check_design's test, written out here so that the
        checker does not rely on the code it checks: each moment must lie
        within (1 +/- delta) of its Haar value, widened by z standard errors.
        """
        if not outputs:
            return "no op passed its own check"
        rows = [_floats(parse_pairs(out), self.FIELDS) for out in outputs]
        d = rows[0]["d"]
        total = sum(r["samples"] for r in rows)
        # per op: mean2 = E[v], mean4 = E[v^2], stderr4^2 * S = Var[v^2]
        e1 = sum(r["samples"] * r["mean2"] for r in rows) / total
        e2 = sum(r["samples"] * r["mean4"] for r in rows) / total
        e4 = sum(r["samples"] * (r["stderr4"] ** 2 * r["samples"]
                                 + r["mean4"] ** 2) for r in rows) / total
        se2 = math.sqrt(max(0.0, e2 - e1 * e1) / total)
        se4 = math.sqrt(max(0.0, e4 - e2 * e2) / total)
        delta, z = self.params["pooled_delta"], self.params["pooled_z"]
        haar = (1.0 / d, 2.0 / (d * (d + 1.0)))
        for order, mean, err, m in ((1, e1, se2, haar[0]), (2, e2, se4, haar[1])):
            low = (1.0 - delta) * m - z * err
            high = (1.0 + delta) * m + z * err
            if not low <= mean <= high:
                return (f"pooled moment {order} = {mean:.6g} outside "
                        f"[{low:.6g}, {high:.6g}] over {total:.0f} samples")
        return None


class Chernoff(_CliWorkload):
    name = "chernoff"
    HEADER = "trial,lambda_max,epsilon_hat,violated"

    def argv(self, i: int) -> list[str]:
        p = self.params
        return ["verify-chernoff", "--n", str(p["n"]), "--eps", str(p["eps"]),
                "--trials", str(p["trials"]), "--jobs", "1", "--csv"]

    def check(self, out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) != self.params["trials"] + 2 or lines[0] != self.HEADER:
            return f"expected header, {self.params['trials']} rows and a summary"
        for line in lines[1:-1]:
            _, lam, eps_hat, violated = line.split(",")
            if not math.isfinite(float(lam)):
                return f"lambda_max is not finite: {lam}"
            if not abs(float(eps_hat)) <= self.params["eps_hat_tol"]:
                return f"|epsilon_hat| = {eps_hat} exceeds the uniform-prior identity"
            if violated != "false":
                return "a trial reports a violation"
        summary = dict(part.split("=", 1) for part in lines[-1].split(","))
        if summary.get("K") != str(self.params["K"]):
            return f"K = {summary.get('K')}, expected {self.params['K']}"
        if summary.get("violation_freq") != "0":
            return f"violation_freq = {summary.get('violation_freq')}"
        return None


class LockProbe(_CliWorkload):
    name = "lockprobe"

    def argv(self, i: int) -> list[str]:
        p = self.params
        return ["lock-probe", "--n", str(p["n"]), "--K", str(p["K"]),
                "--bases", str(p["bases"])]

    def check(self, out: str) -> str | None:
        pairs = parse_pairs(out)
        values = [float(v) for _, v in pairs]
        if len(pairs) != self.params["bases"] + 3:
            return f"{len(pairs)} rows, expected {self.params['bases'] + 3}"
        if pairs[0][0] != "holevo" or pairs[-1][0] != "gap":
            return "rows must run from holevo to gap"
        if not all(math.isfinite(v) for v in values):
            return "a value is not finite"
        holevo, mis, gap = values[0], values[1:-1], values[-1]
        if max(mis) > holevo:
            return f"measured MI {max(mis)} exceeds holevo {holevo}"
        if not gap > 0:
            return f"gap = {gap} is not positive"
        return None


def verdict(check, out) -> str | None:
    """Run a check; an exception on a malformed output is a failure too."""
    try:
        return check(out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {exc!r}"


WORKLOADS = {w.name: w for w in (Protocol, Certify, Chernoff, LockProbe)}
