"""Command-line surface: protocol demo, certification, bounds, verification.

Every subcommand accepts --seed <hex> (ASCII hex digits below 2^128, with
no 0x, sign, '_' or blanks) to fix all randomness; identical argv with
the same seed produces byte-identical output, independent of --jobs,
because Monte-Carlo trials draw from per-trial seed streams.  --csv
switches machine-readable output; floats are printed with 12 significant
digits.

Exit codes: 0 success, 1 validation error, 2 internal numerical failure.
"""

from __future__ import annotations

import argparse
import math
import secrets
import sys
from fractions import Fraction
from functools import lru_cache

from . import design, protocol, sampling, security
from .dense import NumericalError, check_cutoff
from .stabilizer import check_bits, read_decimal, read_hex


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return "%.12g" % x
    return str(x)


def _emit(lines: list[str], out_path: str | None) -> None:
    _write("\n".join(lines) + "\n", out_path)


def _write(payload: str, out_path: str | None) -> None:
    """payload, which ends in a newline, to out_path or stdout."""
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _csv(header: list[str], rows: list[list]) -> list[str]:
    return [",".join(header)] + [",".join(map(_fmt, row)) for row in rows]


def _emit_quantities(rows: list[list], unit: str, args) -> None:
    """[name, value] rows as CSV under quantity,<unit>, or as name = value
    lines."""
    if args.csv:
        _emit(_csv(["quantity", unit], rows), args.out)
    else:
        _emit([f"{k} = {_fmt(v)}" for k, v in rows], args.out)


def _emit_trials(header: list[str], rows: list[list], summary: list[str],
                 args) -> None:
    """The summary fields, one per line; with --csv, the per-trial table
    followed by the summary as one comma-joined line."""
    if args.csv:
        _emit(_csv(header, rows) + [",".join(summary)], args.out)
    else:
        _emit(summary, args.out)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


def _parse_seed(text: str | None) -> int:
    if text is None:
        seed = secrets.randbits(128)
        sys.stderr.write(f"note: generated seed {seed:032x}\n")
        return seed
    value = read_hex(text)
    if value is None or value >= 1 << 128:
        raise ValueError("--seed must be a hex number below 2^128, "
                         f"got {text!r}")
    return value


def _parse_range(text: str) -> list[int]:
    """start:stop:step, inclusive start, exclusive stop; or a single int.
    Each part is ASCII decimal digits."""
    parts = text.split(":")
    if len(parts) == 2:
        parts.append("1")
    values = [read_decimal(p) for p in parts]
    if len(values) not in (1, 3) or None in values:
        raise ValueError(f"bad range {text!r}")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step <= 0:
        raise ValueError("range step must be positive")
    values = list(range(start, stop, step))
    if not values:
        raise ValueError(f"n range {text!r} is empty")
    return values


def _reject_unused(args, setting: str, flags: list[str], reason: str) -> None:
    """With setting given, ValueError naming the first of flags that is
    given too: it has no effect with setting, for reason.  "--name" is
    given when its value is not None, "--name VALUE" when it is VALUE."""
    def given(flag):
        name, _, value = flag.partition(" ")
        got = getattr(args, name[2:].replace("-", "_"), None)
        return got is not None and (not value or got == value)
    unused = [flag for flag in flags if given(flag)]
    if unused and given(setting):
        raise ValueError(f"{unused[0]} has no effect with {setting}, {reason}")


def _hmin_frac(args) -> float:
    """--hmin-frac, which defaults to 1.0, the uniform prior."""
    return 1.0 if args.hmin_frac is None else args.hmin_frac


def _params_for(args, n: int) -> security.SecurityParams:
    """The bound inputs of keylen and fig2 at n; ValueError for an unused
    option, or for p_max and M that no prior on n-bit words can have."""
    _reject_unused(args, "--gamma", ["--delta"], "which sets gamma itself")
    _reject_unused(args, "--pmax", ["--hmin-frac"], "which sets p_max itself")
    frac = _hmin_frac(args)
    if not 0.0 <= frac <= 1.0:
        raise ValueError(f"--hmin-frac must be a number in [0, 1], got {frac}")
    if args.pmax is not None:
        p_max = args.pmax
    else:
        # 2^-e as 2^-(e - k) / 2^k: 2^-(e - k) > 2^-1001 is a normal float,
        # where the float 2^-e may be subnormal or 0
        e = frac * n
        k = max(0, math.floor(e) - 1000)
        p_max = Fraction(2.0 ** -(e - k)) / (1 << k)
    M = args.M if args.M is not None else 1 << n
    if args.gamma is not None:
        gamma = args.gamma
    elif args.delta is not None:
        gamma = design.gamma_bound(args.delta)
    else:
        gamma = design.gamma_bound()
    params = security.SecurityParams(n=n, epsilon=args.eps, p_max=p_max,
                                     M=M, gamma=gamma)
    if M > 1 << n:
        raise ValueError(f"--M must be at most 2^n = {1 << n} code words "
                         f"of n = {n} bits, got {M}")
    if params.p_max * M < 1:  # the largest of M probabilities is >= 1/M
        raise ValueError(f"p_max = {_fmt(float(p_max))} (--pmax, --hmin-frac)"
                         f" is below 1/M for M = {M} (--M) code words")
    return params


# -- subcommand bodies ---------------------------------------------------------


def _cmd_keygen(args) -> None:
    rng = sampling.stream_rng(_parse_seed(args.seed), 0)
    key = protocol.keygen(args.K, rng)
    _emit([str(key.k)], args.out)


def _cmd_codebook(args) -> None:
    cb = protocol.build_codebook(args.n, args.K, args.delta,
                                 _parse_seed(args.seed),
                                 depth_factor=args.depth_factor)
    _write(protocol.codebook_to_text(cb), args.out)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _cmd_encrypt(args) -> None:
    cb = protocol.codebook_from_text(_read(args.codebook))
    cipher = protocol.encrypt(cb, protocol.SecretKey(args.key), args.x)
    _write(protocol.cipher_to_text(cipher), args.out)


def _cmd_decrypt(args) -> None:
    cb = protocol.codebook_from_text(_read(args.codebook))
    cipher = protocol.cipher_from_text(_read(args.cipher))
    rng = sampling.stream_rng(_parse_seed(args.seed), 0)
    bits, deterministic = protocol.decrypt(cb, protocol.SecretKey(args.key),
                                           cipher, rng)
    _emit([f"{bits} deterministic={'true' if deterministic else 'false'}"],
          args.out)


def _estimate(args) -> tuple[design.MomentEstimate, str]:
    """The moments of --ensemble and their label, for moments and gamma.

    single-qubit enumerates the 24 Cliffords exactly; design and uniform
    draw --samples circuits, with the vectors of --vector-mode for moments
    and |0...0> on both sides for gamma.  Each rejects the options it
    would ignore.
    """
    _reject_unused(args, "--ensemble single-qubit",
                   ["--n", "--samples", "--depth-factor", "--alpha", "--beta",
                    "--vector-mode HAAR"],
                   "which enumerates the 24 single-qubit Cliffords exactly")
    _reject_unused(args, "--ensemble uniform", ["--depth-factor"],
                   "which draws exactly uniform Cliffords")
    _reject_unused(args, "--vector-mode HAAR", ["--alpha", "--beta"],
                   "which draws its vectors at random")
    for name, default in (("n", 2), ("samples", 10000), ("depth_factor", 1.0)):
        if getattr(args, name) is None:
            setattr(args, name, default)
    rng = sampling.stream_rng(_parse_seed(args.seed), 0)
    if args.ensemble == "single-qubit":
        return (design.exhaustive_single_qubit_moments(),
                "single-qubit-exhaustive")
    if args.n < 1:
        raise ValueError(f"need at least one qubit, got --n {args.n}")
    sampler = (sampling.SamplerConfig(args.n, args.delta, args.depth_factor)
               if args.ensemble == "design" else
               lambda r: sampling.sample_uniform_clifford(args.n, r))
    if args.command == "gamma":
        mode, alpha, beta = "BASIS", "0" * args.n, "0" * args.n
    elif args.vector_mode == "HAAR":
        mode, alpha, beta = "HAAR", None, None
    else:
        mode = "BASIS"
        alpha = args.alpha if args.alpha else "0" * args.n
        beta = args.beta if args.beta else "0" * args.n
        check_bits("--alpha", alpha, args.n)
        check_bits("--beta", beta, args.n)
    return (design.estimate_moments(sampler, mode, alpha, beta, args.samples,
                                    rng), args.ensemble)


def _cmd_moments(args) -> None:
    if not 0 <= args.z < math.inf:
        raise ValueError(f"z must be a finite number >= 0, got {args.z}")
    est, label = _estimate(args)
    row = design.moments_csv_row(label, est, args.delta, args.z)
    header = list(row)
    if args.csv:
        _emit(_csv(header, [[row[k] for k in header]]), args.out)
    else:
        _emit([f"{k} = {_fmt(row[k])}" for k in header], args.out)


def _cmd_gamma(args) -> None:
    est, _ = _estimate(args)
    gamma = design.gamma_of(est)
    rows = [["gamma", float(gamma)],
            ["gamma_exact_2_design", design.gamma_2_design(est.d)],
            ["gamma_bound", design.gamma_bound(args.delta)]]
    _emit_quantities(rows, "value", args)


def _cmd_keylen(args) -> None:
    params = _params_for(args, args.n)
    exact, asym = security.key_length_bits(params)
    kt = security.key_threshold(params)
    rows = [["n", args.n], ["epsilon", args.eps], ["h_min", params.h_min],
            ["log2_K_exact", exact], ["log2_K_asymptotic", asym],
            ["branch", kt.branch],
            ["P1_at_threshold", security.chernoff_p1(params, kt.k_min).bound],
            ["P2_at_threshold", security.maurer_p2(params, kt.k_min).bound]]
    _emit_quantities(rows, "value", args)


def _cmd_fig2(args) -> None:
    header = ["n", "logK_exact", "logK_asymptotic", "qotp", "approx_otp",
              "hmin_frac", "epsilon"]
    rows = [[n, *security.key_length_bits(_params_for(args, n)),
             *security.comparison_rows(args.eps, n), _hmin_frac(args),
             args.eps] for n in _parse_range(args.n)]
    if args.csv:
        _emit(_csv(header, rows), args.out)
    else:
        _emit(["  ".join(f"{_fmt(v):>16s}" for v in row)
               for row in [header, *rows]], args.out)


def _cmd_verify_chernoff(args) -> None:
    seed = _parse_seed(args.seed)
    prior = security.PriorDistribution(n=args.n)
    K = args.K
    if K is None:
        params = security.SecurityParams.from_prior(prior, args.eps)
        K = math.ceil(security.chernoff_threshold(params))
    report = security.empirical_chernoff(args.n, K, prior, args.trials, seed,
                                         args.eps, delta=args.delta,
                                         depth_factor=args.depth_factor,
                                         jobs=args.jobs)
    rows = [[i, t.lambda_max, t.epsilon_hat, t.violated]
            for i, t in enumerate(report.trials)]
    _emit_trials(["trial", "lambda_max", "epsilon_hat", "violated"], rows,
                 [f"K={K}", f"violation_freq={_fmt(report.violation_freq)}",
                  f"p1_bound={_fmt(report.p1_bound)}"], args)


def _cmd_verify_maurer(args) -> None:
    seed = _parse_seed(args.seed)
    x = args.x if args.x else "0" * args.n
    report = security.empirical_maurer(args.n, args.K, x, "0" * args.n,
                                       args.trials, seed, args.tau,
                                       gamma=args.gamma, jobs=args.jobs)
    rows = [[i, m, tail]
            for i, (m, tail) in enumerate(zip(report.means, report.tails))]
    _emit_trials(["trial", "mean_overlap", "tail"], rows,
                 [f"K={args.K}", f"tau={_fmt(args.tau)}",
                  f"gamma={_fmt(report.gamma)}",
                  f"tail_freq={_fmt(report.tail_freq)}",
                  f"bound={_fmt(report.bound)}"], args)


def _cmd_lock_probe(args) -> None:
    # before any d x d basis is built: n = 13 bases take 1 GiB each
    check_cutoff(args.n)
    if args.bases < 0:
        raise ValueError(f"bases must be >= 0, got {args.bases}")
    seed = _parse_seed(args.seed)
    prior = security.PriorDistribution(n=args.n)
    d = 1 << args.n
    measurements = [security.Measurement.computational_basis(d)]
    rng = sampling.stream_rng(seed, 1)
    for i in range(args.bases):
        m = (security.Measurement.clifford_basis(args.n, rng) if i % 2 == 0
             else security.Measurement.haar_basis(args.n, rng))
        m.label = f"{m.label}-{i}"
        measurements.append(m)
    report = security.locking_probe(args.n, args.K, prior, measurements,
                                    seed=seed, delta=args.delta,
                                    depth_factor=args.depth_factor,
                                    epsilon_reference=args.eps_ref)
    rows = [["holevo", report.holevo_bits]]
    rows += [[label, mi] for label, mi in report.mi_rows]
    rows.append(["gap", report.gap])
    if report.reference_2n_eps is not None:
        rows.append(["reference_2n_eps", report.reference_2n_eps])
    _emit_quantities(rows, "bits", args)


# -- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="qlock",
                     description="Clifford-circuit data locking toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True, out=True, csv=False):
        if seed:
            p.add_argument("--seed", help="hex master seed (<= 32 hex chars)")
        if out:
            p.add_argument("--out", help="write output to this path")
        if csv:
            p.add_argument("--csv", action="store_true")

    p = sub.add_parser("keygen", help="draw a uniform secret key")
    p.add_argument("--K", type=int, required=True)
    common(p)

    p = sub.add_parser("codebook", help="derive and serialize a codebook")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.0625)
    p.add_argument("--depth-factor", type=float, default=1.0)
    common(p)

    p = sub.add_parser("encrypt", help="encrypt a plaintext bit string")
    p.add_argument("--codebook", required=True)
    p.add_argument("--key", type=int, required=True)
    p.add_argument("--x", required=True)
    common(p, seed=False)

    p = sub.add_parser("decrypt", help="decrypt a cipher file")
    p.add_argument("--codebook", required=True)
    p.add_argument("--key", type=int, required=True)
    p.add_argument("--cipher", required=True)
    common(p)

    for name in ("moments", "gamma"):
        p = sub.add_parser(name, help="estimate overlap moments")
        p.add_argument("--ensemble", choices=["design", "uniform",
                                              "single-qubit"],
                       default="design")
        # defaults of the sampled ensembles, which single-qubit ignores
        p.add_argument("--n", type=int, help="default 2")
        p.add_argument("--delta", type=float, default=0.01)
        p.add_argument("--depth-factor", type=float, help="default 1.0")
        p.add_argument("--samples", type=int, help="default 10000")
        if name == "moments":
            p.add_argument("--vector-mode", choices=["BASIS", "HAAR"],
                           default="BASIS")
            p.add_argument("--alpha")
            p.add_argument("--beta")
            p.add_argument("--z", type=float, default=3.0)
        common(p, csv=True)

    def bound_args(p):
        p.add_argument("--eps", type=float, default=1e-8)
        p.add_argument("--hmin-frac", type=float, help="default 1.0")
        p.add_argument("--pmax", type=float)
        p.add_argument("--M", type=int)
        p.add_argument("--gamma", type=float)
        p.add_argument("--delta", type=float)

    p = sub.add_parser("keylen", help="key-length bound for one n")
    p.add_argument("--n", type=int, required=True)
    bound_args(p)
    common(p, seed=False, csv=True)

    p = sub.add_parser("fig2", help="key-length curves over a range of n")
    p.add_argument("--n", required=True, help="range start:stop:step")
    bound_args(p)
    common(p, seed=False, csv=True)

    p = sub.add_parser("verify-chernoff",
                       help="Monte-Carlo check of the matrix concentration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--K", type=int)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--delta", type=float, default=0.25)
    p.add_argument("--depth-factor", type=float, default=1.0)
    p.add_argument("--jobs", type=int, default=1)
    common(p, csv=True)

    p = sub.add_parser("verify-maurer",
                       help="Monte-Carlo check of the lower-tail bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--x")
    p.add_argument("--gamma", type=float)
    p.add_argument("--jobs", type=int, default=1)
    common(p, csv=True)

    p = sub.add_parser("lock-probe",
                       help="Holevo quantity vs measured mutual information")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--K", type=int, default=16)
    p.add_argument("--bases", type=int, default=20)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--depth-factor", type=float, default=0.05)
    p.add_argument("--eps-ref", type=float)
    common(p, csv=True)

    return parser


@lru_cache(maxsize=1)
def _parser() -> _Parser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up by name on each call, not bound into the cached parser
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        command(args)
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
