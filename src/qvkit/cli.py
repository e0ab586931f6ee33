"""Batch command-line frontend.

Subcommands: generate, metrics, lorenz, gamma-search, tally, optimize,
attack. All numeric JSON output is rounded to 12 significant digits before
serialization so repeated runs are byte-identical. Exit codes: 0 success,
1 domain error (structured JSON on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import attacks, metrics, stake, transform, utility
from .errors import ParseError, QvkitError
from .schemes import BallotProfile, SchemeSpec, tally


def _round_floats(obj):
    """Recursively pin floats to 12 significant digits for stable output."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit_json(obj, out):
    out.write(json.dumps(_round_floats(obj), indent=2))
    out.write("\n")


def parse_ballots_json(path):
    """Ballot file: JSON array of {voter_id, allocations: [...]}."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(path, exc.lineno, exc.msg)
    if not isinstance(data, list):
        raise ParseError(path, 1, "expected a JSON array of ballots")
    ballots = []
    for idx, item in enumerate(data):
        if not isinstance(item, dict) or "voter_id" not in item \
                or "allocations" not in item:
            raise ParseError(path, 1,
                             f"ballot #{idx} needs voter_id and allocations")
        ballots.append(BallotProfile(voter_id=str(item["voter_id"]),
                                     allocations=item["allocations"]))
    return ballots


def _scheme_from_args(args):
    gamma = getattr(args, "scheme_gamma", None)
    kwargs = {}
    if args.scheme == "gpv":
        kwargs["gamma"] = gamma
    if getattr(args, "polarity", None):
        kwargs["polarity"] = args.polarity
    return SchemeSpec(args.scheme, **kwargs)


def _cmd_generate(args, out):
    seed = args.seed
    if seed is None:
        env = os.environ.get("QVKIT_SEED")
        if env is None:
            raise QvkitError("no --seed given and QVKIT_SEED is unset")
        seed = int(env)
    spec = stake.DistributionSpec(kind=args.kind, n=args.n, seed=seed,
                                  lo=args.lo, hi=args.hi, shape=args.shape,
                                  scale=args.scale, value=args.value)
    dist = stake.generate(spec)
    stake.write_csv(dist, out)
    return 0


def _cmd_metrics(args, out):
    dist = stake.read_csv(args.stakes)
    rep = metrics.report(dist, args.gamma, args.nakamoto)
    _emit_json({
        "gamma": rep.gamma,
        "n": dist.n,
        "rvr": list(rep.rvr),
        "eta": list(rep.eta),
        "eta_threshold": metrics.eta_threshold(dist),
        "gini": rep.gini,
        "nakamoto": [
            {"threshold": a, "classical": c, "normalized": nn}
            for a, (c, nn) in sorted(rep.nakamoto.items())
        ],
    }, out)
    return 0


def _cmd_lorenz(args, out):
    dist = stake.read_csv(args.stakes)
    points = metrics.lorenz_points(stake.credits(dist.stakes(), args.gamma))
    if args.format == "csv":
        out.write("i,cumulative_share\n")
        for i, share in points:
            out.write(f"{i},{float(f'{share:.12g}')!r}\n")
    else:
        _emit_json({"gamma": args.gamma,
                    "points": [{"i": i, "cumulative_share": s}
                               for i, s in points]}, out)
    return 0


def _cmd_gamma_search(args, out):
    dist = stake.read_csv(args.stakes)
    result = transform.gamma_search(dist, args.k, args.alpha, tol=args.tol,
                                    strict_input=args.strict_input)
    _emit_json({
        "gamma": result.gamma,
        "achieved_share": result.achieved_share,
        "target": result.target,
        "iterations": result.iterations,
        "converged": result.converged,
    }, out)
    if args.transformed_out:
        transformed = transform.apply_gamma(dist, result.gamma)
        with open(args.transformed_out, "w", encoding="utf-8") as fh:
            stake.write_csv(transformed, fh)
    return 0


def _cmd_tally(args, out):
    dist = stake.read_csv(args.stakes)
    ballots = parse_ballots_json(args.ballots)
    scheme = _scheme_from_args(args)
    result = tally(scheme, dist, ballots, args.proposals,
                   allow_undervote=args.allow_undervote)
    _emit_json({
        "scheme": {"family": scheme.family, "stake_mode": scheme.stake_mode,
                   "polarity": scheme.polarity,
                   **({"gamma": scheme.gamma} if scheme.gamma is not None else {})},
        "proposals": [{"index": i, "score": s, "vscore": v}
                      for i, (s, v) in enumerate(zip(result.score, result.vscore))],
        "voters": [{"voter_id": vid, "credit_used": used}
                   for vid, used in result.credit_used],
    }, out)
    return 0


def _cmd_optimize(args, out):
    with open(args.problem, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(args.problem, exc.lineno, exc.msg)
    problem = utility.UtilityProblem(
        profits=data["profits"], aligned=data["aligned"], total=data["total"],
        stake=data["stake"], scheme=args.scheme)
    solution = utility.maximize(problem, tol=args.tol)
    payload = {
        "scheme": args.scheme,
        "allocation": list(solution.allocation),
        "multiplier": solution.multiplier,
        "utility": solution.utility,
        "kkt_residual": solution.kkt_residual,
        "method": solution.method,
        "degenerate": solution.degenerate,
    }
    if args.oracle_check:
        oracle = utility.brute_force_oracle(problem)
        payload["oracle_utility"] = oracle.utility
        payload["oracle_gap"] = solution.utility - oracle.utility
    _emit_json(payload, out)
    return 0


def _cmd_attack(args, out):
    with open(args.scenario, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(args.scenario, exc.lineno, exc.msg)
    if args.kind == "sybil":
        scheme = SchemeSpec(data["scheme"],
                            **({"gamma": data["gamma"]}
                               if data.get("gamma") is not None else {}))
        gain = attacks.sybil_gain(scheme, data["stake"], data["k"])
        _emit_json({"attack_kind": "sybil", "scheme": data["scheme"],
                    "stake": float(data["stake"]), "identities": data["k"],
                    "gain": gain}, out)
        return 0
    if args.kind == "collusion":
        honest = [BallotProfile(f"v{i + 1}", b)
                  for i, b in enumerate(data["honest_plan"])]
        colluding = [BallotProfile(f"v{i + 1}", b)
                     for i, b in enumerate(data["colluding_plan"])]
        report = attacks.collusion_gain(data["stakes"], data["proposals"],
                                        honest, colluding)
    else:
        prior_ballots = [BallotProfile(b["voter_id"], b["allocations"])
                         for b in data.get("prior_ballots", [])]
        raw_stakes = data.get("prior_stakes", [])
        # a board with no prior ballots needs no stakes, and canonicalize
        # rejects an empty list
        prior_stakes = (stake.canonicalize(raw_stakes)
                        if raw_stakes or prior_ballots else None)
        report = attacks.last_voter_advantage(
            data["scheme"], prior_ballots, prior_stakes,
            data["last_voter_stake"], data["profits"],
            aligned_fraction=data.get("aligned_fraction"))
    _emit_json({
        "attack_kind": report.attack_kind,
        "baseline": list(report.baseline),
        "attacked": list(report.attacked),
        "gain": report.gain,
        "narrative": report.narrative,
    }, out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qvkit",
        description="Voting-scheme engine and decentralization analyzer.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a synthetic stake distribution as CSV")
    p.add_argument("--kind", choices=("constant", "uniform", "pareto"),
                   required=True)
    p.add_argument("--n", type=int, required=True, help="population size (>= 1)")
    p.add_argument("--seed", type=int, default=None,
                   help="64-bit seed; falls back to QVKIT_SEED")
    p.add_argument("--lo", type=float, default=1.0, help="uniform lower bound")
    p.add_argument("--hi", type=float, default=2.0, help="uniform upper bound")
    p.add_argument("--shape", type=float, default=1.16, help="pareto shape (> 0)")
    p.add_argument("--scale", type=float, default=1.0, help="pareto scale (> 0)")
    p.add_argument("--value", type=float, default=1.0, help="constant stake value")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("metrics", help="decentralization report for a stake file")
    p.add_argument("--stakes", required=True)
    p.add_argument("--gamma", type=float, default=0.5,
                   help="credit exponent in (0, 1]")
    p.add_argument("--nakamoto", type=float, nargs="+", default=[0.51],
                   help="control thresholds in (0, 1); default 0.51 by convention")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("lorenz", help="Lorenz curve points of gamma-credits")
    p.add_argument("--stakes", required=True)
    p.add_argument("--gamma", type=float, default=1.0, help="credit exponent in (0, 1]")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(func=_cmd_lorenz)

    p = sub.add_parser("gamma-search",
                       help="find gamma capping the top-k share at alpha")
    p.add_argument("--stakes", required=True)
    p.add_argument("--k", type=int, required=True,
                   help="number of largest stakeholders to cap")
    p.add_argument("--alpha", type=float, required=True,
                   help="target top-k share, in (k/n, current share)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--strict-input", action="store_true",
                   help="reject targets already satisfied at gamma = 1")
    p.add_argument("--transformed-out", default=None,
                   help="write the transformed distribution CSV here")
    p.set_defaults(func=_cmd_gamma_search)

    p = sub.add_parser("tally", help="score and vscore a ballot file")
    p.add_argument("--scheme", choices=("linear", "qv1", "qv2", "qv3", "gpv"),
                   required=True)
    p.add_argument("--scheme-gamma", type=float, default=None,
                   help="gamma for the gpv family, in (0, 1)")
    p.add_argument("--polarity", choices=("yes-abstain", "yes-no-abstain"),
                   default=None)
    p.add_argument("--stakes", required=True)
    p.add_argument("--ballots", required=True)
    p.add_argument("--proposals", type=int, required=True)
    p.add_argument("--allow-undervote", action="store_true",
                   help="accept ballots spending less than the full credit")
    p.set_defaults(func=_cmd_tally)

    p = sub.add_parser("optimize", help="solve a last-mover utility problem")
    p.add_argument("--scheme", choices=("qv1", "qv2"), required=True)
    p.add_argument("--problem", required=True,
                   help="JSON: {profits, aligned, total, stake}")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--oracle-check", action="store_true",
                   help="also run the brute-force oracle and report the gap")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("attack", help="run a strategic-behavior scenario")
    p.add_argument("kind", choices=("collusion", "sybil", "last-voter"))
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.set_defaults(func=_cmd_attack)

    return parser


def main(argv=None, stdout=None, stderr=None):
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args, stdout)
    except QvkitError as exc:
        _emit_json({"error": type(exc).__name__, "message": str(exc)}, stderr)
        return 1
    except OSError as exc:
        _emit_json({"error": "IoError", "message": str(exc)}, stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
