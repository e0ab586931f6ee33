"""Batch command-line frontend.

Subcommands: generate, metrics, lorenz, gamma-search, tally, optimize,
attack. generate and lorenz --format csv write CSV; every other subcommand
returns its JSON document, and main writes it, as it writes the error object
of a failed run, so a failed run writes nothing to stdout. Floats are rounded
to 12 significant digits, so repeated runs are byte-identical. Float lists
and _Records (Lorenz points, tally voters and proposals) stream _CHUNK items
at a time; json.dumps writes every other value. Exit codes: 0 success,
1 domain error (structured JSON on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from . import attacks, metrics, stake, transform, utility
from .errors import InvalidSpec, ParseError, QvkitError
from .schemes import FAMILIES, POLARITIES, BallotProfile, SchemeSpec, tally


_INDENT = "  "
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
#: list items or _Records rows per piece of JSON output, and rows per write
#: of Lorenz CSV output
_CHUNK = 4096


def _float_texts(values):
    """repr(float(f"{v:.12g}")) of each value, formatted in one batch.

    The .12g text is that repr itself when the rounded value is a normal
    float and not an integer: fewer than 15 significant digits round-trip,
    so repr finds the same digits, and both then write them in the same
    notation. `direct` keeps a subset of those values: it drops every value
    within 1e-11 relative of an integer, which takes in all of magnitude
    1e11 and up (the band where .12g writes e+ and repr does not), and every
    value below 1e-300 (zeros, subnormals); NaN and inf fail both tests.
    The rest take the exact route. NaN and +-inf are written as json writes
    them.
    """
    a = np.array(values, dtype=float)
    texts = list(map(float.__format__, a.tolist(), repeat(".12g")))
    mag = np.abs(a)
    with np.errstate(invalid="ignore"):
        direct = (mag >= 1e-300) & (np.abs(a - np.rint(a)) > 1e-11 * mag)
    for i in np.flatnonzero(~direct).tolist():
        text = repr(float(texts[i]))
        texts[i] = _JSON_NONFINITE.get(text, text)
    return texts


class _Records(dict):
    """A JSON list of objects that share one key order, held as key -> column
    (one value per object); _emit_json writes it as that list of dicts."""


def _rounded(obj):
    """obj with each float rounded to 12 significant digits and each _Records
    expanded into its list of dicts: what json.dumps writes for it."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, _Records):
        obj = [dict(zip(obj, row)) for row in zip(*obj.values())]
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(map(_rounded, obj))
    return obj


def _dumps(obj, level):
    """json.dumps(obj, indent=2) at nesting `level`, floats rounded: json escapes
    each control character in a string, so each newline it writes is an indent."""
    return json.dumps(_rounded(obj), indent=2).replace("\n", "\n" + _INDENT * level)


def _records_pieces(records, level):
    """The json text of a _Records whose list sits at `level`, _CHUNK rows a piece.

    The columns' slices for a chunk of rows are encoded whole, then joined
    once as [head, value, sep, value, ..., head, ...]: a head closes the
    object before and opens the next up to its first key, a sep is the
    comma, indent and next key.
    """
    columns = list(records.values())
    rows = len(columns[0])
    if not rows:
        yield "[]"
        return
    outer = "\n" + _INDENT * (level + 1)
    seps = [",\n" + _INDENT * (level + 2) + encode_basestring_ascii(k) + ": " for k in records]
    first = "{" + seps[0][1:]
    head = outer + "}," + outer + first
    step = 2 * len(columns)
    for start in range(0, rows, _CHUNK):
        texts = [_json_texts(column[start:start + _CHUNK], level + 2) for column in columns]
        size = len(texts[0])
        parts = [None] * (step * size)
        parts[0::step] = [head] * size
        if not start:
            parts[0] = "[" + outer + first
        for j, column in enumerate(texts):
            if j:
                parts[2 * j::step] = [seps[j]] * size
            parts[2 * j + 1::step] = column
        yield "".join(parts)
    yield outer + "}\n" + _INDENT * level + "]"


def _json_texts(items, level):
    """The json text of each item of a list whose items sit at `level`: in one
    batch when all are floats, all ints or all strs, else item by item."""
    kinds = set(map(type, items))
    if all(issubclass(k, float) for k in kinds):
        return _float_texts(items)
    if all(issubclass(k, int) and not issubclass(k, bool) for k in kinds):
        return list(map(int.__repr__, items))
    if all(issubclass(k, str) for k in kinds):
        return list(map(encode_basestring_ascii, items))
    return [_dumps(item, level) for item in items]


def _emit_json(doc, out):
    """Write json.dumps(doc, indent=2) + "\n" of a dict of str keys, floats
    rounded. A list, tuple or _Records value is written _CHUNK items at a
    time, so its whole text is never held. As with json.dump, a value that is
    not serializable raises TypeError after the values before it are written."""
    sep, item_sep = "{\n" + _INDENT, ",\n" + _INDENT * 2
    for key, value in doc.items():
        out.write(sep + encode_basestring_ascii(key) + ": ")
        if isinstance(value, _Records):
            out.writelines(_records_pieces(value, 1))
        elif isinstance(value, (list, tuple)) and value:
            for start in range(0, len(value), _CHUNK):
                out.write((item_sep if start else "[" + item_sep[1:])
                          + item_sep.join(_json_texts(value[start:start + _CHUNK], 2)))
            out.write("\n" + _INDENT + "]")
        else:
            out.write(_dumps(value, 1))
        sep = ",\n" + _INDENT
    out.write("\n}\n" if doc else "{}\n")


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(path, exc.lineno, exc.msg)


def _load_object(path, keys, arrays=(), pairs=()):
    """The JSON object in `path`, holding every key in `keys`.

    Each key in `arrays` or `pairs` that it holds must be an array, and
    each item of a `pairs` array a [voter_id, stake] pair. Anything else is
    a ParseError at line 1, as in a ballot file.
    """
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ParseError(path, 1, "expected a JSON object")
    for key in keys:
        if key not in data:
            raise ParseError(path, 1, f"missing key {key!r}")
    for key in (*arrays, *pairs):
        items = data.get(key, [])
        if not isinstance(items, list) or key in pairs and not all(
                isinstance(item, list) and len(item) == 2 for item in items):
            raise ParseError(path, 1, f"{key} must be an array"
                             + " of [voter_id, stake] pairs" * (key in pairs))
    return data


def _ballots(path, data):
    """The BallotProfiles of a JSON array of ballots."""
    if not isinstance(data, list):
        raise ParseError(path, 1, "expected a JSON array of ballots")
    ballots = []
    for idx, item in enumerate(data):
        if not isinstance(item, dict) or "voter_id" not in item \
                or "allocations" not in item:
            raise ParseError(path, 1,
                             f"ballot #{idx} needs voter_id and allocations")
        ballots.append(BallotProfile(item["voter_id"], item["allocations"]))
    return ballots


def _cmd_generate(args, out):
    seed = args.seed
    if seed is None:
        env = os.environ.get("QVKIT_SEED")
        if env is None:
            raise QvkitError("no --seed given and QVKIT_SEED is unset")
        try:
            seed = int(env)
        except ValueError:
            raise InvalidSpec(f"QVKIT_SEED must be an integer, got {env!r}")
    spec = stake.DistributionSpec(kind=args.kind, n=args.n, seed=seed,
                                  lo=args.lo, hi=args.hi, shape=args.shape,
                                  scale=args.scale, value=args.value)
    dist = stake.generate(spec)
    stake.write_csv(dist, out)


def _cmd_metrics(args, out):
    dist = stake.read_csv(args.stakes)
    rep = metrics.report(dist, args.gamma, args.nakamoto)
    ks = sorted(rep.nakamoto.items())
    return {
        "gamma": rep.gamma,
        "n": dist.n,
        "rvr": rep.rvr,
        "eta": rep.eta,
        "eta_threshold": metrics.eta_threshold(dist),
        "gini": rep.gini,
        "nakamoto": _Records({"threshold": [a for a, _ in ks],
                              "classical": [c for _, (c, _) in ks],
                              "normalized": [nn for _, (_, nn) in ks]}),
    }


def _cmd_lorenz(args, out):
    # the distribution's ids are not needed, so they are freed before the emit
    stakes = stake.read_csv(args.stakes).stakes()
    # emitted as a list: the array's emit peaked higher in RSS on 100k shares
    shares = metrics._lorenz_shares(stake._power(stakes, stake._check_gamma(args.gamma))).tolist()
    if args.format == "json":
        return {"gamma": args.gamma,
                "points": _Records({"i": range(len(shares)), "cumulative_share": shares})}
    # the shares are finite, so no json token for NaN or inf is written
    out.write("i,cumulative_share\n")
    for start in range(0, len(shares), _CHUNK):
        out.write("".join(map("{},{}\n".format, range(start, start + _CHUNK),
                              _float_texts(shares[start:start + _CHUNK]))))


def _cmd_gamma_search(args, out):
    dist = stake.read_csv(args.stakes)
    result = transform.gamma_search(dist, args.k, args.alpha, tol=args.tol,
                                    strict_input=args.strict_input)
    if args.transformed_out:
        transformed = transform.apply_gamma(dist, result.gamma)
        with open(args.transformed_out, "w", encoding="utf-8") as fh:
            stake.write_csv(transformed, fh)
    return {
        "gamma": result.gamma,
        "achieved_share": result.achieved_share,
        "target": result.target,
        "iterations": result.iterations,
        "converged": result.converged,
    }


def _cmd_tally(args, out):
    dist = stake.read_csv(args.stakes)
    ballots = _ballots(args.ballots, _load_json(args.ballots))
    if args.scheme == "gpv" and args.scheme_gamma is None:
        raise InvalidSpec("--scheme gpv needs --scheme-gamma")
    scheme = SchemeSpec(args.scheme, args.scheme_gamma, polarity=args.polarity)
    result = tally(scheme, dist, ballots, args.proposals,
                   allow_undervote=args.allow_undervote)
    return {
        "scheme": {"family": scheme.family, "stake_mode": scheme.stake_mode,
                   "polarity": scheme.polarity,
                   **({"gamma": scheme.gamma} if scheme.gamma is not None else {})},
        "proposals": _Records({"index": range(len(result.score)),
                               "score": result.score, "vscore": result.vscore}),
        "voters": _Records({"voter_id": result.voter_ids,
                            "credit_used": result.used().tolist()}),
    }


def _cmd_optimize(args, out):
    data = _load_object(args.problem, ("profits", "aligned", "total", "stake"))
    problem = utility.UtilityProblem(
        profits=data["profits"], aligned=data["aligned"], total=data["total"],
        stake=data["stake"], scheme=args.scheme)
    solution = utility.maximize(problem)
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
    return payload


def _cmd_attack(args, out):
    path = args.scenario
    if args.kind == "sybil":
        data = _load_object(path, ("scheme", "stake", "k"))
        scheme = SchemeSpec(data["scheme"], data.get("gamma"))
        gain = attacks.sybil_gain(scheme, data["stake"], data["k"])
        return {"attack_kind": "sybil", "scheme": data["scheme"],
                "stake": float(data["stake"]), "identities": data["k"], "gain": gain}
    if args.kind == "collusion":
        lists = ("stakes", "honest_plan", "colluding_plan")
        data = _load_object(path, (*lists, "proposals"), arrays=lists)
        honest = [BallotProfile(f"v{i + 1}", b)
                  for i, b in enumerate(data["honest_plan"])]
        colluding = [BallotProfile(f"v{i + 1}", b)
                     for i, b in enumerate(data["colluding_plan"])]
        report = attacks.collusion_gain(data["stakes"], data["proposals"],
                                        honest, colluding)
    else:
        data = _load_object(path, ("scheme", "last_voter_stake", "profits"),
                            pairs=("prior_stakes",))
        prior_ballots = _ballots(path, data.get("prior_ballots", []))
        raw_stakes = data.get("prior_stakes", [])
        # a board with no prior ballots needs no stakes, and canonicalize
        # rejects an empty list
        prior_stakes = (stake.canonicalize(raw_stakes)
                        if raw_stakes or prior_ballots else None)
        report = attacks.last_voter_advantage(
            data["scheme"], prior_ballots, prior_stakes,
            data["last_voter_stake"], data["profits"],
            aligned_fraction=data.get("aligned_fraction"))
    return {
        "attack_kind": report.attack_kind,
        "baseline": list(report.baseline),
        "attacked": list(report.attacked),
        "gain": report.gain,
        "narrative": report.narrative,
    }


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qvkit",
        description="Voting-scheme engine and decentralization analyzer.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a synthetic stake distribution as CSV")
    p.add_argument("--kind", choices=stake.KINDS, required=True)
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
    p.add_argument("--scheme", choices=FAMILIES, required=True)
    p.add_argument("--scheme-gamma", type=float, default=None,
                   help="gamma for the gpv family, in (0, 1)")
    p.add_argument("--polarity", choices=POLARITIES, default=SchemeSpec.polarity)
    p.add_argument("--stakes", required=True)
    p.add_argument("--ballots", required=True)
    p.add_argument("--proposals", type=int, required=True)
    p.add_argument("--allow-undervote", action="store_true",
                   help="accept ballots spending less than the full credit")
    p.set_defaults(func=_cmd_tally)

    p = sub.add_parser("optimize", help="solve a last-mover utility problem")
    p.add_argument("--scheme", choices=utility.SCHEMES, required=True)
    p.add_argument("--problem", required=True,
                   help="JSON: {profits, aligned, total, stake}")
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
        doc = args.func(args, stdout)
        if doc is not None:
            _emit_json(doc, stdout)
        return 0
    except (QvkitError, OSError) as exc:
        error = type(exc).__name__ if isinstance(exc, QvkitError) else "IoError"
        _emit_json({"error": error, "message": str(exc)}, stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
