"""The three benchmark workloads: inputs, one op, and the op's checks.

Each workload is built from the benchmark seed alone. `__init__` makes
every random draw, outside all timing. `build` turns those draws into the
inputs through qvkit's public API and is what `setup_s` times. `prepare`
computes the references with this file's own numpy and math code, outside
all timing. `op` is one closed-loop operation and is the only timed part of
the loop. `check` raises CheckFailed when an output disagrees with a
reference; the caller counts that op as failed and goes on.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

GAMMA = 0.5
NAKAMOTO = (0.33, 0.51, 0.67)
TOP_K = 10
ALPHA = 0.05
SEARCH_TOL = 1e-9
#: gamma-search prints gamma rounded to 12 significant digits.
ROUND_REL = 5e-12
TALLY_GPV_GAMMA = 0.3
SCHEMES = ("linear", "qv1", "qv2", "qv3", "gpv")


class CheckFailed(Exception):
    """An op's output disagrees with the benchmark's own reference."""


def _expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def _rel_close(got, want, rel):
    return abs(got - want) <= rel * max(abs(want), 1e-300)


def _rng(seed, salt):
    return np.random.default_rng([seed, salt])


def _spec_seed(rng):
    return int(rng.integers(2**62))


def _digest(text, chunk=1 << 20):
    """SHA-256 of a string, encoded a chunk at a time."""
    h = hashlib.sha256()
    for i in range(0, len(text), chunk):
        h.update(text[i:i + chunk].encode())
    return h.digest()


def _lorenz_share(pairs):
    """JSON object hook: a Lorenz point becomes its cumulative share alone."""
    if pairs and pairs[-1][0] == "cumulative_share":
        return pairs[-1][1]
    return dict(pairs)


class CliAnalysis:
    """The analyst's path: stake CSV -> metrics, Lorenz and gamma-search reports."""

    name = "cli-analysis"
    sizes = {"full": {"voters": 100_000}, "tiny": {"voters": 2_000}}

    def __init__(self, qvkit, size, seed, workdir):
        self.qvkit = qvkit
        self.n = self.sizes[size]["voters"]
        self.spec_seed = _spec_seed(_rng(seed, 1))
        self.stakes_path = os.path.join(workdir, "stakes.csv")
        self.transformed_path = os.path.join(workdir, "transformed.csv")
        self.first_digests = None

    def build(self):
        qvkit = self.qvkit
        spec = qvkit.DistributionSpec(kind="pareto", n=self.n, shape=1.16,
                                      seed=self.spec_seed)
        dist = qvkit.generate(spec)
        with open(self.stakes_path, "w", encoding="utf-8", newline="") as fh:
            qvkit.stake.write_csv(dist, fh)

    def prepare(self):
        with open(self.stakes_path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            next(rows)
            s = np.sort(np.fromiter((float(r[1]) for r in rows), dtype=float))
        c = s ** GAMMA
        total = math.fsum(c.tolist())
        weighted = math.fsum((np.arange(1, c.size + 1) * c).tolist())
        self.gini = (2.0 * weighted - (c.size + 1) * total) / (c.size * total)
        top_cum = np.cumsum(c[::-1])
        self.nakamoto = {a: int(np.searchsorted(top_cum, a * total)) + 1
                         for a in NAKAMOTO}
        self.stakes = s
        # gamma-search only bisects when the target is below the current
        # top-k share; a rare seed whose share is already under ALPHA would
        # skip the search, so the target is lowered to keep the op's work.
        self.alpha = min(ALPHA, self._top_share(1.0) / 2.0)
        self.argvs = (
            ["metrics", "--stakes", self.stakes_path, "--gamma", str(GAMMA),
             "--nakamoto", *map(str, NAKAMOTO)],
            ["lorenz", "--stakes", self.stakes_path, "--gamma", str(GAMMA),
             "--format", "json"],
            ["gamma-search", "--stakes", self.stakes_path, "--k", str(TOP_K),
             "--alpha", repr(self.alpha), "--transformed-out", self.transformed_path],
        )
        return {"voters": self.n, "alpha": self.alpha}

    def _top_share(self, gamma):
        w = self.stakes ** gamma
        return math.fsum(w[-TOP_K:].tolist()) / math.fsum(w.tolist())

    def op(self):
        qvkit = self.qvkit
        outs = []
        for argv in self.argvs:
            out = io.StringIO()
            rc = qvkit.cli.main(argv, stdout=out)
            outs.append((rc, out.getvalue()))
        return outs

    def check(self, outs):
        # The check keeps its own memory small (digests, one float per Lorenz
        # point), so that the op, not the check, sets the run's peak RSS.
        for (rc, _), argv in zip(outs, self.argvs):
            _expect(rc == 0, f"{argv[0]} exited {rc}")
        digests = [_digest(text) for _, text in outs]
        if self.first_digests is None:
            self.first_digests = digests
        for digest, first, argv in zip(digests, self.first_digests, self.argvs):
            _expect(digest == first, f"{argv[0]} stdout differs from the run's first op")

        rep = json.loads(outs[0][1])
        _expect(_rel_close(rep["gini"], self.gini, 1e-11),
                f"gini {rep['gini']!r} != reference {self.gini!r}")
        got = {e["threshold"]: e["classical"] for e in rep["nakamoto"]}
        _expect(got == self.nakamoto, f"nakamoto {got} != reference {self.nakamoto}")
        del rep

        shares = json.loads(outs[1][1], object_pairs_hook=_lorenz_share)["points"]
        _expect(len(shares) == self.n + 1, f"{len(shares)} Lorenz points for n={self.n}")
        _expect(all(a <= b for a, b in zip(shares, shares[1:])),
                "Lorenz shares decrease")
        _expect(shares[-1] == 1.0, f"Lorenz curve ends at {shares[-1]!r}")
        del shares

        search = json.loads(outs[2][1])
        _expect(search["converged"] is True, "gamma-search did not converge")
        gamma = search["gamma"]
        share = self._top_share(gamma)
        # the printed gamma is rounded, so allow the share's change over
        # that rounding on top of the search tolerance
        rounding = max(abs(self._top_share(gamma * (1 + d)) - share)
                       for d in (ROUND_REL, -ROUND_REL))
        _expect(abs(share - self.alpha) <= SEARCH_TOL + rounding + 1e-15,
                f"top-{TOP_K} share {share!r} at gamma {gamma!r} misses {self.alpha!r}")
        with open(self.transformed_path, encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        _expect(rows == self.n, f"transformed CSV has {rows} rows, want {self.n}")


def _random_ranks(rng, rows, m):
    """A random permutation of 0..m-1 in each row."""
    return rng.random((rows, m)).argsort(axis=1).argsort(axis=1)


def _split_fractions(rng, rows, m, dense):
    """Random splits of 1 over m proposals, one per row.

    Each row puts Dirichlet(1) weights on a random support of 1..m
    proposals, or on all m when `dense`.
    """
    support = m if dense else rng.integers(1, m + 1, size=(rows, 1))
    w = rng.exponential(size=(rows, m)) * (_random_ranks(rng, rows, m) < support)
    return w / w.sum(axis=1, keepdims=True)


def _allocations(credits, fractions):
    """Scale each row of `fractions` to its voter's credit.

    The last supported entry of a row absorbs the rounding, so that the row
    sums to the credit within an ulp, well inside qvkit's 1e-9 credit
    tolerance.
    """
    b = credits[:, None] * fractions
    rows = np.arange(b.shape[0])
    last = b.shape[1] - 1 - np.argmax(fractions[:, ::-1] > 0, axis=1)
    b[rows, last] = 0.0
    b[rows, last] = credits - b.sum(axis=1)
    return b


def _credits(family, stakes):
    if family in ("linear", "qv1"):
        return stakes
    if family in ("qv2", "qv3"):
        return np.sqrt(stakes)
    return stakes ** TALLY_GPV_GAMMA


def _impact(family, b):
    """sign(b) * f(|b|): square root for qv1, identity otherwise."""
    return np.sign(b) * (np.sqrt(np.abs(b)) if family == "qv1" else np.abs(b))


class TallyRound:
    """One voting round tallied under all five schemes."""

    name = "tally-round"
    sizes = {"full": {"voters": 4_000, "turnout": 0.9, "proposals": 5},
             "tiny": {"voters": 200, "turnout": 0.9, "proposals": 5}}

    def __init__(self, qvkit, size, seed, workdir):
        self.qvkit = qvkit
        self.cfg = cfg = self.sizes[size]
        m = cfg["proposals"]
        turnout = int(round(cfg["turnout"] * cfg["voters"]))
        # every random draw is made here, outside the timed build
        rng = _rng(seed, 2)
        self.spec_seed = _spec_seed(rng)
        self.order = rng.permutation(cfg["voters"])[:turnout]
        self.fractions = {}
        for family in SCHEMES:
            if family == "qv3":  # full credit on each of 1..3 proposals
                on = _random_ranks(rng, turnout, m) < rng.integers(1, 4, size=(turnout, 1))
                self.fractions[family] = on.astype(float)
            else:
                self.fractions[family] = _split_fractions(rng, turnout, m, dense=False)

    def build(self):
        qvkit = self.qvkit
        dist = qvkit.generate(qvkit.DistributionSpec(
            kind="pareto", n=self.cfg["voters"], shape=1.16, seed=self.spec_seed))
        voters = [dist.entries[i] for i in self.order]
        stakes = np.array([s for _, s in voters])
        self.dist = dist
        self.rounds = []
        for family in SCHEMES:
            credits = _credits(family, stakes)
            if family == "qv3":
                matrix = credits[:, None] * self.fractions[family]
            else:
                matrix = _allocations(credits, self.fractions[family])
            ballots = [qvkit.BallotProfile(vid, alloc)
                       for (vid, _), alloc in zip(voters, matrix.tolist())]
            spec = qvkit.SchemeSpec(family, **(
                {"gamma": TALLY_GPV_GAMMA} if family == "gpv" else {}))
            self.rounds.append((spec, ballots, matrix))

    def prepare(self):
        self.refs = []
        for spec, ballots, matrix in self.rounds:
            score = matrix.sum(axis=0)
            vscore = _impact(spec.family, matrix).sum(axis=0)
            self.refs.append((score, vscore, [b.voter_id for b in ballots]))
        return {"voters": self.cfg["voters"], "ballots_per_scheme": len(self.refs[0][2]),
                "proposals": self.cfg["proposals"], "schemes": list(SCHEMES)}

    def op(self):
        qvkit = self.qvkit
        m = self.cfg["proposals"]
        return [qvkit.schemes.tally(spec, self.dist, ballots, m)
                for spec, ballots, _ in self.rounds]

    def check(self, results):
        for result, (spec, _, _), (score, vscore, ids) in zip(results, self.rounds,
                                                               self.refs):
            fam = spec.family
            for name, got, want in (("score", result.score, score),
                                    ("vscore", result.vscore, vscore)):
                _expect(len(got) == len(want), f"{fam} {name} has {len(got)} entries")
                for g, w in zip(got, want):
                    _expect(_rel_close(g, w, 1e-9), f"{fam} {name} {g!r} != {w!r}")
            _expect([vid for vid, _ in result.credit_used] == ids,
                    f"{fam} credit_used is not one entry per ballot in ballot order")


class LastMover:
    """The last voter's allocation problem against a tallied prior board."""

    name = "last-mover"
    sizes = {"full": {"proposals": (3, 100), "prior_ballots": 40},
             "tiny": {"proposals": (3, 10), "prior_ballots": 10}}

    def __init__(self, qvkit, size, seed, workdir):
        self.qvkit = qvkit
        n = self.sizes[size]["prior_ballots"]
        # every random draw is made here, outside the timed build
        rng = _rng(seed, 3)
        self.problems = [
            {"family": family, "m": m, "spec_seed": _spec_seed(rng),
             "fractions": _split_fractions(rng, n, m, dense=True),
             "profits": rng.uniform(0.5, 2.0, m).tolist(),
             "aligned": rng.uniform(0.1, 0.9, m).tolist()}
            for family in ("qv1", "qv2") for m in self.sizes[size]["proposals"]]
        self.prior_ballots = n

    def build(self):
        qvkit = self.qvkit
        for p in self.problems:
            prior = qvkit.generate(qvkit.DistributionSpec(
                kind="pareto", n=self.prior_ballots, shape=1.16, seed=p["spec_seed"]))
            stakes = np.array([s for _, s in prior.entries])
            board = _allocations(_credits(p["family"], stakes), p["fractions"])
            p["ballots"] = [qvkit.BallotProfile(vid, alloc)
                            for (vid, _), alloc in zip(prior.entries, board.tolist())]
            p["prior"] = prior
            p["board"] = board
            p["stake"] = float(prior.entries[len(prior.entries) // 2][1])

    def prepare(self):
        utility = self.qvkit.utility
        for p in self.problems:
            b = _impact(p["family"], p["board"]).sum(axis=0)
            p["total"] = b
            p["aligned_mass"] = np.array(p["aligned"]) * b
            p["oracle"] = None
            if p["m"] <= 4:  # brute_force_oracle covers m <= 4 only
                problem = utility.UtilityProblem(
                    profits=p["profits"], aligned=p["aligned_mass"], total=b,
                    stake=p["stake"], scheme=p["family"])
                p["oracle"] = utility.brute_force_oracle(problem).utility
        return {"problems": [{"scheme": p["family"], "proposals": p["m"],
                              "prior_ballots": len(p["ballots"])}
                             for p in self.problems]}

    def op(self):
        qvkit = self.qvkit
        return [qvkit.attacks.last_voter_advantage(
                    p["family"], p["ballots"], p["prior"], p["stake"], p["profits"],
                    aligned_fraction=p["aligned"])
                for p in self.problems]

    def check(self, reports):
        for rep, p in zip(reports, self.problems):
            label = f"{p['family']} m={p['m']}"
            x = np.array(rep.attacked, dtype=float)
            _expect(x.shape == (p["m"],) and bool(np.all(x >= 0)),
                    f"{label}: bad allocation shape or sign")
            if p["family"] == "qv1":
                used, budget = math.fsum((x * x).tolist()), p["stake"]
            else:
                used, budget = math.fsum(x.tolist()), math.sqrt(p["stake"])
            _expect(_rel_close(used, budget, 1e-9),
                    f"{label}: budget {used!r} != {budget!r}")
            residual = kkt_residual(p, x)
            _expect(residual <= 1e-8, f"{label}: KKT residual {residual!r}")
            if p["oracle"] is not None:
                u = _utility(p, x)
                _expect(u >= p["oracle"] - 1e-9,
                        f"{label}: utility {u!r} below oracle {p['oracle']!r}")


def _utility(p, x):
    pi, a, b = np.array(p["profits"]), p["aligned_mass"], p["total"]
    return math.fsum((pi * (x + a) / (x + b)).tolist())


def kkt_residual(p, x):
    """Stationarity residual of an allocation, relative to the largest gradient.

    qv1 needs dU/dx_r = 2*lam*x_r on every coordinate; qv2 needs
    dU/dx_r = 2*lam on interior coordinates and dU/dx_r <= 2*lam on clamped
    ones. lam is fitted by least squares over the stationary coordinates.
    """
    pi, a, b = np.array(p["profits"]), p["aligned_mass"], p["total"]
    grad = pi * (b - a) / (x + b) ** 2
    if p["family"] == "qv1":
        lam2 = float(grad @ x) / float(x @ x)
        dev = np.abs(grad - lam2 * x)
    else:
        interior = x > 1e-7 * math.sqrt(p["stake"])
        lam2 = float(np.mean(grad[interior]))
        dev = np.where(interior, np.abs(grad - lam2), np.maximum(0.0, grad - lam2))
    return float(dev.max() / grad.max())


WORKLOADS = {w.name: w for w in (CliAnalysis, TallyRound, LastMover)}
