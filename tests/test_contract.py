"""The public API, pinned as one snapshot text.

The text holds, for each name that `qvkit` exports, the parameter names,
kinds and default reprs of its signature, and the field names of each
dataclass; the MRO of each error class in `qvkit.errors`; and the
subcommands of `cli.build_parser()` with their options and choices.
Annotations are left out, so the text reads the same on Python 3.10 to
3.12. A change that moves the API changes this snapshot, and names the
change.
"""

import argparse
import dataclasses
import inspect
import types

import qvkit
from qvkit import errors
from qvkit.cli import build_parser


def _signature(obj):
    params = inspect.signature(obj).parameters.values()
    return ", ".join(
        f"{p.name}:{p.kind.name}" + ("" if p.default is p.empty else f"={p.default!r}")
        for p in params)


def _exports():
    lines = []
    for name in sorted(vars(qvkit)):
        obj = getattr(qvkit, name)
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        if not callable(obj):
            lines.append(f"{name} = {obj!r}")
            continue
        lines.append(f"{name}({_signature(obj)})")
        if dataclasses.is_dataclass(obj):
            fields = ", ".join(f.name for f in dataclasses.fields(obj))
            lines.append(f"  fields: {fields}")
    return lines


def _error_classes():
    return [" > ".join(c.__name__ for c in cls.__mro__)
            for name, cls in sorted(vars(errors).items())
            if isinstance(cls, type) and issubclass(cls, Exception)]


def _subcommands():
    lines = []
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        lines.append(command)
        for action in parser._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            flags = "/".join(action.option_strings) or action.dest
            text = (f"  {flags} dest={action.dest} {type(action).__name__} "
                    f"type={getattr(action.type, '__name__', None)} nargs={action.nargs!r} "
                    f"required={action.required} default={action.default!r}")
            if action.choices is not None:
                text += f" choices={list(action.choices)!r}"
            lines.append(text)
    return lines


def api_text():
    return "\n".join(["[exports]", *_exports(), "[errors]", *_error_classes(),
                      "[cli]", *_subcommands()]) + "\n"


SNAPSHOT = """\
[exports]
AllocationSolution(allocation:POSITIONAL_OR_KEYWORD, multiplier:POSITIONAL_OR_KEYWORD, utility:POSITIONAL_OR_KEYWORD, kkt_residual:POSITIONAL_OR_KEYWORD, method:POSITIONAL_OR_KEYWORD, degenerate:POSITIONAL_OR_KEYWORD=False)
  fields: allocation, multiplier, utility, kkt_residual, method, degenerate
AttackReport(attack_kind:POSITIONAL_OR_KEYWORD, baseline:POSITIONAL_OR_KEYWORD, attacked:POSITIONAL_OR_KEYWORD, gain:POSITIONAL_OR_KEYWORD, narrative:POSITIONAL_OR_KEYWORD)
  fields: attack_kind, baseline, attacked, gain, narrative
BallotProfile(voter_id:POSITIONAL_OR_KEYWORD, allocations:POSITIONAL_OR_KEYWORD)
  fields: voter_id, allocations
DecentralizationReport(gamma:POSITIONAL_OR_KEYWORD, rvr:POSITIONAL_OR_KEYWORD, eta:POSITIONAL_OR_KEYWORD, gini:POSITIONAL_OR_KEYWORD, nakamoto:POSITIONAL_OR_KEYWORD, credits:POSITIONAL_OR_KEYWORD)
  fields: gamma, rvr, eta, gini, nakamoto, credits
DistributionSpec(kind:POSITIONAL_OR_KEYWORD, n:POSITIONAL_OR_KEYWORD, seed:POSITIONAL_OR_KEYWORD, lo:POSITIONAL_OR_KEYWORD=1.0, hi:POSITIONAL_OR_KEYWORD=2.0, shape:POSITIONAL_OR_KEYWORD=1.16, scale:POSITIONAL_OR_KEYWORD=1.0, value:POSITIONAL_OR_KEYWORD=1.0)
  fields: kind, n, seed, lo, hi, shape, scale, value
GammaSearchResult(gamma:POSITIONAL_OR_KEYWORD, achieved_share:POSITIONAL_OR_KEYWORD, target:POSITIONAL_OR_KEYWORD, iterations:POSITIONAL_OR_KEYWORD, converged:POSITIONAL_OR_KEYWORD)
  fields: gamma, achieved_share, target, iterations, converged
SchemeSpec(family:POSITIONAL_OR_KEYWORD, gamma:POSITIONAL_OR_KEYWORD=None, stake_mode:POSITIONAL_OR_KEYWORD=None, polarity:POSITIONAL_OR_KEYWORD='yes-abstain')
  fields: family, gamma, stake_mode, polarity
StakeDistribution(entries:POSITIONAL_OR_KEYWORD)
  fields: entries
TallyResult(scheme:POSITIONAL_OR_KEYWORD, score:POSITIONAL_OR_KEYWORD, vscore:POSITIONAL_OR_KEYWORD, credit_used:POSITIONAL_OR_KEYWORD)
  fields: scheme, score, vscore, credit_used
UtilityProblem(profits:POSITIONAL_OR_KEYWORD, aligned:POSITIONAL_OR_KEYWORD, total:POSITIONAL_OR_KEYWORD, stake:POSITIONAL_OR_KEYWORD, scheme:POSITIONAL_OR_KEYWORD)
  fields: profits, aligned, total, stake, scheme
apply_gamma(dist:POSITIONAL_OR_KEYWORD, gamma:POSITIONAL_OR_KEYWORD)
brute_force_oracle(problem:POSITIONAL_OR_KEYWORD, resolution:POSITIONAL_OR_KEYWORD=200)
canonicalize(raw:POSITIONAL_OR_KEYWORD)
collusion_gain(stakes:POSITIONAL_OR_KEYWORD, m:POSITIONAL_OR_KEYWORD, honest_plan:POSITIONAL_OR_KEYWORD, colluding_plan:POSITIONAL_OR_KEYWORD)
eta(dist:POSITIONAL_OR_KEYWORD, gamma:POSITIONAL_OR_KEYWORD)
eta_threshold(dist:POSITIONAL_OR_KEYWORD)
gamma_search(dist:POSITIONAL_OR_KEYWORD, k:POSITIONAL_OR_KEYWORD, alpha:POSITIONAL_OR_KEYWORD, tol:POSITIONAL_OR_KEYWORD=1e-09, max_iter:POSITIONAL_OR_KEYWORD=200, bracket:POSITIONAL_OR_KEYWORD=(1e-09, 1.0), strict_input:POSITIONAL_OR_KEYWORD=False)
generate(spec:POSITIONAL_OR_KEYWORD)
gini(credits:POSITIONAL_OR_KEYWORD)
gini_from_lorenz(credits:POSITIONAL_OR_KEYWORD)
kkt_residual(problem:POSITIONAL_OR_KEYWORD, solution:POSITIONAL_OR_KEYWORD)
last_voter_advantage(scheme_family:POSITIONAL_OR_KEYWORD, prior_ballots:POSITIONAL_OR_KEYWORD, prior_stakes:POSITIONAL_OR_KEYWORD, last_voter_stake:POSITIONAL_OR_KEYWORD, profits:POSITIONAL_OR_KEYWORD, aligned_fraction:POSITIONAL_OR_KEYWORD=None)
lorenz_points(credits:POSITIONAL_OR_KEYWORD)
maximize(problem:POSITIONAL_OR_KEYWORD)
maximize_qv1(problem:POSITIONAL_OR_KEYWORD)
maximize_qv2(problem:POSITIONAL_OR_KEYWORD)
nakamoto(credits:POSITIONAL_OR_KEYWORD, a:POSITIONAL_OR_KEYWORD)
nakamoto_normalized(credits:POSITIONAL_OR_KEYWORD, a:POSITIONAL_OR_KEYWORD)
normalize(dist:POSITIONAL_OR_KEYWORD)
report(dist:POSITIONAL_OR_KEYWORD, gamma:POSITIONAL_OR_KEYWORD, thresholds:POSITIONAL_OR_KEYWORD)
rvr_split(dist:POSITIONAL_OR_KEYWORD, gamma:POSITIONAL_OR_KEYWORD)
rvr_unsplit(dist:POSITIONAL_OR_KEYWORD, counts:POSITIONAL_OR_KEYWORD, gamma:POSITIONAL_OR_KEYWORD)
score(ballots:POSITIONAL_OR_KEYWORD, m:POSITIONAL_OR_KEYWORD)
success_probability(s_r:POSITIONAL_OR_KEYWORD, a_r:POSITIONAL_OR_KEYWORD, b_r:POSITIONAL_OR_KEYWORD)
sybil_gain(scheme:POSITIONAL_OR_KEYWORD, stake:POSITIONAL_OR_KEYWORD, k:POSITIONAL_OR_KEYWORD)
tally(scheme:POSITIONAL_OR_KEYWORD, dist:POSITIONAL_OR_KEYWORD, ballots:POSITIONAL_OR_KEYWORD, m:POSITIONAL_OR_KEYWORD, tol:POSITIONAL_OR_KEYWORD=1e-09, allow_undervote:POSITIONAL_OR_KEYWORD=False)
top_share(dist:POSITIONAL_OR_KEYWORD, k:POSITIONAL_OR_KEYWORD, gamma:POSITIONAL_OR_KEYWORD)
top_share_derivative(dist:POSITIONAL_OR_KEYWORD, k:POSITIONAL_OR_KEYWORD, gamma:POSITIONAL_OR_KEYWORD)
validate_ballot(scheme:POSITIONAL_OR_KEYWORD, stake:POSITIONAL_OR_KEYWORD, profile:POSITIONAL_OR_KEYWORD, tol:POSITIONAL_OR_KEYWORD=1e-09, allow_undervote:POSITIONAL_OR_KEYWORD=False)
verify_transform_properties(dist:POSITIONAL_OR_KEYWORD, gamma:POSITIONAL_OR_KEYWORD, alpha:POSITIONAL_OR_KEYWORD=None, cap_tol:POSITIONAL_OR_KEYWORD=1e-09, thresholds:POSITIONAL_OR_KEYWORD=(0.33, 0.51, 0.67, 0.9))
voting_credit(scheme:POSITIONAL_OR_KEYWORD, stake:POSITIONAL_OR_KEYWORD)
vscore(scheme:POSITIONAL_OR_KEYWORD, ballots:POSITIONAL_OR_KEYWORD, m:POSITIONAL_OR_KEYWORD)
[errors]
AlignedExceedsTotal > QvkitError > Exception > BaseException > object
AllZero > QvkitError > Exception > BaseException > object
CreditMismatch > QvkitError > Exception > BaseException > object
DegenerateDenominator > QvkitError > Exception > BaseException > object
DimensionTooLarge > QvkitError > Exception > BaseException > object
DuplicateVoter > QvkitError > Exception > BaseException > object
GammaOutOfRange > QvkitError > Exception > BaseException > object
IllegalEntry > QvkitError > Exception > BaseException > object
InfeasibleSolution > QvkitError > Exception > BaseException > object
InvalidBallot > QvkitError > Exception > BaseException > object
InvalidSpec > QvkitError > Exception > BaseException > object
KOutOfRange > QvkitError > Exception > BaseException > object
LengthMismatch > QvkitError > Exception > BaseException > object
NegativeCredit > Unsorted > QvkitError > Exception > BaseException > object
NegativeUnderYesAbstain > QvkitError > Exception > BaseException > object
NoConvergence > QvkitError > Exception > BaseException > object
NonPositiveCount > QvkitError > Exception > BaseException > object
NonPositiveStake > QvkitError > Exception > BaseException > object
ParseError > QvkitError > Exception > BaseException > object
QvkitError > Exception > BaseException > object
TargetBelowFloor > QvkitError > Exception > BaseException > object
ThresholdOutOfRange > QvkitError > Exception > BaseException > object
UnknownVoter > QvkitError > Exception > BaseException > object
Unsorted > QvkitError > Exception > BaseException > object
[cli]
generate
  --kind dest=kind _StoreAction type=None nargs=None required=True default=None choices=['constant', 'uniform', 'pareto']
  --n dest=n _StoreAction type=int nargs=None required=True default=None
  --seed dest=seed _StoreAction type=int nargs=None required=False default=None
  --lo dest=lo _StoreAction type=float nargs=None required=False default=1.0
  --hi dest=hi _StoreAction type=float nargs=None required=False default=2.0
  --shape dest=shape _StoreAction type=float nargs=None required=False default=1.16
  --scale dest=scale _StoreAction type=float nargs=None required=False default=1.0
  --value dest=value _StoreAction type=float nargs=None required=False default=1.0
metrics
  --stakes dest=stakes _StoreAction type=None nargs=None required=True default=None
  --gamma dest=gamma _StoreAction type=float nargs=None required=False default=0.5
  --nakamoto dest=nakamoto _StoreAction type=float nargs='+' required=False default=[0.51]
lorenz
  --stakes dest=stakes _StoreAction type=None nargs=None required=True default=None
  --gamma dest=gamma _StoreAction type=float nargs=None required=False default=1.0
  --format dest=format _StoreAction type=None nargs=None required=False default='csv' choices=['json', 'csv']
gamma-search
  --stakes dest=stakes _StoreAction type=None nargs=None required=True default=None
  --k dest=k _StoreAction type=int nargs=None required=True default=None
  --alpha dest=alpha _StoreAction type=float nargs=None required=True default=None
  --tol dest=tol _StoreAction type=float nargs=None required=False default=1e-09
  --strict-input dest=strict_input _StoreTrueAction type=None nargs=0 required=False default=False
  --transformed-out dest=transformed_out _StoreAction type=None nargs=None required=False default=None
tally
  --scheme dest=scheme _StoreAction type=None nargs=None required=True default=None choices=['linear', 'qv1', 'qv2', 'qv3', 'gpv']
  --scheme-gamma dest=scheme_gamma _StoreAction type=float nargs=None required=False default=None
  --polarity dest=polarity _StoreAction type=None nargs=None required=False default='yes-abstain' choices=['yes-abstain', 'yes-no-abstain']
  --stakes dest=stakes _StoreAction type=None nargs=None required=True default=None
  --ballots dest=ballots _StoreAction type=None nargs=None required=True default=None
  --proposals dest=proposals _StoreAction type=int nargs=None required=True default=None
  --allow-undervote dest=allow_undervote _StoreTrueAction type=None nargs=0 required=False default=False
optimize
  --scheme dest=scheme _StoreAction type=None nargs=None required=True default=None choices=['qv1', 'qv2']
  --problem dest=problem _StoreAction type=None nargs=None required=True default=None
  --oracle-check dest=oracle_check _StoreTrueAction type=None nargs=0 required=False default=False
attack
  kind dest=kind _StoreAction type=None nargs=None required=True default=None choices=['collusion', 'sybil', 'last-voter']
  --scenario dest=scenario _StoreAction type=None nargs=None required=True default=None
"""


def test_the_public_api_matches_its_snapshot():
    assert api_text() == SNAPSHOT
