"""Real-number inputs are finite reals everywhere: errors._reals and its callers."""

import dataclasses
import io
import json
import math
import reprlib
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qvkit import attacks, canonicalize, metrics, stake, transform, utility as util
from qvkit.cli import main
from qvkit.errors import (
    DuplicateVoter,
    GammaOutOfRange,
    IllegalEntry,
    InvalidSpec,
    KOutOfRange,
    NonPositiveStake,
    QvkitError,
    _fsum,
    _real,
    _reals,
)
from qvkit.schemes import BallotProfile, SchemeSpec, tally, validate_ballot, voting_credit
from qvkit.stake import _first_repeat


class TestHelper:
    def test_a_float64_array_comes_back_as_is(self):
        a = np.arange(5.0)
        a.flags.writeable = False
        assert _reals(a, "a") is a

    # an int past 2**64 or a Fraction makes an object array, read item by item
    @pytest.mark.parametrize("value, want", [(3, [3.0]), (2.5, [2.5]), (True, [1.0]),
                                             ([1, 2], [1.0, 2.0]),
                                             (np.arange(3), [0.0, 1.0, 2.0]),
                                             (10 ** 20, [1e20]), ([10 ** 20, 0.5], [1e20, 0.5]),
                                             (Fraction(1, 4), [0.25]),
                                             ([[Fraction(1, 2)], [np.True_]], [0.5, 1.0]),
                                             ([2 ** 64, -(2 ** 70)], [2.0 ** 64, -2.0 ** 70]),
                                             (np.array([1, Fraction(3, 2)], dtype=object),
                                              [1.0, 1.5])])
    def test_bools_ints_and_floats_become_float64(self, value, want):
        got = _reals(value, "v")
        assert got.dtype == np.float64
        assert got.shape == np.shape(value)
        assert np.ravel(got).tolist() == want

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, [1.0, math.nan],
                                       np.array([1.0, -np.inf]), "1", b"1", None, 1j,
                                       [1, "2"], [1, None], [1, [2, 3]], [1, 2j],
                                       np.array([[1.0, 2.0], [3.0, np.nan]]),
                                       10 ** 400, [1.0, -(10 ** 400)], Fraction(10 ** 400),
                                       [Fraction(1), "2"], [Fraction(1), None],
                                       [10 ** 20, Decimal(1)]])
    def test_everything_else_is_invalid_spec(self, value):
        with pytest.raises(InvalidSpec, match="v must be finite real numbers"):
            _reals(value, "v")

    def test_past_the_float_range_is_no_number_even_when_non_finite_is_allowed(self):
        assert _reals([10 ** 20, math.inf], "v", finite=False).tolist() == [1e20, math.inf]
        with pytest.raises(InvalidSpec):
            _reals([1.0, 10 ** 400], "v", finite=False)


class TestOneNumber:
    @pytest.mark.parametrize("value", [[1.0, 2.0], (3,), np.array([4.0]), [[1.0]]])
    def test_a_sequence_is_invalid_spec(self, value):
        with pytest.raises(InvalidSpec, match="v must be one real number"):
            _real(value, "v")

    @pytest.mark.parametrize("value, want", [(3, 3.0), (True, 1.0), (np.float32(0.5), 0.5),
                                             (np.array(-2.0), -2.0), (10 ** 20, 1e20),
                                             (Fraction(-5, 2), -2.5), (np.True_, 1.0)])
    def test_one_real_number_is_a_float(self, value, want):
        got = _real(value, "v")
        assert type(got) is float and got == want

    @pytest.mark.parametrize("value", [0, -1.5, False])
    def test_positive(self, value):
        assert _real(2, "v", positive=True) == 2.0
        with pytest.raises(InvalidSpec, match="v must be one real number > 0"):
            _real(value, "v", positive=True)

    def test_non_finite_values_pass_only_when_asked(self):
        assert np.isnan(_reals([1.0, math.nan], "v", finite=False)[1])
        with pytest.raises(InvalidSpec):
            _reals(["1.0"], "v", finite=False)


class TestOneSum:
    def test_a_finite_sum_is_fsum(self):
        terms = [1e16, 1.0, -1e16, 0.1]
        assert _fsum(terms, "credit") == math.fsum(terms)

    @pytest.mark.parametrize("terms", [[1e308, 1.5e308], [math.inf, 1.0],
                                       [math.inf, -math.inf], [math.nan]])
    def test_a_sum_outside_the_float_range_is_invalid_spec(self, terms):
        with pytest.raises(InvalidSpec, match="^stake sums leave the float range$"):
            _fsum(terms, "stake")

    @pytest.mark.parametrize("values", [
        np.random.default_rng(3).pareto(1.16, 10_001) + 1.0,
        np.random.default_rng(4).standard_normal(5_000) * 1e5,  # mixed signs
        np.array([5e-324, 2.2e-308, -1e-310, 3e-320, 1.0, -1.0] * 7),  # subnormals
        np.array([1.7e308, -1.6e308, 1e292, -1.7e308, 1.5e308, 1.0]),  # near overflow
    ], ids=["pareto", "mixed-sign", "subnormal", "near-overflow"])
    def test_an_array_sums_as_fsum_of_its_list(self, values):
        for a in (values, values[::2], values[::-1], values[-3:], values[-4::-3]):
            try:
                want = math.fsum(a.tolist())
            except OverflowError:  # some views of the near-overflow values
                want = math.inf
            if not math.isfinite(want):
                with pytest.raises(InvalidSpec):
                    _fsum(a, "credit")
                continue
            got = _fsum(a, "credit")
            assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))

    @pytest.mark.parametrize("values", [[1e308, 1.5e308], [1.7e308, 1.7e308, -1e308],
                                        [math.inf, 1.0], [math.inf, -math.inf],
                                        [1.0, math.nan]])
    def test_an_array_outside_the_float_range_is_invalid_spec(self, values):
        a = np.array(values)
        strided = np.zeros(2 * a.size)
        strided[::2] = a
        for view in (a, a[::-1], strided[::2], strided[-2::-2]):
            with pytest.raises(InvalidSpec, match="^credit sums leave the float range$"):
                _fsum(view, "credit")


def qv2_problem():
    return util.UtilityProblem((1.0, 2.0), (0.5, 0.0), (1.0, 1.0), 4.0, "qv2")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestDefects:
    """Each input below gave a NaN, a stray error or a wrong accept before."""

    def test_nan_profit(self):
        with pytest.raises(InvalidSpec):
            util.maximize(util.UtilityProblem((math.nan, 2.0), (0, 0), (1, 1), 4, "qv2"))

    def test_optimize_command_rejects_a_nan_profit(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text('{"profits": [NaN, 2], "aligned": [0, 0], "total": [1, 1], '
                        '"stake": 4}')
        code, out, err = run(["optimize", "--scheme", "qv2", "--problem", str(path)])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "InvalidSpec"

    @pytest.mark.parametrize("total, stake_, scheme", [((math.inf, 1.0), 4.0, "qv2"),
                                                       ((1.0, 1.0), math.inf, "qv1"),
                                                       ((1.0, 1.0), "4", "qv1")])
    def test_utility_problem(self, total, stake_, scheme):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidSpec):
                util.UtilityProblem((1.0, 2.0), (0.0, 0.0), total, stake_, scheme)

    def test_inf_stakes(self):
        with pytest.raises(InvalidSpec):
            attacks.sybil_gain(SchemeSpec("qv2"), math.inf, 2)
        with pytest.raises(InvalidSpec):
            voting_credit(SchemeSpec("qv2"), math.inf)

    @pytest.mark.parametrize("profits, fraction", [((math.nan, 1.0), (0.5, 0.5)),
                                                   ((1.0, 1.0), (math.nan, 0.5))])
    def test_last_voter(self, profits, fraction):
        prior = canonicalize([("p", 4.0)])
        with pytest.raises(InvalidSpec):
            attacks.last_voter_advantage("qv2", [BallotProfile("p", (1.0, 1.0))], prior,
                                         4.0, profits, aligned_fraction=fraction)

    def test_nan_allocation(self):
        with pytest.raises(InvalidSpec):
            util.utility(qv2_problem(), [math.nan, 1.0])
        with pytest.raises(InvalidSpec):
            util.success_probability(math.nan, 0, 1)

    def test_nan_tol_rejects_an_overspent_ballot(self):
        scheme, ballot = SchemeSpec("qv2"), BallotProfile("a", (5.0,))
        with pytest.raises(InvalidSpec):
            validate_ballot(scheme, 1.0, ballot, tol=math.nan)
        with pytest.raises(InvalidSpec):
            tally(scheme, canonicalize([("a", 1.0)]), [ballot], 1, tol=math.nan)

    @pytest.mark.parametrize("tol", [-1, -1e-9, -5e-324])
    def test_a_negative_tol_is_a_bad_argument(self, tol):
        # a tol below 0 would reject every unsplit entry, the zeros too
        scheme, ballot = SchemeSpec("qv3"), BallotProfile("a", (2.0, 0.0))
        with pytest.raises(InvalidSpec, match="tol must be >= 0"):
            validate_ballot(scheme, 4.0, ballot, tol=tol)
        with pytest.raises(InvalidSpec, match="tol must be >= 0"):
            tally(scheme, canonicalize([("a", 4.0)]), [ballot], 2, tol=tol)

    @pytest.mark.parametrize("tol", [0.0, -0.0])
    def test_a_zero_tol_is_legal(self, tol):
        scheme, ballot = SchemeSpec("qv3"), BallotProfile("a", (2.0, 0.0))
        validate_ballot(scheme, 4.0, ballot, tol=tol)
        assert tally(scheme, canonicalize([("a", 4.0)]), [ballot], 2, tol=tol).score == \
            (2.0, 0.0)
        with pytest.raises(IllegalEntry):
            validate_ballot(scheme, 4.0, BallotProfile("a", (2.0, 1e-300)), tol=tol)

    def test_nan_cap_target(self):
        with pytest.raises(InvalidSpec):
            transform.verify_transform_properties(canonicalize([("a", 1), ("b", 9)]), 0.5,
                                                  alpha=math.nan)

    def test_strings_are_not_numbers(self):
        with pytest.raises(InvalidSpec):
            metrics.nakamoto([1, 2], "0.5")
        with pytest.raises(InvalidSpec):
            stake.DistributionSpec("pareto", 3, 1, shape="1").validate()
        with pytest.raises(InvalidSpec):
            metrics.gini(["1", "2"])

    @pytest.mark.parametrize("k", ["x", None, 1j])
    def test_k_that_is_not_a_number(self, k):
        for call in (transform.top_share, transform.top_share_derivative):
            with pytest.raises(InvalidSpec):
                call(canonicalize([("a", 1), ("b", 2)]), k, 0.5)

    def test_a_non_finite_allocation_keeps_its_place_in_fault_order(self):
        problem = qv2_problem()
        for x, kind in [((-1.0, math.nan), "allocation must be >= 0"),
                        ((math.inf, -1.0), "s_r, a_r and b_r must be finite")]:
            with pytest.raises(InvalidSpec, match=kind):
                util.utility(problem, x)


class TestOneGammaCheck:
    @pytest.mark.parametrize("gamma", ["0.5", None, [0.5, 0.5], 1.0, math.nan])
    def test_gpv_gamma(self, gamma):
        with pytest.raises(GammaOutOfRange):
            SchemeSpec("gpv", gamma=gamma)

    @pytest.mark.parametrize("gamma", ["0.5", None, 1j, math.inf])
    def test_credit_gamma(self, gamma):
        with pytest.raises(GammaOutOfRange):
            stake.credits([1.0, 4.0], gamma)

    def test_closed_and_open_upper_bounds(self):
        assert stake.credits([4.0], 1.0).tolist() == [4.0]
        assert stake.credits([4.0], np.array(0.5)).tolist() == [2.0]
        with pytest.raises(GammaOutOfRange):
            transform.verify_transform_properties(canonicalize([("a", 1), ("b", 9)]), 1.0)


class TestOneRepeatScan:
    @pytest.mark.parametrize("rows, want", [([], 0), (["a", "b"], 2),
                                            (["a", "b", "b", "a"], 2),
                                            (["a", "b", "c", "a", "b"], 3)])
    def test_first_repeat(self, rows, want):
        assert _first_repeat(rows) == want

    def test_read_csv_and_tally_name_the_same_voter(self, tmp_path):
        ids = ["a", "b", "c", "b", "a"]
        path = tmp_path / "stakes.csv"
        path.write_text("voter_id,stake\n" + "".join(f"{v},1\n" for v in ids))
        with pytest.raises(DuplicateVoter) as from_csv:
            stake.read_csv(path)
        dist = canonicalize([(v, 1.0) for v in "abc"])
        ballots = [BallotProfile(v, (1.0,)) for v in ids]
        with pytest.raises(DuplicateVoter) as from_tally:
            tally(SchemeSpec("qv1"), dist, ballots, 1)
        assert from_csv.value.voter_id == from_tally.value.voter_id == "b"


class TestScalarConstructors:
    @pytest.mark.parametrize("allocations", [("x",), (None,), (1j,), 5])
    def test_ballot_entries(self, allocations):
        with pytest.raises(InvalidSpec):
            BallotProfile("a", allocations)

    @pytest.mark.parametrize("value", ["1", None, 1j, 10 ** 400, -(10 ** 400),
                                       Fraction(1, 10 ** 400), Decimal(1), np.False_],
                             ids=reprlib.repr)
    def test_canonicalize_stakes(self, value):
        with pytest.raises(NonPositiveStake):
            canonicalize([("a", value)])

    def test_canonicalize_stores_the_float_of_each_stake(self):
        dist = canonicalize([("a", np.True_), ("b", 10 ** 20), ("c", Fraction(1, 2))])
        assert dist.entries == (("c", 0.5), ("a", 1.0), ("b", 1e20))
        assert all(type(s) is float for _, s in dist.entries)

    def test_a_constant_value_past_the_float_range(self):
        with pytest.raises(InvalidSpec, match="constant stake value must be > 0"):
            stake.generate(stake.DistributionSpec("constant", 3, 1, value=10 ** 400))

    def test_generate_computes_with_the_checked_floats(self):
        spec = stake.DistributionSpec("uniform", 5, 3, lo=Fraction(1), hi=10 ** 20)
        assert spec.validate() == (1.0, 1e20, 1.16, 1.0, None)
        want = stake.generate(stake.DistributionSpec("uniform", 5, 3, lo=1.0, hi=1e20))
        assert stake.generate(spec) == want

    @pytest.mark.parametrize("stakes", [["4", "9"], [None], [4.0, math.nan], [math.inf]])
    def test_credit_stakes(self, stakes):
        with pytest.raises(InvalidSpec, match="stakes must be finite real numbers"):
            stake.credits(stakes, 0.5)
        with pytest.raises(InvalidSpec, match="stakes must be finite real numbers"):
            SchemeSpec("qv2").g(stakes)

    def test_credits_of_big_ints_and_fractions(self):
        got = stake.credits([10 ** 20, Fraction(9, 4)], Fraction(1, 2))
        assert got.dtype == np.float64 and got.tolist() == [1e10, 1.5]

    def test_a_count_past_the_float_range(self):
        # k is compared as given, so it is out of range rather than no number
        for k in (10 ** 400, Fraction(10 ** 400)):
            with pytest.raises(KOutOfRange):
                transform.top_share(DIST, k, 0.5)
        with pytest.raises(InvalidSpec, match="k must be finite real numbers"):
            attacks.sybil_gain(QV2, 4.0, 10 ** 400)
        assert attacks.sybil_gain(SchemeSpec("linear"), 4.0, 10 ** 400) == 1.0


class TestWeiScaleStakes:
    """A JSON integer stake past 2**64 runs as its float does."""

    @pytest.mark.parametrize("argv, data", [
        (["optimize", "--scheme", "qv1", "--problem"],
         '{"profits": [1, 2], "aligned": [0, 0], "total": [1e10, 3e10], "stake": STAKE}'),
        (["attack", "sybil", "--scenario"], '{"scheme": "qv2", "stake": STAKE, "k": 4}'),
        (["attack", "last-voter", "--scenario"],
         '{"scheme": "qv1", "prior_stakes": [["p", PRIOR]], "last_voter_stake": STAKE,'
         ' "prior_ballots": [{"voter_id": "p", "allocations": [1.5e20, 2.5e20]}],'
         ' "profits": [1, 3], "aligned_fraction": [0.5, 0.25]}'),
    ], ids=["optimize", "sybil", "last-voter"])
    def test_an_integer_stake_prints_as_its_float(self, tmp_path, argv, data):
        path = tmp_path / "input.json"
        outputs = []
        for stake_, prior in [("1e20", "4e20"),
                              ("100000000000000000000", "400000000000000000000")]:
            path.write_text(data.replace("STAKE", stake_).replace("PRIOR", prior))
            outputs.append(run([*argv, str(path)]))
        assert outputs[0][0] == 0, outputs[0]
        assert outputs[1] == outputs[0]


DIST = canonicalize([("a", 1.0), ("b", 4.0), ("c", 9.0)])
QV2 = SchemeSpec("qv2")
PRIOR = canonicalize([("p", 4.0)])
BOARD = [BallotProfile("p", (1.0, 1.0))]

# name -> (call, valid arguments); a list argument gets the bad value in one entry
ENTRIES = {
    "gini": (metrics.gini, [[1.0, 2.0, 4.0]]),
    "gini_from_lorenz": (metrics.gini_from_lorenz, [[1.0, 2.0, 4.0]]),
    "lorenz_points": (metrics.lorenz_points, [[1.0, 2.0, 4.0]]),
    "nakamoto": (metrics.nakamoto, [[1.0, 2.0, 4.0], 0.5]),
    "report": (lambda g, th: metrics.report(DIST, g, th), [0.5, [0.33, 0.51]]),
    "rvr_split": (lambda g: metrics.rvr_split(DIST, g), [0.5]),
    "rvr_unsplit": (lambda c, g: metrics.rvr_unsplit(DIST, c, g), [[1, 2, 1], 0.5]),
    "credits": (stake.credits, [[1.0, 4.0], 0.5]),
    "apply_gamma": (lambda g: transform.apply_gamma(DIST, g), [0.5]),
    "top_share": (lambda k, g: transform.top_share(DIST, k, g), [1, 0.5]),
    "top_share_derivative": (lambda k: transform.top_share_derivative(DIST, k, 0.5), [1]),
    "gamma_search": (lambda k, a, tol, br: transform.gamma_search(DIST, k, a, tol=tol,
                                                                  bracket=br),
                     [1, 0.5, 1e-9, [1e-9, 1.0]]),
    "verify_transform_properties": (
        lambda g, a, tol: transform.verify_transform_properties(DIST, g, a, tol),
        [0.5, 0.9, 1e-9]),
    "SchemeSpec": (lambda g: SchemeSpec("gpv", gamma=g), [0.5]),
    "BallotProfile": (lambda b: BallotProfile("a", b), [[1.0, 2.0]]),
    "voting_credit": (lambda s: voting_credit(QV2, s), [4.0]),
    "validate_ballot": (
        lambda s, b, tol: validate_ballot(QV2, s, BallotProfile("a", b), tol=tol),
        [4.0, [1.0, 1.0], 1e-9]),
    "tally": (lambda b, tol: tally(QV2, DIST, [BallotProfile("a", b)], 2, tol=tol),
              [[0.5, 0.5], 1e-9]),
    "collusion_gain": (lambda s: attacks.collusion_gain(
        s, 2, [BallotProfile("v1", (4.0, 0.0))], [BallotProfile("v1", (2.0, 2.0))]),
        [[4.0]]),
    "sybil_gain": (lambda s, k: attacks.sybil_gain(QV2, s, k), [9.0, 2]),
    "last_voter_advantage": (
        lambda s, p, f: attacks.last_voter_advantage("qv2", BOARD, PRIOR, s, p, f),
        [4.0, [1.0, 2.0], [0.5, 0.5]]),
    "UtilityProblem": (lambda p, a, t, s: util.UtilityProblem(p, a, t, s, "qv1"),
                       [[1.0, 2.0], [0.5, 0.0], [1.0, 1.0], 4.0]),
    "utility": (lambda x: util.utility(qv2_problem(), x), [[1.0, 1.0]]),
    "maximize": (lambda: util.maximize(qv2_problem()), []),
    "gradient": (lambda x: util.gradient(qv2_problem(), x), [[1.0, 1.0]]),
    "success_probability": (util.success_probability, [1.0, 0.5, 1.0]),
    "generate": (lambda lo, hi, shape, scale: stake.generate(stake.DistributionSpec(
        "uniform", 4, 1, lo=lo, hi=hi, shape=shape, scale=scale)), [1.0, 2.0, 1.16, 1.0]),
    "generate_constant": (lambda v: stake.generate(stake.DistributionSpec(
        "constant", 4, 1, value=v)), [2.0]),
    "canonicalize": (lambda s: canonicalize([("a", 1.0), ("b", s)]), [2.0]),
}
SLOTS = [(name, arg) for name, (_, args) in sorted(ENTRIES.items())
         for arg in range(len(args))]
BAD = [math.nan, -math.nan, math.inf, -math.inf, "x", "0.5", None, 1j, [0.5, 0.5],
       10 ** 400]

# slots that take one number, or a list of numbers: a sequence in its place is InvalidSpec
SCALAR_SLOTS = [("voting_credit", 0), ("validate_ballot", 0), ("validate_ballot", 2),
                ("collusion_gain", 0), ("sybil_gain", 0), ("UtilityProblem", 3),
                ("last_voter_advantage", 0), ("tally", 1), ("nakamoto", 1),
                ("utility", 0), ("rvr_unsplit", 0), ("gamma_search", 2)]


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_valid_arguments_pass(name):
    call, args = ENTRIES[name]
    call(*args)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SLOTS), st.integers(0, 3), st.sampled_from(BAD))
def test_one_bad_real_is_a_qvkit_error(slot, entry, bad):
    name, arg = slot
    # alpha=None is legal there: it asks for no cap check
    assume(not (slot == ("verify_transform_properties", 1) and bad is None))
    call, args = ENTRIES[name]
    args = list(args)
    if isinstance(args[arg], list):
        args[arg] = list(args[arg])
        args[arg][entry % len(args[arg])] = bad
    else:
        args[arg] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning is a failure too
        with pytest.raises(QvkitError):
            call(*args)


@pytest.mark.parametrize("slot", SCALAR_SLOTS)
def test_a_sequence_where_one_number_is_expected(slot):
    name, arg = slot
    call, args = ENTRIES[name]
    args = list(args)
    if isinstance(args[arg], list):
        args[arg] = [[0.5, 0.5], *args[arg][1:]]
    else:
        args[arg] = [0.5, 0.5]
    with pytest.raises(InvalidSpec):
        call(*args)


def _same(got, want):
    """got equals want bit for bit, type for type; neither holds a Fraction
    or an object array."""
    assert type(got) is type(want), (got, want)
    assert not isinstance(got, Fraction)
    if isinstance(got, np.ndarray):
        assert got.dtype.kind != "O"
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    elif isinstance(got, float):
        assert repr(got) == repr(want)
    elif isinstance(got, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same(g, w)
    elif isinstance(got, dict):
        _same(list(got.items()), list(want.items()))
    elif dataclasses.is_dataclass(got):
        _same(_fields(got), _fields(want))
    else:
        assert got == want


def _fields(result):
    values = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    if isinstance(result, util.UtilityProblem):
        # stake keeps the value as given; the solvers use the checked float
        values["stake"] = result.budget()
    return list(values.values())


def _outcome(call, args):
    """("ok", result) of call(*args), or ("error", the exception's type)."""
    try:
        return "ok", call(*args)
    except Exception as exc:  # a stray error must match as well
        return "error", type(exc)


# float values to pass as themselves and as an equal Fraction or int
VALUES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 4.0, 9.0, 0.25, 1e-9, 1e20,
                                    -1.0]),
                   st.floats(-1e3, 1e3, allow_nan=False),
                   st.floats(5e-324, 1e300))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SLOTS), st.integers(0, 3), VALUES, st.booleans())
def test_a_fraction_or_int_acts_as_its_float(slot, entry, value, as_int):
    name, arg = slot
    call, args = ENTRIES[name]
    other = int(value) if as_int and value.is_integer() else Fraction(value)
    # the float other stands for: value itself, but 0.0 where value is -0.0
    value = float(other)
    runs = []
    for given_value in (value, other):
        given_args = list(args)
        if isinstance(args[arg], list):
            given_args[arg] = list(args[arg])
            given_args[arg][entry % len(args[arg])] = given_value
        else:
            given_args[arg] = given_value
        runs.append(_outcome(call, given_args))
    (kind, got), (want_kind, want) = runs[1], runs[0]
    assert kind == want_kind, (runs, other)
    if kind == "ok":
        _same(got, want)
    else:
        assert got is want
