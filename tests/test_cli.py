import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qvkit
from qvkit import metrics, schemes, stake, transform, utility
from qvkit.cli import _CHUNK, _Records, _emit_json, _float_texts, build_parser, main
from qvkit.errors import GammaOutOfRange
from qvkit.schemes import SchemeSpec
from tests.conftest import pareto_reference


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def assert_same_text(got, want):
    """got == want, exactly. A mismatch raises an AssertionError naming both
    lengths and the first differing offset, with about 40 characters of each
    side: pytest's own diff of two multi-megabyte texts runs for minutes."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    raise AssertionError(f"texts of {len(got)} and {len(want)} characters differ at "
                         f"offset {at}: {got[at:at + 40]!r} != {want[at:at + 40]!r}")


@pytest.fixture
def stakes_csv(tmp_path):
    path = tmp_path / "stakes.csv"
    path.write_text("voter_id,stake\na,1\nb,4\nc,9\n")
    return str(path)


class TestGenerate:
    def test_writes_csv(self, tmp_path):
        code, out, err = run(["generate", "--kind", "pareto", "--n", "10",
                              "--seed", "3"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "voter_id,stake"
        assert len(lines) == 11

    def test_deterministic(self):
        argv = ["generate", "--kind", "uniform", "--n", "25", "--seed", "42",
                "--lo", "1", "--hi", "9"]
        assert run(argv) == run(argv)

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("QVKIT_SEED", "7")
        code, out, _ = run(["generate", "--kind", "constant", "--n", "3",
                            "--value", "2.5"])
        assert code == 0
        assert out.count("2.5") == 3

    def test_missing_seed_is_domain_error(self, monkeypatch):
        monkeypatch.delenv("QVKIT_SEED", raising=False)
        code, out, err = run(["generate", "--kind", "pareto", "--n", "3"])
        assert code == 1
        assert "error" in json.loads(err)

    def test_non_integer_env_seed_is_domain_error(self, monkeypatch):
        monkeypatch.setenv("QVKIT_SEED", "abc")
        code, out, err = run(["generate", "--kind", "pareto", "--n", "3"])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "InvalidSpec",
                                   "message": "QVKIT_SEED must be an integer, got 'abc'"}

    def test_negative_seed_is_domain_error(self):
        code, out, err = run(["generate", "--kind", "pareto", "--n", "3",
                              "--seed", "-1"])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "InvalidSpec"


class TestMetrics:
    def test_report_payload(self, stakes_csv):
        code, out, _ = run(["metrics", "--stakes", stakes_csv,
                            "--gamma", "0.5", "--nakamoto", "0.51"])
        assert code == 0
        data = json.loads(out)
        assert data["rvr"] == pytest.approx([1 / 6, 2 / 6, 3 / 6], abs=1e-11)
        assert data["eta"] == pytest.approx([14 / 6, 14 / 12, 14 / 18],
                                            abs=1e-11)
        assert data["eta_threshold"] == pytest.approx(14 / 6, abs=1e-11)
        assert data["nakamoto"][0]["classical"] == 2
        assert data["nakamoto"][0]["normalized"] == pytest.approx(2 / 3)

    def test_missing_file(self, tmp_path):
        code, out, err = run(["metrics", "--stakes", str(tmp_path / "nope.csv")])
        assert code == 1
        assert json.loads(err)["error"] == "IoError"

    def test_non_utf8_file_is_domain_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"voter_id,stake\n" + b"".join(b"v%d,1\n" % i for i in range(6000))
                         + b"\xff,2\n")
        code, out, err = run(["metrics", "--stakes", str(path)])
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "ParseError",
            "message": f"{path}:6002: not UTF-8 text: invalid start byte"}

    def test_stakes_summing_past_the_float_range_are_domain_error(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("voter_id,stake\na,1e308\nb,1.5e308\n")
        for gamma in ("0.5", "1"):
            code, out, err = run(["metrics", "--stakes", str(path), "--gamma", gamma])
            assert (code, out) == (1, "")
            assert json.loads(err)["error"] == "InvalidSpec"

    def test_a_field_past_the_csv_limit_is_a_parse_error(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("voter_id,stake\na,1\n" + "v" * 131_073 + ",1\n")
        code, out, err = run(["metrics", "--stakes", str(path)])
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "ParseError",
            "message": f"{path}:3: field larger than field limit (131072)"}

    @pytest.mark.parametrize("data, message", [
        (b"voter_id,stake\n" + b"a" * 200_000 + b",1.0\nb,2.0\n\xff,3\n",
         "2: field larger than field limit (131072)"),
        (b'voter_id,stake\n"a\nb",1.0\nz,-1\n', "4: stake for voter 'z' must be > 0, got -1.0"),
        (b'voter_id,stake\r\n"a\r\nb",1.0\r\nz,-1\r\n',
         "4: stake for voter 'z' must be > 0, got -1.0"),
    ], ids=["long-field-before-non-utf8", "quoted-id-over-two-lf-lines",
            "quoted-id-over-two-crlf-lines"])
    def test_a_bad_row_is_a_parse_error_at_its_line(self, tmp_path, data, message):
        path = tmp_path / "stakes.csv"
        path.write_bytes(data)
        code, out, err = run(["metrics", "--stakes", str(path)])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "ParseError", "message": f"{path}:{message}"}

    def test_header_only_file_is_domain_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("voter_id,stake\n")
        code, _, err = run(["metrics", "--stakes", str(path)])
        assert code == 1
        assert json.loads(err)["error"] == "InvalidSpec"

    @pytest.mark.parametrize("gamma", ["0.5", "0.3", "1.0"])
    def test_eta_threshold_is_that_of_the_distribution(self, tmp_path, gamma):
        path = tmp_path / "stakes.csv"
        with open(path, "w", encoding="utf-8") as fh:
            stake.write_csv(stake.generate(stake.DistributionSpec("pareto", 500, 9)), fh)
        want = emitted({"eta_threshold": metrics.eta_threshold(stake.read_csv(path))})
        code, out, _ = run(["metrics", "--stakes", str(path), "--gamma", gamma])
        assert code == 0
        assert f"\n{want.splitlines()[1]},\n" in out

    def test_byte_identical_reruns(self, stakes_csv):
        argv = ["metrics", "--stakes", stakes_csv, "--gamma", "0.3",
                "--nakamoto", "0.33", "0.51"]
        assert run(argv) == run(argv)


class TestLorenz:
    def test_csv_default(self, stakes_csv):
        code, out, _ = run(["lorenz", "--stakes", stakes_csv])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "i,cumulative_share"
        assert lines[1].startswith("0,0")
        assert lines[-1].startswith("3,1")

    def test_json_format(self, stakes_csv):
        code, out, _ = run(["lorenz", "--stakes", stakes_csv, "--gamma", "0.5",
                            "--format", "json"])
        data = json.loads(out)
        shares = [p["cumulative_share"] for p in data["points"]]
        assert shares[0] == 0.0
        assert shares[-1] == pytest.approx(1.0, abs=1e-11)
        assert shares[1] == pytest.approx(1 / 6, abs=1e-11)

    @pytest.mark.parametrize("gamma", ["0", "-1", "2", "nan"])
    def test_gamma_outside_zero_one(self, stakes_csv, gamma):
        for fmt in ("csv", "json"):
            code, out, err = run(["lorenz", "--stakes", stakes_csv,
                                  f"--gamma={gamma}", "--format", fmt])
            assert (code, out) == (1, "")
            assert json.loads(err)["error"] == "GammaOutOfRange"


class TestGammaSearch:
    def test_two_voter_case(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("voter_id,stake\nsmall,1\nbig,99\n")
        code, out, _ = run(["gamma-search", "--stakes", str(path),
                            "--k", "1", "--alpha", "0.6"])
        assert code == 0
        data = json.loads(out)
        assert data["converged"]
        assert data["gamma"] == pytest.approx(math.log(1.5) / math.log(99),
                                              abs=1e-6)
        assert data["achieved_share"] == pytest.approx(0.6, abs=1e-9)

    def test_transformed_out(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("voter_id,stake\nsmall,1\nbig,99\n")
        out_path = tmp_path / "transformed.csv"
        code, _, _ = run(["gamma-search", "--stakes", str(path), "--k", "1",
                          "--alpha", "0.6", "--transformed-out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "voter_id,stake"
        small = float(lines[1].split(",")[1])
        big = float(lines[2].split(",")[1])
        assert big / (big + small) == pytest.approx(0.6, abs=1e-6)

    def test_an_unwritable_transformed_out_prints_no_result(self, tmp_path):
        # the file is written before the result, so a failed run prints no stdout
        path = tmp_path / "two.csv"
        path.write_text("voter_id,stake\nsmall,1\nbig,99\n")
        out_path = tmp_path / "missing" / "transformed.csv"
        code, out, err = run(["gamma-search", "--stakes", str(path), "--k", "1",
                              "--alpha", "0.6", "--transformed-out", str(out_path)])
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "IoError",
            "message": f"[Errno 2] No such file or directory: {str(out_path)!r}"}

    def test_zero_tol_runs(self, tmp_path):
        # tol decides `converged` alone; the search is that of the default tol
        path = tmp_path / "two.csv"
        path.write_text("voter_id,stake\nsmall,1\nbig,99\n")
        args = ["gamma-search", "--stakes", str(path), "--k", "1", "--alpha", "0.6"]
        code, out, err = run(args + ["--tol", "0"])
        assert (code, err) == (0, "")
        got, want = json.loads(out), json.loads(run(args)[1])
        del got["converged"], want["converged"]
        assert got == want

    def test_nan_tol_is_domain_error(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("voter_id,stake\nsmall,1\nbig,99\n")
        code, out, err = run(["gamma-search", "--stakes", str(path), "--k", "1",
                              "--alpha", "0.6", "--tol", "nan"])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "InvalidSpec"

    def test_stakes_summing_past_the_float_range_are_domain_error(self, tmp_path):
        path = tmp_path / "huge.csv"
        path.write_text("voter_id,stake\na,1e308\nb,1.5e308\nc,1\n")
        code, out, err = run(["gamma-search", "--stakes", str(path), "--k", "1",
                              "--alpha", "0.4"])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "InvalidSpec",
                                   "message": "credit sums leave the float range"}

    def test_a_target_met_at_gamma_one_needs_no_search(self, tmp_path):
        # sums of these credits weighted by their logs would overflow
        path = tmp_path / "big.csv"
        path.write_text("voter_id,stake\na,1e306\nb,1e306\nc,1e306\n")
        code, out, _ = run(["gamma-search", "--stakes", str(path), "--k", "1",
                            "--alpha", "0.5"])
        assert (code, json.loads(out)["gamma"]) == (0, 1.0)

    def test_tied_whales_converge(self, tmp_path):
        path = tmp_path / "whales.csv"
        path.write_text("voter_id,stake\na,1e16\nb,1e16\nc,1\n")
        code, out, _ = run(["gamma-search", "--stakes", str(path), "--k", "1",
                            "--alpha", "0.4"])
        assert code == 0
        data = json.loads(out)
        assert data["converged"] and data["achieved_share"] == pytest.approx(0.4)

    def test_infeasible_target(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("voter_id,stake\nsmall,1\nbig,99\n")
        code, _, err = run(["gamma-search", "--stakes", str(path),
                            "--k", "1", "--alpha", "0.3"])
        assert code == 1
        assert json.loads(err)["error"] == "TargetBelowFloor"


class TestTally:
    def test_qv3_example(self, tmp_path):
        stakes = tmp_path / "stakes.csv"
        stakes.write_text("voter_id,stake\nv1,4\nv2,9\n")
        ballots = tmp_path / "ballots.json"
        ballots.write_text(json.dumps([
            {"voter_id": "v1", "allocations": [2, 2]},
            {"voter_id": "v2", "allocations": [3, 0]},
        ]))
        code, out, _ = run(["tally", "--scheme", "qv3",
                            "--stakes", str(stakes),
                            "--ballots", str(ballots), "--proposals", "2"])
        assert code == 0
        data = json.loads(out)
        assert [p["vscore"] for p in data["proposals"]] == [5, 2]

    def test_scores_past_the_float_range_are_one_json_error(self, tmp_path):
        stakes = tmp_path / "stakes.csv"
        stakes.write_text("voter_id,stake\nv1,1e308\nv2,1e308\n")
        ballots = tmp_path / "ballots.json"
        ballots.write_text(json.dumps([{"voter_id": v, "allocations": [1e308, 0]}
                                       for v in ("v1", "v2")]))
        code, out, err = run(["tally", "--scheme", "linear", "--stakes", str(stakes),
                              "--ballots", str(ballots), "--proposals", "2"])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "InvalidSpec",
                                   "message": "score sums leave the float range"}

    def test_invalid_ballot_domain_error(self, tmp_path):
        stakes = tmp_path / "stakes.csv"
        stakes.write_text("voter_id,stake\nv1,9\n")
        ballots = tmp_path / "ballots.json"
        ballots.write_text(json.dumps([
            {"voter_id": "v1", "allocations": [9, 0]},
        ]))
        code, _, err = run(["tally", "--scheme", "qv2",
                            "--stakes", str(stakes),
                            "--ballots", str(ballots), "--proposals", "2"])
        assert code == 1
        assert json.loads(err)["error"] == "InvalidBallot"

    def test_allow_undervote_flag(self, tmp_path):
        stakes = tmp_path / "stakes.csv"
        stakes.write_text("voter_id,stake\nv1,9\n")
        ballots = tmp_path / "ballots.json"
        ballots.write_text(json.dumps([
            {"voter_id": "v1", "allocations": [1, 0]},
        ]))
        base = ["tally", "--scheme", "qv2", "--stakes", str(stakes),
                "--ballots", str(ballots), "--proposals", "2"]
        assert run(base)[0] == 1
        code, out, _ = run(base + ["--allow-undervote"])
        assert code == 0
        assert json.loads(out)["proposals"][0]["vscore"] == 1

    @pytest.mark.parametrize("doc, message", [
        ({"voter_id": "v1", "allocations": [3, 0]}, "expected a JSON array of ballots"),
        ([{"allocations": [3, 0]}], "ballot #0 needs voter_id and allocations"),
        ([{"voter_id": "v1", "allocations": [3, 0]}, 5],
         "ballot #1 needs voter_id and allocations"),
    ])
    def test_malformed_ballot_file(self, tmp_path, doc, message):
        stakes = tmp_path / "stakes.csv"
        stakes.write_text("voter_id,stake\nv1,9\n")
        ballots = tmp_path / "ballots.json"
        ballots.write_text(json.dumps(doc))
        code, out, err = run(["tally", "--scheme", "qv2", "--stakes", str(stakes),
                              "--ballots", str(ballots), "--proposals", "2"])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "ParseError",
                                   "message": f"{ballots}:1: {message}"}

    def test_yes_no_abstain_polarity(self, tmp_path):
        stakes = tmp_path / "stakes.csv"
        stakes.write_text("voter_id,stake\nv1,4\nv2,9\n")
        ballots = tmp_path / "ballots.json"
        ballots.write_text(json.dumps([
            {"voter_id": "v1", "allocations": [-2, 0]},
            {"voter_id": "v2", "allocations": [1, -2]},
        ]))
        base = ["tally", "--scheme", "qv2", "--stakes", str(stakes),
                "--ballots", str(ballots), "--proposals", "2"]
        code, _, err = run(base)
        assert code == 1 and json.loads(err)["error"] == "InvalidBallot"
        code, out, _ = run(base + ["--polarity", "yes-no-abstain"])
        assert code == 0
        data = json.loads(out)
        assert data["scheme"]["polarity"] == "yes-no-abstain"
        assert [p["vscore"] for p in data["proposals"]] == [-1, -2]

    def test_repeated_voter_exits_1(self, tmp_path):
        stakes = tmp_path / "stakes.csv"
        stakes.write_text("voter_id,stake\na,4\n")
        ballots = tmp_path / "ballots.json"
        ballots.write_text(json.dumps([
            {"voter_id": "a", "allocations": [2, 0]},
            {"voter_id": "a", "allocations": [0, 2]},
        ]))
        code, out, err = run(["tally", "--scheme", "qv2",
                              "--stakes", str(stakes),
                              "--ballots", str(ballots), "--proposals", "2"])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "DuplicateVoter"

    def test_int_and_str_voter_ids_print_the_same_bytes(self, tmp_path):
        rng = random.Random(11)
        stakes = [rng.uniform(1.0, 100.0) for _ in range(50)]
        path = tmp_path / "numbered.csv"
        path.write_text("voter_id,stake\n" + "".join(f"{i + 1},{s!r}\n"
                                                     for i, s in enumerate(stakes)))
        ballots = [{"voter_id": i + 1,
                    "allocations": _ballot(math.sqrt(stakes[i]), [rng.random() for _ in range(3)])}
                   for i in rng.sample(range(50), 30)]
        outputs = [run(["tally", "--scheme", "qv2", "--stakes", str(path), "--proposals", "3",
                        "--ballots", _write(tmp_path / "ballots.json", doc)])
                   for doc in (ballots, [dict(b, voter_id=str(b["voter_id"])) for b in ballots])]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0


class TestOptimize:
    def problem_file(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({"profits": [10, 1], "aligned": [0, 0],
                                    "total": [1, 1], "stake": 1.0}))
        return str(path)

    def test_solve_with_oracle(self, tmp_path):
        code, out, _ = run(["optimize", "--scheme", "qv1",
                            "--problem", self.problem_file(tmp_path),
                            "--oracle-check"])
        assert code == 0
        data = json.loads(out)
        assert math.fsum(v ** 2 for v in data["allocation"]) == pytest.approx(
            1.0, abs=1e-9)
        assert data["kkt_residual"] <= 1e-8
        assert data["oracle_gap"] >= -1e-6

    def test_byte_identical_reruns(self, tmp_path):
        argv = ["optimize", "--scheme", "qv2",
                "--problem", self.problem_file(tmp_path)]
        assert run(argv) == run(argv)

    def test_utility_past_the_float_range_is_domain_error(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"profits": [1.5e308, 1.5e308], "aligned": [0.5, 0.5],
                                    "total": [1, 1], "stake": 1}))
        code, out, err = run(["optimize", "--scheme", "qv2", "--problem", str(path)])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "InvalidSpec"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(["optimize", "--scheme", "qv2", "--problem",
                            str(path)])
        assert code == 1
        assert json.loads(err)["error"] == "ParseError"

    def test_tol_is_a_usage_error(self, tmp_path, capsys):
        # the solvers take no tolerance, so optimize has no --tol
        code, out, _ = run(["optimize", "--scheme", "qv2",
                            "--problem", self.problem_file(tmp_path), "--tol", "1e-9"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --tol 1e-9" in capsys.readouterr().err


class TestAttack:
    def test_sybil(self, tmp_path):
        path = tmp_path / "sybil.json"
        path.write_text(json.dumps({"scheme": "qv2", "stake": 9.0, "k": 9}))
        code, out, _ = run(["attack", "sybil", "--scenario", str(path)])
        assert code == 0
        assert json.loads(out)["gain"] == pytest.approx(3.0, abs=1e-11)

    def test_collusion(self, tmp_path):
        path = tmp_path / "collusion.json"
        third = 1 / 3
        path.write_text(json.dumps({
            "stakes": [1, 1, 1], "proposals": 3,
            "honest_plan": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            "colluding_plan": [[third, third, third]] * 3,
        }))
        code, out, _ = run(["attack", "collusion", "--scenario", str(path)])
        assert code == 0
        assert json.loads(out)["gain"] == pytest.approx(math.sqrt(3), abs=1e-11)

    def test_last_voter(self, tmp_path):
        path = tmp_path / "last.json"
        path.write_text(json.dumps({
            "scheme": "qv2",
            "prior_stakes": [["whale", 100.0], ["contester", 1.0]],
            "prior_ballots": [
                {"voter_id": "whale", "allocations": [10, 0]},
                {"voter_id": "contester", "allocations": [0.5, 0.5]},
            ],
            "last_voter_stake": 4.0,
            "profits": [1.0, 1.0],
            "aligned_fraction": [0.5, 0.5],
        }))
        code, out, _ = run(["attack", "last-voter", "--scenario", str(path)])
        assert code == 0
        data = json.loads(out)
        assert data["gain"] == pytest.approx(1.0173288571044725, rel=1e-9)

    def test_last_voter_without_prior_board(self, tmp_path):
        # with no ballots before it the last voter gains nothing, also at a zero profit
        path = tmp_path / "last.json"
        for profits in ([3.0, 1.0], [1.0, 2.0], [1, 0]):
            path.write_text(json.dumps({
                "scheme": "qv2", "last_voter_stake": 4.0, "profits": profits,
            }))
            code, out, _ = run(["attack", "last-voter", "--scenario", str(path)])
            assert code == 0
            data = json.loads(out)
            assert (data["gain"], data["narrative"]["external_total"]) == (1.0, [0.0, 0.0])

    def test_last_voter_ids_are_strings(self, tmp_path):
        # ids are str, as in a ballot file: 1 and "1" are the same voter
        outputs = []
        for ids in ((1, 2), ("1", "2")):
            path = tmp_path / "last.json"
            path.write_text(json.dumps({
                "scheme": "qv2",
                "prior_stakes": [[ids[0], 100.0], [ids[1], 1.0]],
                "prior_ballots": [
                    {"voter_id": ids[0], "allocations": [10, 0]},
                    {"voter_id": ids[1], "allocations": [0.5, 0.5]},
                ],
                "last_voter_stake": 4.0,
                "profits": [1.0, 1.0],
                "aligned_fraction": [0.5, 0.5],
            }))
            outputs.append(run(["attack", "last-voter", "--scenario", str(path)]))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0

    def test_byte_identical_reruns(self, tmp_path):
        path = tmp_path / "sybil.json"
        path.write_text(json.dumps({"scheme": "qv1", "stake": 4.0, "k": 4}))
        argv = ["attack", "sybil", "--scenario", str(path)]
        assert run(argv) == run(argv)


#: a valid problem or scenario file for each command that reads one
INPUT_FILES = {
    ("optimize", "--scheme", "qv2", "--problem"): {
        "profits": [3, 1], "aligned": [0, 0], "total": [1, 2], "stake": 4},
    ("attack", "sybil", "--scenario"): {"scheme": "qv2", "stake": 9.0, "k": 9},
    ("attack", "collusion", "--scenario"): {
        "stakes": [1, 1], "proposals": 2,
        "honest_plan": [[1, 0], [0, 1]], "colluding_plan": [[0.5, 0.5], [0.5, 0.5]]},
    ("attack", "last-voter", "--scenario"): {
        "scheme": "qv1", "prior_stakes": [["a", 4.0], ["b", 1.0]],
        "prior_ballots": [{"voter_id": "a", "allocations": [4, 0]},
                          {"voter_id": "b", "allocations": [0, 1]}],
        "last_voter_stake": 4.0, "profits": [3.0, 1.0], "aligned_fraction": [0.5, 0.5]},
}


class TestMalformedInputFiles:
    @pytest.mark.parametrize("argv, key, value, error", [
        (("optimize", "--scheme", "qv2", "--problem"), "total", None, "ParseError"),
        (("attack", "sybil", "--scenario"), "k", None, "ParseError"),
        (("attack", "last-voter", "--scenario"), "profits", 3, "InvalidSpec"),
        (("attack", "last-voter", "--scenario"), "prior_ballots", [5], "ParseError"),
        (("attack", "last-voter", "--scenario"), "prior_ballots", "x", "ParseError"),
        (("attack", "last-voter", "--scenario"), "prior_stakes", [5], "ParseError"),
        (("attack", "last-voter", "--scenario"), "prior_stakes", [["a", 4.0, 1]],
         "ParseError"),
        (("attack", "collusion", "--scenario"), "honest_plan", 5, "ParseError"),
        (("attack", "collusion", "--scenario"), "stakes", 3, "ParseError"),
    ])
    def test_reproducers(self, tmp_path, argv, key, value, error):
        doc = dict(INPUT_FILES[argv])
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code, out, err = run([*argv, str(path)])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize("argv", sorted(INPUT_FILES))
    @pytest.mark.parametrize("doc", [[], 3, None, "x"])
    def test_a_document_that_is_not_an_object(self, tmp_path, argv, doc):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        code, out, err = run([*argv, str(path)])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "ParseError",
                                   "message": f"{path}:1: expected a JSON object"}

    @pytest.mark.parametrize("argv", sorted(INPUT_FILES))
    def test_every_key_missing_or_of_the_wrong_type(self, tmp_path, argv):
        """Each mutated file exits 0 or 1, and a 1 comes with one JSON
        error object: no exception leaves main."""
        base = INPUT_FILES[argv]
        path = tmp_path / "input.json"
        assert run([*argv, _write(path, base)])[0] == 0
        for key in base:
            missing = {k: v for k, v in base.items() if k != key}
            for doc in (missing, *({**base, key: value} for value in (
                    3, "x", None, True, [], [5], [[]], [None], {"a": 1}))):
                code, _, err = run([*argv, _write(path, doc)])
                assert code in (0, 1), doc
                if code:
                    assert set(json.loads(err)) == {"error", "message"}, doc


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _ballot(credit, weights, off=0.0):
    """The allocations of `credit + off` in proportion to `weights`; the last
    entry absorbs the rounding."""
    b = [credit * w / math.fsum(weights) for w in weights]
    b[-1] = credit + off - math.fsum(b[:-1])
    return b


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


#: sha256 of what the row-based implementation, which the columnar
#: StakeDistribution and the _Records encoder replaced, printed for the
#: 5,000-voter Pareto file below; pinned with numpy 2.4 on x86-64
ROW_BASED_DIGESTS = {
    "metrics-0.5": "44c8565fe7d328e6ce30b71fbe3216d2bbeac38a19c3192a3a9ded5fd2a5f002",
    "metrics-1": "6e5d48602ca749416c6669de3ca40d2bf12d0c13f01d994f162bb9619329b049",
    "lorenz-json": "e81c54567f9e6e22c996974924f09f19ff98d83f57ab5746314653b49d50afe4",
    "lorenz-csv": "38e4638a34e4827cd9dfc1cc14b8fb93a50e5397e780645e0f1782dd1101fa25",
    "gamma-search": "563aeddab2201456c12a0d84bf16169acc731771d79680cbc5833ddf4de010a2",
}

#: sha256 of the 5,000 PCG64 draws of seed 7 as float64 bytes
PARETO_5000_DRAWS = "4915aa2ae575b84bf43a7bf30e58ff171920a8cd5c14036fea3d3b8d781aa348"


def _csv_lines(entries):
    """A stake file's lines written row by row, each stake by repr (lines,
    not one text, so that a failure is reported at its first row)."""
    return ["voter_id,stake\n", *(f"{i},{s!r}\n" for i, s in entries)]


def test_analysis_bytes_match_the_row_based_implementation(tmp_path):
    code, generated, _ = run(["generate", "--kind", "pareto", "--n", "5000", "--seed", "7"])
    assert code == 0
    # the stakes' last bits are those of numpy's SIMD power, which differ
    # between dispatch levels: so the stake files are checked against
    # references built with numpy's ** on this host
    u, entries = pareto_reference(5000, 7)
    assert hashlib.sha256(u.tobytes()).hexdigest() == PARETO_5000_DRAWS
    assert generated.splitlines(keepends=True) == _csv_lines(entries)
    stakes = tmp_path / "stakes.csv"
    stakes.write_bytes(generated.encode())
    transformed = tmp_path / "transformed.csv"
    thresholds = ["--nakamoto", "0.33", "0.51", "0.67"]
    runs = {
        "metrics-0.5": ["metrics", "--stakes", str(stakes), "--gamma", "0.5", *thresholds],
        "metrics-1": ["metrics", "--stakes", str(stakes), "--gamma", "1", *thresholds],
        "lorenz-json": ["lorenz", "--stakes", str(stakes), "--gamma", "0.5",
                        "--format", "json"],
        "lorenz-csv": ["lorenz", "--stakes", str(stakes), "--gamma", "0.5",
                       "--format", "csv"],
        "gamma-search": ["gamma-search", "--stakes", str(stakes), "--k", "10",
                         "--alpha", "0.05", "--transformed-out", str(transformed)],
    }
    texts = {}
    for name, argv in runs.items():
        code, texts[name], err = run(argv)
        assert (code, err) == (0, "")
    assert {name: _digest(text) for name, text in texts.items()} == ROW_BASED_DIGESTS
    # the printed gamma is rounded; the file is written with the unrounded one
    gamma = transform.gamma_search(stake.read_csv(stakes), 10, 0.05).gamma
    assert json.loads(texts["gamma-search"])["gamma"] == float(f"{gamma:.12g}")
    ids, values = zip(*entries)
    assert transformed.read_text().splitlines(keepends=True) == _csv_lines(
        sorted(zip(ids, (np.array(values) ** gamma).tolist()), key=lambda e: (e[1], e[0])))


def _problem(seed, m, flat=False):
    """A utility problem of m proposals drawn from `seed`; every aligned
    mass equals its total when flat."""
    rng = random.Random(seed)
    total = [rng.uniform(0.0, 3.0) for _ in range(m)]
    return {"profits": [rng.uniform(0.0, 5.0) for _ in range(m)],
            "aligned": total if flat else [t * rng.random() for t in total],
            "total": total, "stake": rng.uniform(0.5, 10.0)}


def _board(seed, scheme, m):
    """Six voters' stakes and full-credit ballots of `scheme` over m proposals."""
    rng = random.Random(seed)
    stakes = [[f"v{i}", rng.uniform(0.5, 20.0)] for i in range(6)]
    credit = (lambda s: s) if scheme == "qv1" else math.sqrt
    return {"prior_stakes": stakes,
            "prior_ballots": [{"voter_id": voter, "allocations": _ballot(
                credit(s), [rng.random() for _ in range(m)])} for voter, s in stakes]}


def _last_voter(seed, scheme, m, board):
    rng = random.Random(seed)
    return {"scheme": scheme, **(_board(seed, scheme, m) if board else {}),
            "last_voter_stake": rng.uniform(1.0, 10.0),
            "profits": [rng.uniform(0.0, 5.0) for _ in range(m)],
            "aligned_fraction": [rng.random() for _ in range(m)]}


def _collusion(seed):
    rng = random.Random(seed)
    stakes = [rng.uniform(0.5, 9.0) for _ in range(3)]
    return {"stakes": stakes, "proposals": 3,
            "honest_plan": [[s if r == i else 0.0 for r in range(3)]
                            for i, s in enumerate(stakes)],
            "colluding_plan": [_ballot(s, [rng.random() for _ in range(3)]) for s in stakes]}


_SYBIL = ("attack", "sybil", "--scenario")
_COLLUSION = ("attack", "collusion", "--scenario")
_LAST_VOTER = ("attack", "last-voter", "--scenario")

#: name -> (argv before the input file, the file's document), every input
#: drawn from a seed; an "error-" run names the error it prints
SOLVER_RUNS = {
    **{f"qv2-m{m}-seed{seed}{'-oracle' * oracle}": (
        ("optimize", "--scheme", "qv2", *(("--oracle-check",) * oracle), "--problem"),
        _problem(seed, m))
       for seed, m, oracle in ((1, 1, True), (2, 2, True), (3, 3, True), (4, 4, True),
                               (5, 2, False), (6, 3, False), (7, 20, False))},
    "qv2-flat-oracle": (("optimize", "--scheme", "qv2", "--oracle-check", "--problem"),
                        _problem(8, 3, flat=True)),
    **{f"sybil-{scheme}": (_SYBIL, {"scheme": scheme, "stake": stake_, "k": k})
       for scheme, stake_, k in (("linear", 7.25, 5), ("qv1", 13.5, 7), ("qv2", 2.75, 11))},
    "collusion": (_COLLUSION, _collusion(9)),
    **{f"last-voter-{scheme}-{'board' if board else 'empty'}": (
        _LAST_VOTER, _last_voter(seed, scheme, 4, board))
       for seed, scheme, board in ((10, "qv1", True), (11, "qv1", False),
                                   (12, "qv2", True), (13, "qv2", False))},
    "error-ParseError": (("optimize", "--scheme", "qv2", "--problem"),
                         {k: v for k, v in _problem(14, 2).items() if k != "total"}),
    "error-InvalidSpec": (("optimize", "--scheme", "qv1", "--problem"),
                          {**_problem(15, 2), "profits": [-1.0, 2.0]}),
    "error-AlignedExceedsTotal": (("optimize", "--scheme", "qv2", "--problem"),
                                  {**_problem(16, 2), "aligned": [5.0, 0.0]}),
    "error-DimensionTooLarge": (("optimize", "--scheme", "qv1", "--oracle-check",
                                 "--problem"), _problem(17, 5)),
    "error-DegenerateDenominator": (("optimize", "--scheme", "qv1", "--oracle-check",
                                     "--problem"), {"profits": [1, 1], "aligned": [0, 0],
                                                    "total": [0, 0], "stake": 5e-324}),
    "error-GammaOutOfRange": (_SYBIL, {"scheme": "gpv", "gamma": 2.0, "stake": 4.0, "k": 2}),
    "error-LengthMismatch": (_LAST_VOTER, {**_last_voter(18, "qv2", 3, True),
                                           "aligned_fraction": [0.5, 0.5]}),
    "error-UnknownVoter": (_LAST_VOTER, {  # v0 holds no stake
        **_last_voter(19, "qv1", 3, True),
        "prior_stakes": _board(19, "qv1", 3)["prior_stakes"][1:]}),
    "error-InvalidBallot": (_LAST_VOTER, {**_last_voter(20, "qv2", 3, True),
                                          "prior_ballots": [{"voter_id": "v0",
                                                             "allocations": [9.0, 0, 0]}]}),
    "error-CreditMismatch": (_COLLUSION, {**_collusion(23), "colluding_plan": [
        [2 * v for v in ballot] for ballot in _collusion(23)["colluding_plan"]]}),
    "error-DuplicateVoter": (_LAST_VOTER, {
        **_last_voter(21, "qv2", 3, False), "prior_stakes": [["a", 1.0], ["a", 2.0]]}),
    "error-NonPositiveStake": (_LAST_VOTER, {
        **_last_voter(22, "qv2", 3, False), "prior_stakes": [["a", 0.0]]}),
}

#: sha256 of each run's stdout, or of its stderr for an "error-" run;
#: pinned with numpy 2.4 on x86-64 at every SIMD dispatch level it found
#: (AVX-512, AVX2, SSE4.2: NPY_DISABLE_CPU_FEATURES)
SOLVER_DIGESTS = {
    "qv2-m1-seed1-oracle":
        "a4e1854ea856bc237512d53d733294b2e2eda18fae9c630add727564896f1e59",
    "qv2-m2-seed2-oracle":
        "1c30205a37c3eecc58c38fd023a20f7a5057556f951609210859ab2b415f737b",
    "qv2-m3-seed3-oracle":
        "01b379b9007787e4b24d9d4cba4ae2442ec02296c42d1913c29ba60250261b92",
    "qv2-m4-seed4-oracle":
        "529dc40a0aa36f3415cac400ae0029c7afd5f8573942b35768f168a137cd267b",
    "qv2-m2-seed5":
        "225f9c5de5b34e3cd51e9f19a3672c4bed373a56eaffcc7074f481c6222091a4",
    "qv2-m3-seed6":
        "e60f55192f3c33ec1e282d61e910a1660b9eebd11b116e0bd3d8341dc081d146",
    "qv2-m20-seed7":
        "1514e4704cb93785cd4955de5a00be29968f5e0306084e3aad350195c57d8ff8",
    "qv2-flat-oracle":
        "c109bee59848f557ec244908198c13c86d5e783772f62426d828751eecd629fb",
    "sybil-linear":
        "fd75fc026888ef1c675f2a15f70d9aee97b8c398bb4ad2a6b2cec4ba56bd56f9",
    "sybil-qv1":
        "554d2e2acde79539fc60117b169b816b7b9f74e90b48270ac4a0b57f351cca94",
    "sybil-qv2":
        "3bb1dfc8622c4df86e47f212d83ee8d8cc04207a7ee031f1267f18c23a2d7994",
    "collusion":
        "c66cd1dc972bdb2f6e0f2b169f5ada4a42028d3a28d470af4297a5ff72536daa",
    "last-voter-qv1-board":
        "8c5e93f6063171a8afff6c503f11117e18bf3a3a7dcdb707143a0d2ab05855e7",
    "last-voter-qv1-empty":
        "f1f38090800ebe9993af6c74c4c0a222b1a61fcc33b4f9c010bc62708e045769",
    "last-voter-qv2-board":
        "0bfd14e113e0d045ea275c5d8472c78508b9302223031f1dce01eaad7593ef5d",
    "last-voter-qv2-empty":
        "eaaaa5c1ab288e89ff7371b6df070d619a3d56ef9f38dace1b4962ccd5426e54",
    "error-ParseError":
        "4f35aee24af2a151ca329f218f3e7d262789aae1f86cfa577f72b6e413d7e0be",
    "error-InvalidSpec":
        "dcb95286549c6ceef4d64791bcaed7c602c4ce3e4e90fbfbe828c1d24e7764da",
    "error-AlignedExceedsTotal":
        "43918d2c08ecb584ca2edbd716b574f31d6ad74046930a0a885bd82985969aff",
    "error-DimensionTooLarge":
        "97c44cdd19187949e543f5d75dacf11e0f84969cde55e64bc35668d18d8ead71",
    "error-DegenerateDenominator":
        "16311960216a35bf788a1ae8fcb1f21182313549ad8a5985b022160e04cd9ffd",
    "error-GammaOutOfRange":
        "a5db2897619b15dd53fafa4be8a32d9c0b5044856e225c608aeed9700246b888",
    "error-LengthMismatch":
        "c8cc767458c591404ba7ed2ae4ede9f9e771ac77129fe61057ffb60306eaa123",
    "error-UnknownVoter":
        "6640a3d50cf3f00b6cceffd6d0c0626393c3a8cc32e4801beb33cd959c986c6a",
    "error-InvalidBallot":
        "be6ab11c9570c67f43c341dfefe38569d8aa5f6e81a89df01b7b3af2a361d066",
    "error-CreditMismatch":
        "0ae4e807fcddff636c81959f5850c59c15bff56d397ae2482376260f87bf337e",
    "error-DuplicateVoter":
        "6ce52fefb620b857425fe1817b6021c5b0de83d1e8e484a3fbfe3746270ead90",
    "error-NonPositiveStake":
        "7df84255477c2d3411ea98253a2d59303f6cc02de3f6e9206d82efa42e65bf80",
    "error-IoError":
        "91c83e96d0e112f69f32beb13174e8ab779036a8607cb64810e2658d47471c82",
}

#: as SOLVER_DIGESTS, for optimize --scheme qv1 with and without
#: --oracle-check, of the JSON without kkt_residual and oracle_gap: those
#: two are rounding noise, which differs between numpy's SIMD dispatch levels
QV1_DIGESTS = {
    "qv1-m1-seed31-oracle":
        "3ee2077fd6a5e28176a556729aa8b2ec094962ec05f1cd0ac7b36815b0ae19f0",
    "qv1-m2-seed32-oracle":
        "01bc398346fe977423c32f99491032960050c036d686ead9d59672cf51840279",
    "qv1-m3-seed33-oracle":
        "f16c0dd1cc1fd8d6570ecd90247560e3a6276211ba0419ef39c69a22767a7518",
    "qv1-m4-seed34-oracle":
        "2a35de5cfa9c510c3b790ade313dd01187828f2557d4a945fb177a0f8006d3a2",
    "qv1-m2-seed35":
        "48a737c6adca678bad2861be2f3f22ca57180e39806ad02f42c1f16d67df00bd",
    "qv1-m4-seed36":
        "9264b9b7a0e604778948ebc7bf5ab298c19d81fa4874c2f195e2429954616290",
    "qv1-m6-seed37":
        "8d37dcb3a406d6bb2035ac7f3bb36e0d1f726bcabd3a9befd6d7c32e3338450a",
    "qv1-m20-seed38":
        "4e118c4e37f6ec6702431af91d1765647f00ae14f2565730792523c6139f748d",
    "qv1-flat-oracle":
        "1c967b89e9cb96de05b339b0b7cce5b3b90a4de27e133e4cd816a94c83e0f254",
}

#: name -> (whether to add --oracle-check, the problem)
QV1_RUNS = {
    **{f"qv1-m{m}-seed{seed}{'-oracle' * oracle}": (oracle, _problem(seed, m))
       for seed, m, oracle in ((31, 1, True), (32, 2, True), (33, 3, True), (34, 4, True),
                               (35, 2, False), (36, 4, False), (37, 6, False),
                               (38, 20, False))},
    "qv1-flat-oracle": (True, _problem(39, 3, flat=True)),
}


def test_solver_and_attack_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths, so no message names tmp_path
    got = {}
    for name, (argv, doc) in SOLVER_RUNS.items():
        _write(tmp_path / "input.json", doc)
        code, out, err = run([*argv, "input.json"])
        assert (code, bool(out), bool(err)) == ((1, False, True) if name.startswith("error-")
                                                else (0, True, False)), name
        got[name] = _digest(out or err)
    code, _, err = run(["optimize", "--scheme", "qv2", "--problem", "missing.json"])
    assert code == 1
    got["error-IoError"] = _digest(err)
    assert got == SOLVER_DIGESTS


def test_qv1_optimize_bytes_are_pinned_but_for_rounding_noise(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = {}
    for name, (oracle, doc) in QV1_RUNS.items():
        _write(tmp_path / "input.json", doc)
        code, out, err = run(["optimize", "--scheme", "qv1",
                              *(("--oracle-check",) * oracle), "--problem", "input.json"])
        assert (code, err) == (0, "")
        data = json.loads(out)
        for key in ("kkt_residual", *(("oracle_gap",) * oracle)):
            assert abs(data.pop(key)) <= 1e-9, (name, key)
        got[name] = _digest(json.dumps(data))
    assert got == QV1_DIGESTS


#: name -> tally options after --scheme, one run per family and per option
#: that changes what a tally accepts or prints
TALLY_RUNS = {
    "linear": ("linear",),
    "qv1": ("qv1",),
    "qv2": ("qv2",),
    "qv3": ("qv3",),
    "gpv": ("gpv", "--scheme-gamma", "0.3"),
    "qv2-signed": ("qv2", "--polarity", "yes-no-abstain"),
    "qv2-undervote": ("qv2", "--allow-undervote"),
}


def _tally_files(tmp_path):
    """A 6,000-voter stake file and, per run of TALLY_RUNS, 5,000 of its voters'
    ballots over 5 proposals, most with zeros; drawn by random.Random, so no
    numpy rounding enters the inputs."""
    rng = random.Random(41)
    stakes = [rng.uniform(0.5, 100.0) for _ in range(6000)]
    path = tmp_path / "stakes.csv"
    path.write_text("voter_id,stake\n" + "".join(f"v{i},{s!r}\n" for i, s in enumerate(stakes)))
    credit = {"linear": lambda s: s, "qv1": lambda s: s, "qv2": math.sqrt,
              "gpv": lambda s: s ** 0.3}
    ballots = {}
    for name, (scheme, *_) in TALLY_RUNS.items():
        doc = []
        for i in rng.sample(range(6000), 5000):
            weights = [rng.random() * (rng.random() < 0.6) for _ in range(4)] + [rng.random()]
            if scheme == "qv3":
                c = math.sqrt(stakes[i])
                row = [c if w > 0.5 else 0.0 for w in weights]
            else:
                row = _ballot(credit[scheme](stakes[i]) * (
                    rng.uniform(0.2, 1.0) if "undervote" in name else 1.0), weights)
            if "signed" in name:
                row = [-v if rng.random() < 0.4 else v for v in row]
            doc.append({"voter_id": f"v{i}", "allocations": row})
        ballots[name] = _write(tmp_path / f"{name}.json", doc)
    return str(path), ballots


#: sha256 of each TALLY_RUNS tally's stdout: 5,000 voters, past the 4,096
#: rows of one chunk of the JSON writer; pinned as SOLVER_DIGESTS
TALLY_DIGESTS = {
    "linear":
        "8d3a1cf2485255046b8e5b994a1f3ea02023123f1ed591acb4aba49b399cabb9",
    "qv1":
        "fd2e5b50466c8e8f48997e79b783adbe5d6af499c1c199bc573d543562c48680",
    "qv2":
        "2aad947ecd83f1375297c7d187aeca950ba29b833e0997aaf2681028375ce22e",
    "qv3":
        "6b853c5b482725762d77fc79b05aefe4bec9744e8c021d9411fbdf3832e485a3",
    "gpv":
        "2fb0553056ed3483792ad96cd5b7851e903a449f3d6b2860197e0527ed2f3acb",
    "qv2-signed":
        "7623dbce9a4c1525a6555629690197871a9ae3289f58d154a6583fe82c534734",
    "qv2-undervote":
        "06046f03da9716f7e24c36ff8af847c72da1be4b82d1677271cb41b3ac295ca2",
}


def test_tally_bytes_are_pinned(tmp_path):
    stakes_path, ballots = _tally_files(tmp_path)
    got = {}
    for name, options in TALLY_RUNS.items():
        code, out, err = run(["tally", "--scheme", *options, "--stakes", stakes_path,
                              "--ballots", ballots[name], "--proposals", "5"])
        assert (code, err) == (0, ""), name
        got[name] = _digest(out)
    assert got == TALLY_DIGESTS


@pytest.fixture(scope="module")
def pareto_30k(tmp_path_factory):
    """The 30,000-voter Pareto stake file of seed 7, whose text spans several
    of read_csv's read chunks: its path and its rows."""
    code, text, _ = run(["generate", "--kind", "pareto", "--n", "30000", "--seed", "7"])
    assert code == 0
    path = tmp_path_factory.mktemp("pareto") / "stakes.csv"
    path.write_bytes(text.encode())
    return str(path), list(csv.DictReader(io.StringIO(text)))


def _qv2_ballots(rows):
    """600 full-credit qv2 ballots of voters drawn from `rows`, most with zeros."""
    rng = random.Random(5)
    return [{"voter_id": row["voter_id"], "allocations": _ballot(
                math.sqrt(float(row["stake"])),
                [rng.random() * (rng.random() < 0.7) for _ in range(4)] + [rng.random()])}
            for row in rng.sample(rows, 600)]


class TestLargeStakeFile:
    @staticmethod
    def tally(path, ballots, tmp_path, *argv):
        return run(["tally", "--stakes", path, "--ballots",
                    _write(tmp_path / "ballots.json", ballots), *argv])

    def test_eta_threshold_at_gamma_0_3_is_the_square_root_threshold(self, pareto_30k):
        path, rows = pareto_30k
        s = [float(row["stake"]) for row in rows]
        code, out, _ = run(["metrics", "--stakes", path, "--gamma", "0.3"])
        assert code == 0
        assert json.loads(out)["eta_threshold"] == float(
            f"{math.fsum(s) / math.fsum(map(math.sqrt, s)):.12g}")

    def test_a_crlf_copy_with_quoted_ids_prints_the_same_bytes(self, pareto_30k, tmp_path):
        # read_csv takes the quoted copy through the csv module
        path, rows = pareto_30k
        quoted = tmp_path / "quoted.csv"
        quoted.write_bytes("".join(
            ["voter_id,stake\r\n", *(f'"{r["voter_id"]}",{r["stake"]}\r\n' for r in rows)]
        ).encode())
        for command in (["metrics", "--gamma", "0.5"],
                        ["lorenz", "--gamma", "0.5", "--format", "json"]):
            code, out, err = run([*command, "--stakes", path])
            assert code == 0
            quoted_code, quoted_out, quoted_err = run([*command, "--stakes", str(quoted)])
            assert (quoted_code, quoted_err) == (code, err)
            assert_same_text(quoted_out, out)

    def test_a_bad_stake_past_the_first_read_chunk_is_named_at_its_line(self, pareto_30k,
                                                                          tmp_path):
        path, rows = pareto_30k
        late = tmp_path / "late.csv"
        text = "".join(["voter_id,stake\n", *(
            f"{r['voter_id']},{'abc' if i == 24999 else r['stake']}\n"
            for i, r in enumerate(rows))])
        assert text.index(",abc") > stake._READ_CHARS
        late.write_text(text)
        code, out, err = run(["metrics", "--stakes", str(late)])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "ParseError",
                                   "message": f"{late}:25001: bad stake value 'abc'"}

    def test_qv2_credit_used_is_the_fsum_of_each_ballot(self, pareto_30k, tmp_path):
        path, rows = pareto_30k
        ballots = _qv2_ballots(rows)
        for doc in (ballots, ballots[:1]):
            code, out, _ = self.tally(path, doc, tmp_path, "--scheme", "qv2", "--proposals", "5")
            assert code == 0
            assert json.loads(out)["voters"] == [
                {"voter_id": b["voter_id"],
                 "credit_used": float(f"{math.fsum(map(abs, b['allocations'])):.12g}")}
                for b in doc]

    def test_an_unknown_voter_is_named(self, pareto_30k, tmp_path):
        path, rows = pareto_30k
        ballots = _qv2_ballots(rows)[:10]
        ballots[2] = dict(ballots[2], voter_id="ghost")
        code, out, err = self.tally(path, ballots, tmp_path, "--scheme", "qv2",
                                    "--proposals", "5")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "UnknownVoter",
                                   "message": "ballot from unknown voter 'ghost'"}

    def test_qv2_spends_within_the_tolerance(self, pareto_30k, tmp_path):
        # a spend 2e-9 past the credit is an InvalidBallot, one within 1e-10 is not
        path, rows = pareto_30k
        rng = random.Random(9)
        sample = rng.sample(rows, 200)

        def ballots(offs):
            return [{"voter_id": row["voter_id"], "allocations": _ballot(
                        math.sqrt(float(row["stake"])), (0.5, 0.3, 0.2), off)}
                    for row, off in zip(sample, offs)]

        over = ballots(2e-9 if i == 117 else 0.0 for i in range(200))
        code, out, err = self.tally(path, over, tmp_path, "--scheme", "qv2", "--proposals", "3")
        assert (code, out) == (1, "")
        err = json.loads(err)
        assert err["error"] == "InvalidBallot"
        assert err["message"].startswith(f"invalid ballot from {sample[117]['voter_id']!r}:")
        near = ballots(rng.uniform(-1e-10, 1e-10) for _ in range(200))
        assert self.tally(path, near, tmp_path, "--scheme", "qv2", "--proposals", "3")[0] == 0

    def test_signed_linear_vscores_are_the_scores(self, pareto_30k, tmp_path):
        path, rows = pareto_30k
        rng = random.Random(3)
        ballots = [{"voter_id": row["voter_id"], "allocations": [
                        x * rng.choice((1, -1))
                        for x in _ballot(float(row["stake"]), [rng.random() for _ in range(4)])]}
                   for row in rng.sample(rows, 300)]
        assert any(x < 0 for b in ballots for x in b["allocations"])
        code, out, _ = self.tally(path, ballots, tmp_path, "--scheme", "linear",
                                  "--polarity", "yes-no-abstain", "--proposals", "4")
        proposals = json.loads(out)["proposals"]
        assert (code, len(proposals)) == (0, 4)
        assert all(p["vscore"] == p["score"] for p in proposals), proposals

    def test_qv3_reports_an_illegal_entry_before_a_short_ballot(self, pareto_30k, tmp_path):
        path, rows = pareto_30k
        ballots = [{"voter_id": r["voter_id"],
                    "allocations": [math.sqrt(float(r["stake"])), 0.0, 0.0]} for r in rows[:6]]
        ballots[1]["allocations"] = ballots[1]["allocations"][:1]
        illegal = dict(ballots[4], allocations=[ballots[4]["allocations"][0] / 2, 0.0, 0.0])
        for doc, error in ((ballots[:4] + [illegal] + ballots[5:], "InvalidBallot"),
                           (ballots[:4] + ballots[5:], "LengthMismatch")):
            code, out, err = self.tally(path, doc, tmp_path, "--scheme", "qv3",
                                        "--proposals", "3")
            assert (code, out, json.loads(err)["error"]) == (1, "", error)

    def test_a_string_allocation_is_not_a_number(self, pareto_30k, tmp_path):
        path, rows = pareto_30k
        row = rows[0]
        ballots = [{"voter_id": row["voter_id"],
                    "allocations": ["1.5", math.sqrt(float(row["stake"])) - 1.5]}]
        code, out, err = self.tally(path, ballots, tmp_path, "--scheme", "qv2",
                                    "--proposals", "2")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "InvalidSpec",
                                   "message": f"non-numeric allocation for {row['voter_id']!r}"}


def test_the_module_runs_as_a_process(stakes_csv):
    """python -m qvkit.cli prints and exits as main does in-process: a report
    on stdout, and a domain error as one JSON object on stderr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qvkit.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    for argv, code in ((["metrics", "--stakes", stakes_csv], 0),
                       (["metrics", "--stakes", stakes_csv, "--gamma", "2"], 1)):
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "qvkit.cli",
                               *argv], env=env, capture_output=True, check=False)
        want = run(argv)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == want
        assert want[0] == code
        if code:
            assert set(json.loads(want[2])) == {"error", "message"}


class TestUsageErrors:
    def test_no_command(self):
        code, _, _ = run([])
        assert code == 2

    def test_unknown_command(self):
        code, _, _ = run(["frobnicate"])
        assert code == 2

    def test_bad_flag_value(self, stakes_csv):
        code, _, _ = run(["metrics", "--stakes", stakes_csv,
                          "--gamma", "not-a-number"])
        assert code == 2


def test_each_choice_set_is_its_modules_tuple():
    commands = next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))

    def choices(command, dest):
        return next(action.choices for action in commands[command]._actions
                    if action.dest == dest)

    assert choices("tally", "scheme") is schemes.FAMILIES
    assert choices("tally", "polarity") is schemes.POLARITIES
    assert choices("optimize", "scheme") is utility.SCHEMES
    assert choices("generate", "kind") is stake.KINDS


class TestTallyGammaRange:
    def test_gpv_gamma_one_names_the_open_interval(self, stakes_csv, tmp_path):
        ballots = tmp_path / "ballots.json"
        ballots.write_text("[]")
        code, out, err = run(["tally", "--scheme", "gpv", "--scheme-gamma", "1",
                              "--stakes", stakes_csv, "--ballots", str(ballots),
                              "--proposals", "2"])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "GammaOutOfRange",
                                   "message": "gamma must be in (0.0, 1.0), got 1.0"}

    def test_gpv_without_gamma_names_the_flag(self, stakes_csv, tmp_path):
        ballots = tmp_path / "ballots.json"
        ballots.write_text("[]")
        code, out, err = run(["tally", "--scheme", "gpv", "--stakes", stakes_csv,
                              "--ballots", str(ballots), "--proposals", "2"])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "InvalidSpec",
                                   "message": "--scheme gpv needs --scheme-gamma"}
        with pytest.raises(GammaOutOfRange):  # the library still names the range
            SchemeSpec("gpv")

    def test_gamma_for_another_family_is_an_invalid_spec(self, stakes_csv, tmp_path):
        ballots = tmp_path / "ballots.json"
        ballots.write_text("[]")
        code, out, err = run(["tally", "--scheme", "qv2", "--scheme-gamma", "0.3",
                              "--stakes", stakes_csv, "--ballots", str(ballots),
                              "--proposals", "2"])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "InvalidSpec",
                                   "message": "gamma only applies to gpv, not qv2"}


def _round_floats(obj):
    """The rounding pass the emitter replaced: the reference for its bytes.

    A _Records is expanded into the list of dicts it stands for.
    """
    if isinstance(obj, _Records):
        return [_round_floats(dict(zip(obj, row))) for row in zip(*obj.values())]
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def reference_json(obj):
    return json.dumps(_round_floats(obj), indent=2) + "\n"


def emitted(obj):
    out = io.StringIO()
    _emit_json(obj, out)
    return out.getvalue()


#: floats where .12g text and repr part ways: zeros, subnormals, the
#: 1e12-1e16 band printed with e+ by .12g and without by repr, integral
#: values, values that round to an integer or across a power of ten
SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    2.225073858507201e-308, 2.2250738585072014e-308, 1e-300, 1e-5, 1e-4,
    0.9999999999999, 0.99999999999949, 1.0, -3.0, 12345.0, 99999999999.95,
    1e11, 999999999999.4, 999999999999.5, 1e12, 1234567890123.0,
    1.5e15, 9999999999999998.0, 1e16, 1e17, 1.7976931348623157e308,
    2.0000000000004, 7.0 - 4e-12, 0.1, 1 / 3,
]

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1e11, max_value=1e17),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.integers(-10**6, 10**6).map(float),
    st.integers(-10**6, 10**6).map(lambda i: i + 1e-12 * (i or 1)),
    st.sampled_from(SPECIAL_FLOATS),
)
scalars = st.one_of(
    floats, floats.map(np.float64), st.integers(-2**70, 2**70), st.booleans(),
    st.none(), st.text(max_size=6),
)
keys = st.text(max_size=5)
record_keys = st.lists(st.sampled_from(["i", "s", "é", "{x}", ""]), min_size=1,
                       max_size=3, unique=True)


def record_rows(ks):
    return st.lists(st.fixed_dictionaries({k: scalars for k in ks}), max_size=6)


records = record_keys.flatmap(record_rows)


def as_records(keys, rows):
    """The _Records of dicts that share the key order `keys`."""
    return _Records({k: [row[k] for row in rows] for k in keys})


#: the records strategy's dicts held as columns
columnar = record_keys.flatmap(
    lambda ks: record_rows(ks).map(lambda rows: as_records(ks, rows)))
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=6).map(tuple),
        st.lists(floats, max_size=8),
        records,
        columnar,
        st.dictionaries(keys, inner, max_size=5),
    ),
    max_leaves=40,
)


class TestEmitJson:
    """_emit_json writes documents, dicts of str keys; each value of the
    drawn shapes is drawn as a value of one."""

    @settings(max_examples=400, deadline=None)
    @given(st.dictionaries(keys, json_values, max_size=3))
    def test_bytes_equal_json_dumps_of_rounded_floats(self, doc):
        assert emitted(doc) == reference_json(doc)

    def test_lists_of_shared_and_mixed_key_dicts(self):
        obj = {"points": [{"i": i, "cumulative_share": v}
                          for i, v in enumerate(SPECIAL_FLOATS)],
               "mixed": [{"a": 1.5, "b": "x"}, {"b": "y", "a": 2.5}, {"a": None}, {}],
               "nested": [{"k": [1.0, {"q": 1e13}]}, {"k": []}],
               "braces": [{"{a}": 1e-7, "b}": "{}"}, {"{a}": -0.0, "b}": "}"}],
               "non_ascii": ["é☃", "\u2028", "\x00"]}
        assert emitted(obj) == reference_json(obj)

    def test_records_equal_their_dicts(self):
        points = as_records(["i", "cumulative_share"],
                            [{"i": i, "cumulative_share": v}
                             for i, v in enumerate(SPECIAL_FLOATS)])
        obj = {"points": points,
               "range": _Records({"i": range(3), "v": (0.5, np.float64(1e13), -0.0)}),
               "empty": _Records({"a": [], "b": []}),
               "one": [_Records({"x": [[1.0, {"q": 1e-7}]]})],
               "braces": _Records({"{a}": [1e-7, -0.0], "b}": ["{}", "}"]}),
               "non_ascii": _Records({"é☃": ["\u2028", "\x00"]})}
        assert emitted(obj) == reference_json(obj)

    def test_random_bit_patterns(self):
        rng = random.Random(20261018)
        values = [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
                  for _ in range(100_000)]
        values += [10.0 ** rng.uniform(-310, 18) * rng.choice((-1, 1))
                   for _ in range(100_000)]
        values += SPECIAL_FLOATS
        want = [json.dumps(_round_floats(v)) for v in values]
        assert _float_texts(values) == want

    def test_unserializable_values_and_keys_raise_as_json_does(self):
        for obj in ({"a": object()}, {"a": [1.0, {1j: 2}]}, {"a": np.int64(3)}):
            with pytest.raises(TypeError):
                reference_json(obj)
            with pytest.raises(TypeError):
                emitted(obj)

    def test_non_string_keys(self):
        obj = {"keys": {1: 2.0, 2.5: [1e13], None: 1, True: "t", math.nan: 0.1}}
        assert emitted(obj) == reference_json(obj)


#: list and record counts around the emitter's chunk boundaries
CHUNK_SIZES = [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1]


class TestChunkedOutput:
    """Lists, _Records and Lorenz CSV rows cut into chunks write the bytes
    they wrote whole."""

    @staticmethod
    def floats(n):
        rng = random.Random(n)
        return [SPECIAL_FLOATS[i % len(SPECIAL_FLOATS)] if i % 3 else rng.uniform(-1e6, 1e6)
                for i in range(n)]

    @pytest.mark.parametrize("n", CHUNK_SIZES)
    def test_lists_and_records_across_chunks(self, n):
        floats = self.floats(n)
        # the last item changes the kind of the last chunk only
        mixed = [*floats[:-1], {"k": [1e-7, "x"]}] if n else []
        records = _Records({"i": range(n), "share": floats,
                            "id": [f"v{i}" for i in range(n)], "mixed": mixed})
        obj = {"floats": floats, "tuple": tuple(map(np.float64, floats)),
               "ints": list(range(n)), "mixed": mixed, "records": records,
               "nested": [records, {"floats": floats}]}
        assert_same_text(emitted(obj), reference_json(obj))

    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, 2 * _CHUNK])
    def test_lorenz_csv_across_chunks(self, tmp_path, n):
        dist = stake.canonicalize((f"v{i}", 1.0 + (i * 7919 % n) / 3) for i in range(n))
        path = tmp_path / "stakes.csv"
        with open(path, "w", encoding="utf-8") as fh:
            stake.write_csv(dist, fh)
        code, out, _ = run(["lorenz", "--stakes", str(path), "--gamma", "0.5"])
        points = metrics.lorenz_points(stake.credits(dist.stakes(), 0.5))
        assert code == 0
        assert_same_text(out, "i,cumulative_share\n" + "".join(
            f"{i},{float(f'{v:.12g}')!r}\n" for i, v in points))

    def test_emitting_100k_lorenz_points_holds_one_chunk(self):
        # an emitter that builds the whole text at once peaks at about three
        # times the output's size; a chunk's text is well under 1 MiB
        shares = [i / 100_000 for i in range(100_001)]
        obj = {"gamma": 0.5,
               "points": _Records({"i": range(len(shares)), "cumulative_share": shares})}
        out = io.StringIO()
        tracemalloc.start()
        try:
            _emit_json(obj, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = out.getvalue()
        assert_same_text(text, reference_json(obj))
        assert peak < len(text) + 4 * 2 ** 20
