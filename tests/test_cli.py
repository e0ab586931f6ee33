import io
import json
import math

import pytest

from qvkit.cli import main


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


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

    def test_header_only_file_is_domain_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("voter_id,stake\n")
        code, _, err = run(["metrics", "--stakes", str(path)])
        assert code == 1
        assert json.loads(err)["error"] == "InvalidSpec"

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

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(["optimize", "--scheme", "qv2", "--problem",
                            str(path)])
        assert code == 1
        assert json.loads(err)["error"] == "ParseError"


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
        path = tmp_path / "last.json"
        path.write_text(json.dumps({
            "scheme": "qv2", "last_voter_stake": 4.0, "profits": [3.0, 1.0],
        }))
        code, out, _ = run(["attack", "last-voter", "--scenario", str(path)])
        assert code == 0
        assert json.loads(out)["narrative"]["external_total"] == [0.0, 0.0]

    def test_byte_identical_reruns(self, tmp_path):
        path = tmp_path / "sybil.json"
        path.write_text(json.dumps({"scheme": "qv1", "stake": 4.0, "k": 4}))
        argv = ["attack", "sybil", "--scenario", str(path)]
        assert run(argv) == run(argv)


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
