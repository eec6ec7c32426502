import csv
import json

import pytest

from martbench.cli import main

SPACE = '{"depth":1,"branching":2,"leaf_probs":"uniform"}'
SEQ = '{"head":[2],"tail_mass":0.5,"tail_ratio":0.5}'
UNIT_WEIGHTS = '{"weights":[[1,1]],"v":[1,1]}'


def run_cli(tmp_path, command, *args, out_name="out.json"):
    out = tmp_path / out_name
    code = main([command, "--out", str(out), *args])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc, out


class TestWeightsConstants:
    def test_unit_system(self, tmp_path):
        code, doc, _ = run_cli(
            tmp_path,
            "weights-constants",
            "--space", SPACE, "--seq", SEQ, "--weights", UNIT_WEIGHTS,
        )
        assert code == 0
        assert doc["constants"] == {"ap": 1.0, "rh": 1.0, "sp": 1.0}

    def test_csv_summary(self, tmp_path):
        code, _, out = run_cli(
            tmp_path,
            "weights-constants",
            "--space", SPACE, "--seq", SEQ, "--weights", UNIT_WEIGHTS,
            "--format", "json+csv",
        )
        assert code == 0
        rows = list(csv.reader(open(out.with_suffix(".csv"))))
        assert rows[0] == ["kind", "name", "lhs", "rhs", "constant", "slack", "pass"]
        assert {row[1] for row in rows[1:]} == {"ap", "rh", "sp"}


class TestEnumerate:
    def test_depth_two_count(self, tmp_path):
        code, doc, _ = run_cli(
            tmp_path, "enumerate-stopping-times",
            "--space", '{"depth":2,"branching":2}',
        )
        assert code == 0
        assert doc["count"] == 26 and doc["enumerated"] == 26
        assert len(doc["times"]) == 26

    def test_cap_exceeded_is_input_error(self, tmp_path):
        code, _, _ = run_cli(
            tmp_path, "enumerate-stopping-times",
            "--space", '{"depth":6,"branching":2}',
        )
        assert code == 2


class TestConjugateProduct:
    def test_doubling_interval(self, tmp_path):
        code, doc, _ = run_cli(tmp_path, "conjugate-product", "--seq", SEQ)
        assert code == 0
        lo, hi = doc["interval"]["lo"], doc["interval"]["hi"]
        assert lo <= 3.462746619 <= hi
        assert doc["rel_width"] <= 1e-9


class TestVerifySuites:
    def test_verify_ap_passes(self, tmp_path):
        code, doc, _ = run_cli(
            tmp_path, "verify-ap",
            "--space", SPACE, "--seq", SEQ,
            "--weights", '{"weights":[[1,4]],"v":[1,1]}',
            "--trials", "3",
        )
        assert code == 0
        assert doc["summary"]["n_failed"] == 0
        names = {r["inequality"] for r in doc["reports"]}
        assert names == {"ap-to-testing", "testing-to-weak", "weak-to-testing", "testing-to-ap"}

    def test_verify_sp_passes(self, tmp_path):
        code, doc, _ = run_cli(
            tmp_path, "verify-sp",
            "--space", SPACE, "--seq", SEQ,
            "--weights", '{"weights":[[1,4]],"v":[1,2]}',
            "--trials", "4",
        )
        assert code == 0
        names = {r["inequality"] for r in doc["reports"]}
        assert "sp-to-strong" in names and "strong-estimate-vs-bound" in names

    def test_check_holder(self, tmp_path):
        code, doc, _ = run_cli(
            tmp_path, "check-holder",
            "--space", SPACE, "--seq", SEQ,
            "--functions", '[{"active":[[2,0]]}]',
        )
        assert code == 0
        report = doc["reports"][0]
        assert report["pass"] and report["lhs"] == pytest.approx(1.0)

    def test_check_conditional_holder_all_levels(self, tmp_path):
        code, doc, _ = run_cli(
            tmp_path, "check-conditional-holder",
            "--space", SPACE, "--seq", SEQ,
            "--functions", '{"active":[[2,0]]}',
        )
        assert code == 0
        assert len(doc["reports"]) == 2  # levels 0 and 1

    def test_sawyer_trace(self, tmp_path):
        code, doc, _ = run_cli(
            tmp_path, "sawyer-trace",
            "--space", SPACE, "--seq", SEQ, "--weights", UNIT_WEIGHTS,
            "--functions", '{"active":[[4,0]]}',
        )
        assert code == 0
        assert doc["trace"]["k_range"] == [0, 1]
        assert len(doc["trace"]["cells"]) == 2


class TestEstimate:
    def test_estimate_reports_lower_bound(self, tmp_path):
        code, doc, _ = run_cli(
            tmp_path, "estimate-constant",
            "--space", SPACE, "--seq", SEQ, "--weights", UNIT_WEIGHTS,
            "--inequality", "testing", "--trials", "4",
        )
        assert code == 0
        assert doc["estimate"] >= 1.0 - 1e-12

    def test_expected_bound_violation_exits_one(self, tmp_path):
        code, doc, _ = run_cli(
            tmp_path, "estimate-constant",
            "--space", SPACE, "--seq", SEQ, "--weights", UNIT_WEIGHTS,
            "--inequality", "testing", "--trials", "4",
            "--expect-at-most", "0.5",
        )
        assert code == 1
        assert doc["reports"][0]["pass"] is False


class TestGenerate:
    def test_deterministic_and_extremal(self, tmp_path):
        args = ["--kind", "functions", "--space", SPACE, "--seed", "9",
                "--spread", "8", "--count", "4"]
        _, doc_a, out = run_cli(tmp_path, "generate", *args, out_name="a.json")
        _, doc_b, _ = run_cli(tmp_path, "generate", *args, out_name="b.json")
        assert doc_a["items"] == doc_b["items"]
        assert doc_a["items"][0] == [1.0, 1.0]
        assert doc_a["items"][1] == [1.0, 0.0]

    def test_distinct_seeds_differ(self, tmp_path):
        _, doc_a, _ = run_cli(
            tmp_path, "generate", "--kind", "functions", "--space", SPACE,
            "--seed", "1", "--count", "3", out_name="a.json",
        )
        _, doc_b, _ = run_cli(
            tmp_path, "generate", "--kind", "functions", "--space", SPACE,
            "--seed", "2", "--count", "3", out_name="b.json",
        )
        assert doc_a["items"][2] != doc_b["items"][2]

    def test_weights_kind_stays_positive(self, tmp_path):
        _, doc, _ = run_cli(
            tmp_path, "generate", "--kind", "weights", "--space", SPACE,
            "--seed", "4", "--spread", "5", "--count", "4",
        )
        assert all(x > 0 for item in doc["items"] for x in item)

    def test_spread_one_is_all_ones(self, tmp_path):
        _, doc, _ = run_cli(
            tmp_path, "generate", "--kind", "weights", "--space", SPACE,
            "--seed", "4", "--spread", "1", "--count", "3",
        )
        assert doc["items"][0] == [1.0, 1.0]
        assert doc["items"][2] == [1.0, 1.0]

    def test_round_trip_into_checks(self, tmp_path):
        _, doc, _ = run_cli(
            tmp_path, "generate", "--kind", "weights", "--space", SPACE,
            "--seed", "5", "--spread", "4", "--count", "3",
        )
        weights = json.dumps({"weights": doc["items"][:2], "v": doc["items"][2]})
        code, doc2, _ = run_cli(
            tmp_path, "weights-constants",
            "--space", SPACE,
            "--seq", '{"head":[2,3],"tail_mass":0.1,"tail_ratio":0.5}',
            "--weights", weights,
            out_name="c.json",
        )
        assert code == 0 and doc2["constants"]["ap"] > 0


class TestConfigAndErrors:
    def test_config_file(self, tmp_path):
        config = {
            "space": json.loads(SPACE),
            "seq": json.loads(SEQ),
            "weights": json.loads(UNIT_WEIGHTS),
            "family": "all",
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out.json"
        code = main(["weights-constants", "--config", str(path), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["constants"]["ap"] == 1.0

    def test_malformed_json_exits_two(self, tmp_path):
        code, _, _ = run_cli(tmp_path, "verify-ap", "--space", "{bad", "--seq", SEQ)
        assert code == 2

    def test_extreme_weights_exit_two(self, tmp_path, capsys):
        code, _, _ = run_cli(
            tmp_path, "weights-constants",
            "--space", SPACE, "--seq", '{"head":[1.01],"tail_mass":0.5,"tail_ratio":0.5}',
            "--weights", '{"weights":[[1e-6,1e6]],"v":[1,1]}',
        )
        assert code == 2
        assert "sigma_0 for p_0 = 1.01" in capsys.readouterr().err

    def test_missing_space_exits_two(self, tmp_path):
        code, _, _ = run_cli(tmp_path, "check-holder", "--seq", SEQ)
        assert code == 2

    def test_family_flag_parses(self, tmp_path):
        code, doc, _ = run_cli(
            tmp_path, "weights-constants",
            "--space", SPACE, "--seq", SEQ, "--weights", UNIT_WEIGHTS,
            "--family", "sample:20",
        )
        assert code == 0 and doc["constants"]["sp"] <= 1.0 + 1e-12

    def test_report_schema_stable(self, tmp_path):
        _, doc, _ = run_cli(
            tmp_path, "check-holder",
            "--space", SPACE, "--seq", SEQ,
            "--functions", '{"active":[[1,2]]}',
        )
        required = {"inequality", "lhs", "rhs", "constant", "slack", "pass", "tolerance", "metadata"}
        for report in doc["reports"]:
            assert required <= set(report)
