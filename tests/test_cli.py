import csv
import importlib.util
import itertools
import json
import math
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest

import martbench.cli as cli_mod
import martbench.weights as weights_mod
from martbench.cli import generate, main
from martbench.exponents import make_exponent_sequence
from martbench.filtration import (
    ENUMERATION_CAP,
    KEPT_FAMILY_TIMES,
    make_tree_space,
    sample_stopping_time,
)
from martbench.holder import holder_conditional_check, trial_vector

from helpers import SHAPES, shape_id

SPACE = '{"depth":1,"branching":2,"leaf_probs":"uniform"}'
SEQ = '{"head":[2],"tail_mass":0.5,"tail_ratio":0.5}'
UNIT_WEIGHTS = '{"weights":[[1,1]],"v":[1,1]}'
MASKED = '{"active":[[1,2]],"mask":[true,false]}'
ROOT = Path(__file__).resolve().parents[1]


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

    def test_past_the_listing_limit_counts_without_times(self, tmp_path):
        # a depth-1, 10-way tree has 1 + 2**10 = 1025 stopping times
        code, doc, _ = run_cli(
            tmp_path, "enumerate-stopping-times",
            "--space", '{"depth":1,"branching":10}',
        )
        assert code == 0
        assert doc["count"] == doc["enumerated"] == 1025
        assert "times" not in doc


class TestConjugateProduct:
    def test_doubling_interval(self, tmp_path):
        code, doc, _ = run_cli(tmp_path, "conjugate-product", "--seq", SEQ)
        assert code == 0
        lo, hi = doc["interval"]["lo"], doc["interval"]["hi"]
        assert lo <= 3.462746619 <= hi
        assert doc["rel_width"] <= 1e-9

    def test_product_past_the_float_range_is_written_as_infinity(self, tmp_path):
        seq = '{"head":[2],"tail_mass":1000,"tail_ratio":0.9999}'
        code, doc, out = run_cli(tmp_path, "conjugate-product", "--seq", seq)
        assert code == 0
        assert doc["interval"] == {"lo": sys.float_info.max, "hi": math.inf}
        assert '"hi": Infinity' in out.read_text()


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

    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_check_conditional_holder_reports_every_level_in_order(self, tmp_path, shape):
        # the command's reports are per-level holder_conditional_check calls
        # on the generator's trial vectors, field by field: vector by vector,
        # levels 0..depth in order; --level n writes level n's alone
        depth, branching = shape
        space = make_tree_space(depth, branching)
        seq = make_exponent_sequence([2.5, 3.0], 0.2, 0.5)
        args = ["--space", json.dumps({"depth": depth, "branching": branching}),
                "--seq", '{"head":[2.5,3.0],"tail_mass":0.2,"tail_ratio":0.5}',
                "--seed", "5", "--trials", "3"]
        vectors = [trial_vector(space, 2, 5, t, 1e3) for t in range(3)]
        expected = [[json.loads(json.dumps(holder_conditional_check(space, fv, seq, n).to_json()))
                     for n in space.levels] for fv in vectors]
        code, doc, _ = run_cli(tmp_path, "check-conditional-holder", *args)
        assert code == 0
        assert doc["reports"] == [r for per_vector in expected for r in per_vector]
        for n in space.levels:
            code, doc, _ = run_cli(tmp_path, "check-conditional-holder", *args, "--level", str(n))
            assert code == 0
            assert doc["reports"] == [per_vector[n] for per_vector in expected]

    def test_sawyer_trace(self, tmp_path):
        code, doc, _ = run_cli(
            tmp_path, "sawyer-trace",
            "--space", SPACE, "--seq", SEQ, "--weights", UNIT_WEIGHTS,
            "--functions", '{"active":[[4,0]]}',
        )
        assert code == 0
        assert doc["trace"]["k_range"] == [0, 1]
        assert len(doc["trace"]["cells"]) == 2

    def test_sawyer_trace_draws_only_the_vector_it_decomposes(self, tmp_path, monkeypatch):
        # a generator spec of three trials draws trial 0 (all ones) alone, and
        # the trace is that of the vector given explicitly
        drawn = []
        original = cli_mod.trial_vector
        monkeypatch.setattr(cli_mod, "trial_vector",
                            lambda *args: drawn.append(args[3]) or original(*args))
        args = ["--space", '{"depth":2,"branching":2}', "--seq", SEQ,
                "--weights", '{"generator":{"seed":1}}']
        code, generated, _ = run_cli(tmp_path, "sawyer-trace", *args,
                                     "--functions", '{"generator":{"trials":3}}')
        assert code == 0 and drawn == [0]
        code, given, _ = run_cli(tmp_path, "sawyer-trace", *args,
                                 "--functions", '{"active":[[1,1,1,1]]}')
        assert code == 0 and generated["trace"] == given["trace"]

    def test_check_holder_of_an_overflowed_product_fails_without_a_warning(self, tmp_path, capsys):
        code, doc, _ = run_cli(
            tmp_path, "check-holder",
            "--space", '{"depth":2,"branching":2}',
            "--seq", '{"head":[2,3],"tail_mass":0.5,"tail_ratio":0.5}',
            "--functions", '{"active":[[1e300,1,1,1],[1e300,1,1,1]]}',
        )
        assert code == 1 and doc["reports"][0]["metadata"]["reason"] == "inf"
        assert capsys.readouterr().err == ""

    def test_sawyer_trace_of_an_overflowed_maximal_function_fails(self, tmp_path):
        code, doc, _ = run_cli(
            tmp_path, "sawyer-trace",
            "--space", SPACE, "--seq", '{"head":[2,2],"tail_mass":0}',
            "--weights", '{"weights":[[1,1],[1,1]],"v":[1,1]}',
            "--functions", '{"active":[[1e200,1],[1e200,1]]}',
        )
        assert code == 1
        assert doc["trace"]["k_range"] == [1023, 1023]
        assert doc["reports"][0]["metadata"]["maximal_finite"] is False

    def test_verify_sp_with_a_power_past_the_float_range_fails_with_inf(self, tmp_path):
        # aggregate reciprocal 1000.5: c_rh**rp and the strong left side
        # pass the float range, where the Python float power raises
        code, doc, _ = run_cli(
            tmp_path, "verify-sp",
            "--space", '{"depth":2,"branching":2}',
            "--seq", '{"head":[2],"tail_mass":1000,"tail_ratio":0.9999}',
            "--weights", '{"generator":{"seed":1}}',
        )
        assert code == 1
        assert doc["c_final"] == math.inf
        strong = [r for r in doc["reports"] if r["inequality"] == "sp-to-strong"]
        assert strong and all(r["lhs"] == math.inf for r in strong)
        assert all(not r["pass"] and r["metadata"]["reason"] == "inf" for r in doc["reports"])

    def test_verify_ap_with_a_large_exponent_fails_instead_of_raising(self, tmp_path):
        # p = 1 / (1/2000 + 1e-6): 2**p passes the float range
        code, doc, _ = run_cli(
            tmp_path, "verify-ap",
            "--space", '{"depth":2,"branching":2}',
            "--seq", '{"head":[2000],"tail_mass":1e-6,"tail_ratio":0.5}',
            "--weights", '{"generator":{"seed":1}}',
        )
        assert code == 1
        weak = [r for r in doc["reports"] if r["inequality"] == "weak-to-testing"]
        assert weak and all(r["metadata"]["reason"] == "inf" for r in weak)

    @pytest.mark.parametrize("head, active, reason", [
        # E_0(f_1) E_0(f_2) = 1e400 overflows: the maximal function is inf
        ([2, 2], [[1e200, 1], [1e200, 1]], "inf"),
        # inf * E_1(f_3) = inf * 0 at leaf 0: the maximal function holds a NaN
        ([2, 2, 2], [[1e300, 1e300], [1e300, 1e300], [0, 1]], "nan"),
    ], ids=["inf", "nan"])
    def test_verify_ap_with_a_non_finite_maximal_function_fails(
            self, tmp_path, head, active, reason):
        # tier-1 turns a numpy RuntimeWarning into an error; the weak-type
        # report must fail, not raise from weak_lp_norm's finiteness check
        code, doc, _ = run_cli(
            tmp_path, "verify-ap",
            "--space", SPACE, "--seq", json.dumps({"head": head, "tail_mass": 0}),
            "--weights", '{"weights":[[1,1],[1,1]],"v":[1,1]}',
            "--functions", json.dumps({"active": active}),
        )
        assert code == 1
        by_name = {r["inequality"]: r for r in doc["reports"]}
        weak = by_name["testing-to-weak"]
        assert not weak["pass"] and "reason" in weak["metadata"]
        assert (weak["lhs"] == math.inf) if reason == "inf" else math.isnan(weak["lhs"])
        for name in ("ap-to-testing", "weak-to-testing"):
            assert not by_name[name]["pass"] and by_name[name]["metadata"]["reason"] == reason


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


class TestAggregateReciprocalPastTheFloatRange:
    # aggregate reciprocal 1000.5 on a 4-leaf system: E_n(v)**(1/p) and the
    # weak norm's mass powers pass the float range; pytest turns a numpy
    # overflow warning into an error, so each run must end in a written report
    ARGS = (
        "--space", '{"depth":2,"branching":2}',
        "--seq", '{"head":[2],"tail_mass":1000,"tail_ratio":0.9999}',
        "--weights", '{"generator":{"seed":1}}',
    )

    def test_weights_constants_writes_the_infinite_constants(self, tmp_path):
        code, doc, out = run_cli(tmp_path, "weights-constants", *self.ARGS)
        assert code == 0
        assert doc["constants"]["ap"] == math.inf and doc["constants"]["sp"] == math.inf
        assert math.isfinite(doc["constants"]["rh"])
        assert '"ap": Infinity' in out.read_text()

    def test_verify_ap_fails_every_report_with_a_reason(self, tmp_path):
        code, doc, _ = run_cli(tmp_path, "verify-ap", *self.ARGS)
        assert code == 1
        assert doc["ap_constant"] == math.inf
        names = {r["inequality"] for r in doc["reports"]}
        assert names == {"ap-to-testing", "testing-to-weak", "weak-to-testing", "testing-to-ap"}
        assert all(not r["pass"] and r["metadata"]["reason"] in ("inf", "nan")
                   for r in doc["reports"])
        assert all(r["metadata"]["reason"] == "inf"
                   for r in doc["reports"] if r["inequality"] != "testing-to-ap")

    def test_weak_estimate_is_infinite_and_fails_an_expected_bound(self, tmp_path):
        args = (*self.ARGS, "--inequality", "weak", "--trials", "4")
        code, doc, _ = run_cli(tmp_path, "estimate-constant", *args)
        assert code == 0
        assert doc["estimate"] == math.inf
        code, doc, _ = run_cli(tmp_path, "estimate-constant", *args, "--expect-at-most", "10")
        assert code == 1
        [report] = doc["reports"]
        assert not report["pass"] and report["metadata"]["reason"] == "inf"


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

    @pytest.mark.parametrize("command, extra", [
        ("verify-ap", []),
        ("enumerate-stopping-times", []),
        ("weights-constants", ["--family", "all"]),
    ])
    def test_cap_at_65536_leaves_is_one_short_line(self, tmp_path, capsys, command, extra):
        # the counts have about 20,000 digits, past Python's int-to-string limit
        code, _, out = run_cli(tmp_path, command, "--space", '{"depth":16,"branching":2}',
                               "--seq", SEQ, "--weights", '{"generator":{"seed":1}}', *extra)
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert err.startswith("error: about 10^") and err.count("\n") == 1 and len(err) <= 201
        assert f"exceed the cap {ENUMERATION_CAP}" in err

    def test_overflowing_sigma_norm_exits_two(self, tmp_path, capsys):
        # p = 1.01: sigma = 10**308 is finite, its L^p norm is not
        code, _, _ = run_cli(
            tmp_path, "weights-constants",
            "--space", SPACE, "--seq", '{"head":[1.01],"tail_mass":0.5,"tail_ratio":0.5}',
            "--weights", '{"weights":[[0.0008317637711026709,1]],"v":[1,1]}',
        )
        assert code == 2
        assert "sigma_0 for p_0 = 1.01" in capsys.readouterr().err

    def test_csv_out_path_with_json_csv_exits_two_before_the_handler(
            self, tmp_path, capsys, monkeypatch):
        # the CSV summary of r.csv is r.csv itself: it would overwrite the report
        def handler(*args):
            raise AssertionError("the handler ran")

        monkeypatch.setitem(cli_mod._COMMANDS, "conjugate-product", (handler, ("seq",)))
        code, _, _ = run_cli(tmp_path, "conjugate-product", "--seq", SEQ,
                             "--format", "json+csv", out_name="r.csv")
        assert code == 2 and list(tmp_path.iterdir()) == []
        assert "json+csv" in capsys.readouterr().err
        monkeypatch.undo()
        code, doc, _ = run_cli(tmp_path, "conjugate-product", "--seq", SEQ, out_name="r.csv")
        assert code == 0 and doc["command"] == "conjugate-product"

    def test_failed_write_exits_two_and_leaves_no_temporary_file(self, tmp_path, capsys):
        # --out names a directory; then the CSV summary's path does
        (tmp_path / "d").mkdir()
        code = main(["conjugate-product", "--seq", SEQ, "--out", str(tmp_path / "d")])
        assert code == 2 and "Is a directory" in capsys.readouterr().err
        (tmp_path / "r.csv").mkdir()
        code, doc, _ = run_cli(tmp_path, "conjugate-product", "--seq", SEQ,
                               "--format", "json+csv", out_name="r.json")
        assert code == 2 and doc["command"] == "conjugate-product"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "r.csv", "r.json"]

    def test_existing_tmp_file_is_kept_and_a_failed_write_leaves_no_new_file(
            self, tmp_path, monkeypatch):
        # the temporary file is a new one beside --out: a user's r.json.tmp is
        # neither truncated nor removed, and the report has open()'s mode
        (tmp_path / "r.json.tmp").write_text("keep me")
        code, doc, out = run_cli(tmp_path, "conjugate-product", "--seq", SEQ, out_name="r.json")
        assert code == 0 and doc["command"] == "conjugate-product"
        assert (tmp_path / "r.json.tmp").read_text() == "keep me"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "r.json.tmp"]
        probe = tmp_path / "probe"
        probe.touch()
        assert out.stat().st_mode == probe.stat().st_mode
        probe.unlink()

        def refused(src, dst):
            raise PermissionError("refused")

        monkeypatch.setattr(cli_mod.os, "replace", refused)
        code, _, _ = run_cli(tmp_path, "conjugate-product", "--seq", SEQ, out_name="s.json")
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "r.json.tmp"]
        with pytest.raises(UnicodeEncodeError):
            cli_mod._atomic_write(str(tmp_path / "t.json"), "\ud800")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "r.json.tmp"]
        # texts past one written piece, with a two-byte character across the
        # cut, come out byte for byte as their concatenation
        monkeypatch.undo()
        texts = ["a" * ((1 << 20) - 1) + "\u00e9" + "b" * (1 << 20), "\n"]
        cli_mod._atomic_write(str(tmp_path / "u.json"), *texts)
        assert (tmp_path / "u.json").read_bytes() == "".join(texts).encode()

    @pytest.mark.parametrize("command, option, spec, named", [
        ("weights-constants", "--space", '{"depth":2.0,"branching":2}',
         "--space: depth must be an integer"),
        ("enumerate-stopping-times", "--space", '{"depth":true,"branching":2}',
         "--space: depth must be an integer"),
        ("weights-constants", "--space", '{"depth":1,"branching":2.5}',
         "--space: branching must be an integer"),
        ("weights-constants", "--space", '{"depth":"2","branching":2}', "--space: "),
        ("weights-constants", "--space", "[2,2]", "--space: must be a JSON object"),
        ("weights-constants", "--space", '{"depth":2}', "--space: missing key 'branching'"),
        ("weights-constants", "--seq", '{"head":2.0}', "--seq: "),
        ("weights-constants", "--seq", '{"head":[null]}', "--seq: "),
        ("weights-constants", "--seq", "[2.0]", "--seq: must be a JSON object"),
        ("weights-constants", "--seq", '{"head":"23"}', "--seq: "),
        ("weights-constants", "--weights", "[1,2]", "--weights: must be a JSON object"),
        ("weights-constants", "--weights", "[]", "--weights: must be a JSON object"),
        ("verify-sp", "--weights", None, "--weights: missing key 'v'"),
        ("check-holder", "--functions", '"abc"', "--functions: "),
        ("check-holder", "--functions", '{"active":[[1,2]],"mask":[0.5,0]}',
         "--functions: mask entries must be booleans or exactly 0 or 1"),
        ("check-holder", "--functions", '{"active":[[1,2]],"mask":[NaN,1]}',
         "--functions: mask entries must be booleans or exactly 0 or 1"),
        ("sawyer-trace", "--functions", "[]", "--functions: sawyer-trace needs one vector"),
        ("sawyer-trace", "--functions", MASKED, "--functions: masked vectors are not supported"),
        ("sawyer-trace", "--functions", '[{"active":[[4,0]]},{"active":[[1,2]]}]',
         "--functions: sawyer-trace reads one vector, and the spec gives 2"),
        ("verify-sp", "--functions", MASKED, "--functions: masked vectors are not supported"),
        ("weights-constants", "--config", {"family": {"count": 3, "seed": "abc"}},
         "a sampled family's seed must be an integer or a list of integers"),
    ], ids=["space-float-depth", "space-bool-depth", "space-float-branching",
            "space-string-depth", "space-list", "space-no-branching",
            "seq-float-head", "seq-null-exponent", "seq-list", "seq-string-head",
            "weights-list", "weights-empty-list", "weights-missing", "functions-string",
            "functions-fractional-mask", "functions-nan-mask",
            "functions-none-for-sawyer-trace", "functions-masked-sawyer-trace",
            "functions-two-for-sawyer-trace",
            "functions-masked-verify-sp",
            "config-family-string-seed"])
    def test_spec_of_the_wrong_type_exits_two_with_one_line(
            self, tmp_path, capsys, command, option, spec, named):
        if option == "--config":
            spec = _config_file(tmp_path, spec)
        args = {"--space": SPACE, "--seq": SEQ, "--weights": UNIT_WEIGHTS, option: spec}
        args = {flag: value for flag, value in args.items() if value is not None}
        code, _, out = run_cli(tmp_path, command, *itertools.chain(*args.items()))
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.startswith(f"error: {named}")

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

    def test_sampled_family_is_drawn_once_per_tree_shape(self, tmp_path, monkeypatch):
        # sample:32 for sp and rh, then the strong estimate's 256 times:
        # 32 + 256 draws cold, none on a second run
        draws = []

        def counted(space, rng):
            draws.append(space.n_leaves)
            return sample_stopping_time(space, rng)

        monkeypatch.setattr(weights_mod, "sample_stopping_time", counted)
        weights_mod._drawn_supports.cache_clear()
        args = (
            "--space", '{"depth":8,"branching":2}',
            "--seq", '{"head":[2.5,3],"tail_mass":0.2,"tail_ratio":0.5}',
            "--weights", '{"generator":{"seed":7,"n_active":2,"spread":4.0}}',
            "--family", "sample:32", "--trials", "3",
        )
        docs = []
        for run in ("cold", "warm"):
            code, doc, _ = run_cli(tmp_path, "verify-sp", *args, out_name=f"{run}.json")
            assert code == 0
            docs.append(doc)
            doc.pop("elapsed_seconds")
        assert draws == [256] * 288
        assert docs[0] == docs[1]

    @pytest.mark.parametrize(
        "count", [0, -3, 2.7, True], ids=["zero", "negative", "fraction", "bool"])
    @pytest.mark.parametrize("command", ["weights-constants", "verify-sp"])
    def test_config_file_sampled_count_exits_two(self, tmp_path, capsys, command, count):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"family": {"count": count, "seed": 0}}))
        code, _, out = run_cli(tmp_path, command, "--space", SPACE, "--seq", SEQ,
                               "--weights", UNIT_WEIGHTS, "--config", str(path))
        assert code == 2 and not out.exists()
        assert "count must be an integer >= 1" in capsys.readouterr().err

    def test_report_schema_stable(self, tmp_path):
        _, doc, _ = run_cli(
            tmp_path, "check-holder",
            "--space", SPACE, "--seq", SEQ,
            "--functions", '{"active":[[1,2]]}',
        )
        required = {"inequality", "lhs", "rhs", "constant", "slack", "pass", "tolerance", "metadata"}
        for report in doc["reports"]:
            assert required <= set(report)


class TestReportsAndParser:
    # one small run of every subcommand
    EVERY_COMMAND = [
        ("check-holder", "--space", SPACE, "--seq", SEQ),
        ("check-conditional-holder", "--space", SPACE, "--seq", SEQ),
        ("weights-constants", "--space", SPACE, "--seq", SEQ, "--weights", UNIT_WEIGHTS),
        ("verify-ap", "--space", SPACE, "--seq", SEQ, "--weights", '{"weights":[[1,4]],"v":[1,1]}'),
        ("verify-sp", "--space", SPACE, "--seq", SEQ, "--weights", '{"weights":[[1,4]],"v":[1,2]}'),
        ("sawyer-trace", "--space", SPACE, "--seq", SEQ, "--weights", '{"weights":[[1,4]],"v":[1,2]}'),
        ("enumerate-stopping-times", "--space", '{"depth":2,"branching":2}'),
        ("conjugate-product", "--seq", SEQ),
        ("estimate-constant", "--space", SPACE, "--seq", SEQ, "--weights", UNIT_WEIGHTS),
        ("generate", "--space", SPACE, "--count", "3"),
    ]

    @pytest.mark.parametrize("command", EVERY_COMMAND, ids=lambda c: c[0])
    def test_compact_report_holds_the_pretty_printed_document(self, tmp_path, monkeypatch, command):
        docs = []

        def dumps(doc, **kwargs):
            docs.append(doc)
            return json.dumps(doc, **kwargs)

        monkeypatch.setattr(cli_mod, "json", types.SimpleNamespace(
            dumps=dumps, loads=json.loads, load=json.load))
        _, _, out = run_cli(tmp_path, *command)
        text = out.read_text()
        assert text.endswith("}\n") and text.count("\n") == 1  # one line
        pretty = json.dumps(docs[-1], indent=2, sort_keys=True)  # the earlier report text
        # compared as text, so that a NaN equals itself
        assert json.dumps(json.loads(text)) == json.dumps(json.loads(pretty))

    def test_two_main_calls_build_one_parser(self, tmp_path):
        cli_mod.build_parser.cache_clear()
        for name in ("a.json", "b.json"):
            code, _, _ = run_cli(tmp_path, "conjugate-product", "--seq", SEQ, out_name=name)
            assert code == 0
        info = cli_mod.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_generate_gives_the_float_lists(self, tmp_path):
        # generate draws arrays, which weight systems take as they are; the
        # generate subcommand writes them as lists of floats
        space = make_tree_space(3, 2)
        items = generate("weights", space, 17, 8.0, 3, inject_extremals=False)
        rng = np.random.default_rng(17)
        want = [[float(x) for x in np.exp(rng.uniform(-math.log(8.0), math.log(8.0), 8))]
                for _ in range(3)]
        assert all(isinstance(item, np.ndarray) for item in items)
        assert [item.tolist() for item in items] == want
        code, doc, _ = run_cli(tmp_path, "generate", "--kind", "weights", "--space",
                               '{"depth":3,"branching":2}', "--seed", "17", "--spread", "8",
                               "--count", "3")
        rng = np.random.default_rng(17)
        want = [[1.0] * 8, [8.0] * 4 + [1.0] * 4,
                np.exp(rng.uniform(-math.log(8.0), math.log(8.0), 8)).tolist()]
        assert code == 0 and doc["items"] == want
        assert all(type(x) is float for item in doc["items"] for x in item)


class TestOptionTable:
    @pytest.mark.parametrize(
        "args, config",
        [
            (["--tol", "nan"], None),
            (["--tol", "-1"], None),
            (["--tol", "inf"], None),
            (["--spread", "nan"], None),
            (["--spread", "inf"], None),
            (["--trials", "-1"], None),
            ([], {"format": "bogus"}),
            (["--expect-at-most", "nan"], None),
            ([], {"family": "sample:0"}),
            ([], {"trials": 1e999}),
            ([], {"trials": 2.5}),
            ([], {"spread": 10**400}),
            ([], {"level": 1.7}),
        ],
        ids=["tol-nan", "tol-negative", "tol-inf", "spread-nan", "spread-inf", "trials-negative",
             "config-format", "expect-nan", "config-family-empty", "config-trials-overflow",
             "config-trials-fraction", "config-spread-huge-integer", "config-level-fraction"],
    )
    def test_bad_values_exit_two_with_one_line(self, tmp_path, capsys, args, config):
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            args = [*args, "--config", str(path)]
        code, _, out = run_cli(tmp_path, "check-holder", "--space", SPACE, "--seq", SEQ, *args)
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, option, generator, key",
        [
            ("check-holder", "--functions", {"trials": -1}, "trials"),
            ("check-holder", "--functions", {"spread": "inf"}, "spread"),
            ("check-holder", "--functions", {"seed": -3}, "seed"),
            ("check-holder", "--functions", {"trials": 1e999}, "trials"),
            ("check-holder", "--functions", {"trials": 2.5}, "trials"),
            ("weights-constants", "--weights", {"n_active": 1e999}, "n_active"),
            ("weights-constants", "--weights", {"n_active": -1}, "n_active"),
            ("weights-constants", "--weights", {"n_active": 2}, "n_active"),
            ("weights-constants", "--weights", {"spread": "nan"}, "spread"),
        ],
        ids=["trials-negative", "spread-inf", "seed-negative", "trials-overflow",
             "trials-fraction", "n-active-overflow", "n-active-negative",
             "n-active-past-head", "weights-spread-nan"],
    )
    def test_bad_generator_keys_exit_two_naming_the_key(
        self, tmp_path, capsys, command, option, generator, key
    ):
        spec = json.dumps({"generator": generator})
        code, _, out = run_cli(tmp_path, command, "--space", SPACE, "--seq", SEQ, option, spec)
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option}: generator key {key!r}: ")
        assert err.count("\n") == 1

    def test_generator_spec_must_be_an_object(self, tmp_path, capsys):
        spec = json.dumps({"generator": "x"})
        code, _, _ = run_cli(tmp_path, "check-holder", "--space", SPACE, "--seq", SEQ,
                             "--functions", spec)
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --functions: a generator spec must be a JSON object, not 'x'\n")

    def test_flag_overrides_config_overrides_default(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"space": json.loads(SPACE), "kind": "weights",
                                    "seed": 5, "count": 3}))
        out = tmp_path / "out.json"
        assert main(["generate", "--config", str(path), "--seed", "9", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["seed"] == 9  # flag over config file
        assert doc["kind"] == "weights" and len(doc["items"]) == 3  # config file over default
        assert doc["spread"] == 1e3  # default


class TestEntryPoints:
    def test_example_config_writes_json_and_csv(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify-ap", "--config", str(ROOT / "scripts" / "example_config.json"),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["summary"] == {"n_reports": 10, "n_failed": 0}
        rows = list(csv.reader(open(out.with_suffix(".csv"))))
        assert rows[0] == ["kind", "name", "lhs", "rhs", "constant", "slack", "pass"]
        assert len(rows) == 11 and all(row[6] == "True" for row in rows[1:])

    def test_constants_survey(self, tmp_path, capsys):
        spec = importlib.util.spec_from_file_location(
            "constants_survey", ROOT / "scripts" / "constants_survey.py"
        )
        survey = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(survey)
        out = tmp_path / "survey.csv"
        assert survey.main(["--systems", "3", "--trials", "2", "--out", str(out)]) == 0
        rows = list(csv.DictReader(open(out)))
        assert [int(row["system"]) for row in rows] == [0, 1, 2]
        assert "3 systems" in capsys.readouterr().out

    def test_scale_matrix_runs_one_cell(self, capsys):
        # one small cell through the matrix's own path: a child process, its
        # exit code, wall time, peak RSS and report size; the full matrix
        # runs by hand
        spec = importlib.util.spec_from_file_location(
            "scale_matrix", ROOT / "scripts" / "scale_matrix.py"
        )
        matrix = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(matrix)
        assert len(matrix.COMMANDS) == 9
        assert max(r**d for r, d in matrix.TREES) == 2**20
        assert matrix.main(["--commands", "check-holder", "--trees", "2^4"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        command, tree, leaves, outcome, seconds, peak, size = row.split()
        assert (command, tree, leaves, outcome) == ("check-holder", "2^4", "16", "0")
        assert float(seconds) > 0.0 and float(peak) > 0.0 and int(size) > 0

    def test_pool_dump(self, capsys):
        # one block of a tree workload and of the scalar one, each hashed the
        # same twice: the line is a function of the code's outputs alone
        spec = importlib.util.spec_from_file_location("pool_dump", ROOT / "scripts" / "pool_dump.py")
        dump = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(dump)
        for workload in ("equiv_first", "scalar_suite"):
            lines = []
            for _ in range(2):
                assert dump.main(["--workload", workload, "--blocks", "1"]) == 0
                lines.append(capsys.readouterr().out)
            assert lines[0] == lines[1]
            name, count, label, sha = lines[0].split()
            assert (name, count, label) == (workload, "10", "items") and len(sha) == 64
        with pytest.raises(SystemExit):
            dump.main(["--workload", "equiv_first", "--blocks", "0"])

    def test_report_digest(self, capsys):
        spec = importlib.util.spec_from_file_location(
            "report_digest", ROOT / "scripts" / "report_digest.py"
        )
        digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digest)
        assert digest.KEPT_TIMES == KEPT_FAMILY_TIMES
        assert digest.kept_shapes() == (
            [(0, 2)] + [(1, r) for r in range(2, 12)] + [(2, 2), (2, 3), (3, 2)])
        lines = []
        for _ in range(2):
            assert digest.main(["--systems", "1", "--seed", "3"]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        # the kept shapes' chain, then the streamed shape's per-time reports:
        # two vectors at each of the STREAMED_TIMES times
        (count, *label, sha), (streamed, *streamed_label, streamed_sha) = (
            line.split() for line in lines[0].splitlines())
        assert int(count) > 0 and label == ["reports", "sha256"] and len(sha) == 64
        assert int(streamed) == 2 * digest.STREAMED_TIMES
        assert streamed_label == ["streamed", "reports", "sha256"] and len(streamed_sha) == 64

    def test_report_digest_cli_pass(self, capsys, monkeypatch):
        # every subcommand, on two small shapes: the digest of two passes is
        # the same although each run's elapsed time differs
        spec = importlib.util.spec_from_file_location(
            "report_digest", ROOT / "scripts" / "report_digest.py"
        )
        digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digest)
        assert digest.CLI_COMMANDS == tuple(sorted(cli_mod._COMMANDS))
        monkeypatch.setattr(digest, "CLI_SHAPES", ((1, 2), (2, 3)))
        assert digest.LARGE_CLI_SHAPES == ((8, 2), (12, 2))
        # the large-tree line on one 32-leaf shape, whose sampled families
        # stay in the sampler's range, and on a shape past it: its overflow
        # escapes the CLI and is recorded by name
        monkeypatch.setattr(digest, "LARGE_CLI_SHAPES", ((5, 2), (10, 2)))
        lines = []
        for _ in range(2):
            assert digest.main(["--cli", "--systems", "2", "--seed", "3"]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        (count, *label, sha), (large, *large_label, large_sha) = (
            line.split() for line in lines[0].splitlines())
        # per line: every shape, two systems, every subcommand
        assert int(count) == 2 * 2 * len(digest.CLI_COMMANDS)
        assert int(large) == 2 * 2 * len(digest.CLI_COMMANDS)
        assert label == ["cli", "runs", "sha256"] and len(sha) == 64
        assert large_label == ["large-tree", "cli", "runs", "sha256"] and len(large_sha) == 64
        with tempfile.TemporaryDirectory() as workdir:
            runs = digest.cli_runs(((10, 2),), 1, 3, workdir)
        assert "OverflowError" in [code for _, code, _ in runs]

    def test_report_digest_second_pass(self, capsys, monkeypatch):
        # criterion 10's quantities on two small shapes, one system with a
        # finite tail and one with an infinite tail each: two passes agree
        spec = importlib.util.spec_from_file_location(
            "report_digest", ROOT / "scripts" / "report_digest.py"
        )
        digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digest)
        assert digest.CONSTANT_IDS == cli_mod._CONSTANT_IDS
        monkeypatch.setattr(digest, "SECOND_SHAPES", ((1, 2), (2, 3)))
        lines = []
        for _ in range(2):
            assert digest.main(["--second", "--systems", "2", "--seed", "3"]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        count, *label, sha = lines[0].split()
        # per system: two families, two vectors, the estimates of every id and
        # the strong estimate at the other trial counts
        assert int(count) == 2 * 2 * (len(digest.SECOND_FAMILIES) + 2 + 2)
        assert label == ["second", "records", "sha256"] and len(sha) == 64

    def test_report_digest_maximal_pass(self, capsys, monkeypatch):
        # the maximal operators on one small shape, one system with an
        # infinite tail and one with a finite tail: two passes agree, and
        # each vector of a system (its two and the overflowing one) gives
        # its doob_maximal record and one record unmasked and one masked
        spec = importlib.util.spec_from_file_location(
            "report_digest", ROOT / "scripts" / "report_digest.py"
        )
        digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digest)
        assert ("maximal", 6) in digest.PINNED_PASSES
        assert len(digest.PINNED_LINES) == len(digest.PINNED_PASSES) + 2  # two two-line passes
        monkeypatch.setattr(digest, "kept_shapes", lambda: [(2, 2)])
        lines = []
        for _ in range(2):
            assert digest.main(["--maximal", "--systems", "2", "--seed", "3"]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        count, *label, sha = lines[0].split()
        assert int(count) == 2 * 3 * 3
        assert label == ["maximal", "records", "sha256"] and len(sha) == 64
        rng = np.random.default_rng([3, 0, 0])
        records = digest.maximal_records(*digest.random_system(rng, 2, 2, finite=False), rng)
        assert {len(taus) for _, taus in records[1::3] + records[2::3]} == {
            len(digest.MAXIMAL_THRESHOLDS) + 1}

    def test_report_digest_sawyer_pass(self, capsys, monkeypatch):
        # the decomposition on one 32-leaf shape, one system with an infinite
        # tail and one with a finite tail, each under the default budget and
        # at one band per block: two passes agree, every budget gives the
        # same records, and the budget is restored
        spec = importlib.util.spec_from_file_location(
            "report_digest", ROOT / "scripts" / "report_digest.py"
        )
        digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digest)
        assert ("sawyer", 4) in digest.PINNED_PASSES
        assert [2**8, 2**12, 3**8] == [r**d for d, r in digest.SAWYER_SHAPES]
        monkeypatch.setattr(digest, "SAWYER_SHAPES", ((5, 2),))
        default = weights_mod.SCAN_CHUNK_FLOATS
        lines = []
        for _ in range(2):
            assert digest.main(["--sawyer", "--systems", "2", "--seed", "3"]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1] and weights_mod.SCAN_CHUNK_FLOATS == default
        count, *label, sha = lines[0].split()
        # per system: two budgets, two vectors
        assert int(count) == 2 * 2 * 2
        assert label == ["sawyer", "records", "sha256"] and len(sha) == 64
        docs = json.loads(json.dumps(digest.sawyer_budgets(2, 3)))
        assert docs[0:2] == docs[2:4] and docs[4:6] == docs[6:8]
        assert all(all(invariants.values()) for _, invariants, _ in docs)


def _config_file(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda tmp_path: cli_mod._family("some"), "bad family spec 'some'"),
        (lambda tmp_path: generate("some", make_tree_space(1, 2), 0, 2.0), "unknown generate kind"),
        (lambda tmp_path: generate("weights", make_tree_space(1, 2), 0, 0.5),
         "spread must be >= 1"),
        (lambda tmp_path: cli_mod.run(cli_mod.RunConfig("some")), "unknown command 'some'"),
        (lambda tmp_path: cli_mod._config_from_args(cli_mod.build_parser().parse_args(
            ["check-holder", "--config", _config_file(tmp_path, [1])])), "must hold a JSON object"),
    ],
    ids=["family-spec", "generate-kind", "generate-spread", "run-command", "config-not-object"],
)
def test_input_checks_raise(tmp_path, call, match):
    with pytest.raises(ValueError, match=match):
        call(tmp_path)
