import json
import math
import os
import subprocess
import sys

import pytest

import prophet_order
from prophet_order import (
    Instance,
    MaxProbPolicy,
    Objective,
    Order,
    eval_exact,
    load_instance,
    load_order,
    save_instance,
    validate_instance,
    validate_order,
)
from prophet_order.cli import main


@pytest.fixture
def classic2(tmp_path):
    inst = Instance.from_supports(
        [[(1.0, 1.0)], [(0.0, 0.999), (1000.0, 0.001)]]
    )
    path = tmp_path / "classic2.json"
    save_instance(inst, str(path))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_clean_exit_2(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.fixture
def floor_pair(tmp_path):
    """Two boxes where a baseline of 0.5 makes the value 0.25 unwinnable."""
    inst = Instance.from_supports([[(0.25, 0.5), (1.0, 0.5)], [(0.0, 0.5), (2.0, 0.5)]])
    path = tmp_path / "floor_pair.json"
    save_instance(inst, str(path))
    return inst, str(path)


class TestConstants:
    def test_json_values(self, capsys):
        code, out, _ = run(capsys, ["constants"])
        assert code == 0
        data = json.loads(out)
        assert data["one_over_phi"] == pytest.approx(0.618, abs=5e-4)
        assert data["lambda"] == pytest.approx(0.4464, abs=5e-5)
        assert data["ln_inv_lambda"] == pytest.approx(0.806, abs=5e-4)
        assert data["phi"] == (1 + math.sqrt(5)) / 2

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["constants", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "name,value"
        assert any(line.startswith("lambda,") for line in out.splitlines())


class TestEvaluate:
    def test_opt_exp_on_classic_pair(self, capsys, classic2):
        code, out, _ = run(
            capsys,
            ["evaluate", "-i", classic2, "-o", "0,1", "-p", "opt-exp", "--obj", "expectation"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(1.0, abs=1e-12)
        assert data["method"] == "exact-dp"

    def test_golden_single_box(self, capsys, tmp_path):
        path = tmp_path / "single.json"
        save_instance(Instance.from_supports([[(1.0, 1.0)]]), str(path))
        code, out, _ = run(
            capsys,
            ["evaluate", "-i", str(path), "-o", "0", "-p", "golden", "--obj", "expectation"],
        )
        assert code == 0
        assert json.loads(out)["value"] == 1.0

    def test_monte_carlo_runs_are_byte_identical(self, capsys, classic2):
        argv = [
            "evaluate", "-i", classic2, "-o", "0,1", "-p", "threshold:2.0",
            "--obj", "expectation", "--mc", "20000", "--seed", "7",
        ]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert data["method"] == "monte-carlo"
        assert data["samples"] == 20000

    def test_order_can_come_from_file(self, capsys, classic2, tmp_path):
        opath = tmp_path / "order.json"
        opath.write_text(json.dumps({"order": [1, 0]}))
        code, out, _ = run(
            capsys,
            ["evaluate", "-i", classic2, "-o", str(opath), "-p", "golden", "--obj", "expectation"],
        )
        assert code == 0
        assert json.loads(out)["value"] > 0

    @pytest.mark.parametrize("ids", [[0.9, 1.2], [False, True], ["1", "0"], [1.0, 0.0]])
    def test_order_file_with_non_integer_ids_exits_2(self, capsys, classic2, tmp_path, ids):
        # int() used to truncate or coerce each of these into a valid order
        opath = tmp_path / "order.json"
        opath.write_text(json.dumps({"order": ids}))
        code, out, err = run(
            capsys,
            ["evaluate", "-i", classic2, "-o", str(opath), "-p", "golden", "--obj", "expectation"],
        )
        assert_clean_exit_2(code, out, err)
        assert "integer ids" in err

    def test_flag_evaluate_does_not_read_exits_2(self, capsys, classic2):
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "-i", classic2, "-o", "0,1", "-p", "golden", "--obj", "expectation", "--n", "9"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: prophet-order evaluate ")
        assert "prophet-order evaluate: error: unrecognized arguments: --n 9" in err

    def test_invalid_instance_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"boxes": [{"support": [[1.0, 0.5], [2.0, 0.6]]}]}))
        code, _, err = run(
            capsys,
            ["evaluate", "-i", str(path), "-o", "0", "-p", "golden", "--obj", "expectation"],
        )
        assert code == 2
        assert "sum" in err

    def test_directory_as_instance_exits_2(self, capsys, tmp_path):
        # an IsADirectoryError used to escape as a traceback with exit 1
        code, out, err = run(
            capsys,
            ["evaluate", "-i", str(tmp_path), "-o", "0", "-p", "golden", "--obj", "expectation"],
        )
        assert_clean_exit_2(code, out, err)

    @pytest.mark.parametrize("data", [{"boxes": [1]}, {"boxes": [{"support": [[1]]}]}])
    def test_malformed_instance_json_exits_2(self, capsys, tmp_path, data):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        code, _, err = run(
            capsys,
            ["evaluate", "-i", str(path), "-o", "0", "-p", "golden", "--obj", "expectation"],
        )
        assert code == 2
        assert "instance JSON must be" in err

    @pytest.mark.parametrize("pair", [[10**400, 1], [1, 10**400]], ids=["value", "probability"])
    def test_integer_beyond_float_range_exits_2(self, capsys, tmp_path, pair):
        # float() of a 401-digit JSON integer used to escape as an OverflowError
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"boxes": [{"support": [pair]}]}))
        code, out, err = run(
            capsys,
            ["evaluate", "-i", str(path), "-o", "0", "-p", "golden", "--obj", "expectation"],
        )
        assert_clean_exit_2(code, out, err)
        assert "beyond float range" in err

    @pytest.mark.parametrize("obj", ["winprob:nan", "winprob:-1", "winprob:inf"])
    def test_bad_baseline_exits_2(self, capsys, tmp_path, obj):
        # with a nan baseline eval_exact gave 0.0 here while brute_force gave 1.0
        path = tmp_path / "one.json"
        save_instance(Instance.from_supports([[(0.0, 0.5), (2.0, 0.5)]]), str(path))
        code, _, err = run(
            capsys, ["evaluate", "-i", str(path), "-o", "0", "-p", "golden", "--obj", obj]
        )
        assert code == 2
        assert "baseline" in err

    def test_bad_order_exits_2(self, capsys, classic2):
        code, _, err = run(
            capsys,
            ["evaluate", "-i", classic2, "-o", "0,0", "-p", "golden", "--obj", "expectation"],
        )
        assert code == 2
        assert "permutation" in err

    @pytest.mark.parametrize("spec", ["maxprob:5", "opt-maxprob:2"])
    def test_policy_baseline_suffix_exits_2(self, capsys, classic2, spec):
        code, out, err = run(
            capsys, ["evaluate", "-i", classic2, "-o", "0,1", "-p", spec, "--obj", "winprob:0"]
        )
        assert_clean_exit_2(code, out, err)
        assert "--obj winprob:" in err

    @pytest.mark.parametrize("spec", ["golden:5", "median:3", "opt-exp:1", "half-emax:2", "inv-e:0.5", "golden:"])
    def test_suffix_on_a_plain_spec_exits_2(self, capsys, classic2, spec):
        code, out, err = run(
            capsys, ["evaluate", "-i", classic2, "-o", "0,1", "-p", spec, "--obj", "expectation"]
        )
        assert_clean_exit_2(code, out, err)
        assert "takes no suffix" in err

    @pytest.mark.parametrize("obj", ["expectation:5", "winprob:", "winprob:x"])
    def test_malformed_objective_exits_2(self, capsys, classic2, obj):
        code, out, err = run(
            capsys, ["evaluate", "-i", classic2, "-o", "0,1", "-p", "golden", "--obj", obj]
        )
        assert_clean_exit_2(code, out, err)
        assert "winprob:THETA" in err

    def test_baseline_comes_from_objective(self, capsys, floor_pair):
        inst, path = floor_pair
        code, out, _ = run(
            capsys, ["evaluate", "-i", path, "-o", "0,1", "-p", "maxprob", "--obj", "winprob:0.5"]
        )
        assert code == 0
        order = Order((0, 1))
        expected = eval_exact(inst, order, MaxProbPolicy(inst), Objective.winprob(0.5)).value
        assert json.loads(out)["value"] == expected == 0.5

    def test_unknown_policy_exits_2(self, capsys, classic2):
        code, _, err = run(
            capsys,
            ["evaluate", "-i", classic2, "-o", "0,1", "-p", "mystery", "--obj", "expectation"],
        )
        assert code == 2
        assert "policy" in err


def json_reader_argv(flag, classic2, path):
    """A command that reads ``path`` as the JSON file of ``flag`` and ``classic2`` for the rest."""
    return {
        "-i": ["evaluate", "-i", path, "-o", "0", "-p", "golden", "--obj", "expectation"],
        "-o": ["evaluate", "-i", classic2, "-o", path, "-p", "golden", "--obj", "expectation"],
        "--orders": ["ratio", "-i", classic2, "-p", "golden", "--obj", "expectation", "--orders", path],
    }[flag]


class TestJsonUndecodable:
    """A file that is not UTF-8 JSON exits 2, and the message names it."""

    @pytest.mark.parametrize("content", [b"", b"\xff\xfe{}", b"{\"boxes\": ["], ids=["empty", "bom", "truncated"])
    @pytest.mark.parametrize("flag", ["-i", "-o", "--orders"])
    def test_each_reader_names_the_file(self, capsys, classic2, tmp_path, flag, content):
        path = tmp_path / "undecodable.json"
        path.write_bytes(content)
        code, out, err = run(capsys, json_reader_argv(flag, classic2, str(path)))
        assert_clean_exit_2(code, out, err)
        assert str(path) in err


class TestJsonNestedTooDeep:
    """A JSON file nested past the decoder's recursion limit exits 2 from every flag that reads one."""

    DEPTH = 200_000

    @pytest.fixture
    def deep(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * self.DEPTH + "]" * self.DEPTH)
        return str(path)

    @pytest.mark.parametrize("flag", ["-i", "-o", "--orders"])
    def test_each_reader_exits_2(self, capsys, classic2, deep, flag):
        # json.load used to escape as a RecursionError with exit 1
        code, out, err = run(capsys, json_reader_argv(flag, classic2, deep))
        assert_clean_exit_2(code, out, err)
        assert "nested too deep" in err

    def test_module_run_prints_no_traceback(self, deep):
        src = os.path.dirname(os.path.dirname(os.path.abspath(prophet_order.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "prophet_order.cli", "evaluate", "-i", deep, "-o", "0", "-p", "golden",
             "--obj", "expectation"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert_clean_exit_2(proc.returncode, proc.stdout, proc.stderr)
        assert "nested too deep" in proc.stderr


class TestRatio:
    def test_single_box_min_ratio_one(self, capsys, tmp_path):
        path = tmp_path / "single.json"
        save_instance(Instance.from_supports([[(1.0, 1.0)]]), str(path))
        code, out, _ = run(
            capsys, ["ratio", "-i", str(path), "-p", "golden", "--obj", "expectation"]
        )
        assert code == 0
        assert json.loads(out)["min_ratio"] == 1.0

    def test_csv_columns(self, capsys, classic2):
        code, out, _ = run(
            capsys,
            ["ratio", "-i", classic2, "-p", "golden", "--obj", "expectation", "--format", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "order,alg,opt,ratio,method"
        assert len(lines) == 3

    def test_report_serialization(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        save_instance(Instance.from_supports([[(1.0, 1.0)], [(2.0, 1.0)]]), str(path))
        argv = ["ratio", "-i", str(path), "-p", "golden", "--obj", "expectation"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"per_order", "min_ratio", "argmin_order"}
        assert len(data["per_order"]) == 2
        code, out, _ = run(capsys, argv + ["--format", "csv"])
        assert code == 0
        header, *rows = out.strip().splitlines()
        assert header == "order,alg,opt,ratio,method"
        assert len(rows) == 2
        assert rows[0].endswith("exact-dp")

    def test_explicit_orders(self, capsys, classic2):
        code, out, _ = run(
            capsys,
            ["ratio", "-i", classic2, "-p", "golden", "--obj", "expectation", "--orders", "0,1"],
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["per_order"]) == 1
        assert data["per_order"][0]["order"] == [0, 1]

    def test_bad_order_in_list_exits_2(self, capsys, classic2):
        code, _, err = run(
            capsys,
            ["ratio", "-i", classic2, "-p", "golden", "--obj", "expectation", "--orders", "0,1;0,0"],
        )
        assert code == 2
        assert "permutation" in err

    @pytest.mark.parametrize("orders", ["0,1;1,0;0", "1,0;1,1;0,1"])
    def test_non_permutation_among_valid_orders_exits_2(self, capsys, classic2, orders):
        # a short order or a repeated id, between orders the sweep accepts
        code, out, err = run(capsys, ["ratio", "-i", classic2, "-p", "maxprob", "--obj", "winprob", "--orders", orders])
        assert_clean_exit_2(code, out, err)
        assert "is not a permutation of 0..1" in err

    def test_baseline_comes_from_objective(self, capsys, floor_pair):
        inst, path = floor_pair
        code, out, _ = run(capsys, ["ratio", "-i", path, "-p", "maxprob", "--obj", "winprob:0.5"])
        assert code == 0
        policy = MaxProbPolicy(inst)
        for row in json.loads(out)["per_order"]:
            order = Order(tuple(row["order"]))
            assert row["alg"] == eval_exact(inst, order, policy, Objective.winprob(0.5)).value

    @pytest.mark.parametrize("source", ["list", "file"])
    def test_empty_order_list_exits_2(self, capsys, classic2, tmp_path, source):
        orders = ";"
        if source == "file":
            orders = str(tmp_path / "orders.json")
            (tmp_path / "orders.json").write_text(json.dumps({"orders": []}))
        code, out, err = run(
            capsys,
            ["ratio", "-i", classic2, "-p", "golden", "--obj", "expectation", "--orders", orders],
        )
        assert_clean_exit_2(code, out, err)
        assert "order list is empty" in err

    @pytest.mark.parametrize("ids", [[0.9, 1.2], [False, True], ["1", "0"], [1.0, 0.0]])
    def test_orders_file_with_non_integer_ids_exits_2(self, capsys, classic2, tmp_path, ids):
        path = tmp_path / "orders.json"
        path.write_text(json.dumps({"orders": [[0, 1], ids]}))
        code, out, err = run(
            capsys,
            ["ratio", "-i", classic2, "-p", "golden", "--obj", "expectation", "--orders", str(path)],
        )
        assert_clean_exit_2(code, out, err)
        assert "integer ids" in err

    def test_repeated_sweeps_byte_identical(self, capsys, classic2):
        argv = ["ratio", "-i", classic2, "-p", "maxprob", "--obj", "winprob"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_perm_cap_exits_3(self, capsys, tmp_path):
        path = tmp_path / "nine.json"
        save_instance(
            Instance.from_supports([[(float(i + 1), 1.0)] for i in range(9)]), str(path)
        )
        code, _, err = run(
            capsys, ["ratio", "-i", str(path), "-p", "golden", "--obj", "expectation"]
        )
        assert code == 3
        assert "cap" in err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_perm_cap_below_one_exits_2(self, capsys, classic2, cap):
        code, out, err = run(
            capsys,
            ["ratio", "-i", classic2, "-p", "golden", "--obj", "expectation", "--perm-cap", cap],
        )
        assert_clean_exit_2(code, out, err)
        assert f"perm_cap must be >= 1, got {cap}" in err

    def test_perm_cap_is_not_read_with_explicit_orders(self, capsys, classic2):
        code, out, _ = run(
            capsys,
            ["ratio", "-i", classic2, "-p", "golden", "--obj", "expectation",
             "--orders", "0,1", "--perm-cap", "0"],
        )
        assert code == 0
        assert [row["order"] for row in json.loads(out)["per_order"]] == [[0, 1]]


class TestReproduce:
    def test_example1_report(self, capsys):
        code, out, _ = run(capsys, ["reproduce", "example1", "--eps", "0.001"])
        assert code == 0
        data = json.loads(out)
        assert data["predicted_limit"] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert data["min_ratio"] == pytest.approx(0.70746, abs=1e-4)
        assert data["argmin_order"] == "order_a"

    def test_example1_with_a_shared_value_runs(self, capsys):
        # 1/eps == sqrt(2): the high-variance box shares the first box's value,
        # which the expectation objective allows.
        code, out, _ = run(capsys, ["reproduce", "example1", "--eps", "0.7071067811865475"])
        assert code == 0
        assert 0.0 < json.loads(out)["min_ratio"] <= 1.0

    def test_golden_lb_report(self, capsys):
        code, out, _ = run(
            capsys, ["reproduce", "golden-lb", "--eps", "1e-4", "--step", "0.05"]
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["min_ratio"] - data["predicted_limit"]) <= 0.02

    def test_maxprob_lb_report(self, capsys):
        code, out, _ = run(capsys, ["reproduce", "maxprob-lb", "--n", "60"])
        assert code == 0
        data = json.loads(out)
        assert abs(data["min_ratio"] - data["predicted_limit"]) <= 0.02
        assert abs(data["accept_branch_minus_lambda"]) <= 1e-12
        # The family sits on ln(1/lambda) at the smallest n too, not only in the limit.
        for n in ("2", "3"):
            code, out, _ = run(capsys, ["reproduce", "maxprob-lb", "--n", n])
            assert code == 0
            data = json.loads(out)
            assert abs(data["min_ratio_minus_limit"]) <= 1e-12, n
            assert abs(data["accept_branch_minus_lambda"]) <= 1e-12, n

    def test_single_threshold_report(self, capsys):
        code, out, _ = run(capsys, ["reproduce", "single-threshold", "--n", "400"])
        assert code == 0
        data = json.loads(out)
        assert data["max_ratio"] == pytest.approx(0.56956, abs=1e-4)
        assert abs(data["exact_minus_closed_form"]) <= 0.03

    def test_emitted_files_round_trip(self, capsys, tmp_path):
        outdir = tmp_path / "fam"
        code, out, _ = run(
            capsys,
            ["reproduce", "example1", "--eps", "0.5", "--emit", str(outdir)],
        )
        assert code == 0
        inst = load_instance(str(outdir / "instance.json"))
        validate_instance(inst)
        for name in ("order_a", "order_b"):
            validate_order(inst, load_order(str(outdir / f"{name}.json")))

    def test_maxprob_lb_at_n_1000_runs(self, capsys):
        # support x n = 2001 x 1001 is above the state cap, but the pass
        # holds one state per position
        code, out, _ = run(capsys, ["reproduce", "maxprob-lb", "--n", "1000"])
        assert code == 0
        data = json.loads(out)
        assert abs(data["min_ratio_minus_limit"]) <= 1e-12
        assert abs(data["accept_branch_minus_lambda"]) <= 1e-12

    def test_maxprob_lb_50000_exits_3(self, capsys):
        # n = 50000 cannot land on lambda within 1e-12; the cap refuses it,
        # and every n above it, before any work.
        code, out, err = run(capsys, ["reproduce", "maxprob-lb", "--n", "50000"])
        assert code == 3
        assert out == ""
        assert err.startswith("error: n=50000 exceeds the max-prob family's cap of 20299 boxes: ")
        assert "1e-12" in err

    def test_maxprob_lb_above_the_cap_exits_3(self, capsys):
        # used to build [q] * n first and end in a MemoryError traceback
        code, out, err = run(capsys, ["reproduce", "maxprob-lb", "--n", "1000000000000"])
        assert code == 3
        assert out == ""
        assert err == (
            "error: n=1000000000000 exceeds the max-prob family's cap of 20299 boxes: above it "
            "floats cannot always land P[every rare box is 0] within 1e-12 of lambda\n"
        )

    def test_single_threshold_negative_n_exits_2(self, capsys):
        # used to print "math domain error" from the square root of n
        code, out, err = run(capsys, ["reproduce", "single-threshold", "--n", "-5"])
        assert_clean_exit_2(code, out, err)
        assert "n=-5" in err

    def test_single_threshold_above_the_cap_exits_3(self, capsys):
        # --n 100000 took about 1 s and 82 MB; ten times that would not finish soon
        code, out, err = run(capsys, ["reproduce", "single-threshold", "--n", "100001"])
        assert code == 3
        assert out == ""
        assert err == "error: n=100001 exceeds the single-threshold family's cap of 100000 boxes\n"

    def test_single_threshold_one_box_exits_2(self, capsys):
        # used to name only the zero atom's probability 0.0, no family parameter
        code, out, err = run(capsys, ["reproduce", "single-threshold", "--n", "1"])
        assert_clean_exit_2(code, out, err)
        assert "n=1" in err and "n >= 2" in err

    def test_golden_lb_step_below_float_spacing_exits_2(self, capsys):
        # PHI - 1e-300 == PHI: without the box-count bound this never returns.
        code, out, err = run(capsys, ["reproduce", "golden-lb", "--step", "1e-300"])
        assert_clean_exit_2(code, out, err)
        assert "boxes" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["example1", "--n", "9"],
            ["golden-lb", "--T", "7"],
            ["maxprob-lb", "--n", "3", "--eps", "0.5"],
            ["single-threshold", "--step", "0.1"],
        ],
    )
    def test_flag_the_family_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(["reproduce", *argv])
        assert excinfo.value.code == 2
        # The family's own parser names the flag it does not read: the last
        # one of each case, with its value.
        err = capsys.readouterr().err
        assert err.startswith(f"usage: prophet-order reproduce {argv[0]} ")
        assert f"prophet-order reproduce {argv[0]}: error: unrecognized arguments: {' '.join(argv[-2:])}" in err

    def test_help_shows_each_family_default(self, capsys):
        for family, defaults in (
            ("example1", ["0.001"]),
            ("golden-lb", ["0.0001", "0.05"]),
            ("maxprob-lb", ["200"]),
            ("single-threshold", ["10000"]),
        ):
            with pytest.raises(SystemExit):
                main(["reproduce", family, "--help"])
            out = " ".join(capsys.readouterr().out.split())  # help wraps to the terminal width
            for default in defaults:
                assert f"(default: {default})" in out, family

    def test_unknown_family_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["reproduce", "mystery-family"])
        assert excinfo.value.code == 2

    def test_repeated_runs_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, ["reproduce", "maxprob-lb", "--n", "25"])
        code2, out2, _ = run(capsys, ["reproduce", "maxprob-lb", "--n", "25"])
        assert code1 == code2 == 0
        assert out1 == out2
