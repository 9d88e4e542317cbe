import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from alr.cli import main


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _write_curve_csv(path, strategy, metric_values, bl2, tasks=("v",), solver="ridge:lambda=10/k"):
    """metric_values: {metric: {k: value}} applied to every task."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("strategy", "solver", "task", "K", "metric", "mean", "std", "n_runs"))
        for task in tasks:
            for metric, by_k in metric_values.items():
                for k, value in by_k.items():
                    writer.writerow((strategy, solver, task, k, metric, value, 0.0, 100))
            for metric, value in bl2.items():
                for k in next(iter(metric_values.values())):
                    writer.writerow((strategy, solver, task, k, metric, value, 0.0, 100))


@pytest.fixture
def synth_csv(tmp_path):
    path = tmp_path / "data.csv"
    assert main(["synth", "--n", "60", "--d", "3", "--p", "3", "--noise", "0.1", "--seed", "1", "--out", str(path)]) == 0
    return path


class TestSynthAndNormalize:
    def test_synth_then_run_pipeline(self, tmp_path, synth_csv, capsys):
        out = tmp_path / "curves.csv"
        code = main(
            [
                "run", "--data", str(synth_csv), "--tasks", "3",
                "--strategy", "mt_igs", "--strategy", "random",
                "--solver", "ridge", "--runs", "3", "--seed", "7",
                "--k-max", "8", "--threads", "1", "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists() and out.with_suffix(".json").exists()
        lines = out.read_text().splitlines()
        assert lines[0] == "strategy,solver,task,K,metric,mean,std,n_runs"
        summaries = capsys.readouterr().out.splitlines()
        assert any(s.startswith("mt_igs:") for s in summaries)
        assert any(s.startswith("random:") for s in summaries)

    def test_normalize_writes_params(self, tmp_path, synth_csv):
        out = tmp_path / "norm.csv"
        params = tmp_path / "params.json"
        code = main(
            ["normalize", "--data", str(synth_csv), "--tasks", "3", "--out", str(out), "--params-out", str(params)]
        )
        assert code == 0
        payload = json.loads(params.read_text())
        assert set(payload["x1"]) == {"mean", "std"}
        rows = _rows(out)
        mean_x1 = sum(float(r["x1"]) for r in rows) / len(rows)
        assert abs(mean_x1) < 1e-12

    def test_missing_params_directory_writes_nothing(self, tmp_path, synth_csv, capsys):
        out = tmp_path / "norm.csv"
        params = tmp_path / "missing" / "params.json"
        code = main(
            ["normalize", "--data", str(synth_csv), "--tasks", "3", "--out", str(out), "--params-out", str(params)]
        )
        assert code == 1
        assert f"--params-out: no such directory: {params.parent}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("params_name", ("n.json", "sub/../n.json"))
    def test_params_out_equal_to_out_exits_1_before_loading_data(self, tmp_path, capsys, params_name):
        (tmp_path / "sub").mkdir()
        out = tmp_path / "n.json"
        code = main(
            ["normalize", "--data", str(tmp_path / "absent.csv"), "--tasks", "3",
             "--out", str(out), "--params-out", str(tmp_path / params_name)]
        )
        assert code == 1
        assert f"--params-out: {tmp_path / params_name} is the --out file" in capsys.readouterr().err
        assert not out.exists()

    def test_params_out_naming_the_data_file_exits_1_and_keeps_it(self, tmp_path, synth_csv, capsys):
        (tmp_path / "sub").mkdir()
        params = tmp_path / "sub" / ".." / synth_csv.name
        before = synth_csv.read_bytes()
        out = tmp_path / "n.csv"
        code = main(
            ["normalize", "--data", str(synth_csv), "--tasks", "3", "--out", str(out), "--params-out", str(params)]
        )
        assert code == 1
        assert f"--params-out: {params} is the --data file" in capsys.readouterr().err
        assert synth_csv.read_bytes() == before
        assert not out.exists()

    def test_normalize_preserves_group_column_name(self, tmp_path):
        data = tmp_path / "g.csv"
        data.write_text("f1,gender,v\n1.0,m,0.1\n2.0,f,0.2\n3.0,m,0.3\n")
        out = tmp_path / "norm.csv"
        code = main(
            ["normalize", "--data", str(data), "--tasks", "1",
             "--group-column", "gender", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "f1,gender,v"


class TestRunErrors:
    def test_missing_focus_task_exits_2(self, tmp_path, synth_csv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["run", "--data", str(synth_csv), "--tasks", "3", "--strategy", "gsy",
                 "--runs", "1", "--out", str(tmp_path / "c.csv")]
            )
        assert exc.value.code == 2
        assert "--focus-task" in capsys.readouterr().err

    def test_focus_task_flag_fills_in(self, tmp_path, synth_csv):
        out = tmp_path / "c.csv"
        code = main(
            ["run", "--data", str(synth_csv), "--tasks", "3", "--strategy", "gsy",
             "--focus-task", "1", "--runs", "1", "--k-max", "4", "--out", str(out)]
        )
        assert code == 0
        assert _rows(out)[0]["strategy"] == "gsy:task=1"

    @pytest.mark.parametrize(
        "n_tasks, flags, message",
        [
            (2, ["--strategy", "random", "--strategy", "gsy:task=5"], "focus_task 5 out of range for 2 tasks"),
            (1, ["--strategy", "gsy", "--focus-task", "3"], "focus_task 3 out of range for 1 tasks"),
            (2, ["--strategy", "gsy:task=0", "--focus-task", "7"], "focus_task 7 out of range for 2 tasks"),
        ],
    )
    def test_focus_task_out_of_range_exits_1_before_any_experiment(self, tmp_path, capsys, n_tasks, flags, message):
        data = tmp_path / "data.csv"
        assert main(["synth", "--n", "40", "--d", "2", "--p", str(n_tasks), "--seed", "1", "--out", str(data)]) == 0
        capsys.readouterr()
        out = tmp_path / "c.csv"
        code = main(
            ["run", "--data", str(data), "--tasks", str(n_tasks), *flags,
             "--runs", "2", "--k-max", "4", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists() and not out.with_suffix(".json").exists()

    @pytest.mark.parametrize(
        "flags, spec",
        [
            (["--strategy", "random", "--strategy", "random"], "random"),
            (["--strategy", "gsy:task=1", "--strategy", "gsy", "--focus-task", "1"], "gsy:task=1"),
        ],
    )
    def test_repeated_strategy_exits_1_before_any_experiment(self, tmp_path, synth_csv, capsys, flags, spec):
        # its curve rows would repeat, and the curve readers reject a repeated row
        capsys.readouterr()
        out = tmp_path / "c.csv"
        code = main(
            ["run", "--data", str(synth_csv), "--tasks", "3", *flags,
             "--runs", "2", "--k-max", "4", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert f"error: --strategy {spec} is given twice" in captured.err
        assert captured.out == ""
        assert not out.exists() and not out.with_suffix(".json").exists()

    def test_missing_out_directory_exits_1_before_any_experiment(self, tmp_path, synth_csv, capsys):
        capsys.readouterr()
        out = tmp_path / "missing" / "c.csv"
        code = main(
            ["run", "--data", str(synth_csv), "--tasks", "3", "--strategy", "random",
             "--runs", "2", "--k-max", "4", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "no such directory" in captured.err
        assert captured.out == ""
        assert not out.parent.exists()

    def test_out_ending_in_json_exits_1_before_any_experiment(self, tmp_path, synth_csv, capsys):
        capsys.readouterr()
        out = tmp_path / "curves.json"
        code = main(
            ["run", "--data", str(synth_csv), "--tasks", "3", "--strategy", "random",
             "--runs", "2", "--k-max", "4", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "--out" in captured.err and "JSON twin" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    @pytest.mark.parametrize("data_name, out_name", [("d.csv", "d.csv"), ("d.csv", "sub/../d.csv"), ("d.json", "d.csv")])
    def test_out_naming_the_data_file_exits_1_and_keeps_it(self, tmp_path, capsys, data_name, out_name):
        (tmp_path / "sub").mkdir()
        data = tmp_path / data_name
        assert main(["synth", "--n", "40", "--d", "3", "--p", "3", "--seed", "1", "--out", str(data)]) == 0
        before = data.read_bytes()
        capsys.readouterr()
        code = main(
            ["run", "--data", str(data), "--tasks", "3", "--strategy", "random",
             "--runs", "2", "--k-max", "4", "--out", str(tmp_path / out_name)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "error: --out: " in captured.err and "is the --data file" in captured.err
        assert captured.out == ""
        assert data.read_bytes() == before

    @pytest.mark.parametrize("header, command, message", [
        ("x1,x2,y,y", ["run", "--strategy", "random", "--runs", "2", "--k-max", "4"], "duplicate task name(s): 'y'"),
        ("x,x,y", ["normalize", "--params-out", "PARAMS"], "duplicate feature name(s): 'x'"),
    ], ids=("run_task", "normalize_feature"))
    def test_duplicate_column_names_exit_1_and_write_nothing(self, tmp_path, capsys, header, command, message):
        data = tmp_path / "dup.csv"
        width = header.count(",") + 1
        data.write_text(header + "\n" + "".join(",".join(str(i + j) for j in range(width)) + "\n" for i in range(12)))
        out, params = tmp_path / "out.csv", tmp_path / "params.json"
        tasks = str(header.count("y"))
        argv = [arg.replace("PARAMS", str(params)) for arg in command]
        code = main([*argv, "--data", str(data), "--tasks", tasks, "--out", str(out)])
        assert code == 1
        assert f"error: {data}: {message}" in capsys.readouterr().err
        assert not out.exists() and not params.exists()

    def test_threads_below_one_exits_1(self, tmp_path, synth_csv, capsys):
        out = tmp_path / "c.csv"
        code = main(
            ["run", "--data", str(synth_csv), "--tasks", "3", "--strategy", "random",
             "--runs", "2", "--k-max", "4", "--threads", "0", "--out", str(out)]
        )
        assert code == 1
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_pool_smaller_than_k0_names_the_pool_not_k_max(self, tmp_path, synth_csv, capsys):
        # 1% of 60 rows leaves a pool of 1 sample, and no --k-max was given
        out = tmp_path / "c.csv"
        code = main(
            ["run", "--data", str(synth_csv), "--tasks", "3", "--strategy", "random",
             "--train-fraction", "0.01", "--out", str(out)]
        )
        assert code == 1
        assert "pool of 1 samples is smaller than k0=3 (one label per feature)" in capsys.readouterr().err
        assert not out.exists()

    def test_one_sample_test_set_exits_1_naming_the_train_fraction(self, tmp_path, synth_csv, capsys):
        # 99% of 60 rows leaves a pool of 59 samples and a test set of 1
        out = tmp_path / "c.csv"
        code = main(
            ["run", "--data", str(synth_csv), "--tasks", "3", "--strategy", "random", "--runs", "2",
             "--train-fraction", "0.99", "--out", str(out)]
        )
        assert code == 1
        assert ("error: test set of 1 samples cannot be scored (correlation needs at least 2); "
                "lower train_fraction=0.99") in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_file_exits_1(self, tmp_path, capsys):
        code = main(
            ["run", "--data", str(tmp_path / "nope.csv"), "--tasks", "3",
             "--strategy", "mt_igs", "--out", str(tmp_path / "c.csv")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--tasks", "3", "--strategy", "mt_igs", "--out", "x.csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "solver, message",
        [
            ("ols:lambda=2", "ols takes no lambda"),
            ("lasso:lambda2=0.5", "lasso takes no lambda2"),
            ("ridge:lambda=nan", "ridge lambda must be finite and nonnegative, got nan"),
            ("ridge:lambda=inf", "ridge lambda must be finite and nonnegative, got inf"),
            ("lasso:tol=nan", "lasso tol must be finite and positive, got nan"),
            ("ridge:lambda=1,tol=1e-3", "ridge takes no tol or max_iters"),
            ("ridge:lambda=abc", "solver option 'lambda' in 'ridge:lambda=abc' expects a number, got 'abc'"),
            ("lasso:max_iters=1.5", "solver option 'max_iters' in 'lasso:max_iters=1.5' expects an integer"),
            ("ridge:lambda=1,lambda=2", "solver option 'lambda' is given twice in 'ridge:lambda=1,lambda=2'"),
            ("lasso:tol=1e-3,tol=1e-4", "solver option 'tol' is given twice in 'lasso:tol=1e-3,tol=1e-4'"),
            ("elastic_net:lambda=1,lambda1=2",
             "solver options 'lambda' and 'lambda1' in 'elastic_net:lambda=1,lambda1=2' set the same weight"),
        ],
    )
    def test_ignored_solver_option_exits_1(self, tmp_path, synth_csv, capsys, solver, message):
        out = tmp_path / "c.csv"
        code = main(
            ["run", "--data", str(synth_csv), "--tasks", "3", "--strategy", "random",
             "--solver", solver, "--runs", "2", "--k-max", "4", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Warning" not in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "strategy, message",
        [
            ("gsx:task=1", "strategy gsx takes no 'task' option"),
            ("random:committee=8", "strategy random takes no 'committee' option"),
            ("qbc:task=0,task=1", "strategy option 'task' is given twice in 'qbc:task=0,task=1'"),
        ],
    )
    def test_ignored_strategy_option_exits_1(self, tmp_path, synth_csv, capsys, strategy, message):
        out = tmp_path / "c.csv"
        code = main(
            ["run", "--data", str(synth_csv), "--tasks", "3", "--strategy", strategy,
             "--runs", "2", "--k-max", "4", "--out", str(out)]
        )
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

class TestOneFeature:
    @pytest.mark.parametrize("kind", ["qbc", "emcm"])
    def test_committee_kinds_run_on_one_feature(self, tmp_path, kind, capsys):
        # k0 = d = 1, and a bootstrap committee needs two labels
        data = tmp_path / "d1.csv"
        assert main(["synth", "--n", "40", "--d", "1", "--p", "1", "--seed", "2", "--out", str(data)]) == 0
        out = tmp_path / "c.csv"
        code = main(
            ["run", "--data", str(data), "--tasks", "1", "--strategy", kind,
             "--runs", "3", "--k-max", "6", "--out", str(out)]
        )
        assert code == 0, capsys.readouterr().err
        assert sorted({int(row["K"]) for row in _rows(out)}) == [1, 2, 3, 4, 5, 6]


class TestRuntimeDependencies:
    def test_runs_without_scipy(self, tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
        # a None entry in sys.modules makes every `import scipy...` raise ImportError
        prelude = "import sys; sys.modules['scipy'] = None; from alr.cli import main; sys.exit(main(sys.argv[1:]))"

        def alr(*argv):
            return subprocess.run([sys.executable, "-c", prelude, *argv], env=env, capture_output=True, text=True)

        data = tmp_path / "data.csv"
        synth = alr("synth", "--n", "60", "--d", "3", "--p", "2", "--seed", "1", "--out", str(data))
        assert synth.returncode == 0, synth.stderr
        run = alr(
            "run", "--data", str(data), "--tasks", "2", "--strategy", "gsx", "--strategy", "igs:task=0",
            "--strategy", "mt_igs", "--strategy", "qbc:task=0", "--runs", "2", "--k-max", "8",
            "--out", str(tmp_path / "c.csv"),
        )
        assert run.returncode == 0, run.stderr


class TestNonconvergence:
    def test_counts_reach_stderr_and_json_not_csv(self, tmp_path, synth_csv, capsys):
        out = tmp_path / "c.csv"
        with pytest.warns(RuntimeWarning, match="did not converge"):
            code = main(
                ["run", "--data", str(synth_csv), "--tasks", "3", "--strategy", "random",
                 "--solver", "lasso:lambda=0.001,max_iters=1", "--runs", "2", "--k-max", "5",
                 "--threads", "1", "--out", str(out)]
            )
        assert code == 0
        # d = 3, so K = 3..5: 2 runs x 3 tasks x 3 K values, none converged in one sweep
        assert "random: 18 of 18 fits did not converge (K=3..5)" in capsys.readouterr().err.splitlines()
        payload = json.loads(out.with_suffix(".json").read_text())
        assert payload["curves"][0]["nonconverged"] == {"3": 6, "4": 6, "5": 6}
        rows = _rows(out)
        assert list(rows[0]) == ["strategy", "solver", "task", "K", "metric", "mean", "std", "n_runs"]
        assert {r["metric"] for r in rows} == {"rmse", "cc", "coef_mae", "label_std", "bl2_rmse", "bl2_cc"}


class TestDeterminism:
    def test_byte_identical_outputs_across_reruns_and_threads(self, tmp_path, synth_csv):
        outputs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"{name}.csv"
            code = main(
                ["run", "--data", str(synth_csv), "--tasks", "3",
                 "--strategy", "mt_gsy", "--strategy", "qbc:task=0",
                 "--runs", "4", "--seed", "11", "--k-max", "8",
                 "--threads", threads, "--out", str(out)]
            )
            assert code == 0
            outputs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]


class TestCompare:
    def test_improvement_percentages(self, tmp_path, capsys):
        baseline = tmp_path / "bl1.csv"
        candidate = tmp_path / "emcm.csv"
        _write_curve_csv(
            baseline, "random",
            {"rmse": {50: 0.380}, "cc": {50: 0.354}},
            {"bl2_rmse": 0.2, "bl2_cc": 0.65},
        )
        _write_curve_csv(
            candidate, "emcm:task=0",
            {"rmse": {50: 0.356}, "cc": {50: 0.371}},
            {"bl2_rmse": 0.2, "bl2_cc": 0.65},
        )
        out = tmp_path / "table.csv"
        code = main(
            ["compare", "--baseline", str(baseline), "--curves", str(candidate),
             "--k", "50", "--out", str(out)]
        )
        assert code == 0
        rows = {(r["measure"], r["K"]): r for r in _rows(out)}
        assert rows[("rmse", "50")]["improvement_pct"] == "6"
        assert rows[("cc", "50")]["improvement_pct"] == "5"

    def test_baseline_vs_itself_is_zero(self, tmp_path):
        baseline = tmp_path / "bl1.csv"
        _write_curve_csv(baseline, "random", {"rmse": {50: 0.4, 100: 0.3}}, {"bl2_rmse": 0.2})
        out = tmp_path / "table.csv"
        code = main(
            ["compare", "--baseline", str(baseline), "--curves", str(baseline),
             "--k", "50,100", "--measure", "rmse", "--out", str(out)]
        )
        assert code == 0
        assert all(r["improvement_pct"] == "0" for r in _rows(out))

    @pytest.mark.parametrize("base", ["0.0", "nan"])
    def test_undefined_improvement_left_blank(self, tmp_path, capsys, base):
        baseline = tmp_path / "bl1.csv"
        candidate = tmp_path / "gsx.csv"
        baseline.write_text(
            "strategy,solver,task,K,metric,mean,std,n_runs\n"
            f"random,ridge:lambda=10/k,v,50,rmse,{base},0.0,100\n"
            "random,ridge:lambda=10/k,v,50,bl2_rmse,0.2,0.0,100\n",
            encoding="utf-8",
        )
        _write_curve_csv(candidate, "gsx", {"rmse": {50: 0.3}}, {"bl2_rmse": 0.2})
        out = tmp_path / "table.csv"
        code = main(
            ["compare", "--baseline", str(baseline), "--curves", str(candidate),
             "--k", "50", "--measure", "rmse", "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().err == ""
        (row,) = _rows(out)
        assert row["baseline"] == repr(float(base))
        assert row["improvement_pct"] == ""

    def test_k_off_axis_exits_1(self, tmp_path, capsys):
        baseline = tmp_path / "bl1.csv"
        _write_curve_csv(baseline, "random", {"rmse": {50: 0.4}}, {"bl2_rmse": 0.2})
        code = main(
            ["compare", "--baseline", str(baseline), "--curves", str(baseline), "--k", "75"]
        )
        assert code == 1
        assert "75" in capsys.readouterr().err

    @pytest.mark.parametrize("ks", ["", ",", " , "])
    def test_empty_k_list_exits_1(self, tmp_path, capsys, ks):
        baseline = tmp_path / "bl1.csv"
        _write_curve_csv(baseline, "random", {"rmse": {50: 0.4}}, {"bl2_rmse": 0.2})
        out = tmp_path / "table.csv"
        code = main(["compare", "--baseline", str(baseline), "--curves", str(baseline), "--k", ks, "--out", str(out)])
        assert code == 1
        assert "error: --k expects at least one value" in capsys.readouterr().err
        assert not out.exists()

    def test_short_row_cites_file_and_line(self, tmp_path, capsys):
        baseline = tmp_path / "bl1.csv"
        _write_curve_csv(baseline, "random", {"rmse": {50: 0.4}}, {"bl2_rmse": 0.2})
        with baseline.open("a", encoding="utf-8") as fh:
            fh.write("random,ridge:lambda=10/k,v,60,rmse\n")
        code = main(["compare", "--baseline", str(baseline), "--curves", str(baseline), "--k", "50"])
        assert code == 1
        assert f"error: {baseline}: line 4 has 5 cells, expected 8" in capsys.readouterr().err

    @pytest.mark.parametrize("command, reference_flag",
                             [("compare", "--baseline"), ("saved-queries", "--reference")])
    def test_repeated_row_exits_1(self, tmp_path, capsys, command, reference_flag):
        # the second row used to replace the first without a word
        baseline = tmp_path / "bl1.csv"
        _write_curve_csv(baseline, "random", {"rmse": {5: 0.3}}, {"bl2_rmse": 0.2})
        with baseline.open("a", encoding="utf-8") as fh:
            fh.write("random,ridge:lambda=10/k,v,5,rmse,0.9,0.0,100\n")
        extra = ["--k", "5"] if command == "compare" else []
        code = main([command, reference_flag, str(baseline), "--curves", str(baseline), *extra])
        assert code == 1
        assert f"error: {baseline}: line 4 repeats rmse for task 'v' at K=5" in capsys.readouterr().err

    @pytest.mark.parametrize("command, reference_flag",
                             [("compare", "--baseline"), ("saved-queries", "--reference")])
    def test_group_fraction_row_of_a_task_exits_1(self, tmp_path, capsys, command, reference_flag):
        baseline = tmp_path / "bl1.csv"
        _write_curve_csv(baseline, "random", {"rmse": {5: 0.3}}, {"bl2_rmse": 0.2})
        with baseline.open("a", encoding="utf-8") as fh:
            fh.write("random,ridge:lambda=10/k,all,5,group_fraction,0.5,0.0,100\n")
            fh.write("random,ridge:lambda=10/k,v,5,group_fraction,0.9,0.0,100\n")
        extra = ["--k", "5"] if command == "compare" else []
        code = main([command, reference_flag, str(baseline), "--curves", str(baseline), "--measure", "rmse", *extra])
        assert code == 1
        assert f"error: {baseline}: line 5 gives group_fraction for task 'v', not 'all'" in capsys.readouterr().err

    def test_metric_missing_a_k_exits_1(self, tmp_path, capsys):
        baseline = tmp_path / "bl1.csv"
        _write_curve_csv(baseline, "random", {"rmse": {5: 0.3, 6: 0.2}, "cc": {5: 0.5}}, {"bl2_rmse": 0.2})
        code = main(["compare", "--baseline", str(baseline), "--curves", str(baseline), "--k", "5"])
        assert code == 1
        assert f"error: {baseline}: random: no cc value for task 'v' at K=6" in capsys.readouterr().err

    def test_non_numeric_mean_cites_file_and_line(self, tmp_path, capsys):
        baseline = tmp_path / "bl1.csv"
        candidate = tmp_path / "gsx.csv"
        _write_curve_csv(baseline, "random", {"rmse": {50: 0.4}}, {"bl2_rmse": 0.2})
        _write_curve_csv(candidate, "gsx", {"rmse": {50: "x"}}, {"bl2_rmse": 0.2})
        code = main(["compare", "--baseline", str(baseline), "--curves", str(candidate), "--k", "50"])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {candidate}: line 2: " in err and "'x'" in err

    def test_baseline_missing_measure_exits_1(self, tmp_path, capsys):
        baseline = tmp_path / "bl1.csv"
        candidate = tmp_path / "gsx.csv"
        _write_curve_csv(baseline, "random", {"rmse": {50: 0.4}}, {"bl2_rmse": 0.2})
        _write_curve_csv(candidate, "gsx", {"rmse": {50: 0.3}, "cc": {50: 0.5}}, {"bl2_rmse": 0.2})
        code = main(
            ["compare", "--baseline", str(baseline), "--curves", str(candidate),
             "--k", "50", "--measure", "both"]
        )
        assert code == 1
        assert "error: random: no cc value for task 'v' at K=50" in capsys.readouterr().err


def _two_curve_files(tmp_path):
    baseline, candidate = tmp_path / "bl1.csv", tmp_path / "emcm.csv"
    _write_curve_csv(baseline, "random", {"rmse": {50: 0.4}}, {"bl2_rmse": 0.2})
    _write_curve_csv(candidate, "emcm:task=0", {"rmse": {50: 0.3}}, {"bl2_rmse": 0.2})
    return baseline, candidate


@pytest.mark.parametrize("command, reference_flag", [("compare", "--baseline"), ("saved-queries", "--reference")])
@pytest.mark.parametrize("target", ["reference", "curves"])
def test_out_naming_an_input_curve_file_exits_1_and_keeps_it(tmp_path, capsys, command, reference_flag, target):
    reference, curves = _two_curve_files(tmp_path)
    out = reference if target == "reference" else curves
    before = {path: path.read_bytes() for path in (reference, curves)}
    code = main([command, reference_flag, str(reference), "--curves", str(curves), "--out", str(out)])
    assert code == 1
    flag = reference_flag if target == "reference" else "--curves"
    assert f"--out: {out} is the {flag} file" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in (reference, curves)} == before


class TestSavedQueries:
    def test_table_semantics(self, tmp_path):
        reference = tmp_path / "bl1.csv"
        candidate = tmp_path / "emcm.csv"
        ks = (241, 242, 260, 261)
        _write_curve_csv(
            reference, "random",
            {"rmse": dict(zip(ks, (0.22, 0.21, 0.203, 0.202)))},
            {"bl2_rmse": 0.2},
        )
        _write_curve_csv(
            candidate, "emcm:task=0",
            {"rmse": dict(zip(ks, (0.21, 0.202, 0.2, 0.2)))},
            {"bl2_rmse": 0.2},
        )
        out = tmp_path / "saved.csv"
        code = main(
            ["saved-queries", "--curves", str(candidate), "--reference", str(reference),
             "--alpha", "1", "--measure", "rmse", "--out", str(out)]
        )
        assert code == 0
        row = _rows(out)[0]
        assert row["k_reference"] == "261"
        assert row["k_curve"] == "242"
        assert row["saving_pct"] == "8"

    def test_unreached_threshold_left_blank(self, tmp_path):
        reference = tmp_path / "ref.csv"
        candidate = tmp_path / "cand.csv"
        _write_curve_csv(reference, "random", {"rmse": {5: 0.21, 6: 0.201}}, {"bl2_rmse": 0.2})
        _write_curve_csv(candidate, "igs:task=0", {"rmse": {5: 0.3, 6: 0.3}}, {"bl2_rmse": 0.2})
        out = tmp_path / "saved.csv"
        code = main(
            ["saved-queries", "--curves", str(candidate), "--reference", str(reference),
             "--alpha", "1", "--measure", "rmse", "--out", str(out)]
        )
        assert code == 0
        row = _rows(out)[0]
        assert row["k_curve"] == "" and row["saving_pct"] == ""

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exits_1(self, tmp_path, capsys, alpha):
        reference = tmp_path / "ref.csv"
        _write_curve_csv(reference, "random", {"rmse": {5: 0.21, 6: 0.201}}, {"bl2_rmse": 0.2})
        out = tmp_path / "saved.csv"
        code = main(
            ["saved-queries", "--curves", str(reference), "--reference", str(reference),
             "--alpha", f"1,{alpha}", "--measure", "rmse", "--out", str(out)]
        )
        assert code == 1
        assert f"error: alpha must be finite, got {alpha}" in capsys.readouterr().err

    @pytest.mark.parametrize("alphas", ["", ",", " , "])
    def test_empty_alpha_list_exits_1(self, tmp_path, capsys, alphas):
        reference = tmp_path / "ref.csv"
        _write_curve_csv(reference, "random", {"rmse": {5: 0.21, 6: 0.201}}, {"bl2_rmse": 0.2})
        out = tmp_path / "saved.csv"
        code = main(
            ["saved-queries", "--curves", str(reference), "--reference", str(reference),
             "--alpha", alphas, "--out", str(out)]
        )
        assert code == 1
        assert "error: --alpha expects at least one value" in capsys.readouterr().err
        assert not out.exists()

    def test_reference_missing_full_pool_row_exits_1(self, tmp_path, capsys):
        reference = tmp_path / "ref.csv"
        candidate = tmp_path / "cand.csv"
        _write_curve_csv(reference, "random", {"rmse": {3: 0.3, 4: 0.25}}, {})
        _write_curve_csv(candidate, "gsx", {"rmse": {3: 0.3, 4: 0.25}}, {"bl2_rmse": 0.2})
        code = main(
            ["saved-queries", "--curves", str(candidate), "--reference", str(reference),
             "--alpha", "1", "--measure", "rmse"]
        )
        assert code == 1
        assert "error: random: no bl2_rmse value for task 'v' at K=3" in capsys.readouterr().err

    def test_undefined_full_pool_cc_leaves_its_columns_blank(self, tmp_path):
        # lambda=100 LASSO predicts a constant, so CC is NaN at every K and at the full pool
        for name, strategy in (("ref.csv", "random"), ("cand.csv", "gsy:task=1")):
            _write_curve_csv(tmp_path / name, strategy, {"rmse": {5: 0.3, 6: 0.2}, "cc": {5: "nan", 6: "nan"}},
                             {"bl2_rmse": 0.2, "bl2_cc": "nan"}, solver="lasso:lambda=100")
        out = tmp_path / "saved.csv"
        code = main(
            ["saved-queries", "--curves", str(tmp_path / "cand.csv"), "--reference", str(tmp_path / "ref.csv"),
             "--alpha", "1", "--out", str(out)]
        )
        assert code == 0
        rows = {row["measure"]: row for row in _rows(out)}
        assert (rows["rmse"]["k_reference"], rows["rmse"]["k_curve"]) == ("6", "6")
        assert rows["cc"]["k_reference"] == rows["cc"]["k_curve"] == rows["cc"]["saving_pct"] == ""


class TestUniqueQueries:
    def test_single_task_union_equals_multitask(self, tmp_path):
        data = tmp_path / "single.csv"
        assert main(["synth", "--n", "40", "--d", "2", "--p", "1", "--noise", "0.1", "--seed", "3", "--out", str(data)]) == 0
        out = tmp_path / "uq.csv"
        code = main(
            ["unique-queries", "--data", str(data), "--tasks", "1", "--family", "gsy",
             "--seed", "5", "--k-max", "8", "--out", str(out)]
        )
        assert code == 0
        for row in _rows(out):
            assert row["mt_unique"] == row["st_union"] == row["K"]

    def test_missing_out_directory_exits_1(self, tmp_path, synth_csv, capsys):
        out = tmp_path / "missing" / "uq.csv"
        code = main(
            ["unique-queries", "--data", str(synth_csv), "--tasks", "3", "--family", "igs",
             "--k-max", "10", "--out", str(out)]
        )
        assert code == 1
        assert f"--out: no such directory: {out.parent}" in capsys.readouterr().err

    def test_out_naming_the_data_file_exits_1_and_keeps_it(self, tmp_path, synth_csv, capsys):
        before = synth_csv.read_bytes()
        code = main(
            ["unique-queries", "--data", str(synth_csv), "--tasks", "3", "--family", "igs",
             "--k-max", "10", "--out", str(synth_csv)]
        )
        assert code == 1
        assert f"--out: {synth_csv} is the --data file" in capsys.readouterr().err
        assert synth_csv.read_bytes() == before

    def test_multitask_bounds(self, tmp_path, synth_csv):
        out = tmp_path / "uq.csv"
        code = main(
            ["unique-queries", "--data", str(synth_csv), "--tasks", "3", "--family", "igs",
             "--seed", "5", "--k-max", "10", "--out", str(out)]
        )
        assert code == 0
        for row in _rows(out):
            k, mt, union = int(row["K"]), int(row["mt_unique"]), int(row["st_union"])
            assert mt == k
            assert k <= union <= 3 * k
