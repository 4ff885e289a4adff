"""Command-line surface: exit codes, file formats, byte-level determinism."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

import bilevelopt as bl
import bilevelopt.cli as cli
from bilevelopt import OracleDivergence


def run_cli(*argv):
    return cli.main(list(argv))


OVERFLOW = {"t": 0.1, "s": 0.1, "eta": 1e308, "K": 200, "T": 100}


def write_config(path, **kw):
    base = {"t": 0.1, "s": 0.1, "eta": 0.5, "K": 30, "T": 8}
    base.update(kw)
    path.write_text(json.dumps(base))
    return path


def write_clean_config(path, **kw):
    """Hyper-cleaning step sizes with small budgets."""
    return write_config(path, **dict(dict(t=0.01, s=0.001, eta=1.0, K=10, T=3), **kw))


def snapshot(directory):
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


class TestSolve:
    def test_writes_csv_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "run.csv"
        code = run_cli("solve", "--problem", "degenerate_quadratic",
                       "--model", "improved", "--config", str(cfg),
                       "--out", str(out), "--no-timing")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,outer_value,grad_norm,metric,wall_ms"
        assert len(lines) == 9
        # quadratics carry no task metric: the column is empty
        assert lines[1].split(",")[3] == ""
        assert lines[1].split(",")[4] == "0"
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert manifest["config"]["K"] == 30

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("solve", "--problem", "degenerate_quadratic",
                           "--config", str(cfg), "--out", str(out),
                           "--no-timing") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_replay_reproduces_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "run.csv"
        run_cli("solve", "--problem", "closedform_quadratic", "--config", str(cfg),
                "--out", str(out), "--no-timing")
        before = out.read_bytes()
        assert cli.replay_manifest(tmp_path / "run.csv.manifest.json") == 0
        assert out.read_bytes() == before

    def test_metric_column_for_hyperclean(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", t=0.01, s=0.001, eta=1.0, K=10, T=3)
        out = tmp_path / "run.csv"
        assert run_cli("solve", "--problem", "hyperclean_synthetic",
                       "--config", str(cfg), "--out", str(out), "--no-timing") == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[3] != ""
        assert 0.0 <= float(row[3]) <= 1.0

    def test_unknown_problem_exits_2(self, tmp_path):
        assert run_cli("solve", "--problem", "mystery",
                       "--out", str(tmp_path / "x.csv")) == 2

    def test_degenerate_gap_visible_from_cli(self, tmp_path):
        # default budgets: improved ends near the formulation optimum 0 while
        # basic plateaus at 0.5
        finals = {}
        for model in ("improved", "basic"):
            out = tmp_path / f"{model}.csv"
            assert run_cli("solve", "--problem", "degenerate_quadratic",
                           "--model", model, "--out", str(out),
                           "--no-timing") == 0
            finals[model] = float(out.read_text().splitlines()[-1].split(",")[1])
        assert finals["improved"] == pytest.approx(0.0, abs=1e-3)
        assert finals["basic"] == pytest.approx(0.5, abs=1e-3)

    def test_unset_fields_take_the_solve_config_defaults(self, tmp_path):
        # a file may set every SolveConfig field but the mode; each one it
        # leaves out takes SolveConfig's default
        short = write_config(tmp_path / "short.json")
        full = write_config(tmp_path / "full.json", alpha_exponent=0.25, bigsam_frequency=1,
                            seed=0)
        for cfg in (short, full):
            assert run_cli("solve", "--problem", "degenerate_quadratic", "--config", str(cfg),
                           "--out", str(tmp_path / f"{cfg.stem}.csv"), "--no-timing") == 0
        assert (tmp_path / "short.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()
        configs = [json.loads((tmp_path / f"{stem}.csv.manifest.json").read_text())["config"]
                   for stem in ("short", "full")]
        assert configs[0] == configs[1]

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config"), ("{not json", "cannot read config"),
        ("[0.1, 0.1]", "config file must hold a JSON object"),
        ("0.5", "config file must hold a JSON object")], ids=["missing", "not-json", "list",
                                                             "number"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "c.json"
        if content is not None:
            cfg.write_text(content)
        out = tmp_path / "run.csv"
        assert run_cli("solve", "--problem", "closedform_quadratic", "--config", str(cfg),
                       "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_unknown_config_field_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"t": 0.1, "s": 0.1, "eta": 0.5, "K": 5, "T": 2,
                                   "warmup": 3}))
        code = run_cli("solve", "--problem", "closedform_quadratic",
                       "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "warmup" in capsys.readouterr().err

    def test_missing_config_field_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"t": 0.1, "s": 0.1, "eta": 0.5, "K": 5}))
        code = run_cli("solve", "--problem", "closedform_quadratic",
                       "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "'T'" in capsys.readouterr().err

    @pytest.mark.parametrize("exponent", [200.0, -1.0])
    def test_out_of_range_alpha_exponent_exits_2(self, tmp_path, capsys, exponent):
        cfg = write_config(tmp_path / "c.json", K=60, alpha_exponent=exponent)
        code = run_cli("solve", "--problem", "closedform_quadratic",
                       "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "invalid config" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("field", ["t", "s", "eta"])
    def test_infinite_step_size_exits_2(self, tmp_path, capsys, field):
        # an infinite step is a config error, not a divergence (exit 3); for
        # t the file reads {"t": Infinity, "s": 0.1, "eta": 0.5, "K": 3, "T": 2}
        steps = {"t": "0.1", "s": "0.1", "eta": "0.5", field: "Infinity"}
        cfg = tmp_path / "c.json"
        cfg.write_text('{"t": %(t)s, "s": %(s)s, "eta": %(eta)s, "K": 3, "T": 2}' % steps)
        code = run_cli("solve", "--problem", "closedform_quadratic",
                       "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert f"invalid config: {field} must be finite and positive, got inf" \
            in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("field", [{"K": 20.9, "T": 3.7}, {"K": 20.9}, {"T": 3.7},
                                       {"bigsam_frequency": 1.5}])
    def test_non_integral_counts_exit_2(self, tmp_path, capsys, field):
        cfg = write_config(tmp_path / "c.json", **field)
        code = run_cli("solve", "--problem", "closedform_quadratic",
                       "--config", str(cfg), "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert "invalid config" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("field, message", [("K", "K must be an integer of at least 1"),
                                                ("t", "t must be a number")])
    def test_boolean_field_exits_2(self, tmp_path, capsys, field, message):
        # JSON true is no count and no step size, though int(True) and
        # float(True) both read 1
        cfg = write_config(tmp_path / "c.json", **{field: True})
        code = run_cli("solve", "--problem", "closedform_quadratic", "--config", str(cfg),
                       "--out", str(tmp_path / "x.csv"), "--no-timing")
        assert code == 2
        assert f"invalid config: {message}, got True" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_string_float_field_exits_2(self, tmp_path, capsys):
        # float("0.1") reads a number, but a JSON string is none; a count
        # field given as a string exits 2 as well
        cfg = write_config(tmp_path / "c.json", K=5, T=3, t="0.1", s="1e-1", eta="0.5")
        code = run_cli("solve", "--problem", "closedform_quadratic", "--config", str(cfg),
                       "--out", str(tmp_path / "x.csv"), "--no-timing")
        assert code == 2
        assert "invalid config: t must be a number, got '0.1'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_integral_float_counts_run_as_integers(self, tmp_path):
        csvs = []
        for name, counts in (("int", {"K": 200, "T": 3, "bigsam_frequency": 2}),
                             ("float", {"K": 200.0, "T": 3.0, "bigsam_frequency": 2.0})):
            cfg = write_config(tmp_path / f"{name}.json", **counts)
            out = tmp_path / f"{name}.csv"
            assert run_cli("solve", "--problem", "degenerate_quadratic", "--config", str(cfg),
                           "--out", str(out), "--no-timing") == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1] and csvs[0].count(b"\n") == 4

    @pytest.mark.parametrize("seed, flag", [(1.7, None), (-1, None), (None, "-1")])
    def test_bad_seed_exits_2(self, tmp_path, capsys, seed, flag):
        cfg = write_clean_config(tmp_path / "c.json", **({} if seed is None else {"seed": seed}))
        out = tmp_path / "x.csv"
        code = run_cli("solve", "--problem", "hyperclean_synthetic", "--config", str(cfg),
                       "--out", str(out), *(["--seed", flag] if flag else []))
        assert code == 2
        assert "invalid config: seed must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_config_seed_builds_the_data(self, tmp_path):
        csvs = {}
        for seed in (0, 5, 5.0):
            cfg = write_clean_config(tmp_path / f"{seed!r}.json", seed=seed)
            out = tmp_path / f"{seed!r}.csv"
            assert run_cli("solve", "--problem", "hyperclean_synthetic", "--config", str(cfg),
                           "--out", str(out), "--no-timing") == 0
            csvs[repr(seed)] = out.read_bytes()
        assert csvs["5"] == csvs["5.0"] != csvs["0"]

    def test_divergence_exits_3_with_truncated_csv(self, tmp_path, monkeypatch):
        import dataclasses
        import bilevelopt as bl

        real = cli.zoo_problem

        def poisoned(name, seed=0, rho=0.5):
            inst = real(name, seed=seed, rho=rho)
            bad = dataclasses.replace(
                inst.problem,
                grad1_h=lambda w, lam: (w - lam) if lam[0] >= 1.2 else np.array([np.nan]))
            return dataclasses.replace(inst, problem=bad)

        monkeypatch.setattr(cli, "zoo_problem", poisoned)
        cfg = write_config(tmp_path / "c.json", K=50, T=40)
        out = tmp_path / "run.csv"
        code = run_cli("solve", "--problem", "closedform_quadratic",
                       "--config", str(cfg), "--out", str(out), "--no-timing")
        assert code == 3
        lines = out.read_text().splitlines()
        assert lines[-1] == "# truncated"
        assert len(lines) > 2

    def test_outer_divergence_exits_3_with_truncated_csv(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(OVERFLOW))
        out = tmp_path / "run.csv"
        code = run_cli("solve", "--problem", "closedform_quadratic",
                       "--config", str(cfg), "--out", str(out), "--no-timing")
        assert code == 3
        # lam is finite after the first update; g overflows at the next iterate
        assert "outer iteration 1: oracle-divergence: non-finite outer value" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,outer_value,grad_norm,metric,wall_ms"
        assert lines[-1] == "# truncated"
        rows = [line.split(",") for line in lines[1:-1]]
        assert len(rows) == 1
        assert all(np.isfinite(float(row[1])) and np.isfinite(float(row[2])) for row in rows)
        assert (tmp_path / "run.csv.manifest.json").exists()


class TestCheck:
    def test_quadratics_pass(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("check", "--problem", "closedform_quadratic",
                       "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["all_pass"]
        assert all(r["passed"] for r in doc["reports"])
        assert (tmp_path / "report.json.manifest.json").exists()

    def test_all_problems_pass(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("check", "--problem", "all", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["all_pass"]
        problems = {r["problem"] for r in doc["reports"]}
        assert len(problems) == 4
        # no check runs twice: every row differs from every other
        for a, b in itertools.combinations(doc["reports"], 2):
            assert a != b, a

    def test_reverse_lines_name_their_model(self, capsys):
        assert run_cli("check", "--problem", "closedform_quadratic") == 0
        reverse = [line for line in capsys.readouterr().out.splitlines()
                   if "reverse-vs-fd-hypergradient" in line]
        assert [line.split()[2:4] for line in reverse] == [
            ["reverse-vs-fd-hypergradient", "(improved)"],
            ["reverse-vs-fd-hypergradient", "(basic)"]]

    def test_unattainable_tolerance_exits_1(self):
        assert run_cli("check", "--problem", "closedform_quadratic",
                       "--tol", "1e-12") == 1

    def test_unknown_problem_exits_2(self):
        assert run_cli("check", "--problem", "wat") == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-4"])
    def test_tolerance_not_finite_and_positive_exits_2(self, tmp_path, capsys, tol):
        out = tmp_path / "report.json"
        assert run_cli("check", "--problem", "closedform_quadratic", f"--tol={tol}",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "must be finite and positive" in err
        # the message names the flag the user gave, not a CheckConfig field
        assert f"--tol must be finite and positive, got {float(tol)!r}" in err
        assert "tol_grad" not in err
        assert not out.exists()

    @pytest.mark.parametrize("problem", ["closedform_quadratic", "hyperclean_synthetic"])
    def test_negative_seed_exits_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                      problem):
        def unreachable(*args, **kwargs):
            raise AssertionError("a rejected seed must build no problem")

        monkeypatch.setattr(cli, "zoo_problem", unreachable)
        out = tmp_path / "reports" / "report.json"
        assert run_cli("check", "--problem", problem, "--seed", "-1", "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: seed must be an integer of at least 0, got -1\n"
        assert not (tmp_path / "reports").exists()

    def test_divergence_in_the_suite_exits_3(self, tmp_path, capsys, monkeypatch):
        def diverge(problem, configs):
            raise OracleDivergence("oracle-divergence: planted")

        monkeypatch.setattr(cli, "check_suite", diverge)
        out = tmp_path / "report.json"
        assert run_cli("check", "--problem", "closedform_quadratic", "--out", str(out)) == 3
        assert capsys.readouterr().err == "divergence: oracle-divergence: planted\n"
        assert not out.exists()


class TestAblation:
    def test_files_and_identity_with_solve(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", K=40, T=6)
        out_dir = tmp_path / "abl"
        assert run_cli("ablation", "--problem", "degenerate_quadratic",
                       "--freqs", "1,5", "--config", str(cfg),
                       "--out-dir", str(out_dir), "--no-timing") == 0
        names = sorted(p.name for p in out_dir.glob("*.csv"))
        assert names == ["basic.csv", "improved-1.csv", "improved-5.csv"]
        index = json.loads((out_dir / "index.json").read_text())
        assert [c["frequency"] for c in index] == [0, 1, 5]

        solo = tmp_path / "solo.csv"
        run_cli("solve", "--problem", "degenerate_quadratic", "--model", "improved",
                "--config", str(cfg), "--out", str(solo), "--no-timing")
        assert (out_dir / "improved-1.csv").read_bytes() == solo.read_bytes()

    def test_jobs_flag_matches_serial(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", K=20, T=4)
        serial, parallel = tmp_path / "s", tmp_path / "p"
        for out_dir, jobs in ((serial, "1"), (parallel, "2")):
            assert run_cli("ablation", "--problem", "degenerate_quadratic",
                           "--freqs", "1,3", "--config", str(cfg),
                           "--out-dir", str(out_dir), "--jobs", jobs,
                           "--no-timing") == 0
        for name in ("basic.csv", "improved-1.csv", "improved-3.csv"):
            assert (serial / name).read_bytes() == (parallel / name).read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_outer_divergence_exits_3_with_every_cell_written(self, tmp_path, capsys, jobs):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(OVERFLOW))
        out_dir = tmp_path / "abl"
        code = run_cli("ablation", "--problem", "closedform_quadratic", "--freqs", "1",
                       "--config", str(cfg), "--out-dir", str(out_dir), "--jobs", jobs,
                       "--no-timing")
        assert code == 3
        err = capsys.readouterr().err
        assert ("divergence: improved-1.csv: outer iteration 1: "
                "oracle-divergence: non-finite outer value") in err
        assert "divergence: basic.csv: outer iteration 0: " in err
        for name in ("basic.csv", "improved-1.csv"):
            lines = (out_dir / name).read_text().splitlines()
            assert lines[0] == "iter,outer_value,grad_norm,metric,wall_ms"
            assert lines[-1] == "# truncated"
            rows = [line.split(",") for line in lines[1:-1]]
            assert len(rows) == 1
            assert all(np.isfinite(float(row[1])) for row in rows)
            assert (out_dir / f"{name}.manifest.json").exists()
        index = json.loads((out_dir / "index.json").read_text())
        assert [c["frequency"] for c in index] == [0, 1]

    def test_empty_freq_list_exits_2(self, tmp_path):
        assert run_cli("ablation", "--problem", "degenerate_quadratic",
                       "--freqs", "", "--out-dir", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("freqs, message", [
        ("a,b", "cannot parse frequency list 'a,b'"), ("1.5", "cannot parse frequency list"),
        ("0", "frequencies must be positive integers"),
        ("2,-1", "frequencies must be positive integers")])
    def test_bad_frequency_list_exits_2(self, tmp_path, capsys, freqs, message):
        out_dir = tmp_path / "abl"
        assert run_cli("ablation", "--problem", "degenerate_quadratic", "--freqs", freqs,
                       "--out-dir", str(out_dir)) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv", [("--freqs", "1,1"), ("--freqs", "5,1,5", "--jobs", "2"),
                                      ("--freqs", "1", "--jobs", "0"),
                                      ("--freqs", "1", "--jobs", "-3")])
    def test_repeated_frequency_or_bad_jobs_exits_2(self, tmp_path, argv):
        out_dir = tmp_path / "abl"
        assert run_cli("ablation", "--problem", "degenerate_quadratic", *argv,
                       "--out-dir", str(out_dir), "--no-timing") == 2
        assert not out_dir.exists()


class TestClean:
    def test_comparison_csv_and_summary(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", t=0.01, s=0.001, eta=1.0, K=15, T=5)
        out = tmp_path / "clean.csv"
        code = run_cli("clean", "--rho", "0.5", "--ntr", "60", "--nval", "60",
                       "--config", str(cfg), "--seed", "1", "--out", str(out),
                       "--no-timing")
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,f1_improved,f1_basic"
        assert len(lines) == 6
        summary = json.loads((tmp_path / "clean.csv.summary.json").read_text())
        assert summary["corrupted_count"] == 30
        assert not summary["undefined_f1"]
        assert "lambda_i < 0" in summary["flag_rule"]

    def test_rho_zero_marks_undefined_f1(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", t=0.01, s=0.001, eta=1.0, K=5, T=2)
        out = tmp_path / "clean.csv"
        assert run_cli("clean", "--rho", "0", "--ntr", "40", "--nval", "40",
                       "--config", str(cfg), "--out", str(out), "--no-timing") == 0
        summary = json.loads((tmp_path / "clean.csv.summary.json").read_text())
        assert summary["undefined_f1"]
        assert summary["note"] == "undefined-F1, reported 0"
        assert summary["final_f1_improved"] == 0.0

    def test_idx_source_round_trip(self, tmp_path):
        import bilevelopt as bl
        from bilevelopt.data import Dataset
        rng = np.random.default_rng(0)
        X = rng.integers(0, 256, size=(80, 9)).astype(np.float64) / 255.0
        y = rng.integers(0, 2, size=80).astype(np.int64)
        ds = Dataset(X=X, y=y, mask=np.zeros(80, bool), C=2)
        bl.write_idx(ds, tmp_path / "img", tmp_path / "lab", rows=3, cols=3)
        cfg = write_config(tmp_path / "c.json", t=0.01, s=0.001, eta=1.0, K=5, T=2)
        out = tmp_path / "clean.csv"
        code = run_cli("clean", "--data", f"idx:{tmp_path / 'img'},{tmp_path / 'lab'}",
                       "--rho", "0.5", "--ntr", "40", "--nval", "30",
                       "--config", str(cfg), "--out", str(out), "--no-timing")
        assert code == 0
        assert out.exists()

    def test_outer_divergence_exits_3_with_truncated_csv(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(OVERFLOW))
        out = tmp_path / "clean.csv"
        code = run_cli("clean", "--rho", "0.5", "--ntr", "60", "--nval", "60",
                       "--config", str(cfg), "--out", str(out), "--no-timing")
        assert code == 3
        err = capsys.readouterr().err
        for mode in ("improved", "basic"):
            assert f"divergence: {mode} model: outer iteration 0: " in err
        assert out.read_text().splitlines() == ["iter,f1_improved,f1_basic", "0,0,0",
                                                "# truncated"]
        manifest = json.loads((tmp_path / "clean.csv.manifest.json").read_text())
        assert manifest["outputs"] == ["clean.csv"]

    def test_one_diverged_model_truncates_the_csv_and_names_only_that_model(
            self, tmp_path, capsys, monkeypatch):
        real = cli.run_model

        def basic_overflows(problem, lam0, config, **kw):
            if config.mode == "basic":
                config = dataclasses.replace(config, t=OVERFLOW["t"], s=OVERFLOW["s"],
                                             eta=OVERFLOW["eta"])
            return real(problem, lam0, config, **kw)

        monkeypatch.setattr(cli, "run_model", basic_overflows)
        out = tmp_path / "clean.csv"
        code = run_cli("clean", "--rho", "0.5", "--ntr", "40", "--nval", "40",
                       "--config", str(write_clean_config(tmp_path / "c.json")),
                       "--out", str(out), "--no-timing")
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("divergence: basic model: outer iteration 0: ")
        # rows stop at the basic run's one finite record
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,f1_improved,f1_basic" and lines[-1] == "# truncated"
        assert [line.split(",")[0] for line in lines[1:-1]] == ["0"]
        assert not (tmp_path / "clean.csv.summary.json").exists()
        manifest = json.loads((tmp_path / "clean.csv.manifest.json").read_text())
        assert manifest["outputs"] == ["clean.csv"]

    @pytest.mark.parametrize("flag", ["--ntr", "--nval"])
    @pytest.mark.parametrize("count", ["-5", "0"])
    def test_split_count_below_one_exits_2(self, tmp_path, capsys, flag, count):
        out = tmp_path / "b.csv"
        assert run_cli("clean", flag, count, "--out", str(out)) == 2
        assert "split-too-small" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_idx_file_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        missing = tmp_path / "nofile"
        assert run_cli("clean", "--data", f"idx:{missing},{tmp_path / 'nolab'}",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read idx data") and str(missing) in err
        assert "Traceback" not in err and not out.exists()

    def test_short_idx_image_file_exits_2_naming_it(self, tmp_path, capsys):
        img, lab = tmp_path / "short_img", tmp_path / "short_lab"
        img.write_bytes(b"\x00\x00\x08")
        lab.write_bytes(b"\x00\x00\x08")
        out = tmp_path / "c.csv"
        assert run_cli("clean", "--data", f"idx:{img},{lab}", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: idx-short-header") and str(img) in err
        assert "Traceback" not in err and not out.exists()

    def test_short_idx_label_file_exits_2_naming_it(self, tmp_path, capsys):
        import bilevelopt as bl
        from bilevelopt.data import Dataset
        ds = Dataset(X=np.zeros((4, 1)), y=np.zeros(4, np.int64), mask=np.zeros(4, bool), C=2)
        img, lab = tmp_path / "img", tmp_path / "short_lab"
        bl.write_idx(ds, img, tmp_path / "lab")
        lab.write_bytes((tmp_path / "lab").read_bytes()[:7])
        out = tmp_path / "c.csv"
        assert run_cli("clean", "--data", f"idx:{img},{lab}", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: idx-short-header") and str(lab) in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("data, message", [
        ("idx:only_images", "idx data spec must be idx:<images_path>,<labels_path>"),
        ("idx:a,b,c", "idx data spec must be idx:<images_path>,<labels_path>"),
        ("mnist", "unknown data source 'mnist' (use synthetic or idx:<paths>)")])
    def test_bad_data_source_exits_2(self, tmp_path, capsys, data, message):
        out = tmp_path / "c.csv"
        assert run_cli("clean", "--data", data, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_synthetic_data_is_the_zoo_problems(self, tmp_path):
        out = tmp_path / "clean.csv"
        cfg = write_clean_config(tmp_path / "c.json", K=2, T=1)
        assert run_cli("clean", "--config", str(cfg), "--out", str(out), "--no-timing") == 0
        data = json.loads((tmp_path / "clean.csv.summary.json").read_text())["data"]
        zoo = bl.zoo_problem("hyperclean_synthetic").data_spec
        # --ntr and --nval default to the zoo problem's split
        for key in ("d", "C", "margin", "n_tr", "n_val"):
            assert data[key] == zoo[key], key

    def test_bad_rho_exits_2(self, tmp_path):
        assert run_cli("clean", "--rho", "1.5", "--out", str(tmp_path / "x.csv")) == 2

    def test_config_seed_equals_seed_flag(self, tmp_path):
        runs = {"file": ("--config", str(write_clean_config(tmp_path / "file.json", seed=3))),
                "flag": ("--config", str(write_clean_config(tmp_path / "flag.json")),
                         "--seed", "3")}
        for name, argv in runs.items():
            (tmp_path / name).mkdir()
            assert run_cli("clean", "--rho", "0.5", "--ntr", "40", "--nval", "40", *argv,
                           "--out", str(tmp_path / name / "clean.csv"), "--no-timing") == 0
        for name in ("clean.csv", "clean.csv.summary.json"):
            assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()
        summary = json.loads((tmp_path / "file" / "clean.csv.summary.json").read_text())
        assert summary["data"]["seed"] == summary["config"]["seed"] == 3


class TestRunFlags:
    """solve, ablation and clean share --config, --seed and --no-timing; check has --seed alone."""

    REQUIRED = {"solve": ["--problem", "closedform_quadratic", "--out", "x.csv"],
                "ablation": ["--problem", "closedform_quadratic", "--freqs", "1",
                             "--out-dir", "x"],
                "clean": ["--out", "x.csv"]}

    @pytest.mark.parametrize("command", ["solve", "ablation", "clean"])
    def test_model_run_commands_take_each_shared_flag(self, command):
        parse = cli._build_parser().parse_args
        args = parse([command, *self.REQUIRED[command], "--config", "c.json", "--seed", "4",
                      "--no-timing"])
        assert (args.config, args.seed, args.no_timing) == ("c.json", 4, True)
        args = parse([command, *self.REQUIRED[command]])
        assert (args.config, args.seed, args.no_timing) == (None, None, False)

    @pytest.mark.parametrize("flag", [["--config", "c.json"], ["--no-timing"]])
    def test_check_rejects_the_model_run_flags(self, capsys, flag):
        assert run_cli("check", "--problem", "closedform_quadratic", *flag) == 2
        assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err


def output_argv(command, out, tmp_path):
    """A small run of ``command`` that writes ``out``."""
    if command == "check":
        return ["check", "--problem", "closedform_quadratic", "--out", str(out)]
    if command == "solve":
        return ["solve", "--problem", "closedform_quadratic", "--out", str(out), "--no-timing",
                "--config", str(write_config(tmp_path / "c.json", K=5, T=2))]
    return ["clean", "--ntr", "40", "--nval", "40", "--out", str(out), "--no-timing",
            "--config", str(write_clean_config(tmp_path / "c.json", K=2, T=1))]


@pytest.mark.parametrize("command", ["solve", "check", "clean"])
class TestOutputDirectory:
    """A command creates its output directory; a path it cannot write exits 2."""

    def test_missing_directory_is_created(self, tmp_path, command):
        out = tmp_path / "new" / "deeper" / "out.csv"
        assert run_cli(*output_argv(command, out, tmp_path)) == 0
        assert out.exists() and (out.parent / "out.csv.manifest.json").exists()

    def test_directory_under_a_regular_file_exits_2_naming_it(self, tmp_path, capsys,
                                                               command):
        (tmp_path / "plain").write_text("")
        out = tmp_path / "plain" / "sub" / "out.csv"
        assert run_cli(*output_argv(command, out, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out.parent) in err
        assert "Traceback" not in err

    def test_output_path_that_is_a_directory_exits_2_naming_it(self, tmp_path, capsys,
                                                                command):
        out = tmp_path / "out.csv"
        out.mkdir()
        assert run_cli(*output_argv(command, out, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert "Traceback" not in err

    REFUSED = {"check": ["--tol", "nan", "--out", "new/r.json"],
               "solve": ["--problem", "closedform_quadratic", "--seed", "-1",
                         "--out", "new/run.csv"],
               "clean": ["--rho", "2", "--out", "new/c.csv"]}

    def test_refused_run_creates_no_directory(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        assert run_cli(command, *self.REFUSED[command]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []


class TestReplay:
    """A replay rewrites its run's outputs and manifest byte for byte, and nothing else."""

    @staticmethod
    def assert_replays_exactly(manifest):
        before = snapshot(manifest.parent)
        assert cli.replay_manifest(manifest) == 0
        assert snapshot(manifest.parent) == before

    def test_solve_with_config_file_seed(self, tmp_path):
        cfg = write_clean_config(tmp_path / "c.json", seed=5)
        out = tmp_path / "run.csv"
        assert run_cli("solve", "--problem", "hyperclean_synthetic", "--config", str(cfg),
                       "--out", str(out), "--no-timing") == 0
        manifest = tmp_path / "run.csv.manifest.json"
        doc = json.loads(manifest.read_text())
        assert doc["data"]["seed"] == doc["config"]["seed"] == 5
        self.assert_replays_exactly(manifest)

    def test_ablation_cell_with_config_file_seed(self, tmp_path):
        cfg = write_clean_config(tmp_path / "c.json", seed=5)
        out_dir = tmp_path / "abl"
        assert run_cli("ablation", "--problem", "hyperclean_synthetic", "--freqs", "1,5",
                       "--config", str(cfg), "--out-dir", str(out_dir), "--no-timing") == 0
        for manifest in out_dir.glob("*.manifest.json"):
            doc = json.loads(manifest.read_text())
            assert doc["data"]["seed"] == doc["config"]["seed"] == 5
        self.assert_replays_exactly(out_dir / "improved-5.csv.manifest.json")

    def test_clean_with_config_file_seed(self, tmp_path):
        cfg = write_clean_config(tmp_path / "c.json", seed=5)
        assert run_cli("clean", "--rho", "0.5", "--ntr", "40", "--nval", "40",
                       "--config", str(cfg), "--out", str(tmp_path / "clean.csv"),
                       "--no-timing") == 0
        self.assert_replays_exactly(tmp_path / "clean.csv.manifest.json")

    def test_unknown_command_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "run.manifest.json"
        manifest.write_text(json.dumps({"command": "train", "outputs": []}))
        assert cli.replay_manifest(manifest) == 2
        assert capsys.readouterr().err == "error: cannot run command 'train'\n"

    def test_check_with_seed_flag(self, tmp_path):
        assert run_cli("check", "--problem", "closedform_quadratic", "--seed", "3",
                       "--out", str(tmp_path / "report.json")) == 0
        self.assert_replays_exactly(tmp_path / "report.json.manifest.json")


class TestFormatting:
    def test_seventeen_significant_digits(self):
        assert cli._fmt(1.0 / 3.0) == "0.33333333333333331"
        assert cli._fmt(0.5) == "0.5"
        assert cli._fmt(0.0) == "0"
