import argparse
import importlib
import json
import pkgutil
import re
import shlex
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import sparseipm
from sparseipm import baselines, harness, metrics, problems
from sparseipm.harness import (FAMILIES, ParseError, builtin_image,
                               gen_blur_instance, gen_classification,
                               gen_fused_lasso, gen_portfolio, parse_config,
                               read_pgm, run_cli, write_pgm)
from sparseipm.linops import BlurKernel


class TestGenerators:
    def test_portfolio_dimensions_and_terminal(self):
        inst = gen_portfolio(s=48, m=9, seed=0)
        assert inst.num_assets == 48 and inst.num_periods == 9
        # lifted formulation: 432 weights, 432 l1 splits, 768 difference
        # splits -> 1632 variables total
        from sparseipm.problems import build_portfolio_qp
        prog = build_portfolio_qp(inst)
        assert prog.n == 1632
        # the terminal wealth target is reachable (it is the naive strategy's)
        from sparseipm.problems import naive_portfolio
        _, terminal = naive_portfolio(inst)
        assert inst.xi_term == pytest.approx(terminal)

    def test_portfolio_deterministic(self):
        a = gen_portfolio(5, 3, seed=7)
        b = gen_portfolio(5, 3, seed=7)
        for ca, cb in zip(a.covariances, b.covariances):
            np.testing.assert_array_equal(ca, cb)
        for ra, rb in zip(a.returns, b.returns):
            np.testing.assert_array_equal(ra, rb)

    def test_portfolio_validates_sizes(self):
        with pytest.raises(ValueError):
            gen_portfolio(1, 3, seed=0)

    def test_fused_lasso_planted_block(self):
        inst, wbar = gen_fused_lasso(10, (4, 4), seed=1)
        assert inst.data.shape == (10, 16)
        assert set(np.unique(inst.labels)) <= {-1.0, 1.0}
        # contiguous active block: first half of each axis
        np.testing.assert_array_equal(wbar.reshape(4, 4)[:2, :2], 1.0)
        assert wbar.sum() == 4.0

    def test_classification_planted_support_size(self):
        inst, wbar, test = gen_classification(50, 30, sparsity=0.2, seed=2,
                                              test_fraction=0.5)
        assert np.count_nonzero(wbar) == 6
        assert inst.tau == pytest.approx(1.0 / 50)
        assert test[0].shape == (25, 30)

    def test_classification_no_test_set(self):
        _, _, test = gen_classification(20, 10, seed=3)
        assert test is None

    def test_blur_instance_noise_free_identity(self):
        img = builtin_image("squares", 16)
        kernel = BlurKernel("identity", (16, 16), {})
        inst, wbar = gen_blur_instance(img, kernel, 50.0, 2.0, seed=0,
                                       noise=False)
        np.testing.assert_allclose(inst.observed, wbar + 2.0, atol=1e-10)

    def test_blur_counts_match_poisson_mean(self):
        # sample mean of the counts within 3 standard errors of the blur mean
        img = builtin_image("disk", 16)
        kernel = BlurKernel("gaussian", (16, 16), {"sigma": 1.0})
        inst, _ = gen_blur_instance(img, kernel, 200.0, 5.0, seed=4)
        noiseless, _ = gen_blur_instance(img, kernel, 200.0, 5.0, seed=4,
                                         noise=False)
        mean = noiseless.observed
        se = np.sqrt(mean.sum()) / mean.size
        assert abs(inst.observed.mean() - mean.mean()) <= 3 * se

    def test_poisson_unit_rate_sample_mean(self):
        rng = np.random.default_rng(5)
        draws = rng.poisson(1.0, size=10000)
        assert 0.9 <= draws.mean() <= 1.1

    def test_blur_validates_parameters(self):
        img = builtin_image("squares", 16)
        kernel = BlurKernel("identity", (16, 16), {})
        for peak, background in ((-1.0, 1.0), (10.0, 0.0), (np.nan, 1.0), (10.0, np.nan)):
            with pytest.raises(ValueError):
                gen_blur_instance(img, kernel, peak, background, seed=0, noise=False)


def test_instances_build_their_operators_once(monkeypatch):
    """Builders, objectives, baselines and the Poisson start reuse the
    operators an instance built on construction."""
    port = gen_portfolio(6, 3, seed=0)
    fl, _ = gen_fused_lasso(12, (3, 3, 2), seed=0)
    img = builtin_image("squares", 8)
    kernel = BlurKernel("gaussian", img.shape, {"sigma": 1.0})
    poisson, _ = gen_blur_instance(img, kernel, 50.0, 1.0, seed=0)

    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    # every name any sparseipm module binds the operator factories to
    for info in pkgutil.iter_modules(sparseipm.__path__):
        module = importlib.import_module(f"sparseipm.{info.name}")
        for name in ("make_tv_operator", "make_difference_operator"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))

    problems.build_portfolio_qp(port)
    problems.build_fused_lasso_ls(fl)
    problems.build_poisson_tv(poisson)
    for inst, n in ((port, 18), (fl, 18), (poisson, 64)):
        for k in range(10):
            inst.original_objective(np.full(n, 1.0 + k))
    baselines.asb_chol_solve(port, maxit=3)
    baselines.fista_solve(fl, maxit=3)
    baselines.admm_fused_lasso(fl, maxit=3)
    harness._poisson_start(poisson)
    assert calls == []
    # the counters are live: a new instance builds its operator
    gen_fused_lasso(12, (3, 3, 2), seed=1)
    assert calls == ["make_tv_operator"]


class TestBuiltinImages:
    def test_squares_range_and_background(self):
        img = builtin_image("squares", 32)
        assert img.shape == (32, 32)
        assert img.min() == pytest.approx(0.05)
        assert img.max() == pytest.approx(1.0)

    def test_disk_symmetry(self):
        img = builtin_image("disk", 33)
        np.testing.assert_array_equal(img, img.T)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_image("checker", 16)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            builtin_image("squares", 4)


class TestParseConfig:
    def test_basic(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("s = 12\n# comment line\n\ntol=1e-8  # trailing\n")
        assert parse_config(cfg) == {"s": "12", "tol": "1e-8"}

    def test_missing_equals_reports_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("s = 12\njust words\n")
        with pytest.raises(ParseError, match=r":2:"):
            parse_config(cfg)

    def test_empty_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("= 3\n")
        with pytest.raises(ParseError, match=r":1:"):
            parse_config(cfg)


class TestPgm:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        img = rng.integers(0, 256, size=(9, 7))
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        back, maxval = read_pgm(path)
        assert maxval == 255
        np.testing.assert_array_equal(back, img)

    def test_ascii_round_trip(self, tmp_path):
        img = np.arange(12).reshape(3, 4) * 20
        path = tmp_path / "img.pgm"
        body = "\n".join(" ".join(str(v) for v in row) for row in img)
        path.write_bytes(f"P2\n4 3\n255\n{body}\n".encode("ascii"))
        back, _ = read_pgm(path)
        np.testing.assert_array_equal(back, img)

    def test_sixteen_bit_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        img = rng.integers(0, 40000, size=(5, 5))
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n5 5\n65535\n" + img.astype(">u2").tobytes())
        back, maxval = read_pgm(path)
        assert maxval == 65535
        np.testing.assert_array_equal(back, img)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n# a comment\n2 2\n255\n0 1\n2 3\n")
        back, _ = read_pgm(path)
        np.testing.assert_array_equal(back, [[0, 1], [2, 3]])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ParseError, match="magic"):
            read_pgm(path)

    def test_truncated_binary(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(5))
        with pytest.raises(ParseError, match="truncated"):
            read_pgm(path)

    def test_values_above_maxval(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n1 1\n10\n200\n")
        with pytest.raises(ParseError, match="exceeds"):
            read_pgm(path)

    def test_values_below_zero(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 -5 10 255\n")
        with pytest.raises(ParseError, match="img.pgm: pixel value below 0"):
            read_pgm(path)


class TestCli:
    def test_portfolio_writes_outputs(self, tmp_path):
        code = run_cli(["portfolio", "--s", "5", "--m", "3", "--seed", "1",
                        "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report_ippmm.json").exists()
        scores = (tmp_path / "scores.csv").read_text().splitlines()
        assert scores[0] == "solver,status,iters,time_s,objective,ratio,ratio_h,ratio_t"
        assert len(scores) == 2

    def test_portfolio_asb_solver(self, tmp_path):
        code = run_cli(["portfolio", "--solver", "asb", "--s", "4", "--m", "3",
                        "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report_asb.json").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_baseline_report_is_strict_json(self, tmp_path):
        # tau1 = 1e308 makes every objective of the run overflow to inf
        code = run_cli(["portfolio", "--solver", "asb", "--tau1", "1e308",
                        "--max-iter", "3", "--out", str(tmp_path)])
        assert code == 2

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        doc = json.loads((tmp_path / "report_asb.json").read_text(),
                         parse_constant=reject)
        assert doc["objective"] == [None] * 3 and None not in doc["primal_inf"]

    def test_fmri_fista(self, tmp_path):
        code = run_cli(["fmri", "--solver", "fista", "--s", "10", "--grid",
                        "3x3", "--out", str(tmp_path)])
        assert code == 0
        scores = (tmp_path / "scores.csv").read_text().splitlines()
        assert scores[0] == "solver,status,iters,time_s,objective,density_pct,overlap"

    def test_restore_small(self, tmp_path):
        code = run_cli(["restore", "--size", "16", "--peak", "50",
                        "--max-iter", "8", "--out", str(tmp_path)])
        assert code == 2  # capped at 8 iterations
        img, maxval = read_pgm(tmp_path / "restored.pgm")
        assert img.shape == (16, 16) and maxval == 255

    def test_restore_defaults_reach_optimal(self, tmp_path):
        assert run_cli(["restore", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report_ippmm.json").read_text())
        assert report["status"] == "optimal"
        assert report["inner_capped"] == 0

    @pytest.mark.parametrize("seed", ["2", "3", "4"])
    def test_fmri_defaults_reach_optimal(self, tmp_path, seed):
        # the CLI defaults: 30 samples on 4x4x4, pcg-normal
        assert run_cli(["fmri", "--seed", seed, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report_ippmm.json").read_text())
        assert report["status"] == "optimal"

    def test_baselines_are_scored_at_the_prune_level(self, tmp_path):
        # every solver's w is below fmri's prune level 1e-6 here, IP-PMM's too
        code = run_cli(["fmri", "--solver", "ippmm,fista,admm", "--s", "10",
                        "--grid", "3x3", "--tau1", "100", "--tau2", "100",
                        "--out", str(tmp_path)])
        assert code == 0
        rows = [r.split(",") for r in
                (tmp_path / "scores.csv").read_text().splitlines()[1:]]
        assert [r[0] for r in rows] == ["ippmm", "fista", "admm"]
        assert [r[5:] for r in rows] == [["0", ""]] * 3
        inst, _ = gen_fused_lasso(10, (3, 3), 0, 100.0, 100.0)
        at_zero = inst.original_objective(np.zeros(9))
        for r in rows[1:]:  # the objective is of the unpruned w
            assert float(r[4]) != at_zero

    @pytest.mark.parametrize("family,prune,argv", [
        ("portfolio", 1e-4, ["--s", "5", "--m", "3"]),
        ("fmri", 1e-6, ["--s", "10", "--grid", "3x3"]),
        ("classify", 1e-6, ["--n", "60", "--s", "12"]),
        ("restore", 0.0, ["--size", "16", "--peak", "50", "--max-iter", "8"])])
    def test_every_solver_is_scored_at_the_family_prune_level(
            self, monkeypatch, tmp_path, family, prune, argv):
        # IP-PMM's w gets an entry at half the prune level and one at twice
        # it: the first is scored as 0 and the second as it is
        fam, raw, scored = FAMILIES[family], [], []
        assert fam.prune == prune

        def build(inst):
            prog = fam.build(inst)
            extract = prog.extract

            def planted(x):
                w = extract(x).copy()
                w[:2] = 0.5 * prune, 2.0 * prune
                raw.append(w)
                return w

            prog.extract = planted
            return prog

        def score(args, inst, truth, w):
            scored.append(w)
            return fam.score(args, inst, truth, w)

        monkeypatch.setitem(FAMILIES, family, replace(fam, build=build, score=score))
        every = ["--solver", ",".join(fam.solvers)] if fam.baselines else []
        assert run_cli([family, *every, *argv, "--out", str(tmp_path)]) in (0, 2)
        assert len(scored) == len(fam.solvers)
        w, ippmm_w = raw[-1], scored[0]
        assert ippmm_w[0] == 0.0 and ippmm_w[1] == 2.0 * prune
        assert np.array_equal(ippmm_w, np.where(np.abs(w) > prune, w, 0.0))
        for w in scored:  # the baselines' too
            assert not np.any((w != 0.0) & (np.abs(w) <= prune))

    def test_classify_runs(self, tmp_path):
        code = run_cli(["classify", "--n", "60", "--s", "12", "--out",
                        str(tmp_path)])
        assert code == 0
        scores = (tmp_path / "scores.csv").read_text().splitlines()
        assert scores[0].startswith("solver,status,iters,time_s,objective,"
                                    "split,accuracy_pct")
        assert scores[1].split(",")[5] == "train"
        assert scores[2].split(",")[5] == "test"

    def test_classify_without_test_rows_writes_no_test_row(self, tmp_path):
        # the default test fraction rounds to 0 of 1 sample: no empty mean
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["classify", "--n", "1", "--max-iter", "2", "--out",
                            str(tmp_path)])
        assert code in (0, 2)
        rows = (tmp_path / "scores.csv").read_text().splitlines()
        assert [r.split(",")[5] for r in rows[1:]] == ["train"]
        assert "nan" not in rows[1]

    def test_bench_runs_all_solvers_on_one_instance(self, tmp_path):
        code = run_cli(["portfolio", "--s", "4", "--m", "3", "--solver",
                        "ippmm,asb", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "scores.csv").read_text().splitlines()
        assert rows[0].startswith("solver,status,iters,time_s,objective,")
        assert [r.split(",")[0] for r in rows[1:]] == ["ippmm", "asb"]
        obj = [float(r.split(",")[4]) for r in rows[1:]]
        assert abs(obj[0] - obj[1]) <= 1e-3 * (1 + abs(obj[1]))

    def test_classify_defaults_pose_the_sparse_regime(self, tmp_path):
        code = run_cli(["classify", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "scores.csv").read_text().splitlines()
        header = rows[0].split(",")
        density = float(rows[1].split(",")[header.index("density_pct")])
        assert density <= 30.0

    def test_bench_rejects_unknown_solver_before_solving(self, tmp_path,
                                                          capsys):
        out = tmp_path / "out"
        code = run_cli(["portfolio", "--s", "4", "--m", "3", "--solver",
                        "ippmm,zzz", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "zzz" in capsys.readouterr().err
        code = run_cli(["portfolio", "--s", "4", "--m", "3", "--solver",
                        "asb,asb", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "repeated" in capsys.readouterr().err

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_subcommand_and_bench_solve_one_instance(self, family,
                                                            tmp_path):
        """A run of every solver of the family gives the same IP-PMM report,
        timings aside, as a run of IP-PMM alone."""
        flags = {"portfolio": ["--s", "4", "--m", "3"],
                 "fmri": ["--s", "10", "--grid", "3x3"],
                 "restore": ["--size", "8", "--peak", "50", "--max-iter", "8"],
                 "classify": ["--n", "60", "--s", "12"]}[family]
        solvers = FAMILIES[family].solvers
        single, several = tmp_path / "single", tmp_path / "several"
        code = 2 if family == "restore" else 0  # restore is capped at 8 iterations
        assert run_cli([family, *flags, "--out", str(single)]) == code
        report = json.loads((single / "report_ippmm.json").read_text())
        several_flags = ["--solver", ",".join(solvers)] if len(solvers) > 1 else []
        assert run_cli([family, *flags, *several_flags,
                        "--out", str(several)]) == code
        several_report = json.loads((several / "report_ippmm.json").read_text())
        for doc in (report, several_report):
            del doc["time_s"], doc["phase_times"]
        assert several_report == report
        rows = (several / "scores.csv").read_text().splitlines()
        assert rows[0] == ",".join(("solver", "status", "iters", "time_s",
                                    "objective", *FAMILIES[family].header))
        assert {r.split(",")[0] for r in rows[1:]} == set(solvers)
        solver, status, iters = rows[1].split(",")[:3]
        assert (solver, status, int(iters)) == ("ippmm", report["status"],
                                                report["iters"])
        for solver in solvers:
            assert (several / f"report_{solver}.json").exists()

    def test_undefined_score_leaves_its_columns_blank(self, tmp_path,
                                                      monkeypatch):
        def undefined(*args):
            raise metrics.UndefinedMetricError("optimal portfolio is empty")

        monkeypatch.setitem(FAMILIES, "portfolio",
                            replace(FAMILIES["portfolio"], score=undefined))
        code = run_cli(["portfolio", "--s", "4", "--m", "3", "--solver",
                        "ippmm,asb", "--out", str(tmp_path)])
        assert code == 0
        rows = [r.split(",") for r in
                (tmp_path / "scores.csv").read_text().splitlines()[1:]]
        assert [r[:2] for r in rows] == [["ippmm", "optimal"], ["asb", "converged"]]
        for r in rows:
            float(r[4])  # the objective is kept
            assert r[5:] == ["", "", ""]

    def test_spectest_fmri(self, tmp_path):
        code = run_cli(["spectest", "--family", "fmri", "--s", "5", "--grid",
                        "3x3", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "spectral.json").read_text())
        assert doc["interval_ok"] is True

    def test_spectest_poisson_defaults(self, tmp_path):
        code = run_cli(["spectest", "--family", "poisson", "--out",
                        str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "spectral.json").read_text())
        assert doc["interval_ok"] is True

    def test_config_file_provides_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("s = 4\nm = 3\n")
        code = run_cli(["portfolio", "--config", str(cfg), "--out",
                        str(tmp_path)])
        assert code == 0

    def test_config_lists_several_solvers(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("solver = ippmm,asb\ns = 4\nm = 3\n")
        code = run_cli(["portfolio", "--config", str(cfg), "--out",
                        str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report_ippmm.json").exists()
        assert (tmp_path / "report_asb.json").exists()
        rows = (tmp_path / "scores.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["ippmm", "asb"]

    def test_explicit_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("solver = asb\n")
        code = run_cli(["portfolio", "--solver", "ippmm", "--s", "4", "--m",
                        "3", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report_ippmm.json").exists()
        assert not (tmp_path / "report_asb.json").exists()

    def test_missing_config_file(self, tmp_path):
        code = run_cli(["portfolio", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1

    def test_config_equals_spelling(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_iter = 2\ns = 4\nm = 3\n")
        code = run_cli(["portfolio", f"--config={cfg}", "--out", str(tmp_path)])
        assert code == 2  # capped at 2 iterations
        report = json.loads((tmp_path / "report_ippmm.json").read_text())
        assert report["iters"] == 2

    def test_config_switch_takes_true(self, tmp_path):
        small = ["--size", "16", "--max-iter", "2"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_noise = true\n")
        runs = {}
        for name, flags in (("config", ["--config", str(cfg)]),
                            ("flag", ["--no-noise"]), ("noisy", [])):
            out = tmp_path / name
            assert run_cli(["restore", *small, *flags, "--out", str(out)]) == 2  # capped
            runs[name] = (out / "restored.pgm").read_bytes()
        assert runs["config"] == runs["flag"] != runs["noisy"]

    def test_config_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("s = 4\nm = 3\nbogus = 1\n")
        code = run_cli(["portfolio", "--config", str(cfg), "--out",
                        str(tmp_path)])
        assert code == 1
        assert not (tmp_path / "report_ippmm.json").exists()

    def test_bad_grid_spec(self, tmp_path):
        code = run_cli(["fmri", "--grid", "3xbad", "--out", str(tmp_path)])
        assert code == 1

    # the checks run before any solve; --max-iter 1 would keep a missed one short
    @pytest.mark.parametrize("flags", [["--tol", "-1"], ["--max-iter", "-3"],
                                       ["--tol", "nan", "--max-iter", "1"],
                                       ["--tol", "0", "--max-iter", "1"],
                                       ["--tol", "inf", "--max-iter", "1"],
                                       ["--solver", "asb", "--tol", "0"],
                                       ["--solver", "asb,ippmm", "--max-iter", "0"],
                                       ["--solver", "asb,ippmm", "--tol", "-1"]])
    def test_invalid_solver_options_rejected_before_solving(self, tmp_path,
                                                            flags):
        code = run_cli(["portfolio", "--s", "4", "--m", "3", *flags,
                        "--out", str(tmp_path)])
        assert code == 1
        assert list(tmp_path.glob("report_*.json")) == []

    @pytest.mark.parametrize("argv", [["portfolio", "--tau1", "-1"],
                                      ["portfolio", "--tau2", "-0.5"],
                                      ["portfolio", "--tau1", "nan"],
                                      ["fmri", "--tau1", "-0.1"],
                                      ["restore", "--size", "16", "--lambda", "-0.01"],
                                      ["portfolio", "--tau1", "inf"],
                                      ["fmri", "--tau2", "inf"],
                                      ["restore", "--size", "16", "--lambda", "inf"]],
                             ids=" ".join)
    def test_invalid_regularization_rejected_before_solving(self, tmp_path,
                                                            capsys, argv):
        out = tmp_path / "out"
        flag, value = argv[-2:]
        assert run_cli([*argv, "--out", str(out)]) == 1
        assert not out.exists()
        assert f"argument {flag}: must be non-negative" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"  # a config file's value is checked the same way
        cfg.write_text(f"{flag[2:]} = {value}\n")
        assert run_cli([argv[0], "--config", str(cfg), "--out", str(out)]) == 1
        assert f"bad value '{value}' for {flag[2:]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["restore", "--peak", "nan", "--no-noise"],
                                      ["restore", "--background", "nan", "--no-noise"],
                                      ["restore", "--background", "inf"],
                                      ["classify", "--test-fraction", "-0.5"],
                                      ["classify", "--test-fraction", "nan"],
                                      ["portfolio", "--trans-eps", "nan"],
                                      ["portfolio", "--solver", "asb", "--budget-seconds", "-1"],
                                      ["portfolio", "--solver", "asb", "--budget-seconds", "nan"]],
                             ids=" ".join)
    def test_out_of_range_flag_rejected_before_solving(self, tmp_path, capsys, argv):
        """A flag value out of range, NaN or infinite exits 1 before any
        solve, with the flag named."""
        out = tmp_path / "out"
        assert run_cli([*argv, "--out", str(out)]) == 1
        flag, value = argv[-3:-1] if argv[-1] == "--no-noise" else argv[-2:]
        assert f"argument {flag}: must be" in capsys.readouterr().err
        assert not out.exists()
        cfg = tmp_path / "run.cfg"  # a config file's value is checked the same way
        cfg.write_text(f"{flag[2:]} = {value}\n")
        assert run_cli([argv[0], "--config", str(cfg), "--out", str(out)]) == 1
        assert f"bad value '{value}' for {flag[2:]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, name", [
        (["--blur", "gaussian", "--sigma", "inf"], "sigma"),
        (["--blur", "gaussian", "--sigma", "nan"], "sigma"),
        (["--blur", "out-of-focus", "--radius", "inf"], "radius"),
        (["--blur", "motion", "--len", "inf"], "length"),
        (["--blur", "motion", "--angle", "nan"], "angle")],
        ids=lambda a: " ".join(a) if isinstance(a, list) else a)
    def test_non_finite_kernel_parameter_ends_in_an_error_line(self, tmp_path, capsys,
                                                                argv, name):
        out = tmp_path / "out"
        assert run_cli(["restore", "--size", "8", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{name} must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["restore", "--blur", "motion", "--sigma", "3"],
                                      ["restore", "--blur", "identity", "--radius", "2"],
                                      ["restore", "--image", "PGM", "--size", "16"],
                                      ["spectest", "--family", "poisson", "--s", "5"]],
                             ids=" ".join)
    def test_flag_that_cannot_apply_is_rejected_before_solving(self, tmp_path,
                                                               argv):
        pgm = tmp_path / "img.pgm"
        write_pgm(pgm, np.full((16, 16), 128))
        out = tmp_path / "out"
        argv = [str(pgm) if a == "PGM" else a for a in argv]
        assert run_cli([*argv, "--out", str(out)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["restore", "--image", b"P2\n0 0\n255\n"],
                                      ["restore", "--image", b"P2\n-3 2\n255\n1 2 3\n"],
                                      ["restore", "--image", b"P2\n2 2\n255\n0 -5 10 255\n"],
                                      ["fmri", "--s", "0"],
                                      ["spectest", "--family", "fmri", "--s", "0"]],
                             ids=["pgm 0x0", "pgm width -3", "pgm sample -5", "fmri s 0",
                                  "spectest s 0"])
    def test_empty_input_ends_in_an_error_line(self, tmp_path, capsys, argv):
        """An image without pixels or with a negative sample, or a data set
        without samples, exits 1 with the CLI's error line, not a traceback,
        and writes no output directory."""
        if isinstance(argv[-1], bytes):  # the image file's contents
            pgm = tmp_path / "img.pgm"
            pgm.write_bytes(argv[-1])
            argv = [*argv[:-1], str(pgm)]
        assert run_cli([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_kernel_flags_reach_their_kernel(self, tmp_path):
        """A kernel flag at its default gives the default run; another value
        changes it."""
        base = ["restore", "--size", "8", "--max-iter", "1", "--blur", "motion"]
        images = {}
        for name, flags in (("default", []), ("explicit", ["--len", "5", "--angle", "0"]),
                            ("other", ["--angle", "90"])):
            assert run_cli([*base, *flags, "--out", str(tmp_path / name)]) == 2
            images[name] = (tmp_path / name / "restored.pgm").read_bytes()
        assert images["default"] == images["explicit"] != images["other"]

    def test_pgm_image_keeps_its_size(self, tmp_path):
        pgm = tmp_path / "img.pgm"
        write_pgm(pgm, 255.0 * builtin_image("disk", 10))
        assert run_cli(["restore", "--image", str(pgm), "--max-iter", "1",
                        "--out", str(tmp_path / "out")]) == 2
        img, _ = read_pgm(tmp_path / "out" / "restored.pgm")
        assert img.shape == (10, 10)

    @pytest.mark.parametrize("family, solver", [(family, solver)
                                                for family in sorted(FAMILIES)
                                                for solver in FAMILIES[family].baselines])
    def test_solver_limits_reach_every_baseline(self, family, solver, tmp_path):
        """--max-iter caps a baseline (exit 2), a loose --tol ends it at its
        first iteration, and a spent --budget-seconds is not a failure."""
        small = {"portfolio": ["--s", "4", "--m", "3"],
                 "fmri": ["--s", "10", "--grid", "3x3"],
                 "classify": ["--n", "60", "--s", "12"]}[family]
        runs = {"capped": (["--max-iter", "3"], 2, "max-iterations", 3),
                "loose": (["--tol", "1e30"], 0, "converged", 1),
                "budget": (["--budget-seconds", "0"], 0, "time-budget", 1)}
        for name, (flags, code, status, iters) in runs.items():
            out = tmp_path / name
            assert run_cli([family, *small, "--solver", solver, *flags,
                            "--out", str(out)]) == code, name
            report = json.loads((out / f"report_{solver}.json").read_text())
            assert (report["status"], report["iters"]) == (status, iters), name

    def test_unknown_subcommand(self):
        assert run_cli(["frobnicate"]) == 1


def _runs_of(subcommand) -> list:
    """Argument lists that together exercise every option of a subcommand
    on tiny instances."""
    if subcommand == "spectest":
        return [["spectest", "--family", family] for family in ("fmri", "poisson")]
    family = FAMILIES[subcommand]
    small = {"portfolio": ["--s", "4", "--m", "3"],
             "fmri": ["--s", "6", "--grid", "2x3"],
             "restore": ["--size", "8", "--peak", "20"],
             "classify": ["--n", "30", "--s", "6"]}[subcommand]
    argv = [subcommand, *small, "--max-iter", "1"]
    if family.baselines:
        argv += ["--solver", ",".join(family.solvers), "--budget-seconds", "0"]
    if subcommand != "restore":
        return [argv]
    blurs = next(f.kw["choices"] for f in family.flags if f.name == "--blur")
    return [[*argv, "--blur", blur] for blur in blurs]


@pytest.mark.parametrize("subcommand", [*FAMILIES, "spectest"])
def test_every_flag_is_read(subcommand, tmp_path, monkeypatch):
    """Every option a subcommand accepts is read by some run of it: a flag
    that nothing reads would be accepted and silently ignored."""
    reads, live = set(), [False]

    class Recorder(argparse.Namespace):
        # argparse's own reads while parsing are not counted
        def __getattribute__(self, name):
            if live[0]:
                reads.add(name)
            return super().__getattribute__(name)

    build = harness.build_parser

    def recording_parser():
        parser = build()
        parse = parser.parse_args

        def parse_args(argv):
            live[0] = False
            args = parse(argv, namespace=Recorder())
            live[0] = True
            return args
        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(harness, "build_parser", recording_parser)
    for k, argv in enumerate(_runs_of(subcommand)):
        assert run_cli([*argv, "--out", str(tmp_path / str(k))]) in (0, 2), argv
    live[0] = False
    sub = build()._subparsers._group_actions[0].choices[subcommand]
    dests = {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
    assert sorted(dests - reads) == []


def test_readme_command_lines_parse():
    """Every ``sparseipm`` command in the README's code blocks names an
    existing subcommand, existing flags and existing solvers."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("sparseipm ")]
    assert lines
    parser = harness.build_parser()
    # a removed flag must not pass as an abbreviation of a longer one
    for p in [parser, *parser._subparsers._group_actions[0].choices.values()]:
        p.allow_abbrev = False
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
        if args.subcommand in FAMILIES:
            assert set(args.solver.split(",")) <= set(FAMILIES[args.subcommand].solvers), line
