import json

import numpy as np
import pytest

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
        with pytest.raises(ValueError):
            gen_blur_instance(img, kernel, -1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            gen_blur_instance(img, kernel, 10.0, 0.0, seed=0)


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
        write_pgm(path, img, maxval=255, binary=True)
        back, maxval = read_pgm(path)
        assert maxval == 255
        np.testing.assert_array_equal(back, img)

    def test_ascii_round_trip(self, tmp_path):
        img = np.arange(12).reshape(3, 4) * 20
        path = tmp_path / "img.pgm"
        write_pgm(path, img, maxval=255, binary=False)
        back, _ = read_pgm(path)
        np.testing.assert_array_equal(back, img)

    def test_sixteen_bit_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        img = rng.integers(0, 40000, size=(5, 5))
        path = tmp_path / "img.pgm"
        write_pgm(path, img, maxval=65535)
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


class TestCli:
    def test_portfolio_writes_outputs(self, tmp_path):
        code = run_cli(["portfolio", "--s", "5", "--m", "3", "--seed", "1",
                        "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report_ippmm.json").exists()
        scores = (tmp_path / "scores.csv").read_text().splitlines()
        assert scores[0] == "ratio,ratio_h,ratio_t"
        assert len(scores) == 2

    def test_portfolio_asb_solver(self, tmp_path):
        code = run_cli(["portfolio", "--solver", "asb", "--s", "4", "--m", "3",
                        "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report_asb.json").exists()

    def test_fmri_fista(self, tmp_path):
        code = run_cli(["fmri", "--solver", "fista", "--s", "10", "--grid",
                        "3x3", "--out", str(tmp_path)])
        assert code == 0
        scores = (tmp_path / "scores.csv").read_text().splitlines()
        assert scores[0] == "objective,density_pct"

    def test_restore_small(self, tmp_path):
        code = run_cli(["restore", "--size", "16", "--peak", "50",
                        "--max-iter", "8", "--out", str(tmp_path)])
        assert code == 0
        img, maxval = read_pgm(tmp_path / "restored.pgm")
        assert img.shape == (16, 16) and maxval == 255

    def test_classify_runs(self, tmp_path):
        code = run_cli(["classify", "--n", "60", "--s", "12", "--out",
                        str(tmp_path)])
        assert code == 0
        scores = (tmp_path / "scores.csv").read_text().splitlines()
        assert scores[0].startswith("split,accuracy_pct")
        assert scores[1].startswith("train") and scores[2].startswith("test")

    def test_bench_runs_all_solvers_on_one_instance(self, tmp_path):
        code = run_cli(["bench", "--family", "portfolio", "--s", "4", "--m",
                        "3", "--solvers", "ippmm,asb", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "bench.csv").read_text().splitlines()
        assert rows[0] == "solver,status,iters,time_s,objective"
        obj = [float(r.split(",")[-1]) for r in rows[1:]]
        assert abs(obj[0] - obj[1]) <= 1e-3 * (1 + abs(obj[1]))

    def test_classify_defaults_pose_the_sparse_regime(self, tmp_path):
        code = run_cli(["classify", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "scores.csv").read_text().splitlines()
        density = float(rows[1].split(",")[2])
        assert density <= 30.0

    def test_bench_rejects_unknown_solver_before_solving(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(["bench", "--family", "portfolio", "--s", "4", "--m",
                        "3", "--solvers", "ippmm,zzz", "--out", str(out)])
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_family_subcommand_and_bench_solve_one_instance(self, family,
                                                            tmp_path):
        flags = {"portfolio": ["--s", "4", "--m", "3"],
                 "fmri": ["--s", "10", "--grid", "3x3"],
                 "restore": ["--size", "8", "--peak", "50", "--max-iter", "8"],
                 "classify": ["--n", "60", "--s", "12"]}[family]
        sub, bench = tmp_path / "sub", tmp_path / "bench"
        assert run_cli([family, *flags, "--out", str(sub)]) == 0
        scores = (sub / "scores.csv").read_text().splitlines()
        assert scores[0] == ",".join(FAMILIES[family].header)
        report = json.loads((sub / "report_ippmm.json").read_text())
        assert run_cli(["bench", "--family", family, "--solvers", "ippmm",
                        *flags, "--out", str(bench)]) == 0
        # bench.csv holds the original-formulation objective at 6 digits;
        # the report holds the solved program's, so compare reports exactly
        bench_report = json.loads((bench / "report_ippmm.json").read_text())
        assert bench_report["objective"] == report["objective"]
        rows = (bench / "bench.csv").read_text().splitlines()
        solver, status, iters = rows[1].split(",")[:3]
        assert (solver, status, int(iters)) == ("ippmm", report["status"],
                                                report["iters"])

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

    def test_bad_grid_spec(self, tmp_path):
        code = run_cli(["fmri", "--grid", "3xbad", "--out", str(tmp_path)])
        assert code == 1

    def test_unknown_subcommand(self):
        assert run_cli(["frobnicate"]) == 1
