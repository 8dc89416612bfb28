import argparse
import os
import subprocess
import sys

import numpy as np
import pytest

import sparsekaf.harness as harness_module
import sparsekaf.spectral as spectral
from sparsekaf import (
    ConfigError,
    CriterionConfig,
    Dictionary,
    ExperimentConfig,
    Kernel,
    LearnerConfig,
    NormRange,
    NumericalError,
    StepOutcome,
    Violation,
    build_config,
    run_online,
    spectral_report,
    synthesize,
    verify_dictionary,
)
from sparsekaf.cli import main, make_parser
from sparsekaf.harness import (
    load_csv,
    parse_config_file,
    synthesize_finite,
    verification_exit_code,
)


def make_config(**overrides):
    base = dict(
        kernel=Kernel.gaussian(0.5),
        criterion=CriterionConfig("coherence", 0.5),
        learner=LearnerConfig("nlms", 0.5, 1e-6),
        data="sinc1d",
        seed=0,
        length=200,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSynthesize:
    def test_sinc_noiseless_matches_sinc(self):
        xs, ys = synthesize("sinc1d", seed=4, length=50, noise=0.0)
        np.testing.assert_array_equal(ys, np.sinc(xs[:, 0]))
        assert xs.shape == (50, 1)
        assert np.all((-3 <= xs) & (xs <= 3))

    def test_sinc_noise_level(self):
        xs, ys = synthesize("sinc1d", seed=4, length=2000)
        resid = ys - np.sinc(xs[:, 0])
        assert np.std(resid) == pytest.approx(0.01, rel=0.2)
        assert np.max(np.abs(resid)) < 5 * 0.01

    def test_deterministic(self):
        a = synthesize("sinc1d", seed=9, length=100)
        b = synthesize("sinc1d", seed=9, length=100)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = synthesize("sinc1d", seed=10, length=100)
        assert not np.array_equal(a[0], c[0])

    def test_narma2_zero_input_bounded(self):
        xs, ys = synthesize("narma2", seed=0, length=10_000, noise=0.0)
        assert xs.shape == (10_000, 3)
        assert np.max(np.abs(ys)) < 10.0
        # zero input converges to the small fixed point of the recursion
        assert ys[-1] == pytest.approx(0.1910643, abs=1e-4)

    def test_narma2_default_bounded(self):
        _, ys = synthesize("narma2", seed=1, length=5000)
        assert np.max(np.abs(ys)) < 10.0

    # 0.9 drives the series to +inf; at 1e200 the cube u^3 itself overflows
    # and inf * 0 makes the series NaN
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("noise", [None, 0.0, 0.9, 1e200])
    def test_narma2_is_the_recursion_on_float64_scalars_bit_for_bit(self, noise):
        # the recursion on numpy float64 entries, written into a float64 array
        for seed in (0, 1, 7, 123):
            for length in (1, 2, 3, 50, 1500):
                amplitude = 0.5 if noise is None else noise
                rng = np.random.default_rng(seed)
                u = rng.uniform(0.0, amplitude, size=length + 2) if amplitude > 0 else np.zeros(length + 2)
                y = np.zeros(length + 2)
                for k in range(2, length + 2):
                    y[k] = 0.4 * y[k - 1] + 0.4 * y[k - 1] * y[k - 2] + 0.6 * u[k - 1] ** 3 + 0.1
                xs, ys = synthesize("narma2", seed=seed, length=length, noise=noise)
                assert ys.tobytes() == y[2:].tobytes()
                assert xs.tobytes() == np.column_stack([y[1:-1], y[:-2], u[1:-1]]).tobytes()

    @pytest.mark.parametrize("name", ["sinc1d", "narma2"])
    @pytest.mark.parametrize("noise", [-1.0, np.nan, np.inf])
    def test_negative_or_non_finite_noise_raises(self, name, noise):
        with pytest.raises(ValueError, match="noise"):
            synthesize(name, seed=0, length=10, noise=noise)

    def test_unknown_generator_lists_names(self):
        with pytest.raises(ValueError, match="sinc1d, narma2"):
            synthesize("lorenz", seed=0, length=10)


class TestLoadCsv:
    def test_reads_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,x1,y\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        xs, ys = load_csv(str(path))
        np.testing.assert_array_equal(xs, [[1.0, 2.0], [4.0, 5.0]])
        np.testing.assert_array_equal(ys, [3.0, 6.0])

    def test_malformed_row_diagnostics(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_csv(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_csv("/nonexistent/data.csv")

    def test_needs_two_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ConfigError, match="target"):
            load_csv(str(path))


class TestRunOnline:
    def test_single_sample(self):
        record = run_online(make_config(length=1))
        assert len(record.rows) == 1
        t, pred, err, admitted, m, a_sq, psi_sq = record.rows[0]
        assert (t, pred, admitted, m) == (1, 0.0, True, 1)
        assert err != 0.0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("column", ["alpha_sq_norm", "psi_sq_norm"])
    def test_non_finite_row_norm_raises_at_its_step(self, monkeypatch, tmp_path, column):
        # a stand-in learner whose state leaves float64's range at the last of three steps
        class State:
            def __init__(self, alpha, w):
                self.alpha, self.w = np.array(alpha), np.array(w)

            def coordinates(self, dictionary):
                return self.w

        def diverging_step(state, dictionary, x, y, learner):
            diverging_step.t += 1
            big = 1e200 if diverging_step.t == 3 else 1.0
            norms = ([big], [1.0]) if column == "alpha_sq_norm" else ([1.0], [big])
            return State(*norms), StepOutcome(0.0, y, False, 0)

        diverging_step.t = 0
        monkeypatch.setattr(harness_module, "step", diverging_step)
        out = tmp_path / "o"
        with pytest.raises(NumericalError, match=f"^step 3: nlms with eta 0.5 diverged: .*{column} inf"):
            run_online(make_config(length=3, out=str(out)))
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["lms_identity", "lms_gram", "nlms", "functional_sgd"])
    def test_psi_sq_norm_is_the_function_norm(self, algo):
        # run.csv's psi_sq_norm is ||L^T alpha||^2 for every rule; it agrees
        # with alpha^T K alpha to round-off
        record = run_online(make_config(length=300, learner=LearnerConfig(algo, 0.2, 0.01)))
        alpha, gram = record.state.alpha, record.dictionary.gram
        psi_sq = record.rows[-1][6]
        assert abs(psi_sq - float(alpha @ gram @ alpha)) <= 1e-12 * psi_sq

    def test_m_non_decreasing_and_bounded_by_t(self):
        record = run_online(make_config(length=300))
        ms = [row[4] for row in record.rows]
        ts = [row[0] for row in record.rows]
        assert all(m2 >= m1 for m1, m2 in zip(ms, ms[1:]))
        assert all(m <= t for m, t in zip(ms, ts))
        assert 1 < record.dictionary.m < 300

    def test_sparsification_discards_samples(self):
        record = run_online(make_config(length=1000))
        assert record.dictionary.m < 1000

    def test_output_files_and_determinism(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        run_online(make_config(length=150, out=out1))
        run_online(make_config(length=150, out=out2))
        for name in ("run.csv", "spectral.csv", "dictionary.txt"):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2, name
        header = open(os.path.join(out1, "run.csv")).readline().strip()
        assert header == "t,prediction,error,admitted,m,alpha_sq_norm,psi_sq_norm"

    def test_different_seed_changes_output(self, tmp_path):
        r1 = run_online(make_config(length=100))
        r2 = run_online(make_config(length=100, seed=3))
        assert r1.run_csv() != r2.run_csv()

    # functional seed 1: the run's last alpha^T K alpha and ||w||^2 differ in the last bit
    @pytest.mark.parametrize("algorithm, seed", [("nlms", 0), ("functional_sgd", 1)])
    def test_psi_norm_column_is_quadratic_form(self, algorithm, seed):
        record = run_online(make_config(length=50, seed=seed, learner=LearnerConfig(algorithm, 0.5, 1e-6)))
        final = record.rows[-1]
        alpha = record.state.alpha
        assert final[5] == pytest.approx(float(alpha @ alpha), rel=1e-12)
        assert final[6] == pytest.approx(float(alpha @ record.dictionary.gram @ alpha), rel=1e-12)
        if algorithm == "functional_sgd":
            # read as ||w||^2 from the state's Cholesky coordinates, w = L^T alpha
            w = record.state.coordinates(record.dictionary)
            assert final[6] == float(w @ w)

    def test_csv_data_source(self, tmp_path):
        data = tmp_path / "in.csv"
        xs, ys = synthesize("sinc1d", seed=2, length=40, noise=0.0)
        rows = ["x,y"] + [f"{float(x[0])!r},{float(y)!r}" for x, y in zip(xs, ys)]
        data.write_text("\n".join(rows) + "\n")
        record = run_online(make_config(data=f"csv:{data}", length=40))
        assert len(record.rows) == 40


class TestVerify:
    def test_built_dictionary_passes(self, tmp_path):
        record = run_online(make_config(length=400))
        code, report = verify_dictionary(record.dictionary, out=str(tmp_path))
        assert code == 0
        assert (tmp_path / "spectral.csv").exists()

    def test_orthonormal_dictionary_total_isometry(self):
        d = Dictionary.from_atoms(Kernel.linear(), CriterionConfig("approximation", 1.0), np.eye(4))
        code, report = verify_dictionary(d)
        assert code == 0
        by_kind = {bs.measure_kind: bs for bs in report.per_measure}
        assert by_kind["approximation"].measure_value == pytest.approx(1.0, abs=1e-12)
        assert by_kind["approximation"].isometry_nu == pytest.approx(0.0, abs=1e-12)
        assert report.isometry_extremes["approximation"] == pytest.approx((1.0, 1.0, 0.0), abs=1e-12)

    def test_duplicate_direction_file_flag_only(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text(
            "kernel linear\ncriterion coherence threshold=1.0\natom 1.0 0.0\natom 2.0 0.0\n"
        )
        d = Dictionary.load(path)
        code, report = verify_dictionary(d)
        assert code == 0
        coh = [bs for bs in report.per_measure if bs.measure_kind == "coherence"][0]
        assert coh.measure_value == pytest.approx(1.0, abs=1e-12)
        assert not coh.lin_indep_condition_holds

    def test_exit_policy_reads_hard(self, monkeypatch):
        # two Gaussian atoms with correlation exp(-0.08) = 0.92, admitted under Babel 0.5
        d = Dictionary.from_atoms(Kernel.gaussian(1.0), CriterionConfig("babel", 0.5), [[0.0], [0.4]])
        report = spectral_report(d)
        flags = {v.name: v.hard for v in report.violations}
        assert flags["babel:admission_threshold"] is False
        assert flags["approximation:eigen_lower"] is False and flags["approximation:eigen_upper"] is False
        assert not any(flags.values())
        assert verification_exit_code(report) == 0
        # a norm range the atoms do not have: every sound window misses the spectrum
        report = spectral_report(d, nr=NormRange(0.5, 0.5))
        hard = {v.name for v in report.violations if v.hard}
        assert {"distance:eigen_upper", "coherence:eigen_upper", "babel:eigen_upper"} <= hard
        assert {name.split(":")[0] for name in hard} == {"distance", "coherence", "babel"}
        soft = {v.name for v in report.violations if not v.hard}
        assert {"approximation:eigen_upper", "babel:admission_threshold"} <= soft
        assert verification_exit_code(report) == 3
        monkeypatch.setattr(spectral, "gersgorin_margin", lambda gram, values: 1e-6)
        report = spectral_report(d)
        assert report.violations[0] == Violation("gersgorin", 1e-6, True)
        assert verification_exit_code(report) == 3


class TestConfig:
    def test_parse_file_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "# experiment\n"
            "kernel = gaussian\n"
            "sigma = 0.5\n"
            "criterion = coherence\n"
            "threshold = 0.4\n"
            "algo = nlms\n"
            "eta = 0.1\n"
            "length = 50\n"
        )
        mapping = parse_config_file(str(cfg_file))
        cfg = build_config(mapping)
        assert cfg.kernel.sigma == 0.5
        assert cfg.criterion.threshold == 0.4
        assert cfg.learner.eta == 0.1
        mapping["eta"] = "0.9"
        assert build_config(mapping).learner.eta == 0.9

    def test_unknown_key_line_number(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("kernel = gaussian\nsgima = 0.5\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_file(str(cfg_file))

    def test_bad_value_field_diagnostics(self):
        with pytest.raises(ConfigError, match="eta"):
            build_config({"eta": "fast"})
        with pytest.raises(ConfigError, match="algo"):
            build_config({"algo": "adam"})
        with pytest.raises(ConfigError, match="kernel"):
            build_config({"kernel": "sigmoid"})
        # a parameter the chosen family does not read must still parse
        with pytest.raises(ConfigError, match="sigma"):
            build_config({"kernel": "linear", "sigma": "abc"})
        with pytest.raises(ConfigError, match="degree"):
            build_config({"kernel": "gaussian", "degree": "2.5"})

    def test_defaults(self):
        cfg = build_config({})
        assert cfg.kernel.family == "gaussian"
        assert cfg.criterion.kind == "coherence"
        assert cfg.learner.algorithm == "nlms"
        assert cfg.length == 1000


RUN_OPTIONS = {
    "--config", "--data", "--kernel", "--sigma", "--degree", "--offset", "--criterion", "--threshold",
    "--max-atoms", "--algo", "--eta", "--eps", "--seed", "--length", "--noise", "--out",
}
# 16 + 6 + 4 + 3 = 29 flags; each subcommand took 16 or 17 before, 66 in all
CLI_OPTIONS = {
    "run": RUN_OPTIONS,
    "synthesize": {"--config", "--data", "--seed", "--length", "--noise", "--out"},
    "verify": {"--config", "--dict", "--out", "--seed"},
    "measure": {"--config", "--dict", "--out"},
}
# every subcommand used to take all of run's options, and verify and measure --dict too
FORMER_OPTIONS = {"run": RUN_OPTIONS, "synthesize": RUN_OPTIONS,
                  "verify": RUN_OPTIONS | {"--dict"}, "measure": RUN_OPTIONS | {"--dict"}}


def subcommand_options(parser, name):
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {opt for action in sub.choices[name]._actions for opt in action.option_strings} - {"-h", "--help"}


class TestCli:
    @pytest.mark.parametrize("name, count", [("run", 16), ("synthesize", 6), ("verify", 4), ("measure", 3)])
    def test_subcommand_takes_only_the_options_it_reads(self, name, count):
        options = subcommand_options(make_parser(), name)
        assert options == CLI_OPTIONS[name]
        assert len(options) == count

    @pytest.mark.parametrize(
        "name, flag",
        [(name, flag) for name in ("synthesize", "verify", "measure")
         for flag in sorted(FORMER_OPTIONS[name] - CLI_OPTIONS[name])],
    )
    def test_formerly_accepted_run_flags_exit_one(self, name, flag, capsys):
        assert main([name, flag, "1"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_synthesize_honours_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("data = narma2\nlength = 7\nseed = 3\n")
        out = str(tmp_path / "data")
        assert main(["synthesize", "--config", str(cfg), "--out", out]) == 0
        xs, ys = load_csv(os.path.join(out, "data.csv"))
        want_xs, want_ys = synthesize("narma2", seed=3, length=7)
        np.testing.assert_array_equal(xs, want_xs)
        np.testing.assert_array_equal(ys, want_ys)
        assert "(7 samples)" in capsys.readouterr().out

    def test_synthesize_checks_its_config_like_run(self, tmp_path):
        assert main(["synthesize", "--length", "0", "--out", str(tmp_path)]) == 1
        assert main(["synthesize", "--seed", "x", "--out", str(tmp_path)]) == 1
        assert main(["synthesize", "--noise", "-1", "--out", str(tmp_path)]) == 1
        assert not (tmp_path / "data.csv").exists()

    @pytest.mark.parametrize(
        "argv, where",
        [(["synthesize", "--length", "3000", "--seed", "1"], "sample 108 of 3000"),
         (["run"], "sample 107 of 1000")],
    )
    def test_divergent_narma2_exits_one_before_writing(self, tmp_path, capsys, argv, where):
        # at input amplitude 0.9 the narma2 recursion leaves float64's range
        out = tmp_path / "o"
        assert main([*argv, "--data", "narma2", "--noise", "0.9", "--out", str(out)]) == 1
        assert f"narma2 with noise 0.9 diverges: {where} is inf" in capsys.readouterr().err
        assert not out.exists()

    DIVERGENT = ["run", "--data", "sinc1d", "--kernel", "polynomial", "--degree", "3", "--offset", "0.5",
                 "--criterion", "babel", "--threshold", "3.0", "--max-atoms", "4", "--eta", "0.1",
                 "--eps", "0.01", "--seed", "2"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "algo, name, length, t",
        # at length 148 the first non-finite row is the last one
        [("lms", "lms_identity", 1000, 148), ("lms", "lms_identity", 148, 148),
         ("lms_gram", "lms_gram", 1000, 148), ("functional_sgd", "functional_sgd", 1000, 343)],
    )
    def test_divergent_learner_exits_two_before_writing(self, tmp_path, capsys, algo, name, length, t):
        out = tmp_path / "o"
        argv = [*self.DIVERGENT, "--algo", algo, "--length", str(length), "--out", str(out)]
        assert main(argv) == 2
        assert f"numerical failure: step {t}: {name} with eta 0.1 diverged: alpha_sq_norm inf" in capsys.readouterr().err
        assert not out.exists()

    def test_divergent_learner_exits_two_under_warnings_as_errors(self, tmp_path):
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "sparsekaf.cli", *self.DIVERGENT, "--algo", "lms",
             "--length", "1000", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("numerical failure: step")
        assert not out.exists()

    def test_nlms_eta_of_two_exits_one(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["run", "--algo", "nlms", "--eta", "2", "--length", "50", "--out", str(out)]) == 1
        assert "nlms step size eta must be < 2" in capsys.readouterr().err
        assert not out.exists()

    def test_finite_series_pass_the_divergence_check_unchanged(self):
        for name, noise in (("narma2", 0.8), ("narma2", None), ("sinc1d", 2.0)):
            got, want = synthesize_finite(name, 3, 2000, noise), synthesize(name, 3, 2000, noise)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @pytest.mark.parametrize(
        "algo", ["lms", "lms_identity", "lms-gram", "lms_gram", "nlms", "functional", "functional_sgd"]
    )
    def test_run_algo_takes_every_config_spelling(self, tmp_path, algo):
        assert main(["run", "--algo", algo, "--length", "30", "--out", str(tmp_path)]) == 0

    def test_benchmark_verify_invocation(self, tmp_path):
        # perfbench/workloads.py runs verify with --seed, which verify ignores
        assert main(["run", "--length", "60", "--sigma", "0.5", "--out", str(tmp_path / "exp")]) == 0
        out = str(tmp_path / "verify")
        assert main(["verify", "--dict", str(tmp_path / "exp" / "dictionary.txt"), "--seed", "0", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "spectral.csv"))

    @pytest.mark.parametrize(
        "flags, field",
        [(["--eps", "nan"], "eps"), (["--eta", "inf"], "eta"), (["--noise", "nan"], "noise"),
         (["--kernel", "polynomial", "--offset", "nan"], "offset")],
    )
    def test_non_finite_values_exit_one_naming_the_field(self, tmp_path, capsys, flags, field):
        out = tmp_path / "o"
        assert main(["run", "--length", "30", *flags, "--out", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["inf", "nan"])
    def test_non_finite_sigma_exits_one(self, tmp_path, capsys, sigma):
        # with an infinite bandwidth every kernel value is 1 and coherence would
        # keep one atom
        out = tmp_path / "o"
        assert main(["run", "--length", "50", "--sigma", sigma, "--out", str(out)]) == 1
        assert "sigma must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["verify", "measure"])
    def test_dict_commands_open_their_config(self, tmp_path, capsys, name):
        assert main(["run", "--length", "60", "--sigma", "0.5", "--out", str(tmp_path / "exp")]) == 0
        capsys.readouterr()
        path = str(tmp_path / "exp" / "dictionary.txt")
        assert main([name, "--dict", path, "--config", str(tmp_path / "missing.cfg")]) == 1
        assert "cannot read config" in capsys.readouterr().err
        bad = tmp_path / "bad.cfg"
        bad.write_text("sigma = 0\n")
        assert main([name, "--dict", path, "--config", str(bad)]) == 1
        assert "sigma" in capsys.readouterr().err

    def test_verify_writes_to_the_config_out(self, tmp_path):
        assert main(["run", "--length", "60", "--sigma", "0.5", "--out", str(tmp_path / "exp")]) == 0
        path = str(tmp_path / "exp" / "dictionary.txt")
        cfg = tmp_path / "v.cfg"
        cfg.write_text(f"out = {tmp_path / 'from-config'}\n")
        assert main(["verify", "--dict", path, "--config", str(cfg)]) == 0
        assert (tmp_path / "from-config" / "spectral.csv").exists()
        # the flag overrides the file
        assert main(["verify", "--dict", path, "--config", str(cfg), "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "spectral.csv").read_bytes() == (
            tmp_path / "from-config" / "spectral.csv").read_bytes()

    def test_non_finite_csv_target_exits_one(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x,y\n0.0,1.0\n0.5,nan\n1.0,1.0\n")
        assert main(["run", "--data", f"csv:{data}", "--out", str(tmp_path / "o")]) == 1
        assert "y must be finite" in capsys.readouterr().err

    def test_run_and_verify_and_measure(self, tmp_path, capsys):
        out = str(tmp_path / "exp")
        rc = main([
            "run", "--data", "sinc1d", "--length", "120", "--seed", "1",
            "--kernel", "gaussian", "--sigma", "0.5", "--criterion", "coherence",
            "--threshold", "0.5", "--algo", "nlms", "--eta", "0.5", "--eps", "1e-6",
            "--out", out,
        ])
        assert rc == 0
        for name in ("run.csv", "spectral.csv", "dictionary.txt"):
            assert os.path.exists(os.path.join(out, name))
        rc = main(["verify", "--dict", os.path.join(out, "dictionary.txt")])
        assert rc == 0
        assert "verification passed" in capsys.readouterr().out
        rc = main(["measure", "--dict", os.path.join(out, "dictionary.txt")])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert [ln.split()[0] for ln in lines] == ["distance", "approximation", "coherence", "babel"]

    def test_synthesize_writes_csv(self, tmp_path):
        out = str(tmp_path)
        rc = main(["synthesize", "--data", "narma2", "--length", "30", "--seed", "2", "--out", out])
        assert rc == 0
        xs, ys = load_csv(os.path.join(out, "data.csv"))
        assert xs.shape == (30, 3)

    def test_usage_errors_exit_one(self, tmp_path):
        assert main(["run", "--data", "lorenz", "--out", str(tmp_path)]) == 1
        assert main(["verify", "--dict", "/nonexistent/dict.txt"]) == 1
        assert main(["run", "--config", "/nonexistent.cfg", "--out", str(tmp_path)]) == 1
        assert main(["bogus-command"]) == 1
        assert main(["run", "--threshold", "not-a-number", "--out", str(tmp_path)]) == 1

    def test_numerical_failure_exits_two(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("x,y\n0.0,1.0\n1e-9,1.0\n")
        rc = main([
            "run", "--data", f"csv:{data}", "--kernel", "gaussian", "--sigma", "1.0",
            "--criterion", "coherence", "--threshold", "1.0", "--algo", "nlms",
            "--eta", "0.5", "--out", str(tmp_path / "o"),
        ])
        assert rc == 2

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("data = sinc1d\nlength = 60\nsigma = 0.5\n")
        out = str(tmp_path / "res")
        rc = main(["run", "--config", str(cfg), "--length", "40", "--out", out])
        assert rc == 0
        n_rows = len(open(os.path.join(out, "run.csv")).read().strip().split("\n")) - 1
        assert n_rows == 40

    def test_console_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "sparsekaf.cli", "synthesize", "--length", "5",
             "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert os.path.exists(tmp_path / "data.csv")
