import argparse
import math
import os
import re
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
    ModelState,
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
from sparsekaf.learners import ALGORITHMS, step
from sparsekaf.harness import (
    load_csv,
    parse_config_file,
    synthesize_finite,
    verification_exit_code,
)


# the least and the greatest Gaussian bandwidth, as in test_kernels.py
SIGMA_RANGE = (2.0**-511, math.sqrt(sys.float_info.max / 2))


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

    def test_row_with_another_field_count(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x0,x1,y\n1.0,2.0,3.0\n4.0,5.0\n")
        with pytest.raises(ConfigError, match=r"data.csv line 3: expected 3 fields, got 2$"):
            load_csv(str(path))

    @pytest.mark.parametrize("text", ["", "x0,y\n", "x0,y\n\n"])
    def test_no_data_rows(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"data.csv: no data rows$"):
            load_csv(str(path))

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


def stepped(cfg):
    """run_online's rows and atoms, or its NumericalError's text, from a plain loop of ``step``."""
    xs, ys = harness_module._resolve_data(cfg)
    dictionary, state, rows = Dictionary(cfg.kernel, cfg.criterion), ModelState.empty(), []
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(xs.shape[0]):
            try:
                state, outcome = step(state, dictionary, xs[t], float(ys[t]), cfg.learner)
            except NumericalError as exc:
                return f"step {t + 1}: {exc}"
            alpha_sq = float(state.alpha @ state.alpha)
            w = state.coordinates(dictionary)
            psi_sq = float(w @ w)
            if not (np.isfinite(alpha_sq) and np.isfinite(psi_sq)):
                return f"step {t + 1}: diverged"
            rows.append((t + 1, *outcome, alpha_sq, psi_sq))
    return rows, dictionary.atoms.tobytes(), state.alpha.tobytes()


def online(cfg):
    """:func:`stepped`'s figures from run_online."""
    try:
        record = run_online(cfg)
    except NumericalError as exc:
        return re.sub(r"^(step \d+): .* diverged: .*", r"\1: diverged", str(exc))
    return record.rows, record.dictionary.atoms.tobytes(), record.state.alpha.tobytes()


class TestChunkedRows:
    """run_online's Gaussian rows, a chunk at a time, against a plain loop of ``step``."""

    KERNELS = {"gaussian": Kernel.gaussian(0.3), "polynomial": Kernel.polynomial(3, 0.5), "linear": Kernel.linear()}
    THRESHOLDS = {"distance": 0.3, "approximation": 0.1, "coherence": 0.7, "babel": 3.0}

    @staticmethod
    def count_steps(monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[2])
            return step(*args)

        monkeypatch.setattr(harness_module, "step", counting)
        return calls

    @pytest.mark.parametrize("algo", ALGORITHMS)
    @pytest.mark.parametrize("kind", sorted(THRESHOLDS))
    @pytest.mark.parametrize("family", sorted(KERNELS))
    def test_rows_and_record_equal_a_step_loop(self, monkeypatch, family, kind, algo):
        # narma2's 3-d inputs, past two chunk boundaries; linear and polynomial
        # rows stay one per step
        cfg = make_config(kernel=self.KERNELS[family], criterion=CriterionConfig(kind, self.THRESHOLDS[kind], 80),
                          learner=LearnerConfig(algo, 0.05, 0.01), data="narma2", seed=3, length=150)
        expected = stepped(cfg)
        calls = self.count_steps(monkeypatch)
        assert online(cfg) == expected
        steps = int(re.match(r"step (\d+)", expected)[1]) if isinstance(expected, str) else 150
        # Gaussian rows go through step only in the chunk that starts with an empty dictionary
        assert len(calls) == (min(64, steps) if family == "gaussian" else steps)

    @pytest.mark.parametrize("chunk", [1, 64])
    @pytest.mark.parametrize("length", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_chunk_boundaries(self, monkeypatch, chunk, length, algo):
        monkeypatch.setattr(harness_module, "_CHUNK", chunk)
        for kind in ("coherence", "approximation"):
            cfg = make_config(kernel=Kernel.gaussian(0.2), criterion=CriterionConfig(kind, 0.6 if kind == "coherence" else 0.2),
                              learner=LearnerConfig(algo, 0.5, 1e-6), seed=7, length=length)
            expected = stepped(cfg)
            calls = self.count_steps(monkeypatch)
            assert online(cfg) == expected
            # only the rows of the chunk that starts with an empty dictionary go through step
            assert len(calls) == min(chunk, length)

    @pytest.mark.parametrize("chunk", [1, 64])
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_admission_at_a_chunks_first_and_last_row(self, tmp_path, monkeypatch, chunk, algo):
        # every input but the novel ones repeats the second atom and is
        # rejected; each novel one is far from every atom and admitted: at
        # rows 64 (chunk 1's last), 65 (chunk 2's first), 128 (chunk 2's
        # last), 129 and 150, the last of all
        monkeypatch.setattr(harness_module, "_CHUNK", chunk)
        novel = {1: 0.0, 2: -1.0, 64: 1.0, 65: 2.0, 100: 3.0, 128: 4.0, 129: 5.0, 150: 6.0}
        xs = [novel.get(t, -1.0) for t in range(1, 151)]
        data = tmp_path / "d.csv"
        data.write_text("x,y\n" + "".join(f"{x!r},{math.sin(x + 0.1 * t)!r}\n" for t, x in enumerate(xs)))
        cfg = make_config(kernel=Kernel.gaussian(0.1), criterion=CriterionConfig("coherence", 0.5),
                          learner=LearnerConfig(algo, 0.5, 1e-6), data=f"csv:{data}")
        expected = stepped(cfg)
        assert online(cfg) == expected
        assert [row[0] for row in expected[0] if row[3]] == sorted(novel)

    @pytest.mark.parametrize("column", ["x", "y"])
    @pytest.mark.parametrize("row", [1, 64, 65])
    def test_non_finite_sample_fails_at_its_step_writing_nothing(self, tmp_path, monkeypatch, capsys, row, column):
        # load_csv and synthesize_finite refuse non-finite data before any
        # step, so the samples reach run_online directly
        xs, ys = synthesize("sinc1d", seed=2, length=130)
        (xs[:, 0] if column == "x" else ys)[row - 1] = np.nan
        monkeypatch.setattr(harness_module, "_resolve_data", lambda cfg: (xs, ys))
        calls = self.count_steps(monkeypatch)
        out = tmp_path / "o"
        assert main(["run", "--sigma", "0.3", "--out", str(out)]) == 1
        message = "x contains non-finite entries" if column == "x" else "y must be finite, got nan"
        assert capsys.readouterr().err == f"error: {message}\n"
        # the failing step is the sample's own, after every step before it
        assert len(calls) == row
        assert not out.exists()


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
        assert report.isometry_extremes(by_kind["approximation"]) == pytest.approx((1.0, 1.0, 0.0), abs=1e-12)

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

    @pytest.mark.parametrize("kernel, atoms, R_sq, babel", [
        (Kernel.linear(), [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]], 4.0, ["0.0", "0.0", "4.0"]),
        # every atom zero: Babel's window is (0, 0), which gives no isometry constant
        (Kernel.linear(), [[0.0, 0.0]], 0.0, ["nan"] * 3),
        (Kernel.polynomial(2, 0.0), [[0.0, 0.0]] * 2, 0.0, ["nan"] * 3),
    ], ids=["one-zero-atom", "linear-all-zero", "polynomial-all-zero"])
    def test_zero_atom(self, tmp_path, capsys, kernel, atoms, R_sq, babel):
        # kappa(0, 0) = 0: distance and coherence divide by it, approximation meets a zero pivot
        d = Dictionary.from_atoms(kernel, CriterionConfig("coherence", 0.5), atoms)
        if d.m > 1:
            for kind in ("distance", "coherence"):
                with pytest.raises(NumericalError, match=f"zero self-similarity; {kind} measure undefined"):
                    d.measure(kind)
        assert d.measure("babel") == 0.0
        report = spectral_report(d)
        assert (report.norm.r_sq, report.norm.R_sq) == (0.0, R_sq)
        rows = {line.split(",")[0]: line.split(",") for line in report.to_csv().splitlines()[1:]}
        for kind in ("distance", "approximation", "coherence"):
            assert rows[kind][1:4] == ["nan"] * 3 and rows[kind][-1] == "0"
        assert rows["babel"][1:4] == babel and rows["babel"][-1] == "0"
        code, again = verify_dictionary(d)
        assert code == 0 and again.to_csv() == report.to_csv()
        d.save(tmp_path / "zero.txt")
        assert main(["verify", "--dict", str(tmp_path / "zero.txt"), "--out", str(tmp_path / "v")]) == 0
        assert (tmp_path / "v" / "spectral.csv").read_text() == report.to_csv()
        out = capsys.readouterr().out
        assert "verification passed" in out
        # a NaN row has no window to call vacuous; Babel's lower end 0.0 is one
        noted = {line.split(":")[0] for line in out.splitlines() if line.endswith(" (vacuous lower bound)")}
        assert noted == ({"babel"} if babel[1] == "0.0" else set())

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
        monkeypatch.setattr(spectral, "_disc_margin", lambda centers, radii, values: 1e-6)
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

    def test_line_without_equals_sign(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("kernel = gaussian\nsigma 0.5  # a comment\n")
        with pytest.raises(ConfigError, match=r"exp.cfg line 2: expected key=value, got 'sigma 0.5'$"):
            parse_config_file(str(cfg_file))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown config key\(s\) 'sgima', 'lenght'$"):
            build_config({"sgima": "0.5", "eta": "0.1", "lenght": "5"})

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
        assert cfg.data == "sinc1d"
        assert cfg.kernel == Kernel.gaussian(1.0)
        assert cfg.criterion == CriterionConfig("coherence", 0.5)
        assert cfg.learner == LearnerConfig("nlms", 0.5, 1e-6)
        assert (cfg.seed, cfg.length) == (0, 1000)
        assert type(cfg.seed) is int and type(cfg.length) is int
        assert cfg.criterion.max_atoms is None and cfg.noise is None and cfg.out is None
        # a Gaussian kernel resets degree and offset to the class defaults, so read them from a polynomial one
        poly = build_config({"kernel": "polynomial"}).kernel
        assert (poly.degree, poly.offset) == (2, 1.0) and type(poly.degree) is int


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
    def test_subcommand_takes_only_the_options_it_reads(self, name, count, capsys):
        options = subcommand_options(make_parser(), name)
        assert options == CLI_OPTIONS[name]
        assert len(options) == count
        # --help of the tool and of the subcommand exits 0 and prints the usage
        for argv, usage in ((["--help"], "usage: sparsekaf [-h]"), ([name, "--help"], f"usage: sparsekaf {name} [-h]")):
            assert main(argv) == 0
            assert capsys.readouterr().out.startswith(usage)

    @pytest.mark.parametrize(
        "name, flag",
        [(name, flag) for name in ("synthesize", "verify", "measure")
         for flag in sorted(FORMER_OPTIONS[name] - CLI_OPTIONS[name])],
    )
    def test_formerly_accepted_run_flags_exit_one(self, name, flag, capsys):
        assert main([name, flag, "1"]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    INTEGRAL = {"kernel": "polynomial", "degree": "3.0", "criterion": "babel", "threshold": "3.0", "max_atoms": "5.0",
                "seed": "2.0", "length": "50.0"}

    @staticmethod
    def flags(values):
        return [word for key, value in values.items() for word in (f"--{key.replace('_', '-')}", value)]

    @pytest.mark.parametrize("source", ["flags", "config"])
    def test_integral_float_degree_and_cap_are_stored_as_ints(self, tmp_path, source):
        argv = ["run", "--data", "narma2", "--out", str(tmp_path / "o")]
        if source == "flags":
            argv += self.flags(self.INTEGRAL)
        else:
            (tmp_path / "exp.cfg").write_text("".join(f"{key} = {value}\n" for key, value in self.INTEGRAL.items()))
            argv += ["--config", str(tmp_path / "exp.cfg")]
        assert main(argv) == 0
        text = (tmp_path / "o" / "dictionary.txt").read_text()
        assert "kernel polynomial degree=3 offset=1.0\ncriterion babel threshold=3.0 max_atoms=5\n" in text
        # seed 2.0 and length 50.0 run as seed 2 and length 50
        ints = self.flags({key: value.removesuffix(".0") for key, value in self.INTEGRAL.items()})
        assert main(["run", "--data", "narma2", *ints, "--out", str(tmp_path / "i")]) == 0
        for name in ("run.csv", "spectral.csv", "dictionary.txt"):
            assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "i" / name).read_bytes()
        assert len((tmp_path / "o" / "run.csv").read_text().splitlines()) == 51

    @pytest.mark.parametrize("flag", ["--degree", "--max-atoms", "--seed", "--length"])
    def test_non_integral_degree_or_cap_exits_one(self, tmp_path, capsys, flag):
        out = tmp_path / "o"
        assert main(["run", "--kernel", "polynomial", "--length", "50", flag, "2.5", "--out", str(out)]) == 1
        assert f"field {flag[2:].replace('-', '_')}='2.5': not an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_synthesize_honours_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("data = narma2\nlength = 7\nseed = 3\n")
        out = str(tmp_path / "data")
        assert main(["synthesize", "--config", str(cfg), "--out", out]) == 0
        lines = (tmp_path / "data" / "data.csv").read_text().splitlines()
        assert lines[0] == "x0,x1,x2,y" and len(lines) == 8
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

    @pytest.mark.parametrize("flags, message", [
        (["--algo", "nlms", "--eta", "2"], "nlms step size eta must be < 2"),
        (["--algo", "functional", "--eta", "2", "--eps", "0.6"], "functional_sgd needs eta*eps < 1"),
    ], ids=["nlms", "functional"])
    def test_unstable_step_size_exits_one(self, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        assert main(["run", *flags, "--length", "50", "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
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

    # narma2 has 3-d inputs, so a linear kernel's feature space has rank 3 and
    # the default polynomial kernel's (degree 2) rank 10; a cap at or above the
    # rank lets distance and Babel runs reach a near-singular admission (exit 2)
    ROUND_TRIPS = {
        f"{family}-{cap}-{kind}-{threshold}": ["--data", "narma2", "--kernel", family, "--criterion", kind,
                                               "--threshold", threshold, "--max-atoms", cap, "--length", "300",
                                               "--seed", "1"]
        for family, cap in (("linear", "2"), ("polynomial", "9"), ("gaussian", "30"))
        for kind, threshold in (("distance", "0.05"), ("approximation", "0.05"), ("coherence", "0.95"),
                                ("babel", "3.0"))
    } | {
        # an ill-conditioned polynomial dictionary, a linear one without a cap,
        # and an lms_gram run
        "polynomial-3-0.5-babel": ["--data", "narma2", "--kernel", "polynomial", "--degree", "3", "--offset", "0.5",
                                   "--criterion", "babel", "--threshold", "3.0", "--length", "1000", "--seed", "3"],
        "linear-approximation": ["--data", "narma2", "--kernel", "linear", "--criterion", "approximation",
                                 "--threshold", "0.05", "--length", "300", "--seed", "1"],
        "gaussian-lms-gram": ["--data", "sinc1d", "--sigma", "0.3", "--criterion", "coherence", "--threshold", "0.5",
                              "--algo", "lms-gram", "--eta", "0.2", "--eps", "0.05", "--length", "1000", "--seed", "2"],
    }

    @pytest.mark.parametrize("flags", ROUND_TRIPS.values(), ids=ROUND_TRIPS.keys())
    def test_verify_rewrites_the_run_spectral_csv(self, tmp_path, flags):
        out = tmp_path / "run"
        assert main(["run", *flags, "--out", str(out)]) == 0
        assert main(["verify", "--dict", str(out / "dictionary.txt"), "--out", str(tmp_path / "verify")]) == 0
        assert (tmp_path / "verify" / "spectral.csv").read_bytes() == (out / "spectral.csv").read_bytes()

    def test_benchmark_verify_invocation(self, tmp_path):
        # perfbench/workloads.py runs verify with --seed, which verify ignores
        assert main(["run", "--length", "60", "--sigma", "0.5", "--out", str(tmp_path / "exp")]) == 0
        out = str(tmp_path / "verify")
        assert main(["verify", "--dict", str(tmp_path / "exp" / "dictionary.txt"), "--seed", "0", "--out", out]) == 0
        assert (tmp_path / "verify" / "spectral.csv").read_bytes() == (tmp_path / "exp" / "spectral.csv").read_bytes()

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

    # at the least bandwidth 2 sigma^2 is 2^-1021, so a squared distance past
    # about 8 makes d_sq / (2 sigma^2) overflow to inf, and its exp exactly 0
    @pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")
    @pytest.mark.parametrize("end", [0, 1], ids=["least", "greatest"])
    def test_sigma_range_ends_through_config_and_dictionary_files(self, tmp_path, capsys, end):
        inside = SIGMA_RANGE[end]
        outside = math.nextafter(inside, (0.0, math.inf)[end])
        for sigma, code in ((inside, 0), (outside, 1)):
            out = tmp_path / f"o{code}"
            (tmp_path / "exp.cfg").write_text(f"sigma = {sigma!r}\nlength = 20\n")
            assert main(["run", "--config", str(tmp_path / "exp.cfg"), "--out", str(out)]) == code
            (tmp_path / "d.txt").write_text(f"kernel gaussian sigma={sigma!r}\ncriterion coherence threshold=0.5\n"
                                            "atom 0.0\natom 1.0\n")
            assert main(["verify", "--dict", str(tmp_path / "d.txt")]) == code
            err = capsys.readouterr().err
            assert (err.count("gaussian bandwidth sigma must be finite and > 0") == 2) == (code == 1), err
            assert out.exists() == (code == 0)

    @pytest.mark.parametrize("sigma", [math.nextafter(SIGMA_RANGE[0], 0.0), 1e-300,
                                       math.nextafter(SIGMA_RANGE[1], math.inf), 1e155])
    def test_sigma_out_of_range_exits_one_under_warnings_as_errors(self, tmp_path, sigma):
        # 1e-300 divided by zero, and 1e155 raised OverflowError from sigma**2
        out = tmp_path / "o"
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "sparsekaf.cli", "run", "--sigma", repr(sigma),
                               "--length", "20", "--out", str(out)], capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: gaussian bandwidth sigma must be finite and > 0"), proc.stderr
        assert proc.stderr.endswith(f", got {sigma!r}\n") and not proc.stdout
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("name", ["verify", "measure"])
    def test_overflowing_self_similarity_exits_two(self, tmp_path, capsys, name):
        # measure printed distance 1.34e154, approximation inf and babel nan, and exited 0
        path = tmp_path / "big.txt"
        path.write_text("kernel linear\ncriterion coherence threshold=0.5\natom 1e200 0.0\natom 0.0 1e200\n")
        assert main([name, "--dict", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr() == ("", "numerical failure: atom 1: kappa(x, x) = inf is past float64's range\n")
        assert not (tmp_path / "o").exists()

    # dictionary files whose Gram arithmetic overflows: the linear ones have
    # kappa(x, x) = inf, and the Gaussian ones a kernel value that is exactly 0
    OVERFLOWING_FILES = {
        "linear-axes": ("kernel linear", ["1e200 0.0", "0.0 1e200"]),
        "linear-diagonals": ("kernel linear", ["1e200 1e200", "1e200 -1e200"]),
        "gaussian-far-atom": ("kernel gaussian sigma=0.5", ["0.0", "1e200"]),
        "gaussian-least-sigma": (f"kernel gaussian sigma={SIGMA_RANGE[0]!r}", ["0.0", "3.0"]),
    }

    @pytest.mark.parametrize("name", ["verify", "measure"])
    @pytest.mark.parametrize("case", sorted(OVERFLOWING_FILES))
    def test_overflowing_gram_arithmetic_exits_cleanly_under_warnings_as_errors(self, tmp_path, case, name):
        # Kernel.gram's overflow warnings, which -W error raises, ended both
        # commands with a traceback and exit 1
        header, atoms = self.OVERFLOWING_FILES[case]
        path = tmp_path / "d.txt"
        path.write_text("\n".join([header, "criterion coherence threshold=0.5", *(f"atom {a}" for a in atoms)]) + "\n")
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "sparsekaf.cli", name, "--dict", str(path)],
                              capture_output=True, text=True)
        assert "Traceback" not in proc.stderr
        if case.startswith("linear"):
            expected = "numerical failure: atom 1: kappa(x, x) = inf is past float64's range\n"
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", expected)
        else:
            assert (proc.returncode, proc.stderr) == (0, "")
            assert ("coherence 0.0\n" if name == "measure" else "coherence: measure=0.0 ") in proc.stdout

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
        # and a dictionary file with an unparsable field or a second kernel record
        for text, error in (
            ("kernel linear sigma=abc\ncriterion coherence threshold=0.5\natom 1.0\n",
             "line 1: field sigma='abc': could not convert string to float: 'abc'"),
            ("kernel linear\nkernel gaussian sigma=0.5\ncriterion coherence threshold=0.5\natom 1.0\n",
             "line 2: second kernel record"),
        ):
            (tmp_path / "bad.txt").write_text(text)
            assert main([name, "--dict", str(tmp_path / "bad.txt")]) == 1
            assert capsys.readouterr().err == f"error: dictionary file {error}\n"

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

    def test_verify_reads_the_dictionary_in_out(self, tmp_path, capsys):
        # with no --dict, verify reads dictionary.txt in --out and rewrites
        # the run's spectral.csv there
        run_dir, copy = tmp_path / "run", tmp_path / "copy"
        assert main(["run", "--length", "80", "--sigma", "0.5", "--out", str(run_dir)]) == 0
        copy.mkdir()
        (copy / "dictionary.txt").write_bytes((run_dir / "dictionary.txt").read_bytes())
        capsys.readouterr()
        assert main(["verify", "--out", str(copy)]) == 0
        assert capsys.readouterr().out.endswith("verification passed\n")
        assert (copy / "spectral.csv").read_bytes() == (run_dir / "spectral.csv").read_bytes()
        empty = tmp_path / "empty"
        assert main(["verify", "--out", str(empty)]) == 1
        expected = os.path.join(str(empty), "dictionary.txt")
        assert capsys.readouterr().err == (
            f"error: no dictionary file: pass --dict PATH or --out DIR containing {expected}\n")
        assert not empty.exists()

    def test_measure_prints_nan_with_the_reason(self, tmp_path, capsys):
        path = tmp_path / "one.txt"
        path.write_text("kernel gaussian sigma=0.5\ncriterion coherence threshold=0.5\natom 1.0\n")
        assert main(["measure", "--dict", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{kind} nan  # {kind} measure requires at least two atoms"
            for kind in ("distance", "approximation", "coherence")
        ] + ["babel 0.0"]

    def test_non_finite_csv_target_exits_one(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x,y\n0.0,1.0\n0.5,nan\n1.0,1.0\n")
        assert main(["run", "--data", f"csv:{data}", "--out", str(tmp_path / "o")]) == 1
        assert "y must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("row,column,message", [
        ("0.3,nan", 2, "y must be finite, got nan"),
        ("inf,0.3", 1, "x must be finite, got inf"),
        ("0.3,-1e400", 2, "y must be finite, got -inf"),
    ])
    def test_non_finite_csv_field_is_named_by_line_and_column(self, tmp_path, capsys, row, column, message):
        data = tmp_path / "d.csv"
        data.write_text(f"x,y\n0.0,1.0\n\n0.5,1.0\n{row}\n1.0,nan\n")
        out = tmp_path / "o"
        assert main(["run", "--data", f"csv:{data}", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {data} line 5 column {column}: {message}\n"
        assert not out.exists()

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
