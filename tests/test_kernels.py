import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import sparsekaf.kernels as kernels_module
from sparsekaf import CriterionConfig, Dictionary, Kernel, NormRange, kernel_vector


# the least and the greatest Gaussian bandwidth: 2^-511 squares to the least
# normal float64, and sqrt(max / 2) to half the largest float64 or less
SIGMA_RANGE = (2.0**-511, math.sqrt(sys.float_info.max / 2))


def vectors(dim=3):
    return arrays(np.float64, (dim,), elements=st.floats(-10, 10, allow_nan=False))


class TestEval:
    def test_gaussian_self_similarity_is_one(self):
        k = Kernel.gaussian(1.0)
        assert k(np.zeros(2), np.zeros(2)) == 1.0

    def test_linear_dot_product(self):
        assert Kernel.linear()([1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_gaussian_half_at_two_log_two(self):
        # oracle: exp(-d^2 / (2 sigma^2)) with d^2 = 2 ln 2 gives exactly 1/2
        d_sq = 2.0 * math.log(2.0)
        oracle = math.exp(-d_sq / 2.0)
        assert oracle == pytest.approx(0.5, abs=1e-15)
        k = Kernel.gaussian(1.0)
        assert k([0.0, 0.0], [math.sqrt(d_sq), 0.0]) == pytest.approx(0.5, abs=1e-12)

    def test_polynomial(self):
        k = Kernel.polynomial(2, offset=1.0)
        assert k([1.0, 0.0], [2.0, 0.0]) == (2.0 + 1.0) ** 2

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            Kernel.linear()([1.0], [1.0, 2.0])

    def test_non_finite_input(self):
        with pytest.raises(ValueError, match="non-finite"):
            Kernel.gaussian(1.0)([np.nan, 0.0], [0.0, 0.0])

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Kernel.gaussian(0.0)
        with pytest.raises(ValueError):
            Kernel.polynomial(0)
        with pytest.raises(ValueError):
            Kernel.polynomial(2, offset=-1.0)
        for offset in (np.nan, np.inf):
            with pytest.raises(ValueError, match="offset"):
                Kernel.polynomial(2, offset=offset)
        with pytest.raises(ValueError):
            Kernel("sigmoid")

    def test_integral_degree_is_stored_as_int(self):
        # dictionary.txt says degree=3, as for Kernel.polynomial(3)
        kernel = Kernel.polynomial(3.0)
        assert type(kernel.degree) is int and kernel.degree == 3
        text = Dictionary.from_atoms(kernel, CriterionConfig("babel", 3.0), [[0.5]]).to_text()
        assert "kernel polynomial degree=3 offset=1.0\n" in text
        assert Dictionary.from_text(text).kernel == kernel

    @pytest.mark.parametrize("degree", [2.5, math.inf, math.nan])
    def test_non_integral_degree_refused(self, degree):
        with pytest.raises(ValueError, match="polynomial degree must be a positive integer"):
            Kernel.polynomial(degree)

    # past the range ends, sigma^2 is not a normal float64 or 2 sigma^2 not
    # finite: at 1e-300 the kernel divided by zero, at 1e-160 sigma^2 was
    # subnormal, at 1e155 sigma**2 raised OverflowError and at 1e154
    # -2 sigma^2 was -inf, so every kernel value read 1
    @pytest.mark.parametrize("sigma", [math.inf, math.nan, -math.inf, math.nextafter(SIGMA_RANGE[0], 0.0), 1e-160,
                                       1e-300, -SIGMA_RANGE[0], math.nextafter(SIGMA_RANGE[1], math.inf), 1e154, 1e155])
    def test_gaussian_bandwidth_must_be_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and > 0"):
            Kernel.gaussian(sigma)

    def test_gaussian_bandwidth_range_ends_keep_full_precision(self):
        lo, hi = SIGMA_RANGE
        assert lo * lo == sys.float_info.min and hi * hi <= sys.float_info.max / 2
        assert math.nextafter(hi, math.inf) ** 2 > sys.float_info.max / 2
        for sigma in (lo, hi):
            assert Kernel.gaussian(sigma)([0.0], [sigma]) == pytest.approx(math.exp(-0.5), rel=1e-15)


def overflowing_atoms():
    """Eight finite 2-D atoms whose sum is NaN: numpy adds 9 to 128 terms in
    eight running sums and combines them pairwise; the first pair overflows
    to +inf and the third to -inf."""
    atoms = 0.25 + np.arange(16).reshape(8, 2) / 64
    atoms[0], atoms[2] = 1e308, -1e308
    return atoms


NON_FINITE = {"NaN": [np.nan, 0.5], "+inf": [np.inf, 0.5], "-inf": [-np.inf, 0.5], "+inf and -inf": [np.inf, -np.inf]}


# numpy warns when arithmetic on these inputs overflows or meets both infinities
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
class TestFiniteCheck:
    """The input checks test every entry, so they accept finite inputs whose
    sums overflow and reject any NaN or infinite entry."""

    KERNEL = Kernel.gaussian(1.0)
    BIG = ([1e308, 1e308], [-1e308, -1e308])  # their sums overflow to +inf and -inf

    def test_finite_inputs_whose_sum_overflows_are_accepted(self):
        k, atoms = self.KERNEL, overflowing_atoms()
        assert math.isnan(np.add.reduce(atoms, axis=None))
        for big in self.BIG:
            assert not math.isfinite(np.add.reduce(big))
            assert k(big, big) == 1.0
            assert k(big, [0.5, 0.5]) == k([0.5, 0.5], big) == 0.0
            np.testing.assert_array_equal(k.against(atoms, big), [k(a, big) for a in atoms])
            np.testing.assert_array_equal(kernel_vector(k, np.array([big, [0.5, 0.5]]), big), [1.0, 0.0])
        x = np.array([0.3, 0.25])
        row = k.against(atoms, x)
        np.testing.assert_array_equal(row, [k(a, x) for a in atoms])
        np.testing.assert_array_equal(kernel_vector(k, atoms, x), row)
        d = Dictionary.from_atoms(k, CriterionConfig("coherence", 0.9), atoms)
        assert d.atoms.tobytes() == atoms.tobytes()
        np.testing.assert_array_equal(d.gram[0], [k(atoms[0], a) for a in atoms])

    @pytest.mark.parametrize("bad", sorted(NON_FINITE))
    def test_non_finite_entries_are_rejected(self, bad):
        k, vector = self.KERNEL, NON_FINITE[bad]
        atoms = np.array([[0.5, 0.5], vector, [0.0, 0.25]])
        for call, name in [
            (lambda: k(vector, [0.5, 0.5]), "x"),
            (lambda: k([0.5, 0.5], vector), "y"),
            (lambda: k.against(atoms, [0.5, 0.5]), "atoms"),
            (lambda: k.against(np.zeros((2, 2)), vector), "x"),
            (lambda: kernel_vector(k, atoms, [0.5, 0.5]), "atoms"),
            (lambda: kernel_vector(k, np.zeros((2, 2)), vector), "x"),
        ]:
            with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
                call()
        with pytest.raises(ValueError, match="^atoms contain non-finite entries$"):
            Dictionary.from_atoms(k, CriterionConfig("coherence", 0.9), atoms)


@pytest.mark.filterwarnings("error")
def test_finite_check_raises_no_warning():
    # as under python -W error: the check makes no arithmetic that could warn
    k = Kernel.gaussian(1.0)
    assert k([1e308, 1e308], [1e308, 1e308]) == 1.0
    with pytest.raises(ValueError, match="^x contains non-finite entries$"):
        k([np.inf, -np.inf], [0.5, 0.5])


ROW_FAULTS = {
    # x holds the fault; the atoms are finite and of x's dimension
    "x NaN": ([np.nan, 0.5], None, "x contains non-finite entries"),
    "x +inf": ([0.5, np.inf], None, "x contains non-finite entries"),
    "x -inf": ([-np.inf, 0.5], None, "x contains non-finite entries"),
    "x 0-D": (0.5, None, "x must be a 1-D vector, got shape ()"),
    "x 2-D": ([[0.5, 0.5]], None, "x must be a 1-D vector, got shape (1, 2)"),
    "x of another dimension": ([0.5, 0.5, 0.5], None, "dimension mismatch: atoms have 2, x has 3"),
    # the atoms hold the fault (a list: in one row of three); x is finite
    "atoms NaN": ([0.5, 0.5], [np.nan, 0.5], "atoms contains non-finite entries"),
    "atoms +inf": ([0.5, 0.5], [0.5, np.inf], "atoms contains non-finite entries"),
    "atoms -inf": ([0.5, 0.5], [-np.inf, 0.5], "atoms contains non-finite entries"),
    "atoms 1-D": ([0.5, 0.5], np.array([0.5, 0.25, 0.0]), "dimension mismatch: atoms have 1, x has 2"),
    "atoms 3-D": ([0.5, 0.5], np.zeros((3, 2, 1)), "atoms must be a 2-D array of row vectors"),
    "no atoms, x NaN": ([np.nan, 0.5], np.zeros((0, 2)), "x contains non-finite entries"),
    "no atoms, x +inf": ([np.inf, 0.5], np.zeros((0, 2)), "x contains non-finite entries"),
}


def faulty_row_inputs(fault, where):
    """(atoms, x) for ``fault``; a faulty atom row goes at row ``where`` of three."""
    x, bad, _ = ROW_FAULTS[fault]
    atoms = np.array([[0.5, 0.5], [0.0, 0.25], [-0.5, 1.0]])
    if isinstance(bad, list):
        atoms[where] = bad
    elif bad is not None:
        atoms = bad
    return atoms, x


class TestGaussianRowCheck:
    """A Gaussian row over well-formed input is checked through its own
    squared distances; it must accept, reject, word its errors and return
    rows exactly as checking every input entry by entry does."""

    KERNEL = Kernel.gaussian(0.7)

    @pytest.mark.parametrize("where", [0, 1, 2])
    @pytest.mark.parametrize("fault", sorted(ROW_FAULTS))
    def test_each_fault_raises_as_the_entry_wise_check(self, fault, where):
        atoms, x = faulty_row_inputs(fault, where)
        text = ROW_FAULTS[fault][2]
        for call in (lambda: self.KERNEL.against(atoms, x), lambda: self.KERNEL.against(atoms.tolist(), x)):
            with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
                call()

    @pytest.mark.parametrize("where", [0, 1, 2])
    @pytest.mark.parametrize("bad", ["NaN", "+inf", "-inf"])
    def test_non_finite_input_raises_value_error_without_warning(self, bad, where):
        # finite atoms and a non-finite x (or the reverse): no RuntimeWarning,
        # which an error filter would raise in place of the ValueError
        atoms, vector = np.array([[0.5, 0.5], [0.0, 0.25], [-0.5, 1.0]]), np.array(NON_FINITE[bad])
        bad_atoms = atoms.copy()
        bad_atoms[where] = vector
        for a, x, name in [(atoms, vector, "x"), (bad_atoms, [0.5, 0.5], "atoms")]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
                    self.KERNEL.against(a, x)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_same_signed_inf_in_atoms_and_x_is_rejected(self):
        # inf - inf makes that squared distance NaN (numpy warns); the atoms
        # are reported first, as the entry-wise check reports them
        atoms = np.array([[0.5, 0.5], [np.inf, 0.5]])
        with pytest.raises(ValueError, match="^atoms contains non-finite entries$"):
            self.KERNEL.against(atoms, [np.inf, 0.5])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_finite_inputs_whose_distances_overflow_get_the_unchecked_row(self):
        k = self.KERNEL
        atoms = np.array([[1e200, 0.5], [0.5, 0.5], [-1e200, -1e200], [0.25, 1e-300]])
        for x in ([-1e200, 0.5], [0.5, 0.5], [1e300, -1e300], [0.0, 0.0]):
            x = np.array(x)
            row = k.against(atoms, x)
            assert row.tobytes() == k._against(atoms, x).tobytes()
            np.testing.assert_array_equal(row, [k(a, x) for a in atoms])
        assert not np.isfinite(((atoms - [1e300, -1e300]) ** 2).sum(axis=1)).all()
        assert k.against(atoms, [-1e200, 0.5])[0] == 0.0

    def test_rows_match_for_every_input_form(self):
        # lists, a column-major stack and integer entries are converted to
        # float64 first, as the entry-wise check converts them
        k = self.KERNEL
        atoms = np.arange(12, dtype=np.int64).reshape(3, 4)
        x = [1, 0, 2, 1]
        expected = k._against(atoms.astype(np.float64), np.array(x, dtype=np.float64)).tobytes()
        assert k.against(atoms, x).tobytes() == expected
        assert k.against(atoms.tolist(), tuple(x)).tobytes() == expected
        assert k.against(np.asfortranarray(atoms.astype(np.float64)), x).tobytes() == expected
        # one coordinate: a 1-D stack of atoms is a column
        np.testing.assert_array_equal(k.against([0.5, 1.0], [0.5]), [1.0, k([1.0], [0.5])])


class TestKernelVector:
    def test_single_atom_self(self):
        k = Kernel.gaussian(1.0)
        atom = np.array([[0.5, -0.5]])
        np.testing.assert_array_equal(kernel_vector(k, atom, [0.5, -0.5]), [1.0])

    def test_two_atoms_definitional(self):
        k = Kernel.gaussian(0.7)
        a, b = np.array([0.0, 0.0]), np.array([1.0, 2.0])
        kv = kernel_vector(k, np.vstack([a, b]), a)
        assert kv[0] == pytest.approx(k(a, a), abs=1e-15)
        assert kv[1] == pytest.approx(k(b, a), abs=1e-15)

    @pytest.mark.parametrize("family", ["linear", "polynomial", "gaussian"])
    def test_matches_elementwise_eval(self, family):
        k = Kernel(family, degree=3, offset=0.5, sigma=1.3)
        rng = np.random.default_rng(7)
        atoms = rng.standard_normal((3, 4))
        x = rng.standard_normal(4)
        expected = [k(atom, x) for atom in atoms]
        np.testing.assert_allclose(kernel_vector(k, atoms, x), expected, rtol=1e-13)

    @pytest.mark.parametrize("dim", range(10))
    def test_gaussian_row_is_the_reduction_bit_for_bit(self, dim):
        # from 1 to 7 coordinates the row adds them one at a time, which must
        # round exactly as numpy's reduction does; from 8 on it reduces. The
        # checked row (through its squared distances) and the unchecked one
        # must both be that row
        rng = np.random.default_rng(dim)
        k = Kernel.gaussian(0.7)
        buf = rng.uniform(-3, 3, size=(300, dim))
        for m in (1, 37, 250):
            atoms = buf[:m]
            for x in rng.uniform(-3, 3, size=(20, dim)):
                expected = np.exp(-((atoms - x) ** 2).sum(axis=1) / (2.0 * 0.7**2))
                assert k.against(atoms, x).tobytes() == expected.tobytes()
                assert k._against(atoms, x).tobytes() == expected.tobytes()
                assert kernel_vector(k, atoms, x).tobytes() == expected.tobytes()
                if dim == 0:
                    assert (expected == 1.0).all()

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_gaussian_row_does_not_depend_on_the_layout(self, dim):
        # column-major and strided views give the bytes of a contiguous copy
        rng = np.random.default_rng(40 + dim)
        k = Kernel.gaussian(0.7)
        buf = rng.uniform(-3, 3, size=(500, 2 * dim))
        for atoms in (np.asfortranarray(buf[:250, :dim]), buf[::2, ::2], buf[::-2, 1::2]):
            for x in (rng.uniform(-3, 3, size=dim), rng.uniform(-3, 3, size=2 * dim)[::2]):
                expected = k.against(np.ascontiguousarray(atoms), np.ascontiguousarray(x)).tobytes()
                assert k.against(atoms, x).tobytes() == expected
                assert k._against(atoms, x).tobytes() == expected

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_overflowing_squares_give_zero_with_the_documented_warning(self, dim):
        k = Kernel.gaussian(0.7)
        atoms = np.zeros((3, dim))
        atoms[1, -1] = 1e200
        with pytest.warns(RuntimeWarning, match="^overflow encountered in square$"):
            assert k.against(atoms, np.zeros(dim)).tolist() == [1.0, 0.0, 1.0]
        if dim > 1:
            # every square finite, their sum not
            with pytest.warns(RuntimeWarning, match="^overflow encountered in reduce$"):
                assert k.against(np.full((1, dim), 1e154), np.zeros(dim)).tolist() == [0.0]

    def test_empty_dictionary_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            kernel_vector(Kernel.linear(), np.zeros((0, 2)), [1.0, 2.0])

    FAULTS = {
        # atoms, x, the ValueError's text
        "empty": (np.zeros((0, 2)), [0.5, 0.5], "kernel_vector requires a non-empty atom set"),
        "empty 1-D": (np.zeros(0), [0.5], "kernel_vector requires a non-empty atom set"),
        "0-D": (np.float64(0.5), [0.5, 0.5], "atoms must be a 2-D array of row vectors"),
        "1-D": (np.array([0.5, 0.25]), [0.5, 0.5], "dimension mismatch: atoms have 1, x has 2"),
        "3-D": (np.zeros((2, 2, 2)), [0.5, 0.5], "atoms must be a 2-D array of row vectors"),
        "empty 3-D": (np.zeros((0, 2, 2)), [0.5, 0.5], "atoms must be a 2-D array of row vectors"),
        "atoms NaN": (np.array([[0.5, np.nan]]), [0.5, 0.5], "atoms contains non-finite entries"),
        "atoms inf": (np.array([[0.5, np.inf], [0.0, 0.0]]), [0.5, 0.5], "atoms contains non-finite entries"),
        "x inf": (np.zeros((2, 2)), [np.inf, 0.5], "x contains non-finite entries"),
        "x 2-D": (np.zeros((2, 2)), [[0.5, 0.5]], "x must be a 1-D vector, got shape (1, 2)"),
        "mismatch": (np.zeros((2, 2)), [0.5, 0.5, 0.5], "dimension mismatch: atoms have 2, x has 3"),
    }

    @pytest.mark.parametrize("family", ["linear", "polynomial", "gaussian"])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_each_fault_keeps_its_text(self, family, fault):
        atoms, x, text = self.FAULTS[fault]
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            kernel_vector(Kernel(family, degree=3, offset=0.5, sigma=1.3), atoms, x)

    @pytest.mark.parametrize("family", ["linear", "polynomial", "gaussian"])
    def test_one_dimensional_atoms_are_a_column(self, family):
        k = Kernel(family, degree=3, offset=0.5, sigma=1.3)
        np.testing.assert_array_equal(kernel_vector(k, [0.5, 0.25], [0.5]), k.against([[0.5], [0.25]], [0.5]))

    @pytest.mark.parametrize("family", ["linear", "polynomial", "gaussian"])
    def test_inputs_are_checked_once(self, family, monkeypatch):
        # Kernel.against makes the only check of each input: the Gaussian row
        # through its squared distances, the others entry by entry
        calls = []

        def counting(name, check):
            def wrapped(*args):
                calls.append(name)
                return check(*args)
            return wrapped

        for name in ("_as_vector", "_as_matrix", "_all_finite", "_distances_finite"):
            monkeypatch.setattr(kernels_module, name, counting(name, getattr(kernels_module, name)))
        rng = np.random.default_rng(4)
        k = Kernel(family, degree=3, offset=0.5, sigma=1.3)
        row = kernel_vector(k, rng.standard_normal((50, 3)), rng.standard_normal(3))
        assert row.shape == (50,)
        if family == "gaussian":
            assert calls == ["_distances_finite"]
        else:
            assert calls == ["_as_matrix", "_all_finite", "_as_vector", "_all_finite"]

    def test_gram_matches_pairwise_eval(self):
        k = Kernel.gaussian(0.9)
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((5, 2))
        gram = k.gram(xs)
        for i in range(5):
            for j in range(5):
                assert gram[i, j] == pytest.approx(k(xs[i], xs[j]), abs=1e-14)
        np.testing.assert_array_equal(gram, gram.T)


def replayed_gram(k, xs):
    """Kernel.gram as admission builds it: row i from the first i rows, one ``_against`` at a time."""
    out = np.empty((len(xs), len(xs)))
    for i in range(len(xs)):
        out[i, :i] = out[:i, i] = k._against(xs[:i], xs[i])
        out[i, i] = k._self_similarity(xs[i])
    return out


class TestBlockRows:
    """Gaussian rows a block at a time equal the one-row arithmetic bit for bit."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 4, 7, 8, 9, 16])
    def test_gram_is_the_row_by_row_replay(self, dim, n):
        rng = np.random.default_rng(100 * dim + n)
        for sigma, scale in ((0.05, 0.1), (0.7, 1.0), (3.0, 20.0)):
            xs = rng.uniform(-scale, scale, size=(n, dim))
            k = Kernel.gaussian(sigma)
            assert k.gram(xs).tobytes() == replayed_gram(k, xs).tobytes()

    @pytest.mark.parametrize("dim", [0, 1, 2, 3, 7, 8, 16])
    def test_rows_are_against_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        k = Kernel.gaussian(0.4)
        atoms, xs = rng.uniform(-1, 1, size=(70, dim)), rng.uniform(-1, 1, size=(65, dim))
        rows = k._rows(atoms, xs)
        out = np.full((65, 80), np.nan)
        k._rows(atoms, xs, out=out[:, :70])
        for s, x in enumerate(xs):
            assert rows[s].tobytes() == out[s, :70].tobytes() == k._against(atoms, x).tobytes()
        assert np.isnan(out[:, 70:]).all()

    @pytest.mark.parametrize("family", ["linear", "polynomial"])
    def test_other_families_keep_one_row_at_a_time(self, family):
        k = Kernel(family, degree=3, offset=0.5)
        xs = np.random.default_rng(5).uniform(-1, 1, size=(130, 3))
        assert k.gram(xs).tobytes() == replayed_gram(k, xs).tobytes()


class TestNormRange:
    def test_user_supplied(self):
        nr = NormRange(0.5, 2.0)
        assert (nr.r_sq, nr.R_sq) == (0.5, 2.0)
        with pytest.raises(ValueError):
            NormRange(2.0, 0.5)
        with pytest.raises(ValueError):
            NormRange(-1.0, 1.0)


@pytest.mark.parametrize(
    "kernel",
    [Kernel.linear(), Kernel.polynomial(2, 1.0), Kernel.polynomial(3, 0.0), Kernel.gaussian(0.8)],
    ids=["linear", "poly2", "poly3", "gaussian"],
)
class TestKernelProperties:
    @settings(max_examples=60)
    @given(x=vectors(), y=vectors())
    def test_symmetry_exact(self, kernel, x, y):
        assert kernel(x, y) == kernel(y, x)

    @settings(max_examples=60)
    @given(
        x=arrays(np.float64, (3,), elements=st.floats(-1, 1, allow_nan=False)),
        y=arrays(np.float64, (3,), elements=st.floats(-1, 1, allow_nan=False)),
    )
    def test_cauchy_schwarz(self, kernel, x, y):
        assert kernel(x, y) ** 2 <= kernel(x, x) * kernel(y, y) + 1e-12


@settings(max_examples=60)
@given(x=vectors(dim=4))
def test_gaussian_self_norm(x):
    assert abs(Kernel.gaussian(1.7)(x, x) - 1.0) <= 1e-15
