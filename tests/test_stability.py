"""Stability analysis: roots, real-axis scans, domain sampling, CSV output."""
import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tsrk.design as design_mod
import tsrk.stability as stability_mod
from tsrk.chebyshev import _cheb_t_real, cheb_t_derivs
from tsrk.cli import main
from tsrk.design import (
    DEFAULT_EPS,
    build_method,
    build_undamped_pair,
    design_method,
    solve_damping,
    stability_length,
    stable_interval_length,
)
from tsrk.stability import (
    INSIDE_TOL,
    DomainSample,
    ScanResult,
    char_roots,
    domain_sample,
    max_abs_root,
    real_axis_scan,
    write_domain_csv,
    write_scan_csv,
)


def reference_scan_csv(path, scan):
    """The csv-module writer that the fast ``write_scan_csv`` must match."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mu", "max_abs_root"])
        for mu, mar in zip(scan.mu, scan.max_abs_root):
            writer.writerow([repr(float(mu)), repr(float(mar))])


def reference_domain_csv(path, dom):
    """The csv-module writer that the fast ``write_domain_csv`` must match."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mu_re", "mu_im", "inside"])
        for i, imv in enumerate(dom.im):
            for j, rev in enumerate(dom.re):
                writer.writerow([repr(float(rev)), repr(float(imv)),
                                 int(dom.mask[i, j])])


# Signed zero, subnormal, tiny, exponent-form, non-finite and plain values.
SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e16, -1e22, 1e22,
                  math.nan, math.inf, -math.inf, 0.1, -50.0, 1.0 + 2**-52]


@pytest.fixture(scope="module")
def pair5():
    return solve_damping(5, 0.05)


class TestCharRoots:
    def test_unit_root_at_origin(self, pair5):
        roots = char_roots(pair5, 0.0)
        closest = min(abs(roots.zeta1 - 1.0), abs(roots.zeta2 - 1.0))
        assert closest < 1e-12

    def test_second_root_at_origin(self, pair5):
        roots = char_roots(pair5, 0.0)
        second = min((roots.zeta1, roots.zeta2), key=lambda z: abs(z - 0.9))
        assert second.real == pytest.approx(0.949130847897793, abs=1e-10)
        assert second.imag == pytest.approx(0.0, abs=1e-12)

    def test_boundary_at_interval_end(self, pair5):
        l_s = stability_length(pair5)
        assert max_abs_root(pair5, -l_s) == pytest.approx(1.0, abs=1e-6)

    def test_vieta_identities(self, pair5):
        rng = np.random.default_rng(3)
        for _ in range(50):
            mu = complex(rng.uniform(-60, 2), rng.uniform(-12, 12))
            roots = char_roots(pair5, mu)
            r1, r0 = pair5.char_polys(mu)
            scale = max(abs(complex(r1)), abs(complex(r0)), 1.0)
            assert abs(roots.zeta1 + roots.zeta2 - r1) / scale < 1e-10
            assert abs(roots.zeta1 * roots.zeta2 + r0) / scale < 1e-10

    def test_method_object_is_accepted(self):
        method = design_method(5, 0.05)
        roots = char_roots(method, -1.0 + 2.0j)
        assert np.isfinite([roots.zeta1, roots.zeta2]).all()

    @settings(max_examples=60, deadline=None, database=None)
    @given(s=st.integers(2, 400), depth=st.floats(0.0, 1.0),
           im=st.one_of(st.just(0.0), st.floats(-10.0, 10.0)))
    def test_pair_and_built_method_give_the_same_roots(self, s, depth, im):
        # mu on the negative real axis up to the interval end, or off it but
        # inside the stability domain.  The Chebyshev closed form and the
        # stage recurrence round differently, by a few (s^2 + |mu|) eps_mach
        # in R1 and R0.  A coefficient error delta moves a root by d with
        # d * (|zeta1 - zeta2| + d) <~ |delta| max(|zeta|, 1), which bounds d
        # near a double root too.  Worst seen over 8000 samples with
        # s <= 400 (a fifth each at mu = 0 and at the interval end): 1.13
        # (s^2 + |mu|) eps_mach.
        pair = solve_damping(s, 0.05)
        mu = complex(-depth * stable_interval_length(pair), im)
        assume(max_abs_root(pair, mu) <= 1.0 + INSIDE_TOL)
        a = char_roots(pair, mu)
        b = char_roots(build_method(pair), mu)
        za, zb = np.array([a.zeta1, a.zeta2]), np.array([b.zeta1, b.zeta2])
        d = min(np.max(np.abs(za - zb)), np.max(np.abs(za - zb[::-1])))
        bound = 16.0 * (s * s + abs(mu)) * np.finfo(float).eps
        assert d * (abs(a.zeta1 - a.zeta2) + d) <= bound


class TestRealAxisScan:
    def test_measured_length_s5(self, pair5):
        scan = real_axis_scan(pair5, -50.0, 100_000)
        cell = 50.0 / 99_999
        assert scan.stable_length == pytest.approx(47.5779, abs=2 * cell)

    def test_measured_length_s2_shows_even_parity_gap(self):
        # For even s the upper Jury bound T <= T_s(omega) is hit at the
        # shifted argument -omega, slightly before the closed-form length
        # (which solves the odd-parity crossing).  The true interval is
        # 2 omega s^2 / beta, about 1e-3 shorter; the scan resolves this.
        sol = solve_damping(2, 0.05)
        scan = real_axis_scan(sol, -10.0, 100_000)
        cell = 10.0 / 99_999
        l_even = 2.0 * sol.omega * 4.0 / sol.beta
        l_closed = stability_length(sol)
        assert scan.stable_length == pytest.approx(l_even, abs=2 * cell)
        assert l_closed - l_even == pytest.approx(1.0e-3, abs=2e-4)
        assert stable_interval_length(sol) == pytest.approx(l_even, rel=1e-14)

    @pytest.mark.parametrize("s", range(2, 13))
    def test_measured_length_matches_parity_aware_length_within_cell(self, s):
        sol = solve_damping(s, 0.05)
        mu_min = -(stability_length(sol) + 2.0)
        scan = real_axis_scan(sol, mu_min, 100_000)
        cell = -mu_min / 99_999
        assert abs(scan.stable_length - stable_interval_length(sol)) <= cell

    @pytest.mark.parametrize("s", [10, 20, 11, 21])
    def test_measured_length_matches_closed_form_within_cell(self, s):
        # The closed form is the interval only for odd s; for even s the
        # interval is the parity-aware length, 8.8e-4 shorter at s = 10, 20.
        sol = solve_damping(s, 0.05)
        l_s = stability_length(sol) if s % 2 else stable_interval_length(sol)
        mu_min = -(stability_length(sol) + 2.0)
        scan = real_axis_scan(sol, mu_min, 100_000)
        cell = -mu_min / 99_999
        assert abs(scan.stable_length - l_s) <= cell

    def test_undamped_scan_touches_but_stays_inside(self):
        pair = build_undamped_pair(5)
        scan = real_axis_scan(pair, -50.0, 20_000)
        # One characteristic root is exactly 1 everywhere on [-2 s^2, 0];
        # away from the touching points everything is comfortably inside.
        assert np.all(scan.max_abs_root <= 1.0 + 1e-7)
        inside = scan.max_abs_root <= 1.0 + INSIDE_TOL
        assert np.count_nonzero(~inside) <= 4  # only touching-point samples

    def test_undamped_prefix_ends_at_full_range_or_touching_point(self):
        # The undamped domain pinches to width zero where T = +1 (a repeated
        # root exactly on the circle); whether a grid sample lands close
        # enough to cut the prefix there is resolution-dependent, so the
        # measured prefix is either the full interval or one of the pinch
        # points mu = s^2 (cos(2 pi k / s) - 1).
        pair = build_undamped_pair(5)
        pinches = [25.0 * (1.0 - math.cos(2.0 * math.pi * k / 5.0))
                   for k in (1, 2)]
        for samples in (10_000, 60_000, 99_873):
            scan = real_axis_scan(pair, -60.0, samples)
            cell = 60.0 / (samples - 1)
            candidates = [50.0] + pinches
            assert any(abs(scan.stable_length - c) <= 2 * cell
                       for c in candidates), scan.stable_length

    def test_interior_damping(self, pair5):
        l_s = stability_length(pair5)
        mu = np.linspace(-0.95 * l_s, -0.05 * l_s, 1000)
        worst = float(np.max(max_abs_root(pair5, mu)))
        delta = 1.0 - worst
        assert delta > 0.0, f"no interior damping margin, worst |zeta| = {worst}"

    def test_far_past_the_interval_roots_stay_finite_and_outside(self):
        # Near mu = -2e6, T_998 exceeds 1e154: r1^2 overflows, r1 and r0 do not.
        pair = solve_damping(998, 0.05)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scan = real_axis_scan(pair, -2e6, 2000)
            grid = (np.linspace(-2e6, 0.0, 64)[np.newaxis, :]
                    + 1j * np.linspace(-1e4, 1e4, 64)[:, np.newaxis])
            mar = max_abs_root(pair, grid)
            domain_sample(pair, -2e6, 1e4, 64)
        r1, _ = pair.char_polys(scan.mu)
        overflowed = np.abs(r1) > math.sqrt(np.finfo(float).max)
        assert overflowed.sum() == 46
        assert np.all(np.isfinite(scan.max_abs_root))
        assert np.all(scan.max_abs_root[overflowed] > 1.0)
        assert np.all(np.isfinite(mar)) and np.all(mar[:, 0] > 1.0)
        cell = 2e6 / 1999
        assert abs(scan.stable_length - stable_interval_length(pair)) <= cell

    def test_parameter_validation(self, pair5):
        with pytest.raises(ValueError):
            real_axis_scan(pair5, -10.0, 1)
        with pytest.raises(ValueError):
            real_axis_scan(pair5, 10.0, 100)


class TestDomainSample:
    def test_points_inside_and_outside(self, pair5):
        dom = domain_sample(pair5, -50.0, 12.0, 64, re_max=2.0)
        i_zero = int(np.argmin(np.abs(dom.im)))
        j_minus1 = int(np.argmin(np.abs(dom.re + 1.0)))
        j_plus1 = int(np.argmin(np.abs(dom.re - 1.0)))
        assert max_abs_root(pair5, -1.0) <= 1.0 + 1e-9  # spot oracle
        assert dom.mask[i_zero, j_minus1]
        assert max_abs_root(pair5, 1.0) > 1.0 + 1e-9
        assert not dom.mask[i_zero, j_plus1]

    def test_conjugation_symmetry_is_exact(self, pair5):
        dom = domain_sample(pair5, -50.0, 12.0, 33)
        assert np.array_equal(dom.mask, dom.mask[::-1, :])

    def test_validation(self, pair5):
        with pytest.raises(ValueError):
            domain_sample(pair5, 1.0, 12.0, 64)
        with pytest.raises(ValueError):
            domain_sample(pair5, -50.0, -1.0, 64)
        with pytest.raises(ValueError):
            domain_sample(pair5, -50.0, 12.0, 8)

    @pytest.mark.parametrize("re_max", [-60.0, -50.0, math.nan])
    def test_reversed_rectangle_is_rejected(self, pair5, re_max):
        with pytest.raises(ValueError, match="re_max must exceed re_min"):
            domain_sample(pair5, -50.0, 12.0, 64, re_max=re_max)

    def test_cli_reversed_rectangle_exits_2_without_csv(self, tmp_path, capsys):
        out = tmp_path / "domain.csv"
        assert main(["stability", "--s", "5", "--mode", "domain", "--re-min", "-50",
                     "--re-max", "-60", "--out", str(out)]) == 2
        assert "re_max must exceed re_min" in capsys.readouterr().err
        assert not out.exists()


EPS = np.finfo(float).eps


class TestClosedFormOnTheRealAxis:
    """StabilityPair.char_polys takes T_s in closed form at float64 mu."""

    @pytest.mark.parametrize("s", [2, 5, 50, 1000])
    def test_extrema_are_plus_minus_one(self, s):
        # Undamped pair: x = 1 + mu/s^2 and R0 = -T_s(x), so mu = (x - 1) s^2
        # lands on x = cos(k pi/s) to within an ulp, where T_s is flat.  The
        # recurrence is off there by up to 11 eps at s = 50, 1352 eps at 1000.
        k = np.arange(s + 1)
        mu = (np.cos(k * np.pi / s) - 1.0) * s * s
        _, r0 = build_undamped_pair(s).char_polys(mu)
        assert np.max(np.abs(-r0 - (-1.0) ** k)) <= 4 * EPS

    @pytest.mark.parametrize("s", [2, 3, 50, 999, 1000])
    def test_parity_holds_bit_for_bit(self, s):
        x = np.random.default_rng(s).uniform(-3.0, 3.0, 2000)
        x = np.concatenate([x, [1.0, 0.5, 1e-300, 2.0**-60]])
        with np.errstate(over="ignore"):
            assert _cheb_t_real(s, -x).tobytes() == ((-1.0) ** s * _cheb_t_real(s, x)).tobytes()

    @pytest.mark.parametrize("s", [2, 3, 5, 50, 101])
    def test_agrees_with_the_recurrence(self, s):
        # The recurrence's rounding floor is about s^2 eps relative to
        # max(1, |T_s|); the largest gap measured on this grid is 0.39 of it.
        x = np.linspace(-1.5, 1.5, 30001)
        rec = cheb_t_derivs(s, x, order=0)[0]
        gap = np.abs(_cheb_t_real(s, x) - rec)
        assert np.all(gap <= s * s * EPS * np.maximum(1.0, np.abs(rec)))

    def test_dtype_decides_the_evaluation(self, monkeypatch):
        pair = solve_damping(50, DEFAULT_EPS)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].dtype)
            return cheb_t_derivs(*args, **kwargs)

        monkeypatch.setattr(design_mod, "cheb_t_derivs", counted)
        mu = np.linspace(-4000.0, 0.0, 257)
        want = pair.char_polys(mu)
        for real in (mu.astype(np.float32), np.rint(mu).astype(np.int64)):
            got = pair.char_polys(real)
            ref = pair.char_polys(real.astype(np.float64))
            assert got[0].dtype == np.float64
            assert got[0].tobytes() == ref[0].tobytes() and got[1].tobytes() == ref[1].tobytes()
        assert calls == []
        assert np.allclose(pair.char_polys(mu.astype(np.float32))[0], want[0], rtol=1e-5)
        pair.char_polys(mu + 0j)
        pair.char_polys(mu.astype(np.longdouble))
        assert calls == [np.complex128, np.longdouble]

    def test_far_past_overflow_is_inf_and_raises_no_warning(self, tmp_path, capsys):
        # T_1000 overflows from mu = -4e6 on, where the smaller root is inf/inf.
        scan_csv = tmp_path / "scan.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["stability", "--s", "1000", "--mu-min=-1e7", "--samples", "6",
                         "--out", str(scan_csv)]) == 0
            # The complex recurrence overflows to inf and nan out here.
            dom = domain_sample(solve_damping(998, DEFAULT_EPS), -1e7, 1e5, 64)
        with open(scan_csv, newline="") as fh:
            mar = [float(row["max_abs_root"]) for row in csv.DictReader(fh)]
        assert mar[:4] == [math.inf] * 4
        assert 1.0 < mar[4] < math.inf and mar[5] <= 1.0 + INSIDE_TOL
        assert not dom.mask.any()


# max_abs_root's block size: sizes around it cross the block boundaries.
BLOCK = stability_mod._ROOT_BLOCK


def whole_array_max_abs_root(pair, mu):
    """max_abs_root as one evaluation over all of mu: the blocked one's reference."""
    z1, z2 = stability_mod._roots(*pair.char_polys(mu))
    return np.maximum(np.abs(z1), np.abs(z2))


def sample_mu(s, n, complex_plane):
    """n points of mu reaching past the real interval end, off the axis if asked."""
    rng = np.random.default_rng(n)
    mu = rng.uniform(-2.2 * s * s, 0.1, n)
    return mu + 1j * rng.uniform(-s, s, n) if complex_plane else mu


@pytest.fixture(scope="module", params=["damped", "undamped", "method"])
def any_pair(request):
    """Each kind of object max_abs_root evaluates."""
    return {"damped": lambda: solve_damping(12, 0.05),
            "undamped": lambda: build_undamped_pair(12),
            "method": lambda: design_method(12, 0.05)}[request.param]()


# Real and complex, Python and numpy scalars.
SCALARS = [-37.25, -37.25 + 4.5j, np.float64(-3.0), np.complex128(-3.0 - 1.0j)]


class TestBlockedEvaluation:
    @pytest.mark.parametrize("mu", SCALARS)
    def test_scalar_gives_its_entry_in_an_array(self, any_pair, mu):
        got = max_abs_root(any_pair, mu)
        assert type(got) is float
        assert np.float64(got).tobytes() == max_abs_root(any_pair, np.array([mu]))[0].tobytes()

    @pytest.mark.parametrize("mu", SCALARS)
    def test_char_roots_are_the_array_roots(self, any_pair, mu):
        roots = char_roots(any_pair, mu)
        z1, z2 = stability_mod._roots(*any_pair.char_polys(np.array([mu])))
        assert np.complex128(roots.zeta1).tobytes() == z1[0].tobytes()
        assert np.complex128(roots.zeta2).tobytes() == z2[0].tobytes()

    @pytest.mark.parametrize("complex_plane", [False, True])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
    def test_blocks_are_bit_identical_to_one_whole_evaluation(self, any_pair, n,
                                                              complex_plane):
        mu = sample_mu(any_pair.s, n, complex_plane)
        got = max_abs_root(any_pair, mu)
        assert got.shape == (n,) and got.dtype == np.float64
        assert got.tobytes() == whole_array_max_abs_root(any_pair, mu).tobytes()

    def test_grid_keeps_its_shape_and_bits(self, any_pair):
        grid = sample_mu(any_pair.s, 129 * 260, True).reshape(129, 260)
        assert grid.size % BLOCK != 0
        for mu in (grid, grid.T):  # C-ordered and a strided view
            got = max_abs_root(any_pair, mu)
            assert got.shape == mu.shape
            assert got.tobytes() == whole_array_max_abs_root(any_pair, mu).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("pair", [solve_damping(12, 0.05), build_undamped_pair(12)])
    def test_non_finite_point_in_the_last_block_raises_the_same_error(self, pair, bad):
        mu = sample_mu(pair.s, 2 * BLOCK + 5, False)
        mu[-1] = bad
        with pytest.raises(ValueError) as whole:
            whole_array_max_abs_root(pair, mu)
        with pytest.raises(ValueError) as blocked:
            max_abs_root(pair, mu)
        assert str(blocked.value) == str(whole.value)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_peak_memory_grows_only_by_the_output(self, dtype):
        # Whole-array evaluation holds over a dozen arrays of the input's
        # size at once; blocked evaluation holds a block's worth, so four
        # times the points cost only the larger output.
        pair = solve_damping(20, 0.05)

        def peak(n):
            mu = np.linspace(-800.0, 0.0, n).astype(dtype)
            tracemalloc.start()
            try:
                max_abs_root(pair, mu)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1000)
        small, large = peak(100_000), peak(400_000)
        assert large - small <= 1.1 * 8 * (400_000 - 100_000), (small, large)


class TestCsvOutput:
    def test_scan_csv(self, tmp_path, pair5):
        scan = real_axis_scan(pair5, -5.0, 100)
        path = tmp_path / "scan.csv"
        write_scan_csv(path, scan)
        lines = path.read_text().splitlines()
        assert lines[0] == "mu,max_abs_root"
        assert len(lines) == 101

    def test_domain_csv(self, tmp_path, pair5):
        dom = domain_sample(pair5, -10.0, 3.0, 16)
        path = tmp_path / "dom.csv"
        write_domain_csv(path, dom)
        lines = path.read_text().splitlines()
        assert lines[0] == "mu_re,mu_im,inside"
        assert len(lines) == 1 + 16 * 16
        assert set(line.rsplit(",", 1)[1] for line in lines[1:]) <= {"0", "1"}

    def test_scan_csv_matches_csv_module_on_special_values(self, tmp_path):
        # Longer than two writer chunks, so chunk boundaries are crossed.
        n = 2 * stability_mod._CSV_CHUNK + 5
        rng = np.random.default_rng(7)
        mu = np.concatenate([SPECIAL_FLOATS, rng.standard_normal(n) * 1e3])
        mar = np.concatenate([SPECIAL_FLOATS[::-1], rng.exponential(size=n)])
        scan = ScanResult(mu=mu, max_abs_root=mar, stable_length=0.0)
        write_scan_csv(tmp_path / "fast.csv", scan)
        reference_scan_csv(tmp_path / "ref.csv", scan)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_domain_csv_matches_csv_module_on_special_values(self, tmp_path):
        re = np.array(SPECIAL_FLOATS)
        im = np.array([-1e22, -0.0, 5e-324, 1e-300, math.nan, math.inf, -math.inf])
        mask = np.random.default_rng(3).random((len(im), len(re))) < 0.5
        mask[0, 0], mask[0, 1] = True, False
        dom = DomainSample(re=re, im=im, mask=mask)
        write_domain_csv(tmp_path / "fast.csv", dom)
        reference_domain_csv(tmp_path / "ref.csv", dom)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_cli_scan_matches_csv_module(self, tmp_path, capsys):
        out = tmp_path / "fast.csv"
        assert main(["stability", "--s", "7", "--mode", "real-scan",
                     "--samples", "20001", "--out", str(out)]) == 0
        reference_scan_csv(tmp_path / "ref.csv",
                           real_axis_scan(solve_damping(7, DEFAULT_EPS), -50.0, 20001))
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_cli_domain_matches_csv_module(self, tmp_path, capsys):
        out = tmp_path / "fast.csv"
        assert main(["stability", "--undamped", "--s", "7", "--mode", "domain",
                     "--re-min=-3e-5", "--im-max", "1e-7", "--resolution", "60",
                     "--out", str(out)]) == 0
        dom = domain_sample(build_undamped_pair(7), -3e-5, 1e-7, 60)
        assert dom.mask.any() and not dom.mask.all()
        reference_domain_csv(tmp_path / "ref.csv", dom)
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()
