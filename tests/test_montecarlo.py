"""Monte Carlo engine: sampling, aggregation, reproducibility, budget."""

import json
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from uqsim import cli, hier, models, montecarlo, netlist, stsolver
from uqsim.models import algebraic_model
from uqsim.montecarlo import McResult, run_mc, sample_parameters
from uqsim.polychaos import (Distribution, GpcExpansion, make_standard_basis,
                             total_degree_index_set)
from uqsim.stsolver import (SolverError, SolverOptions, _integrate_points,
                            _solve_dc_rows, integrate_deterministic,
                            newton_dc)

DIVIDER_VARIED = ("V1 1 0 1\nR1 1 2 1k\n"
                  "R2 2 0 1k variation=relative:uniform(0.9,1.1)\n")


UNIT = (Distribution.uniform(0.0, 1.0),)


def failing_at(lo, hi):
    """x = xi, except that the sample xi = lo has a singular Jacobian and
    xi = hi an unsolvable equation."""
    def f(x, xi, t):
        x, xi = np.asarray(x), np.asarray(xi)
        return np.where(xi == lo, 0.0 * x - 1.0,
                        np.where(xi == hi, x * x + 1.0, x - xi))

    def df_dx(x, xi, t):
        x, xi = np.asarray(x), np.asarray(xi)
        return np.where(xi == lo, 0.0, np.where(
            xi == hi, 2.0 * x, 1.0))[..., None]

    return models.StochasticDae(
        n=1, d=1, distributions=UNIT, q=lambda x, xi: 0.0 * x,
        f=f, df_dx=df_dx, x0_guess=np.array([0.3]))


def ladder_netlist(stages: int) -> str:
    """Diode-RC ladder with one relative resistor variation per stage."""
    lines = ["V1 n0 0 1.0"]
    for k in range(1, stages + 1):
        lines += [f"R{k} n{k - 1} n{k} 1k variation=relative:uniform(0.9,1.1)",
                  f"D{k} n{k} 0 is=1e-9 nvt=0.02585", f"C{k} n{k} 0 1u"]
    return "\n".join(lines) + "\n"


def ladder(stages: int):
    return netlist.elaborate(netlist.parse_netlist(ladder_netlist(stages)))


def run_mc_one_draw(model, analysis, n, seed, t_end=None):
    """run_mc with its sampling up front: one (n, d) draw whose rows the
    stacks solve, a failure mask whose failed rows a copy drops, whole
    column histograms and a centred copy; (n_failed, mean, variance,
    stderr, stderr_std, histograms)."""
    options = SolverOptions()
    xis = sample_parameters(model.distributions, n, seed)
    nominal = newton_dc(model, model.nominal_parameters())
    results = np.empty((n, model.n))
    failed = np.zeros(n, dtype=bool)
    chunk = montecarlo._stack_rows(model.n, analysis)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        if analysis == "dc":
            results[lo:hi], _, ok = _solve_dc_rows(
                model, xis[lo:hi], nominal[None], options)
            failed[lo:hi] = ~ok
        else:
            _, (X,), _, _ = _integrate_points(
                model, xis[lo:hi], np.tile(nominal, (hi - lo, 1)),
                (0.0, t_end), options, own_clocks=True)
            results[lo:hi] = X
            failed[lo:hi] = np.isnan(X).any(axis=1)
    samples = results[~failed]
    kept = len(samples)
    mean = samples.mean(axis=0)
    variance = samples.var(axis=0, ddof=1)
    std = np.sqrt(variance)
    m4 = np.power(samples - mean, 4).mean(axis=0)
    var_s2 = np.maximum(m4 - variance ** 2, 0.0) / kept
    with np.errstate(divide="ignore", invalid="ignore"):
        stderr_std = np.where(std > 0, np.sqrt(var_s2) / (2 * std), 0.0)
    hists = [np.histogram(col, bins=montecarlo.HISTOGRAM_BINS)[::-1]
             for col in samples.T]
    return n - kept, mean, variance, std / np.sqrt(kept), stderr_std, hists


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_one_draw_bits(mc, want):
    n_failed, mean, variance, stderr, stderr_std, hists = want
    assert mc.n_failed == n_failed
    for got, ref in ((mc.mean, mean), (mc.variance, variance),
                     (mc.stderr, stderr), (mc.stderr_std, stderr_std)):
        assert_same_bits(got, ref)
    assert len(mc.histograms) == len(hists)
    for (edges, counts), (ref_edges, ref_counts) in zip(mc.histograms, hists):
        assert_same_bits(edges, ref_edges)
        assert_same_bits(counts, ref_counts)


class TestSampling:
    def test_uniform_mean(self):
        x = sample_parameters((Distribution.uniform(0, 1),), 1_000_000, 1)
        assert abs(x.mean() - 0.5) < 0.002

    def test_gaussian_variance(self):
        x = sample_parameters((Distribution.gaussian(0, 1),), 1_000_000, 2)
        assert abs(x.var(ddof=1) - 1.0) < 0.005

    def test_seed_reproducibility(self):
        dists = (Distribution.gaussian(0, 1), Distribution.gamma(2.0))
        a = sample_parameters(dists, 1000, 7)
        b = sample_parameters(dists, 1000, 7)
        assert np.array_equal(a, b)
        c = sample_parameters(dists, 1000, 8)
        assert not np.array_equal(a, c)

    def test_needs_positive_n(self):
        with pytest.raises(ValueError):
            sample_parameters((Distribution.uniform(0, 1),), 0, 1)


class TestRunMc:
    def test_divider_mean_within_three_se(self):
        dae = netlist.elaborate(netlist.parse_netlist(DIVIDER_VARIED))
        mc = run_mc(dae, "dc", n=10000, seed=4)
        exact = quad(lambda r: r / (1 + r), 0.9, 1.1)[0] / 0.2
        assert abs(mc.mean[1] - exact) < 3 * mc.stderr[1]

    def test_convergence_rate_band(self):
        # 3-standard-error criterion holds across sample sizes
        dae = netlist.elaborate(netlist.parse_netlist(DIVIDER_VARIED))
        exact = quad(lambda r: r / (1 + r), 0.9, 1.1)[0] / 0.2
        for n in (1000, 10000):
            mc = run_mc(dae, "dc", n=n, seed=5)
            assert abs(mc.mean[1] - exact) < 3 * mc.stderr[1]

    def test_d0_model_zero_variance(self):
        dae = netlist.elaborate(
            netlist.parse_netlist("V1 1 0 1\nR1 1 2 1k\nR2 2 0 1k\n"))
        mc = run_mc(dae, "dc", n=64, seed=1)
        assert np.max(mc.variance) == 0.0
        assert np.max(mc.stderr) == 0.0

    def test_d0_transient_is_the_deterministic_run(self):
        # a driven, damped oscillator without random inputs moves away
        # from its DC point; every sample is that one deterministic run
        dae = models.second_order_model(
            mass=lambda z, xi: np.eye(1),
            damping=lambda z, xi: np.full((1, 1), 0.5),
            force=lambda z, xi, t: z - np.cos(t)[..., None], distributions=(),
            z0=np.zeros(1), v0=np.zeros(1))
        mc = run_mc(dae, "transient", n=64, seed=1, t_end=2.0)
        x0 = newton_dc(dae, np.zeros(0))
        _, states, _ = integrate_deterministic(dae, np.zeros(0), (0.0, 2.0),
                                               x0)
        assert abs(states[-1][0] - x0[0]) > 0.1
        assert np.array_equal(mc.mean, states[-1])
        for spread in (mc.variance, mc.stderr, mc.stderr_std):
            assert np.array_equal(spread, np.zeros(2))

    def test_d0_memory_does_not_grow_with_samples(self):
        # the d = 0 result came from n tiled copies of the one solution,
        # and its centring copied them again: 58 MB at peak here; the
        # histograms are those of n equal samples, one full bin
        import tracemalloc

        dae = algebraic_model(
            lambda xi: np.broadcast_to([1.0, -2.0, 0.5], xi.shape[:-1] + (3,)),
            (), n_outputs=3)
        n = 10 ** 6
        tracemalloc.start()
        try:
            mc = run_mc(dae, "dc", n=n, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert mc.n_samples == n and np.array_equal(mc.mean, [1.0, -2.0, 0.5])
        for value, (edges, counts) in zip(mc.mean, mc.histograms):
            want_counts, want_edges = np.histogram(np.full(1000, value),
                                                   bins=50)
            assert np.array_equal(edges, want_edges)
            assert counts.dtype == want_counts.dtype
            assert np.array_equal(counts, want_counts * (n // 1000))

    def test_bit_identical_reproducibility(self):
        dae = netlist.elaborate(netlist.parse_netlist(DIVIDER_VARIED))
        a = run_mc(dae, "dc", n=400, seed=12)
        b = run_mc(dae, "dc", n=400, seed=12)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.variance, b.variance)
        for (ea, ca), (eb, cb) in zip(a.histograms, b.histograms):
            assert np.array_equal(ea, eb) and np.array_equal(ca, cb)

    def test_surrogate_model_matches_parseval(self):
        # Monte Carlo through a gPC expansion agrees with its coefficient
        # mean/variance
        basis = make_standard_basis(Distribution.gaussian(0, 1), 2)
        idx = total_degree_index_set(1, 2)
        exp = GpcExpansion(idx, np.array([[1.0], [0.4], [-0.2]]), (basis,))
        dae = algebraic_model(exp.eval_many, (Distribution.gaussian(0, 1),),
                              n_outputs=1)
        mc = run_mc(dae, "dc", n=20000, seed=6)
        mean, var = exp.mean_variance()
        assert abs(mc.mean[0] - mean[0]) < 3 * mc.stderr[0]
        assert abs(mc.std[0] - np.sqrt(var[0])) < 3 * mc.stderr_std[0]

    def test_failure_budget_aborts(self):
        # x^2 + xi = 0 is unsolvable for positive xi: half the samples fail
        dists = (Distribution.uniform(-1.0, 1.0),)
        bad = models.StochasticDae(
            n=1, d=1, distributions=dists,
            q=lambda x, xi: np.zeros(np.shape(x)),
            f=lambda x, xi, t: x ** 2 + xi[..., :1],
            x0_guess=np.array([0.5]))
        with pytest.raises(SolverError, match="budget"):
            run_mc(bad, "dc", n=200, seed=2)

    def test_failed_rows_count_against_the_budget(self):
        xis = sample_parameters(UNIT, 2000, seed=3)[:, 0]   # budget 2
        mc = run_mc(failing_at(xis.min(), xis.max()), "dc", n=2000, seed=3)
        assert (mc.n_failed, mc.n_samples) == (2, 1998)
        solvable = np.sort(xis)[1:-1]
        assert mc.mean[0] == pytest.approx(solvable.mean(), abs=1e-12)

        xis = sample_parameters(UNIT, 1000, seed=3)[:, 0]   # budget 1
        with pytest.raises(SolverError, match="2 of 1000 samples"):
            run_mc(failing_at(xis.min(), xis.max()), "dc", n=1000, seed=3)

    def test_one_sample_has_zero_spread(self):
        mc = run_mc(models.builtin_model("diode_rectifier"), "dc", 1, 0)
        assert mc.n_samples == 1 and mc.n_failed == 0
        for spread in (mc.variance, mc.stderr, mc.stderr_std):
            assert np.array_equal(spread, np.zeros(3))
        assert [counts.sum() for _, counts in mc.histograms] == [1, 1, 1]

    def test_transient_where_every_sample_fails_at_once_aborts(self):
        # f is NaN after t = 0, so every sample's first step fails
        dae = models.StochasticDae(
            n=1, d=1, distributions=(Distribution.uniform(0.5, 1.5),),
            q=lambda x, xi: np.array(x, dtype=float),
            f=lambda x, xi, t: np.where(np.reshape(t, (-1, 1)) > 0, np.nan,
                                        x - xi[..., :1]))
        with pytest.raises(SolverError, match="20 of 20 samples failed"):
            run_mc(dae, "transient", 20, 0, t_end=1.0)

    def test_transient_memory_does_not_grow_with_steps(self):
        # a stacked transient that logged one (t, h, accepted, lte) tuple
        # per sample attempt held 1.2 GB for 20,000 plate samples to
        # t = 10; per-row step counts keep this run well under 1 MB
        import tracemalloc

        dae = models.builtin_model("plate_actuator")
        tracemalloc.start()
        try:
            mc = run_mc(dae, "transient", 100, seed=1, t_end=5.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert mc.n_failed == 0
        assert peak < 1.5e6

    def test_transient_needs_t_end(self):
        dae = netlist.elaborate(netlist.parse_netlist(DIVIDER_VARIED))
        with pytest.raises(ValueError, match="t_end"):
            run_mc(dae, "transient", n=10, seed=1)

    def test_unknown_analysis(self):
        dae = netlist.elaborate(netlist.parse_netlist(DIVIDER_VARIED))
        with pytest.raises(ValueError, match="analysis"):
            run_mc(dae, "ac", n=10, seed=1)


class TestResultInvariants:
    def make_result(self, n=500):
        dae = netlist.elaborate(netlist.parse_netlist(DIVIDER_VARIED))
        return run_mc(dae, "dc", n=n, seed=9)

    def test_stderr_is_std_over_sqrt_n(self):
        mc = self.make_result()
        assert np.allclose(mc.stderr, mc.std / np.sqrt(mc.n_samples),
                           rtol=1e-15)

    def test_histogram_counts_sum_to_n(self):
        mc = self.make_result()
        for edges, counts in mc.histograms:
            assert counts.sum() == mc.n_samples
            assert len(edges) == len(counts) + 1

    def run_cli_mc(self, tmp_path, n=100):
        path = tmp_path / "divider.cir"
        path.write_text(DIVIDER_VARIED)
        assert cli.main(["mc", "--netlist", str(path), "--samples", str(n),
                         "--seed", "9", "--outdir", str(tmp_path)]) == 0
        return netlist.elaborate(netlist.parse_netlist(DIVIDER_VARIED)).labels

    def test_histogram_csv_format(self, tmp_path):
        labels = self.run_cli_mc(tmp_path)
        lines = (tmp_path / "mc_histogram.csv").read_text().splitlines()
        assert lines[0] == "output,bin_lo,bin_hi,count"
        totals = dict.fromkeys(labels, 0)
        for row in lines[1:]:
            label, lo, hi, count = row.split(",")
            assert float(lo) < float(hi)
            totals[label] += int(count)
        assert totals == dict.fromkeys(labels, 100)

    def test_stats_csv_has_labels(self, tmp_path):
        labels = self.run_cli_mc(tmp_path)
        lines = (tmp_path / "mc_stats.csv").read_text().splitlines()
        assert lines[0] == "output,mean,std,stderr_mean,stderr_std"
        assert [row.split(",")[0] for row in lines[1:]] == list(labels)
        assert lines[1].startswith("v(1),")


class TestStreamed:
    """run_mc draws, solves and aggregates stack by stack; its results are
    those of the one-draw run, bit for bit."""

    def test_dc_across_two_stack_boundaries(self):
        model = ladder(8)
        rows = montecarlo._stack_rows(model.n, "dc")
        assert rows == 2 ** 20 // (8 * 16 * 10) == 819   # 10 states
        assert rows < stsolver._chunk_rows(model.n)
        n = 2 * rows + 17
        assert_one_draw_bits(run_mc(model, "dc", n, 4),
                             run_mc_one_draw(model, "dc", n, 4))

    def test_dc_with_failed_rows_in_several_stacks(self, monkeypatch):
        # stacks of 700 rows; the two failed samples fall in two of them
        monkeypatch.setattr(stsolver, "CHUNK_BYTES", 16 * 700)
        assert montecarlo._stack_rows(1, "dc") == 700
        xis = sample_parameters(UNIT, 2000, seed=3)[:, 0]
        assert np.argmin(xis) // 700 != np.argmax(xis) // 700
        model = failing_at(xis.min(), xis.max())
        mc = run_mc(model, "dc", 2000, 3)
        assert mc.n_failed == 2
        assert_one_draw_bits(mc, run_mc_one_draw(model, "dc", 2000, 3))

    def test_transient_across_two_stack_boundaries(self, monkeypatch):
        model = ladder(3)
        # stacks of 7 samples, each on its own clock
        monkeypatch.setattr(stsolver, "CHUNK_BYTES", 8 * 5 * 6 * 7)
        assert montecarlo._stack_rows(model.n, "transient") == 7
        assert_one_draw_bits(
            run_mc(model, "transient", 17, 2, t_end=2e-3),
            run_mc_one_draw(model, "transient", 17, 2, t_end=2e-3))

    def test_each_stack_draws_only_its_own_rows(self, monkeypatch):
        drawn = []
        blocks = montecarlo._sample_blocks

        def recording(*args):
            for lo, xis in blocks(*args):
                drawn.append(xis.shape)
                yield lo, xis

        monkeypatch.setattr(montecarlo, "_sample_blocks", recording)
        run_mc(ladder(8), "dc", 1655, 4)
        assert drawn == [(819, 8), (819, 8), (17, 8)]

    def test_dc_memory_on_a_40_stage_ladder(self):
        # the (40,000, 42) results and np.var's temporary of their size
        # are 25.6 MiB; sampling up front, the centred copy and a stack of
        # twice the rows made 39.5 MiB, and this measured 25.8 MiB
        model = ladder(40)
        tracemalloc.start()
        try:
            mc = run_mc(model, "dc", 40_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mc.n_samples == 40_000 and model.n == 42
        assert peak < 27 * 2 ** 20


class TestMemoryBudget:
    """What grows with the sample count is refused above MEMORY_BUDGET
    before anything is allocated."""

    def test_run_mc_refuses_above_the_budget(self, monkeypatch):
        model = ladder(3)                     # 5 states: 80 bytes a sample
        monkeypatch.setattr(montecarlo, "MEMORY_BUDGET", 80 * 1000)
        assert run_mc(model, "dc", 1000, 1).n_samples == 1000

        def guard(*args):
            raise AssertionError("drew samples")

        monkeypatch.setattr(montecarlo, "_sample_blocks", guard)
        monkeypatch.setattr(montecarlo, "newton_dc", guard)
        for analysis in ("dc", "transient"):
            with pytest.raises(ValueError) as err:
                run_mc(model, analysis, 1001, 1, t_end=1.0)
            for words in ("1,001 samples", "80,080 bytes", "80,000 bytes",
                          "montecarlo.MEMORY_BUDGET"):
                assert words in str(err.value)

    def test_d0_runs_hold_nothing_per_sample(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "MEMORY_BUDGET", 0)
        dae = algebraic_model(
            lambda xi: np.broadcast_to([1.0], xi.shape[:-1] + (1,)), (),
            n_outputs=1)
        assert run_mc(dae, "dc", 10 ** 6, 1).n_samples == 10 ** 6

    def test_sampled_density_refuses_above_the_budget(self, monkeypatch):
        basis = make_standard_basis(Distribution.gaussian(0.0, 1.0), 2)
        exp = GpcExpansion(total_degree_index_set(1, 2), [0.0, 1.0, 0.5],
                           (basis,))
        s = hier.normalize_surrogate(exp)
        monkeypatch.setattr(montecarlo, "MEMORY_BUDGET", 8 * 20_000)
        assert hier.density_by_sampling(s, 20_000, 1).kind == "sampled"
        monkeypatch.setattr(montecarlo, "_sample_blocks", None)  # not called
        with pytest.raises(ValueError, match="MEMORY_BUDGET"):
            hier.density_by_sampling(s, 20_001, 1)

    def test_cli_exits_1_with_one_json_line(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setattr(montecarlo, "MEMORY_BUDGET", 1000)
        path = tmp_path / "divider.cir"
        path.write_text(DIVIDER_VARIED)
        rc = cli.main(["mc", "--netlist", str(path), "--samples", "100",
                       "--outdir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        error = json.loads(err)
        assert error["error"] == "config"
        assert "montecarlo.MEMORY_BUDGET" in error["message"]
        assert not (tmp_path / "out").exists()
