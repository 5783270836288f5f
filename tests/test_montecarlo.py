"""Monte Carlo engine: sampling, aggregation, reproducibility, budget."""

import numpy as np
import pytest
from scipy.integrate import quad

from uqsim import cli, models, netlist
from uqsim.models import algebraic_model
from uqsim.montecarlo import McResult, run_mc, sample_parameters
from uqsim.polychaos import (Distribution, GpcExpansion, make_standard_basis,
                             total_degree_index_set)
from uqsim.stsolver import SolverError, integrate_deterministic, newton_dc

DIVIDER_VARIED = ("V1 1 0 1\nR1 1 2 1k\n"
                  "R2 2 0 1k variation=relative:uniform(0.9,1.1)\n")


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
            force=lambda z, xi, t: z - np.cos(t), distributions=(),
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

        dae = algebraic_model(lambda xi: [1.0, -2.0, 0.5], (), n_outputs=3)
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
        dae = algebraic_model(lambda xi: exp.eval(xi, check_support=False),
                              (Distribution.gaussian(0, 1),), n_outputs=1)
        mc = run_mc(dae, "dc", n=20000, seed=6)
        mean, var = exp.mean_variance()
        assert abs(mc.mean[0] - mean[0]) < 3 * mc.stderr[0]
        assert abs(mc.std[0] - np.sqrt(var[0])) < 3 * mc.stderr_std[0]

    def test_failure_budget_aborts(self):
        # x^2 + xi = 0 is unsolvable for positive xi: half the samples fail
        dists = (Distribution.uniform(-1.0, 1.0),)
        bad = models.StochasticDae(
            n=1, d=1, distributions=dists,
            q=lambda x, xi: np.zeros(1),
            f=lambda x, xi, t: np.array([x[0] ** 2 + xi[0]]),
            x0_guess=np.array([0.5]))
        with pytest.raises(SolverError, match="budget"):
            run_mc(bad, "dc", n=200, seed=2)

    def test_failed_rows_count_against_the_budget(self):
        # the smallest sample has a singular Jacobian and the largest an
        # unsolvable equation; every other sample solves x = xi
        dists = (Distribution.uniform(0.0, 1.0),)

        def batched_model(lo, hi):
            def f(x, xi, t):
                x, xi = np.asarray(x), np.asarray(xi)
                return np.where(xi == lo, 0.0 * x - 1.0,
                                np.where(xi == hi, x * x + 1.0, x - xi))

            def df_dx(x, xi, t):
                x, xi = np.asarray(x), np.asarray(xi)
                return np.where(xi == lo, 0.0, np.where(
                    xi == hi, 2.0 * x, 1.0))[..., None]

            return models.StochasticDae(
                n=1, d=1, distributions=dists, q=lambda x, xi: 0.0 * x,
                f=f, df_dx=df_dx, x0_guess=np.array([0.3]), batched=True)

        xis = sample_parameters(dists, 2000, seed=3)[:, 0]   # budget 2
        mc = run_mc(batched_model(xis.min(), xis.max()), "dc", n=2000,
                    seed=3)
        assert (mc.n_failed, mc.n_samples) == (2, 1998)
        solvable = np.sort(xis)[1:-1]
        assert mc.mean[0] == pytest.approx(solvable.mean(), abs=1e-12)

        xis = sample_parameters(dists, 1000, seed=3)[:, 0]   # budget 1
        with pytest.raises(SolverError, match="2 of 1000 samples"):
            run_mc(batched_model(xis.min(), xis.max()), "dc", n=1000,
                   seed=3)

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
