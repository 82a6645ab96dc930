"""Subset simulation against exact rare-event probabilities."""

import json

import numpy as np
import pytest
from scipy.special import erfc
from scipy.stats import chi2, kstest

from latent_abcss.rng_linalg import RngStream, load_array, save_array
from latent_abcss.subsim import (
    _PROPOSAL_SCALE,
    LevelRecord,
    SubSimConfig,
    SubSimTrace,
    _rejuvenate,
    dissimilarity_batch,
    estimate_p,
    load_trace,
    save_trace,
    subsim_run,
)


def halfspace_map(level):
    """Latent map whose zero set is the half-space {z_1 >= level}."""

    def g2(z):
        return np.maximum(level - z[:, :1], 0.0)

    return g2


def gauss_tail(level):
    return 0.5 * erfc(level / np.sqrt(2.0))


def one_row(y_gen, y_obs):
    """Dissimilarity of a single vector through the batch kernel."""
    return dissimilarity_batch(np.atleast_2d(y_gen), y_obs)[0]


def single_chain(z0, steps, t, g2, y_obs, scale, rng):
    """One ``steps``-state chain of the sampler's rejuvenation, seeded at ``z0``."""
    seeds = np.atleast_2d(np.asarray(z0, dtype=np.float64))
    seed_d = dissimilarity_batch(g2(seeds), y_obs)
    states, _, _, _ = _rejuvenate(seeds, seed_d, t, 1, scale, g2, y_obs, rng, steps)
    return states


class TestDissimilarity:
    def test_identical_vectors(self):
        assert one_row([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_uniform_offset(self):
        y = np.zeros(81)
        assert one_row(y + 0.7, y) == pytest.approx(81 * 0.49)

    def test_symmetry(self):
        a = np.array([1.0, -2.0, 0.5])
        b = np.array([0.0, 1.0, 2.0])
        assert one_row(a, b) == one_row(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            one_row([1.0], [1.0, 2.0])

    def test_batch_matches_scalar(self):
        gen = np.random.default_rng(0)
        ys = gen.standard_normal((5, 4))
        y0 = gen.standard_normal(4)
        batch = dissimilarity_batch(ys, y0)
        for i in range(5):
            assert batch[i] == pytest.approx(one_row(ys[i], y0))
            assert batch[i] == pytest.approx(float(np.sum((ys[i] - y0) ** 2)))


class TestConditionalChain:
    """The rejuvenation kernel run as a single chain from one seed."""

    def test_zero_scale_never_moves(self):
        states = single_chain(
            np.array([3.5]), 50, 0.0, halfspace_map(3.0), np.zeros(1), 0.0, RngStream(1)
        )
        np.testing.assert_array_equal(states, np.full((50, 1), 3.5))

    def test_infinite_threshold_recovers_prior(self):
        # scale 1 makes proposals independent draws, all accepted
        states = single_chain(
            np.array([0.0]), 10_000, np.inf, halfspace_map(-np.inf), np.zeros(1), 1.0, RngStream(2)
        )
        assert kstest(states[1:].ravel(), "norm").pvalue > 0.01

    def test_truncated_normal_mean(self):
        # long-run mean of the prior restricted to {z > 3}
        states = single_chain(
            np.array([3.3]), 20_000, 0.0, halfspace_map(3.0), np.zeros(1), 0.5, RngStream(3)
        )
        target = 3.2831  # phi(3) / Phi(-3)
        assert states.mean() == pytest.approx(target, rel=0.02)
        assert states.min() >= 3.0

    def test_level_noise_is_one_block_read_row_per_chain(self):
        # rho = 0 at scale 1 and every proposal is accepted at t = inf, so
        # each chain's states after its seed are its row of the level's block
        dim, n_chains, level = 3, 4, 5
        seeds = np.zeros((n_chains, dim))
        g2 = lambda z: z[:, :1]
        rng = RngStream(12, 4)
        for n_particles, lengths in ((12, [3, 3, 3, 3]), (14, [4, 4, 3, 3]), (5, [2, 1, 1, 1])):
            max_steps = max(lengths) - 1
            block = rng.split(level).generator().standard_normal((n_chains, max_steps, dim))
            states, _, _, calls = _rejuvenate(
                seeds, np.zeros(n_chains), np.inf, level, 1.0, g2, np.zeros(1), rng, n_particles
            )
            assert calls == max_steps
            start = 0
            for c, length in enumerate(lengths):
                np.testing.assert_array_equal(states[start], seeds[c])
                np.testing.assert_array_equal(states[start + 1 : start + length], block[c, : length - 1])
                start += length
            assert start == n_particles

    def test_every_state_satisfies_threshold(self):
        g2 = lambda z: z[:, :1]
        states = single_chain(np.array([0.1]), 500, 1.0, g2, np.zeros(1), 0.7, RngStream(5))
        d = (states[:, 0]) ** 2
        assert np.all(d <= 1.0)


class TestSubsimRun:
    def test_certain_event_single_level(self):
        g2 = lambda z: z[:, :2]
        cfg = SubSimConfig(target_eps=1e9, n_particles=500)
        trace = subsim_run(g2, np.zeros(2), 3, cfg, RngStream(6))
        assert trace.n_levels == 1
        assert trace.p_hat == 1.0
        assert not trace.stagnated
        assert trace.stagnation is None
        assert trace.final_samples.shape == (500, 3)

    def test_gaussian_tail_oracle_z3(self):
        cfg = SubSimConfig(target_eps=1e-12)
        phats = [
            subsim_run(halfspace_map(3.0), np.zeros(1), 10, cfg, RngStream(s, 91)).p_hat
            for s in range(10)
        ]
        assert np.mean(phats) == pytest.approx(gauss_tail(3.0), rel=0.3)

    def test_direct_product_formula(self):
        cfg = SubSimConfig(target_eps=1.0, n_particles=1000, level_fraction=0.1)
        trace = SubSimTrace(config=cfg)
        trace.levels = [
            LevelRecord(9.0, 0.5, 100, 0.5, 9),
            LevelRecord(4.0, 0.5, 100, 0.5, 9),
            LevelRecord(1.0, 0.5, 250, 0.5, 3),
        ]
        assert estimate_p(trace) == pytest.approx(0.1**2 * 0.25)

    def test_thresholds_strictly_decreasing_and_survivors_valid(self):
        g2 = lambda z: z[:, :3]
        cfg = SubSimConfig(target_eps=0.05, n_particles=400, max_levels=25)
        trace = subsim_run(g2, np.zeros(3), 6, cfg, RngStream(7))
        ts = [lvl.threshold for lvl in trace.levels]
        assert all(a > b for a, b in zip(ts, ts[1:]))
        assert np.all(trace.level_dissimilarities[-1] <= trace.levels[-1].threshold)
        # every recorded population satisfies its level threshold
        for j in range(1, len(trace.level_dissimilarities)):
            assert np.all(trace.level_dissimilarities[j] <= ts[j - 1] + 1e-12)

    def test_estimator_error_shrinks_with_n(self):
        # half-space {z1 >= 2}: p = 2.275e-2
        truth = gauss_tail(2.0)
        errs = {}
        for n in (1000, 2000):
            cfg = SubSimConfig(target_eps=1e-12, n_particles=n)
            phats = [
                subsim_run(halfspace_map(2.0), np.zeros(1), 5, cfg, RngStream(s, n)).p_hat
                for s in range(10)
            ]
            errs[n] = abs(np.mean(phats) - truth) / truth
        assert errs[1000] < 0.3
        assert errs[2000] <= errs[1000] + 0.05

    def test_spherical_shell_event(self):
        # {||z||^2 >= c} in 10-D with c the 0.999 chi2 quantile: p = 1e-3
        c = chi2.ppf(0.999, df=10)
        g2 = lambda z: np.maximum(c - np.sum(z * z, axis=1, keepdims=True), 0.0)
        cfg = SubSimConfig(target_eps=1e-12)
        phats = [
            subsim_run(g2, np.zeros(1), 10, cfg, RngStream(s, 55)).p_hat for s in range(10)
        ]
        assert np.mean(phats) == pytest.approx(1e-3, rel=0.3)

    def test_unreachable_target_stagnates_at_the_floor(self):
        # dissimilarity floored at 5: a target below the floor is unreachable,
        # and the run stagnates without a threshold under the floor
        def g2(z):
            return np.sqrt(np.maximum(z[:, :1] ** 2, 5.0))

        cfg = SubSimConfig(target_eps=0.1, n_particles=200, max_levels=6)
        trace = subsim_run(g2, np.zeros(1), 2, cfg, RngStream(8))
        assert trace.stagnated
        assert trace.levels[-1].threshold >= 5.0
        assert trace.p_hat <= 1.0

    def test_stagnation_cause_flat_threshold(self):
        # every particle sits at the same dissimilarity: the second level
        # cannot propose a strictly smaller threshold
        cfg = SubSimConfig(target_eps=0.1, n_particles=200, max_levels=6)
        trace = subsim_run(lambda z: np.ones((z.shape[0], 1)), np.zeros(1), 2, cfg, RngStream(13))
        assert trace.stagnation == "flat_threshold"
        assert trace.stagnated
        assert trace.n_levels == 1

    def test_stagnation_cause_slow_improvement(self):
        # d = 1e5 + |z|^2 in 10-D: thresholds fall by ~1e-5 relatively per level
        cfg = SubSimConfig(target_eps=0.1, n_particles=200, max_levels=6)
        g2 = lambda z: np.sqrt(1e5 + np.sum(z * z, axis=1, keepdims=True))
        trace = subsim_run(g2, np.zeros(1), 10, cfg, RngStream(14))
        # the level budget runs out too, later: the first cause is kept
        assert trace.stagnation == "slow_improvement"
        assert trace.n_levels == cfg.max_levels

    def test_stagnation_cause_level_budget(self):
        # p(z_1 >= 3) = 1.3e-3 needs three levels at alpha = 0.1
        cfg = SubSimConfig(target_eps=1e-12, max_levels=2)
        trace = subsim_run(halfspace_map(3.0), np.zeros(1), 4, cfg, RngStream(15))
        assert trace.stagnation == "level_budget"
        assert trace.n_levels == 2
        assert all(lvl.threshold > 0 for lvl in trace.levels)

    def test_run_builds_one_generator_per_level(self, monkeypatch):
        built = []
        generator = RngStream.generator

        def counted(self):
            built.append(self.path)
            return generator(self)

        monkeypatch.setattr(RngStream, "generator", counted)
        cfg = SubSimConfig(target_eps=0.05, n_particles=400, max_levels=25)
        trace = subsim_run(lambda z: z[:, :3], np.zeros(3), 6, cfg, RngStream(7, 2, (1,)))
        assert trace.n_levels > 2
        assert len(built) <= trace.n_levels + 1
        assert built == [(1, j) for j in range(trace.n_levels + 1)]

    def test_deterministic_given_stream(self):
        g2 = lambda z: z[:, :2]
        cfg = SubSimConfig(target_eps=0.5, n_particles=300)
        t1 = subsim_run(g2, np.zeros(2), 4, cfg, RngStream(10, 3))
        t2 = subsim_run(g2, np.zeros(2), 4, cfg, RngStream(10, 3))
        np.testing.assert_array_equal(t1.final_samples, t2.final_samples)
        assert t1.p_hat == t2.p_hat

    def test_level_telemetry_counts_every_g2_call(self):
        calls = []

        def g2(z):
            calls.append(z.shape[0])
            return z[:, :3]

        cfg = SubSimConfig(target_eps=0.05, n_particles=400, max_levels=25)
        trace = subsim_run(g2, np.zeros(3), 6, cfg, RngStream(7))
        # one call scores the prior population, the rest are the levels' chain steps
        assert len(calls) == 1 + sum(lvl.g2_calls for lvl in trace.levels)
        # 40 survivors grow back to 400 states: 9 lockstep proposals per chain
        assert all(lvl.g2_calls == 9 for lvl in trace.levels[:-1])
        assert trace.levels[0].proposal_scale == _PROPOSAL_SCALE
        assert all(1e-3 <= lvl.proposal_scale <= 1.0 for lvl in trace.levels)

    def test_survivors_filling_every_slot_stagnate(self):
        # ceil(0.96 * 20) = 20 survivors leave no chain anything to propose
        cfg = SubSimConfig(target_eps=1e-6, n_particles=20, level_fraction=0.96)
        trace = subsim_run(lambda z: z[:, :2], np.ones(2), 4, cfg, RngStream(11))
        assert [lvl.acceptance_rate for lvl in trace.levels] == [None]
        assert trace.stagnation == "flat_threshold"

    def test_empty_trace_estimate_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_p(SubSimTrace(config=SubSimConfig(target_eps=1.0)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SubSimConfig(target_eps=0.0)
        with pytest.raises(ValueError):
            SubSimConfig(target_eps=1.0, level_fraction=1.5)
        with pytest.raises(ValueError):
            SubSimConfig(target_eps=1.0, n_particles=50, level_fraction=0.1)


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        g2 = lambda z: z[:, :2]
        cfg = SubSimConfig(target_eps=0.5, n_particles=300)
        trace = subsim_run(g2, np.zeros(2), 4, cfg, RngStream(11))
        prefix = str(tmp_path / "trace")
        save_trace(prefix, trace)
        back = load_trace(prefix)
        assert back.p_hat == trace.p_hat
        assert back.n_levels == trace.n_levels
        assert back.levels == trace.levels
        assert back.stagnation is None
        np.testing.assert_array_equal(back.final_samples, trace.final_samples)
        np.testing.assert_array_equal(back.level_dissimilarities, trace.level_dissimilarities)
        # one array per trace: row 0 the prior population, the last row the final one
        pops = load_array(prefix + "_dissimilarities.f64")
        assert pops.shape == (trace.n_levels + 1, cfg.n_particles)
        np.testing.assert_array_equal(pops[-1], trace.level_dissimilarities[-1])
        # the sampler's fixed constants are not settings, so the trace does not carry them
        config = json.load(open(prefix + ".json"))["config"]
        assert set(config) == {"target_eps", "n_particles", "level_fraction", "max_levels"}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "trace.json",
            "trace_dissimilarities.f64",
            "trace_dissimilarities.f64.json",
            "trace_samples.f64",
            "trace_samples.f64.json",
        ]

    def test_wrong_population_count_rejected(self, tmp_path):
        cfg = SubSimConfig(target_eps=0.5, n_particles=300)
        trace = subsim_run(lambda z: z[:, :2], np.zeros(2), 4, cfg, RngStream(11))
        prefix = str(tmp_path / "trace")
        save_trace(prefix, trace)
        pops = load_array(prefix + "_dissimilarities.f64")
        save_array(prefix + "_dissimilarities.f64", pops[:-1])
        with pytest.raises(ValueError, match="not one row per population"):
            load_trace(prefix)

    def test_trace_without_levels_roundtrips_p_hat_as_null(self, tmp_path):
        # an infinite dissimilarity everywhere: no threshold below the first, so no level
        cfg = SubSimConfig(target_eps=0.5, n_particles=300)
        trace = subsim_run(lambda z: np.full((z.shape[0], 1), np.inf), np.zeros(1), 4, cfg, RngStream(11))
        assert trace.n_levels == 0 and np.isnan(trace.p_hat)
        prefix = str(tmp_path / "trace")
        save_trace(prefix, trace)
        assert '"p_hat": null' in open(prefix + ".json").read()
        back = load_trace(prefix)
        assert np.isnan(back.p_hat) and back.stagnation == "flat_threshold"
        assert len(back.level_dissimilarities) == 1

    @pytest.mark.parametrize("cause", ["flat_threshold", "slow_improvement", "level_budget"])
    def test_stagnation_cause_roundtrips(self, tmp_path, cause):
        cfg = SubSimConfig(target_eps=0.5, n_particles=300)
        trace = subsim_run(lambda z: z[:, :2], np.zeros(2), 4, cfg, RngStream(11))
        trace.stagnation = cause
        prefix = str(tmp_path / "trace")
        save_trace(prefix, trace)
        assert f'"stagnation": "{cause}"' in open(prefix + ".json").read()
        back = load_trace(prefix)
        assert back.stagnation == cause and back.stagnated

    @pytest.mark.parametrize("block", ["config", "level"])
    @pytest.mark.parametrize("change", ["add", "drop"])
    def test_unknown_or_missing_key_rejected(self, tmp_path, block, change):
        cfg = SubSimConfig(target_eps=0.5, n_particles=300)
        trace = subsim_run(lambda z: z[:, :2], np.zeros(2), 4, cfg, RngStream(11))
        prefix = str(tmp_path / "trace")
        save_trace(prefix, trace)
        doc = json.load(open(prefix + ".json"))
        # a key of a sampler constant that left SubSimConfig, or one a reader needs
        part = doc["config"] if block == "config" else doc["levels"][0]
        if change == "add":
            part["acceptance_target"] = 0.44
        else:
            part.pop("n_particles" if block == "config" else "g2_calls")
        json.dump(doc, open(prefix + ".json", "w"))
        want = "unknown keys \\['acceptance_target'\\]" if change == "add" else "missing keys"
        with pytest.raises(ValueError, match=rf"trace\.json: (config|level 0) has {want}"):
            load_trace(prefix)

    @pytest.mark.parametrize(
        "edit",
        ["level_not_object", "levels_not_list", "not_object", "no_config", "no_levels", "no_p_hat", "no_stagnation"],
    )
    def test_malformed_structure_rejected(self, tmp_path, edit):
        cfg = SubSimConfig(target_eps=0.5, n_particles=300)
        trace = subsim_run(lambda z: z[:, :2], np.zeros(2), 4, cfg, RngStream(11))
        prefix = str(tmp_path / "trace")
        save_trace(prefix, trace)
        doc = json.load(open(prefix + ".json"))
        if edit == "level_not_object":
            doc["levels"][0], want = 1.5, "level 0 is a float, not an object"
        elif edit == "levels_not_list":
            doc["levels"], want = 1.5, "a trace is an object whose levels are a list"
        elif edit == "not_object":
            doc, want = [doc], "a trace is an object whose levels are a list"
        else:
            key = edit.removeprefix("no_")
            del doc[key]
            want = rf"trace has missing keys \['{key}'\]"
        json.dump(doc, open(prefix + ".json", "w"))
        with pytest.raises(ValueError, match=rf"trace\.json: {want}"):
            load_trace(prefix)

    def test_unknown_stagnation_cause_rejected(self, tmp_path):
        cfg = SubSimConfig(target_eps=0.5, n_particles=300)
        trace = subsim_run(lambda z: z[:, :2], np.zeros(2), 4, cfg, RngStream(11))
        trace.stagnation = "bored"
        prefix = str(tmp_path / "trace")
        save_trace(prefix, trace)
        with pytest.raises(ValueError, match="stagnation cause"):
            load_trace(prefix)

    def test_level_without_proposals_roundtrips_as_null(self, tmp_path):
        # the whole prior population is within the target: no chain proposes
        cfg = SubSimConfig(target_eps=1e6, n_particles=300)
        trace = subsim_run(lambda z: z[:, :2], np.zeros(2), 4, cfg, RngStream(11))
        assert [lvl.acceptance_rate for lvl in trace.levels] == [None]
        assert trace.levels[0].g2_calls == 0
        prefix = str(tmp_path / "trace")
        save_trace(prefix, trace)
        assert '"acceptance_rate": null' in open(prefix + ".json").read()
        assert load_trace(prefix).levels == trace.levels
