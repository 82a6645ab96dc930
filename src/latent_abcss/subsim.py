"""Tolerance-region sampling over the latent space by subset simulation.

The target event is "the generated travel times fall within a squared-L2
tolerance of the observation".  Rather than rejection-sampling that rare
event from the latent prior, nested intermediate tolerance levels are peeled
off adaptively: each level keeps the best fraction of the current particles
and regrows the population with Markov chains that leave the prior invariant
and reject any move out of the level's region.  The product of the level
fractions estimates the prior mass of the final region, the quantity the
threshold diagnostics are built on.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .rng_linalg import RngStream, load_array, save_array, write_json

__all__ = [
    "SubSimConfig",
    "LevelRecord",
    "SubSimTrace",
    "dissimilarity_batch",
    "subsim_run",
    "estimate_p",
    "save_trace",
    "load_trace",
]

# fixed parts of adaptive conditional sampling (Papaioannou et al. 2015): the
# first level's proposal scale and the acceptance rate the scale is steered to
_PROPOSAL_SCALE = 0.5
_ACCEPTANCE_TARGET = 0.44
# a threshold that falls by less than this, relatively, improves slowly, and
# this many slow levels in a row mark the run as stagnated
_STAGNATION_REL_TOL = 1e-3
_STAGNATION_PATIENCE = 3


@dataclass(frozen=True)
class SubSimConfig:
    """Sampler settings; ``target_eps`` is the squared-L2 tolerance (ns^2)."""

    target_eps: float
    n_particles: int = 1000
    level_fraction: float = 0.1
    max_levels: int = 30

    def __post_init__(self):
        if not self.target_eps > 0:
            raise ValueError("target_eps must be positive")
        if not (0.0 < self.level_fraction < 1.0):
            raise ValueError("level_fraction must be in (0, 1)")
        if self.n_particles * self.level_fraction < 10:
            raise ValueError("need n_particles * level_fraction >= 10")
        if self.max_levels < 1:
            raise ValueError("max_levels must be at least 1")


@dataclass
class LevelRecord:
    """One level: its threshold and survivors, and how its chains ran.

    ``proposal_scale`` is the scale the level's chains proposed with, and
    ``g2_calls`` counts the batched generator calls they made.
    ``acceptance_rate`` is None when the chains proposed nothing: every
    survivor slot was already filled, as when the whole population is
    within the target tolerance.
    """

    threshold: float
    acceptance_rate: float | None
    survivor_count: int
    proposal_scale: float
    g2_calls: int


@dataclass
class SubSimTrace:
    """Everything a run produced, enough to rebuild the probability curve.

    ``level_dissimilarities[j]`` and ``level_samples[j]`` describe the full
    population after the j-th rejuvenation (j = 0 is the prior population).
    ``stagnation`` is None unless the run stagnated, and then the first cause
    that fired: ``"flat_threshold"`` (no strictly lower threshold),
    ``"slow_improvement"`` (three slow levels in a row) or
    ``"level_budget"`` (``max_levels`` ran out before the target).
    """

    config: SubSimConfig
    levels: list[LevelRecord] = field(default_factory=list)
    final_samples: np.ndarray | None = None
    p_hat: float = np.nan
    stagnation: str | None = None
    level_dissimilarities: list[np.ndarray] = field(default_factory=list)
    level_samples: list[np.ndarray] = field(default_factory=list)

    @property
    def stagnated(self) -> bool:
        return self.stagnation is not None

    @property
    def n_levels(self) -> int:
        return len(self.levels)


def dissimilarity_batch(y_gen: np.ndarray, y_obs: np.ndarray) -> np.ndarray:
    """Row-wise squared L2 distances of a batch against one observation."""
    y_gen = np.atleast_2d(y_gen)
    y_obs = np.asarray(y_obs, dtype=np.float64).ravel()
    if y_gen.shape[1] != y_obs.size:
        raise ValueError(f"length mismatch: {y_gen.shape[1]} vs {y_obs.size}")
    d = y_gen - y_obs[None, :]
    return np.einsum("ij,ij->i", d, d)


def _rejuvenate(seeds, seed_d, t, level_index, scale, g2, y_obs, rng, n_particles):
    """Grow the survivor set back to ``n_particles`` members of the region.

    Each chain proposes ``rho * z + scale * u`` with ``rho = sqrt(1 - scale^2)``
    and standard-normal ``u``; that move leaves the standard normal invariant,
    so accepting exactly the proposals within the threshold ``t`` targets the
    prior restricted to the region.
    One chain per survivor; chain lengths differ by at most one, with the
    remainder going to the first chains.  Chains advance in lockstep so the
    generator map is always evaluated on a batch.  All proposal noise is one
    ``(n_chains, max_steps, dim)`` block from ``rng.split(level_index)``,
    drawn before any chain steps; chain c reads row c (a shorter chain leaves
    its tail unread), so the merged population does not depend on scheduling.

    Returns (population, dissimilarities, acceptance rate, g2 call count);
    the rate is None when no chain proposed anything.
    """
    n_chains, dim = seeds.shape
    base, extra = divmod(n_particles, n_chains)
    lengths = base + (np.arange(n_chains) < extra).astype(np.intp)
    offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    max_steps = int(lengths.max()) - 1

    noise = rng.split(level_index).generator().standard_normal((n_chains, max_steps, dim))

    out_z = np.empty((n_particles, dim))
    out_d = np.empty(n_particles)
    out_z[offsets] = seeds
    out_d[offsets] = seed_d
    cur = seeds.copy()
    cur_d = seed_d.copy()
    rho = np.sqrt(1.0 - scale * scale)
    accepted = 0
    for s in range(max_steps):
        active = np.where(lengths > s + 1)[0]
        prop = rho * cur[active] + scale * noise[active, s]
        d_prop = dissimilarity_batch(g2(prop), y_obs)
        acc = d_prop <= t
        hit = active[acc]
        cur[hit] = prop[acc]
        cur_d[hit] = d_prop[acc]
        accepted += int(acc.sum())
        out_z[offsets[active] + s + 1] = cur[active]
        out_d[offsets[active] + s + 1] = cur_d[active]
    # every chain proposes once per state after its seed, in one g2 call per step
    rate = accepted / (n_particles - n_chains) if max_steps else None
    return out_z, out_d, rate, max_steps


def subsim_run(g2, y_obs, latent_dim: int, cfg: SubSimConfig, rng: RngStream) -> SubSimTrace:
    """Full adaptive run down to the target tolerance (or stagnation).

    Args:
        g2: batch map from latent vectors (n, latent_dim) to generated
            travel-time vectors (n, n_obs).
        y_obs: observed travel times.
        latent_dim: dimension of the standard-normal latent prior.
        cfg: sampler settings.
        rng: stream; level j draws from the substream ``rng.split(j)``:
            the prior population at j = 0, and one proposal-noise block
            for all of its chains at j >= 1.

    Returns:
        :class:`SubSimTrace`; a threshold improves slowly when it falls by
        less than 0.1% relatively.  A stagnated
        run still burns its remaining budget: the repeated best-fraction
        selection at an almost-flat threshold is what squeezes the final
        population onto the closest-fitting set, and the diagnostics read
        that collapse.  Only a threshold that cannot strictly decrease at
        all aborts the loop early.
    """
    n = cfg.n_particles
    alpha = cfg.level_fraction
    k = int(np.ceil(alpha * n))
    trace = SubSimTrace(config=cfg)

    z = rng.split(0).generator().standard_normal((n, latent_dim))
    d = dissimilarity_batch(g2(z), y_obs)
    trace.level_dissimilarities.append(d)
    trace.level_samples.append(z)

    scale = _PROPOSAL_SCALE
    stagnant_streak = 0
    t_prev = np.inf

    for level in range(1, cfg.max_levels + 1):
        order = np.argsort(d, kind="stable")
        t_prop = float(d[order[k - 1]])
        crossed = t_prop <= cfg.target_eps

        if crossed:
            t = cfg.target_eps
            surv = np.where(d <= t)[0]
        else:
            if not t_prop < t_prev:
                trace.stagnation = trace.stagnation or "flat_threshold"  # flat dissimilarity mass
                break
            if np.isfinite(t_prev) and (t_prev - t_prop) / t_prev < _STAGNATION_REL_TOL:
                stagnant_streak += 1
                if stagnant_streak >= _STAGNATION_PATIENCE:
                    trace.stagnation = trace.stagnation or "slow_improvement"
            else:
                stagnant_streak = 0
            # survivors: everything strictly below, tie slots filled in sample order
            strictly = np.where(d < t_prop)[0]
            tied = np.where(d == t_prop)[0]
            t, surv = t_prop, np.concatenate([strictly, tied])[:k]

        z, d, rate, calls = _rejuvenate(z[surv], d[surv], t, level, scale, g2, y_obs, rng, n)
        trace.levels.append(LevelRecord(t, rate, surv.size, scale, calls))
        trace.level_dissimilarities.append(d)
        trace.level_samples.append(z)
        if crossed:
            break
        t_prev = t

        if rate is not None:  # chains that proposed nothing leave the scale as it is
            zeta = 1.0 / np.sqrt(level)
            scale = float(np.clip(np.exp(np.log(max(scale, 1e-6)) + zeta * (rate - _ACCEPTANCE_TARGET)), 1e-3, 1.0))
    else:
        trace.stagnation = trace.stagnation or "level_budget"  # consumed before crossing

    trace.final_samples = z
    trace.p_hat = estimate_p(trace) if trace.levels else float("nan")
    return trace


def estimate_p(trace: SubSimTrace) -> float:
    """Probability estimate: alpha^(m-1) times the final survivor fraction."""
    m = trace.n_levels
    if m == 0:
        raise ValueError("empty trace")
    cfg = trace.config
    return cfg.level_fraction ** (m - 1) * trace.levels[-1].survivor_count / cfg.n_particles


def save_trace(prefix: str, trace: SubSimTrace, provenance: dict | None = None) -> None:
    """JSON at ``prefix.json``, the final samples, and one array of every population's dissimilarities.

    Row 0 of ``prefix_dissimilarities.f64`` is the prior population and row j the one after level j.
    """
    doc = {
        "config": asdict(trace.config),
        "levels": [asdict(lvl) for lvl in trace.levels],
        "p_hat": None if np.isnan(trace.p_hat) else trace.p_hat,  # no level, no estimate
        "stagnation": trace.stagnation,
    }
    if provenance is not None:
        doc["provenance"] = provenance
    write_json(prefix + ".json", doc)
    save_array(prefix + "_samples.f64", trace.final_samples, provenance)
    save_array(prefix + "_dissimilarities.f64", np.stack(trace.level_dissimilarities), provenance)


def _from_doc(cls, doc: dict, path: str, what: str):
    """``cls(**doc)``, refusing a block that is not an object with exactly ``cls``'s fields as keys."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} is a {type(doc).__name__}, not an object")
    names = {f.name for f in fields(cls)}
    wrong = {"unknown": sorted(set(doc) - names), "missing": sorted(names - set(doc))}
    if any(wrong.values()):
        raise ValueError(f"{path}: {what} has " + " and ".join(f"{k} keys {v}" for k, v in wrong.items() if v))
    return cls(**doc)


def load_trace(prefix: str) -> SubSimTrace:
    """Read a trace written by :func:`save_trace`; the one reader of that format.

    Raises:
        ValueError: if the JSON is not an object holding ``config``,
            ``levels`` (a list), ``p_hat`` and ``stagnation``, the config
            block or a level is not an object with exactly its fields as
            keys, the stagnation cause is unknown, or the population array
            does not hold one row per population.
    """
    path = prefix + ".json"
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("levels", []), list):
        raise ValueError(f"{path}: a trace is an object whose levels are a list")
    missing = sorted({"config", "levels", "p_hat", "stagnation"} - set(doc))
    if missing:
        raise ValueError(f"{path}: trace has missing keys {missing}")
    trace = SubSimTrace(config=_from_doc(SubSimConfig, doc["config"], path, "config"))
    trace.levels = [_from_doc(LevelRecord, lvl, path, f"level {j}") for j, lvl in enumerate(doc["levels"])]
    trace.p_hat = float("nan") if doc["p_hat"] is None else doc["p_hat"]
    trace.stagnation = doc["stagnation"]
    if trace.stagnation not in (None, "flat_threshold", "slow_improvement", "level_budget"):
        raise ValueError(f"unknown stagnation cause {trace.stagnation!r}")
    trace.final_samples = load_array(prefix + "_samples.f64")
    pops = load_array(prefix + "_dissimilarities.f64")
    if pops.shape != (trace.n_levels + 1, trace.config.n_particles):
        raise ValueError(f"{prefix}_dissimilarities.f64 has shape {pops.shape}, not one row per population")
    trace.level_dissimilarities = list(pops)
    return trace
