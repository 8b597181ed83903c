"""Experiment configuration: versioned JSON schema and component builders.

A config is a plain JSON object (schema version 1) naming each component:

    {
      "schema": 1,
      "generator": {"name": "mcid1"},
      "loss": {"name": "mcid", "numBasis": 6},
      "prior": {"name": "gaussian", "mean": 0.0, "sd": 6.0},
      "rate": {"name": "fixed", "omega": 1.0},
      "mh": {"steps": 6000, "burnIn": 1000, "thin": 5, "proposalScale": 0.55},
      "divergence": {"name": "empirical_l2"},
      "nGrid": [100],
      "replications": 50,
      "baseSeed": 20240801,
      "holdout": 100
    }

Everything a run needs is derived from this dict plus the derived row seed,
which is what makes serial and parallel execution byte-identical.
proposalScale may be a number or {"c": c, "gamma": g} for a per-n scale
c * n^(-g).  The optional "fullReplications" count is activated by the CLI
flag --full.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ..diagnostics import (AbsScalarDistance, EmpiricalL2, EuclideanDistance,
                           RiskDiffSqrt)
from ..errors import ConfigError, PreconditionError
from ..losses import (AUCLoss, CappedSquaredLoss, CheckLoss, MCIDLoss,
                      SquaredLoss, ZeroOneLinearLoss)
from ..priors import GaussianIID, LaplaceIID, SpikeSlab
from ..rates import (AUCDataDriven, FixedRate, HeavyTailRate, PowerLawRate,
                     TsybakovRate)
from ..sampler import MHConfig
from .generators import (AUCSim, HeavyTailSim, MCID1, MCID2, MeanCurveSim,
                         QuantileRegSim, SparseClassSim, affine_features)

SCHEMA_VERSION = 1

_EXPERIMENT_KEYS = {"schema", "generator", "loss", "prior", "rate", "mh",
                    "divergence", "nGrid", "replications", "baseSeed",
                    "holdout", "fullReplications"}


def load_config(path) -> dict:
    """Read and validate a JSON config file.

    Raises ConfigError naming the file when missing, and quoting the line and
    column when the JSON itself is malformed.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"config field 'schema' must be {SCHEMA_VERSION}")
    return cfg


def validate_experiment_config(cfg: dict) -> None:
    """Check an experiment config before any cell runs.

    Besides the required fields and their types, every component's name
    must be one its builder table knows, each component spec must hold only
    the keys that component takes and no boolean, the loss, the rate and the
    divergence must take the kind of data the generator emits, and the
    zeroone loss and the spikeslab prior come together.  Then the cell's
    components and its sampler configuration are built at every n of the
    grid, as the runner builds them, so a parameter any builder rejects is an
    error here, and the mh init and a per-coordinate proposalScale must fit
    the parameter the sampler walks on.  What is left to fail per row
    depends on the data: a chain that cannot start, a degenerate
    data-driven rate, a singular pilot fit.
    """
    required = ["generator", "loss", "prior", "rate", "mh", "divergence",
                "nGrid", "replications", "baseSeed"]
    for key in required:
        if key not in cfg:
            raise ConfigError(f"config field {key!r} is required")
    unknown = set(cfg) - _EXPERIMENT_KEYS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    n_grid = cfg["nGrid"]
    if not isinstance(n_grid, list) or not n_grid or \
            any(not _is_int(n) or n < 1 for n in n_grid):
        raise ConfigError("nGrid must be a nonempty list of positive integers")
    if not _is_int(cfg["replications"]) or cfg["replications"] < 1:
        raise ConfigError("replications must be a positive integer")
    if not _is_int(cfg["baseSeed"]):
        raise ConfigError("baseSeed must be an integer")
    for key in ("fullReplications", "holdout"):
        value = cfg.get(key)
        if value is not None and (not _is_int(value) or value < 1):
            raise ConfigError(f"{key} must be a positive integer")
    for field, table in _COMPONENTS.items():
        _builder(table, cfg[field], field)
    generator = cfg["generator"]["name"]
    kind = _GENERATOR_TYPES[generator].data_kind
    for field, takes in (("loss", _LOSS_DATA_KINDS), ("rate", _RATE_DATA_KINDS),
                         ("divergence", _DIVERGENCE_DATA_KINDS)):
        name = cfg[field]["name"]
        if kind not in takes.get(name, (kind,)):
            fits = [g for g, t in _GENERATOR_TYPES.items()
                    if t.data_kind in takes[name]]
            raise ConfigError(f"{field} {name!r} cannot take the {kind} data of "
                              f"generator {generator!r}; generators it takes: "
                              f"{', '.join(fits)}")
    loss, prior = cfg["loss"]["name"], cfg["prior"]["name"]
    if (loss == "zeroone") != (prior == "spikeslab"):
        # the sparse sampler needs both; no other sampler takes either
        raise ConfigError(f"prior {prior!r} does not go with loss {loss!r}: "
                          f"the spikeslab prior and the zeroone loss are used "
                          f"together or not at all")
    for n in n_grid:
        parts = build_components(cfg, n)
        build_mh(cfg["mh"], n, seed=0)
    _check_start(cfg["mh"], parts)


def _check_start(mh: dict, parts: Components) -> None:
    """The mh init and a per-coordinate proposalScale must fit the
    parameter the sampler walks on."""
    init, scale = mh.get("init"), mh.get("proposalScale")
    if isinstance(parts.prior, SpikeSlab):
        # the sparse sampler starts from a prior draw, and its walk moves
        # every coordinate of the support by the one scale
        if init is not None:
            raise ConfigError("mh init is not supported with the spikeslab prior")
        if isinstance(scale, list):
            raise ConfigError("mh proposalScale must be one number with the "
                              "spikeslab prior, not a list")
        return
    if init == "pilot":
        if not isinstance(parts.loss, MCIDLoss):
            raise ConfigError("mh init 'pilot' is only available for the mcid loss")
    elif init is not None and (not isinstance(init, list) or not all(
            isinstance(v, (int, float)) for v in init)):
        raise ConfigError(f"mh init must be 'pilot' or a list of coordinates; "
                          f"got {init!r}")
    dim = parts.prior.dim
    for key, value in (("init", init), ("proposalScale", scale)):
        if isinstance(value, list) and len(value) != dim:
            raise ConfigError(f"mh {key} must have {dim} entries, one per "
                              f"parameter coordinate; got {len(value)}")


def _is_int(value) -> bool:
    # JSON true and false load as bool, which is a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite JSON number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) \
        and math.isfinite(value)


def _positive_int(kw: dict, key: str, default=None):
    """kw[key], which must be a positive integer, or the default if absent."""
    if key not in kw:
        return default
    if not _is_int(kw[key]) or kw[key] < 1:
        raise PreconditionError(f"{key} must be a positive integer; "
                                f"got {kw[key]!r}")
    return kw[key]


def _holds_bool(value) -> bool:
    if isinstance(value, dict):
        return any(_holds_bool(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, bool)


def _namespec(spec, what: str) -> tuple[str, dict]:
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError(f"{what} spec must be an object with a 'name' field")
    rest = {k: v for k, v in spec.items() if k != "name"}
    for key, value in rest.items():
        # no component takes a boolean, and Python reads true as 1
        if _holds_bool(value):
            raise ConfigError(f"{what} {key!r} must not hold a boolean; "
                              f"got {value!r}")
    return str(spec["name"]), rest


def _builder(table: dict, spec, what: str):
    """(name, builder, remaining fields) for a component spec.  A table
    entry is (the keys the component takes, its builder); any other key is
    an error."""
    name, kw = _namespec(spec, what)
    if name not in table:
        raise ConfigError(f"unknown {what} {name!r}; allowed names: "
                          f"{', '.join(sorted(table))}")
    keys, build = table[name]
    unknown = set(kw) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {what} {name!r} keys: {sorted(unknown)}; "
                          f"allowed keys: {', '.join(keys) or 'none'}")
    return name, build, kw


def _build(table: dict, spec, what: str, *args):
    """Build the component a spec names with its table entry's builder; a
    parameter the builder finds missing or rejects is a ConfigError naming
    the component."""
    name, build, kw = _builder(table, spec, what)
    try:
        return build(kw, *args)
    except KeyError as exc:
        raise ConfigError(f"{what} {name!r} missing parameter {exc}") from None
    except (TypeError, ValueError, PreconditionError) as exc:
        raise ConfigError(f"bad {what} parameters for {name!r}: {exc}") from None


def _keywords(cls, **names):
    """A builder-table entry for a class: the config keys in `names`, each
    passed to the class as the keyword it maps to."""
    return tuple(names), lambda kw: cls(**{names[key]: v for key, v in kw.items()})


_GENERATORS = {
    "mcid1": _keywords(MCID1),
    "mcid2": _keywords(MCID2),
    "quantilereg": _keywords(QuantileRegSim, tau="tau", betaStar="beta_star",
                             noiseSd="noise_sd"),
    "heavytail": _keywords(HeavyTailSim, df="df", thetaStar="theta_star"),
    "meancurve": _keywords(MeanCurveSim, curve="curve", noiseSd="noise_sd"),
    "aucsim": _keywords(AUCSim, mu="mu"),
    "sparseclass": _keywords(SparseClassSim, q="q", support="support",
                             betaValues="beta_values", flipRho="flip_rho"),
}


# generator names and their classes, whose `data_kind` says what they emit
_GENERATOR_TYPES = {g.name: g for g in (MCID1, MCID2, QuantileRegSim, HeavyTailSim,
                                        MeanCurveSim, AUCSim, SparseClassSim)}


def build_generator(spec: dict):
    return _build(_GENERATORS, spec, "generator")


def build_basis(generator, loss_spec: dict):
    """The generator's own function basis, with numBasis functions if the
    loss spec gives them, or None if its truth is no function."""
    num = _positive_int(loss_spec, "numBasis")
    if not hasattr(generator, "default_basis"):
        return None
    return generator.default_basis() if num is None else generator.default_basis(num)


def _capped_squared_loss(kw, generator, schedule, n):
    """A "cap": "auto" entry takes the heavy-tail schedule's truncation level
    t_n at the current sample size."""
    cap = kw.get("cap", "auto")
    if cap == "auto":
        if not isinstance(schedule, HeavyTailRate) or n is None:
            raise ConfigError("loss 'cappedsquared' with cap 'auto' needs a "
                              "heavytail rate schedule")
        cap = schedule.cap_at(n)
    return CappedSquaredLoss(features=None, cap=float(cap))


def _mcid_loss(kw, generator, schedule, n):
    basis = build_basis(generator, kw)
    if basis is None:
        raise ConfigError("mcid loss needs a threshold generator's basis")
    return MCIDLoss(basis=basis)


_LOSSES = {
    "check": (("tau",), lambda kw, *_: CheckLoss(tau=float(kw.get("tau", 0.5)),
                                                 features=affine_features())),
    "squared": (("numBasis",), lambda kw, generator, *_: SquaredLoss(
        features=build_basis(generator, kw))),
    "cappedsquared": (("cap",), _capped_squared_loss),
    "zeroone": ((), lambda *_: ZeroOneLinearLoss()),
    "mcid": (("numBasis",), _mcid_loss),
    "auc": ((), lambda *_: AUCLoss()),
}


# the generator data kinds each loss can fit and be scored on.  The check
# loss fits {1, x} to a scalar covariate, the squared loss a spline basis of
# it, the capped squared loss the generator's own design; the quantile
# design's truth lies over {1, x}, so only the check loss is scored on it.
_LOSS_DATA_KINDS = {
    "check": ("linear-regression", "curve-regression"),
    "squared": ("curve-regression",),
    "cappedsquared": ("multiple-regression",),
    "zeroone": ("linear-classification",),
    "mcid": ("threshold",),
    "auc": ("two-sample",),
}


def build_loss(spec: dict, generator, schedule=None, n: int | None = None):
    """Construct the loss; the capped squared cap may be schedule-resolved."""
    return _build(_LOSSES, spec, "loss", generator, schedule, n)


def parameter_dim(loss, generator) -> int:
    """Dimension of the continuous parameter the sampler walks on."""
    basis = getattr(loss, "basis", None) or getattr(loss, "features", None)
    if basis is not None:
        return basis.num_basis
    if isinstance(loss, CappedSquaredLoss):
        if isinstance(generator, HeavyTailSim):
            return generator.dim
        raise ConfigError("cannot infer parameter dimension for capped loss")
    if isinstance(loss, (CheckLoss, SquaredLoss, AUCLoss)):
        return 1
    raise ConfigError(f"cannot infer parameter dimension for {loss.kind!r}")


_PRIORS = {
    "gaussian": (("mean", "sd"), lambda kw, dim: GaussianIID(
        mean=float(kw.get("mean", 0.0)), sd=float(kw["sd"]), dim=dim)),
    "laplace": (("rate",), lambda kw, dim: LaplaceIID(rate=float(kw["rate"]),
                                                      dim=dim)),
    "spikeslab": (("q", "a", "c", "lam"), lambda kw, dim: SpikeSlab(
        q=int(kw["q"]), a=float(kw.get("a", 1.0)), c=float(kw.get("c", 1.0)),
        lam=None if kw.get("lam") is None else float(kw["lam"]))),
}


def build_prior(spec: dict, dim: int):
    return _build(_PRIORS, spec, "prior", dim)


def _aucdata_rate(kw):
    mult = kw.get("multiplier")
    if isinstance(mult, list):
        mult = (float(mult[0]), float(mult[1]))
    elif mult is not None:
        mult = float(mult)
    return AUCDataDriven(multiplier=mult)


_RATES = {
    "fixed": (("omega",), lambda kw: FixedRate(omega=float(kw["omega"]))),
    "power": (("c", "gamma"), lambda kw: PowerLawRate(c=float(kw["c"]),
                                                      gamma=float(kw["gamma"]))),
    "heavytail": (("s",), lambda kw: HeavyTailRate(s=float(kw["s"]))),
    "tsybakov": (("gamma",), lambda kw: TsybakovRate(gamma=float(kw["gamma"]))),
    "aucdata": (("multiplier",), _aucdata_rate),
}


# the data-driven ranking rate reads two-sample scores; the others take any
_RATE_DATA_KINDS = {"aucdata": ("two-sample",)}


def build_rate(spec: dict):
    return _build(_RATES, spec, "rate")


def _empirical_l2(kw, generator, loss, basis):
    if basis is None:
        raise ConfigError("empirical_l2 divergence needs a function basis")
    if not hasattr(generator, "divergence_grid"):
        raise ConfigError("generator provides no divergence grid")
    size = _positive_int(kw, "gridSize")
    return EmpiricalL2(basis, generator.divergence_grid() if size is None
                       else generator.divergence_grid(size))


_DIVERGENCES = {
    "euclid": ((), lambda *_: EuclideanDistance()),
    "abs": ((), lambda *_: AbsScalarDistance()),
    "empirical_l2": (("gridSize",), _empirical_l2),
    "risk_diff_sqrt": (("nDraws",), lambda kw, generator, loss, basis: RiskDiffSqrt(
        loss, generator.mc_sample, n_draws=_positive_int(kw, "nDraws", 4096))),
}


# the generator data kinds whose truth each divergence can measure: the
# coefficient-space divergences need a coefficient truth (theta_star), abs a
# scalar one, and empirical_l2 a true function and a grid to compare it on
_COEFFICIENT_TRUTH = ("linear-regression", "multiple-regression", "two-sample",
                      "linear-classification")
_DIVERGENCE_DATA_KINDS = {
    "euclid": _COEFFICIENT_TRUTH,
    "risk_diff_sqrt": _COEFFICIENT_TRUTH,
    "abs": ("two-sample",),
    "empirical_l2": ("threshold", "curve-regression"),
}


def build_divergence(spec: dict, generator, loss, basis=None):
    """Divergence used for radius/point-estimate reporting.

    MC divergences draw their reference samples from the generator's own
    law, so reported divergences are against the population, not the
    fitting data.
    """
    return _build(_DIVERGENCES, spec, "divergence", generator, loss, basis)


# the components named in an experiment config, with their builder tables
_COMPONENTS = {"generator": _GENERATORS, "loss": _LOSSES, "prior": _PRIORS,
               "rate": _RATES, "divergence": _DIVERGENCES}


@dataclass(frozen=True)
class Components:
    """What the cells at one sample size share: everything built from the
    config and n alone."""

    generator: object
    schedule: object
    loss: object
    basis: object
    prior: object
    divergence: object


def build_components(cfg: dict, n: int) -> Components:
    """Build a cell's generator, rate schedule, loss, basis, prior and
    divergence at sample size n.  Validation builds them at every n of the
    grid, and the runner once per block."""
    generator = build_generator(cfg["generator"])
    schedule = build_rate(cfg["rate"])
    loss = build_loss(cfg["loss"], generator, schedule=schedule, n=n)
    basis = getattr(loss, "basis", None) or getattr(loss, "features", None)
    # the sparse sampler's dimension is the prior's own q
    dim = 0 if cfg["prior"].get("name") == "spikeslab" \
        else parameter_dim(loss, generator)
    return Components(
        generator=generator, schedule=schedule, loss=loss, basis=basis,
        prior=build_prior(cfg["prior"], dim),
        divergence=build_divergence(cfg["divergence"], generator, loss,
                                    basis=basis))


def resolve_proposal_scale(mh_spec: dict, n: int):
    """The random-walk proposal scale at sample size n, or None for the
    sampler's default.  proposalScale is a positive finite number, a
    nonempty list of them (one per coordinate), or {"c": c, "gamma": g} for
    c * n^(-g), which must come out positive and finite."""
    scale = mh_spec.get("proposalScale")
    if scale is None:
        return None
    value = None
    if isinstance(scale, dict):
        if set(scale) == {"c", "gamma"} and _is_real(scale["c"]) \
                and _is_real(scale["gamma"]):
            try:
                value = float(scale["c"]) * float(n) ** (-float(scale["gamma"]))
            except OverflowError:
                pass
    elif isinstance(scale, list):
        if scale and all(map(_is_real, scale)):
            value = np.asarray(scale, dtype=float)
    elif _is_real(scale):
        value = float(scale)
    if value is None or not np.all(np.isfinite(value) & (value > 0)):
        raise ConfigError(f"mh proposalScale must be a positive finite number, "
                          f"a nonempty list of them, or an object with finite "
                          f"'c' and 'gamma' whose c * n^(-gamma) is positive "
                          f"and finite; got {scale!r} at n = {n}")
    return value


def _mh_config(kw, n, seed, init):
    for key in ("steps", "burnIn", "thin"):
        if key in kw and not _is_int(kw[key]):
            raise ConfigError(f"mh {key} must be an integer; got {kw[key]!r}")
    return MHConfig(
        steps=kw.get("steps", 50_000),
        burn_in=kw.get("burnIn", 10_000),
        thin=kw.get("thin", 5),
        proposal_scale=resolve_proposal_scale(kw, n),
        seed=seed,
        init=init,
        alpha_flip_prob=float(kw.get("alphaFlipProb", 0.05)),
    )


# the mh section is one component with a fixed name
_MH = {"mh": (("steps", "burnIn", "thin", "proposalScale", "init",
               "alphaFlipProb"), _mh_config)}


def build_mh(spec: dict, n: int, seed: int, init=None) -> MHConfig:
    if not isinstance(spec, dict):
        raise ConfigError("mh spec must be an object")
    return _build(_MH, {"name": "mh", **spec}, "mh", n, seed, init)
