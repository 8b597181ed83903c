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
from ..model import AffineBasis
from ..priors import GaussianIID, LaplaceIID, SpikeSlab
from ..rates import AUCDataDriven, FixedRate, HeavyTailRate, PowerLawRate
from ..sampler import MHConfig
from .generators import (AUCSim, HeavyTailSim, MCID1, MCID2, MeanCurveSim,
                         QuantileRegSim, SparseClassSim)

SCHEMA_VERSION = 1

_EXPERIMENT_KEYS = {"schema", "generator", "loss", "prior", "rate", "mh",
                    "divergence", "nGrid", "replications", "baseSeed",
                    "holdout", "fullReplications"}


def _read_text(path, what: str) -> str:
    """The text of a UTF-8 input file; a path that is missing, a directory
    or not UTF-8 text is a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"{what} path is a directory: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not UTF-8 text: "
                          f"{exc.reason} at byte {exc.start}") from None


def load_config(path) -> dict:
    """Read and validate a JSON config file.

    Raises ConfigError naming the file when it cannot be read, and quoting
    the line and column when the JSON itself is malformed.
    """
    text = _read_text(path, "config")
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
    the keys that component takes and no boolean or non-finite number, the
    loss, the rate and the divergence must take the generator's kind of
    data, the zeroone loss and the spikeslab prior come together, and only
    the mcid loss takes a holdout.  Then the cell's components and its
    sampler configuration are built at every n of the grid, as the runner
    builds them (see `build_components`), and the mh init and a
    per-coordinate proposalScale must fit the parameter the sampler walks
    on.  What is left to fail per row depends on the data: a chain that
    cannot start, a degenerate data-driven rate, a singular pilot fit.
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
    check_data_kinds(cfg)
    loss, prior = cfg["loss"]["name"], cfg["prior"]["name"]
    if (loss == "zeroone") != (prior == "spikeslab"):
        # the sparse sampler needs both; no other sampler takes either
        raise ConfigError(f"prior {prior!r} does not go with loss {loss!r}: "
                          f"the spikeslab prior and the zeroone loss are used "
                          f"together or not at all")
    if cfg.get("holdout") is not None and loss != "mcid":
        raise ConfigError(f"holdout sizes the mcid loss's misclassification "
                          f"sample; loss {loss!r} takes none")
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


def _holds(value, test) -> bool:
    """Whether test is true of a scalar at any depth of value."""
    if isinstance(value, dict):
        return any(_holds(v, test) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_holds(v, test) for v in value)
    return test(value)


def _namespec(spec, what: str) -> tuple[str, dict]:
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError(f"{what} spec must be an object with a 'name' field")
    rest = {k: v for k, v in spec.items() if k != "name"}
    for key, value in rest.items():
        # no component takes a boolean, and Python reads true as 1
        if _holds(value, lambda v: isinstance(v, bool)):
            raise ConfigError(f"{what} {key!r} must not hold a boolean; "
                              f"got {value!r}")
        # nor a JSON NaN or Infinity, which passes every range check a
        # builder makes; a NaN in the mh init is left to its row, as a
        # start whose density is NaN
        if what != "mh" and _holds(value, lambda v: isinstance(v, float)
                                   and not math.isfinite(v)):
            raise ConfigError(f"{what} {key!r} must not hold a non-finite "
                              f"number; got {value!r}")
    return str(spec["name"]), rest


def _builder(table: dict, spec, what: str):
    """(name, builder, remaining fields) for a component spec.  A table
    entry is (the keys the component takes, its builder[, its data kinds]);
    any other key is an error."""
    name, kw = _namespec(spec, what)
    if name not in table:
        raise ConfigError(f"unknown {what} {name!r}; allowed names: "
                          f"{', '.join(sorted(table))}")
    keys, build = table[name][:2]
    unknown = set(kw) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {what} {name!r} keys: {sorted(unknown)}; "
                          f"allowed keys: {', '.join(keys) or 'none'}")
    return name, build, kw


def _build(table: dict, spec, what: str, *args):
    """Build the component a spec names with its table entry's builder; a
    parameter the builder finds missing or rejects, or an integer too large
    for a float, is a ConfigError naming the component."""
    name, build, kw = _builder(table, spec, what)
    try:
        return build(kw, *args)
    except KeyError as exc:
        raise ConfigError(f"{what} {name!r} missing parameter {exc}") from None
    except (TypeError, ValueError, OverflowError, PreconditionError) as exc:
        raise ConfigError(f"bad {what} parameters for {name!r}: {exc}") from None


def _keywords(cls, **names):
    """A generator-table entry: the config keys in `names`, each passed to
    the class as the keyword it maps to, and the kind of data it emits."""
    return (tuple(names), lambda kw: cls(**{names[key]: v for key, v in kw.items()}),
            cls.data_kind)


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


def build_generator(spec: dict):
    return _build(_GENERATORS, spec, "generator")


def build_basis(generator, loss_spec: dict):
    """The generator's own function basis, with numBasis functions if the
    loss spec gives them, or None if it has none (and takes no numBasis)."""
    num = _positive_int(loss_spec, "numBasis")
    if not hasattr(generator, "default_basis"):
        if num is not None:
            raise PreconditionError(f"numBasis: {generator.name!r} has none")
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
    return CappedSquaredLoss(basis=None, cap=float(cap))


def _mcid_loss(kw, generator, schedule, n):
    basis = build_basis(generator, kw)
    if basis is None:
        raise ConfigError("mcid loss needs a threshold generator's basis")
    return MCIDLoss(basis=basis)


# each row ends with the data kinds the loss can fit and be scored on.  The
# check loss fits {1, x} to a scalar covariate, the squared loss a spline
# basis of it or the generator's own design, the capped squared loss that
# design; only the check loss is scored on the quantile design ({1, x} truth).
_LOSSES = {
    "check": (("tau",), lambda kw, *_: CheckLoss(tau=float(kw.get("tau", 0.5)),
                                                 basis=AffineBasis()),
              ("linear-regression", "curve-regression")),
    "squared": (("numBasis",), lambda kw, generator, *_: SquaredLoss(
        basis=build_basis(generator, kw)), ("curve-regression", "multiple-regression")),
    "cappedsquared": (("cap",), _capped_squared_loss, ("multiple-regression",)),
    "zeroone": ((), lambda *_: ZeroOneLinearLoss(), ("linear-classification",)),
    "mcid": (("numBasis",), _mcid_loss, ("threshold",)),
    "auc": ((), lambda *_: AUCLoss(), ("two-sample",)),
}


def build_loss(spec: dict, generator, schedule=None, n: int | None = None):
    """Construct the loss; the capped squared cap may be schedule-resolved."""
    return _build(_LOSSES, spec, "loss", generator, schedule, n)


def parameter_dim(loss, generator) -> int:
    """Width of the parameter row the sampler walks on: the size of the
    loss's basis, or else of the generator's coefficient truth."""
    if loss.basis is not None:
        return loss.basis.num_basis
    if generator.theta_star is None:
        raise ConfigError(f"loss {loss.kind!r} has no basis and generator "
                          f"{generator.name!r} no coefficient truth")
    return int(np.size(generator.theta_star))


_PRIORS = {
    "gaussian": (("mean", "sd"), lambda kw, dim: GaussianIID(
        mean=float(kw.get("mean", 0.0)), sd=float(kw["sd"]), dim=dim)),
    "laplace": (("rate",), lambda kw, dim: LaplaceIID(rate=float(kw["rate"]),
                                                      dim=dim)),
    "spikeslab": (("q", "a", "c", "lam"), lambda kw, dim: SpikeSlab(
        q=kw["q"], a=float(kw.get("a", 1.0)), c=float(kw.get("c", 1.0)),
        lam=None if kw.get("lam") is None else float(kw["lam"]))),
}


def build_prior(spec: dict, dim: int):
    return _build(_PRIORS, spec, "prior", dim)


# the data-driven ranking rate reads two-sample scores; the others take any
_RATES = {
    "fixed": (("omega",), lambda kw: FixedRate(omega=float(kw["omega"])), None),
    "power": (("c", "gamma"), lambda kw: PowerLawRate(c=float(kw["c"]),
                                                      gamma=float(kw["gamma"])), None),
    "heavytail": (("s",), lambda kw: HeavyTailRate(s=float(kw["s"])), None),
    "aucdata": (("multiplier",), lambda kw: AUCDataDriven(kw.get("multiplier")),
                ("two-sample",)),
}


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


# each row ends with the data kinds whose truth the divergence can measure:
# the coefficient divergences need a coefficient truth (theta_star), abs a
# scalar one, and empirical_l2 a true function and a grid to compare it on
_COEFFICIENT_TRUTH = ("linear-regression", "multiple-regression", "two-sample",
                      "linear-classification")
_DIVERGENCES = {
    "euclid": ((), lambda *_: EuclideanDistance(), _COEFFICIENT_TRUTH),
    "abs": ((), lambda *_: AbsScalarDistance(), ("two-sample",)),
    "empirical_l2": (("gridSize",), _empirical_l2, ("threshold", "curve-regression")),
    "risk_diff_sqrt": (("nDraws",), lambda kw, generator, loss, basis: RiskDiffSqrt(
        loss, generator.mc_sample, n_draws=_positive_int(kw, "nDraws", 4096)),
        _COEFFICIENT_TRUTH),
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


def check_data_kinds(section: dict) -> None:
    """The loss, rate and divergence a config section has must each take the
    kind of data its generator emits; their names must be known."""
    generator = section["generator"]["name"]
    kind = _GENERATORS[generator][2]
    for field in [f for f in ("loss", "rate", "divergence") if f in section]:
        name = section[field]["name"]
        takes = _COMPONENTS[field][name][2]
        if takes is not None and kind not in takes:
            fits = [g for g, row in _GENERATORS.items() if row[2] in takes]
            raise ConfigError(f"{field} {name!r} cannot take the {kind} data of "
                              f"generator {generator!r}; generators it takes: "
                              f"{', '.join(fits)}")


@dataclass(frozen=True)
class Components:
    """What the cells at one sample size share: everything built from the
    config and n alone."""

    generator: object
    schedule: object
    omega: float | None       # None for the data-driven rate, set per cell
    loss: object
    prior: object
    divergence: object


def build_components(cfg: dict, n: int) -> Components:
    """Build a cell's components at sample size n, and resolve a
    deterministic rate at n; the prior must be as wide as `parameter_dim`.
    Validation builds them at every n of the grid, the runner once per block."""
    generator = build_generator(cfg["generator"])
    schedule = build_rate(cfg["rate"])
    try:    # the data-driven rate resolves per cell, from the cell's scores
        omega = None if isinstance(schedule, AUCDataDriven) else schedule.rate_at(n)
    except PreconditionError as exc:
        raise ConfigError(f"rate {cfg['rate']['name']!r} cannot resolve at "
                          f"n = {n}: {exc}") from None
    loss = build_loss(cfg["loss"], generator, schedule=schedule, n=n)
    dim = parameter_dim(loss, generator)
    prior = build_prior(cfg["prior"], dim)
    if prior.dim != dim:
        raise ConfigError(f"prior {cfg['prior']['name']!r} has parameter width "
                          f"{prior.dim}, but loss {loss.kind!r} on generator "
                          f"{generator.name!r} has width {dim}")
    return Components(
        generator=generator, schedule=schedule, omega=omega, loss=loss,
        prior=prior, divergence=build_divergence(
            cfg["divergence"], generator, loss, basis=loss.basis))


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
