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

Each section has a parameter spec, per key its JSON type and its default
(... for a required key); `_typed` checks a section against it before any
builder runs.  The range checks are the components' own.
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

    Raises ConfigError naming the file when it cannot be read, quoting the
    line and column when the JSON itself is malformed, and when "schema" is
    not the integer 1 (true and 1.0 are not).
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
    if not _SCHEMA[1](cfg.get("schema")):
        raise ConfigError(f"config field 'schema' must be {SCHEMA_VERSION}")
    return cfg


def _is_number(value) -> bool:
    # JSON true and false load as bool, which is a subclass of int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_real(value, finite=True) -> bool:
    """A finite JSON number; with finite=False, any JSON number a float can
    hold, NaN and the infinities too."""
    try:
        return _is_number(value) and (math.isfinite(value) or not finite)
    except OverflowError:       # an integer too large for a float
        return False


def _list_of(test, nonempty=False):
    return lambda v: isinstance(v, list) and bool(v or not nonempty) \
        and all(map(test, v))


# a parameter type is its name in messages and a test of JSON values; the
# components convert the numbers they take themselves
_NUMBER = ("a finite number", _is_real)
_NUMBERS = ("a list of finite numbers", _list_of(_is_real))
_POINT = ("a finite number or a list of them", lambda v: _is_real(v) or _NUMBERS[1](v))
_POSITIVE_NUMBER = ("a positive finite number", lambda v: _is_real(v) and v > 0)
_INTEGER = ("an integer", lambda v: _is_number(v) and isinstance(v, int))
_POSITIVE_INTEGER = ("a positive integer", lambda v: _INTEGER[1](v) and v >= 1)
_SCHEMA = (f"the integer {SCHEMA_VERSION}",
           lambda v: _INTEGER[1](v) and v == SCHEMA_VERSION)
_STRING = ("a string", lambda v: isinstance(v, str))
_OBJECT = ("an object", lambda v: isinstance(v, dict))
# the named unions: a mh proposalScale, a mh init (whose NaN is left to its
# row, as a start of NaN density), a cappedsquared cap, an aucdata multiplier
_PROPOSAL_SCALE = (
    'a finite number, a nonempty list of them or {"c": c, "gamma": gamma} of '
    'finite numbers', lambda v: _is_real(v) or _list_of(_is_real, True)(v) or (
        isinstance(v, dict) and set(v) == {"c", "gamma"}
        and all(map(_is_real, v.values()))))
_INIT = ("'pilot' or a list of numbers in float range",
         lambda v: v == "pilot" or _list_of(lambda x: _is_real(x, False))(v))
_CAP = ("a finite number or 'auto'", lambda v: v == "auto" or _is_real(v))
_MULTIPLIER = _POINT


def _held(value) -> str | None:
    """The first boolean, null, string or non-finite number at any depth of
    a JSON value, described."""
    if isinstance(value, (list, dict)):
        parts = value.values() if isinstance(value, dict) else value
        return next(filter(None, map(_held, parts)), None)
    if isinstance(value, float) and not math.isfinite(value):
        return "a non-finite number"
    return {bool: "a boolean", str: "a string", type(None): "null"}.get(type(value))


def _typed(spec: dict, section: dict, what: str, name: str | None = None) -> dict:
    """The section's values with the spec's defaults for the keys it leaves
    out.  A key the spec lacks, a required key left out, or a value not of
    its key's type (a JSON null is of none) is a ConfigError naming the
    component, the key and the wanted type."""
    label = what if name is None else f"{what} {name!r}"
    for key in section:
        if key not in spec:
            raise ConfigError(f"{label} {key} is an unknown key; allowed keys: "
                              f"{', '.join(spec) or 'none'}")
    for key, ((wanted, test), default) in spec.items():
        if key not in section and default is ...:
            raise ConfigError(f"{label} missing parameter {key!r}")
        if key in section and not test(section[key]):
            held = _held(section[key])
            raise ConfigError((f"{what} {key!r} must not hold {held}: " if held
                               else "") + f"{label} {key} must be {wanted}; "
                              f"got {section[key]!r}")
    return {key: section.get(key, default) for key, (_, default) in spec.items()}


_EXPERIMENT = {
    "schema": (_SCHEMA, SCHEMA_VERSION),
    **{field: (_OBJECT, ...) for field in
       ("generator", "loss", "prior", "rate", "mh", "divergence")},
    "nGrid": (("a nonempty list of positive integers",
               _list_of(_POSITIVE_INTEGER[1], nonempty=True)), ...),
    "replications": (_POSITIVE_INTEGER, ...),
    "baseSeed": (_INTEGER, ...),
    "holdout": (_POSITIVE_INTEGER, None),
    "fullReplications": (_POSITIVE_INTEGER, None),
}

# the `diagnose mgf` section; its grid points and thetaStar must also be
# as wide as the loss's parameter row
_MGF = {
    "generator": (_OBJECT, ...),
    "loss": (_OBJECT, ...),
    "grid": (("a nonempty list of points, each a finite number or a list of "
              "them", _list_of(_POINT[1], nonempty=True)), ...),
    "omega": (_POSITIVE_NUMBER, ...),
    "thetaStar": (("'auto' or a point", lambda v: v == "auto" or _POINT[1](v)),
                  "auto"),
    "r": (_POSITIVE_NUMBER, 2.0),
    "nDraws": (("an integer of at least 2", lambda v: _INTEGER[1](v) and v >= 2),
               100_000),
    "seed": (_INTEGER, 0),
}


def validate_experiment_config(cfg: dict) -> None:
    """Check an experiment config before any cell runs.

    Every section must hold only the keys of its spec, each of its type,
    and every component's name must be one its builder table knows; the
    loss, the rate and the divergence must take the generator's kind of
    data, the zeroone loss and the spikeslab prior come together, and only
    the mcid loss takes a holdout.  Then the cell's components and its
    sampler configuration are built at every n of the grid, as the runner
    builds them (see `build_components`), and the mh init and a
    per-coordinate proposalScale must fit the parameter the sampler walks
    on.  What is left to fail per row depends on the data: a chain that
    cannot start, a degenerate data-driven rate, a singular pilot fit.
    """
    _typed(_EXPERIMENT, cfg, "config")
    for field, table in _COMPONENTS.items():
        _builder(table, cfg[field], field)
    _typed(_MH, cfg["mh"], "mh")
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
    for n in cfg["nGrid"]:
        parts = build_components(cfg, n)
    _check_start(cfg["mh"], parts)


def _check_start(mh: dict, parts: Components) -> None:
    """The mh init and a per-coordinate proposalScale must fit the
    parameter the sampler walks on, and only the sparse sampler takes an
    alphaFlipProb."""
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
    if "alphaFlipProb" in mh:
        raise ConfigError("mh alphaFlipProb is the sign-flip probability of "
                          "the spikeslab prior's sampler; a random-walk chain "
                          "takes none")
    if init == "pilot" and not isinstance(parts.loss, MCIDLoss):
        raise ConfigError("mh init 'pilot' is only available for the mcid loss")
    dim = parts.prior.dim
    for key, value in (("init", init), ("proposalScale", scale)):
        if isinstance(value, list) and len(value) != dim:
            raise ConfigError(f"mh {key} must have {dim} entries, one per "
                              f"parameter coordinate; got {len(value)}")


def _builder(table: dict, spec, what: str):
    """(name, builder, typed parameters) for a component spec.  A table row
    is (the component's parameter spec, its builder[, its data kinds])."""
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError(f"{what} spec must be an object with a 'name' field")
    name = str(spec["name"])
    if name not in table:
        raise ConfigError(f"unknown {what} {name!r}; allowed names: "
                          f"{', '.join(sorted(table))}")
    params, build = table[name][:2]
    rest = {k: v for k, v in spec.items() if k != "name"}
    return name, build, _typed(params, rest, what, name)


def _build(table: dict, spec, what: str, *args):
    """Build the component a spec names with its table row's builder; a
    parameter the component rejects is a ConfigError naming it."""
    name, build, kw = _builder(table, spec, what)
    try:
        return build(kw, *args)
    except PreconditionError as exc:
        raise ConfigError(f"bad {what} parameters for {name!r}: {exc}") from None


def _keywords(cls, **spec):
    """A generator-table row: the spec, a builder that passes each config key
    to the class as its snake_case keyword, and the kind of data it emits."""
    def build(kw):
        return cls(**{"".join(f"_{c.lower()}" if c.isupper() else c for c in key): v
                      for key, v in kw.items()})
    return spec, build, cls.data_kind


_GENERATORS = {
    "mcid1": _keywords(MCID1),
    "mcid2": _keywords(MCID2),
    "quantilereg": _keywords(QuantileRegSim, tau=(_NUMBER, ...),
                             betaStar=(_NUMBERS, (1.0, 2.0)),
                             noiseSd=(_NUMBER, 1.0)),
    "heavytail": _keywords(HeavyTailSim, df=(_NUMBER, ...),
                           thetaStar=(_NUMBERS, (1.0, 2.0, -1.0))),
    "meancurve": _keywords(MeanCurveSim, curve=(_STRING, "sine"),
                           noiseSd=(_NUMBER, 0.3)),
    "aucsim": _keywords(AUCSim, mu=(_NUMBER, ...)),
    "sparseclass": _keywords(SparseClassSim, q=(_INTEGER, ...),
                             support=(("a list of integers", _list_of(_INTEGER[1])), ...),
                             betaValues=(_NUMBERS, ...),
                             flipRho=(_NUMBER, 0.1)),
}


def build_generator(spec: dict):
    return _build(_GENERATORS, spec, "generator")


def build_basis(generator, loss_spec: dict):
    """The generator's own function basis, with numBasis functions if the
    loss spec gives them, or None if it has none (and takes no numBasis)."""
    num = loss_spec.get("numBasis")
    if not hasattr(generator, "default_basis"):
        if num is not None:
            raise PreconditionError(f"numBasis: {generator.name!r} has none")
        return None
    return generator.default_basis() if num is None else generator.default_basis(num)


def _capped_squared_loss(kw, generator, schedule, n):
    """A "cap": "auto" entry takes the heavy-tail schedule's truncation level
    t_n at the current sample size."""
    cap = kw["cap"]
    if cap == "auto":
        if not isinstance(schedule, HeavyTailRate) or n is None:
            raise ConfigError("loss 'cappedsquared' with cap 'auto' needs a "
                              "heavytail rate schedule")
        cap = schedule.cap_at(n)
    return CappedSquaredLoss(basis=None, cap=cap)


def _mcid_loss(kw, generator, schedule, n):
    basis = build_basis(generator, kw)
    if basis is None:
        raise ConfigError("mcid loss needs a threshold generator's basis")
    return MCIDLoss(basis=basis)


# each row ends with the data kinds the loss can fit and be scored on.  The
# check loss fits {1, x} to a scalar covariate, the squared loss a spline
# basis of it or the generator's own design, the capped squared loss that
# design; only the check loss is scored on the quantile design ({1, x} truth).
_NUM_BASIS = {"numBasis": (_POSITIVE_INTEGER, None)}
_LOSSES = {
    "check": ({"tau": (_NUMBER, 0.5)}, lambda kw, *_: CheckLoss(
        tau=kw["tau"], basis=AffineBasis()), ("linear-regression", "curve-regression")),
    "squared": (_NUM_BASIS, lambda kw, generator, *_: SquaredLoss(
        basis=build_basis(generator, kw)), ("curve-regression", "multiple-regression")),
    "cappedsquared": ({"cap": (_CAP, "auto")}, _capped_squared_loss,
                      ("multiple-regression",)),
    "zeroone": ({}, lambda *_: ZeroOneLinearLoss(), ("linear-classification",)),
    "mcid": (_NUM_BASIS, _mcid_loss, ("threshold",)),
    "auc": ({}, lambda *_: AUCLoss(), ("two-sample",)),
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
    "gaussian": ({"mean": (_NUMBER, 0.0), "sd": (_NUMBER, ...)},
                 lambda kw, dim: GaussianIID(**kw, dim=dim)),
    "laplace": ({"rate": (_NUMBER, ...)},
                lambda kw, dim: LaplaceIID(**kw, dim=dim)),
    "spikeslab": ({"q": (_INTEGER, ...), "a": (_NUMBER, 1.0),
                   "c": (_NUMBER, 1.0), "lam": (_NUMBER, None)},
                  lambda kw, dim: SpikeSlab(**kw)),
}


def build_prior(spec: dict, dim: int):
    return _build(_PRIORS, spec, "prior", dim)


# the data-driven ranking rate reads two-sample scores; the others take any
_RATES = {
    "fixed": ({"omega": (_NUMBER, ...)}, lambda kw: FixedRate(**kw), None),
    "power": ({"c": (_NUMBER, ...), "gamma": (_NUMBER, ...)},
              lambda kw: PowerLawRate(**kw), None),
    "heavytail": ({"s": (_NUMBER, ...)}, lambda kw: HeavyTailRate(**kw), None),
    "aucdata": ({"multiplier": (_MULTIPLIER, None)},
                lambda kw: AUCDataDriven(**kw), ("two-sample",)),
}


def build_rate(spec: dict):
    return _build(_RATES, spec, "rate")


def _empirical_l2(kw, generator, loss, basis):
    if basis is None:
        raise ConfigError("empirical_l2 divergence needs a function basis")
    if not hasattr(generator, "divergence_grid"):
        raise ConfigError("generator provides no divergence grid")
    size = kw["gridSize"]
    return EmpiricalL2(basis, generator.divergence_grid() if size is None
                       else generator.divergence_grid(size))


# each row ends with the data kinds whose truth the divergence can measure:
# the coefficient divergences need a coefficient truth (theta_star), abs a
# scalar one, and empirical_l2 a true function and a grid to compare it on
_COEFFICIENT_TRUTH = ("linear-regression", "multiple-regression", "two-sample",
                      "linear-classification")
_DIVERGENCES = {
    "euclid": ({}, lambda *_: EuclideanDistance(), _COEFFICIENT_TRUTH),
    "abs": ({}, lambda *_: AbsScalarDistance(), ("two-sample",)),
    "empirical_l2": ({"gridSize": (_POSITIVE_INTEGER, None)}, _empirical_l2,
                     ("threshold", "curve-regression")),
    "risk_diff_sqrt": ({"nDraws": (_POSITIVE_INTEGER, 4096)},
                       lambda kw, generator, loss, basis: RiskDiffSqrt(
                           loss, generator.mc_sample, n_draws=kw["nDraws"]),
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
    """What the cells at one sample size share: all that a cell reads of
    the config, built from the config and n alone."""

    n: int
    generator: object
    schedule: object
    omega: float | None       # None for the data-driven rate, set per cell
    loss: object
    prior: object
    divergence: object
    truth: object             # what the divergence measures draws against
    holdout: int | None       # the mcid loss's holdout size; None otherwise
    mh: MHConfig              # at seed 0; a cell sets its chain's seed
    pilot: bool               # mh init "pilot": a cell sets a data-driven init


def build_components(cfg: dict, n: int) -> Components:
    """Build a cell's components and sampler configuration at sample size n,
    and resolve a deterministic rate at n; the prior must be as wide as
    `parameter_dim`.  Validation builds them at every n, the runner once
    per block."""
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
    divergence = build_divergence(cfg["divergence"], generator, loss,
                                  basis=loss.basis)
    init = cfg["mh"].get("init")
    return Components(
        n=n, generator=generator, schedule=schedule, omega=omega, loss=loss,
        prior=prior, divergence=divergence,
        truth=(generator.truth_fn(divergence.xs)
               if isinstance(divergence, EmpiricalL2) else generator.theta_star),
        holdout=(cfg.get("holdout", generator.holdout_default)
                 if isinstance(loss, MCIDLoss) else None),
        mh=build_mh(cfg["mh"], n, seed=0, init=np.asarray(init, dtype=float)
                    if isinstance(init, list) else None),
        pilot=init == "pilot")


def resolve_proposal_scale(mh: dict, n: int):
    """The random-walk proposal scale at sample size n, or None for the
    sampler's default.  A number, each entry of a list (one per coordinate)
    and c * n^(-gamma) for {"c": c, "gamma": gamma} must be positive and
    finite."""
    scale = value = mh.get("proposalScale")
    if isinstance(scale, dict):
        try:
            value = scale["c"] * float(n) ** -scale["gamma"]
        except OverflowError:
            value = math.inf
    if value is not None and not np.all(np.isfinite(value) & (np.asarray(value) > 0)):
        raise ConfigError(f"mh proposalScale must be positive and finite, each "
                          f"entry and c * n^(-gamma) too; got {scale!r} at n = {n}")
    return np.asarray(value, dtype=float) if isinstance(value, list) else value


_MH = {
    "steps": (_INTEGER, 50_000),
    "burnIn": (_INTEGER, 10_000),
    "thin": (_INTEGER, 5),
    "proposalScale": (_PROPOSAL_SCALE, None),
    "init": (_INIT, None),
    "alphaFlipProb": (_NUMBER, 0.05),
}


def build_mh(spec: dict, n: int, seed: int, init=None) -> MHConfig:
    """The sampler configuration at sample size n; the chain starts at
    `init` (`build_components` passes a listed init), or at a prior draw."""
    kw = _typed(_MH, spec, "mh")
    try:
        return MHConfig(steps=kw["steps"], burn_in=kw["burnIn"], thin=kw["thin"],
                        proposal_scale=resolve_proposal_scale(kw, n), seed=seed,
                        init=init, alpha_flip_prob=kw["alphaFlipProb"])
    except PreconditionError as exc:
        raise ConfigError(f"bad mh parameters: {exc}") from None
