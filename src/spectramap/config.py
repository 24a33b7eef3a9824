"""The config schema: one frozen spec per JSON section, checked by one
walker before any data loads.  The README tables every section.

`spec_from` checks each key against the spec's type hints: a bool is
never an int or a float, a str is never a list, an int refuses a
non-integral float, a float must be finite, a list becomes a tuple, and
a `seed` must be nonnegative.  A field typed as a spec is a nested
section (built from {} when left out; its default `seed` is the
enclosing one), and one typed Tuple[spec, ...] a list of sections, item
i named `key[i]`.  A field with metadata
`spec_by: (key, table)` is the section that table names for the value
of sibling `key`, else a plain object.  A field without a default is
required.  An int field defaulting to FROM_DATA is set from the loaded
data: a config may leave it out but not set it null.  Each refusal
names the section and the key; range checks in each spec's
__post_init__ are reported with the section.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from dataclasses import dataclass, field, make_dataclass
from typing import Optional, Tuple, Union, get_args, get_origin, get_type_hints

from .conformal import YShapedSpec
from .dmaps import KernelParams
from .errors import ConfigError
from .gbt import GbtSpec
from .ihm import LM_MAX_ITER, MODES, POSITION_BOUND
from .mlp import MlpSpec
from .pretreat import PretreatmentSpec
from .synth import SynthSpec

FROM_DATA = None
WORKFLOW_NAMES = ("direct_dmaps_nn", "direct_dmaps_gbt", "altdmaps",
                  "yshaped", "pls_direct", "ihm_pls")
_BAD = object()


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def check_keys(cfg: dict, allowed, where: str) -> None:
    require(isinstance(cfg, dict), f"{where} must be a JSON object")
    unknown = sorted(set(cfg) - set(allowed))
    require(not unknown, f"unknown keys in {where}: {unknown}")


def _name(tp) -> str:
    """tp as error messages show it, e.g. `[int, ...] or null`."""
    args = get_args(tp)
    if get_origin(tp) is Union:
        return " or ".join(dict.fromkeys(map(_name, args)))
    if get_origin(tp) is tuple:
        inner = (f"{_name(args[0])}, ..." if args[-1] is Ellipsis
                 else ", ".join(map(_name, args)))
        return f"[{inner}]"
    if dataclasses.is_dataclass(tp):
        return "object"
    return {float: "number", dict: "object",
            type(None): "null"}.get(tp, tp.__name__)


def _typed(tp, v):
    """v as a field typed tp holds it, or _BAD."""
    args = get_args(tp)
    if get_origin(tp) is Union:
        for t in args:
            if (got := _typed(t, v)) is not _BAD:
                return got
        return _BAD
    if get_origin(tp) is tuple:
        if not isinstance(v, (list, tuple)):
            return _BAD
        types = args[:1] * len(v) if args[-1] is Ellipsis else args
        items = tuple(map(_typed, types, v))
        ok = len(types) == len(v) and all(t is not _BAD for t in items)
        return items if ok else _BAD
    if tp is int and isinstance(v, float) and v.is_integer():
        v = int(v)
    ok = (isinstance(v, (int, float) if tp is float else tp)
          and isinstance(v, bool) == (tp is bool))
    if tp is float and ok:
        ok = abs(v) <= sys.float_info.max      # no NaN, no infinity
    return v if ok else _BAD


def _nested(tp):
    """The spec class in type tp, if tp is a nested section."""
    return next((t for t in (tp,) + get_args(tp)
                 if dataclasses.is_dataclass(t)), None)


def spec_from(cls, cfg: dict, where: str, seed: Optional[int] = None,
              path: str = ""):
    """Check a JSON object against spec class cls and build the spec;
    `seed` is the default of its `seed` field, and `path` the dotted key
    of a nested section ("" at the top)."""
    fields = [f for f in dataclasses.fields(cls) if f.init]
    check_keys(cfg, [f.name for f in fields], where)
    hints = get_type_hints(cls)
    if seed is not None and "seed" in hints:
        cfg = {"seed": seed, **cfg}
    kw = {}
    # plain keys first: sections take this level's seed and spec_by keys
    for f in sorted(fields, key=lambda f: "spec_by" in f.metadata
                    or _nested(hints[f.name]) is not None):
        tp, given = hints[f.name], cfg.get(f.name, _BAD)
        if "spec_by" in f.metadata:
            key, table = f.metadata["spec_by"]
            section = table.get(kw.get(key, getattr(cls, key, None)))
        else:
            section = _nested(tp)
        sub, many = path + f.name, get_origin(tp) is tuple
        if section and many and isinstance(given, (list, tuple)):
            kw[f.name] = tuple(
                spec_from(section, item, f"{sub}[{i}]", kw.get("seed", seed),
                          f"{sub}[{i}].") for i, item in enumerate(given))
        elif section and not many and (given is not _BAD
                                       or f.default is dataclasses.MISSING):
            kw[f.name] = spec_from(section, cfg.get(f.name, {}), sub,
                                   kw.get("seed", seed), sub + ".")
        elif given is not _BAD:
            kw[f.name] = _typed(tp, given)
            require(kw[f.name] is not _BAD,
                    f"{where}: {f.name} must be {_name(tp)}, got {given!r}")
            require(f.name != "seed" or kw[f.name] >= 0,
                    f"{where}: seed must be nonnegative, got {given!r}")
        else:
            require(f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING,
                    f"{where}: {f.name} is required")
    try:
        return cls(**kw)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}") from e


def n_eig_for(n_eig: Optional[int], n_rows: int, where: str) -> int:
    """n_eig as given, or min(10, n_rows - 1) when the config leaves it
    out; it must stay below the rows."""
    k = min(10, n_rows - 1) if n_eig is FROM_DATA else n_eig
    require(k < n_rows, f"{where}: n_eig must be below the {n_rows} "
                        f"training rows, got {k}")
    return k


def _spec_by(key: str, table: dict):
    return field(default_factory=dict, metadata={"spec_by": (key, table)})


_HEADS = {"nn": MlpSpec, "gbt": GbtSpec}


def _at_least(value, low: int, name: str) -> None:
    require(value is FROM_DATA or value >= low,
            f"{name} must be at least {low}")


@dataclass(frozen=True)
class SplitSpec:
    """The `split` section: the held-out share and its seed."""

    test_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        require(0 < self.test_fraction < 1, "test_fraction must lie in (0, 1)")


@dataclass(frozen=True)
class DmapFitSpec:
    """A `dmaps` section of `dmap fit`: the kernel and the eigenpairs kept."""

    epsilon: Optional[float] = None
    density_normalize: bool = True
    n_eig: int = FROM_DATA
    kernel: KernelParams = field(init=False)

    def __post_init__(self):
        _at_least(self.n_eig, 2, "n_eig")
        object.__setattr__(self, "kernel", KernelParams(
            self.epsilon, self.density_normalize))


@dataclass(frozen=True)
class DmapsSpec(DmapFitSpec):
    """The `dmaps` section of `train`: the fit and the columns it feeds
    downstream."""

    coords: Union[str, Tuple[int, ...]] = "llr"
    llr_threshold: float = 0.5

    def __post_init__(self):
        super().__post_init__()
        c = self.coords
        require(c in ("llr", "all") if isinstance(c, str)
                else 0 < len(set(c)) == len(c) and min(c) >= 1,
                f"coords must be 'llr', 'all' or distinct indices >= 1, "
                f"got {c!r}")
        if c == "llr":
            _at_least(self.n_eig, 3, "n_eig (for llr selection)")


@dataclass(frozen=True)
class AltFitSpec:
    """The `altdmaps` section of `alt fit`: the two kernels and the
    eigenpairs."""

    n_eig: int = FROM_DATA
    epsilon1: Optional[float] = None
    epsilon2: Optional[float] = None
    density_normalize: bool = True
    kernels: Tuple[KernelParams, KernelParams] = field(init=False)

    def __post_init__(self):
        _at_least(self.n_eig, 2, "n_eig")
        object.__setattr__(self, "kernels", tuple(
            KernelParams(eps, self.density_normalize)
            for eps in (self.epsilon1, self.epsilon2)))


@dataclass(frozen=True)
class AltDmapsSpec(AltFitSpec):
    """The `altdmaps` section of `train`: the fit, the common coordinates
    and the two online regressors."""

    n_alt_coords: int = FROM_DATA
    gh_delta: float = 1e-3
    alt_regressor: str = "gh"
    size_regressor: str = "nn"
    alt_regressor_config: Union[GbtSpec, dict] = _spec_by(
        "alt_regressor", {"gbt": GbtSpec})
    size_regressor_config: Union[MlpSpec, GbtSpec, dict] = _spec_by(
        "size_regressor", _HEADS)

    def __post_init__(self):
        super().__post_init__()
        _at_least(self.n_alt_coords, 1, "n_alt_coords")
        require(0 < self.gh_delta < 1, "gh_delta must lie in (0, 1)")
        require(self.alt_regressor in ("gh", "gbt"),
                f"alt_regressor must be 'gh' or 'gbt', "
                f"got {self.alt_regressor!r}")
        require(self.size_regressor in ("nn", "gbt"),
                f"size_regressor must be 'nn' or 'gbt', "
                f"got {self.size_regressor!r}")


@dataclass(frozen=True)
class PlsSpec:
    """The `pls` section: the component cap and its cross-validation."""

    k_max: int = FROM_DATA
    folds: int = 5
    seed: int = 0
    zscore: bool = True

    def __post_init__(self):
        _at_least(self.k_max, 1, "k_max")
        _at_least(self.folds, 2, "folds")


@dataclass(frozen=True)
class IhmSpec:
    """The `ihm` section: the peak model file and how it is fitted."""

    model_json: str
    mode: str = "medium"
    position_bound: float = POSITION_BOUND
    max_iterations: int = LM_MAX_ITER

    def __post_init__(self):
        require(self.mode in MODES,
                f"mode must be one of {list(MODES)}, got {self.mode!r}")
        _at_least(self.position_bound, 0, "position_bound")
        _at_least(self.max_iterations, 0, "max_iterations")


@dataclass(frozen=True)
class DataSpec:
    """The `data` section: spectra and sizes files, or a synth config."""

    spectra: Optional[str] = None
    sizes: Optional[str] = None
    synth: Optional[SynthSpec] = None

    def __post_init__(self):
        files = (self.spectra, self.sizes)
        require(None not in files if self.synth is None
                else files == (None, None),
                "give spectra and sizes, or synth alone")


@dataclass(frozen=True)
class RunConfig:
    """A `train` config; `regressor` holds the spec fields of the
    workflow's head."""

    workflow: str
    data: DataSpec
    seed: int = 0
    pretreatment: PretreatmentSpec = field(default_factory=PretreatmentSpec)
    split: SplitSpec = field(default_factory=SplitSpec)
    dmaps: DmapsSpec = field(default_factory=DmapsSpec)
    regressor: Union[MlpSpec, GbtSpec, dict] = _spec_by(
        "workflow", {"direct_dmaps_nn": MlpSpec, "direct_dmaps_gbt": GbtSpec})
    altdmaps: AltDmapsSpec = field(default_factory=AltDmapsSpec)
    yshaped: YShapedSpec = field(default_factory=YShapedSpec)
    pls: PlsSpec = field(default_factory=PlsSpec)
    ihm: Optional[IhmSpec] = None
    out_dir: Optional[str] = None

    def __post_init__(self):
        require(self.workflow in WORKFLOW_NAMES,
                f"workflow must be one of {list(WORKFLOW_NAMES)}, "
                f"got {self.workflow!r}")
        require(self.ihm is not None or self.workflow != "ihm_pls",
                "ihm_pls needs an ihm section with a model_json")


# the other commands' configs; required paths are fields without a default
_COMMANDS = {
    "preprocess": (("spectra", str), ("sizes", Optional[str], None),
                   ("pretreatment", PretreatmentSpec,
                    field(default_factory=PretreatmentSpec))),
    "dmap fit": (("spectra", str),
                 ("dmaps", DmapFitSpec, field(default_factory=DmapFitSpec))),
    "dmap extend": (("model", str), ("spectra", str),
                    ("indices", Optional[Tuple[int, ...]], None)),
    "alt fit": (("sensor1", str), ("sensor2", str),
                ("altdmaps", AltFitSpec, field(default_factory=AltFitSpec))),
    "predict": (("models", str), ("spectra", str)),
    "evaluate": (("predictions", str), ("sizes", str)),
    "report": (("report", str),),
}


@functools.cache
def _command_spec(command: str):
    # built on first use: each spec class costs about 1 ms at import
    name = command.title().replace(" ", "") + "Config"
    return make_dataclass(name, _COMMANDS[command], frozen=True)


def command_config(command: str, cfg: dict):
    """Check the config of CLI command `command` (not `synth` or
    `train`, whose configs are SynthSpec and RunConfig)."""
    return spec_from(_command_spec(command), cfg, f"{command} config")
