"""The config schema: the walker's type rules, the CLI's exit contract on
bad configs (explicit cases and a fuzz), the benchmark's configs and
the README's tables."""

import copy
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field, fields
from typing import Optional, Tuple, Union

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from spectramap.cli import entry
from spectramap.config import (FROM_DATA, AltDmapsSpec, DataSpec, DmapsSpec,
                               IhmSpec, PlsSpec, RunConfig, SplitSpec,
                               spec_from)
from spectramap.conformal import YShapedSpec
from spectramap.dataset import save_spectra
from spectramap.errors import ConfigError
from spectramap.gbt import GbtSpec
from spectramap.mlp import MlpSpec
from spectramap.pretreat import PretreatmentSpec
from spectramap.synth import (ArcParams, PeakParams, SynthSpec,
                              TwoSensorParams, synth_generate)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Inner:
    width: int = 3
    seed: int = 0


@dataclass(frozen=True)
class Outer:
    path: str
    count: int = 1
    scale: float = 1.0
    flag: bool = False
    eps: Optional[float] = None
    pair: Tuple[float, float] = (0.0, 1.0)
    widths: Tuple[int, ...] = ()
    pick: Union[str, Tuple[int, ...]] = "all"
    extra: dict = field(default_factory=dict)
    seed: int = 0
    inner: Inner = field(default_factory=Inner)
    maybe: Optional[Inner] = None


class TestWalker:
    def test_values_pass_through_typed(self):
        spec = spec_from(Outer, {"path": "p", "count": 6.0, "scale": 2,
                                 "flag": True, "eps": None, "pair": [1, 2.5],
                                 "widths": [4, 5.0], "pick": [1, 2],
                                 "extra": {"a": [1]}}, "outer")
        assert spec.count == 6 and type(spec.count) is int
        assert spec.scale == 2 and spec.pair == (1, 2.5)
        assert spec.widths == (4, 5) and spec.pick == (1, 2)
        assert spec.extra == {"a": [1]} and spec.maybe is None

    @pytest.mark.parametrize("key, value, type_name", [
        ("count", True, "int"),
        ("count", 1.5, "int"),
        ("count", "3", "int"),
        ("count", None, "int"),
        ("scale", False, "number"),
        ("scale", float("nan"), "number"),
        ("scale", float("inf"), "number"),
        ("scale", 10 ** 400, "number"),
        ("scale", "1.0", "number"),
        ("flag", 1, "bool"),
        ("flag", "false", "bool"),
        ("eps", "abc", "number or null"),
        ("pair", [1.0], "[number, number]"),
        ("pair", "12", "[number, number]"),
        ("widths", "16", "[int, ...]"),
        ("widths", [True], "[int, ...]"),
        ("widths", 16, "[int, ...]"),
        ("pick", [1.5], "str or [int, ...]"),
        ("extra", [], "object"),
        ("path", 5, "str"),
    ])
    def test_refusals_name_section_key_and_type(self, key, value, type_name):
        with pytest.raises(ConfigError) as e:
            spec_from(Outer, {"path": "p", key: value}, "outer")
        assert str(e.value) == f"outer: {key} must be {type_name}, got {value!r}"

    def test_required_unknown_and_non_object(self):
        with pytest.raises(ConfigError, match="^outer: path is required$"):
            spec_from(Outer, {}, "outer")
        with pytest.raises(ConfigError, match="unknown keys in outer"):
            spec_from(Outer, {"path": "p", "size": 1}, "outer")
        with pytest.raises(ConfigError, match="^inner must be a JSON object$"):
            spec_from(Outer, {"path": "p", "inner": [1]}, "outer")

    def test_nested_sections_take_the_enclosing_seed(self):
        spec = spec_from(Outer, {"path": "p", "seed": 7}, "outer")
        assert spec.inner == Inner(seed=7)
        spec = spec_from(Outer, {"path": "p", "seed": 7,
                                 "inner": {"seed": 2}, "maybe": {}}, "outer")
        assert spec.inner.seed == 2 and spec.maybe == Inner(seed=7)
        assert spec_from(Outer, {"path": "p"}, "outer", seed=4).inner.seed == 4
        with pytest.raises(ConfigError, match="^inner: width must be int"):
            spec_from(Outer, {"path": "p", "inner": {"width": "3"}}, "outer")

    def test_range_checks_are_reported_with_the_section(self):
        with pytest.raises(ConfigError,
                           match=r"^split: test_fraction must lie in \(0, 1\)"):
            spec_from(SplitSpec, {"test_fraction": 1.0}, "split")

    def test_data_defaults_may_be_left_out_but_not_set_null(self):
        assert spec_from(PlsSpec, {}, "pls").k_max is FROM_DATA
        with pytest.raises(ConfigError,
                           match="^pls: k_max must be int, got None$"):
            spec_from(PlsSpec, {"k_max": None}, "pls")

    def test_synth_params_are_checked_against_their_kind(self):
        spec = spec_from(SynthSpec, {"kind": "arc_manifold",
                                     "params": {"ambient_dim": 3.0}}, "synth")
        assert spec.params == ArcParams(ambient_dim=3)
        for kind, params in (("arc_manifold", {"alpha": 1.0}),
                             ("peak_spectra", {"ambient_dim": 5}),
                             ("peak_spectra", {"grid": "850"})):
            with pytest.raises(ConfigError,
                               match="^(unknown keys in )?params"):
                spec_from(SynthSpec, {"kind": kind, "params": params},
                          "synth")
        # a library caller's dict of fields builds the same spec
        assert SynthSpec("arc_manifold", params={"ambient_dim": 3}) == spec

    def test_a_head_section_takes_the_spec_its_key_names(self):
        def parse(workflow, regressor):
            return spec_from(RunConfig, {"workflow": workflow,
                                         "data": {"spectra": "x",
                                                  "sizes": "y"},
                                         "seed": 5, "regressor": regressor},
                             "config")
        assert parse("direct_dmaps_nn", {}).regressor == MlpSpec(seed=5)
        assert parse("direct_dmaps_gbt", {}).regressor == GbtSpec(seed=5)
        # a workflow without this head only needs an object
        assert parse("pls_direct", {"hidden": "x"}).regressor == {
            "hidden": "x"}
        with pytest.raises(ConfigError, match="^regressor: hidden must be"):
            parse("direct_dmaps_nn", {"hidden": "x"})


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("config_data")
    ds, _ = synth_generate(SynthSpec(kind="peak_spectra", n_samples=40,
                                     noise=0.01, seed=3))
    save_spectra(ds, root / "spectra.csv", root / "sizes.csv")
    fit = write_json(root / "fit.json", {"spectra": str(root / "spectra.csv"),
                                         "dmaps": {"n_eig": 6}})
    assert entry(["dmap", "fit", "--config", fit,
                  "--out", str(root / "dmap")]) == 0
    return root


def run_cli(files, tmp_path, capsys, argv, cfg):
    """Exit code and stderr of one command on config cfg."""
    data = {"spectra": str(files / "spectra.csv"),
            "sizes": str(files / "sizes.csv")}
    if argv[0] == "train":
        cfg = {"data": data, **cfg}
    elif argv[0] == "dmap":
        cfg = {"spectra": data["spectra"], **cfg}
        if argv[1] == "extend":
            cfg["model"] = str(files / "dmap")
    path = write_json(tmp_path / "c.json", cfg)
    capsys.readouterr()
    code = entry(argv + ["--config", path, "--out", str(tmp_path / "out")])
    return code, capsys.readouterr().err


# Each case exited 1 with a traceback, trained on a coerced value, or
# exited 2 without naming its key.
PROBED = [
    (["train", "pls_direct"], {"pls": {"k_max": None}}, "pls", "k_max"),
    (["train", "pls_direct"], {"pls": {"folds": [3]}}, "pls", "folds"),
    (["train", "altdmaps"], {"altdmaps": {"n_alt_coords": None}},
     "altdmaps", "n_alt_coords"),
    (["train", "pls_direct"], {"pretreatment": {"exclusions": 5}},
     "pretreatment", "exclusions"),
    (["synth"], {"kind": "peak_spectra", "n_samples": 40.5},
     "synth config", "n_samples"),
    (["dmap", "extend"], {"indices": 5}, "dmap extend config", "indices"),
    (["train", "yshaped"], {"yshaped": {"encoder_hidden": "16"}},
     "yshaped", "encoder_hidden"),
    (["train", "direct_dmaps_nn"], {"dmaps": {"coords": [True]}},
     "dmaps", "coords"),
    (["train", "direct_dmaps_nn"], {"dmaps": {"coords": ["1"]}},
     "dmaps", "coords"),
    (["train", "pls_direct"], {"split": {"seed": 1.5}}, "split", "seed"),
    (["train", "direct_dmaps_nn"], {"dmaps": {"n_eig": 6.7}}, "dmaps", "n_eig"),
    (["train", "direct_dmaps_nn"], {"dmaps": {"n_eig": "6"}}, "dmaps", "n_eig"),
    (["dmap", "fit"], {"dmaps": {"n_eig": 6.7}}, "dmaps", "n_eig"),
    (["dmap", "fit"], {"dmaps": {"n_eig": "6"}}, "dmaps", "n_eig"),
    (["train", "pls_direct"], {"pls": {"zscore": "false"}}, "pls", "zscore"),
    (["dmap", "extend"], {"indices": "12"}, "dmap extend config", "indices"),
    (["train", "pls_direct"], {"pls": {"folds": 1}}, "pls", "folds"),
    # on these spectra a threshold of 5 still keeps one column (5.75)
    (["train", "direct_dmaps_nn"], {"dmaps": {"llr_threshold": 1e3}},
     "dmaps", "llr_threshold"),
    (["train", "pls_direct"], {"split": {"test_fraction": "abc"}},
     "split", "test_fraction"),
]

# Each needs the data to tell: the rows set the bound.
DATA_DEPENDENT = [
    (["train", "pls_direct"], {"pls": {"folds": 31}}, "pls", "folds"),
    (["train", "pls_direct"], {"pls": {"k_max": 29}}, "pls", "k_max"),
    (["train", "direct_dmaps_nn"], {"dmaps": {"n_eig": 30}}, "dmaps", "n_eig"),
    (["dmap", "fit"], {"dmaps": {"n_eig": 40}}, "dmaps", "n_eig"),
    (["train", "pls_direct"], {"split": {"test_fraction": 0.95}},
     "split", "test_fraction"),
    (["train", "altdmaps"], {"altdmaps": {"n_eig": 4, "n_alt_coords": 4}},
     "altdmaps", "n_alt_coords"),
    (["train", "direct_dmaps_nn"], {"dmaps": {"coords": [1, 11]}},
     "dmaps", "coords"),
    (["dmap", "extend"], {"indices": [6]}, "dmap extend config", "indices"),
]


def _case_id(case):
    argv, cfg, section, key = case
    return f"{' '.join(argv)}:{section}.{key}={json.dumps(cfg)[:40]}"


@pytest.mark.parametrize("argv, cfg, section, key",
                         PROBED + DATA_DEPENDENT,
                         ids=[_case_id(c) for c in PROBED + DATA_DEPENDENT])
def test_a_bad_config_exits_2_naming_its_key(files, tmp_path, capsys,
                                             argv, cfg, section, key):
    code, err = run_cli(files, tmp_path, capsys, argv, cfg)
    assert code == 2, err
    assert err.startswith(f"config error: {section}: {key}"), err


def test_altdmaps_llr_threshold_is_refused_naming_the_key(files, tmp_path,
                                                          capsys):
    # the alternating route regresses psi_1..psi_n_alt_coords; no
    # selection of its eigenvectors is made, so there is no threshold
    code, err = run_cli(files, tmp_path, capsys, ["train", "altdmaps"],
                        {"altdmaps": {"llr_threshold": 0.5}})
    assert code == 2, err
    assert err.startswith("config error: unknown keys in altdmaps: "
                          "['llr_threshold']"), err


def test_altdmaps_with_two_eigenpairs_trains_one_common_coordinate(
        files, tmp_path, capsys):
    code, err = run_cli(files, tmp_path, capsys, ["train", "altdmaps"],
                        {"altdmaps": {"n_eig": 2}})
    assert code == 0, err
    with open(tmp_path / "out" / "report.json") as fh:
        report = json.load(fh)
    assert report["latent_count"] == 1
    assert report["diagnostics"]["alt_coordinates_used"] == [1]



# Each passed the schema and exited 2 with numpy's "expected non-negative
# integer", naming no key.
NEGATIVE_SEEDS = [
    (["train", "pls_direct"], {"seed": -1}, "config"),
    (["train", "pls_direct", "--seed", "-1"], {}, "config"),
    (["train", "pls_direct"], {"split": {"seed": -1}}, "split"),
    (["train", "pls_direct"], {"pls": {"seed": -2}}, "pls"),
    (["train", "direct_dmaps_nn"], {"regressor": {"seed": -1}}, "regressor"),
    (["train", "direct_dmaps_gbt"], {"regressor": {"seed": -3}}, "regressor"),
    (["train", "yshaped"], {"yshaped": {"seed": -1}}, "yshaped"),
    (["train", "pls_direct"],
     {"data": {"synth": {"kind": "peak_spectra", "n_samples": 40,
                         "seed": -1}}}, "data.synth"),
    (["synth"], {"kind": "peak_spectra", "seed": -1}, "synth config"),
    (["synth", "--seed", "-1"], {"kind": "peak_spectra"}, "synth config"),
]


@pytest.mark.parametrize("argv, cfg, section", NEGATIVE_SEEDS,
                         ids=[" ".join(c[0]) + ":" + c[2]
                              for c in NEGATIVE_SEEDS])
def test_a_negative_seed_exits_2_naming_its_key(files, tmp_path, capsys,
                                                argv, cfg, section):
    code, err = run_cli(files, tmp_path, capsys, argv, cfg)
    assert code == 2, err
    assert err.startswith(f"config error: {section}: seed must be "
                          "nonnegative, got -"), err


def _hard_model_doc():
    peak = {"position": 1000.0, "intensity": 2.0, "shape": 0.5, "hwhm": 8.0}
    return {"baseline": {"offset": 0.0, "slope": 0.0},
            "components": [{"name": "a", "weight": 1.0,
                            "peaks": [peak, dict(peak, position=1600.0)]}]}


def _set(path, value):
    def edit(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return edit


# Each loaded before the file was checked: true read as 1, "1" as 1.0,
# a number kept as the name, NaN and Infinity kept; "x" and -1 exited 2
# without naming the key, and an unknown key was ignored.
BAD_HARD_MODELS = [
    (("components", 0, "peaks", 0, "hwhm"), True,
     "components[0].peaks[0]: hwhm must be number, got True"),
    (("components", 0, "weight"), True,
     "components[0]: weight must be number, got True"),
    (("baseline", "offset"), "1", "baseline: offset must be number, got '1'"),
    (("components", 0, "name"), 5, "components[0]: name must be str, got 5"),
    (("components", 0, "peaks", 0, "hwhm"), float("nan"),
     "components[0].peaks[0]: hwhm must be number, got nan"),
    (("components", 0, "peaks", 1, "intensity"), float("inf"),
     "components[0].peaks[1]: intensity must be number, got inf"),
    (("components", 0, "peaks", 1, "position"), float("nan"),
     "components[0].peaks[1]: position must be number, got nan"),
    (("components", 0, "weight"), "x",
     "components[0]: weight must be number, got 'x'"),
    (("components", 0, "peaks", 0, "hwhm"), -1.0,
     "components[0].peaks[0]: hwhm must be positive"),
    (("components", 0, "peaks", 0, "color"), "red",
     "unknown keys in components[0].peaks[0]: ['color']"),
]


@pytest.mark.parametrize("path, value, message", BAD_HARD_MODELS,
                         ids=[".".join(map(str, c[0])) + "=" + repr(c[1])
                              for c in BAD_HARD_MODELS])
def test_a_bad_hard_model_file_exits_2_naming_its_entry(
        files, tmp_path, capsys, path, value, message):
    doc = _hard_model_doc()
    _set(path, value)(doc)
    model = write_json(tmp_path / "hard_model.json", doc)
    code, err = run_cli(files, tmp_path, capsys, ["train", "ihm_pls"],
                        {"ihm": {"model_json": model}})
    assert code == 2, err
    assert err == f"config error: {model}: {message}\n", err


def test_a_good_hard_model_file_trains(files, tmp_path, capsys):
    model = write_json(tmp_path / "hard_model.json", _hard_model_doc())
    code, err = run_cli(files, tmp_path, capsys, ["train", "ihm_pls"],
                        {"ihm": {"model_json": model}})
    assert code == 0, err

def test_every_section_present_is_checked(files, tmp_path, capsys):
    # pls_direct reads no embedding and no autoencoder
    for cfg, prefix in (({"dmaps": {"n_eig": "6"}}, "dmaps: n_eig"),
                        ({"yshaped": {"epochs": 0}}, "yshaped: "),
                        ({"ihm": {"mode": "medium"}}, "ihm: model_json")):
        code, err = run_cli(files, tmp_path, capsys, ["train", "pls_direct"],
                            cfg)
        assert code == 2 and err.startswith(f"config error: {prefix}"), err


# -- the exit contract, fuzzed -------------------------------------------

JUNK = st.sampled_from([
    None, True, False, 0, -1, 1, 2, 3, 0.5, 1.5, -0.5, 1e-3, 2.0,
    float("nan"), float("inf"), "", "x", "1", "false", "llr", [], [1],
    [True], ["1"], [1.5], [[1, 2]], [0], {}, {"a": 1},
    {"a": [1, {"b": None}]}])


def _base_configs(files):
    synth = {"kind": "peak_spectra", "n_samples": 40, "noise": 0.01,
             "seed": 3}
    return {
        "pls_direct": {
            "seed": 1, "data": {"synth": synth},
            "split": {"test_fraction": 0.25, "seed": 0},
            "pretreatment": {"region": [900, 1700], "baseline": "linear_fit",
                             "normalization": "snv",
                             "exclusions": [[1552, 1560]]},
            "pls": {"k_max": 4, "folds": 3, "zscore": True}},
        "direct_dmaps_nn": {
            "data": {"spectra": str(files / "spectra.csv"),
                     "sizes": str(files / "sizes.csv")},
            "split": {"test_fraction": 0.25},
            "dmaps": {"n_eig": 6, "coords": [1, 2], "epsilon": None,
                      "density_normalize": True, "llr_threshold": 0.5},
            "regressor": {"hidden": [4], "epochs": 5, "batch_size": 8,
                          "learning_rate": 0.05}},
    }


def _paths(doc, at=()):
    """Every key path in a config, sections and leaves alike."""
    out = []
    for key, value in doc.items():
        out.append(at + (key,))
        if isinstance(value, dict):
            out.extend(_paths(value, at + (key,)))
    return out


@st.composite
def mutated(draw, files):
    workflow = draw(st.sampled_from(["pls_direct", "direct_dmaps_nn"]))
    cfg = copy.deepcopy(_base_configs(files)[workflow])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(_paths(cfg)))
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "replace", "delete",
                                       "add"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "add":
            parent[draw(st.sampled_from(["bandwidth", "seed", "n_eig",
                                         "k"]))] = copy.deepcopy(draw(JUNK))
        else:
            parent[path[-1]] = copy.deepcopy(draw(JUNK))
    return workflow, cfg


def _accepted(workflow, cfg, out):
    try:
        spec_from(RunConfig, dict(cfg, workflow=workflow, out_dir=out),
                  "config")
    except ConfigError:
        return False
    return True


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_train_keeps_the_exit_contract_on_mutated_configs(files, capsys,
                                                          data):
    workflow, cfg = data.draw(mutated(files))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(tmp, "run")
        code = entry(["train", workflow, "--config", path, "--out", out])
    capsys.readouterr()
    assert code in (0, 2, 3)
    if code == 0:
        assert _accepted(workflow, cfg, out)
    if not _accepted(workflow, cfg, out):
        assert code == 2


# -- the benchmark's configs ---------------------------------------------

def test_benchmark_train_configs_are_accepted():
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        from workloads import SPLIT, WORKLOADS
    finally:
        sys.path.pop(0)
    count = 0
    for wl in WORKLOADS.values():
        for workflow, sections in wl.workflows.items():
            # as bench/worker.py's train_config writes it; train adds the
            # workflow and out_dir
            cfg = {"seed": 0, "split": SPLIT,
                   "data": {"spectra": "spectra.csv", "sizes": "sizes.csv"}}
            cfg.update(json.loads(json.dumps(sections)))
            if "ihm" in cfg:
                cfg["ihm"]["model_json"] = "hard_model.json"
            spec = spec_from(RunConfig, dict(cfg, workflow=workflow,
                                             out_dir="run"), "config")
            assert spec.workflow == workflow
            count += 1
    assert count == 6


# -- the README's tables -------------------------------------------------

SECTIONS = {
    "config": RunConfig, "data": DataSpec, "data.synth": SynthSpec,
    "arc_manifold params": ArcParams,
    "two_sensor_common params": TwoSensorParams,
    "peak_spectra params": PeakParams, "pretreatment": PretreatmentSpec,
    "split": SplitSpec, "dmaps": DmapsSpec, "regressor (nn)": MlpSpec,
    "regressor (gbt)": GbtSpec, "altdmaps": AltDmapsSpec,
    "yshaped": YShapedSpec, "pls": PlsSpec, "ihm": IhmSpec,
}


def readme_tables():
    """{section label: keys in table order} for every config table."""
    tables, label = {}, None
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        for line in fh:
            head = re.match(r"\| (.+) \| type \| default \| range \|$",
                            line.rstrip("\n"))
            if head:
                label = head.group(1).replace("`", "")
                tables[label] = []
            elif label and line.startswith("| `"):
                tables[label].append(line.split("`")[1])
            elif not line.startswith("|"):
                label = None
    return tables


def test_readme_tables_list_every_schema_key():
    tables = {label: sorted(keys) for label, keys in readme_tables().items()}
    assert tables == {label: sorted(f.name for f in fields(cls) if f.init)
                      for label, cls in SECTIONS.items()}
