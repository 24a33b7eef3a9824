"""Model persistence: one directory per model holding `model.json` plus
one `.npy` file per array.

`model.json` holds the format version and the model as a tree of JSON
nodes, built by walking its dataclass fields:

    dataclass   {"__type__": class name, field: node, ...}
    array       {"__array__": dotted field path}, data in `<path>.npy`
    tuple       {"__tuple__": [node, ...]}
    list, dict  plain JSON, each element a node
    scalar      plain JSON

Loading builds only the classes named in `_TYPES`.  JSON is written with
sorted keys and arrays with numpy's deterministic format, so saving the
same model twice produces identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, Tuple

import numpy as np

from .altdmaps import AltDmapModel
from .conformal import YShapedModel, YShapedSpec
from .dataset import write_json
from .dmaps import DmapModel, EigenSelection, Embed, GhModel
from .gbt import GbtModel, GbtSpec
from .ihm import ComponentModel, HardModel, IhmFeatures, Peak
from .mlp import MlpModel, MlpSpec, SubNet
from .pls import PlsModel
from .pretreat import ColumnScaler

FORMAT_VERSION = 2

_TYPES = {cls.__name__: cls for cls in (
    AltDmapModel, ColumnScaler, ComponentModel, DmapModel, EigenSelection,
    Embed, GbtModel, GbtSpec, GhModel, HardModel, IhmFeatures, MlpModel,
    MlpSpec, Peak, PlsModel, SubNet, YShapedModel, YShapedSpec)}


def is_plain_name(name) -> bool:
    """Whether name is a nonempty string naming an entry of its own
    directory: no `/` or `\\`, and no leading `.`."""
    return (isinstance(name, str) and bool(name) and "/" not in name
            and "\\" not in name and not name.startswith("."))


def _array_file(path, name) -> str:
    """The `.npy` file of array `name`, which must be a plain file name."""
    if not is_plain_name(name):
        raise ValueError(f"array name {name!r} is not a plain file name")
    return os.path.join(path, f"{name}.npy")


def _encode(obj, at: Tuple[str, ...], arrays: Dict[str, np.ndarray]):
    """The JSON node of obj; its arrays go into `arrays` under their
    dotted path `at`."""
    if isinstance(obj, np.ndarray):
        name = ".".join(at)
        arrays[name] = obj
        return {"__array__": name}
    if dataclasses.is_dataclass(obj):
        tag = type(obj).__name__
        if _TYPES.get(tag) is not type(obj):
            raise TypeError(f"no serializer for {tag}")
        node = {f.name: _encode(getattr(obj, f.name), at + (f.name,), arrays)
                for f in dataclasses.fields(obj)}
        node["__type__"] = tag
        return node
    if isinstance(obj, (tuple, list)):
        items = [_encode(v, at + (str(i),), arrays) for i, v in enumerate(obj)]
        return {"__tuple__": items} if isinstance(obj, tuple) else items
    if isinstance(obj, dict):
        return {k: _encode(v, at + (k,), arrays) for k, v in obj.items()}
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"no serializer for {type(obj).__name__}")


def _decode(node, path):
    """Rebuild the object that `_encode` turned into node."""
    if isinstance(node, list):
        return [_decode(v, path) for v in node]
    if not isinstance(node, dict):
        return node
    if "__array__" in node:
        return np.load(_array_file(path, node["__array__"]),
                       allow_pickle=False)
    if "__tuple__" in node:
        return tuple(_decode(v, path) for v in node["__tuple__"])
    if "__type__" not in node:
        return {k: _decode(v, path) for k, v in node.items()}
    tag = node["__type__"]
    if tag not in _TYPES:
        raise ValueError(f"unknown model type {tag!r}")
    fields = {k: _decode(v, path) for k, v in node.items() if k != "__type__"}
    try:
        return _TYPES[tag](**fields)
    except TypeError as e:
        raise ValueError(f"bad fields for {tag}: {e}") from e


def save_model(path, model) -> None:
    """Write the model into directory `path` (created if needed)."""
    arrays: Dict[str, np.ndarray] = {}
    doc = {"format_version": FORMAT_VERSION,
           "model": _encode(model, (), arrays)}
    os.makedirs(path, exist_ok=True)
    for name, arr in arrays.items():
        np.save(_array_file(path, name), arr)
    write_json(os.path.join(path, "model.json"), doc)


def load_model(path):
    """Load any model previously written by save_model."""
    doc_path = os.path.join(path, "model.json")
    if not os.path.isfile(doc_path):
        raise ValueError(f"no model.json in {path}; "
                         f"retrain to write format {FORMAT_VERSION}")
    with open(doc_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}; "
                         f"retrain to write format {FORMAT_VERSION}")
    return _decode(doc["model"], path)
