"""Experiment configuration: JSON loading, schema validation, assembly.

A config is one JSON object (schema shipped with the package).  Syntax
errors surface with line and column; schema violations surface with the
JSON path of the offending value.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from importlib import resources

import jsonschema

from . import freegroup as fg
from . import rose
from . import tree as treemod
from . import walk


class ConfigError(ValueError):
    """Invalid configuration, with file/path context in the message."""


def _schema():
    path = resources.files("outwalk.schema").joinpath("experiment.schema.json")
    return json.loads(path.read_text())


def load_config(path):
    """Read, parse, and schema-validate a config file."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("%s: line %d column %d: %s"
                          % (path, exc.lineno, exc.colno, exc.msg)) from exc
    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        raise ConfigError("%s: at %s: %s" % (path, e.json_path, e.message))
    _cross_validate(path, cfg)
    return cfg


def _cross_validate(path, cfg):
    mode = cfg["mode"]
    for i, atom in enumerate(cfg["measure"]):
        has_word = "word" in atom
        if mode == "tree" and not has_word:
            raise ConfigError("%s: at $.measure[%d]: tree mode needs word atoms"
                              % (path, i))
        if mode == "outer" and has_word:
            raise ConfigError("%s: at $.measure[%d]: outer mode needs trace atoms"
                              % (path, i))
    cps = cfg["checkpoints"]
    if isinstance(cps, list):
        if sorted(set(cps)) != cps or cps[-1] > cfg["horizon"]:
            raise ConfigError("%s: at $.checkpoints: must be strictly increasing "
                              "and end at or before the horizon" % path)


def parse_weight(w):
    if isinstance(w, str):
        value = float(Fraction(w))
    else:
        value = float(w)
    if value <= 0:
        raise ConfigError("weights must be positive")
    return value


def _build_atom(cfg, i):
    atom = cfg["measure"][i]
    try:
        if cfg["mode"] == "outer":
            return fg.from_trace(cfg["rank"], atom["trace"])
        w = fg.parse_word(atom["word"])
        fg.check_rank(w, cfg["rank"])
        return w
    except ValueError as exc:     # RankError, or a move like R:1:1:+
        raise ConfigError("at $.measure[%d]: %s" % (i, exc)) from exc


def build_measure(cfg):
    weights = [parse_weight(a["weight"]) for a in cfg["measure"]]
    atoms = [_build_atom(cfg, i) for i in range(len(cfg["measure"]))]
    try:
        return walk.MeasureSpec(atoms, weights)
    except ValueError as exc:
        raise ConfigError("invalid measure: %s" % exc) from exc


def resolve_checkpoints(cfg):
    cps = cfg["checkpoints"]
    horizon = cfg["horizon"]
    if isinstance(cps, dict):
        every = cps["every"]
        out = list(range(every, horizon + 1, every))
        if not out or out[-1] != horizon:
            out.append(horizon)
        return tuple(out)
    return tuple(cps)


def build_walk_config(cfg, seed_override=None):
    seed = cfg["seed"] if seed_override is None else seed_override
    kwargs = {}
    if "max_word_letters" in cfg:
        kwargs["max_word_letters"] = cfg["max_word_letters"]
    if "spot_check_rate" in cfg:
        kwargs["spot_check_rate"] = cfg["spot_check_rate"]
    tracked = []
    for i, text in enumerate(cfg.get("tracked", [])):
        try:
            if cfg["mode"] == "tree":
                tracked.append(treemod.parse_boundary(text))
            else:
                tracked.append(fg.parse_word(text))
                fg.check_rank(tracked[-1], cfg["rank"])
        except ValueError as exc:     # RankError, or a bad literal
            raise ConfigError("at $.tracked[%d]: %s" % (i, exc)) from exc
    try:
        return walk.WalkConfig(
            horizon=cfg["horizon"], trials=cfg["trials"], master_seed=int(seed),
            checkpoints=resolve_checkpoints(cfg),
            tracked_classes=tuple(tracked), **kwargs)
    except ValueError as exc:
        raise ConfigError("invalid walk settings: %s" % exc) from exc


def gap_class(cfg, wcfg):
    """The gap command's class: $.gap.class, or the first tracked class."""
    labels = walk.tracked_labels(wcfg)
    if not labels:
        raise ConfigError("at $.tracked: the gap command needs at least one "
                          "tracked class")
    label = cfg.get("gap", {}).get("class", labels[0])
    if label not in labels:
        raise ConfigError("at $.gap.class: class %r was not tracked" % label)
    return label


def deviation_grid(cfg, wcfg):
    """The deviation command's grid: $.deviation.grid, or every checkpoint."""
    grid = cfg.get("deviation", {}).get("grid", list(wcfg.checkpoints))
    for i, n in enumerate(grid):
        if n not in wcfg.checkpoints:
            raise ConfigError("at $.deviation.grid[%d]: grid point %d is not "
                              "a checkpoint" % (i, n))
    return grid


def build_rose_points(cfg):
    """Rose points for the distance command."""
    section = cfg.get("distance")
    if not section:
        raise ConfigError("config has no distance section")
    rank = cfg["rank"]
    pts = []
    for i, entry in enumerate(section["points"]):
        lengths = [Fraction(x) if isinstance(x, str) else x
                   for x in entry["lengths"]]
        if len(lengths) != rank:
            raise ConfigError("distance point needs %d lengths" % rank)
        try:
            marking = fg.from_trace(rank, entry.get("marking_trace", ()))
        except ValueError as exc:     # RankError, or a move like R:1:1:+
            raise ConfigError("at $.distance.points[%d].marking_trace: %s"
                              % (i, exc)) from exc
        pts.append(rose.rose_point(lengths, marking))
    return pts


DEFAULT_TOLERANCES = {
    "drift_interval": [0.48, 0.52],
    "variance_interval": [0.67, 0.83],
    "ks_p_min": 0.01,
    "class_spread_max": 0.05,
    "gap_ratio_tol": 0.20,
    "deviation_final_max": 0.05,
    "variance_ratio_interval": [0.7, 1.4],
}


def tolerances(cfg):
    out = dict(DEFAULT_TOLERANCES)
    out.update(cfg.get("tolerances", {}))
    return out


def config_hash(cfg):
    """Stable hash of the canonical JSON form."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
