"""Experiment configuration: JSON loading, schema validation, assembly.

A config is one JSON object (schema shipped with the package).  Syntax
errors surface with line and column; schema violations surface with the
JSON path of the offending value.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import operator
import re
from fractions import Fraction
from importlib import resources

from . import freegroup as fg
from . import rose
from . import tree as treemod
from . import walk


class ConfigError(ValueError):
    """Invalid configuration, with file/path context in the message."""


@functools.lru_cache(maxsize=None)
def _schema():
    path = resources.files("outwalk.schema").joinpath("experiment.schema.json")
    return json.loads(path.read_text())


# The schema's keywords, read as JSON Schema draft 2020-12 reads them, except
# that an integer is an int literal (60.0 is not one) and a number is finite
# (Python's json accepts NaN and Infinity, which are not JSON).

def _is(x, kind):
    if kind == "integer":
        return type(x) is int
    if kind == "number":
        return type(x) is int or type(x) is float and math.isfinite(x)
    return isinstance(x, {"object": dict, "array": list, "string": str}[kind])


_TESTS = {  # keyword: (the instances it tests, None for all; failure; message)
    "type": (None, lambda x, t: not _is(x, t), "%r is not of type %r"),
    "enum": (None, lambda x, e: x not in e, "%r is not one of %r"),
    "pattern": ("string", lambda x, p: not re.search(p, x),
                "%r does not match %r"),
    "minimum": ("number", operator.lt, "%r is less than the minimum of %r"),
    "maximum": ("number", operator.gt, "%r is greater than the maximum of %r"),
    "exclusiveMinimum": ("number", operator.le,
                         "%r is less than or equal to the minimum of %r"),
    "minItems": ("array", lambda x, n: len(x) < n, "%r has fewer than %r items"),
    "maxItems": ("array", lambda x, n: len(x) > n, "%r has more than %r items"),
}
_ANNOTATIONS = ("$schema", "$id", "title", "$defs")


def _errors(schema, x, path=()):
    """(path, message) of every violation of `schema` by x, in the order a
    draft 2020-12 validator finds them: keyword by keyword, depth first."""
    obj = _is(x, "object")
    for key, v in schema.items():
        if key in _TESTS:
            kind, fails, message = _TESTS[key]
            if (kind is None or _is(x, kind)) and fails(x, v):
                yield path, message % (x, v)
        elif key == "required":
            yield from ((path, "%r is a required property" % k)
                        for k in v if obj and k not in x)
        elif key == "additionalProperties":
            known = schema.get("properties", {})
            extras = sorted(k for k in x if k not in known) if obj else []
            if extras and v is False:
                verb = "was" if len(extras) == 1 else "were"
                yield path, ("Additional properties are not allowed (%s %s "
                             "unexpected)" % (", ".join(map(repr, extras)), verb))
        elif key == "properties":
            for k in v if obj else ():
                if k in x:
                    yield from _errors(v[k], x[k], path + (k,))
        elif key == "items":
            for i, item in enumerate(x if _is(x, "array") else ()):
                yield from _errors(v, item, path + (i,))
        elif key == "oneOf":
            valid = sum(next(_errors(s, x, path), None) is None for s in v)
            if valid != 1:
                yield path, "%r is %s the given schemas" % (
                    x, "valid under more than one of" if valid
                    else "not valid under any of")
        elif key == "$ref":     # "#/$defs/name"
            target = functools.reduce(operator.getitem, v.split("/")[1:],
                                      _schema())
            yield from _errors(target, x, path)
        elif key not in _ANNOTATIONS:
            raise NotImplementedError("schema keyword %r" % key)


def _violation(cfg):
    """The first violation of the schema by cfg in path order, as its JSON
    path and message, or None."""
    error = min(_errors(_schema(), cfg), key=lambda e: e[0], default=None)
    if error:
        return "$" + "".join("[%d]" % k if isinstance(k, int) else "." + k
                             for k in error[0]), error[1]


def load_config(path):
    """Read, parse, and validate a config file against the shipped schema.

    The first violation by path order is reported with its JSON path.  An
    integer must be an integer literal, and NaN and Infinity are refused.
    """
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
    error = _violation(cfg)
    if error:
        raise ConfigError("%s: at %s: %s" % (path, *error))
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


def _positive(x):
    """A schema number as given, or a string "n" or "n/d" as a Fraction."""
    try:
        value = Fraction(x) if isinstance(x, str) else x
    except ZeroDivisionError:
        raise ConfigError("%r has a zero denominator" % x) from None
    if value <= 0:
        raise ConfigError("%r is not positive" % x)
    return value


def _at(where, parse, *args):
    """parse(*args), with a ConfigError naming the JSON path `where`."""
    try:
        return parse(*args)
    except ValueError as exc:  # RankError, a bad literal or move, ConfigError
        raise ConfigError("at %s: %s" % (where, exc)) from exc


def parse_weight(w):
    return float(_positive(w))


def _word(text, rank):
    """The reduced word of a literal, every letter of which lies within the
    rank, also one that cancels."""
    # lower-case letters never cancel, so this checks each letter as written
    fg.check_rank(fg.parse_word(text.lower()), rank)
    return fg.parse_word(text)


def _tracked_class(text, rank):
    w = _word(text, rank)
    if len(w) == 0:
        raise ValueError("tracked class %r is trivial" % text)
    return w


def _boundary(text, rank):
    xi = treemod.parse_boundary(text)
    # every word of the literal, also a truncated prefix past its depth
    for part in text.split():
        key, _, letters = part.partition(":")
        if key == "prefix" and not letters:
            raise ValueError("boundary literal %r has no letters" % text)
        if key != "depth":
            _word(letters, rank)
    return xi


def _build_atom(cfg, atom):
    if cfg["mode"] == "outer":
        return fg.from_trace(cfg["rank"], atom["trace"])
    return _word(atom["word"], cfg["rank"])


def build_measure(cfg):
    measure = cfg["measure"]
    weights = [_at("$.measure[%d].weight" % i, parse_weight, a["weight"])
               for i, a in enumerate(measure)]
    atoms = [_at("$.measure[%d]" % i, _build_atom, cfg, a)
             for i, a in enumerate(measure)]
    return _at("$.measure", walk.MeasureSpec, atoms, weights)


def resolve_checkpoints(cfg):
    """An explicit list as given, or every k-th step and the horizon."""
    cps, horizon = cfg["checkpoints"], cfg["horizon"]
    if isinstance(cps, dict):
        return tuple(range(cps["every"], horizon, cps["every"])) + (horizon,)
    return tuple(cps)


def build_walk_config(cfg, seed_override=None):
    seed = cfg["seed"] if seed_override is None else seed_override
    kwargs = {}
    if "max_word_letters" in cfg:
        kwargs["max_word_letters"] = cfg["max_word_letters"]
    if "spot_check_rate" in cfg:
        kwargs["spot_check_rate"] = cfg["spot_check_rate"]
    parse = _boundary if cfg["mode"] == "tree" else _tracked_class
    tracked = [_at("$.tracked[%d]" % i, parse, text, cfg["rank"])
               for i, text in enumerate(cfg.get("tracked", []))]
    try:
        wcfg = walk.WalkConfig(
            horizon=cfg["horizon"], trials=cfg["trials"], master_seed=int(seed),
            checkpoints=resolve_checkpoints(cfg),
            tracked_classes=tuple(tracked), **kwargs)
    except ValueError as exc:
        raise ConfigError("invalid walk settings: %s" % exc) from exc
    _no_repeats("$.tracked", walk.tracked_labels(wcfg))
    return wcfg


def _no_repeats(where, labels):
    """Reject the first entry of the list at `where` that repeats a label."""
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ConfigError("at %s[%d]: %r repeats %s[%d]"
                              % (where, i, label, where, labels.index(label)))


# The settings of the walk commands: each checks what its command needs of
# the config before any trial runs, and returns what its analysis reads.
# stats and tree.centering_check trust these checks and make none of their own.

MIN_DRIFT_TRIALS = 30


def _enough_trials(wcfg, what, need):
    if wcfg.trials < need:
        raise ConfigError("at $.trials: %s needs at least %d trials, got %d"
                          % (what, need, wcfg.trials))


def drift_trials(cfg, wcfg):
    """The drift and clt commands' only need: enough trials for a drift."""
    _enough_trials(wcfg, "the drift estimate", MIN_DRIFT_TRIALS)


def gap_class(cfg, wcfg):
    """The gap command's class: $.gap.class, or the first tracked class."""
    labels = walk.tracked_labels(wcfg)
    if not labels:
        raise ConfigError("at $.tracked: the gap command needs at least one "
                          "tracked class")
    label = cfg.get("gap", {}).get("class", labels[0])
    if label not in labels:
        raise ConfigError("at $.gap.class: class %r was not tracked" % label)
    half = wcfg.checkpoints[-1] // 2
    if wcfg.checkpoints[0] > half:
        raise ConfigError("at $.checkpoints: the gap command compares the "
                          "last checkpoint with one at or below %d" % half)
    return label


def deviation_grid(cfg, wcfg):
    """The deviation command's grid: $.deviation.grid, or every checkpoint."""
    drift_trials(cfg, wcfg)
    grid = cfg.get("deviation", {}).get("grid", list(wcfg.checkpoints))
    if len(grid) < 2:
        raise ConfigError("at $.checkpoints: the deviation decay fit needs at "
                          "least 2 checkpoints")
    _no_repeats("$.deviation.grid", grid)
    for i, n in enumerate(grid):
        if n not in wcfg.checkpoints:
            raise ConfigError("at $.deviation.grid[%d]: grid point %d is not "
                              "a checkpoint" % (i, n))
    return grid


def tree_lab_points(cfg, wcfg):
    """The tree-lab points $.tree_lab.x_points, and $.tree_lab.h2 with its
    point and its defaults filled in, or None."""
    if cfg["mode"] != "tree":
        raise ConfigError("at $.mode: tree-lab needs mode 'tree', config has "
                          "%r" % cfg["mode"])
    # one trial has no standard error: the summary would carry NaN
    _enough_trials(wcfg, "tree-lab", 2)
    section = cfg.get("tree_lab", {})
    rank = cfg["rank"]
    x_points = [_at("$.tree_lab.x_points[%d]" % i, _boundary, text, rank)
                for i, text in enumerate(section.get("x_points", ["per:a"]))]
    _no_repeats("$.tree_lab.x_points",
                [treemod.format_boundary(x) for x in x_points])
    h2 = section.get("h2")
    if h2:
        h2 = {"alpha": 1.0, "grid": [1, 2, 3, 4, 5, 6], **h2,
              "point": _at("$.tree_lab.h2.x", _boundary, h2["x"], rank)}
        _no_repeats("$.tree_lab.h2.grid", h2["grid"])
    return x_points, h2


def build_rose_points(cfg):
    """Rose points for the distance command."""
    section = cfg.get("distance")
    if not section:
        raise ConfigError("at $.distance: the distance command needs a "
                          "distance section")
    rank = cfg["rank"]
    pts = []
    for i, entry in enumerate(section["points"]):
        where = "$.distance.points[%d]" % i
        lengths = [_at("%s.lengths[%d]" % (where, j), _positive, x)
                   for j, x in enumerate(entry["lengths"])]
        marking = _at(where + ".marking_trace", fg.from_trace, rank,
                      entry.get("marking_trace", ()))
        pts.append(_at(where + ".lengths", rose.rose_point, lengths, marking))
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
