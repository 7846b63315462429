"""Config loading: schema validation, cross checks, and builders."""

import copy
import functools
import glob
import json
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from outwalk import config as cfgmod
from outwalk import freegroup as fg
from outwalk.config import ConfigError


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GOOD_TREE = {
    "rank": 2,
    "mode": "tree",
    "measure": [{"word": w, "weight": "1/4"} for w in ("a", "A", "b", "B")],
    "horizon": 100,
    "trials": 10,
    "checkpoints": {"every": 20},
    "seed": 7,
    "tracked": ["per:a"],
}

GOOD_OUTER = {
    "rank": 2,
    "mode": "outer",
    "measure": [{"trace": ["R:1:2:+"], "weight": 0.5},
                {"trace": ["R:1:2:-"], "weight": 0.5}],
    "horizon": 40,
    "trials": 5,
    "checkpoints": [10, 20, 40],
    "seed": 1,
    "tracked": ["a", "ab"],
}


def write(tmp_path, payload, name="c.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(p)


def test_shipped_configs_all_validate():
    paths = glob.glob(os.path.join(ROOT, "configs", "*.json"))
    assert paths, "expected shipped example configs"
    for p in paths:
        cfg = cfgmod.load_config(p)
        mu = cfgmod.build_measure(cfg)
        wc = cfgmod.build_walk_config(cfg)
        assert wc.checkpoints[-1] <= wc.horizon
        assert mu.mode == cfg["mode"]


def test_load_round_trip(tmp_path):
    cfg = cfgmod.load_config(write(tmp_path, GOOD_TREE))
    assert cfg["rank"] == 2


def test_syntax_error_reports_line_and_column(tmp_path):
    path = write(tmp_path, '{\n  "rank": 2,\n  "mode" tree\n}')
    with pytest.raises(ConfigError) as err:
        cfgmod.load_config(path)
    assert "line 3" in str(err.value)
    assert "column" in str(err.value)


def test_schema_violation_names_the_json_path(tmp_path):
    bad = dict(GOOD_TREE, measure=[{"word": "a", "weight": -2}])
    with pytest.raises(ConfigError) as err:
        cfgmod.load_config(write(tmp_path, bad))
    assert "$.measure[0]" in str(err.value)


def test_unknown_keys_rejected(tmp_path):
    bad = dict(GOOD_TREE, typo_field=1)
    with pytest.raises(ConfigError):
        cfgmod.load_config(write(tmp_path, bad))


def test_missing_required_field(tmp_path):
    bad = {k: v for k, v in GOOD_TREE.items() if k != "horizon"}
    with pytest.raises(ConfigError) as err:
        cfgmod.load_config(write(tmp_path, bad))
    assert "horizon" in str(err.value)


def test_mode_and_atom_kind_must_match(tmp_path):
    bad = dict(GOOD_TREE, mode="outer")
    with pytest.raises(ConfigError) as err:
        cfgmod.load_config(write(tmp_path, bad))
    assert "measure[0]" in str(err.value)
    bad2 = dict(GOOD_OUTER, mode="tree")
    with pytest.raises(ConfigError):
        cfgmod.load_config(write(tmp_path, bad2, name="c2.json"))


def test_checkpoint_list_must_increase_and_fit(tmp_path):
    bad = dict(GOOD_OUTER, checkpoints=[10, 10, 40])
    with pytest.raises(ConfigError):
        cfgmod.load_config(write(tmp_path, bad))
    bad2 = dict(GOOD_OUTER, checkpoints=[10, 80])
    with pytest.raises(ConfigError):
        cfgmod.load_config(write(tmp_path, bad2, name="c2.json"))


def test_missing_file_is_a_config_error():
    with pytest.raises(ConfigError):
        cfgmod.load_config("/no/such/config.json")


def test_parse_weight_accepts_fraction_strings():
    assert cfgmod.parse_weight("1/4") == Fraction(1, 4)
    assert cfgmod.parse_weight("2") == Fraction(2)
    assert cfgmod.parse_weight(0.25) == 0.25


def test_build_measure_weight_normalization_not_implicit(tmp_path):
    # weights are taken literally; a misweighted measure must fail loudly
    bad = dict(GOOD_TREE,
               measure=[{"word": "a", "weight": "1/4"},
                        {"word": "b", "weight": "1/4"}])
    cfg = cfgmod.load_config(write(tmp_path, bad))
    with pytest.raises(ValueError):
        cfgmod.build_measure(cfg)


def test_build_measure_modes():
    mu = cfgmod.build_measure(GOOD_TREE)
    assert mu.mode == "tree" and len(mu.atoms) == 4
    nu = cfgmod.build_measure(GOOD_OUTER)
    assert nu.mode == "outer"
    assert [fg.format_word(w) for w in nu.atoms[0].forward] == ["ab", "b"]


def test_build_measure_reports_rank_errors_as_config_errors():
    bad = dict(GOOD_TREE, measure=[{"word": "a", "weight": "1/2"},
                                   {"word": "c", "weight": "1/2"}])
    with pytest.raises(ConfigError) as err:
        cfgmod.build_measure(bad)
    assert "$.measure[1]" in str(err.value)
    bad = dict(GOOD_OUTER, measure=[{"trace": ["T:1:3"], "weight": 1}])
    with pytest.raises(ConfigError) as err:
        cfgmod.build_measure(bad)
    assert "$.measure[0]" in str(err.value)


def test_resolve_every_checkpoints_appends_horizon():
    assert cfgmod.resolve_checkpoints(GOOD_TREE) == tuple(range(20, 101, 20))
    cfg = dict(GOOD_TREE, horizon=90)
    assert cfgmod.resolve_checkpoints(cfg)[-1] == 90
    assert cfgmod.resolve_checkpoints(GOOD_OUTER) == (10, 20, 40)


def test_build_tracked_checks_rank(tmp_path):
    bad = dict(GOOD_OUTER, tracked=["abc"])
    cfg = cfgmod.load_config(write(tmp_path, bad))
    with pytest.raises(ConfigError, match=r"\$\.tracked\[0\]") as err:
        cfgmod.build_walk_config(cfg)
    assert isinstance(err.value.__cause__, fg.RankError)


def test_build_walk_config_names_the_tracked_entry_at_fault(tmp_path):
    bad = dict(GOOD_OUTER, tracked=["a", "abc"])
    cfg = cfgmod.load_config(write(tmp_path, bad))
    with pytest.raises(ConfigError, match=r"\$\.tracked\[1\]"):
        cfgmod.build_walk_config(cfg)
    bad_point = dict(GOOD_TREE, tracked=["per:a", "per:aA"])
    cfg = cfgmod.load_config(write(tmp_path, bad_point, "tree.json"))
    with pytest.raises(ConfigError, match=r"\$\.tracked\[1\]"):
        cfgmod.build_walk_config(cfg)


def test_build_walk_config_and_seed_override():
    wc = cfgmod.build_walk_config(GOOD_OUTER)
    assert wc.master_seed == 1
    assert wc.trials == 5
    assert [fg.format_word(w) for w in wc.tracked_classes] == ["a", "ab"]
    wc2 = cfgmod.build_walk_config(GOOD_OUTER, seed_override=99)
    assert wc2.master_seed == 99


def test_build_rose_points_marking_trace(tmp_path):
    cfg = dict(GOOD_OUTER)
    cfg["distance"] = {"points": [
        {"lengths": ["1/2", "1/2"]},
        {"lengths": ["9/10", "1/10"], "marking_trace": ["R:1:2:+"]},
    ]}
    loaded = cfgmod.load_config(write(tmp_path, cfg))
    pts = cfgmod.build_rose_points(loaded)
    assert len(pts) == 2
    assert pts[0].lengths == (Fraction(1, 2), Fraction(1, 2))
    assert [fg.format_word(w) for w in pts[1].marking.forward] == ["ab", "b"]


def test_tolerances_merge_keeps_defaults(tmp_path):
    cfg = dict(GOOD_TREE, tolerances={"ks_p_min": 0.05})
    loaded = cfgmod.load_config(write(tmp_path, cfg))
    tol = cfgmod.tolerances(loaded)
    assert tol["ks_p_min"] == 0.05
    assert tol["gap_ratio_tol"] == cfgmod.DEFAULT_TOLERANCES["gap_ratio_tol"]


def test_config_hash_insensitive_to_key_order_only():
    a = {"rank": 2, "mode": "tree"}
    b = {"mode": "tree", "rank": 2}
    assert cfgmod.config_hash(a) == cfgmod.config_hash(b)
    c = dict(a, rank=3)
    assert cfgmod.config_hash(a) != cfgmod.config_hash(c)


def test_boundary_tracked_strings_validated(tmp_path):
    bad = dict(GOOD_TREE, tracked=["per:aA"])
    cfg = cfgmod.load_config(write(tmp_path, bad))
    with pytest.raises(ConfigError, match=r"\$\.tracked\[0\]"):
        cfgmod.build_walk_config(cfg)


def test_loading_every_shipped_config_leaves_jsonschema_unloaded():
    # the config interpreter stands alone: jsonschema is only a test oracle
    child = (
        "import glob, sys\n"
        "from outwalk import cli, config\n"
        "for p in sorted(glob.glob(sys.argv[1])):\n"
        "    cfg = config.load_config(p)\n"
        "    config.build_measure(cfg)\n"
        "    config.build_walk_config(cfg)\n"
        "print('jsonschema' in sys.modules)\n")
    proc = subprocess.run(
        [sys.executable, "-c", child, os.path.join(ROOT, "configs", "*.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _schema_keywords(schema):
    """(keyword, value) of every schema object in the shipped schema."""
    for key, value in schema.items():
        yield key, value
        if key in ("properties", "$defs"):
            for sub in value.values():
                yield from _schema_keywords(sub)
        elif key == "items":
            yield from _schema_keywords(value)
        elif key == "oneOf":
            for sub in value:
                yield from _schema_keywords(sub)


def test_every_schema_keyword_is_interpreted():
    found = list(_schema_keywords(cfgmod._schema()))
    assert {k for k, _ in found} >= {"type", "$ref", "oneOf", "pattern"}
    for key, value in found:
        for instance in (None, True, 1, 0.5, "a", [1], {"a": 1}):
            list(cfgmod._errors({key: value}, instance))
    with pytest.raises(NotImplementedError, match="format"):
        list(cfgmod._errors({"format": "email"}, "a"))


# The interpreter against jsonschema, on mutated copies of the shipped
# configs, one of each schema location: every leaf set to each of
# LEAF_VALUES, every list or object below the top set to each of
# NODE_VALUES, every key dropped, an extra key added to every object, and
# each two neighbouring leaves set to null together.
LEAF_VALUES = [None, True, 0, -1, 1, 2, 64, 2 ** 64, 0.5, 60.0, math.nan,
               math.inf, -math.inf, "", "a", "1/2", "per:a", "R:1:2:+", [],
               [1], {}]
NODE_VALUES = [None, [], [0.5, 0.5, 0.5], {},
               {"word": "a", "trace": [], "weight": 1}]


def _divergent(value):
    """An integral float or a non-finite number: not a JSON Schema integer
    or number here, although jsonschema takes it for one."""
    return type(value) is float and (value.is_integer()
                                     or not math.isfinite(value))


def _slots(node, path=()):
    if isinstance(node, (dict, list)) and path:
        yield "node", path
    if isinstance(node, dict):
        yield "object", path
        for key, value in node.items():
            yield "key", path + (key,)
            yield from _slots(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _slots(value, path + (i,))
    else:
        yield "leaf", path


def _set(cfg, at, value):
    functools.reduce(operator.getitem, at[:-1], cfg)[at[-1]] = value
    return cfg


def _mutants():
    """(the value set in and where, or None and None; the mutated config)."""
    seen = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "configs", "*.json"))):
        with open(path) as fh:
            cfg = json.load(fh)
        leaves = []
        for kind, at in _slots(cfg):
            where = (kind,) + tuple("*" if isinstance(k, int) else k
                                    for k in at)
            if where in seen:
                continue
            seen.add(where)
            if kind == "leaf":
                leaves.append(at)
            if kind in ("leaf", "node"):
                for value in LEAF_VALUES if kind == "leaf" else NODE_VALUES:
                    yield value, at, _set(copy.deepcopy(cfg), at, value)
                continue
            mutant = copy.deepcopy(cfg)
            if kind == "key":
                del functools.reduce(operator.getitem, at[:-1], mutant)[at[-1]]
            else:
                functools.reduce(operator.getitem, at, mutant)["extra"] = 1
            yield None, None, mutant
        for a, b in zip(leaves, leaves[1:]):
            yield None, None, _set(_set(copy.deepcopy(cfg), a, None), b, None)


def test_interpreter_agrees_with_jsonschema_on_mutated_configs():
    jsonschema = pytest.importorskip("jsonschema")
    stock = jsonschema.Draft202012Validator
    # jsonschema with this package's two type rules, for the values where
    # the plain validator deliberately disagrees
    strict = jsonschema.validators.extend(
        stock, type_checker=stock.TYPE_CHECKER.redefine_many({
            "integer": lambda _, x: type(x) is int,
            "number": lambda _, x: type(x) is int or (
                type(x) is float and math.isfinite(x))}))
    schema = cfgmod._schema()
    stock, strict = stock(schema), strict(schema)
    seen = {"accepted": 0, "rejected": 0, "two paths": 0,
            "integral float": 0, "non-finite": 0}
    for value, at, mutant in _mutants():
        oracle = strict if _divergent(value) else stock
        expected = sorted(oracle.iter_errors(mutant),
                          key=lambda e: list(e.absolute_path))
        if oracle is strict and expected and stock.is_valid(mutant):
            # the deliberate divergence: refused at the value or the oneOf
            # that holds it, where plain jsonschema accepts
            where = tuple(expected[0].absolute_path)
            assert where == at[:len(where)], mutant
            seen["integral float" if value.is_integer() else "non-finite"] += 1
        got = cfgmod._violation(mutant)
        if not expected:
            assert got is None, mutant
            seen["accepted"] += 1
            continue
        first = expected[0]
        assert got is not None and got[0] == first.json_path, mutant
        # the wording of these two keywords differs between jsonschema
        # releases, and the many-valid oneOf message lists the schemas
        if first.validator not in ("minItems", "maxItems") and \
                "valid under each of" not in first.message:
            assert got[1] == first.message, mutant
        seen["rejected"] += 1
        seen["two paths"] += len({e.json_path for e in expected}) > 1
    assert all(seen.values()), seen
