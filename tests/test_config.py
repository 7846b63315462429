"""Config loading: schema validation, cross checks, and builders."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from outwalk import config as cfgmod
from outwalk import freegroup as fg
from outwalk.config import ConfigError


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
    import glob
    import os
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = glob.glob(os.path.join(root, "configs", "*.json"))
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


def test_importing_the_cli_leaves_jsonschema_unloaded():
    # only load_config validates against the schema
    child = "import sys, outwalk.cli\nprint('jsonschema' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
