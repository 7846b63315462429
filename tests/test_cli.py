"""Command line behavior: exit codes, output files, and reproducibility."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from outwalk import cli, config, rose, tree, walk


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tree_cfg(**over):
    cfg = {
        "rank": 2,
        "mode": "tree",
        "measure": [{"word": w, "weight": "1/4"} for w in ("a", "A", "b", "B")],
        "horizon": 200,
        "trials": 60,
        "checkpoints": {"every": 40},
        "seed": 11,
        "tracked": ["per:a"],
        "gap": {"class": "per:a"},
        "tree_lab": {"x_points": ["per:a", "per:b"]},
    }
    cfg.update(over)
    return cfg


def outer_cfg(**over):
    cfg = {
        "rank": 2,
        "mode": "outer",
        "measure": [{"trace": ["R:1:2:+"], "weight": 0.25},
                    {"trace": ["R:1:2:-"], "weight": 0.25},
                    {"trace": ["R:2:1:+"], "weight": 0.25},
                    {"trace": ["R:2:1:-"], "weight": 0.25}],
        "horizon": 30,
        "trials": 40,
        "checkpoints": [10, 20, 30],
        "seed": 3,
        "tracked": ["a", "ab"],
        "gap": {"class": "a"},
    }
    cfg.update(over)
    return cfg


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run(args):
    return cli.main(args)


# -- verify

# the report names of `verify --suite all`, in order; a new check may only
# be appended to its own suite
VERIFY_NAMES = [
    "algebra/reduction-laws",
    "algebra/cyclic-conjugacy-invariance",
    "algebra/canonical-rotation-minimal",
    "algebra/automorphism-round-trip",
    "algebra/homomorphism-property",
    "algebra/sigma-cocycle-identity",
    "outer-space/frozen-asymmetry-example",
    "outer-space/frozen-translation-lengths",
    "outer-space/frozen-kappa",
    "outer-space/sigma-dominated-by-kappa",
    "outer-space/white-equality",
    "outer-space/triangle-inequality",
    "outer-space/action-isometry",
    "tree/frozen-busemann-examples",
    "tree/lemma-identity-residuals",
    "tree/busemann-cocycle",
    "tree/four-point-condition",
    "tree/action-associativity",
    "tree/horofunction-product-agreement",
    "tree/corollary-bound-witness",
]


def test_verify_algebra_suite_passes(capsys):
    assert run(["verify", "--suite", "algebra"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])


# cripple the candidate set so that White equality must fail
CORRUPT_CANDIDATES = """
real = rose.candidate_set
rose.candidate_set = lambda point: real(point)[:1]
"""


def test_verify_fault_injection_breaks_white_equality(capsys, monkeypatch):
    real = rose.candidate_set
    monkeypatch.setattr(rose, "candidate_set", lambda point: real(point)[:1])
    assert run(["verify", "--suite", "outer-space"]) == 1
    report = json.loads(capsys.readouterr().out)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert any("white" in c["name"] for c in failed)
    # a failing check is reported with its error, and the suite goes on
    assert [c["name"] for c in report["checks"]] == \
        [n for n in VERIFY_NAMES if n.startswith("outer-space/")]
    white = report["checks"][4]
    assert not white["passed"]
    assert white["detail"].startswith("AssertionError: White equality failed")


def test_verify_checks_still_fail_under_python_O():
    # -O strips assert statements; the catalogue raises its errors itself
    child = ("import sys\nfrom outwalk import cli, rose\n" + CORRUPT_CANDIDATES
             + "sys.exit(cli.main(['verify', '--suite', 'outer-space']))\n")
    proc = subprocess.run([sys.executable, "-O", "-c", child],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert [c["name"] for c in report["checks"] if not c["passed"]] == [
        "outer-space/frozen-asymmetry-example", "outer-space/white-equality",
        "outer-space/triangle-inequality"]


def test_verify_all_suites_pass_in_report_order(capsys):
    assert run(["verify", "--suite", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == "all" and report["passed"] is True
    assert [c["name"] for c in report["checks"]] == VERIFY_NAMES
    assert all(c["passed"] and c["detail"] == "" for c in report["checks"])


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as err:
        run(["verify", "--suite", "nonsense"])
    assert err.value.code == 2


# -- config errors

def test_missing_config_exits_2(tmp_path):
    assert run(["drift", "--config", str(tmp_path / "absent.json"),
                "--out", str(tmp_path / "o")]) == 2


def test_invalid_config_exits_2(tmp_path):
    path = write_cfg(tmp_path, tree_cfg(horizon=-5))
    assert run(["drift", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_tree_lab_needs_two_trials(tmp_path, capsys):
    with open(os.path.join(ROOT, "configs", "tree_srw_f2.json")) as fh:
        cfg = json.load(fh)
    cfg.update(trials=1, horizon=400)
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert run(["tree-lab", "--config", path, "--out", str(out)]) == 2
    assert "$.trials" in capsys.readouterr().err
    assert not (out / "tree_lab_summary.json").exists()


def test_mode_mismatch_between_command_and_config(tmp_path, capsys,
                                                  monkeypatch):
    refuse_trials(monkeypatch)
    path = write_cfg(tmp_path, outer_cfg())
    assert run(["tree-lab", "--config", path,
                "--out", str(tmp_path / "o")]) == 2
    assert "at $.mode:" in capsys.readouterr().err


def test_drift_on_the_one_trial_rose_config_exits_2(tmp_path, capsys,
                                                    monkeypatch):
    refuse_trials(monkeypatch)
    path = os.path.join(ROOT, "configs", "rose_asymmetry.json")
    assert run(["drift", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "at $.trials:" in capsys.readouterr().err


def test_gap_runs_with_two_trials(tmp_path):
    out = tmp_path / "o"
    path = write_cfg(tmp_path, outer_cfg(trials=2))
    assert run(["gap", "--config", path, "--out", str(out)]) == 0
    assert len((out / "gap.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_outside_the_schema_range_exits_2(tmp_path, capsys, seed):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as err:
        run(["clt", "--config", os.path.join(ROOT, "configs", "outf2_clt.json"),
             "--seed", seed, "--out", str(out)])
    assert err.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()     # refused before any trial ran


# An integer must be an integer literal, and NaN and Infinity (which
# Python's json reads) are no numbers: each exits 2 at its path.
@pytest.mark.parametrize("command,over,where", [
    ("clt", {"horizon": 60.0}, "$.horizon"),
    ("clt", {"trials": 100.0}, "$.trials"),
    ("clt", {"rank": 2.0}, "$.rank"),
    ("clt", {"checkpoints": {"every": 10.0}}, "$.checkpoints"),
    ("clt", {"seed": 7.0}, "$.seed"),
    ("clt", {"checkpoints": [10, 20.0, 30]}, "$.checkpoints"),
    ("clt", {"max_word_letters": 100.0}, "$.max_word_letters"),
    ("clt", {"measure": [{"trace": ["R:1:2:+"], "weight": float("nan")},
                         {"trace": ["R:1:2:-"], "weight": 0.5}]},
     "$.measure[0].weight"),
    ("deviation", {"deviation": {"epsilon_factor": float("nan")}},
     "$.deviation.epsilon_factor"),
    ("deviation", {"deviation": {"epsilon_factor": float("inf")}},
     "$.deviation.epsilon_factor"),
    ("clt", {"tolerances": {"ks_p_min": float("nan")}},
     "$.tolerances.ks_p_min"),
    ("clt", {"tolerances": {"drift_interval": [float("-inf"), 0.52]}},
     "$.tolerances.drift_interval[0]"),
])
def test_float_integers_and_non_finite_numbers_exit_2(tmp_path, capsys,
                                                      command, over, where):
    out = tmp_path / "o"
    path = write_cfg(tmp_path, outer_cfg(**over))
    assert run([command, "--config", path, "--out", str(out)]) == 2
    assert "at %s:" % where in capsys.readouterr().err
    assert not out.exists()     # refused before any trial ran


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exit_2(tmp_path, capsys, threads):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as err:
        run(["drift", "--config", write_cfg(tmp_path, tree_cfg()),
             "--threads", threads, "--out", str(out)])
    assert err.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


def test_rank_1_config_exits_2(tmp_path, capsys):
    cfg = outer_cfg(rank=1, measure=[{"trace": ["I:1"], "weight": 1.0}],
                    tracked=["a"])
    path = write_cfg(tmp_path, cfg)
    assert run(["clt", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "$.rank" in capsys.readouterr().err


def test_move_beyond_the_rank_exits_2(tmp_path, capsys):
    cfg = outer_cfg(measure=[{"trace": ["R:1:2:+"], "weight": 0.5},
                             {"trace": ["R:1:3:+"], "weight": 0.5}])
    path = write_cfg(tmp_path, cfg)
    assert run(["clt", "--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "$.measure[1]" in err and "R:1:3:+" in err


def test_marking_move_beyond_the_rank_exits_2(tmp_path, capsys):
    with open(os.path.join(ROOT, "configs", "rose_asymmetry.json")) as fh:
        cfg = json.load(fh)
    cfg["distance"]["points"][1]["marking_trace"] = ["R:1:3:+"]
    path = write_cfg(tmp_path, cfg)
    assert run(["distance", "--config", path,
                "--out", str(tmp_path / "o")]) == 2
    assert "$.distance.points[1].marking_trace" in capsys.readouterr().err


def test_tracked_class_beyond_the_rank_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path, outer_cfg(tracked=["a", "abc"]))
    assert run(["clt", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "$.tracked[1]" in capsys.readouterr().err


def refuse_trials(monkeypatch):
    def run_experiment(*args, **kwargs):
        raise AssertionError("a trial ran before the config was checked")
    monkeypatch.setattr(cli.walk, "run_experiment", run_experiment)


@pytest.mark.parametrize("command,over,where", [
    ("gap", {"gap": {"class": "abab"}}, "$.gap.class"),
    ("gap", {"tracked": []}, "$.tracked"),
    ("deviation", {"deviation": {"grid": [10, 15, 30]}}, "$.deviation.grid[1]"),
    ("tree-lab", {"tree_lab": {"x_points": ["per:a", "per:aA"]}},
     "$.tree_lab.x_points[1]"),
    ("tree-lab", {"tree_lab": {"x_points": ["per:c"]}},
     "$.tree_lab.x_points[0]"),
    ("tree-lab", {"tree_lab": {"h2": {"x": "per:bB"}}}, "$.tree_lab.h2.x"),
    ("tree-lab", {"tree_lab": {"x_points": ["prefix:abcd depth:1"]}},
     "$.tree_lab.x_points[0]"),
    ("tree-lab", {"tree_lab": {"x_points": ["per:a", "per:b", "per:a"]}},
     "$.tree_lab.x_points[2]"),
    ("tree-lab", {"tree_lab": {"psi_samples": 10}}, "$.tree_lab"),
    ("tree-lab", {"tree_lab": {"x_points": ["per:acC"]}},
     "$.tree_lab.x_points[0]"),
    ("tree-lab", {"tree_lab": {"h2": {"x": "pre:cC per:b"}}},
     "$.tree_lab.h2.x"),
    ("tree-lab", {"trials": 1}, "$.trials"),
    ("drift", {"trials": 29}, "$.trials"),
    ("clt", {"trials": 29}, "$.trials"),
    ("deviation", {"trials": 29}, "$.trials"),
    # epsilon is epsilon_factor times the estimated drift, set one way only
    ("deviation", {"deviation": {"epsilon": 0.1}}, "$.deviation"),
    # no checkpoint at or below half the last one for the gap to compare
    ("gap", {"checkpoints": [20, 30]}, "$.checkpoints"),
    # a decay fit needs two distinct grid points
    ("deviation", {"deviation": {"grid": [30]}}, "$.deviation.grid"),
    ("deviation", {"deviation": {"grid": [20, 30, 20]}},
     "$.deviation.grid[2]"),
    ("deviation", {"checkpoints": [30]}, "$.checkpoints"),
    ("tree-lab", {"tree_lab": {"h2": {"x": "per:b", "grid": [3, 3]}}},
     "$.tree_lab.h2.grid[1]"),
])
def test_command_sections_are_checked_before_any_trial(tmp_path, capsys,
                                                        monkeypatch, command,
                                                        over, where):
    refuse_trials(monkeypatch)
    cfg = tree_cfg(**over) if command == "tree-lab" else outer_cfg(**over)
    path = write_cfg(tmp_path, cfg)
    assert run([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "at %s:" % where in capsys.readouterr().err


@pytest.mark.parametrize("cfg,where", [
    (tree_cfg(tracked=["per:a", "per:a"]), "$.tracked[1]"),
    (outer_cfg(tracked=["a", "a"]), "$.tracked[1]"),
    (outer_cfg(tracked=["a", "aA"]), "$.tracked[1]"),
    (tree_cfg(tracked=["per:a", "pre:c per:a"]), "$.tracked[1]"),
    (tree_cfg(tracked=["prefix:bc depth:2"]), "$.tracked[0]"),
    (tree_cfg(tracked=["prefix:abc depth:2"]), "$.tracked[0]"),
    (outer_cfg(tracked=["acC"]), "$.tracked[0]"),
    (tree_cfg(tracked=["per:acC"]), "$.tracked[0]"),
    (tree_cfg(tracked=["pre:cC per:a"]), "$.tracked[0]"),
    (tree_cfg(tracked=["prefix:acCb depth:2"]), "$.tracked[0]"),
    (tree_cfg(measure=[{"word": "acC", "weight": 0.5},
                       {"word": "A", "weight": 0.5}]), "$.measure[0]"),
    (tree_cfg(tracked=["per:a", "prefix: depth:0"]), "$.tracked[1]"),
])
def test_bad_tracked_entries_exit_2_before_any_trial(tmp_path, capsys,
                                                     monkeypatch, cfg, where):
    # a repeated label, a trivial class, a point beyond the rank (also past
    # a truncated point's depth, or in letters that cancel, as in a measure
    # word), a boundary literal with no letters
    refuse_trials(monkeypatch)
    path = write_cfg(tmp_path, cfg)
    assert run(["drift", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("weight", ["1/0", "0"])
def test_bad_exact_weight_exits_2(tmp_path, capsys, monkeypatch, weight):
    refuse_trials(monkeypatch)
    cfg = outer_cfg()
    cfg["measure"][2]["weight"] = weight
    path = write_cfg(tmp_path, cfg)
    assert run(["drift", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "$.measure[2].weight" in capsys.readouterr().err


def test_weights_off_one_exit_2_before_any_trial(tmp_path, capsys,
                                                 monkeypatch):
    refuse_trials(monkeypatch)
    cfg = tree_cfg(measure=[{"word": "a", "weight": 0.5},
                            {"word": "b", "weight": 0.4}])
    path = write_cfg(tmp_path, cfg)
    assert run(["drift", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "at $.measure: weights must sum to 1" in capsys.readouterr().err


@pytest.mark.parametrize("points,where", [
    ([{"lengths": ["1/2", "1/2"]}, {"lengths": ["1/3", "1/2"]}],
     "$.distance.points[1].lengths"),
    ([{"lengths": ["1/2", "1/2"]}, {"lengths": ["1/3", "1/3", "1/3"]}],
     "$.distance.points[1].lengths"),
    (None, "$.distance"),
])
def test_bad_distance_sections_exit_2(tmp_path, capsys, points, where):
    # lengths off 1, a length count off the rank, no section at all
    cfg = outer_cfg()
    if points is not None:
        cfg["distance"] = {"points": points}
    out = tmp_path / "o"
    assert run(["distance", "--config", write_cfg(tmp_path, cfg),
                "--out", str(out)]) == 2
    assert "at %s:" % where in capsys.readouterr().err
    assert not (out / "distance_summary.json").exists()


@pytest.mark.parametrize("length", ["1/0", "0/3"])
def test_bad_exact_rose_length_exits_2(tmp_path, capsys, length):
    with open(os.path.join(ROOT, "configs", "rose_asymmetry.json")) as fh:
        cfg = json.load(fh)
    cfg["distance"]["points"][1]["lengths"][1] = length
    path = write_cfg(tmp_path, cfg)
    assert run(["distance", "--config", path,
                "--out", str(tmp_path / "o")]) == 2
    assert "$.distance.points[1].lengths[1]" in capsys.readouterr().err


# -- experiment failures

def test_word_cap_failure_exits_1(tmp_path, capsys):
    # gap, as drift refuses 2 trials before the walk; gap compares the
    # last checkpoint with one at or below half of it; the non-primitive
    # class abAB puts the walk on the word engine, the backend the cap binds
    cfg = outer_cfg(measure=[{"trace": ["R:1:2:+"], "weight": 1.0}],
                    horizon=100, trials=2, checkpoints=[50, 100],
                    tracked=["a", "abAB"], max_word_letters=64)
    assert walk.outer_backend(config.build_measure(cfg),
                              config.build_walk_config(cfg)) == "words"
    path = write_cfg(tmp_path, cfg)
    assert run(["gap", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "trial" in capsys.readouterr().err


def test_a_tree_run_past_the_word_cap_finishes(tmp_path):
    # the cap binds only the outer word engine: tree stacks pass 64 letters,
    # and drift writes what it writes without the key
    cfg = tree_cfg(max_word_letters=64)
    records = walk.run_experiment(config.build_measure(cfg),
                                  config.build_walk_config(cfg))
    assert max(r.peak_letters for r in records) > 64
    written = []
    for name, over in (("cap", cfg), ("plain", tree_cfg())):
        out = tmp_path / name
        path = write_cfg(tmp_path, over, name + ".json")
        assert run(["drift", "--config", path, "--out", str(out)]) == 0
        written.append([(out / f).read_bytes()
                        for f in ("drift.csv", "drift_summary.json")])
    assert written[0] == written[1]


# -- output files

def test_drift_outputs_and_manifest(tmp_path):
    out = str(tmp_path / "out")
    path = write_cfg(tmp_path, tree_cfg())
    assert run(["drift", "--config", path, "--out", out]) == 0

    csv = open(os.path.join(out, "drift.csv")).read().splitlines()
    assert csv[0] == "class,lambda_hat,stderr"
    assert csv[1].startswith("kappa,")
    # floats are written exactly as repr so parsing them back is lossless
    val = float(csv[1].split(",")[1])
    summary = json.load(open(os.path.join(out, "drift_summary.json")))
    assert summary["lambda_hat"] == val

    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["command"] == "drift"
    assert manifest["seed"] == 11
    assert set(manifest["outputs"]) == {"drift.csv", "drift_summary.json"}
    assert "outwalk" in manifest["versions"]
    assert "numpy" in manifest["versions"]
    assert not any("time" in k.lower() for k in manifest)


@pytest.mark.parametrize("command", ["drift", "clt", "deviation", "gap",
                                     "tree-lab"])
def test_walk_command_manifest_lists_the_files_written(tmp_path, capsys,
                                                       command):
    out = tmp_path / "out"
    path = write_cfg(tmp_path, tree_cfg())
    assert run([command, "--config", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command and manifest["seed"] == 11
    written = sorted(os.listdir(out))
    written.remove("manifest.json")
    assert manifest["outputs"] == written
    stem = command.replace("-", "_")
    assert written == ([stem + "_summary.json"] if command == "tree-lab"
                       else [stem + ".csv", stem + "_summary.json"])
    assert capsys.readouterr().out.startswith(command)


def test_seed_override_changes_results(tmp_path):
    path = write_cfg(tmp_path, tree_cfg())
    a, b, c = (str(tmp_path / d) for d in "abc")
    assert run(["drift", "--config", path, "--out", a]) == 0
    assert run(["drift", "--config", path, "--out", b, "--seed", "99"]) == 0
    assert run(["drift", "--config", path, "--out", c, "--seed", "99"]) == 0
    la = json.load(open(os.path.join(a, "drift_summary.json")))["lambda_hat"]
    lb = json.load(open(os.path.join(b, "drift_summary.json")))["lambda_hat"]
    lc = json.load(open(os.path.join(c, "drift_summary.json")))["lambda_hat"]
    assert la != lb
    assert lb == lc
    assert json.load(open(os.path.join(b, "manifest.json")))["seed"] == 99


def test_reruns_are_byte_identical(tmp_path):
    path = write_cfg(tmp_path, outer_cfg())
    one, two = str(tmp_path / "1"), str(tmp_path / "2")
    for out in (one, two):
        assert run(["clt", "--config", path, "--out", out]) == 0
    for name in ("clt.csv", "clt_summary.json", "manifest.json"):
        assert open(os.path.join(one, name), "rb").read() == \
            open(os.path.join(two, name), "rb").read()


def test_worker_override_keeps_csv_bytes(tmp_path):
    path = write_cfg(tmp_path, tree_cfg())
    one, eight = str(tmp_path / "w1"), str(tmp_path / "w8")
    assert run(["gap", "--config", path, "--out", one, "--threads", "1"]) == 0
    assert run(["gap", "--config", path, "--out", eight, "--threads", "8"]) == 0
    assert open(os.path.join(one, "gap.csv"), "rb").read() == \
        open(os.path.join(eight, "gap.csv"), "rb").read()


@pytest.mark.parametrize("command,backend", [
    pytest.param(command, backend,
                 id=command if backend == "gl2z" else command + "-words")
    for backend in ("gl2z", "words")
    for command in ("drift", "clt", "deviation", "gap")])
def test_outer_outputs_do_not_depend_on_the_thread_count(tmp_path, command,
                                                         backend):
    # two workers split the trials into GL(2,Z) blocks one worker runs
    # whole; a word block is one trial at the default cap, which the
    # non-primitive class abAB puts the walk on
    with open(os.path.join(ROOT, "configs", "outf2_clt.json")) as fh:
        cfg = json.load(fh)
    if backend == "gl2z":
        cfg["trials"] = 201
    else:
        cfg.update(trials=32, horizon=24, tracked=["a", "abAB", "aba"])
    assert walk.outer_backend(config.build_measure(cfg),
                              config.build_walk_config(cfg)) == backend
    path = write_cfg(tmp_path, cfg)
    outs = [str(tmp_path / "t1"), str(tmp_path / "t2")]
    for out, threads in zip(outs, ("1", "2")):
        assert run([command, "--config", path, "--out", out,
                    "--threads", threads]) == 0
    names = sorted(os.listdir(outs[0]))
    assert "manifest.json" in names and names == sorted(os.listdir(outs[1]))
    for name in names:
        assert open(os.path.join(outs[0], name), "rb").read() == \
            open(os.path.join(outs[1], name), "rb").read(), name


def test_bench_outer_clt_input_keeps_its_recorded_digests(tmp_path):
    # the benchmark's outer_clt input: outf2_clt cut to 91 trials; clt must
    # write the files whose digests bench/digests.json records
    with open(os.path.join(ROOT, "configs", "outf2_clt.json")) as fh:
        cfg = json.load(fh)
    cfg["trials"] = 91
    out = str(tmp_path / "o")
    assert run(["clt", "--config", write_cfg(tmp_path, cfg),
                "--out", out]) == 0
    with open(os.path.join(ROOT, "bench", "digests.json")) as fh:
        digests = json.load(fh)["outer_clt"]
    assert sorted(digests) == ["clt.csv", "clt_summary.json"]
    for name, digest in digests.items():
        with open(os.path.join(out, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


def test_bench_tree_lab_input_keeps_its_recorded_digests(tmp_path):
    # the benchmark's tree_lab input: tree_srw_f2 as shipped on two worker
    # processes; tree-lab must write the file whose digest
    # bench/digests.json records
    out = str(tmp_path / "o")
    assert run(["tree-lab", "--config",
                os.path.join(ROOT, "configs", "tree_srw_f2.json"),
                "--out", out, "--threads", "2"]) == 0
    with open(os.path.join(ROOT, "bench", "digests.json")) as fh:
        digests = json.load(fh)["tree_lab"]
    assert sorted(digests) == ["tree_lab_summary.json"]
    for name, digest in digests.items():
        with open(os.path.join(out, name), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


def test_bench_exact_oracles_keep_their_recorded_digest():
    # the benchmark's exact_oracles call sequence at seed 0, run as
    # bench/child.py runs it, after the warm-up of its set-up; its summary,
    # written as the child writes it, must have the digest that
    # bench/digests.json records
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.warm_oracle_caches()
    attempted, failed, summary = workloads.run_oracles(0)
    assert (attempted, failed) == (12608, 0)
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    with open(os.path.join(ROOT, "bench", "digests.json")) as fh:
        digests = json.load(fh)["exact_oracles"]
    assert sorted(digests) == ["oracles_summary.json"]
    assert hashlib.sha256(text.encode()).hexdigest() == \
        digests["oracles_summary.json"]


# tests/golden_digests.json: config -> command -> output file -> sha256, for
# every walk command that applies to each shipped config and for distance
# on rose_asymmetry.json.  manifest.json is not pinned, as it names the
# Python and numpy versions; it must be the same at both thread counts.
GOLDEN_COMMANDS = ("drift", "clt", "deviation", "gap", "tree-lab", "distance")


def test_shipped_configs_keep_their_golden_digests(tmp_path):
    with open(os.path.join(ROOT, "tests", "golden_digests.json")) as fh:
        golden = json.load(fh)
    names = sorted(os.listdir(os.path.join(ROOT, "configs")))
    assert set(golden) == set(names)
    for name in names:
        path = os.path.join(ROOT, "configs", name)
        for command in GOLDEN_COMMANDS:
            want = golden[name].get(command)
            manifests = set()
            for threads in ("1",) if command == "distance" else ("1", "2"):
                out = str(tmp_path / name / command / threads)
                argv = [command, "--config", path, "--out", out]
                if command != "distance":
                    argv += ["--threads", threads]
                code = run(argv)
                if want is None:        # a command that does not apply
                    assert code == 2, (name, command)
                    continue
                assert code == 0, (name, command, threads)
                with open(os.path.join(out, "manifest.json"), "rb") as fh:
                    manifests.add(fh.read())
                got = {}
                for file in sorted(os.listdir(out)):
                    with open(os.path.join(out, file), "rb") as fh:
                        got[file] = hashlib.sha256(fh.read()).hexdigest()
                assert got.pop("manifest.json")
                assert got == want, (name, command, threads)
            assert len(manifests) == (want is not None)


# sha256 of `outwalk gap` on configs/outf2_gap.json as shipped (400 trials,
# horizon 500, seed 31), recorded before the GL(2,Z) walk took int64 vectors
# where a bound allows: at horizon 500 its vectors stay Python ints
GAP_DIGESTS = {
    "gap.csv":
        "3f70461df032931fc0776eab879ca8587127a4e9f69e764e61db914b6f845c47",
    "gap_summary.json":
        "49a8ea82d5630ffc8e0e10e55f5dd6b35d57c7ff31a2be64b14189855f60aecd",
}


def test_outf2_gap_keeps_its_recorded_digests(tmp_path):
    path = os.path.join(ROOT, "configs", "outf2_gap.json")
    outs = [str(tmp_path / "t1"), str(tmp_path / "t2")]
    for out, threads in zip(outs, ("1", "2")):
        assert run(["gap", "--config", path, "--out", out,
                    "--threads", threads]) == 0
        for name, digest in GAP_DIGESTS.items():
            with open(os.path.join(out, name), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, name
    assert open(os.path.join(outs[0], "manifest.json"), "rb").read() == \
        open(os.path.join(outs[1], "manifest.json"), "rb").read()


def test_clt_csv_layout(tmp_path):
    path = write_cfg(tmp_path, tree_cfg(trials=40))
    out = str(tmp_path / "o")
    assert run(["clt", "--config", path, "--out", out]) == 0
    rows = open(os.path.join(out, "clt.csv")).read().splitlines()
    assert rows[0] == "trial,standardized_value"
    assert len(rows) == 41


def test_deviation_csv_layout(tmp_path):
    path = write_cfg(tmp_path, tree_cfg())
    out = str(tmp_path / "o")
    assert run(["deviation", "--config", path, "--out", out]) == 0
    rows = open(os.path.join(out, "deviation.csv")).read().splitlines()
    assert rows[0] == "n,epsilon,probability"
    summary = json.load(open(os.path.join(out, "deviation_summary.json")))
    assert summary["epsilon"] > 0


def test_gap_csv_layout(tmp_path):
    path = write_cfg(tmp_path, outer_cfg())
    out = str(tmp_path / "o")
    assert run(["gap", "--config", path, "--out", out]) == 0
    rows = open(os.path.join(out, "gap.csv")).read().splitlines()
    assert rows[0] == "trial,sup_gap"
    assert len(rows) == 41
    summary = json.load(open(os.path.join(out, "gap_summary.json")))
    # the half-horizon median gap is 0 here: an infinite ratio, written null
    assert summary["quantiles"]["0.5"]["half"] == 0
    assert summary["median_ratio"] is None


def test_tree_lab_summary(tmp_path):
    path = write_cfg(tmp_path, tree_cfg())
    out = str(tmp_path / "o")
    assert run(["tree-lab", "--config", path, "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "tree_lab_summary.json")))
    assert set(summary["psi"]) == {"per:a", "per:b"}
    assert set(summary["centering"]) == {"per:a", "per:b"}
    assert summary["lambda_hat"] > 0
    assert summary["n_boundary_samples"] == 60


def test_tree_lab_builds_one_head_screen(tmp_path, monkeypatch):
    # ψ, the centering terms and the H2 tail all read one stack of samples
    with open(os.path.join(ROOT, "configs", "tree_srw_f2.json")) as fh:
        cfg = json.load(fh)
    cfg.update(trials=40, horizon=200)
    built = []

    class CountingScreen(tree._HeadScreen):
        def __init__(self, run):
            super().__init__(run)
            built.append(len(self))

    monkeypatch.setattr(tree, "_HeadScreen", CountingScreen)
    path = write_cfg(tmp_path, cfg)
    assert run(["tree-lab", "--config", path, "--out", str(tmp_path / "o")]) == 0
    assert built == [40]


def test_tree_lab_h2_with_one_positive_grid_point_has_no_fit(tmp_path, capsys):
    # no limit point shares 100 letters with b^inf at horizon 200
    cfg = tree_cfg(tree_lab={"x_points": ["per:a"],
                             "h2": {"x": "per:b", "grid": [1, 100]}})
    out = str(tmp_path / "o")
    assert run(["tree-lab", "--config", write_cfg(tmp_path, cfg),
                "--out", out]) == 0
    h2 = json.load(open(os.path.join(out, "tree_lab_summary.json")))["h2"]
    assert h2["points"][0]["probability"] > 0
    assert h2["points"][1]["probability"] == 0
    assert h2["decay_rate"] is None and h2["summable"] is None
    assert "H2 tail rate n/a (summable: n/a)" in capsys.readouterr().out


def test_tree_lab_outputs_do_not_depend_on_the_thread_count(tmp_path):
    with open(os.path.join(ROOT, "configs", "tree_srw_f2.json")) as fh:
        cfg = json.load(fh)
    cfg.update(trials=61, horizon=400)
    path = write_cfg(tmp_path, cfg)
    one, three = str(tmp_path / "t1"), str(tmp_path / "t3")
    assert run(["tree-lab", "--config", path, "--out", one,
                "--threads", "1"]) == 0
    assert run(["tree-lab", "--config", path, "--out", three,
                "--threads", "3"]) == 0
    for name in ("tree_lab_summary.json", "manifest.json"):
        assert open(os.path.join(one, name), "rb").read() == \
            open(os.path.join(three, name), "rb").read()

    def reject(constant):
        raise AssertionError("summary holds %s" % constant)

    summary = json.loads(open(os.path.join(one, "tree_lab_summary.json")).read(),
                         parse_constant=reject)
    assert summary["n_boundary_samples"] == 61


def test_distance_command_prints_frozen_asymmetry(tmp_path, capsys):
    cfg = outer_cfg()
    cfg["distance"] = {"points": [{"lengths": ["1/2", "1/2"]},
                                  {"lengths": ["9/10", "1/10"]}]}
    path = write_cfg(tmp_path, cfg)
    out = str(tmp_path / "o")
    assert run(["distance", "--config", path, "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "log(9/5)" in printed
    assert "log(5/1)" in printed
    summary = json.load(open(os.path.join(out, "distance_summary.json")))
    assert summary["matrix"][0][1]["stretch"] == "9/5"
    assert summary["matrix"][1][0]["stretch"] == "5/1"


def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "outwalk.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("verify", "drift", "clt", "deviation", "gap",
                 "distance", "tree-lab"):
        assert name in proc.stdout


def test_the_cli_starts_without_concurrent_futures():
    # walk workers are forked multiprocessing processes: importing the
    # command does not import the executor machinery
    child = ("import sys\nimport outwalk.cli\n"
             "print('concurrent.futures' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
