"""Tests of the benchmark itself:  python3 -m pytest bench

They need neither outwalk nor a timing run.
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, load_spans, self_times  # noqa: E402


def test_self_time_subtracts_union_of_children():
    # 0 root [0, 100]; children 1 [10, 30] and 2 [20, 50] overlap, 3 [90, 120]
    # sticks out of the root; 4 [12, 15] is a grandchild under 1
    starts = [0, 10, 20, 90, 12]
    ends = [100, 30, 50, 120, 15]
    parents = [-1, 0, 0, 0, 1]
    # root loses [10, 50] and [90, 100]; child 1 loses [12, 15]
    assert self_times(starts, ends, parents) == [50, 17, 30, 30, 3]


def test_span_totals_on_a_synthetic_tree():
    names = ["cli.main", "freegroup.apply", "freegroup.reduce"]
    rows = np.array([
        # name, start, end, parent, a, b
        [0, 0, 1000, -1, 0, 0],
        [1, 100, 400, 0, 10, 12],
        [2, 200, 300, 1, 12, 12],
        [1, 500, 900, 0, 5000, 4000],
    ], dtype=np.int64)
    acc = metrics.span_totals([(names, rows)])
    assert acc["cli.main.self_s"] == pytest.approx(300e-9)
    assert acc["freegroup.apply.calls"] == 2
    assert acc["freegroup.apply.self_s"] == pytest.approx(600e-9)
    assert acc["freegroup.apply.self_s.le64"] == pytest.approx(200e-9)
    assert acc["freegroup.apply.self_s.le1m"] == pytest.approx(400e-9)
    assert acc["freegroup.apply.letters_in"] == 5010
    assert acc["freegroup.reduce.letters_in"] == 12


def test_tracer_records_nesting_and_writes_spans(tmp_path):
    tracer = Tracer(str(tmp_path))

    def inner(x):
        return x + 1

    inner_t = tracer.wrap("inner", inner)
    outer_t = tracer.wrap("outer", lambda x: inner_t(x) * 2)
    assert outer_t(1) == 4
    tracer.flush()
    [(names, rows)] = load_spans(str(tmp_path))
    by_name = {names[r[0]]: r for r in rows.tolist()}
    assert by_name["outer"][3] == -1
    assert by_name["inner"][3] == rows.tolist().index(by_name["outer"])
    assert by_name["outer"][1] <= by_name["inner"][1] \
        <= by_name["inner"][2] <= by_name["outer"][2]


def test_metric_names_are_well_formed_and_match_benchmark_json():
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert metrics.NAME_RE.fullmatch(name) and len(name) <= 64, name
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for section, table in (("end_to_end", metrics.END_TO_END),
                           ("per_layer", metrics.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[section]] \
            == [(m.name, m.unit, m.better) for m in table]


def test_digest_check_catches_one_byte_change(tmp_path):
    path = tmp_path / "clt.csv"
    path.write_bytes(b"trial,standardized_value\n0,0.25\n")
    expected = run.file_digests(str(tmp_path), ["clt.csv"])
    assert run.digest_mismatches(expected, expected) == []
    path.write_bytes(b"trial,standardized_value\n0,0.26\n")
    changed = run.file_digests(str(tmp_path), ["clt.csv"])
    assert run.digest_mismatches(changed, expected) == ["clt.csv"]
    path.unlink()
    missing = run.file_digests(str(tmp_path), ["clt.csv"])
    assert run.digest_mismatches(missing, expected) == ["clt.csv"]


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_outside_range_is_a_usage_error(seed, capsys):
    with pytest.raises(SystemExit) as exc:
        run.parse_args(["--workload", "tree_lab", "--seed", seed])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
