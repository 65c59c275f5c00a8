import json

import pytest

import pgpu
from pgpu.cli import main


def test_gen_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "tri.csv"
    code = main(["gen", "--dataset", "triangles", "--flip", "inverse:0.2,1.0",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    data = pgpu.load_csv(out)
    assert data.n == 2000
    assert (data.s == -1).sum() > 1000  # negatives plus the flipped positives
    assert "wrote 2000 rows" in capsys.readouterr().out


def test_gen_clean_overlap(tmp_path):
    out = tmp_path / "sq.csv"
    assert main(["gen", "--dataset", "overlap", "--seed", "1", "--out", str(out)]) == 1
    assert main(["gen", "--dataset", "overlap_square", "--seed", "1", "--out", str(out)]) == 0
    data = pgpu.load_csv(out)
    assert data.n == 2000
    assert (data.s == data.y).all()


def test_gen_rejects_bad_flip(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(["gen", "--dataset", "triangles", "--flip", "inverse:0.1", "--out", str(out)])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flip, field", [("inverse:0.1,nan", "beta"), ("inverse:0.1,-2", "beta"),
                                         ("linear:inf", "alpha"), ("constant:nan", "alpha")])
def test_gen_non_finite_or_out_of_range_flip_prints_one_error_line(tmp_path, capsys, flip, field):
    out = tmp_path / "x.csv"
    assert main(["gen", "--dataset", "triangles", "--flip", flip, "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and field in err[0]
    assert not out.exists()


def test_gen_flip_with_an_empty_field_prints_one_error_line(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["gen", "--dataset", "triangles", "--flip", "inverse:0.1,,0.5",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: invalid flip parameters in 'inverse:0.1,,0.5'"]
    assert not out.exists()


def _write_config(tmp_path, **overrides):
    cfg = {
        "dataset_source": "triangles",
        "flip": {"kind": "inverse", "alpha": 0.2, "beta": 1.0},
        "methods": ["svm_naive", "pgpu"],
        "n_splits": 2,
        "master_seed": 5,
        "dataset_n": 160,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_run_and_report(tmp_path, capsys):
    config = _write_config(tmp_path)
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    for name in ("results.csv", "summary.json", "timings.csv"):
        assert (out_dir / name).exists()

    capsys.readouterr()
    assert main(["report", "--in", str(out_dir)]) == 0
    md = capsys.readouterr().out
    assert "| method |" in md and "svm_naive" in md


def test_run_bad_config_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: Expecting property name")

    bad = _write_config(tmp_path, methods=["warp_drive"])
    assert main(["run", "--config", str(bad), "--out-dir", str(tmp_path / "o2")]) == 1


@pytest.mark.parametrize("cause", ["one-class-relabelling", "solver-failure"])
def test_run_every_cell_failing_exits_two(tmp_path, capsys, monkeypatch, cause):
    if cause == "solver-failure":
        monkeypatch.setattr(pgpu.kmm, "_MAX_ITERS", 1)  # no KMM solve converges in one step
        config = _write_config(tmp_path, methods=["pgpu"])
    else:
        config = _write_config(tmp_path, flip={"kind": "constant", "alpha": 0.95},
                               methods=["pgpu"], dataset_n=40, master_seed=1)
    code = main(["run", "--config", str(config), "--out-dir", str(tmp_path / "fail")])
    assert code == 2
    assert "every suite cell failed" in capsys.readouterr().err


def test_run_with_some_failing_cells_exits_zero(tmp_path, capsys):
    # every pgpu cell relabels one class; the svm_naive cells still run
    config = _write_config(tmp_path, flip={"kind": "constant", "alpha": 0.95},
                           methods=["pgpu", "svm_naive"], dataset_n=40, master_seed=1)
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "some")]) == 0
    assert "every suite cell failed" not in capsys.readouterr().err
    rows = json.loads((tmp_path / "some" / "summary.json").read_text())["results"]
    assert [(r["method"], r["n_splits_ok"]) for r in rows] == [("pgpu", 0), ("svm_naive", 2)]
    assert rows[0]["accuracy_mean"] is None and rows[1]["accuracy_mean"] is not None


def test_usage_errors_exit_one(capsys):
    assert main(["gen", "--dataset", "hexagons", "--out", "x.csv"]) == 1
    capsys.readouterr()


def test_missing_report_dir_exits_one(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path / "nope")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("svm", None),
    ("kmm", 3),
    ("n_splits", None),
    ("train_fraction", []),
    ("methods", "pgpu"),
    ("flip", [3]),
    ("flip", {"kind": "inverse"}),
    ("dataset_source", {"csv": 3}),
    ("dataset_source", {"csv": "t.csv", "seed": 3}),
    ("train_fraction", 1.5),
    ("train_fraction", 0),
    ("n_splits", 2.5),
    ("n_splits", 10.0),
    ("n_splits", True),
    ("dataset_n", "100"),
    ("svm", {"C": "1"}),
])
def test_run_malformed_config_prints_one_error_line(tmp_path, capsys, field, value):
    config = _write_config(tmp_path, **{field: value})
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert field in err[0]


@pytest.mark.parametrize("name", [["pgpu"], {"a": 1}])
def test_run_method_name_that_is_not_a_string_prints_one_error_line(tmp_path, capsys, name):
    config = _write_config(tmp_path, methods=[name])
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: unknown method {name!r}; valid: (")


_ROW = {"method": "pgpu", "setting": "none", "accuracy_mean": 0.9, "accuracy_std": 0.0,
        "n_splits_ok": 1}


@pytest.mark.parametrize("text", [
    "[]",
    '{"results": 3}',
    "{}",
    "{not json",
    json.dumps({"results": [{k: v for k, v in _ROW.items() if k != "setting"}]}),
    # a good row first: nothing is printed before the bad one is found
    json.dumps({"results": [_ROW, {**_ROW, "accuracy_mean": "90"}]}),
    json.dumps({"results": [_ROW, 3]}),
    json.dumps({"results": [{**_ROW, "accuracy_mean": 10 ** 400}]}),  # overflows a float
    "[" * 100_000 + "]" * 100_000,  # nested deeper than the JSON decoder recurses
], ids=["list", "results-not-a-list", "no-results", "not-json", "row-without-setting",
        "string-accuracy", "row-not-an-object", "huge-integer-accuracy", "deeply-nested"])
def test_report_on_a_malformed_summary_prints_one_error_line(tmp_path, capsys, text):
    path = tmp_path / "summary.json"
    path.write_text(text, encoding="utf-8")
    assert main(["report", "--in", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {path} is not a summary written by 'pgpu run'\n"


def test_run_infinite_flip_alpha_prints_one_error_line(tmp_path, capsys):
    # JSON parses 1e400 to inf; a flip rate with it would make NaN rates
    config = _write_config(tmp_path, flip={"kind": "linear", "alpha": 0.5})
    text = config.read_text(encoding="utf-8")
    config.write_text(text.replace('"alpha": 0.5', '"alpha": 1e400'), encoding="utf-8")
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "alpha" in err[0]
