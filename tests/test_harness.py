import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import pgpu
from pgpu import (
    ExperimentConfig,
    FlipRateSpec,
    PUDataset,
    config_from_dict,
    gen_triangles,
    run_elkan,
    run_pgpu,
    run_suite,
    run_svm_naive,
    split,
    write_results,
)
from pgpu.harness import derive_seed, elkan_weights, evaluate
from pgpu.svm import SvmModel


def _constant_model(bias):
    return SvmModel(np.empty((0, 2)), np.empty(0), bias, 0.5)


def test_evaluate_counts_matching_signs():
    X = np.zeros((4, 2))
    always_pos = _constant_model(1.0)
    assert evaluate(always_pos, PUDataset(X, -np.ones(4, int), np.ones(4, int))) == 1.0
    assert evaluate(always_pos, PUDataset(X, -np.ones(4, int), -np.ones(4, int))) == 0.0
    mixed = PUDataset(X, -np.ones(4, int), np.array([1, 1, 1, -1]))
    assert evaluate(always_pos, mixed) == 0.75


def test_evaluate_requires_latent_labels():
    test = PUDataset(np.zeros((3, 2)), -np.ones(3, int))
    with pytest.raises(ValueError, match="latent"):
        evaluate(_constant_model(0.0), test)


def test_derive_seed_is_stable_and_distinct():
    a = derive_seed(0, "split", 0, 1)
    assert a == derive_seed(0, "split", 0, 1)
    assert a != derive_seed(0, "split", 0, 2)
    assert a != derive_seed(1, "split", 0, 1)
    assert 0 <= a < 2**32


def test_elkan_weights_formula():
    assert np.array_equal(elkan_weights(1.0, np.array([0.3, 0.9])), np.zeros(2))
    w = elkan_weights(0.5, np.array([0.2, 0.5, 0.99]))
    assert np.all((w >= 0.0) & (w <= 1.0))
    assert w[0] == pytest.approx(0.25)  # (0.5/0.5) * (0.2/0.8)
    assert w[2] == 1.0  # clamped
    with pytest.raises(ValueError):
        elkan_weights(0.0, np.array([0.5]))


def test_elkan_without_noise_matches_naive():
    clean = gen_triangles(300, 300, seed=8)
    train, test = split(clean, 0.75, seed=2)
    blind = train.without_latent()
    assert run_elkan(blind, test, seed=6) == pytest.approx(run_svm_naive(blind, test))


def test_pgpu_without_noise_tracks_clean_accuracy():
    cfg = ExperimentConfig(dataset_source="triangles", flip=None, methods=("pgpu", "clean"),
                           n_splits=2, master_seed=3, dataset_n=800)
    recs = {r.method: r for r in run_suite(cfg)}
    assert abs(recs["pgpu"].accuracy_mean - recs["clean"].accuracy_mean) <= 0.015


def test_run_pgpu_cv_mode_smoke():
    clean = gen_triangles(60, 60, seed=3)
    gap = pgpu.rank_normalized_gap(pgpu.estimate_clean_gap(clean), clean.y)
    pu = pgpu.flip_labels(clean, gap, FlipRateSpec("constant", 0.2), seed=4)
    train, test = split(pu, 0.75, seed=1)
    acc = run_pgpu(train.without_latent(), test, boundary_mode="cv", cv_seed=5)
    assert 0.0 <= acc <= 1.0
    with pytest.raises(ValueError, match="boundary_mode"):
        run_pgpu(train.without_latent(), test, boundary_mode="nope")


def test_suite_cardinality_and_record_invariants():
    cfg = ExperimentConfig(dataset_source="triangles", flip=FlipRateSpec("inverse", 0.2, 1.0),
                           methods=("svm_naive", "pgpu", "elkan"), n_splits=10,
                           master_seed=5, dataset_n=160)
    records = run_suite(cfg)
    assert len(records) == 3
    for r in records:
        assert len(r.per_split) == 10
        assert not r.errors
        assert r.accuracy_mean == pytest.approx(float(np.mean(r.per_split)), abs=1e-12)
        assert r.accuracy_std == pytest.approx(float(np.std(r.per_split, ddof=1)), abs=1e-12)
        assert 0.0 <= r.accuracy_mean <= 1.0
        assert [sid for sid, _ in r.cell_times] == list(range(10))
        assert all(t >= 0.0 for _, t in r.cell_times)


def test_suite_multiple_settings_make_one_record_each():
    cfg = ExperimentConfig(dataset_source="triangles",
                           flip=(FlipRateSpec("constant", 0.1), FlipRateSpec("constant", 0.2)),
                           methods=("svm_naive",), n_splits=2, master_seed=7, dataset_n=120)
    records = run_suite(cfg)
    assert [r.setting for r in records] == ["constant(0.1)", "constant(0.2)"]


def test_suite_records_cell_errors_without_aborting():
    cfg = ExperimentConfig(dataset_source="triangles", flip=FlipRateSpec("constant", 0.95),
                           methods=("pgpu", "svm_naive"), n_splits=2, master_seed=1, dataset_n=40)
    records = {r.method: r for r in run_suite(cfg)}
    assert len(records["pgpu"].per_split) == 0
    assert math.isnan(records["pgpu"].accuracy_mean)
    assert len(records["pgpu"].errors) == 2
    assert len(records["svm_naive"].per_split) == 2  # unaffected by the pgpu failures


def test_result_files_are_deterministic(tmp_path):
    cfg = ExperimentConfig(dataset_source="triangles", flip=FlipRateSpec("inverse", 0.2, 1.0),
                           methods=("svm_naive", "pgpu", "elkan", "clean"), n_splits=2,
                           master_seed=5, dataset_n=240)
    first = write_results(run_suite(cfg), tmp_path / "a")
    second = write_results(run_suite(cfg), tmp_path / "b")
    for name in ("results.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    header = (tmp_path / "a" / "results.csv").read_text().splitlines()[0]
    assert header == "method,setting,split,accuracy"
    timing_header = (tmp_path / "a" / "timings.csv").read_text().splitlines()[0]
    assert timing_header == "method,setting,split,wall_time_s"
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert {row["method"] for row in summary["results"]} == {"svm_naive", "pgpu", "elkan", "clean"}


def test_elkan_accuracy_near_reference_value():
    cfg = ExperimentConfig(dataset_source="triangles", flip=FlipRateSpec("inverse", 0.1, 0.5),
                           methods=("elkan",), n_splits=10, master_seed=2)
    record = run_suite(cfg)[0]
    assert not record.errors
    assert abs(100.0 * record.accuracy_mean - 91.72) <= 4.0


def test_scaled_inverse_sweep_pgpu_beats_naive():
    settings = tuple(FlipRateSpec("inverse", a, b) for a in (0.1, 0.2, 0.3) for b in (0.5, 1.0))
    cfg = ExperimentConfig(dataset_source="triangles", flip=settings,
                           methods=("svm_naive", "pgpu"), n_splits=3, master_seed=6,
                           dataset_n=600)
    by_setting = {}
    for r in run_suite(cfg):
        by_setting.setdefault(r.setting, {})[r.method] = r.accuracy_mean
    wins = sum(1 for d in by_setting.values() if d["pgpu"] >= d["svm_naive"])
    assert len(by_setting) == 6
    assert wins >= 4


def test_config_json_round_trip():
    cfg = ExperimentConfig(
        dataset_source="overlap_square",
        flip=(FlipRateSpec("inverse", 0.1, 0.5), FlipRateSpec("linear", 0.4)),
        methods=("pgpu", "elkan"),
        n_splits=4,
        master_seed=9,
        dataset_n=400,
        train_fraction=0.8,
    )
    assert config_from_dict(dataclasses.asdict(cfg)) == cfg
    # JSON text survives the trip too
    assert config_from_dict(json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg


def test_config_rejects_unknown_fields_and_methods():
    with pytest.raises(ValueError, match="unknown config fields"):
        config_from_dict({"dataset_source": "triangles", "bogus": 1})
    with pytest.raises(ValueError, match="unknown method"):
        ExperimentConfig(methods=("nearest_neighbour",))
    with pytest.raises(ValueError, match="dataset_source"):
        ExperimentConfig(dataset_source="spiral")
    # unchecked, a float count would stop run_suite outside every cell's error handler,
    # a float seed would run as its integer part, and True as one split
    for field, value in (("n_splits", 1.5), ("dataset_n", 41.5), ("master_seed", 0.5),
                         ("n_splits", True), ("master_seed", False),
                         ("dataset_n", np.float64(400.0))):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            ExperimentConfig(**{field: value})
    cfg = ExperimentConfig(n_splits=np.int64(2), dataset_n=np.int32(40), master_seed=np.uint8(7))
    assert (cfg.n_splits, cfg.dataset_n, cfg.master_seed) == (2, 40, 7)
    # a mistyped or extra key of a csv source would be dropped without a word
    extra_key = r"^dataset_source takes only the key 'csv', got \['{}'\]"
    with pytest.raises(ValueError, match=extra_key.format("seed")):
        config_from_dict({"dataset_source": {"csv": "t.csv", "seed": 3}})
    with pytest.raises(ValueError, match=extra_key.format("cvs")):
        ExperimentConfig(dataset_source={"csv": "t.csv", "cvs": "x"})
    # a string of methods would be read letter by letter, as method 'p'
    with pytest.raises(ValueError, match="^methods must be a sequence of method names, got 'pgpu'"):
        ExperimentConfig(methods="pgpu")
    for value in ("0.5", True):
        with pytest.raises(ValueError, match="^train_fraction must be a real number, got "):
            ExperimentConfig(train_fraction=value)
    cfg = ExperimentConfig(methods=["pgpu"], train_fraction=np.float32(0.5))
    assert cfg.methods == ("pgpu",) and cfg.train_fraction == 0.5
    # a list is stored as a tuple, so the config equals its JSON form and hashes like it
    read = config_from_dict({"methods": ["pgpu"], "train_fraction": 0.5})
    assert cfg == read and hash(cfg) == hash(read)


def test_config_stores_plain_ints_floats_and_tuples():
    cfg = ExperimentConfig(flip=[FlipRateSpec("linear", 1)], methods=["pgpu", "elkan"],
                           n_splits=np.int64(2), master_seed=np.uint8(7), dataset_n=np.int32(40),
                           train_fraction=np.float32(0.5))
    assert cfg == ExperimentConfig(flip=(FlipRateSpec("linear", 1.0),), methods=("pgpu", "elkan"),
                                   n_splits=2, master_seed=7, dataset_n=40, train_fraction=0.5)
    for field, kind in (("flip", tuple), ("methods", tuple), ("n_splits", int),
                        ("master_seed", int), ("dataset_n", int), ("train_fraction", float)):
        assert type(getattr(cfg, field)) is kind, field


@pytest.mark.parametrize("flip, same, raw", [
    (FlipRateSpec("linear", 0.5), (FlipRateSpec("linear", 0.5),), {"kind": "linear", "alpha": 0.5}),
    (None, (), None),
    (None, [], []),
])
def test_flip_forms_that_run_the_same_suite_make_equal_configs(flip, same, raw):
    cfg = ExperimentConfig(flip=flip)
    assert type(cfg.flip) is tuple
    for other in (ExperimentConfig(flip=same), config_from_dict({"flip": raw})):
        assert cfg == other and hash(cfg) == hash(other)


def test_csv_source_config_hashes_and_keeps_its_own_copy():
    source = {"csv": "t.csv"}
    cfg = ExperimentConfig(dataset_source=source, methods=("clean",))
    read = config_from_dict({"dataset_source": {"csv": "t.csv"}, "methods": ["clean"]})
    assert cfg == read and hash(cfg) == hash(read)
    source["csv"] = "other.csv"
    assert cfg.dataset_source == {"csv": "t.csv"} and cfg == read


@pytest.mark.parametrize("flip", [3, 0, {}, "", "linear", [FlipRateSpec("linear", 0.5), 3]])
def test_config_rejects_a_flip_that_is_not_a_setting_or_a_sequence_of_them(flip):
    # unchecked, an int raises TypeError, which the CLI does not catch, and 0, {} and ""
    # run as clean data
    with pytest.raises(ValueError, match="^flip must be a FlipRateSpec, a sequence of them, or None"):
        ExperimentConfig(flip=flip)


@pytest.mark.parametrize("field, value, json_value, repeated", [
    ("methods", ("svm_naive", "pgpu", "svm_naive"), ["svm_naive", "pgpu", "svm_naive"],
     "'svm_naive'"),
    ("flip", (FlipRateSpec("linear", 0.3), FlipRateSpec("constant", 0.1),
              FlipRateSpec("linear", 0.3)),
     [{"kind": "linear", "alpha": 0.3}, {"kind": "constant", "alpha": 0.1},
      {"kind": "linear", "alpha": 0.3}], "'linear(0.3)'"),
])
def test_config_rejects_repeated_methods_and_flip_settings(field, value, json_value, repeated):
    message = f"{field} lists {repeated} more than once"
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(**{field: value})
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_dict({field: json_value})


@pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.25, math.nan, math.inf])
def test_config_rejects_a_train_fraction_outside_the_open_unit_interval(fraction):
    message = "train_fraction must lie in (0, 1)"
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(train_fraction=fraction)
    # Python's json reads NaN and Infinity, so a JSON config can carry either
    raw = json.loads(json.dumps({"train_fraction": fraction}))
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_dict(raw)


def test_csv_dataset_source_round_trip(tmp_path):
    data = gen_triangles(40, 40, seed=21)
    path = tmp_path / "tri.csv"
    pgpu.save_csv(data, path)
    cfg = ExperimentConfig(dataset_source={"csv": str(path)}, flip=None,
                           methods=("svm_naive",), n_splits=2, master_seed=0, dataset_n=80)
    records = run_suite(cfg)
    assert len(records[0].per_split) == 2


def test_csv_dataset_without_latent_labels_reports_errors(tmp_path):
    data = gen_triangles(40, 40, seed=22).without_latent()
    path = tmp_path / "pu_only.csv"
    pgpu.save_csv(data, path)
    cfg = ExperimentConfig(dataset_source={"csv": str(path)}, flip=None,
                           methods=("svm_naive", "clean"), n_splits=2, master_seed=0)
    for record in run_suite(cfg):
        assert len(record.per_split) == 0
        assert len(record.errors) == 2 and all("latent" in err for err in record.errors)


def test_clean_reference_trains_on_the_latent_labels_of_a_csv_source(tmp_path):
    clean = gen_triangles(60, 60, seed=23)
    gap = pgpu.rank_normalized_gap(pgpu.estimate_clean_gap(clean), clean.y)
    pu = pgpu.flip_labels(clean, gap, FlipRateSpec("constant", 0.6), seed=24)
    accuracies = {}
    for name, data in (("clean", clean), ("pu", pu)):
        pgpu.save_csv(data, tmp_path / f"{name}.csv")
        cfg = ExperimentConfig(dataset_source={"csv": str(tmp_path / f"{name}.csv")},
                               methods=("svm_naive", "clean"), n_splits=3, master_seed=4)
        for r in run_suite(cfg):
            accuracies[name, r.method] = r.per_split
    # on the same rows, clean fits what svm_naive fits when every positive is labelled
    assert accuracies["pu", "clean"] == accuracies["clean", "svm_naive"]
    assert accuracies["clean", "clean"] == accuracies["clean", "svm_naive"]
    assert accuracies["pu", "svm_naive"] != accuracies["pu", "clean"]


def _readme_config() -> dict:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1, "README should hold exactly one ```json block, the example config"
    return json.loads(blocks[0])


_INVERSE = {"kind": "inverse", "alpha": 0.1, "beta": 0.5}

CONFIG_CASES = [
    pytest.param(_readme_config(), ExperimentConfig(
        flip=FlipRateSpec("inverse", 0.1, 0.5),
        methods=("svm_naive", "elkan", "pgpu", "pgpu_cv", "clean")), id="readme-example"),
    pytest.param({}, ExperimentConfig(), id="empty"),
    pytest.param({"flip": {"kind": "inverse", "alpha": 1, "beta": 2}},
                 None, id="integers-for-floats"),
    pytest.param({"flip": _INVERSE}, ExperimentConfig(flip=FlipRateSpec("inverse", 0.1, 0.5)),
                 id="single-flip"),
    pytest.param({"flip": [_INVERSE, {"kind": "constant", "alpha": 0.2}]},
                 ExperimentConfig(flip=(FlipRateSpec("inverse", 0.1, 0.5),
                                        FlipRateSpec("constant", 0.2))), id="flip-list"),
    pytest.param({"flip": None}, ExperimentConfig(flip=None), id="no-flip"),
    pytest.param({"dataset_source": {"csv": "data/pu.csv"}, "methods": ["elkan"], "n_splits": 3,
                  "master_seed": 4, "dataset_n": 50},
                 ExperimentConfig(dataset_source={"csv": "data/pu.csv"}, methods=("elkan",),
                                  n_splits=3, master_seed=4, dataset_n=50),
                 id="csv-source"),
]


@pytest.mark.parametrize("raw, expected", CONFIG_CASES)
def test_config_from_dict_table(raw, expected):
    cfg = config_from_dict(raw)
    if expected is None:  # integers-for-floats: every float field holds a float
        expected = ExperimentConfig(flip=FlipRateSpec("inverse", 1.0, 2.0))
        for value in (cfg.flip[0].alpha, cfg.flip[0].beta):
            assert type(value) is float
    assert cfg == expected


def test_readme_example_config_lists_every_field_and_round_trips():
    raw = _readme_config()
    assert json.loads(json.dumps(dataclasses.asdict(config_from_dict(raw)))) == raw


UNKNOWN_FIELD_CASES = [
    ({"dataset_source": "triangles", "bogus": 1, "alpha": 2}, "unknown config fields: ['alpha', 'bogus']"),
    # the SVM and KMM settings are fixed in code, so a config that names them fails
    ({"svm": {"C": 1.0, "kernel": None}}, "unknown config fields: ['svm']"),
    ({"kmm": {"upper_bound_B": 1000.0, "epsilon": None}}, "unknown config fields: ['kmm']"),
    ({"kernel": {"kind": "rbf", "gamma": 0.5}}, "unknown config fields: ['kernel']"),
    ({"kmm_kernel": None, "n_prime": 3}, "unknown config fields: ['kmm_kernel', 'n_prime']"),
    ({"flip": {"kind": "linear", "alpha": 0.2, "rate": 0.1}}, "unknown flip fields: ['rate']"),
    ({"flip": [_INVERSE, {"kind": "constant", "alpha": 0.2, "gap": 1}]},
     "unknown flip fields: ['gap']"),
]


@pytest.mark.parametrize("raw, message", UNKNOWN_FIELD_CASES)
def test_config_from_dict_unknown_field_messages(raw, message):
    with pytest.raises(ValueError) as info:
        config_from_dict(raw)
    assert str(info.value) == message


def test_pipelines_read_decision_values_from_smo_and_copy_no_kernel_block(monkeypatch):
    # every decision value on a training split comes from SMO's gradient, so the only
    # kernel block read is KMM's source block, a view of the matching kernel; only
    # elkan's duplicated rows gather
    clean = gen_triangles(60, 60, seed=12)
    train, test = split(clean, 0.75, seed=13)
    solve, descent, empty = pgpu.core.solve_kmm, pgpu.kmm._projected_descent, pgpu.svm._empty
    matching, views, gathers = [], [], []

    def solved(kmm_kernel, *args):
        matching.append(kmm_kernel.K)
        return solve(kmm_kernel, *args)

    def viewed(k_ss, *args):
        views.append(np.shares_memory(k_ss, matching[-1]))
        return descent(k_ss, *args)

    def counted(rows, cols):
        gathers.append(rows)
        return empty(rows, cols)

    monkeypatch.setattr(pgpu.core, "solve_kmm", solved)
    monkeypatch.setattr(pgpu.kmm, "_projected_descent", viewed)
    monkeypatch.setattr(pgpu.svm, "_empty", counted)
    pgpu.estimate_clean_gap(clean)
    run_pgpu(train.without_latent(), test)
    assert len(views) == 1 and all(views) and not gathers
    run_pgpu(train.without_latent(), test, boundary_mode="cv")
    assert len(views) == len(matching) > 5 and all(views) and not gathers
    run_elkan(train.without_latent(), test, seed=1)
    assert len(views) == len(matching) and all(views) and len(gathers) == 1
