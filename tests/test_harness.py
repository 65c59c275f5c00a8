import dataclasses
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pgpu
from pgpu import (
    ExperimentConfig,
    FlipRateSpec,
    PUDataset,
    ResultRecord,
    config_from_dict,
    gen_triangles,
    run_elkan,
    run_pgpu,
    run_suite,
    run_svm_naive,
    split,
    write_results,
)
from pgpu.harness import _pu_data, derive_seed, elkan_weights, evaluate, summarize
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


def test_elkan_needs_an_observed_positive_in_its_calibration_split():
    # seed 0 holds out rows 5, 7, 14, 15, 29, 31, 33, 39, 41 and 49 of 50 to estimate c;
    # the one observed positive, row 0, trains the calibrated fit
    X = np.random.default_rng(0).normal(size=(50, 2))
    s = np.where(np.arange(50) == 0, 1, -1)
    with pytest.raises(ValueError, match="no observed positives in the calibration split"):
        run_elkan(PUDataset(X, s), PUDataset(X, s, s), seed=0)


def test_pgpu_without_noise_tracks_clean_accuracy():
    cfg = ExperimentConfig(dataset_source="triangles", flip=None, methods=("pgpu", "clean"),
                           n_splits=2, master_seed=3, dataset_n=800)
    means = {row["method"]: row["accuracy_mean"] for row in summarize(run_suite(cfg))["results"]}
    assert abs(means["pgpu"] - means["clean"]) <= 0.015


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
    assert [f.name for f in dataclasses.fields(ResultRecord)] == [
        "method", "setting", "split", "accuracy", "error", "seconds"]
    records = run_suite(cfg)
    rows = summarize(records)["results"]
    assert len(records) == 30 and len(rows) == 3
    for method, row in zip(cfg.methods, rows):
        cells = [r for r in records if r.method == method]
        accs = [r.accuracy for r in cells]
        assert [r.split for r in cells] == list(range(10))
        assert all(r.error is None and r.seconds >= 0.0 for r in cells)
        assert row["method"] == method and row["n_splits_ok"] == 10 and row["errors"] == []
        assert row["accuracy_mean"] == pytest.approx(float(np.mean(accs)), abs=1e-12)
        assert row["accuracy_std"] == pytest.approx(float(np.std(accs, ddof=1)), abs=1e-12)
        assert 0.0 <= row["accuracy_mean"] <= 1.0


def test_suite_multiple_settings_make_one_record_each():
    cfg = ExperimentConfig(dataset_source="triangles",
                           flip=(FlipRateSpec("constant", 0.1), FlipRateSpec("constant", 0.2)),
                           methods=("svm_naive", "clean"), n_splits=2, master_seed=7,
                           dataset_n=120)
    records = run_suite(cfg)
    settings = ["constant(0.1)", "constant(0.2)"]
    assert [(r.setting, r.method, r.split) for r in records] == [
        (setting, method, sid) for setting in settings for method in cfg.methods for sid in (0, 1)]
    rows = summarize(records)["results"]
    assert [(row["setting"], row["method"]) for row in rows] == [
        (setting, method) for setting in settings for method in cfg.methods]


def test_suite_records_cell_errors_without_aborting():
    cfg = ExperimentConfig(dataset_source="triangles", flip=FlipRateSpec("constant", 0.95),
                           methods=("pgpu", "svm_naive"), n_splits=2, master_seed=1, dataset_n=40)
    records = run_suite(cfg)
    assert [(r.method, r.accuracy) for r in records[:2]] == [("pgpu", None)] * 2
    assert all(r.error for r in records[:2])
    rows = {row["method"]: row for row in summarize(records)["results"]}
    assert rows["pgpu"]["accuracy_mean"] is None and rows["pgpu"]["accuracy_std"] is None
    assert rows["pgpu"]["n_splits_ok"] == 0 and len(rows["pgpu"]["errors"]) == 2
    assert rows["svm_naive"]["n_splits_ok"] == 2  # unaffected by the pgpu failures


def test_suite_records_a_solver_failure_in_a_cell_instead_of_raising(monkeypatch):
    cfg = ExperimentConfig(dataset_source="triangles", flip=FlipRateSpec("inverse", 0.2, 1.0),
                           methods=("pgpu", "svm_naive"), n_splits=2, master_seed=5, dataset_n=160)
    naive = run_suite(dataclasses.replace(cfg, methods=("svm_naive",)))
    monkeypatch.setattr(pgpu.kmm, "_MAX_ITERS", 1)  # no KMM solve converges in one step
    records = run_suite(cfg)
    assert [(r.method, r.split, r.accuracy) for r in records[:2]] == [("pgpu", 0, None),
                                                                      ("pgpu", 1, None)]
    errors = {row["method"]: row["errors"] for row in summarize(records)["results"]}
    assert len(errors["pgpu"]) == 2
    for sid, err in enumerate(errors["pgpu"]):
        assert err.startswith(f"split {sid}: KMM reached its iteration cap max_iters=1 ")
    assert [(r.accuracy, r.error) for r in records[2:]] == [(r.accuracy, None) for r in naive]
    assert errors["svm_naive"] == []


def test_summary_and_result_files_read_each_group_of_consecutive_cells(tmp_path):
    records = [ResultRecord("pgpu", "none", 0, 0.5, None, 0.25),
               ResultRecord("pgpu", "none", 1, None, "one class", 0.125),
               ResultRecord("elkan", "none", 0, None, "no positives", 0.5),
               ResultRecord("pgpu", "linear(0.5)", 0, 0.75, None, 1.0),
               ResultRecord("pgpu", "linear(0.5)", 1, 0.25, None, 2.0)]
    assert summarize(records)["results"] == [
        {"method": "pgpu", "setting": "none", "accuracy_mean": 0.5, "accuracy_std": 0.0,
         "n_splits_ok": 1, "errors": ["split 1: one class"]},
        {"method": "elkan", "setting": "none", "accuracy_mean": None, "accuracy_std": None,
         "n_splits_ok": 0, "errors": ["split 0: no positives"]},
        {"method": "pgpu", "setting": "linear(0.5)", "accuracy_mean": 0.5,
         "accuracy_std": float(np.std([0.75, 0.25], ddof=1)), "n_splits_ok": 2, "errors": []}]
    write_results(records, tmp_path)
    assert (tmp_path / "results.csv").read_text().splitlines()[1:] == [
        "pgpu,none,0,0.5", "pgpu,linear(0.5),0,0.75", "pgpu,linear(0.5),1,0.25"]
    assert (tmp_path / "timings.csv").read_text().splitlines()[1:] == [
        "pgpu,none,0,0.250000", "pgpu,none,1,0.125000", "elkan,none,0,0.500000",
        "pgpu,linear(0.5),0,1.000000", "pgpu,linear(0.5),1,2.000000"]


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
    (row,) = summarize(run_suite(cfg))["results"]
    assert row["errors"] == []
    assert abs(100.0 * row["accuracy_mean"] - 91.72) <= 4.0


def test_scaled_inverse_sweep_pgpu_beats_naive():
    settings = tuple(FlipRateSpec("inverse", a, b) for a in (0.1, 0.2, 0.3) for b in (0.5, 1.0))
    cfg = ExperimentConfig(dataset_source="triangles", flip=settings,
                           methods=("svm_naive", "pgpu"), n_splits=3, master_seed=6,
                           dataset_n=600)
    by_setting = {}
    for row in summarize(run_suite(cfg))["results"]:
        by_setting.setdefault(row["setting"], {})[row["method"]] = row["accuracy_mean"]
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
    cfg = ExperimentConfig(methods=["pgpu"])
    assert cfg.methods == ("pgpu",)
    # a list is stored as a tuple, so the config equals its JSON form and hashes like it
    read = config_from_dict({"methods": ["pgpu"]})
    assert cfg == read and hash(cfg) == hash(read)


def test_config_stores_plain_ints_floats_and_tuples():
    cfg = ExperimentConfig(flip=[FlipRateSpec("linear", 1)], methods=["pgpu", "elkan"],
                           n_splits=np.int64(2), master_seed=np.uint8(7), dataset_n=np.int32(40))
    assert cfg == ExperimentConfig(flip=(FlipRateSpec("linear", 1.0),), methods=("pgpu", "elkan"),
                                   n_splits=2, master_seed=7, dataset_n=40)
    for field, kind in (("flip", tuple), ("methods", tuple), ("n_splits", int),
                        ("master_seed", int), ("dataset_n", int)):
        assert type(getattr(cfg, field)) is kind, field
    assert type(cfg.flip[0].alpha) is float


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


def test_csv_dataset_source_round_trip(tmp_path):
    data = gen_triangles(40, 40, seed=21)
    path = tmp_path / "tri.csv"
    pgpu.save_csv(data, path)
    cfg = ExperimentConfig(dataset_source={"csv": str(path)}, flip=None,
                           methods=("svm_naive",), n_splits=2, master_seed=0, dataset_n=80)
    records = run_suite(cfg)
    assert [(r.split, r.error) for r in records] == [(0, None), (1, None)]


def test_a_csv_source_is_read_and_its_clean_gap_fitted_once_per_suite(tmp_path, monkeypatch):
    path = tmp_path / "tri.csv"
    pgpu.save_csv(gen_triangles(60, 60, seed=23), path)
    specs = tuple(FlipRateSpec("linear", rate) for rate in (0.2, 0.4, 0.6))
    cfg = ExperimentConfig(dataset_source={"csv": str(path)}, flip=specs,
                           methods=("svm_naive",), n_splits=2, master_seed=4)
    fit, fits = pgpu.harness.estimate_clean_gap, []
    monkeypatch.setattr(pgpu.harness, "estimate_clean_gap", lambda d: fits.append(1) or fit(d))
    records = run_suite(cfg)
    assert len(fits) == 1
    # each setting's data made alone, reading the file and fitting the gap again
    expected = []
    for si, spec in enumerate(specs):
        pu = _pu_data(cfg.dataset_source, cfg.dataset_n, 0, spec, derive_seed(4, "flip", si))
        for split_id in range(2):
            train, test = split(pu, seed=derive_seed(4, "split", si, split_id))
            accuracy = run_svm_naive(train.without_latent(), test)
            expected.append((spec.describe(), split_id, accuracy))
    assert [(r.setting, r.split, r.accuracy) for r in records] == expected
    assert len(fits) == 1 + 3


def test_csv_dataset_without_latent_labels_reports_errors(tmp_path):
    data = gen_triangles(40, 40, seed=22).without_latent()
    path = tmp_path / "pu_only.csv"
    pgpu.save_csv(data, path)
    cfg = ExperimentConfig(dataset_source={"csv": str(path)}, flip=None,
                           methods=("svm_naive", "clean"), n_splits=2, master_seed=0)
    records = run_suite(cfg)
    assert len(records) == 4
    assert all(r.accuracy is None and "latent" in r.error for r in records)
    for row in summarize(records)["results"]:
        assert row["n_splits_ok"] == 0
        assert len(row["errors"]) == 2 and all("latent" in err for err in row["errors"])


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
            accuracies.setdefault((name, r.method), []).append(r.accuracy)
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
    # every suite splits 75/25, as pgpu.split does by default
    ({"train_fraction": 0.75}, "unknown config fields: ['train_fraction']"),
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
    # every decision value on a training split comes from SMO's gradient, and every fit,
    # elkan's on repeated rows included, reads its kernel rows in place, so the only kernel
    # block read is KMM's source block, a view of the matching kernel. At this size every
    # array is on the heap, where tracemalloc sees it: no fit allocates half a block of its
    # examples' kernel
    clean = gen_triangles(80, 80, seed=12)
    train, test = split(clean, 0.75, seed=13)
    solve, descent, smo = pgpu.core.solve_kmm, pgpu.kmm._projected_descent, pgpu.svm.smo_solve
    matching, views, fits = [], [], []

    def solved(kmm_kernel, *args):
        matching.append(kmm_kernel.K)
        return solve(kmm_kernel, *args)

    def viewed(k_ss, *args):
        views.append(np.shares_memory(k_ss, matching[-1]))
        return descent(k_ss, *args)

    def fitted(K, y, *args, **kw):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = smo(K, y, *args, **kw)
        fits.append((y.size, tracemalloc.get_traced_memory()[1] - before < 4 * y.size ** 2))
        return out

    monkeypatch.setattr(pgpu.core, "solve_kmm", solved)
    monkeypatch.setattr(pgpu.kmm, "_projected_descent", viewed)
    monkeypatch.setattr(pgpu.svm, "smo_solve", fitted)
    pgpu.estimate_clean_gap(clean)
    tracemalloc.start()
    try:
        run_pgpu(train.without_latent(), test)
        assert len(views) == 1 and all(views) and fits and all(ok for _, ok in fits)
        run_pgpu(train.without_latent(), test, boundary_mode="cv")
        assert len(views) == len(matching) > 5 and all(views) and all(ok for _, ok in fits)
        del fits[:]
        run_elkan(train.without_latent(), test, seed=1)
    finally:
        tracemalloc.stop()
    assert len(views) == len(matching) and all(ok for _, ok in fits)
    assert fits[-1][0] > train.n  # the final fit lists each unlabelled row twice


@pytest.mark.parametrize("scale, overflows", [(1e160, True), (1e150, False)])
def test_features_whose_kernel_overflows_fail_every_cell_at_the_gram(tmp_path, scale, overflows):
    # finite features whose squared norms overflow pass check_finite; at 1e160 the Gram
    # matrix would hold NaN, which svm_naive and clean would read as -1 predictions
    pu = _pu_data("triangles", 400, 3, FlipRateSpec("linear", 0.6), 4)
    path = tmp_path / "scaled.csv"
    pgpu.save_csv(PUDataset(pu.X * scale, pu.s, pu.y), path)
    methods = ("pgpu", "pgpu_cv", "elkan", "svm_naive", "clean")
    cfg = ExperimentConfig(dataset_source={"csv": str(path)}, flip=None, methods=methods,
                           n_splits=1, master_seed=0)
    records = run_suite(cfg)
    assert [r.method for r in records] == list(methods)
    too_large = [r.error is not None and r.error.startswith("features too large for the rbf "
                                                            "kernel: row ") for r in records]
    assert too_large == [overflows] * len(methods)
    if not overflows:  # the kernel is about the identity: fits run, some calibrations fail
        assert {"svm_naive", "clean"} <= {r.method for r in records if r.error is None}
