import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from conftest import random_dataset, traced
from mccf import evaluation
from mccf.core import (CriteriaRecord, CriteriaTensor, Dataset, RatingRecord,
                       RatingScale, _IndexMap)
from mccf.evaluation import (
    _build_store,
    SIM_NAME_MAP,
    BenchmarkConfig,
    EvalReport,
    McBenchmarkConfig,
    RelevanceSpec,
    bias,
    coverage,
    global_mean_baseline,
    mae,
    precision_recall_f1,
    rmse,
    run_benchmark,
    run_mc_benchmark,
    run_sweep,
)
from mccf.engine import McConfig, NeighborhoodSpec, predict_matrix, products_cells
from mccf.similarity import item_similarity_matrix, store_cells
from mccf.ingest import SplitSpec, split_train_test, write_movielens
from mccf.linalg import cell_factoring_cells
from mccf.synth import SyntheticTensorSpec, generate_tensor

DESK_PAIRS = [(3.0, 2.0), (4.0, 6.0)]


def test_error_metric_desk_values():
    assert mae(DESK_PAIRS) == 1.5
    assert rmse(DESK_PAIRS) == pytest.approx(math.sqrt(2.5), abs=1e-12)
    assert bias(DESK_PAIRS) == -0.5
    assert mae([(4.0, 4.0), (2.0, 2.0)]) == 0.0


def test_a_rank_above_the_training_split_is_an_error():
    # at 30% and seed 0 the training split keeps 5 users and 3 of 5 items;
    # neither harness clamps a rank to it
    records = [RatingRecord(f"u{u}", f"i{i}", float(1 + (2 * u + i) % 5))
               for u in range(6) for i in range(5)]
    scale = RatingScale.one_to_five()
    with pytest.raises(ValueError, match=r"^rank must be an integer in \[1, 4\), got 5$"):
        run_benchmark(records, BenchmarkConfig(
            sim="latent", train_fraction=0.3, seed=0, latent_rank=5), scale)
    mc = [CriteriaRecord(r.user_id, r.item_id, (r.overall,) * 2, r.overall)
          for r in records]
    for ranks, error in (((3, 5, 3), "mode 2 rank must be an integer in [1, 4), got 5"),
                         ((6, 3, 3), "mode 1 rank must be an integer in [1, 6), got 6")):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            run_mc_benchmark(mc, McBenchmarkConfig(
                ranks=ranks, train_fraction=0.3, seed=0), 2, scale)


def test_error_metric_validation():
    for fn in (mae, rmse, bias):
        with pytest.raises(ValueError):
            fn([])
        with pytest.raises(ValueError):
            fn([(1.0, 2.0, 3.0)])
        with pytest.raises(ValueError):
            fn([(float("nan"), 2.0)])


def test_precision_recall_f1_examples():
    rec = {f"i{n}" for n in range(10)}
    good = {"i0", "i1", "i2", "x1", "x2", "x3"}
    assert precision_recall_f1(rec, good) == (0.3, 0.5, 0.375)
    same = {"a", "b"}
    assert precision_recall_f1(same, same) == (1.0, 1.0, 1.0)
    # p=0.5, r=0.25 -> harmonic mean exactly 1/3
    p, r, f1 = precision_recall_f1({"a", "b"}, {"a", "x", "y", "z"})
    assert (p, r) == (0.5, 0.25)
    assert f1 == 1 / 3
    assert precision_recall_f1(set(), {"a"}) == (0.0, 0.0, 0.0)
    assert precision_recall_f1({"a"}, set()) == (0.0, 0.0, 0.0)


def test_coverage_identities():
    pred, cat = coverage(100, 80, [f"i{n}" for n in range(10)],
                         ["i0", "i1", "ghost"])
    assert pred == 0.8
    assert cat == 0.2
    assert coverage(5, 5, ["a"], ["a"]) == (1.0, 1.0)
    with pytest.raises(ValueError):
        coverage(0, 0, ["a"], [])
    with pytest.raises(ValueError):
        coverage(3, 4, ["a"], [])
    # a count is never negative
    for attempted, made in ((3, -1), (-2, -3), (-1, 0)):
        with pytest.raises(ValueError):
            coverage(attempted, made, ["a"], [])


def test_relevance_defaults():
    assert RelevanceSpec.default_for(RatingScale.one_to_five()).threshold == 4.0
    assert RelevanceSpec.default_for(RatingScale.letter_13()).threshold == 9.0
    with pytest.raises(ValueError):
        RelevanceSpec(7.0).check(RatingScale.one_to_five())
    # the threshold is a real, finite number; the scale is checked apart
    for bad in (True, "4", float("nan"), float("inf"), None):
        with pytest.raises(ValueError, match="^relevance threshold must be"):
            RelevanceSpec(bad)
    for good in (4, 4.5, np.float64(3), np.int64(2), 7.0):
        assert RelevanceSpec(good).threshold == good


pair_sets = st.lists(
    st.tuples(st.floats(1.0, 5.0), st.floats(1.0, 5.0)),
    min_size=1, max_size=50,
)


@given(pair_sets)
def test_mae_rmse_bias_inequalities(pairs):
    m, r, b = mae(pairs), rmse(pairs), bias(pairs)
    assert m <= r + 1e-12
    assert abs(b) <= m + 1e-12
    assert r * r == pytest.approx(
        np.mean([(p - t) ** 2 for p, t in pairs]), rel=1e-12)


@given(st.sets(st.integers(0, 30), max_size=15),
       st.sets(st.integers(0, 30), max_size=15))
def test_f1_harmonic_envelope(rec, good):
    p, r, f1 = precision_recall_f1(rec, good)
    assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0
    if p + r > 0:
        assert f1 == pytest.approx(2 * p * r / (p + r), abs=1e-12)
        assert f1 <= 2 * min(p, r) + 1e-12
    if p == r:
        assert f1 == pytest.approx(p, abs=1e-12)


def test_report_text_and_csv():
    report = EvalReport(
        sim="pearson", train_fraction=0.7, seed=3, ranks=None,
        mae=0.8421, bias=-0.01, rmse=1.0805, precision=0.3, recall=0.5,
        f1=0.375, prediction_coverage=0.99, catalog_coverage=0.42,
        pair_count=100, no_prediction_count=1)
    text = report.to_text()
    assert "mae=0.842100" in text
    assert "ranks=-" in text
    assert text.count("\n") == 13
    row = report.to_csv_row()
    assert len(row.split(",")) == len(EvalReport.CSV_FIELDS)
    assert EvalReport.csv_header().startswith("sim,train_fraction")
    mc = EvalReport(
        sim="latent", train_fraction=0.8, seed=3, ranks=(2, 4, 4),
        mae=0.1, bias=0.0, rmse=0.2, precision=1.0, recall=1.0, f1=1.0,
        prediction_coverage=1.0, catalog_coverage=1.0, pair_count=10,
        no_prediction_count=0, criteria_mae=(0.1, 0.2))
    assert "ranks=2,4,4" in mc.to_text()
    assert "criteria_mae=0.100000;0.200000" in mc.to_text()
    assert "2;4;4" in mc.to_csv_row()


def test_benchmark_config_validation():
    with pytest.raises(ValueError):
        BenchmarkConfig(sim="dice", train_fraction=0.7, seed=0)
    with pytest.raises(ValueError):
        BenchmarkConfig(sim="pearson", train_fraction=1.2, seed=0)
    with pytest.raises(ValueError):
        BenchmarkConfig(sim="pearson", train_fraction=0.7, seed=0, top_n=0)
    with pytest.raises(ValueError, match="latent_rank"):
        BenchmarkConfig(sim="latent", train_fraction=0.7, seed=0, latent_rank=0)
    with pytest.raises(ValueError):
        McBenchmarkConfig(ranks=(2, 4), train_fraction=0.7, seed=0)
    # a threshold that is no number fails where the config is made: True
    # would run as 1, marking every held-out rating interesting
    for bad in (True, "4", float("nan")):
        with pytest.raises(ValueError, match="^relevance threshold must be"):
            BenchmarkConfig("pearson", 0.8, 1, relevance_threshold=bad)
        with pytest.raises(ValueError, match="^relevance threshold must be"):
            McBenchmarkConfig(ranks=(2, 2, 2), train_fraction=0.8, seed=1,
                              relevance_threshold=bad)
    # the scale is the run's to check
    assert BenchmarkConfig("pearson", 0.8, 1,
                           relevance_threshold=7.0).relevance_threshold == 7.0
    # a neighborhood that is no NeighborhoodSpec fails where the config is
    # made, not in the run as an AttributeError
    for bad in (30, None, "30", (30,)):
        with pytest.raises(ValueError, match="^neighborhood must be a "
                                             "NeighborhoodSpec, got "):
            BenchmarkConfig("pearson", 0.8, 1, neighborhood=bad)
        with pytest.raises(ValueError, match="^neighborhood must be a "
                                             "NeighborhoodSpec, got "):
            McBenchmarkConfig((2, 2, 2), 0.8, 1, neighborhood=bad)
    spec = NeighborhoodSpec(30)
    assert BenchmarkConfig("pearson", 0.8, 1, neighborhood=spec).neighborhood is spec
    assert McBenchmarkConfig((2, 2, 2), 0.8, 1,
                             neighborhood=spec).engine_config().neighborhood is spec


@pytest.mark.parametrize("build", [
    lambda: McBenchmarkConfig(ranks=(True, 2, 2), train_fraction=0.7, seed=0),
    lambda: McBenchmarkConfig(ranks=(2.5, 2, 2), train_fraction=0.7, seed=0),
    lambda: McBenchmarkConfig(ranks=(2, 2, 2), train_fraction=0.7, seed=0,
                              top_n=True),
    lambda: BenchmarkConfig(sim="pearson", train_fraction=0.7, seed=0, top_n=2.5),
    lambda: BenchmarkConfig(sim="latent", train_fraction=0.7, seed=0,
                            latent_rank=2.5),
    lambda: BenchmarkConfig(sim="pearson", train_fraction=0.7, seed=1.5),
    lambda: BenchmarkConfig(sim="pearson", train_fraction=0.7, seed=-1),
    lambda: SplitSpec(0.7, 1.5),
    lambda: SplitSpec(0.7, True),
    lambda: McConfig(seed=-2),
    lambda: McConfig(seed=2 ** 64),
    lambda: McConfig(seed=np.float64(3)),
], ids=["rank-bool", "rank-float", "mc-top_n-bool", "top_n-float",
        "latent_rank-float", "seed-float", "seed-negative", "split-seed-float",
        "split-seed-bool", "mc-seed-negative", "mc-seed-wide", "mc-seed-float"])
def test_counts_and_seeds_are_integers(build):
    # each count or seed of a public config is an integer in its range,
    # checked where the config is made, not where the value is first used
    with pytest.raises(ValueError):
        build()


def bench_records(seed=60, noise=0.4):
    t = generate_tensor(SyntheticTensorSpec(
        n_users=40, n_items=16, n_groups=4, n_criteria=2,
        noise_std=noise, seed=seed))
    from mccf.core import RatingRecord
    return [RatingRecord(r.user_id, r.item_id, float(round(r.overall)))
            for r in t.iter_records()]


def test_run_benchmark_report_consistency():
    records = bench_records()
    config = BenchmarkConfig(sim="euclidean", train_fraction=0.7, seed=5)
    report = run_benchmark(records, config)
    _, test_recs = split_train_test(records, SplitSpec(0.7, 5))
    assert report.pair_count + report.no_prediction_count == len(test_recs)
    assert report.prediction_coverage == pytest.approx(
        report.pair_count / len(test_recs))
    assert report.mae <= report.rmse
    assert report.sim == "euclidean"
    assert report.ranks is None


def test_run_benchmark_latent_reports_rank():
    report = run_benchmark(
        bench_records(),
        BenchmarkConfig(sim="latent", train_fraction=0.7, seed=5,
                        latent_rank=6))
    assert report.ranks == (6,)


def test_run_benchmark_deterministic():
    records = bench_records(61)
    base = BenchmarkConfig(sim="pearson", train_fraction=0.75, seed=9)
    r1 = run_benchmark(records, base)
    r2 = run_benchmark(records, base)
    assert r1.to_text() == r2.to_text()
    bounded = BenchmarkConfig(sim="pearson", train_fraction=0.75, seed=9,
                              neighborhood=NeighborhoodSpec(max_neighbors=8))
    b1 = run_benchmark(records, bounded)
    b2 = run_benchmark(records, bounded)
    assert b1.to_text() == b2.to_text()


def test_run_benchmark_empty_split_errors():
    records = bench_records(62)[:4]
    with pytest.raises(ValueError, match="training split is empty"):
        run_benchmark(records, BenchmarkConfig(
            sim="pearson", train_fraction=1e-9, seed=1))
    with pytest.raises(ValueError, match="test split is empty"):
        run_benchmark(records, BenchmarkConfig(
            sim="pearson", train_fraction=1 - 1e-9, seed=1))


def test_run_sweep_grid():
    records = bench_records(63)
    reports = run_sweep(records, ("pearson", "tanimoto"), (0.7, 0.8), seed=2)
    assert len(reports) == 4
    assert [(r.sim, r.train_fraction) for r in reports] == [
        ("pearson", 0.7), ("tanimoto", 0.7), ("pearson", 0.8), ("tanimoto", 0.8)]
    # one split and index per fraction gives each measure's own report
    for r in reports:
        alone = run_benchmark(records, BenchmarkConfig(
            sim=r.sim, train_fraction=r.train_fraction, seed=2))
        assert r.to_csv_row() == alone.to_csv_row()


def mc_tensor(seed=64, noise=0.1):
    return generate_tensor(SyntheticTensorSpec(
        n_users=40, n_items=16, n_groups=4, n_criteria=3,
        noise_std=noise, seed=seed))


def test_mc_benchmark_config_sim_picks_the_space():
    def config(**kw):
        return McBenchmarkConfig(ranks=(2, 4, 4), train_fraction=0.8, seed=3,
                                 neighborhood=NeighborhoodSpec(max_neighbors=3),
                                 **kw)

    # rejected at construction, before any split or tensor build
    for kw in (dict(sim="dice"), dict(sim="Pearson"),
               dict(sim_space="reconstructed", sim="latent"),
               dict(sim_space="reconstructed"),
               dict(sim_space="latent", sim="pearson"),
               dict(sim_space="projected", sim="pearson")):
        with pytest.raises(ValueError):
            config(**kw)
    # the engine's own checks, as McConfig makes them
    with pytest.raises(ValueError, match="^pca_option must be a bool"):
        config(pca_option="off")
    assert config().engine_config().sim_kind == "latent_cosine"
    assert config(sim_space="latent").engine_config() == config().engine_config()
    t = mc_tensor()
    latent = run_mc_benchmark(t, config())
    assert latent.sim == "latent"
    assert run_mc_benchmark(t, config(sim_space="latent")) == latent
    # any other measure is the reconstructed space, named in the report
    tanimoto = run_mc_benchmark(t, config(sim="tanimoto"))
    assert tanimoto.sim == "tanimoto"
    assert tanimoto.mae != latent.mae
    assert run_mc_benchmark(
        t, config(sim="tanimoto", sim_space="reconstructed")) == tanimoto


def test_mc_benchmark_config_takes_one_name_per_measure():
    """Similarity-kind names are not measure names: sim takes the
    SIM_NAME_MAP keys only, with BenchmarkConfig's error."""
    for kind, name in (("latent_cosine", "latent"),
                       ("adjusted_cosine", "adjusted-cosine")):
        with pytest.raises(ValueError) as mc_error:
            McBenchmarkConfig(ranks=(2, 4, 4), train_fraction=0.8, seed=3,
                              sim=kind)
        with pytest.raises(ValueError) as plain_error:
            BenchmarkConfig(sim=kind, train_fraction=0.8, seed=3)
        assert str(mc_error.value) == str(plain_error.value)
        config = McBenchmarkConfig(ranks=(2, 4, 4), train_fraction=0.8,
                                   seed=3, sim=name)
        assert config.engine_config().sim_kind == kind


def test_run_mc_benchmark_report():
    t = mc_tensor()
    config = McBenchmarkConfig(ranks=(2, 4, 4), train_fraction=0.8, seed=3,
                               neighborhood=NeighborhoodSpec(max_neighbors=3))
    report = run_mc_benchmark(t, config)
    assert len(report.criteria_mae) == t.k
    assert report.ranks == (2, 4, 4)
    assert report.sim == "latent"
    assert report.pair_count + report.no_prediction_count > 0
    assert report.mae < global_mean_baseline(t, 0.8, 3)
    again = run_mc_benchmark(t, config)
    assert again.to_text() == report.to_text()


def test_run_mc_benchmark_rank_caps():
    t = mc_tensor(65)
    with pytest.raises(ValueError):
        run_mc_benchmark(t, McBenchmarkConfig(
            ranks=(99, 4, 4), train_fraction=0.8, seed=1))


def test_run_mc_benchmark_needs_k_and_scale_for_records():
    t = mc_tensor(66)
    records = list(t.iter_records())
    with pytest.raises(ValueError):
        run_mc_benchmark(records, McBenchmarkConfig(
            ranks=(2, 4, 4), train_fraction=0.8, seed=1))
    report = run_mc_benchmark(records, McBenchmarkConfig(
        ranks=(2, 4, 4), train_fraction=0.8, seed=1,
        neighborhood=NeighborhoodSpec(max_neighbors=3)),
        k=t.k, scale=t.scale)
    assert len(report.criteria_mae) == 3
    for k in (0, -1, True, 1.0, "2"):
        with pytest.raises(ValueError, match="^k must be an integer >= 1"):
            run_mc_benchmark(records, McBenchmarkConfig(
                ranks=(2, 4, 4), train_fraction=0.8, seed=1), k=k, scale=t.scale)


def test_run_mc_benchmark_rejects_a_file_path(tmp_path):
    # a path would be read as MovieLens, whose records have no criteria;
    # the missing file shows the path is rejected before it is read
    config = McBenchmarkConfig(ranks=(2, 4, 4), train_fraction=0.8, seed=1)
    path = tmp_path / "ratings.tsv"
    write_movielens(bench_records(69), path)
    for source in (path, str(path), tmp_path / "missing.tsv"):
        with pytest.raises(ValueError, match="path"):
            run_mc_benchmark(source, config, k=3,
                             scale=RatingScale.one_to_five())


def test_run_mc_benchmark_rejects_records_without_criteria():
    # plain rating records used to fail deep in the tensor build with an
    # AttributeError; they are rejected before the split
    config = McBenchmarkConfig(ranks=(2, 4, 4), train_fraction=0.8, seed=1)
    records = bench_records(69)[:80]
    with pytest.raises(ValueError, match="criteria"):
        run_mc_benchmark(records, config, k=3, scale=RatingScale.one_to_five())


def test_every_source_form_gives_the_same_reports(tmp_path):
    # a MovieLens path, a record list and a tensor all reach the same split
    records = bench_records(67)
    path = tmp_path / "ratings.tsv"
    write_movielens(records, path)
    config = BenchmarkConfig(sim="pearson", train_fraction=0.7, seed=4)
    assert run_benchmark(path, config).to_text() == \
        run_benchmark(str(path), config).to_text() == \
        run_benchmark(records, config).to_text()
    assert [r.to_text() for r in run_sweep(path, ("tanimoto",), (0.7,), 4)] \
        == [r.to_text() for r in run_sweep(records, ("tanimoto",), (0.7,), 4)]
    assert global_mean_baseline(path, 0.7, 4) == \
        global_mean_baseline(records, 0.7, 4)

    t = mc_tensor(68)
    mc_records = list(t.iter_records())
    mc_config = McBenchmarkConfig(ranks=(2, 4, 4), train_fraction=0.8, seed=1)
    assert run_mc_benchmark(t, mc_config).to_text() == run_mc_benchmark(
        mc_records, mc_config, k=t.k, scale=t.scale).to_text()
    assert global_mean_baseline(t, 0.8, 1) == \
        global_mean_baseline(mc_records, 0.8, 1)
    assert run_benchmark(t, config).to_text() == \
        run_benchmark(mc_records, config).to_text()

    # a tensor brings its own scale: 1-5 mapped onto the 13-level ladder
    letter = CriteriaTensor.from_records(
        [CriteriaRecord(r.user_id, r.item_id,
                        tuple(3 * c - 2 for c in r.criteria), 3 * r.overall - 2)
         for r in mc_records], t.k, RatingScale.letter_13())
    assert run_benchmark(letter, config).to_text() == \
        run_benchmark(letter, config, letter.scale).to_text()
    assert [r.to_text() for r in run_sweep(letter, ("tanimoto",), (0.7,), 4)] \
        == [r.to_text() for r in run_sweep(letter, ("tanimoto",), (0.7,), 4,
                                           scale=letter.scale)]


def test_degenerate_tensor_matches_single_criterion_harness():
    records = bench_records(67, noise=0.3)
    from mccf.core import Dataset
    d = Dataset.from_records(records, RatingScale.one_to_five())
    t = oracles.duplicate_overall_tensor(d)
    plain = run_benchmark(records, BenchmarkConfig(
        sim="euclidean", train_fraction=0.8, seed=11))
    mc = run_mc_benchmark(t, McBenchmarkConfig(
        ranks=(d.n_users, d.n_items, 2), train_fraction=0.8, seed=11,
        sim="euclidean"))
    assert mc.pair_count == plain.pair_count
    assert mc.mae == pytest.approx(plain.mae, abs=1e-6)
    assert mc.rmse == pytest.approx(plain.rmse, abs=1e-6)


def decision_of(report):
    return (report.precision, report.recall, report.f1,
            report.prediction_coverage, report.catalog_coverage)


def public_decision(test_recs, train, top_n_ids, made, threshold=None):
    """_decision_metrics over the top-N lists of a public call for every
    test user the training data knows."""
    from mccf.evaluation import _decision_metrics
    if threshold is None:
        threshold = RelevanceSpec.default_for(train.scale).threshold
    interesting = {}
    for r in test_recs:
        if r.overall >= threshold:
            interesting.setdefault(r.user_id, set()).add(r.item_id)
    lists = {uid: top_n_ids(uid) for uid in dict.fromkeys(
        r.user_id for r in test_recs) if train.has_user(uid)}
    return _decision_metrics(lists, interesting, train.item_ids,
                             len(test_recs), made)


def test_harness_predictions_equal_single_pair_calls():
    # both harnesses score each test user once; every error metric must
    # equal the one from a single-pair call per test record, bitwise, and
    # every decision metric the one from the public top-N calls
    from mccf.core import CriteriaTensor, Dataset
    from mccf.engine import (aggregate_overall, build_mc_model,
                             mc_recommend_top_n, predict_criteria,
                             predict_single, recommend_top_n)
    from mccf.evaluation import _matrix_top_n

    records = bench_records(68)
    spec = NeighborhoodSpec(max_neighbors=4)
    report = run_benchmark(records, BenchmarkConfig(
        sim="pearson", train_fraction=0.8, seed=2, neighborhood=spec))
    train_recs, test_recs = split_train_test(records, SplitSpec(0.8, 2))
    train = Dataset.from_records(train_recs, RatingScale.one_to_five())
    sims = item_similarity_matrix(train, "pearson")
    got = [predict_single(r.user_id, r.item_id, train, sims, spec)
           for r in test_recs]
    pairs = [(p.value, r.overall) for p, r in zip(got, test_recs) if p]
    assert report.pair_count == len(pairs)
    assert (report.mae, report.rmse) == (mae(pairs), rmse(pairs))
    assert decision_of(report) == public_decision(
        test_recs, train, lambda uid: [i for i, _ in recommend_top_n(
            train, sims, uid, 10, spec)], len(pairs))

    # unbounded, for every measure: predict_matrix's values and top-N lists
    for sim in SIM_NAME_MAP:
        report = run_benchmark(records, BenchmarkConfig(
            sim=sim, train_fraction=0.8, seed=2))
        pm = predict_matrix(train, _build_store(train, sim, 8, 2))
        pairs = [(pm[train.user_index(r.user_id), train.item_index(r.item_id)],
                  r.overall) for r in test_recs
                 if train.has_user(r.user_id) and train.has_item(r.item_id)]
        pairs = [p for p in pairs if not np.isnan(p[0])]
        assert report.pair_count == len(pairs), sim
        assert (report.mae, report.rmse) == (mae(pairs), rmse(pairs)), sim
        assert decision_of(report) == public_decision(
            test_recs, train, lambda uid: [train.item_id(i) for i in _matrix_top_n(
                pm, train, train.user_index(uid), 10)], len(pairs)), sim

    t = mc_tensor(69)
    config = McBenchmarkConfig(ranks=(2, 4, 4), train_fraction=0.8, seed=3,
                               neighborhood=NeighborhoodSpec(max_neighbors=3))
    report = run_mc_benchmark(t, config)
    train_recs, test_recs = split_train_test(list(t.iter_records()),
                                             SplitSpec(0.8, 3))
    model = build_mc_model(
        CriteriaTensor.from_records(train_recs, t.k, t.scale),
        config.ranks, config.engine_config())
    known = [(predict_criteria(model, r.user_id, r.item_id), r)
             for r in test_recs if model.tensor.has_user(r.user_id)
             and model.tensor.has_item(r.item_id)]
    overall = [(aggregate_overall(model.aggregation, c, t.scale), r.overall)
               for c, r in known]
    assert report.pair_count == len(overall)
    assert report.mae == mae(overall)
    assert report.criteria_mae == tuple(
        mae([(c[j], r.criteria[j]) for c, r in known]) for j in range(t.k))
    assert decision_of(report) == public_decision(
        test_recs, model.tensor, lambda uid: [i for i, _ in mc_recommend_top_n(
            model, uid, 10)], len(overall))


def test_explicit_relevance_threshold():
    # the default given explicitly reproduces the default report; at the
    # scale maximum only the test ratings equal to it are interesting
    from mccf.engine import recommend_top_n
    from mccf.similarity import item_similarity_matrix

    records = bench_records(68)
    spec = NeighborhoodSpec(max_neighbors=4)

    def report(threshold):
        return run_benchmark(records, BenchmarkConfig(
            sim="pearson", train_fraction=0.8, seed=2, neighborhood=spec,
            relevance_threshold=threshold))

    default = report(None)
    assert report(4.0).to_text() == default.to_text()
    top = report(5.0)
    train_recs, test_recs = split_train_test(records, SplitSpec(0.8, 2))
    assert {r.overall for r in test_recs} >= {4.0, 5.0}
    train = Dataset.from_records(train_recs, RatingScale.one_to_five())
    sims = item_similarity_matrix(train, "pearson")
    assert decision_of(top) == public_decision(
        test_recs, train, lambda uid: [i for i, _ in recommend_top_n(
            train, sims, uid, 10, spec)], top.pair_count, threshold=5.0)
    assert (top.precision, top.recall) != (default.precision, default.recall)


def test_report_without_a_predicted_pair():
    # one rating per user: no test user is known to training, so no pair
    # is predicted and the error metrics are NaN
    from mccf.core import RatingRecord
    records = [RatingRecord(f"u{n}", f"i{n % 5}", float(1 + n % 5))
               for n in range(40)]
    report = run_benchmark(records, BenchmarkConfig(
        sim="pearson", train_fraction=0.5, seed=1))
    _, test_recs = split_train_test(records, SplitSpec(0.5, 1))
    assert (report.pair_count, report.no_prediction_count) == (0, len(test_recs))
    assert "mae=nan" in report.to_text().splitlines()


def test_one_kernel_call_per_known_test_user_and_store(monkeypatch):
    """Each test user the training data knows is scored once per store:
    the test pairs and the top-N list come from the same kernel call."""
    import mccf.engine as engine
    from mccf.core import Dataset, RatingRecord
    calls = []
    kernel = engine._neighborhood

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(engine, "_neighborhood", counted)
    # users and items the training side may not know
    records = bench_records(70) + [RatingRecord(f"new{n}", f"i{n}", 4.0)
                                   for n in range(12)]
    records += [RatingRecord(f"u{n}", f"newi{n}", 4.0) for n in range(12)]
    train_recs, test_recs = split_train_test(records, SplitSpec(0.8, 2))
    train = Dataset.from_records(train_recs, RatingScale.one_to_five())
    users = {r.user_id for r in test_recs if train.has_user(r.user_id)}
    assert len(users) < len({r.user_id for r in test_recs})
    run_benchmark(records, BenchmarkConfig(
        sim="pearson", train_fraction=0.8, seed=2,
        neighborhood=NeighborhoodSpec(max_neighbors=4)))
    assert len(calls) == len(users)

    t = mc_tensor(71)
    train_recs, test_recs = split_train_test(list(t.iter_records()),
                                             SplitSpec(0.8, 3))
    train = CriteriaTensor.from_records(train_recs, t.k, t.scale)
    users = {r.user_id for r in test_recs if train.has_user(r.user_id)}
    for sim, stores in (("latent", 1), ("pearson", t.k)):
        calls.clear()
        run_mc_benchmark(t, McBenchmarkConfig(
            ranks=(2, 4, 4), train_fraction=0.8, seed=3, sim=sim,
            neighborhood=NeighborhoodSpec(max_neighbors=3)))
        assert len(calls) == stores * len(users)


def test_latent_store_budget_counts_its_factoring_and_store(monkeypatch):
    # 2,000 users x 500 items, one rating per user: the latent store forms
    # no users x items array, so its factoring from the cells plus its
    # items x items store is all it needs; pearson's build holds the
    # ratings too and is rejected under the same budget
    rng = np.random.default_rng(18)
    n_users, n_items = 2000, 500
    users = np.arange(n_users)
    d = Dataset(_IndexMap([f"u{u}" for u in users]),
                _IndexMap([f"i{i}" for i in range(n_items)]), users,
                users % n_items, rng.integers(1, 6, size=n_users).astype(float),
                RatingScale.one_to_five())
    cells = (cell_factoring_cells((n_users, n_items, 1), n_users, (8, 8, 1))
             + store_cells(d, "latent_cosine"))
    monkeypatch.setattr("mccf.linalg.DENSE_CELL_BUDGET", cells)
    assert _build_store(d, "latent", 8, 1).values.shape == (n_items, n_items)
    with pytest.raises(ValueError, match="budget"):
        _build_store(d, "pearson", 8, 1)

    def factoring(*args, **kwargs):
        raise AssertionError("factoring run before the budget check")

    monkeypatch.setattr("mccf.linalg.DENSE_CELL_BUDGET", cells - 1)
    monkeypatch.setattr("mccf.evaluation.truncated_svd", factoring)
    with pytest.raises(ValueError, match="budget"):
        _build_store(d, "latent", 8, 1)


def test_unbounded_budget_counts_the_weights_and_products(monkeypatch):
    # the harness counts the store's build plus the weights and the
    # products' three users x items arrays before it builds the store;
    # public predict_matrix, whose caller holds the store, counts that
    # store beside its products
    records = bench_records(68)
    config = BenchmarkConfig(sim="pearson", train_fraction=0.8, seed=2)
    train_recs, _ = split_train_test(records, SplitSpec(0.8, 2))
    train = Dataset.from_records(train_recs, RatingScale.one_to_five())
    sims = item_similarity_matrix(train, "pearson")
    products = products_cells(train)
    monkeypatch.setattr("mccf.linalg.DENSE_CELL_BUDGET", products)
    predict_matrix(train, sims)
    monkeypatch.setattr("mccf.linalg.DENSE_CELL_BUDGET", products - 1)
    with pytest.raises(ValueError, match="budget"):
        predict_matrix(train, sims)
    cells = max(store_cells(train, "pearson"), products_cells(train))
    monkeypatch.setattr("mccf.linalg.DENSE_CELL_BUDGET", cells)
    assert run_benchmark(records, config).pair_count

    def store(*args, **kwargs):
        raise AssertionError("store built before the budget check")

    monkeypatch.setattr("mccf.linalg.DENSE_CELL_BUDGET", cells - 1)
    monkeypatch.setattr("mccf.evaluation.item_similarity_matrix", store)
    with pytest.raises(ValueError, match="budget"):
        run_benchmark(records, config)


def test_unbounded_products_hold_one_items_squared_array(monkeypatch):
    # when the products' ratings operand is formed, the store is gone and
    # the weights are the one items x items array left
    n_items = 1000
    records = list(random_dataset(5, n_users=30, n_items=n_items,
                                  fill=0.1).iter_records())
    held = []
    to_dense = Dataset.to_dense

    def recorded(self, *args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        return to_dense(self, *args, **kwargs)

    monkeypatch.setattr(Dataset, "to_dense", recorded)
    traced(lambda: run_benchmark(records, BenchmarkConfig(
        sim="pearson", train_fraction=0.8, seed=1)))
    # a store's build may densify too, but the products' call is the last
    assert held and held[-1] <= 8 * n_items ** 2 + 2 ** 20


def test_unbounded_harness_frees_the_store_before_its_products(monkeypatch):
    # the store is handed to the weights unnamed, so neither it nor its
    # values are alive when the products begin
    build, weighted_means = evaluation._build_store, evaluation._weighted_means
    refs, dead = [], []

    def built(*args):
        store = build(*args)
        refs.extend((weakref.ref(store), weakref.ref(store.values)))
        return store

    def products(*args):
        dead.append([ref() is None for ref in refs])
        return weighted_means(*args)

    monkeypatch.setattr(evaluation, "_build_store", built)
    monkeypatch.setattr(evaluation, "_weighted_means", products)
    run_benchmark(bench_records(), BenchmarkConfig(
        sim="pearson", train_fraction=0.8, seed=2))
    assert dead == [[True, True]]


# ---- the harnesses against the reference protocol ---------------------------


@st.composite
def small_records(draw, k=None):
    """Up to 12 users x 10 items of ratings on 1-5, in whole or half
    steps, with k criteria: two fifths to two thirds of the cells rated,
    some of them more than once."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n_users, n_items = rng.integers(2, 13), rng.integers(2, 11)
    n = rng.integers(n_users * n_items // 2, n_users * n_items + 1)
    step = draw(st.sampled_from([1, 2]))
    users, items = rng.integers(0, n_users, n), rng.integers(0, n_items, n)
    values = rng.integers(step, 5 * step + 1, (n, (k or 0) + 1)) / step
    if k is None:
        return [RatingRecord(f"u{u}", f"i{i}", v[0])
                for u, i, v in zip(users, items, values.tolist())]
    return [CriteriaRecord(f"u{u}", f"i{i}", tuple(v[1:]), v[0])
            for u, i, v in zip(users, items, values.tolist())]


def _split_both_sides(records, seed):
    train, test = oracles.split_train_test(records, SplitSpec(0.7, seed))
    assume(train and test)
    return train


@settings(deadline=None, max_examples=30)
@given(small_records(), st.sampled_from(sorted(SIM_NAME_MAP)),
       st.sampled_from([None, 1, 3, 20]), st.integers(0, 2 ** 64 - 1))
def test_run_benchmark_follows_the_reference_protocol(records, sim, cap, seed):
    """Capped, the kernel is the loop bit for bit, and so is the report.
    Unbounded, predict_matrix's products round otherwise: the errors agree
    to rounding, and the top-N lists are not compared, since a last-bit
    difference reorders items whose predictions tie."""
    train = _split_both_sides(records, seed)
    # a latent rank the training split admits, as in the MC test below
    rank = min(2, len({r.user_id for r in train}),
               len({r.item_id for r in train}))
    config = BenchmarkConfig(sim=sim, train_fraction=0.7, seed=seed, top_n=3,
                             latent_rank=rank, neighborhood=NeighborhoodSpec(cap))
    got = run_benchmark(records, config)
    want = oracles.reference_report(records, config)
    if cap is not None:
        assert repr(got) == repr(want)
        return
    for name in ("mae", "bias", "rmse"):
        assert getattr(got, name) == pytest.approx(
            getattr(want, name), rel=1e-12, abs=1e-12, nan_ok=True), name
    for name in ("pair_count", "no_prediction_count", "prediction_coverage"):
        assert getattr(got, name) == getattr(want, name), name


@settings(deadline=None, max_examples=15)
@given(small_records(k=2),
       st.sampled_from(["latent", "pearson", "adjusted-cosine", "tanimoto"]),
       st.sampled_from([None, 2]), st.booleans(), st.integers(0, 2 ** 64 - 1))
def test_run_mc_benchmark_follows_the_reference_protocol(records, sim, cap,
                                                          pca_option, seed):
    # every MC prediction runs the kernel, capped or not
    scale = RatingScale.one_to_five()
    train = oracles.tensor_from_records(_split_both_sides(records, seed), 2,
                                        scale)
    config = McBenchmarkConfig(
        ranks=(min(2, train.n_users), min(3, train.n_items), 2),
        train_fraction=0.7, seed=seed, pca_option=pca_option, sim=sim,
        top_n=3, neighborhood=NeighborhoodSpec(cap))
    assert repr(run_mc_benchmark(records, config, 2, scale)) == \
        repr(oracles.reference_report(records, config, 2, scale))
