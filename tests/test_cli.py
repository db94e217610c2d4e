import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from mccf.cli import _check_flags, build_parser, main
from mccf.core import (CriteriaTensor, Dataset, ParseError, RatingRecord,
                       RatingScale)
from mccf.engine import McConfig, mc_build_cells
from mccf.evaluation import (BenchmarkConfig, McBenchmarkConfig, run_benchmark,
                             run_mc_benchmark)
from mccf.ingest import (DensityFilterSpec, SplitSpec, density_filter,
                         parse_movielens, parse_multicriteria, split_train_test,
                         write_movielens, write_multicriteria)
from mccf.synth import SyntheticTensorSpec, generate_tensor

VERBS = ("stats", "filter", "split", "decompose", "evaluate", "sweep",
         "recommend", "mc-evaluate")

# every documented flag, per verb (common input flags listed once)
COMMON_FLAGS = {"--input", "--format", "--criteria", "--scale",
                "--min-user", "--min-item"}
VERB_FLAGS = {
    "stats": set(),
    "filter": {"--output"},
    "split": {"--train-fraction", "--seed", "--output"},
    "decompose": {"--ranks", "--pca-option", "--seed", "--output"},
    "evaluate": {"--sim", "--train-fraction", "--seed", "--top-n",
                 "--relevance-threshold", "--ranks", "--output"},
    "sweep": {"--sims", "--fractions", "--seed", "--top-n",
              "--relevance-threshold", "--output"},
    "recommend": {"--user", "--sim", "--seed", "--top-n", "--ranks",
                  "--pca-option", "--output"},
    "mc-evaluate": {"--ranks", "--train-fraction", "--seed", "--pca-option",
                    "--sim", "--top-n", "--relevance-threshold", "--output"},
}


def test_parser_covers_documented_flags():
    parser = build_parser()
    assert set(parser.verb_parsers) == set(VERBS)
    for verb, sub in parser.verb_parsers.items():
        flags = {opt for action in sub._actions for opt in action.option_strings}
        # exactly the documented flags: none missing, none left over
        assert flags == COMMON_FLAGS | VERB_FLAGS[verb] | {"-h", "--help"}, verb


def _readme_cli_lines() -> list[str]:
    """The `mccf ...` lines of README's CLI code block, with lines continued
    by a backslash joined and trailing comments dropped."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```text", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [line.split("#", 1)[0] for line in joined.splitlines()
            if line.startswith("mccf ")]


def test_readme_cli_examples_pass_the_flag_check():
    # parsing and the flag check read no input, so the documented examples
    # need no files
    lines = _readme_cli_lines()
    assert {shlex.split(line)[1] for line in lines} == set(VERBS)
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        _check_flags(args)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    t = generate_tensor(SyntheticTensorSpec(
        n_users=30, n_items=14, n_groups=3, n_criteria=3,
        noise_std=0.3, seed=8))
    recs = list(t.iter_records())
    ml = [RatingRecord(r.user_id, r.item_id,
                       float(np.clip(round(r.overall), 1, 5)), None)
          for r in recs]
    # thin out the matrix so users have unrated items to recommend
    ml_sparse = [r for n, r in enumerate(ml) if n % 5]
    mc_sparse = [r for n, r in enumerate(recs) if n % 5]
    write_movielens(ml_sparse, root / "ratings.tsv")
    write_multicriteria(mc_sparse, root / "mc.csv")
    return root


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_stats_first_line(data_dir, capsys):
    code, out, _ = run(["stats", "--input", str(data_dir / "ratings.tsv")],
                       capsys)
    assert code == 0
    first = out.splitlines()[0]
    assert re.fullmatch(r"users=\d+ items=\d+ ratings=\d+", first)
    assert first == "users=30 items=14 ratings=336"


def test_stats_mc(data_dir, capsys):
    code, out, _ = run(["stats", "--input", str(data_dir / "mc.csv"),
                        "--format", "mc-csv", "--criteria", "3"], capsys)
    assert code == 0
    assert "criteria=3" in out


def test_stats_prints_duplicates(data_dir, tmp_path, capsys):
    for name, flags in (("ratings.tsv", []),
                        ("mc.csv", ["--format", "mc-csv", "--criteria", "3"])):
        src = data_dir / name
        code, out, _ = run(["stats", "--input", str(src), *flags], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "duplicates=0"
        # the first rating again, later in the file
        lines = src.read_text().splitlines()
        doubled = tmp_path / name
        doubled.write_text("\n".join([*lines, lines[0]]) + "\n")
        code, out, _ = run(["stats", "--input", str(doubled), *flags], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "duplicates=1"


def test_filter_writes_output(data_dir, tmp_path, capsys):
    out_path = tmp_path / "filtered.tsv"
    code, out, _ = run(["filter", "--input", str(data_dir / "ratings.tsv"),
                        "--min-user", "5", "--min-item", "5",
                        "--output", str(out_path)], capsys)
    assert code == 0
    assert out_path.exists()
    kept = int(re.search(r"kept=(\d+)", out).group(1))
    assert len(parse_movielens(out_path)) == kept


def test_split_partitions_file(data_dir, tmp_path, capsys):
    ratings = str(data_dir / "ratings.tsv")
    kept = tmp_path / "kept.tsv"
    run(["filter", "--input", ratings, "--min-user", "12",
         "--output", str(kept)], capsys)
    # split honours the density filter: it partitions the filtered ratings
    for flags, total in (([], 336), (["--min-user", "12"], 72)):
        prefix = tmp_path / "part"
        code, out, _ = run(["split", "--input", ratings, *flags,
                            "--train-fraction", "0.8", "--seed", "3",
                            "--output", str(prefix)], capsys)
        assert code == 0
        train = parse_movielens(str(prefix) + ".train")
        test = parse_movielens(str(prefix) + ".test")
        assert out == f"train={len(train)} test={len(test)}\n"
        assert len(train) + len(test) == total
        assert len(train) > len(test)
    assert set(train + test) == set(parse_movielens(kept))


def test_decompose_all_modes(data_dir, tmp_path, capsys):
    ratings = str(data_dir / "ratings.tsv")
    cases = (
        (["--input", ratings, "--ranks", "4"], "svd",
         {"sigma": (4,), "u": (30, 4), "v": (14, 4)}),
        (["--input", ratings, "--pca-option", "on", "--ranks", "4"], "pca",
         {"mean": (14,), "eigenvalues": (4,), "components": (14, 4)}),
        (["--input", str(data_dir / "mc.csv"), "--format", "mc-csv",
          "--criteria", "3", "--ranks", "2,3,3"], "hosvd",
         {"core": (2, 3, 3), "factor1": (30, 2), "factor2": (14, 3),
          "factor3": (4, 3)}),
    )
    for flags, kind, shapes in cases:
        out = tmp_path / f"{kind}.txt"
        code, _, _ = run(["decompose", *flags, "--seed", "1",
                          "--output", str(out)], capsys)
        assert code == 0
        # written under the given name, not with ".npz" appended
        with np.load(out, allow_pickle=False) as z:
            assert str(z["decomposition"]) == kind
            assert set(z.files) == {"decomposition", "ranks", *shapes}
            assert z["ranks"].tolist() == [int(r) for r in flags[-1].split(",")]
            assert {key: z[key].shape for key in shapes} == shapes


def test_decompose_rank_above_matrix_dims_is_a_usage_error(data_dir, tmp_path,
                                                           monkeypatch, capsys):
    # ratings.tsv is 30 users x 14 items, mc.csv 30 x 14 x 4 slices; a rank
    # is rejected before the PCA's dense fill or any CellTensor is formed
    def fill(*args, **kwargs):
        raise AssertionError("matrix filled before the rank check")

    monkeypatch.setattr(Dataset, "to_dense", fill)
    monkeypatch.setattr(CriteriaTensor, "to_dense", fill)
    monkeypatch.setattr("mccf.cli.CellTensor", fill)
    monkeypatch.setattr("mccf.engine.CellTensor", fill)
    out = tmp_path / "out.npz"
    for pca_flag in ([], ["--pca-option", "on"]):
        code, _, err = run(["decompose", "--input", str(data_dir / "ratings.tsv"),
                            "--ranks", "15", *pca_flag, "--seed", "1",
                            "--output", str(out)], capsys)
        assert code == 1, err
        assert "rank 15 exceeds matrix dimensions (30, 14)" in err
        assert not out.exists()
    mc = ["--input", str(data_dir / "mc.csv"), "--format", "mc-csv",
          "--criteria", "3", "--seed", "1"]
    for verb in (["decompose", "--output", str(out)],
                 ["recommend", "--user", "u1"],
                 ["mc-evaluate", "--train-fraction", "0.8"]):
        for ranks in ("31,2,2", "2,15,2", "2,2,5"):
            code, _, err = run(verb[:1] + mc + verb[1:] + ["--ranks", ranks],
                               capsys)
            assert code == 1, (verb, err)
            assert f"rank {ranks} exceeds tensor dimensions (30, 14, 4)" in err
    assert not out.exists()


def test_evaluate_prints_report(data_dir, capsys):
    args = ["evaluate", "--input", str(data_dir / "ratings.tsv"),
            "--sim", "euclidean", "--train-fraction", "0.8", "--seed", "7"]
    code, out, _ = run(args, capsys)
    assert code == 0
    assert "mae=" in out and "sim=euclidean" in out
    code2, out2, _ = run(args, capsys)
    assert out2 == out        # bitwise-stable report
    # the default relevance threshold, given explicitly
    code3, out3, _ = run(args + ["--relevance-threshold", "4"], capsys)
    assert (code3, out3) == (0, out)


def test_output_flag_writes_what_stdout_shows(data_dir, tmp_path, capsys):
    ratings = str(data_dir / "ratings.tsv")
    mc = ["--input", str(data_dir / "mc.csv"), "--format", "mc-csv",
          "--criteria", "3"]
    # u1 has rated every item, so it has nothing to recommend
    full = tmp_path / "full.tsv"
    full.write_text("u1\ti1\t4\t0\nu1\ti2\t3\t0\nu2\ti1\t5\t0\n")
    for n, verb in enumerate((
            ["evaluate", "--input", ratings, "--sim", "euclidean", "--seed", "7"],
            ["sweep", "--input", ratings, "--seed", "7", "--fractions", "0.8",
             "--sims", "tanimoto"],
            ["mc-evaluate", *mc, "--ranks", "2,3,3", "--seed", "7"],
            ["recommend", "--input", ratings, "--user", "u3", "--sim",
             "euclidean", "--seed", "1", "--top-n", "3"],
            ["recommend", "--input", str(full), "--user", "u1", "--sim",
             "euclidean", "--seed", "1"])):
        path = tmp_path / f"out{n}"
        code, out, _ = run([*verb, "--output", str(path)], capsys)
        assert code == 0
        assert path.read_text() == out, verb[0]
    assert out == ""


def test_sweep_csv_shape(data_dir, capsys):
    code, out, _ = run(["sweep", "--input", str(data_dir / "ratings.tsv"),
                        "--seed", "7", "--fractions", "0.7,0.8",
                        "--sims", "pearson,tanimoto"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("sim,train_fraction")
    assert len(lines) == 1 + 4


def test_recommend_plain(data_dir, capsys):
    code, out, _ = run(["recommend", "--input", str(data_dir / "ratings.tsv"),
                        "--user", "u3", "--sim", "euclidean", "--seed", "1",
                        "--top-n", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert 1 <= len(lines) <= 3
    assert all(re.fullmatch(r"\d+ \S+ \d\.\d{4}", ln) for ln in lines)


def test_recommend_mc(data_dir, capsys):
    code, out, _ = run(["recommend", "--input", str(data_dir / "mc.csv"),
                        "--format", "mc-csv", "--criteria", "3",
                        "--user", "u3", "--ranks", "2,3,3", "--seed", "1",
                        "--top-n", "3"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) >= 1


def test_mc_evaluate_report(data_dir, capsys):
    code, out, _ = run(["mc-evaluate", "--input", str(data_dir / "mc.csv"),
                        "--format", "mc-csv", "--criteria", "3",
                        "--ranks", "2,3,3", "--train-fraction", "0.8",
                        "--seed", "7"], capsys)
    assert code == 0
    assert "criteria_mae=" in out
    assert "ranks=2,3,3" in out


def test_mc_sim_selects_the_similarity_space(data_dir, capsys):
    mc = ["--input", str(data_dir / "mc.csv"), "--format", "mc-csv",
          "--criteria", "3", "--ranks", "2,3,3", "--seed", "7"]
    outputs = {}
    for sim in (None, "latent", "pearson"):
        flag = [] if sim is None else ["--sim", sim]
        code, report, _ = run(["mc-evaluate", *mc, *flag], capsys)
        assert code == 0
        code, top, _ = run(["recommend", *mc, *flag, "--user", "u3",
                            "--top-n", "3"], capsys)
        assert code == 0
        outputs[sim] = report, top
    # the default is the latent space; any other measure is taken on the
    # reconstructed slices and changes both the report and the ranking
    assert outputs[None] == outputs["latent"]
    assert "sim=latent" in outputs["latent"][0]
    assert "sim=pearson" in outputs["pearson"][0]
    for latent, pearson in zip(outputs["latent"], outputs["pearson"]):
        assert latent != pearson


@pytest.fixture(scope="module")
def repeat_inputs(data_dir):
    """{format: (path, flags, scale, malformed line)} for MovieLens, numeric
    mc-csv and letter13 mc-csv files whose last line rates the first
    line's (user, item) again, with another value."""
    ml = (data_dir / "ratings.tsv").read_text().splitlines()
    user, item, rating, _ = ml[0].split("\t")
    ml.append(f"{user}\t{item}\t{6 - float(rating):g}\t9")
    mc = (data_dir / "mc.csv").read_text().splitlines()
    mc.append(mc[0].rsplit(",", 1)[0] + ",1")
    # whole ratings 1-5 as the odd letter grades F, D, C-, C+ and B, some
    # written as labels and some as numbers, under a header
    labels = RatingScale.letter_13().grade_labels
    letters = ["# user,item,c1,c2,c3,overall"]
    for n, line in enumerate(mc):
        fields = line.split(",")
        grades = [2 * round(float(v)) - 1 for v in fields[2:]]
        letters.append(",".join(fields[:2] + [
            labels[g - 1] if (n + c) % 3 else str(g)
            for c, g in enumerate(grades)]))
    mc_flags = ["--format", "mc-csv", "--criteria", "3"]
    files = {"movielens": (ml, [], RatingScale.one_to_five(), "u1\ti1\tfive\t0"),
             "mc-csv": (mc, mc_flags, RatingScale.one_to_five(), "u1,i1,3,3,3"),
             "letter13": (letters, mc_flags + ["--scale", "letter13"],
                          RatingScale.letter_13(), "u1,i1,B,Q,B,B")}
    out = {}
    for name, (lines, flags, scale, bad) in files.items():
        path = data_dir / f"repeat-{name}"
        path.write_text("\n".join(lines) + "\n")
        out[name] = (path, flags, scale, bad)
    return out


def _parse_as(fmt, path, scale):
    if fmt == "movielens":
        return parse_movielens(path)
    return parse_multicriteria(path, 3, scale)


@pytest.mark.parametrize("filtered", [False, True])
@pytest.mark.parametrize("fmt", ["movielens", "mc-csv", "letter13"])
def test_cli_batch_route_matches_the_record_api(repeat_inputs, fmt, filtered,
                                                tmp_path, capsys):
    path, flags, scale, bad = repeat_inputs[fmt]
    density = ["--min-user", "12", "--min-item", "6"] if filtered else []
    common = ["--input", str(path), *flags, *density]
    write = write_movielens if fmt == "movielens" else write_multicriteria
    records = _parse_as(fmt, path, scale)
    assert len({(r.user_id, r.item_id) for r in records}) < len(records)
    kept = density_filter(records, DensityFilterSpec(12, 6) if filtered
                          else DensityFilterSpec(0, 0))
    assert 0 < len(kept) < len(records) if filtered else kept == records

    code, out, _ = run(["filter", *common, "--output", str(tmp_path / "f")],
                       capsys)
    write(kept, tmp_path / "expect")
    assert (code, out) == (0, f"kept={len(kept)} dropped={len(records) - len(kept)}\n")
    assert (tmp_path / "f").read_bytes() == (tmp_path / "expect").read_bytes()

    code, out, _ = run(["split", *common, "--train-fraction", "0.7",
                        "--seed", "3", "--output", str(tmp_path / "s")], capsys)
    parts = split_train_test(kept, SplitSpec(0.7, 3))
    assert (code, out) == (0, f"train={len(parts[0])} test={len(parts[1])}\n")
    for part, suffix in zip(parts, (".train", ".test")):
        write(part, tmp_path / "expect")
        assert (tmp_path / ("s" + suffix)).read_bytes() == \
            (tmp_path / "expect").read_bytes()

    # a tensor contributes its overall ratings to evaluate
    source = kept if fmt == "movielens" else \
        CriteriaTensor.from_records(kept, 3, scale)
    report = run_benchmark(source, BenchmarkConfig("pearson", 0.7, 3), scale)
    code, out, _ = run(["evaluate", *common, "--sim", "pearson", "--seed", "3"],
                       capsys)
    assert (code, out) == (0, report.to_text() + "\n")
    if fmt != "movielens":
        report = run_mc_benchmark(source, McBenchmarkConfig((2, 3, 3), 0.7, 3))
        code, out, _ = run(["mc-evaluate", *common, "--ranks", "2,3,3",
                            "--seed", "3"], capsys)
        assert (code, out) == (0, report.to_text() + "\n")

    # a malformed line fails as the parser fails, whatever the verb
    lines = path.read_text().splitlines()
    lines.insert(7, bad)
    path = tmp_path / "bad"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as exc:
        _parse_as(fmt, path, scale)
    assert exc.value.line_no == 8
    common[1] = str(path)
    for verb in (["stats"], ["filter", "--output", str(tmp_path / "f")],
                 ["evaluate", "--sim", "pearson", "--seed", "3"]):
        code, out, err = run(verb[:1] + common + verb[1:], capsys)
        assert (code, out, err) == (2, "", f"error: {exc.value}\n")


def test_compute_verbs_build_no_record(data_dir, tmp_path, monkeypatch,
                                       capsys):
    def record(*args, **kwargs):
        raise AssertionError("record built")

    monkeypatch.setattr("mccf.core.RatingRecord", record)
    monkeypatch.setattr("mccf.core.CriteriaRecord", record)
    # the patch reaches the records the parsers build
    with pytest.raises(AssertionError):
        parse_movielens(data_dir / "ratings.tsv")
    out = str(tmp_path / "factors.npz")
    ml = ["--input", str(data_dir / "ratings.tsv"), "--min-user", "2"]
    mc = ["--input", str(data_dir / "mc.csv"), "--format", "mc-csv",
          "--criteria", "3", "--min-user", "2"]
    for data, ranks in ((ml, "2"), (mc, "2,3,3")):
        verbs = [["stats"],
                 ["decompose", "--ranks", ranks, "--seed", "1", "--output", out],
                 ["evaluate", "--sim", "pearson", "--seed", "1"],
                 ["sweep", "--sims", "pearson,latent", "--seed", "1"],
                 ["recommend", "--user", "u3", "--seed", "1"]
                 + (["--ranks", ranks] if data is mc else [])]
        if data is mc:
            verbs.append(["mc-evaluate", "--ranks", ranks, "--seed", "1"])
        for verb in verbs:
            code, _, err = run(verb[:1] + data + verb[1:], capsys)
            assert code == 0, (verb, err)


def test_over_budget_tensor_exits_before_dense_copy(tmp_path, monkeypatch,
                                                    capsys):
    # 15,000 users x 15,000 items x 2 slices: the MC build's items x items
    # store is above the budget, and so is decompose's sketch at a mode-1
    # rank of 15,000 (factoring from the cells, it holds no dense tensor).
    # A 90% split's latent store, 1.8e8 cells, fits; its reconstructed-space
    # store build also holds the users x items ratings, which do not
    path = tmp_path / "diagonal.csv"
    path.write_text("".join(f"u{x},i{x},3,3\n" for x in range(15_000)))

    def dense_copy(*args, **kwargs):
        raise AssertionError("dense copy made before the budget check")

    monkeypatch.setattr(CriteriaTensor, "to_dense", dense_copy)
    monkeypatch.setattr(CriteriaTensor, "to_mask", dense_copy)
    common = ["--input", str(path), "--format", "mc-csv", "--criteria", "1",
              "--seed", "1"]
    for verb in (["decompose", "--ranks", "15000,2,2", "--output",
                  str(tmp_path / "out.npz")],
                 ["recommend", "--ranks", "2,2,2", "--user", "u0"],
                 ["mc-evaluate", "--ranks", "2,2,2", "--train-fraction", "0.99"],
                 ["mc-evaluate", "--ranks", "2,2,2", "--train-fraction", "0.9",
                  "--sim", "pearson"]):
        code, _, err = run(verb[:1] + common + verb[1:], capsys)
        assert code == 2 and "budget" in err, (verb, err)


def test_budget_counts_every_copy_of_the_mc_build(data_dir, monkeypatch,
                                                  capsys):
    # the build on all of mc.csv runs at its footprint and exits 2 at one
    # cell fewer, before the factoring or any dense copy
    t = CriteriaTensor.from_records(parse_multicriteria(
        data_dir / "mc.csv", 3, RatingScale.one_to_five()), 3,
        RatingScale.one_to_five())
    ranks = (2, 3, 3)
    cells = mc_build_cells(t, ranks, McConfig())
    args = ["recommend", "--input", str(data_dir / "mc.csv"), "--format",
            "mc-csv", "--criteria", "3", "--ranks", "2,3,3", "--user",
            t.user_ids[0], "--seed", "1"]
    monkeypatch.setattr("mccf.linalg.DENSE_CELL_BUDGET", cells)
    code, _, err = run(args, capsys)
    assert code == 0, err
    monkeypatch.setattr("mccf.linalg.DENSE_CELL_BUDGET", cells - 1)

    def allocation(*args, **kwargs):
        raise AssertionError("allocation made before the budget check")

    monkeypatch.setattr(CriteriaTensor, "to_dense", allocation)
    monkeypatch.setattr(CriteriaTensor, "to_mask", allocation)
    monkeypatch.setattr("mccf.engine.hosvd", allocation)
    code, _, err = run(args, capsys)
    assert code == 2 and "budget" in err, err


def test_over_budget_ratings_exit_before_dense_copy(tmp_path, monkeypatch,
                                                    capsys):
    # 15,000 users x 15,000 items: even the 70% training split's ratings
    # plus its item x item store are above the dense cell budget, and so
    # is the PCA's filled matrix; the SVD factors the matrix from its cells
    # and is over budget only at a rank of 15,000
    path = tmp_path / "diagonal.data"
    path.write_text("".join(f"u{x}\ti{x}\t3\t0\n" for x in range(15_000)))

    def dense_copy(*args, **kwargs):
        raise AssertionError("dense copy made before the budget check")

    def factoring(*args, **kwargs):
        raise AssertionError("latent factoring run before the budget check")

    monkeypatch.setattr(Dataset, "to_dense", dense_copy)
    monkeypatch.setattr(Dataset, "to_mask", dense_copy)
    monkeypatch.setattr("mccf.evaluation.truncated_svd", factoring)
    out = tmp_path / "out.npz"
    common = ["--input", str(path), "--seed", "1"]
    for verb in (["evaluate", "--sim", "pearson"],
                 ["recommend", "--user", "u0"],
                 ["recommend", "--user", "u0", "--sim", "latent"],
                 ["decompose", "--ranks", "2", "--pca-option", "on",
                  "--output", str(out)],
                 ["decompose", "--ranks", "15000", "--output", str(out)]):
        code, _, err = run(verb[:1] + common + verb[1:], capsys)
        assert code == 2 and "budget" in err, (verb, err)
    assert not out.exists()
    # at rank 2 the SVD of the same matrix runs, from its 15,000 cells
    code, _, err = run(["decompose"] + common + ["--ranks", "2", "--output",
                                                 str(out)], capsys)
    assert code == 0 and out.exists(), err


def test_empty_input_says_it_has_no_ratings(tmp_path, capsys):
    # no train fraction can help, so the message names the input
    empty_tsv, empty_csv = tmp_path / "empty.data", tmp_path / "empty.csv"
    empty_tsv.write_text("")
    empty_csv.write_text("")
    for verb in (["evaluate", "--input", str(empty_tsv), "--sim", "pearson"],
                 ["mc-evaluate", "--input", str(empty_csv), "--format",
                  "mc-csv", "--criteria", "2", "--ranks", "2,2,2"]):
        code, _, err = run(verb + ["--seed", "1"], capsys)
        assert (code, err) == (2, "error: input has no ratings\n"), verb
    # the SVD factors a one-slice CellTensor; it says matrix, as the PCA does
    for pca in ("off", "on"):
        code, _, err = run(["decompose", "--input", str(empty_tsv), "--ranks",
                            "1", "--pca-option", pca, "--seed", "1",
                            "--output", str(tmp_path / "d.npz")], capsys)
        assert (code, err) == (2, "error: matrix has no observed cells\n"), pca


def test_exit_codes(data_dir, tmp_path, capsys):
    ratings = str(data_dir / "ratings.tsv")
    # usage errors -> 1
    assert main(["evaluate", "--input", ratings, "--sim", "pearson"]) == 1
    assert main(["evaluate", "--input", ratings, "--sim", "dice",
                 "--seed", "1"]) == 1
    assert main(["split", "--input", ratings, "--train-fraction", "1.5",
                 "--seed", "1", "--output", str(tmp_path / "x")]) == 1
    assert main(["evaluate", "--input", str(data_dir / "mc.csv"),
                 "--format", "mc-csv", "--sim", "pearson", "--seed", "1"]) == 1
    assert main(["mc-evaluate", "--input", ratings, "--ranks", "2,3,3",
                 "--seed", "1"]) == 1
    assert main(["recommend", "--input", ratings, "--user", "u1",
                 "--sim", "latent", "--ranks", "2,3,4", "--seed", "1"]) == 1
    # flags are checked before the data, so a bad flag is a usage error
    # even for a user the data does not know
    assert main(["recommend", "--input", ratings, "--user", "nobody",
                 "--sim", "latent", "--ranks", "2,3", "--seed", "1"]) == 1
    assert main(["recommend", "--input", str(data_dir / "mc.csv"),
                 "--format", "mc-csv", "--criteria", "2", "--ranks", "2",
                 "--user", "nobody", "--seed", "1"]) == 1
    # every flag check runs before the input is read: with a missing input
    # file, a check made after reading would exit 2
    missing = ["--input", str(tmp_path / "missing.tsv")]
    missing_mc = ["--input", str(tmp_path / "missing.csv"), "--format",
                  "mc-csv", "--criteria", "3", "--seed", "1"]
    assert main(["mc-evaluate", *missing_mc, "--ranks", "2,3"]) == 1
    assert main(["recommend", *missing_mc, "--user", "u1"]) == 1
    # flags the input cannot use are rejected, not ignored
    assert main(["recommend", *missing, "--user", "u1", "--seed", "1",
                 "--pca-option", "on"]) == 1
    for verb in (["stats"], ["decompose", "--ranks", "2", "--seed", "1",
                             "--output", str(tmp_path / "d")]):
        assert main([*verb, *missing, "--criteria", "3"]) == 1
    for verb in (["evaluate", "--sim", "pearson"], ["recommend", "--user", "u1"],
                 ["recommend", "--user", "u1", "--sim", "euclidean"]):
        assert main([*verb, *missing, "--seed", "1", "--ranks", "5"]) == 1
    assert main(["split", *missing, "--scale", "letter13",
                 "--train-fraction", "0.5", "--seed", "1",
                 "--output", str(tmp_path / "x")]) == 1
    # a relevance threshold outside the scale the flags give
    for verb in (["evaluate", *missing, "--sim", "pearson", "--seed", "1"],
                 ["sweep", *missing, "--seed", "1"],
                 ["mc-evaluate", *missing_mc, "--ranks", "2,3,3"]):
        assert main([*verb, "--relevance-threshold", "9"]) == 1
    assert main(["decompose", "--input", str(data_dir / "mc.csv"),
                 "--format", "mc-csv", "--criteria", "3", "--ranks", "2,2,2",
                 "--pca-option", "on", "--seed", "1",
                 "--output", str(tmp_path / "d")]) == 1
    # malformed list and count values
    for verb in (["decompose", "--ranks", "2,x", "--output", str(tmp_path / "d")],
                 ["decompose", "--ranks", "0", "--output", str(tmp_path / "d")],
                 ["sweep", "--sims", "pearson,nope"],
                 ["recommend", "--user", "u1", "--top-n", "0"]):
        assert main([*verb, "--input", ratings, "--seed", "1"]) == 1, verb
    # a negative density threshold is a usage error on every verb
    assert main(["filter", "--input", ratings, "--min-user", "-1",
                 "--output", str(tmp_path / "f")]) == 1
    for verb in (["stats"], ["evaluate", "--sim", "pearson", "--seed", "1"]):
        for flag in ("--min-user", "--min-item"):
            assert main([*verb, "--input", ratings, flag, "-5"]) == 1
    # a seed outside [0, 2**64) is a usage error on every verb
    for seed in ("-3", str(2 ** 64), "x"):
        assert main(["split", "--input", ratings, "--train-fraction", "0.5",
                     "--seed", seed, "--output", str(tmp_path / "x")]) == 1
        assert main(["evaluate", "--input", ratings, "--sim", "pearson",
                     "--seed", seed]) == 1
        assert main(["decompose", "--input", ratings, "--ranks", "2",
                     "--seed", seed, "--output", str(tmp_path / "d")]) == 1
        assert main(["sweep", "--input", ratings, "--seed", seed]) == 1
        assert main(["recommend", "--input", ratings, "--user", "u1",
                     "--seed", seed]) == 1
        assert main(["mc-evaluate", "--input", str(data_dir / "mc.csv"),
                     "--format", "mc-csv", "--criteria", "3",
                     "--ranks", "2,3,3", "--seed", seed]) == 1
    capsys.readouterr()
    # data errors -> 2
    assert main(["stats", "--input", str(tmp_path / "missing.tsv")]) == 2
    bad = tmp_path / "bad.tsv"
    bad.write_text("garbage\n")
    assert main(["stats", "--input", str(bad)]) == 2
    assert main(["recommend", "--input", ratings, "--user", "nobody",
                 "--sim", "pearson", "--seed", "1"]) == 2
    capsys.readouterr()
    # help -> 0
    assert main(["--help"]) == 0
    capsys.readouterr()
