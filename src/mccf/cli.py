"""Command-line front end.

Verbs: stats, filter, split, decompose, evaluate, sweep, recommend,
mc-evaluate.  Exit status 0 on success, 1 on usage errors, 2 on data
errors.  Every verb that involves randomness (splitting, sketched
factorizations) requires an explicit --seed so runs are reproducible by
construction.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .core import (
    CriteriaTensor,
    Dataset,
    ParseError,
    RatingScale,
    dataset_stats,
    overall_slice,
)
from .engine import (
    McConfig,
    build_mc_model,
    impute_tensor,
    mc_recommend_top_n,
    recommend_top_n,
)
from .evaluation import (
    SIM_NAME_MAP,
    BenchmarkConfig,
    EvalReport,
    McBenchmarkConfig,
    _build_store,
    run_benchmark,
    run_mc_benchmark,
    run_sweep,
)
from .ingest import (
    MOVIELENS_SCALE,
    DensityFilterSpec,
    SplitSpec,
    density_filter,
    parse_movielens,
    parse_multicriteria,
    split_train_test,
    write_movielens,
    write_multicriteria,
)
from .linalg import hosvd, impute_missing, pca, truncated_svd

SIM_CHOICES = tuple(SIM_NAME_MAP)
TABLE_SIMS = ("pearson", "euclidean", "loglikelihood", "tanimoto")
SCALES = {"1-5": RatingScale.one_to_five, "letter13": RatingScale.letter_13}


class UsageError(Exception):
    """Bad flag combination detected after argparse."""


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"fraction {text} not in (0, 1)")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError(f"seed {text} not in [0, 2**64)")
    return value


def _ranks(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad ranks {text!r}") from None
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("ranks must be positive integers")
    return values


def _fractions_list(text: str) -> tuple[float, ...]:
    return tuple(_fraction(p) for p in text.split(","))


def _sims_list(text: str) -> tuple[str, ...]:
    sims = tuple(p.strip() for p in text.split(","))
    for s in sims:
        if s not in SIM_CHOICES:
            raise argparse.ArgumentTypeError(
                f"unknown similarity {s!r}; choose from {', '.join(SIM_CHOICES)}")
    return sims


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mccf",
        description="Item-based collaborative-filtering workbench "
                    "(single- and multi-criteria).",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")
    parser.verb_parsers = {}

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--input", required=True, help="ratings file path")
    data.add_argument("--format", choices=("movielens", "mc-csv"),
                      default="movielens",
                      help="movielens: TAB user/item/rating/timestamp; "
                           "mc-csv: comma user,item,c1..cK,overall")
    data.add_argument("--criteria", type=_positive_int, metavar="K",
                      help="criterion count (required for mc-csv)")
    data.add_argument("--scale", choices=tuple(SCALES), default="1-5",
                      help="rating scale of the input")
    data.add_argument("--min-user", type=_non_negative_int, default=0,
                      metavar="N", help="drop users with fewer than N ratings")
    data.add_argument("--min-item", type=_non_negative_int, default=0,
                      metavar="N",
                      help="drop items with fewer than N ratings")

    def verb(name: str, parents: list, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=parents, help=help_text,
                           description=help_text)
        parser.verb_parsers[name] = p
        return p

    verb("stats", [data], "print dataset size and density")

    p = verb("filter", [data], "apply the density filter and write the result")
    p.add_argument("--output", required=True, help="filtered ratings file")

    p = verb("split", [data], "deterministic per-rating train/test split")
    p.add_argument("--train-fraction", type=_fraction, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--output", required=True,
                   help="prefix; writes PREFIX.train and PREFIX.test")

    p = verb("decompose", [data],
             "factor the rating matrix (SVD/PCA) or tensor (HOSVD)")
    p.add_argument("--ranks", type=_ranks, required=True,
                   help="K for a matrix, R1,R2,R3 for a tensor")
    p.add_argument("--pca-option", choices=("on", "off"), default="off",
                   help="matrix only: PCA instead of SVD")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--output", required=True, help="factor archive (.npz)")

    p = verb("evaluate", [data], "single benchmark run, report to stdout")
    p.add_argument("--sim", choices=SIM_CHOICES, required=True)
    p.add_argument("--train-fraction", type=_fraction, default=0.7)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--top-n", type=_positive_int, default=10)
    p.add_argument("--relevance-threshold", type=float, default=None)
    p.add_argument("--ranks", type=_ranks, default=None,
                   help="latent rank for --sim latent (default 8)")
    p.add_argument("--output", default=None, help="also write the report here")

    p = verb("sweep", [data], "benchmark grid over measures x fractions (CSV)")
    p.add_argument("--sims", type=_sims_list, default=TABLE_SIMS,
                   metavar="S1,S2,...", help=f"default {','.join(TABLE_SIMS)}")
    p.add_argument("--fractions", type=_fractions_list, default=(0.7, 0.8),
                   metavar="F1,F2,...", help="default 0.7,0.8")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--top-n", type=_positive_int, default=10)
    p.add_argument("--relevance-threshold", type=float, default=None)
    p.add_argument("--output", default=None, help="CSV path (default stdout)")

    p = verb("recommend", [data], "print a user's top-N unrated items")
    p.add_argument("--user", required=True, help="user id")
    p.add_argument("--sim", choices=SIM_CHOICES, default="pearson")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--top-n", type=_positive_int, default=10)
    p.add_argument("--ranks", type=_ranks, default=None,
                   help="latent rank (matrix) or R1,R2,R3 (mc-csv input)")
    p.add_argument("--pca-option", choices=("on", "off"), default="off")
    p.add_argument("--sim-space", choices=("latent", "reconstructed"),
                   help="mc-csv input only (default latent)")
    p.add_argument("--output", default=None)

    p = verb("mc-evaluate", [data],
             "multi-criteria benchmark through the factorization pipeline")
    p.add_argument("--ranks", type=_ranks, required=True, metavar="R1,R2,R3")
    p.add_argument("--train-fraction", type=_fraction, default=0.7)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--pca-option", choices=("on", "off"), default="off")
    p.add_argument("--sim-space", choices=("latent", "reconstructed"),
                   default="latent")
    p.add_argument("--sim", choices=SIM_CHOICES, default="euclidean",
                   help="measure for reconstructed similarity space")
    p.add_argument("--top-n", type=_positive_int, default=10)
    p.add_argument("--relevance-threshold", type=float, default=None)
    p.add_argument("--output", default=None, help="also write the report here")

    return parser


def _scale_of(args) -> RatingScale:
    return SCALES[args.scale]()


def _load_plain(args) -> tuple[list, RatingScale]:
    """Records + scale for single-rating verbs; mc-csv input contributes its
    overall column."""
    scale = _scale_of(args)
    if args.format == "movielens":
        if args.scale != "1-5":
            raise UsageError("movielens format implies --scale 1-5")
        records = parse_movielens(args.input)
        scale = MOVIELENS_SCALE
    else:
        records = _load_mc_records(args)
    if args.min_user > 0 or args.min_item > 0:
        records = density_filter(
            records, DensityFilterSpec(args.min_user, args.min_item))
    return records, scale


def _load_mc_records(args) -> list:
    if args.criteria is None:
        raise UsageError("--criteria is required with --format mc-csv")
    return parse_multicriteria(args.input, args.criteria, _scale_of(args))


def _load_tensor(args) -> CriteriaTensor:
    records = _load_mc_records(args)
    if args.min_user > 0 or args.min_item > 0:
        records = density_filter(
            records, DensityFilterSpec(args.min_user, args.min_item))
    return CriteriaTensor.from_records(records, args.criteria, _scale_of(args))


def _to_overall_dataset(records, scale: RatingScale) -> Dataset:
    if records and hasattr(records[0], "criteria"):
        tensor = CriteriaTensor.from_records(
            records, len(records[0].criteria), scale)
        return overall_slice(tensor)
    return Dataset.from_records(records, scale)


def _latent_rank(args) -> int:
    """The single --ranks value of a plain-input verb; 8 when unset."""
    if args.ranks is None:
        return 8
    if len(args.ranks) != 1:
        raise UsageError(
            f"{args.verb} takes a single --ranks value on plain input")
    return args.ranks[0]


def _emit(text: str, output: str | None) -> None:
    print(text)
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")


def _cmd_stats(args) -> int:
    if args.format == "mc-csv":
        tensor = _load_tensor(args)
        cells = tensor.n_users * tensor.n_items
        density = tensor.n_cells / cells if cells else 0.0
        print(f"users={tensor.n_users} items={tensor.n_items} "
              f"ratings={tensor.n_cells}")
        print(f"criteria={tensor.k}")
        print(f"density={density:.4f}")
        print(f"duplicates={tensor.duplicates}")
        return 0
    records, scale = _load_plain(args)
    d = Dataset.from_records(records, scale)
    stats = dataset_stats(d)
    print(f"users={stats.users} items={stats.items} ratings={stats.ratings}")
    print(f"density={stats.density:.4f}")
    print(f"duplicates={d.duplicates}")
    return 0


def _raw_records(args):
    """(unfiltered records, writer of the input format)."""
    if args.format == "mc-csv":
        return _load_mc_records(args), write_multicriteria
    return parse_movielens(args.input), write_movielens


def _cmd_filter(args) -> int:
    # _load_plain/_load_tensor already apply the thresholds; here the
    # filtered records are written back out in the input format
    records, write = _raw_records(args)
    kept = density_filter(records, DensityFilterSpec(args.min_user, args.min_item))
    write(kept, args.output)
    print(f"kept={len(kept)} dropped={len(records) - len(kept)}")
    return 0


def _cmd_split(args) -> int:
    records, write = _raw_records(args)
    train, test = split_train_test(records,
                                   SplitSpec(args.train_fraction, args.seed))
    write(train, args.output + ".train")
    write(test, args.output + ".test")
    print(f"train={len(train)} test={len(test)}")
    return 0


def _cmd_decompose(args) -> int:
    if args.format == "mc-csv":
        if len(args.ranks) != 3:
            raise UsageError("tensor decomposition needs --ranks R1,R2,R3")
        if args.pca_option == "on":
            raise UsageError("--pca-option applies to matrix input only")
        tensor = _load_tensor(args)
        model = hosvd(impute_tensor(tensor, "item_mean"), args.ranks,
                      seed=args.seed)
        arrays = {"decomposition": "hosvd", "core": model.core,
                  "factor1": model.factors[0], "factor2": model.factors[1],
                  "factor3": model.factors[2]}
    else:
        if len(args.ranks) != 1:
            raise UsageError("matrix decomposition needs a single --ranks value")
        records, scale = _load_plain(args)
        d = Dataset.from_records(records, scale)
        imputed = impute_missing(d.to_dense(), "item_mean")
        rank = args.ranks[0]
        if rank > min(imputed.shape):
            raise UsageError(
                f"rank {rank} exceeds matrix dimensions {imputed.shape}")
        if args.pca_option == "on":
            model = pca(imputed, rank)
            arrays = {"decomposition": "pca", "mean": model.mean,
                      "eigenvalues": model.eigenvalues,
                      "components": model.components}
        else:
            model = truncated_svd(imputed, rank, seed=args.seed)
            arrays = {"decomposition": "svd", "sigma": model.sigma,
                      "u": model.u, "v": model.v}
    # an open handle keeps np.savez from appending ".npz" to the name
    with open(args.output, "wb") as fh:
        np.savez(fh, ranks=np.array(args.ranks), **arrays)
    print(f"wrote {arrays['decomposition']} factors to {args.output}")
    return 0


def _cmd_evaluate(args) -> int:
    records, scale = _load_plain(args)
    config = BenchmarkConfig(
        sim=args.sim, train_fraction=args.train_fraction, seed=args.seed,
        top_n=args.top_n, relevance_threshold=args.relevance_threshold,
        latent_rank=_latent_rank(args))
    if records and hasattr(records[0], "criteria"):
        records = list(_to_overall_dataset(records, scale).iter_records())
    report = run_benchmark(records, config, scale)
    _emit(report.to_text(), args.output)
    return 0


def _cmd_sweep(args) -> int:
    records, scale = _load_plain(args)
    if records and hasattr(records[0], "criteria"):
        records = list(_to_overall_dataset(records, scale).iter_records())
    reports = run_sweep(records, args.sims, args.fractions, args.seed,
                        scale=scale, top_n=args.top_n,
                        relevance_threshold=args.relevance_threshold)
    lines = [EvalReport.csv_header()] + [r.to_csv_row() for r in reports]
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_recommend(args) -> int:
    # flags are checked before any data is read
    if args.format == "mc-csv":
        if args.ranks is None or len(args.ranks) != 3:
            raise UsageError("mc-csv recommendation needs --ranks R1,R2,R3")
        if args.sim_space == "reconstructed" and args.sim == "latent":
            raise UsageError("--sim latent has no reconstructed space")
        tensor = _load_tensor(args)
        if not tensor.has_user(args.user):
            print(f"error: unknown user {args.user!r}", file=sys.stderr)
            return 2
        # the latent space ignores sim_kind
        config = McConfig(pca_option=args.pca_option == "on",
                          sim_space=args.sim_space or "latent",
                          sim_kind=SIM_NAME_MAP.get(args.sim, args.sim),
                          seed=args.seed)
        model = build_mc_model(tensor, args.ranks, config)
        top = mc_recommend_top_n(model, args.user, args.top_n)
    else:
        if args.pca_option == "on" or args.sim_space is not None:
            raise UsageError("--pca-option and --sim-space need mc-csv input")
        rank = _latent_rank(args)
        records, scale = _load_plain(args)
        d = Dataset.from_records(records, scale)
        if not d.has_user(args.user):
            print(f"error: unknown user {args.user!r}", file=sys.stderr)
            return 2
        sims = _build_store(d, args.sim, rank, args.seed)
        top = recommend_top_n(d, sims, args.user, args.top_n)
    lines = [f"{rank} {item} {value:.4f}"
             for rank, (item, value) in enumerate(top, start=1)]
    if lines:
        _emit("\n".join(lines), args.output)
    elif args.output:
        Path(args.output).write_text("", encoding="utf-8")
    return 0


def _cmd_mc_evaluate(args) -> int:
    if args.format != "mc-csv":
        raise UsageError("mc-evaluate requires --format mc-csv")
    if len(args.ranks) != 3:
        raise UsageError("mc-evaluate needs --ranks R1,R2,R3")
    if args.sim_space == "reconstructed" and args.sim == "latent":
        raise UsageError("--sim latent has no reconstructed space")
    tensor = _load_tensor(args)
    config = McBenchmarkConfig(
        ranks=args.ranks, train_fraction=args.train_fraction, seed=args.seed,
        pca_option=args.pca_option == "on", sim_space=args.sim_space,
        sim=args.sim, top_n=args.top_n,
        relevance_threshold=args.relevance_threshold)
    report = run_mc_benchmark(tensor, config)
    _emit(report.to_text(), args.output)
    return 0


_HANDLERS = {
    "stats": _cmd_stats,
    "filter": _cmd_filter,
    "split": _cmd_split,
    "decompose": _cmd_decompose,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "recommend": _cmd_recommend,
    "mc-evaluate": _cmd_mc_evaluate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help
        return 0 if exc.code == 0 else 1
    try:
        return _HANDLERS[args.verb](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
