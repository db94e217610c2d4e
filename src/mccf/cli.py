"""Command-line front end.

Verbs: stats, filter, split, decompose, evaluate, sweep, recommend,
mc-evaluate.  _check_flags rejects every bad flag combination before any
input is read, and every verb reads its input through _read, as one
columnar batch and the rows the --min-user/--min-item filter keeps; only
filter and split build records, for the writers.  Exit status 0 on
success, 1 on usage errors, 2 on data errors.  Every verb that involves
randomness (splitting, sketched factorizations) requires an explicit
--seed so runs are reproducible by construction.

On mc-csv input, recommend and mc-evaluate take item similarities in the
HOSVD's latent space for --sim latent, and from the reconstructed
criterion slices with the named measure otherwise.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from .core import (
    CriteriaTensor,
    Dataset,
    ParseError,
    RatingScale,
    _Ratings,
    _SEED_BOUND,
    _check_integer,
    dataset_stats,
    overall_slice,
)
from .engine import (
    McConfig,
    build_mc_model,
    mc_recommend_top_n,
    recommend_top_n,
)
from .evaluation import (
    SIM_NAME_MAP,
    BenchmarkConfig,
    EvalReport,
    McBenchmarkConfig,
    RelevanceSpec,
    _build_store,
    run_benchmark,
    run_mc_benchmark,
    run_sweep,
)
from .ingest import (
    DensityFilterSpec,
    SplitSpec,
    _density_mask,
    _parse_movielens,
    _parse_multicriteria,
    _train_mask,
    write_movielens,
    write_multicriteria,
)
from .linalg import (CellTensor, check_cell_budget, hosvd, impute_missing, pca,
                     pca_cells, truncated_svd)

SIM_CHOICES = tuple(SIM_NAME_MAP)
TABLE_SIMS = ("pearson", "euclidean", "loglikelihood", "tanimoto")
SCALES = {"1-5": RatingScale.one_to_five, "letter13": RatingScale.letter_13}
WRITERS = {"movielens": write_movielens, "mc-csv": write_multicriteria}


class UsageError(Exception):
    """Bad flag combination detected after argparse."""


def _fraction(text: str) -> float:
    """A train fraction flag's value, as ingest.SplitSpec admits it."""
    try:
        return SplitSpec(float(text), 0).train_fraction
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"fraction {text!r} not in (0, 1)") from None


def _integer(text: str, low: int = 1, high: int | None = None) -> int:
    """An integer flag's value, as core._check_integer admits it with
    these bounds; the error names the text and the bounds."""
    try:
        value = int(text)
    except ValueError:
        value = text    # rejected below, with the rule it breaks
    try:
        _check_integer("value", value, low, high)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _sim(text: str) -> str:
    if text.strip() not in SIM_CHOICES:
        raise argparse.ArgumentTypeError(
            f"unknown similarity {text!r}; choose from {', '.join(SIM_CHOICES)}")
    return text.strip()


def _listed(item):
    """The type of a comma-separated flag whose every value has type item."""
    return lambda text: tuple(item(p) for p in text.split(","))


_seed, _ranks = partial(_integer, low=0, high=_SEED_BOUND), _listed(_integer)


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
    data.add_argument("--criteria", type=_integer, metavar="K",
                      help="criterion count (required for mc-csv)")
    data.add_argument("--scale", choices=tuple(SCALES), default="1-5",
                      help="rating scale of the input")
    data.add_argument("--min-user", type=partial(_integer, low=0), default=0,
                      metavar="N", help="drop users with fewer than N ratings")
    data.add_argument("--min-item", type=partial(_integer, low=0), default=0,
                      metavar="N",
                      help="drop items with fewer than N ratings")

    # the protocol flags of evaluate, sweep and mc-evaluate
    bench = argparse.ArgumentParser(add_help=False)
    bench.add_argument("--seed", type=_seed, required=True)
    bench.add_argument("--top-n", type=_integer, default=10)
    bench.add_argument("--relevance-threshold", type=float, default=None)

    def verb(name: str, handler, parents: list,
             help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, parents=parents, help=help_text,
                           description=help_text)
        p.set_defaults(handler=handler)
        parser.verb_parsers[name] = p
        return p

    verb("stats", _cmd_stats, [data], "print dataset size and density")

    p = verb("filter", _cmd_filter, [data],
             "apply the density filter and write the result")
    p.add_argument("--output", required=True, help="filtered ratings file")

    p = verb("split", _cmd_split, [data],
             "deterministic per-rating train/test split")
    p.add_argument("--train-fraction", type=_fraction, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--output", required=True,
                   help="prefix; writes PREFIX.train and PREFIX.test")

    p = verb("decompose", _cmd_decompose, [data],
             "factor the rating matrix (SVD/PCA) or tensor (HOSVD)")
    p.add_argument("--ranks", type=_ranks, required=True,
                   help="K for a matrix, R1,R2,R3 for a tensor")
    p.add_argument("--pca-option", choices=("on", "off"), default="off",
                   help="matrix only: PCA instead of SVD")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--output", required=True, help="factor archive (.npz)")

    p = verb("evaluate", _cmd_evaluate, [data, bench],
             "single benchmark run, report to stdout")
    p.add_argument("--sim", choices=SIM_CHOICES, required=True)
    p.add_argument("--train-fraction", type=_fraction, default=0.7)
    p.add_argument("--ranks", type=_ranks, default=None,
                   help="latent rank for --sim latent "
                        f"(default {BenchmarkConfig.latent_rank})")
    p.add_argument("--output", default=None, help="also write the report here")

    p = verb("sweep", _cmd_sweep, [data, bench],
             "benchmark grid over measures x fractions (CSV)")
    p.add_argument("--sims", type=_listed(_sim), default=TABLE_SIMS,
                   metavar="S1,S2,...", help=f"default {','.join(TABLE_SIMS)}")
    p.add_argument("--fractions", type=_listed(_fraction), default=(0.7, 0.8),
                   metavar="F1,F2,...", help="default 0.7,0.8")
    p.add_argument("--output", default=None, help="CSV path (default stdout)")

    p = verb("recommend", _cmd_recommend, [data],
             "print a user's top-N unrated items")
    p.add_argument("--user", required=True, help="user id")
    p.add_argument("--sim", choices=SIM_CHOICES, default=None,
                   help="default pearson; latent on mc-csv input")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--top-n", type=_integer, default=10)
    p.add_argument("--ranks", type=_ranks, default=None,
                   help="rank of --sim latent (matrix) or R1,R2,R3 (mc-csv)")
    p.add_argument("--pca-option", choices=("on", "off"), default="off")
    p.add_argument("--output", default=None)

    p = verb("mc-evaluate", _cmd_mc_evaluate, [data, bench],
             "multi-criteria benchmark through the factorization pipeline")
    p.add_argument("--ranks", type=_ranks, required=True, metavar="R1,R2,R3")
    p.add_argument("--train-fraction", type=_fraction, default=0.7)
    p.add_argument("--pca-option", choices=("on", "off"), default="off")
    p.add_argument("--sim", choices=SIM_CHOICES, default="latent",
                   help="latent space, or a measure on the reconstructed slices")
    p.add_argument("--output", default=None, help="also write the report here")

    return parser


def _scale_of(args) -> RatingScale:
    return SCALES[args.scale]()


def _check_flags(args) -> None:
    """Reject every flag combination argparse cannot express.  Runs before
    any input is read, so a bad flag exits 1 whatever the data holds."""
    mc = args.format == "mc-csv"
    if mc and args.criteria is None:
        raise UsageError("--criteria is required with --format mc-csv")
    if not mc and args.criteria is not None:
        raise UsageError("--criteria needs --format mc-csv")
    if not mc and args.scale != "1-5":
        raise UsageError("movielens format implies --scale 1-5")
    if args.verb == "mc-evaluate" and not mc:
        raise UsageError("mc-evaluate requires --format mc-csv")
    # decompose, recommend and mc-evaluate factor a tensor on mc-csv input;
    # everywhere else --ranks is the one latent rank of a matrix
    tensor = mc and args.verb in ("decompose", "recommend", "mc-evaluate")
    ranks = getattr(args, "ranks", None)
    if tensor and (ranks is None or len(ranks) != 3):
        raise UsageError(f"{args.verb} on mc-csv input needs --ranks R1,R2,R3")
    if not tensor and ranks is not None:
        if len(ranks) != 1:
            raise UsageError(f"{args.verb} takes a single --ranks value "
                             f"on {args.format} input")
        if args.verb != "decompose" and args.sim != "latent":
            raise UsageError("--ranks sets the rank of --sim latent only")
    # PCA replaces the SVD of a matrix in decompose, and centres the HOSVD
    # of the multi-criteria pipeline in recommend and mc-evaluate
    pca_on = getattr(args, "pca_option", "off") == "on"
    if pca_on and (args.verb == "decompose") == mc:
        raise UsageError(f"--pca-option does not apply to {args.verb} "
                         f"on {args.format} input")
    threshold = getattr(args, "relevance_threshold", None)
    if threshold is not None:
        try:
            RelevanceSpec(threshold).check(_scale_of(args))
        except ValueError as exc:
            raise UsageError(str(exc)) from None


def _read(args) -> tuple[_Ratings, np.ndarray]:
    """The input's ratings that the --min-user/--min-item filter keeps, as
    a batch, and the filter's mask over all the input's ratings; timestamps
    are kept only for the verbs that write records."""
    batch = (_parse_multicriteria(args.input, args.criteria, _scale_of(args))
             if args.format == "mc-csv" else _parse_movielens(
                 args.input, stamps=args.verb in ("filter", "split")))
    kept = _density_mask(batch, DensityFilterSpec(args.min_user, args.min_item))
    return batch.take(kept), kept


def _load(args, matrix: bool = False):
    """The filtered input: a CriteriaTensor on mc-csv input; on MovieLens
    input a Dataset when `matrix` is set, else the batch."""
    batch = _read(args)[0]
    if args.format == "mc-csv":
        return CriteriaTensor.from_records(batch, args.criteria, _scale_of(args))
    return Dataset.from_records(batch, _scale_of(args)) if matrix else batch


def _check_ranks(data, ranks: tuple[int, ...]):
    """data, once each --ranks value is checked against its dimensions: a
    tensor's one per mode, a matrix's one against both (the zip repeats
    it); a batch's are the users and items its rows hold.  Empty input is
    left to the fill's and the split's own errors."""
    dims = ((len(np.unique(data.u)), len(np.unique(data.i)))
            if isinstance(data, _Ratings) else (data.n_users, data.n_items))
    dims += (data.k + 1,) if len(ranks) == 3 else ()
    if 0 < min(dims) and any(r > n for r, n in zip(ranks * 2, dims)):
        raise UsageError(f"rank {','.join(map(str, ranks))} exceeds "
                         f"{'tensor' if len(dims) == 3 else 'matrix'} "
                         f"dimensions {dims}")
    return data


def _emit(text: str, output: str | None) -> None:
    print(text)
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")


def _cmd_stats(args) -> int:
    data = _load(args, matrix=True)
    mc = args.format == "mc-csv"
    stats = dataset_stats(overall_slice(data) if mc else data)
    print(f"users={stats.users} items={stats.items} ratings={stats.ratings}")
    if mc:
        print(f"criteria={data.k}")
    print(f"density={stats.density:.4f}")
    print(f"duplicates={data.duplicates}")
    return 0


def _cmd_filter(args) -> int:
    batch, kept = _read(args)
    WRITERS[args.format](batch.records(), args.output)
    print(f"kept={kept.sum()} dropped={len(kept) - kept.sum()}")
    return 0


def _cmd_split(args) -> int:
    batch = _read(args)[0]
    train = _train_mask(batch, SplitSpec(args.train_fraction, args.seed))
    for suffix, rows in ((".train", train), (".test", ~train)):
        WRITERS[args.format](batch.take(rows).records(), args.output + suffix)
    print(f"train={train.sum()} test={len(train) - train.sum()}")
    return 0


def _cmd_decompose(args) -> int:
    data = _check_ranks(_load(args, matrix=True), args.ranks)
    if args.format == "mc-csv":
        model = hosvd(CellTensor(data), args.ranks, seed=args.seed)
        arrays = {"decomposition": "hosvd", "core": model.core,
                  "factor1": model.factors[0], "factor2": model.factors[1],
                  "factor3": model.factors[2]}
    else:
        # only PCA forms the filled matrix; the SVD factors it from the cells
        if args.pca_option == "on":
            check_cell_budget(pca_cells((data.n_users, data.n_items)))
            model = pca(impute_missing(data.to_dense()), args.ranks[0])
            arrays = {"decomposition": "pca", "mean": model.mean,
                      "eigenvalues": model.eigenvalues,
                      "components": model.components}
        else:
            model = truncated_svd(CellTensor(data), args.ranks[0], seed=args.seed)
            arrays = {"decomposition": "svd", "sigma": model.sigma,
                      "u": model.u, "v": model.v}
    # an open handle keeps np.savez from appending ".npz" to the name
    with open(args.output, "wb") as fh:
        np.savez(fh, ranks=np.array(args.ranks), **arrays)
    print(f"wrote {arrays['decomposition']} factors to {args.output}")
    return 0


def _cmd_evaluate(args) -> int:
    config = BenchmarkConfig(
        sim=args.sim, train_fraction=args.train_fraction, seed=args.seed,
        top_n=args.top_n, relevance_threshold=args.relevance_threshold,
        latent_rank=args.ranks[0] if args.ranks else BenchmarkConfig.latent_rank)
    data = _load(args)      # a tensor contributes its overall ratings
    if args.ranks:
        _check_ranks(data, args.ranks)
    report = run_benchmark(data, config, _scale_of(args))
    _emit(report.to_text(), args.output)
    return 0


def _cmd_sweep(args) -> int:
    reports = run_sweep(_load(args), args.sims, args.fractions, args.seed,
                        scale=_scale_of(args), top_n=args.top_n,
                        relevance_threshold=args.relevance_threshold)
    lines = [EvalReport.csv_header()] + [r.to_csv_row() for r in reports]
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_recommend(args) -> int:
    data = _load(args, matrix=True)
    if not data.has_user(args.user):
        print(f"error: unknown user {args.user!r}", file=sys.stderr)
        return 2
    data = _check_ranks(data, args.ranks) if args.ranks else data
    if args.format == "mc-csv":
        config = McConfig(pca_option=args.pca_option == "on",
                          sim_kind=SIM_NAME_MAP[args.sim or "latent"],
                          seed=args.seed)
        model = build_mc_model(data, args.ranks, config)
        top = mc_recommend_top_n(model, args.user, args.top_n)
    else:
        latent = args.ranks[0] if args.ranks else BenchmarkConfig.latent_rank
        sims = _build_store(data, args.sim or "pearson", latent, args.seed)
        top = recommend_top_n(data, sims, args.user, args.top_n)
    lines = [f"{rank} {item} {value:.4f}"
             for rank, (item, value) in enumerate(top, start=1)]
    if lines:
        _emit("\n".join(lines), args.output)
    elif args.output:
        Path(args.output).write_text("", encoding="utf-8")
    return 0


def _cmd_mc_evaluate(args) -> int:
    config = McBenchmarkConfig(
        ranks=args.ranks, train_fraction=args.train_fraction, seed=args.seed,
        pca_option=args.pca_option == "on", sim=args.sim, top_n=args.top_n,
        relevance_threshold=args.relevance_threshold)
    report = run_mc_benchmark(_check_ranks(_load(args), args.ranks), config)
    _emit(report.to_text(), args.output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help
        return 0 if exc.code == 0 else 1
    try:
        _check_flags(args)
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
