"""Item-based collaborative filtering with dimensionality reduction,
single- and multi-criteria."""

from types import ModuleType as _ModuleType

from .core import (
    CriteriaRecord,
    CriteriaTensor,
    Dataset,
    DatasetStats,
    ParseError,
    RatingRecord,
    RatingScale,
    criteria_slice,
    dataset_stats,
    overall_slice,
)
from .engine import (
    AggregationWeights,
    McConfig,
    McModel,
    NeighborhoodSpec,
    Prediction,
    aggregate_overall,
    batch_predict,
    build_mc_model,
    fit_aggregation,
    load_model,
    mc_recommend_top_n,
    predict_criteria,
    predict_matrix,
    predict_overall,
    predict_single,
    recommend_top_n,
    save_model,
)
from .evaluation import (
    BenchmarkConfig,
    EvalReport,
    McBenchmarkConfig,
    RelevanceSpec,
    bias,
    coverage,
    mae,
    precision_recall_f1,
    rmse,
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
from .linalg import (
    FactorModel,
    PcaModel,
    TuckerModel,
    hosvd,
    impute_missing,
    pca,
    pca_project,
    pca_reconstruct,
    truncated_svd,
    tucker_reconstruct,
)
from .similarity import (
    SIMILARITY_KINDS,
    SimilarityStore,
    item_similarity_matrix,
)

__version__ = "0.1.0"

# the public surface is the import block above: every name it binds
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
