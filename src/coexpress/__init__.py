"""Batch gene-expression analysis toolkit.

Cleansing and normalization of expression matrices, correlation-mask gene
selection, boosted-tree classification with recursive feature elimination,
and co-expression network construction with community detection and
cross-network comparison.
"""

__version__ = "0.1.0"

from .atlas import AtlasEntry, CommunityNetwork, build_atlas, cross_color, export_atlas, tier_genes
from .booster import (
    BoostedEnsemble,
    BoosterConfig,
    RegressionTree,
    ensemble_from_json,
    ensemble_to_json,
    predict,
    train,
)
from .correlation import CorrelationMatrix, export_heatmap, group_mean, pairwise, pearson
from .errors import (
    CoexpressError,
    DegenerateRowError,
    GraphError,
    ParseError,
    StageError,
    ValidationError,
    ZeroVarianceError,
)
from .folds import FoldPlan, cv_split, load_plan, save_plan, stratified_folds
from .graph import (
    GeneGraph,
    Partition,
    WeightedGeneGraph,
    build_weighted,
    detect_communities,
    giant_component,
    modularity,
    select_threshold,
    threshold_graph,
)
from .masks import (
    GeneSet,
    MaskCorrelations,
    load_gene_set,
    mask_correlations,
    save_gene_set,
    select_by_any_mask,
    select_combined,
    select_three_mask_intersect,
)
from .matrix import (
    CleansingReport,
    ExpressionMatrix,
    GeneStats,
    cleanse,
    export_stats,
    gene_stats,
    load_matrix,
    write_matrix,
)
from .normalize import NormalizationScheme, normalize_matrix, normalize_row
from .pipeline import PipelineConfig, load_config, run_pipeline
from .rfe import (
    CvReport,
    EliminationTrace,
    cross_validate_step,
    export_trace,
    majority_baseline,
    metrics,
    recursive_eliminate,
)
from .synthetic import BlockSpec, SynthSpec, generate
