"""Concept embeddings from full and partial colexification networks."""

__version__ = "0.1.0"

from .baselines import (
    SimilarityProvider,
    cosine_adjacency_provider,
    embedding_provider,
    ppmi_provider,
    random_walk_provider,
    shortest_path_provider,
    similarity_matrix,
)
from .combine import combine, map_external_vectors
from .embeddings import EmbeddingSet, load_embedding, save_embedding
from .errors import (
    ColexvecError,
    GraphTooSmallError,
    InsufficientDataError,
    NoEdgesError,
    ParseError,
    SamplingError,
    ValidationError,
)
from .evaluation import (
    ConceptPair,
    EvalReport,
    RatedPair,
    draw_negatives,
    eval_binary,
    eval_lsim,
    filter_association_pairs,
    load_concept_pairs,
    load_rated_pairs,
)
from .graph import (
    ColexGraph,
    adjacency_matrix,
    load_graph,
    make_graph,
    save_graph,
    to_undirected,
)
from .node2vec import (
    SkipGramConfig,
    WalkConfig,
    extract_pairs,
    node2vec_embed,
    sample_walks,
    train_skipgram,
)
from .numerics import (
    LogisticModel,
    cosine_similarity,
    fit_logistic_1d,
    pca_reduce,
    randomized_tsvd,
    spearman_rho,
)
from .prone import ProneConfig, build_shifted_matrix, factorize, prone_embed, spectral_propagate
from .viz import DenseMatrix, export_scatter, tsne_project
from .wordlist import (
    ColexMatch,
    ColexParams,
    Wordlist,
    WordlistEntry,
    classify_pair,
    infer_network,
    infer_undirected_network,
    load_wordlist,
)
