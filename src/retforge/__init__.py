"""Dense-retrieval training toolkit: encoders, evidence index, reader, CLI.

The subpackages compose in pipeline order: `data` loads and mines corpora,
`encoder` embeds questions and documents, `index` serves exact top-k search
over snapshot embeddings, `training` covers retriever-only recipes,
`reader` and `e2e` add answer generation with joint optimization, and
`evaluation` scores the results. Everything runs on the float64 reverse-mode
engine in `autodiff`.
"""

from .data import (
    Corpus,
    Document,
    QAExample,
    SpanAnnotation,
    bm25_score,
    build_corpus_stats,
    load_corpus,
    load_qa,
    load_spans,
    mine_distant_supervision,
    rank_bm25,
    save_corpus,
    save_qa,
    save_spans,
)
from .e2e import (
    E2EConfig,
    InferenceResult,
    answer_questions,
    evaluate_em,
    evaluate_retrieval,
    individual_topk_infer,
    individual_topk_loss,
    joint_topk_infer,
    joint_topk_loss,
    marginal_log_likelihood,
    tau_value,
    train_e2e,
)
from .encoder import DualEncoder, EncoderConfig, TransformerEncoder
from .errors import (
    ConfigError,
    DeterminismError,
    DimensionError,
    DomainError,
    FormatError,
    InputError,
)
from .evaluation import EvalReport, emit_report, exact_match, topk_accuracy
from .index import EvidenceIndex, IndexSnapshot, RetrievalResult, build_snapshot, top_k
from .reader import Reader, ReaderConfig
from .toy import ToyData, ToySpec, generate_toy
from .training import TrainConfig, train_ict, train_salient_spans, train_supervised

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Corpus",
    "DeterminismError",
    "DimensionError",
    "Document",
    "DomainError",
    "DualEncoder",
    "E2EConfig",
    "TransformerEncoder",
    "EncoderConfig",
    "EvalReport",
    "EvidenceIndex",
    "FormatError",
    "IndexSnapshot",
    "InferenceResult",
    "InputError",
    "QAExample",
    "Reader",
    "ReaderConfig",
    "RetrievalResult",
    "SpanAnnotation",
    "ToyData",
    "ToySpec",
    "TrainConfig",
    "answer_questions",
    "bm25_score",
    "build_corpus_stats",
    "build_snapshot",
    "emit_report",
    "evaluate_em",
    "evaluate_retrieval",
    "exact_match",
    "generate_toy",
    "individual_topk_infer",
    "individual_topk_loss",
    "joint_topk_infer",
    "joint_topk_loss",
    "load_corpus",
    "load_qa",
    "load_spans",
    "marginal_log_likelihood",
    "mine_distant_supervision",
    "rank_bm25",
    "save_corpus",
    "save_qa",
    "save_spans",
    "tau_value",
    "top_k",
    "topk_accuracy",
    "train_e2e",
    "train_ict",
    "train_salient_spans",
    "train_supervised",
]
