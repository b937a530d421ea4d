"""promptcal: soft-prompt calibration of prompt-ensemble variance for a
desk-scale encoder-decoder summarizer, with exact ROUGE metrics and a
reproducible evaluation harness."""

from .autodiff import DiffValue, backward
from .calibration import (
    DEFAULT_SOFT_TOKEN_TEXT,
    OOD_SOFT_TOKEN_TEXT,
    CalibrationConfig,
    SoftPromptEncoder,
    SoftPromptToken,
    alignment_loss,
    decode_soft_prompt,
    encode_soft,
    summarize,
    summarize_many,
    train_calibrator,
)
from .corpus import CorpusRecord, bundled_test_corpus, bundled_train_corpus, generate_corpus
from .harness import (
    EvaluationRun,
    PromptEnsemble,
    VarianceReport,
    compare_runs,
    ensemble_stats,
    evaluate_prompt,
    load_default_ensemble,
    std_deduction,
)
from .model import EncoderDecoderLM, ModelConfig, PretrainConfig, pretrain
from .rouge import RougeScore, rouge_l, rouge_n, rouge_suite
from .vocab import TokenSequence, Vocabulary, detokenize, tokenize

__version__ = "0.1.0"

__all__ = [
    "DiffValue",
    "backward",
    "DEFAULT_SOFT_TOKEN_TEXT",
    "OOD_SOFT_TOKEN_TEXT",
    "CalibrationConfig",
    "SoftPromptEncoder",
    "SoftPromptToken",
    "alignment_loss",
    "decode_soft_prompt",
    "encode_soft",
    "summarize",
    "summarize_many",
    "train_calibrator",
    "CorpusRecord",
    "bundled_test_corpus",
    "bundled_train_corpus",
    "generate_corpus",
    "EvaluationRun",
    "PromptEnsemble",
    "VarianceReport",
    "compare_runs",
    "ensemble_stats",
    "evaluate_prompt",
    "load_default_ensemble",
    "std_deduction",
    "EncoderDecoderLM",
    "ModelConfig",
    "PretrainConfig",
    "pretrain",
    "RougeScore",
    "rouge_l",
    "rouge_n",
    "rouge_suite",
    "TokenSequence",
    "Vocabulary",
    "detokenize",
    "tokenize",
    "__version__",
]
