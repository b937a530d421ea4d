"""Shared fixtures: a small pretrained model reused across test modules, and
a collector that prints one line per acceptance criterion at session end."""

from __future__ import annotations

import ctypes
import os
import platform
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from promptcal.calibration import DEFAULT_SOFT_TOKEN_TEXT
from promptcal.corpus import bundled_test_corpus, bundled_train_corpus, generate_corpus
from promptcal.harness import load_default_ensemble
from promptcal.model import EncoderDecoderLM, ModelConfig, PretrainConfig, pretrain
from promptcal.vocab import EOS_ID

pytest.register_assert_rewrite("tests.test_autodiff", "tests.test_rouge", "tests.test_cli")

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(name: str, passed: bool) -> None:
    _ACCEPTANCE_LINES.append(f"{'PASS' if passed else 'FAIL'}  {name}")


@pytest.fixture
def acceptance_log():
    return record_acceptance


def openblas_libraries() -> list[Path]:
    """The scipy-openblas libraries a numpy wheel bundles in numpy.libs/; none for other builds."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    return sorted(libs.glob("libscipy_openblas64_*.so"))


def openblas_corename() -> str:
    """The kernel the running OpenBLAS picked (or OPENBLAS_CORETYPE forced), such as SkylakeX.

    Read through ctypes from scipy_openblas_get_corename64_; loading the
    library numpy has already loaded gives that same instance. "unknown" when
    no library is found or none exports the symbol.
    """
    for path in openblas_libraries():
        try:
            get_corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        get_corename.restype = ctypes.c_char_p
        name = get_corename()
        if name:
            return name.decode("ascii", "replace")
    return "unknown"


def numpy_blas() -> dict:
    """numpy's BLAS build dependency (name, version, ...) from np.show_config(mode="dicts"); empty on
    numpy < 1.26, which lacks that form."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}


def platform_fingerprint() -> str:
    """Interpreter, numpy, BLAS build and running BLAS kernel: the float path the criteria's numbers came from.

    The BLAS is reported as unknown when numpy_blas() finds no build information.
    """
    deps = numpy_blas()
    blas = f"{deps.get('name')} {deps.get('version')}" if deps else "unknown"
    parts = [f"Python {platform.python_version()}", f"numpy {np.__version__}", f"BLAS {blas}",
             f"BLAS kernel {openblas_corename()}"]
    coretype = os.environ.get("OPENBLAS_CORETYPE")
    if coretype:
        parts.append(f"OPENBLAS_CORETYPE={coretype}")
    return "platform: " + ", ".join(parts)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    terminalreporter.write_line(platform_fingerprint())
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


TINY_MODEL = ModelConfig(embed_dim=16, n_blocks=1, n_heads=2, ffn_dim=16, max_seq_len=96, decode_max_len=10)


@pytest.fixture(scope="session")
def ensemble():
    return load_default_ensemble()


@pytest.fixture(scope="session")
def train_corpus():
    return bundled_train_corpus()


@pytest.fixture(scope="session")
def test_corpus():
    return bundled_test_corpus()


@pytest.fixture(scope="session")
def tiny_lm(ensemble):
    """Fast model for unit tests: small dims, short pretraining, full vocab coverage."""
    corpus = generate_corpus(40, seed=11)
    cfg = PretrainConfig(max_epochs=4, seed=3, model=TINY_MODEL)
    return pretrain(corpus, cfg, extra_texts=list(ensemble.prompts) + [DEFAULT_SOFT_TOKEN_TEXT])


@pytest.fixture(scope="session")
def varied_lm(tiny_lm):
    """A random frozen model over tiny_lm's vocabulary: its summaries differ from note
    to note and from prompt to prompt, in tokens and in length, where tiny_lm's barely
    do, so a summary handed to the wrong note or prompt changes what a test sees."""
    lm = EncoderDecoderLM.initialize(tiny_lm.vocab, replace(TINY_MODEL, embed_bias_std=0.0), seed=6)
    lm.params["dec.out"].data[:, EOS_ID] *= 1.5
    lm.freeze()
    return lm


@pytest.fixture(scope="session")
def tiny_corpus():
    return generate_corpus(40, seed=11)
