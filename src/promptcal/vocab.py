"""Word-level vocabulary with fixed special ids, plus tokenize/detokenize.

Tokenization lowercases and splits sentence punctuation into standalone
tokens; anything else between whitespace stays one word, so strings like
"##1" survive as single (possibly out-of-vocabulary) tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ContractError

PAD_ID, BOS_ID, EOS_ID, SEP_ID, UNK_ID = 0, 1, 2, 3, 4
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<sep>", "<unk>")
UNK_SURFACE = "<unk>"

_PUNCT = ".,;:!?()"
_TOKEN_RE = re.compile(rf"[{re.escape(_PUNCT)}]|[^\s{re.escape(_PUNCT)}]+")


def word_tokens(text: str) -> list[str]:
    """Split text into lowercase word and punctuation tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class TokenSequence:
    """Vocabulary ids for one piece of text, with the original text if known."""

    ids: tuple[int, ...]
    surface: str | None = None

    def __len__(self) -> int:
        return len(self.ids)

    def __bool__(self) -> bool:
        return bool(self.ids)


class Vocabulary:
    """token <-> id bijection; ids 0-4 are the fixed special tokens."""

    def __init__(self, words: Sequence[str]):
        seen = dict.fromkeys(words)  # first occurrences, in order
        for token in SPECIAL_TOKENS:
            seen.pop(token, None)
        self._words: tuple[str, ...] = tuple(seen)
        self._ids = dict(zip(self._words, range(len(SPECIAL_TOKENS), self.size)))

    @classmethod
    def from_texts(cls, texts: Iterable[str]) -> "Vocabulary":
        vocab_words: set[str] = set()
        for text in texts:
            vocab_words.update(word_tokens(text))
        return cls(sorted(vocab_words))

    @property
    def size(self) -> int:
        return len(SPECIAL_TOKENS) + len(self._words)

    @property
    def words(self) -> tuple[str, ...]:
        """Non-special words in id order (for checkpointing)."""
        return self._words

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def token_of(self, idx: int) -> str:
        if not 0 <= idx < self.size:
            raise ContractError(f"token id {idx} out of range for vocabulary of size {self.size}")
        if idx < len(SPECIAL_TOKENS):
            return SPECIAL_TOKENS[idx]
        return self._words[idx - len(SPECIAL_TOKENS)]


def tokenize(text: str, vocab: Vocabulary) -> TokenSequence:
    """Map text to ids; out-of-vocabulary words become UNK. Total on any input."""
    return TokenSequence(tuple(vocab.id_of(w) for w in word_tokens(text)), surface=text)


def detokenize(seq: TokenSequence, vocab: Vocabulary) -> str:
    """Space-join surface tokens. PAD/BOS/EOS/SEP are dropped; UNK renders as
    its sentinel so tokenize(detokenize(s)) reproduces s at the id level."""
    parts = []
    for idx in seq.ids:
        token = vocab.token_of(idx)
        if idx == UNK_ID:
            parts.append(UNK_SURFACE)
        elif idx >= len(SPECIAL_TOKENS):
            parts.append(token)
    return " ".join(parts)


def concat(*seqs: TokenSequence) -> TokenSequence:
    ids: tuple[int, ...] = ()
    for s in seqs:
        ids += s.ids
    return TokenSequence(ids)


def sep_sequence() -> TokenSequence:
    return TokenSequence((SEP_ID,))
