"""Surrogate model tests: encoding, greedy decoding, projection, pretraining,
and the freeze contract."""

import hashlib
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from promptcal import autodiff as ad
from promptcal import checkpoint as checkpoint_module
from promptcal import model as model_module
from promptcal.corpus import generate_corpus
from promptcal.errors import ContractError, ShapeError
from promptcal.model import (
    ENCODE_ROWS,
    LOCKSTEP_ROWS,
    ROW_MULTIPLES,
    STALL_WINDOW,
    ConvergenceRule,
    DecodedRows,
    EncoderDecoderLM,
    KVCache,
    ModelConfig,
    PretrainConfig,
    decoder_product_shapes,
    lockstep_row_multiple,
    param_shapes,
    position_table,
    pretrain,
    rows_round_alike,
    sequence_forward,
    sinusoidal_positions,
)
from promptcal.vocab import BOS_ID, EOS_ID, SPECIAL_TOKENS, TokenSequence, Vocabulary, tokenize
from conftest import numpy_blas
from tests.test_autodiff import OracleAdam, causal_softmax_and_gradient, oracle_causal_softmax_rows


@pytest.fixture(scope="module")
def lm(tiny_lm):
    return tiny_lm


def seq(lm, text):
    return tokenize(text, lm.vocab)


def oracle_forward(lm, side, ids, context=None, causal=False):
    """One side of the model in plain numpy, with a per-row loop for the causal softmax."""
    p = {name: v.data for name, v in lm.params.items()}
    n = len(ids)
    # the table built here, not through model.position_table, so the oracle stays independent of it
    x = p[f"{side}.embed"][list(ids)] + (sinusoidal_positions(lm.cfg.max_seq_len, lm.cfg.embed_dim)
                                         * lm.cfg.pos_scale)[:n]
    if context is not None:
        x = x + context[None, :]
    for b in range(lm.cfg.n_blocks):
        attn = np.zeros_like(x)
        for h in range(lm.cfg.n_heads):
            base = f"{side}.b{b}.h{h}"
            q, k, v = (x @ p[f"{base}.{w}"] for w in ("wq", "wk", "wv"))
            scores = q @ k.T / np.sqrt(lm.cfg.head_dim)
            weights = np.zeros_like(scores)
            for i in range(n):
                row = scores[i, : i + 1] if causal else scores[i]
                e = np.exp(row - row.max())
                weights[i, : len(row)] = e / e.sum()
            attn += (weights @ v) @ p[f"{base}.wo"]
        x = x + attn
        x = x + np.tanh(x @ p[f"{side}.b{b}.ffn.w1"]) @ p[f"{side}.b{b}.ffn.w2"]
    return x


def decoding_at_most(lm, decode_max_len):
    """A frozen copy of the frozen lm, on the same weights, whose every decode stops after decode_max_len tokens."""
    short = EncoderDecoderLM(lm.vocab, replace(lm.cfg, decode_max_len=decode_max_len), lm.params)
    short.freeze()
    return short


def recompute_greedy(lm, context, max_len):
    """Greedy decode that reruns the whole prefix at every step.

    Stops after EOS, after max_len tokens, or once the prefix reaches
    max_seq_len, so at most max_seq_len - 1 tokens.
    """
    prefix, out = [BOS_ID], []
    while len(out) < max_len:
        x = oracle_forward(lm, "dec", prefix, context, causal=True)
        out.append(int(np.argmax(x[-1] @ lm.params["dec.out"].data)))
        if out[-1] == EOS_ID:
            break
        prefix.append(out[-1])
        if len(prefix) >= lm.cfg.max_seq_len:
            break
    return tuple(out)


class TestEncode:
    def test_deterministic(self, lm):
        s = seq(lm, "no pneumothorax is identified.")
        a = lm.encode(s)
        b = lm.encode(s)
        assert a.pooled.data.tobytes() == b.pooled.data.tobytes()
        assert a.per_token.data.tobytes() == b.per_token.data.tobytes()

    def test_pooled_is_mean_of_rows(self, lm):
        s = seq(lm, "mild edema is seen in the left lower lobe.")
        enc = lm.encode(s)
        n, d = enc.per_token.shape
        expected = np.array([
            sum(enc.per_token.data[i][j] for i in range(n)) / n for j in range(d)
        ])
        np.testing.assert_allclose(enc.pooled.data, expected, atol=1e-12)

    def test_single_token_pooled_equals_row(self, lm):
        s = TokenSequence((lm.vocab.id_of("no"),))
        enc = lm.encode(s)
        np.testing.assert_array_equal(enc.pooled.data, enc.per_token.data[0])

    def test_empty_rejected(self, lm):
        with pytest.raises(ContractError, match="empty"):
            lm.encode(TokenSequence(()))

    def test_too_long_rejected(self, lm):
        s = TokenSequence((5,) * (lm.cfg.max_seq_len + 1))
        with pytest.raises(ShapeError):
            lm.encode(s)

    def test_attention_free_path_is_permutation_invariant(self):
        # with zero blocks the pooled embedding is mean(embed) + mean(pos),
        # so permuting the tokens cannot change it
        cfg = ModelConfig(embed_dim=8, n_blocks=0, n_heads=1, ffn_dim=8, max_seq_len=16)
        vocab = Vocabulary(["a", "b", "c", "d"])
        lm = EncoderDecoderLM.initialize(vocab, cfg, seed=0)
        lm.freeze()
        ids = (5, 6, 7, 8)
        permuted = (7, 5, 8, 6)
        a = lm.encode(TokenSequence(ids)).pooled.data
        b = lm.encode(TokenSequence(permuted)).pooled.data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_requires_frozen(self):
        cfg = ModelConfig(embed_dim=8, n_blocks=1, n_heads=1, ffn_dim=8)
        lm = EncoderDecoderLM.initialize(Vocabulary(["a"]), cfg, seed=1)
        with pytest.raises(ContractError, match="encode requires a frozen model"):
            lm.encode(TokenSequence((4,)))


def random_seqs(lm, lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [TokenSequence(tuple(int(i) for i in rng.integers(4, lm.vocab.size, size=n))) for n in lengths]


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


class TestEncodeMany:
    def assert_rows_equal_encode(self, lm, seqs):
        pooled = lm.encode_many(seqs)
        assert pooled.shape == (len(seqs), lm.cfg.embed_dim)
        for row, s in zip(pooled, seqs):
            np.testing.assert_array_equal(row, lm.encode(s).pooled.data)

    def test_ragged_rows_equal_encode_in_input_order(self, lm):
        lengths = [5, 1, lm.cfg.max_seq_len, 3, 5, 1, 17, lm.cfg.max_seq_len, 3, 5]
        self.assert_rows_equal_encode(lm, random_seqs(lm, lengths))

    def test_more_equal_length_rows_than_the_chunk_bound(self, lm):
        self.assert_rows_equal_encode(lm, random_seqs(lm, [7] * (2 * ENCODE_ROWS + 3) + [2, 9]))

    def test_duplicates_get_equal_rows(self, lm):
        a, b = random_seqs(lm, [6, 6], seed=1)
        seqs = [a, b, a, a, b] * ENCODE_ROWS
        pooled = lm.encode_many(seqs)
        for row, s in zip(pooled, seqs):
            np.testing.assert_array_equal(row, pooled[0] if s is a else pooled[1])
        self.assert_rows_equal_encode(lm, seqs[:5])

    def test_one_stacked_forward_per_chunk_of_a_length_group(self, lm, monkeypatch):
        calls = []
        forward = model_module.sequence_forward

        def counting(params, prefix, ids, cfg, **kwargs):
            calls.append((len(ids), kwargs["rows"]))
            return forward(params, prefix, ids, cfg, **kwargs)

        monkeypatch.setattr(model_module, "sequence_forward", counting)
        lengths = [4] * (ENCODE_ROWS + 1) + [9] * 2 + [1]
        lm.encode_many(random_seqs(lm, lengths))
        # (ids, rows) per call: length groups in order of first appearance
        assert calls == [(4 * ENCODE_ROWS, ENCODE_ROWS), (4, 1), (9 * 2, 2), (1, 1)]

    def test_no_sequences_give_no_rows(self, lm):
        assert lm.encode_many([]).shape == (0, lm.cfg.embed_dim)

    @pytest.mark.parametrize("case", ["empty", "too long", "id too large"])
    def test_errors_match_encode(self, lm, case):
        ok = random_seqs(lm, [3, 4], seed=2)
        bad = {
            "empty": TokenSequence(()),
            "too long": TokenSequence((5,) * (lm.cfg.max_seq_len + 1)),
            "id too large": TokenSequence((5, lm.vocab.size, 6)),
        }[case]
        assert raised(lm.encode_many, [*ok, bad]) == raised(lm.encode, bad)


class TestDecodeGreedy:
    def test_deterministic(self, lm):
        ctx = lm.encode(seq(lm, "stable effusion.")).pooled
        a = lm.decode_greedy(ctx)
        b = lm.decode_greedy(ctx)
        assert a.ids == b.ids

    def test_length_bounded(self, lm):
        short = decoding_at_most(lm, 6)
        rng = np.random.default_rng(0)
        for _ in range(5):
            ctx = ad.value(rng.normal(size=lm.cfg.embed_dim))
            out = short.decode_greedy(ctx)
            assert len(out.ids) <= 6

    def test_stops_after_eos(self, lm):
        ctx = lm.encode(seq(lm, "no edema.")).pooled
        out = lm.decode_greedy(ctx)
        if EOS_ID in out.ids:
            assert out.ids.index(EOS_ID) == len(out.ids) - 1

    def test_argmax_matches_step_logit_oracle(self, lm):
        ctx = lm.encode(seq(lm, "mild congestion.")).pooled
        assert decoding_at_most(lm, 8).decode_greedy(ctx).ids == recompute_greedy(lm, ctx.data, max_len=8)

    def test_stop_length_matches_recompute_oracle(self):
        # decode_max_len beyond max_seq_len: the decode stops once the prefix
        # it would feed next reaches max_seq_len, after max_seq_len - 1 tokens
        cfg = ModelConfig(embed_dim=16, n_blocks=1, n_heads=2, ffn_dim=16, max_seq_len=8, decode_max_len=20)
        lm = EncoderDecoderLM.initialize(Vocabulary([f"w{i}" for i in range(40)]), cfg, seed=3)
        lm.freeze()
        rng = np.random.default_rng(5)
        lengths = []
        for _ in range(5):
            ctx = rng.normal(size=cfg.embed_dim)
            expected = recompute_greedy(lm, ctx, max_len=20)
            assert lm.decode_greedy(ctx).ids == expected
            lengths.append(len(expected))
        assert cfg.max_seq_len - 1 in lengths

    def test_gradient_context_decodes_as_constant(self, lm):
        ctx = lm.encode(seq(lm, "stable effusion.")).pooled.data
        assert lm.decode_greedy(ad.param(ctx)).ids == lm.decode_greedy(ctx).ids

    def test_requires_frozen(self):
        cfg = ModelConfig(embed_dim=8, n_blocks=1, n_heads=1, ffn_dim=8)
        lm = EncoderDecoderLM.initialize(Vocabulary(["a"]), cfg, seed=1)
        with pytest.raises(ContractError):
            lm.decode_greedy(ad.value(np.zeros(8)))


def small_lm(n_blocks):
    # head_dim 32, as in the default config: at that width BLAS rounds q @ k.T
    # differently from q @ k.T.copy(), which the graph path multiplies by
    cfg = ModelConfig(embed_dim=64, n_blocks=n_blocks, n_heads=2, ffn_dim=16, max_seq_len=12)
    lm = EncoderDecoderLM.initialize(Vocabulary([f"w{i}" for i in range(20)]), cfg, seed=0)
    lm.freeze()
    return lm


def trainable_copy(params, names=None):
    """The same values, with the named parameters (default: all) trainable."""
    out = {}
    for name, p in params.items():
        train = names is None or name in names
        out[name] = ad.param(p.data.copy()) if train else ad.value(p.data)
    return out


class TestInferencePath:
    """sequence_forward's three modes: the graph, frozen encoder stacks and cached decode steps."""

    @pytest.mark.parametrize("rows", [1, ENCODE_ROWS])
    @pytest.mark.parametrize("n_blocks", [0, 1, 2])
    def test_stacks_are_bit_identical_to_graph(self, n_blocks, rows):
        lm = small_lm(n_blocks)
        graph_params = trainable_copy(lm.params)
        rng = np.random.default_rng(n_blocks)
        for n in range(1, lm.cfg.max_seq_len + 1):
            ids = rng.integers(0, lm.vocab.size, size=(rows, n)).tolist()
            stacked = sequence_forward(lm.params, "enc", sum(ids, []), lm.cfg, rows=rows)
            assert stacked.shape == (rows, n, lm.cfg.embed_dim)
            assert not stacked.requires_grad and stacked._parents == ()
            for row, one in zip(stacked.data, ids):
                graph = sequence_forward(graph_params, "enc", one, lm.cfg)
                assert graph.requires_grad
                np.testing.assert_array_equal(row, graph.data)

    @pytest.mark.parametrize("with_context", [False, True], ids=["bare", "context"])
    @pytest.mark.parametrize("n_blocks", [0, 1, 2])
    def test_cached_first_step_is_bit_identical_to_graph(self, n_blocks, with_context):
        lm = small_lm(n_blocks)
        ctx = ad.value(np.random.default_rng(1).normal(size=lm.cfg.embed_dim)) if with_context else None
        graph = sequence_forward(trainable_copy(lm.params), "dec", [BOS_ID], lm.cfg,
                                 context=ctx, causal=True)
        cached = sequence_forward(lm.params, "dec", [BOS_ID], lm.cfg,
                                  context=ctx, causal=True, cache=KVCache(lm.cfg))
        np.testing.assert_array_equal(cached.data, graph.data)

    @pytest.mark.parametrize("with_context", [False, True], ids=["bare", "context"])
    @pytest.mark.parametrize("n_blocks", [0, 1, 2])
    def test_cached_steps_match_full_forward_rows(self, n_blocks, with_context):
        # later rows may differ in the last bits: BLAS rounds a row of X @ W
        # differently depending on how many rows X has
        lm = small_lm(n_blocks)
        ctx = ad.value(np.random.default_rng(2).normal(size=lm.cfg.embed_dim)) if with_context else None
        ids = [BOS_ID] + [int(i) for i in np.random.default_rng(3).integers(4, lm.vocab.size, 11)]
        full = sequence_forward(lm.params, "dec", ids, lm.cfg, context=ctx, causal=True).data
        cache = KVCache(lm.cfg)
        for i, token in enumerate(ids):
            row = sequence_forward(lm.params, "dec", [token], lm.cfg, context=ctx, causal=True, cache=cache)
            np.testing.assert_allclose(row.data[0], full[i], rtol=1e-12, atol=1e-12)
        assert cache.length == len(ids)

    @pytest.mark.parametrize("name", [
        "enc.embed", "enc.b0.h0.wq", "enc.b0.h1.wk", "enc.b1.h0.wv", "enc.b1.h1.wo",
        "enc.b0.ffn.w1", "enc.b1.ffn.w2",
    ])
    def test_one_trainable_parameter_keeps_the_graph(self, name):
        lm = small_lm(2)
        params = trainable_copy(lm.params, {name})
        out = sequence_forward(params, "enc", [4, 5, 6], lm.cfg)
        assert out.requires_grad
        ad.backward(ad.sum_all(out))
        assert np.any(params[name].grad != 0)

    def test_trainable_context_keeps_the_graph(self):
        lm = small_lm(1)
        ctx = ad.param(np.random.default_rng(4).normal(size=lm.cfg.embed_dim))
        out = sequence_forward(lm.params, "dec", [BOS_ID, 5], lm.cfg, context=ctx, causal=True)
        assert out.requires_grad
        ad.backward(ad.sum_all(out))
        assert np.any(ctx.grad != 0)

    def test_graph_context_is_one_vector(self):
        lm = small_lm(1)
        with pytest.raises(ShapeError):
            sequence_forward(trainable_copy(lm.params), "dec", [BOS_ID, 5], lm.cfg,
                             context=ad.value(np.zeros((2, lm.cfg.embed_dim))), causal=True)

    @pytest.mark.parametrize("case", ["trainable side", "trainable context", "context", "causal", "cache",
                                      "ids not a multiple of rows", "zero rows"])
    def test_stacked_call_only_runs_frozen_unmasked_sequences(self, case):
        lm = small_lm(1)
        params = trainable_copy(lm.params) if case == "trainable side" else lm.params
        make_ctx = {"trainable context": ad.param, "context": ad.value}.get(case)
        ctx = make_ctx(np.zeros(lm.cfg.embed_dim)) if make_ctx else None
        rows = {"ids not a multiple of rows": 4, "zero rows": 0}.get(case, 2)
        with pytest.raises(ContractError, match="stacked call"):
            sequence_forward(params, "enc", [4, 5, 6, 7, 8, 9], lm.cfg, context=ctx, causal=case == "causal",
                             cache=KVCache(lm.cfg) if case == "cache" else None, rows=rows)

    @pytest.mark.parametrize("case", ["trainable", "trainable context", "two ids", "not causal"])
    def test_cache_only_extends_a_frozen_causal_decode(self, case):
        lm = small_lm(1)
        params = trainable_copy(lm.params) if case == "trainable" else lm.params
        ids = [BOS_ID, 5] if case == "two ids" else [BOS_ID]
        ctx = ad.param(np.zeros(lm.cfg.embed_dim)) if case == "trainable context" else None
        with pytest.raises(ContractError, match="cache"):
            sequence_forward(params, "dec", ids, lm.cfg, context=ctx, causal=case != "not causal",
                             cache=KVCache(lm.cfg))

    def test_cached_steps_check_the_side_once_per_cache(self):
        class CountingParams(dict):
            scans = 0

            def items(self):
                CountingParams.scans += 1
                return super().items()

        lm = small_lm(1)
        params = CountingParams(lm.params)
        cache = KVCache(lm.cfg)
        for token in [BOS_ID, 5, 6, 7]:
            sequence_forward(params, "dec", [token], lm.cfg, causal=True, cache=cache)
        assert CountingParams.scans == 1

    @pytest.mark.parametrize("path", ["graph", "cached", "one row", "stacked"])
    @pytest.mark.parametrize("case, error, match", [
        ("empty", ContractError, "empty"),
        ("overlong", ShapeError, "exceeds max_sequence_length"),
        ("id too large", ContractError, "out of range"),
        ("negative id", ContractError, "out of range"),
    ])
    def test_errors_match_across_paths(self, path, case, error, match):
        lm = small_lm(1)
        params = trainable_copy(lm.params) if path == "graph" else lm.params
        cache = KVCache(lm.cfg) if path == "cached" else None
        bad = {"empty": [], "id too large": [lm.vocab.size], "negative id": [-1]}
        if case == "overlong":
            if cache is None:
                ids = [5] * (lm.cfg.max_seq_len + 1)
            else:
                for token in [BOS_ID] + [5] * (lm.cfg.max_seq_len - 1):
                    sequence_forward(params, "dec", [token], lm.cfg, causal=True, cache=cache)
                ids = [5]
        else:
            ids = bad[case]
        with pytest.raises(error, match=match):
            if path == "one row":  # the one-sequence stack that encode runs
                sequence_forward(params, "enc", ids, lm.cfg, rows=1)
            elif path == "stacked":  # two copies of the sequence through the encoder's stacked call
                sequence_forward(params, "enc", ids * 2, lm.cfg, rows=2)
            else:
                sequence_forward(params, "dec", ids, lm.cfg, causal=True, cache=cache)


# (d, head_dim, ffn_dim, vocabulary size): the default config with the bundled
# corpus's vocabulary, and the tiny test model.
PRODUCT_DIMS = [(64, 32, 64, 175), (16, 8, 16, 120)]


def weight_shapes(d, dh, ffn, vocab_size):
    """Every weight shape a forward pass multiplies rows by, one head's projections at a time."""
    return [(d, dh), (dh, d), (d, ffn), (ffn, d), (d, vocab_size)]


# The longest sequence the default config encodes.
MAX_SEQ_LEN = ModelConfig().max_seq_len


class TestStackedProducts:
    """The premise of lockstep decoding and of encode_many: a 2-D product at a
    measured row multiple rounds each row (decoding), and a stacked product
    each row or sequence (attention, encoding), as computing it alone does.
    Likewise causal_softmax_rows, which runs its elementwise steps on the
    whole matrix, rounds each row as the softmax of its slice does."""

    def test_causal_softmax_equals_per_row_oracle(self):
        rng = np.random.default_rng(96)
        for n in range(1, MAX_SEQ_LEN + 1):
            upper = ~np.tri(n, dtype=bool)
            for scale in (1.0, 30.0, 1e3):
                m, g = rng.uniform(-scale, scale, size=(2, n, n))
                # Far-below-max entries underflow in exp, as in the oracle; no
                # other floating-point exception may occur.
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    s, grad = causal_softmax_and_gradient(m, g)
                expected_s, expected_grad = oracle_causal_softmax_rows(m, g)
                assert s.tobytes() == expected_s.tobytes()
                assert grad.tobytes() == expected_grad.tobytes()
                for out in (s, grad):
                    assert not np.signbit(out[upper]).any() and not out[upper].any()

    def test_causal_softmax_raises_no_floating_point_exception(self):
        # Entries within +-300 cannot underflow in exp, so every exception
        # would come from the masked upper triangle, which holds inf and NaN.
        rng = np.random.default_rng(97)
        for n in range(1, MAX_SEQ_LEN + 1):
            upper = ~np.tri(n, dtype=bool)
            m, g = rng.uniform(-300.0, 300.0, size=(2, n, n))
            m[upper] = rng.choice([np.inf, -np.inf, np.nan, 1e308], size=upper.sum())
            g[upper] = rng.choice([np.inf, -np.inf, -1e308], size=upper.sum())
            with np.errstate(all="raise"):
                s, grad = causal_softmax_and_gradient(m, g)
            expected_s, expected_grad = oracle_causal_softmax_rows(m, g)
            assert s.tobytes() == expected_s.tobytes()
            assert grad.tobytes() == expected_grad.tobytes()

    @pytest.mark.parametrize("dims", PRODUCT_DIMS)
    def test_2d_products_round_a_row_alike_at_every_row_multiple(self, dims):
        # decode_step's products, at every multiple of the measured row multiple
        # up to 2 x LOCKSTEP_ROWS, with other weights than the measurement's
        d, dh, ffn, vocab_size = dims
        shapes = decoder_product_shapes(ModelConfig(embed_dim=d, n_heads=d // dh, ffn_dim=ffn), vocab_size)
        multiple = lockstep_row_multiple(shapes, LOCKSTEP_ROWS)
        assert multiple in ROW_MULTIPLES
        rng = np.random.default_rng(dims)
        for shape in shapes:
            w = rng.normal(size=shape)
            assert rows_round_alike(w, multiple, 2 * LOCKSTEP_ROWS), shape

    @pytest.mark.parametrize("d, head_dim", sorted({dims[:2] for dims in PRODUCT_DIMS}))
    def test_head_stacked_output_projection_equals_each_heads_2d_product(self, d, head_dim):
        # as in decode_step: [H x rows x dh] @ [H x dh x d], one product per head
        heads = d // head_dim
        rng = np.random.default_rng(d + 2)
        wo = rng.normal(size=(heads, head_dim, d))
        for rows in range(1, 2 * LOCKSTEP_ROWS + 1):
            mixed = rng.normal(size=(heads, rows, 1, head_dim))
            stacked = mixed[:, :, 0] @ wo
            for h in range(heads):
                assert stacked[h].tobytes() == (mixed[h, :, 0] @ wo[h]).tobytes()

    @pytest.mark.parametrize("head_dim", sorted({dims[1] for dims in PRODUCT_DIMS}))
    def test_batched_attention_equals_per_row(self, head_dim):
        # keys and values laid out as in KVCache: position-major, read row-major
        rng = np.random.default_rng(head_dim)
        max_seq_len = 25
        for rows in (1, 2, 7, LOCKSTEP_ROWS):
            store = rng.normal(size=(2, max_seq_len, LOCKSTEP_ROWS, head_dim)).swapaxes(1, 2)
            q = rng.normal(size=(rows, 1, head_dim))
            for n in range(1, max_seq_len + 1):
                keys, values = store[0, :rows, :n], store[1, :rows, :n]
                scores = (q @ keys.swapaxes(-1, -2).copy())[:, 0]
                probs = ad.softmax_rows(ad.value(scores)).data
                mixed = (probs[:, None, :] @ values)[:, 0]
                for i in range(rows):
                    row_keys = np.ascontiguousarray(keys[i])
                    row_scores = q[i] @ row_keys.T.copy()
                    row_probs = ad.softmax_rows(ad.value(row_scores)).data
                    np.testing.assert_array_equal(scores[i], row_scores[0])
                    np.testing.assert_array_equal(probs[i], row_probs[0])
                    np.testing.assert_array_equal(mixed[i], (row_probs @ np.ascontiguousarray(values[i]))[0])


    @pytest.mark.parametrize("shape", sorted({s for dims in PRODUCT_DIMS for s in weight_shapes(*dims)}))
    def test_stacked_sequences_equal_one_sequence_products(self, shape):
        rng = np.random.default_rng(shape)
        w = rng.normal(size=shape)
        for n in range(1, MAX_SEQ_LEN + 1):
            x = rng.normal(size=(ENCODE_ROWS, n, shape[0]))
            alone = np.stack([x[i] @ w for i in range(ENCODE_ROWS)])
            for rows in range(1, ENCODE_ROWS + 1):
                np.testing.assert_array_equal(x[:rows] @ w, alone[:rows])

    @pytest.mark.parametrize("head_dim", sorted({dims[1] for dims in PRODUCT_DIMS}))
    def test_stacked_sequence_attention_equals_per_sequence(self, head_dim):
        # as in sequence_forward: scores against a copied key transpose, the
        # softmax over every sequence's score rows at once
        rng = np.random.default_rng(head_dim)
        for n in range(1, MAX_SEQ_LEN + 1):
            q, k, v = rng.normal(size=(3, ENCODE_ROWS, n, head_dim))
            scores = q @ k.swapaxes(-1, -2).copy()
            probs = ad.softmax_rows(ad.value(scores.reshape(-1, n))).data.reshape(scores.shape)
            mixed = probs @ v
            for i in range(ENCODE_ROWS):
                row_scores = q[i] @ k[i].T.copy()
                row_probs = ad.softmax_rows(ad.value(row_scores)).data
                np.testing.assert_array_equal(scores[i], row_scores)
                np.testing.assert_array_equal(probs[i], row_probs)
                np.testing.assert_array_equal(mixed[i], row_probs @ v[i])

    @pytest.mark.parametrize("d, head_dim", sorted({dims[:2] for dims in PRODUCT_DIMS}))
    def test_one_row_fused_projection_equals_each_heads_product(self, d, head_dim):
        # as in a one-row plain-cache decode_step: [1 x d] @ [d x 3*H*dh], every
        # head's wq, then wk, then wv, against the graph path's per-head products
        heads = d // head_dim
        rng = np.random.default_rng(d)
        w = rng.normal(size=(3, heads, d, head_dim))
        fused = np.concatenate([w[j, h] for j in range(3) for h in range(heads)], axis=1)
        for _ in range(40):
            x = rng.normal(size=(1, d))
            qkv = (x @ fused).reshape(3, heads, head_dim)
            for j in range(3):
                for h in range(heads):
                    assert qkv[j, h].tobytes() == (x @ w[j, h])[0].tobytes()

    @pytest.mark.parametrize("d, head_dim", sorted({dims[:2] for dims in PRODUCT_DIMS}))
    def test_head_batched_attention_equals_each_head_and_row_alone(self, d, head_dim):
        # as in decode_step: the query a strided view of the fused projection,
        # keys and values laid out as in KVCache, the scores, softmax and mix of
        # values one stacked product each over every (head, row)
        heads = d // head_dim
        rng = np.random.default_rng(d + 1)
        max_seq_len = 25
        inv_sqrt_dh = 1.0 / np.sqrt(head_dim)
        fused = rng.normal(size=(d, 3 * heads * head_dim))
        for rows in (1, 2, 7, LOCKSTEP_ROWS):
            store = rng.normal(size=(2, max_seq_len, LOCKSTEP_ROWS, heads, head_dim)).transpose(0, 3, 2, 1, 4)
            x = rng.normal(size=(rows, d))
            q = (x @ fused).reshape(rows, 3, heads, 1, head_dim).transpose(1, 2, 0, 3, 4)[0]
            for n in range(1, max_seq_len + 1):
                keys, values = store[0, :, :rows, :n], store[1, :, :rows, :n]
                scores = q @ keys.swapaxes(-1, -2).copy()
                scores *= inv_sqrt_dh
                probs = ad.softmax_rows(scores.reshape(-1, n)).reshape(scores.shape)
                mixed = probs @ values
                for h in range(heads):
                    for i in range(rows):
                        one_scores = (q[h, i] @ np.ascontiguousarray(keys[h, i]).T.copy()) * inv_sqrt_dh
                        one_probs = ad.softmax_rows(one_scores)
                        assert probs[h, i].tobytes() == one_probs.tobytes()
                        assert mixed[h, i].tobytes() == (one_probs @ np.ascontiguousarray(values[h, i])).tobytes()

    @pytest.mark.parametrize("d", sorted({dims[0] for dims in PRODUCT_DIMS}))
    def test_stacked_pooling_equals_per_sequence_mean_rows(self, d):
        rng = np.random.default_rng(d)
        for n in range(1, MAX_SEQ_LEN + 1):
            x = rng.normal(size=(ENCODE_ROWS, n, d))
            alone = np.stack([ad.mean_rows(ad.value(x[i])).data for i in range(ENCODE_ROWS)])
            np.testing.assert_array_equal(x.mean(axis=1), alone)


@pytest.mark.skipif("openblas" not in str(numpy_blas().get("name")).lower(), reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.parametrize("coretype", ["Haswell", "Sandybridge", "Nehalem"])
def test_stacked_products_hold_under_other_blas_kernels(coretype):
    """The premise above, rerun in a child process that forces another OpenBLAS kernel."""
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, OPENBLAS_NUM_THREADS="1")
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{Path(__file__).resolve()}::TestStackedProducts"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-3000:]


@pytest.fixture(scope="module")
def stopping_lm():
    """A random model whose EOS column is scaled so that rows stop on many different steps."""
    cfg = ModelConfig(embed_dim=16, n_blocks=2, n_heads=2, ffn_dim=16, max_seq_len=12)
    lm = EncoderDecoderLM.initialize(Vocabulary([f"w{i}" for i in range(40)]), cfg, seed=3)
    lm.params["dec.out"].data[:, EOS_ID] *= 1.5
    lm.freeze()
    contexts = np.random.default_rng(3).normal(size=(50, cfg.embed_dim)) * 2
    return lm, contexts


class TestLockstepDecode:
    @pytest.mark.parametrize("max_len", [6, 20], ids=["max_len", "max_seq_len"])
    def test_rows_stop_at_eos_max_len_and_max_seq_len_on_different_steps(self, stopping_lm, max_len):
        lm, contexts = stopping_lm
        rows = decoding_at_most(lm, max_len).decode_greedy(contexts).rows
        eos_steps = {len(r.ids) for r in rows if r.ids[-1] == EOS_ID}
        cut = [len(r.ids) for r in rows if r.ids[-1] != EOS_ID]
        assert len(eos_steps) >= 4
        assert cut and set(cut) == {min(max_len, lm.cfg.max_seq_len - 1)}

    @pytest.mark.parametrize("max_len", [6, 20], ids=["max_len", "max_seq_len"])
    @pytest.mark.parametrize("n_rows", [1, 2, 7, 16, 17, 50])
    def test_matrix_decode_equals_per_row_decode_and_oracle(self, stopping_lm, n_rows, max_len):
        lm, contexts = stopping_lm
        short = decoding_at_most(lm, max_len)
        decoded = short.decode_greedy(contexts[:n_rows])
        assert isinstance(decoded, DecodedRows) and len(decoded.rows) == n_rows
        for ctx, row in zip(contexts, decoded.rows):
            assert row.ids == short.decode_greedy(ctx).ids
            assert row.ids == recompute_greedy(lm, ctx, max_len)
        assert decoded.ids == sum((row.ids for row in decoded.rows), ())

    def test_vector_gives_a_token_sequence(self, stopping_lm):
        lm, contexts = stopping_lm
        out = lm.decode_greedy(contexts[0])
        assert isinstance(out, TokenSequence)
        assert (out,) == lm.decode_greedy(contexts[:1]).rows

    @pytest.mark.parametrize("shape", [(0, 16), (2, 15), (2, 16, 1), (15,)])
    def test_bad_context_shape_rejected(self, stopping_lm, shape):
        lm, _ = stopping_lm
        with pytest.raises(ShapeError, match="context"):
            lm.decode_greedy(np.zeros(shape))

    def test_cached_context_must_match_live_rows(self, stopping_lm):
        lm, contexts = stopping_lm
        with pytest.raises(ShapeError, match="context"):
            sequence_forward(lm.params, "dec", [BOS_ID] * 2, lm.cfg, context=ad.value(contexts[:3]),
                             causal=True, cache=KVCache(lm.cfg, rows=2))

    @pytest.mark.parametrize("n_rows", [2, 7, LOCKSTEP_ROWS])
    def test_lockstep_steps_are_bit_identical_to_one_row_steps(self, n_rows):
        # default widths, products over the row multiple decode_greedy uses;
        # halfway, every other row ends and the cache compacts, and at three
        # quarters all but one row end
        lm = small_lm(2)
        multiple = lockstep_row_multiple(decoder_product_shapes(lm.cfg, lm.vocab.size), LOCKSTEP_ROWS)
        rng = np.random.default_rng(n_rows)
        contexts = rng.normal(size=(n_rows, lm.cfg.embed_dim))
        steps = rng.integers(4, lm.vocab.size, size=(lm.cfg.max_seq_len, n_rows))
        steps[0] = BOS_ID
        live = list(range(n_rows))
        lockstep = KVCache(lm.cfg, rows=n_rows, row_multiple=multiple)
        alone = [KVCache(lm.cfg, row_multiple=multiple) for _ in live]
        for n, step in enumerate(steps):
            if n == lm.cfg.max_seq_len // 2:
                lockstep.keep(list(range(0, len(live), 2)))
                live = live[::2]
            if n == lm.cfg.max_seq_len * 3 // 4:
                lockstep.keep([len(live) - 1])
                live = live[-1:]
            rows = sequence_forward(lm.params, "dec", step[live].tolist(), lm.cfg,
                                    context=ad.value(contexts[live]), causal=True, cache=lockstep).data
            for slot, i in enumerate(live):
                row = sequence_forward(lm.params, "dec", [int(step[i])], lm.cfg,
                                       context=ad.value(contexts[i]), causal=True, cache=alone[i]).data
                np.testing.assert_array_equal(rows[slot], row[0])
            assert len(rows) % multiple == 0 and not rows[len(live):].any()
        assert lockstep.rows == 1

    def test_cache_refuses_a_position_beyond_its_capacity(self, stopping_lm):
        lm = decoding_at_most(stopping_lm[0], 2)
        cache = KVCache(lm.cfg)
        for token in (BOS_ID, 5):
            sequence_forward(lm.params, "dec", [token], lm.cfg, causal=True, cache=cache)
        with pytest.raises(ShapeError, match="cache's 2 positions"):
            sequence_forward(lm.params, "dec", [6], lm.cfg, causal=True, cache=cache)

    @pytest.mark.parametrize("decode_max_len, max_seq_len", [(5, 12), (20, 8)])
    def test_cache_holds_the_positions_a_decode_can_feed(self, decode_max_len, max_seq_len):
        cfg = ModelConfig(embed_dim=8, n_blocks=1, n_heads=2, ffn_dim=8, max_seq_len=max_seq_len,
                          decode_max_len=decode_max_len)
        cache = KVCache(cfg, rows=3)
        assert cache.positions == min(decode_max_len, max_seq_len)
        assert cache.keys.shape == (1, 2, 3, cache.positions, 4)

    def test_head_batched_weights_are_built_once_per_lockstep_group(self, stopping_lm, monkeypatch):
        lm, contexts = stopping_lm
        built = []
        block_weights = model_module.block_weights
        monkeypatch.setattr(model_module, "block_weights", lambda *args: built.append(args) or block_weights(*args))
        decoding_at_most(lm, 6).decode_greedy(contexts[:LOCKSTEP_ROWS + 1])
        assert len(built) == 2

    def test_compaction_keeps_the_live_rows_in_order(self, stopping_lm):
        lm, contexts = stopping_lm
        cache = KVCache(lm.cfg, rows=4)
        for token in (BOS_ID, 5, 6):
            sequence_forward(lm.params, "dec", [token] * 4, lm.cfg, context=ad.value(contexts[:4]),
                             causal=True, cache=cache)
        keys = cache.keys[:, :, :4, :3].copy()
        cache.keep([1, 3])
        assert cache.rows == 2 and cache.length == 3
        np.testing.assert_array_equal(cache.keys[:, :, :2, :3], keys[:, :, [1, 3]])


class TestNearestToken:
    def test_exact_row_recovered(self, lm):
        tid = lm.vocab.id_of("no")
        v = lm.params["enc.embed"].data[tid].copy()
        assert lm.nearest_token(v) == tid

    def test_tie_breaks_to_lowest_id(self):
        cfg = ModelConfig(embed_dim=4, n_blocks=0, n_heads=1, ffn_dim=4)
        vocab = Vocabulary([f"w{i}" for i in range(20)])
        lm = EncoderDecoderLM.initialize(vocab, cfg, seed=2)
        table = lm.params["enc.embed"].data
        table[7] = np.array([1.0, 0.0, 0.0, 0.0])
        table[12] = np.array([-1.0, 0.0, 0.0, 0.0])
        lm.freeze()
        assert lm.nearest_token(np.zeros(4)) == 7

    def test_matches_full_scan_oracle(self, lm):
        rng = np.random.default_rng(3)
        table = lm.params["enc.embed"].data
        for _ in range(20):
            v = rng.normal(size=lm.cfg.embed_dim) * 2
            best, best_dist = None, None
            for i in range(table.shape[0]):
                dist = float(((table[i] - v) ** 2).sum())
                if best_dist is None or dist < best_dist:
                    best, best_dist = i, dist
            assert lm.nearest_token(v) == best


def oracle_pretrain(corpus, config, log_fn):
    """pretrain as a per-example loop: each step draws its own prefix noise and
    runs its own encoder forward, in both phases."""
    texts = [r.findings for r in corpus] + [r.impression for r in corpus]
    vocab = Vocabulary.from_texts(texts)
    lm = EncoderDecoderLM.initialize(vocab, config.model, config.seed)
    examples = [(tokenize(r.findings, vocab).ids, tokenize(r.impression, vocab).ids) for r in corpus]

    def freeze_encoder_side():
        for name, p in lm.params.items():
            if name.startswith("enc."):
                p.requires_grad = False
                p.grad = None
                p.data = p.data.copy()

    encoder_epochs = min(config.encoder_train_epochs, config.max_epochs)
    if encoder_epochs == 0:
        freeze_encoder_side()
    trainable = lm.trainable()
    opt = model_module.Adam(trainable, learning_rate=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    rule = model_module.ConvergenceRule(config.convergence_tol)
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(examples))
        total = 0.0
        for idx in order:
            src_ids, tgt_ids = examples[idx]
            if config.prefix_noise_prob > 0 and rng.random() < config.prefix_noise_prob:
                n_noise = int(rng.integers(1, config.prefix_noise_max + 1))
                noise_ids = tuple(
                    int(x) for x in rng.integers(len(SPECIAL_TOKENS), vocab.size, size=n_noise)
                )
                src_ids = noise_ids + src_ids
            pooled = ad.mean_rows(sequence_forward(lm.params, "enc", src_ids, config.model))
            x = sequence_forward(lm.params, "dec", (BOS_ID,) + tgt_ids, config.model,
                                 context=pooled, causal=True)
            loss = ad.token_cross_entropy(ad.matmul(x, lm.params["dec.out"]), tgt_ids + (EOS_ID,))
            total += float(loss.data)
            ad.backward(loss)
            model_module.clip_gradients(trainable, config.max_grad_norm)
            opt.step()
        mean_loss = total / len(examples)
        log_fn(epoch, mean_loss)
        if epoch == encoder_epochs:
            freeze_encoder_side()
            trainable = lm.trainable()
            opt = model_module.Adam(trainable, learning_rate=config.learning_rate)
        if rule.update(mean_loss):
            break
    lm.freeze()
    return lm


PRETRAIN_MODEL = ModelConfig(embed_dim=16, n_blocks=1, n_heads=2, ffn_dim=16, max_seq_len=64)


class TestPretrain:
    @pytest.mark.parametrize("settings", [
        dict(max_epochs=3, encoder_train_epochs=1),
        dict(max_epochs=3, encoder_train_epochs=0),
        dict(max_epochs=3, encoder_train_epochs=1, prefix_noise_prob=0.0),
        dict(max_epochs=3, encoder_train_epochs=1, prefix_noise_prob=1.0),
        dict(max_epochs=2, encoder_train_epochs=3),
        dict(max_epochs=12, encoder_train_epochs=1, convergence_tol=1.0),
    ], ids=["encoder-1-of-3", "encoder-0", "noise-0", "noise-1", "max-epochs-below-encoder",
            "converges-early"])
    def test_trains_as_the_per_example_oracle(self, tiny_corpus, settings):
        config = PretrainConfig(seed=4, model=PRETRAIN_MODEL, **settings)

        def run(train):
            losses = []
            lm = train(tiny_corpus[:16], config, log_fn=lambda e, l: losses.append(l))
            return lm.weight_digest(), losses

        got, expected = run(pretrain), run(oracle_pretrain)
        assert got == expected
        # convergence_tol=1.0 makes every epoch after the first a quiet one
        converges = settings.get("convergence_tol") == 1.0
        assert len(got[1]) == (STALL_WINDOW + 1 if converges else config.max_epochs)

    @pytest.mark.parametrize("noise_prob, encode_many_sizes", [(0.0, [16]), (1.0, [16, 16, 16])])
    def test_decoder_only_epochs_encode_through_encode_many(self, tiny_corpus, monkeypatch,
                                                             noise_prob, encode_many_sizes):
        # Bare sources once, then each decoder-only epoch's noised sources in one call.
        sizes, per_example = [], []
        encode_many, forward = EncoderDecoderLM.encode_many, model_module.sequence_forward

        def counted_encode_many(self, seqs):
            sizes.append(len(seqs))
            return encode_many(self, seqs)

        def counted_forward(params, prefix, ids, cfg, *args, **kwargs):
            if prefix == "enc" and kwargs.get("rows") is None:
                per_example.append(len(ids))
            return forward(params, prefix, ids, cfg, *args, **kwargs)

        monkeypatch.setattr(EncoderDecoderLM, "encode_many", counted_encode_many)
        monkeypatch.setattr(model_module, "sequence_forward", counted_forward)
        pretrain(tiny_corpus[:16], PretrainConfig(max_epochs=3, encoder_train_epochs=1, seed=4,
                                                  prefix_noise_prob=noise_prob, model=PRETRAIN_MODEL))
        assert sizes == encode_many_sizes
        assert len(per_example) == 16  # the encoder-training epoch only

    @pytest.mark.parametrize("encoder_train_epochs", [0, 1])
    def test_noised_source_beyond_max_seq_len_raises_shape_error(self, tiny_corpus, encoder_train_epochs):
        config = PretrainConfig(max_epochs=3, encoder_train_epochs=encoder_train_epochs, seed=4,
                                prefix_noise_prob=1.0, prefix_noise_max=64, model=PRETRAIN_MODEL)
        with pytest.raises(ShapeError, match="exceeds max_sequence_length 64"):
            pretrain(tiny_corpus[:16], config)

    def test_loss_halves_and_freezes(self, tiny_corpus):
        losses = []
        cfg = PretrainConfig(max_epochs=12, seed=5, model=ModelConfig(
            embed_dim=16, n_blocks=1, n_heads=2, ffn_dim=16, max_seq_len=64))
        lm = pretrain(tiny_corpus, cfg, log_fn=lambda e, l: losses.append(l))
        assert lm.frozen
        assert losses[-1] <= 0.5 * losses[0]
        assert lm.weight_digest() == lm.frozen_digest

    def test_same_seed_same_digest(self, tiny_corpus):
        cfg = PretrainConfig(max_epochs=2, seed=9, model=ModelConfig(
            embed_dim=16, n_blocks=1, n_heads=2, ffn_dim=16, max_seq_len=64))
        a = pretrain(tiny_corpus[:10], cfg)
        b = pretrain(tiny_corpus[:10], cfg)
        assert a.weight_digest() == b.weight_digest()

    def test_different_seed_different_digest(self, tiny_corpus):
        base = dict(max_epochs=1, model=ModelConfig(embed_dim=16, n_blocks=1, n_heads=2,
                                                    ffn_dim=16, max_seq_len=64))
        a = pretrain(tiny_corpus[:10], PretrainConfig(seed=1, **base))
        b = pretrain(tiny_corpus[:10], PretrainConfig(seed=2, **base))
        assert a.weight_digest() != b.weight_digest()

    def test_flat_adam_trains_as_the_per_parameter_oracle(self, tiny_corpus, monkeypatch):
        # One epoch with the encoder, one without: both optimizers of a pretrain.
        cfg = PretrainConfig(max_epochs=2, encoder_train_epochs=1, seed=3, model=ModelConfig(
            embed_dim=16, n_blocks=1, n_heads=2, ffn_dim=16, max_seq_len=64))

        def run():
            losses = []
            lm = pretrain(tiny_corpus[:12], cfg, log_fn=lambda e, l: losses.append(l))
            return lm.weight_digest(), losses

        flat = run()
        monkeypatch.setattr(model_module, "Adam", OracleAdam)
        oracle = run()
        assert len(flat[1]) == 2
        assert flat == oracle

    def test_empty_corpus_rejected(self):
        with pytest.raises(ContractError):
            pretrain([], PretrainConfig(max_epochs=1))

    def test_missing_impression_rejected(self):
        from promptcal.corpus import CorpusRecord

        rec = CorpusRecord(id="r1", findings="no edema.", impression="")
        with pytest.raises(ContractError, match="'r1'"):
            pretrain([rec], PretrainConfig(max_epochs=1))

    @pytest.mark.parametrize("field, value", [
        ("seed", -1),
        ("max_epochs", 0),
        ("encoder_train_epochs", -1),
        ("prefix_noise_max", 0),
        ("max_grad_norm", 0.0),
        ("learning_rate", 0.0),
        ("learning_rate", -1e-3),
        ("convergence_tol", 0.0),
        ("convergence_tol", -1.0),
        ("prefix_noise_prob", -1.0),
        ("prefix_noise_prob", 2.0),
        ("ffn_dim", 0),
        ("decode_max_len", 0),
        ("max_seq_len", 0),
        ("max_seq_len", -5),
        ("embed_bias_std", -1.0),
        ("embed_noise_std", -1.0),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("max_grad_norm", float("nan")),
        ("convergence_tol", float("nan")),
        ("convergence_tol", float("inf")),
        ("prefix_noise_prob", float("nan")),
        ("embed_bias_std", float("nan")),
        ("embed_noise_std", float("nan")),
        ("embed_noise_std", float("inf")),
        ("pos_scale", float("nan")),
        ("pos_scale", float("-inf")),
        ("n_heads", 0),
        ("embed_dim", 63),
        ("n_blocks", -1),
    ])
    def test_invalid_config_rejected(self, field, value):
        config = ModelConfig if field in ModelConfig.__dataclass_fields__ else PretrainConfig
        with pytest.raises(ContractError, match=f"{field} {value}"):
            config(**{field: value})

    def test_config_bounds_are_inclusive(self):
        PretrainConfig(seed=0, max_epochs=1, encoder_train_epochs=0, prefix_noise_max=1, prefix_noise_prob=0.0)
        PretrainConfig(prefix_noise_prob=1.0, model=ModelConfig(
            ffn_dim=1, decode_max_len=1, embed_bias_std=0.0, embed_noise_std=0.0))

    def test_frozen_params_reject_gradient_machinery(self, lm):
        assert all(not p.requires_grad for p in lm.params.values())
        assert lm.trainable() == []


def one_bit_edited(lm, name):
    """A new frozen model equal to lm but for the lowest bit of params[name]'s first float.

    Frozen weights are read-only, so the edit goes into writable copies.
    """
    params = {n: ad.value(p.data.copy()) for n, p in lm.params.items()}
    params[name].data.reshape(-1).view(np.uint64)[0] ^= 1
    edited = EncoderDecoderLM(lm.vocab, lm.cfg, params)
    edited.freeze()
    return edited


def assert_weights_read_only(lm):
    for p in lm.params.values():
        with pytest.raises(ValueError, match="read-only"):
            p.data.reshape(-1)[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            p.data += 0.0


class TestDigest:
    def test_digest_changes_with_any_parameter_bit(self, tiny_corpus):
        cfg = PretrainConfig(max_epochs=1, seed=4, model=ModelConfig(
            embed_dim=16, n_blocks=1, n_heads=2, ffn_dim=16, max_seq_len=64))
        lm = pretrain(tiny_corpus[:5], cfg)
        for name in ("enc.embed", "dec.out"):
            edited = one_bit_edited(lm, name)
            assert edited.frozen_digest == edited.weight_digest() != lm.weight_digest()

    def test_digest_is_the_sha256_of_the_documented_model_body(self, lm):
        # the documented version-4 body, field by field: version, vocabulary,
        # config, then every weight's floats in param_shapes order
        h = hashlib.sha256()
        words = [w.encode("utf-8") for w in lm.vocab.words]
        h.update(struct.pack("<BI", 4, len(words)))
        for w in words:
            h.update(struct.pack("<H", len(w)) + w)
        c = lm.cfg
        h.update(struct.pack("<6I3d", c.embed_dim, c.n_blocks, c.n_heads, c.ffn_dim, c.max_seq_len,
                             c.decode_max_len, c.embed_bias_std, c.embed_noise_std, c.pos_scale))
        for name in param_shapes(c, lm.vocab.size):
            h.update(lm.params[name].data.astype("<f8").tobytes())
        assert lm.weight_digest() == h.hexdigest()


class TestFreeze:
    def test_weights_read_only_after_pretrain(self, lm):
        assert_weights_read_only(lm)

    def test_weights_read_only_after_initialize_and_freeze(self):
        lm = EncoderDecoderLM.initialize(Vocabulary([f"w{i}" for i in range(20)]),
                                         ModelConfig(embed_dim=8, n_blocks=1, n_heads=2, ffn_dim=8), seed=1)
        assert all(p.data.flags.writeable for p in lm.params.values())
        lm.freeze()
        assert_weights_read_only(lm)

    def test_frozen_digest_is_computed_once_on_first_use(self, monkeypatch):
        calls = []
        write = checkpoint_module.write_model_body
        monkeypatch.setattr(checkpoint_module, "write_model_body",
                            lambda lm, out: calls.append(1) or write(lm, out))
        lm = EncoderDecoderLM.initialize(Vocabulary(["a"]), ModelConfig(embed_dim=8, n_blocks=0, n_heads=1,
                                                                         ffn_dim=8), seed=1)
        with pytest.raises(ContractError, match="not frozen"):
            lm.frozen_digest
        lm.freeze()
        assert calls == []
        assert lm.frozen_digest == lm.frozen_digest == lm.weight_digest()
        assert len(calls) == 2  # the first frozen_digest, then the explicit recompute
        lm.weight_digest()
        assert len(calls) == 3

    def test_pretrained_encoder_owns_its_weights(self, lm):
        # a view would keep the encoder-phase optimizer's whole buffer alive
        assert all(p.data.base is None for name, p in lm.params.items() if name.startswith("enc."))

    def test_param_shapes_lists_what_initialize_makes(self):
        cfg = ModelConfig(embed_dim=8, n_blocks=2, n_heads=2, ffn_dim=6, max_seq_len=12)
        lm = EncoderDecoderLM.initialize(Vocabulary([f"w{i}" for i in range(20)]), cfg, seed=1)
        shapes = param_shapes(cfg, lm.vocab.size)
        assert list(shapes.items()) == [(name, p.shape) for name, p in lm.params.items()]

    def test_param_shapes_lists_no_positional_entry(self):
        cfg = ModelConfig(embed_dim=8, n_blocks=2, n_heads=2, ffn_dim=6, max_seq_len=12)
        shapes = param_shapes(cfg, 25)
        assert not any(name.endswith(".pos") for name in shapes)
        # the embeddings, every block's weights and the vocabulary projection, and nothing else
        assert len(shapes) == 2 * (1 + cfg.n_blocks * (4 * cfg.n_heads + 2)) + 1


class TestPositions:
    def test_sinusoidal_shape_and_range(self):
        table = sinusoidal_positions(10, 8)
        assert table.shape == (10, 8)
        assert np.all(np.abs(table) <= 1.0)

    def test_rows_distinct(self):
        table = sinusoidal_positions(6, 8)
        for i in range(5):
            assert not np.allclose(table[i], table[i + 1])

    def test_table_is_the_scaled_sinusoids_of_the_config(self):
        cfg = ModelConfig(embed_dim=8, n_blocks=1, n_heads=2, ffn_dim=8, max_seq_len=12, pos_scale=0.25)
        table = position_table(cfg)
        assert table.tobytes() == (sinusoidal_positions(12, 8) * 0.25).tobytes()
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        assert position_table(replace(cfg)) is table  # one array per config value
        assert position_table(replace(cfg, pos_scale=0.5)) is not table

    def test_encoder_and_decoder_read_one_table(self, lm, monkeypatch):
        tables = []
        lookup = model_module.position_table
        monkeypatch.setattr(model_module, "position_table", lambda cfg: tables.append(lookup(cfg)) or tables[-1])
        notes = seq(lm, "no acute findings.")
        lm.encode(notes)
        sequence_forward(lm.params, "dec", notes.ids, lm.cfg, causal=True)
        lm.decode_greedy(np.zeros(lm.cfg.embed_dim))
        assert len(tables) >= 3
        assert all(t is lookup(lm.cfg) for t in tables)


def quiet_losses(start, n):
    """n losses after start, each improving on the last by far less than a tolerance of 1e-3."""
    return [start * (1.0 - 1e-5 * k) for k in range(1, n + 1)]


class TestConvergenceRule:
    def test_fires_after_window_quiet_epochs(self):
        rule = ConvergenceRule(tol=1e-3)
        assert not rule.update(1.0)
        *before, last = quiet_losses(1.0, STALL_WINDOW)
        for loss in before:
            assert not rule.update(loss)
        assert rule.update(last)

    def test_real_improvement_resets_the_window(self):
        rule = ConvergenceRule(tol=1e-3)
        rule.update(1.0)
        for loss in quiet_losses(1.0, STALL_WINDOW - 1):  # one quiet epoch short
            assert not rule.update(loss)
        assert not rule.update(0.5)  # big improvement: reset
        *before, last = quiet_losses(0.5, STALL_WINDOW)
        for loss in before:
            assert not rule.update(loss)
        assert rule.update(last)  # STALL_WINDOW quiet epochs since the reset: fire

    def test_loss_increase_counts_as_quiet(self):
        rule = ConvergenceRule(tol=1e-3)
        rule.update(1.0)
        rising = [1.0 + 0.1 * k for k in range(1, STALL_WINDOW + 1)]
        for loss in rising[:-1]:
            assert not rule.update(loss)
        assert rule.update(rising[-1])
