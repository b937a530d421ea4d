"""Surrogate model tests: encoding, greedy decoding, projection, pretraining,
and the freeze contract."""

import numpy as np
import pytest

from promptcal import autodiff as ad
from promptcal.corpus import generate_corpus
from promptcal.errors import ContractError, ShapeError
from promptcal.model import (
    EncoderDecoderLM,
    KVCache,
    ModelConfig,
    PretrainConfig,
    pretrain,
    sequence_forward,
    sinusoidal_positions,
)
from promptcal.vocab import BOS_ID, EOS_ID, TokenSequence, Vocabulary, tokenize


@pytest.fixture(scope="module")
def lm(tiny_lm):
    return tiny_lm


def seq(lm, text):
    return tokenize(text, lm.vocab)


def oracle_forward(lm, side, ids, context=None, causal=False):
    """One side of the model in plain numpy, with a per-row loop for the causal softmax."""
    p = {name: v.data for name, v in lm.params.items()}
    n = len(ids)
    x = p[f"{side}.embed"][list(ids)] + p[f"{side}.pos"][:n]
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
        ids = (5, 6, 7, 8)
        permuted = (7, 5, 8, 6)
        a = lm.encode(TokenSequence(ids)).pooled.data
        b = lm.encode(TokenSequence(permuted)).pooled.data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestDecodeGreedy:
    def test_deterministic(self, lm):
        ctx = lm.encode(seq(lm, "stable effusion.")).pooled
        a = lm.decode_greedy(ctx)
        b = lm.decode_greedy(ctx)
        assert a.ids == b.ids

    def test_length_bounded(self, lm):
        rng = np.random.default_rng(0)
        for _ in range(5):
            ctx = ad.value(rng.normal(size=lm.cfg.embed_dim))
            out = lm.decode_greedy(ctx, max_len=6)
            assert len(out.ids) <= 6

    def test_stops_after_eos(self, lm):
        ctx = lm.encode(seq(lm, "no edema.")).pooled
        out = lm.decode_greedy(ctx)
        if EOS_ID in out.ids:
            assert out.ids.index(EOS_ID) == len(out.ids) - 1

    def test_argmax_matches_step_logit_oracle(self, lm):
        ctx = lm.encode(seq(lm, "mild congestion.")).pooled
        assert lm.decode_greedy(ctx, max_len=8).ids == recompute_greedy(lm, ctx.data, max_len=8)

    def test_stop_length_matches_recompute_oracle(self):
        # max_len beyond max_seq_len: the decode stops once the prefix it
        # would feed next reaches max_seq_len, after max_seq_len - 1 tokens
        cfg = ModelConfig(embed_dim=16, n_blocks=1, n_heads=2, ffn_dim=16, max_seq_len=8)
        lm = EncoderDecoderLM.initialize(Vocabulary([f"w{i}" for i in range(40)]), cfg, seed=3)
        lm.freeze()
        rng = np.random.default_rng(5)
        lengths = []
        for _ in range(5):
            ctx = rng.normal(size=cfg.embed_dim)
            expected = recompute_greedy(lm, ctx, max_len=20)
            assert lm.decode_greedy(ctx, max_len=20).ids == expected
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
    """The same values, with the named parameters (default: all but positions) trainable."""
    out = {}
    for name, p in params.items():
        train = name in names if names is not None else not name.endswith(".pos")
        out[name] = ad.param(p.data.copy()) if train else ad.value(p.data)
    return out


class TestInferencePath:
    """The plain-numpy path against the graph path it replaces when nothing needs a gradient."""

    @pytest.mark.parametrize("with_context", [False, True], ids=["bare", "context"])
    @pytest.mark.parametrize("n_blocks", [0, 1, 2])
    @pytest.mark.parametrize("side", ["enc", "dec"])
    def test_plain_path_is_bit_identical_to_graph(self, side, n_blocks, with_context):
        lm = small_lm(n_blocks)
        graph_params = trainable_copy(lm.params)
        rng = np.random.default_rng(n_blocks)
        ctx = ad.value(rng.normal(size=lm.cfg.embed_dim)) if with_context else None
        for n in range(1, lm.cfg.max_seq_len + 1):
            ids = [int(i) for i in rng.integers(0, lm.vocab.size, size=n)]
            args = (side, ids, lm.cfg)
            plain = sequence_forward(lm.params, *args, context=ctx, causal=side == "dec")
            graph = sequence_forward(graph_params, *args, context=ctx, causal=side == "dec")
            assert graph.requires_grad
            assert not plain.requires_grad and plain._parents == ()
            np.testing.assert_array_equal(plain.data, graph.data)

    @pytest.mark.parametrize("n_blocks", [0, 1, 2])
    def test_cached_first_step_is_bit_identical_to_graph(self, n_blocks):
        lm = small_lm(n_blocks)
        ctx = ad.value(np.random.default_rng(1).normal(size=lm.cfg.embed_dim))
        graph = sequence_forward(trainable_copy(lm.params), "dec", [BOS_ID], lm.cfg,
                                 context=ctx, causal=True)
        cached = sequence_forward(lm.params, "dec", [BOS_ID], lm.cfg,
                                  context=ctx, causal=True, cache=KVCache(lm.cfg))
        np.testing.assert_array_equal(cached.data, graph.data)

    @pytest.mark.parametrize("n_blocks", [0, 1, 2])
    def test_cached_steps_match_full_forward_rows(self, n_blocks):
        # later rows may differ in the last bits: BLAS rounds a row of X @ W
        # differently depending on how many rows X has
        lm = small_lm(n_blocks)
        ctx = ad.value(np.random.default_rng(2).normal(size=lm.cfg.embed_dim))
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

    def test_other_side_trainable_builds_no_graph(self):
        # pretrain's decoder-only epochs: the frozen encoder runs graph-free
        lm = small_lm(1)
        params = trainable_copy(lm.params, {n for n in lm.params if n.startswith("dec.")})
        out = sequence_forward(params, "enc", [4, 5, 6], lm.cfg)
        assert not out.requires_grad and out._parents == ()

    @pytest.mark.parametrize("case", ["trainable", "two ids", "not causal"])
    def test_cache_only_extends_a_frozen_causal_decode(self, case):
        lm = small_lm(1)
        params = trainable_copy(lm.params) if case == "trainable" else lm.params
        ids = [BOS_ID, 5] if case == "two ids" else [BOS_ID]
        with pytest.raises(ContractError, match="cache"):
            sequence_forward(params, "dec", ids, lm.cfg, causal=case != "not causal",
                             cache=KVCache(lm.cfg))

    @pytest.mark.parametrize("path", ["graph", "plain", "cached"])
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
            sequence_forward(params, "dec", ids, lm.cfg, causal=True, cache=cache)


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


class TestPretrain:
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
        ("stall_window", 0),
        ("prefix_noise_prob", -1.0),
        ("prefix_noise_prob", 2.0),
        ("ffn_dim", 0),
        ("decode_max_len", 0),
        ("embed_bias_std", -1.0),
        ("embed_noise_std", -1.0),
    ])
    def test_invalid_config_rejected(self, field, value):
        config = ModelConfig if field in ModelConfig.__dataclass_fields__ else PretrainConfig
        with pytest.raises(ContractError, match=f"{field} {value}"):
            config(**{field: value})

    def test_config_bounds_are_inclusive(self):
        PretrainConfig(seed=0, max_epochs=1, encoder_train_epochs=0, prefix_noise_max=1,
                       stall_window=1, prefix_noise_prob=0.0)
        PretrainConfig(prefix_noise_prob=1.0, model=ModelConfig(
            ffn_dim=1, decode_max_len=1, embed_bias_std=0.0, embed_noise_std=0.0))

    def test_frozen_params_reject_gradient_machinery(self, lm):
        assert all(not p.requires_grad for p in lm.params.values())
        assert lm.trainable() == []


class TestDigest:
    def test_digest_changes_with_any_parameter_bit(self, tiny_corpus):
        cfg = PretrainConfig(max_epochs=1, seed=4, model=ModelConfig(
            embed_dim=16, n_blocks=1, n_heads=2, ffn_dim=16, max_seq_len=64))
        lm = pretrain(tiny_corpus[:5], cfg)
        before = lm.weight_digest()
        lm.params["enc.embed"].data[0, 0] += 1e-12
        assert lm.weight_digest() != before


class TestPositions:
    def test_sinusoidal_shape_and_range(self):
        table = sinusoidal_positions(10, 8)
        assert table.shape == (10, 8)
        assert np.all(np.abs(table) <= 1.0)

    def test_rows_distinct(self):
        table = sinusoidal_positions(6, 8)
        for i in range(5):
            assert not np.allclose(table[i], table[i + 1])


class TestConvergenceRule:
    def test_fires_after_window_quiet_epochs(self):
        from promptcal.model import ConvergenceRule

        rule = ConvergenceRule(tol=1e-3, window=3)
        assert not rule.update(1.0)
        for loss in (0.99995, 0.99994, 0.99993)[:-1]:
            assert not rule.update(loss)
        assert rule.update(0.99993)

    def test_real_improvement_resets_the_window(self):
        from promptcal.model import ConvergenceRule

        rule = ConvergenceRule(tol=1e-3, window=2)
        rule.update(1.0)
        assert not rule.update(0.9999)  # quiet 1
        assert not rule.update(0.5)  # big improvement: reset
        assert not rule.update(0.49999)  # quiet 1
        assert rule.update(0.49998)  # quiet 2: fire

    def test_loss_increase_counts_as_quiet(self):
        from promptcal.model import ConvergenceRule

        rule = ConvergenceRule(tol=1e-3, window=2)
        rule.update(1.0)
        assert not rule.update(1.1)
        assert rule.update(1.2)
