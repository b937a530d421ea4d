"""Soft-prompt calibration tests: copy initialization, gradient isolation,
the alignment loss, the training loop, projection, and summarization."""

import numpy as np
import pytest

from promptcal import autodiff as ad
from promptcal.calibration import (
    DEFAULT_SOFT_TOKEN_TEXT,
    OOD_SOFT_TOKEN_TEXT,
    SEPARATOR_POLICIES,
    CalibrationConfig,
    SoftPromptEncoder,
    SoftPromptToken,
    alignment_loss,
    decode_soft_prompt,
    encode_soft,
    join_prompted,
    summarize,
    summarize_many,
    train_calibrator,
)
from promptcal.errors import ContractError, TrainingError
from promptcal.vocab import SEP_ID, UNK_ID, TokenSequence, tokenize
from tests.test_autodiff import (
    calibration_objective,
    calibration_problem,
    cross_entropy_floor,
    finite_difference_check,
    gap_closure,
    optimal_soft_vector,
)
from tests.test_model import oracle_forward, recompute_greedy


@pytest.fixture(scope="module")
def lm(tiny_lm):
    return tiny_lm


@pytest.fixture(scope="module")
def tok(lm):
    return SoftPromptToken.from_text(DEFAULT_SOFT_TOKEN_TEXT, lm.vocab)


@pytest.fixture
def fresh_encoder(lm):
    return SoftPromptEncoder.from_frozen(lm)


def notes(lm, text="no pneumothorax is identified. mild edema is seen in the left lower lobe."):
    return tokenize(text, lm.vocab)


def prompt(lm, text="summarize the following clinical notes."):
    return tokenize(text, lm.vocab)


class TestSoftPromptToken:
    def test_default_token_is_in_distribution(self, tok):
        assert tok.in_distribution
        assert tok.length == 7

    def test_ood_token_detected(self, lm):
        t = SoftPromptToken.from_text(OOD_SOFT_TOKEN_TEXT, lm.vocab)
        assert not t.in_distribution
        assert UNK_ID in t.ids.ids

    def test_empty_rejected(self, lm):
        with pytest.raises(ContractError):
            SoftPromptToken.from_text("", lm.vocab)

    def test_truncation(self, tok, lm):
        short = tok.truncated(3, lm.vocab)
        assert short.length == 3
        assert short.text == "radiologist describe stable"
        with pytest.raises(ContractError):
            tok.truncated(8, lm.vocab)


class TestCalibrationConfig:
    @pytest.mark.parametrize("field, value", [
        ("distance", "bogus"),
        ("separator_policy", "bogus"),
        ("learning_rate", 0.0),
        ("max_epochs", 0),
        ("convergence_tol", 0.0),
        ("seed", -1),
        ("stall_window", 0),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
        ("convergence_tol", float("nan")),
        ("convergence_tol", float("inf")),
    ])
    def test_invalid_value_rejected(self, field, value):
        with pytest.raises(ContractError):
            CalibrationConfig(**{field: value})


class TestEncodeSoft:
    def test_copy_init_matches_frozen_encoder_bit_exact(self, lm, fresh_encoder):
        for text in (DEFAULT_SOFT_TOKEN_TEXT, "no pneumothorax.", "mild edema is seen."):
            t = tokenize(text, lm.vocab)
            frozen = lm.encode(t).pooled.data
            soft = fresh_encoder.encode_pooled(t.ids).data
            assert frozen.tobytes() == soft.tobytes()

    def test_deterministic(self, fresh_encoder, tok):
        a = fresh_encoder.encode_pooled(tok.ids.ids).data
        b = fresh_encoder.encode_pooled(tok.ids.ids).data
        assert a.tobytes() == b.tobytes()

    def test_from_frozen_trains_all_but_positions(self, fresh_encoder):
        assert not fresh_encoder.params["enc.pos"].requires_grad
        assert fresh_encoder.params["enc.embed"].requires_grad

    def test_encode_soft_wraps_the_trained_vector(self, trained_soft, tok):
        v = encode_soft(tok, trained_soft)
        assert v.data.tobytes() == trained_soft.tobytes()
        assert not v.requires_grad

    def test_gradient_reaches_soft_params(self, lm, tok):
        enc = SoftPromptEncoder.from_frozen(lm)
        rng = np.random.default_rng(21)
        weights = rng.normal(size=lm.cfg.embed_dim)

        def build():
            return ad.dot(enc.encode_pooled(tok.ids.ids), ad.value(weights))

        # FD over a sampled subset: the encoder has thousands of components
        probe = [enc.params["enc.b0.h0.wq"], enc.params["enc.b0.ffn.w1"]]
        finite_difference_check(build, probe, rng, max_components=12)


class TestPromptedEmbedding:
    """alignment_loss's prompted side: the mean of the frozen prompted embedding and the soft vector."""

    def test_matches_element_loop(self, lm, fresh_encoder, tok):
        t_org, t_llm = notes(lm), prompt(lm)
        bare = lm.encode(t_org).pooled.data
        e1 = lm.encode(join_prompted(t_llm, t_org)).pooled.data
        h = fresh_encoder.encode_pooled(tok.ids.ids).data
        for distance in ("mse", "cross_entropy"):
            loss = alignment_loss(t_org, t_llm, tok, lm, fresh_encoder, distance)
            expected, _ = calibration_objective(bare[None], e1[None, None], h, distance)
            assert float(loss.data) == pytest.approx(expected, rel=1e-12)

    def test_no_gradient_into_frozen_params(self, lm, fresh_encoder, tok):
        ad.backward(alignment_loss(notes(lm), prompt(lm), tok, lm, fresh_encoder))
        for p in lm.params.values():
            assert p.grad is None
        assert any(p.grad is not None and p.grad.any() for p in fresh_encoder.trainable())

    def test_empty_notes_rejected(self, lm, fresh_encoder, tok):
        with pytest.raises(ContractError):
            alignment_loss(TokenSequence(()), prompt(lm), tok, lm, fresh_encoder)

    def test_empty_prompt_is_promptfree(self, lm, fresh_encoder, tok):
        t_org = notes(lm)
        loss = alignment_loss(t_org, TokenSequence(()), tok, lm, fresh_encoder)
        e1 = lm.encode(t_org).pooled.data
        h = fresh_encoder.encode_pooled(tok.ids.ids).data
        expected, _ = calibration_objective(e1[None], e1[None, None], h, "mse")
        assert float(loss.data) == pytest.approx(expected, rel=1e-12)


class TestJoinPrompted:
    def test_prompt_first_with_separator(self, lm):
        t_org, t_llm = notes(lm), prompt(lm)
        joined = join_prompted(t_llm, t_org, "prompt_first")
        assert joined.ids == t_llm.ids + (SEP_ID,) + t_org.ids

    def test_notes_first(self, lm):
        t_org, t_llm = notes(lm), prompt(lm)
        joined = join_prompted(t_llm, t_org, "notes_first")
        assert joined.ids == t_org.ids + (SEP_ID,) + t_llm.ids


class TestAlignmentLoss:
    def test_mse_zero_iff_embeddings_coincide(self, lm, fresh_encoder, tok):
        # force coincidence by construction: loss of (p, p) is zero
        p = ad.value(np.arange(4.0))
        assert float(ad.mse_distance(p, ad.value(np.arange(4.0))).data) == 0.0
        # and the real pipeline loss is strictly positive here
        loss = alignment_loss(notes(lm), prompt(lm), tok, lm, fresh_encoder, "mse")
        assert float(loss.data) > 0.0

    def test_mse_equals_distance_of_recomputed_embeddings(self, lm, fresh_encoder, tok):
        t_org, t_llm = notes(lm), prompt(lm)
        loss = alignment_loss(t_org, t_llm, tok, lm, fresh_encoder, "mse")
        bare = lm.encode(t_org).pooled.data
        fused = (lm.encode(join_prompted(t_llm, t_org)).pooled.data
                 + fresh_encoder.encode_pooled(tok.ids.ids).data) / 2
        expected = float(((bare - fused) ** 2).mean())
        assert float(loss.data) == pytest.approx(expected, abs=1e-15)

    def test_cross_entropy_at_equal_embeddings_is_entropy(self):
        v = np.array([0.3, -1.2, 0.8, 0.1])
        ce = float(ad.cross_entropy_distance(ad.value(v), ad.value(v.copy())).data)
        s = np.exp(v - v.max())
        s /= s.sum()
        assert ce == pytest.approx(-(s * np.log(s)).sum(), abs=1e-12)

    def test_gradient_matches_finite_differences(self, lm, tok):
        enc = SoftPromptEncoder.from_frozen(lm)
        rng = np.random.default_rng(22)
        t_org, t_llm = notes(lm), prompt(lm)

        for dist in ("mse", "cross_entropy"):
            def build():
                return alignment_loss(t_org, t_llm, tok, lm, enc, dist)

            probe = [enc.params["enc.b0.h1.wv"], enc.params["enc.embed"]]
            finite_difference_check(build, probe, rng, max_components=8)


class TestTrainCalibrator:
    def test_short_run_trains_and_preserves_frozen_digest(self, lm, tok, train_inputs_prompts,
                                                          monkeypatch):
        inputs, prompts = train_inputs_prompts
        before = lm.weight_digest()
        losses = []
        encoders = []
        copy = SoftPromptEncoder.from_frozen

        def keep_copy(lm):
            encoders.append(copy(lm))
            return encoders[-1]

        monkeypatch.setattr(SoftPromptEncoder, "from_frozen", keep_copy)
        cfg = CalibrationConfig(max_epochs=3, seed=1)
        soft = train_calibrator(inputs, prompts, tok, lm, cfg, log_fn=lambda e, l: losses.append(l))
        # the result is the trained encoder's output for the token, and only that
        assert soft.dtype == np.float64 and soft.shape == (lm.cfg.embed_dim,)
        assert not soft.flags.writeable
        assert soft.tobytes() == encoders[0].encode_pooled(tok.ids.ids).data.tobytes()
        assert soft.tobytes() != copy(lm).encode_pooled(tok.ids.ids).data.tobytes()
        assert lm.weight_digest() == before
        assert len(losses) == 3
        assert losses[-1] <= losses[0]

    @pytest.mark.parametrize("distance", ["mse", "cross_entropy"])
    def test_first_logged_loss_is_alignment_loss(self, lm, tok, train_inputs_prompts, distance):
        # one input and one prompt: the training objective is alignment_loss itself
        inputs, prompts = train_inputs_prompts
        losses = []
        train_calibrator(inputs[:1], prompts[:1], tok, lm,
                         CalibrationConfig(distance=distance, max_epochs=1),
                         log_fn=lambda e, l: losses.append(l))
        start = SoftPromptEncoder.from_frozen(lm)
        expected = float(alignment_loss(inputs[0], prompts[0], tok, lm, start, distance).data)
        assert losses[0] == expected

    def test_seeded_determinism(self, lm, tok, train_inputs_prompts):
        inputs, prompts = train_inputs_prompts
        cfg = CalibrationConfig(max_epochs=2, seed=5)
        a = train_calibrator(inputs, prompts, tok, lm, cfg)
        b = train_calibrator(inputs, prompts, tok, lm, cfg)
        assert a.tobytes() == b.tobytes()

    def test_empty_inputs_rejected(self, lm, tok, train_inputs_prompts):
        _, prompts = train_inputs_prompts
        with pytest.raises(ContractError):
            train_calibrator([], prompts, tok, lm, CalibrationConfig())

    def test_empty_prompts_rejected(self, lm, tok, train_inputs_prompts):
        inputs, _ = train_inputs_prompts
        with pytest.raises(ContractError):
            train_calibrator(inputs, [], tok, lm, CalibrationConfig())

    def test_zero_shot_signature_accepts_only_token_sequences(self, lm, tok, train_inputs_prompts):
        # the trainer consumes token sequences, never corpus records: passing a
        # record (which carries the gold impression) fails loudly
        from promptcal.corpus import CorpusRecord

        record = CorpusRecord(id="x", findings="no edema.", impression="no edema.")
        _, prompts = train_inputs_prompts
        with pytest.raises(AttributeError):
            train_calibrator([record], prompts, tok, lm, CalibrationConfig(max_epochs=1))


class TestCalibrationOptimum:
    @pytest.mark.parametrize("distance", ["mse", "cross_entropy"])
    def test_oracle_optimum_and_truncated_run(self, lm, tok, train_inputs_prompts, distance):
        inputs, prompts = train_inputs_prompts
        bare, prompted = calibration_problem(lm, inputs, prompts)
        start = SoftPromptEncoder.from_frozen(lm).encode_pooled(tok.ids.ids).data
        losses = []
        soft = train_calibrator(inputs, prompts, tok, lm,
                               CalibrationConfig(distance=distance, max_epochs=3),
                               log_fn=lambda e, l: losses.append(l))
        optimum = optimal_soft_vector(bare, prompted, distance, start)

        best, grad = calibration_objective(bare, prompted, optimum, distance)
        at_start, _ = calibration_objective(bare, prompted, start, distance)
        at_trained, _ = calibration_objective(bare, prompted, soft, distance)
        assert np.linalg.norm(grad) <= 1e-9
        # the oracle restates the trainer's objective: one full-batch step per
        # epoch, so the first logged loss is the loss at the start vector
        assert at_start == pytest.approx(losses[0], rel=1e-12)
        assert best <= at_start and best <= at_trained
        if distance == "cross_entropy":
            assert best >= cross_entropy_floor(bare)
        # three Adam steps leave much of the gap open: the 99% check can fail
        assert gap_closure(losses[0], losses[-1], best) < 0.99

    @pytest.mark.parametrize("distance", ["mse", "cross_entropy"])
    def test_last_logged_loss_is_returned_calibrators(self, lm, tok, train_inputs_prompts, distance):
        inputs, prompts = train_inputs_prompts
        bare, prompted = calibration_problem(lm, inputs, prompts)
        losses = []
        soft = train_calibrator(inputs, prompts, tok, lm, CalibrationConfig(distance=distance),
                                log_fn=lambda e, l: losses.append(l))
        trained, _ = calibration_objective(bare, prompted, soft, distance)
        assert trained == pytest.approx(losses[-1], rel=1e-12)


@pytest.fixture(scope="module")
def train_inputs_prompts(lm, tiny_corpus, ensemble):
    inputs = [tokenize(r.findings, lm.vocab) for r in tiny_corpus[:8]]
    prompts = [tokenize(p, lm.vocab) for p in list(ensemble.prompts)[:4]]
    return inputs, prompts


@pytest.fixture(scope="module")
def trained_soft(lm, tok, train_inputs_prompts):
    inputs, prompts = train_inputs_prompts
    return train_calibrator(inputs, prompts, tok, lm, CalibrationConfig(max_epochs=4, seed=2))


class TestDecodeSoftPrompt:
    def test_k1_is_plain_nearest_token(self, lm, trained_soft, tok):
        out = decode_soft_prompt(trained_soft, tok, lm, k=1)
        assert out.ids == (lm.nearest_token(trained_soft),)

    def test_k1_matches_full_scan(self, lm, trained_soft, tok):
        table = lm.params["enc.embed"].data
        dists = ((table - trained_soft[None, :]) ** 2).sum(axis=1)
        assert decode_soft_prompt(trained_soft, tok, lm, k=1).ids[0] == int(np.argmin(dists))

    def test_deterministic(self, lm, trained_soft, tok):
        a = decode_soft_prompt(trained_soft, tok, lm)
        b = decode_soft_prompt(trained_soft, tok, lm)
        assert a.ids == b.ids

    def test_default_prefix_is_capped(self, lm, trained_soft, tok):
        from promptcal.calibration import DEFAULT_SOFT_PREFIX_LEN

        got = len(decode_soft_prompt(trained_soft, tok, lm).ids)
        assert got == min(DEFAULT_SOFT_PREFIX_LEN, tok.length)

    def test_short_token_prefix_not_padded(self, lm, train_inputs_prompts):
        inputs, prompts = train_inputs_prompts
        short = SoftPromptToken.from_text("stable exam", lm.vocab)
        soft = train_calibrator(inputs[:2], prompts[:2], short, lm,
                                CalibrationConfig(max_epochs=1, seed=3))
        assert len(decode_soft_prompt(soft, short, lm).ids) == 2

    def test_residual_projection_rule(self, lm, trained_soft, tok):
        out = decode_soft_prompt(trained_soft, tok, lm, k=3)
        table = lm.params["enc.embed"].data
        chosen = []
        for _ in range(3):
            target = trained_soft if not chosen else trained_soft - table[chosen].mean(axis=0)
            dists = ((table - target[None, :]) ** 2).sum(axis=1)
            chosen.append(int(np.argmin(dists)))
        assert out.ids == tuple(chosen)


class TestSummarize:
    def test_deterministic(self, lm, trained_soft, tok):
        t_org, t_llm = notes(lm), prompt(lm)
        a = summarize(t_org, t_llm, lm, (trained_soft, tok))
        b = summarize(t_org, t_llm, lm, (trained_soft, tok))
        assert a.ids == b.ids

    def test_baseline_path_matches_decode_of_prompted_pooled(self, lm):
        t_org, t_llm = notes(lm), prompt(lm)
        out = summarize(t_org, t_llm, lm)
        pooled = lm.encode(join_prompted(t_llm, t_org)).pooled
        assert out.ids == lm.decode_greedy(pooled).ids

    def test_calibrated_path_prepends_soft_prefix(self, lm, trained_soft, tok):
        t_org, t_llm = notes(lm), prompt(lm)
        out = summarize(t_org, t_llm, lm, (trained_soft, tok))
        prefix = decode_soft_prompt(trained_soft, tok, lm)
        joined = TokenSequence(prefix.ids + t_llm.ids + (SEP_ID,) + t_org.ids)
        expected = lm.decode_greedy(lm.encode(joined).pooled)
        assert out.ids == expected.ids

    @pytest.mark.parametrize("policy", SEPARATOR_POLICIES)
    @pytest.mark.parametrize("calibrated", [False, True], ids=["baseline", "calibrated"])
    def test_matches_recompute_oracle(self, lm, trained_soft, tok, calibrated, policy):
        t_org, t_llm = notes(lm), prompt(lm)
        calibration = (trained_soft, tok) if calibrated else None
        out = summarize(t_org, t_llm, lm, calibration, policy=policy)
        ids = join_prompted(t_llm, t_org, policy).ids
        if calibrated:
            ids = decode_soft_prompt(trained_soft, tok, lm).ids + ids
        pooled = oracle_forward(lm, "enc", ids).mean(axis=0)
        assert out.ids == recompute_greedy(lm, pooled, lm.cfg.decode_max_len)

    def test_length_bounded(self, lm):
        out = summarize(notes(lm), prompt(lm), lm, max_len=5)
        assert len(out.ids) <= 5

    @pytest.mark.parametrize("policy, max_len", [("prompt_first", None), ("notes_first", 5)])
    @pytest.mark.parametrize("calibrated", [False, True], ids=["baseline", "calibrated"])
    def test_summarize_many_equals_summarize_per_note(self, lm, trained_soft, tok, tiny_corpus,
                                                      calibrated, policy, max_len):
        # 20 notes: one full lockstep group and a partial one
        many_notes = [tokenize(r.findings, lm.vocab) for r in tiny_corpus[:20]]
        t_llm = prompt(lm)
        calibration = (trained_soft, tok) if calibrated else None
        got = summarize_many(many_notes, t_llm, lm, calibration, max_len=max_len, policy=policy)
        assert got == tuple(summarize(t, t_llm, lm, calibration, max_len=max_len, policy=policy)
                            for t in many_notes)

    @pytest.mark.parametrize("many_notes", [[], [TokenSequence(())]], ids=["no notes", "empty note"])
    def test_summarize_many_rejects_missing_notes(self, lm, many_notes):
        with pytest.raises(ContractError):
            summarize_many(many_notes, prompt(lm), lm)

    def test_empty_notes_rejected(self, lm):
        with pytest.raises(ContractError):
            summarize(TokenSequence(()), prompt(lm), lm)
