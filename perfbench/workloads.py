"""The four workloads. Each makes its inputs from the seed, has a set-up that
the benchmark times, and a round: a fixed unit of work that repeats exactly,
so every repeat must give the same output digests and exact counts.

Each workload calls the library through module attributes
(``model.pretrain``, ``checkpoint.load_model``, ...), the names the traced
run patches.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from promptcal import calibration, checkpoint, harness, model, vocab
from promptcal.corpus import bundled_test_corpus, corpus_digest, generate_corpus

from bench_env import BUILD_DIR
from frozen_model import FrozenArtifacts

TRAIN_SIZE = 200
# Seed 7 reproduces the bundled corpora: train seed 7, test seed 104.
TEST_SEED_OFFSET = 97
# Covers both pretraining phases: 3 encoder-training epochs, then decoder-only.
PRETRAIN_EPOCHS = 6
# Each request summarizes a distinct note, so a round averages over this many
# note lengths and the latency percentiles barely depend on the seed.
REQUESTS_PER_ROUND = 500
DISTANCES = ("mse", "cross_entropy")


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()


def ids_bytes(ids) -> bytes:
    return np.asarray(ids, dtype="<i8").tobytes()


@dataclass
class Round:
    latencies: list[float]  # seconds per op, around the library calls only
    items: int  # units of work the round completed
    digests: list[str]  # one per op; must equal the first round's
    counts: dict[str, int] = field(default_factory=dict)  # exact; must repeat
    parts: dict[str, float] = field(default_factory=dict)  # named timings inside the round
    problems: list[str] = field(default_factory=list)  # invariant breaks
    details: dict = field(default_factory=dict)  # output digests worth printing


def loss_problems(label: str, losses: list[float]) -> list[str]:
    if not losses:
        return [f"{label}: no epoch ran"]
    if not all(math.isfinite(x) for x in losses):
        return [f"{label}: non-finite loss"]
    if losses[-1] >= losses[0]:
        return [f"{label}: loss did not decrease ({losses[0]:.6f} -> {losses[-1]:.6f})"]
    return []


class Workload:
    name = ""
    why = ""
    op_unit = ""  # what one latency sample times
    item_unit = ""  # what items_per_s counts
    ops_per_round = 1
    # Layer spans that must record calls on this workload.
    layers: tuple[str, ...] = ()

    def __init__(self, seed: int, frozen: FrozenArtifacts):
        self.seed = seed
        self.frozen = frozen

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def warm_up(self) -> Round:
        """The first, untimed round; its digests are the run's reference."""
        return self.run_round()

    def summary(self, rounds: list[Round]) -> dict[str, tuple[float, str]]:
        """Workload-specific figures printed next to the end-to-end metrics."""
        return {}

    def close(self) -> None:
        pass

    def load_frozen(self):
        lm = checkpoint.load_model(self.frozen.model_path)
        if lm.frozen_digest != self.frozen.info["model_digest"]:
            raise RuntimeError("cached frozen model does not match its recorded digest")
        return lm


class Pretrain(Workload):
    name = "pretrain"
    why = "backward, Adam and clipping do most of the work; decoding, ROUGE and checkpoints sit idle"
    op_unit = f"pretrain() call of {PRETRAIN_EPOCHS} epochs"
    item_unit = "training examples"
    layers = ("model.pretrain", "model.encoder_forward", "model.decoder_forward",
              "autodiff.attention_softmax", "autodiff.backward", "optim.adam_step",
              "model.clip_gradients", "vocab.tokenize")

    def setup(self) -> None:
        self.corpus = generate_corpus(TRAIN_SIZE, self.seed)
        self.extra_texts = [*harness.load_default_ensemble().prompts,
                            calibration.DEFAULT_SOFT_TOKEN_TEXT]
        self.config = model.PretrainConfig(max_epochs=PRETRAIN_EPOCHS, seed=self.seed)

    def run_round(self) -> Round:
        losses: list[float] = []
        epoch_ends: list[float] = []

        def log(epoch: int, loss: float) -> None:
            losses.append(loss)
            epoch_ends.append(time.perf_counter())

        start = time.perf_counter()
        lm = model.pretrain(self.corpus, self.config, extra_texts=self.extra_texts, log_fn=log)
        took = time.perf_counter() - start
        epoch_s = np.diff([start, *epoch_ends])
        warm = self.config.encoder_train_epochs
        problems = loss_problems("pretrain", losses)
        if len(losses) != PRETRAIN_EPOCHS:
            problems.append(f"pretrain ran {len(losses)} epochs, expected {PRETRAIN_EPOCHS}")
        weights = lm.weight_digest()
        return Round(
            latencies=[took],
            items=len(losses) * len(self.corpus),
            digests=[sha256(weights.encode(), np.asarray(losses, dtype="<f8").tobytes())],
            counts={"pretrain.epochs": len(losses)},
            parts={"encoder_epoch_s": float(np.median(epoch_s[:warm])),
                   "decoder_epoch_s": float(np.median(epoch_s[warm:]))},
            problems=problems,
            details={"pretrained_weight_digest": weights, "final_loss": losses[-1] if losses else None},
        )

    def summary(self, rounds):
        items = sum(r.items for r in rounds)
        seconds = sum(sum(r.latencies) for r in rounds)
        return {
            "pretrain.examples_per_s": (items / seconds, "examples/s"),
            "pretrain.encoder_epoch_s": (statistics.median(r.parts["encoder_epoch_s"] for r in rounds), "s"),
            "pretrain.decoder_epoch_s": (statistics.median(r.parts["decoder_epoch_s"] for r in rounds), "s"),
        }


class Calibrate(Workload):
    name = "calibrate"
    why = "bulk no-grad encoder forwards and one wide loss per epoch; no decoding, no ROUGE, few optimizer steps"
    op_unit = "train_calibrator() pair (mse, then cross_entropy)"
    item_unit = "(input, prompt) pairs calibrated"
    layers = ("calibration.train_calibrator", "model.encoder_forward", "autodiff.attention_softmax",
              "autodiff.backward", "optim.adam_step", "calibration.decode_soft_prompt")

    def setup(self) -> None:
        self.lm = self.load_frozen()
        corpus = generate_corpus(TRAIN_SIZE, self.seed)
        self.inputs = [vocab.tokenize(r.findings, self.lm.vocab) for r in corpus]
        self.prompts = [vocab.tokenize(p, self.lm.vocab) for p in harness.load_default_ensemble().prompts]
        self.tok = calibration.SoftPromptToken.from_text(calibration.DEFAULT_SOFT_TOKEN_TEXT, self.lm.vocab)

    def run_round(self) -> Round:
        parts, counts, details, problems, digest_parts = {}, {}, {}, [], []
        for distance in DISTANCES:
            losses: list[float] = []
            config = calibration.CalibrationConfig(distance=distance)
            start = time.perf_counter()
            enc = calibration.train_calibrator(self.inputs, self.prompts, self.tok, self.lm, config,
                                               log_fn=lambda epoch, loss: losses.append(loss))
            parts[f"{distance}_s"] = time.perf_counter() - start
            soft = calibration.encode_soft(self.tok, enc).data.astype("<f8").tobytes()
            prefix = calibration.decode_soft_prompt(enc, self.tok, self.lm).ids
            counts[f"calibration.epochs.{distance}"] = len(losses)
            problems += loss_problems(f"calibration {distance}", losses)
            digest_parts += [soft, ids_bytes(prefix)]
            details[f"{distance}.soft_vector_sha256"] = hashlib.sha256(soft).hexdigest()
            details[f"{distance}.prefix_ids"] = list(prefix)
        if self.lm.weight_digest() != self.frozen.info["model_digest"]:
            problems.append("frozen model weights changed during calibration")
        return Round(
            latencies=[sum(parts.values())],
            items=len(DISTANCES) * len(self.inputs) * len(self.prompts),
            digests=[sha256(*digest_parts)],
            counts=counts, parts=parts, problems=problems, details=details,
        )

    def summary(self, rounds):
        return {f"calibrate.{d}_s": (statistics.median(r.parts[f"{d}_s"] for r in rounds), "s")
                for d in DISTANCES}


class Evaluate(Workload):
    name = "evaluate"
    why = "the paper's number: greedy decoder steps dominate, with no backward or optimizer"
    op_unit = "evaluation (both arms, compare_runs, emit_report)"
    item_unit = "scored summaries"
    layers = ("harness.evaluate_prompt", "calibration.decode_soft_prompt", "model.encoder_forward",
              "model.decoder_forward", "model.decode_greedy", "autodiff.attention_softmax",
              "rouge.suite", "vocab.tokenize", "vocab.detokenize")

    def setup(self) -> None:
        self.lm = self.load_frozen()
        enc, tok, _ = checkpoint.load_calibrator(self.frozen.calibrator_path, self.lm)
        self.arms = (("baseline", None), ("calibrated", (enc, tok)))
        # The paper's number is defined on the bundled test corpus and ensemble,
        # so every seed scores those; the seed only shuffles note and prompt
        # order, which leaves the work unchanged. Per-note decode cost varies
        # enough that a seeded 50-note corpus would move summaries/s by ~5%.
        rng = random.Random(self.seed)
        prompts = list(harness.load_default_ensemble().prompts)
        rng.shuffle(prompts)
        self.ensemble = harness.PromptEnsemble(tuple(prompts))
        self.corpus = bundled_test_corpus()
        rng.shuffle(self.corpus)

    def _finish(self, runs, latency: float, problems: list[str]) -> Round:
        report = harness.emit_report(harness.compare_runs(runs[0], runs[1]), "csv")
        scores = np.asarray([run.per_prompt_scores for run in runs], dtype="<f8")
        if not (np.all(np.isfinite(scores)) and scores.min() >= 0.0 and scores.max() <= 1.0):
            problems.append("a corpus-mean ROUGE F1 lies outside [0, 1]")
        return Round(
            latencies=[latency],
            items=len(self.arms) * len(self.ensemble.prompts) * len(self.corpus),
            digests=[sha256(scores.tobytes(), report)],
            problems=problems,
            details={"variance_report_csv_sha256": hashlib.sha256(report).hexdigest()},
        )

    def run_round(self) -> Round:
        start = time.perf_counter()
        runs = [harness.evaluate_ensemble(self.lm, calib, self.ensemble, self.corpus, label=label)
                for label, calib in self.arms]
        return self._finish(runs, time.perf_counter() - start, [])

    def warm_up(self) -> Round:
        """Score every (arm, prompt, note) through the public summarize() and keep the ids.

        Timed rounds must reproduce these scores and this report exactly, which
        ties their output to the summary token ids digested here.
        """
        ids_digest = hashlib.sha256()
        generated = 0
        runs = []
        start = time.perf_counter()
        for label, calib in self.arms:
            per_prompt = []
            for p, prompt in enumerate(self.ensemble.prompts):
                outputs = []  # evaluate_prompt calls summarize_fn once per note, in corpus order

                def summarize_fn(t_org, t_llm):
                    outputs.append(calibration.summarize(t_org, t_llm, self.lm, calib))
                    return outputs[-1]

                per_prompt.append(harness.evaluate_prompt(
                    self.lm, calib, prompt, self.corpus, summarize_fn=summarize_fn))
                for n, out in enumerate(outputs):
                    ids_digest.update(f"{label}|{p}|{n}|".encode() + ids_bytes(out.ids))
                    generated += len(out.ids)
            runs.append(harness.EvaluationRun(
                label=label, per_prompt_scores=tuple(per_prompt), seed=0,
                corpus_digest=corpus_digest(self.corpus),
                ensemble_digest=self.ensemble.digest(), config_digest="",
            ))
        reference = self._finish(runs, time.perf_counter() - start, [])
        reference.counts["model.tokens_generated"] = generated
        reference.details["summary_ids_sha256"] = ids_digest.hexdigest()
        return reference

    def summary(self, rounds):
        items = sum(r.items for r in rounds)
        seconds = sum(sum(r.latencies) for r in rounds)
        return {"evaluate.summaries_per_s": (items / seconds, "summaries/s")}


class Summarize(Workload):
    name = "summarize"
    why = "one request as the CLI serves it: both checkpoints loaded and verified, one unbatched decode"
    op_unit = "request"
    item_unit = "requests"
    ops_per_round = REQUESTS_PER_ROUND
    layers = ("checkpoint.load_model", "checkpoint.load_calibrator", "calibration.decode_soft_prompt",
              "model.encoder_forward", "model.decoder_forward", "model.decode_greedy",
              "autodiff.attention_softmax", "vocab.tokenize", "vocab.detokenize")

    def setup(self) -> None:
        lm = self.load_frozen()
        enc, tok, config = checkpoint.load_calibrator(self.frozen.calibrator_path, lm)
        self.run_dir = BUILD_DIR / f"run-{os.getpid()}"
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.model_path = self.run_dir / "model.bin"
        self.calibrator_path = self.run_dir / "calibrator.bin"
        checkpoint.save_model(lm, self.model_path)
        checkpoint.save_calibrator(enc, tok, config, lm.weight_digest(), self.calibrator_path)
        notes = [r.findings for r in generate_corpus(REQUESTS_PER_ROUND, self.seed + TEST_SEED_OFFSET)]
        prompts = harness.load_default_ensemble().prompts
        rng = random.Random(self.seed)
        calibrated = [True, False] * (REQUESTS_PER_ROUND // 2)
        rng.shuffle(calibrated)
        self.requests = [(note, rng.choice(prompts), c) for note, c in zip(notes, calibrated)]

    def run_round(self) -> Round:
        latencies, digests, problems = [], [], []
        generated = 0
        for notes_text, prompt_text, calibrated in self.requests:
            start = time.perf_counter()
            lm = checkpoint.load_model(self.model_path)
            notes = vocab.tokenize(notes_text, lm.vocab)
            prompt = vocab.tokenize(prompt_text, lm.vocab)
            calib, soft_text = None, ""
            if calibrated:
                enc, tok, _ = checkpoint.load_calibrator(self.calibrator_path, lm)
                calib = (enc, tok)
                soft_text = vocab.detokenize(calibration.decode_soft_prompt(enc, tok, lm), lm.vocab)
            result = calibration.summarize(notes, prompt, lm, calib)
            text = vocab.detokenize(result, lm.vocab)
            latencies.append(time.perf_counter() - start)
            digests.append(sha256(soft_text.encode(), ids_bytes(result.ids), text.encode()))
            generated += len(result.ids)
            if lm.frozen_digest != self.frozen.info["model_digest"]:
                problems.append("loaded model digest differs from the frozen model")
        return Round(
            latencies=latencies, items=len(self.requests), digests=digests,
            counts={"model.tokens_generated": generated}, problems=problems,
            details={"summary_ids_sha256": sha256(*(d.encode() for d in digests))},
        )

    def summary(self, rounds):
        latencies = [x for r in rounds for x in r.latencies]
        cuts = statistics.quantiles(latencies, n=100)
        return {
            "summarize.latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "summarize.latency_p99_ms": (cuts[98] * 1e3, "ms"),
            "summarize.requests": (len(latencies), "count"),
        }

    def close(self) -> None:
        if hasattr(self, "run_dir"):
            shutil.rmtree(self.run_dir, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Pretrain, Calibrate, Evaluate, Summarize)
}
