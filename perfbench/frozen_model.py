"""The pinned frozen model and calibrator that calibrate, evaluate and summarize run against.

Pretraining it takes about a minute, so it is built once per checkout, in a
child process, and kept under ``.bench_build/`` keyed by a digest of the
package sources and of this file. A changed source tree gets a fresh build;
a stale model is never reused. The build is the benchmark's compile step and
is not part of ``setup_s``.

Run as a script, it builds into the directory given as its only argument.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from bench_env import BUILD_DIR, SRC

# The acceptance suite's benchmark model: bundled train corpus (seed 7, 200
# records), pretrain seed 7, 60 epochs, vocabulary extended by the bundled
# prompts and the default soft token; then a default-config calibrator.
RECIPE = {
    "corpus_seed": 7,
    "corpus_size": 200,
    "pretrain_seed": 7,
    "pretrain_epochs": 60,
    "calibration": "CalibrationConfig() defaults",
    "soft_token": "DEFAULT_SOFT_TOKEN_TEXT",
}
BUILD_TIMEOUT_S = 840


@dataclass(frozen=True)
class FrozenArtifacts:
    model_path: Path
    calibrator_path: Path
    info: dict  # recipe, model digest, calibrator digest, build seconds


def source_key() -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in (SRC / "promptcal").rglob("*") if p.is_file()):
        if "__pycache__" in path.parts:
            continue
        h.update(str(path.relative_to(SRC)).encode("utf-8") + b"\x00")
        h.update(path.read_bytes())
    h.update(Path(__file__).read_bytes())
    return h.hexdigest()


def ensure() -> FrozenArtifacts:
    """Return the cached build for these sources, building it first if needed."""
    final = BUILD_DIR / f"frozen-{source_key()[:16]}"
    if not (final / "info.json").is_file():
        BUILD_DIR.mkdir(parents=True, exist_ok=True)
        tmp = BUILD_DIR / f"{final.name}.tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), str(tmp)],
            check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr,
        )
        try:
            os.replace(tmp, final)
        except OSError:  # another run finished the same build first
            shutil.rmtree(tmp, ignore_errors=True)
    info = json.loads((final / "info.json").read_text(encoding="utf-8"))
    return FrozenArtifacts(final / "model.bin", final / "calibrator.bin", info)


def build(outdir: Path) -> None:
    from promptcal import calibration, checkpoint, model
    from promptcal.corpus import generate_corpus
    from promptcal.harness import load_default_ensemble
    from promptcal.vocab import tokenize

    started = time.perf_counter()
    corpus = generate_corpus(RECIPE["corpus_size"], RECIPE["corpus_seed"])
    prompts = list(load_default_ensemble().prompts)
    soft_text = calibration.DEFAULT_SOFT_TOKEN_TEXT
    cfg = model.PretrainConfig(max_epochs=RECIPE["pretrain_epochs"], seed=RECIPE["pretrain_seed"])
    lm = model.pretrain(corpus, cfg, extra_texts=prompts + [soft_text])
    pretrain_s = time.perf_counter() - started

    inputs = [tokenize(r.findings, lm.vocab) for r in corpus]
    prompt_seqs = [tokenize(p, lm.vocab) for p in prompts]
    tok = calibration.SoftPromptToken.from_text(soft_text, lm.vocab)
    calib_cfg = calibration.CalibrationConfig()
    enc = calibration.train_calibrator(inputs, prompt_seqs, tok, lm, calib_cfg)
    soft = calibration.encode_soft(tok, enc).data

    outdir.mkdir(parents=True)
    checkpoint.save_model(lm, outdir / "model.bin")
    checkpoint.save_calibrator(enc, tok, calib_cfg, lm.weight_digest(), outdir / "calibrator.bin")
    info = {
        "recipe": RECIPE,
        "model_digest": lm.weight_digest(),
        "calibrator_soft_vector_sha256": hashlib.sha256(soft.astype("<f8").tobytes()).hexdigest(),
        "pretrain_s": round(pretrain_s, 3),
        "build_s": round(time.perf_counter() - started, 3),
    }
    (outdir / "info.json").write_text(json.dumps(info, indent=1) + "\n", encoding="utf-8")
    print(f"perfbench: built frozen model {info['model_digest'][:16]} in {info['build_s']} s")


if __name__ == "__main__":
    import bench_env

    bench_env.prepare()
    build(Path(sys.argv[1]))
