"""The benchmark workloads, their output checks and their metrics.

Every run executes the same pipeline through the public API and the
in-process CLI (``mulco.cli.main``):

1. set-up, repeated ``setup_repeats`` times: generate the toy training and
   held-out corpora and the dense codec corpus, write them to files (the
   held-out and codec corpora as ``Sizes.parts`` part files), and build the
   training examples (``train._make_examples``);
2. rounds, each running every phase in turn:

   * setup: one more set-up, so that the set-up samples are spread over
     the run like every other phase's;
   * train: ``mulco.train`` with the default ``TrainConfig`` for a fixed
     number of epochs;
   * infer: the trained parameters go through a checkpoint file, then
     ``mulco predict`` + ``mulco eval`` on each held-out part, then a closed
     loop of one client calling ``predict_mentions`` once per sentence;
   * codec: ``mulco validate``, ``coverage``, ``encode`` and ``decode`` on
     each part of the dense corpus with eight scopes.

Every end-to-end metric is reported on every workload, so every phase runs
in every round.  The ``codec`` workload gives the codec phase two more
passes a round.

Every time is read from ``clock``, the CPU time of this process.  The
pipeline runs on one thread (BLAS is pinned to one), so on an idle machine
its CPU time and its wall time agree; on a shared one, CPU time leaves out
the spells in which other tenants hold the processor.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from tracing import submodule, traced_names

WORKLOADS = {
    "train": "the whole pipeline, half of it training: BiLSTM forward and "
    "backward, loss, clipping and AdamW, where batching and sigmoid work must show",
    "codec": "the pipeline plus two more codec passes a round over long sentences "
    "with ~100 laminar mentions sharing starts and ends, with 8 scopes",
}

# CPU time of this process: see the module docstring
clock = time.process_time

CODEC_SCOPES = "B-min,B-max,E-min,E-max,B2-min,B2-max,E2-min,E2-max"


@dataclass(frozen=True)
class Sizes:
    train_sentences: int = 2000
    heldout_sentences: int = 2000
    codec_sentences: int = 400
    epochs: int = 3
    # the held-out and codec corpora are split into this many files, each
    # run through the CLI and timed on its own (see Run.keep_fastest)
    parts: int = 10
    setup_repeats: int = 2  # before the first round; each round adds one
    min_rounds: int = 4
    f1_floor: float = 0.80
    evaluate_check_sentences: int = 200


FULL = Sizes()
SMOKE = replace(
    FULL,
    train_sentences=500,
    heldout_sentences=40,
    codec_sentences=6,
    parts=2,
    setup_repeats=1,
    min_rounds=2,
    f1_floor=0.2,
    evaluate_check_sentences=10,
)


@dataclass(frozen=True)
class Seeds:
    """Input seeds.  ``from_base(n)`` gives (n, n + 2, n + 6): the default
    base 101 yields the training corpus 101, the held-out corpus 103 and the
    codec corpus 107; base 211 is the second, held-back set."""

    train: int
    heldout: int
    codec: int

    @classmethod
    def from_base(cls, base: int) -> "Seeds":
        return cls(base, base + 2, base + 6)


# -- dense laminar codec corpus -------------------------------------------

ALPHABET = "abcdefghijklmnopqrstuvwxyzäöüßéñ中文字"
CODEC_CATEGORIES = ("LOC", "ORG", "PER")


def _nest(rng: np.random.Generator, start: int, end: int, depth: int, out: list) -> None:
    """Fill ``[start, end)`` with disjoint child mentions, recursively.  The
    first child always starts at ``start`` and children often run to ``end``,
    so many mentions share a first or last token with their parent."""
    if depth >= 5 or end - start < 2:
        return
    pos = start
    while pos < end:
        if pos > start and rng.random() < 0.3:
            pos += int(rng.integers(1, 3))
            continue
        room = end - pos if pos > start else end - pos - 1  # no duplicate span
        if room < 1:
            break
        if rng.random() < 0.5:
            length = int(rng.integers(1, room + 1))
        else:
            length = max(1, room - int(rng.integers(0, 3)))
        out.append((pos, pos + length, CODEC_CATEGORIES[int(rng.integers(3))]))
        _nest(rng, pos, pos + length, depth + 1, out)
        pos += length


def dense_corpus(size: int, seed: int):
    """``size`` sentences of 100-200 code points, ~100 properly nested
    mentions each; deterministic for a seed."""
    corpus = submodule("corpus")
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(size):
        n = int(rng.integers(100, 201))
        text = "".join(ALPHABET[i] for i in rng.integers(len(ALPHABET), size=n))
        spans: list[tuple[int, int, str]] = []
        pos = int(rng.integers(0, 3))
        while pos < n:
            length = min(n - pos, int(rng.integers(4, 41)))
            spans.append((pos, pos + length, CODEC_CATEGORIES[int(rng.integers(3))]))
            _nest(rng, pos, pos + length, 1, spans)
            pos += length + int(rng.integers(0, 4))
        mentions = tuple(corpus.Mention(*s) for s in spans)
        sentences.append(corpus.Sentence(text, mentions))
    return corpus.Corpus(tuple(sentences), CODEC_CATEGORIES)


# -- helpers -------------------------------------------------------------


def _mention_rows(mentions) -> list[tuple[int, int, str]]:
    return sorted((m.start, m.end, m.category) for m in mentions)


def _file_rows(*paths: Path) -> list[list[tuple[int, int, str]]]:
    """The mentions of every sentence in the files, in order."""
    rows = []
    for path in paths:
        for line in path.read_text(encoding="utf-8").splitlines():
            ents = json.loads(line)["entities"]
            rows.append(sorted((e["start"], e["end"], e["category"]) for e in ents))
    return rows


def part_starts(size: int, parts: int) -> list[int]:
    """Index of the first sentence of each of ``parts`` near-equal parts,
    then ``size``."""
    return [k * size // parts for k in range(parts + 1)]


def split(c, parts: int) -> list:
    """``c`` as ``parts`` consecutive corpora of near-equal size."""
    corpus = submodule("corpus")
    starts = part_starts(len(c.sentences), parts)
    return [corpus.Corpus(c.sentences[a:b], c.categories) for a, b in zip(starts, starts[1:])]


def params_checksum(params) -> str:
    h = hashlib.sha256()
    for name, arr in submodule("model").named_params(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


@contextlib.contextmanager
def step_stamps():
    """Yields a list that receives the time at which each ``AdamW.step``
    returns; the intervals between them are the optimizer-step times."""
    adamw = submodule("train").AdamW
    inner = adamw.__dict__["step"]
    stamps: list[float] = []

    def step(opt, *args, **kwargs):
        inner(opt, *args, **kwargs)
        stamps.append(clock())

    adamw.step = step
    try:
        yield stamps
    finally:
        adamw.step = inner


# -- one pass of a workload ----------------------------------------------


class Run:
    """State, timings and check results of one pass over the pipeline."""

    def __init__(self, sizes: Sizes, seeds: Seeds, workdir: Path) -> None:
        self.sizes = sizes
        self.seeds = seeds
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_s: list[float] = []
        self.fastest: dict[str, np.ndarray] = {}
        self.repeats: dict[str, int] = defaultdict(int)
        self.rounds = 0
        self.completed = False
        # CPU time / wall time of the rounds: below 1 when other tenants
        # held the processor, which the timings leave out
        self.cpu_share = 0.0
        self.checksums: list[str] = []
        self.f1s: list[float] = []
        self.paths = {"train": workdir / "train.jsonl", "ckpt": workdir / "model.ckpt"}
        for name in ("heldout", "codec", "pred", "labelings", "roundtrip"):
            self.paths[name] = [workdir / f"{name}-{k}.jsonl" for k in range(sizes.parts)]

    def clear(self, *names: str) -> None:
        """Remove earlier outputs before a timed step rewrites them.  On a
        filesystem that discards freed blocks, truncating a large file costs
        more than writing it, and that is not the program's work."""
        for name in names:
            paths = self.paths[name]
            for path in paths if isinstance(paths, list) else [paths]:
                path.unlink(missing_ok=True)

    def keep_fastest(self, key: str, times: np.ndarray) -> None:
        """Keep, element by element, the fastest of every repetition of
        ``times``: one time per training segment, held-out sentence or corpus
        part.  The machine slows down in spells of a fraction of a second;
        a spell costs one repetition of a few elements, not the figure."""
        best = self.fastest.get(key)
        self.fastest[key] = times if best is None else np.minimum(best, times)
        self.repeats[key] += 1

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def cli(self, *argv) -> str:
        """``mulco.cli.main(argv)`` with its standard output captured."""
        self.attempted += 1
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = submodule("cli").main([str(a) for a in argv])
        self.check(status == 0, f"mulco {argv[0]} exited with {status}")
        return buf.getvalue()

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        toydata, corpus, model = submodule("toydata"), submodule("corpus"), submodule("model")
        train_mod = submodule("train")
        config = train_mod.TrainConfig()
        self.clear("train", "heldout", "codec")
        t0 = clock()
        self.train_corpus = toydata.generate_toy_corpus(self.sizes.train_sentences, self.seeds.train)
        self.heldout = toydata.generate_toy_corpus(self.sizes.heldout_sentences, self.seeds.heldout)
        self.codec_corpus = dense_corpus(self.sizes.codec_sentences, self.seeds.codec)
        corpus.save_corpus(self.train_corpus, self.paths["train"])
        for name, c in (("heldout", self.heldout), ("codec", self.codec_corpus)):
            for path, part in zip(self.paths[name], split(c, self.sizes.parts)):
                corpus.save_corpus(part, path)
        vocab = model.Vocab.build(s.text for s in self.train_corpus.sentences)
        params = model.init_params(
            "mulco",
            self.train_corpus.categories,
            vocab,
            embedding_dim=config.embedding_dim,
            hidden=config.hidden,
            num_layers=config.num_layers,
            max_len=config.max_len,
            rng=np.random.default_rng(config.seed),
        )
        examples = train_mod._make_examples(self.train_corpus, params, None)
        self.setup_s.append(clock() - t0)
        self.check(len(examples) == len(self.train_corpus), "set-up built too few examples")

    # -- train -----------------------------------------------------------

    def train_phase(self) -> None:
        config = submodule("train").TrainConfig(epochs=self.sizes.epochs)
        self.attempted += 1
        with step_stamps() as stamps:
            t0 = clock()
            params, report = sys.modules["mulco"].train(self.train_corpus, config)
            t1 = clock()
        # the call split at each optimizer step: set-up and the first step,
        # then one segment per later step, then what follows the last step
        self.keep_fastest("train_segments", np.diff([t0, *stamps, t1]))
        self.sentences_trained = len(self.train_corpus) * report.epochs_run
        losses = report.train_losses
        self.check(report.epochs_run == config.epochs, "training stopped early")
        self.check(all(np.isfinite(losses)), f"non-finite epoch loss: {losses}")
        self.check(
            all(b < a for a, b in zip(losses, losses[1:])), f"epoch losses do not decrease: {losses}"
        )
        checksum = params_checksum(params)
        if self.checksums:
            self.check(checksum == self.checksums[0], "same-seed trainings gave different parameters")
        self.checksums.append(checksum)
        self.params = params

    # -- infer -----------------------------------------------------------

    def infer_phase(self) -> None:
        p, train_mod, checkpoint = self.paths, submodule("train"), submodule("checkpoint")
        self.clear("ckpt", "pred")
        self.attempted += 2
        checkpoint.save_params(p["ckpt"], self.params)
        loaded = checkpoint.load_params(p["ckpt"])
        times = np.empty(self.sizes.parts)
        counts = np.zeros(3, dtype=int)
        for k, (gold, pred) in enumerate(zip(p["heldout"], p["pred"])):
            t0 = clock()
            self.cli("predict", p["ckpt"], gold, pred)
            report = json.loads(self.cli("eval", gold, pred, "--format", "json"))
            times[k] = clock() - t0
            counts += [report["tp"], report["pred"], report["gold"]]
        self.keep_fastest("predict_parts", times)
        # micro-F1 of the whole held-out corpus from the parts' counts
        f1 = submodule("metrics").EvalReport(*(int(c) for c in counts)).f1
        times = np.empty(len(self.heldout))
        results = []
        for i, sent in enumerate(self.heldout.sentences):
            ta = clock()
            results.append(train_mod.predict_mentions(loaded, sent.text))
            times[i] = clock() - ta
        self.attempted += len(results)
        self.keep_fastest("sentence_ms", times * 1e3)
        self._check_infer(f1, results, loaded)

    def _check_infer(self, f1: float, results: list, loaded) -> None:
        self.check(f1 >= self.sizes.f1_floor, f"infer_f1 {f1:.4f} below floor {self.sizes.f1_floor}")
        self.check(
            _file_rows(*self.paths["pred"]) == [_mention_rows(m) for m in results],
            "mulco predict file differs from the closed-loop predict_mentions results",
        )
        score = submodule("metrics").score
        gold = [s.mentions for s in self.heldout.sentences]
        self.check(
            score(gold, results).f1 == f1, "mulco eval F1 differs from the score of the closed-loop results"
        )
        if not self.f1s:
            k = self.sizes.evaluate_check_sentences
            subset = submodule("corpus").Corpus(self.heldout.sentences[:k], self.heldout.categories)
            self.check(
                submodule("train").evaluate(loaded, subset).f1 == score(gold[:k], results[:k]).f1,
                "evaluate() disagrees with predict_mentions on the held-out prefix",
            )
        else:
            self.check(f1 == self.f1s[0], "infer_f1 changed between rounds")
        self.f1s.append(f1)

    # -- codec -----------------------------------------------------------

    def codec_phase(self) -> None:
        self.clear("labelings", "roundtrip")
        outputs = {}
        for sub in CODEC_COMMANDS:
            times = np.empty(self.sizes.parts)
            outputs[sub] = []
            for k in range(self.sizes.parts):
                argv = self.codec_argv(sub, k)
                t0 = clock()
                outputs[sub].append(self.cli(*argv))
                times[k] = clock() - t0
            self.keep_fastest(sub, times)
        outputs["labelings"] = [path.read_bytes() for path in self.paths["labelings"]]
        outputs["roundtrip"] = [path.read_bytes() for path in self.paths["roundtrip"]]
        if hasattr(self, "codec_outputs"):
            for key, value in outputs.items():
                self.check(value == self.codec_outputs[key], f"codec {key} output changed between iterations")
            return
        self.codec_outputs = outputs
        self._check_codec(outputs)

    def codec_argv(self, sub: str, k: int) -> tuple:
        """The CLI arguments of codec command ``sub`` on part ``k``."""
        codec, labelings = self.paths["codec"][k], self.paths["labelings"][k]
        return {
            "validate": ("validate", codec),
            "coverage": ("coverage", codec, "--scopes", CODEC_SCOPES),
            "encode": ("encode", codec, labelings, "--scopes", CODEC_SCOPES),
            "decode": (
                "decode", labelings, self.paths["roundtrip"][k], "--corpus", codec, "--scopes", CODEC_SCOPES
            ),
        }[sub]

    def _check_codec(self, outputs: dict) -> None:
        scopes = submodule("scopes")
        sentences = self.codec_corpus.sentences
        total = sum(len(s.mentions) for s in sentences)
        starts = part_starts(len(sentences), self.sizes.parts)
        cov = {"covered": 0, "uncovered": 0}
        uncovered = defaultdict(list)
        for k, (a, b) in enumerate(zip(starts, starts[1:])):
            mentions = sum(len(s.mentions) for s in sentences[a:b])
            got = outputs["validate"][k].strip()
            self.check(
                got == f"OK: {b - a} sentences, {mentions} mentions", f"unexpected validate output: {got!r}"
            )
            part = json.loads(outputs["coverage"][k])
            for key in cov:
                cov[key] += part[key]
            for u in part["uncovered_mentions"]:
                uncovered[a + u["sentence"]].append((u["start"], u["end"], u["category"]))
        roundtrip = _file_rows(*self.paths["roundtrip"])
        self.check(len(roundtrip) == len(sentences), "decode wrote the wrong number of sentences")
        eight = [scopes.Scope.parse(s) for s in CODEC_SCOPES.split(",")]
        covered_total = 0
        for i, (sent, got) in enumerate(zip(sentences, roundtrip)):
            ref = scopes.coverage(sent, eight)
            covered_total += len(ref.covered)
            self.check(got == _mention_rows(ref.covered), f"sentence {i}: decode(encode) != covered")
            gold = _mention_rows(sent.mentions)
            self.check(
                sorted(got + uncovered[i]) == gold, f"sentence {i}: covered + uncovered != gold"
            )
            self.check(
                scopes.four_scope_uncovered(sent) == set(scopes.coverage(sent).uncovered),
                f"sentence {i}: four_scope_uncovered disagrees with coverage",
            )
        self.check(cov["covered"] == covered_total, "coverage count differs from the API")
        self.check(cov["covered"] + cov["uncovered"] == total, "covered + uncovered != mentions")


PHASES = ("setup", "train", "infer", "codec")
CODEC_COMMANDS = ("validate", "coverage", "encode", "decode")
# Passes of the codec phase per round; every other phase runs once a round.
CODEC_PASSES = {"train": 1, "codec": 3}


def run_pass(
    workload: str,
    sizes: Sizes,
    seeds: Seeds,
    workdir: Path,
    seconds: float,
    rounds: int | None = None,
    tracer=None,
) -> Run:
    """One pass: set-up, then rounds of every phase until ``seconds`` have
    passed and at least ``sizes.min_rounds`` rounds ran, or exactly
    ``rounds`` rounds.

    Rounds interleave the phases so that the repetitions of each one are
    spread over the whole run.  The machine's speed swings over spans of
    seconds, and every time is the fastest of its repetitions, so spread-out
    repetitions are what make the figures steady."""
    run = Run(sizes, seeds, workdir)
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    passes = {"setup": 1, "train": 1, "infer": 1, "codec": CODEC_PASSES[workload]}
    steps = {
        "setup": run.setup,
        "train": run.train_phase,
        "infer": run.infer_phase,
        "codec": run.codec_phase,
    }
    try:
        with span("bench.setup"):
            for _ in range(sizes.setup_repeats):
                run.setup()
        t0, c0 = time.perf_counter(), clock()
        while True:
            for phase in PHASES:
                with span(f"bench.{phase}"):
                    for _ in range(passes[phase]):
                        steps[phase]()
            run.rounds += 1
            if rounds is not None:
                if run.rounds >= rounds:
                    break
            elif run.rounds >= sizes.min_rounds and time.perf_counter() - t0 >= seconds:
                break
        run.cpu_share = (clock() - c0) / (time.perf_counter() - t0)
        run.completed = True
    except Exception as exc:  # a raised operation is a counted failure; the pass stops
        traceback.print_exc()
        run.failures.append(f"raised {type(exc).__name__}: {exc}")
    return run


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q))


def end_to_end(run: Run, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """Set-up is a median.  Every other time is built from the fastest
    timing of each training segment, held-out sentence or corpus part
    (``Run.keep_fastest``): throughputs divide by their sum, latencies are
    percentiles of them."""
    if not run.completed:
        return {}  # the pass raised; its failure is already counted
    best = run.fastest
    step_ms = best["train_segments"][1:-1] * 1e3
    out = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "train_sent_per_s": (run.sentences_trained / best["train_segments"].sum(), "sent/s"),
        "train_step_ms_p50": (_percentile(step_ms, 50), "ms"),
        "train_step_ms_p95": (_percentile(step_ms, 95), "ms"),
        "predict_sent_per_s": (len(run.heldout) / best["predict_parts"].sum(), "sent/s"),
        "predict_ms_p50": (_percentile(best["sentence_ms"], 50), "ms"),
        "predict_ms_p99": (_percentile(best["sentence_ms"], 99), "ms"),
        "infer_f1": (run.f1s[0], "ratio"),
    }
    for sub in ("validate", "encode", "decode", "coverage"):
        out[f"{sub}_sent_per_s"] = (len(run.codec_corpus) / best[sub].sum(), "sent/s")
    out["peak_rss_mb"] = (peak_rss_mb, "MB")
    return out


def sample_counts(run: Run) -> dict[str, int]:
    """How many timings each figure rests on: set-ups, and repetitions of
    each kept-fastest array with its length."""
    counts = {"setup_s": len(run.setup_s)}
    for key, times in sorted(run.fastest.items()):
        counts[f"{key}.repeats"] = run.repeats[key]
        counts[f"{key}.elements"] = len(times)
    return counts


def per_layer(tracer, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    totals = tracer.totals()
    out: dict[str, tuple[float, str]] = {}
    for name in traced_names():
        row = totals.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        out[f"{name}.s"] = (row["s"], "s")
        out[f"{name}.self_s"] = (row["self_s"], "s")
        out[f"{name}.calls"] = (row["calls"], "count")
    c = tracer.counts
    out["train.clip_gradients.clipped_ratio"] = (
        c["train.clip_gradients.clipped"] / max(c["train.clip_gradients.steps"], 1),
        "ratio",
    )
    out["scopes.decode_scored.candidates"] = (c["scopes.decode_scored.candidates"], "count")
    out["scopes.aggregate.kept_ratio"] = (
        c["scopes.aggregate.kept"] / max(c["scopes.aggregate.candidates_in"], 1),
        "ratio",
    )
    recurrence_s, train_s = tracer.self_time_under(
        "bench.train", ("model._dir_forward", "model._dir_backward")
    )
    out["model.recurrence_self_share"] = (recurrence_s / train_s if train_s else 0.0, "ratio")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out
