"""Command-line operator surface.

One binary, subcommands for data generation, ingestion, every training
recipe, retrieval, answering, evaluation, and parameter sweeps. Runs are
deterministic under a fixed seed: rerunning a command reproduces its metrics
log byte for byte.

Exit codes: 0 success, 2 bad input data or values, 3 bad configuration,
4 filesystem trouble.
"""

from __future__ import annotations

import argparse
import json
import sys
import types
import typing
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from .data import (
    Corpus,
    build_corpus_stats,
    load_corpus,
    load_qa,
    load_spans,
    mine_distant_supervision,
    save_qa,
)
from .e2e import (
    E2EConfig,
    evaluate_em,
    evaluate_retrieval,
    individual_topk_infer,
    joint_topk_infer,
    tau_value,
    train_e2e,
)
from .encoder import DualEncoder, EncoderConfig
from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    FormatError,
    InputError,
)
from .evaluation import DEFAULT_KS, EvalReport, emit_report
from .index import EvidenceIndex, build_snapshot, load_index, save_index, top_k
from .reader import Reader, ReaderConfig
from .toy import ToySpec, generate_toy
from .training import TrainConfig, train_ict, train_salient_spans, train_supervised

PATH_KEYS = ("corpus", "train", "dev", "spans")
RETRIEVER_RECIPES = ("ict", "supervised")
READER_RECIPES = ("salient", "e2e-individual", "e2e-joint")
RECIPES = RETRIEVER_RECIPES + READER_RECIPES
ENCODER_KEYS = {"layers", "hidden_size", "heads", "max_seq_len"}
READER_ONLY_KEYS = {"enc_layers", "dec_layers"}
SWEEP_AXES = ("topk", "tau", "train-fraction")


# Config plumbing -------------------------------------------------------------


def _read_config_file(path) -> dict[str, str]:
    raw: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
            key, _, value = text.partition("=")
            key, value = key.strip(), value.strip()
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = value
    return raw


def _coerce(value: str, typ):
    origin = typing.get_origin(typ)
    if origin in (typing.Union, types.UnionType):
        members = [a for a in typing.get_args(typ) if a is not type(None)]
        if value.lower() in ("none", ""):
            return None
        return _coerce(value, members[0])
    if typ is bool:
        low = value.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"expected true/false, got {value!r}")
    if typ is int:
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"expected integer, got {value!r}") from None
    if typ is float:
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"expected number, got {value!r}") from None
    if typ is str:
        return value
    if origin is tuple:
        item = typing.get_args(typ)[0]
        return tuple(_coerce(v.strip(), item) for v in value.split(",") if v.strip())
    raise ConfigError(f"no parser for config type {typ}")


class ResolvedRun:
    """Everything a training run needs, parsed out of one flat namespace."""

    def __init__(self, recipe: str, config, paths: dict[str, str],
                 encoder_kwargs: dict, reader_kwargs: dict):
        self.recipe = recipe
        self.config = config
        self.paths = paths
        self.encoder_kwargs = encoder_kwargs
        self.reader_kwargs = reader_kwargs


def _resolve_run(recipe: str, file_raw: dict[str, str],
                 overrides: dict[str, str]) -> ResolvedRun:
    if recipe not in RECIPES:
        raise ConfigError(f"unknown recipe {recipe!r}; choose from {', '.join(RECIPES)}")
    merged = dict(file_raw)
    merged.update(overrides)  # flags win over the file

    if recipe.startswith("e2e-"):
        cls = E2EConfig
        mode = recipe.removeprefix("e2e-")
        stated = merged.pop("mode", None)
        if stated is not None and stated != mode:
            raise ConfigError(f"recipe {recipe} implies mode={mode}, got mode={stated}")
        if recipe == "e2e-joint":
            flag = merged.get("update_context_encoder")
            if flag is not None and _coerce(flag, bool):
                raise ConfigError(
                    "the joint objective trains with a frozen context tower; "
                    "update_context_encoder=true is not allowed"
                )
        merged["mode"] = mode
    else:
        cls = TrainConfig
        if "mode" in merged:
            raise ConfigError(f"mode is only meaningful for e2e recipes, not {recipe}")

    main_hints = typing.get_type_hints(cls)
    main_known = {f.name for f in fields(cls)}
    enc_hints = typing.get_type_hints(EncoderConfig)
    reader_hints = typing.get_type_hints(ReaderConfig)
    reader_shared = ENCODER_KEYS | READER_ONLY_KEYS | {"max_answer_len"}

    main_kwargs: dict = {}
    encoder_kwargs: dict = {}
    reader_kwargs: dict = {}
    paths: dict[str, str] = {}
    for key, value in merged.items():
        routed = False
        if key in PATH_KEYS:
            paths[key] = str(value)
            continue
        if key in main_known:
            main_kwargs[key] = _coerce(value, main_hints[key])
            routed = True
        if key in ENCODER_KEYS:
            encoder_kwargs[key] = _coerce(value, enc_hints[key])
            routed = True
        if key in reader_shared and key in reader_hints and key != "layers":
            reader_kwargs[key] = _coerce(value, reader_hints[key])
            routed = True
        if not routed:
            raise ConfigError(f"unknown config key {key!r}")
    return ResolvedRun(recipe, cls(**main_kwargs), paths, encoder_kwargs, reader_kwargs)


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _write_resolved_config(path, run: ResolvedRun) -> None:
    lines = [f"recipe={run.recipe}"]
    for key, value in sorted(run.paths.items()):
        lines.append(f"{key}={value}")
    for key, value in sorted(run.encoder_kwargs.items()):
        lines.append(f"{key}={_format_value(value)}")
    for key, value in sorted(run.reader_kwargs.items()):
        if key not in run.encoder_kwargs:
            lines.append(f"{key}={_format_value(value)}")
    for f in sorted(fields(run.config), key=lambda f: f.name):
        lines.append(f"{f.name}={_format_value(getattr(run.config, f.name))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json_safe(record: dict) -> dict:
    out = {}
    for key, value in record.items():
        if isinstance(value, np.generic):
            value = value.item()
        out[key] = value
    return out


def _write_metrics(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(_json_safe(record), sort_keys=True) + "\n")


def _write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


# Shared run machinery ---------------------------------------------------------


def _mine_unmined(examples, corpus, n_hard_negatives):
    if all(ex.positive_ctx is not None for ex in examples):
        return list(examples)
    stats = build_corpus_stats(corpus)
    return [
        ex if ex.positive_ctx is not None
        else mine_distant_supervision(
            ex, corpus, stats, n_hard_negatives=n_hard_negatives
        )
        for ex in examples
    ]


def _load_retriever(run: ResolvedRun, corpus: Corpus, init: str | None) -> DualEncoder:
    if init:
        dual = DualEncoder.load(init)
        if dual.config.vocab_size != len(corpus.vocab):
            raise DimensionError(
                f"checkpoint vocabulary size {dual.config.vocab_size} does not "
                f"match corpus vocabulary size {len(corpus.vocab)}"
            )
        return dual
    enc_config = EncoderConfig(vocab_size=len(corpus.vocab), **run.encoder_kwargs)
    return DualEncoder(enc_config, seed=run.config.seed)


def _load_reader(run: ResolvedRun, corpus: Corpus, init: str | None) -> Reader:
    if init:
        reader = Reader.load(init)
        if reader.config.vocab_size != len(corpus.vocab):
            raise DimensionError(
                f"reader checkpoint vocabulary size {reader.config.vocab_size} "
                f"does not match corpus vocabulary size {len(corpus.vocab)}"
            )
        return reader
    kwargs = dict(run.reader_kwargs)
    for key in ENCODER_KEYS & set(run.encoder_kwargs):
        if key != "layers":
            kwargs.setdefault(key, run.encoder_kwargs[key])
    reader_config = ReaderConfig(vocab_size=len(corpus.vocab), **kwargs)
    return Reader(reader_config, seed=run.config.seed + 1)


def _require_path(run: ResolvedRun, key: str) -> str:
    if key not in run.paths:
        raise ConfigError(f"recipe {run.recipe} needs a {key}= path in the config")
    return run.paths[key]


def run_training(run: ResolvedRun, out_dir: Path,
                 init: str | None = None, init_reader: str | None = None):
    """Execute one recipe; write checkpoints, metrics, index, and the
    resolved config under out_dir. Returns (metrics, retriever, reader)."""
    corpus = load_corpus(_require_path(run, "corpus"))
    retriever = _load_retriever(run, corpus, init)
    out_dir.mkdir(parents=True, exist_ok=True)
    reader = None
    config = run.config

    if run.recipe == "ict":
        metrics = train_ict(corpus, retriever, config)
    elif run.recipe == "supervised":
        dataset = _mine_unmined(
            load_qa(_require_path(run, "train")),
            corpus,
            config.hard_negatives_per_example,
        )
        dev = load_qa(run.paths["dev"]) if "dev" in run.paths else None
        metrics = train_supervised(dataset, corpus, retriever, config, dev=dev)
    elif run.recipe == "salient":
        annotations = load_spans(_require_path(run, "spans"))
        reader = _load_reader(run, corpus, init_reader)
        index = EvidenceIndex(corpus)
        index.build(retriever)
        metrics = train_salient_spans(
            corpus, annotations, retriever, reader, index, config
        )
    else:  # e2e-individual / e2e-joint
        dataset = load_qa(_require_path(run, "train"))
        dev = load_qa(run.paths["dev"]) if "dev" in run.paths else None
        reader = _load_reader(run, corpus, init_reader)
        index = EvidenceIndex(corpus)
        index.build(retriever)
        metrics = train_e2e(dataset, corpus, retriever, reader, index, config, dev=dev)

    retriever.save(out_dir / "retriever.ckpt")
    if reader is not None:
        reader.save(out_dir / "reader.ckpt")
    save_index(build_snapshot(retriever, corpus), out_dir / "index.ridx")
    _write_metrics(out_dir / "metrics.jsonl", metrics)
    _write_resolved_config(out_dir / "resolved.cfg", run)
    return metrics, retriever, reader


# Commands --------------------------------------------------------------------


def cmd_make_toy(args) -> int:
    data = generate_toy(ToySpec(
        n_docs=args.docs, n_train=args.train, n_dev=args.dev, seed=args.seed
    ))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out / "corpus.jsonl", data.corpus)
    _write_jsonl(out / "train.jsonl", data.train)
    _write_jsonl(out / "dev.jsonl", data.dev)
    _write_jsonl(out / "spans.jsonl", data.spans)
    print(json.dumps({
        "documents": len(data.corpus),
        "train": len(data.train),
        "dev": len(data.dev),
        "spans": len(data.spans),
    }, sort_keys=True))
    return 0


def cmd_ingest(args) -> int:
    corpus = load_corpus(args.corpus)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus.vocab.save(out / "vocab.txt")
    counts = {"documents": len(corpus), "vocabulary": len(corpus.vocab)}
    if args.qa:
        counts["qa"] = len(load_qa(args.qa))
    if args.spans:
        counts["spans"] = len(load_spans(args.spans))
    (out / "counts.json").write_text(
        json.dumps(counts, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(counts, sort_keys=True))
    return 0


def _collect_overrides(args) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in args.set or []:
        if "=" not in pair:
            raise ConfigError(f"--set needs key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if getattr(args, "tau_multiple", None) is not None:
        overrides["tau_multiple"] = str(args.tau_multiple)
    if getattr(args, "k", None) is not None:
        overrides["top_k"] = str(args.k)
    return overrides


def cmd_train(args) -> int:
    file_raw = _read_config_file(args.config) if args.config else {}
    run = _resolve_run(args.recipe, file_raw, _collect_overrides(args))
    metrics, _, _ = run_training(
        run, Path(args.out_dir), init=args.init, init_reader=args.init_reader
    )
    final = _json_safe(metrics[-1]) if metrics else {}
    print(json.dumps({"recipe": run.recipe, "records": len(metrics), "final": final},
                     sort_keys=True))
    return 0


def _read_questions(args) -> list[str]:
    if args.question is not None:
        return [args.question]
    with open(args.file, encoding="utf-8") as fh:
        questions = [line.strip() for line in fh if line.strip()]
    if not questions:
        raise InputError(f"{args.file}: no questions found")
    return questions


def _emit_lines(lines, out_path) -> None:
    text = "".join(line + "\n" for line in lines)
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_retrieve(args) -> int:
    corpus = load_corpus(args.corpus)
    dual = DualEncoder.load(args.checkpoint)
    snapshot = load_index(args.index)
    tau = tau_value(args.tau_multiple, dual.config.hidden_size)
    questions = _read_questions(args)
    q_vecs = dual.embed_questions([corpus.vocab.encode(q) for q in questions])
    lines = []
    for question, q_vec in zip(questions, q_vecs):
        result = top_k(snapshot, q_vec, k=args.k, tau=tau)
        lines.append(json.dumps({
            "question": question,
            "doc_ids": list(result.doc_ids),
            "scores": [float(s) for s in result.scores],
            "probs": [float(p) for p in result.probs],
            "titles": [corpus.by_id[i].title for i in result.doc_ids],
        }, ensure_ascii=False, sort_keys=True))
    _emit_lines(lines, args.out)
    return 0


def cmd_answer(args) -> int:
    corpus = load_corpus(args.corpus)
    dual = DualEncoder.load(args.checkpoint)
    reader = Reader.load(args.reader)
    snapshot = load_index(args.index)
    tau = tau_value(args.tau_multiple, dual.config.hidden_size)
    infer = individual_topk_infer if args.mode == "individual" else joint_topk_infer
    lines = []
    for question in _read_questions(args):
        result = infer(
            corpus.vocab.encode(question), dual, reader, snapshot, corpus,
            k=args.k, tau=tau, max_len=args.max_len,
        )
        lines.append(json.dumps({
            "question": question,
            "answer": result.answer,
            "candidates": list(result.candidates),
            "doc_ids": list(result.retrieved.doc_ids),
        }, ensure_ascii=False, sort_keys=True))
    _emit_lines(lines, args.out)
    return 0


def cmd_eval(args) -> int:
    corpus = load_corpus(args.corpus)
    dual = DualEncoder.load(args.checkpoint)
    snapshot = load_index(args.index)
    examples = load_qa(args.dataset)
    ks = tuple(int(v) for v in args.ks.split(",") if v.strip())
    if not ks:
        raise ConfigError("--ks must name at least one cutoff")
    tau = tau_value(args.tau_multiple, dual.config.hidden_size)
    accuracies = evaluate_retrieval(examples, corpus, dual, snapshot, ks, tau)
    em = None
    if args.reader:
        reader = Reader.load(args.reader)
        config = E2EConfig(mode=args.mode, top_k=args.k, max_answer_len=args.max_len)
        em = evaluate_em(examples, corpus, dual, reader, snapshot, config)
    report = EvalReport(
        accuracies=accuracies,
        em=em,
        n_examples=len(examples),
        config={
            "dataset": str(args.dataset),
            "ks": list(ks),
            "mode": args.mode if args.reader else None,
            "tau_multiple": args.tau_multiple,
        },
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_report(report, out / "report.json", out / "report.csv")
    print((out / "report.json").read_text(encoding="utf-8"), end="")
    return 0


def _sweep_values(axis: str, text: str) -> list:
    raw = [v.strip() for v in text.split(",") if v.strip()]
    if not raw:
        raise ConfigError("sweep needs a non-empty value list")
    values = [int(v) if axis == "topk" else float(v) for v in raw]
    unique = []
    for v in values:
        if v in unique:
            warnings.warn(f"duplicate sweep value {v} dropped", stacklevel=2)
        else:
            unique.append(v)
    return unique


def cmd_sweep(args) -> int:
    if args.axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {args.axis!r}; choose from {SWEEP_AXES}")
    values = _sweep_values(args.axis, args.values)
    file_raw = _read_config_file(args.config) if args.config else {}
    overrides = _collect_overrides(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for value in values:
        point = dict(overrides)
        recipe = args.recipe
        if args.axis == "topk":
            point["top_k"] = str(value)
        elif args.axis == "tau":
            point["tau_multiple"] = repr(value)
        run = _resolve_run(recipe, file_raw, point)
        sub_dir = out / f"{args.axis}-{value}"

        if args.axis == "train-fraction":
            if recipe != "supervised":
                raise ConfigError("train-fraction sweeps apply to the supervised recipe")
            if not (0.0 < value <= 1.0):
                raise ConfigError(f"train fraction must lie in (0, 1], got {value}")
            full = load_qa(_require_path(run, "train"))
            rng = np.random.default_rng(run.config.seed)
            keep = max(1, round(value * len(full)))
            order = rng.permutation(len(full))
            corpus = load_corpus(_require_path(run, "corpus"))
            stats = build_corpus_stats(corpus)
            subset = [
                mine_distant_supervision(
                    full[int(i)], corpus, stats,
                    n_hard_negatives=run.config.hard_negatives_per_example,
                )
                for i in order[:keep]
            ]
            sub_path = sub_dir / "train-subset.jsonl"
            sub_dir.mkdir(parents=True, exist_ok=True)
            save_qa(subset, sub_path)
            run.paths["train"] = str(sub_path)

        metrics, retriever, reader = run_training(run, sub_dir)
        corpus = load_corpus(run.paths["corpus"])
        snapshot = load_index(sub_dir / "index.ridx")
        eval_path = run.paths.get("dev", run.paths.get("train"))
        examples = load_qa(eval_path)
        tau = tau_value(run.config.tau_multiple, retriever.config.hidden_size)
        if reader is not None and run.recipe.startswith("e2e-"):
            metric, score = "em", evaluate_em(
                examples, corpus, retriever, reader, snapshot, run.config
            )
        else:
            metric, score = "top1", evaluate_retrieval(
                examples, corpus, retriever, snapshot, (1,), tau
            )[1]
        rows.append((args.axis, value, metric, score))

    csv_path = out / "sweep.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("axis,value,metric,score\n")
        for axis, value, metric, score in rows:
            fh.write(f"{axis},{value},{metric},{score!r}\n")
    print(json.dumps({"points": len(rows), "csv": str(csv_path)}, sort_keys=True))
    return 0


# Parser ----------------------------------------------------------------------


def _add_train_flags(sub) -> None:
    sub.add_argument("--config", help="key=value run config file")
    sub.add_argument("--out-dir", default="run", help="output directory")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--tau-multiple", type=float, default=None, dest="tau_multiple")
    sub.add_argument("--k", type=int, default=None, help="retrieval depth override")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override any config key")


def _add_question_flags(sub) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--question", help="one question string")
    group.add_argument("--file", help="file with one question per line")
    sub.add_argument("--out", default=None, help="write JSONL here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retforge",
        description="Train and evaluate a desk-scale retrieval-augmented QA system.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    toy = commands.add_parser("make-toy", help="generate a synthetic benchmark")
    toy.add_argument("--out-dir", required=True)
    toy.add_argument("--docs", type=int, default=256)
    toy.add_argument("--train", type=int, default=128)
    toy.add_argument("--dev", type=int, default=64)
    toy.add_argument("--seed", type=int, default=0)
    toy.set_defaults(func=cmd_make_toy)

    ingest = commands.add_parser("ingest", help="validate a dataset; write its vocabulary and counts")
    ingest.add_argument("corpus", help="corpus JSONL path")
    ingest.add_argument("--qa", default=None, help="QA JSONL to validate")
    ingest.add_argument("--spans", default=None, help="span JSONL to validate")
    ingest.add_argument("--out-dir", required=True)
    ingest.set_defaults(func=cmd_ingest)

    train = commands.add_parser("train", help="run a training recipe")
    train.add_argument("recipe", help="|".join(RECIPES))
    _add_train_flags(train)
    train.add_argument("--init", default=None, help="retriever checkpoint to start from")
    train.add_argument("--init-reader", default=None, dest="init_reader",
                       help="reader checkpoint to start from")
    train.set_defaults(func=cmd_train)

    retrieve = commands.add_parser("retrieve", help="rank documents for questions")
    retrieve.add_argument("--index", required=True)
    retrieve.add_argument("--checkpoint", required=True)
    retrieve.add_argument("--corpus", required=True)
    retrieve.add_argument("--k", type=int, default=4)
    retrieve.add_argument("--tau-multiple", type=float, default=1.0, dest="tau_multiple")
    _add_question_flags(retrieve)
    retrieve.set_defaults(func=cmd_retrieve)

    answer = commands.add_parser("answer", help="answer questions end to end")
    answer.add_argument("--index", required=True)
    answer.add_argument("--checkpoint", required=True)
    answer.add_argument("--reader", required=True)
    answer.add_argument("--corpus", required=True)
    answer.add_argument("--mode", choices=("individual", "joint"), default="individual")
    answer.add_argument("--k", type=int, default=4)
    answer.add_argument("--max-len", type=int, default=16, dest="max_len")
    answer.add_argument("--tau-multiple", type=float, default=1.0, dest="tau_multiple")
    _add_question_flags(answer)
    answer.set_defaults(func=cmd_answer)

    evaluate = commands.add_parser("eval", help="score retrieval and answers")
    evaluate.add_argument("--dataset", required=True, help="QA JSONL to evaluate")
    evaluate.add_argument("--index", required=True)
    evaluate.add_argument("--checkpoint", required=True)
    evaluate.add_argument("--corpus", required=True)
    evaluate.add_argument("--reader", default=None, help="add exact match scoring")
    evaluate.add_argument("--mode", choices=("individual", "joint"), default="individual")
    evaluate.add_argument("--k", type=int, default=4)
    evaluate.add_argument("--max-len", type=int, default=16, dest="max_len")
    evaluate.add_argument("--ks", default=",".join(str(k) for k in DEFAULT_KS))
    evaluate.add_argument("--tau-multiple", type=float, default=1.0, dest="tau_multiple")
    evaluate.add_argument("--out-dir", default="eval")
    evaluate.set_defaults(func=cmd_eval)

    sweep = commands.add_parser("sweep", help="run a parameter grid")
    sweep.add_argument("--axis", required=True, help="|".join(SWEEP_AXES))
    sweep.add_argument("--values", required=True, help="comma-separated grid")
    sweep.add_argument("--recipe", default="supervised")
    _add_train_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except (InputError, FormatError, DomainError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
