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
import math
import sys
import types
import typing
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .data import (
    Corpus,
    build_corpus_stats,
    check_document_ids,
    load_corpus,
    load_qa,
    load_spans,
    mine_distant_supervision,
    save_qa,
)
from .e2e import (
    MODES,
    E2EConfig,
    answer_questions,
    evaluate_em,
    evaluate_retrieval,
    exact_match_rate,
    read_retrieved,
    retrieve,
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
from .evaluation import DEFAULT_KS, EvalReport, emit_report, topk_accuracy
from .files import json_safe as _json_safe  # perfbench/workloads.py reads cli._json_safe
from .files import jsonl, write_atomic
from .index import EvidenceIndex, build_snapshot, load_index, save_index, top_k
from .reader import Reader, ReaderConfig
from .text import RESERVED_TOKENS
from .toy import ToySpec, generate_toy
from .training import TrainConfig, train_ict, train_salient_spans, train_supervised

PATH_KEYS = ("corpus", "train", "dev", "spans", "init", "init_reader")
RETRIEVER_RECIPES = ("ict", "supervised")
READER_RECIPES = ("salient", "e2e-individual", "e2e-joint")
RECIPES = RETRIEVER_RECIPES + READER_RECIPES
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


@dataclass
class ResolvedRun:
    """Everything a training run needs, parsed out of one flat namespace."""

    recipe: str
    config: object
    paths: dict[str, str]
    encoder_kwargs: dict
    reader_kwargs: dict


def _resolve_run(recipe: str, file_raw: dict[str, str],
                 overrides: dict[str, str]) -> ResolvedRun:
    if recipe not in RECIPES:
        raise ConfigError(f"unknown recipe {recipe!r}; choose from {', '.join(RECIPES)}")
    merged = dict(file_raw)
    merged.update(overrides)  # flags win over the file
    stated = merged.pop("recipe", recipe)  # as a run's resolved.cfg states it
    if stated != recipe:
        raise ConfigError(f"the config is for recipe {stated}, not {recipe}")

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

    main_kwargs: dict = {}
    encoder_kwargs: dict = {}
    reader_kwargs: dict = {}
    paths: dict[str, str] = {}
    # a key sets the field of its name in every config that has one; the
    # model configs' vocab_size comes from the corpus
    routes = [(cls, main_kwargs), (EncoderConfig, encoder_kwargs), (ReaderConfig, reader_kwargs)]
    for key, value in merged.items():
        if key in PATH_KEYS:
            paths[key] = str(value)
            continue
        routed = False
        for target, kwargs in routes:
            hints = typing.get_type_hints(target)
            if key in hints and key != "vocab_size":
                kwargs[key] = _coerce(value, hints[key])
                routed = True
        if not routed:
            raise ConfigError(f"unknown config key {key!r}")
    # both model configs, checked before any file is read, whether or not the
    # recipe builds a reader; the smallest valid vocabulary stands in for the corpus's
    for model_cls, kwargs in routes[1:]:
        try:
            model_cls(vocab_size=len(RESERVED_TOKENS), **kwargs)
        except DomainError as exc:
            raise ConfigError(str(exc)) from None
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
    """Each key once, so --config can read the file back. A key of a model
    config and the recipe's config is written only if the run set it: unset,
    each config keeps its own default, which one line cannot state."""
    lines = [f"recipe={run.recipe}"]
    lines += [f"{key}={value}" for key, value in sorted(run.paths.items())]
    reader = {k: v for k, v in run.reader_kwargs.items() if k not in run.encoder_kwargs}
    shared = {f.name for cls in (EncoderConfig, ReaderConfig) for f in fields(cls)}
    config = {k: v for k, v in asdict(run.config).items() if k not in shared}
    for kwargs in (run.encoder_kwargs, reader, config):
        lines += [f"{key}={_format_value(value)}" for key, value in sorted(kwargs.items())]
    write_atomic(path, "\n".join(lines) + "\n")


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


def _init_model(cls, config_cls, kwargs: dict, seed: int, corpus: Corpus, init: str | None):
    """A new model over the corpus vocabulary, or the one saved at `init`,
    whose vocabulary must be the corpus's and whose config must hold every
    model key the run sets."""
    if not init:
        return cls(config_cls(vocab_size=len(corpus.vocab), **kwargs), seed=seed)
    model = cls.load(init)
    for key, value in kwargs.items():
        saved = getattr(model.config, key)
        if saved != value:
            raise ConfigError(
                f"{init}: the checkpoint has {key}={saved}, but the run sets {key}={value}"
            )
    if model.config.vocab_size != len(corpus.vocab):
        raise DimensionError(
            f"{init}: checkpoint vocabulary size {model.config.vocab_size} does not "
            f"match corpus vocabulary size {len(corpus.vocab)}"
        )
    return model


def _require_path(run: ResolvedRun, key: str) -> str:
    if key not in run.paths:
        raise ConfigError(f"recipe {run.recipe} needs a {key}= path in the config")
    return run.paths[key]


def run_training(run: ResolvedRun, out_dir: Path):
    """Execute one recipe, starting from the run's `init`/`init_reader`
    checkpoints if it names them; write checkpoints, metrics, index, and the
    resolved config under out_dir. Returns (metrics, retriever, reader,
    corpus, the saved index snapshot)."""
    corpus = load_corpus(_require_path(run, "corpus"))
    retriever = _init_model(
        DualEncoder, EncoderConfig, run.encoder_kwargs, run.config.seed, corpus,
        run.paths.get("init"),
    )
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
    else:
        reader = _init_model(
            Reader, ReaderConfig, run.reader_kwargs, config.seed + 1, corpus,
            run.paths.get("init_reader"),
        )
        index = EvidenceIndex(corpus)
        index.build(retriever)
        if run.recipe == "salient":
            annotations = load_spans(_require_path(run, "spans"))
            metrics = train_salient_spans(corpus, annotations, retriever, reader, index, config)
        else:  # e2e-individual / e2e-joint
            dataset = load_qa(_require_path(run, "train"))
            dev = load_qa(run.paths["dev"]) if "dev" in run.paths else None
            metrics = train_e2e(dataset, corpus, retriever, reader, index, config, dev=dev)

    retriever.save(out_dir / "retriever.ckpt")
    if reader is not None:
        reader.save(out_dir / "reader.ckpt")
    snapshot = build_snapshot(retriever, corpus)
    save_index(snapshot, out_dir / "index.ridx")
    write_atomic(out_dir / "metrics.jsonl", jsonl(metrics))
    _write_resolved_config(out_dir / "resolved.cfg", run)
    return metrics, retriever, reader, corpus, snapshot


# Commands --------------------------------------------------------------------


def cmd_make_toy(args) -> int:
    data = generate_toy(ToySpec(
        n_docs=args.docs, n_train=args.train, n_dev=args.dev, seed=args.seed
    ))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("corpus", "train", "dev", "spans"):
        write_atomic(out / f"{name}.jsonl", jsonl(getattr(data, name)))
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
        examples = load_qa(args.qa)
        check_document_ids(examples, corpus)
        counts["qa"] = len(examples)
    if args.spans:
        counts["spans"] = len(load_spans(args.spans))
    write_atomic(out / "counts.json", json.dumps(counts, sort_keys=True, indent=2) + "\n")
    print(json.dumps(counts, sort_keys=True))
    return 0


def _collect_overrides(args) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for pair in args.set or []:
        if "=" not in pair:
            raise ConfigError(f"--set needs key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = value.strip()
    # a flag sets the key of its name, except --k, which sets top_k
    for flag in ("seed", "tau_multiple", "k", "init", "init_reader"):
        value = getattr(args, flag, None)
        if value is not None:
            overrides["top_k" if flag == "k" else flag] = str(value)
    return overrides


def cmd_train(args) -> int:
    file_raw = _read_config_file(args.config) if args.config else {}
    run = _resolve_run(args.recipe, file_raw, _collect_overrides(args))
    metrics = run_training(run, Path(args.out_dir))[0]
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


def _deployment(args):
    """The corpus, retriever, index snapshot and tau of --corpus, --checkpoint,
    --index and --tau-multiple. Checks --k, --tau-multiple and any --max-len
    before it reads a file; a bad one is a ConfigError naming the flag."""
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    if not 0 < args.tau_multiple < math.inf:  # NaN fails too
        raise ConfigError(f"--tau-multiple must be finite and positive, got {args.tau_multiple}")
    if getattr(args, "max_len", 1) < 1:
        raise ConfigError(f"--max-len must be >= 1, got {args.max_len}")
    corpus = load_corpus(args.corpus)
    dual = DualEncoder.load(args.checkpoint)
    snapshot = load_index(args.index)
    return corpus, dual, snapshot, tau_value(args.tau_multiple, dual.config.hidden_size)


def cmd_retrieve(args) -> int:
    corpus, dual, snapshot, tau = _deployment(args)
    questions = _read_questions(args)
    q_vecs = dual.embed_questions([corpus.vocab.encode(q) for q in questions])
    records = []
    for question, q_vec in zip(questions, q_vecs):
        result = top_k(snapshot, q_vec, k=args.k, tau=tau)
        records.append({
            "question": question,
            "doc_ids": list(result.doc_ids),
            "scores": [float(s) for s in result.scores],
            "probs": [float(p) for p in result.probs],
            "titles": [corpus.by_id[i].title for i in result.doc_ids],
        })
    if args.out:
        write_atomic(args.out, jsonl(records))
    else:
        sys.stdout.write(jsonl(records))
    return 0


def cmd_answer(args) -> int:
    corpus, dual, snapshot, tau = _deployment(args)
    reader = Reader.load(args.reader)
    questions = _read_questions(args)
    results = answer_questions(
        [corpus.vocab.encode(q) for q in questions], dual, reader, snapshot, corpus,
        args.mode, args.k, tau, args.max_len,
    )
    records = [{
        "question": question,
        "answer": result.answer,
        "candidates": list(result.candidates),
        "doc_ids": list(result.retrieved.doc_ids),
    } for question, result in zip(questions, results)]
    if args.out:
        write_atomic(args.out, jsonl(records))
    else:
        sys.stdout.write(jsonl(records))
    return 0


def _number_list(flag: str, text: str, typ) -> tuple:
    """The comma-separated numbers of `flag`; a ConfigError naming it otherwise."""
    try:
        return _coerce(text, tuple[typ, ...])
    except ConfigError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def cmd_eval(args) -> int:
    ks = _number_list("--ks", args.ks, int)
    if not ks:
        raise ConfigError("--ks must name at least one cutoff")
    if min(ks) < 1:
        raise ConfigError(f"--ks must name cutoffs >= 1, got {min(ks)}")
    corpus, dual, snapshot, tau = _deployment(args)
    examples = load_qa(args.dataset)
    # one search serves both metrics: EM reads the first k rows of each
    k = min(args.k, snapshot.size)
    questions = [corpus.vocab.encode(ex.question) for ex in examples]
    found = retrieve(questions, dual, snapshot, max(max(ks), k if args.reader else 0), tau)
    accuracies = topk_accuracy(found, examples, corpus, ks)
    em = None
    if args.reader:
        results = read_retrieved(questions, [r.head(k, tau) for r in found],
                                 Reader.load(args.reader), corpus, args.mode, args.max_len)
        em = exact_match_rate(results, examples)
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
    values = _number_list("--values", text, int if axis == "topk" else float)
    if not values:
        raise ConfigError("sweep needs a non-empty value list")
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
    # every point's run resolves, and every fraction checks, before one trains
    runs = []
    for value in values:
        point = dict(overrides)
        if args.axis == "topk":
            point["top_k"] = str(value)
        elif args.axis == "tau":
            point["tau_multiple"] = repr(value)
        runs.append(_resolve_run(args.recipe, file_raw, point))
    if args.axis == "train-fraction":
        if runs[0].recipe != "supervised":
            raise ConfigError("train-fraction sweeps apply to the supervised recipe")
        for value in values:
            if not (0.0 < value <= 1.0):
                raise ConfigError(f"train fraction must lie in (0, 1], got {value}")
        # every point mines from the same questions, corpus and shuffle
        full = load_qa(_require_path(runs[0], "train"))
        pool = load_corpus(_require_path(runs[0], "corpus"))
        stats = build_corpus_stats(pool)
        order = np.random.default_rng(runs[0].config.seed).permutation(len(full))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for value, run in zip(values, runs):
        sub_dir = out / f"{args.axis}-{value}"
        if args.axis == "train-fraction":
            keep = max(1, round(value * len(full)))
            subset = [
                mine_distant_supervision(
                    full[int(i)], pool, stats,
                    n_hard_negatives=run.config.hard_negatives_per_example,
                )
                for i in order[:keep]
            ]
            sub_path = sub_dir / "train-subset.jsonl"
            sub_dir.mkdir(parents=True, exist_ok=True)
            save_qa(subset, sub_path)
            run.paths["train"] = str(sub_path)

        _, retriever, reader, corpus, snapshot = run_training(run, sub_dir)
        examples = load_qa(run.paths.get("dev", run.paths.get("train")))
        tau = tau_value(run.config.tau_multiple, retriever.config.hidden_size)
        if reader is not None and run.recipe.startswith("e2e-"):
            metric, score = "em", evaluate_em(
                examples, corpus, retriever, reader, snapshot, run.config.mode,
                run.config.top_k, tau, run.config.max_answer_len,
            )
        else:
            metric, score = "top1", evaluate_retrieval(
                examples, corpus, retriever, snapshot, (1,), tau
            )[1]
        rows.append((args.axis, value, metric, score))

    csv_path = out / "sweep.csv"
    write_atomic(csv_path, "axis,value,metric,score\n" + "".join(
        f"{axis},{value},{metric},{score!r}\n" for axis, value, metric, score in rows
    ))
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


def _add_deployment_flags(sub) -> None:
    sub.add_argument("--index", required=True)
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--corpus", required=True)
    sub.add_argument("--k", type=int, default=4)
    sub.add_argument("--tau-multiple", type=float, default=1.0, dest="tau_multiple")


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
    _add_deployment_flags(retrieve)
    _add_question_flags(retrieve)
    retrieve.set_defaults(func=cmd_retrieve)

    answer = commands.add_parser("answer", help="answer questions end to end")
    _add_deployment_flags(answer)
    answer.add_argument("--reader", required=True)
    answer.add_argument("--mode", choices=tuple(MODES), default="individual")
    answer.add_argument("--max-len", type=int, default=16, dest="max_len")
    _add_question_flags(answer)
    answer.set_defaults(func=cmd_answer)

    evaluate = commands.add_parser("eval", help="score retrieval and answers")
    evaluate.add_argument("--dataset", required=True, help="QA JSONL to evaluate")
    _add_deployment_flags(evaluate)
    evaluate.add_argument("--reader", default=None, help="add exact match scoring")
    evaluate.add_argument("--mode", choices=tuple(MODES), default="individual")
    evaluate.add_argument("--max-len", type=int, default=16, dest="max_len")
    evaluate.add_argument("--ks", default=",".join(str(k) for k in DEFAULT_KS))
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
