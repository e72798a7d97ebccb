"""Outside-in per-layer tracing for the benchmark.

The wrappers are installed from here, around public functions and methods of
the `retforge` modules; nothing inside `src/retforge` knows about them. A
span's self time is its duration minus the durations of the wrapped calls
nested in it, so every second of a traced run is charged to exactly one
layer (the innermost wrapped call active at that moment).

Functions imported by value (``from .index import top_k``) live in several
module namespaces. `Tracer.install` replaces every binding of the original
object in every loaded `retforge` module, and `Tracer.restore` puts each one
back; `unwrapped_bindings` lets callers prove that nothing was missed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from retforge.text import PAD_ID

# Spans besides `*_infer` and `evaluate_*` that make nested encoder forwards "infer".
INFER_SPANS = ("index.build",)


def is_infer_span(name: str) -> bool:
    leaf = name.rsplit(".", 1)[-1]
    return name in INFER_SPANS or leaf.endswith("_infer") or leaf.startswith("evaluate_")


@dataclass(frozen=True)
class Target:
    """One wrapped callable: `module.attr`, or `module.cls.attr` for a method."""

    span: str
    module: str
    attr: str
    cls: str | None = None
    observe: Callable | None = None  # observe(tracer, args, kwargs, result)
    classify: Callable | None = None  # classify(tracer) -> span name at call time


class SpanStats:
    __slots__ = ("calls", "self_s", "incl_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0


class Tracer:
    """Aggregates per-span call counts, self time and inclusive time."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self.pairs: set = set()  # distinct reader (question, context) inputs
        self._stack: list[list] = []  # [name, seconds covered by children, start, infer]
        self._infer_depth = 0
        self._patched: list[tuple[object, str, object]] = []  # (owner, attr, original)
        self._originals: list[tuple[Target, object]] = []

    # Span arithmetic ---------------------------------------------------------

    @property
    def in_infer(self) -> bool:
        return self._infer_depth > 0

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def enter(self, name: str) -> None:
        infer = is_infer_span(name)
        self._infer_depth += infer
        self._stack.append([name, 0.0, self.clock(), infer])

    def exit(self) -> None:
        name, covered, start, infer = self._stack.pop()
        duration = self.clock() - start
        self._infer_depth -= infer
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        stats.calls += 1
        stats.self_s += duration - covered
        stats.incl_s += duration
        if self._stack:
            self._stack[-1][1] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a call into a layer."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = target.classify(tracer) if target.classify else target.span
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if target.observe is not None:
                target.observe(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # Installation ------------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every target and every by-value binding of each function."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for target in targets:
            owner = importlib.import_module(target.module)
            if target.cls is not None:
                owner = getattr(owner, target.cls)
            original = owner.__dict__[target.attr]
            wrapper = self.wrap(target, original)
            self._originals.append((target, original))
            if target.cls is not None:
                self._patch(owner, target.attr, original, wrapper)
                continue
            for module in _retforge_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self._originals.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Bindings that a complete install would have wrapped but did not."""
        missing = []
        originals = {id(original): original for _, original in self._originals}
        for module in _retforge_modules():
            for attr, value in vars(module).items():
                if originals.get(id(value)) is value:
                    missing.append(f"{module.__name__}.{attr}")
        for target, _ in self._originals:
            owner = importlib.import_module(target.module)
            if target.cls is not None:
                owner = getattr(owner, target.cls)
            if not _is_wrapper(owner.__dict__[target.attr]):
                missing.append(f"{target.module}.{target.cls or ''}.{target.attr}")
        return sorted(set(missing))


def _is_wrapper(value) -> bool:
    return getattr(value, "__wrapped_by_tracer__", False)


def _retforge_modules():
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "retforge" or name.startswith("retforge."))
    ]


def leftover_wrappers() -> list[str]:
    """Bindings in loaded retforge modules that are still tracer wrappers."""
    found = []
    for module in _retforge_modules():
        for attr, value in vars(module).items():
            if _is_wrapper(value):
                found.append(f"{module.__name__}.{attr}")
            elif isinstance(value, type):
                for name, member in vars(value).items():
                    if _is_wrapper(member):
                        found.append(f"{module.__name__}.{attr}.{name}")
    return sorted(set(found))


# Observers: counts measured where the work happens -------------------------


def _observe_forward(tracer: Tracer, args, kwargs, result) -> None:
    ids = np.asarray(args[1] if len(args) > 1 else kwargs["token_ids"])
    real = int(np.count_nonzero(ids != PAD_ID))
    tracer.count("encoder.tokens", real)
    tracer.count("encoder.positions", int(ids.size))
    if tracer.in_infer:
        tracer.count("encoder.infer_outputs")
        tracer.count("encoder.infer_outputs_with_graph", int(result.requires_grad))


def _classify_forward(tracer: Tracer) -> str:
    return "encoder.infer_forward" if tracer.in_infer else "encoder.train_forward"


def _observe_encode_pair(tracer: Tracer, args, kwargs, result) -> None:
    question = args[1] if len(args) > 1 else kwargs["question_tokens"]
    context = args[2] if len(args) > 2 else kwargs["context_tokens"]
    tracer.pairs.add((tuple(question), tuple(context)))


def _decode_steps(reader, tokens, max_len) -> int:
    """Decoder steps run by Reader._greedy: emitted tokens plus the [EOS] step."""
    limit = reader.config.max_answer_len - 1
    cap = limit if max_len is None else min(max_len, limit)
    return len(tokens) + (1 if len(tokens) < cap else 0)


def _observe_decode(max_len_index: int):
    def observe(tracer: Tracer, args, kwargs, result) -> None:
        max_len = args[max_len_index] if len(args) > max_len_index else kwargs.get("max_len")
        tracer.count("reader.decode_tokens", _decode_steps(args[0], result, max_len))

    return observe


def _observe_infer(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("e2e.infer_questions")
    tracer.count("e2e.candidates", len(result.candidates))


def _observe_build(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("index.docs_built", result.size)


TARGETS = (
    Target("autodiff.backward", "retforge.autodiff", "backward", cls="Tensor"),
    Target("autodiff.matmul", "retforge.autodiff", "matmul"),
    Target("autodiff.gelu", "retforge.autodiff", "gelu"),
    Target("autodiff.softmax", "retforge.autodiff", "softmax"),
    Target("encoder.forward", "retforge.encoder", "forward", cls="TransformerEncoder",
           observe=_observe_forward, classify=_classify_forward),
    Target("index.build", "retforge.index", "build_snapshot", observe=_observe_build),
    Target("index.top_k", "retforge.index", "top_k"),
    Target("index.save", "retforge.index", "save_index"),
    Target("reader.encode_pair", "retforge.reader", "encode_pair", cls="Reader",
           observe=_observe_encode_pair),
    Target("reader.greedy_decode", "retforge.reader", "greedy_decode", cls="Reader",
           observe=_observe_decode(3)),
    Target("reader.answer_log_likelihood", "retforge.reader", "answer_log_likelihood",
           cls="Reader"),
    Target("reader.joint_forward", "retforge.reader", "joint_forward", cls="Reader"),
    Target("reader.joint_greedy_decode", "retforge.reader", "joint_greedy_decode",
           cls="Reader", observe=_observe_decode(4)),
    Target("e2e.individual_topk_infer", "retforge.e2e", "individual_topk_infer",
           observe=_observe_infer),
    Target("e2e.joint_topk_infer", "retforge.e2e", "joint_topk_infer", observe=_observe_infer),
    Target("e2e.joint_topk_loss", "retforge.e2e", "joint_topk_loss"),
    Target("e2e.evaluate_em", "retforge.e2e", "evaluate_em"),
    Target("e2e.evaluate_retrieval", "retforge.e2e", "evaluate_retrieval"),
    Target("training.batch_loss_supervised", "retforge.training", "batch_loss_supervised"),
    Target("optim.step", "retforge.optim", "step", cls="AdamW"),
    Target("data.mine", "retforge.data", "mine_distant_supervision"),
    Target("data.build_corpus_stats", "retforge.data", "build_corpus_stats"),
    Target("checkpoint.save", "retforge.checkpoint", "save_checkpoint"),
    Target("evaluation.topk_accuracy", "retforge.evaluation", "topk_accuracy"),
    Target("evaluation.exact_match", "retforge.evaluation", "exact_match"),
)


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics, by name; a layer that did not run reads 0."""
    spans, counts = tracer.spans, tracer.counters

    def self_s(name: str) -> float:
        return spans[name].self_s if name in spans else 0.0

    def calls(name: str) -> int:
        return spans[name].calls if name in spans else 0

    build_incl = spans["index.build"].incl_s if "index.build" in spans else 0.0
    positions = counts.get("encoder.positions", 0)
    return {
        "autodiff.backward_s": self_s("autodiff.backward"),
        "autodiff.backward_calls": calls("autodiff.backward"),
        "autodiff.matmul_s": self_s("autodiff.matmul"),
        "autodiff.matmul_calls": calls("autodiff.matmul"),
        "autodiff.gelu_s": self_s("autodiff.gelu"),
        "autodiff.softmax_s": self_s("autodiff.softmax"),
        "encoder.train_forward_s": self_s("encoder.train_forward"),
        "encoder.infer_forward_s": self_s("encoder.infer_forward"),
        "encoder.forward_calls": calls("encoder.train_forward") + calls("encoder.infer_forward"),
        "encoder.infer_graph_share": _share(
            counts.get("encoder.infer_outputs_with_graph", 0),
            counts.get("encoder.infer_outputs", 0),
        ),
        "encoder.tokens": counts.get("encoder.tokens", 0),
        "encoder.pad_share": _share(positions - counts.get("encoder.tokens", 0), positions),
        "index.build_s": self_s("index.build"),
        "index.build_calls": calls("index.build"),
        "index.build_docs_per_s": _share(counts.get("index.docs_built", 0), build_incl),
        "index.top_k_s": self_s("index.top_k"),
        "index.top_k_calls": calls("index.top_k"),
        "index.save_s": self_s("index.save"),
        "reader.encode_pair_s": self_s("reader.encode_pair"),
        "reader.encode_pair_calls": calls("reader.encode_pair"),
        "reader.encode_pair_redundancy": _share(calls("reader.encode_pair"), len(tracer.pairs)),
        "reader.greedy_decode_s": self_s("reader.greedy_decode"),
        "reader.decode_tokens": counts.get("reader.decode_tokens", 0),
        "reader.answer_log_likelihood_s": self_s("reader.answer_log_likelihood"),
        "reader.answer_log_likelihood_calls": calls("reader.answer_log_likelihood"),
        "reader.joint_forward_s": self_s("reader.joint_forward"),
        "reader.joint_greedy_decode_s": self_s("reader.joint_greedy_decode"),
        "e2e.individual_topk_infer_s": self_s("e2e.individual_topk_infer"),
        "e2e.joint_topk_infer_s": self_s("e2e.joint_topk_infer"),
        "e2e.joint_topk_loss_s": self_s("e2e.joint_topk_loss"),
        "e2e.evaluate_em_s": self_s("e2e.evaluate_em"),
        "e2e.evaluate_retrieval_s": self_s("e2e.evaluate_retrieval"),
        "e2e.candidates_per_question": _share(
            counts.get("e2e.candidates", 0), counts.get("e2e.infer_questions", 0)
        ),
        "training.batch_loss_supervised_s": self_s("training.batch_loss_supervised"),
        "optim.step_s": self_s("optim.step"),
        "optim.step_calls": calls("optim.step"),
        "data.mine_s": self_s("data.mine"),
        "data.mine_calls": calls("data.mine"),
        "data.build_corpus_stats_s": self_s("data.build_corpus_stats"),
        "checkpoint.save_s": self_s("checkpoint.save"),
        "evaluation.topk_accuracy_s": self_s("evaluation.topk_accuracy"),
        "evaluation.exact_match_calls": calls("evaluation.exact_match"),
    }
