"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import retforge  # noqa: E402
from retforge import cli, e2e, index, training  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_is_duration_minus_nested_spans():
    # outer [0, 10] holds mid [2, 6], which holds leaf [3, 4]; then leaf [7, 8]
    tracer = tracing.Tracer(clock=FakeClock([0, 2, 3, 4, 6, 7, 8, 10]))
    tracer.enter("outer")
    tracer.enter("mid")
    tracer.enter("leaf")
    tracer.exit()
    tracer.exit()
    tracer.enter("leaf")
    tracer.exit()
    tracer.exit()
    spans = tracer.spans
    assert (spans["outer"].self_s, spans["outer"].incl_s) == (5, 10)
    assert (spans["mid"].self_s, spans["mid"].incl_s) == (3, 4)
    assert (spans["leaf"].calls, spans["leaf"].self_s, spans["leaf"].incl_s) == (2, 2, 2)
    total_self = sum(s.self_s for s in spans.values())
    assert total_self == spans["outer"].incl_s


def test_forward_is_infer_only_under_inference_spans():
    tracer = tracing.Tracer()
    assert tracing._classify_forward(tracer) == "encoder.train_forward"
    for name in ("index.build", "e2e.joint_topk_infer", "e2e.evaluate_em"):
        with tracer.span(name):
            assert tracing._classify_forward(tracer) == "encoder.infer_forward"
    with tracer.span("training.batch_loss_supervised"):
        assert tracing._classify_forward(tracer) == "encoder.train_forward"
    assert not tracer.in_infer


def test_p95_needs_ten_samples_beyond_it():
    assert stats.min_samples(95) == 200
    assert stats.min_samples(50) == 20
    values = list(np.random.default_rng(0).permutation(200) / 7.0)
    cut = stats.tail_percentile(values, 95)
    assert sum(v > cut for v in values) >= stats.TAIL_SAMPLES
    with pytest.raises(ValueError):
        stats.tail_percentile(values[:199], 95)


def _bindings():
    """Every (owner, attr) -> object that the tracer targets, as loaded."""
    found = {}
    originals = []
    for target in tracing.TARGETS:
        owner = sys.modules[target.module]
        if target.cls is not None:
            owner = getattr(owner, target.cls)
        originals.append(owner.__dict__[target.attr])
    for module in tracing._retforge_modules():
        for attr, value in vars(module).items():
            if any(value is o for o in originals):
                found[(module.__name__, attr)] = value
            if isinstance(value, type):
                for name, member in vars(value).items():
                    if any(member is o for o in originals):
                        found[(module.__name__, attr, name)] = member
    return found


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    before = _bindings()
    # imported by value: the same function lives in several namespaces
    assert before[("retforge.cli", "top_k")] is index.top_k
    assert before[("retforge.training", "evaluate_retrieval")] is e2e.evaluate_retrieval
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        assert tracer.unwrapped_bindings() == []
        for module in (e2e, training, cli, retforge):
            assert tracing._is_wrapper(module.top_k)
        for module in (training, cli):
            assert tracing._is_wrapper(module.build_snapshot)
        assert tracing._is_wrapper(e2e.exact_match) and tracing._is_wrapper(e2e.topk_accuracy)
        snapshot = index.IndexSnapshot(0, np.arange(3), np.eye(3))
        e2e.top_k(snapshot, np.array([0.0, 1.0, 0.0]), k=2, tau=1.0)
        assert tracing.layer_metrics(tracer)["index.top_k_calls"] == 1
    finally:
        tracer.restore()
    assert tracing.leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_unwrapped_binding_is_reported():
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        cli.top_k = index.top_k.__wrapped__  # as if install had missed this binding
        assert "retforge.cli.top_k" in tracer.unwrapped_bindings()
    finally:
        tracer.restore()
    assert cli.top_k is index.top_k


class FailingWorkload:
    def run_pass(self, state, number, tracer=None):
        raise RuntimeError("pass failed")


def test_runner_restores_originals_when_a_traced_pass_raises(tmp_path):
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    with pytest.raises(RuntimeError):
        run.Runner(FailingWorkload(), 0, tmp_path).run(None, 0, tracer)
    assert tracing.leftover_wrappers() == []


def test_brute_force_check_catches_a_wrong_tie_break():
    snapshot = index.IndexSnapshot(0, np.array([5, 2, 9]), np.array([[1.0], [1.0], [0.5]]))
    q = np.array([2.0])
    good = index.top_k(snapshot, q, k=2, tau=1.0)
    assert good.doc_ids == (2, 5)
    assert workloads.brute_force_mismatch(snapshot, q, good, 1.0) is None
    swapped = index.RetrievalResult((5, 2), good.scores, good.probs)
    assert "ids" in workloads.brute_force_mismatch(snapshot, q, swapped, 1.0)
    skewed = index.RetrievalResult(good.doc_ids, good.scores, (0.6, 0.5))
    assert "sum" in workloads.brute_force_mismatch(snapshot, q, skewed, 1.0)


class EmptyWorkload:
    name = "empty"
    fresh_state_per_pass = False

    def setup(self, seed, work):
        return None

    def run_pass(self, state, number, tracer=None):
        return workloads.Pass()

    def check(self, state, p):
        return workloads.Outcome([], 0, 0.0, 0.0, None, "")


def test_measure_fails_on_a_pass_without_operations(tmp_path):
    with pytest.raises(RuntimeError, match="no operations"):
        run.measure(EmptyWorkload(), 0, 1.0, tmp_path)


def test_runner_keeps_only_the_counts_of_a_checked_pass(tmp_path):
    workload = EmptyWorkload()
    workload.run_pass = lambda state, number, tracer=None: workloads.Pass(
        steps=2, examples=8, train=(0.0, 1.5), asked=[(2.0, 2.25)], results=[object()],
        q_vecs=[np.zeros(3)],
    )
    runner = run.Runner(workload, 0, tmp_path)
    full, _ = runner.run(None, 0)
    kept = runner.passes[0]
    assert full.results and not kept.results and not kept.q_vecs and kept.snapshot is None
    assert (kept.steps, kept.examples, kept.measured_s, kept.operations) == (2, 8, 1.75, 3)


def test_answer_goes_round_its_question_stream(tmp_path):
    answer = workloads.Answer()
    answer.questions_per_pass = 4
    corpus, pool = workloads._fixed_corpus(20)
    state = workloads.State(tmp_path, corpus, workloads._dual(corpus, 0))
    state.reader = workloads._reader(corpus, 1, max_answer_len=8)
    state.snapshot = index.build_snapshot(state.dual, corpus)
    stream = state.extra["stream"] = workloads._draw(pool, 0, 3)
    p = answer.run_pass(state, 2)  # questions 8-11 of a stream of 3
    assert p.questions == [corpus.vocab.encode(stream[i].question) for i in (2, 0, 1, 2)]
    assert answer.check(state, p).failures == []


def test_speed_clock_rescales_to_the_fastest_probe_and_drops_probing():
    clock = hostspeed.SpeedClock()
    # probes of 1, 2 and 4 ms CPU ending at t = 1, 2 and 3 s, each 0.1 s of wall
    clock.at, clock.cpu, clock.spent = [1.0, 2.0, 3.0], [0.001, 0.002, 0.004], [0, 0.1, 0.2, 0.3]
    # no probe inside: the ones before it set the speed
    assert clock.scaled(1.2, 1.4) == pytest.approx(0.2)
    assert clock.scaled(2.2, 2.4) == pytest.approx(0.2 * (1 + 0.5) / 2)
    # two probes inside: their time is dropped and their speeds averaged with
    # the one before
    assert clock.scaled(1.5, 3.5) == pytest.approx((2.0 - 0.2) * (1 + 0.5 + 0.25) / 3)
    assert clock.scaled(0.5, 0.5) == 0.0
    with pytest.raises(ValueError):
        clock.scaled(0.5, 1.5)


def test_speed_clock_probes_while_active_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedClock() as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            pass
        end = time.perf_counter()
    assert len(clock.cpu) > 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < clock.scaled(start, end) < end - start
