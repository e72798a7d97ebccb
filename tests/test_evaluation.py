import json

import pytest

from retforge import data as D
from retforge.errors import DomainError
from retforge.evaluation import (
    EvalReport,
    emit_report,
    exact_match,
    normalize_answer,
    topk_accuracy,
)
from retforge.index import RetrievalResult


def test_normalize_answer_examples():
    assert normalize_answer("The Beatles!") == "beatles"
    assert normalize_answer("  a  cat ") == "cat"
    assert normalize_answer("") == ""


def test_exact_match_examples():
    assert exact_match("19 June 2018", ["19 June 2018"]) is True
    assert exact_match("the beatles", ["Beatles"]) is True
    assert exact_match("1998", ["1999"]) is False


def test_exact_match_symmetry():
    assert exact_match("The Cat", ["cat"]) == exact_match("cat", ["The Cat"])


def fake_result(doc_ids):
    n = len(doc_ids)
    return RetrievalResult(
        doc_ids=tuple(doc_ids),
        scores=tuple(float(n - i) for i in range(n)),
        probs=tuple(1.0 / n for _ in range(n)),
    )


@pytest.fixture()
def corpus():
    return D.Corpus.build([
        {"id": 0, "title": "a", "text": "Paris is in France."},
        {"id": 1, "title": "b", "text": "Berlin is in Germany."},
        {"id": 2, "title": "c", "text": "Nothing relevant here."},
        {"id": 3, "title": "d", "text": "Tokyo is in Japan."},
    ])


def test_topk_accuracy_hand_counts(corpus):
    examples = [
        D.QAExample(question="q1", answers=("Paris",)),   # hit at rank 1
        D.QAExample(question="q2", answers=("Berlin",)),  # hit at rank 2
        D.QAExample(question="q3", answers=("zanzibar",)),  # never hits
    ]
    results = [
        fake_result([0, 1, 2]),
        fake_result([2, 1, 0]),
        fake_result([0, 1, 2]),
    ]
    acc = topk_accuracy(results, examples, corpus, ks=(1, 2, 3))
    assert acc == {1: 1 / 3, 2: 2 / 3, 3: 2 / 3}


def test_topk_accuracy_monotone_in_k(corpus):
    examples = [D.QAExample(question="q", answers=("Tokyo",))]
    results = [fake_result([0, 1, 2, 3])]
    acc = topk_accuracy(results, examples, corpus, ks=(1, 2, 3, 4))
    ordered = [acc[k] for k in (1, 2, 3, 4)]
    assert ordered == sorted(ordered)
    assert acc[4] == 1.0


def test_topk_accuracy_depth_validation(corpus):
    examples = [D.QAExample(question="q", answers=("Paris",))]
    results = [fake_result([0, 1])]
    with pytest.raises(DomainError, match="k=5 exceeds retrieved depth 2"):
        topk_accuracy(results, examples, corpus, ks=(5,))
    with pytest.raises(DomainError, match="k must be >= 1, got 0"):
        topk_accuracy(results, examples, corpus, ks=(0,))
    with pytest.raises(DomainError):
        topk_accuracy(results, [], corpus, ks=(1,))
    with pytest.raises(DomainError):
        topk_accuracy(results, examples + examples, corpus, ks=(1,))


def test_topk_containment_ignores_title(corpus):
    # "a" through "d" are title-only strings; title text must not count
    examples = [D.QAExample(question="q", answers=("b",))]
    results = [fake_result([1])]
    acc = topk_accuracy(results, examples, corpus, ks=(1,))
    assert acc == {1: 0.0}


def test_eval_report_validation():
    with pytest.raises(DomainError):
        EvalReport(accuracies={1: 1.2}, em=None, n_examples=1)
    with pytest.raises(DomainError):
        EvalReport(accuracies={1: 0.5, 5: 0.4}, em=None, n_examples=1)
    with pytest.raises(DomainError):
        EvalReport(accuracies={1: 0.5}, em=1.5, n_examples=1)


def test_emit_report_round_trip_and_csv(tmp_path):
    report = EvalReport(
        accuracies={1: 0.25, 5: 0.5, 20: 0.5, 100: 0.75},
        em=0.125,
        n_examples=8,
        config={"k": 4, "seed": 0},
        per_example=({"question": "q1", "em": True},),
    )
    path_json = tmp_path / "report.json"
    path_csv = tmp_path / "report.csv"
    emit_report(report, path_json, path_csv)

    parsed = json.loads(path_json.read_text())
    assert parsed["report_version"] == 1
    assert parsed["em"] == 0.125
    assert parsed["n_examples"] == 8
    assert parsed["top_k_accuracy"] == {"1": 0.25, "5": 0.5, "20": 0.5, "100": 0.75}
    assert parsed["config"] == {"k": 4, "seed": 0}
    assert parsed["per_example"] == [{"question": "q1", "em": True}]

    lines = path_csv.read_text().strip().split("\n")
    assert lines[0] == "metric,k,value"
    assert len(lines) - 1 == len(report.accuracies) + 1  # one per k, plus em
    assert lines[-1] == "exact_match,,0.125"


def test_emit_report_deterministic_bytes(tmp_path):
    report = EvalReport(accuracies={1: 0.5}, em=None, n_examples=2)
    a_json, a_csv = tmp_path / "a.json", tmp_path / "a.csv"
    b_json, b_csv = tmp_path / "b.json", tmp_path / "b.csv"
    emit_report(report, a_json, a_csv)
    emit_report(report, b_json, b_csv)
    assert a_json.read_bytes() == b_json.read_bytes()
    assert a_csv.read_bytes() == b_csv.read_bytes()
    assert "exact_match,," in a_csv.read_text()  # em absent -> empty value
