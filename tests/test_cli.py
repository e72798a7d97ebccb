import json

import pytest

from retforge import cli
from retforge.data import load_corpus, load_qa, load_spans


def read_lines(path):
    return path.read_text(encoding="utf-8").strip().split("\n")


@pytest.fixture(scope="module")
def toy_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    code = cli.main([
        "make-toy", "--out-dir", str(out),
        "--docs", "24", "--train", "16", "--dev", "8", "--seed", "0",
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def train_cfg(toy_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "train.cfg"
    path.write_text(
        f"corpus={toy_dir}/corpus.jsonl\n"
        f"train={toy_dir}/train.jsonl\n"
        f"dev={toy_dir}/dev.jsonl\n"
        f"spans={toy_dir}/spans.jsonl\n"
        "layers=1\nhidden_size=16\nheads=2\nmax_seq_len=64\n"
        "enc_layers=1\ndec_layers=1\nmax_answer_len=4\n"
        "epochs=2\nbatch_size=8\nlearning_rate=0.001\nsteps=10\n"
        "seed=3\nweight_decay=0.0\n"
    )
    return path


@pytest.fixture(scope="module")
def e2e_cfg(toy_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg2") / "e2e.cfg"
    path.write_text(
        f"corpus={toy_dir}/corpus.jsonl\n"
        f"train={toy_dir}/train.jsonl\n"
        "layers=1\nhidden_size=16\nheads=2\nmax_seq_len=64\n"
        "enc_layers=1\ndec_layers=1\nmax_answer_len=4\n"
        "epochs=1\nbatch_size=8\nlearning_rate=0.001\n"
        "top_k=2\nrefresh_every=50\nseed=3\nweight_decay=0.0\n"
    )
    return path


@pytest.fixture(scope="module")
def sup_run(train_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("sup")
    code = cli.main([
        "train", "supervised", "--config", str(train_cfg), "--out-dir", str(out),
    ])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def e2e_run(e2e_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    code = cli.main([
        "train", "e2e-individual", "--config", str(e2e_cfg), "--out-dir", str(out),
    ])
    assert code == 0
    return out


# make-toy ----------------------------------------------------------------------


def test_make_toy_deterministic(tmp_path, capsys):
    args = ["--docs", "12", "--train", "8", "--dev", "4", "--seed", "5"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["make-toy", "--out-dir", str(a), *args]) == 0
    counts = json.loads(capsys.readouterr().out)
    assert counts == {"documents": 12, "train": 8, "dev": 4, "spans": 12}
    assert cli.main(["make-toy", "--out-dir", str(b), *args]) == 0
    for name in ("corpus.jsonl", "train.jsonl", "dev.jsonl", "spans.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_make_toy_spans_align(toy_dir):
    corpus = load_corpus(toy_dir / "corpus.jsonl")
    annotations = load_spans(toy_dir / "spans.jsonl")
    assert len(annotations) == 24
    for doc_id, ann in annotations.items():
        doc = corpus.by_id[doc_id]
        for start, end, text in ann.spans:
            assert corpus.vocab.decode(doc.tokens[start:end + 1]) == text


def test_make_toy_answers_in_positive_docs(toy_dir):
    corpus = load_corpus(toy_dir / "corpus.jsonl")
    for name in ("train.jsonl", "dev.jsonl"):
        for ex in load_qa(toy_dir / name):
            assert ex.positive_ctx is not None
            assert ex.answers[0] in corpus.by_id[ex.positive_ctx].text


# ingest ---------------------------------------------------------------------------


def test_ingest_idempotent_and_round_trip(toy_dir, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    base = ["ingest", str(toy_dir / "corpus.jsonl"),
            "--qa", str(toy_dir / "train.jsonl"),
            "--spans", str(toy_dir / "spans.jsonl")]
    assert cli.main([*base, "--out-dir", str(a)]) == 0
    counts = json.loads(capsys.readouterr().out)
    assert counts["documents"] == 24 and counts["qa"] == 16 and counts["spans"] == 24
    assert cli.main([*base, "--out-dir", str(b)]) == 0
    for name in ("vocab.txt", "counts.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_ingest_malformed_line_names_lineno(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"id": 0, "title": "a", "text": "Fine text here."}\n'
        '{"id": 1, "title": "b", "text": "Also fine."}\n'
        '{"id": 2, "title": "c"}\n'
    )
    code = cli.main(["ingest", str(bad), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert ":3" in capsys.readouterr().err


# train -----------------------------------------------------------------------------


def test_train_supervised_artifacts(sup_run):
    for name in ("retriever.ckpt", "index.ridx", "metrics.jsonl", "resolved.cfg"):
        assert (sup_run / name).exists()
    records = [json.loads(line) for line in read_lines(sup_run / "metrics.jsonl")]
    assert [r["epoch"] for r in records] == [1, 2]
    assert all("top1" in r for r in records)  # dev set was configured
    resolved = (sup_run / "resolved.cfg").read_text()
    assert "recipe=supervised" in resolved
    assert "seed=3" in resolved


def test_train_rerun_byte_identical(train_cfg, sup_run, tmp_path):
    again = tmp_path / "again"
    code = cli.main([
        "train", "supervised", "--config", str(train_cfg), "--out-dir", str(again),
    ])
    assert code == 0
    for name in ("metrics.jsonl", "retriever.ckpt", "index.ridx", "resolved.cfg"):
        assert (again / name).read_bytes() == (sup_run / name).read_bytes()


def test_train_ict_then_chain_into_supervised(train_cfg, tmp_path):
    ict_out = tmp_path / "ict"
    assert cli.main([
        "train", "ict", "--config", str(train_cfg), "--out-dir", str(ict_out),
    ]) == 0
    chained = tmp_path / "chained"
    assert cli.main([
        "train", "supervised", "--config", str(train_cfg),
        "--out-dir", str(chained), "--init", str(ict_out / "retriever.ckpt"),
    ]) == 0
    assert (chained / "metrics.jsonl").exists()


def test_train_salient_artifacts(train_cfg, tmp_path):
    out = tmp_path / "salient"
    assert cli.main([
        "train", "salient", "--config", str(train_cfg), "--out-dir", str(out),
        "--set", "steps=3", "--set", "batch_size=2", "--set", "top_k=2",
    ]) == 0
    assert (out / "reader.ckpt").exists()
    records = [json.loads(line) for line in read_lines(out / "metrics.jsonl")]
    assert len(records) == 3
    assert all("index_version" in r for r in records)


def test_train_unknown_recipe_is_config_error(train_cfg, tmp_path):
    code = cli.main([
        "train", "bm25", "--config", str(train_cfg), "--out-dir", str(tmp_path / "x"),
    ])
    assert code == 3


def test_train_unknown_key_is_config_error(train_cfg, tmp_path):
    code = cli.main([
        "train", "supervised", "--config", str(train_cfg),
        "--out-dir", str(tmp_path / "x"), "--set", "momentum=0.9",
    ])
    assert code == 3


def test_train_model_vocab_size_key_is_config_error(train_cfg, tmp_path):
    # the model configs' vocab_size always comes from the corpus
    code = cli.main([
        "train", "supervised", "--config", str(train_cfg),
        "--out-dir", str(tmp_path / "x"), "--set", "vocab_size=5",
    ])
    assert code == 3


def test_train_zero_heads_is_input_error(train_cfg, tmp_path, capsys):
    code = cli.main([
        "train", "ict", "--config", str(train_cfg),
        "--out-dir", str(tmp_path / "x"), "--set", "heads=0",
    ])
    assert code == 2
    assert "heads must be >= 1" in capsys.readouterr().err


def test_train_joint_context_switch_is_config_error(e2e_cfg, tmp_path):
    code = cli.main([
        "train", "e2e-joint", "--config", str(e2e_cfg),
        "--out-dir", str(tmp_path / "x"), "--set", "update_context_encoder=true",
    ])
    assert code == 3


@pytest.mark.parametrize("setting", ["refresh_every=0", "top_k=0"])
def test_train_salient_bad_schedule_is_config_error(train_cfg, tmp_path, setting):
    code = cli.main([
        "train", "salient", "--config", str(train_cfg),
        "--out-dir", str(tmp_path / "x"), "--set", setting,
    ])
    assert code == 3


def test_train_missing_config_file_is_io_error(tmp_path):
    code = cli.main([
        "train", "supervised", "--config", str(tmp_path / "absent.cfg"),
        "--out-dir", str(tmp_path / "x"),
    ])
    assert code == 4


# retrieve / answer / eval ------------------------------------------------------------


def test_retrieve_ranks_documents(toy_dir, sup_run, capsys):
    question = load_qa(toy_dir / "train.jsonl")[0].question
    code = cli.main([
        "retrieve",
        "--index", str(sup_run / "index.ridx"),
        "--checkpoint", str(sup_run / "retriever.ckpt"),
        "--corpus", str(toy_dir / "corpus.jsonl"),
        "--k", "3", "--question", question,
    ])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert len(record["doc_ids"]) == 3
    assert record["scores"] == sorted(record["scores"], reverse=True)
    assert abs(sum(record["probs"]) - 1.0) < 1e-9
    assert len(record["titles"]) == 3


def test_retrieve_k_too_large_is_input_error(toy_dir, sup_run):
    code = cli.main([
        "retrieve",
        "--index", str(sup_run / "index.ridx"),
        "--checkpoint", str(sup_run / "retriever.ckpt"),
        "--corpus", str(toy_dir / "corpus.jsonl"),
        "--k", "999", "--question", "anything ?",
    ])
    assert code == 2


def test_retrieve_flipped_checkpoint_is_input_error(toy_dir, sup_run, tmp_path, capsys):
    raw = (sup_run / "retriever.ckpt").read_bytes()
    at = raw.index(b'"name"') + 1
    flipped = tmp_path / "flipped.ckpt"
    flipped.write_bytes(raw[:at] + bytes([raw[at] ^ 1]) + raw[at + 1:])  # "name" -> "oame"
    code = cli.main([
        "retrieve",
        "--index", str(sup_run / "index.ridx"),
        "--checkpoint", str(flipped),
        "--corpus", str(toy_dir / "corpus.jsonl"),
        "--question", "anything ?",
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_retrieve_missing_index_is_io_error(toy_dir, sup_run, tmp_path):
    code = cli.main([
        "retrieve",
        "--index", str(tmp_path / "nothing.ridx"),
        "--checkpoint", str(sup_run / "retriever.ckpt"),
        "--corpus", str(toy_dir / "corpus.jsonl"),
        "--question", "anything ?",
    ])
    assert code == 4


def test_answer_both_modes(toy_dir, e2e_run, tmp_path):
    questions = tmp_path / "questions.txt"
    examples = load_qa(toy_dir / "train.jsonl")[:2]
    questions.write_text("".join(ex.question + "\n" for ex in examples))
    for mode in ("individual", "joint"):
        out = tmp_path / f"answers-{mode}.jsonl"
        code = cli.main([
            "answer",
            "--index", str(e2e_run / "index.ridx"),
            "--checkpoint", str(e2e_run / "retriever.ckpt"),
            "--reader", str(e2e_run / "reader.ckpt"),
            "--corpus", str(toy_dir / "corpus.jsonl"),
            "--mode", mode, "--k", "2", "--max-len", "4",
            "--file", str(questions), "--out", str(out),
        ])
        assert code == 0
        records = [json.loads(line) for line in read_lines(out)]
        assert len(records) == 2
        for record in records:
            assert isinstance(record["answer"], str)
            assert record["candidates"]
            assert len(record["doc_ids"]) == 2


def test_eval_writes_report(toy_dir, sup_run, tmp_path, capsys):
    out = tmp_path / "report"
    code = cli.main([
        "eval",
        "--dataset", str(toy_dir / "dev.jsonl"),
        "--index", str(sup_run / "index.ridx"),
        "--checkpoint", str(sup_run / "retriever.ckpt"),
        "--corpus", str(toy_dir / "corpus.jsonl"),
        "--ks", "1,5,20", "--out-dir", str(out),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["top_k_accuracy"]) == {"1", "5", "20"}
    values = [report["top_k_accuracy"][k] for k in ("1", "5", "20")]
    assert values == sorted(values)
    csv_lines = read_lines(out / "report.csv")
    assert len(csv_lines) == 1 + 3 + 1  # header, one per k, em row
    stdout_report = json.loads(capsys.readouterr().out)
    assert stdout_report == report


def test_eval_with_reader_scores_em(toy_dir, e2e_run, tmp_path):
    out = tmp_path / "report"
    code = cli.main([
        "eval",
        "--dataset", str(toy_dir / "dev.jsonl"),
        "--index", str(e2e_run / "index.ridx"),
        "--checkpoint", str(e2e_run / "retriever.ckpt"),
        "--corpus", str(toy_dir / "corpus.jsonl"),
        "--reader", str(e2e_run / "reader.ckpt"),
        "--mode", "joint", "--k", "2", "--max-len", "4",
        "--ks", "1,2", "--out-dir", str(out),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["em"] is not None
    assert 0.0 <= report["em"] <= 1.0


# sweep ---------------------------------------------------------------------------------


def test_sweep_tau_axis(train_cfg, tmp_path):
    out = tmp_path / "sweep"
    code = cli.main([
        "sweep", "--axis", "tau", "--values", "0.5,1.0",
        "--recipe", "supervised", "--config", str(train_cfg),
        "--out-dir", str(out), "--set", "epochs=1",
    ])
    assert code == 0
    lines = read_lines(out / "sweep.csv")
    assert lines[0] == "axis,value,metric,score"
    assert len(lines) == 3
    assert all(line.startswith("tau,") for line in lines[1:])
    assert (out / "tau-0.5" / "metrics.jsonl").exists()
    assert (out / "tau-1.0" / "metrics.jsonl").exists()


def test_sweep_topk_axis_on_e2e(e2e_cfg, tmp_path):
    out = tmp_path / "sweep"
    code = cli.main([
        "sweep", "--axis", "topk", "--values", "1,2",
        "--recipe", "e2e-joint", "--config", str(e2e_cfg),
        "--out-dir", str(out),
    ])
    assert code == 0
    lines = read_lines(out / "sweep.csv")
    assert len(lines) == 3
    assert all(",em," in line for line in lines[1:])


def test_sweep_duplicate_values_warn(train_cfg, tmp_path):
    with pytest.warns(UserWarning, match="duplicate"):
        code = cli.main([
            "sweep", "--axis", "tau", "--values", "0.5,0.5",
            "--recipe", "supervised", "--config", str(train_cfg),
            "--out-dir", str(tmp_path / "sweep"), "--set", "epochs=1",
        ])
    assert code == 0
    lines = read_lines(tmp_path / "sweep" / "sweep.csv")
    assert len(lines) == 2  # one surviving point


def test_sweep_empty_values_is_config_error(train_cfg, tmp_path):
    code = cli.main([
        "sweep", "--axis", "tau", "--values", ",",
        "--config", str(train_cfg), "--out-dir", str(tmp_path / "s"),
    ])
    assert code == 3


def test_sweep_train_fraction_remines(toy_dir, train_cfg, tmp_path):
    out = tmp_path / "sweep"
    code = cli.main([
        "sweep", "--axis", "train-fraction", "--values", "0.5",
        "--recipe", "supervised", "--config", str(train_cfg),
        "--out-dir", str(out), "--set", "epochs=1",
    ])
    assert code == 0
    subset = load_qa(out / "train-fraction-0.5" / "train-subset.jsonl")
    assert len(subset) == 8  # half of the 16 training questions
    corpus = load_corpus(toy_dir / "corpus.jsonl")
    for ex in subset:
        if not ex.filtered:
            assert ex.answers[0] in corpus.by_id[ex.positive_ctx].text
