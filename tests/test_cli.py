import json
import re

import pytest

from retforge import cli, e2e
from retforge.checkpoint import load_checkpoint, save_checkpoint
from retforge.data import (
    QAExample,
    build_corpus_stats,
    load_corpus,
    load_qa,
    load_spans,
    mine_distant_supervision,
    save_qa,
)
from retforge.encoder import TransformerEncoder
from retforge.index import top_k


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


@pytest.mark.parametrize("argv", [
    ["train", "ict", "--seed", "-1"],
    ["make-toy", "--seed", "-3"],
])
def test_negative_seed_is_config_error(train_cfg, tmp_path, capsys, argv):
    config = ["--config", str(train_cfg)] if argv[0] == "train" else []
    assert cli.main(argv + config + ["--out-dir", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err


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


# each: the toy file to break, the fields that break its second line, the
# command that loads it, and what the error must name
BAD_FIELDS = [
    ("corpus", {"id": "x"}, "ingest", ":2:"),
    ("corpus", {"text": None}, "ingest", ":2:"),
    ("spans", {"spans": 5}, "ingest", ":2:"),
    ("spans", {"spans": [[1]]}, "ingest", ":2:"),
    ("spans", {"spans": [["a", 2, "x"]]}, "ingest", ":2:"),
    ("spans", {"doc_id": "x"}, "ingest", ":2:"),
    ("train", {"positive_ctx": "abc"}, "ingest", ":2:"),
    ("train", {"positive_ctx": "abc"}, "train", ":2:"),
    ("train", {"hard_negatives": 5}, "train", ":2:"),
    ("train", {"filtered": "no"}, "train", ":2:"),
    ("train", {"positive_ctx": 999}, "train", "[999] not in the corpus"),
    ("train", {"hard_negatives": [12345]}, "train", "[12345] not in the corpus"),
    ("corpus", {"id": -1}, "ingest", ":2:"),
    ("spans", {"spans": [[0, 0, None]]}, "ingest", ":2:"),
    ("train", {"question": 5}, "ingest", ":2:"),
    ("train", {"answers": [None]}, "ingest", ":2:"),
    ("train", {"positive_ctx": 999}, "ingest", "[999] not in the corpus"),
]


@pytest.mark.parametrize("name, fields, command, named", BAD_FIELDS)
def test_bad_field_is_input_error(toy_dir, train_cfg, tmp_path, capsys, name, fields, command,
                                  named):
    lines = read_lines(toy_dir / f"{name}.jsonl")
    lines[1] = json.dumps({**json.loads(lines[1]), **fields})
    bad = tmp_path / f"{name}.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "out")
    if command == "train":
        argv = ["train", "supervised", "--config", str(train_cfg), "--out-dir", out,
                "--set", f"train={bad}"]
    elif name == "corpus":
        argv = ["ingest", str(bad), "--out-dir", out]
    else:
        flag = "--qa" if name == "train" else "--spans"
        argv = ["ingest", str(toy_dir / "corpus.jsonl"), flag, str(bad), "--out-dir", out]
    assert cli.main(argv) == 2
    assert named in capsys.readouterr().err


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


@pytest.mark.parametrize("recipe, cfg, flag, checkpoint, sets, named", [
    ("supervised", "train_cfg", "--init", ("sup_run", "retriever.ckpt"),
     ["hidden_size=32", "heads=4"], "hidden_size=16, but the run sets hidden_size=32"),
    ("supervised", "train_cfg", "--init", ("sup_run", "retriever.ckpt"),
     ["layers=2"], "layers=1, but the run sets layers=2"),
    ("e2e-joint", "e2e_cfg", "--init-reader", ("e2e_run", "reader.ckpt"),
     ["dec_layers=2"], "dec_layers=1, but the run sets dec_layers=2"),
], ids=["retriever-width", "retriever-layers", "reader-dec_layers"])
def test_init_checkpoint_whose_config_differs_from_the_run_is_config_error(
    request, tmp_path, capsys, recipe, cfg, flag, checkpoint, sets, named
):
    run, name = checkpoint
    argv = [
        "train", recipe, "--config", str(request.getfixturevalue(cfg)),
        "--out-dir", str(tmp_path / "out"), flag, str(request.getfixturevalue(run) / name),
    ]
    for setting in sets:
        argv += ["--set", setting]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "out" / "resolved.cfg").exists()


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


@pytest.mark.parametrize("recipe, cfg, drop, inits", [
    pytest.param("supervised", "train_cfg", None, {}, id="supervised-train_cfg-None"),
    pytest.param("e2e-joint", "e2e_cfg", None, {}, id="e2e-joint-e2e_cfg-None"),
    # unset, max_answer_len keeps E2EConfig's and ReaderConfig's different defaults
    pytest.param("e2e-joint", "e2e_cfg", "max_answer_len=", {},
                 id="e2e-joint-e2e_cfg-max_answer_len="),
    # chained runs: the starting checkpoints are keys of the resolved run
    pytest.param("supervised", "train_cfg", None, {"--init": ("sup_run", "retriever.ckpt")},
                 id="supervised-init"),
    pytest.param("e2e-joint", "e2e_cfg", None, {"--init": ("sup_run", "retriever.ckpt"),
                                                "--init-reader": ("e2e_run", "reader.ckpt")},
                 id="e2e-joint-init-init_reader"),
])
def test_resolved_config_reruns_the_run_byte_for_byte(request, tmp_path, recipe, cfg, drop,
                                                      inits):
    config = tmp_path / "run.cfg"
    lines = request.getfixturevalue(cfg).read_text().splitlines(keepends=True)
    config.write_text("".join(line for line in lines if not drop or not line.startswith(drop)))
    flags = []
    for flag, (run, name) in inits.items():
        flags += [flag, str(request.getfixturevalue(run) / name)]
    first, again = tmp_path / "first", tmp_path / "again"
    assert cli.main([
        "train", recipe, "--config", str(config), "--out-dir", str(first), *flags,
    ]) == 0
    assert cli.main([
        "train", recipe, "--config", str(first / "resolved.cfg"), "--out-dir", str(again),
    ]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


@pytest.mark.parametrize("recipe, cfg, builds", [
    ("supervised", "train_cfg", 2),  # each epoch's dev build embeds; the final index reads
    ("e2e-joint", "e2e_cfg", 1),  # the frozen tower's steps and final index read the first
])
def test_training_embeds_the_corpus_once_per_context_tower_state(
    request, toy_dir, tmp_path, monkeypatch, recipe, cfg, builds
):
    sizes = []
    original = TransformerEncoder.embed

    def embed(self, sequences):
        if self.params["token_emb"].name == "z.token_emb":
            sizes.append(len(sequences))
        return original(self, sequences)

    monkeypatch.setattr(TransformerEncoder, "embed", embed)
    cfg_path = request.getfixturevalue(cfg)
    assert cli.main(["train", recipe, "--config", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
    assert sizes == [len(load_corpus(toy_dir / "corpus.jsonl"))] * builds


def test_train_flags_write_what_their_set_forms_write(e2e_cfg, sup_run, tmp_path):
    init = str(sup_run / "retriever.ckpt")
    runs = {
        "flags": ["--seed", "5", "--tau-multiple", "0.5", "--k", "1", "--init", init],
        "set": ["--set", "seed=5", "--set", "tau_multiple=0.5", "--set", "top_k=1",
                "--set", f"init={init}"],
    }
    for name, flags in runs.items():
        assert cli.main([
            "train", "e2e-joint", "--config", str(e2e_cfg), "--out-dir", str(tmp_path / name),
            *flags,
        ]) == 0
    names = sorted(p.name for p in (tmp_path / "flags").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "set").iterdir())
    for name in names:
        assert (tmp_path / "flags" / name).read_bytes() == (tmp_path / "set" / name).read_bytes()
    resolved = (tmp_path / "set" / "resolved.cfg").read_text()
    assert "seed=5\n" in resolved and "top_k=1\n" in resolved and f"init={init}\n" in resolved


def test_train_mines_questions_without_a_positive(toy_dir, train_cfg, tmp_path):
    corpus = load_corpus(toy_dir / "corpus.jsonl")
    stats = build_corpus_stats(corpus)
    bare = [QAExample(ex.question, ex.answers) for ex in load_qa(toy_dir / "train.jsonl")]
    save_qa(bare, tmp_path / "bare.jsonl")
    save_qa([mine_distant_supervision(ex, corpus, stats) for ex in bare], tmp_path / "mined.jsonl")
    for name in ("bare", "mined"):
        assert cli.main([
            "train", "supervised", "--config", str(train_cfg), "--out-dir", str(tmp_path / name),
            "--set", f"train={tmp_path / name}.jsonl",
        ]) == 0
    for name in ("retriever.ckpt", "index.ridx", "metrics.jsonl"):
        assert (tmp_path / "bare" / name).read_bytes() == (tmp_path / "mined" / name).read_bytes()


def test_train_config_of_another_recipe_is_config_error(sup_run, tmp_path, capsys):
    code = cli.main([
        "train", "ict", "--config", str(sup_run / "resolved.cfg"),
        "--out-dir", str(tmp_path / "x"),
    ])
    assert code == 3
    assert "recipe supervised" in capsys.readouterr().err


def test_train_failed_write_is_io_error_and_leaves_no_temp_file(train_cfg, tmp_path):
    out = tmp_path / "run"
    (out / "metrics.jsonl").mkdir(parents=True)
    code = cli.main(["train", "ict", "--config", str(train_cfg), "--out-dir", str(out)])
    assert code == 4
    assert list(out.rglob("*.tmp")) == []


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


@pytest.mark.parametrize("recipe, cfg, setting", [
    ("ict", "train_cfg", "hidden_size=7"),
    ("ict", "train_cfg", "heads=0"),
    ("supervised", "train_cfg", "heads=3"),  # does not divide hidden_size=16
    ("ict", "train_cfg", "layers=0"),
    ("supervised", "train_cfg", "max_seq_len=0"),
    ("salient", "train_cfg", "dec_layers=0"),
    ("ict", "train_cfg", "dec_layers=0"),  # a reader key, checked for every recipe
    ("supervised", "train_cfg", "max_answer_len=-3"),
    ("e2e-individual", "e2e_cfg", "enc_layers=0"),
    ("e2e-joint", "e2e_cfg", "max_answer_len=0"),
])
def test_train_bad_model_key_is_config_error_before_any_file_is_read(
    request, tmp_path, capsys, recipe, cfg, setting
):
    # the corpus is absent, so a check made after the first read would exit 4
    code = cli.main([
        "train", recipe, "--config", str(request.getfixturevalue(cfg)),
        "--out-dir", str(tmp_path / "x"), "--set", setting,
        "--set", f"corpus={tmp_path / 'absent.jsonl'}",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert re.search(rf"\b{setting.split('=')[0]}\b", err) and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_init_checkpoint_with_an_invalid_stored_config_is_input_error(
    train_cfg, sup_run, tmp_path, capsys
):
    config, arrays = load_checkpoint(sup_run / "retriever.ckpt")
    save_checkpoint(tmp_path / "bad.ckpt", {**config, "heads": 0}, arrays)
    code = cli.main([
        "train", "supervised", "--config", str(train_cfg), "--out-dir", str(tmp_path / "x"),
        "--init", str(tmp_path / "bad.ckpt"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'bad.ckpt'}: heads must be >= 1" in err and "(field: config)" in err


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


@pytest.mark.parametrize("recipe, cfg, setting", [
    ("ict", "train_cfg", "warmup_ratio=1.5"),
    ("e2e-joint", "e2e_cfg", "warmup_ratio=1.5"),
    ("e2e-joint", "e2e_cfg", "learning_rate=-1"),
    ("e2e-joint", "e2e_cfg", "tau_multiple=nan"),
    ("e2e-joint", "e2e_cfg", "tau_multiple=inf"),
    ("supervised", "train_cfg", "tau_multiple=nan"),
    ("supervised", "train_cfg", "learning_rate=nan"),
    ("supervised", "train_cfg", "eval_ks="),
    ("supervised", "train_cfg", "eval_ks=0"),
    ("ict", "train_cfg", "weight_decay=nan"),
    ("supervised", "train_cfg", "weight_decay=-5"),
    ("e2e-individual", "e2e_cfg", "weight_decay=inf"),
    ("supervised", "train_cfg", "target_train_top1=2"),
])
def test_train_bad_learning_rate_schedule_is_config_error(
    request, tmp_path, capsys, recipe, cfg, setting
):
    code = cli.main([
        "train", recipe, "--config", str(request.getfixturevalue(cfg)),
        "--out-dir", str(tmp_path / "x"), "--set", setting,
    ])
    assert code == 3
    assert setting.split("=")[0] in capsys.readouterr().err


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


DEPLOYMENT_COMMANDS = {
    "retrieve": ["retrieve", "--question", "anything ?"],
    "answer": ["answer", "--reader", "absent-reader.ckpt", "--question", "anything ?"],
    "eval": ["eval", "--dataset", "absent-dev.jsonl"],
}


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value)
    for command in DEPLOYMENT_COMMANDS
    for flag, value in [
        ("--k", "0"), ("--k", "-2"), ("--tau-multiple", "inf"), ("--tau-multiple", "nan"),
        ("--tau-multiple", "0"), ("--tau-multiple", "-1"), ("--max-len", "0"),
    ]
    if not (command == "retrieve" and flag == "--max-len")
])
def test_bad_deployment_flag_is_config_error_before_any_file_is_read(
    tmp_path, capsys, command, flag, value
):
    # no file exists, so a check made after the first read would exit 4
    code = cli.main(DEPLOYMENT_COMMANDS[command] + [
        "--index", str(tmp_path / "absent.ridx"),
        "--checkpoint", str(tmp_path / "absent.ckpt"),
        "--corpus", str(tmp_path / "absent.jsonl"),
        f"{flag}={value}",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert flag in err and value in err and "Traceback" not in err


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


def test_swapped_index_and_checkpoint_exit_2_naming_kind(toy_dir, e2e_run, capsys):
    common = ["--corpus", str(toy_dir / "corpus.jsonl"), "--question", "anything ?"]
    swapped = [
        ["retrieve", "--index", str(e2e_run / "retriever.ckpt"),
         "--checkpoint", str(e2e_run / "retriever.ckpt")],
        ["answer", "--index", str(e2e_run / "index.ridx"),
         "--checkpoint", str(e2e_run / "index.ridx"), "--reader", str(e2e_run / "reader.ckpt")],
    ]
    for argv in swapped:
        capsys.readouterr()
        assert cli.main([*argv, *common]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(field: kind)" in err


@pytest.mark.parametrize("name, corrupt, field", [
    ("index.ridx", lambda raw: raw[:-40] + bytes([raw[-40] ^ 4]) + raw[-39:], "checksum"),
    ("index.ridx", lambda raw: raw[:-1], "payload"),
    ("retriever.ckpt", lambda raw: raw[:-100] + bytes([raw[-100] ^ 1]) + raw[-99:], "checksum"),
])
def test_corrupt_artifact_exits_2(toy_dir, sup_run, tmp_path, capsys, name, corrupt, field):
    paths = {n: sup_run / n for n in ("index.ridx", "retriever.ckpt")}
    paths[name] = tmp_path / name
    paths[name].write_bytes(corrupt((sup_run / name).read_bytes()))
    code = cli.main([
        "retrieve", "--index", str(paths["index.ridx"]),
        "--checkpoint", str(paths["retriever.ckpt"]),
        "--corpus", str(toy_dir / "corpus.jsonl"), "--question", "anything ?",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"(field: {field})" in err


def test_answer_both_modes(toy_dir, e2e_run, tmp_path, capsys):
    questions = tmp_path / "questions.txt"
    examples = load_qa(toy_dir / "train.jsonl")[:8]
    questions.write_text("".join(ex.question + "\n" for ex in examples))
    for mode in ("individual", "joint"):
        out = tmp_path / f"answers-{mode}.jsonl"
        args = [
            "answer",
            "--index", str(e2e_run / "index.ridx"),
            "--checkpoint", str(e2e_run / "retriever.ckpt"),
            "--reader", str(e2e_run / "reader.ckpt"),
            "--corpus", str(toy_dir / "corpus.jsonl"),
            "--mode", mode, "--k", "2", "--max-len", "4",
        ]
        capsys.readouterr()
        assert cli.main([*args, "--file", str(questions)]) == 0
        printed = capsys.readouterr().out
        assert cli.main([*args, "--file", str(questions), "--out", str(out)]) == 0
        assert printed.encode("utf-8") == out.read_bytes()
        # the questions answered together write the bytes of one run per question
        one = tmp_path / "one.jsonl"
        alone = b""
        for ex in examples:
            assert cli.main([*args, "--question", ex.question, "--out", str(one)]) == 0
            alone += one.read_bytes()
        assert out.read_bytes() == alone
        records = [json.loads(line) for line in read_lines(out)]
        assert len(records) == 8
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


def test_eval_encodes_and_searches_each_question_once(toy_dir, e2e_run, tmp_path, monkeypatch):
    dataset = tmp_path / "dev12.jsonl"
    examples = load_qa(toy_dir / "train.jsonl")[:12]
    save_qa(examples, dataset)
    common = [
        "--dataset", str(dataset),
        "--index", str(e2e_run / "index.ridx"),
        "--checkpoint", str(e2e_run / "retriever.ckpt"),
        "--corpus", str(toy_dir / "corpus.jsonl"),
        "--reader", str(e2e_run / "reader.ckpt"),
        "--mode", "joint", "--k", "2", "--max-len", "4", "--ks", "1,3",
    ]
    # the report as two passes made it: one search at max(ks), one at k
    corpus = load_corpus(toy_dir / "corpus.jsonl")
    dual = cli.DualEncoder.load(e2e_run / "retriever.ckpt")
    snapshot = cli.load_index(e2e_run / "index.ridx")
    tau = e2e.tau_value(1.0, dual.config.hidden_size)
    reader = cli.Reader.load(e2e_run / "reader.ckpt")
    reference = tmp_path / "reference"
    reference.mkdir()
    cli.emit_report(cli.EvalReport(
        accuracies=e2e.evaluate_retrieval(examples, corpus, dual, snapshot, (1, 3), tau),
        em=e2e.evaluate_em(examples, corpus, dual, reader, snapshot, "joint", 2, tau, 4),
        n_examples=12,
        config={"dataset": str(dataset), "ks": [1, 3], "mode": "joint", "tau_multiple": 1.0},
    ), reference / "report.json", reference / "report.csv")

    encoded, searches = [], []

    def embed_questions(self, questions, _original=cli.DualEncoder.embed_questions):
        encoded.extend(questions)
        return _original(self, questions)

    def searching(*args, **kwargs):
        searches.append(kwargs["k"])
        return top_k(*args, **kwargs)

    monkeypatch.setattr(cli.DualEncoder, "embed_questions", embed_questions)
    monkeypatch.setattr(e2e, "top_k", searching)
    out = tmp_path / "report"
    assert cli.main(["eval", *common, "--out-dir", str(out)]) == 0
    # one search at max(k, max(ks)); EM reads its first k rows
    assert len(encoded) == 12 and searches == [3] * 12
    for name in ("report.json", "report.csv"):
        assert (out / name).read_bytes() == (reference / name).read_bytes()


def test_eval_searches_at_its_tau_multiple(toy_dir, e2e_run, tmp_path, monkeypatch):
    taus = set()

    def spy(*args, tau, **kwargs):
        taus.add(tau)
        return top_k(*args, tau=tau, **kwargs)

    monkeypatch.setattr(e2e, "top_k", spy)
    assert cli.main([
        "eval",
        "--dataset", str(toy_dir / "dev.jsonl"),
        "--index", str(e2e_run / "index.ridx"),
        "--checkpoint", str(e2e_run / "retriever.ckpt"),
        "--corpus", str(toy_dir / "corpus.jsonl"),
        "--reader", str(e2e_run / "reader.ckpt"),
        "--tau-multiple", "0.05", "--k", "2", "--max-len", "4",
        "--ks", "1,2", "--out-dir", str(tmp_path / "report"),
    ]) == 0
    assert taus == {0.05 * 16 ** 0.5}  # hidden size 16: the EM search too, not 1.0 * 4


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


@pytest.mark.parametrize("axis, values, corpus_loads", [
    ("tau", "0.5,1.0", 2),  # one per run
    ("train-fraction", "0.5,1.0", 3),  # and one for mining
])
def test_sweep_scores_on_what_each_run_built(train_cfg, tmp_path, monkeypatch, axis, values,
                                             corpus_loads):
    loads = {"corpus": 0, "index": 0}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            loads[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "load_corpus", counted("corpus", cli.load_corpus))
    monkeypatch.setattr(cli, "load_index", counted("index", cli.load_index))
    assert cli.main([
        "sweep", "--axis", axis, "--values", values, "--recipe", "supervised",
        "--config", str(train_cfg), "--out-dir", str(tmp_path / "sweep"), "--set", "epochs=1",
    ]) == 0
    assert loads == {"corpus": corpus_loads, "index": 0}


@pytest.mark.parametrize("axis, values", [("tau", "0.5,-1"), ("train-fraction", "0.5,2")])
def test_sweep_bad_point_is_config_error_before_any_point_trains(
    train_cfg, tmp_path, capsys, axis, values
):
    out = tmp_path / "sweep"
    code = cli.main([
        "sweep", "--axis", axis, "--values", values, "--recipe", "supervised",
        "--config", str(train_cfg), "--out-dir", str(out), "--set", "epochs=1",
    ])
    assert code == 3
    assert not out.exists()
    assert "Traceback" not in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, flag", [
    (["eval", "--ks", "1,x"], "--ks"),
    (["sweep", "--axis", "topk", "--values", "1,x"], "--values"),
    (["sweep", "--axis", "train-fraction", "--values", "0.5,x"], "--values"),
    (["eval", "--ks", "0"], "--ks"),
    (["eval", "--ks", "-1"], "--ks"),
    (["eval", "--ks", "1,0"], "--ks"),
])
def test_malformed_number_list_is_config_error(
    toy_dir, sup_run, train_cfg, tmp_path, capsys, argv, flag
):
    if argv[0] == "eval":
        argv = argv + [
            "--dataset", str(toy_dir / "dev.jsonl"), "--index", str(sup_run / "index.ridx"),
            "--checkpoint", str(sup_run / "retriever.ckpt"),
            "--corpus", str(toy_dir / "corpus.jsonl"),
        ]
    else:
        argv = argv + ["--config", str(train_cfg)]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err


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
