import numpy as np
import pytest

from retforge import autodiff as ad
from retforge.errors import DimensionError, DomainError
from retforge.reader import Reader, ReaderConfig, with_eos
from retforge.text import BOS_ID, EOS_ID

TINY = ReaderConfig(
    vocab_size=16,
    enc_layers=1,
    dec_layers=1,
    hidden_size=8,
    heads=2,
    max_seq_len=12,
    max_answer_len=6,
)

Q = [7, 8]
Z = [9, 10, 11]
Z2 = [12, 13]


@pytest.fixture()
def reader():
    return Reader(TINY, seed=0)


def test_config_validation():
    with pytest.raises(DomainError):
        ReaderConfig(vocab_size=16, dec_layers=0)
    with pytest.raises(DomainError):
        ReaderConfig(vocab_size=16, max_answer_len=0)
    # one answer token plus [EOS]: at 1 no greedy decode could run a step
    with pytest.raises(DomainError, match="max_answer_len must be >= 2"):
        ReaderConfig(vocab_size=16, max_answer_len=1)
    shortest = Reader(ReaderConfig(vocab_size=16, enc_layers=1, dec_layers=1, hidden_size=8,
                                   heads=2, max_answer_len=2))
    assert len(shortest.greedy_decode(Q, Z)) <= 1
    assert len(shortest.joint_greedy_decode(Q, [Z, Z2], [0.5, 0.5])) <= 1
    with pytest.raises(DomainError):
        ReaderConfig(vocab_size=16, hidden_size=8, heads=3)


def test_with_eos():
    assert with_eos([9]) == [9, EOS_ID]
    assert with_eos([9, EOS_ID]) == [9, EOS_ID]
    assert with_eos([]) == [EOS_ID]


def test_likelihood_is_nonpositive_and_deterministic(reader):
    ll = reader.answer_log_likelihood(Q, Z, with_eos([9]))
    assert ll.item() <= 0.0
    ll2 = reader.answer_log_likelihood(Q, Z, with_eos([9]))
    assert ll.item() == ll2.item()


def test_single_token_answer_is_one_decoder_step(reader):
    """A length-1 answer's likelihood is exactly the first step's log-prob."""
    ll = reader.answer_log_likelihood(Q, Z, [9])
    cross = reader._cross_kv(reader.encode_pair(Q, Z))
    logits = reader._decode_logits(np.array([[BOS_ID]]), cross, None).data[0, 0]
    z = logits - logits.max()
    log_probs = z - np.log(np.exp(z).sum())
    assert ll.item() == pytest.approx(float(log_probs[9]), abs=1e-12)


def test_empty_answer_rejected(reader):
    with pytest.raises(DomainError):
        reader.answer_log_likelihood(Q, Z, [])
    with pytest.raises(DomainError):
        reader.joint_forward(Q, [Z], [1.0], [])


def test_per_step_distributions_are_valid(reader):
    cross = reader._cross_kv(reader.encode_pair(Q, Z))
    logits = reader._decode_logits(np.array([[BOS_ID, 9, 10]]), cross, None).data[0]
    for row in logits:
        z = row - row.max()
        p = np.exp(z) / np.exp(z).sum()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_joint_k1_equals_unbiased_reader_bitwise(reader):
    reader.lambda_bias.data = np.array(0.37)  # nonzero to make the claim strong
    answer = with_eos([9, 10])
    single = reader.answer_log_likelihood(Q, Z, answer)
    joint = reader.joint_forward(Q, [Z], [1.0], answer)
    assert single.item() == joint.item()  # exact, not approx


def test_joint_lambda_zero_equals_unbiased_fusion(reader):
    answer = with_eos([9])
    assert float(reader.lambda_bias.data) == 0.0
    joint = reader.joint_forward(Q, [Z, Z2], [0.3, 0.7], answer)
    memory = ad.concat([reader.encode_pair(Q, Z), reader.encode_pair(Q, Z2)], axis=0)
    unbiased = reader._teacher_forced(reader._cross_kv(memory), None, np.array([answer]))
    assert joint.item() == unbiased.item()


def test_joint_probs_validation(reader):
    answer = with_eos([9])
    with pytest.raises(DomainError):
        reader.joint_forward(Q, [Z, Z2], [0.5, 0.6], answer)
    with pytest.raises(DomainError):
        reader.joint_forward(Q, [Z, Z2], [-0.2, 1.2], answer)
    with pytest.raises(DimensionError):
        reader.joint_forward(Q, [Z, Z2], [1.0], answer)
    with pytest.raises(DomainError):
        reader.joint_forward(Q, [], [], answer)


def test_joint_permutation_invariance(reader):
    reader.lambda_bias.data = np.array(0.8)
    answer = with_eos([9, 11])
    a = reader.joint_forward(Q, [Z, Z2], [0.25, 0.75], answer)
    b = reader.joint_forward(Q, [Z2, Z], [0.75, 0.25], answer)
    assert a.item() == pytest.approx(b.item(), abs=1e-10)


def test_joint_saturation_approaches_single_context(reader):
    """With all probability and a huge bias on one context, fusion converges
    to that context's single-document likelihood."""
    reader.lambda_bias.data = np.array(1e6)
    answer = with_eos([9])
    joint = reader.joint_forward(Q, [Z, Z2], [1.0, 0.0], answer)
    single = reader.answer_log_likelihood(Q, Z, answer)
    assert joint.item() == pytest.approx(single.item(), abs=1e-8)


def test_greedy_decode_deterministic_and_bounded(reader):
    out1 = reader.greedy_decode(Q, Z, max_len=4)
    out2 = reader.greedy_decode(Q, Z, max_len=4)
    assert out1 == out2
    assert len(out1) <= 4
    assert EOS_ID not in out1
    with pytest.raises(DomainError):
        reader.greedy_decode(Q, Z, max_len=0)


def test_joint_greedy_decode_runs(reader):
    out = reader.joint_greedy_decode(Q, [Z, Z2], [0.5, 0.5], max_len=4)
    assert len(out) <= 4


def test_grad_check_reader_theta(reader):
    answer = with_eos([9, 10])

    def loss():
        return ad.neg(reader.answer_log_likelihood(Q, Z, answer))

    # eps=2e-4: the deeper encode-then-decode pipeline is roundoff-dominated
    # below this (verified by an eps sweep)
    worst = ad.grad_check(
        loss, reader.parameters(), eps=2e-4,
        max_elements_per_param=6, rng=np.random.default_rng(0),
    )
    assert worst < 1e-4


def test_grad_check_lambda_through_joint(reader):
    reader.lambda_bias.data = np.array(0.3)
    answer = with_eos([9])

    def loss():
        return ad.neg(reader.joint_forward(Q, [Z, Z2], [0.2, 0.8], answer))

    worst = ad.grad_check(loss, [reader.lambda_bias], eps=1e-4)
    assert worst < 1e-4
    # and lambda actually receives gradient
    reader.lambda_bias.zero_grad()
    loss().backward()
    assert abs(float(reader.lambda_bias.grad)) > 0


def test_reader_checkpoint_round_trip(tmp_path, reader):
    reader.lambda_bias.data = np.array(0.5)
    path = tmp_path / "reader.rforge"
    reader.save(path)
    loaded = Reader.load(path)
    assert loaded.config == reader.config
    assert float(loaded.lambda_bias.data) == 0.5
    answer = with_eos([9])
    assert (
        loaded.answer_log_likelihood(Q, Z, answer).item()
        == reader.answer_log_likelihood(Q, Z, answer).item()
    )


def test_decoder_length_cap(reader):
    with pytest.raises(DimensionError):
        reader.answer_log_likelihood(Q, Z, list(range(7, 15)))
