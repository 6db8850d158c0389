from dataclasses import replace

import pytest

from bright_kit import (
    BBox,
    DataError,
    HoiClass,
    PortError,
    TemplateViolationError,
)
from bright_kit.augment import (
    Detections,
    GenerationBudget,
    HttpServicePorts,
    MockPorts,
    PromptRecord,
    RegionVerdict,
    ServicePorts,
    build_prompt,
    crawl_query,
    describe_query,
    generate_valid_images,
    gerund,
    http_ports,
    mock_ports,
    prompt_prefix,
    pseudo_label,
    region_query,
    verification_query,
)

from helpers import make_dataset, make_vocab


RIDE_HORSE = HoiClass(1, 1, 1, "ride", "horse")
EAT_PIZZA = HoiClass(2, 2, 2, "eat", "pizza")


def _ref_pool(vocab, class_id=1):
    return make_dataset([[class_id]], vocab)


# ---------------------------------------------------------------------------
# Templates
# ---------------------------------------------------------------------------


def test_prompt_prefix_uses_raw_template_tokens():
    assert prompt_prefix(RIDE_HORSE) == "A photo of a person ride a/an horse,"


def test_prompt_prefix_multiword_verb():
    cls = HoiClass(3, 3, 3, "sit_on", "chair")
    assert prompt_prefix(cls) == "A photo of a person sit on a/an chair,"


def test_describe_query_mentions_class_and_template():
    q = describe_query(RIDE_HORSE)
    assert "ride a horse" in q
    assert "'A photo of a person ride a/an horse, {description}.'" in q


def test_verification_query():
    q = verification_query(RIDE_HORSE)
    assert "can you confirm if the person is ride the horse" in q
    assert "'Yes' or 'No'" in q


def test_region_query_places_regions():
    q = region_query(RIDE_HORSE)
    assert "<region1>" in q and "<region2>" in q
    assert "ride horse" in q


def test_crawl_query_gerunds():
    assert crawl_query(RIDE_HORSE) == "a photo of a/an person riding a/an horse"
    assert crawl_query(EAT_PIZZA) == "a photo of a/an person eating a/an pizza"


def test_crawl_query_empty_verb_errors():
    with pytest.raises(DataError):
        gerund("")


@pytest.mark.parametrize(
    "verb,expected",
    [
        ("ride", "riding"),
        ("eat", "eating"),
        ("sit", "sitting"),
        ("sit_on", "sitting on"),
        ("lie_on", "lying on"),
        ("tie", "tying"),
        ("cut_with", "cutting with"),
        ("race", "racing"),
        ("buy", "buying"),
        ("row", "rowing"),
        ("blow", "blowing"),
        ("drink_with", "drinking with"),
        ("pick_up", "picking up"),
        ("no_interaction", "not interacting with"),
    ],
)
def test_gerund_rule_table(verb, expected):
    assert gerund(verb) == expected


# ---------------------------------------------------------------------------
# PromptRecord invariants
# ---------------------------------------------------------------------------


def test_prompt_record_enforces_template():
    with pytest.raises(TemplateViolationError):
        PromptRecord(RIDE_HORSE, "r1", "a horse being ridden", 0)
    ok = PromptRecord(RIDE_HORSE, "r1", prompt_prefix(RIDE_HORSE) + " at dawn.", 0)
    assert ok.paraphrase_generation == 0


# ---------------------------------------------------------------------------
# Port bundles
# ---------------------------------------------------------------------------


def test_port_bundles_hold_exactly_the_six_ports():
    # perfbench's traced run wraps every attribute of the bundle mock_ports returns.
    names = {"describer", "generator", "detector", "region_verifier", "text_verifier",
             "paraphraser"}
    # Each bundle is one backend object serving all six ports.
    for ports, kind in ((mock_ports(), MockPorts),
                        (http_ports("http://127.0.0.1:1"), HttpServicePorts)):
        assert set(vars(ports)) == names
        assert len({id(port) for port in vars(ports).values()}) == 1
        assert isinstance(ports.describer, kind)
    with pytest.raises(TypeError):  # a bundle without every port cannot be built
        ServicePorts(describer=mock_ports().describer)


# ---------------------------------------------------------------------------
# build_prompt
# ---------------------------------------------------------------------------


def test_build_prompt_with_mock_describer():
    vocab = make_vocab(2)
    pool = _ref_pool(vocab)
    ports = mock_ports(description="a fixed description")
    cls = vocab.get(1)
    rec = build_prompt(cls, pool, ports, seed=0)
    assert rec.text == f"{prompt_prefix(cls)} a fixed description."
    assert rec.reference_image_id == "img0000"
    assert rec.paraphrase_generation == 0


def test_build_prompt_empty_reference_subset():
    vocab = make_vocab(2)
    pool = _ref_pool(vocab, class_id=1)
    ports = mock_ports()
    with pytest.raises(DataError):
        build_prompt(vocab.get(2), pool, ports, seed=0)


def test_build_prompt_retries_once_then_errors():
    vocab = make_vocab(1)
    pool = _ref_pool(vocab)

    class FlakyDescriber:
        def __init__(self, bad_times):
            self.bad_times = bad_times

        def describe(self, image_ref, cls):
            if self.bad_times > 0:
                self.bad_times -= 1
                return "completely off-template text"
            return prompt_prefix(cls) + " recovered."

    rec = build_prompt(vocab.get(1), pool, replace(mock_ports(), describer=FlakyDescriber(1)), seed=0)
    assert rec.text.endswith("recovered.")

    with pytest.raises(TemplateViolationError):
        build_prompt(vocab.get(1), pool, replace(mock_ports(), describer=FlakyDescriber(2)), seed=0)


def test_build_prompt_reference_sampling_is_seeded():
    vocab = make_vocab(1)
    pool = make_dataset([[1]] * 10, vocab)
    ports = mock_ports()
    picks = {build_prompt(vocab.get(1), pool, ports, seed=s).reference_image_id for s in range(8)}
    assert len(picks) > 1
    again = build_prompt(vocab.get(1), pool, ports, seed=3)
    assert again.reference_image_id == build_prompt(vocab.get(1), pool, ports, seed=3).reference_image_id


# ---------------------------------------------------------------------------
# generate_valid_images
# ---------------------------------------------------------------------------


def test_loop_accept_all_hits_target_immediately():
    vocab = make_vocab(1)
    gen = generate_valid_images(
        vocab.get(1), GenerationBudget(10, 3), mock_ports(), _ref_pool(vocab), seed=0
    )
    assert gen.status == "target_reached"
    assert len(gen.valid_images) == 3
    assert len(gen.attempts) == 3
    assert gen.paraphrase_events == 0
    assert all(a.valid for a in gen.attempts)


def test_loop_period_two_trace():
    vocab = make_vocab(1)
    gen = generate_valid_images(
        vocab.get(1),
        GenerationBudget(max_attempts_per_class=10, target_valid=2),
        mock_ports(verdicts=[False, True]),
        _ref_pool(vocab),
        seed=0,
    )
    assert gen.status == "target_reached"
    assert len(gen.valid_images) == 2
    assert len(gen.attempts) == 4
    assert gen.paraphrase_events == 2
    assert [a.valid for a in gen.attempts] == [False, True, False, True]
    assert [a.paraphrased_after for a in gen.attempts] == [True, False, True, False]


def test_loop_all_reject_exhausts_budget():
    vocab = make_vocab(1)
    gen = generate_valid_images(
        vocab.get(1),
        GenerationBudget(max_attempts_per_class=5, target_valid=2),
        mock_ports(verdicts=[False]),
        _ref_pool(vocab),
        seed=0,
    )
    assert gen.status == "budget_exhausted"
    assert len(gen.valid_images) == 0
    assert gen.generator_calls == 5
    assert gen.paraphrase_events == 5


def test_paraphrase_generation_counts_rejections():
    vocab = make_vocab(1)
    gen = generate_valid_images(
        vocab.get(1), GenerationBudget(6, 6), mock_ports(verdicts=[False]),
        _ref_pool(vocab), seed=0,
    )
    assert [a.paraphrase_generation for a in gen.attempts] == [0, 1, 2, 3, 4, 5]


def test_never_exceeds_generator_budget():
    vocab = make_vocab(1)
    for verdicts in ([True], [False], [False, False, True]):
        gen = generate_valid_images(
            vocab.get(1), GenerationBudget(7, 100), mock_ports(verdicts=verdicts),
            _ref_pool(vocab), seed=0,
        )
        assert gen.generator_calls <= 7


def test_every_valid_image_has_accepted_pair():
    vocab = make_vocab(1)
    gen = generate_valid_images(
        vocab.get(1), GenerationBudget(10, 4), mock_ports(verdicts=[False, True, True]),
        _ref_pool(vocab), seed=0,
    )
    for _, pairs in gen.valid_images:
        assert pairs
        assert all(p.accepted for p in pairs)


def test_attempt_log_is_deterministic():
    vocab = make_vocab(1)

    def run():
        gen = generate_valid_images(
            vocab.get(1), GenerationBudget(9, 3), mock_ports(verdicts=[False, True]),
            _ref_pool(vocab), seed=11,
        )
        return [a.to_dict() for a in gen.attempts]

    assert run() == run()


def test_port_failure_aborts_attempt_not_run():
    vocab = make_vocab(1)

    class FlakyGenerator:
        def __init__(self):
            self.calls = 0

        def generate(self, prompt):
            self.calls += 1
            if self.calls == 1:
                raise PortError("backend down")
            return f"img-{self.calls}"

    ports = mock_ports()
    ports.generator = FlakyGenerator()
    gen = generate_valid_images(
        vocab.get(1), GenerationBudget(5, 2), ports, _ref_pool(vocab), seed=0
    )
    assert gen.status == "target_reached"
    assert gen.attempts[0].error == "backend down"
    assert not gen.attempts[0].valid
    assert not gen.attempts[0].paraphrased_after  # failures reuse the same prompt
    assert len(gen.valid_images) == 2
    assert len(gen.attempts) == 3


def test_paraphraser_failure_aborts_attempt_not_run():
    vocab = make_vocab(1)

    class FailingParaphraser:
        def paraphrase(self, prompt):
            raise PortError("paraphraser down")

    ports = mock_ports(verdicts=[False, True])
    ports.paraphraser = FailingParaphraser()
    gen = generate_valid_images(
        vocab.get(1), GenerationBudget(5, 2), ports, _ref_pool(vocab), seed=0
    )
    assert gen.status == "target_reached"
    assert [a.error for a in gen.attempts] == ["paraphraser down", None, "paraphraser down", None]
    assert [a.valid for a in gen.attempts] == [False, True, False, True]
    assert len({a.prompt_text for a in gen.attempts}) == 1  # the prompt is kept
    assert not any(a.paraphrased_after for a in gen.attempts)
    assert gen.paraphrase_events == 0


def test_template_violation_aborts_attempt_not_run():
    vocab = make_vocab(1)
    prefix = prompt_prefix(vocab.get(1))

    class DroppingParaphraser:
        def paraphrase(self, prompt):
            return "reworded: " + prompt

    ports = mock_ports(verdicts=(False,))
    ports.paraphraser = DroppingParaphraser()
    gen = generate_valid_images(
        vocab.get(1), GenerationBudget(3, 1), ports, _ref_pool(vocab), seed=0
    )
    assert gen.status == "budget_exhausted"
    assert all(a.error.startswith("prompt does not start with template prefix")
               for a in gen.attempts)
    assert {(a.prompt_text, a.paraphrase_generation) for a in gen.attempts} == {
        (gen.attempts[0].prompt_text, 0)}  # the failed paraphrase keeps the prompt
    assert gen.paraphrase_events == 0

    class OffTemplateDescriber:  # misses the template twice in each of its first two attempts
        calls = 0

        def describe(self, image_ref, cls):
            self.calls += 1
            return f"{prefix} recovered." if self.calls > 4 else "off-template text"

    ports = mock_ports()
    ports.describer = OffTemplateDescriber()
    gen = generate_valid_images(
        vocab.get(1), GenerationBudget(5, 1), ports, _ref_pool(vocab), seed=0
    )
    assert gen.status == "target_reached"
    assert [a.prompt_text for a in gen.attempts] == [None, None, f"{prefix} recovered."]
    assert [a.error is not None for a in gen.attempts] == [True, True, False]


def test_text_verifier_gate():
    vocab = make_vocab(1)

    class RejectingTextVerifier:
        def verify_text(self, description, cls):
            return False

    # region passes, text check vetoes
    ports = replace(mock_ports(verdicts=[True]), text_verifier=RejectingTextVerifier())
    gen = generate_valid_images(
        vocab.get(1), GenerationBudget(3, 1), ports, _ref_pool(vocab), seed=0
    )
    assert gen.status == "budget_exhausted"
    assert all(not a.valid for a in gen.attempts)
    for a in gen.attempts:
        assert all(p.region_accepted and p.text_accepted is False for p in a.pairs)


# ---------------------------------------------------------------------------
# pseudo_label
# ---------------------------------------------------------------------------


def _boxes(n, offset=0.0):
    return tuple(BBox(10 * i + offset, 5, 10 * i + 8 + offset, 20) for i in range(1, n + 1))


def test_pseudo_label_single_pair():
    ports = mock_ports(verdicts=[True])
    dets = Detections(_boxes(1), _boxes(1, offset=30))
    out = pseudo_label("img", dets, RIDE_HORSE, ports)
    assert len(out) == 1
    assert out[0].class_id == RIDE_HORSE.class_id
    assert out[0].provenance == "generated"


def test_pseudo_label_diagonal_acceptance():
    # 2 persons x 2 objects; verifier accepts exactly the diagonal pairs
    class DiagonalVerifier:
        def verify_region(self, image_ref, human_box, object_box, cls):
            i = round((human_box.x1 - 10) / 10)
            j = round((object_box.x1 - 40) / 10)
            return RegionVerdict(accepted=(i == j), description="d")

    ports = replace(mock_ports(), region_verifier=DiagonalVerifier())
    dets = Detections(_boxes(2), _boxes(2, offset=30))
    out = pseudo_label("img", dets, RIDE_HORSE, ports, provenance="crawled")
    # oracle: enumerate all four candidates, keep the accepted ones
    expected = [(i, j) for i in range(2) for j in range(2) if i == j]
    assert len(out) == len(expected) == 2
    assert all(inst.provenance == "crawled" for inst in out)


def test_pseudo_label_no_person_warns(caplog):
    ports = mock_ports()
    with caplog.at_level("WARNING", logger="bright_kit"):
        out = pseudo_label("img", Detections((), _boxes(1)), RIDE_HORSE, ports)
    assert out == []
    assert any("no person" in r.message for r in caplog.records)


def test_pseudo_label_no_object_warns(caplog):
    ports = mock_ports()
    with caplog.at_level("WARNING", logger="bright_kit"):
        out = pseudo_label("img", Detections(_boxes(1), ()), RIDE_HORSE, ports)
    assert out == []
    assert any("no target object" in r.message for r in caplog.records)


def test_pseudo_label_rejects_real_provenance():
    ports = mock_ports()
    dets = Detections(_boxes(1), _boxes(1, offset=30))
    with pytest.raises(DataError):
        pseudo_label("img", dets, RIDE_HORSE, ports, provenance="real")


def test_mock_paraphraser_preserves_prefix():
    text = prompt_prefix(RIDE_HORSE) + " something."
    out = mock_ports().paraphraser.paraphrase(text)
    assert out.startswith(prompt_prefix(RIDE_HORSE))
    assert out != text
