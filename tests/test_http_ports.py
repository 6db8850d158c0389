"""The HTTP port protocol, exercised against a canned local server."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from bright_kit import BBox, HoiClass, PortError, save_split, save_vocabulary
from bright_kit.augment import (
    GenerationBudget,
    HttpServicePorts,
    generate_valid_images,
    http_ports,
    prompt_prefix,
)
from bright_kit.cli import main

from helpers import make_dataset, make_vocab

CLS = HoiClass(1, 1, 1, "verb1", "object1")


class _Handler(BaseHTTPRequestHandler):
    fail_endpoints: set = set()
    bad_bodies: dict = {}  # endpoint -> canned 200 body of the wrong shape
    requests_seen: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        endpoint = self.path.strip("/")
        type(self).requests_seen.append((endpoint, payload))
        if endpoint in self.fail_endpoints:
            self.send_response(500)
            self.end_headers()
            return
        out = self.bad_bodies.get(endpoint) or self._respond(endpoint, payload)
        body = json.dumps(out).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _respond(self, endpoint, payload):
        if endpoint == "describe":
            verb = payload["class"]["verb"]
            obj = payload["class"]["object"]
            return {"text": f"A photo of a person {verb} a/an {obj}, served over http."}
        if endpoint == "generate":
            return {"image_ref": f"http://images/{len(self.requests_seen):03d}.png"}
        if endpoint == "detect":
            return {
                "person_boxes": [[10, 10, 60, 120]],
                "object_boxes": [[50, 40, 140, 130]],
            }
        if endpoint == "verify_region":
            return {"accepted": True, "description": "a person with the object"}
        if endpoint == "verify_text":
            return {"accepted": True}
        if endpoint == "paraphrase":
            return {"prompt": payload["prompt"] + " (alt)"}
        return {}

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    _Handler.fail_endpoints = set()
    _Handler.bad_bodies = {}
    _Handler.requests_seen = []
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    # A short poll interval lets shutdown() return at once instead of after 0.5 s.
    thread = threading.Thread(target=httpd.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()


def test_all_ports_round_trip(server):
    client = HttpServicePorts(server)
    text = client.describe("ref-1", CLS)
    assert text.startswith(prompt_prefix(CLS))
    ref = client.generate(text)
    assert ref.startswith("http://images/")
    dets = client.detect(ref)
    assert dets.person_boxes == (BBox(10, 10, 60, 120),)
    assert dets.object_boxes == (BBox(50, 40, 140, 130),)
    verdict = client.verify_region(ref, dets.person_boxes[0], dets.object_boxes[0], CLS)
    assert verdict.accepted
    assert client.verify_text(verdict.description, CLS) is True
    assert client.paraphrase("p").endswith("(alt)")


def test_request_bodies_mirror_port_signatures(server):
    client = HttpServicePorts(server)
    client.verify_region("ref-9", BBox(1, 2, 3, 4), BBox(5, 6, 7, 8), CLS)
    endpoint, payload = _Handler.requests_seen[-1]
    assert endpoint == "verify_region"
    assert payload["image_ref"] == "ref-9"
    assert payload["human_box"] == [1, 2, 3, 4]
    assert payload["object_box"] == [5, 6, 7, 8]
    assert payload["class"] == {
        "class_id": 1, "verb_id": 1, "object_id": 1, "verb": "verb1", "object": "object1",
    }


def test_missing_region_description_reads_as_empty(server):
    _Handler.bad_bodies = {"verify_region": {"accepted": True}}
    client = HttpServicePorts(server)
    verdict = client.verify_region("ref", BBox(1, 2, 3, 4), BBox(5, 6, 7, 8), CLS)
    assert verdict.description == ""


def test_http_error_raises_port_error(server):
    _Handler.fail_endpoints = {"generate"}
    client = HttpServicePorts(server)
    with pytest.raises(PortError):
        client.generate("prompt")


def test_connection_failure_raises_port_error():
    client = HttpServicePorts("http://127.0.0.1:1", timeout=0.2)
    with pytest.raises(PortError):
        client.generate("prompt")


def test_pipeline_runs_over_http_ports(server):
    vocab = make_vocab(1)
    gen = generate_valid_images(
        vocab.get(1),
        GenerationBudget(max_attempts_per_class=4, target_valid=2),
        http_ports(server),
        make_dataset([[1]], vocab),
        seed=0,
    )
    assert gen.status == "target_reached"
    assert len(gen.valid_images) == 2


def test_pipeline_survives_failing_detect(server):
    _Handler.fail_endpoints = {"detect"}
    vocab = make_vocab(1)
    gen = generate_valid_images(
        vocab.get(1),
        GenerationBudget(max_attempts_per_class=3, target_valid=1),
        http_ports(server),
        make_dataset([[1]], vocab),
        seed=0,
    )
    assert gen.status == "budget_exhausted"
    assert all(a.error for a in gen.attempts)


@pytest.mark.parametrize(
    "endpoint,body",
    [
        ("detect", [[10, 10, 60, 120]]),  # not a JSON object
        ("detect", {"person_boxes": "none", "object_boxes": []}),
        ("detect", {"person_boxes": [[10, 10, 60, 120]]}),  # object_boxes missing
        ("verify_region", {"accepted": "no", "description": "a person"}),
        ("verify_region", {"description": "a person"}),  # accepted missing
        ("verify_text", {"accepted": "no"}),
        ("verify_text", {"accepted": 1}),
        ("detect", {"person_boxes": ["1234"], "object_boxes": [[50, 40, 140, 130]]}),
        ("detect", {"person_boxes": [[10, 10, 60]], "object_boxes": [[50, 40, 140, 130]]}),
        ("detect", {"person_boxes": [[10, 10, "x", 120]], "object_boxes": [[50, 40, 140, 130]]}),
        ("generate", {"image_ref": ["a", 1]}),  # would become an image's file_name
        ("generate", {"image_ref": 7}),
        ("generate", {"image_ref": ""}),
        ("generate", {"ref": "http://images/1.png"}),  # image_ref missing
        ("describe", {"text": {"k": 1}}),
        ("describe", {"text": 7}),
        ("describe", {"prompt": "A photo of a person verb1 a/an object1, x."}),  # text missing
        ("verify_region", {"accepted": True, "description": {"k": 1}}),
        ("verify_region", {"accepted": True, "description": None}),
        # a lone surrogate decodes to a str that no artifact can hold
        ("describe", {"text": "A photo of a person verb1 a/an object1, \ud800."}),
        ("generate", {"image_ref": "http://images/\ud800.png"}),
        ("verify_region", {"accepted": True, "description": "\udc00"}),
    ],
)
def test_pipeline_survives_badly_typed_response(server, endpoint, body):
    _Handler.bad_bodies = {endpoint: body}
    vocab = make_vocab(1)
    gen = generate_valid_images(
        vocab.get(1),
        GenerationBudget(max_attempts_per_class=2, target_valid=1),
        http_ports(server),
        make_dataset([[1]], vocab),
        seed=0,
    )
    assert gen.status == "budget_exhausted"
    assert len(gen.attempts) == 2
    assert all(a.error and endpoint in a.error for a in gen.attempts)
    assert not gen.valid_images


@pytest.mark.parametrize("body", [{"prompt": 7}, {"prompt": {"k": 1}}, {"prompt": ""}, {"x": 1},
                                  {"prompt": "A photo of a person verb1 a/an object1, \ud800"}])
def test_pipeline_survives_badly_typed_paraphrase(server, body):
    # Every image is rejected, so every attempt asks for a paraphrase, which fails.
    _Handler.bad_bodies = {"verify_region": {"accepted": False, "description": "no"},
                           "paraphrase": body}
    vocab = make_vocab(1)
    gen = generate_valid_images(
        vocab.get(1),
        GenerationBudget(max_attempts_per_class=3, target_valid=1),
        http_ports(server),
        make_dataset([[1]], vocab),
        seed=0,
    )
    assert gen.status == "budget_exhausted"
    assert all(a.error and a.error.startswith("paraphrase:") for a in gen.attempts)
    assert {a.paraphrase_generation for a in gen.attempts} == {0}
    assert gen.paraphrase_events == 0


def test_augment_command_survives_failing_describe(server, tmp_path, capsys):
    vocab = make_vocab(2)
    save_vocabulary(vocab, tmp_path / "vocab.json")
    save_split(make_dataset([[1], [2], [1, 2]], vocab), tmp_path / "pool.json")
    (tmp_path / "deficits.json").write_text(json.dumps({"1": 2, "2": 1}))
    _Handler.fail_endpoints = {"describe"}
    out = tmp_path / "aug"
    code = main(["augment", "--deficits", str(tmp_path / "deficits.json"),
                 "--refs", str(tmp_path / "pool.json"), "--vocab", str(tmp_path / "vocab.json"),
                 "--ports", "http", "--http-base", server, "--budget", "3", "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    assert captured.out == f"augment: 0 generated images for 2 deficit classes -> {out}\n"
    rows = [json.loads(line) for line in (out / "attempts.jsonl").read_text().splitlines()]
    assert [(r["class_id"], r["attempt"]) for r in rows] == [(1, 1), (1, 2), (1, 3),
                                                             (2, 1), (2, 2), (2, 3)]
    for row in rows:
        assert row["error"] == "describe: HTTP 500"
        assert row["prompt_text"] is None and row["image_ref"] is None
        assert sorted(row) == ["attempt", "class_id", "error", "image_ref", "pairs",
                               "paraphrase_generation", "paraphrased_after", "prompt_text",
                               "valid"]
    assert {e for e, _ in _Handler.requests_seen} == {"describe"}
    report = json.loads((out / "augment_report.json").read_text())["classes"]
    assert {c: (r["status"], r["attempts"], r["generator_calls"]) for c, r in report.items()} \
        == {"1": ("budget_exhausted", 3, 0), "2": ("budget_exhausted", 3, 0)}


def test_detect_clamps_negative_coordinates(server, caplog):
    # Like a prediction box: no image size is known, so only the lower bound applies.
    _Handler.bad_bodies = {
        "detect": {"person_boxes": [[-5, 10, 60, 120]], "object_boxes": [[50, 40, 900, 130]]}
    }
    with caplog.at_level("WARNING", logger="bright_kit"):
        dets = HttpServicePorts(server).detect("ref")
    assert dets.person_boxes == (BBox(0, 10, 60, 120),)
    assert dets.object_boxes == (BBox(50, 40, 900, 130),)
    assert [r.message for r in caplog.records if "clamped" in r.message] == [
        "detect: person box: box [-5, 10, 60, 120] clamped to image bounds"
    ]
