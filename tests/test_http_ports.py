"""The HTTP port protocol, exercised against a canned local server."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from bright_kit import BBox, HoiClass, PortError
from bright_kit.augment import (
    GenerationBudget,
    HttpServicePorts,
    generate_valid_images,
    http_ports,
    prompt_prefix,
)

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
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()


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
