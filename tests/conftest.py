from __future__ import annotations

import http.server
import json
import socketserver
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest

from itiguard import FixtureProvider, parse_itinerary

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDENS = Path(__file__).resolve().parent / "goldens"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def goldens_dir() -> Path:
    return GOLDENS


@pytest.fixture
def sample_invalid():
    return parse_itinerary((FIXTURES / "sample_invalid.json").read_text(encoding="utf-8"), 4)


@pytest.fixture
def sample_corrected():
    return parse_itinerary((FIXTURES / "sample_corrected.json").read_text(encoding="utf-8"), 4)


@pytest.fixture
def demo_provider() -> FixtureProvider:
    return FixtureProvider({("SYD", "FRA"): 1020, ("FRA", "CAI"): 60, ("CAI", "CMN"): 60})


class _LoopbackHandler(http.server.BaseHTTPRequestHandler):
    """Answers /<status>/... with that status. A GET gets {"hours": 2} and a
    POST gets {"text": <its body>}; each request is kept on server.seen as
    (method, path, headers, body)."""

    def do_GET(self):
        self._answer(None, b'{"hours": 2}')

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self._answer(body, json.dumps({"text": body.decode()}).encode())

    def _answer(self, body, payload):
        self.server.seen.append((self.command, self.path, self.headers, body))
        status = int(self.path.split("/")[1])
        self.send_response(status)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        if status >= 200:  # a 1xx answer has no body
            self.wfile.write(payload)

    def log_message(self, format, *args):
        pass


@pytest.fixture
def loopback(monkeypatch):
    """A real HTTP server on 127.0.0.1 in a thread, so the HTTP clients run
    end to end without the network: .url is its base URL and .seen the
    requests it got. (socketserver's TCPServer, unlike http.server's
    HTTPServer, looks up no host name when it binds.)"""
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    server = socketserver.TCPServer(("127.0.0.1", 0), _LoopbackHandler)
    server.seen = []
    thread = threading.Thread(target=server.serve_forever, args=(0.05,))
    thread.start()
    try:
        yield SimpleNamespace(url=f"http://127.0.0.1:{server.server_address[1]}", seen=server.seen)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
