"""Text-generation clients and the format-feedback retry loop.

A client is anything with complete(prompt) -> str or bytes; the parser
decodes bytes itself, so a response that is not UTF-8 is a format error.
Three implementations cover the useful cases: a live HTTP client, a
scripted client for tests, and a replay client that serves previously
recorded responses from disk.

generate_itinerary() sends the base prompt, and on a parse failure retries
with build_feedback's message for that parse error prepended to the
unchanged base prompt, up to 3 retries (4 calls total). Only format
problems trigger a retry; temporal rule violations are the corrector's job
and never cause regeneration.
"""

from __future__ import annotations

import json
import os
from functools import partial
from pathlib import Path
from typing import Protocol

from .durations import TransportError, check_http_url, http_fetch
from .model import (
    FormatError,
    InvalidJsonError,
    Itinerary,
    load_json,
    parse_itinerary,
    read_file,
    shorten,
)
from .prompts import GenerationRequest, build_base_prompt, build_feedback

DEFAULT_MAX_RETRIES = 3
REQUEST_TIMEOUT_SECONDS = 60.0
API_KEY_ENV = "GENERATION_API_KEY"


class GenerationFailed(Exception):
    """Every attempt produced unparseable output."""

    def __init__(self, attempts: int, last_error: FormatError):
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(f"no parseable itinerary after {attempts} attempts: {last_error}")


class ResponsesExhausted(Exception):
    """A scripted or replayed client has no response left to serve."""


class GenerationClient(Protocol):
    def complete(self, prompt: str) -> str | bytes: ...


class ScriptedClient:
    """Returns canned responses in order and records every prompt it saw."""

    def __init__(self, responses: list[str] | tuple[str, ...]):
        self._responses = list(responses)
        self._cursor = 0
        self.prompts: list[str] = []

    def complete(self, prompt: str) -> str:
        self.prompts.append(prompt)
        if self._cursor >= len(self._responses):
            raise ResponsesExhausted(f"scripted client exhausted after {len(self._responses)} responses")
        response = self._responses[self._cursor]
        self._cursor += 1
        return response


class ReplayClient:
    """Serves recorded responses from a directory, one file per call.

    Files are consumed in sorted name order, so number them (001.txt,
    002.txt, ...). Layout under a recording root is
    <root>/<model_tag>/<num_destinations>/. A response is served as the
    bytes on disk.
    """

    def __init__(self, directory: str | Path):
        self._directory = Path(directory)
        self._files = sorted(p for p in self._directory.iterdir() if p.is_file())
        if not self._files:
            raise FileNotFoundError(f"no recorded responses in {self._directory}")
        self._cursor = 0

    @classmethod
    def for_request(cls, root: str | Path, model_tag: str, num_destinations: int) -> ReplayClient:
        return cls(Path(root) / model_tag / str(num_destinations))

    def complete(self, prompt: str) -> bytes:
        if self._cursor >= len(self._files):
            raise ResponsesExhausted(f"replay exhausted after {len(self._files)} responses: {self._directory}")
        path = self._files[self._cursor]
        self._cursor += 1
        return read_file(path)


class HttpGenerationClient:
    """Minimal JSON-over-HTTP client: POST {"prompt": ...}, read {"text": ...}.

    The API key comes from the constructor or GENERATION_API_KEY. transport
    is injectable for tests and has durations.http_fetch's shape, (url,
    headers, body) -> bytes, raising durations.TransportError on failure;
    without one, the client posts through http_fetch with a
    REQUEST_TIMEOUT_SECONDS timeout. Transport and HTTP-status failures
    raise ValueError, as an unexpected payload does, and so does an
    endpoint that is not http or https, here.
    """

    def __init__(self, endpoint: str, api_key: str | None = None, *, transport=None):
        self._endpoint = check_http_url(endpoint, "generation endpoint")
        self._api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)
        self._post = transport or partial(http_fetch, timeout=REQUEST_TIMEOUT_SECONDS)

    def complete(self, prompt: str) -> str:
        headers = {"Content-Type": "application/json"}
        if self._api_key:
            headers["Authorization"] = f"Bearer {self._api_key}"
        try:
            content = self._post(self._endpoint, headers, json.dumps({"prompt": prompt}).encode())
        except TransportError as err:
            raise ValueError(f"generation endpoint request failed: {err}") from err
        try:
            body = load_json(content)
        except InvalidJsonError as err:
            raise ValueError(f"generation endpoint returned {err}") from None
        if not isinstance(body, dict) or not isinstance(body.get("text"), str):
            raise ValueError(f"generation endpoint returned unexpected payload: {shorten(json.dumps(body))}")
        return body["text"]


def generate_itinerary(
    client: GenerationClient,
    request: GenerationRequest,
    *,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> tuple[Itinerary, int]:
    """Generate until the response parses, retrying on format errors only.

    Returns (itinerary, attempts). Raises GenerationFailed once the initial
    attempt plus max_retries retries have all failed to parse, and ValueError
    if max_retries is negative.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    base_prompt = build_base_prompt(request)
    feedback: str | None = None
    last_error: FormatError | None = None
    total_attempts = 1 + max_retries
    for attempt in range(1, total_attempts + 1):
        prompt = feedback + base_prompt if feedback else base_prompt
        raw = client.complete(prompt)
        try:
            itinerary = parse_itinerary(raw, expected_stops=request.num_destinations)
            return itinerary, attempt
        except FormatError as err:
            last_error = err
            feedback = build_feedback(err, request)
    assert last_error is not None
    raise GenerationFailed(attempts=total_attempts, last_error=last_error)
