import gc
import http.server
import json
import threading
import urllib.error
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from dcsf.advisor import (
    ENV_URL,
    P_C_BOUNDS,
    P_M_BOUNDS,
    AdvisorInput,
    LlmEndpoint,
    ParamUpdate,
    advise,
    fallback_rule,
    render_prompt,
)


def _inp(**kw):
    base = dict(generation=3, p_c=0.8, p_m=0.4, sp=0.2, m3=1.5,
                objective_ranges=((0.0, 1e8), (0.0, 1e6), (0.0, 1e4)),
                history=((0.25, 1.4), (0.22, 1.45)))
    base.update(kw)
    return AdvisorInput(**base)


def test_param_update_clamps():
    upd = ParamUpdate(5.0, -1.0, "llm")
    assert upd.p_c == P_C_BOUNDS[1]
    assert upd.p_m == P_M_BOUNDS[0]


def test_fallback_rule_clumping_raises_mutation():
    # sp well above the window mean, m3 flat
    inp = _inp(sp=0.5, m3=1.4, history=((0.2, 1.4), (0.2, 1.4)))
    upd = fallback_rule(inp)
    assert upd.p_m > inp.p_m
    assert upd.p_c < inp.p_c


def test_fallback_rule_spreading_raises_crossover():
    inp = _inp(sp=0.1, m3=1.6, history=((0.3, 1.4), (0.3, 1.4)))
    upd = fallback_rule(inp)
    assert upd.p_m < inp.p_m
    assert upd.p_c > inp.p_c


def test_fallback_rule_no_history_is_identity():
    upd = fallback_rule(_inp(history=()))
    assert (upd.p_c, upd.p_m) == (0.8, 0.4)


def test_llm_mode_parses_valid_json():
    upd = advise(_inp(), transport=lambda prompt: '{"p_c": 0.7, "p_m": 0.3}')
    assert (upd.p_c, upd.p_m, upd.source) == (0.7, 0.3, "llm")


def test_llm_mode_extracts_embedded_json():
    body = 'Sure, here you go:\n```json\n{"p_c": 0.65, "p_m": 0.25}\n```\nGood luck.'
    upd = advise(_inp(), transport=lambda prompt: body)
    assert (upd.p_c, upd.p_m, upd.source) == (0.65, 0.25, "llm")


def test_llm_mode_parses_an_object_with_a_brace_in_a_string():
    body = '{"note": "keep } balanced", "p_c": 0.5, "p_m": 0.2}'
    upd = advise(_inp(), transport=lambda prompt: body)
    assert (upd.p_c, upd.p_m, upd.source) == (0.5, 0.2, "llm")


def test_llm_mode_clamps_out_of_range_reply():
    upd = advise(_inp(), transport=lambda prompt: '{"p_c": 99, "p_m": 1e-9}')
    assert upd.p_c == P_C_BOUNDS[1] and upd.p_m == P_M_BOUNDS[0]
    assert upd.source == "llm"


@pytest.mark.parametrize("body", [
    "",
    "not json at all",
    "{}",
    '{"p_c": 0.5}',
    '{"p_c": "high", "p_m": 0.3}',
    '{"p_c": NaN, "p_m": 0.3}',
    '{"p_c": true, "p_m": 0.3}',
    '{"p_c": Infinity, "p_m": 0.3}',
    '[0.5, 0.3]',
    '{"nested": {"p_c": 0.5, "p_m": 0.3}} oops',
])
def test_llm_mode_degrades_on_malformed(body):
    upd = advise(_inp(), transport=lambda prompt: body)
    assert upd.source == "fallback"
    assert P_C_BOUNDS[0] <= upd.p_c <= P_C_BOUNDS[1]
    assert P_M_BOUNDS[0] <= upd.p_m <= P_M_BOUNDS[1]


def test_llm_mode_degrades_on_transport_exception():
    def boom(prompt):
        raise ConnectionError("refused")

    upd = advise(_inp(), transport=boom)
    assert upd.source == "fallback"


def test_llm_mode_without_endpoint_falls_back(monkeypatch):
    # `advise` does not read DCSF_LLM_URL; only the CLI does
    monkeypatch.setenv(ENV_URL, "http://127.0.0.1:9/v1/chat/completions")
    assert advise(_inp()) == fallback_rule(_inp())


def test_endpoint_from_env(monkeypatch):
    monkeypatch.setenv(ENV_URL, "http://localhost:9999/v1/chat/completions")
    ep = LlmEndpoint.from_env()
    assert ep is not None and ep.url.startswith("http://localhost")
    monkeypatch.delenv(ENV_URL)
    assert LlmEndpoint.from_env() is None


def test_prompt_renders_all_fields():
    text = render_prompt(_inp())
    assert "p_c = 0.8000" in text
    assert "p_m = 0.4000" in text
    assert "generation 3" in text
    assert "f1 in" in text


def test_history_window_trimmed_to_five():
    inp = _inp(history=tuple((0.1 * i, 1.0) for i in range(9)))
    assert len(inp.history) == 5


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_advise_never_crashes_on_fuzzed_bodies(body):
    upd = advise(_inp(), transport=lambda prompt: body)
    assert P_C_BOUNDS[0] <= upd.p_c <= P_C_BOUNDS[1]
    assert P_M_BOUNDS[0] <= upd.p_m <= P_M_BOUNDS[1]
    assert upd.source in ("llm", "fallback")


class _ChatServer:
    """Loopback chat endpoint that records each POST and answers with a set reply."""

    def __init__(self):
        self.status = 200
        self.body = b""
        self.posts = []
        server = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                server.posts.append((self.headers, self.rfile.read(length)))
                self.send_response(server.status)
                self.send_header("Content-Length", str(len(server.body)))
                self.end_headers()
                self.wfile.write(server.body)

            def log_message(self, *args):
                pass

        self.httpd = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.httpd.server_port}/v1/chat/completions"

    def reply(self, status, content):
        self.status = status
        self.body = content.encode()


@pytest.fixture
def chat_server(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    server = _ChatServer()
    # a short poll keeps shutdown() from waiting out the default 0.5 s poll
    thread = threading.Thread(target=server.httpd.serve_forever,
                              kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield server
    server.httpd.shutdown()
    server.httpd.server_close()
    thread.join()


def test_llm_mode_posts_to_a_live_endpoint(chat_server):
    content = json.dumps({"p_c": 0.7, "p_m": 0.3})
    chat_server.reply(200, json.dumps({"choices": [{"message": {"content": content}}]}))
    ep = LlmEndpoint(chat_server.url, api_key="secret", model="m1", timeout=5.0)
    upd = advise(_inp(), transport=ep)
    assert (upd.p_c, upd.p_m, upd.source) == (0.7, 0.3, "llm")
    [(headers, body)] = chat_server.posts
    assert headers["Authorization"] == "Bearer secret"
    assert headers["Content-Type"] == "application/json"
    payload = json.loads(body)
    assert payload["model"] == "m1"
    assert payload["messages"] == [{"role": "user", "content": render_prompt(_inp())}]


def test_llm_mode_retries_a_server_error_then_falls_back(chat_server):
    content = json.dumps({"p_c": 0.7, "p_m": 0.3})
    chat_server.reply(500, json.dumps({"choices": [{"message": {"content": content}}]}))
    ep = LlmEndpoint(chat_server.url, timeout=5.0, retries=2)
    upd = advise(_inp(), transport=ep)
    assert upd == fallback_rule(_inp())
    assert len(chat_server.posts) == ep.retries + 1
    assert "Authorization" not in chat_server.posts[0][0]


def test_llm_mode_falls_back_on_a_malformed_reply(chat_server):
    chat_server.reply(200, "<html>not a chat completion</html>")
    ep = LlmEndpoint(chat_server.url, timeout=5.0, retries=0)
    upd = advise(_inp(), transport=ep)
    assert upd.source == "fallback"
    assert len(chat_server.posts) == 1


def test_a_server_error_reply_is_closed(chat_server):
    chat_server.reply(500, "{}")
    ep = LlmEndpoint(chat_server.url, timeout=5.0, retries=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(urllib.error.HTTPError):
            ep("prompt")
        gc.collect()
    assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []
