"""Evolution-parameter advisor: population diagnostics in, (p_c, p_m) out.

Three modes: `llm` renders a prompt and calls an OpenAI-compatible chat
endpoint; `fallback` applies a deterministic trend rule; `static` echoes the
current values. Any LLM failure silently degrades to the fallback rule, so
`advise` always returns and never raises.
"""

from __future__ import annotations

import json
import math
import os
import re
import urllib.error
import urllib.request
from dataclasses import dataclass
from importlib import resources

P_C_BOUNDS = (0.1, 0.95)
P_M_BOUNDS = (0.01, 0.9)

ENV_URL = "DCSF_LLM_URL"
ENV_KEY = "DCSF_LLM_KEY"


@dataclass(frozen=True)
class AdvisorInput:
    generation: int
    p_c: float
    p_m: float
    sp: float
    m3: float
    objective_ranges: tuple[tuple[float, float], ...] = ()
    history: tuple[tuple[float, float], ...] = ()  # recent (sp, m3), at most 5

    def __post_init__(self):
        if self.sp < 0 or self.m3 < 0:
            raise ValueError("sp and m3 must be >= 0")
        if len(self.history) > 5:
            object.__setattr__(self, "history", tuple(self.history[-5:]))


@dataclass(frozen=True)
class ParamUpdate:
    p_c: float
    p_m: float
    source: str  # "llm" | "fallback" | "static"

    def __post_init__(self):
        object.__setattr__(self, "p_c", _clamp(self.p_c, *P_C_BOUNDS))
        object.__setattr__(self, "p_m", _clamp(self.p_m, *P_M_BOUNDS))


@dataclass(frozen=True)
class LlmEndpoint:
    url: str
    api_key: str = ""
    model: str = "gpt-4o-mini"
    timeout: float = 20.0
    retries: int = 1

    @staticmethod
    def from_env() -> "LlmEndpoint | None":
        url = os.environ.get(ENV_URL, "").strip()
        if not url:
            return None
        return LlmEndpoint(url, os.environ.get(ENV_KEY, ""))


def _clamp(value: float, lo: float, hi: float) -> float:
    return min(max(float(value), lo), hi)


def prompt_template() -> str:
    return resources.files("dcsf").joinpath("prompts/advisor_prompt.txt").read_text()


def render_prompt(inp: AdvisorInput) -> str:
    sp_hist = [h[0] for h in inp.history]
    m3_hist = [h[1] for h in inp.history]

    def trend(history, current):
        if not history:
            return "flat"
        mean = sum(history) / len(history)
        if current > mean:
            return "up"
        if current < mean:
            return "down"
        return "flat"

    ranges = "; ".join(f"f{i + 1} in [{lo:.6g}, {hi:.6g}]" for i, (lo, hi) in enumerate(inp.objective_ranges))
    return prompt_template().format(
        generation=inp.generation,
        p_c=f"{inp.p_c:.4f}",
        p_m=f"{inp.p_m:.4f}",
        sp=f"{inp.sp:.6g}",
        m3=f"{inp.m3:.6g}",
        sp_trend=trend(sp_hist, inp.sp),
        m3_trend=trend(m3_hist, inp.m3),
        objective_ranges=ranges or "unavailable",
    )


def fallback_rule(inp: AdvisorInput) -> ParamUpdate:
    """Deterministic trend rule against the history-window means.

    Spacing worsening while spread stagnates means the front is clumping:
    raise mutation, ease crossover. Spacing improving while spread grows means
    healthy exploration: ease mutation, raise crossover.
    """
    p_c, p_m = inp.p_c, inp.p_m
    if inp.history:
        sp_mean = sum(h[0] for h in inp.history) / len(inp.history)
        m3_mean = sum(h[1] for h in inp.history) / len(inp.history)
        sp_worse = inp.sp >= 1.1 * sp_mean if sp_mean > 0 else inp.sp > 0
        m3_stable = (
            abs(inp.m3 - m3_mean) < 0.05 * m3_mean if m3_mean > 0 else inp.m3 < 0.05
        )
        if sp_worse and m3_stable:
            p_m *= 1.2
            p_c *= 0.95
        elif inp.sp < sp_mean and inp.m3 > m3_mean:
            p_m *= 0.85
            p_c *= 1.05
    return ParamUpdate(p_c, p_m, "fallback")


def _extract_json_object(text: str) -> dict | None:
    """The first JSON object that parses from a `{` in the text, or None."""
    decoder = json.JSONDecoder()
    for match in re.finditer(r"\{", text):
        try:
            return decoder.raw_decode(text, match.start())[0]
        except json.JSONDecodeError:
            continue
    return None


def _parse_params(body: str) -> tuple[float, float] | None:
    doc = _extract_json_object(body)
    if doc is None:
        return None
    values = []
    for key in ("p_c", "p_m"):
        v = doc.get(key)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            return None
        values.append(float(v))
    return values[0], values[1]


def _call_endpoint(endpoint: LlmEndpoint, prompt: str) -> str:
    headers = {"Content-Type": "application/json"}
    if endpoint.api_key:
        headers["Authorization"] = f"Bearer {endpoint.api_key}"
    payload = {
        "model": endpoint.model,
        "messages": [{"role": "user", "content": prompt}],
    }
    data = json.dumps(payload).encode()
    last_exc: Exception | None = None
    for _ in range(endpoint.retries + 1):
        try:
            # urlopen raises HTTPError on any non-2xx reply
            request = urllib.request.Request(endpoint.url, data=data, headers=headers, method="POST")
            with urllib.request.urlopen(request, timeout=endpoint.timeout) as resp:
                return json.loads(resp.read())["choices"][0]["message"]["content"]
        except Exception as exc:  # noqa: BLE001 - degrade, never raise
            if isinstance(exc, urllib.error.HTTPError):
                exc.close()  # a non-2xx reply: the error holds its open response
            last_exc = exc
    raise last_exc if last_exc else RuntimeError("no attempts made")


def advise(
    inp: AdvisorInput,
    mode: str = "static",
    endpoint: LlmEndpoint | None = None,
    transport=None,
) -> ParamUpdate:
    """Produce a clamped (p_c, p_m) update. Never raises and never blocks past
    the endpoint timeout; LLM failures degrade to the fallback rule.

    `transport` overrides the HTTP call with `prompt -> response body` (tests).
    """
    if mode == "static":
        return ParamUpdate(inp.p_c, inp.p_m, "static")
    if mode == "fallback":
        return fallback_rule(inp)
    if mode != "llm":
        raise ValueError(f"unknown advisor mode {mode!r}")

    try:
        prompt = render_prompt(inp)
        if transport is not None:
            body = transport(prompt)
        else:
            ep = endpoint or LlmEndpoint.from_env()
            if ep is None:
                return fallback_rule(inp)
            body = _call_endpoint(ep, prompt)
        if not isinstance(body, str):
            return fallback_rule(inp)
        parsed = _parse_params(body)
        if parsed is None:
            return fallback_rule(inp)
        return ParamUpdate(parsed[0], parsed[1], "llm")
    except Exception:  # noqa: BLE001 - the advise contract forbids raising
        return fallback_rule(inp)
