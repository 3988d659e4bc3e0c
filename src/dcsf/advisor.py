"""Evolution-parameter advisor: population diagnostics in, (p_c, p_m) out.

Two sources: a deterministic trend rule (`fallback`), and an LLM reached
through a transport, any callable `prompt -> reply` such as an `LlmEndpoint`
(an OpenAI-compatible chat endpoint). A transport that raises or a reply that
does not parse degrades to the fallback rule, so `advise` always returns and
never raises.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass

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
    source: str  # "llm" | "fallback"

    def __post_init__(self):
        object.__setattr__(self, "p_c", _clamp(self.p_c, *P_C_BOUNDS))
        object.__setattr__(self, "p_m", _clamp(self.p_m, *P_M_BOUNDS))


@dataclass(frozen=True)
class LlmEndpoint:
    """An OpenAI-compatible chat endpoint, called as `endpoint(prompt) -> reply`."""

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

    def __call__(self, prompt: str) -> str:
        """The chat reply to `prompt`, in up to `retries + 1` attempts; raises the last error."""
        import urllib.error  # imported here: only a run with an endpoint needs the HTTP stack
        import urllib.request

        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
        }
        data = json.dumps(payload).encode()
        for attempt in range(self.retries + 1):
            try:
                # urlopen raises HTTPError on any non-2xx reply
                request = urllib.request.Request(self.url, data=data, headers=headers, method="POST")
                with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                    return json.loads(resp.read())["choices"][0]["message"]["content"]
            except Exception as exc:
                if isinstance(exc, urllib.error.HTTPError):
                    exc.close()  # a non-2xx reply: the error holds its open response
                if attempt == self.retries:
                    raise


def _clamp(value: float, lo: float, hi: float) -> float:
    return min(max(float(value), lo), hi)


def prompt_template() -> str:
    from importlib import resources  # imported here: only a transport's prompt reads the file

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


def advise(inp: AdvisorInput, transport=None) -> ParamUpdate:
    """A clamped (p_c, p_m) update. Never raises.

    With no transport, the fallback rule. Otherwise the rendered prompt goes
    through `transport(prompt) -> reply`, and a call that raises or a reply
    without numeric `p_c` and `p_m` gives the fallback rule. `advise` sets no
    time limit of its own: one `LlmEndpoint` call can take `(retries + 1) x
    timeout`, 40 s at its defaults.
    """
    if transport is None:
        return fallback_rule(inp)
    try:
        body = transport(render_prompt(inp))
        parsed = _parse_params(body) if isinstance(body, str) else None
        if parsed is not None:
            return ParamUpdate(parsed[0], parsed[1], "llm")
    except Exception:  # noqa: BLE001 - the advise contract forbids raising
        pass
    return fallback_rule(inp)
