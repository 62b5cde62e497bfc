"""Structured pass/fail records shared by all verification entry points."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


def _jsonable(value):
    """Coerce Fractions/tuples/dataclass-ish values into JSON-friendly form."""
    from fractions import Fraction

    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class VerificationReport:
    """Exact pass/fail record: passes iff expected equals actual exactly.

    `summary`, when set, is merged into the JSON at top level (used by the
    pvh check to emit its documented report shape); `payload` carries
    supporting data and counterexamples.  A failing report names its first
    `failures` after its one line and, with a summary, in its JSON.
    """

    check: str
    params: dict
    expected: Any
    actual: Any
    payload: dict | None = None
    summary: dict | None = None

    @property
    def passed(self) -> bool:
        return self.expected == self.actual

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"

    @property
    def failures(self) -> dict:
        """The count and first five names of each kind of failure a failing
        report lists in a dict actual["failures"], nested kinds joined by
        dots; a count alone (coproduct) names none."""
        def shown(failures, prefix=""):
            for kind, names in failures.items():
                if isinstance(names, dict):
                    yield from shown(names, f"{prefix}{kind}.")
                elif isinstance(names, list):
                    yield prefix + kind, {"count": len(names), "first": names[:5]}
        failures = isinstance(self.actual, dict) and self.actual.get("failures")
        return {} if self.passed or not isinstance(failures, dict) else dict(
            shown(failures))

    def to_json(self) -> dict:
        if self.summary is not None:
            out = {"check": self.check}
            out.update(_jsonable(self.summary))
            out["verdict"] = self.verdict
            if self.failures:
                out["failures"] = _jsonable(self.failures)
            return out
        out = {
            "check": self.check,
            "params": _jsonable(self.params),
            "expected": _jsonable(self.expected),
            "actual": _jsonable(self.actual),
            "pass": self.passed,
        }
        if self.payload is not None:
            out["payload"] = _jsonable(self.payload)
        return out

    def one_line(self) -> str:
        bits = " ".join(f"{k}={v}" for k, v in self.params.items())
        lines = [f"[{self.verdict}] {self.check} {bits}".rstrip()]
        for kind, shown in self.failures.items():
            more = ", ..." * (shown["count"] > len(shown["first"]))
            lines.append(f"  {kind} ({shown['count']}): "
                         + ", ".join(map(str, shown["first"])) + more)
        return "\n".join(lines)
