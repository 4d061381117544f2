"""Pass/fail reports shared by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""

    @classmethod
    def vanishes(cls, name: str, residue) -> "Check":
        """Passes when ``residue`` is zero; a failure shows the residue."""
        return cls(name, residue.is_zero(), str(residue))

    @property
    def witness(self) -> str:
        """The detail of a failed check; a passed check shows none."""
        return "" if self.passed else self.detail


@dataclass(frozen=True)
class Report:
    title: str
    checks: tuple = field(default_factory=tuple)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def lines(self):
        out = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            extra = f"  ({c.witness})" if c.witness else ""
            out.append(f"{mark} {c.name}{extra}")
        return out

    def to_json(self) -> dict:
        return {
            "title": self.title,
            "checks": [{"name": c.name, "passed": c.passed,
                        **({"detail": c.witness} if c.witness else {})}
                       for c in self.checks],
            "all_passed": self.all_passed,
        }


def merge(title: str, *reports: Report) -> Report:
    checks = tuple(c for r in reports for c in r.checks)
    return Report(title, checks)
