"""Pass/fail reports shared by the verification suites, and ``Record``, the
immutable value base of the package's data classes.

``Record`` lives here because every CLI verb imports this module first.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Immutable value whose fields are the public names in the ``__slots__``
    of its class and bases, in order.

    The constructor takes every field by position or keyword, and
    ``__post_init__`` then checks them (it may normalise one with
    ``object.__setattr__``).
    Equality holds only between instances of one class.  Equality, hash and
    repr read the fields named in ``_compared``, or every field when it is
    empty.  Assignment and deletion raise AttributeError.
    """

    __slots__ = ()
    _fields = ()
    _compared = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for base in reversed(cls.__mro__)
                            for name in vars(base).get("__slots__", ())
                            if not name.startswith("_"))
        cls._key = attrgetter(*(cls._compared or cls._fields))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = dict(zip(fields, args), **kwargs)
        if (len(args) > len(fields) or values.keys() != set(fields)
                or not kwargs.keys().isdisjoint(fields[:len(args)])):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for name in fields:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        pass

    def replace(self, **changes):
        """A copy with ``changes`` applied, built (and checked) by the constructor."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields},
                             **changes})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._compared or self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Check(Record):
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)

    @classmethod
    def vanishes(cls, name: str, residue) -> "Check":
        """Passes when ``residue`` is zero; a failure shows the residue."""
        return cls(name, residue.is_zero(), str(residue))

    @property
    def witness(self) -> str:
        """The detail of a failed check; a passed check shows none."""
        return "" if self.passed else self.detail


class Report(Record):
    __slots__ = ("title", "checks")

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
