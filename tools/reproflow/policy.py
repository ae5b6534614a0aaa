"""Path-scoped rule exemptions.

``make lint`` covers ``src/``, ``tools/`` and ``tests/``, but not every
rule makes sense everywhere: tests legitimately build throwaway seeded
RNGs and assert exact event times; command-line tools legitimately read
the host clock.  The policy names those exemptions *once*, in code, with
a rationale — instead of scattering hundreds of inline suppressions or
silently not linting whole trees.  Strict is the default: a path no
entry covers gets every rule, so a new package needs no registration.

``tests/``
    * DET001/DET002 — tests legitimately build throwaway seeded RNGs and
      measure wall-clock time (e.g. performance smoke tests).
    * FLO003 — the paired identical-realization methodology *is* seed
      reuse: determinism tests run the same seed twice and assert
      byte-identical digests.  PUR and the other FLO rules still apply
      in full — a test that submits an impure task is a real bug.

``tools/``
    * DET002 — developer tooling runs in real time.

Everything else applies everywhere, including to this tool itself.  The
runner, batch, control-plane and studies packages get no exemption at
all: their code runs inside cached runner workers, where a stray
unseeded draw, wall-clock read or ``print`` would break the serial /
``--jobs`` / warm-cache digest equality.  The runner-task rules (PUR,
SER, KEY) fire only on code reachable from a submitted task and are
exempt nowhere.

An entry ``("tests/", {"DET001", ...})`` exempts the rules for any file
whose normalized path starts with, or contains, the ``tests/`` directory
component.  One deliberate exception inside a tree is an inline
``# reproflow: disable=`` comment, not a policy entry.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Sequence, Tuple


class PathPolicy:
    """Ordered (directory-prefix, exempt-rules) pairs."""

    def __init__(self, entries: Sequence[Tuple[str, Iterable[str]]] = ()):
        self._entries: Tuple[Tuple[str, FrozenSet[str]], ...] = tuple(
            (prefix.replace("\\", "/").rstrip("/") + "/", frozenset(rules))
            for prefix, rules in entries)

    def exempt(self, path: str, rule: str) -> bool:
        """True when ``rule`` is exempt for ``path``."""
        posix = path.replace("\\", "/")
        return any(rule in rules
                   and (posix.startswith(prefix) or f"/{prefix}" in posix)
                   for prefix, rules in self._entries)

    def describe(self) -> str:
        """Human-readable listing, one line per entry."""
        lines = []
        for entry, rules in self._entries:
            lines.append(f"{entry}  exempt: {', '.join(sorted(rules))}")
        return "\n".join(lines)


DEFAULT_POLICY = PathPolicy((
    ("tests/", ("DET001", "DET002", "FLO003")),
    ("tools/", ("DET002",)),
))
