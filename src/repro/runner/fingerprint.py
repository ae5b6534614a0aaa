"""Code fingerprinting for cache invalidation.

The fingerprint is a SHA-256 over every ``.py`` file under the installed
``repro`` package (relative path + contents, sorted), so *any* source
change — a calibration constant, a strategy tweak, a scheduler fix —
produces a different fingerprint and therefore different cache keys.
Stale results can never be served for new code.

The walk costs a few milliseconds and is cached per process; workers
never recompute it because the parent embeds the fingerprint in each
:class:`~repro.runner.spec.RunSpec`.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path


def _package_root() -> Path:
    import repro
    module_file = repro.__file__
    if module_file is None:  # pragma: no cover - namespace-package guard
        raise RuntimeError("repro package has no __file__; cannot fingerprint")
    return Path(module_file).resolve().parent


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Fingerprint of the ``repro`` sources."""
    root = _package_root()
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        digest.update(relative.encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()
