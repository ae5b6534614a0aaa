"""reproflow — the repo's static analysis: one CLI, one parse.

Every target file is parsed once and the same trees feed every pass:

* the per-file family (:mod:`reproflow.filerules`) — **DET**
  determinism (routed RNG, no wall clocks), **GEN** hygiene, **OBS**
  observability and the **UNT** unit rule (:mod:`reproflow.units`,
  units read off the ``_s``/``_ms``/``_bytes``/``_dbm``/``_mw``/``_hz``
  suffix convention) — rules that need one module only;
* the project pass (:mod:`reproflow.callgraph`,
  :mod:`reproflow.dataflow`) builds the call graph with effect
  summaries and runs the **FLO** stream-flow and **ORD** ordering
  families, plus the runner-task rules read off each task's summary:
  **PUR** (module state), **SER** (module-level handles) and **KEY**
  (inputs the cache key omits);
* the **RCH** family (:mod:`reproflow.reach`) reports what of
  ``src/repro`` only tests reach, judged against the program files the
  same parse folds in (``python -m repro``, ``examples/``,
  ``benchmarks/``, ``bench/``).

Findings are suppressed per line with ``# reproflow: disable=RULE``
comments and exempted per directory by :mod:`reproflow.policy`; nothing
else silences one.  Properties a runtime check already enforces on every
executed path have no rule here: a stream name requested from two call
sites (``StreamSharingError`` under ``REPRO_SANITIZE=1``), an unknown
keyword (Python's ``TypeError``), and a task that is not a
``module:function`` entry (``RunSpec.build`` / ``resolve_task``).
"""

from reproflow.engine import analyze_paths, analyze_source
from reproflow.rules import ALL_RULES, rule_table

__all__ = [
    "ALL_RULES",
    "analyze_paths",
    "analyze_source",
    "rule_table",
]
