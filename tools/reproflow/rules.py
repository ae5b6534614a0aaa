"""The table of every rule id (``--list-rules``).

:data:`ALL_RULES` lists the per-file family (:mod:`reproflow.filerules`,
with UNT001 from :mod:`reproflow.units`), the pass-3 families
(:mod:`reproflow.dataflow`) and the RCH family (:mod:`reproflow.reach`).
"""

from __future__ import annotations

from typing import Dict, Tuple

#: rule id -> (short name, one-line description)
ALL_RULES: Dict[str, Tuple[str, str]] = {
    # per-file determinism / hygiene / observability / units
    # (reproflow.filerules)
    "DET001": ("unrouted-rng",
               "Global/unrouted RNG use outside the stream factory."),
    "DET002": ("wall-clock",
               "Wall-clock read or OS entropy in simulation code."),
    "GEN101": ("mutable-default-arg",
               "Mutable default argument shared across calls."),
    "OBS001": ("adhoc-observability",
               "print / stdout writes / global tallies in instrumented "
               "simulation packages."),
    "UNT001": ("mixed-unit-expression",
               "Arithmetic or comparison between different units."),
    # pass 3 (interprocedural dataflow — reproflow.dataflow)
    "FLO002": ("stream-escapes-module-state",
               "A stream stored into module-level, global, or "
               "class-attribute state."),
    "FLO003": ("seed-reuse-across-runs",
               "RandomRouter/fork constructed in a realization loop "
               "with a loop-invariant seed."),
    "PUR101": ("impure-task-state",
               "A runner task transitively mutates module/global or "
               "closure state (stale ResultCache)."),
    "ORD201": ("unordered-iteration-to-state",
               "set/unordered iteration flowing into ordered state, "
               "schedules, keyed writes, or digests."),
    "SER303": ("task-captures-handle",
               "A runner task transitively uses a module-level open "
               "handle or lock; each spawn worker gets its own copy."),
    "KEY501": ("cache-key-escape",
               "A runner task depends on env vars, call-time file "
               "reads, or module globals outside its RunSpec key."),
    # reachability of src/repro from the program (reproflow.reach)
    "RCH601": ("unreached-module",
               "A src/repro module no program file imports."),
    "RCH602": ("unnamed-definition",
               "A src/repro definition no program file names outside "
               "its own body."),
    "RCH603": ("unset-parameter",
               "A defaulted parameter no program call sets."),
    "RCH604": ("unset-field",
               "A defaulted dataclass field no program code sets."),
}


def rule_table() -> str:
    """Human-readable rule listing (``--list-rules``)."""
    width = max(len(rule_id) for rule_id in ALL_RULES)
    lines = []
    for rule_id in sorted(ALL_RULES):
        name, summary = ALL_RULES[rule_id]
        lines.append(f"{rule_id.ljust(width)}  {name.ljust(28)} {summary}")
    return "\n".join(lines)
