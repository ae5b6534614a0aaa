"""Population specs: which sessions exist, and where their randomness
comes from.

A :class:`PopulationSpec` names a whole Section-4-style population —
``n_sessions`` wild calls derived from one root seed — without rendering
anything.  Its contract is *substream identity* with the event path:
session ``i`` of the population draws from exactly the router
:func:`repro.scenarios.generate_wild_run` would build for run ``i``
(``RandomRouter(root_seed).fork(f"wild-run-{i}")``), so the batch and
event backends see the same scenario draw, the same scenario parameters
and the same slow channel processes for the same ``(seed, index)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.config import StreamProfile, profile_for
from repro.scenarios import (
    WILD_MIX,
    ScenarioSetup,
    sample_scenario_name,
    scenario_setup,
)
from repro.sim.random import RandomRouter

#: sessions per runner-task block (one cache-keyed RunSpec each)
BLOCK_SESSIONS = 100


@dataclass(frozen=True)
class SessionSetup:
    """One session's fully-drawn parameters plus its private router."""

    index: int
    scenario: str
    setup: ScenarioSetup
    router: RandomRouter


@dataclass(frozen=True)
class PopulationSpec:
    """A whole population of wild sessions, addressed by index."""

    n_sessions: int
    root_seed: int = 0
    deltas: Tuple[float, ...] = ()
    mimo_branches: int = 1
    highrate: bool = False
    duration_s: Optional[float] = None
    #: pin every session to one scenario (Figure 6 breakdown); None
    #: draws each session from the wild mix
    scenario: Optional[str] = None
    max_lag: int = 20

    def __post_init__(self) -> None:
        if self.n_sessions < 0:
            raise ValueError("n_sessions must be >= 0")

    @property
    def profile(self) -> StreamProfile:
        return profile_for(self.highrate, self.duration_s)

    def session_router(self, index: int) -> RandomRouter:
        """The per-session router — identical derivation to
        :func:`repro.scenarios.generate_wild_run`."""
        if not 0 <= index < self.n_sessions:
            raise IndexError(
                f"session {index} outside population of {self.n_sessions}")
        return RandomRouter(self.root_seed).fork(f"wild-run-{index}")

    def session_setup(self, index: int) -> SessionSetup:
        """Scenario choice + drawn parameters for session ``index``.

        Consumes ``scenario.pick`` / ``scenario.params`` (and the
        mobility stream, when the scenario has one) in the event path's
        exact order, leaving the channel-process streams untouched for
        the renderer.
        """
        router = self.session_router(index)
        name = self.scenario or sample_scenario_name(
            router.stream("scenario.pick"), WILD_MIX)
        setup = scenario_setup(name, router, self.mimo_branches)
        return SessionSetup(index=index, scenario=name, setup=setup,
                            router=router)

    def blocks(self) -> List[Tuple[int, int]]:
        """``(start, count)`` shards covering the population in order."""
        out: List[Tuple[int, int]] = []
        start = 0
        while start < self.n_sessions:
            count = min(BLOCK_SESSIONS, self.n_sessions - start)
            out.append((start, count))
            start += count
        return out
