"""Stream-to-model routing policy for heterogeneous serving.

:class:`ScenarioRouter` is the policy object the detection gateway (and
the heterogeneous fleet runner) consult to turn "a stream appeared" into
"this exact versioned detector scores it":

- an **explicit scenario tag** in the stream's OPEN frame resolves to
  that scenario's active registry version (:meth:`resolve`),
- an untagged stream is auto-identified against every registered
  scenario's signature database (:meth:`identify`): the gateway starts
  trying after :attr:`min_probe` buffered packages and routes as soon
  as a probe clears the confidence floor; a stream still unidentified
  after :attr:`probe_window` packages is **abstained** — refused, never
  silently misrouted,
- a gateway's engines, hot-swapped ones included, load **exact**
  versions (:meth:`load`), independent of what is active now; a
  checkpoint restore loads them straight from the registry.

The router is deliberately stateless about streams — the gateway owns
the live route table (and persists it in its checkpoints); the router
owns only policy and the registry handle.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING, Any

from repro.registry.identify import Identification, ScenarioIdentifier
from repro.registry.store import ModelRegistry, RegistryEntry, RegistryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.combined import CombinedDetector
    from repro.ics.features import Package


class RoutingError(Exception):
    """A stream could not be routed to a registered model."""


class ScenarioRouter:
    """Resolve scenarios (tagged or identified) to versioned detectors.

    Parameters
    ----------
    registry:
        The versioned artifact store; also the identification candidate
        set.
    probe_window:
        Maximum packages an untagged stream may buffer before a still
        inconclusive identification becomes an abstention.  Larger
        windows smooth over attack bursts in the stream head; keep it
        at or below the replay clients' in-flight window or an
        unidentifiable client stalls on backpressure before it can be
        refused.
    min_probe:
        Packages required before the first identification attempt — the
        guard against routing on a single (possibly coincidentally
        shared) signature.  Streams shorter than this can never be
        identified, so keep it small.
    min_hit_rate / min_margin:
        Confidence floor and runner-up lead required to route; see
        :class:`~repro.registry.identify.ScenarioIdentifier`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        probe_window: int = 16,
        min_probe: int = 4,
        min_hit_rate: float = 0.5,
        min_margin: float = 0.1,
    ) -> None:
        if probe_window < 1:
            raise ValueError(f"probe_window must be >= 1, got {probe_window}")
        if not 1 <= min_probe <= probe_window:
            raise ValueError(
                f"min_probe must be in [1, probe_window], got {min_probe}"
            )
        self.registry = registry
        self.probe_window = probe_window
        self.min_probe = min_probe
        self.identifier = ScenarioIdentifier(
            registry, min_hit_rate=min_hit_rate, min_margin=min_margin
        )

    # ------------------------------------------------------------------

    def resolve(self, scenario: str) -> "tuple[CombinedDetector, RegistryEntry]":
        """Active detector for an explicitly tagged scenario."""
        try:
            return self.registry.resolve(scenario)
        except RegistryError as exc:
            raise RoutingError(str(exc)) from exc

    def load(self, scenario: str, version: int) -> "CombinedDetector":
        """Exact published version (a gateway engine, hot-swap)."""
        try:
            return self.registry.load(scenario, version)
        except RegistryError as exc:
            raise RoutingError(str(exc)) from exc

    def active_version(self, scenario: str) -> int:
        try:
            return self.registry.active_version(scenario)
        except RegistryError as exc:
            raise RoutingError(str(exc)) from exc

    def identify(
        self, probe: Sequence["Package"], protocol: str | None = None
    ) -> Identification:
        """Auto-identify an untagged stream's scenario from its probe.

        ``protocol`` optionally narrows the candidate set to scenarios
        declaring that wire dialect (soft filter; see
        :meth:`ScenarioIdentifier.identify`).
        """
        return self.identifier.identify(probe, protocol=protocol)

    def stats(self) -> dict[str, Any]:
        """Registry load-path counters (cold loads vs LRU hits)."""
        return self.registry.stats()
