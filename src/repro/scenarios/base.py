"""Scenario abstraction: one physical process + protocol map + attacks.

The paper validates its signature+LSTM framework on a single gas
pipeline, but nothing in the detection stack is pipeline-specific: the
models consume the 17 Table-I package features, and the SCADA loop only
needs a :class:`~repro.ics.plant.Plant` — a process variable driven up
by a ``[0, 1]`` actuator and pulled down by a boolean relief actuator.

A :class:`Scenario` bundles everything that *is* process-specific:

- the plant physics (via a factory so each simulator gets its own
  deterministic instance),
- the SCADA parameterization (station address, setpoint band, noise),
- the attack catalog — the seven Table-II attack types reinterpreted
  against this process (what MPCI randomizes, what MSCI flips),
- the semantic map: what each Table-I feature and each Modbus holding
  register *means* on this link (tank level vs pipeline pressure).

Because every scenario speaks the same package schema, one trained
detector, one serving gateway and one persistence format cover all of
them; only the captures differ.  Scenarios register themselves in a
process-wide registry; :func:`get_scenario` is the single lookup used
by dataset generation, experiment profiles, the fleet runner and the
CLI.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

from repro.ics.attacks import ATTACK_NAMES, AttackConfig
from repro.ics.plant import Plant, PlantConfig
from repro.ics.registers import RegisterMap
from repro.ics.scada import ScadaConfig, ScadaSimulator
from repro.utils.rng import SeedLike

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle guard)
    from repro.ics.dataset import DatasetConfig

#: Builds a plant sharing the simulator's rng.  ``plant_config`` carries
#: the legacy gas-pipeline :class:`PlantConfig`; scenarios with their own
#: physics configs ignore it.
PlantBuilder = Callable[..., Plant]


@dataclass(frozen=True)
class Scenario:
    """A pluggable simulation scenario: plant + protocol map + attacks.

    Instances are immutable descriptions; all mutable simulation state
    lives in the objects the ``make_*`` methods construct.
    """

    name: str
    title: str
    description: str
    process_variable: str  # what pressure_measurement carries here
    process_unit: str
    actuators: tuple[str, str]  # (drive, relief) actuator names
    plant_builder: PlantBuilder
    scada: ScadaConfig = field(default_factory=ScadaConfig)
    attacks: AttackConfig = field(default_factory=AttackConfig)
    #: Table-I feature name → what it means on this link (only the
    #: fields whose semantics change between processes).
    feature_aliases: Mapping[str, str] = field(default_factory=dict)
    #: Attack id (1..7) → how that attack class manifests here.
    attack_notes: Mapping[int, str] = field(default_factory=dict)
    #: PLC holding-register layout: the 11 canonical names in scenario
    #: vocabulary plus any auxiliary process-variable registers.
    registers: RegisterMap = field(default_factory=RegisterMap)
    #: Wire dialect this plant's field devices speak — the default a
    #: serving client uses for this scenario (see
    #: :mod:`repro.serve.protocols`).
    protocol: str = "modbus"

    def validate(self) -> "Scenario":
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ValueError(f"scenario name must be a slug, got {self.name!r}")
        if not self.protocol or not self.protocol.replace("_", "").isalnum():
            raise ValueError(
                f"scenario protocol must be a slug, got {self.protocol!r}"
            )
        unknown = set(self.attack_notes) - (set(ATTACK_NAMES) - {0})
        if unknown:
            raise ValueError(f"attack_notes for unknown attack ids: {sorted(unknown)}")
        self.registers.validate()
        self.scada.validate()
        self.attacks.validate()
        return self

    # ------------------------------------------------------------------
    # construction hooks
    # ------------------------------------------------------------------

    def make_plant(self, rng: SeedLike = None, plant_config: PlantConfig | None = None) -> Plant:
        """Build this scenario's physical process."""
        return self.plant_builder(rng=rng, plant_config=plant_config)

    def make_simulator(
        self,
        rng: SeedLike = None,
        scada: ScadaConfig | None = None,
        plant_config: PlantConfig | None = None,
    ) -> ScadaSimulator:
        """Build the SCADA polling loop driving this scenario's plant."""
        return ScadaSimulator(
            scada or self.scada,
            rng=rng,
            plant_factory=lambda rng: self.make_plant(rng=rng, plant_config=plant_config),
            registers=self.registers,
        )

    # ------------------------------------------------------------------
    # dataset plumbing
    # ------------------------------------------------------------------

    def apply(self, config: "DatasetConfig") -> "DatasetConfig":
        """Re-target a dataset config at this scenario.

        Keeps the size/split parameters and stamps the scenario name
        (which keys the pipeline disk cache); SCADA parameterization and
        attack catalog reset to ``None`` — "this scenario's own" — which
        :func:`~repro.ics.dataset.generate_dataset` resolves, so the
        scenario definition stays the single source of truth.
        """
        return replace(config, scenario=self.name, scada=None, attacks=None)

    def dataset_config(self, num_cycles: int = 6000, **overrides: Any) -> "DatasetConfig":
        """A ready-to-generate :class:`DatasetConfig` for this scenario."""
        from repro.ics.dataset import DatasetConfig

        return self.apply(DatasetConfig(num_cycles=num_cycles, **overrides))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def register_map(self) -> dict[int, str]:
        """Holding-register address → scenario-specific register name."""
        return self.registers.register_map()

    def describe(self) -> dict[str, Any]:
        """JSON-able summary used by ``repro scenarios`` and the docs."""
        return {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "process_variable": self.process_variable,
            "process_unit": self.process_unit,
            "actuators": list(self.actuators),
            "protocol": self.protocol,
            "station_address": self.scada.station_address,
            "setpoint_band": [self.scada.setpoint_min, self.scada.setpoint_max],
            "feature_aliases": dict(self.feature_aliases),
            "attack_notes": {
                ATTACK_NAMES[i]: note for i, note in sorted(self.attack_notes.items())
            },
            "registers": {
                str(i): name for i, name in self.register_map().items()
            },
        }


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

SCENARIOS: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (used at import of each module)."""
    scenario.validate()
    if scenario.name in SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    SCENARIOS[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None


def scenario_names() -> tuple[str, ...]:
    """All registered scenario names, sorted."""
    return tuple(sorted(SCENARIOS))
