import pytest
from hypothesis import settings

from crashsim import DropScenario, ImpactParams

# every run of one commit draws the same examples; each test keeps its own
# example count
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# fitted reference frame: CogniFly-class flexible exoskeleton
REFERENCE_MASS = 0.241
REFERENCE_DAMPING = 46.0
REFERENCE_STIFFNESS = 7040.0


@pytest.fixture
def reference_params() -> ImpactParams:
    return ImpactParams(mass=REFERENCE_MASS, damping=REFERENCE_DAMPING,
                        stiffness=REFERENCE_STIFFNESS)


@pytest.fixture
def make_scenario():
    def _make(drop_altitude: float, **overrides) -> DropScenario:
        return DropScenario(drop_altitude=drop_altitude, **overrides)

    return _make
