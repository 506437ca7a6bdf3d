import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).parent
REPO_ROOT = TESTS_DIR.parent
SCENARIOS = REPO_ROOT / "scenarios"

if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))


@pytest.fixture(scope="session")
def hierarchical_spec_path():
    return SCENARIOS / "hierarchical.yaml"


@pytest.fixture()
def hierarchical_spec(hierarchical_spec_path):
    from macsecsim.topology import TopologySpec

    return TopologySpec.from_yaml(hierarchical_spec_path)
