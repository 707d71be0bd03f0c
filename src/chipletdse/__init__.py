"""Design-space exploration toolkit for chiplet-based automotive packages."""

import os

__version__ = "0.1.0"


def bundled_spec_path() -> str:
    """Path to the bundled infotainment package spec."""
    return os.path.join(os.path.dirname(__file__), "data", "infotainment.json")
