"""Design-space exploration toolkit for chiplet-based automotive packages."""

from importlib import resources

__version__ = "0.1.0"


def bundled_spec_path() -> str:
    """Path to the bundled infotainment package spec."""
    return str(resources.files("chipletdse.data") / "infotainment.json")
