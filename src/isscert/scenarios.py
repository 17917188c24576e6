"""Bundled demonstration scenarios.

Each YAML configuration shipped in ``isscert.configs`` is a bundled
scenario named after its file; the CLI accepts these names wherever it
accepts a config path, and lists each with the file's own description.
"""

from __future__ import annotations

from importlib import resources

_CONFIGS = resources.files("isscert.configs")


def bundled_names() -> list:
    """Sorted names of the bundled scenario configurations."""
    return sorted(p.name.removesuffix(".yaml") for p in _CONFIGS.iterdir()
                  if p.name.endswith(".yaml"))


def bundled_config_text(name: str) -> str:
    """YAML text of a bundled scenario configuration."""
    if name not in bundled_names():
        known = ", ".join(bundled_names())
        raise KeyError(f"unknown scenario {name!r}; bundled scenarios: {known}")
    return _CONFIGS.joinpath(f"{name}.yaml").read_text()
