"""Shared fixtures."""

import pytest
import yaml

from wirebox import fileformat


@pytest.fixture(params=["SafeLoader", "CSafeLoader"])
def yaml_loader(request, monkeypatch):
    """Run the test once per YAML loader ``fileformat`` can pick."""
    loader = getattr(yaml, request.param, None)
    if loader is None:
        pytest.skip(f"pyyaml has no {request.param} (built without libyaml)")
    monkeypatch.setattr(fileformat, "_PARSER", loader)
    return loader
