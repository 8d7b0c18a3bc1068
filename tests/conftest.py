import pytest

from rainbowsat import saturation


@pytest.fixture
def no_catalogue(monkeypatch):
    """The committed catalogue of obstructions emptied: a budgeted run then
    searches the hosts that an obstruction would settle, as it did before
    the catalogue, and each solver knows only the graphs that its own
    unbudgeted searches refuted."""
    monkeypatch.setattr(saturation, "_OBSTRUCTIONS", {})
