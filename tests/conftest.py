import pytest

import genediv.engine


@pytest.fixture
def born(monkeypatch):
    """Every individual the engine builds during the test, in birth order."""
    individuals = []

    class Recorded(genediv.engine.Individual):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            individuals.append(self)

    monkeypatch.setattr(genediv.engine, "Individual", Recorded)
    return individuals
