import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import ebk


@pytest.fixture
def deadline():
    """deadline(seconds) makes a test that runs past it fail instead of hang."""

    def _expired(signum, frame):
        raise TimeoutError("test ran past its deadline")

    previous = signal.signal(signal.SIGALRM, _expired)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def harmonic():
    return ebk.schrodinger_symbol(ebk.harmonic_potential())


@pytest.fixture(scope="session")
def quartic():
    return ebk.schrodinger_symbol(ebk.quartic_potential())


@pytest.fixture(scope="session")
def morse():
    return ebk.schrodinger_symbol(ebk.morse_potential(1.0, 1.0))


@pytest.fixture(scope="session")
def double_well():
    return ebk.schrodinger_symbol(ebk.double_well_potential(1.0))


@pytest.fixture(scope="session")
def kerr():
    return ebk.kerr_symbol(0.5)


@pytest.fixture(scope="session")
def harmonic_window():
    return ebk.EnergyWindow(0.2, 0.8, 0.05)


@pytest.fixture(scope="session")
def quartic_window():
    return ebk.EnergyWindow(0.5, 2.0, 0.05)


@pytest.fixture(scope="session")
def morse_window():
    return ebk.EnergyWindow(0.1, 0.6, 0.05)


@pytest.fixture(scope="session")
def dw_window():
    return ebk.EnergyWindow(0.1, 0.6, 0.05)


@pytest.fixture(scope="session")
def kerr_window():
    return ebk.EnergyWindow(0.2, 1.0, 0.05)


@pytest.fixture(scope="session")
def harmonic_family(harmonic, harmonic_window):
    return ebk.build_families(harmonic, harmonic_window, 33)[0]


@pytest.fixture(scope="session")
def harmonic_table(harmonic_family, harmonic_window):
    return ebk.build_action_table(harmonic_family, harmonic_window)


@pytest.fixture(scope="session")
def harmonic_wide_table(harmonic):
    window = ebk.EnergyWindow(0.2, 1.05, 0.05)
    fams = ebk.build_families(harmonic, window, 33)
    return ebk.build_action_table(fams[0], window)


@pytest.fixture(scope="session")
def quartic_family(quartic, quartic_window):
    return ebk.build_families(quartic, quartic_window, 49)[0]


@pytest.fixture(scope="session")
def quartic_table(quartic_family, quartic_window):
    return ebk.build_action_table(quartic_family, quartic_window)


@pytest.fixture(scope="session")
def morse_family(morse, morse_window):
    return ebk.build_families(morse, morse_window, 49)[0]


@pytest.fixture(scope="session")
def morse_table(morse_family, morse_window):
    return ebk.build_action_table(morse_family, morse_window)


@pytest.fixture(scope="session")
def dw_families(double_well, dw_window):
    return ebk.build_families(double_well, dw_window, 33)


@pytest.fixture(scope="session")
def dw_tables(dw_families, dw_window):
    return [ebk.build_action_table(f, dw_window) for f in dw_families]
