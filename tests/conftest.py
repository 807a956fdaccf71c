"""Shared hypothesis strategies and test configuration."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from troplectra import matrix, spectral, valuation
from troplectra.semiring import SScalar, TScalar

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


# small exact magnitudes keep collisions frequent, which is where the
# balanced cases live
small_mags = st.one_of(
    st.integers(min_value=-8, max_value=8),
    st.fractions(min_value=-8, max_value=8, max_denominator=4),
)


def sscalars(zero=True, bal=True, mags=small_mags):
    opts = [st.builds(SScalar.pos, mags), st.builds(SScalar.neg, mags)]
    if bal:
        opts.append(st.builds(SScalar.bal, mags))
    if zero:
        opts.append(st.just(SScalar.zero()))
    return st.one_of(opts)


def signed_scalars(zero=True):
    """Elements of the signed part (no balanced)."""
    return sscalars(zero=zero, bal=False)


tscalars = st.one_of(st.just(TScalar.bottom()), st.builds(TScalar, small_mags))


@pytest.fixture
def classify_calls(monkeypatch):
    """Count the definiteness classifications the library runs."""
    calls = []
    original = spectral.classify_pd

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral, "classify_pd", counting)
    monkeypatch.setattr(valuation, "classify_pd", counting)
    return calls


@pytest.fixture
def cycle_mean_calls(monkeypatch):
    """Count the cycle-mean computations the star route runs."""
    calls = []
    original = matrix.max_cycle_mean

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(matrix, "max_cycle_mean", counting)
    return calls
