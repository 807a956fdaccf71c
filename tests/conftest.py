"""Shared hypothesis strategies and test configuration."""

from hypothesis import settings
from hypothesis import strategies as st

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
