import math

import numpy as np
import pytest

from spgrad.rng import inverse_cdf

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

# probabilities with ties and zero-probability outcomes, and any others
PROBABILITIES = st.one_of(st.sampled_from([0.0, 0.125, 0.25, 0.5]), st.floats(0.0, 1.0))


@st.composite
def rows_and_uniforms(draw):
    """(rows, u): n CDF rows over A outcomes, np.cumsum of probabilities
    that need not sum to 1, and one uniform per row: 0, an entry of the row,
    the float just below one, the last entry or above it, or any in [0, 1)."""
    outcomes = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    row = st.lists(PROBABILITIES, min_size=outcomes, max_size=outcomes)
    rows = np.cumsum(np.array(draw(st.lists(row, min_size=n, max_size=n))), axis=1)
    u = []
    for cdf in rows.tolist():
        u.append(
            draw(
                st.one_of(
                    st.just(0.0),
                    st.sampled_from(cdf),
                    st.sampled_from(cdf).map(lambda x: math.nextafter(x, -math.inf)),
                    st.floats(cdf[-1], cdf[-1] + 1.0),
                    st.floats(0.0, 1.0, exclude_max=True),
                )
            )
        )
    return rows, np.array(u)


class TestInverseCdf:
    """``inverse_cdf`` over the first A - 1 columns is, draw by draw,
    ``np.searchsorted(row, u, side="right")`` clamped to A - 1."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(rows_and_uniforms())
    @example((np.array([[0.5, 0.5, 1.0], [0.0, 0.0, 1.0]]), np.array([0.5, 0.0])))
    @example((np.array([[0.25, 0.75]]), np.array([0.75])))
    def test_matches_clamped_searchsorted(self, case):
        rows, u = case
        outcomes = rows.shape[1]
        got = inverse_cdf(list(rows.T[:-1]), u)
        want = [
            min(int(np.searchsorted(row, v, side="right")), outcomes - 1) for row, v in zip(rows, u)
        ]
        assert got.dtype == np.intp
        assert got.tolist() == want
