import math

import numpy as np
import pytest

from spgrad.errors import ConfigurationError
from spgrad.rng import UniformRows, box_muller, inverse_cdf, substream

from conftest import iteration_generator

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


@st.composite
def reads(draw):
    """(first, n) reads of one ``UniformRows``: each one on from the last,
    a jump forward, a move back to row 0, the last read again, or empty."""
    plan, end, last = [], 0, (0, 0)
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["on", "forward", "start", "again", "empty"]))
        n = draw(st.integers(0, 40))
        if kind == "on":
            first = end
        elif kind == "forward":
            first = end + draw(st.integers(1, 60))
        elif kind == "start":
            first = 0
        elif kind == "again":
            first, n = last
        else:
            first, n = draw(st.integers(0, 200)), 0
        plan.append((first, n))
        last, end = (first, n), first + n
    return plan


class TestUniformRowsTake:
    """Any reads of one ``UniformRows`` are rows of one sequential draw of
    the iteration's generator, taken from its start with no ``advance``."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from([1, 2, 11, 41]), st.sampled_from([0, 2**64 - 1]), st.integers(0, 3), reads()
    )
    @example(11, 0, 0, [(0, 7), (7, 5), (30, 3), (0, 2), (0, 2), (90, 0), (2, 1)])
    @example(41, 2**64 - 1, 1, [(5, 0), (0, 0), (3, 4), (3, 4), (7, 40), (0, 1)])
    def test_reads_are_rows_of_one_sequential_draw(self, width, seed, k, plan):
        rows = UniformRows(seed, k, width)
        whole = iteration_generator(seed, k).random((max(a + n for a, n in plan), width))
        for first, n in plan:
            got = rows.take(first, n)
            assert got.shape == (n, width)
            np.testing.assert_array_equal(got, whole[first : first + n])


class TestAddressesAreIntegers:
    """A seed, a stream path entry, an iteration and a row address must be
    an int or a numpy integer: a float (integral or not), a bool, a string
    or None is refused, never truncated."""

    NOT_INTEGERS = [1.5, 1.0, True, np.float64(1.0), "1", None]

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
    def test_substream_refuses(self, value):
        with pytest.raises(ConfigurationError, match="^seed must be an integer, got "):
            substream(value, 2)
        with pytest.raises(ConfigurationError, match="^stream path entry must be an integer, got "):
            substream(1, value)

    @pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
    def test_uniform_rows_refuse(self, value):
        with pytest.raises(ConfigurationError, match="^seed must be an integer, got "):
            UniformRows(value, 0, 3)
        with pytest.raises(ConfigurationError, match="^stream path entry must be an integer, got "):
            UniformRows(1, value, 3)
        rows = UniformRows(1, 0, 3)
        for first, n in ((value, 2), (2, value)):
            with pytest.raises(ConfigurationError, match="^stream path entry must be an integer, got "):
                rows.take(first, n)

    def test_numpy_integers_address_as_their_int(self):
        assert substream(np.uint64(1), np.int32(2)).random() == substream(1, 2).random()
        got = UniformRows(np.int64(1), np.int8(0), 3).take(np.intp(2), np.int16(2))
        assert got.tobytes() == UniformRows(1, 0, 3).take(2, 2).tobytes()


class TestGeneratorArrayDraws:
    """k draws of one kind in one generator call, as ``sample_trajectory``
    takes a run of like variates, give the values of k scalar calls and
    leave the generator in the state they leave it in; ``standard_normal``
    spends a variable count of outputs per value (its ziggurat's tail and
    wedges), so the end state checks that no output is skipped or shared."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(["random", "standard_normal"]),
        st.integers(0, 2**64 - 1),
        st.integers(0, 3),
        st.integers(0, 300),
    )
    @example("standard_normal", 0, 0, 300)
    @example("random", 2**64 - 1, 1, 1)
    def test_one_call_is_k_scalar_calls(self, kind, seed, skip, k):
        whole, one_by_one = (substream(seed, 0) for _ in range(2))
        for rng in (whole, one_by_one):
            rng.random(skip)  # start away from the stream's first output
        values = getattr(whole, kind)(k)
        scalars = [getattr(one_by_one, kind)() for _ in range(k)]
        assert values.tolist() == scalars
        assert whole.bit_generator.state == one_by_one.bit_generator.state


UNIFORMS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0 - 2.0**-53]), st.floats(0.0, 1.0, exclude_max=True)
)


class TestBoxMullerExpression:
    """``box_muller`` builds its normals in place, and each is the value,
    bit for bit, of the expression it computes, from the two strided columns
    a block reads; the columns come back unchanged."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(UNIFORMS, UNIFORMS), min_size=1, max_size=40))
    @example([(0.0, 0.0), (0.0, 0.5), (0.5, 0.25), (1.0 - 2.0**-53, 1.0 - 2.0**-53)])
    def test_bits_of_the_expression(self, pairs):
        rows = np.array(pairs)
        before = rows.copy()
        u1, u2 = rows[:, 0], rows[:, 1]
        expected = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi * u2)
        assert box_muller(u1, u2).tobytes() == expected.tobytes()
        assert rows.tobytes() == before.tobytes()
