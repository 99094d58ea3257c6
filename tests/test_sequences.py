import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusppc.fixedpoint import frac_of_real, point_of_reals
from torusppc.sequences import SequenceSpec, _floor_nlog, generate, orbit


def floor_nlog_oracle(n: int, a: float) -> int:
    """Independent high-precision evaluation of floor(n (log n)^a)."""
    with mpmath.workdps(60):
        return int(mpmath.floor(mpmath.mpf(n) * mpmath.log(n) ** a))


def test_generate_examples():
    assert list(generate(SequenceSpec.power_of(2), 5).values) == [1, 4, 9, 16, 25]
    assert list(generate(SequenceSpec.identity(), 3).values) == [1, 2, 3]
    assert list(generate(SequenceSpec.floor_nlog(1.0, start=2), 4).values) == [1, 3, 5, 8]


# terms within a relative 2^-40 of an integer, which the float floor hands
# to the 50-digit recheck: x = 5975064.999996... and 7675094.999995...
BAND_TERMS = {1.0: 458371, 2.0: 62871}


def test_floor_family_matches_oracle():
    # the first terms, seeded windows near 10^6 and 10^7, where nearly every
    # term keeps its float floor, windows around known near-integer terms
    # (BAND_TERMS), and a window past x = 2^52 (across n = 2^53 where A < 2),
    # where every term is rechecked at high precision
    rng = np.random.default_rng(31)
    for a in (1.0, 1.25, 1.5, 2.0):
        windows = [(2 if a < 2 else 3, 200)]
        if a in BAND_TERMS:
            windows += [(BAND_TERMS[a] - 100, 200)]
        windows += [(int(rng.integers(c, 2 * c)), 2000) for c in (10 ** 6, 10 ** 7)]
        windows += [(2 ** 53 - 100 if a < 2 else 6 * 10 ** 12, 200)]
        for start, count in windows:
            got = generate(SequenceSpec.floor_nlog(a, start=start), count).values
            want = [floor_nlog_oracle(n, a) for n in range(start, start + count)]
            assert list(got) == want, (a, start)


def _deep_floor_nlog(n: int, a: float) -> int:
    with mpmath.workdps(80):
        return int(mpmath.floor(mpmath.mpf(n) * mpmath.log(n) ** a))


def test_floor_family_long_double_stage_matches_deep_recount(monkeypatch):
    # terms near an integer are evaluated again in long double and only the
    # ones it cannot settle go to mpmath; near n = 2^40 some still do
    settled_by_mpmath = []
    floor = mpmath.floor

    def counting_floor(x):
        settled_by_mpmath.append(x)
        return floor(x)

    rng = np.random.default_rng(2024)
    for a in (1.0, 1.5, 2.0, 1.2345):
        starts = [2, 10 ** 9, 2 ** 40, int(rng.integers(2 ** 30, 2 ** 40))]
        for start in starts:
            count = 3000 if start == 2 ** 40 else 600
            settled_by_mpmath.clear()
            monkeypatch.setattr(mpmath, "floor", counting_floor)
            got = _floor_nlog(start, count, a)
            monkeypatch.setattr(mpmath, "floor", floor)
            want = [_deep_floor_nlog(n, a) for n in range(start, start + count)]
            assert list(got) == want, (a, start)
            if start == 2 ** 40:
                assert 0 < len(settled_by_mpmath) < count, a


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 2.0 ** -60,
                    reason="long double is no wider than double here, so band terms reach mpmath")
def test_floor_family_at_a_million_terms_does_not_import_mpmath():
    code = ("import sys\n"
            "from torusppc.sequences import SequenceSpec, generate\n"
            "generate(SequenceSpec.parse('[n log^1 n]'), 10 ** 6)\n"
            "print('mpmath' in sys.modules)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "False\n"


def test_floor_family_overflow_guard():
    with pytest.raises(OverflowError, match="2\\*\\*63"):
        generate(SequenceSpec.floor_nlog(2.0, start=10 ** 17), 2)


def test_floor_label_parses_back():
    # the label is echoed in summaries and replayed, so it must keep every bit of A
    rng = np.random.default_rng(20)
    for a in [1.0, 1.5, 2.0, 1.23456789, *rng.uniform(1.0, 2.0, 200)]:
        spec = SequenceSpec.floor_nlog(a, start=3)
        assert SequenceSpec.parse(spec.label(), floor_start=3) == spec
    assert [SequenceSpec.floor_nlog(a).label() for a in (1, 1.5, 2)] == \
        ["[n log^1 n]", "[n log^1.5 n]", "[n log^2 n]"]


def test_floor_family_start_validation():
    # [2 (log 2)^2] = 0 is not a natural number; the error names the index
    with pytest.raises(ValueError, match="index 0"):
        generate(SequenceSpec.floor_nlog(2.0, start=2), 4)
    with pytest.raises(ValueError):
        SequenceSpec.floor_nlog(2.5)
    with pytest.raises(ValueError):
        SequenceSpec.floor_nlog(1.0, start=1)


def test_power_overflow_guard():
    with pytest.raises(OverflowError):
        generate(SequenceSpec.power_of(9), 10 ** 7)


@settings(max_examples=60, derandomize=True)
@given(n=st.integers(min_value=1, max_value=300),
       kind=st.sampled_from(["identity", "power2", "power3", "floor1", "floor2"]))
def test_generate_prefix_property(n, kind):
    spec = {
        "identity": SequenceSpec.identity(),
        "power2": SequenceSpec.power_of(2),
        "power3": SequenceSpec.power_of(3),
        "floor1": SequenceSpec.floor_nlog(1.0),
        "floor2": SequenceSpec.floor_nlog(2.0, start=3),
    }[kind]
    shorter = generate(spec, n).values
    longer = generate(spec, n + 1).values
    assert list(longer[:n]) == list(shorter)
    assert np.all(np.diff(longer) >= 1)


def test_explicit_file(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("1\n5\n11\n23\n", encoding="utf-8")
    data = generate(SequenceSpec.explicit(str(path)), 3)
    assert list(data.values) == [1, 5, 11]

    bad = tmp_path / "bad.txt"
    bad.write_text("3\n2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="index 1"):
        generate(SequenceSpec.explicit(str(bad)), 2)

    blank = tmp_path / "blank.txt"
    blank.write_text("3\n\n7\n", encoding="utf-8")
    with pytest.raises(ValueError, match="blank"):
        generate(SequenceSpec.explicit(str(blank)), 2)

    with pytest.raises(OSError):
        generate(SequenceSpec.explicit(str(tmp_path / "missing.txt")), 1)

    huge = tmp_path / "huge.txt"
    huge.write_text(f"1\n{2 ** 63}\n", encoding="utf-8")
    with pytest.raises(OverflowError, match="huge.txt:2: .* exceeds 2\\*\\*63"):
        generate(SequenceSpec.explicit(str(huge)), 2)
    top = tmp_path / "top.txt"
    top.write_text(f"1\n{2 ** 63 - 1}\n", encoding="utf-8")
    assert generate(SequenceSpec.explicit(str(top)), 2).values[-1] == 2 ** 63 - 1

    short = tmp_path / "short.txt"
    short.write_text("1\n2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="N = 5"):
        generate(SequenceSpec.explicit(str(short)), 5)


def test_parse_grammar():
    assert SequenceSpec.parse("n").kind == "identity"
    assert SequenceSpec.parse("n^2").power == 2
    spec = SequenceSpec.parse("[n log^2 n]", floor_start=3)
    assert spec.log_exponent == 2.0 and spec.start == 3
    assert SequenceSpec.parse("[n log^1.5 n]").log_exponent == 1.5
    assert SequenceSpec.parse("file:/tmp/x").path == "/tmp/x"
    with pytest.raises(ValueError):
        SequenceSpec.parse("n^")
    with pytest.raises(ValueError):
        SequenceSpec.parse("m")
    assert SequenceSpec.parse("n^2").label() == "n^2"
    assert SequenceSpec.parse("[n log^2 n]").label() == "[n log^2 n]"


@pytest.mark.parametrize("build, message", [
    (lambda: SequenceSpec.power_of(2.7), "integer exponent >= 2, got 2.7"),
    (lambda: SequenceSpec("power", power=2.5), "integer exponent >= 2, got 2.5"),
    (lambda: SequenceSpec("power", power=2.0), "integer exponent >= 2, got 2.0"),
    (lambda: SequenceSpec.power_of(True), "integer exponent >= 2, got True"),
    (lambda: SequenceSpec.power_of(1), "integer exponent >= 2, got 1"),
    (lambda: SequenceSpec("power"), "integer exponent >= 2, got None"),
    (lambda: SequenceSpec("bogus"), "unknown sequence kind 'bogus'"),
], ids=["power_of-float", "float", "integral-float", "bool", "one", "none", "kind"])
def test_spec_refuses_a_bad_kind_or_power_when_built(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_spec_takes_a_numpy_integer_power_as_an_int():
    spec = SequenceSpec.power_of(np.int64(9))
    assert type(spec.power) is int and spec == SequenceSpec.power_of(9)
    with pytest.raises(OverflowError):      # N ** power in int64 would wrap
        generate(spec, 10 ** 7)


def test_orbit_examples():
    seq = generate(SequenceSpec.identity(), 2)
    alpha = point_of_reals([0.25])
    pts = orbit([seq], alpha)
    assert pts.shape == (2, 1)
    assert pts[0, 0] / 2 ** 64 == 0.25
    assert pts[1, 0] / 2 ** 64 == 0.5

    one = generate(SequenceSpec.identity(), 1)
    alpha2 = point_of_reals([0.3, 0.7])
    pts2 = orbit([one, one], alpha2)
    assert pts2[0, 0] == alpha2[0]
    assert pts2[0, 1] == alpha2[1]

    # wraparound: {3 * 0.75} = 0.25
    import numpy as _np
    from torusppc.sequences import SequenceData
    three = SequenceData(values=_np.array([3], dtype=_np.int64), spec=SequenceSpec.explicit("x"))
    pts3 = orbit([three], point_of_reals([0.75]))
    assert pts3[0, 0] / 2 ** 64 == 0.25


def test_orbit_exactness_large_multiplier():
    # {a * alpha} stays exact for a ~ 1e12: compare against integer arithmetic
    from torusppc.sequences import SequenceData

    a = 10 ** 12 + 7
    seq = SequenceData(values=np.array([a], dtype=np.int64), spec=SequenceSpec.explicit("x"))
    alpha = frac_of_real(math.pi % 1)
    pts = orbit([seq], np.array([alpha], dtype=np.uint64))
    assert int(pts[0, 0]) == (a * alpha) % 2 ** 64


def test_orbit_shape_checks():
    s2 = generate(SequenceSpec.identity(), 2)
    s3 = generate(SequenceSpec.identity(), 3)
    with pytest.raises(ValueError):
        orbit([s2, s3], point_of_reals([0.1, 0.2]))
    with pytest.raises(ValueError):
        orbit([s2], point_of_reals([0.1, 0.2]))


NOT_INCREASING = [3, 7, 9, 5, 8, 2, 8, 4]


@pytest.mark.parametrize("values, message", [
    (np.array([[1, 2], [3, 4]], dtype=np.int64), "1-D int64"),
    (np.array([1.0, 2.0, 3.0]), "1-D int64"),
    ([1, 2, 3], "1-D int64"),
    (np.array([], dtype=np.int64), "at least one element"),
    (np.array([0, 1, 2], dtype=np.int64), "index 0 is 0, not a natural number"),
    # 5 - (-(2**63 - 1)) wraps in int64: the check compares, it does not subtract
    (np.array([5, -(2 ** 63 - 1)], dtype=np.int64), r"index 1 \(5 -> "),
])
def test_sequence_data_refuses_what_is_not_a_sequence(values, message):
    from torusppc.sequences import SequenceData

    with pytest.raises(ValueError, match=message):
        SequenceData(values=values, spec=SequenceSpec.explicit("x"))


def test_sequence_data_over_a_view_does_not_see_later_writes():
    from torusppc.sequences import SequenceData

    base = np.array([1, 2, 3, 4])
    s = SequenceData(values=base[:], spec=SequenceSpec.explicit("x"))
    base[1] = 9
    assert s.values.tolist() == [1, 2, 3, 4]
    assert not s.values.flags.writeable


def test_sequence_data_does_not_see_writes_through_an_earlier_view():
    from torusppc.sequences import SequenceData

    owner = np.array([1, 2, 3, 4])
    view = owner[:]
    s = SequenceData(values=owner, spec=SequenceSpec.explicit("x"))
    view[1] = 9
    assert s.values.tolist() == [1, 2, 3, 4]


def test_hand_built_and_generated_sequences_fail_alike(tmp_path):
    from torusppc.sequences import SequenceData

    path = tmp_path / "f.txt"
    path.write_text("".join(f"{v}\n" for v in NOT_INCREASING), encoding="utf-8")
    with pytest.raises(ValueError) as generated:
        generate(SequenceSpec.explicit(str(path)), len(NOT_INCREASING))
    with pytest.raises(ValueError) as built:
        SequenceData(values=np.array(NOT_INCREASING, dtype=np.int64),
                     spec=SequenceSpec.explicit("x"))
    assert str(built.value) == str(generated.value)
    assert "index 3" in str(built.value)


def test_common_length():
    from torusppc.sequences import common_length

    s2 = generate(SequenceSpec.identity(), 2)
    assert common_length([s2, generate(SequenceSpec.power_of(2), 2)]) == 2
    with pytest.raises(ValueError, match="at least one sequence"):
        common_length([])
    with pytest.raises(ValueError, match="equal length"):
        common_length([s2, generate(SequenceSpec.identity(), 3)])
