import random

import pytest

from ramseykit.errors import InputError
from ramseykit.windows import SetWindow


def test_basic_construction_and_membership():
    w = SetWindow.from_members(10, [3, 1, 7, 3])
    assert w.members == (1, 3, 7)
    assert 3 in w and 4 not in w
    assert len(w) == 3


def test_mask_matches_members():
    w = SetWindow.from_members(70, [1, 3, 64, 70])
    assert w.mask == sum(1 << v for v in w.members)
    assert SetWindow.odds(9).mask == 0b1010101010
    assert SetWindow(5, ()).mask == 0
    # past Python's int/str digit limit, which base 2 does not have
    n = 10**5
    assert SetWindow.odds(n).mask == 2 * (4 ** (n // 2) - 1) // 3
    sparse = SetWindow.from_members(n, random.Random(23).sample(range(1, n + 1), 300))
    assert sparse.mask == sum(1 << v for v in sparse.members)
    assert SetWindow(n, ()).mask == 0


def test_mask_is_cached_and_leaves_equality_alone():
    w = SetWindow.evens(100)
    other = SetWindow.evens(100)
    first = w.mask
    assert w.mask is first
    assert w == other and hash(w) == hash(other)
    assert w != SetWindow.evens(101)


def test_validation():
    with pytest.raises(InputError):
        SetWindow(10, (2, 2))
    with pytest.raises(InputError):
        SetWindow(10, (0, 1))
    with pytest.raises(InputError):
        SetWindow(10, (11,))
    with pytest.raises(InputError):
        SetWindow(0, ())


def test_builders():
    assert SetWindow.full(4).members == (1, 2, 3, 4)
    assert SetWindow.odds(9).members == (1, 3, 5, 7, 9)
    assert SetWindow.evens(9).members == (2, 4, 6, 8)
    assert SetWindow.residue_class(0, 3, 10).members == (3, 6, 9)
    assert SetWindow.residue_class(2, 5, 13).members == (2, 7, 12)


def test_restrict():
    w = SetWindow.odds(99)
    small = w.restrict(10)
    assert small.horizon == 10
    assert small.members == (1, 3, 5, 7, 9)
    with pytest.raises(InputError):
        w.restrict(100)


def test_file_round_trip(tmp_path):
    w = SetWindow.from_members(20, [2, 5, 6, 7])
    path = tmp_path / "s.txt"
    path.write_text(w.to_text())
    assert SetWindow.from_file(str(path)) == w
    assert SetWindow.from_expression(f"file:{path}") == w
    assert SetWindow.from_expression(str(path)) == w


def test_unreadable_window_file_is_an_input_error(tmp_path):
    for path in (tmp_path / "no-such.txt", tmp_path):
        with pytest.raises(InputError, match="cannot read window file"):
            SetWindow.from_file(str(path))
    binary = tmp_path / "s.bin"
    binary.write_bytes(b"\xff\xfe20\n")
    with pytest.raises(InputError, match="not UTF-8 text"):
        SetWindow.from_file(str(binary))
    with pytest.raises(InputError, match="cannot read window file"):
        SetWindow.from_expression(f"file:{tmp_path / 'no-such.txt'}")


def test_expressions():
    assert SetWindow.from_expression("all:5") == SetWindow.full(5)
    assert SetWindow.from_expression("odds:9") == SetWindow.odds(9)
    assert SetWindow.from_expression("evens:8") == SetWindow.evens(8)
    assert SetWindow.from_expression("mod:0,3,9").members == (3, 6, 9)
    fs = SetWindow.from_expression("fs:geom:1,2,4")
    assert fs.members == tuple(range(1, 16))
    assert SetWindow.from_expression("fs:list:2,3,2").members == (2, 3, 5)
    with pytest.raises(InputError):
        SetWindow.from_expression("nope:3")
    with pytest.raises(InputError):
        SetWindow.from_expression("no-such-file.txt")
