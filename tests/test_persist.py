"""Round-trip and corruption tests for the binary parameter format."""

import struct

import numpy as np
import pytest

from mmgan.neural import Network
from mmgan.persist import MAGIC, VERSION, load_network, save_network


def small_net(seed=0):
    return Network.create((2, 5, 3, 2), rng=np.random.default_rng(seed))


def _set_tap(path, tap):
    raw = bytearray(path.read_bytes())
    raw[12:16] = struct.pack("<I", tap)
    path.write_bytes(bytes(raw))


def test_round_trip_values(tmp_path):
    net = small_net()
    p = tmp_path / "g.bin"
    save_network(net, p)
    back = load_network(p)
    assert len(back.layers) == len(net.layers)
    for a, b in zip(net.layers, back.layers):
        assert a.activation == b.activation
        np.testing.assert_array_equal(a.weight.value, b.weight.value)
        np.testing.assert_array_equal(a.bias.value, b.bias.value)


def test_round_trip_bit_exact(tmp_path):
    net = small_net(seed=3)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_network(net, p1)
    save_network(load_network(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_net_forward_matches(tmp_path):
    net = small_net(seed=7)
    p = tmp_path / "g.bin"
    save_network(net, p)
    back = load_network(p)
    z = np.random.default_rng(1).standard_normal((6, 2))
    np.testing.assert_array_equal(net.forward_values(z),
                                  back.forward_values(z))


def test_header_layout(tmp_path):
    net = small_net()
    p = tmp_path / "g.bin"
    save_network(net, p)
    raw = p.read_bytes()
    magic, version, n_layers, tap = struct.unpack("<4sIII", raw[:16])
    assert magic == MAGIC == b"MMGP"
    assert version == VERSION == 1
    assert n_layers == 3
    assert tap == n_layers - 1  # the tap slot of format version 1
    # first layer record: 2 in, 5 out, relu
    fan_in, fan_out, act = struct.unpack("<III", raw[16:28])
    assert (fan_in, fan_out) == (2, 5)


@pytest.mark.parametrize("tap", [0, 1])
def test_a_hidden_tap_still_loads_and_resaves_as_the_last(tmp_path, tap):
    # a version-1 file tapped at a hidden layer, as nets that returned a
    # hidden layer's output beside their own were saved: the field is
    # ignored, and a re-save writes the layer count - 1
    net = small_net(seed=5)
    p, again = tmp_path / "old.bin", tmp_path / "new.bin"
    save_network(net, p)
    fresh = p.read_bytes()
    _set_tap(p, tap)
    back = load_network(p)
    z = np.random.default_rng(2).standard_normal((6, 2))
    np.testing.assert_array_equal(back.forward_values(z),
                                  net.forward_values(z))
    save_network(back, again)
    assert again.read_bytes() == fresh
    assert struct.unpack("<I", again.read_bytes()[12:16]) == (2,)


@pytest.mark.parametrize("tap", [3, 4, 2**32 - 1])
def test_tap_out_of_range_is_corrupt(tmp_path, tap):
    p = tmp_path / "g.bin"
    save_network(small_net(), p)
    _set_tap(p, tap)
    with pytest.raises(ValueError, match=(
            rf"^corrupt parameter file: tap index {tap} with 3 layers$")):
        load_network(p)


def test_bad_magic(tmp_path):
    p = tmp_path / "g.bin"
    net = small_net()
    save_network(net, p)
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        load_network(p)


def test_bad_version(tmp_path):
    p = tmp_path / "g.bin"
    save_network(small_net(), p)
    raw = bytearray(p.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        load_network(p)


def test_truncated(tmp_path):
    p = tmp_path / "g.bin"
    save_network(small_net(), p)
    raw = p.read_bytes()
    p.write_bytes(raw[:len(raw) - 5])
    with pytest.raises(ValueError, match="truncated"):
        load_network(p)


def test_trailing_bytes(tmp_path):
    p = tmp_path / "g.bin"
    save_network(small_net(), p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_network(p)


def test_bad_activation_code(tmp_path):
    p = tmp_path / "g.bin"
    save_network(small_net(), p)
    raw = bytearray(p.read_bytes())
    raw[24:28] = struct.pack("<I", 99)
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="activation code"):
        load_network(p)


def test_empty_file(tmp_path):
    p = tmp_path / "g.bin"
    p.write_bytes(b"")
    with pytest.raises(ValueError, match="truncated"):
        load_network(p)
