"""Binary save/load for network parameters.

Layout, all little-endian:

    header (16 bytes): magic b"MMGP", version u32, layer count u32,
                       tap u32
    per layer: fan_in u32, fan_out u32, activation code u32,
               weight f64 row-major (fan_in * fan_out), bias f64 (fan_out)

The tap field is a relic of networks that returned a hidden layer's
output beside their own: save writes layer count - 1, and load checks that
it is below the layer count and ignores it. Floats are written raw, so
save -> load -> save reproduces a file written by save byte for byte.
"""

from __future__ import annotations

import struct

import numpy as np

from mmgan.neural import ACTIVATIONS, Layer, Network, parameter

__all__ = ["MAGIC", "VERSION", "save_network", "load_network"]

MAGIC = b"MMGP"
VERSION = 1

_HEADER = struct.Struct("<4sIII")
_LAYER = struct.Struct("<III")


def save_network(net: Network, path) -> None:
    """Write net's layers to path in the format above."""
    n = len(net.layers)
    chunks = [_HEADER.pack(MAGIC, VERSION, n, n - 1)]
    for layer in net.layers:
        chunks.append(_LAYER.pack(layer.fan_in, layer.fan_out,
                                  ACTIVATIONS.index(layer.activation)))
        chunks.append(np.ascontiguousarray(
            layer.weight.value, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(
            layer.bias.value, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def _take(buf: bytes, offset: int, count: int, what: str) -> tuple:
    end = offset + count
    if end > len(buf):
        raise ValueError(f"corrupt parameter file: truncated {what}")
    return buf[offset:end], end


def load_network(path) -> Network:
    """Rebuild a Network from a file written by save_network.

    Raises ValueError for anything that is not a well-formed file: wrong
    magic, unknown version, truncation, trailing bytes, or a bad
    activation code.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    raw, offset = _take(buf, 0, _HEADER.size, "header")
    magic, version, n_layers, tap = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise ValueError(f"corrupt parameter file: bad magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"unsupported parameter file version {version}")
    if n_layers < 1:
        raise ValueError("corrupt parameter file: zero layers")
    layers = []
    for i in range(n_layers):
        raw, offset = _take(buf, offset, _LAYER.size, f"layer {i} header")
        fan_in, fan_out, act_code = _LAYER.unpack(raw)
        if fan_in < 1 or fan_out < 1:
            raise ValueError(f"corrupt parameter file: layer {i} has "
                             f"dims {fan_in}x{fan_out}")
        if act_code >= len(ACTIVATIONS):
            raise ValueError(f"corrupt parameter file: layer {i} has "
                             f"activation code {act_code}")
        raw, offset = _take(buf, offset, 8 * fan_in * fan_out,
                            f"layer {i} weights")
        weight = np.frombuffer(raw, dtype="<f8").reshape(fan_in, fan_out)
        raw, offset = _take(buf, offset, 8 * fan_out, f"layer {i} bias")
        bias = np.frombuffer(raw, dtype="<f8")
        layers.append(Layer(parameter(weight.copy()), parameter(bias.copy()),
                            ACTIVATIONS[act_code]))
    if offset != len(buf):
        raise ValueError(f"corrupt parameter file: {len(buf) - offset} "
                         "trailing bytes")
    if not 0 <= tap < n_layers:
        raise ValueError(f"corrupt parameter file: tap index {tap} "
                         f"with {n_layers} layers")
    return Network(layers)
