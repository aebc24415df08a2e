"""Group Varint (GVB) codec — an *extension* scheme beyond the paper's five.

Group Varint (used by Google's early serving systems) packs four values
per group: one control byte carries four 2-bit length fields (bytes per
value, minus one), followed by the four little-endian payloads. Decoding
is branch-light — which also makes it expressible on BOSS's programmable
decompression module, demonstrating the paper's claim that "a new
decompression scheme can also be supported if it can be expressed by
composing those primitive units" (Section III-B). The matching stage-2
program lives in :mod:`repro.decompressor.configs`.

A trailing group with fewer than four values writes only the present
payloads; the element count from the block metadata tells the decoder
where to stop.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence

from repro.compression.base import DEFAULT_REGISTRY, Codec
from repro.errors import CompressionError

#: Per control byte: the four payload lengths it announces, plus their
#: sum — the bulk decoder's branch-free dispatch table.
_GROUP_SHAPES = tuple(
    (
        tuple(((control >> (2 * slot)) & 0x3) + 1 for slot in range(4)),
        sum(((control >> (2 * slot)) & 0x3) + 1 for slot in range(4)),
    )
    for control in range(256)
)

#: Bit length -> payload bytes (1..4; zero still costs one).
_BYTES_PER_WIDTH = bytes(max(1, (w + 7) // 8) for w in range(256))


@DEFAULT_REGISTRY.register
class GroupVarintCodec(Codec):
    """Four values per control byte, little-endian payloads."""

    name = "GVB"
    max_value_bits = 32

    def encode(self, values: Sequence[int],
               widths: Optional[bytes] = None) -> bytes:
        lengths = self._widths(values, widths).translate(_BYTES_PER_WIDTH)
        out = bytearray()
        for start in range(0, len(values), 4):
            group = lengths[start:start + 4]
            control = 0
            for slot, length in enumerate(group):
                control |= (length - 1) << (2 * slot)
            out.append(control)
            for value, length in zip(values[start:start + 4], group):
                out += value.to_bytes(length, "little")
        return bytes(out)

    def decode(self, data: bytes, count: int) -> List[int]:
        values: List[int] = []
        position = 0
        while len(values) < count:
            if position >= len(data):
                raise CompressionError(
                    f"GVB: truncated input: stream ended after "
                    f"{len(values)} of {count} values"
                )
            control = data[position]
            position += 1
            for slot in range(4):
                if len(values) == count:
                    break
                length = ((control >> (2 * slot)) & 0x3) + 1
                if position + length > len(data):
                    raise CompressionError(
                        f"GVB: truncated input: payload ends inside value "
                        f"{len(values)} of {count}"
                    )
                values.append(
                    int.from_bytes(data[position:position + length], "little")
                )
                position += length
        return values

    def decode_block(self, data: bytes, count: int) -> array:
        out = array("I")
        append = out.append
        from_bytes = int.from_bytes
        size = len(data)
        position = 0
        produced = 0
        while produced < count:
            if position >= size:
                raise CompressionError(
                    f"GVB: truncated input: stream ended after "
                    f"{produced} of {count} values"
                )
            lengths, total = _GROUP_SHAPES[data[position]]
            position += 1
            if count - produced >= 4 and position + total <= size:
                # Full interior group: no per-slot bounds checks needed.
                for length in lengths:
                    end = position + length
                    append(from_bytes(data[position:end], "little"))
                    position = end
                produced += 4
            else:
                for length in lengths:
                    if produced == count:
                        break
                    if position + length > size:
                        raise CompressionError(
                            f"GVB: truncated input: payload ends inside "
                            f"value {produced} of {count}"
                        )
                    end = position + length
                    append(from_bytes(data[position:end], "little"))
                    position = end
                    produced += 1
        return out
