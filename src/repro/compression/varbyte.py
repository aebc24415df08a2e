"""VariableByte (VB) codec.

VB (Cutting & Pedersen [26] in the paper) encodes each integer as a run of
bytes carrying 7 payload bits each, most-significant group first; the MSB
of a byte is the *terminator* flag — it is set on the final byte of each
value. This exact layout is what the paper's Figure 8 configuration
program implements on the programmable decompression module:

* ``AND(Input, 0x7F)`` extracts the 7 payload bits,
* ``ADD(payload, SHL(Reg, 7))`` accumulates most-significant-first,
* ``SHR(Input, 0x7)`` (the MSB) resets the accumulator, i.e. terminates
  the current value.

Values up to 32 bits therefore occupy one to five bytes.
"""

from __future__ import annotations

from array import array
from typing import List, Sequence

from repro.compression.base import DEFAULT_REGISTRY, Codec
from repro.errors import CompressionError

#: Byte-translation table clearing the terminator flag: the bulk decoder
#: uses it to decode an all-single-byte stream (every value < 128, the
#: common case for d-gaps and tf-1 payloads) in one C-speed pass.
_CLEAR_MSB = bytes(b & 0x7F for b in range(256))


@DEFAULT_REGISTRY.register
class VarByteCodec(Codec):
    """Byte-aligned 7-bit group coding with an MSB terminator flag."""

    name = "VB"
    max_value_bits = 32

    def encode(self, values: Sequence[int]) -> bytes:
        self._check_values(values)
        out = bytearray()
        for v in values:
            groups = []
            groups.append(v & 0x7F)
            v >>= 7
            while v:
                groups.append(v & 0x7F)
                v >>= 7
            # Emit most-significant group first; terminator flag on last.
            for group in reversed(groups[1:]):
                out.append(group)
            out.append(groups[0] | 0x80)
        return bytes(out)

    def decode(self, data: bytes, count: int) -> List[int]:
        values: List[int] = []
        current = 0
        pending = False
        for byte in data:
            current = (current << 7) | (byte & 0x7F)
            pending = True
            if byte & 0x80:
                values.append(current)
                current = 0
                pending = False
                if len(values) == count:
                    break
        if len(values) < count:
            detail = "truncated input (unterminated value)" if pending \
                else "truncated input"
            raise CompressionError(
                f"VB: {detail}: stream ended after {len(values)} of "
                f"{count} values"
            )
        return values

    def decode_block(self, data: bytes, count: int) -> array:
        # All-single-byte streams (every byte is a terminator: tf and
        # dense d-gap payloads) decode in one translate + list pass,
        # both C-speed. Multi-byte streams take the inherited wrapper,
        # which a bulk loop here did not beat.
        if count > 0 and len(data) == count and min(data) >= 0x80:
            return array("I", list(data.translate(_CLEAR_MSB)))
        return super().decode_block(data, count)
