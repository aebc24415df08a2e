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

#: The inverse, for the encoder's all-single-byte pass.
_SET_MSB = bytes(b | 0x80 for b in range(256))

#: Bit length -> encoded bytes (7 payload bits each; zero still costs
#: one), so an encoded size is ``sum(widths.translate(...))``.
_BYTES_PER_WIDTH = bytes(max(1, (w + 6) // 7) for w in range(256))


@DEFAULT_REGISTRY.register
class VarByteCodec(Codec):
    """Byte-aligned 7-bit group coding with an MSB terminator flag."""

    name = "VB"
    max_value_bits = 32

    def encode(self, values: Sequence[int]) -> bytes:
        if max(self._widths(values), default=0) <= 7:
            # Every value is its own terminator byte: one C-speed pass
            # (iter() so that a buffer such as array('I') is read by
            # element, not by raw byte).
            return bytes(iter(values)).translate(_SET_MSB)
        out = bytearray()
        append = out.append
        for v in values:
            # Most-significant 7-bit group first, entering the cascade
            # at the value's magnitude; terminator flag on the last.
            if v > 0x7F:
                if v > 0x3FFF:
                    if v > 0x1FFFFF:
                        if v > 0xFFFFFFF:
                            append(v >> 28)
                        append(v >> 21 & 0x7F)
                    append(v >> 14 & 0x7F)
                append(v >> 7 & 0x7F)
            append(v & 0x7F | 0x80)
        return bytes(out)

    def compressed_size(self, values: Sequence[int]) -> int:
        return sum(self._widths(values).translate(_BYTES_PER_WIDTH))

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
