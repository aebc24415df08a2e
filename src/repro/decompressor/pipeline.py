"""The four-stage decompression pipeline executor (paper Figure 6).

:class:`DecompressionModule` runs a parsed
:class:`~repro.decompressor.program.DecompressorProgram` against a
compressed payload:

* **stage 1 (extract)** — fixed datapath with parameters: slices the
  bitstream into payload units (bytes, fixed-width fields, selector
  words, or a patched frame with its exception section);
* **stage 2 (manipulate)** — interprets the structural program once per
  payload unit, emitting zero or more output values;
* **stage 3 (exception)** — ORs patch values into the flagged positions;
* **stage 4 (delta)** — reconstructs docIDs from d-gaps when enabled.

Tests assert bit-exact parity with every software codec in
:mod:`repro.compression`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.compression.bitio import BitReader
from repro.compression.delta import doc_ids_from_deltas
from repro.compression.pfordelta import SEGMENT_SIZE
from repro.decompressor.primitives import apply_op, unpack_word
from repro.decompressor.program import DecompressorProgram, Statement
from repro.errors import DecompressorProgramError
from repro.observability.observer import NULL_OBSERVER, Observer


@dataclass(frozen=True)
class ModuleDecode:
    """One :meth:`DecompressionModule.decode` call (observer event)."""

    scheme: str
    num_values: int

    def publish_metrics(self, registry) -> None:
        registry.counter(
            "decompressor.calls", "decompression module invocations"
        ).inc(scheme=self.scheme)
        registry.counter(
            "decompressor.values", "values emitted by the module"
        ).inc(self.num_values, scheme=self.scheme)


class DecompressionModule:
    """Executes decompression programs; one instance per hardware lane."""

    def __init__(self, program: DecompressorProgram,
                 observer: Observer = NULL_OBSERVER) -> None:
        program.validate()
        self._program = program
        self._observer = observer

    @property
    def program(self) -> DecompressorProgram:
        return self._program

    def decode(self, data: bytes, count: int) -> List[int]:
        """Decode ``count`` values from ``data``.

        When the program's stage 4 enables delta decoding, the returned
        values are docIDs accumulated from the start of the list;
        otherwise they are the raw decoded integers.
        """
        if self._observer.enabled:
            self._observer.emit(ModuleDecode(self._program.name, count))
        units, exceptions = self._extract(data, count)
        values = self._manipulate(units, count)
        if len(values) < count:
            raise DecompressorProgramError(
                f"{self._program.name}: produced {len(values)} of {count} values"
            )
        values = values[:count]
        if self._program.exceptions == "patch":
            for position, patch in exceptions:
                if position >= count:
                    raise DecompressorProgramError(
                        f"exception position {position} out of range"
                    )
                values[position] |= patch
        if self._program.use_delta:
            return doc_ids_from_deltas(values)
        return values

    # ------------------------------------------------------------------
    # Stage 1: extraction
    # ------------------------------------------------------------------

    def _extract(self, data: bytes,
                 count: int) -> Tuple[List[int], List[Tuple[int, int]]]:
        mode = self._program.extractor_mode
        if mode == "byte":
            return list(data), []
        if mode == "fixed":
            return self._extract_fixed(data, count), []
        if mode == "patched":
            return self._extract_patched(data, count)
        if mode == "word32":
            if len(data) % 4:
                raise DecompressorProgramError(
                    "word32 payload is not word aligned"
                )
            return [w for (w,) in struct.iter_unpack("<I", data)], []
        if mode == "word64":
            if len(data) % 8:
                raise DecompressorProgramError(
                    "word64 payload is not word aligned"
                )
            return [w for (w,) in struct.iter_unpack("<Q", data)], []
        raise DecompressorProgramError(f"unknown extractor mode {mode!r}")

    def _extract_fixed(self, data: bytes, count: int) -> List[int]:
        header = self._program.header_bytes
        if header == 0:
            raise DecompressorProgramError(
                "fixed extractor needs a width header"
            )
        if len(data) < header:
            raise DecompressorProgramError("truncated width header")
        width = int.from_bytes(data[:header], "little")
        if width == 0:
            return [0] * count
        reader = BitReader(data, offset=header)
        return reader.read_many(width, count)

    def _extract_patched(self, data: bytes,
                         count: int) -> Tuple[List[int], List[Tuple[int, int]]]:
        """PFD segment walk: frames plus the per-segment patch records."""
        units: List[int] = []
        exceptions: List[Tuple[int, int]] = []
        offset = 0
        emitted = 0
        while emitted < count:
            if offset + 2 > len(data):
                raise DecompressorProgramError("truncated patched segment")
            width = data[offset]
            n_exc = data[offset + 1]
            seg_count = min(SEGMENT_SIZE, count - emitted)
            frame_bytes = (seg_count * width + 7) // 8
            if width:
                reader = BitReader(data, offset=offset + 2)
                units.extend(reader.read_many(width, seg_count))
            else:
                units.extend([0] * seg_count)
            position = offset + 2 + frame_bytes
            for _ in range(n_exc):
                if position >= len(data):
                    raise DecompressorProgramError("truncated patch section")
                local = data[position]
                position += 1
                high = 0
                while position < len(data):
                    byte = data[position]
                    position += 1
                    high = (high << 7) | (byte & 0x7F)
                    if byte & 0x80:
                        break
                exceptions.append((emitted + local, high << width))
            offset = position
            emitted += seg_count
        return units, exceptions

    # ------------------------------------------------------------------
    # Stage 2: the programmable manipulation network
    # ------------------------------------------------------------------

    def _manipulate(self, units: List[int], count: int) -> List[int]:
        program = self._program
        registers = dict(program.registers)
        initial = dict(program.registers)
        outputs: List[int] = []

        for unit in units:
            wires: Dict[str, int] = {"Input": unit}
            output: Optional[int] = None
            valid: Optional[int] = None
            reset = 0
            unpacked: Optional[List[int]] = None

            for statement in program.statements:
                value, burst = self._evaluate(statement, wires, registers,
                                              unit)
                if statement.target == "Output":
                    if burst is not None:
                        unpacked = burst
                    else:
                        output = value
                elif statement.target == "Output.valid":
                    valid = value
                elif statement.target == "reset":
                    reset = value
                elif statement.target in registers:
                    registers[statement.target] = value
                else:
                    wires[statement.target] = value

            if unpacked is not None:
                outputs.extend(unpacked)
            elif output is not None and (valid is None or valid):
                outputs.append(output)
            if reset:
                registers.update(initial)
            if len(outputs) >= count:
                break
        return outputs

    def _evaluate(self, statement: Statement, wires: Dict[str, int],
                  registers: Dict[str, int],
                  unit: int) -> Tuple[int, Optional[List[int]]]:
        program = self._program

        def resolve(token) -> int:
            if isinstance(token, int):
                return token
            if token in wires:
                return wires[token]
            if token in registers:
                return registers[token]
            raise DecompressorProgramError(
                f"{program.name}: unknown identifier {token!r}"
            )

        if statement.op is None:
            return resolve(statement.args[0]), None
        if statement.op == "UNPACK":
            word = resolve(statement.args[0]) if statement.args else unit
            if program.mode_table is None:
                raise DecompressorProgramError("UNPACK without a mode table")
            return 0, unpack_word(word, program.selector_bits,
                                  program.mode_table)
        args = [resolve(a) for a in statement.args]
        return apply_op(statement.op, args), None
