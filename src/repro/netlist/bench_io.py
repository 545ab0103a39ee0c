"""ISCAS ``.bench`` format reader and writer.

The ``.bench`` format is the lingua franca of the ISCAS'85/'89 benchmark
suites the paper evaluates on::

    # comment
    INPUT(G0)
    OUTPUT(G17)
    G17 = NAND(G0, G11)
    G11 = DFF(G5)

Gate type names are case-insensitive.  ``DFF`` takes one input.  We accept
the common aliases ``NOT``/``INV`` and ``BUF``/``BUFF``.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.robust.errors import ParseError

_TYPE_ALIASES = {
    "AND": GateType.AND,
    "OR": GateType.OR,
    "NAND": GateType.NAND,
    "NOR": GateType.NOR,
    "XOR": GateType.XOR,
    "XNOR": GateType.XNOR,
    "NOT": GateType.NOT,
    "INV": GateType.NOT,
    "BUF": GateType.BUF,
    "BUFF": GateType.BUF,
    "DFF": GateType.DFF,
    "CONST0": GateType.CONST0,
    "CONST1": GateType.CONST1,
}

_ASSIGN_RE = re.compile(
    r"^\s*([^\s=]+)\s*=\s*([A-Za-z01]+)\s*\(\s*(.*?)\s*\)\s*$"
)
_IO_RE = re.compile(r"^\s*(INPUT|OUTPUT)\s*\(\s*([^\s)]+)\s*\)\s*$", re.IGNORECASE)


class BenchParseError(ParseError):
    """Raised when a ``.bench`` file is malformed.

    Always carries the offending line number (``lineno``) and, when the
    text came from disk, the file name (``source``).
    """

    def __init__(
        self, lineno: int, message: str, source: Optional[str] = None
    ) -> None:
        super().__init__(message, source=source, lineno=lineno)


def loads_bench(
    text: str, name: str = "circuit", source: Optional[str] = None
) -> Netlist:
    """Parse ``.bench`` text into a :class:`Netlist`.

    ``source`` (usually the file name) is woven into every parse error so
    failures localize the offending input.  Empty or comment-only text is
    rejected with a clear message rather than yielding a hollow netlist.
    """
    netlist = Netlist(name)
    outputs: List[str] = []
    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        saw_content = True
        io_match = _IO_RE.match(line)
        if io_match:
            kind, net = io_match.group(1).upper(), io_match.group(2)
            if kind == "INPUT":
                netlist.add_input(net)
            else:
                outputs.append(net)
            continue
        assign = _ASSIGN_RE.match(line)
        if assign:
            target, type_name, args = assign.groups()
            gtype = _TYPE_ALIASES.get(type_name.upper())
            if gtype is None:
                raise BenchParseError(
                    lineno, f"unknown gate type {type_name!r}", source
                )
            fanin = [a.strip() for a in args.split(",") if a.strip()] if args else []
            try:
                netlist.add_gate(target, gtype, fanin)
            except ValueError as exc:
                raise BenchParseError(lineno, str(exc), source) from exc
            continue
        raise BenchParseError(lineno, f"unparseable line {line!r}", source)
    if not saw_content:
        raise BenchParseError(
            1, "empty .bench source (no INPUT/OUTPUT/assignment lines)", source
        )
    for net in outputs:
        netlist.add_output(net)
    netlist.check()
    return netlist


def dumps_bench(netlist: Netlist) -> str:
    """Serialize a :class:`Netlist` to ``.bench`` text."""
    lines = [f"# {netlist.name}"]
    for pi in netlist.inputs:
        lines.append(f"INPUT({pi})")
    for po in netlist.outputs:
        lines.append(f"OUTPUT({po})")
    for gate in netlist.gates():
        if gate.gtype is GateType.INPUT:
            continue
        args = ", ".join(gate.fanin)
        lines.append(f"{gate.name} = {gate.gtype.value}({args})")
    return "\n".join(lines) + "\n"


def bench_name(path: str) -> str:
    """The circuit name a ``.bench`` file loads under: its file stem."""
    return path.rsplit("/", 1)[-1].rsplit(".", 1)[0]


def load_bench(path: str, name: str = "") -> Netlist:
    """Read a ``.bench`` file from disk (parse errors carry the path)."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return loads_bench(text, name or bench_name(path), source=path)


def save_bench(netlist: Netlist, path: str) -> None:
    """Write a ``.bench`` file to disk."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_bench(netlist))
