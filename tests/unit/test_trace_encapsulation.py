"""Only ``repro.sim.tracing`` knows the digest framing and the fast-path gate.

Every other module records through the public recorders (``Trace.record``,
``record_message``, ``record_device``, ``message_channel``,
``device_channel``). This guard scans ``src/repro`` with :mod:`ast` and
fails on any import of an underscore-prefixed tracing name and on any use
of the trace's or a channel's private state outside the tracing module.
"""

import ast
import pathlib

import repro
from repro.sim.tracing import DeviceChannel, MessageChannel

SRC = pathlib.Path(repro.__file__).resolve().parent
TRACING = SRC / "sim" / "tracing.py"
TRACING_MODULE = "repro.sim.tracing"

#: Trace internals the hand-inlined digest lanes used to poke.
TRACE_PRIVATE = frozenset({
    "_dig_buf", "_lt", "_ltr", "_ls", "_lsr", "_kind_state", "_subscribers",
    "_flush_hash",
})
#: Private slots of the recorders the tracing module hands out.
CHANNEL_PRIVATE = frozenset(
    name
    for cls in (MessageChannel, DeviceChannel)
    for name in cls.__slots__
    if name.startswith("_")
)
FORBIDDEN = TRACE_PRIVATE | CHANNEL_PRIVATE


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _resolve(node: ast.ImportFrom, module: str, is_package: bool) -> str:
    """The absolute module an ``ImportFrom`` names (relative imports too)."""
    if not node.level:
        return node.module or ""
    package = module.split(".")
    if not is_package:
        package = package[:-1]
    base = package[: len(package) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def violations(text: str, module: str, is_package: bool = False) -> list[str]:
    """Leaks of tracing internals in the source ``text`` of ``module``."""
    tree = ast.parse(text, filename=module)
    aliases: set[str] = set()  # local names bound to the tracing module
    found = []
    for node in ast.walk(tree):
        where = f"{module}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.ImportFrom):
            source = _resolve(node, module, is_package)
            for alias in node.names:
                if source == TRACING_MODULE and alias.name.startswith("_"):
                    found.append(f"{where} imports {alias.name}")
                if f"{source}.{alias.name}" == TRACING_MODULE:
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == TRACING_MODULE and alias.asname:
                    aliases.add(alias.asname)
    for node in ast.walk(tree):
        where = f"{module}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id in aliases:
                if node.attr.startswith("_"):
                    found.append(f"{where} uses tracing.{node.attr}")
            elif node.attr in FORBIDDEN and not (
                isinstance(owner, ast.Name) and owner.id in ("self", "cls")
            ):
                found.append(f"{where} uses .{node.attr}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "setattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in TRACE_PRIVATE
        ):
            found.append(f"{where} {node.func.id}(..., {node.args[1].value!r})")
    return found


def test_only_tracing_knows_the_digest_framing():
    sources = sorted(p for p in SRC.rglob("*.py") if p != TRACING)
    assert len(sources) > 50  # the scan really covers the package
    found = [
        v
        for path in sources
        for v in violations(path.read_text(encoding="utf-8"),
                            _module_name(path), path.name == "__init__.py")
    ]
    assert found == []


def test_guard_flags_each_kind_of_leak():
    """The scanner itself must catch every pattern it claims to."""
    leaky = "\n".join([
        "from repro.sim.tracing import _PACK_D, Trace",
        "from ..sim.tracing import _FLUSH_BYTES",
        "from repro.sim import tracing as tr",
        "def f(trace, channel):",
        "    trace._dig_buf",
        "    channel._last_suffix",
        "    tr._kind_lp",
        "    getattr(trace, '_kind_state')",
        "    self._trace",
        "",
    ])
    found = violations(leaky, "repro.net.leaky")
    assert len(found) == 6, found
