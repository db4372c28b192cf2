"""Wire protocol: length-prefixed JSON frames and the typed command table.

The transport is deliberately boring -- and therefore debuggable with
``nc`` and a hex dump: every message is one UTF-8 JSON object prefixed
by its byte length as a 4-byte big-endian unsigned integer.  A request
frame is ``{"id": <caller id>, "cmd": <name>, "params": {...}}``; the
server answers with ``{"id", "ok": true, "result": {...}}`` or
``{"id", "ok": false, "error": {kind, type, message}}``, interleaving
``{"id", "stream": {...}}`` frames for streaming commands
(``enumerate``) before the footer.

Commands are *declared*, not discovered: :data:`COMMANDS` is a typed
table (the MAAS region-RPC shape) mapping each command name to its
:class:`Command` -- argument names, accepted JSON types, and which
arguments are required.  :meth:`Command.validate` rejects unknown
parameters and type mismatches *before* any handler runs, so a handler
body never sees a malformed request and every validation failure is a
uniform ``protocol`` error envelope.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import dataclass
from json.encoder import encode_basestring as _string
from typing import Dict, Optional, Tuple

from repro.server.errors import ProtocolError

#: The wire-format generation this server speaks.  ``hello`` negotiates
#: it explicitly: a client declaring any other generation receives a
#: typed ``protocol`` error envelope instead of a mid-session guess.
#: Bump only on incompatible frame/command-table changes.
WIRE_FORMAT_VERSION = 1

#: Upper bound on one frame's JSON payload.  Large enough for a
#: several-hundred-thousand-edge schema upload, small enough that a
#: corrupt or hostile length prefix cannot balloon server memory.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct("!I")

#: ``json.dumps`` with the frame's separators.  ensure_ascii=False skips
#: the escape pass (labels are rarely non-ASCII, and UTF-8 framing
#: carries them either way).
_dumps = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


def to_json(value) -> str:
    """Return ``json.dumps(value)`` with the frame's separators.

    Strings and finite scalars are written directly, which is the text
    :mod:`json` writes for them; the rest goes through :mod:`json`.
    """
    kind = type(value)
    if kind is str:
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int:
        return int.__repr__(value)
    if kind is float and value - value == 0:  # finite: json writes repr()
        return float.__repr__(value)
    return _dumps(value)


class Rendered:
    """A message value whose JSON text was written before its frame.

    The answer-carrying handlers (``connect``, ``batch``, ``interpret``
    and ``enumerate``'s stream frames) return their body as one, built
    from :func:`~repro.server.codec.encode_wire_result` texts;
    :func:`encode_frame` places ``text`` verbatim where the value sits.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


def encode_frame(message: dict) -> bytes:
    """Return the wire bytes for one message (length prefix + JSON).

    The text is ``json.dumps(message)`` with compact separators.  A
    top-level value that is :class:`Rendered` is written as its text
    instead: the frame is then joined from its keys and values, which
    gives the bytes ``json.dumps`` would give for the value the text
    encodes.  No text is searched or substituted, so nothing inside a
    client-supplied string can change the frame.
    """
    if any(type(value) is Rendered for value in message.values()):
        text = "{" + ",".join(
            [
                _string(key) + ":" + (value.text if type(value) is Rendered else to_json(value))
                for key, value in message.items()
            ]
        ) + "}"
    else:
        text = _dumps(message)
    payload = text.encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    return _LENGTH.pack(len(payload)) + payload


async def read_frame(reader: asyncio.StreamReader) -> Optional[dict]:
    """Read one frame; ``None`` on a clean EOF at a frame boundary.

    Raises :class:`ProtocolError` on oversized lengths, truncated
    payloads, or bodies that are not a JSON object.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between frames
        raise ProtocolError("connection closed mid-length-prefix") from error
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"declared frame length {length} exceeds MAX_FRAME_BYTES "
            f"({MAX_FRAME_BYTES})"
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ProtocolError("connection closed mid-frame") from error
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(message).__name__}"
        )
    return message


# ----------------------------------------------------------------------
# typed command table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Argument:
    """One declared command parameter.

    ``types`` are the accepted JSON-decoded Python types; optional
    arguments fall back to ``default`` when absent (``None`` is a valid
    supplied value for optional arguments, standing for "use the
    server-side default").
    """

    name: str
    types: Tuple[type, ...]
    required: bool = False
    default: object = None


@dataclass(frozen=True)
class Command:
    """One declared command: name plus its argument schema."""

    name: str
    arguments: Tuple[Argument, ...] = ()
    streaming: bool = False

    def validate(self, params: dict) -> dict:
        """Return the validated, default-filled parameter dict.

        Raises :class:`ProtocolError` on unknown parameters, missing
        required ones, and type mismatches -- uniformly, before any
        handler logic runs.
        """
        if not isinstance(params, dict):
            raise ProtocolError(
                f"{self.name}: params must be an object, "
                f"got {type(params).__name__}"
            )
        declared = {argument.name: argument for argument in self.arguments}
        unknown = sorted(set(params) - set(declared))
        if unknown:
            raise ProtocolError(
                f"{self.name}: unknown parameter(s) {unknown}; "
                f"accepted: {sorted(declared)}"
            )
        validated = {}
        for argument in self.arguments:
            if argument.name not in params or params[argument.name] is None:
                if argument.required and argument.name not in params:
                    raise ProtocolError(
                        f"{self.name}: missing required parameter "
                        f"{argument.name!r}"
                    )
                if argument.required and params.get(argument.name) is None:
                    raise ProtocolError(
                        f"{self.name}: parameter {argument.name!r} must not "
                        "be null"
                    )
                validated[argument.name] = argument.default
                continue
            value = params[argument.name]
            if not isinstance(value, argument.types) or (
                # bool is an int subclass; reject it unless declared
                isinstance(value, bool)
                and bool not in argument.types
            ):
                names = "/".join(t.__name__ for t in argument.types)
                raise ProtocolError(
                    f"{self.name}: parameter {argument.name!r} must be "
                    f"{names}, got {type(value).__name__}"
                )
            validated[argument.name] = value
        return validated


def _tenant_arguments(*extra: Argument) -> Tuple[Argument, ...]:
    """The shared (tenant, token) prefix of every tenant-scoped command."""
    return (
        Argument("tenant", (str,), required=True),
        Argument("token", (str,)),
    ) + extra


#: The server's full command vocabulary.  Handlers in
#: :mod:`repro.server.app` are looked up as ``_cmd_<name>``; a command
#: present here without a handler is a server bug, not a client error.
COMMANDS: Dict[str, Command] = {
    command.name: command
    for command in (
        Command("ping"),
        Command(
            "hello",
            (
                Argument("version", (int,), required=True),
                Argument("client", (str,)),
            ),
        ),
        Command(
            "create_schema",
            _tenant_arguments(
                Argument("schema", (dict,), required=True),
                Argument("config", (dict,)),
                Argument("limits", (dict,)),
                Argument("exist_ok", (bool,), default=False),
            ),
        ),
        Command("drop_schema", _tenant_arguments()),
        Command("list_schemas"),
        Command(
            "connect",
            _tenant_arguments(
                Argument("terminals", (list,), required=True),
                Argument("objective", (str,), default="steiner"),
                Argument("side", (int,)),
                Argument("solver", (str,)),
                Argument("policy", (str,), default="auto"),
                Argument("tags", (dict,)),
            ),
        ),
        Command(
            "batch",
            _tenant_arguments(
                Argument("requests", (list,), required=True),
                Argument("objective", (str,), default="steiner"),
                Argument("side", (int,)),
                Argument("policy", (str,), default="auto"),
            ),
        ),
        Command(
            "interpret",
            _tenant_arguments(
                Argument("queries", (list,), required=True),
                Argument("objective", (str,), default="steiner"),
                Argument("side", (int,)),
            ),
        ),
        Command(
            "mutate",
            _tenant_arguments(
                Argument("edits", (list,), required=True),
                Argument("idempotency_key", (str,)),
            ),
        ),
        Command(
            "enumerate",
            _tenant_arguments(
                Argument("terminals", (list,)),
                Argument("budget", (int,)),
                Argument("max_extra", (int,)),
                Argument("continuation", (str,)),
            ),
            streaming=True,
        ),
        Command("stats"),
        Command("metrics"),
    )
}


#: The schema of one ``batch`` entry, validated by the same machinery as
#: a command's parameters: an entry gets the typed ``protocol`` errors a
#: ``connect`` call gets (unknown keys included).  Absent or null
#: ``objective``/``side``/``policy`` fall back to the batch-level values.
BATCH_REQUEST = Command(
    "batch request",
    (
        Argument("terminals", (list,), required=True),
        Argument("objective", (str,)),
        Argument("side", (int,)),
        Argument("solver", (str,)),
        Argument("policy", (str,)),
        Argument("tags", (dict,)),
    ),
)


def lookup_command(name: object) -> Command:
    """Return the declared :class:`Command`, or raise a protocol error."""
    if not isinstance(name, str) or name not in COMMANDS:
        raise ProtocolError(
            f"unknown command {name!r}; available: {sorted(COMMANDS)}"
        )
    return COMMANDS[name]
