"""SIP message grammar: headers, requests, responses (RFC 3261 subset).

Messages serialize to and parse from real RFC 3261 wire text, so everything
measured on the simulated air interface has honest sizes, and the packet
analyzer can dissect capture traces exactly as Wireshark does in Figure 5
of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SipParseError
from repro.sip.uri import NameAddr, SipUri

SIP_VERSION = "SIP/2.0"
CRLF = "\r\n"

METHODS = (
    "INVITE", "ACK", "BYE", "CANCEL", "REGISTER", "OPTIONS", "INFO", "MESSAGE",
    "SUBSCRIBE", "NOTIFY",
)

#: Methods whose 2xx responses create a dialog (and echo Record-Route).
DIALOG_FORMING_METHODS = ("INVITE", "SUBSCRIBE")

REASON_PHRASES = {
    100: "Trying",
    180: "Ringing",
    183: "Session Progress",
    200: "OK",
    202: "Accepted",
    301: "Moved Permanently",
    302: "Moved Temporarily",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    407: "Proxy Authentication Required",
    408: "Request Timeout",
    480: "Temporarily Unavailable",
    481: "Call/Transaction Does Not Exist",
    482: "Loop Detected",
    483: "Too Many Hops",
    486: "Busy Here",
    487: "Request Terminated",
    500: "Server Internal Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Server Time-out",
    603: "Decline",
}

_CANONICAL_CASE = {
    "call-id": "Call-ID",
    "cseq": "CSeq",
    "www-authenticate": "WWW-Authenticate",
    "mime-version": "MIME-Version",
}


def canonical_header_name(name: str) -> str:
    lower = name.lower()
    if lower in _CANONICAL_CASE:
        return _CANONICAL_CASE[lower]
    return "-".join(part.capitalize() for part in lower.split("-"))


class Headers:
    """An ordered, case-insensitive multimap of SIP header fields.

    ``version`` increments on every mutation; :meth:`SipMessage.serialize`
    uses it to memoize the wire form between mutations.
    """

    def __init__(self, items: list[tuple[str, str]] | None = None) -> None:
        self._items: list[tuple[str, str]] = []
        self._version = 0
        for name, value in items or []:
            self.add(name, value)

    @property
    def version(self) -> int:
        """Mutation counter (serialization-cache invalidation key)."""
        return self._version

    def add(self, name: str, value: str) -> None:
        self._items.append((canonical_header_name(name), value.strip()))
        self._version += 1

    def insert_first(self, name: str, value: str) -> None:
        """Insert a header before existing fields of the same name (Via push)."""
        canonical = canonical_header_name(name)
        self._version += 1
        for index, (existing, _) in enumerate(self._items):
            if existing == canonical:
                self._items.insert(index, (canonical, value.strip()))
                return
        self._items.append((canonical, value.strip()))

    def get(self, name: str) -> str | None:
        canonical = canonical_header_name(name)
        for existing, value in self._items:
            if existing == canonical:
                return value
        return None

    def get_all(self, name: str) -> list[str]:
        canonical = canonical_header_name(name)
        return [value for existing, value in self._items if existing == canonical]

    def set(self, name: str, value: str) -> None:
        """Replace all fields of this name with a single one (in place)."""
        canonical = canonical_header_name(name)
        replaced = False
        out = []
        for existing, old_value in self._items:
            if existing != canonical:
                out.append((existing, old_value))
            elif not replaced:
                out.append((canonical, value.strip()))
                replaced = True
        if not replaced:
            out.append((canonical, value.strip()))
        self._items = out
        self._version += 1

    def remove(self, name: str) -> None:
        canonical = canonical_header_name(name)
        self._items = [(n, v) for n, v in self._items if n != canonical]
        self._version += 1

    def extend_last(self, name: str, continuation: str) -> None:
        """Append folded-continuation text to the last field named ``name``.

        Supports obsolete RFC 3261 header line folding during parsing.
        Raises :class:`KeyError` if no field of that name exists.
        """
        canonical = canonical_header_name(name)
        for index in range(len(self._items) - 1, -1, -1):
            existing, value = self._items[index]
            if existing == canonical:
                self._items[index] = (canonical, f"{value} {continuation.strip()}")
                self._version += 1
                return
        raise KeyError(name)

    def bump_version(self) -> None:
        """Invalidate serialization caches keyed on :attr:`version`.

        Escape hatch for callers that changed header-derived state in a way
        the mutator methods cannot see; prefer the mutators themselves.
        """
        self._version += 1

    def remove_first(self, name: str) -> str | None:
        canonical = canonical_header_name(name)
        for index, (existing, value) in enumerate(self._items):
            if existing == canonical:
                del self._items[index]
                self._version += 1
                return value
        return None

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def items(self) -> list[tuple[str, str]]:
        return list(self._items)

    def copy(self) -> "Headers":
        return Headers(list(self._items))

    def __len__(self) -> int:
        return len(self._items)


@dataclass
class Via:
    """One Via header value: ``SIP/2.0/UDP host:port;branch=...``."""

    host: str
    port: int = 5060
    branch: str | None = None
    transport: str = "UDP"
    params: dict[str, str | None] = field(default_factory=dict)

    @classmethod
    def parse(cls, text: str) -> "Via":
        text = text.strip()
        try:
            protocol, rest = text.split(None, 1)
        except ValueError as exc:
            raise SipParseError(f"malformed Via: {text!r}") from exc
        parts = protocol.split("/")
        if len(parts) != 3 or parts[0].upper() != "SIP":
            raise SipParseError(f"malformed Via protocol: {text!r}")
        transport = parts[2].upper()
        params: dict[str, str | None] = {}
        if ";" in rest:
            hostport, param_text = rest.split(";", 1)
            for chunk in param_text.split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                if "=" in chunk:
                    key, value = chunk.split("=", 1)
                    params[key.lower()] = value
                else:
                    params[chunk.lower()] = None
        else:
            hostport = rest
        hostport = hostport.strip()
        if ":" in hostport:
            host, port_text = hostport.rsplit(":", 1)
            try:
                port = int(port_text)
            except ValueError as exc:
                raise SipParseError(f"invalid Via port: {text!r}") from exc
        else:
            host, port = hostport, 5060
        branch = params.pop("branch", None)
        return cls(host=host, port=port, branch=branch, transport=transport, params=params)

    def __str__(self) -> str:
        out = f"SIP/2.0/{self.transport} {self.host}:{self.port}"
        if self.branch:
            out += f";branch={self.branch}"
        for key, value in self.params.items():
            out += f";{key}" if value is None else f";{key}={value}"
        return out


@dataclass
class CSeq:
    number: int
    method: str

    @classmethod
    def parse(cls, text: str) -> "CSeq":
        try:
            number_text, method = text.split()
            return cls(number=int(number_text), method=method.upper())
        except ValueError as exc:
            raise SipParseError(f"malformed CSeq: {text!r}") from exc

    def __str__(self) -> str:
        return f"{self.number} {self.method}"


class SipMessage:
    """Shared behaviour of requests and responses."""

    def __init__(self, headers: Headers | None = None, body: bytes = b"") -> None:
        self.headers = headers if headers is not None else Headers()
        self.body = body
        self._wire: bytes | None = None
        self._wire_key: tuple[int, str, bytes] | None = None

    # -- typed header accessors -------------------------------------------------
    @property
    def call_id(self) -> str | None:
        return self.headers.get("Call-ID")

    @property
    def cseq(self) -> CSeq | None:
        raw = self.headers.get("CSeq")
        return CSeq.parse(raw) if raw else None

    @property
    def from_(self) -> NameAddr | None:
        raw = self.headers.get("From")
        return NameAddr.parse(raw) if raw else None

    @property
    def to(self) -> NameAddr | None:
        raw = self.headers.get("To")
        return NameAddr.parse(raw) if raw else None

    @property
    def contact(self) -> NameAddr | None:
        """The first Contact as a name-addr; ``None`` if absent or ``*``.

        ``*`` is the REGISTER wildcard (RFC 3261 10.2.2), not an address;
        a registrar that honours it reads the raw header.
        """
        raw = self.headers.get("Contact")
        return NameAddr.parse(raw) if raw and raw.strip() != "*" else None

    @property
    def retry_after(self) -> int | None:
        """Retry-After delay in whole seconds (RFC 3261 20.33), or ``None``.

        Tolerant by design: a missing header, garbage, or a negative value
        all read as "no usable Retry-After" rather than raising — overload
        responses come from arbitrary remote stacks. Comments and the
        ``;duration=...`` parameter are ignored, only the leading
        delta-seconds matter.
        """
        raw = self.headers.get("Retry-After")
        if raw is None:
            return None
        value = raw.split(";", 1)[0].split("(", 1)[0].strip()
        if not value.isdigit():
            return None
        return int(value)

    def set_retry_after(self, seconds: int) -> None:
        """Set the Retry-After header to a whole number of seconds."""
        self.headers.set("Retry-After", str(max(0, int(seconds))))

    @property
    def top_via(self) -> Via | None:
        raw = self.headers.get("Via")
        return Via.parse(raw) if raw else None

    @property
    def vias(self) -> list[Via]:
        return [Via.parse(raw) for raw in self.headers.get_all("Via")]

    def record_routes(self) -> list[NameAddr]:
        return [NameAddr.parse(raw) for raw in self.headers.get_all("Record-Route")]

    def routes(self) -> list[NameAddr]:
        return [NameAddr.parse(raw) for raw in self.headers.get_all("Route")]

    def validate(self) -> None:
        """Parse every structured header the stack reads; raise on garbage.

        The accessors above parse lazily, so a message that passed framing
        can still carry a value that raises :class:`SipParseError` deep in
        a handler. Transports call this once on receipt to reject such a
        message at the edge. From (with its tag) and To are mandatory (RFC
        3261 8.1.1.3): every dialog and response is built from them.
        """
        from_ = self.from_
        if from_ is None or from_.tag is None or self.to is None:
            raise SipParseError("missing To, From or From tag")
        # Each accessor raises SipParseError on a malformed value.
        self.cseq, self.contact, self.vias
        self.routes(), self.record_routes()

    def transaction_key(self) -> tuple[str, str]:
        """RFC 3261 (17.1.3/17.2.3) matching key: top branch + CSeq method."""
        via = self.top_via
        cseq = self.cseq
        branch = via.branch if via and via.branch else ""
        method = cseq.method if cseq else ""
        if method == "ACK":
            method = "INVITE"
        return (branch, method)

    # -- serialization -------------------------------------------------------------
    def _start_line(self) -> str:
        raise NotImplementedError

    def serialize(self) -> bytes:
        """Wire form of the message.

        Memoized: re-serializing an unmodified message (transaction-layer
        retransmissions, per-hop transport sends) returns the cached bytes.
        Any header mutation (tracked by :attr:`Headers.version`), body
        swap, or start-line change invalidates the cache.
        """
        start_line = self._start_line()
        key = (self.headers.version, start_line, self.body)
        if self._wire is not None and key == self._wire_key:
            return self._wire
        self.headers.set("Content-Length", str(len(self.body)))
        lines = [start_line]
        lines.extend(f"{name}: {value}" for name, value in self.headers.items())
        head = CRLF.join(lines) + CRLF + CRLF
        self._wire = head.encode("utf-8") + self.body
        # Record the post-Content-Length headers version so the next
        # unmutated serialize() hits the cache.
        self._wire_key = (self.headers.version, start_line, self.body)
        return self._wire

    def __bytes__(self) -> bytes:
        return self.serialize()


class SipRequest(SipMessage):
    """A SIP request (start line ``METHOD uri SIP/2.0``)."""

    def __init__(
        self,
        method: str,
        uri: SipUri | str,
        headers: Headers | None = None,
        body: bytes = b"",
    ) -> None:
        super().__init__(headers, body)
        self.method = method.upper()
        self.uri = SipUri.parse(uri) if isinstance(uri, str) else uri

    def _start_line(self) -> str:
        return f"{self.method} {self.uri} {SIP_VERSION}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SipRequest({self.method} {self.uri})"

    def create_response(
        self, status: int, reason: str | None = None, to_tag: str | None = None
    ) -> "SipResponse":
        """Build a response per RFC 3261 8.2.6: copy Via/From/To/Call-ID/CSeq."""
        response = SipResponse(status, reason)
        for name in ("Via", "From", "Call-Id", "Cseq"):
            for value in self.headers.get_all(name):
                response.headers.add(name, value)
        cseq = self.cseq
        if (
            cseq is not None
            and cseq.method in DIALOG_FORMING_METHODS
            and 101 <= status < 300
        ):
            # Dialog-forming responses echo the recorded route set (12.1.1).
            for value in self.headers.get_all("Record-Route"):
                response.headers.add("Record-Route", value)
        to_value = self.headers.get("To") or ""
        if to_tag and ";tag=" not in to_value:
            to_value = str(NameAddr.parse(to_value).with_tag(to_tag))
        response.headers.add("To", to_value)
        return response


class SipResponse(SipMessage):
    """A SIP response (start line ``SIP/2.0 status reason``)."""

    def __init__(
        self,
        status: int,
        reason: str | None = None,
        headers: Headers | None = None,
        body: bytes = b"",
    ) -> None:
        super().__init__(headers, body)
        self.status = status
        self.reason = reason if reason is not None else REASON_PHRASES.get(status, "Unknown")

    def _start_line(self) -> str:
        return f"{SIP_VERSION} {self.status} {self.reason}"

    @property
    def is_provisional(self) -> bool:
        return 100 <= self.status < 200

    @property
    def is_final(self) -> bool:
        return self.status >= 200

    @property
    def is_success(self) -> bool:
        return 200 <= self.status < 300

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SipResponse({self.status} {self.reason})"


def parse_message(data: bytes) -> SipRequest | SipResponse:
    """Parse wire bytes into a request or response.

    Raises :class:`SipParseError` on malformed input.
    """
    try:
        head, _, body = data.partition(b"\r\n\r\n")
        text = head.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SipParseError("SIP message head is not valid UTF-8") from exc
    lines = text.split(CRLF)
    if not lines or not lines[0].strip():
        raise SipParseError("empty SIP message")
    start_line = lines[0]
    headers = Headers()
    previous_name: str | None = None
    for line in lines[1:]:
        if not line.strip():
            continue
        if line[0] in " \t" and previous_name is not None:
            # Header line folding (obsolete but legal): append to previous.
            headers.extend_last(previous_name, line)
            continue
        if ":" not in line:
            raise SipParseError(f"malformed header line: {line!r}")
        name, value = line.split(":", 1)
        if not name.strip() or name != name.strip():
            raise SipParseError(f"malformed header name: {name!r}")
        headers.add(name.strip(), value)
        previous_name = name.strip()

    if start_line.startswith(SIP_VERSION):
        parts = start_line.split(" ", 2)
        if len(parts) < 3:
            raise SipParseError(f"malformed status line: {start_line!r}")
        try:
            status = int(parts[1])
        except ValueError as exc:
            raise SipParseError(f"malformed status code: {start_line!r}") from exc
        if not 100 <= status <= 699:
            raise SipParseError(f"status code out of range: {status}")
        return SipResponse(status, parts[2], headers=headers, body=body)

    parts = start_line.split(" ")
    if len(parts) != 3 or parts[2] != SIP_VERSION:
        raise SipParseError(f"malformed request line: {start_line!r}")
    method, uri_text, _ = parts
    if not method.isupper() or not method.isalpha():
        raise SipParseError(f"malformed method: {method!r}")
    uri = SipUri.parse(uri_text)
    return SipRequest(method, uri, headers=headers, body=body)
