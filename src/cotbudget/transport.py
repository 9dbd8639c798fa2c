"""The HTTP/1.1 client of ``collect``: one POST at a time on a worker's kept-alive connection.

The client speaks what a chat-completions POST needs, over the standard
library's ``socket``. It frames a request as the standard library's HTTP
client module frames one, and reads the reply itself: the status line,
1xx interim replies (skipped), at most 100 headers of at most 65,536 bytes
each, then a body framed by chunks, by ``Content-Length`` or by the close
of the connection. A fault in that framing is a ReplyError.
``_post_with_retries`` retries it as it retries an OSError. ``ssl`` is
imported only for an https:// endpoint, and neither that HTTP client
module nor ``email`` (which it loads) ever, so a plain-http sweep loads
none of them. A URL is shown only through ``shown_url``, which drops its
``user:password@``.
"""
from __future__ import annotations

import functools
import io
import json
import math
import os
import socket
import sys
import time
from urllib.parse import SplitResult, urlsplit

from .errors import EndpointError

API_KEY_ENV = "COTBUDGET_API_KEY"
BACKOFF_BASE_SECONDS = 0.25
BACKOFF_CAP_SECONDS = 8.0
# The largest reply body read. A 32k-token completion is about 128 KB; a
# larger body is a failed cell, not a record every later command must parse.
MAX_REPLY_BYTES = 8 << 20
RETRY_AFTER_MAX_SECONDS = 60
# The standard library client's limits: a longer line, or a head with more
# lines (its blank line counted), is a ReplyError.
MAX_LINE = 65536
MAX_HEADERS = 100
DEFAULT_PORTS = {"http": 80, "https": 443}


class ReplyError(Exception):
    """A reply that breaks HTTP/1.1 framing; the message says how."""


def shown_url(url: str) -> str:
    """url as it may be shown: its authority without ``user:password@``.

    The authority ends at the first "/", "?" or "#", as RFC 3986 reads it,
    so an "@" in the path or the query is kept. A password must
    percent-encode those three characters; where it does not, urlsplit
    reads no password either, and a port that is not a number is refused
    without showing the URL (see _Transport and _proxy).
    """
    scheme, sep, rest = url.partition("://")
    if not sep:
        scheme, rest = "", url
    end = min((i for i in map(rest.find, "/?#") if i >= 0), default=len(rest))
    return scheme + sep + rest[:end].rpartition("@")[2] + rest[end:]


def _port(url: SplitResult) -> int | None:
    """url's port, None when it names none, or -1 when it is not a number up to 65535.

    urlsplit's own error shows the text after the last ":" of the
    authority, which is part of a password that holds an unescaped "/".
    """
    try:
        return url.port
    except ValueError:
        return -1


def _check_host(host: str, what: str) -> None:
    """Refuse, as a ValueError naming ``what``, a host that the idna codec would not pass
    as it is: one not ASCII, or with an empty label but a final one, or a label of 64 or
    more characters. A host is sent to the resolver as its ASCII bytes, so an http://
    sweep loads no IDNA codec (an https:// one does, through ssl's server_hostname)."""
    *labels, last = host.split(".")
    if not (host.isascii() and all(0 < len(label) < 64 for label in labels) and len(last) < 64):
        raise ValueError(f"{what} names a host that is not ASCII, or has an empty label or a "
                         "label of 64 or more characters")


def _request_headers() -> dict[str, str]:
    """Every request's head fields, with Authorization when COTBUDGET_API_KEY is set.

    A key that an HTTP header cannot carry, one with a control character
    (CR and LF among them) or a character outside Latin-1, is a ValueError
    that names the variable, never the key.
    """
    from . import __version__

    key = os.environ.get(API_KEY_ENV, "")
    if not key.isprintable() or any(c > "\xff" for c in key):
        raise ValueError(f"{API_KEY_ENV} holds a character that an HTTP header cannot carry "
                         "(a control character, or one outside Latin-1)")
    headers = {
        "Content-Type": "application/json",
        "User-Agent": f"cotbudget/{__version__}",
        "Accept-Encoding": "identity",
    }
    if key:
        headers["Authorization"] = f"Bearer {key}"
    return headers


def _tls_context():
    """The default TLS context, trusting REQUESTS_CA_BUNDLE or CURL_CA_BUNDLE when set."""
    return _load_tls_context(os.environ.get("REQUESTS_CA_BUNDLE")
                             or os.environ.get("CURL_CA_BUNDLE"))


@functools.lru_cache(maxsize=1)  # the last one: a config's check and each worker share it
def _load_tls_context(bundle: str | None):
    import ssl

    try:
        if bundle and os.path.isdir(bundle):
            return ssl.create_default_context(capath=bundle)
        return ssl.create_default_context(cafile=bundle or None)
    except OSError as exc:  # ssl.SSLError included
        raise EndpointError(f"cannot load the CA bundle {bundle}: {exc}") from exc


def _proxy(url: SplitResult) -> SplitResult | None:
    """The proxy that an endpoint's split URL goes through, split, or None (see _proxy_for).

    A proxy that is not http://, or lacks a host or a valid port, is a
    ValueError, which shows its URL through shown_url, or not at all when
    its port is not a number.
    """
    proxy = _proxy_for(url.scheme, url.hostname)
    if not proxy:
        return None
    proxy = proxy if "://" in proxy else f"http://{proxy}"
    via = urlsplit(proxy)
    if via.scheme != "http":
        raise ValueError(f"only http:// proxies are supported, got {shown_url(proxy)!r}")
    port = _port(via)
    if port == -1:
        raise ValueError("the proxy's port could not be cast to an integer from 0 to 65535; "
                         'a password in its URL must percent-encode "/"')
    if not via.hostname or port == 0:
        raise ValueError(f"the proxy {shown_url(proxy)!r} needs a host, and a port from 1 "
                         "to 65535 if it names one")
    _check_host(via.hostname, f"the proxy {shown_url(proxy)!r}")
    return via


def _proxy_for(scheme: str, host: str) -> str | None:
    """The proxy urllib.request would use for scheme://host, or None.

    On Linux getproxies() reads only variables named {scheme}_proxy or
    all_proxy, in any letter case, so without one there is no proxy and
    urllib.request, which loads hashlib and tempfile, is not imported. On
    macOS and Windows it also reads the system's settings, so it always runs.
    """
    names = (f"{scheme}_proxy", "all_proxy")
    if sys.platform != "darwin" and os.name != "nt" and not any(
        name.lower() in names for name in os.environ
    ):
        return None
    import urllib.request

    proxies = urllib.request.getproxies()
    proxy = proxies.get(scheme) or proxies.get("all")
    if proxy and urllib.request.proxy_bypass(host):
        return None
    return proxy


class _DeadlineReader(io.RawIOBase):
    """A socket's raw reader that gives each read the time left until ``deadline``.

    Past the deadline a read raises TimeoutError("timed out"), as a plain
    socket's own timeout reads, over TLS too, so a reply that trickles in
    ends there however small its pieces. Closing it leaves the socket open.
    """

    def __init__(self, sock, deadline: float = math.inf) -> None:
        self._sock, self.deadline = sock, deadline

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("timed out")
        self._sock.settimeout(left)
        try:
            return self._sock.recv_into(buffer)
        except TimeoutError:  # an SSLSocket's reads "The read operation timed out"
            raise TimeoutError("timed out") from None


class _Transport:
    """One sweep worker's client: where its requests go, worked out once, or a
    ValueError if this client cannot send there; then its kept-alive connection.

    The endpoint must be an http:// or https:// URL of printable ASCII with a
    host and no ``user:password@`` (the credential goes in COTBUDGET_API_KEY).
    Then the API key and the proxy (HTTP_PROXY, HTTPS_PROXY, ALL_PROXY and
    NO_PROXY, as urllib.request reads them; see _proxy_for) are checked and,
    last, an https:// endpoint's TLS context is loaded (an EndpointError if
    its CA bundle cannot be). No message shows a secret. SweepConfig builds
    one only for these checks. A worker's first POST opens the socket, which
    it keeps alive for all its cells and closes when it stops (close(), or
    the end of a ``with`` block).

    A request is framed as the standard library frames it: the request line, Host
    (with no port when the port is the scheme's default), Content-Length,
    then _request_headers in order, in Latin-1. An http:// request through
    a proxy names the absolute URL and carries Proxy-Authorization; an
    https:// one goes through an HTTP/1.1 CONNECT tunnel, whose request
    carries Proxy-Authorization, then Host.
    """

    opened = False  # True once a socket opened, past any tunnel and TLS handshake

    def __init__(self, endpoint: str, timeout: float) -> None:
        url, shown = urlsplit(endpoint), shown_url(endpoint)
        if "@" in url.netloc:
            raise ValueError(f"endpoint {shown!r} must not carry user:password@; "
                             f"set the credential in {API_KEY_ENV}")
        port = _port(url)
        if port == -1:
            raise ValueError("Port could not be cast to an integer from 0 to 65535 in the endpoint;"
                             f' a password must percent-encode "/", and goes in {API_KEY_ENV}')
        if (url.scheme not in DEFAULT_PORTS or not url.hostname or port == 0
                or not all("!" <= c <= "~" for c in endpoint)):
            raise ValueError(f"endpoint must be an http:// or https:// URL, got {shown!r}")
        _check_host(url.hostname, f"endpoint {shown!r}")
        headers = _request_headers()
        via = _proxy(url)
        self.timeout = timeout
        self._host, port = url.hostname, port or DEFAULT_PORTS[url.scheme]
        target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        authority = f"[{self._host.partition('%')[0]}]" if ":" in self._host else self._host
        if port != DEFAULT_PORTS[url.scheme]:
            authority += f":{port}"
        self._tunnel = None
        if via:
            self._address = (via.hostname.encode("ascii"), via.port or 80)
            auth = _proxy_authorization(via)
            if url.scheme == "http":
                # The proxy takes the absolute URL as the request target.
                target, authority = f"http://{url.netloc}{target}", url.netloc
                headers.update(auth)
            else:
                # As the standard library frames it from Python 3.12 on: HTTP/1.1,
                # with Host last (RFC 9110 asks for it).
                host = f"[{self._host}]:{port}" if ":" in self._host else f"{self._host}:{port}"
                auth["Host"] = host
                self._tunnel = "".join(
                    [f"CONNECT {host} HTTP/1.1\r\n",
                     *(f"{name}: {value}\r\n" for name, value in auth.items()), "\r\n"]
                ).encode("latin-1")
        else:
            self._address = (self._host.encode("ascii"), port)
        self._head = f"POST {target} HTTP/1.1\r\nHost: {authority}\r\nContent-Length: ".encode()
        self._fields = "".join(
            f"\r\n{name}: {value}" for name, value in headers.items()
        ).encode("latin-1") + b"\r\n\r\n"
        self._context, self._idle_closed = None, ConnectionError
        if url.scheme == "https":
            import ssl

            self._context = _tls_context()
            # What a reused connection that the server closed without close_notify
            # raises when a request larger than one TLS record is written to it.
            self._idle_closed = (ConnectionError, ssl.SSLEOFError)
        self.sock: socket.socket | None = None
        self.reader: io.BufferedReader | None = None

    def __enter__(self) -> _Transport:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the reader and its socket together; the next POST opens a new connection."""
        if self.sock is not None:
            self.reader.close()
            self.sock.close()
            self.sock = self.reader = None

    def post(self, body: bytes) -> tuple[int, str | None, bytes]:
        """POST body; returns (status, Retry-After, reply body).

        The reply body is read in full, whatever the status, so the
        connection can carry the next request. A body longer than
        MAX_REPLY_BYTES is not: its first MAX_REPLY_BYTES + 1 bytes are
        returned and the connection is closed. Every read of the reply,
        status line and headers included, is given the time left of
        ``timeout`` counted from the request (see _DeadlineReader), so a
        reply that trickles in past it is a TimeoutError. A kept-alive connection that the server closed while
        idle fails before any reply arrives, with a ConnectionError, or over
        TLS an SSLEOFError; the request is then sent once more on a new
        connection. Any other failure (an OSError, or a
        ReplyError for a reply that breaks its framing) closes the
        connection and propagates.
        """
        deadline = time.monotonic() + self.timeout
        message = b"%s%d%s%s" % (self._head, len(body), self._fields, body)
        try:
            reused = self.sock is not None
            try:
                status, headers, keep = self._exchange(message, deadline)
            except self._idle_closed:
                if not reused:
                    raise
                self.close()
                status, headers, keep = self._exchange(message, deadline)
            data, framed = _read_body(self.reader, status, headers)
            if len(data) > MAX_REPLY_BYTES or not (keep and framed):
                self.close()  # the rest of the body is never read, or the server ends it
            retry_after = headers.get("retry-after")
            return status, ", ".join(retry_after) if retry_after else None, data
        except BaseException:
            self.close()
            raise

    def _exchange(self, message: bytes,
                  deadline: float) -> tuple[int, dict[str, list[str]], bool]:
        """Send message, opening the connection if need be; returns _read_head's reply head."""
        if self.sock is None:
            self._open(deadline)
        self.sock.settimeout(self.timeout)  # a read of a reply left it shorter
        self.sock.sendall(message)
        self.reader.raw.deadline = deadline
        return _read_head(self.reader)

    def _open(self, deadline: float) -> None:
        sock = socket.create_connection(self._address, self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tunnel:
                sock.sendall(self._tunnel)
                with io.BufferedReader(_DeadlineReader(sock, deadline)) as reader:
                    _read_tunnel_reply(reader)
            if self._context is not None:
                sock = self._context.wrap_socket(sock, server_hostname=self._host)
        except BaseException:
            sock.close()
            raise
        self.sock, self.reader = sock, io.BufferedReader(_DeadlineReader(sock))
        self.opened = True


def _proxy_authorization(via: SplitResult) -> dict[str, str]:
    """The proxy's ``user:password@`` as a basic Proxy-Authorization header, or none."""
    if not via.username:
        return {}
    from base64 import b64encode
    from urllib.parse import unquote

    credentials = f"{unquote(via.username)}:{unquote(via.password or '')}".encode("utf-8")
    return {"Proxy-Authorization": f"Basic {b64encode(credentials).decode('ascii')}"}


def _read_line(reader: io.BufferedReader, what: str) -> bytes:
    line = reader.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise ReplyError(f"got more than {MAX_LINE} bytes when reading {what}")
    return line


def _read_status(reader: io.BufferedReader) -> tuple[str, int, str]:
    """(version, status, reason) from the status line.

    End of file before it is a ConnectionResetError, as the standard
    library's RemoteDisconnected is one.
    """
    line = _read_line(reader, "status line")
    if not line:
        raise ConnectionResetError("Remote end closed connection without response")
    if not line.endswith(b"\n"):
        raise ReplyError("the reply ended inside its status line")
    version, status, reason = (line.decode("latin-1").split(None, 2) + ["", ""])[:3]
    if version not in ("HTTP/1.0", "HTTP/0.9") and not version.startswith("HTTP/1."):
        raise ReplyError(f"bad status line {line[:80]!r}")
    try:
        code = int(status)
    except ValueError:
        code = 0
    if not 100 <= code <= 999:
        raise ReplyError(f"bad status line {line[:80]!r}")
    return version, code, reason.strip()


def _read_head(reader: io.BufferedReader) -> tuple[int, dict[str, list[str]], bool]:
    """The final reply's status and headers, past any 1xx interim replies, and
    whether the connection may carry another request once the body is read:
    HTTP/1.1 without ``Connection: close``.

    The headers map each lower-cased name to its values in order. There are
    at most MAX_HEADERS lines, the blank one counted, as the standard library reads.
    """
    while True:
        version, status, _ = _read_status(reader)
        headers: dict[str, list[str]] = {}
        for _ in range(MAX_HEADERS):
            line = _read_line(reader, "header line")
            if line in (b"\r\n", b"\n"):
                break
            if not line.endswith(b"\n"):
                raise ReplyError("the reply ended inside its headers")
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or name[:1] in (" ", "\t"):
                raise ReplyError(f"bad header line {line[:80]!r}")
            headers.setdefault(name.lower(), []).append(value.lstrip(" \t").rstrip("\r\n"))
        else:
            raise ReplyError(f"got more than {MAX_HEADERS} headers")
        if status >= 200:
            keep = version not in ("HTTP/1.0", "HTTP/0.9") and "close" not in (
                headers.get("connection", [""])[0].lower())
            return status, headers, keep


def _read_tunnel_reply(reader: io.BufferedReader) -> None:
    """Read a proxy's reply to CONNECT; anything but 200 is an OSError naming its status."""
    _, status, reason = _read_status(reader)
    if status != 200:
        raise OSError(f"Tunnel connection failed: {status} {reason}")
    _skip_lines(reader, "header line")


def _read_body(reader: io.BufferedReader, status: int,
               headers: dict[str, list[str]]) -> tuple[bytes, bool]:
    """The reply body, cut at MAX_REPLY_BYTES + 1 bytes, and whether its end was
    framed (not the close of the connection).

    Framing follows the standard library: chunks when the first Transfer-Encoding is
    "chunked", else none for 204 and 304, else the first Content-Length
    when int() reads it as 0 or more, else everything up to the close. A
    body shorter than its framing says is a ReplyError.
    """
    first = {name: values[0] for name, values in headers.items()}
    limit = MAX_REPLY_BYTES + 1
    if first.get("transfer-encoding", "").lower() == "chunked":
        return _read_chunked(reader, limit), True
    length = 0 if status in (204, 304) else None
    if length is None and first.get("content-length"):
        try:
            length = int(first["content-length"])
        except ValueError:
            pass
        if length is not None and length < 0:
            length = None
    if length is None:
        return reader.read(limit), False
    want = min(length, limit)
    data = reader.read(want)
    if len(data) < want:
        raise ReplyError(
            f"IncompleteRead({len(data)} bytes read, {length - len(data)} more expected)")
    return data, True


def _read_chunked(reader: io.BufferedReader, limit: int) -> bytes:
    """A chunked body, or its first ``limit`` bytes; trailers are read and dropped."""
    pieces: list[bytes] = []
    got = 0
    while True:
        line = _read_line(reader, "chunk size")
        try:
            size = int(line.partition(b";")[0], 16)
        except ValueError:
            size = -1
        if size < 0:
            raise ReplyError(f"IncompleteRead({got} bytes read)")
        if size == 0:
            break
        want = min(size, limit - got)
        piece = reader.read(want)
        if len(piece) < want:
            raise ReplyError(f"IncompleteRead({got} bytes read)")
        pieces.append(piece)
        got += want
        if got == limit:
            return b"".join(pieces)
        reader.read(2)  # the chunk's CRLF; at the close, the next size line fails
    _skip_lines(reader, "trailer line")
    return b"".join(pieces)


def _skip_lines(reader: io.BufferedReader, what: str) -> None:
    """Read lines up to a blank one, or to the close, as a few servers send no blank line."""
    while _read_line(reader, what) not in (b"", b"\r\n", b"\n"):
        pass


def _retry_after_seconds(value: str | None) -> int:
    """A delta-seconds Retry-After value; 0 for none, an HTTP-date, junk or above the cap."""
    value = (value or "").strip()
    if value.isascii() and value.isdigit() and int(value) <= RETRY_AFTER_MAX_SECONDS:
        return int(value)
    return 0


def _post_with_retries(
    retries: int, transport: _Transport, payload: dict
) -> tuple[dict | None, str | None, int]:
    """Returns (response JSON, error, retries used): POSTs payload on transport, and
    retries transport errors, 429 and 5xx up to ``retries`` times.

    The wait before a retry is the exponential backoff, or the reply's
    Retry-After when a 429 or 503 asks for longer.
    """
    body = json.dumps(payload, allow_nan=False).encode("utf-8")
    last_error = "no attempt made"
    retry_after = 0
    for attempt in range(retries + 1):
        if attempt:
            backoff = min(BACKOFF_BASE_SECONDS * 2 ** (attempt - 1), BACKOFF_CAP_SECONDS)
            time.sleep(max(backoff, retry_after))
        retry_after = 0
        try:
            status, retry_after_header, data = transport.post(body)
        except (OSError, ReplyError) as exc:
            last_error = f"transport: {str(exc) or type(exc).__name__}"
            continue
        if len(data) > MAX_REPLY_BYTES:
            return None, f"reply body longer than {MAX_REPLY_BYTES} bytes", attempt
        if status == 429 or status >= 500:
            last_error = f"HTTP {status}"
            if status in (429, 503):
                retry_after = _retry_after_seconds(retry_after_header)
            continue
        if status != 200:
            return None, f"HTTP {status}", attempt
        try:
            return json.loads(data), None, attempt
        except (ValueError, RecursionError):  # RecursionError: nested too deeply
            return None, "unparseable response body", attempt
    return None, last_error, retries
