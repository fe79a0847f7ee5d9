"""Simulated TLS: certificates, trust stores, handshake, record layer.

The protocol is a compressed TLS-RSA: the client validates the server's
certificate chain against its trust store, encrypts a pre-master secret
under the leaf's RSA key, and both sides derive symmetric record keys.
Handshake messages travel as JSON with a ``TLSH`` magic; application data
travels in binary ``TLSR`` records (stream-cipher ciphertext plus an
HMAC-SHA256 tag), so a wire tap sees no plaintext after the hello.

What matters for the reproduction is that interception semantics are
real: a man-in-the-middle succeeds exactly when the victim's trust store
contains the attacker's CA (the paper installed a self-signed certificate
on the measurement phone) and the victim does not pin the upstream key
(the paper notes no offer wall used pinning).
"""

from __future__ import annotations

import hashlib
import hmac
import json
import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.net import crypto
from repro.net.errors import (
    CertificatePinningError,
    CertificateVerificationError,
    TlsError,
)
from repro.net.fabric import Connection, ConnectionHandler, ConnectionInfo

_HANDSHAKE_MAGIC = b"TLSH"
_RECORD_MAGIC = b"TLSR"
_RESUME_MAGIC = b"TLSS"
_MAC_LEN = 32
_KEY_BITS = 256  # tiny keys: handshakes must be fast inside tests
_TICKET_LEN = 16


@dataclass(frozen=True)
class Certificate:
    """An X.509-shaped certificate binding a subject name to an RSA key."""

    subject: str
    public_key: crypto.RsaPublicKey
    issuer: str
    serial: int
    not_before: int  # inclusive, in simulation days
    not_after: int   # inclusive
    signature: int

    def tbs_bytes(self) -> bytes:
        """The to-be-signed encoding (everything except the signature)."""
        material = "|".join([
            self.subject,
            f"{self.public_key.modulus:x}",
            f"{self.public_key.exponent:x}",
            self.issuer,
            str(self.serial),
            str(self.not_before),
            str(self.not_after),
        ])
        return material.encode("utf-8")

    def fingerprint(self) -> str:
        return self.public_key.fingerprint()

    @property
    def is_self_signed(self) -> bool:
        return self.subject == self.issuer

    def to_json(self) -> Dict[str, object]:
        return {
            "subject": self.subject,
            "modulus": f"{self.public_key.modulus:x}",
            "exponent": self.public_key.exponent,
            "issuer": self.issuer,
            "serial": self.serial,
            "not_before": self.not_before,
            "not_after": self.not_after,
            "signature": f"{self.signature:x}",
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "Certificate":
        try:
            return cls(
                subject=str(data["subject"]),
                public_key=crypto.RsaPublicKey(
                    modulus=int(str(data["modulus"]), 16),
                    exponent=int(data["exponent"]),  # type: ignore[arg-type]
                ),
                issuer=str(data["issuer"]),
                serial=int(data["serial"]),  # type: ignore[arg-type]
                not_before=int(data["not_before"]),  # type: ignore[arg-type]
                not_after=int(data["not_after"]),  # type: ignore[arg-type]
                signature=int(str(data["signature"]), 16),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise TlsError(f"malformed certificate: {exc}") from exc


class CertificateAuthority:
    """Issues certificates; may be a root (self-signed) or an attacker CA."""

    def __init__(self, name: str, rng: random.Random, key_bits: int = _KEY_BITS) -> None:
        self.name = name
        self._keypair = crypto.generate_keypair(key_bits, rng)
        self._next_serial = 1

    @property
    def public_key(self) -> crypto.RsaPublicKey:
        return self._keypair.public

    def state_dict(self) -> Dict[str, object]:
        """Only the serial counter moves after construction; the keypair
        is a deterministic function of the construction RNG."""
        return {"next_serial": self._next_serial}

    def load_state(self, state: Dict[str, object]) -> None:
        self._next_serial = int(state["next_serial"])  # type: ignore[arg-type]

    def self_certificate(self, not_before: int = 0, not_after: int = 10_000) -> Certificate:
        return self._issue(self.name, self._keypair.public, not_before, not_after)

    def issue(
        self,
        subject: str,
        public_key: crypto.RsaPublicKey,
        not_before: int = 0,
        not_after: int = 10_000,
    ) -> Certificate:
        return self._issue(subject, public_key, not_before, not_after)

    def _issue(
        self,
        subject: str,
        public_key: crypto.RsaPublicKey,
        not_before: int,
        not_after: int,
    ) -> Certificate:
        serial = self._next_serial
        self._next_serial += 1
        unsigned = Certificate(
            subject=subject,
            public_key=public_key,
            issuer=self.name,
            serial=serial,
            not_before=not_before,
            not_after=not_after,
            signature=0,
        )
        signature = crypto.sign(unsigned.tbs_bytes(), self._keypair.private)
        return Certificate(
            subject=subject,
            public_key=public_key,
            issuer=self.name,
            serial=serial,
            not_before=not_before,
            not_after=not_after,
            signature=signature,
        )


class TrustStore:
    """The set of root CAs a client trusts.

    Installing a self-signed certificate on an Android phone (as the
    paper's measurement setup does for mitmproxy) corresponds to calling
    :meth:`add_root` with the proxy CA's self-certificate.
    """

    def __init__(self) -> None:
        self._roots: Dict[str, crypto.RsaPublicKey] = {}

    def add_root(self, certificate: Certificate) -> None:
        if not certificate.is_self_signed:
            raise ValueError("only self-signed certificates can be roots")
        if not crypto.verify(certificate.tbs_bytes(), certificate.signature,
                             certificate.public_key):
            raise CertificateVerificationError("root certificate signature invalid")
        self._roots[certificate.subject] = certificate.public_key

    def remove_root(self, name: str) -> None:
        self._roots.pop(name, None)

    def trusts(self, name: str) -> bool:
        return name in self._roots

    def root_names(self) -> List[str]:
        return sorted(self._roots)

    def verify_chain(self, chain: Sequence[Certificate], hostname: str,
                     today: int) -> Certificate:
        """Validate a leaf-first chain; return the leaf on success."""
        if not chain:
            raise CertificateVerificationError("empty certificate chain")
        leaf = chain[0]
        if leaf.subject != hostname:
            raise CertificateVerificationError(
                f"name mismatch: certificate for {leaf.subject!r}, wanted {hostname!r}")
        for index, certificate in enumerate(chain):
            if not certificate.not_before <= today <= certificate.not_after:
                raise CertificateVerificationError(
                    f"certificate for {certificate.subject!r} not valid on day {today}")
            issuer_key = self._issuer_key(chain, index)
            if issuer_key is None:
                raise CertificateVerificationError(
                    f"untrusted issuer {certificate.issuer!r} "
                    f"for {certificate.subject!r}")
            if not crypto.verify(certificate.tbs_bytes(), certificate.signature, issuer_key):
                raise CertificateVerificationError(
                    f"bad signature on certificate for {certificate.subject!r}")
            if certificate.issuer in self._roots:
                return leaf
        raise CertificateVerificationError("chain does not terminate at a trusted root")

    def _issuer_key(self, chain: Sequence[Certificate], index: int) -> Optional[crypto.RsaPublicKey]:
        certificate = chain[index]
        if certificate.issuer in self._roots:
            return self._roots[certificate.issuer]
        if index + 1 < len(chain) and chain[index + 1].subject == certificate.issuer:
            return chain[index + 1].public_key
        return None


# ---------------------------------------------------------------------------
# Record layer
# ---------------------------------------------------------------------------


class _RecordCodec:
    """Encrypt/decrypt TLSR records with derived keys."""

    def __init__(self, enc_key: bytes, mac_key: bytes) -> None:
        self._enc_key = enc_key
        # Record MACs use the pad-absorbed HMAC built here, once per
        # codec: resumed sessions get fresh keys, so a process-wide
        # per-key memo would gain an entry per connection.
        self._mac_base = hmac.new(mac_key, digestmod=hashlib.sha256)
        self._send_seq = 0
        self._recv_seq = 0

    def _mac(self, data: bytes) -> bytes:
        mac = self._mac_base.copy()
        mac.update(data)
        return mac.digest()

    def seal(self, plaintext: bytes) -> bytes:
        seq = self._send_seq
        self._send_seq += 1
        nonce = seq.to_bytes(8, "big")
        ciphertext = crypto.keystream_xor(self._enc_key, nonce, plaintext)
        mac = self._mac(nonce + ciphertext)
        return (_RECORD_MAGIC + nonce
                + len(ciphertext).to_bytes(4, "big") + ciphertext + mac)

    def open(self, record: bytes) -> bytes:
        if record[:4] != _RECORD_MAGIC:
            raise TlsError("not a TLS record")
        nonce = record[4:12]
        length = int.from_bytes(record[12:16], "big")
        ciphertext = record[16:16 + length]
        mac = record[16 + length:16 + length + _MAC_LEN]
        if len(ciphertext) != length or len(mac) != _MAC_LEN:
            raise TlsError("truncated TLS record")
        expected = self._mac(nonce + ciphertext)
        if not crypto.constant_time_equal(mac, expected):
            raise TlsError("record MAC failure")
        seq = int.from_bytes(nonce, "big")
        if seq != self._recv_seq:
            raise TlsError(f"record replay/reorder: got seq {seq}, "
                           f"expected {self._recv_seq}")
        self._recv_seq += 1
        return crypto.keystream_xor(self._enc_key, nonce, ciphertext)


def _handshake_message(payload: Mapping[str, object]) -> bytes:
    return _HANDSHAKE_MAGIC + json.dumps(payload, sort_keys=True).encode("utf-8")


def _parse_handshake(data: bytes, expected_type: str) -> Dict[str, object]:
    if data[:4] != _HANDSHAKE_MAGIC:
        raise TlsError("expected handshake message")
    try:
        message = json.loads(data[4:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TlsError("undecodable handshake message") from exc
    if not isinstance(message, dict) or message.get("type") != expected_type:
        raise TlsError(f"expected {expected_type!r} handshake message")
    return message


def is_handshake_bytes(data: bytes) -> bool:
    return data[:4] == _HANDSHAKE_MAGIC


def is_record_bytes(data: bytes) -> bool:
    return data[:4] == _RECORD_MAGIC


def is_resume_bytes(data: bytes) -> bool:
    return data[:4] == _RESUME_MAGIC


# ---------------------------------------------------------------------------
# Session resumption
# ---------------------------------------------------------------------------
#
# A compressed session-ticket scheme.  When the server carries a
# :class:`ServerSessionStore`, its ``server_finished`` message includes a
# ticket bound (by HMAC) to the record keys both sides just derived.  A
# client holding the ticket and the base keys can later send a single
# ``TLSS`` flight — ticket, a resumption counter, and its first sealed
# record — skipping both handshake round trips.  Every quantity involved
# is a pure function of the original handshake transcript, so resumption
# never draws on an RNG and seeded runs stay byte-identical.


def _mint_ticket(mac_key: bytes) -> bytes:
    return crypto.hmac_sha256(mac_key, b"session-ticket")[:_TICKET_LEN]


def _resumption_keys(enc_key: bytes, mac_key: bytes,
                     counter: int) -> Tuple[bytes, bytes]:
    """Fresh record keys for one resumption, bound to its counter."""
    label = counter.to_bytes(4, "big")
    return (crypto.hmac_sha256(enc_key, b"resume-enc" + label),
            crypto.hmac_sha256(mac_key, b"resume-mac" + label))


class ServerSessionStore:
    """Server-side ticket table: ticket -> base record keys.

    One store per listening server; shared across connections (and
    threads, in sharded runs), hence the lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tickets: Dict[bytes, Tuple[bytes, bytes]] = {}

    def put(self, ticket: bytes, enc_key: bytes, mac_key: bytes) -> None:
        with self._lock:
            self._tickets[ticket] = (enc_key, mac_key)

    def get(self, ticket: bytes) -> Optional[Tuple[bytes, bytes]]:
        with self._lock:
            return self._tickets.get(ticket)

    def __len__(self) -> int:
        with self._lock:
            return len(self._tickets)

    def state_dict(self) -> Dict[str, object]:
        with self._lock:
            return {
                "tickets": [
                    [ticket.hex(), enc_key.hex(), mac_key.hex()]
                    for ticket, (enc_key, mac_key) in sorted(
                        self._tickets.items())],
            }

    def load_state(self, state: Dict[str, object]) -> None:
        with self._lock:
            self._tickets = {
                bytes.fromhex(ticket): (bytes.fromhex(enc_key),
                                        bytes.fromhex(mac_key))
                for ticket, enc_key, mac_key in (
                    state["tickets"])}  # type: ignore[union-attr]


# ---------------------------------------------------------------------------
# Client session
# ---------------------------------------------------------------------------


class TlsClientSession:
    """Client side of the handshake, layered over a fabric connection."""

    def __init__(
        self,
        connection: Connection,
        hostname: str,
        trust_store: TrustStore,
        rng: random.Random,
        today: int = 0,
        pinned_fingerprints: Optional[Mapping[str, str]] = None,
    ) -> None:
        self._connection = connection
        self._hostname = hostname
        self._codec: Optional[_RecordCodec] = None
        self._resume_header: Optional[bytes] = None
        self.server_certificate: Optional[Certificate] = None
        self.session_ticket: Optional[bytes] = None
        self.base_keys: Optional[Tuple[bytes, bytes]] = None
        self._handshake(trust_store, rng, today, pinned_fingerprints or {})

    @classmethod
    def resume(
        cls,
        connection: Connection,
        hostname: str,
        ticket: bytes,
        enc_key: bytes,
        mac_key: bytes,
        counter: int,
    ) -> "TlsClientSession":
        """Resume a prior session from its ticket and base record keys.

        Skips both handshake round trips: the ticket, the resumption
        counter, and the first sealed record travel in one ``TLSS``
        flight prepended to the first :meth:`send`.
        """
        session = cls.__new__(cls)
        session._connection = connection
        session._hostname = hostname
        session.server_certificate = None
        session.session_ticket = ticket
        session.base_keys = None
        resume_enc, resume_mac = _resumption_keys(enc_key, mac_key, counter)
        session._codec = _RecordCodec(resume_enc, resume_mac)
        session._resume_header = (
            _RESUME_MAGIC + ticket + counter.to_bytes(4, "big"))
        return session

    def _handshake(
        self,
        trust_store: TrustStore,
        rng: random.Random,
        today: int,
        pins: Mapping[str, str],
    ) -> None:
        client_random = rng.getrandbits(128).to_bytes(16, "big")
        hello = _handshake_message({
            "type": "client_hello",
            "client_random": client_random.hex(),
            "sni": self._hostname,
        })
        server_hello = _parse_handshake(self._connection.roundtrip(hello), "server_hello")
        chain_json = server_hello.get("chain")
        if not isinstance(chain_json, list):
            raise TlsError("server hello missing certificate chain")
        chain = [Certificate.from_json(entry) for entry in chain_json]
        leaf = trust_store.verify_chain(chain, self._hostname, today)
        pinned = pins.get(self._hostname)
        if pinned is not None and leaf.fingerprint() != pinned:
            raise CertificatePinningError(
                f"pinned key mismatch for {self._hostname!r}")
        self.server_certificate = leaf
        server_random = bytes.fromhex(str(server_hello["server_random"]))
        pre_master = rng.getrandbits(192).to_bytes(24, "big")
        encrypted = crypto.encrypt(
            int.from_bytes(pre_master, "big"), leaf.public_key)
        key_exchange = _handshake_message({
            "type": "client_key_exchange",
            "encrypted_pre_master": f"{encrypted:x}",
        })
        finished = _parse_handshake(
            self._connection.roundtrip(key_exchange), "server_finished")
        enc_key, mac_key = crypto.derive_keys(pre_master, client_random, server_random)
        verify_data = crypto.hmac_sha256(
            mac_key, b"finished" + client_random + server_random)
        if str(finished.get("verify_data")) != verify_data.hex():
            raise TlsError("server finished verification failed")
        self._codec = _RecordCodec(enc_key, mac_key)
        ticket_hex = finished.get("session_ticket")
        if isinstance(ticket_hex, str):
            try:
                ticket = bytes.fromhex(ticket_hex)
            except ValueError as exc:
                raise TlsError("malformed session ticket") from exc
            if len(ticket) == _TICKET_LEN:
                self.session_ticket = ticket
                self.base_keys = (enc_key, mac_key)

    def send(self, plaintext: bytes) -> bytes:
        """One encrypted application-data round trip."""
        if self._codec is None:
            raise TlsError("handshake not complete")
        sealed = self._codec.seal(plaintext)
        if self._resume_header is not None:
            sealed = self._resume_header + sealed
            self._resume_header = None
        return self._codec.open(self._connection.roundtrip(sealed))

    def close(self) -> None:
        self._connection.close()


# ---------------------------------------------------------------------------
# Server handler
# ---------------------------------------------------------------------------


@dataclass
class ServerIdentity:
    """A server's certificate chain and matching private key."""

    chain: List[Certificate]
    private_key: crypto.RsaPrivateKey

    @property
    def leaf(self) -> Certificate:
        return self.chain[0]


#: ``server_random`` placeholder for pre-serialised hello templates.
#: "@" is not a hex digit, so a generated 32-hex-char random can never
#: collide with it.
_HELLO_PLACEHOLDER = "@" * 32


def _server_hello_template(identity: ServerIdentity) -> Optional[Tuple[str, str]]:
    """(prefix, suffix) around the ``server_random`` value in this
    identity's serialised server_hello, or ``None`` if splicing is not
    provably safe.  The chain dominates the message and never changes
    for a given identity, so serialising it on every handshake is pure
    waste; the spliced output is byte-identical to a fresh
    ``json.dumps`` because the random is a fixed-width hex string.
    """
    template = getattr(identity, "_hello_template", False)
    if template is not False:
        return template
    text = json.dumps({
        "type": "server_hello",
        "server_random": _HELLO_PLACEHOLDER,
        "chain": [certificate.to_json() for certificate in identity.chain],
    }, sort_keys=True)
    marker = '"server_random": "' + _HELLO_PLACEHOLDER + '"'
    if text.count(marker) == 1:
        prefix, suffix = text.split(marker)
        template = (prefix + '"server_random": "', '"' + suffix)
    else:  # a certificate field contains the marker; don't splice
        template = None
    identity._hello_template = template  # type: ignore[attr-defined]
    return template


def identity_to_state(identity: ServerIdentity) -> Dict[str, object]:
    """JSON form of a minted identity (checkpointing mitm caches)."""
    state = {
        "chain": [cert.to_json() for cert in identity.chain],
        "private_modulus": f"{identity.private_key.modulus:x}",
        "private_exponent": f"{identity.private_key.exponent:x}",
    }
    if identity.private_key.prime_p is not None:
        state["private_primes"] = [f"{identity.private_key.prime_p:x}",
                                   f"{identity.private_key.prime_q:x}"]
    return state


def identity_from_state(state: Dict[str, object]) -> ServerIdentity:
    primes = state.get("private_primes")  # type: ignore[union-attr]
    prime_p = int(str(primes[0]), 16) if primes else None
    prime_q = int(str(primes[1]), 16) if primes else None
    return ServerIdentity(
        chain=[Certificate.from_json(data)
               for data in state["chain"]],  # type: ignore[union-attr]
        private_key=crypto.RsaPrivateKey(
            modulus=int(str(state["private_modulus"]), 16),
            exponent=int(str(state["private_exponent"]), 16),
            prime_p=prime_p, prime_q=prime_q),
    )


def issue_server_identity(
    ca: CertificateAuthority,
    hostname: str,
    rng: random.Random,
    key_bits: int = _KEY_BITS,
    not_before: int = 0,
    not_after: int = 10_000,
) -> ServerIdentity:
    """Generate a fresh keypair for ``hostname`` and certify it via ``ca``."""
    keypair = crypto.generate_keypair(key_bits, rng)
    leaf = ca.issue(hostname, keypair.public, not_before, not_after)
    return ServerIdentity(chain=[leaf], private_key=keypair.private)


class TlsServerHandler(ConnectionHandler):
    """Server side of the handshake, wrapping a plaintext inner handler."""

    def __init__(
        self,
        info: ConnectionInfo,
        identity: ServerIdentity,
        inner_factory,
        rng: random.Random,
        session_store: Optional[ServerSessionStore] = None,
    ) -> None:
        super().__init__(info)
        self._identity = identity
        self._inner = inner_factory(info)
        self._rng = rng
        self._session_store = session_store
        self._state = "expect_hello"
        self._client_random = b""
        self._server_random = b""
        self._codec: Optional[_RecordCodec] = None

    def on_data(self, data: bytes) -> bytes:
        if self._state == "expect_hello":
            if is_resume_bytes(data):
                return self._handle_resume(data)
            return self._handle_hello(data)
        if self._state == "expect_key_exchange":
            return self._handle_key_exchange(data)
        if self._state == "established":
            return self._handle_record(data)
        raise TlsError(f"unexpected state {self._state!r}")

    def _handle_hello(self, data: bytes) -> bytes:
        message = _parse_handshake(data, "client_hello")
        self._client_random = bytes.fromhex(str(message["client_random"]))
        self._server_random = self._rng.getrandbits(128).to_bytes(16, "big")
        self._state = "expect_key_exchange"
        template = _server_hello_template(self._identity)
        if template is not None:
            prefix, suffix = template
            return _HANDSHAKE_MAGIC + (
                prefix + self._server_random.hex() + suffix).encode("utf-8")
        return _handshake_message({
            "type": "server_hello",
            "server_random": self._server_random.hex(),
            "chain": [certificate.to_json() for certificate in self._identity.chain],
        })

    def _handle_key_exchange(self, data: bytes) -> bytes:
        message = _parse_handshake(data, "client_key_exchange")
        encrypted = int(str(message["encrypted_pre_master"]), 16)
        pre_master_int = crypto.decrypt(encrypted, self._identity.private_key)
        pre_master = pre_master_int.to_bytes(24, "big")
        enc_key, mac_key = crypto.derive_keys(
            pre_master, self._client_random, self._server_random)
        self._codec = _RecordCodec(enc_key, mac_key)
        verify_data = crypto.hmac_sha256(
            mac_key, b"finished" + self._client_random + self._server_random)
        self._state = "established"
        finished: Dict[str, object] = {
            "type": "server_finished",
            "verify_data": verify_data.hex(),
        }
        if self._session_store is not None:
            ticket = _mint_ticket(mac_key)
            self._session_store.put(ticket, enc_key, mac_key)
            finished["session_ticket"] = ticket.hex()
        return _handshake_message(finished)

    def _handle_resume(self, data: bytes) -> bytes:
        """One-flight resumption: ticket + counter + first sealed record."""
        if self._session_store is None:
            raise TlsError("server does not accept session resumption")
        header_len = 4 + _TICKET_LEN + 4
        if len(data) < header_len:
            raise TlsError("truncated resumption flight")
        ticket = data[4:4 + _TICKET_LEN]
        counter = int.from_bytes(data[4 + _TICKET_LEN:header_len], "big")
        base_keys = self._session_store.get(ticket)
        if base_keys is None:
            raise TlsError("unknown session ticket")
        resume_enc, resume_mac = _resumption_keys(*base_keys, counter=counter)
        self._codec = _RecordCodec(resume_enc, resume_mac)
        self._state = "established"
        return self._handle_record(data[header_len:])

    def _handle_record(self, data: bytes) -> bytes:
        assert self._codec is not None
        plaintext = self._codec.open(data)
        reply = self._inner.on_data(plaintext)
        return self._codec.seal(reply)

    def on_close(self) -> None:
        self._inner.on_close()
