"""The anonymous rewebber (Section 5.1).

"Just as anonymous remailer chains allow email authors to anonymously
disseminate their content, an anonymous rewebber network allows web
authors to anonymously publish their content.  The rewebber described in
[25] was implemented in one week using our TACC architecture.  The
rewebber's workers perform encryption and decryption, its user profile
database maintains public key information for anonymous servers, and its
cache stores decrypted versions of frequently accessed pages."

The cipher is a deterministic keystream cipher (SHA-256 in counter
mode) — honest symmetric crypto built from the standard library, which
is enough to exercise the architecture: encryption/decryption are CPU-
intensive, highly parallelizable, per-request keyed from the profile
database, and chainable (onion-style) through TACC pipelines.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from repro.tacc.content import MIME_OCTET, Content
from repro.tacc.worker import TACCRequest, Transformer, WorkerError

#: the simulated servers' shared key-derivation secret
REWEBBER_SECRET = "s3cret"


def rewebber_keypair(server_name: str) -> Tuple[str, str]:
    """A (key_id, key_material) pair for one rewebber server.

    Profile databases store the key_id -> material mapping ("its user
    profile database maintains public key information").
    """
    key_id = f"rewebber:{server_name}"
    material = hashlib.sha256(
        f"{server_name}:{REWEBBER_SECRET}".encode()).hexdigest()
    return key_id, material


def _keystream_xor(data: bytes, key_material: str) -> bytes:
    """XOR with a SHA-256 counter-mode keystream (self-inverse)."""
    key = key_material.encode()
    out = bytearray(len(data))
    block = 32
    for offset in range(0, len(data), block):
        counter = offset // block
        stream = hashlib.sha256(key + counter.to_bytes(8, "big")).digest()
        chunk = data[offset: offset + block]
        for index, byte in enumerate(chunk):
            out[offset + index] = byte ^ stream[index]
    return bytes(out)


class _CryptoWorker(Transformer):
    direction = "?"

    def _key(self, request: TACCRequest) -> str:
        key_material = request.param("rewebber_key")
        if not key_material:
            raise WorkerError(
                f"no rewebber key in profile for {self.direction}")
        return key_material


class EncryptWorker(_CryptoWorker):
    """Seal content for an anonymous server."""

    worker_type = "rewebber-encrypt"
    direction = "encrypt"

    def transform(self, content: Content, request: TACCRequest) -> Content:
        sealed = _keystream_xor(content.data, self._key(request))
        return content.derive(
            sealed,
            mime=MIME_OCTET,
            worker=self.worker_type,
            sealed_mime=content.mime,
        )


class DecryptWorker(_CryptoWorker):
    """Open sealed content on the way to the reader."""

    worker_type = "rewebber-decrypt"
    direction = "decrypt"

    def transform(self, content: Content, request: TACCRequest) -> Content:
        opened = _keystream_xor(content.data, self._key(request))
        original_mime = content.metadata.get("sealed_mime", content.mime)
        return content.derive(
            opened,
            mime=original_mime,
            worker=self.worker_type,
        )
