"""Tests for the wire-level artifact encodings."""

from repro.core.wire import (
    ProofOfRelay,
    QualityDeclaration,
    SealedMessage,
    StorageProof,
)


class TestPayloadDomainSeparation:
    """Signatures over one artifact kind can never verify as another."""

    def test_all_payloads_distinct(self):
        h = b"\x01" * 32
        artifacts = [
            ProofOfRelay(msg_hash=h, giver=1, taker=1),
            StorageProof(msg_hash=h, prover=1, seed=b"s", mac=b"m"),
            QualityDeclaration(
                declarant=1, destination=1, value=0.0, frame=0,
                declared_at=0.0,
            ),
        ]
        payloads = [a.payload() for a in artifacts]
        assert len(set(payloads)) == len(payloads)

    def test_por_payload_covers_all_fields(self):
        base = dict(
            msg_hash=b"h", giver=1, taker=2, quality_subject=3,
            message_quality=1.0, taker_quality=2.0, signed_at=5.0,
        )
        reference = ProofOfRelay(**base).payload()
        for field, new in [
            ("msg_hash", b"H"),
            ("giver", 9),
            ("taker", 9),
            ("quality_subject", 9),
            ("message_quality", 9.0),
            ("taker_quality", 9.0),
            ("signed_at", 9.0),
        ]:
            changed = dict(base, **{field: new})
            assert ProofOfRelay(**changed).payload() != reference

    def test_declaration_payload_covers_value_and_frame(self):
        base = dict(
            declarant=1, destination=2, value=3.0, frame=4, declared_at=5.0
        )
        reference = QualityDeclaration(**base).payload()
        assert (
            QualityDeclaration(**dict(base, value=0.0)).payload() != reference
        )
        assert (
            QualityDeclaration(**dict(base, frame=5)).payload() != reference
        )


class TestSealedMessage:
    def test_content_hash_stable(self):
        m = SealedMessage(
            msg_id=1, destination=2, ciphertext=b"ct", source_signature=b"sig"
        )
        assert m.content_hash() == m.content_hash()

    def test_hash_covers_ciphertext(self):
        a = SealedMessage(
            msg_id=1, destination=2, ciphertext=b"ct", source_signature=b"s"
        )
        b = SealedMessage(
            msg_id=1, destination=2, ciphertext=b"CT", source_signature=b"s"
        )
        assert a.content_hash() != b.content_hash()

    def test_destination_in_clear(self):
        m = SealedMessage(
            msg_id=1, destination=42, ciphertext=b"ct", source_signature=b"s"
        )
        assert m.destination == 42
