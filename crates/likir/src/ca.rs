//! The certification authority, certificates and user identities.

use bytes::BytesMut;

use dharma_types::hmac::{hmac_sha1, verify_hmac_sha1};
use dharma_types::{
    node_id_for_user, DharmaError, Id160, ReadBytes, Result, WireDecode, WireEncode, WriteBytes,
};

/// A certificate binding a user identity to an overlay node id.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Certificate {
    /// The registered user identifier (e.g. an OpenID in real Likir).
    pub user_id: String,
    /// The overlay node id, always `H("likir-node" ‖ user_id)`.
    pub node_id: Id160,
    /// Expiry timestamp (µs since epoch; 0 = never, for simulations).
    pub expires_us: u64,
    /// CA signature over the three fields above.
    pub signature: Id160,
}

impl Certificate {
    fn signed_bytes(user_id: &str, node_id: &Id160, expires_us: u64) -> BytesMut {
        let mut buf = BytesMut::new();
        buf.put_str(user_id);
        buf.put_id(node_id);
        buf.put_varint(expires_us);
        buf
    }
}

impl WireEncode for Certificate {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_str(&self.user_id);
        buf.put_id(&self.node_id);
        buf.put_varint(self.expires_us);
        buf.put_id(&self.signature);
    }
}

impl WireDecode for Certificate {
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(Certificate {
            user_id: buf.get_str()?,
            node_id: buf.get_id()?,
            expires_us: buf.get_varint()?,
            signature: buf.get_id()?,
        })
    }
}

/// The certification authority. Owns the master secret; registration is the
/// only operation that needs it online (as in Likir, where the CA signs
/// certificates once and is offline afterwards).
pub struct CertificationAuthority {
    secret: Vec<u8>,
}

impl CertificationAuthority {
    /// Creates a CA from a master secret.
    pub fn new(secret: &[u8]) -> Self {
        CertificationAuthority {
            secret: secret.to_vec(),
        }
    }

    /// Registers a user: derives their node id and MAC key, and issues the
    /// certificate. Deterministic per `(secret, user_id, expires_us)`.
    pub fn register(&self, user_id: &str, expires_us: u64) -> Identity {
        let node_id = node_id_for_user(user_id);
        let signature = hmac_sha1(
            &self.secret,
            &Certificate::signed_bytes(user_id, &node_id, expires_us),
        );
        let cert = Certificate {
            user_id: user_id.to_owned(),
            node_id,
            expires_us,
            signature,
        };
        Identity {
            cert,
            user_key: self.user_key(user_id),
        }
    }

    /// The per-user MAC key (stands in for the user's private key).
    fn user_key(&self, user_id: &str) -> Vec<u8> {
        let mut msg = b"likir-user-key\x00".to_vec();
        msg.extend_from_slice(user_id.as_bytes());
        hmac_sha1(&self.secret, &msg).as_bytes().to_vec()
    }

    /// A verification handle (models the published CA public key).
    pub fn verifier(&self) -> CaVerifier {
        CaVerifier {
            secret: self.secret.clone(),
        }
    }
}

/// Verification capability distributed to every node.
///
/// In real Likir this is the CA's public key; here it re-derives the MAC
/// keys. Holding a `CaVerifier` lets a node *verify* certificates and
/// signatures — the simulation never uses it to forge, preserving the trust
/// model's observable behaviour.
#[derive(Clone)]
pub struct CaVerifier {
    secret: Vec<u8>,
}

impl CaVerifier {
    /// Verifies a certificate: CA signature, id binding, and expiry
    /// against `now_us`.
    pub fn verify_cert(&self, cert: &Certificate, now_us: u64) -> Result<()> {
        if cert.node_id != node_id_for_user(&cert.user_id) {
            return Err(DharmaError::Unauthorized(format!(
                "node id not derived from user id '{}'",
                cert.user_id
            )));
        }
        if cert.expires_us != 0 && cert.expires_us < now_us {
            return Err(DharmaError::Unauthorized(format!(
                "certificate for '{}' expired",
                cert.user_id
            )));
        }
        let signed = Certificate::signed_bytes(&cert.user_id, &cert.node_id, cert.expires_us);
        if !verify_hmac_sha1(&self.secret, &signed, &cert.signature) {
            return Err(DharmaError::Unauthorized(format!(
                "bad CA signature on certificate for '{}'",
                cert.user_id
            )));
        }
        Ok(())
    }

    /// Verifies a user signature over `message`.
    pub fn verify_user_sig(&self, user_id: &str, message: &[u8], sig: &Id160) -> bool {
        let key = self.user_key(user_id);
        verify_hmac_sha1(&key, message, sig)
    }

    fn user_key(&self, user_id: &str) -> Vec<u8> {
        let mut msg = b"likir-user-key\x00".to_vec();
        msg.extend_from_slice(user_id.as_bytes());
        hmac_sha1(&self.secret, &msg).as_bytes().to_vec()
    }
}

/// A registered user's identity: certificate plus signing key.
#[derive(Clone)]
pub struct Identity {
    /// The CA-issued certificate.
    pub cert: Certificate,
    user_key: Vec<u8>,
}

impl Identity {
    /// The user id.
    pub fn user_id(&self) -> &str {
        &self.cert.user_id
    }

    /// The certified overlay node id.
    pub fn node_id(&self) -> Id160 {
        self.cert.node_id
    }

    /// Signs a message with the user key.
    pub fn sign(&self, message: &[u8]) -> Id160 {
        hmac_sha1(&self.user_key, message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_deterministic_and_verifiable() {
        let ca = CertificationAuthority::new(b"master");
        let alice = ca.register("alice", 0);
        let alice2 = ca.register("alice", 0);
        assert_eq!(alice.cert, alice2.cert);
        assert_eq!(alice.node_id(), node_id_for_user("alice"));
        ca.verifier().verify_cert(&alice.cert, 123).unwrap();
    }

    #[test]
    fn forged_certificate_rejected() {
        let ca = CertificationAuthority::new(b"master");
        let verifier = ca.verifier();
        let mut cert = ca.register("alice", 0).cert;
        // Claim a different node id.
        cert.node_id = node_id_for_user("mallory");
        assert!(verifier.verify_cert(&cert, 0).is_err());
        // Re-derive the id but keep the stolen signature.
        let mut cert = ca.register("alice", 0).cert;
        cert.user_id = "mallory".into();
        cert.node_id = node_id_for_user("mallory");
        assert!(verifier.verify_cert(&cert, 0).is_err());
    }

    #[test]
    fn wrong_ca_rejected() {
        let ca1 = CertificationAuthority::new(b"one");
        let ca2 = CertificationAuthority::new(b"two");
        let alice = ca1.register("alice", 0);
        assert!(ca2.verifier().verify_cert(&alice.cert, 0).is_err());
    }

    #[test]
    fn expiry_enforced() {
        let ca = CertificationAuthority::new(b"master");
        let alice = ca.register("alice", 1_000);
        let v = ca.verifier();
        v.verify_cert(&alice.cert, 999).unwrap();
        assert!(v.verify_cert(&alice.cert, 1_001).is_err());
        // 0 means never expires.
        let bob = ca.register("bob", 0);
        v.verify_cert(&bob.cert, u64::MAX).unwrap();
    }

    #[test]
    fn user_signatures_verify_and_reject() {
        let ca = CertificationAuthority::new(b"master");
        let alice = ca.register("alice", 0);
        let v = ca.verifier();
        let sig = alice.sign(b"hello");
        assert!(v.verify_user_sig("alice", b"hello", &sig));
        assert!(!v.verify_user_sig("alice", b"hullo", &sig));
        assert!(!v.verify_user_sig("bob", b"hello", &sig));
    }

    #[test]
    fn certificate_wire_roundtrip() {
        let ca = CertificationAuthority::new(b"master");
        let cert = ca.register("alice", 42).cert;
        let enc = cert.encode_to_bytes();
        let dec = Certificate::decode_exact(&enc).unwrap();
        assert_eq!(dec, cert);
    }
}
