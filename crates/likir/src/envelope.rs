//! Signed RPC envelopes and authenticated content records.

use bytes::BytesMut;

use dharma_types::{DharmaError, Id160, ReadBytes, Result, WireDecode, WireEncode, WriteBytes};

use crate::ca::{CaVerifier, Certificate, Identity};

/// A signed RPC envelope: certificate + nonce + opaque payload + signature.
///
/// Likir wraps every Kademlia RPC in one of these; the nonce prevents
/// replay, the certificate authenticates the sender, and the signature
/// covers `nonce ‖ payload`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SignedEnvelope {
    /// Sender certificate.
    pub cert: Certificate,
    /// Anti-replay nonce (unique per message).
    pub nonce: u64,
    /// The wrapped protocol message.
    pub payload: Vec<u8>,
    /// User signature over `nonce ‖ payload`.
    pub signature: Id160,
}

impl SignedEnvelope {
    /// Wraps and signs `payload`.
    pub fn seal(identity: &Identity, nonce: u64, payload: Vec<u8>) -> Self {
        let signature = identity.sign(&signed_bytes(nonce, &payload));
        SignedEnvelope {
            cert: identity.cert.clone(),
            nonce,
            payload,
            signature,
        }
    }

    /// Verifies certificate and signature, returning the payload on success.
    pub fn open(&self, verifier: &CaVerifier, now_us: u64) -> Result<&[u8]> {
        verifier.verify_cert(&self.cert, now_us)?;
        if !verifier.verify_user_sig(
            &self.cert.user_id,
            &signed_bytes(self.nonce, &self.payload),
            &self.signature,
        ) {
            return Err(DharmaError::Unauthorized(format!(
                "bad envelope signature from '{}'",
                self.cert.user_id
            )));
        }
        Ok(&self.payload)
    }
}

fn signed_bytes(nonce: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_varint(nonce);
    buf.put_bytes_field(payload);
    buf.to_vec()
}

impl WireEncode for SignedEnvelope {
    fn encode(&self, buf: &mut BytesMut) {
        self.cert.encode(buf);
        buf.put_varint(self.nonce);
        buf.put_bytes_field(&self.payload);
        buf.put_id(&self.signature);
    }
}

impl WireDecode for SignedEnvelope {
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(SignedEnvelope {
            cert: Certificate::decode(buf)?,
            nonce: buf.get_varint()?,
            payload: buf.get_bytes_field()?,
            signature: buf.get_id()?,
        })
    }
}

/// An authored, signed content record — what DHARMA stores as `r̃` blocks so
/// that readers can verify who published a resource URI.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AuthenticatedRecord {
    /// Author certificate.
    pub cert: Certificate,
    /// Application namespace (Likir separates applications sharing one
    /// overlay; DHARMA uses `"dharma"`).
    pub namespace: String,
    /// The content itself.
    pub content: Vec<u8>,
    /// Author signature over `namespace ‖ content`.
    pub signature: Id160,
}

impl AuthenticatedRecord {
    /// Creates and signs a record.
    pub fn sign(identity: &Identity, namespace: &str, content: Vec<u8>) -> Self {
        let signature = identity.sign(&record_bytes(namespace, &content));
        AuthenticatedRecord {
            cert: identity.cert.clone(),
            namespace: namespace.to_owned(),
            content,
            signature,
        }
    }

    /// Verifies authorship; returns the content on success.
    pub fn verify(&self, verifier: &CaVerifier, now_us: u64) -> Result<&[u8]> {
        verifier.verify_cert(&self.cert, now_us)?;
        if !verifier.verify_user_sig(
            &self.cert.user_id,
            &record_bytes(&self.namespace, &self.content),
            &self.signature,
        ) {
            return Err(DharmaError::Unauthorized(format!(
                "bad record signature from '{}'",
                self.cert.user_id
            )));
        }
        Ok(&self.content)
    }
}

fn record_bytes(namespace: &str, content: &[u8]) -> Vec<u8> {
    let mut buf = BytesMut::new();
    buf.put_str(namespace);
    buf.put_bytes_field(content);
    buf.to_vec()
}

impl WireEncode for AuthenticatedRecord {
    fn encode(&self, buf: &mut BytesMut) {
        self.cert.encode(buf);
        buf.put_str(&self.namespace);
        buf.put_bytes_field(&self.content);
        buf.put_id(&self.signature);
    }
}

impl WireDecode for AuthenticatedRecord {
    fn decode(buf: &mut &[u8]) -> Result<Self> {
        Ok(AuthenticatedRecord {
            cert: Certificate::decode(buf)?,
            namespace: buf.get_str()?,
            content: buf.get_bytes_field()?,
            signature: buf.get_id()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificationAuthority;

    fn setup() -> (CertificationAuthority, Identity, CaVerifier) {
        let ca = CertificationAuthority::new(b"master");
        let alice = ca.register("alice", 0);
        let v = ca.verifier();
        (ca, alice, v)
    }

    #[test]
    fn envelope_roundtrip_and_verify() {
        let (_ca, alice, v) = setup();
        let env = SignedEnvelope::seal(&alice, 7, b"FIND_NODE ...".to_vec());
        let enc = env.encode_to_bytes();
        let dec = SignedEnvelope::decode_exact(&enc).unwrap();
        assert_eq!(dec, env);
        assert_eq!(dec.open(&v, 0).unwrap(), b"FIND_NODE ...");
    }

    #[test]
    fn tampered_envelope_rejected() {
        let (_ca, alice, v) = setup();
        let mut env = SignedEnvelope::seal(&alice, 7, b"payload".to_vec());
        env.payload = b"poisoned".to_vec();
        assert!(env.open(&v, 0).is_err());
        // Nonce tampering (replay with altered nonce) also fails.
        let mut env = SignedEnvelope::seal(&alice, 7, b"payload".to_vec());
        env.nonce = 8;
        assert!(env.open(&v, 0).is_err());
    }

    #[test]
    fn envelope_from_unregistered_identity_rejected() {
        let (_ca, alice, _) = setup();
        let other_ca = CertificationAuthority::new(b"evil");
        let v2 = other_ca.verifier();
        let env = SignedEnvelope::seal(&alice, 1, b"x".to_vec());
        assert!(env.open(&v2, 0).is_err());
    }

    #[test]
    fn record_roundtrip_and_verify() {
        let (_ca, alice, v) = setup();
        let rec = AuthenticatedRecord::sign(&alice, "dharma", b"uri://nevermind".to_vec());
        let enc = rec.encode_to_bytes();
        let dec = AuthenticatedRecord::decode_exact(&enc).unwrap();
        assert_eq!(dec.verify(&v, 0).unwrap(), b"uri://nevermind");
    }

    #[test]
    fn record_namespace_is_covered_by_signature() {
        let (_ca, alice, v) = setup();
        let mut rec = AuthenticatedRecord::sign(&alice, "dharma", b"c".to_vec());
        rec.namespace = "other-app".into();
        assert!(rec.verify(&v, 0).is_err());
    }

    #[test]
    fn stolen_record_cannot_be_reauthored() {
        let ca = CertificationAuthority::new(b"master");
        let alice = ca.register("alice", 0);
        let mallory = ca.register("mallory", 0);
        let v = ca.verifier();
        let mut rec = AuthenticatedRecord::sign(&alice, "dharma", b"content".to_vec());
        // Mallory swaps in her own (valid) certificate.
        rec.cert = mallory.cert.clone();
        assert!(rec.verify(&v, 0).is_err());
    }
}
