//! A Kyber-style key-encapsulation mechanism with the Fujisaki–Okamoto
//! re-encryption check.
//!
//! The passively-secure PKE of [`crate::pke`] is upgraded KEM-style:
//! encapsulation derives all encryption randomness *deterministically*
//! from the message (`coins = H("coins", m ‖ pk-digest)`), so
//! decapsulation can decrypt, re-encrypt with the same coins, and
//! compare ciphertexts. A mismatch (tampered ciphertext) yields an
//! implicit-rejection key derived from a secret rejection seed instead
//! of an error — the standard Kyber behaviour.
//!
//! Like everything in this crate, the construction exists to exercise
//! the accelerated multiplier (five negacyclic multiplications per
//! encapsulate/decapsulate pair) — it is **not** a vetted production
//! KEM.

use crate::hash::{expand, sha256_tagged, Digest, Sha256};
use crate::pke::{Ciphertext, KeyPair, PublicKey, SecretKey};
use crate::Result;
use modmath::params::ParamSet;
use ntt::negacyclic::PolyMultiplier;

/// Shared-secret length in bytes.
pub const SHARED_SECRET_BYTES: usize = 32;

/// A KEM key pair: the PKE pair plus the implicit-rejection seed.
#[derive(Debug, Clone, PartialEq)]
pub struct KemKeyPair {
    pke: KeyPair,
    rejection_seed: Digest,
}

/// An encapsulated shared secret.
#[derive(Debug, Clone, PartialEq)]
pub struct Encapsulated {
    /// The ciphertext to transmit.
    pub ciphertext: Ciphertext,
    /// The sender's shared secret.
    pub shared_secret: [u8; SHARED_SECRET_BYTES],
}

impl KemKeyPair {
    /// Generates a KEM key pair.
    ///
    /// # Errors
    ///
    /// Propagates PKE key-generation failures.
    pub fn generate<M: PolyMultiplier + ?Sized>(
        params: &ParamSet,
        mult: &M,
        seed: u64,
    ) -> Result<Self> {
        let pke = KeyPair::generate(params, mult, seed)?;
        let rejection_seed = sha256_tagged(b"reject", &seed.to_be_bytes());
        Ok(KemKeyPair {
            pke,
            rejection_seed,
        })
    }

    /// The public key.
    pub fn public(&self) -> &PublicKey {
        self.pke.public()
    }

    /// The secret key (exposed for noise measurements in tests).
    pub fn secret(&self) -> &SecretKey {
        self.pke.secret()
    }

    /// Decapsulates: decrypt, re-encrypt with the recovered coins, and
    /// compare. On mismatch returns the implicit-rejection secret
    /// (indistinguishable from a valid one to an attacker).
    ///
    /// # Errors
    ///
    /// Propagates multiplier failures only; tampering does **not**
    /// error.
    pub fn decapsulate<M: PolyMultiplier + ?Sized>(
        &self,
        ct: &Ciphertext,
        mult: &M,
    ) -> Result<[u8; SHARED_SECRET_BYTES]> {
        let m_bits = self.pke.secret().decrypt_bits(ct, mult)?;
        let m_bytes = bits_to_bytes(&m_bits[..MESSAGE_BITS]);
        let coins = derive_coins(&m_bytes, self.public());
        let reencrypted = encrypt_with_coins(self.public(), &m_bits[..MESSAGE_BITS], coins, mult)?;
        if &reencrypted == ct {
            Ok(derive_secret(&m_bytes, ct))
        } else {
            // Implicit rejection: a pseudorandom key bound to the
            // ciphertext and the secret rejection seed.
            let mut h = Sha256::tagged(b"implicit");
            h.update(&self.rejection_seed);
            h.update(&ciphertext_digest(ct));
            Ok(h.finalize())
        }
    }
}

/// Message length carried by the KEM (256 bits, as in Kyber).
pub const MESSAGE_BITS: usize = 256;

fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
    bits.chunks(8)
        .map(|c| c.iter().fold(0u8, |acc, &b| (acc << 1) | (b & 1)))
        .collect()
}

fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    bytes
        .iter()
        .flat_map(|&byte| (0..8).map(move |i| (byte >> (7 - i)) & 1))
        .collect()
}

fn ciphertext_digest(ct: &Ciphertext) -> Digest {
    let mut h = Sha256::tagged(b"ct");
    h.update_u64_be(ct.u.coeffs());
    h.update_u64_be(ct.v.coeffs());
    h.finalize()
}

/// Deterministic encryption coins: `H("coins", m ‖ H(pk))` folded into
/// a `u64` seed for the CBD samplers.
fn derive_coins(m_bytes: &[u8], pk: &PublicKey) -> u64 {
    let mut h = Sha256::tagged(b"coins");
    h.update(m_bytes);
    h.update(pk.digest());
    let d = h.finalize();
    u64::from_be_bytes(d[..8].try_into().expect("8 bytes"))
}

fn derive_secret(m_bytes: &[u8], ct: &Ciphertext) -> [u8; SHARED_SECRET_BYTES] {
    let mut h = Sha256::tagged(b"ss");
    h.update(m_bytes);
    h.update(&ciphertext_digest(ct));
    h.finalize()
}

fn encrypt_with_coins<M: PolyMultiplier + ?Sized>(
    pk: &PublicKey,
    m_bits: &[u8],
    coins: u64,
    mult: &M,
) -> Result<Ciphertext> {
    pk.encrypt_bits(m_bits, mult, coins)
}

/// Encapsulates a fresh shared secret to `pk`. `entropy` seeds the
/// message choice; everything downstream is deterministic in it.
///
/// # Errors
///
/// Propagates encryption failures.
///
/// # Panics
///
/// Panics if the ring degree is below [`MESSAGE_BITS`].
pub fn encapsulate<M: PolyMultiplier + ?Sized>(
    pk: &PublicKey,
    mult: &M,
    entropy: u64,
) -> Result<Encapsulated> {
    assert!(
        pk.params().n >= MESSAGE_BITS,
        "ring too small for a {MESSAGE_BITS}-bit message"
    );
    // Random message from the entropy (hashed so structure cannot leak).
    let m_seed = sha256_tagged(b"m", &entropy.to_be_bytes());
    let m_bytes = expand(&m_seed, MESSAGE_BITS / 8);
    let m_bits = bytes_to_bits(&m_bytes);
    let coins = derive_coins(&m_bytes, pk);
    let ciphertext = encrypt_with_coins(pk, &m_bits, coins, mult)?;
    let shared_secret = derive_secret(&m_bytes, &ciphertext);
    Ok(Encapsulated {
        ciphertext,
        shared_secret,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt::negacyclic::NttMultiplier;
    use ntt::poly::Polynomial;

    fn setup(n: usize) -> (ParamSet, NttMultiplier, KemKeyPair) {
        let p = ParamSet::for_degree(n).unwrap();
        let m = NttMultiplier::new(&p).unwrap();
        let k = KemKeyPair::generate(&p, &m, 99).unwrap();
        (p, m, k)
    }

    #[test]
    fn encap_decap_roundtrip() {
        for n in [256usize, 512, 1024] {
            let (_, m, keys) = setup(n);
            let enc = encapsulate(keys.public(), &m, 1234).unwrap();
            let ss = keys.decapsulate(&enc.ciphertext, &m).unwrap();
            assert_eq!(ss, enc.shared_secret, "n = {n}");
        }
    }

    #[test]
    fn distinct_entropy_distinct_secrets() {
        let (_, m, keys) = setup(256);
        let e1 = encapsulate(keys.public(), &m, 1).unwrap();
        let e2 = encapsulate(keys.public(), &m, 2).unwrap();
        assert_ne!(e1.shared_secret, e2.shared_secret);
        assert_ne!(e1.ciphertext, e2.ciphertext);
    }

    #[test]
    fn encapsulation_is_deterministic_in_entropy() {
        let (_, m, keys) = setup(256);
        let e1 = encapsulate(keys.public(), &m, 7).unwrap();
        let e2 = encapsulate(keys.public(), &m, 7).unwrap();
        assert_eq!(e1, e2);
    }

    #[test]
    fn tampered_ciphertext_implicitly_rejects() {
        let (p, m, keys) = setup(256);
        let enc = encapsulate(keys.public(), &m, 5).unwrap();
        // Flip one coefficient of v by a large offset.
        let mut v = enc.ciphertext.v.coeffs().to_vec();
        v[0] = (v[0] + p.q / 2) % p.q;
        let tampered = Ciphertext {
            u: enc.ciphertext.u.clone(),
            v: Polynomial::from_coeffs(v, p.q).unwrap(),
        };
        let ss = keys.decapsulate(&tampered, &m).unwrap();
        assert_ne!(ss, enc.shared_secret, "tampering must change the key");
        // And rejection is deterministic.
        let ss2 = keys.decapsulate(&tampered, &m).unwrap();
        assert_eq!(ss, ss2);
    }

    #[test]
    fn wrong_recipient_gets_nothing() {
        let (_, m, alice) = setup(256);
        let p = ParamSet::for_degree(256).unwrap();
        let eve = KemKeyPair::generate(&p, &m, 666).unwrap();
        let enc = encapsulate(alice.public(), &m, 9).unwrap();
        let eve_ss = eve.decapsulate(&enc.ciphertext, &m).unwrap();
        assert_ne!(eve_ss, enc.shared_secret);
    }

    #[test]
    fn cached_public_key_digest_equals_the_recomputed_one() {
        for n in [256usize, 1024] {
            let (_, _, keys) = setup(n);
            let pk = keys.public();
            let mut h = Sha256::tagged(b"pk");
            h.update_u64_be(pk.a().coeffs());
            h.update_u64_be(pk.b().coeffs());
            assert_eq!(pk.digest(), &h.finalize(), "n = {n}");
            assert_eq!(pk.clone().digest(), pk.digest());
        }
    }

    #[test]
    fn bit_byte_helpers_roundtrip() {
        let bytes = vec![0x00u8, 0xFF, 0xA5, 0x3C];
        assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)), bytes);
        assert_eq!(bytes_to_bits(&[0x80])[0], 1);
        assert_eq!(bytes_to_bits(&[0x01])[7], 1);
    }

    #[test]
    fn works_on_pim_backend() {
        use cryptopim::accelerator::CryptoPim;
        let p = ParamSet::for_degree(256).unwrap();
        let pim = CryptoPim::new(&p).unwrap();
        let keys = KemKeyPair::generate(&p, &pim, 3).unwrap();
        let enc = encapsulate(keys.public(), &pim, 4).unwrap();
        let ss = keys.decapsulate(&enc.ciphertext, &pim).unwrap();
        assert_eq!(ss, enc.shared_secret);
    }
}
