//! LPR-style RLWE public-key encryption (the core of Kyber/NewHope).
//!
//! KeyGen: `s, e ← CBD_η`, `a ← U(R_q)`, `pk = (a, b = a·s + e)`.
//! Enc(m): `r, e₁, e₂ ← CBD_η`,
//! `u = a·r + e₁`, `v = b·r + e₂ + ⌊q/2⌉·m`.
//! Dec: `m̂_i = 1` iff the centered `(v − u·s)_i` is closer to `q/2`
//! than to `0`.
//!
//! Every `·` is a negacyclic polynomial multiplication — the operation
//! CryptoPIM accelerates — performed through the injected
//! [`PolyMultiplier`] backend.

use crate::hash::{Digest, Sha256};
use crate::sampling;
use crate::{Result, RlweError};
use modmath::params::ParamSet;
use ntt::negacyclic::PolyMultiplier;
use ntt::poly::Polynomial;

/// The binomial parameter η used by all schemes in this crate
/// (Kyber-like; plenty of decryption margin at every paper degree).
pub const ETA: u32 = 2;

/// An RLWE public key.
#[derive(Clone, PartialEq)]
pub struct PublicKey {
    params: ParamSet,
    a: Polynomial,
    b: Polynomial,
    /// `H("pk", a ‖ b)`, hashed once at construction: the KEM binds every
    /// encapsulation and decapsulation to it (as ML-KEM's decapsulation
    /// key stores `H(ek)`, FIPS 203).
    digest: Digest,
}

/// Leaves out the digest, which `a` and `b` determine: load streams and
/// benchmark op sets are fingerprinted through their jobs' debug form,
/// which must name a key by its coefficients alone.
impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PublicKey")
            .field("params", &self.params)
            .field("a", &self.a)
            .field("b", &self.b)
            .finish()
    }
}

/// An RLWE secret key.
#[derive(Debug, Clone, PartialEq)]
pub struct SecretKey {
    params: ParamSet,
    s: Polynomial,
}

/// A ciphertext `(u, v)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ciphertext {
    /// First component `u = a·r + e₁`.
    pub u: Polynomial,
    /// Second component `v = b·r + e₂ + Δ·m`.
    pub v: Polynomial,
}

/// A generated key pair.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyPair {
    public: PublicKey,
    secret: SecretKey,
}

impl KeyPair {
    /// Generates a key pair using the given multiplier backend.
    ///
    /// # Errors
    ///
    /// Propagates multiplier failures (degree mismatches cannot occur
    /// for a matching backend).
    pub fn generate<M: PolyMultiplier + ?Sized>(
        params: &ParamSet,
        mult: &M,
        seed: u64,
    ) -> Result<Self> {
        let mut rng = sampling::seeded_rng(seed);
        let a = sampling::uniform(params, &mut rng);
        let s = sampling::centered_binomial(params, ETA, &mut rng);
        let e = sampling::centered_binomial(params, ETA, &mut rng);
        let b = mult.multiply(&a, &s)? + e;
        Ok(KeyPair {
            public: PublicKey::new(*params, a, b),
            secret: SecretKey { params: *params, s },
        })
    }

    /// The public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// The secret half.
    pub fn secret(&self) -> &SecretKey {
        &self.secret
    }
}

/// `⌊q/2⌉` — the plaintext scaling.
fn delta(q: u64) -> u64 {
    q.div_ceil(2)
}

/// Packs bits into a scaled message polynomial.
fn encode_bits(bits: &[u8], params: &ParamSet) -> Result<Polynomial> {
    if bits.len() > params.n {
        return Err(RlweError::MessageTooLong {
            bits: bits.len(),
            capacity: params.n,
        });
    }
    let d = delta(params.q);
    let mut coeffs = vec![0u64; params.n];
    for (i, &bit) in bits.iter().enumerate() {
        coeffs[i] = if bit & 1 == 1 { d } else { 0 };
    }
    Ok(Polynomial::from_coeffs(coeffs, params.q)?)
}

impl PublicKey {
    fn new(params: ParamSet, a: Polynomial, b: Polynomial) -> PublicKey {
        let mut h = Sha256::tagged(b"pk");
        h.update_u64_be(a.coeffs());
        h.update_u64_be(b.coeffs());
        let digest = h.finalize();
        PublicKey {
            params,
            a,
            b,
            digest,
        }
    }

    /// `H("pk", a ‖ b)`: SHA-256 under the `pk` domain tag over both
    /// polynomials' coefficients as big-endian `u64` words.
    pub fn digest(&self) -> &Digest {
        &self.digest
    }

    /// The parameter set.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// The uniform polynomial `a`.
    pub fn a(&self) -> &Polynomial {
        &self.a
    }

    /// The RLWE sample `b = a·s + e`.
    pub fn b(&self) -> &Polynomial {
        &self.b
    }

    /// Encrypts a bit vector (at most `n` bits).
    ///
    /// # Errors
    ///
    /// [`RlweError::MessageTooLong`] when more than `n` bits are given.
    pub fn encrypt_bits<M: PolyMultiplier + ?Sized>(
        &self,
        bits: &[u8],
        mult: &M,
        seed: u64,
    ) -> Result<Ciphertext> {
        let mut rng = sampling::seeded_rng(seed);
        let r = sampling::centered_binomial(&self.params, ETA, &mut rng);
        let e1 = sampling::centered_binomial(&self.params, ETA, &mut rng);
        let e2 = sampling::centered_binomial(&self.params, ETA, &mut rng);
        let m = encode_bits(bits, &self.params)?;
        // `a·r` and `b·r` are independent: route them through the pair
        // hook so batch-forming backends can pack both into one batch.
        let (ar, br) = mult.multiply_pair(&self.a, &r, &self.b, &r)?;
        let u = ar + e1;
        let v = br + e2 + m;
        Ok(Ciphertext { u, v })
    }
}

impl SecretKey {
    /// The parameter set.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Decrypts to the noisy message polynomial `v − u·s` (exposed for
    /// the homomorphic layer, which decodes differently).
    ///
    /// # Errors
    ///
    /// Propagates multiplier failures.
    pub fn decrypt_poly<M: PolyMultiplier + ?Sized>(
        &self,
        ct: &Ciphertext,
        mult: &M,
    ) -> Result<Polynomial> {
        Ok(ct.v.clone() - mult.multiply(&ct.u, &self.s)?)
    }

    /// Decrypts a bit vector of length `n`.
    ///
    /// # Errors
    ///
    /// Propagates multiplier failures.
    pub fn decrypt_bits<M: PolyMultiplier + ?Sized>(
        &self,
        ct: &Ciphertext,
        mult: &M,
    ) -> Result<Vec<u8>> {
        let noisy = self.decrypt_poly(ct, mult)?;
        let q = self.params.q as i64;
        Ok(noisy
            .centered()
            .map(|c| u8::from(c.abs() > q / 4))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt::negacyclic::NttMultiplier;

    fn setup(n: usize) -> (ParamSet, NttMultiplier) {
        let p = ParamSet::for_degree(n).unwrap();
        let m = NttMultiplier::new(&p).unwrap();
        (p, m)
    }

    fn bit_pattern(n: usize, seed: u64) -> Vec<u8> {
        (0..n)
            .map(|i| ((i as u64 * 2654435761 + seed) >> 7) as u8 & 1)
            .collect()
    }

    #[test]
    fn roundtrip_all_paper_pke_degrees() {
        for n in [256usize, 512, 1024] {
            let (p, m) = setup(n);
            let keys = KeyPair::generate(&p, &m, 100 + n as u64).unwrap();
            let msg = bit_pattern(n, 5);
            let ct = keys.public().encrypt_bits(&msg, &m, 200).unwrap();
            let pt = keys.secret().decrypt_bits(&ct, &m).unwrap();
            assert_eq!(pt, msg, "n = {n}");
        }
    }

    #[test]
    fn roundtrip_he_degree() {
        let (p, m) = setup(4096);
        let keys = KeyPair::generate(&p, &m, 11).unwrap();
        let msg = bit_pattern(4096, 3);
        let ct = keys.public().encrypt_bits(&msg, &m, 12).unwrap();
        assert_eq!(keys.secret().decrypt_bits(&ct, &m).unwrap(), msg);
    }

    #[test]
    fn short_messages_pad_with_zero() {
        let (p, m) = setup(256);
        let keys = KeyPair::generate(&p, &m, 1).unwrap();
        let msg = vec![1u8, 1, 0, 1];
        let ct = keys.public().encrypt_bits(&msg, &m, 2).unwrap();
        let pt = keys.secret().decrypt_bits(&ct, &m).unwrap();
        assert_eq!(&pt[..4], &msg[..]);
        assert!(pt[4..].iter().all(|&b| b == 0));
    }

    #[test]
    fn oversized_message_rejected() {
        let (p, m) = setup(256);
        let keys = KeyPair::generate(&p, &m, 1).unwrap();
        let msg = vec![0u8; 257];
        assert!(matches!(
            keys.public().encrypt_bits(&msg, &m, 2),
            Err(RlweError::MessageTooLong { .. })
        ));
    }

    #[test]
    fn wrong_key_garbles_message() {
        let (p, m) = setup(256);
        let alice = KeyPair::generate(&p, &m, 1).unwrap();
        let mallory = KeyPair::generate(&p, &m, 2).unwrap();
        let msg = bit_pattern(256, 1);
        let ct = alice.public().encrypt_bits(&msg, &m, 3).unwrap();
        let pt = mallory.secret().decrypt_bits(&ct, &m).unwrap();
        let wrong = pt.iter().zip(&msg).filter(|(a, b)| a != b).count();
        assert!(wrong > 64, "wrong key must not decrypt ({wrong} flips)");
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let (p, m) = setup(256);
        let keys = KeyPair::generate(&p, &m, 1).unwrap();
        let msg = bit_pattern(256, 9);
        let c1 = keys.public().encrypt_bits(&msg, &m, 10).unwrap();
        let c2 = keys.public().encrypt_bits(&msg, &m, 11).unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn delta_is_round_half_q() {
        assert_eq!(delta(12289), 6145);
        assert_eq!(delta(7681), 3841);
    }
}
