//! A GLP-style lattice signature (Fiat–Shamir with aborts).
//!
//! Digital signatures are the other half of the paper's motivation for
//! accelerated polynomial multiplication ("security mechanisms such as
//! digital signature and key agreement", §I). This is a simplified
//! Güneysu–Lyubashevsky–Pöppelmann scheme over the crate's rings:
//!
//! * **Keys**: small `s₁, s₂`; public `t = a·s₁ + s₂` for uniform `a`.
//! * **Sign**: sample masking `y₁, y₂` uniform in `[−B, B]`; challenge
//!   `c = H(a·y₁ + y₂ ‖ msg)` as a sparse ±1 polynomial; candidate
//!   `z₁ = y₁ + s₁·c`, `z₂ = y₂ + s₂·c`; **abort and retry** unless
//!   `‖z‖∞ ≤ B − κ` (the rejection step that makes `z` independent of
//!   the secret).
//! * **Verify**: check the bound and `H(a·z₁ + z₂ − t·c ‖ msg) = c` —
//!   which equals the signer's hash because
//!   `a·z₁ + z₂ − t·c = a·y₁ + y₂` identically.
//!
//! Three negacyclic multiplications per signing attempt and two per
//! verification, all through the pluggable backend. Toy parameters,
//! **not** a production signature scheme.

use crate::hash::{expand, Digest, Sha256};
use crate::sampling;
use crate::{Result, RlweError};
use modmath::params::ParamSet;
use ntt::negacyclic::PolyMultiplier;
use ntt::poly::{signed_residue, Polynomial};
use rand::Rng;

/// Number of ±1 coefficients in a challenge polynomial.
pub const CHALLENGE_WEIGHT: usize = 4;

/// Maximum signing attempts before giving up (acceptance ≈ 0.5/attempt,
/// so 64 attempts fail with probability ≈ 2⁻⁶⁴).
pub const MAX_ATTEMPTS: u32 = 64;

/// The masking bound `B` for a modulus: slightly below `q/2` so `y + s·c`
/// cannot wrap.
fn masking_bound(q: u64) -> i64 {
    (q as i64) * 47 / 100
}

/// A signature key pair.
#[derive(Debug, Clone, PartialEq)]
pub struct SigningKey {
    params: ParamSet,
    a: Polynomial,
    s1: Polynomial,
    s2: Polynomial,
    t: Polynomial,
}

/// The public verification key.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyKey {
    params: ParamSet,
    a: Polynomial,
    t: Polynomial,
}

/// A signature: the response pair and the challenge digest.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    z1: Polynomial,
    z2: Polynomial,
    challenge: Digest,
}

impl Signature {
    /// The first response polynomial `z₁ = y₁ + s₁·c`.
    pub fn z1(&self) -> &Polynomial {
        &self.z1
    }

    /// The second response polynomial `z₂ = y₂ + s₂·c`.
    pub fn z2(&self) -> &Polynomial {
        &self.z2
    }

    /// The Fiat–Shamir challenge digest.
    pub fn challenge(&self) -> &Digest {
        &self.challenge
    }
}

impl SigningKey {
    /// Generates a key pair.
    ///
    /// # Errors
    ///
    /// Propagates multiplier failures.
    pub fn generate<M: PolyMultiplier + ?Sized>(
        params: &ParamSet,
        mult: &M,
        seed: u64,
    ) -> Result<Self> {
        let mut rng = sampling::seeded_rng(seed);
        let a = sampling::uniform(params, &mut rng);
        let s1 = sampling::centered_binomial(params, 1, &mut rng);
        let s2 = sampling::centered_binomial(params, 1, &mut rng);
        let t = mult.multiply(&a, &s1)? + s2.clone();
        Ok(SigningKey {
            params: *params,
            a,
            s1,
            s2,
            t,
        })
    }

    /// The parameter set.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// The public half.
    pub fn verify_key(&self) -> VerifyKey {
        VerifyKey {
            params: self.params,
            a: self.a.clone(),
            t: self.t.clone(),
        }
    }

    /// Signs a message. Internally retries on rejection (Fiat–Shamir
    /// with aborts); the returned attempt count is exposed for the
    /// rejection-rate tests.
    ///
    /// # Errors
    ///
    /// [`RlweError::MessageTooLong`] is never returned (any message
    /// hashes); multiplier failures propagate. Exhausting
    /// [`MAX_ATTEMPTS`] returns [`RlweError::ParameterMismatch`]
    /// (practically unreachable).
    pub fn sign<M: PolyMultiplier + ?Sized>(
        &self,
        message: &[u8],
        mult: &M,
        seed: u64,
    ) -> Result<(Signature, u32)> {
        let q = self.params.q;
        let bound = masking_bound(q);
        let accept = bound - CHALLENGE_WEIGHT as i64;
        let mut rng = sampling::seeded_rng(seed ^ 0x5157_u64);

        for attempt in 1..=MAX_ATTEMPTS {
            let y1 = sample_masked(&self.params, bound, &mut rng);
            let y2 = sample_masked(&self.params, bound, &mut rng);
            let w = mult.multiply(&self.a, &y1)? + y2.clone();
            let challenge = challenge_digest(&w, message);
            let c = challenge_poly(&challenge, &self.params)?;
            // `s₁·c` and `s₂·c` are independent: the pair hook lets
            // batch-forming backends pack both into one batch.
            let (s1c, s2c) = mult.multiply_pair(&self.s1, &c, &self.s2, &c)?;
            let z1 = y1 + s1c;
            let z2 = y2 + s2c;
            if infinity_norm(&z1) <= accept && infinity_norm(&z2) <= accept {
                return Ok((Signature { z1, z2, challenge }, attempt));
            }
        }
        Err(RlweError::ParameterMismatch)
    }
}

impl VerifyKey {
    /// The parameter set.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Verifies a signature.
    ///
    /// # Errors
    ///
    /// Multiplier failures propagate; an invalid signature returns
    /// `Ok(false)`.
    pub fn verify<M: PolyMultiplier + ?Sized>(
        &self,
        message: &[u8],
        sig: &Signature,
        mult: &M,
    ) -> Result<bool> {
        let accept = masking_bound(self.params.q) - CHALLENGE_WEIGHT as i64;
        if infinity_norm(&sig.z1) > accept || infinity_norm(&sig.z2) > accept {
            return Ok(false);
        }
        let c = challenge_poly(&sig.challenge, &self.params)?;
        // a·z₁ + z₂ − t·c  =  a·y₁ + y₂; the two products are
        // independent, so the pair hook can batch them together.
        let (az1, tc) = mult.multiply_pair(&self.a, &sig.z1, &self.t, &c)?;
        let w = az1 + sig.z2.clone() - tc;
        Ok(challenge_digest(&w, message) == sig.challenge)
    }
}

/// Uniform polynomial with coefficients in `[−bound, bound]`.
fn sample_masked(params: &ParamSet, bound: i64, rng: &mut rand::rngs::StdRng) -> Polynomial {
    let q = params.q;
    let coeffs = (0..params.n)
        .map(|_| signed_residue(rng.gen_range(-bound..=bound), q))
        .collect();
    Polynomial::from_canonical_coeffs(coeffs, q).expect("validated parameters")
}

/// Largest absolute centered coefficient.
fn infinity_norm(p: &Polynomial) -> i64 {
    p.centered().map(i64::abs).max().unwrap_or(0)
}

/// The Fiat–Shamir hash of the commitment and the message.
fn challenge_digest(w: &Polynomial, message: &[u8]) -> Digest {
    let mut h = Sha256::tagged(b"glp-challenge");
    h.update_u64_be(w.coeffs());
    h.update(message);
    h.finalize()
}

/// Expands a challenge digest into the sparse ±1 polynomial: κ distinct
/// positions with signs, sampled from the digest stream.
fn challenge_poly(digest: &Digest, params: &ParamSet) -> Result<Polynomial> {
    let n = params.n;
    let stream = expand(digest, 8 * CHALLENGE_WEIGHT * 4);
    let q = params.q;
    let mut coeffs = vec![0u64; n];
    let mut placed = 0;
    let mut cursor = 0;
    while placed < CHALLENGE_WEIGHT && cursor + 5 <= stream.len() {
        let idx = u32::from_be_bytes(stream[cursor..cursor + 4].try_into().expect("4 bytes"))
            as usize
            % n;
        let sign = stream[cursor + 4] & 1;
        cursor += 5;
        if coeffs[idx] != 0 {
            continue;
        }
        coeffs[idx] = signed_residue(if sign == 1 { 1 } else { -1 }, q);
        placed += 1;
    }
    debug_assert_eq!(placed, CHALLENGE_WEIGHT, "digest stream exhausted");
    Ok(Polynomial::from_canonical_coeffs(coeffs, q)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt::negacyclic::NttMultiplier;

    fn setup(n: usize) -> (ParamSet, NttMultiplier, SigningKey) {
        let p = ParamSet::for_degree(n).unwrap();
        let m = NttMultiplier::new(&p).unwrap();
        let k = SigningKey::generate(&p, &m, 7).unwrap();
        (p, m, k)
    }

    #[test]
    fn sign_verify_roundtrip() {
        for n in [512usize, 1024] {
            let (_, m, sk) = setup(n);
            let vk = sk.verify_key();
            let (sig, attempts) = sk.sign(b"hello lattice", &m, 1).unwrap();
            assert!(attempts >= 1);
            assert!(vk.verify(b"hello lattice", &sig, &m).unwrap(), "n = {n}");
        }
    }

    #[test]
    fn wrong_message_rejected() {
        let (_, m, sk) = setup(512);
        let vk = sk.verify_key();
        let (sig, _) = sk.sign(b"message A", &m, 2).unwrap();
        assert!(!vk.verify(b"message B", &sig, &m).unwrap());
    }

    #[test]
    fn tampered_signature_rejected() {
        let (p, m, sk) = setup(512);
        let vk = sk.verify_key();
        let (mut sig, _) = sk.sign(b"msg", &m, 3).unwrap();
        let mut coeffs = sig.z1.coeffs().to_vec();
        coeffs[0] = (coeffs[0] + 1) % p.q;
        sig.z1 = Polynomial::from_coeffs(coeffs, p.q).unwrap();
        assert!(!vk.verify(b"msg", &sig, &m).unwrap());
    }

    #[test]
    fn wrong_key_rejected() {
        let (p, m, sk) = setup(512);
        let other = SigningKey::generate(&p, &m, 99).unwrap();
        let (sig, _) = sk.sign(b"msg", &m, 4).unwrap();
        assert!(!other.verify_key().verify(b"msg", &sig, &m).unwrap());
    }

    #[test]
    fn rejection_sampling_actually_rejects_sometimes() {
        // Over several signatures, at least one should need > 1 attempt
        // (acceptance ≈ 50 % per attempt at these parameters) and all
        // must stay within MAX_ATTEMPTS.
        let (_, m, sk) = setup(512);
        let mut total_attempts = 0;
        let runs = 12;
        for seed in 0..runs {
            let (_, attempts) = sk.sign(b"rejection test", &m, seed).unwrap();
            total_attempts += attempts;
        }
        assert!(
            total_attempts > runs as u32,
            "expected some rejections; got {total_attempts} attempts for {runs} signatures"
        );
    }

    #[test]
    fn response_is_bounded() {
        let (p, m, sk) = setup(512);
        let (sig, _) = sk.sign(b"bound check", &m, 5).unwrap();
        let accept = masking_bound(p.q) - CHALLENGE_WEIGHT as i64;
        assert!(infinity_norm(&sig.z1) <= accept);
        assert!(infinity_norm(&sig.z2) <= accept);
    }

    #[test]
    fn challenge_poly_is_sparse_and_deterministic() {
        let p = ParamSet::for_degree(512).unwrap();
        let d = crate::hash::sha256_tagged(b"test", b"challenge");
        let c1 = challenge_poly(&d, &p).unwrap();
        let c2 = challenge_poly(&d, &p).unwrap();
        assert_eq!(c1, c2);
        let nonzero: Vec<i64> = c1.to_centered().into_iter().filter(|&c| c != 0).collect();
        assert_eq!(nonzero.len(), CHALLENGE_WEIGHT);
        assert!(nonzero.iter().all(|&c| c == 1 || c == -1));
    }

    /// The masked sampler, `challenge_poly` and `infinity_norm` equal
    /// reference formulas over signed vectors (`from_signed_coeffs`,
    /// `to_centered`), draw for draw, at every paper q and at small q
    /// where `|c| ≥ q` takes the fallback.
    #[test]
    fn fused_samplers_and_norm_match_the_signed_vector_formulas() {
        let mut qs: Vec<u64> = ParamSet::paper_sweep().iter().map(|p| p.q).collect();
        qs.dedup();
        qs.extend([3, 5, 17]);
        for q in qs {
            let p = ParamSet {
                q,
                ..ParamSet::for_degree(512).unwrap()
            };
            for bound in [1, 2, 16, masking_bound(q).max(1), 3 * q as i64] {
                let (mut fused, mut reference) = (sampling::seeded_rng(q), sampling::seeded_rng(q));
                let got = sample_masked(&p, bound, &mut fused);
                let signed: Vec<i64> = (0..p.n)
                    .map(|_| reference.gen_range(-bound..=bound))
                    .collect();
                let want = Polynomial::from_signed_coeffs(&signed, q).unwrap();
                assert_eq!(got, want, "q {q} bound {bound}");
                assert_eq!(
                    fused.gen::<u64>(),
                    reference.gen::<u64>(),
                    "same draws consumed"
                );
                let old_norm = want.to_centered().into_iter().map(i64::abs).max().unwrap();
                assert_eq!(infinity_norm(&got), old_norm, "q {q} bound {bound}");
            }
            for tag in 0u8..8 {
                let d = crate::hash::sha256_tagged(b"test", &[tag]);
                let got = challenge_poly(&d, &p).unwrap();
                let stream = expand(&d, 8 * CHALLENGE_WEIGHT * 4);
                let mut signed = vec![0i64; p.n];
                let mut placed = 0;
                for chunk in stream.chunks_exact(5) {
                    if placed == CHALLENGE_WEIGHT {
                        break;
                    }
                    let idx = u32::from_be_bytes(chunk[..4].try_into().unwrap()) as usize % p.n;
                    if signed[idx] == 0 {
                        signed[idx] = if chunk[4] & 1 == 1 { 1 } else { -1 };
                        placed += 1;
                    }
                }
                assert_eq!(
                    got,
                    Polynomial::from_signed_coeffs(&signed, q).unwrap(),
                    "q {q}"
                );
            }
        }
    }

    #[test]
    fn works_on_pim_backend() {
        use cryptopim::accelerator::CryptoPim;
        let p = ParamSet::for_degree(512).unwrap();
        let pim = CryptoPim::new(&p).unwrap();
        let sk = SigningKey::generate(&p, &pim, 8).unwrap();
        let (sig, _) = sk.sign(b"pim signed", &pim, 9).unwrap();
        assert!(sk.verify_key().verify(b"pim signed", &sig, &pim).unwrap());
    }
}
