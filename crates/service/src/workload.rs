//! Seeded, deterministic op streams: raw multiplies (narrow, hot-key,
//! and a narrow/wide blend) and weighted protocol mixes with key churn.
//!
//! Every stream is a pure function of its arguments, built on the
//! workspace's deterministic `rand` shim, so two runs with the same seed
//! submit identical work: wall-clock numbers vary with the host, the
//! operands never do. The load driver (`net::drive`), the fault
//! campaign and the integration suites all draw from here.
//!
//! Raw streams are [`ProtocolJob::Mul`] / [`ProtocolJob::WideMul`] ops,
//! so one oracle — [`ProtocolJob::run_direct`] — verifies every stream
//! this module produces.

use crate::graph::{ProtocolJob, ProtocolKind};
use modmath::crt::RnsBasis;
use modmath::params::ParamSet;
use ntt::negacyclic::NttMultiplier;
use ntt::poly::Polynomial;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlwe::kem::{self, KemKeyPair};
use rlwe::pke::KeyPair;
use rlwe::sampling;
use rlwe::signature::SigningKey;
use std::collections::HashMap;

/// Generates the deterministic narrow job stream for `(seed, jobs,
/// degrees)`: each job draws its degree from `degrees`, then fresh
/// `a` and `b` operands under the paper modulus.
pub fn generate_jobs(seed: u64, jobs: usize, degrees: &[usize]) -> Vec<(Polynomial, Polynomial)> {
    narrow_pairs(generate_raw_jobs(seed, jobs, degrees, 0, 0.0, None))
}

/// Generates a job stream whose `a` operands are drawn from a pool of
/// `hot_keys` reused seeded keys (each pool entry fixes its degree when
/// drawn); `b` is fresh per job. Deterministic in `(seed, jobs,
/// degrees, hot_keys)` like [`generate_jobs`].
pub fn generate_hot_jobs(
    seed: u64,
    jobs: usize,
    degrees: &[usize],
    hot_keys: usize,
) -> Vec<(Polynomial, Polynomial)> {
    narrow_pairs(generate_raw_jobs(
        seed,
        jobs,
        degrees,
        hot_keys.max(1),
        0.0,
        None,
    ))
}

fn narrow_pairs(jobs: Vec<ProtocolJob>) -> Vec<(Polynomial, Polynomial)> {
    jobs.into_iter()
        .map(|job| match job {
            ProtocolJob::Mul { a, b } => (a, b),
            _ => unreachable!("a stream without a wide blend is all narrow"),
        })
        .collect()
}

/// The raw-multiply stream every other raw generator specializes.
///
/// `a` operands come from a pool of `hot_keys` seeded keys when that is
/// non-zero, fresh otherwise; `b` is always fresh. With `wide > 0.0`
/// each job first rolls (seeded) whether it is a wide job under
/// `basis`'s composite modulus, with probability `wide`; with
/// `wide = 0.0` no roll is drawn, so the stream equals
/// [`generate_jobs`] / [`generate_hot_jobs`] exactly.
///
/// # Panics
///
/// Panics when `degrees` is empty, a degree has no paper parameter set,
/// or `wide > 0.0` without a `basis`.
pub fn generate_raw_jobs(
    seed: u64,
    jobs: usize,
    degrees: &[usize],
    hot_keys: usize,
    wide: f64,
    basis: Option<&RnsBasis>,
) -> Vec<ProtocolJob> {
    assert!(!degrees.is_empty(), "need at least one degree");
    let wide_permille = (wide.clamp(0.0, 1.0) * 1000.0).round() as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let draw_narrow = |rng: &mut StdRng, n: usize| -> Polynomial {
        let q = ParamSet::for_degree(n).expect("paper degree").q;
        let coeffs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        Polynomial::from_coeffs(coeffs, q).expect("in-range coeffs")
    };
    let pool: Vec<Polynomial> = (0..hot_keys)
        .map(|_| {
            let n = degrees[rng.gen_range(0..degrees.len())];
            draw_narrow(&mut rng, n)
        })
        .collect();
    (0..jobs)
        .map(|_| {
            if wide > 0.0 && rng.gen_range(0..1000u64) < wide_permille {
                let basis = basis.expect("a wide blend needs a basis");
                let q_wide = basis.modulus();
                let n = degrees[rng.gen_range(0..degrees.len())];
                let mut draw =
                    || -> Vec<u128> { (0..n).map(|_| rng.gen::<u128>() % q_wide).collect() };
                let (a, b) = (draw(), draw());
                ProtocolJob::WideMul {
                    a,
                    b,
                    basis: basis.clone(),
                }
            } else if !pool.is_empty() {
                let a = pool[rng.gen_range(0..pool.len())].clone();
                let b = draw_narrow(&mut rng, a.degree_bound());
                ProtocolJob::Mul { a, b }
            } else {
                let n = degrees[rng.gen_range(0..degrees.len())];
                let a = draw_narrow(&mut rng, n);
                let b = draw_narrow(&mut rng, n);
                ProtocolJob::Mul { a, b }
            }
        })
        .collect()
}

/// The RNS basis a wide blend over `degrees` multiplies under: `k`
/// discovered NTT-friendly primes above 2^20. Primes found at the
/// largest degree satisfy `2n | q − 1` at every smaller power of two
/// too, so one basis serves the whole mix.
///
/// # Panics
///
/// Panics when `degrees` is empty or no such basis exists.
pub fn wide_basis(degrees: &[usize], channels: usize) -> RnsBasis {
    let n_max = degrees
        .iter()
        .copied()
        .max()
        .expect("need at least one degree");
    RnsBasis::discover(n_max, channels, 1 << 20).expect("discoverable basis")
}

/// A weighted mix of protocol families, parsed from specs like
/// `"kem:40,sign:30,she:20,mul:10"`.
///
/// Family names expand to kinds: `kem` → Encaps + Decaps, `pke` →
/// PKE-Enc + PKE-Dec, `sign` → Sign + Verify (a signing service
/// verifies what it signs), `she` → SHE-Mul, `mul` → raw Mul, `wide` →
/// wide RNS Mul, `keygen` → KeyGen. Exact kind names
/// (`encaps`, `decaps`, `pke_enc`, `pke_dec`, `she_mul`, `wide_mul`,
/// `verify`) address a single kind. Weights are relative integers.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolMix {
    entries: Vec<(String, Vec<ProtocolKind>, u32)>,
    total: u64,
}

impl ProtocolMix {
    /// Parses a `name:weight,name:weight,...` spec.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending token (unknown
    /// family, non-numeric or zero weight, empty spec).
    pub fn parse(spec: &str) -> Result<ProtocolMix, String> {
        let mut entries: Vec<(String, Vec<ProtocolKind>, u32)> = Vec::new();
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let (name, weight) = token
                .split_once(':')
                .ok_or_else(|| format!("mix token {token:?} is not name:weight"))?;
            let kinds = Self::family(name.trim())
                .ok_or_else(|| format!("unknown protocol family {:?}", name.trim()))?;
            let weight: u32 = weight
                .trim()
                .parse()
                .map_err(|_| format!("weight in {token:?} is not an integer"))?;
            if weight == 0 {
                return Err(format!("weight in {token:?} must be positive"));
            }
            if entries.iter().any(|(n, _, _)| n == name.trim()) {
                return Err(format!("family {:?} listed twice", name.trim()));
            }
            entries.push((name.trim().to_string(), kinds, weight));
        }
        if entries.is_empty() {
            return Err("empty protocol mix".to_string());
        }
        let total = entries.iter().map(|(_, _, w)| u64::from(*w)).sum();
        Ok(ProtocolMix { entries, total })
    }

    /// The canonical mix: `kem:40,sign:30,she:20,mul:10`.
    pub fn standard() -> ProtocolMix {
        ProtocolMix::parse("kem:40,sign:30,she:20,mul:10").expect("canonical mix parses")
    }

    fn family(name: &str) -> Option<Vec<ProtocolKind>> {
        Some(match name {
            "kem" => vec![ProtocolKind::Encaps, ProtocolKind::Decaps],
            "pke" => vec![ProtocolKind::PkeEncrypt, ProtocolKind::PkeDecrypt],
            "sign" => vec![ProtocolKind::Sign, ProtocolKind::Verify],
            "she" | "she_mul" => vec![ProtocolKind::SheMul],
            "mul" => vec![ProtocolKind::Mul],
            "wide" | "wide_mul" => vec![ProtocolKind::WideMul],
            "keygen" => vec![ProtocolKind::KeyGen],
            "encaps" => vec![ProtocolKind::Encaps],
            "decaps" => vec![ProtocolKind::Decaps],
            "pke_enc" => vec![ProtocolKind::PkeEncrypt],
            "pke_dec" => vec![ProtocolKind::PkeDecrypt],
            "verify" => vec![ProtocolKind::Verify],
            _ => return None,
        })
    }

    /// Draws one kind: the family by weight, then a uniform member.
    fn draw(&self, rng: &mut StdRng) -> ProtocolKind {
        let mut roll = rng.gen_range(0..self.total);
        for (_, kinds, weight) in &self.entries {
            if roll < u64::from(*weight) {
                return kinds[rng.gen_range(0..kinds.len())];
            }
            roll -= u64::from(*weight);
        }
        unreachable!("weights sum to total")
    }

    /// Every kind the mix can emit (for reporting).
    pub fn kinds(&self) -> Vec<ProtocolKind> {
        let mut out: Vec<ProtocolKind> = Vec::new();
        for (_, kinds, _) in &self.entries {
            for &k in kinds {
                if !out.contains(&k) {
                    out.push(k);
                }
            }
        }
        out
    }
}

/// Long-lived key material, regenerated per churn epoch.
enum Material {
    Pke(KeyPair),
    Kem(KemKeyPair),
    Sig(SigningKey),
}

/// splitmix64 — derives independent key-epoch seeds from the run seed.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Generates the deterministic protocol-op stream.
///
/// Key material (PKE/KEM key pairs, signing keys, the SHE evaluation
/// operand, the hot raw-`a` operand) lives in per-`(family, degree,
/// epoch)` pools, where the epoch advances every `key_churn` ops
/// (never, when 0). Everything else — messages, encryption randomness,
/// entropy, signatures under test — is fresh per op. Deterministic in
/// all arguments.
///
/// # Panics
///
/// Panics when `degrees` is empty, a degree has no paper parameter
/// set, or (with a `wide` family in the mix) no RNS basis is
/// discoverable at a requested degree.
pub fn generate_protocol_ops(
    seed: u64,
    ops: usize,
    degrees: &[usize],
    mix: &ProtocolMix,
    key_churn: usize,
) -> Vec<ProtocolJob> {
    assert!(!degrees.is_empty(), "need at least one degree");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ntts: HashMap<usize, (ParamSet, NttMultiplier)> = HashMap::new();
    for &n in degrees {
        let params = ParamSet::for_degree(n).expect("paper degree");
        let ntt = NttMultiplier::new(&params).expect("paper parameters");
        ntts.insert(n, (params, ntt));
    }
    let mut bases: HashMap<usize, RnsBasis> = HashMap::new();
    // family code → Material pools; separate maps keep borrows simple.
    let mut pools: HashMap<(u8, usize, u64), Material> = HashMap::new();
    let mut hot_a: HashMap<(usize, u64), Polynomial> = HashMap::new();
    let mut she_plain: HashMap<(usize, u64), Polynomial> = HashMap::new();

    (0..ops)
        .map(|i| {
            let epoch = i.checked_div(key_churn).unwrap_or(0) as u64;
            let kind = mix.draw(&mut rng);
            let n = degrees[rng.gen_range(0..degrees.len())];
            let (params, ntt) = &ntts[&n];
            let fresh: u64 = rng.gen();
            let fresh_bits =
                |rng: &mut StdRng| -> Vec<u8> { (0..n).map(|_| rng.gen_range(0..2u8)).collect() };
            let key_seed = |family: u8| -> u64 {
                mix64(seed ^ mix64(epoch ^ (u64::from(family) << 40) ^ ((n as u64) << 8)))
            };
            let pke = |pools: &mut HashMap<(u8, usize, u64), Material>| -> KeyPair {
                let m = pools.entry((0, n, epoch)).or_insert_with(|| {
                    Material::Pke(KeyPair::generate(params, ntt, key_seed(0)).expect("pke keygen"))
                });
                match m {
                    Material::Pke(kp) => kp.clone(),
                    _ => unreachable!("family 0 holds PKE pairs"),
                }
            };
            match kind {
                ProtocolKind::Mul => {
                    let a = hot_a
                        .entry((n, epoch))
                        .or_insert_with(|| {
                            let mut kr = sampling::seeded_rng(key_seed(3));
                            sampling::uniform(params, &mut kr)
                        })
                        .clone();
                    let b = sampling::uniform(params, &mut rng);
                    ProtocolJob::Mul { a, b }
                }
                ProtocolKind::WideMul => {
                    let basis = bases
                        .entry(n)
                        .or_insert_with(|| {
                            RnsBasis::discover(n, 2, 1 << 20).expect("discoverable basis")
                        })
                        .clone();
                    let big_q = basis.modulus();
                    let draw = |rng: &mut StdRng| -> Vec<u128> {
                        (0..n).map(|_| rng.gen::<u128>() % big_q).collect()
                    };
                    let a = draw(&mut rng);
                    let b = draw(&mut rng);
                    ProtocolJob::WideMul { a, b, basis }
                }
                ProtocolKind::KeyGen => ProtocolJob::KeyGen {
                    params: *params,
                    seed: fresh,
                },
                ProtocolKind::PkeEncrypt => ProtocolJob::PkeEncrypt {
                    pk: pke(&mut pools).public().clone(),
                    bits: fresh_bits(&mut rng),
                    seed: fresh,
                },
                ProtocolKind::PkeDecrypt => {
                    let kp = pke(&mut pools);
                    let ct = kp
                        .public()
                        .encrypt_bits(&fresh_bits(&mut rng), ntt, fresh)
                        .expect("host encrypt");
                    ProtocolJob::PkeDecrypt {
                        sk: kp.secret().clone(),
                        ct,
                    }
                }
                ProtocolKind::Encaps | ProtocolKind::Decaps => {
                    let m = pools.entry((1, n, epoch)).or_insert_with(|| {
                        Material::Kem(
                            KemKeyPair::generate(params, ntt, key_seed(1)).expect("kem keygen"),
                        )
                    });
                    let keys = match m {
                        Material::Kem(kp) => kp.clone(),
                        _ => unreachable!("family 1 holds KEM pairs"),
                    };
                    if kind == ProtocolKind::Encaps {
                        ProtocolJob::Encaps {
                            pk: keys.public().clone(),
                            entropy: fresh,
                        }
                    } else {
                        let enc =
                            kem::encapsulate(keys.public(), ntt, fresh).expect("host encapsulate");
                        ProtocolJob::Decaps {
                            keys: Box::new(keys),
                            ct: enc.ciphertext,
                        }
                    }
                }
                ProtocolKind::SheMul => {
                    let kp = pke(&mut pools);
                    let ct = rlwe::she::encrypt(&kp, &fresh_bits(&mut rng), ntt, fresh)
                        .expect("host she encrypt");
                    let plain = she_plain
                        .entry((n, epoch))
                        .or_insert_with(|| {
                            let mut kr = sampling::seeded_rng(key_seed(4));
                            sampling::uniform(params, &mut kr)
                        })
                        .clone();
                    ProtocolJob::SheMul { ct, plain }
                }
                ProtocolKind::Sign | ProtocolKind::Verify => {
                    let m = pools.entry((2, n, epoch)).or_insert_with(|| {
                        Material::Sig(
                            SigningKey::generate(params, ntt, key_seed(2)).expect("sig keygen"),
                        )
                    });
                    let key = match m {
                        Material::Sig(k) => k.clone(),
                        _ => unreachable!("family 2 holds signing keys"),
                    };
                    let message: Vec<u8> = (0..16).map(|_| rng.gen()).collect();
                    if kind == ProtocolKind::Sign {
                        ProtocolJob::Sign {
                            key: Box::new(key),
                            message,
                            seed: fresh,
                        }
                    } else {
                        let (signature, _) = key.sign(&message, ntt, fresh).expect("host sign");
                        ProtocolJob::Verify {
                            key: key.verify_key(),
                            message,
                            signature,
                        }
                    }
                }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eat(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn eat_narrow(h: &mut u64, a: &Polynomial, b: &Polynomial) {
        eat(h, &[1]);
        eat(h, &(a.degree_bound() as u64).to_le_bytes());
        eat(h, &a.modulus().to_le_bytes());
        for c in a.coeffs().iter().chain(b.coeffs()) {
            eat(h, &c.to_le_bytes());
        }
    }

    /// FNV-1a over every operand, in stream order.
    fn pairs_digest(jobs: &[(Polynomial, Polynomial)]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for (a, b) in jobs {
            eat_narrow(&mut h, a, b);
        }
        h
    }

    fn raw_digest(jobs: &[ProtocolJob]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for job in jobs {
            match job {
                ProtocolJob::Mul { a, b } => eat_narrow(&mut h, a, b),
                ProtocolJob::WideMul { a, b, .. } => {
                    eat(&mut h, &[2]);
                    for c in a.iter().chain(b) {
                        eat(&mut h, &c.to_le_bytes());
                    }
                }
                other => panic!("raw streams hold multiplies only: {other:?}"),
            }
        }
        h
    }

    /// FNV-1a over each op's debug rendering plus its direct output's
    /// digest, in stream order.
    fn ops_digest(ops: &[ProtocolJob]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for op in ops {
            eat(&mut h, format!("{op:?}").as_bytes());
            eat(&mut h, &op.run_direct().unwrap().digest().to_le_bytes());
        }
        h
    }

    /// The streams CI and the fault campaign run, pinned by digest: the
    /// campaign's "vacuous cell" gates depend on where faults land, so
    /// no generator change may move a single operand of these streams.
    #[test]
    fn ci_streams_match_pinned_digests() {
        assert_eq!(
            pairs_digest(&generate_jobs(7, 240, &[256, 512, 1024])),
            0x5dfa_00e1_c00c_be22,
            "raw seed 7"
        );
        assert_eq!(
            pairs_digest(&generate_hot_jobs(7, 240, &[256, 512, 1024], 4)),
            0xd73d_8be0_3810_0667,
            "hot-key seed 7"
        );
        let basis = wide_basis(&[256, 512, 1024], 2);
        assert_eq!(
            raw_digest(&generate_raw_jobs(
                7,
                240,
                &[256, 512, 1024],
                0,
                0.25,
                Some(&basis)
            )),
            0x8614_8f76_dff7_2bc3,
            "--wide 0.25 blend"
        );
        // Fault-campaign cells: (cell seed, degree, digest) for
        // `--seed 9 --degrees 256,1024 --jobs 16 --rates 1e-4,1e-3`.
        for (seed, degree, digest) in [
            (0x7095_3ca8_8677_5874, 256, 0x5574_4ab8_fab9_9c3d),
            (0xa069_fddb_00c4_7b95, 256, 0x3686_f95a_8501_c300),
            (0x7c81_6caf_c414_1af7, 1024, 0x4586_5771_65da_9e38),
            (0x42e8_76ea_cb12_c99b, 1024, 0xa3ba_2c78_7f19_5e1f),
            (0x1356_b917_e3bf_df41, 256, 0x5f0b_ccab_76db_62e8),
            (0x21fc_bb71_d7fc_28b4, 256, 0x1724_80e0_2dbe_a570),
            (0x7bf8_d28d_4c29_72bc, 1024, 0x86b2_6f14_1025_0b34),
            (0x4a7a_c96e_4b18_168f, 1024, 0xc7b4_204d_fe87_4fb2),
            (0x49e2_9098_dcd7_11d7, 256, 0x9e82_5108_8394_8728),
            (0x85af_1ad8_198b_5f0c, 256, 0x7e03_e983_f8a2_df55),
            (0xdc89_c7e9_025a_7dd7, 1024, 0xe273_a3ca_3aea_6c81),
            (0xfdf9_7d97_2568_25bd, 1024, 0xfb72_c99d_0466_9fb2),
        ] {
            assert_eq!(
                pairs_digest(&generate_jobs(seed, 16, &[degree])),
                digest,
                "campaign cell {seed:#x}"
            );
        }
        // The hot-cached cell: `--seed 123 --degrees 256 --jobs 24
        // --kinds transient --rates 1e-3 --hot-keys 4`.
        assert_eq!(
            pairs_digest(&generate_hot_jobs(0xb16a_c358_6c9b_200e, 24, &[256], 4)),
            0xaacd_4b9d_da38_082c,
            "hot-cached campaign cell"
        );
        for (churn, digest) in [(0, 0x3259_5f4e_a14f_3ee0), (1, 0x649b_ef9f_5f51_124a)] {
            assert_eq!(
                ops_digest(&generate_protocol_ops(
                    7,
                    192,
                    &[256],
                    &ProtocolMix::standard(),
                    churn
                )),
                digest,
                "protocol mix seed 7, churn {churn}"
            );
        }
    }

    #[test]
    fn job_stream_is_deterministic() {
        let a = generate_jobs(42, 20, &[256, 512]);
        let b = generate_jobs(42, 20, &[256, 512]);
        assert_eq!(a, b);
        let c = generate_jobs(43, 20, &[256, 512]);
        assert_ne!(a, c, "different seed, different stream");
        for (x, y) in &a {
            assert_eq!(x.degree_bound(), y.degree_bound());
            assert!([256, 512].contains(&x.degree_bound()));
        }
    }

    #[test]
    fn mixed_stream_is_deterministic_and_blends_wide_jobs() {
        let basis = RnsBasis::discover(512, 3, 1 << 20).unwrap();
        let a = generate_raw_jobs(42, 64, &[256, 512], 0, 0.5, Some(&basis));
        assert_eq!(
            raw_digest(&a),
            raw_digest(&generate_raw_jobs(
                42,
                64,
                &[256, 512],
                0,
                0.5,
                Some(&basis)
            ))
        );
        let wide = a
            .iter()
            .filter(|j| j.kind() == ProtocolKind::WideMul)
            .count();
        assert!(wide > 0 && wide < 64, "a genuine blend, got {wide}/64 wide");
        for job in &a {
            if let ProtocolJob::WideMul { a: x, b: y, .. } = job {
                assert_eq!(x.len(), y.len());
                assert!(x.iter().all(|&c| c < basis.modulus()));
            }
        }
        // wide = 0.0 degenerates to the narrow stream exactly.
        let legacy = generate_jobs(42, 20, &[256, 512]);
        let mixed = narrow_pairs(generate_raw_jobs(42, 20, &[256, 512], 0, 0.0, None));
        assert_eq!(legacy, mixed);
    }

    #[test]
    fn hot_key_stream_reuses_operands() {
        let jobs = generate_hot_jobs(13, 32, &[256], 4);
        assert_eq!(jobs, generate_hot_jobs(13, 32, &[256], 4), "deterministic");
        let distinct: std::collections::HashSet<&[u64]> =
            jobs.iter().map(|(a, _)| a.coeffs()).collect();
        assert!(distinct.len() <= 4, "a drawn from a 4-key pool");
    }

    #[test]
    fn mix_parses_families_and_rejects_garbage() {
        let mix = ProtocolMix::parse("kem:40,sign:30,she:20,mul:10").expect("canonical");
        assert_eq!(mix, ProtocolMix::standard());
        let kinds = mix.kinds();
        for k in [
            ProtocolKind::Encaps,
            ProtocolKind::Decaps,
            ProtocolKind::Sign,
            ProtocolKind::Verify,
            ProtocolKind::SheMul,
            ProtocolKind::Mul,
        ] {
            assert!(kinds.contains(&k), "{k} in canonical mix");
        }
        assert!(!kinds.contains(&ProtocolKind::KeyGen));
        // Exact kind names address single kinds.
        let narrow = ProtocolMix::parse("encaps:1").expect("single kind");
        assert_eq!(narrow.kinds(), vec![ProtocolKind::Encaps]);
        for bad in ["", "kem", "kem:0", "kem:x", "dilithium:3", "kem:1,kem:2"] {
            assert!(ProtocolMix::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn op_stream_is_deterministic_and_churn_rotates_keys() {
        let mix = ProtocolMix::parse("encaps:1").expect("mix");
        let a = generate_protocol_ops(9, 12, &[256], &mix, 0);
        let b = generate_protocol_ops(9, 12, &[256], &mix, 0);
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind(), y.kind());
            assert_eq!(
                x.run_direct().expect("direct"),
                y.run_direct().expect("direct"),
                "same config, same stream"
            );
        }
        let pk_of = |j: &ProtocolJob| match j {
            ProtocolJob::Encaps { pk, .. } => pk.clone(),
            _ => panic!("encaps-only mix"),
        };
        // churn 0: one public key for the whole run; fresh entropy only.
        let first = pk_of(&a[0]);
        assert!(a.iter().all(|j| pk_of(j) == first), "keys reused");
        let entropies: std::collections::HashSet<u64> = a
            .iter()
            .map(|j| match j {
                ProtocolJob::Encaps { entropy, .. } => *entropy,
                _ => unreachable!(),
            })
            .collect();
        assert!(entropies.len() > 1, "per-op randomness stays fresh");
        // churn 4: a new key every 4 ops.
        let churned = generate_protocol_ops(9, 12, &[256], &mix, 4);
        let distinct: Vec<_> = churned.iter().map(pk_of).fold(Vec::new(), |mut acc, pk| {
            if !acc.contains(&pk) {
                acc.push(pk);
            }
            acc
        });
        assert_eq!(distinct.len(), 3, "12 ops / churn 4 = 3 key epochs");
    }
}
