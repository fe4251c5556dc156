//! Seeded workload generation.
//!
//! The program under test only ever receives the inputs built here.
//! Nothing calls the service crate's own load generators, so the
//! workloads stay the same when those generators change or go away.

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
use service::{ProtocolJob, ProtocolKind};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Protocol mix in process; keys drawn from a small reused pool.
    ProtoReuse,
    /// The same protocol mix with a fresh key pair for every op.
    ProtoChurn,
    /// Raw n = 4096 multiplies over loopback TCP, Recompute-checked.
    Mul4096Tcp,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ProtoReuse,
        Workload::ProtoChurn,
        Workload::Mul4096Tcp,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProtoReuse => "proto-reuse",
            Workload::ProtoChurn => "proto-churn",
            Workload::Mul4096Tcp => "mul4096-tcp",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Ring degree of the protocol workloads (q = 12289).
pub const PROTO_N: usize = 1024;
/// Protocol ops generated per run. Clients cycle through them, so per-op
/// randomness repeats only every `PROTO_POOL` ops, far beyond the hot
/// cache's reach.
pub const PROTO_POOL: usize = 1024;
/// Key pairs per family in `proto-reuse`.
pub const REUSED_KEYS: usize = 4;
/// Hot-cache capacity of the protocol workloads.
pub const PROTO_HOT_CAPACITY: usize = 64;
/// The `kem:40,sign:30,she:20,wide:10` mix as exact counts per pool
/// (largest remainder of 1024 ops; each family split evenly between
/// its two kinds). Exact counts and the fixed signing stratum
/// ([`SIGN_STREAM`]) keep an op's mean cost the same for every seed, so
/// seeds move only order and randomness.
pub const PROTO_MIX: [(ProtocolKind, usize); 6] = [
    (ProtocolKind::Encaps, 205),
    (ProtocolKind::Decaps, 205),
    (ProtocolKind::Sign, 154),
    (ProtocolKind::Verify, 153),
    (ProtocolKind::SheMul, 205),
    (ProtocolKind::WideMul, 102),
];
/// Residue channels of the wide ops, and the floor of their primes.
const WIDE_CHANNELS: usize = 2;
const WIDE_PRIME_FLOOR: u64 = 1 << 20;

/// Ring degree of the raw multiply workload (the paper's n = 4096,
/// which pairs with q = 786433: 12289 has no 8192-th root of unity).
pub const MUL_N: usize = 4096;
/// Operand pairs generated per run for the raw multiply workload.
pub const MUL_POOL: usize = 64;

/// Mixed into the seed for the key stream, so `proto-reuse` and
/// `proto-churn` share their kind order and per-op randomness.
const KEY_STREAM: u64 = 0x6b65_7973_7472_6561;
/// Seed of the signing stratum. Signing's rejection-sampling attempts
/// are the only per-op cost that is random, and the few Sign ops with
/// the most attempts set the p99. Every Sign op (signing key, message,
/// masking seed) is drawn from this fixed stream, so the pool's attempt
/// counts, and with them the leaf-multiply total and the latency tail,
/// are the same for every seed. The seed still places the Sign ops and
/// draws everything else.
const SIGN_STREAM: u64 = 0x7369_676e_7374_7261;

/// The protocol workloads' parameter set.
pub fn proto_params() -> ParamSet {
    ParamSet::for_degree(PROTO_N).expect("n = 1024 is a paper degree")
}

/// The raw multiply workload's parameter set.
pub fn mul_params() -> ParamSet {
    ParamSet::for_degree(MUL_N).expect("n = 4096 is a paper degree")
}

/// The RNS basis of the wide ops.
pub fn wide_basis() -> RnsBasis {
    RnsBasis::discover(PROTO_N, WIDE_CHANNELS, WIDE_PRIME_FLOOR).expect("basis exists at n = 1024")
}

/// Long-lived key material of one reuse slot (or one churned op).
struct Keys {
    kem: KemKeyPair,
    pke: KeyPair,
    sig: SigningKey,
    plain: Polynomial,
}

impl Keys {
    fn generate(params: &ParamSet, ntt: &NttMultiplier, rng: &mut StdRng) -> Keys {
        Keys {
            kem: KemKeyPair::generate(params, ntt, rng.gen()).expect("kem keygen"),
            pke: KeyPair::generate(params, ntt, rng.gen()).expect("pke keygen"),
            sig: SigningKey::generate(params, ntt, rng.gen()).expect("sig keygen"),
            plain: sampling::uniform(params, rng),
        }
    }
}

/// Fisher–Yates with the shim's `gen_range`.
fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// The protocol op pool of `proto-reuse` (`churn = false`) or
/// `proto-churn` (`churn = true`). Deterministic in `seed`; both
/// variants draw the same kinds in the same order with the same per-op
/// randomness and differ only in key material.
pub fn proto_ops(seed: u64, churn: bool) -> Vec<ProtocolJob> {
    let params = proto_params();
    let ntt = NttMultiplier::new(&params).expect("paper parameters");
    let basis = wide_basis();
    let mut kinds: Vec<ProtocolKind> = PROTO_MIX
        .iter()
        .flat_map(|&(kind, count)| std::iter::repeat_n(kind, count))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    shuffle(&mut kinds, &mut rng);
    let mut key_rng = StdRng::seed_from_u64(seed ^ KEY_STREAM);
    let pool: Vec<Keys> = if churn {
        Vec::new()
    } else {
        (0..REUSED_KEYS)
            .map(|_| Keys::generate(&params, &ntt, &mut key_rng))
            .collect()
    };
    let mut sign_rng = StdRng::seed_from_u64(SIGN_STREAM);
    let signer =
        |rng: &mut StdRng| SigningKey::generate(&params, &ntt, rng.gen()).expect("sig keygen");
    let signers: Vec<SigningKey> = if churn {
        Vec::new()
    } else {
        (0..REUSED_KEYS).map(|_| signer(&mut sign_rng)).collect()
    };
    kinds
        .into_iter()
        .map(|kind| {
            let fresh: u64 = rng.gen();
            let slot = rng.gen_range(0..REUSED_KEYS);
            let churned;
            let keys = if churn {
                churned = Keys::generate(&params, &ntt, &mut key_rng);
                &churned
            } else {
                &pool[slot]
            };
            match kind {
                ProtocolKind::Encaps => ProtocolJob::Encaps {
                    pk: keys.kem.public().clone(),
                    entropy: fresh,
                },
                ProtocolKind::Decaps => ProtocolJob::Decaps {
                    ct: kem::encapsulate(keys.kem.public(), &ntt, fresh)
                        .expect("host encapsulate")
                        .ciphertext,
                    keys: Box::new(keys.kem.clone()),
                },
                ProtocolKind::Sign => {
                    let key = if churn {
                        signer(&mut sign_rng)
                    } else {
                        signers[sign_rng.gen_range(0..REUSED_KEYS)].clone()
                    };
                    ProtocolJob::Sign {
                        key: Box::new(key),
                        message: (0..16).map(|_| sign_rng.gen()).collect(),
                        seed: sign_rng.gen(),
                    }
                }
                ProtocolKind::Verify => {
                    let message: Vec<u8> = (0..16).map(|_| rng.gen()).collect();
                    let (signature, _) = keys.sig.sign(&message, &ntt, fresh).expect("host sign");
                    ProtocolJob::Verify {
                        key: keys.sig.verify_key(),
                        message,
                        signature,
                    }
                }
                ProtocolKind::SheMul => {
                    let bits: Vec<u8> = (0..PROTO_N).map(|_| rng.gen_range(0..2u8)).collect();
                    ProtocolJob::SheMul {
                        ct: rlwe::she::encrypt(&keys.pke, &bits, &ntt, fresh)
                            .expect("host she encrypt"),
                        plain: keys.plain.clone(),
                    }
                }
                ProtocolKind::WideMul => {
                    let big_q = basis.modulus();
                    let mut draw = || -> Vec<u128> {
                        (0..PROTO_N).map(|_| rng.gen::<u128>() % big_q).collect()
                    };
                    let a = draw();
                    let b = draw();
                    ProtocolJob::WideMul {
                        a,
                        b,
                        basis: basis.clone(),
                    }
                }
                other => unreachable!("{other} is not in the protocol mix"),
            }
        })
        .collect()
}

/// The operand pairs of `mul4096-tcp`. Deterministic in `seed`.
pub fn mul_pairs(seed: u64) -> Vec<(Polynomial, Polynomial)> {
    let params = mul_params();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..MUL_POOL)
        .map(|_| {
            let a = sampling::uniform(&params, &mut rng);
            let b = sampling::uniform(&params, &mut rng);
            (a, b)
        })
        .collect()
}

/// FNV-1a over 64-bit words: the op-set and output fingerprints.
pub fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_fills_the_pool_in_the_stated_proportions() {
        let total: usize = PROTO_MIX.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, PROTO_POOL);
        let family = |kinds: &[ProtocolKind]| -> usize {
            PROTO_MIX
                .iter()
                .filter(|(k, _)| kinds.contains(k))
                .map(|&(_, c)| c)
                .sum()
        };
        assert_eq!(family(&[ProtocolKind::Encaps, ProtocolKind::Decaps]), 410);
        assert_eq!(family(&[ProtocolKind::Sign, ProtocolKind::Verify]), 307);
        assert_eq!(family(&[ProtocolKind::SheMul]), 205);
        assert_eq!(family(&[ProtocolKind::WideMul]), 102);
    }
}
