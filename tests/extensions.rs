//! Integration coverage of the extension features (DESIGN.md §6):
//! RNS multiplication, the CCA-style KEM, lattice signatures, batched
//! execution, and independent multipliers agreeing — each exercised
//! across crate boundaries, several on the PIM backend.

use cryptopim::accelerator::CryptoPim;
use cryptopim::batch::multiply_batch;
use modmath::params::ParamSet;
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;
use ntt::{karatsuba, rns};
use rlwe::kem::{encapsulate, KemKeyPair};
use rlwe::serialize;
use rlwe::signature::SigningKey;

#[test]
fn four_multipliers_agree() {
    // schoolbook-checked elsewhere; here: NTT vs Karatsuba vs PIM
    // engine, at a paper degree.
    let n = 1024;
    let p = ParamSet::for_degree(n).expect("paper degree");
    let a = Polynomial::from_coeffs((0..n as u64).map(|i| i * 19 % p.q).collect(), p.q)
        .expect("valid degree");
    let b = Polynomial::from_coeffs((0..n as u64).map(|i| (i * 5 + 3) % p.q).collect(), p.q)
        .expect("valid degree");

    let via_ntt = NttMultiplier::new(&p)
        .expect("params")
        .multiply(&a, &b)
        .expect("ntt");
    let via_kara = karatsuba::multiply(&a, &b).expect("karatsuba");
    let via_pim = CryptoPim::new(&p)
        .expect("params")
        .multiply(&a, &b)
        .expect("pim");

    assert_eq!(via_ntt, via_kara);
    assert_eq!(via_ntt, via_pim);
}

#[test]
fn rns_channel_consistency_with_single_prime() {
    // An RNS product reduced into one channel equals that channel's own
    // NTT product.
    let n = 256;
    let mult = rns::RnsMultiplier::new(n, &[7681, 12289]).expect("channels");
    let q = mult.modulus();
    let a: Vec<u128> = (0..n as u128).map(|i| (i * i * 31 + 5) % q).collect();
    let b: Vec<u128> = (0..n as u128).map(|i| (i * 77 + 1) % q).collect();
    let wide = mult.multiply(&a, &b).expect("rns");

    let p = ParamSet::for_degree(n).expect("degree");
    let single = NttMultiplier::new(&p).expect("params");
    let pa = Polynomial::from_coeffs(a.iter().map(|&c| (c % 7681) as u64).collect(), 7681)
        .expect("valid");
    let pb = Polynomial::from_coeffs(b.iter().map(|&c| (c % 7681) as u64).collect(), 7681)
        .expect("valid");
    let narrow = single.multiply(&pa, &pb).expect("ntt");
    for (i, &w) in wide.iter().enumerate() {
        assert_eq!((w % 7681) as u64, narrow.coeff(i), "slot {i}");
    }
}

#[test]
fn kem_over_serialized_transport() {
    // Full flow: encapsulate on the PIM backend, serialize the
    // ciphertext across a "wire", decapsulate on the software backend.
    let p = ParamSet::for_degree(512).expect("degree");
    let pim = CryptoPim::new(&p).expect("params");
    let sw = NttMultiplier::new(&p).expect("params");
    let keys = KemKeyPair::generate(&p, &sw, 42).expect("keygen");

    let enc = encapsulate(keys.public(), &pim, 1001).expect("encapsulate");
    let wire = serialize::ciphertext_to_bytes(&enc.ciphertext);
    assert_eq!(wire.len(), serialize::ciphertext_wire_size(&p));
    let received = serialize::ciphertext_from_bytes(&wire).expect("deserialize");
    let ss = keys.decapsulate(&received, &sw).expect("decapsulate");
    assert_eq!(ss, enc.shared_secret);
}

#[test]
fn signature_lifecycle_mixed_backends() {
    let p = ParamSet::for_degree(512).expect("degree");
    let sw = NttMultiplier::new(&p).expect("params");
    let pim = CryptoPim::new(&p).expect("params");
    // Keys generated and signed on software; verified on PIM.
    let sk = SigningKey::generate(&p, &sw, 3).expect("keygen");
    let (sig, _) = sk.sign(b"cross-backend", &sw, 4).expect("sign");
    assert!(sk
        .verify_key()
        .verify(b"cross-backend", &sig, &pim)
        .expect("verify"));
}

#[test]
fn batch_and_single_agree() {
    let p = ParamSet::for_degree(256).expect("degree");
    let acc = CryptoPim::new(&p).expect("params");
    let mk = |seed: u64| {
        Polynomial::from_coeffs((0..256u64).map(|i| (i * seed + 1) % p.q).collect(), p.q)
            .expect("valid")
    };
    let pairs = vec![(mk(3), mk(5)), (mk(7), mk(11))];
    let report = multiply_batch(&acc, &pairs).expect("batch");
    for (i, (a, b)) in pairs.iter().enumerate() {
        assert_eq!(report.products[i], acc.multiply(a, b).expect("single"));
    }
    assert!(report.makespan_us > 0.0);
    assert!(report.effective_throughput > 0.0);
}
