//! Primitive roots of unity and precomputed twiddle-factor tables.
//!
//! Algorithm 1 precomputes `{w^i, w^-i, φ^i, φ^-i}` where `w` is a
//! primitive `n`-th root of unity and `φ` a primitive `2n`-th root with
//! `φ² = w (mod q)`. The `w` powers are stored in bit-reversed order (the
//! Gentleman–Sande loop indexes `twiddle[j >> (i+1)]`), while the `φ`
//! powers are stored in normal order. [`NttTables`] reproduces exactly
//! that layout.

use crate::params::ParamSet;
use crate::{bitrev, primes, shoup, zq, Error};
use std::sync::OnceLock;

/// Finds a generator of the multiplicative group `Z_q^*` for prime `q`.
///
/// # Errors
///
/// Returns [`Error::NotPrime`] when `q` is not prime.
pub fn find_generator(q: u64) -> Result<u64, Error> {
    if !primes::is_prime(q) {
        return Err(Error::NotPrime { q });
    }
    if q == 2 {
        return Ok(1);
    }
    let factors = primes::trial_factor(q - 1);
    'candidate: for g in 2..q {
        for &(p, _) in &factors {
            if zq::pow(g, (q - 1) / p, q) == 1 {
                continue 'candidate;
            }
        }
        return Ok(g);
    }
    unreachable!("every prime has a generator")
}

/// Finds a primitive `order`-th root of unity modulo prime `q`.
///
/// # Errors
///
/// * [`Error::NotPrime`] when `q` is not prime.
/// * [`Error::NoRootOfUnity`] when `order` does not divide `q − 1`.
pub fn primitive_root_of_unity(order: u64, q: u64) -> Result<u64, Error> {
    if !primes::is_prime(q) {
        return Err(Error::NotPrime { q });
    }
    if order == 0 || !(q - 1).is_multiple_of(order) {
        return Err(Error::NoRootOfUnity { q, order });
    }
    let g = find_generator(q)?;
    let root = zq::pow(g, (q - 1) / order, q);
    debug_assert_eq!(zq::pow(root, order, q), 1);
    Ok(root)
}

/// Checks that `root` has exact multiplicative order `order` modulo `q`.
pub fn is_primitive_root(root: u64, order: u64, q: u64) -> bool {
    if zq::pow(root, order, q) != 1 {
        return false;
    }
    for (p, _) in primes::trial_factor(order) {
        if zq::pow(root, order / p, q) == 1 {
            return false;
        }
    }
    true
}

/// Precomputed twiddle tables for a negacyclic NTT of length `n` over
/// `Z_q`, in the layout of Algorithm 1:
///
/// * `omega_powers` / `omega_inv_powers` — `w^i` and `w^-i` for
///   `i ∈ [0, n/2)`, **bit-reversed order** (indexed by the GS loop as
///   `twiddle[j >> (i+1)]` which visits them sequentially per stage).
/// * `phi_powers` / `phi_inv_powers` — `φ^i`, `φ^-i` for `i ∈ [0, n)`,
///   normal order.
/// * `n_inv` — `n⁻¹ mod q`, with its Shoup companion (`⌊n⁻¹·2^64/q⌋`,
///   see [`crate::shoup`]) for the merged inverse's final scaling.
///
/// The classic ω/φ tables feed the strict Algorithm-2 oracle
/// (`ntt::gs`) and the simulated datapath's mapping; they are built on
/// first use, so a multiplier that only runs the merged kernels (every
/// software multiply, the serving referee, the engine's fast datapath)
/// never holds them. The merged-kernel twiddles ([`MergedTwiddles`])
/// are built eagerly and stored once, at the lane width those kernels
/// run.
#[derive(Debug, Clone)]
pub struct NttTables {
    n: usize,
    q: u64,
    omega: u64,
    phi: u64,
    n_inv: u64,
    n_inv_shoup: u64,
    merged: MergedTwiddles,
    classic: OnceLock<ClassicTables>,
}

/// Tables are a function of `(n, q)` and the chosen roots; whether the
/// classic tables have been built yet does not change what they are.
impl PartialEq for NttTables {
    fn eq(&self, other: &Self) -> bool {
        (self.n, self.q, self.omega, self.phi) == (other.n, other.q, other.omega, other.phi)
    }
}

impl Eq for NttTables {}

/// The Algorithm-1 tables of the classic (φ-scaled, Gentleman–Sande)
/// pipeline; see [`NttTables`] for the layout.
#[derive(Debug, Clone)]
struct ClassicTables {
    omega_powers: Vec<u64>,
    omega_inv_powers: Vec<u64>,
    phi_powers: Vec<u64>,
    phi_inv_powers: Vec<u64>,
}

/// `1, x, x², …` — `len` successive powers of `x` mod `q`.
fn powers(x: u64, len: usize, q: u64) -> Vec<u64> {
    let mut acc = 1u64;
    (0..len)
        .map(|_| {
            let p = acc;
            acc = zq::mul(acc, x, q);
            p
        })
        .collect()
}

impl ClassicTables {
    fn build(n: usize, q: u64, omega: u64, phi: u64) -> ClassicTables {
        let omega_inv = zq::inv(omega, q).expect("a root of unity is invertible");
        let phi_inv = zq::inv(phi, q).expect("a root of unity is invertible");
        // w-powers in natural order, then permuted bit-reversed.
        let half = n / 2;
        let bits = bitrev::log2_exact(half).map_or(0, |b| b);
        let bit_reversed = |natural: Vec<u64>| -> Vec<u64> {
            let mut out = natural.clone();
            if half > 1 {
                for (i, &w) in natural.iter().enumerate() {
                    out[bitrev::reverse_bits(i, bits)] = w;
                }
            }
            out
        };
        ClassicTables {
            omega_powers: bit_reversed(powers(omega, half.max(1), q)),
            omega_inv_powers: bit_reversed(powers(omega_inv, half.max(1), q)),
            phi_powers: powers(phi, n, q),
            phi_inv_powers: powers(phi_inv, n, q),
        }
    }
}

/// One merged twiddle table and its Shoup companions at lane width `W`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Twiddles<W> {
    /// Entry `i` is `φ^{±rev(i, log2 n)}`, canonical.
    pub w: Vec<W>,
    /// Shoup companions: `⌊w·2^32/q⌋` in `u32` lanes, `⌊w·2^64/q⌋` in
    /// `u64` lanes.
    pub shoup: Vec<W>,
}

/// The merged-kernel twiddle tables, stored once at the lane width the
/// merged kernels run for the modulus: `u32` with half-width companions
/// when `q <` [`shoup::HALF_MODULUS_LIMIT`] (every paper modulus), `u64`
/// with full-width companions otherwise. The variant is the routing
/// decision; no kernel narrows or widens a table per call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergedTwiddles {
    /// `q < 2^30`: `u32` tables.
    Half {
        /// Forward (CT) twiddles, `φ^{rev(i)}`.
        forward: Twiddles<u32>,
        /// Inverse (GS) twiddles, `φ^{-rev(i)}`.
        inverse: Twiddles<u32>,
    },
    /// `q ≥ 2^30`: `u64` tables.
    Wide {
        /// Forward (CT) twiddles, `φ^{rev(i)}`.
        forward: Twiddles<u64>,
        /// Inverse (GS) twiddles, `φ^{-rev(i)}`.
        inverse: Twiddles<u64>,
    },
}

impl NttTables {
    /// Builds tables for the given parameter set.
    ///
    /// # Errors
    ///
    /// Propagates [`Error::NoRootOfUnity`] / [`Error::NotPrime`] when the
    /// parameter set does not admit a negacyclic NTT, and
    /// [`Error::InvalidDegree`] when `n < 2` or `n` is not a power of two.
    pub fn new(params: &ParamSet) -> Result<Self, Error> {
        Self::for_degree_modulus(params.n, params.q)
    }

    /// Builds tables for an explicit `(n, q)` pair.
    ///
    /// # Errors
    ///
    /// Same as [`NttTables::new`].
    pub fn for_degree_modulus(n: usize, q: u64) -> Result<Self, Error> {
        if n < 2 || !n.is_power_of_two() {
            return Err(Error::InvalidDegree { n });
        }
        let phi = primitive_root_of_unity(2 * n as u64, q)?;
        let omega = zq::mul(phi, phi, q);
        debug_assert!(is_primitive_root(omega, n as u64, q));

        let phi_inv = zq::inv(phi, q)?;
        let n_inv = zq::inv(n as u64 % q, q)?;

        // Merged-twiddle (Longa–Naehrig style) tables: entry i holds
        // φ^{±rev(i, log2 n)}. The merged negacyclic kernels index these
        // as `table[m + i]` for the i-th block of the m-block stage, so
        // each stage reads entries `m..2m` sequentially and the φ
        // pre/post-scaling passes disappear into the butterflies.
        let n_bits = bitrev::log2_exact(n).expect("validated power of two");
        let merged_order = |natural: &[u64]| -> Vec<u64> {
            (0..n)
                .map(|i| natural[bitrev::reverse_bits(i, n_bits)])
                .collect()
        };
        let (fwd, inv) = (
            merged_order(&powers(phi, n, q)),
            merged_order(&powers(phi_inv, n, q)),
        );
        let merged = if q < shoup::HALF_MODULUS_LIMIT {
            let half = |ws: Vec<u64>| Twiddles {
                shoup: ws
                    .iter()
                    .map(|&w| shoup::precompute_half(w, q) as u32)
                    .collect(),
                w: ws.iter().map(|&w| w as u32).collect(),
            };
            MergedTwiddles::Half {
                forward: half(fwd),
                inverse: half(inv),
            }
        } else {
            let wide = |ws: Vec<u64>| Twiddles {
                shoup: shoup::precompute_table(&ws, q),
                w: ws,
            };
            MergedTwiddles::Wide {
                forward: wide(fwd),
                inverse: wide(inv),
            }
        };

        let n_inv_shoup = shoup::precompute(n_inv, q);

        Ok(NttTables {
            n,
            q,
            omega,
            phi,
            n_inv,
            n_inv_shoup,
            merged,
            classic: OnceLock::new(),
        })
    }

    /// The classic-pipeline tables, built by the first caller.
    fn classic(&self) -> &ClassicTables {
        self.classic
            .get_or_init(|| ClassicTables::build(self.n, self.q, self.omega, self.phi))
    }

    /// Transform length.
    #[inline]
    pub fn degree(&self) -> usize {
        self.n
    }

    /// Modulus.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// The primitive `n`-th root of unity `w`.
    #[inline]
    pub fn omega(&self) -> u64 {
        self.omega
    }

    /// The primitive `2n`-th root `φ` (with `φ² = w`).
    #[inline]
    pub fn phi(&self) -> u64 {
        self.phi
    }

    /// `w^i` for `i ∈ [0, n/2)`, bit-reversed order.
    #[inline]
    pub fn omega_powers(&self) -> &[u64] {
        &self.classic().omega_powers
    }

    /// `w^-i` for `i ∈ [0, n/2)`, bit-reversed order.
    #[inline]
    pub fn omega_inv_powers(&self) -> &[u64] {
        &self.classic().omega_inv_powers
    }

    /// `φ^i` for `i ∈ [0, n)`, normal order.
    #[inline]
    pub fn phi_powers(&self) -> &[u64] {
        &self.classic().phi_powers
    }

    /// `φ^-i` for `i ∈ [0, n)`, normal order.
    #[inline]
    pub fn phi_inv_powers(&self) -> &[u64] {
        &self.classic().phi_inv_powers
    }

    /// The merged forward (`φ^{rev(i)}`) and inverse (`φ^{-rev(i)}`)
    /// twiddle tables with their Shoup companions. The CT stage with `m`
    /// blocks reads forward entries `m..2m` (one per block), folding the
    /// `φ ⊙ a` pre-scaling into the butterflies; the GS stage with `h`
    /// blocks reads inverse entries `h..2h`, folding the `φ̄`
    /// post-scaling in, so only the `n⁻¹` factor remains as a final pass.
    #[inline]
    pub fn merged_twiddles(&self) -> &MergedTwiddles {
        &self.merged
    }

    /// `n⁻¹ mod q`.
    #[inline]
    pub fn n_inv(&self) -> u64 {
        self.n_inv
    }

    /// Shoup companion of [`NttTables::n_inv`].
    #[inline]
    pub fn n_inv_shoup(&self) -> u64 {
        self.n_inv_shoup
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_primitive() {
        for q in [7681u64, 12289, 786433, 97] {
            let g = find_generator(q).unwrap();
            assert!(is_primitive_root(g, q - 1, q), "q = {q}, g = {g}");
        }
    }

    #[test]
    fn generator_rejects_composite() {
        assert!(matches!(find_generator(100), Err(Error::NotPrime { .. })));
    }

    #[test]
    fn primitive_roots_have_exact_order() {
        for (order, q) in [(512u64, 7681u64), (2048, 12289), (65536, 786433)] {
            let r = primitive_root_of_unity(order, q).unwrap();
            assert!(is_primitive_root(r, order, q), "order {order} mod {q}");
        }
    }

    #[test]
    fn no_root_when_order_does_not_divide() {
        assert!(matches!(
            primitive_root_of_unity(1024, 7681),
            Err(Error::NoRootOfUnity { .. })
        ));
    }

    #[test]
    fn tables_phi_squared_is_omega() {
        for (n, q) in [
            (256usize, 7681u64),
            (512, 12289),
            (1024, 12289),
            (2048, 786433),
        ] {
            let t = NttTables::for_degree_modulus(n, q).unwrap();
            assert_eq!(zq::mul(t.phi(), t.phi(), q), t.omega(), "n={n} q={q}");
            assert!(is_primitive_root(t.phi(), 2 * n as u64, q));
            assert!(is_primitive_root(t.omega(), n as u64, q));
        }
    }

    #[test]
    fn tables_lengths_and_layout() {
        let n = 16;
        let q = 7681; // 32 | 7680
        let t = NttTables::for_degree_modulus(n, q).unwrap();
        assert_eq!(t.omega_powers().len(), n / 2);
        assert_eq!(t.phi_powers().len(), n);
        // Bit-reversed layout: slot rev(i) holds w^i.
        let bits = bitrev::log2_exact(n / 2).unwrap();
        for i in 0..n / 2 {
            let slot = bitrev::reverse_bits(i, bits);
            assert_eq!(t.omega_powers()[slot], zq::pow(t.omega(), i as u64, q));
            assert_eq!(
                t.omega_inv_powers()[slot],
                zq::inv(zq::pow(t.omega(), i as u64, q), q).unwrap()
            );
        }
        // phi powers in normal order.
        for i in 0..n {
            assert_eq!(t.phi_powers()[i], zq::pow(t.phi(), i as u64, q));
            assert_eq!(
                zq::mul(t.phi_powers()[i], t.phi_inv_powers()[i], q),
                1,
                "phi^i · phi^-i = 1"
            );
        }
        assert_eq!(zq::mul(t.n_inv(), n as u64, q), 1);
        assert_eq!(t.n_inv_shoup(), shoup::precompute(t.n_inv(), q));
    }

    #[test]
    fn classic_tables_are_built_on_first_use_only() {
        // Everything the merged kernels read leaves the classic tables
        // unbuilt; the first classic accessor builds them, and equality
        // does not depend on it.
        let t = NttTables::for_degree_modulus(64, 12289).unwrap();
        let _ = (
            t.merged_twiddles(),
            t.n_inv(),
            t.n_inv_shoup(),
            t.phi(),
            t.omega(),
        );
        assert!(t.classic.get().is_none());
        let eager = t.clone();
        assert_eq!(t.phi_inv_powers().len(), 64);
        assert!(t.classic.get().is_some());
        assert_eq!(t, eager);
    }

    #[test]
    fn merged_twiddle_tables_layout() {
        // Entry i of the forward table is φ^{rev(i)}, the inverse entry
        // its inverse; companions are half-width below 2^30, full-width
        // above.
        let n = 16usize;
        let bits = bitrev::log2_exact(n).unwrap();
        let mut wide_q = shoup::HALF_MODULUS_LIMIT + 1;
        while !crate::primes::is_prime(wide_q) {
            wide_q += 2 * n as u64;
        }
        for q in [7681u64, 786433, wide_q] {
            let t = NttTables::for_degree_modulus(n, q).unwrap();
            let (fwd, inv, fwd_shoup, inv_shoup): (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>) =
                match t.merged_twiddles() {
                    MergedTwiddles::Half { forward, inverse } => {
                        assert!(q < shoup::HALF_MODULUS_LIMIT, "q = {q}");
                        let wide = |v: &[u32]| v.iter().map(|&x| u64::from(x)).collect();
                        (
                            wide(&forward.w),
                            wide(&inverse.w),
                            wide(&forward.shoup),
                            wide(&inverse.shoup),
                        )
                    }
                    MergedTwiddles::Wide { forward, inverse } => {
                        assert!(q >= shoup::HALF_MODULUS_LIMIT, "q = {q}");
                        (
                            forward.w.clone(),
                            inverse.w.clone(),
                            forward.shoup.clone(),
                            inverse.shoup.clone(),
                        )
                    }
                };
            assert_eq!(fwd.len(), n);
            assert_eq!(inv.len(), n);
            let companion = |w: u64| {
                if q < shoup::HALF_MODULUS_LIMIT {
                    shoup::precompute_half(w, q)
                } else {
                    shoup::precompute(w, q)
                }
            };
            for i in 0..n {
                let r = bitrev::reverse_bits(i, bits) as u64;
                assert_eq!(fwd[i], zq::pow(t.phi(), r, q), "q={q} i={i}");
                assert_eq!(zq::mul(fwd[i], inv[i], q), 1, "inverse entry, q={q} i={i}");
                assert_eq!(fwd_shoup[i], companion(fwd[i]), "q={q} i={i}");
                assert_eq!(inv_shoup[i], companion(inv[i]), "q={q} i={i}");
            }
        }
    }

    #[test]
    fn tables_reject_bad_degree() {
        assert!(matches!(
            NttTables::for_degree_modulus(0, 12289),
            Err(Error::InvalidDegree { .. })
        ));
        assert!(matches!(
            NttTables::for_degree_modulus(3, 12289),
            Err(Error::InvalidDegree { .. })
        ));
        assert!(matches!(
            NttTables::for_degree_modulus(1, 12289),
            Err(Error::InvalidDegree { .. })
        ));
    }

    #[test]
    fn tables_reject_unfriendly_modulus() {
        // 4096 does not divide 12288? It does (12288 = 3·4096): use 8192.
        assert!(NttTables::for_degree_modulus(4096, 12289).is_err());
    }

    #[test]
    fn paper_parameter_sets_all_build() {
        use crate::params::ParamSet;
        for n in [256usize, 512, 1024, 2048, 4096, 8192, 16384, 32768] {
            let p = ParamSet::for_degree(n).unwrap();
            let t = NttTables::new(&p).unwrap();
            assert_eq!(t.degree(), n);
            assert_eq!(t.modulus(), p.q);
        }
    }
}
