//! The top-level accelerator: configuration, execution, reporting.
//!
//! [`CryptoPim`] ties the crate together: it owns the constant mapping,
//! the pipeline model and the architecture configuration, executes real
//! multiplications through the functional engine, and implements
//! [`PolyMultiplier`] so lattice schemes can use the accelerator as a
//! drop-in backend.
//!
//! Constructing an [`Engine`] per call is cheap: the stage plan
//! (bit-reversal table plus the full charge schedule) lives in the
//! process-wide cache keyed by engine configuration (`cryptopim::plan`),
//! so repeat multiplies skip straight to the datapath.

use crate::arch::{ArchConfig, MAX_NATIVE_DEGREE};
use crate::check::CheckPolicy;
use crate::engine::{Engine, EngineTrace};
use crate::hotcache::HotCache;
use crate::mapping::NttMapping;
use crate::pipeline::{Organization, PipelineModel};
use crate::report::ExecutionReport;
use crate::Result;
use modmath::params::ParamSet;
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;
use pim::block::MultiplierKind;
use pim::fault::{FaultReport, WritePath};
use pim::par::Threads;
use pim::reduce::ReductionStyle;
use pim::PimError;
use std::sync::Arc;

/// The CryptoPIM accelerator for one parameter set.
///
/// # Example
///
/// ```
/// use cryptopim::accelerator::CryptoPim;
/// use modmath::params::ParamSet;
/// use ntt::negacyclic::PolyMultiplier;
/// use ntt::poly::Polynomial;
///
/// # fn main() -> Result<(), cryptopim::PimError> {
/// let params = ParamSet::for_degree(512)?;
/// let acc = CryptoPim::new(&params)?;
/// let mut x = vec![0u64; 512];
/// x[1] = 1;
/// let x = Polynomial::from_coeffs(x, params.q)?;
/// let x2 = acc.multiply(&x, &x)?;
/// assert_eq!(x2.coeff(2), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CryptoPim {
    mapping: NttMapping,
    model: PipelineModel,
    organization: Organization,
    multiplier: MultiplierKind,
    threads: Threads,
    writes: Option<Arc<dyn WritePath>>,
    check: CheckPolicy,
    /// Independent software-NTT datapath backing
    /// [`CheckPolicy::Recompute`]; built by [`CryptoPim::with_check`].
    referee: Option<Arc<NttMultiplier>>,
    /// Shared hot-operand transform cache (see [`crate::hotcache`]);
    /// consulted by the batch paths for the `a` operand.
    hot: Option<Arc<HotCache>>,
}

impl CryptoPim {
    /// Builds the accelerator with the paper's final design choices:
    /// the CryptoPIM pipeline organization, optimized multiplier, and
    /// Table I reduction sequences.
    ///
    /// # Errors
    ///
    /// Fails when the parameter set has no NTT or no specialized
    /// reduction sequence.
    pub fn new(params: &ParamSet) -> Result<Self> {
        Self::with_configuration(
            params,
            Organization::CryptoPim,
            MultiplierKind::CryptoPim,
            ReductionStyle::CryptoPim,
        )
    }

    /// Builds an accelerator with explicit design choices (used by the
    /// baseline and ablation studies).
    ///
    /// # Errors
    ///
    /// Same as [`CryptoPim::new`].
    pub fn with_configuration(
        params: &ParamSet,
        organization: Organization,
        multiplier: MultiplierKind,
        reduction: ReductionStyle,
    ) -> Result<Self> {
        let mapping = NttMapping::new(params, reduction)?;
        let model = PipelineModel::new(&mapping);
        Ok(CryptoPim {
            mapping,
            model,
            organization,
            multiplier,
            threads: Threads::Auto,
            writes: None,
            check: CheckPolicy::Disabled,
            referee: None,
            hot: None,
        })
    }

    /// Selects the host-thread fan-out policy for batched execution
    /// (`--threads N` / `CRYPTOPIM_THREADS`): whole job chunks fan out
    /// across workers; a single job always runs on the caller's
    /// thread. Worker count never changes products, reports, or traces
    /// — only wall-clock simulation time.
    pub fn with_threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// The configured thread policy.
    pub fn threads(&self) -> Threads {
        self.threads
    }

    /// Installs a bank write path (fault injection). Every multiply on
    /// this accelerator routes its phase writes through the hook; with
    /// `None` (the default) the datapath is the unchanged fault-free
    /// hot path. See [`pim::fault::WritePath`].
    pub fn with_write_path(mut self, writes: Option<Arc<dyn WritePath>>) -> Self {
        self.writes = writes;
        self
    }

    /// Selects the result-integrity policy for
    /// [`CryptoPim::multiply_product`]. [`CheckPolicy::Disabled`] (the
    /// default) keeps the historical unchecked hot path;
    /// [`CheckPolicy::Recompute`] also builds the independent software
    /// referee datapath here, once, so multiplies only pay the compare.
    pub fn with_check(mut self, check: CheckPolicy) -> Self {
        self.referee = match check {
            CheckPolicy::Recompute => Some(Arc::new(
                NttMultiplier::new(self.params()).expect("params already validated by the mapping"),
            )),
            _ => None,
        };
        self.check = check;
        self
    }

    /// The configured result-integrity policy.
    pub fn check_policy(&self) -> CheckPolicy {
        self.check
    }

    /// Attaches a shared hot-operand transform cache. Every product
    /// multiply (batched or [`CryptoPim::multiply_product`]) looks up
    /// the `a` operand's forward-NTT image here and skips its forward
    /// transform on a hit — on both the engine datapath and the
    /// `Recompute` referee path. `None` (the default) disables caching.
    pub fn with_hot_cache(mut self, hot: Option<Arc<HotCache>>) -> Self {
        self.hot = hot;
        self
    }

    /// The attached hot-operand cache, if any.
    pub fn hot_cache(&self) -> Option<&Arc<HotCache>> {
        self.hot.as_ref()
    }

    /// Whether an installed write path is currently injecting faults.
    /// The chunk path refuses to insert engine-captured transforms into
    /// the hot cache while armed (a possibly-faulted image must never
    /// become the trusted copy both datapaths reuse).
    pub(crate) fn faults_armed(&self) -> bool {
        self.writes.as_ref().is_some_and(|w| w.armed())
    }

    /// The software referee datapath, when [`CheckPolicy::Recompute`]
    /// is configured (the chunk path fuses referee transforms across
    /// whole chunks instead of going job by job).
    pub(crate) fn referee(&self) -> Option<&NttMultiplier> {
        self.referee.as_deref()
    }

    /// The functional engine for this configuration, with the write
    /// path (if any) attached.
    pub(crate) fn engine(&self) -> Engine<'_> {
        Engine::new(&self.mapping)
            .with_multiplier(self.multiplier)
            .with_write_path(self.writes.as_deref())
    }

    /// The parameter set.
    pub fn params(&self) -> &ParamSet {
        self.mapping.params()
    }

    /// The pipeline organization in use.
    pub fn organization(&self) -> Organization {
        self.organization
    }

    /// The analytic pipeline model.
    pub fn model(&self) -> &PipelineModel {
        &self.model
    }

    /// The constant mapping.
    pub fn mapping(&self) -> &NttMapping {
        &self.mapping
    }

    /// The performance/energy/architecture report for this configuration
    /// (no functional execution needed — the model is analytic).
    ///
    /// Degrees above the 32k-provisioned hardware are processed in
    /// segments (§III-D: "iteratively uses the hardware"); the report
    /// scales latency by the pass count and throughput by its inverse.
    ///
    /// # Errors
    ///
    /// Propagates architecture-derivation failures for invalid degrees.
    pub fn report(&self) -> Result<ExecutionReport> {
        let arch = ArchConfig::for_degree(self.params().n, &self.model, self.organization)?;
        let mut pipelined = self.model.pipelined(self.organization);
        let mut non_pipelined = self.model.non_pipelined();
        if arch.passes > 1 {
            let k = arch.passes as f64;
            for mode in [&mut pipelined, &mut non_pipelined] {
                mode.latency_us *= k;
                mode.throughput /= k;
                mode.cycles *= arch.passes as u64;
            }
        }
        Ok(ExecutionReport {
            params: *self.params(),
            pipelined,
            non_pipelined,
            arch,
        })
    }

    /// Multiplies two polynomials through the PIM datapath, returning
    /// the product, the report, and the functional engine trace.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::LengthMismatch`] when operand degrees differ
    /// from the configured degree, [`modmath::Error::ModulusMismatch`]
    /// when an operand is reduced modulo another modulus, plus any
    /// engine-level failure.
    pub fn multiply_with_trace(
        &self,
        a: &Polynomial,
        b: &Polynomial,
    ) -> Result<(Polynomial, ExecutionReport, EngineTrace)> {
        let n = self.params().n;
        if a.degree_bound() != n || b.degree_bound() != n {
            return Err(PimError::LengthMismatch {
                left: a.degree_bound(),
                right: b.degree_bound(),
            });
        }
        a.expect_modulus(self.params().q)?;
        b.expect_modulus(self.params().q)?;
        let mut coeffs = Vec::new();
        let trace = self
            .engine()
            .multiply_batch(a.coeffs(), b.coeffs(), &mut coeffs, &[], None)?;
        let product = Polynomial::from_coeffs(coeffs, self.params().q)?;
        Ok((product, self.report()?, trace))
    }

    /// Multiplies two polynomials, returning only the product.
    ///
    /// This is the batch of one on the same path every served batch
    /// takes (`crate::batch`): no report, no trace, the attached hot
    /// cache consulted for `a`, and the configured check applied. Engine
    /// output is canonical by construction — also under an armed write
    /// path, which re-canonicalizes faulted words — so the product
    /// skips the `from_coeffs` reduction sweep.
    ///
    /// When a [`CheckPolicy::Residue`] policy is configured
    /// ([`CryptoPim::with_check`]), the product is verified at the
    /// seeded evaluation points before it is returned; under
    /// [`CheckPolicy::Recompute`] it is instead compared bit for bit
    /// against the independent software-NTT referee. A disagreement
    /// fails with [`PimError::CorruptResult`] localizing the fault to
    /// this accelerator's bank (and suspect block, when a write path is
    /// installed). A checked corrupt product is **never** returned —
    /// with certainty under `Recompute`, probabilistically under
    /// `Residue` (see [`crate::check`] for the coverage analysis).
    ///
    /// # Errors
    ///
    /// Same as [`CryptoPim::multiply_with_trace`], plus
    /// [`PimError::CorruptResult`] under a failing check.
    pub fn multiply_product(&self, a: &Polynomial, b: &Polynomial) -> Result<Polynomial> {
        crate::batch::chunk_outcomes(self, &[(a, b)])
            .pop()
            .expect("one outcome per job")
    }

    /// A [`FaultReport`] blaming this accelerator's bank (and the write
    /// path's suspect block, when one is installed).
    pub(crate) fn fault_report(&self, failed_points: u32, checked_points: u32) -> FaultReport {
        FaultReport {
            bank: self.writes.as_ref().map_or(0, |w| w.bank()),
            block: self.writes.as_ref().and_then(|w| w.suspect_block()),
            failed_points,
            checked_points,
        }
    }

    /// Multiplies two polynomials through [`CryptoPim::multiply_product`]
    /// (the configured check applied), returning the product and the
    /// report.
    ///
    /// # Errors
    ///
    /// Same as [`CryptoPim::multiply_product`].
    pub fn multiply_with_report(
        &self,
        a: &Polynomial,
        b: &Polynomial,
    ) -> Result<(Polynomial, ExecutionReport)> {
        Ok((self.multiply_product(a, b)?, self.report()?))
    }

    /// Largest degree a single pass supports; larger inputs segment.
    pub fn max_native_degree() -> usize {
        MAX_NATIVE_DEGREE
    }
}

impl PolyMultiplier for CryptoPim {
    fn degree(&self) -> usize {
        self.params().n
    }

    fn modulus(&self) -> u64 {
        self.params().q
    }

    fn multiply(&self, a: &Polynomial, b: &Polynomial) -> ntt::Result<Polynomial> {
        self.multiply_product(a, b).map_err(|e| match e {
            PimError::LengthMismatch { left, .. } => modmath::Error::InvalidDegree { n: left },
            PimError::Math(m) => m,
            PimError::CorruptResult(_) => modmath::Error::DetectedFault { n: self.params().n },
            // The remaining engine errors have no `modmath` counterpart;
            // the trait's error names the configured degree.
            _ => modmath::Error::InvalidDegree { n: self.params().n },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt::negacyclic::NttMultiplier;
    use ntt::schoolbook;

    fn rand_poly(n: usize, q: u64, seed: u64) -> Polynomial {
        let mut state = seed;
        let coeffs: Vec<u64> = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 16) % q
            })
            .collect();
        Polynomial::from_coeffs(coeffs, q).unwrap()
    }

    #[test]
    fn accelerator_matches_software_reference() {
        for n in [256usize, 1024, 4096] {
            let p = ParamSet::for_degree(n).unwrap();
            let acc = CryptoPim::new(&p).unwrap();
            let sw = NttMultiplier::new(&p).unwrap();
            let a = rand_poly(n, p.q, 21);
            let b = rand_poly(n, p.q, 22);
            assert_eq!(
                acc.multiply(&a, &b).unwrap(),
                sw.multiply(&a, &b).unwrap(),
                "n = {n}"
            );
        }
    }

    #[test]
    fn accelerator_matches_schoolbook_small() {
        let p = ParamSet::for_degree(32).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        let a = rand_poly(32, p.q, 1);
        let b = rand_poly(32, p.q, 2);
        assert_eq!(
            acc.multiply(&a, &b).unwrap(),
            schoolbook::multiply(&a, &b).unwrap()
        );
    }

    #[test]
    fn report_matches_paper_headline_row() {
        let p = ParamSet::for_degree(256).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        let r = acc.report().unwrap();
        assert!((r.pipelined.latency_us - 68.67).abs() < 0.1);
        assert!((r.pipelined.throughput - 553311.0).abs() / 553311.0 < 1e-3);
        assert!((r.pipelined.energy_uj - 2.58).abs() < 0.13, "within 5 %");
    }

    #[test]
    fn degree_mismatch_is_an_error() {
        let p = ParamSet::for_degree(256).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        let a = rand_poly(128, p.q, 1);
        let b = rand_poly(256, p.q, 2);
        assert!(acc.multiply_with_report(&a, &b).is_err());
        assert!(acc.multiply(&a, &b).is_err());
    }

    #[test]
    fn trace_and_report_are_consistent() {
        let p = ParamSet::for_degree(512).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        let a = rand_poly(512, p.q, 3);
        let b = rand_poly(512, p.q, 4);
        let (_, report, trace) = acc.multiply_with_trace(&a, &b).unwrap();
        // The engine's total compute matches the analytic work profile.
        let compute = trace.total().compute_cycles + trace.total().reduce_cycles;
        assert_eq!(compute, acc.model().expected_engine_compute_cycles());
        // Pipelined latency exceeds any single phase.
        assert!(report.pipelined.cycles > trace.pointwise.cycles);
    }

    #[test]
    fn product_only_path_matches_full_path() {
        let p = ParamSet::for_degree(512).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        let a = rand_poly(512, p.q, 5);
        let b = rand_poly(512, p.q, 6);
        let (full, _, _) = acc.multiply_with_trace(&a, &b).unwrap();
        assert_eq!(acc.multiply_product(&a, &b).unwrap(), full);
        let short = rand_poly(256, p.q, 7);
        assert!(acc.multiply_product(&short, &b).is_err());
    }

    /// Transform-domain fault: ORs bit 15 into row 0 of one block. For
    /// `q = 7681 < 2^13` the bit is never set in a canonical word, so
    /// every operation corrupts — but only a single NTT bin, the class
    /// of fault a few-point residue screen is likely to miss.
    #[derive(Debug)]
    struct PointwiseBitPath {
        block: u32,
    }

    impl WritePath for PointwiseBitPath {
        fn armed(&self) -> bool {
            true
        }
        fn begin_op(&self) {}
        fn store(&self, block: u32, row: u32, value: u64) -> u64 {
            if block == self.block && row == 0 {
                value | (1 << 15)
            } else {
                value
            }
        }
        fn bank(&self) -> u32 {
            4
        }
        fn suspect_block(&self) -> Option<u32> {
            Some(self.block)
        }
    }

    #[test]
    fn recompute_referee_catches_transform_domain_fault() {
        let p = ParamSet::for_degree(256).unwrap();
        let block = pim::fault::layout::pointwise(8);
        let a = rand_poly(256, p.q, 31);
        let b = rand_poly(256, p.q, 32);
        // The fault really corrupts the product…
        let unchecked = CryptoPim::new(&p)
            .unwrap()
            .with_write_path(Some(Arc::new(PointwiseBitPath { block })));
        let clean = CryptoPim::new(&p).unwrap();
        assert_ne!(
            unchecked.multiply_product(&a, &b).unwrap(),
            clean.multiply_product(&a, &b).unwrap()
        );
        // …and the referee refuses to serve it, localizing the fault.
        let checked = CryptoPim::new(&p)
            .unwrap()
            .with_write_path(Some(Arc::new(PointwiseBitPath { block })))
            .with_check(CheckPolicy::Recompute);
        match checked.multiply_product(&a, &b) {
            Err(PimError::CorruptResult(report)) => {
                assert_eq!(report.bank, 4);
                assert_eq!(report.block, Some(block));
                assert!(report.failed_points >= 1);
                assert_eq!(report.checked_points, 256);
            }
            other => panic!("expected CorruptResult, got {other:?}"),
        }
    }

    #[test]
    fn recompute_clean_path_is_bit_exact() {
        let p = ParamSet::for_degree(256).unwrap();
        let checked = CryptoPim::new(&p)
            .unwrap()
            .with_check(CheckPolicy::Recompute);
        let clean = CryptoPim::new(&p).unwrap();
        let a = rand_poly(256, p.q, 33);
        let b = rand_poly(256, p.q, 34);
        assert_eq!(
            checked.multiply_product(&a, &b).unwrap(),
            clean.multiply_product(&a, &b).unwrap()
        );
    }

    #[test]
    fn foreign_modulus_operands_are_refused() {
        // q = 786433 operands on an n = 256, q = 7681 accelerator, with
        // and without the referee: a typed error, never a product in
        // the wrong ring.
        let p = ParamSet::for_degree(256).unwrap();
        let foreign = rand_poly(256, 786433, 41);
        let native = rand_poly(256, p.q, 42);
        let mismatch = PimError::Math(modmath::Error::ModulusMismatch {
            expected: 7681,
            found: 786433,
        });
        for check in [CheckPolicy::Disabled, CheckPolicy::Recompute] {
            let acc = CryptoPim::new(&p).unwrap().with_check(check);
            for (a, b) in [(&foreign, &native), (&native, &foreign)] {
                assert_eq!(acc.multiply_product(a, b), Err(mismatch.clone()));
                assert_eq!(
                    acc.multiply(a, b),
                    Err(modmath::Error::ModulusMismatch {
                        expected: 7681,
                        found: 786433
                    })
                );
                assert!(acc.multiply_with_trace(a, b).is_err());
            }
        }
        // In a chunk, only the foreign job fails.
        let acc = CryptoPim::new(&p).unwrap();
        let outcomes =
            crate::batch::chunk_outcomes(&acc, &[(&native, &native), (&foreign, &native)]);
        assert_eq!(outcomes[0], acc.multiply_product(&native, &native));
        assert!(outcomes[0].is_ok());
        assert_eq!(outcomes[1], Err(mismatch));
    }

    #[test]
    fn trait_multiply_applies_the_configured_check() {
        // Through the `PolyMultiplier` trait a Recompute accelerator
        // with a corrupting write path refuses the product instead of
        // returning it.
        let p = ParamSet::for_degree(256).unwrap();
        let block = pim::fault::layout::pointwise(8);
        let checked = CryptoPim::new(&p)
            .unwrap()
            .with_write_path(Some(Arc::new(PointwiseBitPath { block })))
            .with_check(CheckPolicy::Recompute);
        let a = rand_poly(256, p.q, 43);
        let b = rand_poly(256, p.q, 44);
        let backend: &dyn PolyMultiplier = &checked;
        assert!(backend.multiply(&a, &b).is_err());
        assert!(checked.multiply_with_report(&a, &b).is_err());
        assert_eq!(
            backend.multiply(&a, &b),
            Err(modmath::Error::DetectedFault { n: 256 })
        );
    }

    #[test]
    fn trait_object_backend() {
        let p = ParamSet::for_degree(256).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        let backend: Box<dyn PolyMultiplier> = Box::new(acc);
        assert_eq!(backend.degree(), 256);
        assert_eq!(backend.modulus(), 7681);
    }
}
