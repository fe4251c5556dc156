//! The functional executor: a real polynomial multiplication driven
//! through PIM memory-block operations.
//!
//! Every vector-wide arithmetic step of Algorithm 1 is executed with
//! [`MemoryBlock`](pim::block::MemoryBlock)-equivalent operations —
//! producing the actual product (verified against the software NTT in
//! the test suite) *and* an honest cycle/energy trace for exactly the
//! operations the hardware performs.
//!
//! There is one entry point, [`Engine::multiply_batch`]: a single job
//! is a batch of one, and hot-operand images are an optional per-lane
//! hint. It runs on the caller's thread; host parallelism lives one
//! level up, where whole job chunks fan out (`crate::batch`).
//!
//! The steady state is allocation-free (DESIGN.md §10): the charge
//! schedule and index structure come from a cached [`StagePlan`], the
//! working vectors from thread-local scratch arenas. Accounting is
//! replayed from the plan in the exact historical charge order, so
//! traces — including the f64 energy sums — stay bit-identical to the
//! op-by-op charging they replace.
//!
//! A note on widths: the engine operates on full-length vectors. A
//! degree-`n` polynomial physically spans `⌈n/512⌉` parallel lanes
//! (banks) whose blocks all execute the same op in the same cycles, so
//! the virtual "block" here carries `n` rows: identical cycle counts,
//! and energy identical to summing the physical lanes. The physical
//! bank arithmetic is in [`crate::arch`].

use crate::mapping::NttMapping;
use crate::plan::StagePlan;
use crate::scratch::BatchScratch;
use pim::block::MultiplierKind;
use pim::fault::{layout, WritePath};
use pim::reduce::Reducer;
use pim::stats::Tally;
use pim::{PimError, Result};

/// Per-phase operation tallies from one functional execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineTrace {
    /// ψ pre-multiply of both inputs.
    pub premul: Tally,
    /// Forward NTT stages (both inputs).
    pub forward: Tally,
    /// Point-wise multiplication.
    pub pointwise: Tally,
    /// Inverse NTT stages.
    pub inverse: Tally,
    /// ψ⁻¹·n⁻¹ post-multiply.
    pub postmul: Tally,
    /// Inter-block transfers (butterfly partner exchanges).
    pub transfers: Tally,
}

impl EngineTrace {
    /// Sum of all phases.
    pub fn total(&self) -> Tally {
        let mut t = Tally::new();
        for part in [
            &self.premul,
            &self.forward,
            &self.pointwise,
            &self.inverse,
            &self.postmul,
            &self.transfers,
        ] {
            t.absorb(part);
        }
        t
    }

    /// Accumulates another trace phase-wise (batch accounting: a batch
    /// trace is the phase-wise sum of its per-job traces, absorbed in
    /// job order so the f64 energy sums are reproducible bit for bit).
    pub fn merge(&mut self, other: &EngineTrace) {
        self.premul.absorb(&other.premul);
        self.forward.absorb(&other.forward);
        self.pointwise.absorb(&other.pointwise);
        self.inverse.absorb(&other.inverse);
        self.postmul.absorb(&other.postmul);
        self.transfers.absorb(&other.transfers);
    }
}

/// The functional execution engine for one parameter set.
#[derive(Debug, Clone)]
pub struct Engine<'m> {
    mapping: &'m NttMapping,
    multiplier: MultiplierKind,
    writes: Option<&'m dyn WritePath>,
}

impl<'m> Engine<'m> {
    /// Creates an engine over a mapping, using the given multiplier
    /// microprogram (CryptoPIM's by default; baselines pass \[35\]'s).
    pub fn new(mapping: &'m NttMapping) -> Self {
        Engine {
            mapping,
            multiplier: MultiplierKind::CryptoPim,
            writes: None,
        }
    }

    /// Selects the multiplier microprogram.
    pub fn with_multiplier(mut self, kind: MultiplierKind) -> Self {
        self.multiplier = kind;
        self
    }

    /// Installs a (possibly faulty) block write path.
    ///
    /// Every phase write is routed through the hook while the path is
    /// armed, so injected faults become functional corruption of the
    /// product. With `None` (the default) or an unarmed path the
    /// datapath is byte-for-byte the fault-free hot path — the cost of
    /// the hook is one `Option` check per phase. An armed path runs
    /// every lane through the one-job row datapath: per-word store
    /// order is part of the deterministic-replay contract.
    pub fn with_write_path(mut self, writes: Option<&'m dyn WritePath>) -> Self {
        self.writes = writes;
        self
    }

    /// Runs `out[j] = a[j] · b[j]` in `Z_q[x]/(x^n + 1)` through the
    /// PIM datapath for `B` stacked degree-`n` jobs in flat `B·n`
    /// buffers, returning the batch trace. One job is `B = 1` with
    /// `cached` empty and no `capture`.
    ///
    /// Unarmed, the batch walks the cached [`StagePlan`] **once**: per
    /// stage the jobs run in the inner loop over the `B·n` output
    /// buffer and one pooled `B·n` scratch slab, so the twiddle tables
    /// stay hot across jobs.
    /// Products are canonical and independent of `B` (pinned by
    /// proptests against per-lane runs and the software NTT). The
    /// returned trace is the phase-wise sum of the `B` per-job traces,
    /// absorbed in job order (see [`EngineTrace::merge`]); for `B = 1`
    /// it is the one-job trace bit for bit. An armed write path keeps
    /// per-job reliability semantics exactly: each lane runs the
    /// one-job row datapath with its own `begin_op` and the one-job
    /// store order, so `(bank, block, row)` fault addressing is
    /// unchanged.
    ///
    /// `out` is sized to `B·n` and fully overwritten; reusing it keeps
    /// the steady state allocation- and memset-free.
    ///
    /// `cached` is either empty (no reuse) or one entry per job: lane
    /// `j` with `Some(image)` supplies `a[j]`'s forward spectrum (the
    /// engine's post-forward row image, as captured below), and the
    /// engine skips that lane's ψ pre-multiply and forward stages on
    /// the `a` side — the rows are resident from the earlier operation,
    /// so no stores happen for them (and under an armed write path they
    /// therefore take no *new* write faults; the image itself carries
    /// whatever the capturing operation stored). The trace accounts the
    /// skipped work exactly: a hit lane charges one pre-multiply pass
    /// (the `b` side) and one stage + one transfer per forward stage.
    ///
    /// With `capture` supplied, the buffer is sized to `B·n` and each
    /// **miss** lane's post-forward `a` image is copied out, ready to be
    /// inserted into a cache; hit lanes' slots are not written (zeros in
    /// a fresh buffer, stale words in a reused one — read miss lanes
    /// only).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::LengthMismatch`] when the buffers differ in
    /// length or are not a positive multiple of `n`, or when `cached`
    /// is non-empty but not one entry per job or an image is not `n`
    /// words.
    ///
    /// # Panics
    ///
    /// Debug-panics if inputs are not canonical (`>= q`).
    pub fn multiply_batch(
        &self,
        a: &[u64],
        b: &[u64],
        out: &mut Vec<u64>,
        cached: &[Option<&[u64]>],
        mut capture: Option<&mut Vec<u64>>,
    ) -> Result<EngineTrace> {
        let n = self.mapping.params().n;
        let q = self.mapping.params().q;
        if a.len() != b.len() || a.is_empty() || !a.len().is_multiple_of(n) {
            return Err(PimError::LengthMismatch {
                left: a.len(),
                right: b.len(),
            });
        }
        let batch = a.len() / n;
        if !cached.is_empty() && cached.len() != batch {
            return Err(PimError::LengthMismatch {
                left: cached.len(),
                right: batch,
            });
        }
        if cached.iter().flatten().any(|img| img.len() != n) {
            return Err(PimError::LengthMismatch {
                left: n,
                right: batch,
            });
        }
        debug_assert!(a.iter().all(|&x| x < q) && b.iter().all(|&x| x < q));
        let plan = StagePlan::cached(self.mapping, self.multiplier)?;
        // Every datapath overwrites the full output, so a correctly
        // sized buffer is reused as-is — no 8·B·n-byte memset per call.
        if out.len() != batch * n {
            out.clear();
            out.resize(batch * n, 0);
        }
        if let Some(cap) = capture.as_deref_mut() {
            if cap.len() != batch * n {
                cap.clear();
                cap.resize(batch * n, 0);
            }
        }
        let faults = self.writes.filter(|w| w.armed());
        if let Some(w) = faults {
            // Per-job reliability semantics: every lane is its own
            // operation with its own `begin_op` and the exact one-job
            // store order, so injected-fault addressing and wear-out
            // epochs are indistinguishable from per-job execution.
            let mut scratch = BatchScratch::checkout(4 * n);
            for lane in 0..batch {
                w.begin_op();
                let la = &a[lane * n..(lane + 1) * n];
                let lb = &b[lane * n..(lane + 1) * n];
                let lout = &mut out[lane * n..(lane + 1) * n];
                let resident = cached.get(lane).copied().flatten();
                let lcap = capture
                    .as_deref_mut()
                    .filter(|_| resident.is_none())
                    .map(|c| &mut c[lane * n..(lane + 1) * n]);
                self.datapath_sequential(&plan, scratch.words(), la, resident, lb, lout, w, lcap);
            }
        } else {
            let mut scratch = BatchScratch::checkout(batch * n);
            self.datapath_batch_fast(
                &plan,
                &mut scratch,
                a,
                b,
                out,
                cached,
                capture.map(Vec::as_mut_slice),
            );
        }
        Ok(replay_batch_trace(&plan, batch, cached))
    }

    /// The one-job row datapath an armed write path runs per lane:
    /// bit-reversal folded into the ψ pre-multiply gather, then fused
    /// row-centric butterfly stages double-buffered through a `4n`-word
    /// scratch slab, every phase's stores routed through the write path.
    ///
    /// `resident` is `a`'s forward image on a hot-cache hit (stored by an
    /// earlier operation), `None` on a miss. A resident lane skips the
    /// `a`-side pre-multiply and forward stages and — because those rows
    /// are not rewritten — fires no store hooks for them; everything
    /// from the point-wise multiply on runs unchanged, store order
    /// included.
    #[allow(clippy::too_many_arguments)]
    fn datapath_sequential(
        &self,
        plan: &StagePlan,
        scratch: &mut [u64],
        a: &[u64],
        resident: Option<&[u64]>,
        b: &[u64],
        out: &mut [u64],
        faults: &dyn WritePath,
        capture: Option<&mut [u64]>,
    ) {
        let log_n = plan.log_n();
        let q = self.mapping.params().q;
        let red = self.mapping.reducer();
        let rev = plan.rev();
        let (mut xa, rest) = scratch.split_at_mut(out.len());
        let (mut xa2, rest) = rest.split_at_mut(out.len());
        let (mut xb, mut xb2) = rest.split_at_mut(out.len());

        // --- ψ pre-multiply, bit-reversed write folded in (free). ---
        let phi_b = self.mapping.phi_b();
        redc_map(red, xb, |k| {
            let i = rev[k] as usize;
            b[i] * phi_b[i]
        });
        if resident.is_none() {
            let phi_a = self.mapping.phi_a();
            redc_map(red, xa, |k| {
                let i = rev[k] as usize;
                a[i] * phi_a[i]
            });
            corrupt_writes(faults, q, layout::premul(), xa);
        }

        // --- forward NTT stages (the two inputs in parallel banks). ---
        for stage in 0..log_n {
            let tw = self.mapping.twiddle_fwd_stage(stage);
            if resident.is_none() {
                stage_rows(red, q, xa, xa2, stage, tw);
                corrupt_writes(faults, q, layout::forward(stage), xa2);
                std::mem::swap(&mut xa, &mut xa2);
            }
            stage_rows(red, q, xb, xb2, stage, tw);
            std::mem::swap(&mut xb, &mut xb2);
        }

        // Post-forward `a` image — what the bank rows physically hold
        // (faults included), so a later hit replays exactly these bits.
        let sa: &[u64] = resident.unwrap_or(xa);
        if let Some(cap) = capture {
            cap.copy_from_slice(sa);
        }

        // --- point-wise multiply, REDC(Â · B̂R) = Â·B̂; bit-reversed
        //     write into the inverse transform folded in (free). ---
        {
            let sb = &*xb;
            redc_map(red, xa2, |k| {
                let i = rev[k] as usize;
                sa[i] * sb[i]
            });
        }
        corrupt_writes(faults, q, layout::pointwise(log_n), xa2);
        let (mut xc, mut xc2) = (xa2, xb2);

        // --- inverse NTT stages. ---
        for stage in 0..log_n {
            stage_rows(
                red,
                q,
                xc,
                xc2,
                stage,
                self.mapping.twiddle_inv_stage(stage),
            );
            corrupt_writes(faults, q, layout::inverse(log_n, stage), xc2);
            std::mem::swap(&mut xc, &mut xc2);
        }

        // --- ψ⁻¹ · n⁻¹ post-multiply. ---
        let phi_post = self.mapping.phi_post();
        {
            let src = &*xc;
            redc_map(red, out, |k| src[k] * phi_post[k]);
        }
        corrupt_writes(faults, q, layout::postmul(log_n), out);
    }

    /// The fused batch datapath: walks the dataflow once for the whole
    /// batch with the vectorized merged-ψ kernels ([`ntt::merged`]) over
    /// the pooled slab, so each stage's twiddle table streams through
    /// the cache once per batch and the butterflies run the half-width
    /// lazy schedule the row datapath cannot use (bank rows hold
    /// canonical residues phase by phase; the host simulation only has
    /// to reproduce the *products*, which are independent of the
    /// `[0, 2q)` representatives the lazy kernels carry — canonical
    /// residues are unique, so the final normalize lands on exactly the
    /// row datapath's bits, pinned by the fast-vs-row tests).
    ///
    /// The merged forward stores spectrum value `X[k]` at index
    /// `rev(k)`, while the engine's row image is natural-order canonical
    /// `X[k]` (pinned by `engine_forward_image_is_the_merged_spectrum`),
    /// so hit lanes splice their resident image in with one `rev` gather
    /// — a canonical value is a valid `< 2q` lazy representative — and
    /// miss-lane captures are the inverse gather plus one conditional
    /// subtraction. Contiguous miss lanes go through the batch kernel as
    /// one run.
    #[allow(clippy::too_many_arguments)]
    fn datapath_batch_fast(
        &self,
        plan: &StagePlan,
        scratch: &mut BatchScratch,
        a: &[u64],
        b: &[u64],
        out: &mut [u64],
        cached: &[Option<&[u64]>],
        capture: Option<&mut [u64]>,
    ) {
        let n = plan.n();
        let q = self.mapping.params().q;
        let rev = plan.rev();
        let tables = self.mapping.tables();
        let batch = a.len() / n;
        let hit = |lane: usize| cached.get(lane).copied().flatten();

        // --- forward transforms (ψ merged into the twiddles): `a`'s
        //     spectra in the caller's output buffer, `b`'s in the
        //     scratch slab. ---
        let ba = out;
        ba.copy_from_slice(a);
        let mut lane = 0;
        while lane < batch {
            if let Some(image) = hit(lane) {
                let off = lane * n;
                for (j, slot) in ba[off..off + n].iter_mut().enumerate() {
                    *slot = image[rev[j] as usize];
                }
                lane += 1;
                continue;
            }
            let start = lane;
            while lane < batch && hit(lane).is_none() {
                lane += 1;
            }
            ntt::merged::forward_lazy_batch_in_place(&mut ba[start * n..lane * n], tables);
        }
        if let Some(cap) = capture {
            for lane in 0..batch {
                if hit(lane).is_some() {
                    continue;
                }
                let off = lane * n;
                let src = &ba[off..off + n];
                for (k, slot) in cap[off..off + n].iter_mut().enumerate() {
                    let v = src[rev[k] as usize];
                    *slot = v - q * u64::from(v >= q);
                }
            }
        }
        let bb = scratch.words();
        bb.copy_from_slice(b);
        ntt::merged::forward_lazy_batch_in_place(bb, tables);

        // --- point-wise multiply + inverse transform, in place in the
        //     output buffer (n⁻¹ and ψ⁻¹ folded; output canonical). ---
        ntt::merged::pointwise_lazy_in_place(ba, bb, q);
        ntt::merged::inverse_batch_in_place(ba, tables);
    }
}

/// Replays the plan's charge schedule in the exact historical order:
/// pre-multiply; per forward stage two stage tallies then two transfer
/// tallies (the two inputs travel in parallel banks — energy for both,
/// latency for one); point-wise scale; per inverse stage one of each;
/// post-multiply scale. Each absorbed tally was accumulated from zero by
/// the same charge twins the op-by-op engine called, so every f64 energy
/// sum reproduces the pre-plan trace bit-for-bit.
fn replay_trace(plan: &StagePlan) -> EngineTrace {
    let mut trace = EngineTrace::default();
    trace.premul.absorb(plan.premul());
    for _ in 0..plan.log_n() {
        trace.forward.absorb(plan.stage());
        trace.forward.absorb(plan.stage());
        trace.transfers.absorb(plan.transfer());
        trace.transfers.absorb(plan.transfer());
    }
    trace.pointwise.absorb(plan.scale());
    for _ in 0..plan.log_n() {
        trace.inverse.absorb(plan.stage());
        trace.transfers.absorb(plan.transfer());
    }
    trace.postmul.absorb(plan.scale());
    trace
}

/// [`replay_trace`] for a hit lane: the `a` operand's rows are resident,
/// so the pre-multiply is a single scale pass (the `b` side — same tally
/// as the point-wise pass) and each forward stage charges one stage and
/// one transfer instead of two of each. Everything downstream of the
/// point-wise multiply is charged unchanged.
fn replay_trace_hit(plan: &StagePlan) -> EngineTrace {
    let mut trace = EngineTrace::default();
    trace.premul.absorb(plan.scale());
    for _ in 0..plan.log_n() {
        trace.forward.absorb(plan.stage());
        trace.transfers.absorb(plan.transfer());
    }
    trace.pointwise.absorb(plan.scale());
    for _ in 0..plan.log_n() {
        trace.inverse.absorb(plan.stage());
        trace.transfers.absorb(plan.transfer());
    }
    trace.postmul.absorb(plan.scale());
    trace
}

/// The batch trace: the phase-wise sum of the per-lane traces, merged in
/// lane order. Like [`replay_trace`] this never touches per-op charging
/// — every term is a cached plan tally — and the fold order makes the
/// f64 energy sums bit-identical to merging `B` sequential per-job
/// traces (pinned by `tests/batch_fused.rs`).
fn replay_batch_trace(plan: &StagePlan, batch: usize, cached: &[Option<&[u64]>]) -> EngineTrace {
    let mut trace = EngineTrace::default();
    for lane in 0..batch {
        let lane_trace = match cached.get(lane).copied().flatten() {
            Some(_) => replay_trace_hit(plan),
            None => replay_trace(plan),
        };
        trace.merge(&lane_trace);
    }
    trace
}

/// Routes one phase's freshly written vector through the bank's write
/// path, materializing injected faults. A corrupted word is
/// re-canonicalized mod `q` before it re-enters the pipeline: the cell
/// array stores whatever bits the fault left, but the next phase's
/// sense amplifiers interpret them as a residue, and the engine's
/// reduction microprograms carry `< 2q` input contracts that physical
/// values must keep satisfying. Reduction never masks a fault — a flip
/// of bit `i` changes the residue by `±2^i mod q ≠ 0`.
fn corrupt_writes(faults: &dyn WritePath, q: u64, block: u32, data: &mut [u64]) {
    for (row, v) in data.iter_mut().enumerate() {
        let stored = faults.store(block, row as u32, *v);
        if stored != *v {
            *v = stored % q;
        }
    }
}

/// One fused Gentleman–Sande stage in row-centric order: butterfly block
/// `b` spans rows `[b·2^{stage+1}, (b+1)·2^{stage+1})` and uses the
/// single twiddle factor `W_b`, so the old gather → vector-op → scatter
/// round trip collapses into one pass with no index tables:
/// `dst[j] = (t + u) mod q`, `dst[j+dist] = REDC(W_b · (t + q − u))`.
///
/// Branch-free: `(t + u) mod q` via masked conditional subtraction, and
/// the REDC via the mul-based Montgomery form `m = x·q' mod R;
/// (x + m·q)/R` with the reducer's `q' = −q⁻¹ mod R` and `R = 2^k` —
/// the exact integer the shift-add sequence of Algorithm 3 computes
/// (the shifts are just the expansion of `q'` and `q` as signed-digit
/// constants), followed by the same single conditional subtraction.
/// Value-identical to `Reducer::{barrett, montgomery}` for the same
/// inputs, so a transform matches the host oracle bit for bit.
/// Overflow-safe for any `q < 2^31` with `R ≤ 2^32`:
/// `x + m·q < 2q² + 2^32·q < 2^64`.
fn stage_rows(red: &Reducer, q: u64, src: &[u64], dst: &mut [u64], stage: u32, twiddle: &[u64]) {
    let k = red.r_exponent();
    let qprime = red.q_prime();
    let mask = (1u64 << k) - 1;
    let dist = 1usize << stage;
    for ((s, d), &w) in src
        .chunks_exact(2 * dist)
        .zip(dst.chunks_exact_mut(2 * dist))
        .zip(twiddle)
    {
        let (s_lo, s_hi) = s.split_at(dist);
        let (d_lo, d_hi) = d.split_at_mut(dist);
        for ((&t, &u), (dl, dh)) in s_lo.iter().zip(s_hi).zip(d_lo.iter_mut().zip(d_hi)) {
            let sum = t + u;
            *dl = sum - q * u64::from(sum >= q);
            let x = (t + q - u) * w;
            let m = (x & mask).wrapping_mul(qprime) & mask;
            let r = (x + m * q) >> k;
            *dh = r - q * u64::from(r >= q);
        }
    }
}

/// Fills `dst[k] = REDC(f(k))` through the reducer — the gather loops
/// (pre-multiply, point-wise, post-multiply).
fn redc_map(red: &Reducer, dst: &mut [u64], f: impl Fn(usize) -> u64) {
    for (k, d) in dst.iter_mut().enumerate() {
        *d = red.montgomery(f(k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modmath::params::ParamSet;
    use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
    use ntt::poly::Polynomial;
    use ntt::schoolbook;
    use pim::reduce::ReductionStyle;
    use proptest::prelude::*;

    fn mapping(n: usize) -> NttMapping {
        let p = ParamSet::for_degree(n).unwrap();
        NttMapping::new(&p, ReductionStyle::CryptoPim).unwrap()
    }

    fn rand_vec(n: usize, q: u64, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 16) % q
            })
            .collect()
    }

    /// `a · b` for stacked jobs with no cache hints.
    fn run(eng: &Engine, a: &[u64], b: &[u64]) -> (Vec<u64>, EngineTrace) {
        let mut out = Vec::new();
        let trace = eng.multiply_batch(a, b, &mut out, &[], None).unwrap();
        (out, trace)
    }

    /// Armed but fault-free: every lane takes the one-job row datapath
    /// and every store keeps its word, so products must equal the
    /// unarmed merged-kernel path's.
    #[derive(Debug)]
    struct RowPath;

    impl WritePath for RowPath {
        fn armed(&self) -> bool {
            true
        }
        fn begin_op(&self) {}
        fn store(&self, _block: u32, _row: u32, value: u64) -> u64 {
            value
        }
        fn bank(&self) -> u32 {
            0
        }
        fn suspect_block(&self) -> Option<u32> {
            None
        }
    }

    #[test]
    fn engine_matches_schoolbook_small() {
        for n in [8usize, 16, 32, 64] {
            let m = mapping(n);
            let q = m.params().q;
            let eng = Engine::new(&m);
            let a = rand_vec(n, q, 1);
            let b = rand_vec(n, q, 2);
            let (c, _) = run(&eng, &a, &b);
            let pa = Polynomial::from_coeffs(a, q).unwrap();
            let pb = Polynomial::from_coeffs(b, q).unwrap();
            let expect = schoolbook::multiply(&pa, &pb).unwrap();
            assert_eq!(c, expect.coeffs(), "n = {n}");
        }
    }

    #[test]
    fn engine_matches_software_ntt_paper_degrees() {
        for n in [256usize, 512, 1024, 2048] {
            let p = ParamSet::for_degree(n).unwrap();
            let m = NttMapping::new(&p, ReductionStyle::CryptoPim).unwrap();
            let sw = NttMultiplier::new(&p).unwrap();
            let q = p.q;
            let a = rand_vec(n, q, 7);
            let b = rand_vec(n, q, 8);
            let expect = sw
                .multiply(
                    &Polynomial::from_coeffs(a.clone(), q).unwrap(),
                    &Polynomial::from_coeffs(b.clone(), q).unwrap(),
                )
                .unwrap();
            let (fast, _) = run(&Engine::new(&m), &a, &b);
            let (rows, _) = run(&Engine::new(&m).with_write_path(Some(&RowPath)), &a, &b);
            assert_eq!(fast, expect.coeffs(), "merged kernels, n = {n}");
            assert_eq!(rows, expect.coeffs(), "row datapath, n = {n}");
        }
    }

    #[test]
    fn multiply_reuses_the_output_vector() {
        let m = mapping(256);
        let q = m.params().q;
        let eng = Engine::new(&m);
        let a = rand_vec(256, q, 31);
        let b = rand_vec(256, q, 32);
        let (expect, expect_trace) = run(&eng, &a, &b);
        let mut out = vec![0xFFFF_FFFFu64; 3]; // wrong size and junk data
        for _ in 0..3 {
            let trace = eng.multiply_batch(&a, &b, &mut out, &[], None).unwrap();
            assert_eq!(out, expect);
            assert_eq!(trace, expect_trace);
        }
    }

    #[test]
    fn single_job_trace_is_the_one_job_replay() {
        // A batch of one must charge exactly what the one-job schedule
        // charges, down to the last bit of every f64 energy sum.
        for n in [64usize, 256, 4096] {
            let m = mapping(n);
            let plan = StagePlan::cached(&m, MultiplierKind::CryptoPim).unwrap();
            let one = replay_trace(&plan);
            let batch = replay_batch_trace(&plan, 1, &[]);
            assert_eq!(batch, one, "n = {n}");
            for (name, got, want) in [
                ("premul", &batch.premul, &one.premul),
                ("forward", &batch.forward, &one.forward),
                ("pointwise", &batch.pointwise, &one.pointwise),
                ("inverse", &batch.inverse, &one.inverse),
                ("postmul", &batch.postmul, &one.postmul),
                ("transfers", &batch.transfers, &one.transfers),
            ] {
                assert_eq!(
                    got.energy_pj.to_bits(),
                    want.energy_pj.to_bits(),
                    "{name} energy bits, n = {n}"
                );
            }
        }
    }

    #[test]
    fn baseline_multiplier_same_result_more_cycles() {
        let m = mapping(256);
        let q = m.params().q;
        let a = rand_vec(256, q, 3);
        let b = rand_vec(256, q, 4);
        let fast = Engine::new(&m);
        let slow = Engine::new(&m).with_multiplier(MultiplierKind::HajAli);
        let (cf, tf) = run(&fast, &a, &b);
        let (cs, ts) = run(&slow, &a, &b);
        assert_eq!(cf, cs, "multiplier choice cannot change results");
        assert!(ts.total().cycles > tf.total().cycles);
    }

    #[test]
    fn trace_phases_all_nonzero() {
        let m = mapping(256);
        let q = m.params().q;
        let eng = Engine::new(&m);
        let (_, tr) = run(&eng, &rand_vec(256, q, 5), &rand_vec(256, q, 6));
        for (name, t) in [
            ("premul", &tr.premul),
            ("forward", &tr.forward),
            ("pointwise", &tr.pointwise),
            ("inverse", &tr.inverse),
            ("postmul", &tr.postmul),
            ("transfers", &tr.transfers),
        ] {
            assert!(t.cycles > 0, "{name} phase must cost cycles");
            assert!(t.energy_pj > 0.0, "{name} phase must cost energy");
        }
        // Forward covers two polynomials: about twice the inverse cost.
        let ratio = tr.forward.cycles as f64 / tr.inverse.cycles as f64;
        assert!((ratio - 2.0).abs() < 0.01, "fwd/inv cycle ratio {ratio}");
        assert_eq!(
            tr.total().cycles,
            tr.premul.cycles
                + tr.forward.cycles
                + tr.pointwise.cycles
                + tr.inverse.cycles
                + tr.postmul.cycles
                + tr.transfers.cycles
        );
    }

    #[test]
    fn trace_cycles_match_analytic_op_counts() {
        // premul: 2 (mul+REDC); per fwd stage ×2 sides and per inv stage:
        // add + barrett + sub + mul + REDC; pointwise & postmul: mul+REDC.
        let n = 512usize;
        let m = mapping(n);
        let q = m.params().q;
        let w = m.params().bitwidth;
        let red = m.reducer();
        let eng = Engine::new(&m);
        let (_, tr) = run(&eng, &rand_vec(n, q, 9), &rand_vec(n, q, 10));
        let mul_redc = pim::cost::mul_cycles(w) + red.montgomery_cycles();
        let stage =
            pim::cost::add_cycles(w) + red.barrett_cycles() + pim::cost::sub_cycles(w) + mul_redc;
        let log_n = n.trailing_zeros() as u64;
        assert_eq!(tr.premul.cycles, 2 * mul_redc);
        assert_eq!(tr.forward.cycles, 2 * log_n * stage);
        assert_eq!(tr.inverse.cycles, log_n * stage);
        assert_eq!(tr.pointwise.cycles, mul_redc);
        assert_eq!(tr.postmul.cycles, mul_redc);
        assert_eq!(
            tr.transfers.cycles,
            3 * log_n * pim::cost::switch_transfer_cycles(w)
        );
    }

    #[test]
    fn batch_fused_matches_per_job_sequential() {
        for n in [64usize, 256] {
            let m = mapping(n);
            let q = m.params().q;
            let eng = Engine::new(&m);
            let rows = Engine::new(&m).with_write_path(Some(&RowPath));
            for batch in 1..=4usize {
                let a: Vec<u64> = (0..batch)
                    .flat_map(|j| rand_vec(n, q, 100 + j as u64))
                    .collect();
                let b: Vec<u64> = (0..batch)
                    .flat_map(|j| rand_vec(n, q, 200 + j as u64))
                    .collect();
                let (fused, trace) = run(&eng, &a, &b);
                let mut expect = EngineTrace::default();
                for j in 0..batch {
                    let (c, t) = run(&rows, &a[j * n..(j + 1) * n], &b[j * n..(j + 1) * n]);
                    assert_eq!(
                        &fused[j * n..(j + 1) * n],
                        &c[..],
                        "lane {j}, n = {n}, B = {batch}"
                    );
                    expect.merge(&t);
                }
                assert_eq!(trace, expect, "n = {n}, B = {batch}");
                assert_eq!(
                    trace.total().energy_pj.to_bits(),
                    expect.total().energy_pj.to_bits(),
                    "batch energy must match merged per-job energy to the bit"
                );
            }
        }
    }

    #[test]
    fn cached_hit_is_bit_identical_to_miss() {
        let n = 256usize;
        let m = mapping(n);
        let q = m.params().q;
        let eng = Engine::new(&m);
        let a = rand_vec(n, q, 61);
        let b = rand_vec(n, q, 62);
        let mut miss_out = Vec::new();
        let mut image = Vec::new();
        let t_miss = eng
            .multiply_batch(&a, &b, &mut miss_out, &[], Some(&mut image))
            .unwrap();
        assert_eq!(image.len(), n, "miss lane must capture its image");
        let cached = [Some(image.as_slice())];
        let mut hit_out = Vec::new();
        let t_hit = eng
            .multiply_batch(&a, &b, &mut hit_out, &cached, None)
            .unwrap();
        assert_eq!(hit_out, miss_out, "hit product must match miss product");
        let mut row_hit = Vec::new();
        let t_row_hit = Engine::new(&m)
            .with_write_path(Some(&RowPath))
            .multiply_batch(&a, &b, &mut row_hit, &cached, None)
            .unwrap();
        assert_eq!(row_hit, miss_out, "row-datapath hit must match too");
        assert_eq!(t_row_hit, t_hit);
        assert!(
            t_hit.forward.cycles * 2 == t_miss.forward.cycles,
            "hit lane charges half the forward work"
        );
        assert!(t_hit.premul.cycles < t_miss.premul.cycles);
        assert_eq!(t_hit.pointwise, t_miss.pointwise);
        assert_eq!(t_hit.inverse, t_miss.inverse);
        assert_eq!(t_hit.postmul, t_miss.postmul);
    }

    #[test]
    fn mixed_hit_miss_batch_matches_per_job() {
        let n = 64usize;
        let m = mapping(n);
        let q = m.params().q;
        let eng = Engine::new(&m);
        let a0 = rand_vec(n, q, 71);
        let a1 = rand_vec(n, q, 72);
        let b: Vec<u64> = (0..2).flat_map(|j| rand_vec(n, q, 81 + j)).collect();
        // Capture lane-0's image from a solo run.
        let mut out = Vec::new();
        let mut image = Vec::new();
        eng.multiply_batch(&a0, &b[..n], &mut out, &[], Some(&mut image))
            .unwrap();
        // Mixed batch: lane 0 hits, lane 1 misses (and captures).
        let a: Vec<u64> = a0.iter().chain(a1.iter()).copied().collect();
        let cached = [Some(image.as_slice()), None];
        let mut cap = Vec::new();
        let mut mixed = Vec::new();
        eng.multiply_batch(&a, &b, &mut mixed, &cached, Some(&mut cap))
            .unwrap();
        for j in 0..2 {
            let (c, _) = run(&eng, &a[j * n..(j + 1) * n], &b[j * n..(j + 1) * n]);
            assert_eq!(&mixed[j * n..(j + 1) * n], &c[..], "lane {j}");
        }
        // Hit lane's capture slot is untouched (zeros); miss lane's holds
        // its forward image (usable as a future cache entry).
        assert!(cap[..n].iter().all(|&x| x == 0));
        let cached1 = [Some(&cap[n..])];
        let mut hit1 = Vec::new();
        eng.multiply_batch(&a1, &b[n..], &mut hit1, &cached1, None)
            .unwrap();
        assert_eq!(&hit1[..], &mixed[n..], "captured image replays lane 1");
    }

    #[test]
    fn engine_forward_image_is_the_merged_spectrum() {
        // The engine's post-forward row image is the natural-order
        // canonical spectrum `X[k]`, while the merged software transform
        // stores `X[k]` (lazily) at index `rev(k)` — so normalizing and
        // bit-reverse permuting the merged output must reproduce the
        // image bit for bit (canonical representatives are unique). The
        // hot cache stores *one* image form for the engine splice, the
        // batch capture, and the checker's cached-transform path on the
        // strength of this property; the row datapath's capture must be
        // that same image.
        for n in [64usize, 256, 1024] {
            let m = mapping(n);
            let q = m.params().q;
            let a = rand_vec(n, q, 21);
            let b = rand_vec(n, q, 22);
            let mut out = Vec::new();
            let mut image = Vec::new();
            Engine::new(&m)
                .multiply_batch(&a, &b, &mut out, &[], Some(&mut image))
                .unwrap();
            let mut row_image = Vec::new();
            Engine::new(&m)
                .with_write_path(Some(&RowPath))
                .multiply_batch(&a, &b, &mut out, &[], Some(&mut row_image))
                .unwrap();
            let tables = modmath::roots::NttTables::for_degree_modulus(n, q).unwrap();
            let mut sw = a.clone();
            ntt::merged::forward_lazy_batch_in_place(&mut sw, &tables);
            for v in &mut sw {
                if *v >= q {
                    *v -= q;
                }
            }
            modmath::bitrev::permute_in_place(&mut sw);
            assert_eq!(sw, image, "n = {n}");
            assert_eq!(sw, row_image, "row datapath, n = {n}");
        }
    }

    #[test]
    fn batch_rejects_bad_shapes() {
        let n = 64usize;
        let m = mapping(n);
        let q = m.params().q;
        let eng = Engine::new(&m);
        let a = rand_vec(2 * n, q, 91);
        let b = rand_vec(2 * n, q, 92);
        let mut out = Vec::new();
        // Length not a multiple of n / mismatched lengths / empty.
        assert!(eng
            .multiply_batch(&a[..n + 1], &b[..n + 1], &mut out, &[], None)
            .is_err());
        assert!(eng
            .multiply_batch(&a, &b[..n], &mut out, &[], None)
            .is_err());
        assert!(eng.multiply_batch(&[], &[], &mut out, &[], None).is_err());
        assert!(eng
            .multiply_batch(&a[..n / 2], &b[..n], &mut out, &[], None)
            .is_err());
        // `cached` must be one entry per job with n-word images.
        let img = vec![0u64; n];
        let one = [Some(img.as_slice())];
        assert!(eng.multiply_batch(&a, &b, &mut out, &one, None).is_err());
        let short = vec![0u64; n - 1];
        let bad = [Some(short.as_slice()), None];
        assert!(eng.multiply_batch(&a, &b, &mut out, &bad, None).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn prop_engine_matches_schoolbook(
            a in proptest::collection::vec(0u64..7681, 64),
            b in proptest::collection::vec(0u64..7681, 64),
        ) {
            let m = mapping(64);
            let eng = Engine::new(&m);
            let (c, _) = run(&eng, &a, &b);
            let pa = Polynomial::from_coeffs(a, 7681).unwrap();
            let pb = Polynomial::from_coeffs(b, 7681).unwrap();
            let expect = schoolbook::multiply(&pa, &pb).unwrap();
            prop_assert_eq!(c, expect.coeffs());
        }
    }

    /// Deterministic coefficient stream for the proptests below (the
    /// strategy drives only the seed, so shrinking stays fast even for
    /// `8·256`-word batches).
    fn seeded_flat(n: usize, q: u64, batch: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
        let mut state = seed | 1;
        let mut draw = |len: usize| -> Vec<u64> {
            (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 11) % q
                })
                .collect()
        };
        (draw(batch * n), draw(batch * n))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The batch-fused walk must be indistinguishable from `B`
        /// one-job row-datapath runs — products, per-phase charge
        /// tallies, and the merged trace totals, bit for bit, for every
        /// batch width the serving layer forms and every paper modulus.
        #[test]
        fn prop_batch_fused_matches_sequential_across_moduli(
            batch in 1usize..=8,
            q_sel in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            let n = 256usize;
            let q = [7681u64, 12289, 786433][q_sel];
            // Paper bitwidths: 16-bit datapath for the Kyber/NewHope
            // moduli, 32-bit for the SEAL modulus.
            let p = ParamSet::custom(n, q, if q < 1 << 16 { 16 } else { 32 }).unwrap();
            let m = NttMapping::new(&p, ReductionStyle::CryptoPim).unwrap();
            let eng = Engine::new(&m);
            let rows = Engine::new(&m).with_write_path(Some(&RowPath));
            let (a, b) = seeded_flat(n, q, batch, seed);
            let (fused, trace) = run(&eng, &a, &b);
            let mut expect = EngineTrace::default();
            for j in 0..batch {
                let (c, t) = run(&rows, &a[j * n..(j + 1) * n], &b[j * n..(j + 1) * n]);
                prop_assert_eq!(
                    &fused[j * n..(j + 1) * n],
                    &c[..],
                    "lane {} of {}, q = {}",
                    j,
                    batch,
                    q
                );
                expect.merge(&t);
            }
            prop_assert_eq!(&trace, &expect, "trace, B = {}, q = {}", batch, q);
            prop_assert_eq!(
                trace.total().energy_pj.to_bits(),
                expect.total().energy_pj.to_bits(),
                "energy tally, B = {}, q = {}",
                batch,
                q
            );
        }

        /// A cache hit replays the captured image; the products must be
        /// bit-identical to the all-miss run for any batch shape and
        /// any subset of hit lanes.
        #[test]
        fn prop_cached_hits_match_misses(
            batch in 1usize..=6,
            hit_mask in 0u8..64,
            seed in 0u64..u64::MAX,
        ) {
            let n = 64usize;
            let m = mapping(n);
            let q = m.params().q;
            let eng = Engine::new(&m);
            let (a, b) = seeded_flat(n, q, batch, seed);
            // All-miss reference, capturing every lane's forward image.
            let mut miss_out = Vec::new();
            let mut images = Vec::new();
            eng.multiply_batch(
                &a,
                &b,
                &mut miss_out,
                &vec![None; batch],
                Some(&mut images),
            )
            .unwrap();
            // Replay with an arbitrary subset of lanes served from the
            // captured images.
            let cached: Vec<Option<&[u64]>> = (0..batch)
                .map(|j| {
                    (hit_mask >> j & 1 == 1).then(|| &images[j * n..(j + 1) * n])
                })
                .collect();
            let mut mixed_out = Vec::new();
            eng.multiply_batch(&a, &b, &mut mixed_out, &cached, None)
                .unwrap();
            prop_assert_eq!(mixed_out, miss_out, "hit mask {:#08b}", hit_mask);
        }
    }
}
