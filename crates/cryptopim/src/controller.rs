//! The CryptoPIM controller: a micro-coded view of Algorithm 1.
//!
//! The paper synthesizes a controller (System Verilog + Design Compiler)
//! that sequences the memory blocks. This module reproduces that control
//! plane as data: [`compile`] lowers a parameter set into a [`Program`]
//! of block-level instructions, and [`Controller::run`] executes the
//! program against the simulator. The instruction stream is what a
//! firmware engineer would inspect to port CryptoPIM to a different
//! block count or degree.
//!
//! Instructions operate on three vector registers — the contents of the
//! A-side bank chain, B-side bank chain, and the shared output chain:
//!
//! ```text
//! Scale   { reg, table }   dst ← REDC(dst ⊙ table)       (mul + REDC blocks)
//! Bitrev  { reg }          free write permutation
//! NttStage{ reg, stage, dir } one GS butterfly stage      (5 vector ops)
//! Pointwise                C ← REDC(A ⊙ B)
//! ```
//!
//! The test suite pins `Controller::run` to the [`crate::engine`]
//! executor: identical products, identical compute-cycle totals.

use crate::engine::ntt_stage;
use crate::mapping::NttMapping;
use modmath::bitrev;
use modmath::params::ParamSet;
use pim::block::{MemoryBlock, MultiplierKind};
use pim::stats::Tally;
use pim::Result;

/// A vector register: which bank chain an instruction addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reg {
    /// First input polynomial's chain.
    A,
    /// Second input polynomial's chain.
    B,
    /// Product chain.
    C,
}

/// A constant table baked into data columns at configuration time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    /// `φ^i · R` (A-side pre-multiply).
    PhiA,
    /// `φ^i · R²` (B-side pre-multiply; establishes Montgomery form).
    PhiB,
    /// `φ^{-i} · n⁻¹ · R` (output post-multiply).
    PhiPost,
}

/// Transform direction of an NTT stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward twiddles `ω^i`.
    Forward,
    /// Inverse twiddles `ω^{-i}`.
    Inverse,
}

/// One controller instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// `reg ← REDC(reg ⊙ table)`.
    Scale {
        /// Destination register.
        reg: Reg,
        /// Constant table operand.
        table: Table,
    },
    /// Bit-reversal write permutation (free).
    Bitrev {
        /// Register permuted.
        reg: Reg,
    },
    /// One Gentleman–Sande butterfly stage.
    NttStage {
        /// Register transformed.
        reg: Reg,
        /// Stage index (butterfly distance `2^stage`).
        stage: u32,
        /// Twiddle direction.
        dir: Direction,
    },
    /// `C ← REDC(A ⊙ B)`.
    Pointwise,
}

/// A compiled instruction stream for one parameter set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    params: ParamSet,
    instrs: Vec<Instr>,
}

impl Program {
    /// The instructions, in issue order.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// The parameter set this program was compiled for.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }
}

/// Lowers Algorithm 1 into the instruction stream for degree
/// `params.n`: `3·log2(n) + 7` instructions.
pub fn compile(params: &ParamSet) -> Program {
    let log_n = params.log2_n();
    let mut instrs = Vec::with_capacity(3 * log_n as usize + 7);
    instrs.push(Instr::Scale {
        reg: Reg::A,
        table: Table::PhiA,
    });
    instrs.push(Instr::Scale {
        reg: Reg::B,
        table: Table::PhiB,
    });
    instrs.push(Instr::Bitrev { reg: Reg::A });
    instrs.push(Instr::Bitrev { reg: Reg::B });
    for stage in 0..log_n {
        instrs.push(Instr::NttStage {
            reg: Reg::A,
            stage,
            dir: Direction::Forward,
        });
        instrs.push(Instr::NttStage {
            reg: Reg::B,
            stage,
            dir: Direction::Forward,
        });
    }
    instrs.push(Instr::Pointwise);
    instrs.push(Instr::Bitrev { reg: Reg::C });
    for stage in 0..log_n {
        instrs.push(Instr::NttStage {
            reg: Reg::C,
            stage,
            dir: Direction::Inverse,
        });
    }
    instrs.push(Instr::Scale {
        reg: Reg::C,
        table: Table::PhiPost,
    });
    Program {
        params: *params,
        instrs,
    }
}

/// Executes compiled programs against the PIM simulator.
#[derive(Debug, Clone)]
pub struct Controller<'m> {
    mapping: &'m NttMapping,
    multiplier: MultiplierKind,
}

/// Register file state during execution.
#[derive(Debug, Default)]
struct RegFile {
    a: Vec<u64>,
    b: Vec<u64>,
    c: Vec<u64>,
}

impl RegFile {
    fn get_mut(&mut self, reg: Reg) -> &mut Vec<u64> {
        match reg {
            Reg::A => &mut self.a,
            Reg::B => &mut self.b,
            Reg::C => &mut self.c,
        }
    }
}

impl<'m> Controller<'m> {
    /// Creates a controller over a mapping.
    pub fn new(mapping: &'m NttMapping) -> Self {
        Controller {
            mapping,
            multiplier: MultiplierKind::CryptoPim,
        }
    }

    /// Selects the multiplier microprogram.
    pub fn with_multiplier(mut self, kind: MultiplierKind) -> Self {
        self.multiplier = kind;
        self
    }

    /// Runs a compiled program on two input coefficient vectors,
    /// returning the product and the aggregate compute tally.
    ///
    /// # Errors
    ///
    /// Propagates block-level validation failures; callers must pass
    /// vectors of the compiled degree.
    pub fn run(&self, program: &Program, a: &[u64], b: &[u64]) -> Result<(Vec<u64>, Tally)> {
        let params = self.mapping.params();
        let mut regs = RegFile {
            a: a.to_vec(),
            b: b.to_vec(),
            c: Vec::new(),
        };
        let mut tally = Tally::new();

        for &instr in program.instrs() {
            match instr {
                Instr::Scale { reg, table } => {
                    let consts = match table {
                        Table::PhiA => self.mapping.phi_a(),
                        Table::PhiB => self.mapping.phi_b(),
                        Table::PhiPost => self.mapping.phi_post(),
                    };
                    let mut blk = MemoryBlock::with_rows(params.bitwidth, params.n)?;
                    let data = regs.get_mut(reg);
                    *data =
                        blk.mul_montgomery(data, consts, self.multiplier, self.mapping.reducer())?;
                    tally.absorb(&blk.tally());
                }
                Instr::Bitrev { reg } => {
                    bitrev::permute_in_place(regs.get_mut(reg));
                }
                Instr::NttStage { reg, stage, dir } => {
                    let twiddle = match dir {
                        Direction::Forward => self.mapping.twiddle_fwd(),
                        Direction::Inverse => self.mapping.twiddle_inv(),
                    };
                    let data = regs.get_mut(reg);
                    let (next, t) = ntt_stage(self.mapping, self.multiplier, data, stage, twiddle)?;
                    *data = next;
                    tally.absorb(&t);
                }
                Instr::Pointwise => {
                    let mut blk = MemoryBlock::with_rows(params.bitwidth, params.n)?;
                    regs.c = blk.mul_montgomery(
                        &regs.a,
                        &regs.b,
                        self.multiplier,
                        self.mapping.reducer(),
                    )?;
                    tally.absorb(&blk.tally());
                }
            }
        }
        Ok((regs.c, tally))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use pim::reduce::ReductionStyle;

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

    #[test]
    fn program_shape() {
        let p = ParamSet::for_degree(256).unwrap();
        let prog = compile(&p);
        assert_eq!(prog.instrs().len(), 3 * 8 + 7);
        assert_eq!(prog.params().n, 256);
        // First two instructions establish the ψ scaling.
        assert!(matches!(prog.instrs()[0], Instr::Scale { reg: Reg::A, .. }));
        assert!(matches!(prog.instrs()[1], Instr::Scale { reg: Reg::B, .. }));
        // Last instruction is the output post-scale.
        assert!(matches!(
            prog.instrs().last(),
            Some(Instr::Scale {
                reg: Reg::C,
                table: Table::PhiPost
            })
        ));
    }

    #[test]
    fn controller_matches_engine() {
        for n in [64usize, 256, 1024] {
            let m = mapping(n);
            let q = m.params().q;
            let a = rand_vec(n, q, 1);
            let b = rand_vec(n, q, 2);

            let prog = compile(m.params());
            let ctl = Controller::new(&m);
            let (via_ctl, ctl_tally) = ctl.run(&prog, &a, &b).unwrap();

            let mut via_eng = Vec::new();
            let trace = Engine::new(&m)
                .multiply_batch(&a, &b, &mut via_eng, &[], None)
                .unwrap();

            assert_eq!(via_ctl, via_eng, "n = {n}");
            let eng_compute = trace.total().compute_cycles + trace.total().reduce_cycles;
            assert_eq!(
                ctl_tally.compute_cycles + ctl_tally.reduce_cycles,
                eng_compute,
                "n = {n}: controller and engine must cost identically"
            );
        }
    }

    #[test]
    fn controller_with_baseline_multiplier() {
        let m = mapping(256);
        let q = m.params().q;
        let a = rand_vec(256, q, 3);
        let b = rand_vec(256, q, 4);
        let prog = compile(m.params());
        let fast = Controller::new(&m);
        let slow = Controller::new(&m).with_multiplier(MultiplierKind::HajAli);
        let (rf, tf) = fast.run(&prog, &a, &b).unwrap();
        let (rs, ts) = slow.run(&prog, &a, &b).unwrap();
        assert_eq!(rf, rs);
        assert!(ts.cycles > tf.cycles);
    }

    #[test]
    fn instruction_count_scales_with_log_n() {
        for (n, expect) in [(256usize, 31), (1024, 37), (32768, 52)] {
            let p = ParamSet::for_degree(n).unwrap();
            assert_eq!(compile(&p).instrs().len(), expect, "n = {n}");
        }
    }
}
