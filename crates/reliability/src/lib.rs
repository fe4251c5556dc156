//! Reliability layer for the CryptoPIM reproduction: functional fault
//! injection, residue-based result checking, and recover-or-quarantine
//! evaluation campaigns.
//!
//! ReRAM crossbars fail — cells stick, writes flip bits transiently,
//! and endurance runs out — and an accelerator that silently returns a
//! wrong polynomial product is worse than one that is merely slow. The
//! hooks this crate drives live below it: the `pim` substrate defines
//! the [`pim::fault`] write-path traits the engine calls (zero-cost
//! when disarmed), `cryptopim` adds residue spot checks
//! ([`cryptopim::check::CheckPolicy`]) that flag a corrupt product in
//! `O(n)` per point, and the `service` scheduler retries detected
//! faults and quarantines repeatedly-faulting banks. This crate
//! supplies the two missing pieces:
//!
//! * [`plan`] — [`plan::FaultPlan`]: seeded, deterministic fault
//!   descriptions (stuck-at-0/1, transient bit flips, endurance
//!   wear-out) implementing [`pim::fault::Injector`], pluggable into a
//!   single accelerator or a whole service fleet.
//! * [`campaign`] — seeded sweeps over fault kind × degree × rate, for
//!   one workload of raw multiplies, wide RNS multiplies or protocol
//!   ops, that serve real ops through a fault-injected, checked service
//!   and referee every answer against an independent fault-free path. The exit
//!   criterion is the stack's safety contract: **no wrong answer ever
//!   leaves `wait()`**.
//!
//! # Example
//!
//! ```
//! use reliability::plan::{FaultKind, FaultPlan};
//! use pim::fault::{CellAddr, Injector};
//!
//! // Bank 0, block 2, row 7, bit 3 reads back 1 no matter what.
//! let plan = FaultPlan::new(42).with_site(
//!     CellAddr { bank: 0, block: 2, row: 7, bit: 3 },
//!     FaultKind::StuckAt1,
//! );
//! let writes = plan.bank_writes(0);
//! assert_eq!(writes.store(2, 7, 0), 0b1000);
//! assert!(!plan.bank_writes(1).armed(), "other banks are clean");
//! ```

pub mod campaign;
pub mod plan;
