//! # gncg-dynamics
//!
//! (Best-)response dynamics for the GNCG.
//!
//! The paper proves that none of its model variants has the finite
//! improvement property (Corollary 1, Theorems 14 and 17): improving-move
//! sequences can cycle forever, so the engine here combines capped
//! iteration with *profile-recurrence* cycle detection and only reports an
//! equilibrium when a full silent round certifies it.
//!
//! * [`engine`] — the run loop: response rules × schedulers,
//! * [`cycle`] — profile hashing and recurrence detection,
//! * [`simultaneous`] — simultaneous-move dynamics, every agent
//!   responding to the same network each round.

pub mod cycle;
pub mod engine;
pub mod simultaneous;

pub use engine::{
    agent_is_stable_given_current, run, Checkpoint, DynamicsConfig, Engine, EvalContext, Outcome,
    RegretMeter, ResponseRule, RunResult, Scheduler,
};
pub use gncg_core::{SpeculativePricing, PRICE_HORIZON};
