//! # gncg-core
//!
//! The Generalized Network Creation Game (GNCG) of Bilò, Friedrich,
//! Lenzner and Melnichenko (SPAA 2019).
//!
//! A [`Game`] couples a complete weighted host graph `H` with the edge-price
//! parameter `α > 0`. A [`Profile`] assigns each agent `u` a strategy
//! `S_u ⊆ V \ {u}` — the set of nodes towards which `u` buys an edge at
//! price `α·w(u, v)`. The profile induces the built network `G(s)`
//! ([`Profile::build_network`]), and
//!
//! ```text
//! cost(u, G(s)) = α·w(u, S_u) + Σ_v d_G(s)(u, v)
//! ```
//!
//! Module map:
//! * [`game`] — the instance type (`H`, `α`) and model-variant helpers,
//! * [`profile`] — strategy profiles and edge ownership,
//! * [`cost`] — agent and social cost, incremental candidate evaluation,
//! * [`moves`] — the greedy move vocabulary (add / delete / swap),
//! * [`response`] — exact best response (branch-and-bound) and best greedy
//!   single moves,
//! * [`equilibrium`] — NE / GE (Greedy) / AE (Add-only) / β-approximate
//!   equilibrium certification,
//! * [`spanner_props`] — Lemma 1 / Lemma 2 spanner properties,
//! * [`poa`] — Price-of-Anarchy bookkeeping and the paper's bound formulas.

pub mod analysis;
pub mod cost;
pub mod equilibrium;
pub mod game;
pub mod moves;
pub mod poa;
pub mod profile;
pub mod response;
pub mod spanner_props;

pub use game::Game;
pub use moves::Move;
pub use profile::Profile;
pub use response::{SpeculativePricing, PRICE_HORIZON};

pub use gncg_graph::{approx_eq, approx_le, strictly_less, NodeId, EPS};
