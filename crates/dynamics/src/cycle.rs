//! Profile-recurrence detection.
//!
//! Because strategies are finite, any infinite improving-move sequence must
//! revisit a profile; under a deterministic rule + scheduler a recurrence
//! certifies a genuine best-response cycle (the game has no potential
//! function — Theorem 14 / Theorem 17).
//!
//! # What a step costs
//!
//! The detector keeps no profile. It records each step as a 64-bit
//! fingerprint of the profile's owned-edge set (the XOR of one key per
//! purchase `owner → target`) and the previous strategies of the agents
//! the step changed. So a step costs time and memory in proportion to
//! the change, not to the number of agents.
//!
//! A fingerprint seen before only names a candidate step. The detector
//! confirms it exactly: the profile at that step equals the current one
//! when every agent changed since then held, right before its first
//! change, the strategy it holds now. A hash collision can therefore
//! never report a cycle.

use std::collections::{BTreeSet, HashMap};

use gncg_core::{NodeId, Profile};

/// Records visited profiles and reports the first recurrence.
#[derive(Debug, Default)]
pub struct CycleDetector {
    /// Fingerprint → the latest step that first saw a profile with it.
    seen: HashMap<u64, usize>,
    steps: Vec<Step>,
    /// Per step, per changed agent: the agent and the end of its previous
    /// strategy in `previous`.
    changed: Vec<(NodeId, usize)>,
    /// The changed agents' previous strategies, back to back, each
    /// ascending.
    previous: Vec<NodeId>,
    /// The current profile's fingerprint.
    fingerprint: u64,
    distinct: usize,
}

/// One recorded step.
#[derive(Clone, Copy, Debug)]
struct Step {
    /// The next earlier step in `seen` with the same fingerprint: a
    /// collision chain, almost always empty.
    same: Option<usize>,
    /// The end of the step's entries in `changed`.
    changed_end: usize,
}

/// A detected recurrence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Recurrence {
    /// Step at which the profile was first seen.
    pub first_seen: usize,
    /// Step at which it recurred.
    pub recurred_at: usize,
}

impl Recurrence {
    /// Cycle length.
    pub fn period(&self) -> usize {
        self.recurred_at - self.first_seen
    }
}

/// The fingerprint key of the purchase `owner → target` (splitmix64).
fn key(owner: NodeId, target: NodeId) -> u64 {
    let mut z = ((owner as u64) << 32 | target as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fingerprint of `strategy`'s purchases by `owner`.
fn strategy_fingerprint(owner: NodeId, strategy: &BTreeSet<NodeId>) -> u64 {
    strategy.iter().fold(0, |fp, &v| fp ^ key(owner, v))
}

impl CycleDetector {
    /// Creates an empty detector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every observation and records `profile` as step 0.
    pub fn start(&mut self, profile: &Profile) {
        self.clear();
        self.fingerprint = (0..profile.n() as NodeId)
            .fold(0, |fp, u| fp ^ strategy_fingerprint(u, profile.strategy(u)));
        self.seen.insert(self.fingerprint, 0);
        self.steps.push(Step {
            same: None,
            changed_end: 0,
        });
        self.distinct = 1;
    }

    /// Records the next step: `profile` after it, and `changed`, every
    /// agent the step changed (each once) with its strategy before the
    /// step. Returns the recurrence when `profile` was seen before.
    pub fn observe<'a>(
        &mut self,
        profile: &Profile,
        changed: impl IntoIterator<Item = (NodeId, &'a BTreeSet<NodeId>)>,
    ) -> Option<Recurrence> {
        for (u, old) in changed {
            self.fingerprint ^=
                strategy_fingerprint(u, old) ^ strategy_fingerprint(u, profile.strategy(u));
            self.previous.extend(old);
            self.changed.push((u, self.previous.len()));
        }
        let step = self.steps.len();
        let chain = self.seen.get(&self.fingerprint).copied();
        self.steps.push(Step {
            same: chain,
            changed_end: self.changed.len(),
        });
        let mut candidate = chain;
        while let Some(k) = candidate {
            if self.unchanged_since(profile, k) {
                return Some(Recurrence {
                    first_seen: k,
                    recurred_at: step,
                });
            }
            candidate = self.steps[k].same;
        }
        self.seen.insert(self.fingerprint, step);
        self.distinct += 1;
        None
    }

    /// Whether `profile`, the profile after the last recorded step,
    /// equals the one after step `k`: every agent changed since held
    /// before its first change the strategy it holds now.
    fn unchanged_since(&self, profile: &Profile, k: usize) -> bool {
        let mut checked = BTreeSet::new();
        (self.steps[k].changed_end..self.changed.len()).all(|i| {
            let (u, end) = self.changed[i];
            let start = i.checked_sub(1).map_or(0, |p| self.changed[p].1);
            !checked.insert(u) || self.previous[start..end].iter().eq(profile.strategy(u))
        })
    }

    /// Number of distinct profiles seen.
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// Bytes the detector holds: its records and its fingerprint map,
    /// the map counted at its entry capacity.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.seen.capacity() * (size_of::<(u64, usize)>() + 1)
            + self.steps.capacity() * size_of::<Step>()
            + self.changed.capacity() * size_of::<(NodeId, usize)>()
            + self.previous.capacity() * size_of::<NodeId>()
    }

    /// Forgets every observation, keeping the allocations — the
    /// [`Engine`](crate::engine::Engine) resets detectors across batch
    /// cells this way instead of reallocating.
    pub fn clear(&mut self) {
        self.seen.clear();
        self.steps.clear();
        self.changed.clear();
        self.previous.clear();
        self.fingerprint = 0;
        self.distinct = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Moves `profile` to `next` as one step of `d`.
    fn step(d: &mut CycleDetector, profile: &mut Profile, next: &Profile) -> Option<Recurrence> {
        let changed: Vec<(NodeId, BTreeSet<NodeId>)> = (0..profile.n() as NodeId)
            .filter(|&u| profile.strategy(u) != next.strategy(u))
            .map(|u| (u, profile.strategy(u).clone()))
            .collect();
        *profile = next.clone();
        d.observe(profile, changed.iter().map(|(u, old)| (*u, old)))
    }

    #[test]
    fn detects_recurrence() {
        let mut d = CycleDetector::new();
        let a = Profile::from_owned_edges(3, &[(0, 1)]);
        let b = Profile::from_owned_edges(3, &[(1, 2)]);
        let mut p = a.clone();
        d.start(&p);
        assert!(step(&mut d, &mut p, &b).is_none());
        let r = step(&mut d, &mut p, &a).expect("recurrence");
        assert_eq!(r.first_seen, 0);
        assert_eq!(r.recurred_at, 2);
        assert_eq!(r.period(), 2);
        assert_eq!(d.distinct(), 2);
    }

    #[test]
    fn ownership_differences_are_distinct_states() {
        let mut d = CycleDetector::new();
        let a = Profile::from_owned_edges(3, &[(0, 1)]);
        let b = Profile::from_owned_edges(3, &[(1, 0)]);
        let mut p = a.clone();
        d.start(&p);
        assert!(step(&mut d, &mut p, &b).is_none());
        assert_eq!(d.distinct(), 2);
    }

    #[test]
    fn a_fingerprint_hit_on_another_profile_is_no_recurrence() {
        let a = Profile::from_owned_edges(3, &[(0, 1)]);
        let c = Profile::from_owned_edges(3, &[(0, 1), (2, 1)]);
        let mut d = CycleDetector::new();
        let mut p = a.clone();
        d.start(&p);
        // Force a collision: `c`'s fingerprint names step 0, whose
        // profile is `a`.
        let fp_c = (0..3).fold(0, |fp, u| fp ^ strategy_fingerprint(u, c.strategy(u)));
        d.seen.insert(fp_c, 0);
        assert_eq!(step(&mut d, &mut p, &c), None);
        assert_eq!(d.distinct(), 2);
        // Both profiles still recur at their own first steps, through
        // the collision chain.
        let r = step(&mut d, &mut p, &a).expect("a recurs");
        assert_eq!((r.first_seen, r.recurred_at), (0, 2));
        let r = step(&mut d, &mut p, &c).expect("c recurs");
        assert_eq!((r.first_seen, r.recurred_at), (1, 3));
        // A hit whose chain holds the match behind a collision: step 4
        // changes nothing, and the map names step 2 (profile `a`) first.
        d.seen.insert(fp_c, 2);
        d.steps[2].same = Some(1);
        let r = step(&mut d, &mut p, &c).expect("c recurs");
        assert_eq!((r.first_seen, r.recurred_at), (1, 4));
    }

    #[test]
    fn records_grow_with_the_changes_not_the_profile() {
        // 4,000 single-agent swaps on 4,096 agents that each own one
        // edge. One profile per step would hold at least the 4,096
        // strategy headers, 96 KiB a step and 375 MiB in all; the records
        // must stay within 1 MiB.
        let n = 4096u32;
        let owned: Vec<(NodeId, NodeId)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
        let mut p = Profile::from_owned_edges(n as usize, &owned);
        let mut d = CycleDetector::new();
        d.start(&p);
        for u in 0..4_000 {
            let old = p.strategy(u).clone();
            p.set_strategy(u, [(u + 2) % n].into_iter().collect());
            assert_eq!(d.observe(&p, [(u, &old)]), None);
        }
        assert_eq!(d.distinct(), 4_001);
        assert!(
            d.resident_bytes() <= 1 << 20,
            "{} bytes",
            d.resident_bytes()
        );
    }
}
