//! Parallel batch simulation: sweeps over α grids and instance seeds fan
//! out on the rayon pool. Independent runs make this embarrassingly
//! parallel — the hpc workhorse of the experiment harness.

use rayon::prelude::*;

use gncg_core::{Game, Profile};
use gncg_graph::SymMatrix;

use crate::engine::{run, DynamicsConfig, RunResult};

/// One point of a sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// The α used.
    pub alpha: f64,
    /// Index of the instance within the batch (e.g. the seed).
    pub instance: usize,
    /// Run result.
    pub result: RunResult,
    /// Social cost of the final profile.
    pub social_cost: f64,
}

/// Runs the dynamics for every `(host, α)` combination in parallel,
/// starting each run from `start_of(instance_idx, n)`.
pub fn sweep<F>(
    hosts: &[SymMatrix],
    alphas: &[f64],
    cfg: &DynamicsConfig,
    start_of: F,
) -> Vec<SweepPoint>
where
    F: Fn(usize, usize) -> Profile + Sync,
{
    let jobs: Vec<(usize, f64)> = (0..hosts.len())
        .flat_map(|i| alphas.iter().map(move |&a| (i, a)))
        .collect();
    jobs.into_par_iter()
        .map(|(i, alpha)| {
            let game = Game::new(hosts[i].clone(), alpha);
            let start = start_of(i, game.n());
            let result = run(&game, start, cfg);
            let social_cost = gncg_core::cost::social_cost(&game, &result.profile);
            SweepPoint {
                alpha,
                instance: i,
                result,
                social_cost,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ResponseRule, Scheduler};

    fn cfg() -> DynamicsConfig {
        DynamicsConfig {
            rule: ResponseRule::BestGreedyMove,
            scheduler: Scheduler::RoundRobin,
            max_rounds: 300,
            ..DynamicsConfig::default()
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let hosts: Vec<SymMatrix> = (0..3)
            .map(|s| gncg_metrics::arbitrary::random_metric(6, 1.0, 3.0, s))
            .collect();
        let alphas = [0.5, 1.0, 2.0];
        let par = sweep(&hosts, &alphas, &cfg(), |_, n| Profile::star(n, 0));
        assert_eq!(par.len(), hosts.len() * alphas.len());
        // Jobs run host-major, α-minor; each must equal its inline run.
        let mut points = par.iter();
        for (i, host) in hosts.iter().enumerate() {
            for &alpha in &alphas {
                let p = points.next().unwrap();
                let game = Game::new(host.clone(), alpha);
                let result = run(&game, Profile::star(game.n(), 0), &cfg());
                assert_eq!((p.alpha, p.instance), (alpha, i));
                assert_eq!(p.result.profile, result.profile);
                assert_eq!(
                    p.social_cost,
                    gncg_core::cost::social_cost(&game, &result.profile)
                );
            }
        }
    }

    #[test]
    fn convergence_rate_counts() {
        let hosts = vec![gncg_metrics::unit::unit_host(5)];
        let points = sweep(&hosts, &[2.0], &cfg(), |_, n| Profile::star(n, 0));
        assert_eq!(points.len(), 1);
        assert_eq!(crate::stats::summarize(&points).convergence_rate, 1.0);
        assert_eq!(crate::stats::summarize(&[]).convergence_rate, 1.0);
    }
}
