//! Deterministic fault injection for the chaos suite.
//!
//! A **failpoint** is a named site in the daemon's hot paths (accept
//! loop, worker loop, cache/journal appends, stream writer) where a test
//! can inject a fault *on the k-th hit, exactly once* — an I/O error, a
//! delay, or an immediate process abort (the deterministic stand-in for
//! `kill -9`). Sites are armed programmatically (`arm`) or from the
//! environment (`GNCG_FAILPOINTS`, parsed once on first hit), so a
//! spawned `gncg serve` subprocess can be told to die mid-job without
//! any test-only protocol surface.
//!
//! The real implementation is compiled only under
//! `cfg(any(test, feature = "failpoints"))`; every other build gets the
//! no-op stub below — an `#[inline(always)]` `Ok(())` the optimizer
//! erases, so production binaries carry no registry, no parsing, and no
//! atomics on any hot path.
//!
//! Under the `failpoints` feature an armed site fires on whichever thread
//! hits it: the chaos suite's daemon threads hit sites its test thread
//! armed. In the crate's own unit tests (`cfg(test)`), which run side by
//! side in one process, a site armed with `arm` counts and fires only
//! on the thread that armed it, so one test cannot inject a fault into
//! another. Sites armed from `GNCG_FAILPOINTS` fire on every thread.
//!
//! # `GNCG_FAILPOINTS` syntax
//!
//! Comma-separated `site=action@k` triples; `k` is the 1-based hit at
//! which the action fires (every other hit is a no-op):
//!
//! ```text
//! GNCG_FAILPOINTS="worker.cell=abort@3,cache.append=err@1,stream.write=delay:50@2"
//! ```
//!
//! Actions: `err` (the site reports an injected [`std::io::Error`]),
//! `delay:<ms>` (the site sleeps, then proceeds), `abort` (the process
//! dies on the spot via [`std::process::abort`]).
//!
//! # Sites
//!
//! | site             | where                                             |
//! |------------------|---------------------------------------------------|
//! | `accept.conn`    | accept loop, per accepted connection              |
//! | `worker.cell`    | worker loop, per *simulated* cell (not cache hits)|
//! | `cache.append`   | result-cache disk append, per fresh record        |
//! | `journal.append` | job-journal disk append, per record               |
//! | `stream.write`   | stream/tail writer, per cell line sent            |

#[cfg(any(test, feature = "failpoints"))]
pub use real::{arm, check, disarm, hits, reset, Action};

#[cfg(any(test, feature = "failpoints"))]
mod real {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    use std::thread::ThreadId;

    /// What an armed site does on its trigger hit.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Action {
        /// Report an injected I/O error from the site.
        Err,
        /// Sleep this many milliseconds, then proceed normally.
        Delay(u64),
        /// Abort the process immediately (no unwinding, no cleanup) —
        /// the deterministic `kill -9`.
        Abort,
    }

    #[derive(Debug)]
    struct Site {
        action: Action,
        /// 1-based hit number at which `action` fires.
        at: u64,
        hits: u64,
        /// The only thread whose hits count, if any (see the module docs).
        owner: Option<ThreadId>,
    }

    fn sites() -> &'static Mutex<HashMap<String, Site>> {
        static SITES: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
        SITES.get_or_init(|| {
            let mut map = HashMap::new();
            if let Ok(raw) = std::env::var("GNCG_FAILPOINTS") {
                for entry in raw.split(',').filter(|e| !e.trim().is_empty()) {
                    match parse_entry(entry.trim()) {
                        Ok((site, action, at)) => {
                            map.insert(
                                site,
                                Site {
                                    action,
                                    at,
                                    hits: 0,
                                    owner: None,
                                },
                            );
                        }
                        Err(e) => eprintln!("gncg_service: ignoring failpoint '{entry}': {e}"),
                    }
                }
            }
            Mutex::new(map)
        })
    }

    /// Parses one `site=action@k` environment entry.
    fn parse_entry(entry: &str) -> Result<(String, Action, u64), String> {
        let (site, rest) = entry
            .split_once('=')
            .ok_or("expected site=action@k".to_string())?;
        let (action, at) = rest
            .split_once('@')
            .ok_or("expected action@k".to_string())?;
        let at: u64 = at.parse().map_err(|_| format!("bad hit count '{at}'"))?;
        if at == 0 {
            return Err("hit count is 1-based".into());
        }
        let action = match action {
            "err" => Action::Err,
            "abort" => Action::Abort,
            other => match other.strip_prefix("delay:") {
                Some(ms) => Action::Delay(ms.parse().map_err(|_| format!("bad delay '{ms}'"))?),
                None => return Err(format!("unknown action '{other}' (err|delay:<ms>|abort)")),
            },
        };
        Ok((site.to_string(), action, at))
    }

    /// Arms `site` to perform `action` on its `at`-th hit (1-based),
    /// resetting the site's hit counter. In unit tests only the calling
    /// thread's hits count (see the module docs).
    pub fn arm(site: &str, action: Action, at: u64) {
        sites().lock().unwrap().insert(
            site.to_string(),
            Site {
                action,
                at: at.max(1),
                hits: 0,
                // The arming thread in unit tests; every thread under the
                // `failpoints` feature.
                owner: cfg!(test).then(|| std::thread::current().id()),
            },
        );
    }

    /// Disarms one site (its hit history is discarded).
    pub fn disarm(site: &str) {
        sites().lock().unwrap().remove(site);
    }

    /// Disarms every site.
    pub fn reset() {
        sites().lock().unwrap().clear();
    }

    /// Hits recorded at `site` so far (0 when not armed).
    pub fn hits(site: &str) -> u64 {
        sites().lock().unwrap().get(site).map_or(0, |s| s.hits)
    }

    /// Records one hit at `site` and performs the armed action if this is
    /// the trigger hit. Unarmed sites, and in unit tests sites armed by
    /// another thread, cost one mutex lock and return `Ok(())`.
    pub fn check(site: &str) -> std::io::Result<()> {
        let fired = {
            let mut g = sites().lock().unwrap();
            match g.get_mut(site) {
                None => return Ok(()),
                Some(s) if s.owner.is_some_and(|t| t != std::thread::current().id()) => {
                    return Ok(())
                }
                Some(s) => {
                    s.hits += 1;
                    (s.hits == s.at).then_some(s.action)
                }
            }
        };
        match fired {
            None => Ok(()),
            Some(Action::Err) => Err(std::io::Error::other(format!(
                "failpoint '{site}' injected error"
            ))),
            Some(Action::Delay(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(())
            }
            Some(Action::Abort) => {
                eprintln!("gncg_service: failpoint '{site}' aborting process");
                std::process::abort();
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fires_exactly_on_the_kth_hit() {
            arm("fp.test.kth", Action::Err, 3);
            assert!(check("fp.test.kth").is_ok());
            assert!(check("fp.test.kth").is_ok());
            let err = check("fp.test.kth").unwrap_err();
            assert!(err.to_string().contains("fp.test.kth"), "{err}");
            // Hits past the trigger are clean again (fires once).
            assert!(check("fp.test.kth").is_ok());
            assert_eq!(hits("fp.test.kth"), 4);
            disarm("fp.test.kth");
            assert!(check("fp.test.kth").is_ok());
            assert_eq!(hits("fp.test.kth"), 0);
        }

        #[test]
        fn a_site_armed_on_one_thread_ignores_hits_from_another() {
            arm("fp.test.thread", Action::Err, 1);
            let other = std::thread::spawn(|| check("fp.test.thread").is_ok());
            assert!(other.join().unwrap(), "another thread's hit fired");
            assert_eq!(hits("fp.test.thread"), 0, "another thread's hit counted");
            assert!(check("fp.test.thread").is_err(), "the arming thread's hit");
            disarm("fp.test.thread");
        }

        #[test]
        fn delay_proceeds_after_sleeping() {
            arm("fp.test.delay", Action::Delay(10), 1);
            let started = std::time::Instant::now();
            assert!(check("fp.test.delay").is_ok());
            assert!(started.elapsed() >= std::time::Duration::from_millis(10));
            disarm("fp.test.delay");
        }

        #[test]
        fn env_entries_parse() {
            assert_eq!(
                parse_entry("worker.cell=abort@3").unwrap(),
                ("worker.cell".into(), Action::Abort, 3)
            );
            assert_eq!(
                parse_entry("a=delay:250@1").unwrap(),
                ("a".into(), Action::Delay(250), 1)
            );
            assert_eq!(
                parse_entry("a=err@9").unwrap(),
                ("a".into(), Action::Err, 9)
            );
            for bad in ["", "a", "a=b", "a=err", "a=err@0", "a=err@x", "a=delay:@1"] {
                assert!(parse_entry(bad).is_err(), "{bad:?}");
            }
        }
    }
}

/// No-op stub: without `cfg(any(test, feature = "failpoints"))` every
/// site compiles to an always-inlined `Ok(())`.
#[cfg(not(any(test, feature = "failpoints")))]
#[inline(always)]
pub fn check(_site: &str) -> std::io::Result<()> {
    Ok(())
}
