//! One compiled-layer cache for the whole harness process.
//!
//! Every experiment cell used to build its own [`Runner`] with a fresh
//! cache, so `exp_all` recompiled AlexNet's conv1 a dozen times. All
//! cells now share this process-wide cache: results are unchanged (a
//! cached entry is exactly what a fresh compile would return — the
//! entry is a pure function of its key) but repeated layers compile
//! once.
//!
//! [`init_for_binary`] additionally wires the cache to the persisted
//! file ([`cbrain::persist`]), so a *second* harness invocation starts
//! warm. Persistence is on by default and disabled with
//! `CBRAIN_CACHE=off`; all notices go to stderr so experiment stdout
//! stays byte-identical either way.

use cbrain::persist::{self, LoadOutcome};
use cbrain::{CompileBackend, CompiledLayerCache, RunOptions, Runner};
use cbrain_fleet::FleetRouter;
use cbrain_sim::AcceleratorConfig;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

static SHARED: OnceLock<Arc<CompiledLayerCache>> = OnceLock::new();
static FLEET: OnceLock<Arc<FleetRouter>> = OnceLock::new();

/// The process-wide compiled-layer cache.
pub fn shared_cache() -> Arc<CompiledLayerCache> {
    Arc::clone(SHARED.get_or_init(CompiledLayerCache::shared))
}

/// Installs a fleet router: every subsequent [`runner`]/[`runner_with`]
/// scatters its compile misses over the shards instead of the local
/// pool. Results stay byte-identical — entries are pure functions of
/// their keys, and the runner's accounting is backend-independent.
/// First call wins; call before any experiment runs.
pub fn install_fleet(router: Arc<FleetRouter>) {
    let _ = FLEET.set(router);
}

/// The installed fleet router, if any.
pub fn fleet() -> Option<Arc<FleetRouter>> {
    FLEET.get().map(Arc::clone)
}

fn with_fleet(runner: Runner) -> Runner {
    match FLEET.get() {
        Some(router) => runner.with_compile_backend(Arc::clone(router) as Arc<dyn CompileBackend>),
        None => runner,
    }
}

/// A [`Runner`] with default options on the shared cache (and the fleet
/// backend, when one is installed).
pub fn runner(cfg: AcceleratorConfig) -> Runner {
    with_fleet(Runner::new(cfg).with_cache(shared_cache()))
}

/// A [`Runner`] with explicit options on the shared cache (and the
/// fleet backend, when one is installed).
pub fn runner_with(cfg: AcceleratorConfig, opts: RunOptions) -> Runner {
    with_fleet(Runner::with_options(cfg, opts).with_cache(shared_cache()))
}

/// Loads the persisted cache into [`shared_cache`] and returns a guard
/// that saves it back on drop. Call once at the top of an `exp_*`
/// binary's `main` and keep the guard alive for the whole run.
///
/// Never fails: a missing, stale, or corrupt cache file degrades to a
/// cold start with a stderr notice.
pub fn init_for_binary() -> PersistGuard {
    let Some(path) = persist::resolved_cache_file() else {
        return PersistGuard { path: None };
    };
    let cache = shared_cache();
    match persist::load_into(&cache, &path) {
        Ok(LoadOutcome::Loaded { entries }) => {
            eprintln!("cache: loaded {entries} entries from {}", path.display());
        }
        Ok(LoadOutcome::Missing) => {}
        Ok(LoadOutcome::VersionMismatch { found }) => {
            eprintln!(
                "cache: ignoring {} (format v{found}, expected v{})",
                path.display(),
                persist::FORMAT_VERSION
            );
        }
        Err(e) => eprintln!("cache: ignoring {}: {e}", path.display()),
    }
    PersistGuard { path: Some(path) }
}

/// Saves the shared cache back to its file when dropped (i.e. at the
/// end of `main`, including on experiment panics unwinding through it).
#[derive(Debug)]
pub struct PersistGuard {
    path: Option<PathBuf>,
}

impl Drop for PersistGuard {
    fn drop(&mut self) {
        let Some(path) = &self.path else { return };
        let cache = shared_cache();
        match persist::save(&cache, path) {
            Ok(entries) => eprintln!(
                "cache: saved {entries} entries to {} ({} hits / {} misses this run)",
                path.display(),
                cache.hits(),
                cache.misses()
            ),
            Err(e) => eprintln!("cache: save to {} failed: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbrain::Policy;
    use cbrain_model::zoo;

    #[test]
    fn shared_runners_reuse_compiles() {
        let net = zoo::nin();
        let cfg = AcceleratorConfig::paper_16_16();
        runner(cfg)
            .run_network(&net, Policy::Oracle)
            .expect("compiles");
        // A second runner on the shared cache re-resolves every layer
        // without a single compile. Read the run's own accounting: the
        // cache's global counters also move with the other tests in
        // this binary, which share the cache and run in parallel.
        let again = runner(cfg)
            .run_network(&net, Policy::Oracle)
            .expect("compiles");
        assert!(again.cache_hits > 0, "expected hits");
        assert_eq!(again.cache_misses, 0, "expected no new misses");
    }
}
