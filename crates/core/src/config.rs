//! The one place `CBRAIN_*` environment variables are read.
//!
//! Ten knobs configure the workspace from the environment. Each has a
//! single documented precedence: **CLI flag > environment > default**.
//! Call sites never touch [`std::env::var`] for these directly — they go
//! through [`EnvConfig`], which captures the raw environment once and
//! exposes typed accessors:
//!
//! | Variable              | Accessor                                  | Meaning                                        |
//! |-----------------------|-------------------------------------------|------------------------------------------------|
//! | `CBRAIN_CACHE`        | [`persistence_enabled`], [`cache_file`]   | `off`/`0` disables cache persistence entirely  |
//! | `CBRAIN_CACHE_DIR`    | [`cache_file`]                            | overrides the cache *directory*                |
//! | `CBRAIN_CACHE_MAX`    | [`cache_max`]                             | bounds persisted cache entries (LRU-evicted)   |
//! | `CBRAIN_MAC_RATE`     | [`mac_rate`]                              | pins the CPU MAC-rate calibration (Table 4)    |
//! | `CBRAIN_SHARDS`       | [`shards`]                                | default fleet shard list, `HOST:PORT,...`      |
//! | `CBRAIN_JOURNAL`      | [`journal_file`]                          | default run-journal path for sweeps            |
//! | `CBRAIN_RESUME`       | [`resume`]                                | `1`/`true`/`on` resumes from the journal       |
//! | `CBRAIN_FORCE_SCALAR` | [`force_scalar`]                          | `1`/`true`/`on` pins the scalar SIMD fallback  |
//! | `CBRAIN_TELEMETRY`    | [`telemetry_enabled`]                     | `off`/`0`/`false`/`no` disables span timing    |
//! | `CBRAIN_METRICS_ADDR` | [`metrics_addr`]                          | default `cbrand --metrics-addr` listen address |
//!
//! [`persistence_enabled`]: EnvConfig::persistence_enabled
//! [`cache_file`]: EnvConfig::cache_file
//! [`cache_max`]: EnvConfig::cache_max
//! [`mac_rate`]: EnvConfig::mac_rate
//! [`shards`]: EnvConfig::shards
//! [`journal_file`]: EnvConfig::journal_file
//! [`resume`]: EnvConfig::resume
//! [`force_scalar`]: EnvConfig::force_scalar
//! [`telemetry_enabled`]: EnvConfig::telemetry_enabled
//! [`metrics_addr`]: EnvConfig::metrics_addr
//!
//! The struct is a plain snapshot: [`EnvConfig::load`] reads the process
//! environment, [`EnvConfig::from_lookup`] builds one from any closure so
//! tests never have to mutate process-global state.
//!
//! Two documented exceptions to "call sites go through `EnvConfig`":
//! `CBRAIN_FORCE_SCALAR` is *acted on* inside `cbrain_simd` (re-exported
//! as [`cbrain_model::simd`]) and `CBRAIN_TELEMETRY` inside
//! `cbrain_telemetry` (re-exported as [`crate::telemetry`]) — both crates
//! sit below this one in the dependency graph and therefore cannot see
//! [`EnvConfig`]. Each reads its variable once, at first use, with
//! exactly the truth-parsing rules the matching accessor here documents
//! ([`EnvConfig::force_scalar`] / [`EnvConfig::telemetry_enabled`]); the
//! accessors exist so operator tooling reports the knobs alongside the
//! other eight.

use std::path::PathBuf;

/// Disables cache persistence entirely when set to `off` or `0`.
pub const ENV_CACHE: &str = "CBRAIN_CACHE";

/// Overrides the cache *directory* (the file name inside it is fixed).
pub const ENV_CACHE_DIR: &str = "CBRAIN_CACHE_DIR";

/// Bounds the number of persisted cache entries. When set to a positive
/// integer, save paths evict least-recently-used entries down to the
/// bound before writing, so long-lived caches (the `cbrand` daemon, a
/// fleet shard) stop growing without bound.
pub const ENV_CACHE_MAX: &str = "CBRAIN_CACHE_MAX";

/// Pins the host-CPU MAC-rate calibration (MACs/second) used by the
/// Table 4 experiment, making its output byte-reproducible.
pub const ENV_MAC_RATE: &str = "CBRAIN_MAC_RATE";

/// Default fleet shard list (`HOST:PORT,HOST:PORT,...`) for
/// `exp_all --shards` and `cbrain fleet-client` when no flag is given.
pub const ENV_SHARDS: &str = "CBRAIN_SHARDS";

/// Default run-journal path for `exp_all` and `cbrain run` when no
/// `--journal` flag is given (see [`crate::journal`]).
pub const ENV_JOURNAL: &str = "CBRAIN_JOURNAL";

/// Enables `--resume` semantics from the environment: completed cells
/// found in the journal are replayed instead of re-simulated.
pub const ENV_RESUME: &str = "CBRAIN_RESUME";

/// Pins every SIMD kernel to its scalar fallback (see
/// [`cbrain_model::simd`]). The differential-test escape hatch: results
/// must be bit-identical either way, so flipping this only changes speed.
pub const ENV_FORCE_SCALAR: &str = cbrain_model::simd::ENV_FORCE_SCALAR;

/// The telemetry kill switch (see [`crate::telemetry`]): `off`, `0`,
/// `false` or `no` disables span/histogram timing; anything else —
/// including unset — leaves it on. Counters and gauges keep counting
/// either way because the `stats`/`progress` wire responses read them.
pub const ENV_TELEMETRY: &str = cbrain_telemetry::ENV_TELEMETRY;

/// Default listen address for `cbrand --metrics-addr` (Prometheus
/// text-format exposition over `GET /metrics`). The flag always beats
/// this; unset or blank means "no exposition listener".
pub const ENV_METRICS_ADDR: &str = "CBRAIN_METRICS_ADDR";

/// A typed snapshot of every `CBRAIN_*` environment variable (plus the
/// `XDG_CACHE_HOME`/`HOME` fallbacks that cache-path resolution needs).
///
/// Construction captures raw strings only; interpretation happens in the
/// accessors so each knob keeps its own leniency rules (see each method).
#[derive(Debug, Clone, Default)]
pub struct EnvConfig {
    cache: Option<String>,
    cache_dir: Option<String>,
    cache_max: Option<String>,
    mac_rate: Option<String>,
    shards: Option<String>,
    journal: Option<String>,
    resume: Option<String>,
    force_scalar: Option<String>,
    telemetry: Option<String>,
    metrics_addr: Option<String>,
    xdg_cache_home: Option<String>,
    home: Option<String>,
}

impl EnvConfig {
    /// Snapshots the process environment. This is the only function in
    /// the workspace that reads `CBRAIN_*` variables.
    #[must_use]
    pub fn load() -> Self {
        Self::from_lookup(|key| std::env::var(key).ok())
    }

    /// Builds a config from an arbitrary lookup, so tests can exercise
    /// every branch without mutating process-global environment state.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        Self {
            cache: lookup(ENV_CACHE),
            cache_dir: lookup(ENV_CACHE_DIR),
            cache_max: lookup(ENV_CACHE_MAX),
            mac_rate: lookup(ENV_MAC_RATE),
            shards: lookup(ENV_SHARDS),
            journal: lookup(ENV_JOURNAL),
            resume: lookup(ENV_RESUME),
            force_scalar: lookup(ENV_FORCE_SCALAR),
            telemetry: lookup(ENV_TELEMETRY),
            metrics_addr: lookup(ENV_METRICS_ADDR),
            xdg_cache_home: lookup("XDG_CACHE_HOME"),
            home: lookup("HOME"),
        }
    }

    /// Whether cache persistence is enabled at all. `CBRAIN_CACHE=off`
    /// or `=0` disables it; anything else (including unset) enables it.
    #[must_use]
    pub fn persistence_enabled(&self) -> bool {
        !matches!(self.cache.as_deref(), Some("off") | Some("0"))
    }

    /// The cache file the environment selects, or `None` when
    /// persistence is disabled or no cache directory can be derived.
    ///
    /// Resolution order for the directory: `$CBRAIN_CACHE_DIR`, then
    /// `$XDG_CACHE_HOME/cbrain`, then `$HOME/.cache/cbrain`.
    #[must_use]
    pub fn cache_file(&self) -> Option<PathBuf> {
        if !self.persistence_enabled() {
            return None;
        }
        let dir = if let Some(d) = &self.cache_dir {
            PathBuf::from(d)
        } else if let Some(d) = &self.xdg_cache_home {
            PathBuf::from(d).join("cbrain")
        } else if let Some(h) = &self.home {
            PathBuf::from(h).join(".cache").join("cbrain")
        } else {
            return None;
        };
        Some(dir.join(crate::persist::CACHE_FILE_NAME))
    }

    /// The persisted-entry bound, if any. Unset, empty, zero or
    /// unparsable values all mean "unbounded" — a bad bound must never
    /// make a save path fail.
    #[must_use]
    pub fn cache_max(&self) -> Option<usize> {
        self.cache_max
            .as_deref()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    }

    /// The pinned MAC rate in MACs/second, or `None` to calibrate live.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set but not a positive finite number:
    /// a typo'd pin would otherwise silently un-pin Table 4 and break
    /// byte-identity diffs, which is exactly what the pin exists for.
    #[must_use]
    pub fn mac_rate(&self) -> Option<f64> {
        let raw = self.mac_rate.as_deref()?;
        let rate = raw
            .trim()
            .parse::<f64>()
            .ok()
            .filter(|r| r.is_finite() && *r > 0.0)
            .unwrap_or_else(|| panic!("{ENV_MAC_RATE} must be a positive number, got `{raw}`"));
        Some(rate)
    }

    /// The default shard list, split on commas with empty segments
    /// dropped. `None` when the variable is unset or contains no
    /// non-empty segment.
    #[must_use]
    pub fn shards(&self) -> Option<Vec<String>> {
        let list: Vec<String> = self
            .shards
            .as_deref()?
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_owned)
            .collect();
        if list.is_empty() {
            None
        } else {
            Some(list)
        }
    }

    /// The default journal file, or `None` when the variable is unset or
    /// blank. A flag (`--journal`) always beats this.
    #[must_use]
    pub fn journal_file(&self) -> Option<PathBuf> {
        self.journal
            .as_deref()
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(PathBuf::from)
    }

    /// Whether the environment requests resume-from-journal. `1`, `true`
    /// or `on` (case-insensitive) enable it; anything else — including
    /// unset, empty and typos — leaves resume off, because a silently
    /// mis-enabled resume would skip simulation the operator expected to
    /// run.
    #[must_use]
    pub fn resume(&self) -> bool {
        matches!(
            self.resume
                .as_deref()
                .map(str::trim)
                .map(str::to_ascii_lowercase)
                .as_deref(),
            Some("1") | Some("true") | Some("on")
        )
    }

    /// Whether the environment pins SIMD kernels to the scalar fallback.
    /// Same truth rules as [`EnvConfig::resume`]: `1`, `true` or `on`
    /// (case-insensitive); anything else leaves SIMD dispatch on.
    ///
    /// Reporting-only here — the dispatch decision itself is made (with
    /// identical parsing) inside `cbrain_simd`, the one crate allowed to
    /// read this variable directly (see the module docs).
    #[must_use]
    pub fn force_scalar(&self) -> bool {
        matches!(
            self.force_scalar
                .as_deref()
                .map(str::trim)
                .map(str::to_ascii_lowercase)
                .as_deref(),
            Some("1") | Some("true") | Some("on")
        )
    }

    /// Whether span/histogram timing is enabled. `off`, `0`, `false` or
    /// `no` (case-insensitive, trimmed) disable it; anything else —
    /// including unset — enables it, because telemetry is designed to be
    /// on by default and byte-invisible to reports.
    ///
    /// Reporting-only here — the gate itself is read (with identical
    /// parsing, via [`cbrain_telemetry::value_means_off`]) inside
    /// `cbrain_telemetry`, the second crate allowed to read its variable
    /// directly (see the module docs).
    #[must_use]
    pub fn telemetry_enabled(&self) -> bool {
        match self.telemetry.as_deref() {
            Some(v) => !cbrain_telemetry::value_means_off(v),
            None => true,
        }
    }

    /// The default metrics listen address (`HOST:PORT`), or `None` when
    /// the variable is unset or blank. A flag (`--metrics-addr`) always
    /// beats this.
    #[must_use]
    pub fn metrics_addr(&self) -> Option<String> {
        self.metrics_addr
            .as_deref()
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::path::Path;

    fn config(pairs: &[(&str, &str)]) -> EnvConfig {
        let map: HashMap<String, String> = pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        EnvConfig::from_lookup(|key| map.get(key).cloned())
    }

    #[test]
    fn cache_switch_disables_persistence() {
        for off in ["off", "0"] {
            let cfg = config(&[(ENV_CACHE, off), (ENV_CACHE_DIR, "/tmp/x")]);
            assert!(!cfg.persistence_enabled());
            assert_eq!(cfg.cache_file(), None);
        }
        let cfg = config(&[(ENV_CACHE, "auto"), (ENV_CACHE_DIR, "/tmp/x")]);
        assert!(cfg.persistence_enabled());
        assert!(cfg.cache_file().is_some());
    }

    #[test]
    fn cache_dir_resolution_order() {
        let explicit = config(&[
            (ENV_CACHE_DIR, "/d"),
            ("XDG_CACHE_HOME", "/x"),
            ("HOME", "/h"),
        ]);
        assert_eq!(
            explicit.cache_file(),
            Some(Path::new("/d").join(crate::persist::CACHE_FILE_NAME))
        );
        let xdg = config(&[("XDG_CACHE_HOME", "/x"), ("HOME", "/h")]);
        assert_eq!(
            xdg.cache_file(),
            Some(Path::new("/x/cbrain").join(crate::persist::CACHE_FILE_NAME))
        );
        let home = config(&[("HOME", "/h")]);
        assert_eq!(
            home.cache_file(),
            Some(Path::new("/h/.cache/cbrain").join(crate::persist::CACHE_FILE_NAME))
        );
        assert_eq!(config(&[]).cache_file(), None);
    }

    #[test]
    fn cache_max_is_lenient() {
        assert_eq!(config(&[(ENV_CACHE_MAX, " 12 ")]).cache_max(), Some(12));
        for bad in ["", "0", "-3", "lots"] {
            assert_eq!(config(&[(ENV_CACHE_MAX, bad)]).cache_max(), None);
        }
        assert_eq!(config(&[]).cache_max(), None);
    }

    #[test]
    fn mac_rate_parses_or_is_absent() {
        assert_eq!(config(&[(ENV_MAC_RATE, "5.7e8")]).mac_rate(), Some(5.7e8));
        assert_eq!(config(&[]).mac_rate(), None);
    }

    #[test]
    #[should_panic(expected = "CBRAIN_MAC_RATE must be a positive number")]
    fn mac_rate_rejects_garbage() {
        let _ = config(&[(ENV_MAC_RATE, "fast")]).mac_rate();
    }

    #[test]
    #[should_panic(expected = "CBRAIN_MAC_RATE must be a positive number")]
    fn mac_rate_rejects_nonpositive() {
        let _ = config(&[(ENV_MAC_RATE, "-1.0")]).mac_rate();
    }

    #[test]
    fn journal_path_ignores_blank_values() {
        assert_eq!(
            config(&[(ENV_JOURNAL, " /tmp/j.bin ")]).journal_file(),
            Some(PathBuf::from("/tmp/j.bin"))
        );
        assert_eq!(config(&[(ENV_JOURNAL, "  ")]).journal_file(), None);
        assert_eq!(config(&[]).journal_file(), None);
    }

    #[test]
    fn resume_accepts_only_explicit_truths() {
        for yes in ["1", "true", "on", " TRUE ", "On"] {
            assert!(config(&[(ENV_RESUME, yes)]).resume(), "{yes:?}");
        }
        for no in ["", "0", "false", "off", "yes", "resume"] {
            assert!(!config(&[(ENV_RESUME, no)]).resume(), "{no:?}");
        }
        assert!(!config(&[]).resume());
    }

    #[test]
    fn force_scalar_accepts_only_explicit_truths() {
        for yes in ["1", "true", "on", " TRUE ", "On"] {
            assert!(config(&[(ENV_FORCE_SCALAR, yes)]).force_scalar(), "{yes:?}");
        }
        for no in ["", "0", "false", "off", "yes", "scalar"] {
            assert!(!config(&[(ENV_FORCE_SCALAR, no)]).force_scalar(), "{no:?}");
        }
        assert!(!config(&[]).force_scalar());
    }

    #[test]
    fn force_scalar_name_matches_the_simd_crate() {
        // The dispatch-time read lives in cbrain_simd; the two constants
        // must never drift apart.
        assert_eq!(ENV_FORCE_SCALAR, "CBRAIN_FORCE_SCALAR");
    }

    #[test]
    fn telemetry_defaults_on_and_disables_only_on_explicit_off() {
        assert!(config(&[]).telemetry_enabled(), "unset means on");
        for off in ["off", "OFF", " 0 ", "false", "no"] {
            assert!(
                !config(&[(ENV_TELEMETRY, off)]).telemetry_enabled(),
                "{off:?}"
            );
        }
        for on in ["on", "1", "true", "", "yes", "typo"] {
            assert!(config(&[(ENV_TELEMETRY, on)]).telemetry_enabled(), "{on:?}");
        }
    }

    #[test]
    fn telemetry_name_matches_the_telemetry_crate() {
        // The gate-time read lives in cbrain_telemetry; the two constants
        // must never drift apart.
        assert_eq!(ENV_TELEMETRY, "CBRAIN_TELEMETRY");
    }

    #[test]
    fn metrics_addr_ignores_blank_values() {
        assert_eq!(
            config(&[(ENV_METRICS_ADDR, " 127.0.0.1:9200 ")]).metrics_addr(),
            Some("127.0.0.1:9200".to_owned())
        );
        assert_eq!(config(&[(ENV_METRICS_ADDR, "  ")]).metrics_addr(), None);
        assert_eq!(config(&[]).metrics_addr(), None);
    }

    #[test]
    fn shards_split_and_trim() {
        assert_eq!(
            config(&[(ENV_SHARDS, "a:1, b:2 ,,c:3")]).shards(),
            Some(vec!["a:1".to_owned(), "b:2".to_owned(), "c:3".to_owned()])
        );
        assert_eq!(config(&[(ENV_SHARDS, " , ")]).shards(), None);
        assert_eq!(config(&[]).shards(), None);
    }
}
