//! Leveled diagnostics, one discipline for the whole workspace.
//!
//! Before this module, diagnostics were ad-hoc `eprintln!` calls (the
//! malformed-`DIOGENES_JOBS` warning in [`crate::par`], CLI error
//! paths). Telemetry (`--profile`) made a shared output discipline
//! necessary: diagnostic chatter and machine-readable artifacts must not
//! interleave unpredictably. This facade routes everything through one
//! level gate read from `DIOGENES_LOG` (`error|warn|info|debug`,
//! default `warn`), so users can silence or amplify the tool uniformly.
//!
//! Messages go to stderr; stdout remains reserved for reports (the
//! `--json` contract). Progress banners the CLI always prints (run
//! headers, sweep progress) are product UX, not diagnostics, and stay
//! plain `eprintln!`.
//!
//! Output is structured `key=value` text so daemon logs grep and parse
//! cleanly:
//!
//! ```text
//! diogenes ts=2026-08-07T12:34:56.789Z level=warn req=00003e2a8c41f77b msg…
//! ```
//!
//! The `req=` field appears only when a request-correlation id is
//! installed on the emitting thread ([`crate::telemetry::trace_scope`]),
//! which is how one `grep req=<id>` reconstructs a request's path
//! through the `diogenes serve` connection handler, job queue, stage
//! engine, and fan-out helper threads.

use std::sync::OnceLock;
use std::time::SystemTime;

/// Diagnostic severity, ordered so that `level <= max_level()` is the
/// emission test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// Environment variable selecting the maximum emitted level.
pub const LOG_ENV: &str = "DIOGENES_LOG";

/// Parse a `DIOGENES_LOG` value. Unknown strings fall back to the
/// default (`Warn`) rather than erroring — a diagnostics knob must never
/// make the tool itself fail.
pub fn parse_level(s: &str) -> Option<Level> {
    match s.trim().to_ascii_lowercase().as_str() {
        "error" => Some(Level::Error),
        "warn" | "warning" => Some(Level::Warn),
        "info" => Some(Level::Info),
        "debug" => Some(Level::Debug),
        _ => None,
    }
}

/// The active maximum level: `DIOGENES_LOG` read once per process,
/// default `Warn`.
pub fn max_level() -> Level {
    static MAX: OnceLock<Level> = OnceLock::new();
    *MAX.get_or_init(|| {
        std::env::var(LOG_ENV).ok().and_then(|v| parse_level(&v)).unwrap_or(Level::Warn)
    })
}

/// Whether a message at `level` would be emitted.
#[inline]
pub fn enabled(level: Level) -> bool {
    level <= max_level()
}

/// Render a `SystemTime` as RFC 3339 with millisecond precision
/// (`2026-08-07T12:34:56.789Z`), no locale, no allocation surprises.
/// Days-to-civil conversion per Howard Hinnant's algorithm.
pub fn format_rfc3339_millis(t: SystemTime) -> String {
    let dur = t.duration_since(SystemTime::UNIX_EPOCH).unwrap_or_default();
    let secs = dur.as_secs();
    let millis = dur.subsec_millis();
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (hh, mm, ss) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}T{hh:02}:{mm:02}:{ss:02}.{millis:03}Z")
}

/// Emit a formatted message (macro backend — call the `log_*!` macros
/// instead so format arguments are only evaluated when the level is on).
pub fn emit(level: Level, args: std::fmt::Arguments<'_>) {
    if !enabled(level) {
        return;
    }
    let ts = format_rfc3339_millis(SystemTime::now());
    match crate::telemetry::current_trace() {
        Some(t) => eprintln!("diogenes ts={ts} level={} req={:016x} {}", level.as_str(), t.0, args),
        None => eprintln!("diogenes ts={ts} level={} {}", level.as_str(), args),
    }
}

/// Log at [`Level::Error`]: the operation failed and the user must act.
#[macro_export]
macro_rules! log_error {
    ($($arg:tt)*) => {
        $crate::log::emit($crate::log::Level::Error, format_args!($($arg)*))
    };
}

/// Log at [`Level::Warn`] (the default gate): suspicious but recovered.
#[macro_export]
macro_rules! log_warn {
    ($($arg:tt)*) => {
        $crate::log::emit($crate::log::Level::Warn, format_args!($($arg)*))
    };
}

/// Log at [`Level::Info`]: notable lifecycle events, off by default.
#[macro_export]
macro_rules! log_info {
    ($($arg:tt)*) => {
        $crate::log::emit($crate::log::Level::Info, format_args!($($arg)*))
    };
}

/// Log at [`Level::Debug`]: high-volume tracing aid, off by default.
#[macro_export]
macro_rules! log_debug {
    ($($arg:tt)*) => {
        $crate::log::emit($crate::log::Level::Debug, format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_error_lowest() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
    }

    #[test]
    fn parse_accepts_known_levels_case_insensitively() {
        assert_eq!(parse_level("error"), Some(Level::Error));
        assert_eq!(parse_level("WARN"), Some(Level::Warn));
        assert_eq!(parse_level("warning"), Some(Level::Warn));
        assert_eq!(parse_level(" Info "), Some(Level::Info));
        assert_eq!(parse_level("debug"), Some(Level::Debug));
    }

    #[test]
    fn parse_rejects_unknown_levels() {
        assert_eq!(parse_level(""), None);
        assert_eq!(parse_level("verbose"), None);
        assert_eq!(parse_level("2"), None);
    }

    #[test]
    fn default_gate_passes_warn_and_error_only() {
        // max_level() reads the env once per process; tests cannot set it
        // reliably, but the default (no DIOGENES_LOG in the test env, or
        // any valid setting) must always pass errors.
        assert!(enabled(Level::Error));
    }

    #[test]
    fn rfc3339_renders_known_instants() {
        use std::time::Duration;
        let at = |secs: u64, ms: u32| {
            SystemTime::UNIX_EPOCH + Duration::from_secs(secs) + Duration::from_millis(ms as u64)
        };
        assert_eq!(format_rfc3339_millis(at(0, 0)), "1970-01-01T00:00:00.000Z");
        // 2000-02-29 (leap day) 12:34:56.789
        assert_eq!(format_rfc3339_millis(at(951_827_696, 789)), "2000-02-29T12:34:56.789Z");
        // 2026-08-07 00:00:00
        assert_eq!(format_rfc3339_millis(at(1_786_060_800, 1)), "2026-08-07T00:00:00.001Z");
    }

    #[test]
    fn macros_expand_and_run() {
        // Smoke: the macros must compile against the facade and not
        // panic; their output is gated stderr chatter.
        log_error!("e {}", 1);
        log_warn!("w {}", 2);
        log_info!("i {}", 3);
        log_debug!("d {}", 4);
    }
}
