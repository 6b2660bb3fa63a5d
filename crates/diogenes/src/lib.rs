//! # diogenes — the tool
//!
//! The Diogenes prototype over the feed-forward model: run the five-stage
//! pipeline against an application ([`tool::run_diogenes`]), explore the
//! results through the terminal displays of paper Figs. 6–8 ([`cli`]),
//! merge per-iteration problem sequences into families ([`seqfam`]), and
//! regenerate the paper's tables ([`experiments`]). Results export to
//! JSON via `ffm_core::report_to_json`.
//!
//! ```
//! use diogenes::{run_diogenes, render_overview, DiogenesConfig};
//! use diogenes_apps::{AlsConfig, CumfAls};
//!
//! let mut cfg = AlsConfig::test_scale();
//! cfg.iters = 3;
//! let result = run_diogenes(&CumfAls::new(cfg), DiogenesConfig::new()).unwrap();
//! let overview = render_overview(&result);
//! assert!(overview.contains("Fold on cudaFree"));
//! assert!(result.report.analysis.total_benefit_ns() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod artifact;
pub mod autofix;
pub mod cli;
pub mod experiments;
pub mod http;
pub mod seqfam;
pub mod serve;
pub mod sweep;
pub mod tool;
pub mod traceviz;

pub use artifact::{convert_file, load_doc, write_doc, write_json_doc, write_sweep, OutFormat};
pub use autofix::{autocorrect, derive_policy, evaluate_autofix, AutofixConfig, AutofixOutcome};
pub use cli::{
    fmt_secs, render_fold_expansion, render_overview, render_sequence, render_subsequence,
    resolve_jobs,
};
pub use seqfam::{
    best_subsequence, family_subsequence_benefit, family_subsequence_benefit_indexed,
    merge_sequences, FamilyEntry, SequenceFamily, SubsequenceChoice,
};
pub use serve::{build_app, serve, ServeConfig, Server};
pub use sweep::{
    build_spec, default_axes, default_out_path, find_shard_files, merge_shard_files,
    parse_axis_arg, parse_shard_arg, run_sweep_cli, shard_out_path,
};
pub use tool::{run_diogenes, DiogenesConfig, DiogenesResult};
pub use traceviz::{check_chrome_trace, chrome_trace, TraceCheck};
