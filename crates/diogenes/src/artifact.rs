//! On-disk artifact I/O for the CLI: the `--format json|bin` switch and
//! the `diogenes convert` subcommand.
//!
//! JSON stays the human-facing export; FFB (`ffm_core::codec`) is the
//! machine path — same document content, one-pass binary ingestion. Both
//! formats render back to byte-identical pretty JSON, so `convert` can
//! move artifacts between them freely and a json→bin→json round trip
//! reproduces the original file exactly.

use ffm_core::{decode_any_doc, encode_doc, encode_sweep, is_ffb, write_atomic, Json, SweepMatrix};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Output format for CLI artifacts (`--format json|bin`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutFormat {
    /// Pretty-printed JSON (the default, human-facing).
    #[default]
    Json,
    /// FFB binary container (`.ffb`, machine-facing).
    Bin,
}

impl OutFormat {
    /// Parse a `--format` argument.
    pub fn parse(s: &str) -> Result<OutFormat, String> {
        match s {
            "json" => Ok(OutFormat::Json),
            "bin" | "ffb" => Ok(OutFormat::Bin),
            other => Err(format!("unknown format {other:?} (expected json or bin)")),
        }
    }

    /// Canonical file extension for artifacts in this format.
    pub fn ext(self) -> &'static str {
        match self {
            OutFormat::Json => "json",
            OutFormat::Bin => "ffb",
        }
    }

    /// The format implied by a path's extension: `.ffb` means binary,
    /// anything else means JSON.
    pub fn from_path(path: &str) -> OutFormat {
        match Path::new(path).extension().and_then(|e| e.to_str()) {
            Some("ffb") => OutFormat::Bin,
            _ => OutFormat::Json,
        }
    }
}

/// Stream a document to `path` as pretty JSON through a `BufWriter`
/// (never materializes the full text in memory), atomically
/// ([`write_atomic`]: a crash mid-write never leaves a truncated
/// artifact for `load_doc`/`--merge` to read).
pub fn write_json_doc(path: &str, doc: &Json) -> Result<(), String> {
    write_atomic(Path::new(path), |w| doc.write_pretty(w))
}

/// Write a document to `path` in the chosen format.
pub fn write_doc(path: &str, doc: &Json, format: OutFormat) -> Result<(), String> {
    match format {
        OutFormat::Json => write_json_doc(path, doc),
        OutFormat::Bin => write_bytes(path, &encode_doc(doc)),
    }
}

/// Write an encoded container to `path` with one `write_all`,
/// atomically.
fn write_bytes(path: &str, bytes: &[u8]) -> Result<(), String> {
    write_atomic(Path::new(path), |w| w.write_all(bytes))
}

/// Write a sweep matrix to `path`. The binary form uses the columnar
/// `KIND_SWEEP` encoding (smaller and decodes without touching the
/// generic document codec); JSON renders via `sweep_to_json`.
pub fn write_sweep(
    path: &str,
    matrix: &SweepMatrix,
    doc: &Json,
    format: OutFormat,
) -> Result<(), String> {
    match format {
        OutFormat::Json => write_json_doc(path, doc),
        OutFormat::Bin => {
            let bytes =
                encode_sweep(matrix).map_err(|e| format!("cannot write sweep {path}: {e}"))?;
            write_bytes(path, &bytes)
        }
    }
}

/// Load a document from `path`, sniffing the format from the file bytes
/// (FFB magic → binary decode, anything else → JSON parse).
pub fn load_doc(path: &str) -> Result<Json, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if is_ffb(&bytes) {
        decode_any_doc(&bytes).map_err(|e| format!("{path}: {e}"))
    } else {
        let text = std::str::from_utf8(&bytes).map_err(|_| format!("{path}: not UTF-8"))?;
        Json::parse(text).map_err(|e| format!("{path}: {e}"))
    }
}

/// Resolve a path for identity comparison: canonicalize it if it
/// exists; otherwise canonicalize its parent (it may not exist either —
/// fall back to the raw path then) and re-attach the file name. This
/// catches `a.json` vs `./a.json` vs `sub/../a.json` without requiring
/// the output to exist yet.
fn normalized(path: &str) -> PathBuf {
    let p = Path::new(path);
    if let Ok(c) = p.canonicalize() {
        return c;
    }
    let parent = match p.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    match (parent.canonicalize(), p.file_name()) {
        (Ok(dir), Some(name)) => dir.join(name),
        _ => p.to_path_buf(),
    }
}

/// `diogenes convert <in> <out>`: read either format, write the format
/// implied by the output extension (`.ffb` → binary, else JSON).
///
/// Converting a file onto itself is rejected: the formats differ only in
/// encoding, so an in-place "conversion" is at best a no-op and at worst
/// (same path spelled two ways, mixed formats) silently destroys the
/// input before it has been fully validated.
pub fn convert_file(input: &str, output: &str) -> Result<OutFormat, String> {
    if normalized(input) == normalized(output) {
        return Err(format!(
            "refusing in-place convert: {input} and {output} are the same file \
             (write to a new path, then rename)"
        ));
    }
    let doc = load_doc(input)?;
    let format = OutFormat::from_path(output);
    write_doc(output, &doc, format)?;
    Ok(format)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("diogenes-artifact-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn doc() -> Json {
        Json::obj([
            ("app", "als".into()),
            ("times", Json::arr([Json::Int(1), Json::Int(2)])),
            ("pct", Json::Float(12.5)),
        ])
    }

    #[test]
    fn format_parses_and_names_extensions() {
        assert_eq!(OutFormat::parse("json").unwrap(), OutFormat::Json);
        assert_eq!(OutFormat::parse("bin").unwrap(), OutFormat::Bin);
        assert_eq!(OutFormat::parse("ffb").unwrap(), OutFormat::Bin);
        assert!(OutFormat::parse("yaml").is_err());
        assert_eq!(OutFormat::Json.ext(), "json");
        assert_eq!(OutFormat::Bin.ext(), "ffb");
        assert_eq!(OutFormat::from_path("a/b.ffb"), OutFormat::Bin);
        assert_eq!(OutFormat::from_path("a/b.json"), OutFormat::Json);
    }

    #[test]
    fn convert_round_trip_is_byte_identical() {
        let dir = tmp_dir("convert");
        let json1 = dir.join("doc.json").to_str().unwrap().to_string();
        let ffb = dir.join("doc.ffb").to_str().unwrap().to_string();
        let json2 = dir.join("back.json").to_str().unwrap().to_string();

        write_doc(&json1, &doc(), OutFormat::Json).unwrap();
        assert_eq!(convert_file(&json1, &ffb).unwrap(), OutFormat::Bin);
        assert_eq!(convert_file(&ffb, &json2).unwrap(), OutFormat::Json);
        assert_eq!(std::fs::read(&json1).unwrap(), std::fs::read(&json2).unwrap());
        // The binary form really is FFB, not JSON with a funny extension.
        assert!(is_ffb(&std::fs::read(&ffb).unwrap()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_place_convert_is_rejected() {
        let dir = tmp_dir("inplace");
        let json = dir.join("doc.json").to_str().unwrap().to_string();
        write_doc(&json, &doc(), OutFormat::Json).unwrap();
        let before = std::fs::read(&json).unwrap();

        // Same path, spelled identically.
        let err = convert_file(&json, &json).unwrap_err();
        assert!(err.contains("refusing in-place convert"), "{err}");
        // Same path, spelled differently (via a `..` detour).
        let detour = dir.join("sub/..").join("doc.json").to_str().unwrap().to_string();
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        let err = convert_file(&json, &detour).unwrap_err();
        assert!(err.contains("refusing in-place convert"), "{err}");
        // A not-yet-existing output path also normalizes correctly.
        let err = convert_file(&json, &format!("{}/./doc.json", dir.display())).unwrap_err();
        assert!(err.contains("refusing in-place convert"), "{err}");

        assert_eq!(std::fs::read(&json).unwrap(), before, "input untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writes_are_atomic_and_leave_no_temp_files() {
        let dir = tmp_dir("atomic");
        let json = dir.join("doc.json").to_str().unwrap().to_string();
        let ffb = dir.join("doc.ffb").to_str().unwrap().to_string();
        write_doc(&json, &doc(), OutFormat::Json).unwrap();
        write_doc(&ffb, &doc(), OutFormat::Bin).unwrap();
        // Overwrites go through the same rename path.
        write_doc(&json, &doc(), OutFormat::Json).unwrap();
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_write_removes_its_temp_file_and_preserves_the_artifact() {
        let dir = tmp_dir("atomic-fail");
        let path = dir.join("doc.json").to_str().unwrap().to_string();
        write_doc(&path, &doc(), OutFormat::Json).unwrap();
        let before = std::fs::read(&path).unwrap();
        // Force the rename step to fail by making the target a directory.
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(&blocked).unwrap();
        let err = write_doc(blocked.to_str().unwrap(), &doc(), OutFormat::Json).unwrap_err();
        assert!(err.contains("cannot move"), "{err}");
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "failed write left temp files: {leftovers:?}");
        assert_eq!(std::fs::read(&path).unwrap(), before, "existing artifact untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_doc_sniffs_bytes_not_extensions() {
        let dir = tmp_dir("sniff");
        // A binary document behind a .json name still loads.
        let disguised = dir.join("disguised.json").to_str().unwrap().to_string();
        std::fs::write(&disguised, ffm_core::encode_doc(&doc())).unwrap();
        assert_eq!(load_doc(&disguised).unwrap(), doc());
        // Missing and empty files are errors, not panics.
        let missing = dir.join("missing.ffb").to_str().unwrap().to_string();
        assert!(load_doc(&missing).unwrap_err().contains("cannot read"));
        let empty = dir.join("empty.ffb").to_str().unwrap().to_string();
        std::fs::write(&empty, b"").unwrap();
        assert!(load_doc(&empty).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
