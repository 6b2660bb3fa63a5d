//! On-disk document I/O for the CLI. Every document the CLI writes —
//! reports, sweeps, telemetry — is pretty JSON, written atomically.

use ffm_core::{write_atomic, Json};
use std::path::Path;

/// Stream a document to `path` as pretty JSON through a `BufWriter`
/// (never materializes the full text in memory), atomically
/// ([`write_atomic`]: a crash mid-write never leaves a truncated
/// artifact for a reader to load).
pub fn write_json_doc(path: &str, doc: &Json) -> Result<(), String> {
    write_atomic(Path::new(path), |w| doc.write_pretty(w))
}

/// Load a JSON document from `path`.
pub fn load_doc(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
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
    fn writes_are_atomic_and_leave_no_temp_files() {
        let dir = tmp_dir("atomic");
        let json = dir.join("doc.json").to_str().unwrap().to_string();
        write_json_doc(&json, &doc()).unwrap();
        // Overwrites go through the same rename path.
        write_json_doc(&json, &doc()).unwrap();
        assert_eq!(std::fs::read(&json).unwrap(), doc().to_string_pretty().into_bytes());
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
        write_json_doc(&path, &doc()).unwrap();
        let before = std::fs::read(&path).unwrap();
        // Force the rename step to fail by making the target a directory.
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(&blocked).unwrap();
        let err = write_json_doc(blocked.to_str().unwrap(), &doc()).unwrap_err();
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
    fn load_doc_reads_json_and_rejects_everything_else() {
        let dir = tmp_dir("load");
        let json = dir.join("doc.json").to_str().unwrap().to_string();
        write_json_doc(&json, &doc()).unwrap();
        assert_eq!(load_doc(&json).unwrap(), doc());
        // An FFB container is not JSON, whatever its name.
        let disguised = dir.join("disguised.json").to_str().unwrap().to_string();
        std::fs::write(&disguised, ffm_core::encode_doc(&doc())).unwrap();
        assert!(load_doc(&disguised).is_err());
        // Missing and empty files are errors, not panics.
        let missing = dir.join("missing.json").to_str().unwrap().to_string();
        assert!(load_doc(&missing).unwrap_err().contains("cannot read"));
        let empty = dir.join("empty.json").to_str().unwrap().to_string();
        std::fs::write(&empty, b"").unwrap();
        assert!(load_doc(&empty).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
