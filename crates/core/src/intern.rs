//! Global string interner for the analysis core.
//!
//! The analysis hot paths (grouping, benefit, export) repeatedly touch a
//! small, fixed vocabulary of strings: API names, source file paths, and
//! composed site labels ("cudaMemcpy in als.cu at line 412"). Interning
//! collapses each distinct string to a `u32` [`Sym`] so the hot paths can
//! key dense tables and compare by integer, and exporters resolve the text
//! only at serialization time.
//!
//! Design constraints:
//!
//! - Interned strings live for the program's lifetime (`Box::leak`). The
//!   vocabulary is bounded by the trace's distinct call sites, so this is a
//!   few KiB, not a leak in practice.
//! - `intern` takes a write lock only for strings not seen before; repeat
//!   interning of a known string takes a read lock on the map.
//! - `Sym::resolve` is lock-free after the first resolve of a given symbol:
//!   the backing table is an append-only list of stable `&'static str`
//!   pointers behind an `RwLock` taken only for the (cheap) slice read.
//! - Symbol numbering depends on interning order and therefore MUST NOT be
//!   written into any persisted artifact or digest. Artifacts always store
//!   the resolved string (see DESIGN.md "Data layout").

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// An interned string handle. Cheap to copy, compare, and hash.
///
/// Ordering of `Sym` values reflects interning order, not lexicographic
/// order of the underlying strings — sort by `resolve()` when an
/// alphabetical order is required.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    /// Resolve the symbol back to its string.
    pub fn resolve(self) -> &'static str {
        table().resolve(self)
    }

    /// Raw index, usable for dense `Vec`-indexed side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

struct SymTable {
    /// string -> id. Keys are the same leaked allocations as `strings`.
    map: RwLock<HashMap<&'static str, u32>>,
    /// id -> string. Append-only.
    strings: RwLock<Vec<&'static str>>,
}

impl SymTable {
    fn new() -> SymTable {
        SymTable { map: RwLock::new(HashMap::new()), strings: RwLock::new(Vec::new()) }
    }

    fn intern(&self, s: &str) -> Sym {
        if let Some(&id) = self.map.read().unwrap().get(s) {
            return Sym(id);
        }
        let mut map = self.map.write().unwrap();
        // Re-check under the write lock: another thread may have interned
        // the same string between our read and write acquisitions.
        if let Some(&id) = map.get(s) {
            return Sym(id);
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let mut strings = self.strings.write().unwrap();
        let id = u32::try_from(strings.len()).expect("intern table overflow");
        strings.push(leaked);
        map.insert(leaked, id);
        Sym(id)
    }

    fn resolve(&self, sym: Sym) -> &'static str {
        self.strings.read().unwrap()[sym.0 as usize]
    }
}

fn table() -> &'static SymTable {
    static TABLE: OnceLock<SymTable> = OnceLock::new();
    TABLE.get_or_init(SymTable::new)
}

/// Intern `s`, returning its stable symbol. Idempotent: the same string
/// always returns the same `Sym` for the lifetime of the process.
pub fn intern(s: &str) -> Sym {
    table().intern(s)
}

/// Intern a string that is already `'static`, e.g. API names from the
/// driver's static tables. Avoids the copy when the string is new.
pub fn intern_static(s: &'static str) -> Sym {
    // The generic path would leak a fresh copy; for 'static inputs we can
    // insert the original pointer directly.
    let t = table();
    if let Some(&id) = t.map.read().unwrap().get(s) {
        return Sym(id);
    }
    let mut map = t.map.write().unwrap();
    if let Some(&id) = map.get(s) {
        return Sym(id);
    }
    let mut strings = t.strings.write().unwrap();
    let id = u32::try_from(strings.len()).expect("intern table overflow");
    strings.push(s);
    map.insert(s, id);
    Sym(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_content() {
        let s = intern("cudaMemcpy in als.cu at line 412");
        assert_eq!(s.resolve(), "cudaMemcpy in als.cu at line 412");
        let t = intern("kernel.cu");
        assert_eq!(t.resolve(), "kernel.cu");
    }

    #[test]
    fn dedup_returns_same_symbol() {
        let a = intern("intern-dedup-probe");
        let b = intern("intern-dedup-probe");
        let c = intern(&String::from("intern-dedup-probe"));
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a.index(), b.index());
        let d = intern("intern-dedup-other");
        assert_ne!(a, d);
    }

    #[test]
    fn static_and_owned_paths_agree() {
        let a = intern_static("intern-static-probe");
        let b = intern("intern-static-probe");
        assert_eq!(a, b);
        assert_eq!(b.resolve(), "intern-static-probe");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        use std::sync::Arc;
        let names: Arc<Vec<String>> =
            Arc::new((0..64).map(|i| format!("intern-conc-{}", i % 8)).collect());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let names = Arc::clone(&names);
            handles.push(std::thread::spawn(move || {
                names.iter().map(|n| intern(n)).collect::<Vec<_>>()
            }));
        }
        let results: Vec<Vec<Sym>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
        for (i, sym) in results[0].iter().enumerate() {
            assert_eq!(sym.resolve(), format!("intern-conc-{}", i % 8));
        }
    }
}
