//! Shadow call stacks and synthetic instruction addresses.
//!
//! Diogenes walks real stacks with Dyninst; here simulated applications
//! declare their frames explicitly (via [`crate::frame!`] in the
//! instrumentation layer or [`Machine::push_frame`](crate::Machine)) and
//! probes snapshot the shadow stack. Each source location is assigned a
//! stable synthetic "instruction address" so the analysis stages can match
//! call sites by address exactly like the paper's single-point grouping.

use std::borrow::Cow;

/// FNV-1a 64-bit hash, used for synthetic addresses and content digests.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A source location standing in for a machine instruction address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SourceLoc {
    /// Source file ("als.cpp").
    pub file: &'static str,
    /// One-based line number.
    pub line: u32,
}

impl SourceLoc {
    pub const fn new(file: &'static str, line: u32) -> Self {
        Self { file, line }
    }

    /// Deterministic synthetic instruction address for this location.
    pub fn addr(&self) -> u64 {
        fnv1a_64(self.file.as_bytes()) ^ ((self.line as u64) << 1) | 0x4000_0000_0000_0000
    }
}

impl std::fmt::Display for SourceLoc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// Capture the current Rust source location as a simulated [`SourceLoc`].
///
/// Applications that want paper-style locations ("als.cpp line 856") use
/// [`SourceLoc::new`] with explicit names instead.
#[macro_export]
macro_rules! site {
    () => {
        $crate::stack::SourceLoc::new(file!(), line!())
    };
}

/// One frame on the shadow call stack.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    /// Function name as it would appear after demangling; may include
    /// C++-style template parameters ("thrust::detail::contiguous_storage<float>").
    pub function: Cow<'static, str>,
    /// Call-site location inside the *caller* (where this frame was entered
    /// from), standing in for the return address.
    pub callsite: SourceLoc,
}

impl Frame {
    pub fn new(function: impl Into<Cow<'static, str>>, callsite: SourceLoc) -> Self {
        Self { function: function.into(), callsite }
    }

    /// Synthetic return-address value for this frame.
    pub fn addr(&self) -> u64 {
        self.callsite.addr() ^ fnv1a_64(self.function.as_bytes()).rotate_left(17)
    }
}

/// Strip template parameter lists from a (pseudo-)demangled C++ name.
///
/// `thrust::detail::contiguous_storage<float, alloc<float>>::allocate`
/// becomes `thrust::detail::contiguous_storage::allocate`.
pub fn base_function_name(name: &str) -> &str {
    match name.find('<') {
        Some(i) => &name[..i],
        None => name,
    }
}

/// Strip template parameters anywhere in the name, producing an owned
/// folded name: nested angle brackets are removed wholesale.
pub fn fold_template_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut depth = 0usize;
    for c in name.chars() {
        match c {
            '<' => depth += 1,
            '>' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// An immutable snapshot of the shadow stack, innermost frame last.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct StackTrace {
    pub frames: Vec<Frame>,
}

impl StackTrace {
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// The innermost frame (the function performing the traced operation).
    pub fn leaf(&self) -> Option<&Frame> {
        self.frames.last()
    }

    /// A stable identity for single-point grouping: the sequence of
    /// synthetic return addresses, hashed.
    pub fn address_signature(&self) -> u64 {
        let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
        for f in &self.frames {
            h = h.rotate_left(13) ^ f.addr().wrapping_mul(0x2545_f491_4f6c_dd1d);
        }
        h
    }

    /// A stable identity for folded-function grouping: the sequence of
    /// template-stripped function names, hashed.
    pub fn folded_signature(&self) -> u64 {
        let mut h: u64 = 0x5851_f42d_4c95_7f2d;
        for f in &self.frames {
            h = h.rotate_left(11) ^ fnv1a_64(fold_template_name(&f.function).as_bytes());
        }
        h
    }

    /// Render like a debugger backtrace, innermost first.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (i, f) in self.frames.iter().rev().enumerate() {
            s.push_str(&format!("#{i} {} at {}\n", f.function, f.callsite));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn source_loc_addr_is_stable_and_distinct() {
        let a = SourceLoc::new("als.cpp", 856);
        let b = SourceLoc::new("als.cpp", 857);
        let c = SourceLoc::new("als2.cpp", 856);
        assert_eq!(a.addr(), SourceLoc::new("als.cpp", 856).addr());
        assert_ne!(a.addr(), b.addr());
        assert_ne!(a.addr(), c.addr());
    }

    #[test]
    fn base_name_strips_templates() {
        assert_eq!(
            base_function_name("thrust::detail::contiguous_storage<float>"),
            "thrust::detail::contiguous_storage"
        );
        assert_eq!(base_function_name("plain_fn"), "plain_fn");
    }

    #[test]
    fn fold_template_name_handles_nesting() {
        assert_eq!(fold_template_name("f<pair<int, vec<float>>>::g<int>"), "f::g");
        assert_eq!(fold_template_name("no_templates"), "no_templates");
    }

    #[test]
    fn template_instances_share_folded_signature_not_address_signature() {
        let site = SourceLoc::new("x.cpp", 1);
        let t1 = StackTrace {
            frames: vec![Frame::new("alloc<float>", site), Frame::new("cudaFree", site)],
        };
        let t2 = StackTrace {
            frames: vec![Frame::new("alloc<double>", site), Frame::new("cudaFree", site)],
        };
        assert_ne!(t1.address_signature(), t2.address_signature());
        assert_eq!(t1.folded_signature(), t2.folded_signature());
    }

    #[test]
    fn identical_stacks_share_address_signature() {
        let t = |line| StackTrace {
            frames: vec![
                Frame::new("main", SourceLoc::new("m.cpp", 1)),
                Frame::new("compute", SourceLoc::new("m.cpp", line)),
            ],
        };
        assert_eq!(t(5).address_signature(), t(5).address_signature());
        assert_ne!(t(5).address_signature(), t(6).address_signature());
    }

    #[test]
    fn render_shows_innermost_first() {
        let t = StackTrace {
            frames: vec![
                Frame::new("main", SourceLoc::new("m.cpp", 10)),
                Frame::new("leafy", SourceLoc::new("m.cpp", 20)),
            ],
        };
        let r = t.render();
        assert!(r.starts_with("#0 leafy"));
        assert!(r.contains("#1 main"));
    }

    #[test]
    fn site_macro_captures_this_file() {
        let s = site!();
        assert!(s.file.ends_with("stack.rs"));
        assert!(s.line > 0);
    }
}
