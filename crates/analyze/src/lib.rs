#![forbid(unsafe_code)]
//! `jigsaw-analyze`: the workspace invariant analyzer.
//!
//! Every guarantee this repository sells — bit-identical reconstruction
//! across thread counts, backends, processes and scheduler lane mixes —
//! is enforced dynamically by the test batteries. This crate adds the
//! static gate: an offline, dependency-free analysis of the workspace
//! sources that fails CI the moment a PR reintroduces one of the known
//! ways to break those guarantees. See `docs/ANALYSIS.md` for the rule
//! catalogue and rationale.
//!
//! Line-level rules (detailed in [`rules`]):
//!
//! * `det-map` — no `std::collections::HashMap`/`HashSet` in
//!   result-producing crates; the sanctioned paths are
//!   `jigsaw_pmf::hashing::{DetHashMap, DetHashSet}` and sorted
//!   structures.
//! * `wallclock` — no `Instant::now`/`SystemTime` in a module that
//!   defines a codec `Encode` impl.
//! * `lock-order` — named mutexes must be acquired in the declared rank
//!   order (the static half of `jigsaw_core::lockcheck`).
//! * `forbid-unsafe` — every crate root carries
//!   `#![forbid(unsafe_code)]`.
//!
//! Semantic passes (each in its own module):
//!
//! * `format-drift` ([`spec`]) — the machine-checked tables of
//!   `docs/FORMAT.md` must agree with the magic constants, version
//!   constants and enum tag assignments compiled into the codec, in both
//!   directions.
//! * `seed-flow` ([`flow`]) — every RNG construction in policed code must
//!   be derived from the experiment seed (no literal seeds, no inline
//!   salt constants), and the declared salt bases must reserve disjoint
//!   ranges.
//! * `panic-reach` ([`callgraph`]) — no panic site may be transitively
//!   reachable from an untrusted entry point (`Decode` impls, frame
//!   handlers), per the call-graph over-approximation contract.
//!
//! Suppression is explicit and audited: `// analyze:allow(rule, reason)`
//! on the offending line or the line above, with a non-empty reason. An
//! allow with an empty reason is itself a violation (`bad-allow`).
//! Findings anchored at the spec document are not suppressible — the
//! spec is not scanned source.

pub mod callgraph;
pub mod config;
pub mod flow;
pub mod rules;
pub mod scan;
pub mod spec;

use std::path::{Path, PathBuf};

pub use config::{Config, LockDef};
pub use rules::Violation;

/// One loaded source file: workspace-relative path, raw text, and the
/// classified lines every pass consumes.
#[derive(Debug)]
pub struct FileSource {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Raw file text (needed where classification blanks literals, e.g.
    /// magic byte strings).
    pub text: String,
    /// Classified lines (see [`scan`]).
    pub lines: Vec<scan::SourceLine>,
}

/// A finding suppressed by a reasoned `analyze:allow`.
#[derive(Debug)]
pub struct Suppressed {
    /// The suppressed finding.
    pub violation: Violation,
    /// The allow's stated reason.
    pub reason: String,
}

/// Outcome of one analyzer run.
#[derive(Debug)]
pub struct Report {
    /// Files scanned, in sorted order.
    pub files: Vec<String>,
    /// Surviving (non-suppressed) violations, in file-then-line order.
    pub violations: Vec<Violation>,
    /// Findings suppressed by reasoned allows (surfaced in JSON output so
    /// the audit trail is machine-readable).
    pub suppressed: Vec<Suppressed>,
}

/// Runs every pass over the configured scan roots.
///
/// # Errors
///
/// Propagates I/O failures walking the tree or reading a source or spec
/// file — the caller treats these as internal errors, distinct from
/// findings.
pub fn run(cfg: &Config) -> std::io::Result<Report> {
    let files = load_files(cfg)?;
    let spec_text = match &cfg.spec_path {
        Some(rel) => {
            let path = cfg.root.join(rel);
            let text = std::fs::read_to_string(&path).map_err(|err| {
                std::io::Error::new(err.kind(), format!("spec {}: {err}", path.display()))
            })?;
            Some(text)
        }
        None => None,
    };
    Ok(run_files(cfg, &files, spec_text.as_deref()))
}

/// Loads and classifies every `.rs` file under the configured scan roots
/// (sorted by path). Exposed so tests can rerun the passes over the real
/// workspace with a substituted spec.
///
/// # Errors
///
/// Propagates I/O failures walking the tree or reading a source file.
pub fn load_files(cfg: &Config) -> std::io::Result<Vec<FileSource>> {
    let mut paths = Vec::new();
    for dir in &cfg.scan_dirs {
        collect_rs_files(&cfg.root.join(dir), &mut paths)?;
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = std::fs::read_to_string(path)?;
        let lines = scan::scan(&text);
        files.push(FileSource { rel: relative_to(path, &cfg.root), text, lines });
    }
    Ok(files)
}

/// Runs every pass over already-loaded sources. `spec_text` is the
/// wire-format document for `format-drift` (skipped when `None`).
#[must_use]
pub fn run_files(cfg: &Config, files: &[FileSource], spec_text: Option<&str>) -> Report {
    let mut raw = Vec::new();
    for f in &mut files.iter() {
        raw.extend(rules::det_map(&f.rel, &f.lines, cfg));
        raw.extend(rules::wallclock(&f.rel, &f.lines));
        raw.extend(rules::lock_order(&f.rel, &f.lines, cfg));
        raw.extend(rules::forbid_unsafe(&f.rel, &f.lines, cfg));
        raw.extend(flow::seed_flow(&f.rel, &f.lines, cfg));
    }
    let index = callgraph::build_index(files);
    raw.extend(callgraph::panic_reach(cfg, files, &index));
    raw.extend(callgraph::unresolved_rows(cfg, files, &index));
    raw.extend(flow::salt_ranges(cfg, files));
    if let Some(text) = spec_text {
        raw.extend(spec::format_drift(cfg, text, files, &index));
    }
    let mut violations = Vec::new();
    let mut suppressed = Vec::new();
    for v in raw {
        match files.iter().find(|f| f.rel == v.file) {
            Some(f) => match allow_status(&v, &f.lines) {
                Disposition::Keep => violations.push(v),
                Disposition::Suppress(reason) => {
                    suppressed.push(Suppressed { violation: v, reason })
                }
                Disposition::BadAllow(bad) => violations.push(bad),
            },
            // Findings anchored outside the scanned set (the spec
            // document) are not suppressible.
            None => violations.push(v),
        }
    }
    let key = |v: &Violation| (v.file.clone(), v.line, v.rule);
    violations.sort_by_key(key);
    violations.dedup();
    suppressed.sort_by_key(|s| key(&s.violation));
    Report { files: files.iter().map(|f| f.rel.clone()).collect(), violations, suppressed }
}

/// Analyzes one file's source text under the per-file rules, applying the
/// allowlist. `rel` is the workspace-relative path rules match against.
/// (Workspace passes — `format-drift`, `panic-reach`, salt ranges — need
/// the full file set; use [`run_files`].)
#[must_use]
pub fn check_source(rel: &str, source: &str, cfg: &Config) -> Vec<Violation> {
    let lines = scan::scan(source);
    let mut raw = Vec::new();
    raw.extend(rules::det_map(rel, &lines, cfg));
    raw.extend(rules::wallclock(rel, &lines));
    raw.extend(rules::lock_order(rel, &lines, cfg));
    raw.extend(rules::forbid_unsafe(rel, &lines, cfg));
    raw.extend(flow::seed_flow(rel, &lines, cfg));
    raw.sort_by_key(|v| (v.line, v.rule));
    raw.into_iter()
        .filter_map(|v| match allow_status(&v, &lines) {
            Disposition::Keep => Some(v),
            Disposition::Suppress(_) => None,
            Disposition::BadAllow(bad) => Some(bad),
        })
        .collect()
}

/// An `analyze:allow(rule, reason)` annotation parsed from a comment.
struct Allow {
    rule: String,
    reason: String,
}

/// Parses every allow annotation in a comment string.
fn parse_allows(comment: &str) -> Vec<Allow> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find("analyze:allow(") {
        rest = &rest[at + "analyze:allow(".len()..];
        let Some(close) = rest.find(')') else { break };
        let inner = &rest[..close];
        rest = &rest[close + 1..];
        let (rule, reason) = match inner.split_once(',') {
            Some((rule, reason)) => (rule, reason),
            None => (inner, ""),
        };
        out.push(Allow {
            rule: rule.trim().to_owned(),
            reason: reason.trim().trim_matches('"').trim().to_owned(),
        });
    }
    out
}

/// What the allowlist decides for one violation.
enum Disposition {
    Keep,
    Suppress(String),
    BadAllow(Violation),
}

/// A violation is suppressed by a well-formed allow for its rule on the
/// same line or the line above; an allow with an empty reason becomes a
/// `bad-allow` violation instead of suppressing anything.
fn allow_status(violation: &Violation, lines: &[scan::SourceLine]) -> Disposition {
    let comment_at = |number: usize| lines.get(number.wrapping_sub(1)).map(|l| l.comment.as_str());
    let mut allows = Vec::new();
    if let Some(c) = comment_at(violation.line) {
        allows.extend(parse_allows(c));
    }
    if violation.line > 1 {
        if let Some(c) = comment_at(violation.line - 1) {
            allows.extend(parse_allows(c));
        }
    }
    let matching: Vec<&Allow> = allows.iter().filter(|a| a.rule == violation.rule).collect();
    if matching.is_empty() {
        return Disposition::Keep;
    }
    if let Some(with_reason) = matching.iter().find(|a| !a.reason.is_empty()) {
        return Disposition::Suppress(with_reason.reason.clone());
    }
    Disposition::BadAllow(Violation {
        file: violation.file.clone(),
        line: violation.line,
        rule: "bad-allow",
        message: format!(
            "analyze:allow({}) without a reason: suppressions must justify \
             themselves in-line",
            violation.rule
        ),
    })
}

/// Recursively collects `.rs` files under `dir` (sorted by the caller).
/// Missing directories are skipped, not errors — `src/` exists at the
/// workspace root but fixtures may configure narrower roots.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            // Only crate sources are policed: skip fixture corpora, build
            // output and vendored stand-ins.
            let name = entry.file_name();
            if name == "fixtures" || name == "target" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated.
fn relative_to(path: &Path, root: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> Config {
        let mut cfg = Config::workspace(".");
        cfg.require_forbid_unsafe = false;
        cfg
    }

    #[test]
    fn det_map_fires_and_det_alias_does_not() {
        let cfg = tiny_cfg();
        let bad = "use std::collections::HashMap;\n";
        let v = check_source("crates/core/src/x.rs", bad, &cfg);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "det-map");
        let good = "use jigsaw_pmf::hashing::DetHashMap;\nlet m: DetHashMap<u8, u8>;\n";
        assert!(check_source("crates/core/src/x.rs", good, &cfg).is_empty());
    }

    #[test]
    fn allows_suppress_with_reason_and_flag_without() {
        let cfg = tiny_cfg();
        let with = "// analyze:allow(det-map, insert-only, never iterated)\nuse std::collections::HashSet;\n";
        assert!(check_source("crates/core/src/x.rs", with, &cfg).is_empty());
        let without = "use std::collections::HashSet; // analyze:allow(det-map)\n";
        let v = check_source("crates/core/src/x.rs", without, &cfg);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "bad-allow");
    }

    #[test]
    fn test_code_is_exempt() {
        let cfg = tiny_cfg();
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(check_source("crates/core/src/x.rs", src, &cfg).is_empty());
    }

    #[test]
    fn run_files_tracks_suppressions() {
        let mut cfg = tiny_cfg();
        cfg.spec_path = None;
        cfg.salt_file = None;
        // The one-file corpus holds none of the workspace's entry rows.
        cfg.panic_entries.clear();
        cfg.trust_boundaries.clear();
        let src =
            "// analyze:allow(det-map, fixture justification)\nuse std::collections::HashMap;\n";
        let files = [FileSource {
            rel: "crates/core/src/x.rs".to_owned(),
            text: src.to_owned(),
            lines: scan::scan(src),
        }];
        let report = run_files(&cfg, &files, None);
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.suppressed[0].reason, "fixture justification");
    }
}
