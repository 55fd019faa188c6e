//! End-to-end analyzer battery: the fixture corpus must light up every
//! rule (with exact file/line anchors), the allowlist must round-trip
//! for every suppressible rule, the spec drift checker must prove
//! bidirectional coverage against both the fixture spec and the real
//! `docs/FORMAT.md`, and the real workspace must scan clean.

use std::path::Path;

use jigsaw_analyze::config::{EntryPoint, FactKind, SpecBinding};
use jigsaw_analyze::{load_files, run, run_files, scan, Config, FileSource, LockDef, Violation};

/// Policy pointed at the fixture corpus: the `demo` crate is
/// result-producing, `lock_bad.rs` declares `journal (10) < table (20)`,
/// and the fixture spec in `docs/FORMAT.md` binds to `wire.rs`.
fn fixture_config() -> Config {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");
    let mut cfg = Config::workspace(root);
    cfg.scan_dirs = vec!["crates".to_owned()];
    cfg.result_crates = vec!["demo".to_owned()];
    cfg.det_map_exempt.clear();
    // The workspace's entry and boundary rows name functions the fixture
    // corpus does not have.
    cfg.panic_entries.clear();
    cfg.trust_boundaries.clear();
    cfg.salt_file = None;
    cfg.spec_path = Some("docs/FORMAT.md".to_owned());
    let wire = "crates/demo/src/wire.rs";
    cfg.spec_bindings = vec![
        SpecBinding {
            key: "archive.magic".to_owned(),
            file: wire.to_owned(),
            kind: FactKind::MagicBytes { ident: "MAGIC".to_owned() },
        },
        SpecBinding {
            key: "archive.version".to_owned(),
            file: wire.to_owned(),
            kind: FactKind::ConstInt { ident: "WIRE_VERSION".to_owned() },
        },
        SpecBinding {
            key: "archive.stage".to_owned(),
            file: wire.to_owned(),
            kind: FactKind::EnumTags { ident: "StageTag".to_owned() },
        },
        SpecBinding {
            key: "WireTag".to_owned(),
            file: wire.to_owned(),
            kind: FactKind::EnumTags { ident: "WireTag".to_owned() },
        },
    ];
    cfg.locks = vec![
        LockDef {
            file: "crates/demo/src/lock_bad.rs".to_owned(),
            ident: "journal".to_owned(),
            name: "store.journal".to_owned(),
            rank: 10,
        },
        LockDef {
            file: "crates/demo/src/lock_bad.rs".to_owned(),
            ident: "table".to_owned(),
            name: "store.table".to_owned(),
            rank: 20,
        },
    ];
    cfg
}

fn fixture_violations() -> Vec<Violation> {
    run(&fixture_config()).expect("fixture corpus scans").violations
}

fn rule_hits<'a>(violations: &'a [Violation], rule: &str) -> Vec<&'a Violation> {
    violations.iter().filter(|v| v.rule == rule).collect()
}

#[test]
fn every_rule_fires_on_its_fixture() {
    let violations = fixture_violations();
    for rule in [
        "det-map",
        "wallclock",
        "lock-order",
        "forbid-unsafe",
        "bad-allow",
        "seed-flow",
        "panic-reach",
    ] {
        assert!(
            violations.iter().any(|v| v.rule == rule),
            "rule {rule} found nothing; got {violations:#?}"
        );
    }
    // The agreeing spec/source pair must stay clean.
    assert!(rule_hits(&violations, "format-drift").is_empty(), "{violations:#?}");
}

#[test]
fn findings_name_file_and_line() {
    let violations = fixture_violations();
    for v in &violations {
        assert!(v.file.starts_with("crates/demo/src/"), "unexpected file in {v}");
        assert!(v.line >= 1, "line numbers are 1-based: {v}");
        let rendered = v.to_string();
        assert!(
            rendered.contains(&format!("{}:{}: [{}]", v.file, v.line, v.rule)),
            "display format drifted: {rendered}"
        );
    }
}

#[test]
fn det_map_flags_shipping_code_only() {
    let violations = fixture_violations();
    let hits = rule_hits(&violations, "det-map");
    assert!(
        hits.iter().all(|v| v.file == "crates/demo/src/det_map_bad.rs"),
        "det-map must fire only in det_map_bad.rs (test modules and allows exempt): {hits:#?}"
    );
    // `use` line and two constructor/type mentions; the #[cfg(test)]
    // HashSet must not appear.
    assert!(hits.iter().all(|v| v.line < 14), "cfg(test) HashSet leaked through: {hits:#?}");
}

#[test]
fn wallclock_requires_encode_impl_in_module() {
    let violations = fixture_violations();
    let hits = rule_hits(&violations, "wallclock");
    assert!(!hits.is_empty());
    assert!(hits.iter().all(|v| v.file == "crates/demo/src/wallclock_bad.rs"), "{hits:#?}");
}

#[test]
fn panic_reach_reports_the_two_hop_chain() {
    let violations = fixture_violations();
    let hits = rule_hits(&violations, "panic-reach");
    assert!(hits.iter().all(|v| v.file == "crates/demo/src/panic_bad.rs"), "{hits:#?}");
    let messages: Vec<&str> = hits.iter().map(|v| v.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("indexing")), "indexing missed: {messages:#?}");
    assert!(messages.iter().any(|m| m.contains("expect")), "expect missed: {messages:#?}");
    assert!(messages.iter().any(|m| m.contains("unwrap")), "unwrap missed: {messages:#?}");
    assert!(messages.iter().any(|m| m.contains("panic!")), "panic! missed: {messages:#?}");
    // Every finding names the untrusted entry and the witness chain.
    assert!(
        messages.iter().all(|m| m.contains("Header::decode")),
        "entry point missing from a message: {messages:#?}"
    );
    assert!(
        messages.iter().all(|m| m.contains("Header::decode → read_tag → finish")),
        "two-hop witness chain missing: {messages:#?}"
    );
}

#[test]
fn panic_reach_spares_the_unreachable_helper() {
    // `cold_helper` (line 35 onward) has the same `.unwrap()` shape as the
    // reachable chain but no entry reaches it: reachability, not a file
    // whitelist, decides.
    let violations = fixture_violations();
    let hits = rule_hits(&violations, "panic-reach");
    assert!(!hits.is_empty());
    assert!(
        hits.iter().all(|v| (23..=28).contains(&v.line)),
        "a finding escaped the reachable chain (cold_helper must stay silent): {hits:#?}"
    );
}

#[test]
fn entry_and_boundary_rows_that_match_no_function_are_findings() {
    // A renamed function must not take its panic-reach coverage (or its
    // barrier) away silently: the stale row itself is reported.
    let row = |file: &str, func: &str| EntryPoint { file: file.to_owned(), func: func.to_owned() };
    let mut cfg = fixture_config();
    cfg.panic_entries.push(row("crates/demo/src/panic_bad.rs", "read_header"));
    cfg.trust_boundaries.push(row("crates/demo/src/gone.rs", "finish"));
    // Rows that do resolve stay silent.
    cfg.trust_boundaries.push(row("crates/demo/src/panic_bad.rs", "cold_helper"));
    let violations = run(&cfg).expect("fixture corpus scans").violations;
    let stale: Vec<&Violation> = rule_hits(&violations, "panic-reach")
        .into_iter()
        .filter(|v| v.message.contains("matches no function"))
        .collect();
    assert_eq!(stale.len(), 2, "{stale:#?}");
    assert_eq!(stale[0].file, "crates/demo/src/gone.rs");
    assert!(stale[0].message.contains("trust boundary `finish`"), "{}", stale[0]);
    assert_eq!(stale[1].file, "crates/demo/src/panic_bad.rs");
    assert!(stale[1].message.contains("untrusted entry point `read_header`"), "{}", stale[1]);
}

#[test]
fn seed_flow_catches_each_shape() {
    let violations = fixture_violations();
    let hits = rule_hits(&violations, "seed-flow");
    assert!(hits.iter().all(|v| v.file == "crates/demo/src/seed_bad.rs"), "{hits:#?}");
    let lines: Vec<usize> = hits.iter().map(|v| v.line).collect();
    assert_eq!(lines, vec![6, 12, 18], "literal / inline-salt / let-bound hits: {hits:#?}");
    assert!(hits[0].message.contains("literal seed `42`"), "{}", hits[0]);
    assert!(hits[1].message.contains("inline salt constant `50_000`"), "{}", hits[1]);
}

#[test]
fn lock_order_flags_only_the_inverted_function() {
    let violations = fixture_violations();
    let hits = rule_hits(&violations, "lock-order");
    assert_eq!(hits.len(), 1, "exactly the inverted acquisition in replay(): {hits:#?}");
    let hit = hits[0];
    assert_eq!(hit.file, "crates/demo/src/lock_bad.rs");
    assert!(
        hit.message.contains("store.journal") && hit.message.contains("store.table"),
        "message must name both locks: {hit}"
    );
    assert!(
        hit.message.contains("rank 10") && hit.message.contains("rank 20"),
        "message must name both ranks: {hit}"
    );
}

#[test]
fn forbid_unsafe_flags_the_crate_root() {
    let violations = fixture_violations();
    let hits = rule_hits(&violations, "forbid-unsafe");
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert_eq!(hits[0].file, "crates/demo/src/lib.rs");
}

#[test]
fn allowlist_round_trips_for_every_suppressible_rule() {
    // allow_ok.rs carries reasoned allows for det-map, panic-reach and
    // seed-flow; none may surface.
    let violations = fixture_violations();
    assert!(
        violations.iter().all(|v| v.file != "crates/demo/src/allow_ok.rs"),
        "reasoned allow failed to suppress: {violations:#?}"
    );
    // The suppressions are recorded with their reasons, not dropped.
    let report = run(&fixture_config()).expect("fixture corpus scans");
    let in_ok: Vec<_> = report
        .suppressed
        .iter()
        .filter(|s| s.violation.file == "crates/demo/src/allow_ok.rs")
        .collect();
    for rule in ["det-map", "panic-reach", "seed-flow"] {
        assert!(
            in_ok.iter().any(|s| s.violation.rule == rule && !s.reason.is_empty()),
            "no recorded suppression for {rule}: {in_ok:#?}"
        );
    }
    // A reason-less allow surfaces as bad-allow (and nothing else) in
    // allow_bad.rs.
    let in_bad: Vec<&Violation> =
        violations.iter().filter(|v| v.file == "crates/demo/src/allow_bad.rs").collect();
    assert_eq!(in_bad.len(), 1, "{in_bad:#?}");
    assert_eq!(in_bad[0].rule, "bad-allow");
    assert!(in_bad[0].message.contains("det-map"), "{}", in_bad[0]);
}

#[test]
fn drifted_spec_copy_yields_exactly_one_finding_naming_both_sides() {
    let mut cfg = fixture_config();
    cfg.spec_path = Some("docs/FORMAT_drifted.md".to_owned());
    let violations = run(&cfg).expect("fixture corpus scans").violations;
    let hits = rule_hits(&violations, "format-drift");
    assert_eq!(hits.len(), 1, "a single swapped tag must yield one finding: {hits:#?}");
    assert_eq!(hits[0].file, "crates/demo/src/wire.rs");
    assert!(hits[0].message.contains("docs/FORMAT_drifted.md:"), "{}", hits[0]);
}

#[test]
fn format_drift_allow_round_trips() {
    let mut cfg = Config::workspace(".");
    cfg.salt_file = None;
    cfg.panic_entries.clear();
    cfg.trust_boundaries.clear();
    cfg.spec_bindings = vec![SpecBinding {
        key: "archive.version".to_owned(),
        file: "crates/demo/src/v.rs".to_owned(),
        kind: FactKind::ConstInt { ident: "WIRE_VERSION".to_owned() },
    }];
    let spec = "| offset | size | field |\n| - | - | - |\n| 4 | 2 | format version, `u16` — currently `7` |\n";
    let src = "// analyze:allow(format-drift, version bump lands with the migration PR)\npub const WIRE_VERSION: u16 = 8;\n";
    let files = [FileSource {
        rel: "crates/demo/src/v.rs".to_owned(),
        text: src.to_owned(),
        lines: scan::scan(src),
    }];
    let report = run_files(&cfg, &files, Some(spec));
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    assert_eq!(report.suppressed.len(), 1, "{:#?}", report.suppressed);
    assert_eq!(report.suppressed[0].violation.rule, "format-drift");
}

#[test]
fn workspace_scans_clean() {
    // The analyzer's own acceptance gate: the real workspace (two levels
    // up from this crate) must produce zero violations under the shipped
    // policy — including the three semantic passes.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let report = run(&Config::workspace(root)).expect("workspace scans");
    assert!(
        report.files.len() > 100,
        "walker lost the workspace (saw {} files)",
        report.files.len()
    );
    assert!(report.violations.is_empty(), "workspace not clean:\n{:#?}", report.violations);
    // The semantic passes genuinely engaged: the protocol and codec files
    // are in the scanned set, and the audited allows carry reasons.
    for needed in ["crates/server/src/protocol.rs", "crates/core/src/persist.rs"] {
        assert!(report.files.iter().any(|f| f == needed), "{needed} not scanned");
    }
    assert!(
        report.suppressed.iter().all(|s| !s.reason.is_empty()),
        "a reason-less suppression survived: {:#?}",
        report.suppressed
    );
}

#[test]
fn real_spec_mutations_yield_exactly_one_finding_each() {
    // Bidirectional coverage against the committed FORMAT.md: mutating
    // either side of a checked fact yields exactly one format-drift
    // finding naming both locations.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let cfg = Config::workspace(root);
    let files = load_files(&cfg).expect("workspace loads");
    let spec = std::fs::read_to_string(Path::new(root).join("docs/FORMAT.md")).expect("spec");

    let baseline = run_files(&cfg, &files, Some(&spec));
    assert!(baseline.violations.is_empty(), "{:#?}", baseline.violations);

    // Spec-side: bump the protocol version only in the document. The
    // anchor is read from the source, so it follows every real bump.
    let protocol = std::fs::read_to_string(Path::new(root).join("crates/server/src/protocol.rs"))
        .expect("protocol source");
    let version: u16 = protocol
        .lines()
        .find_map(|l| l.strip_prefix("pub const PROTOCOL_VERSION: u16 = ")?.strip_suffix(';'))
        .and_then(|v| v.parse().ok())
        .expect("PROTOCOL_VERSION declared");
    let row = "protocol version, `u16` — currently";
    let mutated = spec.replace(&format!("{row} `{version}`"), &format!("{row} `{}`", version + 1));
    assert_ne!(mutated, spec, "mutation anchor lost — update this test with FORMAT.md");
    let report = run_files(&cfg, &files, Some(&mutated));
    let hits: Vec<&Violation> =
        report.violations.iter().filter(|v| v.rule == "format-drift").collect();
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert_eq!(hits[0].file, "crates/server/src/protocol.rs");
    assert!(hits[0].message.contains("docs/FORMAT.md:"), "{}", hits[0]);

    // Spec-side: move a frame-kind tag byte to an unused value (a *used*
    // value would also trip the intra-spec duplicate-tag check).
    let mutated = spec.replace("| 4   | `MetricsRequest` |", "| 11  | `MetricsRequest` |");
    assert_ne!(mutated, spec, "mutation anchor lost — update this test with FORMAT.md");
    let report = run_files(&cfg, &files, Some(&mutated));
    let hits: Vec<&Violation> =
        report.violations.iter().filter(|v| v.rule == "format-drift").collect();
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert!(hits[0].message.contains("docs/FORMAT.md:"), "{}", hits[0]);
}

#[test]
fn real_source_mutation_yields_exactly_one_finding() {
    // Source-side: reorder two Gate variants in memory; declaration order
    // carries the wire tags, so exactly one finding must name the swap.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let cfg = Config::workspace(root);
    let mut files = load_files(&cfg).expect("workspace loads");
    let spec = std::fs::read_to_string(Path::new(root).join("docs/FORMAT.md")).expect("spec");
    let gate =
        files.iter_mut().find(|f| f.rel == "crates/circuit/src/gate.rs").expect("gate.rs scanned");
    let swapped = gate.text.replacen(
        "    X(usize),\n    /// Pauli-Y.\n    Y(usize),",
        "    Y(usize),\n    /// Pauli-Y.\n    X(usize),",
        1,
    );
    assert_ne!(swapped, gate.text, "mutation anchor lost — update this test with gate.rs");
    gate.lines = scan::scan(&swapped);
    gate.text = swapped;
    let report = run_files(&cfg, &files, Some(&spec));
    let hits: Vec<&Violation> =
        report.violations.iter().filter(|v| v.rule == "format-drift").collect();
    assert_eq!(hits.len(), 1, "{hits:#?}");
    assert_eq!(hits[0].file, "crates/circuit/src/gate.rs");
    assert!(
        hits[0].message.contains("declaration order") || hits[0].message.contains("position"),
        "{}",
        hits[0]
    );
}

#[test]
fn lock_table_matches_runtime_names() {
    // The static table and jigsaw_core::lockcheck must agree on lock
    // names: every declared name appears verbatim as a Mutex::new("…")
    // constructor argument somewhere in its declared file.
    let root = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let cfg = Config::workspace(root);
    for lock in &cfg.locks {
        let source = std::fs::read_to_string(root.join(&lock.file))
            .unwrap_or_else(|e| panic!("read {}: {e}", lock.file));
        assert!(
            source.contains(&format!("\"{}\"", lock.name)),
            "lock `{}` (rank {}) not constructed by name in {}",
            lock.name,
            lock.rank,
            lock.file
        );
    }
    // Ranks are unique and the declared order is total.
    let mut ranks: Vec<u32> = cfg.locks.iter().map(|l| l.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();
    assert_eq!(ranks.len(), cfg.locks.len(), "duplicate ranks in the lock table");
}

#[test]
fn cli_json_mode_rule_filter_and_exit_codes() {
    // End-to-end over the real binary: JSON mode on the clean workspace
    // exits 0 and emits the stable schema; a mutated spec copy via
    // --spec with --rule filtering exits 1 with only format-drift
    // findings (the CI mutation step relies on exactly this contract).
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let bin = env!("CARGO_BIN_EXE_jigsaw-analyze");
    let out = std::process::Command::new(bin)
        .args([root, "--format", "json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "clean workspace must exit 0: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("\"files_scanned\":"), "{stdout}");
    assert!(stdout.contains("\"findings\": ["), "{stdout}");
    assert!(stdout.contains("\"allowed\": true"), "audited allows missing: {stdout}");

    let spec = std::fs::read_to_string(Path::new(root).join("docs/FORMAT.md")).expect("spec");
    let mutated =
        spec.replace("`1` planned, `2` global-compiled", "`2` planned, `1` global-compiled");
    assert_ne!(mutated, spec, "mutation anchor lost — update this test with FORMAT.md");
    let tmp = std::env::temp_dir().join("jigsaw_analyze_mutated_spec.md");
    std::fs::write(&tmp, mutated).expect("write temp spec");
    let out = std::process::Command::new(bin)
        .args([
            root,
            "--format",
            "json",
            "--rule",
            "format-drift",
            "--spec",
            tmp.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "findings must exit 1: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("\"rule\": \"format-drift\""), "{stdout}");
    assert!(!stdout.contains("\"rule\": \"seed-flow\""), "--rule filter leaked: {stdout}");
    std::fs::remove_file(&tmp).ok();

    // Internal errors are distinct from findings.
    let out = std::process::Command::new(bin)
        .args([root, "--spec", "does/not/exist.md"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "internal error must exit 2: {out:?}");
}
