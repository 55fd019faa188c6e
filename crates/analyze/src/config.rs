//! What the analyzer enforces, and where.
//!
//! Everything here is the *declared* policy of this workspace: which
//! crates must stay deterministic, the total lock-acquisition order, where
//! the wire-format spec lives and which source facts it binds to, the
//! seed-derivation salt ranges, and the untrusted entry points the
//! panic-reachability pass seeds from. [`Config::workspace`] builds the
//! canonical policy for the repository root; tests build narrower configs
//! pointed at fixture directories.
//!
//! The lock table mirrors the `jigsaw_core::lockcheck` mutex names — the
//! runtime checker and this static table must agree, and
//! `crates/analyze/tests/analyzer.rs` cross-checks the two never drift.

use std::path::PathBuf;

/// One named mutex the lock-order rule knows about: the source identifier
/// it is locked through, in which file, and its declared rank. Locks must
/// be acquired in strictly ascending rank order.
#[derive(Debug, Clone)]
pub struct LockDef {
    /// Workspace-relative file the mutex lives in.
    pub file: String,
    /// The final path segment a `.lock()` call names (`state` in
    /// `self.inner.state.lock()`).
    pub ident: String,
    /// Human-readable lock name (matches the `jigsaw_core::lockcheck`
    /// `Mutex::new` constructor argument).
    pub name: String,
    /// Position in the total acquisition order (ascending = later).
    pub rank: u32,
}

/// How one spec fact is realised in source (see [`SpecBinding`]).
#[derive(Debug, Clone)]
pub enum FactKind {
    /// A `const IDENT: [u8; N] = *b"…";` byte-string literal.
    MagicBytes {
        /// The constant's identifier.
        ident: String,
    },
    /// A `const IDENT: uN = <int>;` integer constant.
    ConstInt {
        /// The constant's identifier.
        ident: String,
    },
    /// An enum whose wire tags are assigned by name in a `fn code` /
    /// `fn encode` match (`Self::X => 3` or `Self::X => w.put_u8(3)`).
    EnumTags {
        /// The enum's identifier.
        ident: String,
    },
    /// An enum whose wire tags are its *declaration positions*: the spec
    /// names the variants in tag order and the encode impl must assign
    /// `lo + index` to the `index`-th declared variant.
    EnumTagOrder {
        /// The enum's identifier.
        ident: String,
    },
    /// An enum whose spec entry declares only a contiguous tag range
    /// (`tag `0`–`5` in protocol order`): declaration order must carry
    /// tags `lo..=hi` with no gaps.
    EnumTagRange {
        /// The enum's identifier.
        ident: String,
    },
}

/// Binds one fact parsed out of the spec document to the source location
/// that must agree with it. The `key` matches what the spec parser
/// assigns: `archive.magic`, `archive.version`, `archive.stage`,
/// `frame.magic`, `frame.version`, `frame.kind`, `error-code`,
/// `priority`, or a §4 bullet's type name (`Gate`, `BackendChoice`, …).
#[derive(Debug, Clone)]
pub struct SpecBinding {
    /// Spec-model fact key.
    pub key: String,
    /// Workspace-relative source file holding the fact.
    pub file: String,
    /// How to extract the fact from that file.
    pub kind: FactKind,
}

/// One salt-base constant of the seed-derivation module, with the
/// *declared* index width of the streams derived from it: the constant
/// `IDENT` reserves salts `[value, value + width)`.
#[derive(Debug, Clone)]
pub struct SaltDef {
    /// The `const` identifier in the salt file.
    pub ident: String,
    /// Number of consecutive salts the base may be offset by.
    pub width: u64,
}

/// A salt range reserved by construction rather than by a named constant
/// (e.g. the global-run stream's fixed salt `0`).
#[derive(Debug, Clone)]
pub struct ReservedSalt {
    /// What reserves the range (for messages).
    pub what: String,
    /// First salt of the range.
    pub base: u64,
    /// Number of salts reserved.
    pub width: u64,
}

/// One untrusted entry point the panic-reachability pass seeds from, in
/// addition to every `fn decode` of an `impl Decode for …` block.
#[derive(Debug, Clone)]
pub struct EntryPoint {
    /// Workspace-relative file the function lives in.
    pub file: String,
    /// The function's name.
    pub func: String,
}

/// Full analyzer policy.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root every relative path below hangs off.
    pub root: PathBuf,
    /// Directories to walk for `.rs` files (relative to `root`).
    pub scan_dirs: Vec<String>,
    /// Crate directory names (under `crates/`) whose output feeds result
    /// bytes; the determinism rules apply to these.
    pub result_crates: Vec<String>,
    /// Files exempt from the `det-map` rule (the canonical deterministic
    /// hashing implementation itself).
    pub det_map_exempt: Vec<String>,
    /// The declared lock-order table.
    pub locks: Vec<LockDef>,
    /// Whether every `lib.rs` must carry `#![forbid(unsafe_code)]`.
    pub require_forbid_unsafe: bool,
    /// Workspace-relative path of the wire-format spec document checked by
    /// `format-drift`, or `None` to skip the pass.
    pub spec_path: Option<String>,
    /// Which spec facts bind to which source locations.
    pub spec_bindings: Vec<SpecBinding>,
    /// Path prefixes (beyond result-crate `src` trees) whose RNG
    /// constructions the `seed-flow` rule polices — bench binaries and
    /// examples reproduce published numbers, so their streams must be
    /// derived, not ad hoc.
    pub seed_flow_extra_dirs: Vec<String>,
    /// Files exempt from `seed-flow` (the derivation modules themselves,
    /// whose job is to apply salts to `mix`).
    pub seed_flow_exempt: Vec<String>,
    /// Workspace-relative file declaring the salt-base constants, or
    /// `None` to skip the salt-range check.
    pub salt_file: Option<String>,
    /// The salt-base constants and their declared index widths.
    pub salts: Vec<SaltDef>,
    /// Salt ranges reserved without a named constant.
    pub reserved_salts: Vec<ReservedSalt>,
    /// Extra untrusted entry points for `panic-reach` (on top of the
    /// automatic `impl Decode for …` seeding).
    pub panic_entries: Vec<EntryPoint>,
    /// Validation barriers for `panic-reach`: call edges *into* these
    /// functions are not traversed. Each listed function's contract is
    /// that every argument reaching it has already been validated by the
    /// decode layer (the pipeline stage API consumes artifacts whose
    /// `Decode` impls rejected out-of-range indices), so panics past the
    /// barrier cannot be triggered by hostile bytes. The barrier list is
    /// part of the audited policy: adding to it is a policy change, not a
    /// suppression.
    pub trust_boundaries: Vec<EntryPoint>,
    /// Method names excluded from call-graph resolution because the
    /// workspace defines them on some type *and* the standard library
    /// defines them pervasively (`.len()`, `.push(…)`, …): name-only
    /// resolution would connect every `Vec::push` call site to the
    /// workspace method of the same name. Each entry is a documented hole
    /// — a true workspace call through one of these names is invisible to
    /// `panic-reach` — so the list is confined to std-shadowed names.
    pub shadowed_methods: Vec<String>,
}

impl Config {
    /// The canonical policy for this workspace.
    #[must_use]
    #[allow(clippy::too_many_lines)]
    pub fn workspace(root: impl Into<PathBuf>) -> Self {
        let lock = |file: &str, ident: &str, name: &str, rank: u32| LockDef {
            file: file.to_owned(),
            ident: ident.to_owned(),
            name: name.to_owned(),
            rank,
        };
        let bind = |key: &str, file: &str, kind: FactKind| SpecBinding {
            key: key.to_owned(),
            file: file.to_owned(),
            kind,
        };
        let magic = |ident: &str| FactKind::MagicBytes { ident: ident.to_owned() };
        let cint = |ident: &str| FactKind::ConstInt { ident: ident.to_owned() };
        let tags = |ident: &str| FactKind::EnumTags { ident: ident.to_owned() };
        let entry =
            |file: &str, func: &str| EntryPoint { file: file.to_owned(), func: func.to_owned() };
        const PERSIST: &str = "crates/core/src/persist.rs";
        const PROTOCOL: &str = "crates/server/src/protocol.rs";
        Self {
            root: root.into(),
            scan_dirs: vec!["crates".to_owned(), "src".to_owned(), "examples".to_owned()],
            result_crates: ["circuit", "compiler", "core", "device", "pmf", "server", "sim"]
                .map(str::to_owned)
                .to_vec(),
            det_map_exempt: vec!["crates/pmf/src/hashing.rs".to_owned()],
            locks: vec![
                lock("crates/core/src/dist.rs", "queue", "dist.queue", 5),
                lock("crates/server/src/server.rs", "pending", "server.conn_queue", 10),
                lock("crates/server/src/server.rs", "stages", "server.stage_store", 15),
                lock("crates/server/src/cache.rs", "inner", "cache.inner", 20),
                lock("crates/core/src/sched.rs", "state", "sched.state", 30),
                lock("crates/core/src/sched.rs", "slot", "sched.cell.slot", 40),
                lock("crates/server/src/cache.rs", "slot", "cache.flight.slot", 50),
                lock("crates/core/src/telemetry.rs", "counters", "telemetry.counters", 60),
                lock("crates/core/src/telemetry.rs", "histograms", "telemetry.histograms", 61),
            ],
            require_forbid_unsafe: true,
            spec_path: Some("docs/FORMAT.md".to_owned()),
            spec_bindings: vec![
                bind("archive.magic", PERSIST, magic("MAGIC")),
                bind("archive.version", PERSIST, cint("FORMAT_VERSION")),
                bind("archive.stage", PERSIST, tags("StageKind")),
                bind("frame.magic", PROTOCOL, magic("MAGIC")),
                bind("frame.version", PROTOCOL, cint("PROTOCOL_VERSION")),
                bind("frame.kind", PROTOCOL, tags("FrameKind")),
                bind("error-code", PROTOCOL, tags("ErrorCode")),
                bind("priority", "crates/core/src/sched.rs", tags("Priority")),
                bind(
                    "Gate",
                    "crates/circuit/src/gate.rs",
                    FactKind::EnumTagOrder { ident: "Gate".to_owned() },
                ),
                bind("BackendChoice", "crates/sim/src/backend.rs", tags("BackendChoice")),
                bind("BackendKind", "crates/sim/src/backend.rs", tags("BackendKind")),
                bind("SubsetSelection", "crates/core/src/subsets.rs", tags("SubsetSelection")),
                bind("TrialAllocation", "crates/core/src/jigsaw.rs", tags("TrialAllocation")),
                bind(
                    "StageName",
                    "crates/core/src/pipeline.rs",
                    FactKind::EnumTagRange { ident: "StageName".to_owned() },
                ),
            ],
            seed_flow_extra_dirs: vec![
                "crates/bench/".to_owned(),
                "examples/".to_owned(),
                "src/".to_owned(),
            ],
            seed_flow_exempt: vec![
                "crates/core/src/seed.rs".to_owned(),
                "crates/sim/src/seed.rs".to_owned(),
            ],
            salt_file: Some("crates/core/src/seed.rs".to_owned()),
            salts: vec![
                // Subset sizes are bounded by the 256-bit outcome container
                // (sizes 0..=256 inclusive).
                SaltDef { ident: "SUBSET_LAYER_BASE".to_owned(), width: 257 },
                // CPM indices are unbounded in principle; the declared
                // contract is 2^32 streams — any selection policy wanting
                // more must move the reference salts first.
                SaltDef { ident: "CPM_BASE".to_owned(), width: 1 << 32 },
                SaltDef { ident: "BASELINE_SALT".to_owned(), width: 1 },
                SaltDef { ident: "EDM_BASE".to_owned(), width: 1 << 32 },
            ],
            reserved_salts: vec![ReservedSalt {
                what: "seed::global_run (fixed salt 0)".to_owned(),
                base: 0,
                width: 1,
            }],
            panic_entries: vec![
                entry(PROTOCOL, "from_bytes"),
                entry(PROTOCOL, "read_from"),
                entry(PROTOCOL, "decode_submit"),
                entry(PROTOCOL, "decode_shard"),
                entry("crates/server/src/server.rs", "handle_connection"),
                entry("crates/server/src/server.rs", "handle_submit"),
                entry("crates/server/src/server.rs", "handle_shard"),
                entry("crates/pmf/src/envelope.rs", "parse_header"),
                entry("crates/pmf/src/envelope.rs", "open"),
                entry(PERSIST, "from_bytes"),
                entry(PERSIST, "load_stage"),
                entry(PERSIST, "resume_from"),
            ],
            trust_boundaries: vec![
                // The five stage transitions: their inputs are artifacts
                // whose `Decode` impls validate every index and width
                // before constructing the value (`Circuit::decode` rejects
                // out-of-range qubits, `Layout::decode` duplicate slots,
                // …), so the compute they launch runs on trusted data.
                entry("crates/core/src/pipeline.rs", "compile_global"),
                entry("crates/core/src/pipeline.rs", "run_global"),
                entry("crates/core/src/pipeline.rs", "select_subsets"),
                entry("crates/core/src/pipeline.rs", "run_cpms"),
                entry("crates/core/src/pipeline.rs", "reconstruct"),
                // Scheduling a decoded-and-digest-checked request; the
                // request never re-enters byte parsing from here.
                entry("crates/server/src/server.rs", "compute_job"),
                // Same contract for shards: the shard was range-checked
                // against its stage's work list before the scheduler sees
                // it (`decode_shard` for an inline stage, `resolve_stage`
                // for a by-reference one).
                entry("crates/server/src/server.rs", "compute_shard"),
                // Constructors with a documented `# Panics` contract whose
                // decoders re-validate every index *before* constructing
                // (`Layout::decode`, `Topology::decode`): the asserts
                // cannot fire on decoded data.
                entry("crates/compiler/src/layout.rs", "new"),
                entry("crates/device/src/topology.rs", "new"),
                // Renders locally-accumulated metrics; no request bytes
                // flow into it.
                entry("crates/core/src/telemetry.rs", "render_text"),
            ],
            shadowed_methods: ["len", "push", "take", "extend", "insert", "get", "contains"]
                .map(str::to_owned)
                .to_vec(),
        }
    }

    /// Whether `rel_path` (workspace-relative, `/`-separated) belongs to a
    /// result-producing crate.
    #[must_use]
    pub fn in_result_crate(&self, rel_path: &str) -> bool {
        self.result_crates.iter().any(|c| rel_path.starts_with(&format!("crates/{c}/src/")))
    }

    /// Whether the `seed-flow` rule polices `rel_path`.
    #[must_use]
    pub fn seed_flow_applies(&self, rel_path: &str) -> bool {
        if self.seed_flow_exempt.iter().any(|e| e == rel_path) {
            return false;
        }
        self.in_result_crate(rel_path)
            || self.seed_flow_extra_dirs.iter().any(|d| rel_path.starts_with(d.as_str()))
    }

    /// The lock definitions that apply to `rel_path`.
    #[must_use]
    pub fn locks_for(&self, rel_path: &str) -> Vec<&LockDef> {
        self.locks.iter().filter(|l| l.file == rel_path).collect()
    }
}
