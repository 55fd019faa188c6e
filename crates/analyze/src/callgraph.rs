//! Workspace-wide function index, call graph, and the `panic-reach` rule.
//!
//! The index is built from the same classified-line token stream every
//! other rule consumes (see [`crate::scan`]) — no AST, no `syn`. That
//! forces an explicit resolution contract, which the analyzer *documents
//! and over-approximates* rather than guesses at:
//!
//! * **Functions** are recognised from `fn name` headers, together with
//!   the innermost `impl` block's type and trait (`impl Decode for Gate`
//!   → type `Gate`, trait `Decode`) and whether the function takes
//!   `self`.
//! * **Call sites** are identifiers followed by `(` (turbofish
//!   tolerated), classified as *method* calls (`recv.name(…)`),
//!   *qualified* calls (`Type::name(…)`, `module::name(…)`) or *bare*
//!   calls (`name(…)`). Macros (`name!(…)`) and keywords are excluded.
//! * **Resolution is by name, over-approximately.** A method call
//!   resolves to every workspace function of that name that takes
//!   `self`; a qualified call to every function of that name whose impl
//!   type *or* defining module matches the final qualifier segment
//!   (`Self` resolves through the caller's impl block); a bare call to
//!   same-file free functions when any exist, else every free function of
//!   that name. Calls that resolve to nothing are assumed to target the
//!   standard library and are ignored.
//!
//! The over-approximation is deliberate and one-sided: the computed graph
//! may contain edges the compiler would never take (same-name methods on
//! unrelated types), so `panic-reach` can report a panic site that is not
//! truly reachable — suppressed case by case with a reasoned
//! `analyze:allow` — but it cannot *miss* an edge expressible in the
//! token stream, so a genuinely reachable panic cannot hide behind naming.
//! Two *documented, configured* exceptions punch holes in that guarantee
//! (both live in the audited policy, not in code):
//!
//! * [`Config::shadowed_methods`] — method names the standard library
//!   defines pervasively (`len`, `push`, …) are not resolved at all,
//!   because name-only resolution would otherwise connect every
//!   `Vec::push` call site to an unrelated workspace method.
//! * [`Config::trust_boundaries`] — validation barriers. Edges *into*
//!   these functions are dropped: their documented contract is that every
//!   argument was validated by the decode layer, so panics beyond them
//!   are not reachable from hostile bytes.
//!
//! `panic-reach` seeds the graph with the untrusted entry points — every
//! `fn decode` of an `impl Decode for …` block plus the configured frame
//! handlers ([`Config::panic_entries`]) — and reports every panic site
//! (`unwrap`/`expect`/panicking macros/direct indexing) in any function
//! transitively reachable from them, naming a witness chain. This
//! replaces the fixed five-file whitelist the `panic-free` rule used
//! through PR 8: the policed file set is now *derived* from reachability
//! and grows automatically when a new decoder calls into a helper.
//! Every configured entry and boundary row must name a function in the
//! index; a row that names none is itself a finding ([`unresolved_rows`]).

use crate::config::{Config, EntryPoint};
use crate::rules::{indexing_sites, Violation, PANIC_TOKENS};
use crate::scan::SourceLine;
use crate::FileSource;

/// One indexed function.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Index of the defining file in the workspace file list.
    pub file: usize,
    /// The function's identifier.
    pub name: String,
    /// Enclosing `impl` block's type (last path segment, generics
    /// stripped), when any.
    pub impl_type: Option<String>,
    /// Enclosing `impl Trait for …` block's trait (last path segment),
    /// when any.
    pub trait_name: Option<String>,
    /// Whether the first parameter is (a borrow of) `self`.
    pub has_self: bool,
    /// 1-based line of the `fn` header.
    pub line: usize,
    /// 1-based inclusive line range of header + body.
    pub body: (usize, usize),
}

impl FnInfo {
    /// Display name (`Type::name` or `name`).
    #[must_use]
    pub fn display(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The workspace function index.
#[derive(Debug, Default)]
pub struct FnIndex {
    /// Every indexed function, in file-then-line order.
    pub fns: Vec<FnInfo>,
}

/// One extracted call site.
#[derive(Debug)]
struct CallSite {
    name: String,
    qualifier: Option<String>,
    is_method: bool,
}

/// Builds the function index over every scanned file.
#[must_use]
pub fn build_index(files: &[FileSource]) -> FnIndex {
    let mut index = FnIndex::default();
    for (file_idx, file) in files.iter().enumerate() {
        index_file(file_idx, &file.lines, &mut index);
    }
    index
}

/// An `impl` block open on the context stack.
struct ImplCtx {
    open_depth: usize,
    open_line: usize,
    ty: Option<String>,
    tr: Option<String>,
}

fn index_file(file_idx: usize, lines: &[SourceLine], index: &mut FnIndex) {
    let mut impls: Vec<ImplCtx> = Vec::new();
    // A multi-line `impl …` or `fn …` header being accumulated.
    let mut pending_impl: Option<(usize, String)> = None;
    let mut pending_fn: Option<(usize, String)> = None;
    for line in lines {
        while impls.last().is_some_and(|c| line.number > c.open_line && line.depth <= c.open_depth)
        {
            impls.pop();
        }
        if line.in_test {
            continue;
        }
        let code = line.code.as_str();
        if let Some((start, mut header)) = pending_fn.take() {
            header.push(' ');
            header.push_str(code);
            match finish_fn(start, &header, lines, file_idx, &impls, index) {
                FnHeader::Incomplete => pending_fn = Some((start, header)),
                FnHeader::Done => {}
            }
            continue;
        }
        if let Some((start, mut header)) = pending_impl.take() {
            header.push(' ');
            header.push_str(code);
            if header.contains('{') {
                push_impl(start, &header, lines, &mut impls);
            } else {
                pending_impl = Some((start, header));
            }
            continue;
        }
        let trimmed = code.trim_start();
        if trimmed.starts_with("impl") && !starts_ident_continues(trimmed, "impl") {
            if code.contains('{') {
                push_impl(line.number, code, lines, &mut impls);
            } else {
                pending_impl = Some((line.number, code.to_owned()));
            }
            continue;
        }
        if let Some(at) = find_fn_keyword(code) {
            let header = &code[at..];
            match finish_fn(line.number, header, lines, file_idx, &impls, index) {
                FnHeader::Incomplete => pending_fn = Some((line.number, header.to_owned())),
                FnHeader::Done => {}
            }
        }
    }
}

/// Whether `text`, which starts with `prefix`, continues into a longer
/// identifier (`implements` vs `impl`).
fn starts_ident_continues(text: &str, prefix: &str) -> bool {
    text[prefix.len()..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_')
}

/// Byte offset of a `fn ` keyword on the line, or `None`.
fn find_fn_keyword(code: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(at) = code[from..].find("fn ") {
        let idx = from + at;
        from = idx + 3;
        let before = code[..idx].chars().next_back();
        if before.is_none_or(|c| !(c.is_alphanumeric() || c == '_')) {
            return Some(idx);
        }
    }
    None
}

/// Parses an `impl` header (text from `impl` through `{`) and pushes the
/// context. `open_line` is where the header started.
fn push_impl(open_line: usize, header: &str, lines: &[SourceLine], impls: &mut Vec<ImplCtx>) {
    let open_depth = lines.iter().find(|l| l.number == open_line).map_or(0, |l| l.depth);
    let after = header.trim_start();
    let after = after.strip_prefix("impl").unwrap_or(after);
    let after = skip_generics(after.trim_start());
    let head = after.split('{').next().unwrap_or("");
    let head = head.split(" where ").next().unwrap_or("").trim();
    let (tr, ty) = match split_impl_for(head) {
        Some((t, y)) => (Some(last_segment(t)), Some(last_segment(y))),
        None => (None, Some(last_segment(head))),
    };
    impls.push(ImplCtx { open_depth, open_line, ty: ty.filter(|s| !s.is_empty()), tr });
}

/// Splits `Trait for Type` at the ` for ` keyword (not inside generics).
fn split_impl_for(head: &str) -> Option<(&str, &str)> {
    let mut angle = 0usize;
    let bytes = head.as_bytes();
    for i in 0..bytes.len() {
        match bytes[i] {
            b'<' => angle += 1,
            b'>' => angle = angle.saturating_sub(1),
            b'f' if angle == 0 && head[i..].starts_with("for ") => {
                let before_ok = i == 0 || bytes[i - 1] == b' ';
                if before_ok && i > 0 {
                    return Some((head[..i].trim(), head[i + 4..].trim()));
                }
            }
            _ => {}
        }
    }
    None
}

/// Drops a leading `<…>` generics group. A `>` that closes a `->` return
/// arrow (as in `impl<F: Fn(usize) -> f64> Search<F>`) does not close the
/// group.
fn skip_generics(text: &str) -> &str {
    if !text.starts_with('<') {
        return text;
    }
    let mut depth = 0usize;
    let mut prev = ' ';
    for (i, c) in text.char_indices() {
        match c {
            '<' => depth += 1,
            '>' if prev != '-' => {
                depth -= 1;
                if depth == 0 {
                    return text[i + 1..].trim_start();
                }
            }
            _ => {}
        }
        prev = c;
    }
    ""
}

/// Last `::`-separated path segment with generics, borrows and lifetimes
/// stripped (`jigsaw_pmf::codec::Encode` → `Encode`, `&'a Vec<T>` → `Vec`).
fn last_segment(path: &str) -> String {
    let no_generics = path.split('<').next().unwrap_or("").trim();
    let mut rest = no_generics.trim_start_matches('&').trim_start();
    while rest.starts_with('\'') {
        rest = rest[1..].trim_start_matches(|c: char| c.is_alphanumeric() || c == '_').trim_start();
    }
    rest.rsplit("::").next().unwrap_or("").trim().to_owned()
}

enum FnHeader {
    /// The header has not reached its `{` or `;` yet.
    Incomplete,
    /// Indexed (or discarded as a bodyless declaration).
    Done,
}

/// Attempts to complete a fn header that started on `start_line` with the
/// accumulated `header` text (beginning at the `fn` keyword).
fn finish_fn(
    start_line: usize,
    header: &str,
    lines: &[SourceLine],
    file_idx: usize,
    impls: &[ImplCtx],
    index: &mut FnIndex,
) -> FnHeader {
    // Body opens at the first `{` outside the argument parens; a `;` there
    // instead means a bodyless trait declaration.
    let mut paren = 0usize;
    let mut saw_name_parens = false;
    let mut body_open: Option<usize> = None;
    for (i, c) in header.char_indices() {
        match c {
            '(' => {
                paren += 1;
                saw_name_parens = true;
            }
            ')' => paren = paren.saturating_sub(1),
            '{' if paren == 0 => {
                body_open = Some(i);
                break;
            }
            ';' if paren == 0 && saw_name_parens => return FnHeader::Done,
            _ => {}
        }
    }
    let Some(_) = body_open else { return FnHeader::Incomplete };
    let name: String =
        header[2..].trim_start().chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    if name.is_empty() {
        return FnHeader::Done;
    }
    let args = header.find('(').map_or("", |p| &header[p + 1..]);
    let has_self = first_param_is_self(args);
    let end = body_end(start_line, lines);
    let ctx = impls.last();
    index.fns.push(FnInfo {
        file: file_idx,
        name,
        impl_type: ctx.and_then(|c| c.ty.clone()),
        trait_name: ctx.and_then(|c| c.tr.clone()),
        has_self,
        line: start_line,
        body: (start_line, end),
    });
    FnHeader::Done
}

/// Whether an argument list text starts with (a borrow of) `self`.
fn first_param_is_self(args: &str) -> bool {
    let mut rest = args.trim_start();
    rest = rest.strip_prefix('&').unwrap_or(rest).trim_start();
    if rest.starts_with('\'') {
        // Skip a lifetime.
        rest = rest[1..].trim_start_matches(|c: char| c.is_alphanumeric() || c == '_').trim_start();
    }
    rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    rest.strip_prefix("self")
        .is_some_and(|after| !after.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_'))
}

/// Line where the body opened on `start_line` closes (brace balance over
/// classified code).
fn body_end(start_line: usize, lines: &[SourceLine]) -> usize {
    let mut depth = 0usize;
    let mut opened = false;
    for line in lines.iter().filter(|l| l.number >= start_line) {
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        return line.number;
                    }
                }
                _ => {}
            }
        }
    }
    lines.last().map_or(start_line, |l| l.number)
}

/// Rust keywords and prelude constructors excluded from call extraction.
const NON_CALLS: [&str; 30] = [
    "if", "while", "for", "match", "return", "loop", "else", "in", "as", "let", "move", "ref",
    "mut", "box", "fn", "impl", "pub", "use", "mod", "where", "unsafe", "async", "await", "dyn",
    "break", "continue", "Some", "None", "Ok", "Err",
];

/// Extracts the call sites on one classified line.
fn extract_calls(code: &str) -> Vec<CallSite> {
    let bytes: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    for open in 0..bytes.len() {
        if bytes[open] != '(' {
            continue;
        }
        let mut end = open;
        // Tolerate a turbofish between name and parens.
        if end > 0 && bytes[end - 1] == '>' {
            let Some(lt) = match_angle_back(&bytes, end - 1) else { continue };
            if !(lt >= 2 && bytes[lt - 1] == ':' && bytes[lt - 2] == ':') {
                continue;
            }
            end = lt - 2;
        }
        if end == 0 {
            continue;
        }
        if bytes[end - 1] == '!' {
            continue; // macro invocation
        }
        let mut start = end;
        while start > 0 && (bytes[start - 1].is_alphanumeric() || bytes[start - 1] == '_') {
            start -= 1;
        }
        if start == end {
            continue;
        }
        let name: String = bytes[start..end].iter().collect();
        if name.chars().next().is_some_and(char::is_numeric) {
            continue;
        }
        if NON_CALLS.contains(&name.as_str()) {
            continue;
        }
        // A definition, not a call.
        let before: String = bytes[..start].iter().collect();
        if before.trim_end().ends_with("fn") {
            continue;
        }
        let (qualifier, is_method) = call_qualifier(&bytes, start);
        out.push(CallSite { name, qualifier, is_method });
    }
    out
}

/// Classifies what precedes the callee identifier starting at `start`.
fn call_qualifier(bytes: &[char], start: usize) -> (Option<String>, bool) {
    if start == 0 {
        return (None, false);
    }
    if bytes[start - 1] == '.' {
        return (None, true);
    }
    if start >= 2 && bytes[start - 1] == ':' && bytes[start - 2] == ':' {
        let mut end = start - 2;
        if end > 0 && bytes[end - 1] == '>' {
            // `Vec::<T>::decode` — skip the generic group to the type name.
            match match_angle_back(bytes, end - 1) {
                Some(lt) if lt >= 2 && bytes[lt - 1] == ':' && bytes[lt - 2] == ':' => {
                    end = lt - 2;
                }
                Some(lt) => end = lt,
                None => return (None, false),
            }
        }
        let mut seg_start = end;
        while seg_start > 0
            && (bytes[seg_start - 1].is_alphanumeric() || bytes[seg_start - 1] == '_')
        {
            seg_start -= 1;
        }
        if seg_start == end {
            return (None, false);
        }
        let seg: String = bytes[seg_start..end].iter().collect();
        return (Some(seg), false);
    }
    (None, false)
}

/// Position of the `<` matching the `>` at `gt`, scanning backwards.
fn match_angle_back(bytes: &[char], gt: usize) -> Option<usize> {
    let mut depth = 0usize;
    for i in (0..=gt).rev() {
        match bytes[i] {
            '>' => depth += 1,
            '<' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Resolves one call site to candidate function indices under the
/// documented over-approximation.
fn resolve(call: &CallSite, caller: &FnInfo, index: &FnIndex, files: &[FileSource]) -> Vec<usize> {
    let named: Vec<usize> =
        index.fns.iter().enumerate().filter(|(_, f)| f.name == call.name).map(|(i, _)| i).collect();
    if named.is_empty() {
        return named;
    }
    if call.is_method {
        return named.into_iter().filter(|&i| index.fns[i].has_self).collect();
    }
    if let Some(q) = &call.qualifier {
        let want_type = if q == "Self" { caller.impl_type.clone() } else { Some(q.clone()) };
        return named
            .into_iter()
            .filter(|&i| {
                let f = &index.fns[i];
                f.impl_type == want_type
                    || (q != "Self" && file_module(&files[f.file].rel) == q.as_str())
            })
            .collect();
    }
    // Bare call: free functions, same file preferred.
    let free: Vec<usize> = named
        .into_iter()
        .filter(|&i| index.fns[i].impl_type.is_none() && !index.fns[i].has_self)
        .collect();
    let local: Vec<usize> =
        free.iter().copied().filter(|&i| index.fns[i].file == caller.file).collect();
    if local.is_empty() {
        free
    } else {
        local
    }
}

/// Module name a file defines (`crates/core/src/seed.rs` → `seed`).
fn file_module(rel: &str) -> &str {
    rel.rsplit('/').next().unwrap_or(rel).trim_end_matches(".rs")
}

/// `panic-reach`: report every panic site transitively reachable from an
/// untrusted entry point. See the module docs for the resolution and
/// over-approximation contract.
#[must_use]
pub fn panic_reach(cfg: &Config, files: &[FileSource], index: &FnIndex) -> Vec<Violation> {
    let mut entry_of: Vec<Option<usize>> = vec![None; index.fns.len()];
    let mut queue: Vec<usize> = Vec::new();
    for (i, f) in index.fns.iter().enumerate() {
        let is_decode_impl = f.name == "decode" && f.trait_name.as_deref() == Some("Decode");
        let is_listed = cfg.panic_entries.iter().any(|e| names(e, f, files));
        if is_decode_impl || is_listed {
            entry_of[i] = Some(i);
            queue.push(i);
        }
    }
    let boundary: Vec<bool> =
        index.fns.iter().map(|f| cfg.trust_boundaries.iter().any(|b| names(b, f, files))).collect();
    // BFS with a parent pointer for witness chains.
    let mut parent: Vec<Option<usize>> = vec![None; index.fns.len()];
    let mut head = 0;
    while head < queue.len() {
        let at = queue[head];
        head += 1;
        let caller = &index.fns[at];
        let file = &files[caller.file];
        let mut targets: Vec<usize> = Vec::new();
        for line in body_lines(file, caller) {
            for call in extract_calls(&line.code) {
                if call.is_method && cfg.shadowed_methods.contains(&call.name) {
                    continue;
                }
                targets.extend(resolve(&call, caller, index, files));
            }
        }
        targets.sort_unstable();
        targets.dedup();
        for t in targets {
            if entry_of[t].is_none() && !boundary[t] {
                entry_of[t] = entry_of[at];
                parent[t] = Some(at);
                queue.push(t);
            }
        }
    }
    let mut out = Vec::new();
    for (i, f) in index.fns.iter().enumerate() {
        let Some(entry) = entry_of[i] else { continue };
        let file = &files[f.file];
        let chain = witness_chain(i, entry, &parent, index);
        for line in body_lines(file, f) {
            for (token, what) in PANIC_TOKENS {
                if line.code.contains(token) {
                    out.push(Violation {
                        file: file.rel.clone(),
                        line: line.number,
                        rule: "panic-reach",
                        message: format!(
                            "{what} is transitively reachable from untrusted entry point \
                             `{}` (call chain: {chain}): hostile input must map to a typed \
                             error, never a panic",
                            index.fns[entry].display()
                        ),
                    });
                }
            }
            for idx in indexing_sites(&line.code) {
                let snippet: String = line.code[idx..].chars().take(12).collect();
                out.push(Violation {
                    file: file.rel.clone(),
                    line: line.number,
                    rule: "panic-reach",
                    message: format!(
                        "direct indexing (`…{snippet}`) is transitively reachable from \
                         untrusted entry point `{}` (call chain: {chain}): use `get`/`split` \
                         and map the miss to a typed error",
                        index.fns[entry].display()
                    ),
                });
            }
        }
    }
    out
}

/// `panic-reach` configuration audit: every [`Config::panic_entries`] and
/// [`Config::trust_boundaries`] row must name an indexed function. A row
/// that names none is reported, because a renamed or moved function would
/// otherwise lose the coverage (or the barrier) its row was written for
/// without a finding.
#[must_use]
pub fn unresolved_rows(cfg: &Config, files: &[FileSource], index: &FnIndex) -> Vec<Violation> {
    let entries = cfg.panic_entries.iter().map(|row| (row, "untrusted entry point"));
    let barriers = cfg.trust_boundaries.iter().map(|row| (row, "trust boundary"));
    entries
        .chain(barriers)
        .filter(|(row, _)| !index.fns.iter().any(|f| names(row, f, files)))
        .map(|(row, what)| Violation {
            file: row.file.clone(),
            line: 1,
            rule: "panic-reach",
            message: format!(
                "configured {what} `{}` matches no function in {}: the row covers nothing; \
                 rename it with its function or delete it",
                row.func, row.file
            ),
        })
        .collect()
}

/// Whether a configured row names the indexed function `f`.
fn names(row: &EntryPoint, f: &FnInfo, files: &[FileSource]) -> bool {
    f.name == row.func && files[f.file].rel == row.file
}

/// Non-test classified lines of a function body.
fn body_lines<'a>(file: &'a FileSource, f: &FnInfo) -> impl Iterator<Item = &'a SourceLine> {
    let (start, end) = f.body;
    file.lines.iter().filter(move |l| l.number >= start && l.number <= end && !l.in_test)
}

/// Renders the entry→…→function witness chain (capped for readability).
fn witness_chain(at: usize, entry: usize, parent: &[Option<usize>], index: &FnIndex) -> String {
    let mut hops = vec![at];
    let mut cur = at;
    while let Some(p) = parent[cur] {
        hops.push(p);
        cur = p;
        if cur == entry {
            break;
        }
    }
    hops.reverse();
    let names: Vec<String> = hops.iter().map(|&i| index.fns[i].display()).collect();
    if names.len() > 6 {
        let head = &names[..2];
        let tail = &names[names.len() - 2..];
        format!("{} → … → {}", head.join(" → "), tail.join(" → "))
    } else {
        names.join(" → ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan;

    fn file(rel: &str, src: &str) -> FileSource {
        FileSource { rel: rel.to_owned(), text: src.to_owned(), lines: scan(src) }
    }

    #[test]
    fn index_records_impl_context_and_self() {
        let src = "impl Decode for Gate {\n    fn decode(r: &mut Reader) -> Self {\n        helper(r)\n    }\n}\npub fn helper(r: &mut Reader) -> Gate { r.bytes[0] }\n";
        let files = [file("crates/x/src/a.rs", src)];
        let index = build_index(&files);
        assert_eq!(index.fns.len(), 2);
        assert_eq!(index.fns[0].name, "decode");
        assert_eq!(index.fns[0].impl_type.as_deref(), Some("Gate"));
        assert_eq!(index.fns[0].trait_name.as_deref(), Some("Decode"));
        assert!(!index.fns[0].has_self);
        assert_eq!(index.fns[1].name, "helper");
        assert!(index.fns[1].impl_type.is_none());
    }

    #[test]
    fn two_hop_chain_is_caught_and_unreachable_helper_passes() {
        let src = "impl Decode for Frame {\n    fn decode(r: &[u8]) -> Frame {\n        step(r)\n    }\n}\nfn step(r: &[u8]) -> Frame {\n    finish(r)\n}\nfn finish(r: &[u8]) -> Frame {\n    r.first().unwrap();\n    Frame\n}\nfn unrelated(r: &[u8]) -> u8 {\n    r.first().unwrap()\n}\n";
        let files = [file("crates/x/src/a.rs", src)];
        let index = build_index(&files);
        let cfg = crate::Config::workspace(".");
        let v = panic_reach(&cfg, &files, &index);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert_eq!(v[0].line, 10);
        assert!(v[0].message.contains("Frame::decode"), "{}", v[0].message);
        assert!(v[0].message.contains("step"), "{}", v[0].message);
        assert!(v[0].message.contains("finish"), "{}", v[0].message);
    }

    #[test]
    fn method_calls_resolve_to_self_taking_functions() {
        let src = "impl Decode for A {\n    fn decode(r: &R) -> A {\n        r.pull()\n    }\n}\nimpl R {\n    fn pull(&self) -> A {\n        self.buf[0]\n    }\n}\n";
        let files = [file("crates/x/src/a.rs", src)];
        let index = build_index(&files);
        let cfg = crate::Config::workspace(".");
        let v = panic_reach(&cfg, &files, &index);
        assert_eq!(v.len(), 1, "{v:#?}");
        assert!(v[0].message.contains("indexing"), "{}", v[0].message);
    }

    #[test]
    fn trust_boundary_cuts_traversal() {
        let src = "impl Decode for Frame {\n    fn decode(r: &[u8]) -> Frame {\n        stage(r)\n    }\n}\nfn stage(r: &[u8]) -> Frame {\n    deep(r)\n}\nfn deep(r: &[u8]) -> Frame {\n    r.first().unwrap();\n    Frame\n}\n";
        let files = [file("crates/x/src/a.rs", src)];
        let index = build_index(&files);
        let mut cfg = crate::Config::workspace(".");
        assert_eq!(panic_reach(&cfg, &files, &index).len(), 1);
        cfg.trust_boundaries.push(crate::config::EntryPoint {
            file: "crates/x/src/a.rs".to_owned(),
            func: "stage".to_owned(),
        });
        assert!(panic_reach(&cfg, &files, &index).is_empty());
    }

    #[test]
    fn shadowed_method_names_are_not_resolved() {
        let src = "impl Decode for A {\n    fn decode(v: &mut Vec<u8>) -> A {\n        v.push(1);\n        A\n    }\n}\nimpl Stack {\n    fn push(&mut self, b: u8) {\n        self.buf[self.len].set(b);\n    }\n}\n";
        let files = [file("crates/x/src/a.rs", src)];
        let index = build_index(&files);
        let cfg = crate::Config::workspace(".");
        // `push` is std-shadowed: the `v.push(1)` edge must not connect
        // the decoder to `Stack::push`'s indexing.
        assert!(cfg.shadowed_methods.iter().any(|m| m == "push"));
        assert!(panic_reach(&cfg, &files, &index).is_empty());
    }

    #[test]
    fn impl_headers_with_lifetimes_and_arrows_parse_cleanly() {
        let src = "impl<'a> IntoIterator for &'a Ops {\n    fn into_iter(self) -> I {\n        self.walk()\n    }\n}\nimpl<F: Fn(usize) -> f64> Search<F> {\n    fn walk(&self) -> I {\n        I\n    }\n}\n";
        let files = [file("crates/x/src/a.rs", src)];
        let index = build_index(&files);
        assert_eq!(index.fns[0].impl_type.as_deref(), Some("Ops"));
        assert_eq!(index.fns[1].impl_type.as_deref(), Some("Search"));
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let calls = extract_calls("if x { vec![y]; foo!(z); bar(1); s.baz(2); T::quux(3) }");
        let names: Vec<&str> = calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["bar", "baz", "quux"]);
        assert!(calls[1].is_method);
        assert_eq!(calls[2].qualifier.as_deref(), Some("T"));
    }

    #[test]
    fn turbofish_calls_resolve_by_type() {
        let calls = extract_calls("let v = Vec::<Marginal>::decode(r)?;");
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].name, "decode");
        assert_eq!(calls[0].qualifier.as_deref(), Some("Vec"));
    }
}
