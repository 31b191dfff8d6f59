//! `lint::graph` — the shared whole-program symbol/call-graph layer.
//!
//! PR 6 built a workspace symbol table and call-site resolver inside
//! [`crate::flow`]; the SPMD uniformity analysis ([`crate::uniform`])
//! needs the exact same name-resolution semantics (bare call same-file →
//! same-crate → workspace, `Type::assoc` through a `(type, name)` index,
//! method calls by locally inferred receiver type with a sound same-name
//! fallback, test scope never a callee of non-test code). Rather than
//! fork the logic, the pieces both analyses share live here:
//!
//! * path/scope helpers ([`module_path`], [`is_test_path`]);
//! * token-walk helpers over [`FileCtx`] ([`skip_angles`],
//!   [`impl_subject`], [`body_open`], [`param_types`], [`record_let`]);
//! * the unresolved call-site vocabulary ([`RawCall`]) and the
//!   resolver ([`Resolver`]) over a list of [`Sym`] entries.
//!
//! Each analysis still runs its own body walk (flow scans for effect
//! sources, uniform extracts branch/loop structure), but a call site
//! resolves to the same candidate set in both.

use crate::lexer::TokKind;
use crate::passes::FileCtx;
use std::collections::BTreeMap;

/// Words that look like `ident (` in token space but are not calls.
pub const KEYWORDS: &[&str] = &[
    "fn", "for", "if", "while", "match", "return", "in", "as", "let", "loop", "move", "mut", "ref",
    "box", "unsafe", "where", "use", "pub", "crate", "super", "self", "Self", "dyn", "static",
    "const", "break", "continue", "else", "async", "await", "type", "impl", "struct", "enum",
    "union", "trait", "mod", "extern", "true", "false",
];

pub fn starts_upper(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
}

/// Integration tests, benches, and `#[cfg(test)]` bodies are test scope:
/// they may be nondeterministic setup and are never callees of lib code.
pub fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/") || rel.contains("/tests/") || rel.contains("/benches/")
}

/// Module path for qualification, derived from the file path:
/// `crates/comms/src/world.rs` → `comms::world`,
/// `crates/bench/src/bin/baseline.rs` → `bench::bin::baseline`,
/// `src/lib.rs` → `hyades`, `tests/determinism.rs` → `tests::determinism`.
pub fn module_path(rel: &str) -> String {
    let stem = rel.strip_suffix(".rs").unwrap_or(rel);
    let parts: Vec<&str> = stem.split('/').collect();
    let mut segs: Vec<&str> = Vec::new();
    match parts.as_slice() {
        ["crates", c, "src", rest @ ..] => {
            segs.push(c);
            segs.extend(rest);
        }
        ["crates", c, rest @ ..] => {
            segs.push(c);
            segs.extend(rest);
        }
        ["src", rest @ ..] => {
            segs.push("hyades");
            segs.extend(rest);
        }
        rest => segs.extend(rest),
    }
    segs.retain(|s| !matches!(*s, "lib" | "main" | "mod"));
    segs.join("::")
}

/// Skip a balanced `<…>` starting at `open`; returns the index after the
/// matching `>` (bails at `{` / `;` / EOF).
pub fn skip_angles(ctx: &FileCtx<'_>, open: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < ctx.code.len() {
        match ctx.text(j) {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => {
                depth -= 1;
                if depth <= 0 {
                    return j + 1;
                }
            }
            ">>" => {
                depth -= 2;
                if depth <= 0 {
                    return j + 1;
                }
            }
            "(" | "[" => match ctx.bracket_partner(j) {
                Some(p) => j = p,
                None => return j,
            },
            "{" | ";" => return j,
            _ => {}
        }
        j += 1;
    }
    j
}

/// For an `impl` at `i`, the subject type name (`impl Foo` → `Foo`,
/// `impl Trait for Bar` → `Bar`) and the body-opening `{` index.
pub fn impl_subject(ctx: &FileCtx<'_>, i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    if ctx.is(j, "<") {
        j = skip_angles(ctx, j);
    }
    let mut subject: Option<String> = None;
    let mut reading = true;
    while j < ctx.code.len() {
        match ctx.text(j) {
            "{" => return subject.map(|s| (s, j)),
            ";" => return None,
            "for" => {
                subject = None;
                reading = true;
                j += 1;
            }
            "where" => {
                reading = false;
                j += 1;
            }
            "<" => j = skip_angles(ctx, j),
            "(" | "[" => j = ctx.bracket_partner(j)? + 1,
            _ => {
                if reading
                    && ctx.kind(j) == Some(TokKind::Ident)
                    && !matches!(ctx.text(j), "dyn" | "mut")
                {
                    subject = Some(ctx.text(j).to_string());
                }
                j += 1;
            }
        }
    }
    None
}

/// First `{` from `start` (skipping groups and generics), or `None` if a
/// `;` ends the item first (trait method declaration, `mod x;`).
pub fn body_open(ctx: &FileCtx<'_>, start: usize) -> Option<usize> {
    let mut j = start;
    while j < ctx.code.len() {
        match ctx.text(j) {
            "{" => return Some(j),
            ";" => return None,
            "<" => j = skip_angles(ctx, j),
            "(" | "[" => j = ctx.bracket_partner(j)? + 1,
            _ => j += 1,
        }
    }
    None
}

/// Parameter types for local receiver inference: `x: Type`,
/// `x: &mut Type` (path heads and generics are ignored — only a leading
/// uppercase ident counts).
pub fn param_types(ctx: &FileCtx<'_>, name_idx: usize) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let mut j = name_idx + 1;
    if ctx.is(j, "<") {
        j = skip_angles(ctx, j);
    }
    if !ctx.is(j, "(") {
        return out;
    }
    let Some(close) = ctx.bracket_partner(j) else {
        return out;
    };
    for p in j + 1..close {
        if ctx.kind(p) == Some(TokKind::Ident)
            && ctx.is(p + 1, ":")
            && (p == j + 1 || matches!(ctx.text(p - 1), "," | "(" | "mut"))
        {
            let mut k = p + 2;
            while matches!(ctx.text(k), "&" | "mut" | "dyn")
                || ctx.kind(k) == Some(TokKind::Lifetime)
            {
                k += 1;
            }
            if ctx.kind(k) == Some(TokKind::Ident) && starts_upper(ctx.text(k)) {
                out.insert(ctx.text(p).to_string(), ctx.text(k).to_string());
            }
        }
    }
    out
}

/// Parameter *names* in declaration order (including a leading `self`),
/// for positional argument-to-parameter taint mapping.
pub fn param_names(ctx: &FileCtx<'_>, name_idx: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut j = name_idx + 1;
    if ctx.is(j, "<") {
        j = skip_angles(ctx, j);
    }
    if !ctx.is(j, "(") {
        return out;
    }
    let Some(close) = ctx.bracket_partner(j) else {
        return out;
    };
    let mut p = j + 1;
    let mut depth_start = true;
    while p < close {
        match ctx.text(p) {
            "(" | "[" | "{" => {
                p = ctx.bracket_partner(p).map(|q| q + 1).unwrap_or(close);
                continue;
            }
            "<" => {
                p = skip_angles(ctx, p);
                continue;
            }
            "," => depth_start = true,
            "self" if depth_start => out.push("self".to_string()),
            _ if depth_start
                && ctx.kind(p) == Some(TokKind::Ident)
                && ctx.is(p + 1, ":")
                && !KEYWORDS.contains(&ctx.text(p)) =>
            {
                out.push(ctx.text(p).to_string());
                depth_start = false;
            }
            "&" | "mut" => {}
            _ => {
                if ctx.kind(p) == Some(TokKind::Ident) && !ctx.is(p + 1, ":") && depth_start {
                    // pattern params (`(a, b): (f64, f64)`) — give up on
                    // this slot but keep position alignment.
                    depth_start = false;
                }
            }
        }
        p += 1;
    }
    out
}

/// `let [mut] x: Type = ..` / `let [mut] x = [path::]Type::ctor(..)` /
/// `let x = Type { .. }` — record `x: Type`.
pub fn record_let(ctx: &FileCtx<'_>, i: usize, locals: &mut BTreeMap<String, String>) {
    let mut j = i + 1;
    if ctx.is(j, "mut") {
        j += 1;
    }
    if ctx.kind(j) != Some(TokKind::Ident) {
        return;
    }
    let var = ctx.text(j).to_string();
    if ctx.is(j + 1, ":") {
        let mut k = j + 2;
        while matches!(ctx.text(k), "&" | "mut" | "dyn") || ctx.kind(k) == Some(TokKind::Lifetime) {
            k += 1;
        }
        if ctx.kind(k) == Some(TokKind::Ident) && starts_upper(ctx.text(k)) {
            locals.insert(var, ctx.text(k).to_string());
        }
        return;
    }
    if !ctx.is(j + 1, "=") {
        return;
    }
    let mut k = j + 2;
    loop {
        if ctx.kind(k) != Some(TokKind::Ident) {
            return;
        }
        if starts_upper(ctx.text(k)) {
            let ctor_call = ctx.is(k + 1, "::")
                && ctx.kind(k + 2) == Some(TokKind::Ident)
                && ctx.is(k + 3, "(");
            let struct_lit = ctx.is(k + 1, "{");
            if ctor_call || struct_lit {
                locals.insert(var, ctx.text(k).to_string());
            }
            return;
        }
        // Walk over a lowercase `path::` prefix.
        if ctx.is(k + 1, "::") {
            k += 2;
        } else {
            return;
        }
    }
}

/// An unresolved call site.
pub enum RawCall {
    /// `name(..)` — plain path-less call.
    Free { name: String },
    /// `Type::name(..)` / `Self::name(..)`.
    TypeQual { ty: String, name: String },
    /// `module::name(..)` (lowercase qualifier).
    ModQual { module: String, name: String },
    /// `recv.name(..)`; `recv` is the locally inferred receiver type.
    Method { name: String, recv: Option<String> },
}

impl RawCall {
    pub fn name(&self) -> &str {
        match self {
            RawCall::Free { name }
            | RawCall::TypeQual { name, .. }
            | RawCall::ModQual { name, .. }
            | RawCall::Method { name, .. } => name,
        }
    }
}

/// Classify a call at ident token `i` (already known to be followed by
/// `(` modulo turbofish). `self_ty` is the enclosing impl/trait subject,
/// `locals` the inferred local types.
pub fn classify_call(
    ctx: &FileCtx<'_>,
    i: usize,
    self_ty: Option<&str>,
    locals: &BTreeMap<String, String>,
) -> RawCall {
    let name = ctx.text(i).to_string();
    if i >= 1 && ctx.is(i - 1, ".") {
        let (base, _) = ctx.chain_back(i - 1);
        let recv = match base {
            Some("self") => self_ty.map(str::to_string),
            Some(v) => locals.get(v).cloned(),
            None => None,
        };
        RawCall::Method { name, recv }
    } else if i >= 2 && ctx.is(i - 1, "::") && ctx.kind(i - 2) == Some(TokKind::Ident) {
        let seg = ctx.text(i - 2);
        if seg == "Self" {
            match self_ty {
                Some(ty) => RawCall::TypeQual {
                    ty: ty.to_string(),
                    name,
                },
                None => RawCall::Free { name },
            }
        } else if starts_upper(seg) {
            RawCall::TypeQual {
                ty: seg.to_string(),
                name,
            }
        } else if matches!(seg, "crate" | "super" | "self") {
            RawCall::Free { name }
        } else {
            RawCall::ModQual {
                module: seg.to_string(),
                name,
            }
        }
    } else if i >= 1 && ctx.is(i - 1, "::") {
        // `<T as Trait>::name(..)`: qualifier unknown, over-approximate.
        RawCall::Method { name, recv: None }
    } else {
        RawCall::Free { name }
    }
}

/// One symbol the resolver indexes: the subset of a function definition
/// call resolution needs.
pub struct Sym {
    pub name: String,
    pub qual: String,
    pub file: String,
    pub self_ty: Option<String>,
    pub crate_name: Option<String>,
    pub is_test: bool,
}

/// Name indexes over a symbol list; resolution semantics shared by flow
/// and uniform (see module docs).
pub struct Resolver {
    /// Self type → method name → ids. Nested so lookups borrow `&str`
    /// keys; resolution runs once per call site per walk.
    methods: BTreeMap<String, BTreeMap<String, Vec<usize>>>,
    methods_by_name: BTreeMap<String, Vec<usize>>,
    free_by_name: BTreeMap<String, Vec<usize>>,
}

impl Resolver {
    pub fn new(syms: &[Sym]) -> Resolver {
        let mut methods: BTreeMap<String, BTreeMap<String, Vec<usize>>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (id, f) in syms.iter().enumerate() {
            match &f.self_ty {
                Some(ty) => {
                    methods
                        .entry(ty.clone())
                        .or_default()
                        .entry(f.name.clone())
                        .or_default()
                        .push(id);
                    methods_by_name.entry(f.name.clone()).or_default().push(id);
                }
                None => free_by_name.entry(f.name.clone()).or_default().push(id),
            }
        }
        Resolver {
            methods,
            methods_by_name,
            free_by_name,
        }
    }

    /// Candidate callees for `call` made from `caller`, with the
    /// same-file → same-crate → workspace narrowing for bare calls and
    /// the test-scope rule (test fns are never callees of non-test
    /// code). Never returns the caller itself.
    pub fn candidates(&self, syms: &[Sym], caller: usize, call: &RawCall) -> Vec<usize> {
        let caller_test = syms[caller].is_test;
        let callable = |c: usize| c != caller && (caller_test || !syms[c].is_test);
        let pick = |ids: &[usize], keep: &dyn Fn(usize) -> bool| -> Vec<usize> {
            ids.iter()
                .copied()
                .filter(|&c| keep(c) && callable(c))
                .collect()
        };
        match call {
            RawCall::Free { name } => {
                let all = self.free_by_name.get(name).map_or(&[][..], Vec::as_slice);
                let same_file = |c: usize| syms[c].file == syms[caller].file;
                let same_crate = |c: usize| {
                    syms[c].crate_name.is_some() && syms[c].crate_name == syms[caller].crate_name
                };
                // Narrow before the test-scope filter, as the scopes are
                // defined over every symbol of that name.
                if all.iter().any(|&c| same_file(c)) {
                    pick(all, &same_file)
                } else if all.iter().any(|&c| same_crate(c)) {
                    pick(all, &same_crate)
                } else {
                    pick(all, &|_| true)
                }
            }
            RawCall::TypeQual { ty, name } => pick(self.method_ids(ty, name), &|_| true),
            RawCall::ModQual { module, name } => {
                let all = self.free_by_name.get(name).map_or(&[][..], Vec::as_slice);
                // `qual` is `module::name` or ends in `::module::name`.
                let in_module = |c: usize| {
                    syms[c]
                        .qual
                        .strip_suffix(name.as_str())
                        .and_then(|q| q.strip_suffix("::"))
                        .and_then(|q| q.strip_suffix(module.as_str()))
                        .is_some_and(|q| q.is_empty() || q.ends_with("::"))
                };
                pick(all, &in_module)
            }
            RawCall::Method { name, recv } => {
                let keyed = recv
                    .as_deref()
                    .map_or(&[][..], |ty| self.method_ids(ty, name));
                if keyed.is_empty() {
                    let all = self
                        .methods_by_name
                        .get(name)
                        .map_or(&[][..], Vec::as_slice);
                    pick(all, &|_| true)
                } else {
                    pick(keyed, &|_| true)
                }
            }
        }
    }

    /// Methods named `name` on self type `ty`.
    fn method_ids(&self, ty: &str, name: &str) -> &[usize] {
        self.methods
            .get(ty)
            .and_then(|by_name| by_name.get(name))
            .map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_paths() {
        assert_eq!(module_path("crates/comms/src/world.rs"), "comms::world");
        assert_eq!(module_path("crates/comms/src/lib.rs"), "comms");
        assert_eq!(
            module_path("crates/des/src/experiments/mod.rs"),
            "des::experiments"
        );
        assert_eq!(
            module_path("crates/bench/src/bin/baseline.rs"),
            "bench::bin::baseline"
        );
        assert_eq!(module_path("src/lib.rs"), "hyades");
        assert_eq!(module_path("tests/determinism.rs"), "tests::determinism");
        assert_eq!(
            module_path("examples/ocean_gyre.rs"),
            "examples::ocean_gyre"
        );
    }

    #[test]
    fn param_names_in_order() {
        let ctx = FileCtx::new(
            "crates/x/src/a.rs",
            "fn f(&mut self, rank: usize, xs: &mut [f64]) {}",
        );
        let name_idx = 1; // `fn` `f` `(` ...
        assert_eq!(
            param_names(&ctx, name_idx),
            vec!["self".to_string(), "rank".to_string(), "xs".to_string()]
        );
    }

    #[test]
    fn resolver_prefers_same_file_then_same_crate() {
        let syms = vec![
            Sym {
                name: "go".into(),
                qual: "a::go".into(),
                file: "crates/a/src/lib.rs".into(),
                self_ty: None,
                crate_name: Some("a".into()),
                is_test: false,
            },
            Sym {
                name: "go".into(),
                qual: "b::go".into(),
                file: "crates/b/src/lib.rs".into(),
                self_ty: None,
                crate_name: Some("b".into()),
                is_test: false,
            },
            Sym {
                name: "caller".into(),
                qual: "a::caller".into(),
                file: "crates/a/src/lib.rs".into(),
                self_ty: None,
                crate_name: Some("a".into()),
                is_test: false,
            },
        ];
        let r = Resolver::new(&syms);
        let got = r.candidates(
            &syms,
            2,
            &RawCall::Free {
                name: "go".to_string(),
            },
        );
        assert_eq!(got, vec![0]);
    }
}
